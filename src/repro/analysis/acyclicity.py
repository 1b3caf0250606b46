"""The chase-termination hierarchy: weak ⊂ joint ⊂ MFA ⊂ stratified MFA.

Weak acyclicity (:mod:`repro.analysis.termination`) is the classic but
coarsest decidable termination guarantee for the Skolem chase.  Following
the acyclicity hierarchy mapped out by Krötzsch/Rudolph, Marnette, and
Cuenca Grau et al. (and pushed further by "Chase Termination Beyond
Polynomial Time"), this module climbs strictly wider rungs, all faithful to
the exact Skolemized clauses :mod:`repro.engine.fixpoint_chase` executes:

- **Joint acyclicity** (JA): instead of single position-graph edges, track
  the full *set* of positions each Skolem function's nulls can reach
  (``Mov``), requiring a variable's *every* body occurrence to be reachable
  before its null propagates.  The function-dependency graph has an edge
  ``f -> g`` when ``f``-nulls can feed an argument of ``g``; acyclicity of
  that graph bounds the nesting depth of every null.  It is computed over
  the shared :class:`~repro.analysis.termination.DependencyGraphIR`.
- **Model-faithful acyclicity** (MFA, Cuenca Grau et al.): run the Skolem
  chase of the *critical instance* (every relation filled with the single
  constant ``*``) via :func:`repro.engine.fixpoint_chase.fixpoint_chase`,
  bounded, and certify termination if it reaches a fixpoint without ever
  deriving a *cyclic* term (a Skolem function nested below itself).  For
  the constant-free dependencies of this library every chase of every
  instance maps homomorphically into the critical chase, so the observed
  Skolem-nesting depth bounds the depth on all instances.

- **Stratified MFA**: when the monolithic bounded MFA chase is refuted or
  runs out of budget, partition the set into dependency-level strongly
  connected components (``d1 -> d2`` when a head relation of ``d1`` feeds a
  body of ``d2``) and certify every stratum by itself.  Strata only feed
  forward, so per-stratum universal-termination certificates compose: long
  certified pipelines whose *global* critical chase exhausts the MFA round
  or fact budget are decided stratum by stratum (:func:`stratified_mfa`).

:func:`classify_termination` returns the *widest* rung that certifies the
set as a :class:`TerminationClass` lattice verdict, which
``engine/fixpoint_chase.py`` consults to run unbounded and ``repro lint``
surfaces as the findings ``TD001`` (no rung) and ``TD002`` / ``TD004`` /
``TD007`` (which rung admitted the set).  Super-weak acyclicity (Marnette)
is not a rung: every super-weakly acyclic set is MFA (Cuenca Grau et al.),
so a set that fails JA goes straight to the bounded MFA chase.

    >>> from repro.logic.parser import parse_tgd
    >>> classify_termination([parse_tgd("S(x,y) -> R(x,y)")]).cls.name
    'WEAKLY_ACYCLIC'
    >>> classify_termination(
    ...     [parse_tgd("E(x,y) & E(y,x) -> exists z . E(y,z)")]
    ... ).cls.name
    'JOINTLY_ACYCLIC'
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Sequence

import networkx as nx

from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.printer import dependency_label
from repro.logic.terms import FuncTerm, Term
from repro.logic.values import Constant, Variable
from repro.analysis.termination import (
    DependencyGraphIR,
    Position,
    TerminationReport,
    dependency_graph_ir,
    dependency_list,
    memoized,
    termination_report,
)


class TerminationClass(enum.Enum):
    """The lattice of chase-termination certificates, widest rung last.

    The classes form a chain ``WEAKLY_ACYCLIC < JOINTLY_ACYCLIC <
    MODEL_FAITHFUL < STRATIFIED_MFA < NOT_GUARANTEED``: every set certified
    at a rung is also certified at every later rung, and ``NOT_GUARANTEED``
    means no rung of the hierarchy admits the set.  ``STRATIFIED_MFA`` widens the *decided* frontier rather
    than the theoretical one: it certifies sets whose monolithic bounded
    critical chase blows the MFA budget but whose dependency-level strongly
    connected components each admit a per-stratum certificate.
    """

    WEAKLY_ACYCLIC = "weakly-acyclic"
    JOINTLY_ACYCLIC = "jointly-acyclic"
    MODEL_FAITHFUL = "model-faithful-acyclic"
    STRATIFIED_MFA = "stratified-mfa"
    NOT_GUARANTEED = "not-guaranteed"

    @property
    def rank(self) -> int:
        """Position in the chain (0 = weakly acyclic, 4 = not guaranteed)."""
        return list(TerminationClass).index(self)

    @property
    def guarantees_termination(self) -> bool:
        """True if the Skolem chase terminates on every instance."""
        return self is not TerminationClass.NOT_GUARANTEED

    def __le__(self, other: "TerminationClass") -> bool:
        return self.rank <= other.rank

    def __lt__(self, other: "TerminationClass") -> bool:
        return self.rank < other.rank


@dataclass(frozen=True)
class TerminationVerdict:
    """The hierarchy verdict for a dependency set.

    ``depth_bound`` bounds the Skolem-nesting depth of every null the
    chase can create whenever some rung certified the set (``None``
    otherwise).  The ``*_cycle`` witnesses name the Skolem functions on a
    cycle of the rung's dependency graph, proving why the narrower rung
    failed; ``mfa_cyclic_term`` renders the cyclic term that refuted MFA.
    ``mfa_conclusive`` is False when the bounded critical-instance chase
    ran out of budget before reaching either a fixpoint or a cyclic term.
    ``strata_count`` is the number of dependency-level strongly connected
    components the stratified-MFA pass partitioned the set into (``None``
    when the pass did not run or did not apply); on a stratified failure
    ``strata_witness`` names the first stratum no rung certifies.
    """

    cls: TerminationClass
    weak: TerminationReport
    depth_bound: int | None
    ja_cycle: tuple[str, ...] | None = None
    mfa_cyclic_term: str | None = None
    mfa_facts: int | None = None
    mfa_conclusive: bool = True
    strata_count: int | None = None
    strata_witness: tuple[str, ...] | None = None

    @property
    def guarantees_termination(self) -> bool:
        return self.cls.guarantees_termination

    def __bool__(self) -> bool:
        return self.guarantees_termination

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable summary of the verdict."""
        return {
            "class": self.cls.value,
            "guarantees_termination": self.guarantees_termination,
            "depth_bound": self.depth_bound,
            "weakly_acyclic": self.weak.weakly_acyclic,
            "ja_cycle": None if self.ja_cycle is None else list(self.ja_cycle),
            "mfa_cyclic_term": self.mfa_cyclic_term,
            "mfa_facts": self.mfa_facts,
            "mfa_conclusive": self.mfa_conclusive,
            "strata_count": self.strata_count,
            "strata_witness": None
            if self.strata_witness is None
            else list(self.strata_witness),
        }


# ------------------------------------------------------------ joint acyclicity


def _function_occurrences(
    ir: DependencyGraphIR,
) -> dict[str, list[tuple[int, tuple[Variable, ...], tuple[Position, ...]]]]:
    """Group Skolem functions by name across clauses (nested tgds repeat them).

    Each occurrence is a (clause index, argument variables, head positions)
    triple.
    """
    result: dict[str, list[tuple[int, tuple[Variable, ...], tuple[Position, ...]]]] = {}
    for ci, clause in enumerate(ir.clauses):
        for skolem in clause.skolems:
            result.setdefault(skolem.function, []).append(
                (ci, skolem.args, skolem.head_positions)
            )
    return result


def _ja_movement(ir: DependencyGraphIR, start: set[Position]) -> set[Position]:
    """``Mov``: all positions a null created at *start* positions can reach.

    A value propagates through a clause via a universal variable ``x`` only
    if *every* body position of ``x`` is already reachable (a single trigger
    binds ``x`` to one value, which must match at all occurrences); it then
    appears at every top-level head position of ``x``.
    """
    moved = set(start)
    changed = True
    while changed:
        changed = False
        for clause in ir.clauses:
            for var, head_positions in clause.head_positions.items():
                body_positions = clause.body_positions.get(var, ())
                if not body_positions:
                    continue
                if all(p in moved for p in body_positions):
                    for position in head_positions:
                        if position not in moved:
                            moved.add(position)
                            changed = True
    return moved


def _cycle_witness(graph: "nx.DiGraph") -> tuple[str, ...] | None:
    """A node cycle of *graph*, or None if it is acyclic."""
    try:
        cycle_edges = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None
    return tuple(str(source) for source, _target in cycle_edges)


def _depth_from_dag(graph: "nx.DiGraph") -> int:
    """Skolem-nesting depth bound from an acyclic function-dependency graph.

    An edge ``f -> g`` means ``g``-terms can nest ``f``-terms one level
    deeper, so the depth is bounded by the longest path (in nodes).
    """
    if graph.number_of_nodes() == 0:
        return 0
    return nx.dag_longest_path_length(graph) + 1


def jointly_acyclic(
    ir: DependencyGraphIR,
) -> tuple[bool, tuple[str, ...] | None, int]:
    """Decide joint acyclicity; return (verdict, witness cycle, depth bound)."""
    functions = _function_occurrences(ir)
    movement = {
        fn: _ja_movement(
            ir, {p for _clause, _args, positions in occs for p in positions}
        )
        for fn, occs in functions.items()
    }
    graph = nx.DiGraph()
    graph.add_nodes_from(functions)
    for source, moved in movement.items():
        for target, occs in functions.items():
            for ci, args, _positions in occs:
                clause = ir.clauses[ci]
                if any(
                    clause.body_positions.get(x)
                    and all(p in moved for p in clause.body_positions[x])
                    for x in args
                ):
                    graph.add_edge(source, target)
                    break
    cycle = _cycle_witness(graph)
    if cycle is not None:
        return False, cycle, 0
    return True, None, _depth_from_dag(graph)


# ------------------------------------------------- model-faithful acyclicity

#: The single constant of the critical instance.
_STAR = Constant("*")


class _CyclicTermFound(Exception):
    def __init__(self, term: FuncTerm):
        self.term = term
        super().__init__(str(term))


class _MFABudgetExhausted(Exception):
    pass


def _term_depth(term: Term) -> int:
    if isinstance(term, FuncTerm):
        return 1 + max((_term_depth(arg) for arg in term.args), default=0)
    return 0


def _cyclic_subterm(term: Term, seen: tuple[str, ...] = ()) -> FuncTerm | None:
    """The outermost subterm whose Skolem function recurs below itself, if any."""
    if not isinstance(term, FuncTerm):
        return None
    if term.function in seen:
        return term
    nested = seen + (term.function,)
    for arg in term.args:
        found = _cyclic_subterm(arg, nested)
        if found is not None:
            # Report the whole enclosing term so the witness exhibits the
            # function nested below itself, not just the inner recurrence.
            return term if not seen else found
    return None


def critical_instance(ir: DependencyGraphIR) -> Instance:
    """The critical instance: every relation filled with ``*`` everywhere."""
    arities: dict[str, int] = {}
    for relation, index in ir.positions:
        arities[relation] = max(arities.get(relation, 0), index + 1)
    return Instance(
        Atom(relation, (_STAR,) * arity) for relation, arity in sorted(arities.items())
    )


def model_faithful_acyclic(
    dependencies: Sequence[object],
    *,
    max_rounds: int = 32,
    max_facts: int = 50_000,
) -> tuple[bool | None, str | None, int | None, int | None]:
    """The bounded critical-instance chase deciding MFA.

    Returns ``(verdict, cyclic term, depth, facts)``: verdict True certifies
    MFA (with the observed Skolem depth bounding every chase), False means a
    cyclic term was derived, and None means the budget ran out first
    (inconclusive -- the caller must treat the set as not certified).
    """
    from repro.engine.fixpoint_chase import fixpoint_chase

    tgds = [dep for dep in dependencies if not isinstance(dep, Egd)]
    if not tgds:
        return True, None, 0, 0
    counter = {"facts": 0}

    def hook(fact: Atom) -> None:
        counter["facts"] += 1
        if counter["facts"] > max_facts:
            raise _MFABudgetExhausted
        for arg in fact.args:
            cyclic = _cyclic_subterm(arg)
            if cyclic is not None:
                raise _CyclicTermFound(cyclic)

    try:
        result = fixpoint_chase(
            critical_instance(dependency_graph_ir(dependencies)),
            tgds,
            max_rounds=max_rounds,
            fact_hook=hook,
        )
    except _CyclicTermFound as found:
        return False, str(found.term), None, counter["facts"]
    except _MFABudgetExhausted:
        return None, None, None, counter["facts"]
    if not result.reached_fixpoint:
        return None, None, None, counter["facts"]
    depth = max(
        (_term_depth(arg) for fact in result.instance for arg in fact.args),
        default=0,
    )
    return True, None, depth, counter["facts"]


# --------------------------------------------------------------- stratified MFA


def stratified_mfa(
    dependencies: Sequence[object],
    *,
    mfa_max_rounds: int = 32,
    mfa_max_facts: int = 50_000,
) -> tuple[bool, int, int | None, tuple[str, ...] | None] | None:
    """Per-stratum certification over the dependency-level SCC condensation.

    Build the graph with an edge ``d1 -> d2`` whenever a head relation of
    ``d1`` occurs in a body of ``d2``, condense it into strongly connected
    components, and classify every component on the hierarchy *by itself*
    (recursively through :func:`classify_termination`, so a stratum may be
    admitted by any rung, each with its own MFA budget).  Because strata
    only feed forward, the oblivious Skolem chase of the whole set is the
    strata chased to completion in topological order; if every stratum's
    chase terminates on all instances, so does the whole set, with the
    Skolem-nesting depth bounded by the sum of the per-stratum depth bounds.

    This certifies sets the *monolithic* bounded MFA chase cannot decide:
    its round and fact budgets are global, so long certified pipelines
    exhaust them even though every component is small.

    Returns ``(certified, strata count, depth bound, failing-stratum
    labels)``, or ``None`` when the partition is trivial (fewer than two
    strata -- the monolithic MFA verdict already covers that case).
    """
    from repro.engine.chase import dependency_clauses

    tgds = [dep for dep in dependencies if not isinstance(dep, Egd)]
    if len(tgds) < 2:
        return None
    # A nested clause's body repeats its ancestors' atoms, so a dependency's
    # clauses read every relation its parts read (bar head-less leaf parts,
    # which never fire).
    bodies: dict[int, set[str]] = {}
    heads: dict[int, set[str]] = {}
    for index, clauses in dependency_clauses(tgds):
        bodies[index] = {atom.relation for clause in clauses for atom in clause.body}
        heads[index] = {atom.relation for clause in clauses for atom in clause.head}
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(tgds)))
    for i in graph:
        for j in graph:
            if heads[i] & bodies[j]:
                graph.add_edge(i, j)
    components = [sorted(scc) for scc in nx.strongly_connected_components(graph)]
    if len(components) < 2:
        return None
    components.sort()  # deterministic stratum order for witnesses
    depth = 0
    for members in components:
        stratum = [tgds[i] for i in members]
        verdict = classify_termination(
            stratum,
            mfa_max_rounds=mfa_max_rounds,
            mfa_max_facts=mfa_max_facts,
        )
        if not verdict.guarantees_termination or verdict.depth_bound is None:
            witness = tuple(dependency_label(tgds[i], i) for i in members)
            return False, len(components), None, witness
        depth += verdict.depth_bound
    return True, len(components), depth, None


# ------------------------------------------------------------- classification


def classify_termination(
    dependencies: object,
    *,
    mfa_max_rounds: int = 32,
    mfa_max_facts: int = 50_000,
) -> TerminationVerdict:
    """Classify a dependency set on the termination hierarchy.

    Tries the rungs narrowest-first (each is strictly cheaper than the next)
    and stops at the first certificate.  The verdict is memoized per set and
    MFA budget.

        >>> from repro.logic.parser import parse_tgd
        >>> classify_termination([parse_tgd("E(x,y) -> exists z . E(y,z)")]).cls.name
        'NOT_GUARANTEED'
    """
    deps = dependency_list(dependencies)
    return memoized(
        "hierarchy",
        deps,
        lambda: _classify(deps, mfa_max_rounds, mfa_max_facts),
        params=(mfa_max_rounds, mfa_max_facts),
    )


def _classify(
    deps: list[object], mfa_max_rounds: int, mfa_max_facts: int
) -> TerminationVerdict:
    report = termination_report(deps)
    if report.weakly_acyclic:
        return TerminationVerdict(
            cls=TerminationClass.WEAKLY_ACYCLIC,
            weak=report,
            depth_bound=report.depth_bound,
        )

    ir = dependency_graph_ir(deps)
    ja, ja_cycle, ja_depth = jointly_acyclic(ir)
    if ja:
        return TerminationVerdict(
            cls=TerminationClass.JOINTLY_ACYCLIC,
            weak=report,
            depth_bound=ja_depth,
        )

    mfa, cyclic_term, mfa_depth, mfa_facts = model_faithful_acyclic(
        deps, max_rounds=mfa_max_rounds, max_facts=mfa_max_facts
    )
    if mfa:
        return TerminationVerdict(
            cls=TerminationClass.MODEL_FAITHFUL,
            weak=report,
            depth_bound=mfa_depth,
            ja_cycle=ja_cycle,
            mfa_facts=mfa_facts,
        )

    # The monolithic MFA chase refuted or exhausted its budget: partition the
    # set into dependency-level strongly connected components and certify
    # each stratum by itself (each with its own budget).
    refuted = TerminationVerdict(
        cls=TerminationClass.NOT_GUARANTEED,
        weak=report,
        depth_bound=None,
        ja_cycle=ja_cycle,
        mfa_cyclic_term=cyclic_term,
        mfa_facts=mfa_facts,
        mfa_conclusive=mfa is not None,
    )
    strata = stratified_mfa(
        deps, mfa_max_rounds=mfa_max_rounds, mfa_max_facts=mfa_max_facts
    )
    if strata is None:
        return refuted
    certified, strata_count, strata_depth, strata_witness = strata
    if certified:
        return replace(
            refuted,
            cls=TerminationClass.STRATIFIED_MFA,
            depth_bound=strata_depth,
            strata_count=strata_count,
        )
    return replace(refuted, strata_count=strata_count, strata_witness=strata_witness)


__all__ = [
    "TerminationClass",
    "TerminationVerdict",
    "classify_termination",
    "critical_instance",
    "jointly_acyclic",
    "model_faithful_acyclic",
    "stratified_mfa",
]
