"""Decidability-frontier analysis: triangular guardedness and complexity tiers.

The termination lattice of :mod:`repro.analysis.acyclicity` answers one
question -- *does the Skolem chase terminate?* -- with a yes/no certificate
per rung.  This module refines the frontier along two independent axes named
by the follow-up literature:

- **Triangular guardedness** (Asuncion & Zhang, "Fine-grained complexity of
  safety verification", arXiv:1804.05997): a *reasoning* certificate, not a
  termination certificate.  BCQ entailment over triangularly-guarded tgds is
  decidable even when the chase diverges, because the frontier variables of
  every rule are pairwise covered by body atoms ("triangular": a triangle of
  binary atoms guards a three-variable frontier without any single guard
  atom).  :func:`triangular_guard_report` implements the *sufficient*
  pairwise-guard condition -- every pair of frontier variables co-occurs in
  some body atom of its Skolemized clause -- over the shared
  :class:`~repro.analysis.termination.DependencyGraphIR`, and names the
  first unguarded clause/variable pair as a concrete witness when the check
  fails.  Egds fall outside the fragment and void the certificate.
- **Termination-complexity tiers** ("Chase Termination Beyond Polynomial
  Time", Hanisch & Kroetzsch, arXiv:2403.16712): every *certified* verdict
  is refined into a :class:`ComplexityTier` describing how large the chase
  result can grow.  The single coarse degree of
  :func:`repro.analysis.cost.chase_cost` (``A * w^D``) over-approximates
  wildly; on sets whose joint-acyclicity function graph is *acyclic* a
  per-relation degree program (below) certifies much lower polynomial
  degrees, and a maximum relation degree within
  :data:`~repro.analysis.cost.CC002_DEGREE_LIMIT` places the set in the
  ``PTIME`` tier with explicit per-relation witnesses (lint ``CC003``).

The per-relation degree program
-------------------------------

Over an *acyclic* JA function graph, process Skolem functions in
topological order and assign each a *value degree*: the number of distinct
``f``-terms the chase can create is ``O(n^valdeg(f))`` for an ``n``-value
instance.  An argument variable ``x`` of ``f`` is bound by a trigger to
either an input value (``n`` choices, degree 1) or a ``g``-term for some
``g`` whose movement set :func:`~repro.analysis.acyclicity._ja_movement`
covers *every* body position of ``x`` -- exactly the JA edge condition, so
only topological predecessors contribute and the recursion is well-founded:

    ``valdeg(f) = max over occurrences of  sum_x  max(1, max_g valdeg(g))``

A position's degree is then the largest value degree that reaches it, and a
relation's degree the sum over its positions; ``R`` holds ``O(n^degree(R))``
facts.  On a *cyclic* function graph the recursion is not well-founded (a
function feeding its own arguments hides unbounded constants behind a fixed
degree), so no refined witnesses are produced there -- those sets keep the
tier their lattice rung implies.

Tier assignment: uncertified sets get ``NON_ELEMENTARY`` (no elementary
bound is provable); MFA-certified sets get ``2-EXPTIME`` (the critical
chase admits doubly-exponential term counts in the program); WA/JA sets
get ``EXPTIME`` (``n^{w^D}`` with program-sized ``D``) unless the degree
program certifies ``PTIME``.

    >>> from repro.logic.parser import parse_tgd
    >>> report = frontier_report([parse_tgd("E(x,y) & E(y,x) -> exists z . E(y,z)")])
    >>> report.tier.tier.value, report.triangular.guarded
    ('ptime', True)
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any

import networkx as nx

from repro.logic.egds import Egd
from repro.logic.values import Variable
from repro.analysis.acyclicity import (
    TerminationClass,
    TerminationVerdict,
    _function_occurrences,
    _ja_movement,
    classify_termination,
)
from repro.analysis.cost import (
    CC002_DEGREE_LIMIT,
    SATURATION_CAP,
    ChaseCostEstimate,
    chase_cost,
    saturating_add,
)
from repro.analysis.termination import (
    DependencyGraphIR,
    Position,
    dependency_graph_ir,
    dependency_list,
    format_position,
    memoized,
)

#: Maximum per-relation polynomial degree admitted into the PTIME tier
#: (deliberately the CC002 limit: the tiers replace the single CC002 bucket).
PTIME_DEGREE_LIMIT = CC002_DEGREE_LIMIT


class ComplexityTier(enum.Enum):
    """How large a *certified-terminating* chase can grow, coarsest tier last.

    The tiers form a chain ``PTIME < EXPTIME < TWO_EXPTIME <
    NON_ELEMENTARY``.  ``PTIME`` is witnessed by per-relation polynomial
    degrees; ``NON_ELEMENTARY`` marks sets with no termination certificate
    at all (no elementary chase-size bound is provable).
    """

    PTIME = "ptime"
    EXPTIME = "exptime"
    TWO_EXPTIME = "2-exptime"
    NON_ELEMENTARY = "non-elementary"

    @property
    def rank(self) -> int:
        """Position in the chain (0 = PTIME, 3 = non-elementary)."""
        return list(ComplexityTier).index(self)

    @property
    def polynomial(self) -> bool:
        """True when per-relation degree witnesses certify a polynomial chase."""
        return self is ComplexityTier.PTIME

    def __le__(self, other: "ComplexityTier") -> bool:
        return self.rank <= other.rank

    def __lt__(self, other: "ComplexityTier") -> bool:
        return self.rank < other.rank


# ------------------------------------------------------ triangular guardedness


@dataclass(frozen=True)
class TriangularGuardReport:
    """The triangular-guardedness certificate (or its refutation witness).

    ``guarded`` certifies decidable BCQ entailment for the set -- it says
    *nothing* about chase termination.  On failure ``witness`` names the
    first Skolemized clause (by label) and the frontier-variable pair that
    no body atom covers; when egds void the fragment ``witness`` is ``None``
    and ``reason`` explains.
    """

    guarded: bool
    reason: str
    witness: tuple[str, str, str] | None = None  # (clause label, var, var)
    clause_count: int = 0

    def __bool__(self) -> bool:
        return self.guarded

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable summary of the certificate."""
        return {
            "guarded": self.guarded,
            "reason": self.reason,
            "witness": None if self.witness is None else list(self.witness),
            "clause_count": self.clause_count,
        }


def _clause_frontier(clause: Any) -> list[Variable]:
    """The frontier of a Skolemized clause: universal variables its head uses.

    Covers both top-level head occurrences and occurrences as Skolem-term
    arguments -- a variable a null *depends on* is as frontier as one copied
    into the head directly.
    """
    frontier = set(clause.head_positions)
    for skolem in clause.skolems:
        frontier.update(skolem.args)
    return sorted(
        (var for var in frontier if var in clause.body_positions),
        key=lambda var: var.name,
    )


def triangular_guard_report(dependencies: object) -> TriangularGuardReport:
    """Check the pairwise frontier-guard condition over the shared IR.

    The check is a documented *sufficient* condition for membership in the
    triangularly-guarded class of arXiv:1804.05997: every pair of frontier
    variables of every Skolemized clause must co-occur in some body atom.  A
    triangle of binary atoms pairwise-guards a three-variable frontier that
    no single atom could guard, which is exactly the shape the class is
    named after and strictly wider than (frontier-)guardedness.

        >>> from repro.logic.parser import parse_tgd
        >>> triangular_guard_report(
        ...     [parse_tgd("R(x,y) -> exists z . R(y,z) & R(z,x)")]
        ... ).guarded
        True
        >>> report = triangular_guard_report(
        ...     [parse_tgd("E(x,y) & E(y,w) -> exists z . T(x,w,z)")]
        ... )
        >>> report.guarded, report.witness
        (False, ('d0.0', 'w', 'x'))
    """
    deps = dependency_list(dependencies)
    if any(isinstance(dep, Egd) for dep in deps):
        return TriangularGuardReport(
            guarded=False,
            reason="egds fall outside the triangularly-guarded tgd fragment",
        )
    ir = dependency_graph_ir(deps)
    for clause in ir.clauses:
        frontier = _clause_frontier(clause)
        if len(frontier) < 2:
            continue
        atom_vars = [
            {arg for arg in atom.args if isinstance(arg, Variable)}
            for atom in clause.body
        ]
        for i, left in enumerate(frontier):
            for right in frontier[i + 1 :]:
                if not any(left in vs and right in vs for vs in atom_vars):
                    return TriangularGuardReport(
                        guarded=False,
                        reason=(
                            f"frontier variables {left} and {right} of clause "
                            f"{clause.label} share no body atom"
                        ),
                        witness=(clause.label, left.name, right.name),
                        clause_count=len(ir.clauses),
                    )
    return TriangularGuardReport(
        guarded=True,
        reason="every frontier-variable pair is covered by a body atom",
        clause_count=len(ir.clauses),
    )


# ------------------------------------------------------------ complexity tiers


@dataclass(frozen=True)
class TierReport:
    """A certified verdict refined into a :class:`ComplexityTier`.

    When ``refined`` is True the per-relation ``relation_degrees`` (and the
    per-function ``function_degrees`` behind them) are sound polynomial
    witnesses: relation ``R`` holds ``O(n^degree(R))`` facts after chasing
    an ``n``-value instance.  ``basis`` records the lattice rung the tier
    was derived from; ``reason`` says why this tier and not a lower one.
    """

    tier: ComplexityTier
    basis: TerminationClass
    reason: str
    refined: bool
    relation_degrees: tuple[tuple[str, int], ...] | None = None
    function_degrees: tuple[tuple[str, int], ...] | None = None
    max_degree: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable summary of the tier."""
        return {
            "tier": self.tier.value,
            "basis": self.basis.value,
            "reason": self.reason,
            "refined": self.refined,
            "relation_degrees": None
            if self.relation_degrees is None
            else {relation: degree for relation, degree in self.relation_degrees},
            "function_degrees": None
            if self.function_degrees is None
            else {fn: degree for fn, degree in self.function_degrees},
            "max_degree": self.max_degree,
        }


def _degree_program(
    ir: DependencyGraphIR,
) -> tuple[dict[str, int], dict[Position, int]] | None:
    """The per-function / per-position degree assignment, or None if cyclic.

    Implements the topological recursion of the module docstring over the JA
    function graph; returns ``None`` when that graph has a cycle (the
    recursion would not be well-founded, so no sound witnesses exist here).
    """
    functions = _function_occurrences(ir)
    movement = {
        fn: _ja_movement(
            ir, {p for _clause, _args, positions in occs for p in positions}
        )
        for fn, occs in functions.items()
    }

    def feeders(ci: int, var: Variable) -> list[str]:
        """Functions whose terms can be the value of *var* in clause *ci*."""
        body_positions = ir.clauses[ci].body_positions.get(var, ())
        if not body_positions:
            return []
        return [
            fn
            for fn, moved in movement.items()
            if all(p in moved for p in body_positions)
        ]

    graph = nx.DiGraph()
    graph.add_nodes_from(functions)
    for target, occs in functions.items():
        for ci, args, _positions in occs:
            for var in args:
                for source in feeders(ci, var):
                    graph.add_edge(source, target)
    if not nx.is_directed_acyclic_graph(graph):
        return None

    valdeg: dict[str, int] = {}
    for fn in nx.topological_sort(graph):
        best = 0
        for ci, args, _positions in functions[fn]:
            total = 0
            for var in args:
                contributions = [valdeg[g] for g in feeders(ci, var)]
                total = saturating_add(total, max([1, *contributions]))
            best = max(best, total)
        valdeg[fn] = best

    posdeg: dict[Position, int] = {}
    for position in ir.positions:
        reaching = [deg for fn, deg in valdeg.items() if position in movement[fn]]
        posdeg[position] = max([1, *reaching])
    return valdeg, posdeg


def tier_report(dependencies: object) -> TierReport:
    """Assign a :class:`ComplexityTier` to a dependency set.

        >>> from repro.logic.parser import parse_tgd
        >>> tier_report([parse_tgd("E(x,y) -> exists z . E(y,z)")]).tier.value
        'non-elementary'
    """
    deps = dependency_list(dependencies)
    verdict = classify_termination(deps)
    if not verdict.guarantees_termination:
        return TierReport(
            tier=ComplexityTier.NON_ELEMENTARY,
            basis=verdict.cls,
            reason="no termination certificate: no elementary chase-size "
            "bound is provable",
            refined=False,
        )
    ir = dependency_graph_ir(deps)
    if verdict.cls in (
        TerminationClass.WEAKLY_ACYCLIC,
        TerminationClass.JOINTLY_ACYCLIC,
    ):
        degrees = _degree_program(ir)
    else:
        degrees = None
    if degrees is not None:
        valdeg, posdeg = degrees
        arities: dict[str, int] = {}
        for relation, index in ir.positions:
            arities[relation] = max(arities.get(relation, 0), index + 1)
        relation_degrees = tuple(
            (
                relation,
                sum(posdeg[(relation, index)] for index in range(arity)),
            )
            for relation, arity in sorted(arities.items())
        )
        max_degree = max((deg for _r, deg in relation_degrees), default=0)
        function_degrees = tuple(sorted(valdeg.items()))
        if max_degree <= PTIME_DEGREE_LIMIT and max_degree < SATURATION_CAP:
            return TierReport(
                tier=ComplexityTier.PTIME,
                basis=verdict.cls,
                reason=f"per-relation degree witnesses certify a polynomial "
                f"chase of degree at most {max_degree}",
                refined=True,
                relation_degrees=relation_degrees,
                function_degrees=function_degrees,
                max_degree=max_degree,
            )
        return TierReport(
            tier=ComplexityTier.EXPTIME,
            basis=verdict.cls,
            reason=f"maximum certified relation degree {max_degree} exceeds "
            f"the PTIME limit {PTIME_DEGREE_LIMIT}",
            refined=True,
            relation_degrees=relation_degrees,
            function_degrees=function_degrees,
            max_degree=max_degree,
        )

    return TierReport(
        tier=ComplexityTier.TWO_EXPTIME,
        basis=verdict.cls,
        reason=f"{verdict.cls.value} certifies termination via the critical "
        "chase only, which admits doubly-exponential term counts",
        refined=False,
    )


# ------------------------------------------------------------- the full report


@dataclass(frozen=True)
class FrontierReport:
    """Everything the decidability-frontier analyzer knows about a set."""

    termination: TerminationVerdict
    triangular: TriangularGuardReport
    tier: TierReport
    cost: ChaseCostEstimate

    @property
    def certified(self) -> bool:
        """True when some lattice rung certifies chase termination."""
        return self.termination.guarantees_termination

    @property
    def decidable_reasoning(self) -> bool:
        """True when BCQ reasoning is decidable (terminating *or* guarded)."""
        return self.certified or self.triangular.guarded

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable summary of the whole report."""
        return {
            "certified": self.certified,
            "decidable_reasoning": self.decidable_reasoning,
            "termination": self.termination.to_dict(),
            "triangular": self.triangular.to_dict(),
            "tier": self.tier.to_dict(),
            "cost": self.cost.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON (sorted keys) -- the ``repro analyze`` payload."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def frontier_report(dependencies: object) -> FrontierReport:
    """Run the full frontier analysis (memoized per dependency set)."""
    deps = dependency_list(dependencies)
    return memoized(
        "frontier",
        deps,
        lambda: FrontierReport(
            termination=classify_termination(deps),
            triangular=triangular_guard_report(deps),
            tier=tier_report(deps),
            cost=chase_cost(deps),
        ),
    )


def describe_witnesses(report: FrontierReport) -> list[str]:
    """Human-readable one-liners for every witness the report carries."""
    lines: list[str] = []
    verdict = report.termination
    if verdict.weak.witness_cycle:
        rendered = " -> ".join(
            format_position(p) for p in verdict.weak.witness_cycle
        )
        lines.append(f"weak-acyclicity cycle: {rendered}")
    if verdict.ja_cycle:
        lines.append("joint-acyclicity cycle: " + " -> ".join(verdict.ja_cycle))
    if verdict.mfa_cyclic_term is not None:
        lines.append(f"MFA cyclic term: {verdict.mfa_cyclic_term}")
    if report.triangular.witness is not None:
        label, left, right = report.triangular.witness
        lines.append(
            f"unguarded frontier pair: {left}, {right} in clause {label}"
        )
    if report.tier.relation_degrees:
        rendered = ", ".join(
            f"{relation}: n^{degree}"
            for relation, degree in report.tier.relation_degrees
        )
        lines.append(f"relation degrees: {rendered}")
    return lines


__all__ = [
    "ComplexityTier",
    "FrontierReport",
    "PTIME_DEGREE_LIMIT",
    "TierReport",
    "TriangularGuardReport",
    "describe_witnesses",
    "frontier_report",
    "tier_report",
    "triangular_guard_report",
]
