"""Chase-termination analysis: position graphs, weak acyclicity, depth bounds.

The decision procedures of the paper chase canonical instances, and the
engine's fixpoint chase (:mod:`repro.engine.fixpoint_chase`) iterates
dependencies over their own output.  Whether those chases terminate is
undecidable in general, but the classic *weak acyclicity* test of Fagin,
Kolaitis, Miller, and Popa (the position/dependency graph with special
edges) gives a broad decidable sufficient condition, and this module
implements it for every formalism of the library.

Every tgd is first Skolemized by the engine's one clause compiler,
:func:`repro.engine.chase.compile_clause_program` (nested and SO tgds
under ``d{index}_``, s-t tgds under ``t{batch}_``), so one uniform clause
shape ``body atoms -> head atoms over terms`` feeds the graph
construction.  The *position graph* has a node ``(R, i)`` for every position
of every relation and, for each clause and each universal variable ``x``
occurring at body position ``p``:

- a **regular** edge ``p -> q`` for every head position ``q`` where ``x``
  itself occurs (the value is copied), and
- a **special** edge ``p -> q`` for every head position ``q`` holding a
  Skolem term over ``x`` (a fresh null is created from the value).

A set of dependencies is *weakly acyclic* iff no cycle of the position graph
contains a special edge.  When it is, every position has a finite *rank*
(the maximum number of special edges on any path into it), and the oblivious
chase only ever creates nulls whose Skolem-term nesting depth is at most the
maximum rank -- the ``depth_bound`` reported here and verified by the tests
against :func:`repro.engine.fixpoint_chase.fixpoint_chase`.

    >>> from repro.logic.parser import parse_tgd
    >>> termination_report([parse_tgd("S(x,y) -> R(x,y)")]).weakly_acyclic
    True
    >>> report = termination_report([parse_tgd("E(x,y) -> E(y,z)")])
    >>> report.weakly_acyclic
    False
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, TypeVar

import networkx as nx

from repro.errors import DependencyError
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.nested import NestedTgd
from repro.logic.sotgd import SOTgd
from repro.logic.terms import FuncTerm, term_variables
from repro.logic.tgds import STTgd
from repro.logic.values import Variable

#: A position is a (relation name, 0-based argument index) pair.
Position = tuple[str, int]


def format_position(position: Position) -> str:
    """Render a position as ``R.i`` for messages and JSON reports."""
    relation, index = position
    return f"{relation}.{index}"


# ----------------------------------------------------- dependency-graph IR

#: The shared intermediate representation of a dependency set: one
#: :class:`ClauseIR` per Skolemized clause, with every variable/position
#: relationship the static analyses need precomputed.  The weak-acyclicity
#: position graph (this module), the joint-acyclicity test
#: (:mod:`repro.analysis.acyclicity`), and the cost model
#: (:mod:`repro.analysis.cost`) are all views of this IR.


@dataclass(frozen=True)
class SkolemIR:
    """One null-creating Skolem function of a clause.

    ``args`` are the variables the function ranges over (the engine's
    Skolemization passes all universals in scope, so these are exactly the
    values a fresh null is keyed by), and ``head_positions`` are the
    positions where a term *rooted* at the function occurs in the head.
    """

    function: str
    args: tuple[Variable, ...]
    head_positions: tuple[Position, ...]


@dataclass(frozen=True)
class ClauseIR:
    """A Skolemized clause ``body -> head`` with its position indexes.

    ``body_positions`` / ``head_positions`` map each universal variable to
    its *top-level* occurrences (positions where the value itself sits, not
    buried inside a Skolem term) -- top-level occurrences are exactly where
    a value is copied verbatim by a chase step.
    """

    label: str
    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    body_positions: dict[Variable, tuple[Position, ...]] = field(hash=False)
    head_positions: dict[Variable, tuple[Position, ...]] = field(hash=False)
    skolems: tuple[SkolemIR, ...] = ()


@dataclass(frozen=True)
class DependencyGraphIR:
    """The shared IR of a dependency set: clauses plus the position universe.

    ``positions`` includes positions contributed by egds (which create no
    edges but belong to the schema of the analyzed program).
    """

    clauses: tuple[ClauseIR, ...]
    positions: frozenset[Position]

    @property
    def skolem_functions(self) -> tuple[SkolemIR, ...]:
        """All Skolem functions of all clauses (paired with their clauses)."""
        return tuple(sk for clause in self.clauses for sk in clause.skolems)

    @property
    def max_skolem_arity(self) -> int:
        """The largest number of variables any Skolem function ranges over."""
        return max((len(sk.args) for sk in self.skolem_functions), default=0)

    @property
    def relations(self) -> frozenset[str]:
        """All relation names of the analyzed program."""
        return frozenset(relation for relation, _ in self.positions)


def _positions_of(atoms: Iterable[Atom]) -> dict[Variable, tuple[Position, ...]]:
    """Top-level variable occurrences of *atoms* as position tuples."""
    result: dict[Variable, list[Position]] = {}
    for atom in atoms:
        for i, arg in enumerate(atom.args):
            if isinstance(arg, Variable):
                result.setdefault(arg, []).append((atom.relation, i))
    return {var: tuple(positions) for var, positions in result.items()}


def _clause_ir(label: str, body: tuple[Atom, ...], head: tuple[Atom, ...]) -> ClauseIR:
    skolems: dict[str, tuple[tuple[Variable, ...], list[Position]]] = {}
    for atom in head:
        for i, term in enumerate(atom.args):
            if isinstance(term, FuncTerm):
                variables = tuple(dict.fromkeys(term_variables(term)))
                args, positions = skolems.setdefault(term.function, (variables, []))
                positions.append((atom.relation, i))
    return ClauseIR(
        label=label,
        body=body,
        head=head,
        body_positions=_positions_of(body),
        head_positions=_positions_of(head),
        skolems=tuple(
            SkolemIR(function=fn, args=args, head_positions=tuple(positions))
            for fn, (args, positions) in sorted(skolems.items())
        ),
    )


def dependency_graph_ir(dependencies: Iterable[object]) -> DependencyGraphIR:
    """The shared dependency-graph IR of a dependency set (memoized).

    Egds contribute positions only.  The tgds, in list order without the
    egds, are compiled by the engine's clause compiler
    (:func:`repro.engine.chase.dependency_clauses`, the per-dependency view
    of :func:`~repro.engine.chase.compile_clause_program`) -- the same list
    the MFA test hands to the fixpoint chase -- so the analyses built on
    this IR classify exactly the program the engine runs, Skolem names
    included.  Clauses keep list order and are labelled ``d{index}.{cid}``,
    *index* being the position in the mixed egd/tgd list.
    """
    deps = list(dependencies)
    return memoized("ir", deps, lambda: _build_ir(deps))


def _build_ir(dependencies: list[object]) -> DependencyGraphIR:
    from repro.engine.chase import dependency_clauses

    tgd_indexes: list[int] = []
    tgds: list[object] = []
    positions: set[Position] = set()
    for index, dep in enumerate(dependencies):
        if isinstance(dep, Egd):
            for atom in dep.body:
                for i in range(atom.arity):
                    positions.add((atom.relation, i))
            continue
        if not isinstance(dep, (STTgd, NestedTgd, SOTgd)):
            raise DependencyError(f"cannot analyze termination of dependency {dep!r}")
        tgd_indexes.append(index)
        tgds.append(dep)
    clauses = [
        _clause_ir(f"d{tgd_indexes[tgd_index]}.{cid}", clause.body, clause.head)
        for tgd_index, program in sorted(dependency_clauses(tgds), key=lambda pair: pair[0])
        for cid, clause in enumerate(program)
    ]
    for clause in clauses:
        for atom in clause.body + clause.head:
            for i in range(atom.arity):
                positions.add((atom.relation, i))
    return DependencyGraphIR(clauses=tuple(clauses), positions=frozenset(positions))


@dataclass(frozen=True)
class TerminationReport:
    """The verdict of the weak-acyclicity analysis over a dependency set.

    ``max_rank`` and ``depth_bound`` are ``None`` when the set is not weakly
    acyclic; otherwise ``depth_bound`` bounds the nesting depth of every
    Skolem-term null the oblivious chase can create (0 for full tgds, which
    create no nulls at all).  ``witness_cycle`` is a position cycle through a
    special edge proving non-termination risk.
    """

    weakly_acyclic: bool
    position_count: int
    edge_count: int
    special_edge_count: int
    max_rank: int | None = None
    depth_bound: int | None = None
    witness_cycle: tuple[Position, ...] | None = None

    def __bool__(self) -> bool:
        return self.weakly_acyclic

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable summary of the verdict."""
        return {
            "weakly_acyclic": self.weakly_acyclic,
            "position_count": self.position_count,
            "edge_count": self.edge_count,
            "special_edge_count": self.special_edge_count,
            "max_rank": self.max_rank,
            "depth_bound": self.depth_bound,
            "witness_cycle": (
                None
                if self.witness_cycle is None
                else [format_position(p) for p in self.witness_cycle]
            ),
        }


def position_graph_of_ir(ir: DependencyGraphIR) -> "nx.DiGraph":
    """The weak-acyclicity position graph, derived from the shared IR.

    Nodes are :data:`Position` pairs; each edge carries a boolean ``special``
    attribute (a parallel regular+special pair collapses to one edge with
    ``special=True``).  Egds contribute positions but no edges: they create
    no nulls, and weak acyclicity of the tgds is the standard sufficient
    condition for termination of the combined tgd+egd chase.
    """
    graph = nx.DiGraph()
    # Sorted insertion keeps node (and hence adjacency/SCC) iteration order
    # independent of PYTHONHASHSEED, so witness cycles are reproducible
    # across processes.
    graph.add_nodes_from(sorted(ir.positions))

    def add_edge(source: Position, target: Position, special: bool) -> None:
        if graph.has_edge(source, target):
            graph[source][target]["special"] |= special
        else:
            graph.add_edge(source, target, special=special)

    for clause in ir.clauses:
        for var, sources in clause.body_positions.items():
            for target in clause.head_positions.get(var, ()):
                for source in sources:
                    add_edge(source, target, special=False)
        for skolem in clause.skolems:
            for var in skolem.args:
                for target in skolem.head_positions:
                    for source in clause.body_positions.get(var, ()):
                        add_edge(source, target, special=True)
    return graph


def position_graph(dependencies: Iterable[object]) -> "nx.DiGraph":
    """Build the position graph of a dependency set (see :func:`position_graph_of_ir`)."""
    return position_graph_of_ir(dependency_graph_ir(dependencies))


def position_ranks(graph: "nx.DiGraph") -> dict[Position, int] | None:
    """Rank every position of a weakly acyclic position graph; None otherwise.

    The rank of a position is the maximum number of special edges on any
    path into it -- the DP along the condensation DAG that both the
    ``depth_bound`` of :func:`termination_report` and the degree bounds of
    :mod:`repro.analysis.cost` are computed from.
    """
    components = list(nx.strongly_connected_components(graph))
    for component in components:
        if any(
            graph[u][v]["special"] for u, v in graph.subgraph(component).edges()
        ):
            return None
    condensation = nx.condensation(graph, components)
    component_rank: dict[int, int] = {}
    for node in nx.topological_sort(condensation):
        best = 0
        members = condensation.nodes[node]["members"]
        for member in members:
            for pred in graph.predecessors(member):
                if pred in members:
                    continue
                pred_component = condensation.graph["mapping"][pred]
                weight = 1 if graph[pred][member]["special"] else 0
                best = max(best, component_rank[pred_component] + weight)
        component_rank[node] = best
    return {
        position: component_rank[condensation.graph["mapping"][position]]
        for position in graph.nodes
    }


def _witness_cycle(graph: "nx.DiGraph", component: set[Position]) -> tuple[Position, ...]:
    """A cycle through a special edge inside a strongly connected component.

    The lexicographically smallest special edge is chosen so the witness is
    canonical: the same program yields the same cycle in every process.
    """
    subgraph = graph.subgraph(component)
    special_edges = sorted(
        (source, target)
        for source, target, special in subgraph.edges(data="special")
        if special
    )
    if not special_edges:
        raise AssertionError("component has no special edge")  # pragma: no cover
    source, target = special_edges[0]
    path: list[Position] = nx.shortest_path(subgraph, target, source)
    return tuple([source] + path)


def termination_report(dependencies: object) -> TerminationReport:
    """Decide weak acyclicity of a dependency set and bound the chase depth.

    *dependencies* may be a single dependency or an iterable mixing s-t
    tgds, nested tgds, SO tgds, and egds.

        >>> from repro.logic.parser import parse_so_tgd
        >>> report = termination_report([parse_so_tgd("S(x,y) -> R(f(x), f(y))")])
        >>> report.weakly_acyclic, report.depth_bound
        (True, 1)
    """
    deps = dependency_list(dependencies)
    return memoized("weak", deps, lambda: _weak_report(deps))


def _weak_report(deps: list[object]) -> TerminationReport:
    graph = position_graph(deps)
    special_edges = sum(1 for *_, special in graph.edges(data="special") if special)
    base = dict(
        position_count=graph.number_of_nodes(),
        edge_count=graph.number_of_edges(),
        special_edge_count=special_edges,
    )

    ranks = position_ranks(graph)
    if ranks is None:
        for component in nx.strongly_connected_components(graph):
            if any(
                graph[u][v]["special"]
                for u, v in graph.subgraph(component).edges()
            ):
                return TerminationReport(
                    weakly_acyclic=False,
                    witness_cycle=_witness_cycle(graph, component),
                    **base,
                )
        raise AssertionError("unrankable graph has a special cycle")  # pragma: no cover

    max_rank = max(ranks.values(), default=0)
    return TerminationReport(
        weakly_acyclic=True, max_rank=max_rank, depth_bound=max_rank, **base
    )


# -------------------------------------------------------------- analysis memo

_T = TypeVar("_T")

#: The one memo table of the static analysis.  Each stage -- the IR, the
#: weak-acyclicity report (this module), the hierarchy verdict
#: (:mod:`repro.analysis.acyclicity`) and the frontier report
#: (:mod:`repro.analysis.frontier`) -- stores its value under ``(stage,
#: params, dependency reprs)``, where *params* are every other argument the
#: value depends on (the MFA budget of a hierarchy verdict).  Reprs are
#: total and stable (see ``_sigma_fingerprint`` in
#: :mod:`repro.core.implication`).  A stage computes from the stages below
#: it only, so the MFA critical chase, which reads the weak report through
#: :func:`repro.engine.fixpoint_chase.fixpoint_chase`, never re-enters its
#: own stage.  :func:`repro.cache.clear_all_caches` empties the table.
_MEMO: dict[tuple, Any] = {}
_MEMO_LIMIT = 1024


def memoized(
    stage: str, deps: list[object], compute: Callable[[], _T], params: tuple = ()
) -> _T:
    """The memoized value of *stage* over *deps*, computed on a miss."""
    key = (stage, params, tuple(repr(dep) for dep in deps))
    value = _MEMO.get(key)
    if value is None:
        value = compute()
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[key] = value
    return value


def clear_analysis_memo() -> None:
    """Drop every memoized analysis value."""
    _MEMO.clear()


def dependency_list(dependencies: Any) -> list[object]:
    """*dependencies* as a list: a single dependency or any iterable of them."""
    if isinstance(dependencies, (STTgd, NestedTgd, SOTgd, Egd)):
        return [dependencies]
    return list(dependencies)


__all__ = [
    "ClauseIR",
    "DependencyGraphIR",
    "Position",
    "SkolemIR",
    "TerminationReport",
    "clear_analysis_memo",
    "dependency_graph_ir",
    "dependency_list",
    "format_position",
    "memoized",
    "position_graph",
    "position_graph_of_ir",
    "position_ranks",
    "termination_report",
]
