"""Indexed homomorphism kernel: domains, arc consistency, ordered search.

Deciding whether a homomorphism ``J1 -> J2`` exists is a constraint
satisfaction problem (Chandra-Merlin): the variables are the nulls of J1,
the values are the elements of J2, and every fact of J1 is a hyper-constraint
"this fact, with its nulls substituted, is a fact of J2".  The kernel applies
the standard CSP toolkit on top of the per-relation / per-(relation,
position, value) / per-value indexes that :class:`~repro.logic.instances.Instance`
and :class:`~repro.engine.builder.InstanceBuilder` maintain:

1. **Index-seeded candidates** -- the candidate target facts of a source fact
   are looked up from the most selective bound position (a constant or a
   pre-bound null), never found by scanning a relation.
2. **Per-null domains with AC-3 pruning** -- each null starts from the
   intersection of the values its occurrences can take, and generalized
   arc consistency is enforced before any search: a value survives only
   while some candidate target fact supports it.  An emptied domain fails
   the whole block without search.
3. **Most-constrained-first search** -- the search assigns nulls (not facts),
   always branching on the null with the smallest remaining domain, and
   re-propagates after each assignment (full look-ahead).
4. **Connected-component decomposition** -- facts are grouped by shared
   *free* (unfixed) nulls and each component is solved independently; ground
   and fully-fixed facts reduce to membership tests.

Callers pass an optional ``forbidden`` fact set: those target facts are
treated as absent.  This is how the core engine searches for a retraction
into "the instance minus the facts containing null x" without materializing
a new instance per candidate null.

The naive reference implementation (no indexes, no decomposition, no
propagation) is preserved in :func:`repro.engine.naive.find_homomorphism_naive`
for differential testing and for the speedup curves of
``benchmarks/bench_scaling_hom.py``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Mapping
from collections.abc import Set as AbstractSet
from typing import Protocol

from repro import perf
from repro.logic.atoms import Atom
from repro.logic.values import is_null

_EMPTY_FORBIDDEN: frozenset[Atom] = frozenset()


class FactIndex(Protocol):
    """The read API the kernel needs from a target (Instance or builder)."""

    def facts_of(self, relation: str) -> Collection[Atom]:
        """Return the facts of *relation*."""
        ...

    def facts_with(self, relation: str, position: int, value: object) -> Collection[Atom]:
        """Return the facts of *relation* with *value* at *position*."""
        ...

    def __contains__(self, fact: Atom) -> bool: ...


class _Stats:
    """Locally accumulated counters, flushed to :mod:`repro.perf` once per call."""

    __slots__ = ("revisions", "wipeouts", "nodes", "backtracks")

    def __init__(self) -> None:
        self.revisions = 0
        self.wipeouts = 0
        self.nodes = 0
        self.backtracks = 0

    def flush(self) -> None:
        perf.incr("hom.kernel_calls")
        if self.revisions:
            perf.incr("hom.ac3_revisions", self.revisions)
        if self.wipeouts:
            perf.incr("hom.ac3_wipeouts", self.wipeouts)
        if self.nodes:
            perf.incr("hom.search_nodes", self.nodes)
        if self.backtracks:
            perf.incr("hom.backtracks", self.backtracks)


def _seed_candidates(
    fact: Atom,
    target: FactIndex,
    bound: Mapping[object, object],
    forbidden: AbstractSet[Atom],
) -> list[Atom]:
    """Candidate target facts for *fact*, seeded by the most selective bound position."""
    best: Collection[Atom] | None = None
    for pos, arg in enumerate(fact.args):
        value = bound.get(arg) if is_null(arg) else arg
        if value is None:
            continue
        candidates = target.facts_with(fact.relation, pos, value)
        if best is None or len(candidates) < len(best):
            best = candidates
            if not best:
                return []
    if best is None:
        best = target.facts_of(fact.relation)
    if forbidden:
        return [t for t in best if t not in forbidden]
    return list(best)


def _consistent(
    fact: Atom,
    candidate: Atom,
    bound: Mapping[object, object],
    domains: Mapping[object, AbstractSet[object]],
) -> bool:
    """Is *candidate* compatible with *fact* under current bounds and domains?"""
    if fact.relation != candidate.relation or fact.arity != candidate.arity:
        return False
    seen: dict[object, object] = {}
    for arg, value in zip(fact.args, candidate.args):
        if is_null(arg):
            fixed_value = bound.get(arg)
            if fixed_value is not None:
                if fixed_value != value:
                    return False
                continue
            previous = seen.get(arg)
            if previous is None:
                domain = domains.get(arg)
                if domain is not None and value not in domain:
                    return False
                seen[arg] = value
            elif previous != value:
                return False
        elif arg != value:
            return False
    return True


class _Component:
    """One connected component of a block: facts sharing free nulls."""

    __slots__ = ("facts", "free_nulls", "null_positions", "facts_of_null")

    def __init__(self, facts: list[Atom], bound: Mapping[object, object]) -> None:
        self.facts = facts
        # fact index -> list of (position, null) for free nulls, first occurrence only
        self.null_positions: list[list[tuple[int, object]]] = []
        self.facts_of_null: dict[object, list[int]] = {}
        free: set[object] = set()
        for index, fact in enumerate(facts):
            positions: list[tuple[int, object]] = []
            seen: set[object] = set()
            for pos, arg in enumerate(fact.args):
                if is_null(arg) and arg not in bound and arg not in seen:
                    seen.add(arg)
                    positions.append((pos, arg))
                    free.add(arg)
                    self.facts_of_null.setdefault(arg, []).append(index)
            self.null_positions.append(positions)
        self.free_nulls = free


def _propagate(
    component: _Component,
    candidates: list[list[Atom]],
    domains: dict[object, set[object]],
    bound: Mapping[object, object],
    queue: Iterable[int],
    stats: _Stats,
) -> bool:
    """AC-3 style propagation; return False on a domain or candidate wipeout."""
    pending: deque[int] = deque(queue)
    queued = set(pending)
    while pending:
        index = pending.popleft()
        queued.discard(index)
        stats.revisions += 1
        fact = component.facts[index]
        filtered = [
            t for t in candidates[index] if _consistent(fact, t, bound, domains)
        ]
        candidates[index] = filtered
        if not filtered:
            stats.wipeouts += 1
            return False
        for pos, null in component.null_positions[index]:
            supported = {t.args[pos] for t in filtered}
            domain = domains[null]
            if supported >= domain:
                continue
            shrunk = domain & supported
            if not shrunk:
                stats.wipeouts += 1
                return False
            domains[null] = shrunk
            for other in component.facts_of_null[null]:
                if other != index and other not in queued:
                    pending.append(other)
                    queued.add(other)
    return True


def _search(
    component: _Component,
    candidates: list[list[Atom]],
    domains: dict[object, set[object]],
    bound: dict[object, object],
    stats: _Stats,
) -> dict[object, object] | None:
    """Most-constrained-null backtracking with full look-ahead propagation."""
    stats.nodes += 1
    undecided = [n for n in component.free_nulls if n not in bound]
    if not undecided:
        return dict(bound)
    null = min(undecided, key=lambda n: (len(domains[n]), repr(n)))
    for value in sorted(domains[null], key=repr):
        child_bound = dict(bound)
        child_bound[null] = value
        child_domains = {n: set(d) for n, d in domains.items()}
        child_domains[null] = {value}
        child_candidates = [list(c) for c in candidates]
        if _propagate(
            component, child_candidates, child_domains, child_bound,
            component.facts_of_null[null], stats,
        ):
            # Propagation can pin further nulls to singleton domains; adopt them.
            for n, domain in child_domains.items():
                if n not in child_bound and len(domain) == 1:
                    child_bound[n] = next(iter(domain))
            result = _search(component, child_candidates, child_domains, child_bound, stats)
            if result is not None:
                return result
        stats.backtracks += 1
    return None


def _solve_component(
    component: _Component,
    target: FactIndex,
    fixed: Mapping[object, object],
    forbidden: AbstractSet[Atom],
    stats: _Stats,
) -> dict[object, object] | None:
    """Solve one component: domains, AC-3, then most-constrained search."""
    domains: dict[object, set[object]] = {}
    candidates: list[list[Atom]] = []
    for index, fact in enumerate(component.facts):
        cands = _seed_candidates(fact, target, fixed, forbidden)
        candidates.append(cands)
        if not cands:
            stats.wipeouts += 1
            return None
        for pos, null in component.null_positions[index]:
            occurrence = {t.args[pos] for t in cands}
            domain = domains.get(null)
            domains[null] = occurrence if domain is None else domain & occurrence
            if not domains[null]:
                stats.wipeouts += 1
                return None
    bound: dict[object, object] = dict(fixed)
    if not _propagate(
        component, candidates, domains, bound, range(len(component.facts)), stats
    ):
        return None
    for null, domain in domains.items():
        if null not in bound and len(domain) == 1:
            bound[null] = next(iter(domain))
    solution = _search(component, candidates, domains, bound, stats)
    if solution is None:
        return None
    return {n: solution[n] for n in component.free_nulls}


def _components(
    facts: Iterable[Atom], fixed: Mapping[object, object]
) -> tuple[list[list[Atom]], list[Atom]]:
    """Split facts into components connected by free nulls, plus the rest.

    The second element collects facts with no free null (ground facts and
    facts whose nulls are all pre-bound): they reduce to membership tests.
    """
    grounded: list[Atom] = []
    fact_free: list[tuple[Atom, list[object]]] = []
    anchor_of: dict[object, int] = {}
    parent: list[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for fact in facts:
        free = [a for a in fact.nulls() if a not in fixed]
        if not free:
            grounded.append(fact)
            continue
        index = len(fact_free)
        fact_free.append((fact, free))
        parent.append(index)
        for null in free:
            anchor = anchor_of.setdefault(null, index)
            if anchor != index:
                root_a, root_b = find(anchor), find(index)
                if root_a != root_b:
                    parent[root_b] = root_a
    groups: dict[int, list[Atom]] = {}
    for index, (fact, __) in enumerate(fact_free):
        groups.setdefault(find(index), []).append(fact)
    return list(groups.values()), grounded


def block_homomorphism(
    facts: Iterable[Atom],
    target: FactIndex,
    fixed: Mapping[object, object] | None = None,
    forbidden: AbstractSet[Atom] = _EMPTY_FORBIDDEN,
) -> dict[object, object] | None:
    """Map the free nulls of *facts* so every fact lands in *target*, or None.

    *fixed* pre-binds some nulls (the bindings are honored but not returned);
    facts in *forbidden* count as absent from the target.  The returned dict
    binds exactly the free nulls of *facts*.
    """
    fixed = fixed or {}
    stats = _Stats()
    result: dict[object, object] = {}
    try:
        components, grounded = _components(facts, fixed)
        fixed_map = dict(fixed) if fixed else None
        for fact in grounded:
            image = fact.rename_values(fixed_map) if fixed_map else fact
            if image not in target or image in forbidden:
                return None
        for component_facts in components:
            component = _Component(component_facts, fixed)
            solution = _solve_component(component, target, fixed, forbidden, stats)
            if solution is None:
                return None
            result.update(solution)
    finally:
        stats.flush()
    return result


def find_homomorphism_indexed(
    source: Iterable[Atom],
    target: FactIndex,
    fixed: Mapping[object, object] | None = None,
) -> dict[object, object] | None:
    """Find a homomorphism from the facts of *source* into *target*, or None.

    The returned dict maps every null of *source* to a value of *target* and
    includes the *fixed* pre-bindings, matching the contract of
    :func:`repro.engine.homomorphism.find_homomorphism`.
    """
    fixed = dict(fixed) if fixed else {}
    mapping = block_homomorphism(source, target, fixed)
    if mapping is None:
        return None
    mapping.update(fixed)
    return mapping


__all__ = [
    "FactIndex",
    "block_homomorphism",
    "find_homomorphism_indexed",
]
