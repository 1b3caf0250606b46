"""Integer-domain homomorphism kernel for the columnar core engine.

This is the CSP kernel of :mod:`repro.engine.hom_kernel` re-based onto the
fact tables of a :class:`~repro.engine.columnar.ColumnarInstance`: candidate
domains are row ids read straight out of the per-(position, value-id)
inverted index, AC-3 propagation and the most-constrained-variable search
compare machine integers from the ``array('q')`` columns, and
connected-component decomposition runs over variable keys -- no
:class:`~repro.logic.atoms.Atom` is decoded anywhere.

One entry, :func:`solve_encoded`: the columnar core engine
(:mod:`repro.engine.core_instance`) builds a block of :class:`EncodedFact`
rows directly from group columns, with the block's null value ids as the
variables, and passes "the store minus the rows containing null x" as
per-group ``forbidden`` row sets, so nothing is copied per candidate null.
Variable keys and domain elements are both value ids; a solution maps each
variable id to the id of its image.

The semantics match the tuple kernel exactly -- same candidate seeding from
the most selective bound position, same generalized arc consistency, same
most-constrained-first search with full look-ahead -- so verdicts agree on
every input; only the found witness may differ (both are valid
homomorphisms).

Perf counters: the ``hom.*`` family of the tuple kernel (``kernel_calls``,
``ac3_revisions``, ``ac3_wipeouts``, ``search_nodes``, ``backtracks``),
recorded through its :class:`~repro.engine.hom_kernel._Stats`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.engine.columnar import _RelGroup
from repro.engine.hom_kernel import _Stats

_CONST = 0
_VAR = 1


class EncodedFact:
    """One source fact resolved against a target group.

    ``args`` holds one ``(kind, vid)`` pair per position: ``(_CONST, vid)``
    for a constant, ``(_VAR, vid)`` for a null, the variable being the
    null's own value id.  ``var_positions`` lists the first occurrence of
    each distinct variable -- the positions whose candidate columns define
    its domain.
    ``repeats`` pairs each later occurrence of a variable with its first
    position: a candidate row must hold equal values in both columns.
    """

    __slots__ = ("group", "args", "var_positions", "repeats")

    def __init__(self, group: _RelGroup, args: tuple[tuple[int, int], ...]):
        self.group = group
        self.args = args
        first: dict[object, int] = {}
        positions: list[tuple[int, object]] = []
        repeats: list[tuple[int, int]] = []
        for pos, (kind, key) in enumerate(args):
            if kind != _VAR:
                continue
            if key in first:
                repeats.append((pos, first[key]))
            else:
                first[key] = pos
                positions.append((pos, key))
        self.var_positions = tuple(positions)
        self.repeats = tuple(repeats)


def _split_components(
    encoded: list[EncodedFact],
) -> tuple[list[list[EncodedFact]], list[EncodedFact]]:
    """Group facts connected by shared variables; grounded facts separately."""
    grounded: list[EncodedFact] = []
    with_vars: list[EncodedFact] = []
    for fact in encoded:
        (with_vars if fact.var_positions else grounded).append(fact)
    anchor_of: dict[object, int] = {}
    parent = list(range(len(with_vars)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for index, fact in enumerate(with_vars):
        for __, var in fact.var_positions:
            anchor = anchor_of.setdefault(var, index)
            if anchor != index:
                root_a, root_b = find(anchor), find(index)
                if root_a != root_b:
                    parent[root_b] = root_a
    components: dict[int, list[EncodedFact]] = {}
    for index, fact in enumerate(with_vars):
        components.setdefault(find(index), []).append(fact)
    return list(components.values()), grounded


def _seed_rows(
    fact: EncodedFact, forbidden: dict[_RelGroup, set[int]] | None
) -> list[int]:
    """Candidate rows for *fact*: the bucket of its most selective constant
    position, narrowed by every other constant position.

    This is the only constant check: candidate lists only ever shrink, so
    AC-3 revisions filter variable positions alone.
    """
    group = fact.group
    best: list[int] | None = None
    best_pos = -1
    constants: list[tuple[int, object]] = []
    for pos, (kind, key) in enumerate(fact.args):
        if kind != _CONST:
            continue
        bucket = group.index[pos].get(key)
        if bucket is None:
            return []
        constants.append((pos, key))
        if best is None or len(bucket) < len(best):
            best, best_pos = bucket, pos
    rows: Iterable[int] = group.live_rows() if best is None else best
    if forbidden:
        blocked = forbidden.get(group)
        if blocked:
            rows = [row for row in rows if row not in blocked]
    columns = group.columns
    for pos, key in constants:
        if pos != best_pos:
            column = columns[pos]
            rows = [row for row in rows if column[row] == key]
    return list(rows)


def _propagate(
    facts: list[EncodedFact],
    facts_of_var: dict[object, list[int]],
    candidates: list[list[int]],
    domains: dict[object, set[int]],
    queue: Iterable[int],
    stats: _Stats,
) -> bool:
    """AC-3 style propagation; return False on a domain or candidate wipeout.

    A revision filters a fact's candidate rows one column at a time: the
    value at each variable's first position must lie in that variable's
    domain, and repeated positions must agree.  A bound variable's domain is
    the singleton of its value, so bindings need no check of their own.
    """
    pending: deque[int] = deque(queue)
    queued = set(pending)
    while pending:
        index = pending.popleft()
        queued.discard(index)
        stats.revisions += 1
        fact = facts[index]
        columns = fact.group.columns
        filtered = candidates[index]
        for pos, var in fact.var_positions:
            column, domain = columns[pos], domains[var]
            filtered = [row for row in filtered if column[row] in domain]
        for pos, first in fact.repeats:
            column, other = columns[pos], columns[first]
            filtered = [row for row in filtered if column[row] == other[row]]
        candidates[index] = filtered
        if not filtered:
            stats.wipeouts += 1
            return False
        for pos, var in fact.var_positions:
            column = columns[pos]
            supported = {column[row] for row in filtered}
            domain = domains[var]
            if supported >= domain:
                continue
            shrunk = domain & supported
            if not shrunk:
                stats.wipeouts += 1
                return False
            domains[var] = shrunk
            for other in facts_of_var[var]:
                if other != index and other not in queued:
                    pending.append(other)
                    queued.add(other)
    return True


def _search(
    facts: list[EncodedFact],
    facts_of_var: dict[object, list[int]],
    candidates: list[list[int]],
    domains: dict[object, set[int]],
    bound: dict[object, int],
    stats: _Stats,
) -> dict[object, int] | None:
    """Most-constrained-variable backtracking with full look-ahead."""
    stats.nodes += 1
    undecided = [var for var in domains if var not in bound]
    if not undecided:
        return dict(bound)
    var = min(undecided, key=lambda v: (len(domains[v]), repr(v)))
    for value in sorted(domains[var]):
        child_bound = dict(bound)
        child_bound[var] = value
        child_domains = {v: set(d) for v, d in domains.items()}
        child_domains[var] = {value}
        child_candidates = [list(c) for c in candidates]
        if _propagate(
            facts, facts_of_var, child_candidates, child_domains,
            facts_of_var[var], stats,
        ):
            # Propagation can pin further variables to singletons; adopt them.
            for v, domain in child_domains.items():
                if v not in child_bound and len(domain) == 1:
                    child_bound[v] = next(iter(domain))
            result = _search(
                facts, facts_of_var, child_candidates, child_domains,
                child_bound, stats,
            )
            if result is not None:
                return result
        stats.backtracks += 1
    return None


def _solve_component(
    facts: list[EncodedFact],
    forbidden: dict[_RelGroup, set[int]] | None,
    stats: _Stats,
) -> dict[object, int] | None:
    """Solve one component: domains from index buckets, AC-3, then search."""
    domains: dict[object, set[int]] = {}
    candidates: list[list[int]] = []
    facts_of_var: dict[object, list[int]] = {}
    for index, fact in enumerate(facts):
        rows = _seed_rows(fact, forbidden)
        candidates.append(rows)
        if not rows:
            stats.wipeouts += 1
            return None
        columns = fact.group.columns
        for pos, var in fact.var_positions:
            facts_of_var.setdefault(var, []).append(index)
            column = columns[pos]
            occurrence = {column[row] for row in rows}
            domain = domains.get(var)
            domains[var] = occurrence if domain is None else domain & occurrence
            if not domains[var]:
                stats.wipeouts += 1
                return None
    bound: dict[object, int] = {}
    if not _propagate(
        facts, facts_of_var, candidates, domains, range(len(facts)), stats
    ):
        return None
    for var, domain in domains.items():
        if len(domain) == 1:
            bound[var] = next(iter(domain))
    return _search(facts, facts_of_var, candidates, domains, bound, stats)


def solve_encoded(
    encoded: list[EncodedFact],
    forbidden: dict[_RelGroup, set[int]] | None = None,
) -> dict[object, int] | None:
    """Map every variable key of *encoded* to a value id, or None.

    Grounded facts reduce to (live) row lookups; components solve
    independently.  Rows in *forbidden* count as absent.
    """
    stats = _Stats()
    try:
        result: dict[object, int] = {}
        components, grounded = _split_components(encoded)
        for fact in grounded:
            ids = tuple(key for __, key in fact.args)
            row = fact.group.row_of.get(ids)
            if row is None:
                return None
            if forbidden:
                blocked = forbidden.get(fact.group)
                if blocked and row in blocked:
                    return None
        for component in components:
            solution = _solve_component(component, forbidden, stats)
            if solution is None:
                return None
            result.update(solution)
        return result
    finally:
        stats.flush()


__all__ = ["EncodedFact", "solve_encoded"]
