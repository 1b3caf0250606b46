"""Integer-domain homomorphism kernel over the columnar backend.

This is the CSP kernel of :mod:`repro.engine.hom_kernel` re-based onto
:class:`~repro.engine.columnar.ColumnarInstance`: candidate domains are row
ids read straight out of the per-(position, value-id) inverted index,
AC-3 propagation and the most-constrained-variable search compare machine
integers from the ``array('q')`` columns, and connected-component
decomposition runs over variable keys -- no :class:`~repro.logic.atoms.Atom`
is decoded anywhere on the hot path.  Interned value objects appear only at
the boundary: when a source fact is *encoded* against the target's
:class:`~repro.engine.columnar.ValueTable` and when a found solution is
decoded back into the ``null -> value`` mapping the tuple kernel returns.

Two entry layers:

- :func:`block_homomorphism_columnar` -- drop-in for
  :func:`repro.engine.hom_kernel.block_homomorphism` when the target is a
  ``ColumnarInstance`` (``hom_kernel`` dispatches here by instance type, so
  ``find_homomorphism`` / ``model_check`` callers never change).  Source
  facts arrive as atoms; *fixed* bindings are folded into constant ids at
  encode time, *forbidden* atoms are resolved to per-group row-id sets.
- :func:`solve_encoded` -- the id-space core: a block of
  :class:`EncodedFact` rows (built by this module or directly from group
  columns by the columnar core engine) is split into components and solved.
  Variable keys are opaque hashables (interned nulls from the atom path,
  integer value ids from the core engine); domain elements are always
  integer value ids.

The semantics match the tuple kernel exactly -- same candidate seeding from
the most selective bound position, same generalized arc consistency, same
most-constrained-first search with full look-ahead -- so verdicts agree on
every input; only the found witness may differ (both are valid
homomorphisms).  ``forbidden`` rows are how the core engine expresses
"the instance minus the facts containing null x" without copying anything.

Perf counters: ``hom.columnar.kernel_calls``, ``hom.columnar.ac3_revisions``,
``hom.columnar.ac3_wipeouts``, ``hom.columnar.search_nodes``,
``hom.columnar.backtracks`` (same meanings as their ``hom.*`` twins).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping
from collections.abc import Set as AbstractSet

from repro import perf
from repro.engine.columnar import ColumnarInstance, _RelGroup
from repro.logic.atoms import Atom
from repro.logic.values import is_null

_CONST = 0
_VAR = 1
_EMPTY_FORBIDDEN: frozenset[Atom] = frozenset()


class _Stats:
    """Locally accumulated counters, flushed once per kernel call."""

    __slots__ = ("revisions", "wipeouts", "nodes", "backtracks")

    def __init__(self) -> None:
        self.revisions = 0
        self.wipeouts = 0
        self.nodes = 0
        self.backtracks = 0

    def flush(self) -> None:
        perf.incr("hom.columnar.kernel_calls")
        if self.revisions:
            perf.incr("hom.columnar.ac3_revisions", self.revisions)
        if self.wipeouts:
            perf.incr("hom.columnar.ac3_wipeouts", self.wipeouts)
        if self.nodes:
            perf.incr("hom.columnar.search_nodes", self.nodes)
        if self.backtracks:
            perf.incr("hom.columnar.backtracks", self.backtracks)


class EncodedFact:
    """One source fact resolved against a target group.

    ``args`` holds one ``(kind, key)`` pair per position: ``(_CONST, vid)``
    for a ground (or pre-bound) value id, ``(_VAR, key)`` for a free
    variable.  ``var_positions`` lists the first occurrence of each distinct
    variable -- the positions whose candidate columns define its domain.
    ``repeats`` pairs each later occurrence of a variable with its first
    position: a candidate row must hold equal values in both columns.
    """

    __slots__ = ("group", "args", "var_positions", "repeats")

    def __init__(self, group: _RelGroup, args: tuple[tuple[int, object], ...]):
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


def encode_facts(
    facts: Iterable[Atom],
    target: ColumnarInstance,
    fixed: Mapping[object, object],
) -> list[EncodedFact] | None:
    """Encode source atoms against *target*'s value table, or None on a
    value/relation the target provably cannot match (fail fast)."""
    lookup = target.values.lookup
    groups = target._groups
    encoded: list[EncodedFact] = []
    for fact in facts:
        group: _RelGroup | None = None
        for candidate in groups.get(fact.relation, ()):
            if candidate.arity == fact.arity:
                group = candidate
                break
        if group is None:
            return None
        args: list[tuple[int, object]] = []
        for arg in fact.args:
            if is_null(arg):
                bound_value = fixed.get(arg)
                if bound_value is None:
                    args.append((_VAR, arg))
                    continue
                arg = bound_value
            vid = lookup(arg)
            if vid is None:
                # The required value was never interned by the target, so no
                # target fact can contain it.
                return None
            args.append((_CONST, vid))
        encoded.append(EncodedFact(group, tuple(args)))
    return encoded


def forbidden_rows_of(
    target: ColumnarInstance, forbidden: AbstractSet[Atom]
) -> dict[_RelGroup, set[int]] | None:
    """Resolve an atom-level forbidden set to per-group row-id sets."""
    if not forbidden:
        return None
    lookup = target.values.lookup
    rows: dict[_RelGroup, set[int]] = {}
    for fact in forbidden:
        groups = target._groups.get(fact.relation)
        if not groups:
            continue
        ids: list[int] = []
        ok = True
        for arg in fact.args:
            vid = lookup(arg)
            if vid is None:
                ok = False
                break
            ids.append(vid)
        if not ok:
            continue
        key = tuple(ids)
        for group in groups:
            if group.arity == len(key):
                row = group.row_of.get(key)
                if row is not None:
                    rows.setdefault(group, set()).add(row)
    return rows or None


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
    independently.  This is the entry the columnar core engine calls with
    facts built directly from group columns (variable keys are the null
    value ids themselves).
    """
    stats = _Stats()
    try:
        result: dict[object, int] = {}
        components, grounded = _split_components(encoded)
        for fact in grounded:
            ids = tuple(key for __, key in fact.args)
            row = fact.group.row_of.get(ids)  # type: ignore[arg-type]
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


def block_homomorphism_columnar(
    facts: Iterable[Atom],
    target: ColumnarInstance,
    fixed: Mapping[object, object] | None = None,
    forbidden: AbstractSet[Atom] = _EMPTY_FORBIDDEN,
) -> dict[object, object] | None:
    """Map the free nulls of *facts* so every fact lands in *target*, or None.

    Same contract as :func:`repro.engine.hom_kernel.block_homomorphism`
    (which dispatches here when the target is columnar): *fixed* pre-binds
    some nulls without returning them, *forbidden* facts count as absent,
    and the returned dict binds exactly the free nulls of *facts*.
    """
    fixed = fixed or {}
    encoded = encode_facts(facts, target, fixed)
    if encoded is None:
        # Unmatchable relation or value; still one kernel call for accounting.
        perf.incr("hom.columnar.kernel_calls")
        return None
    solution = solve_encoded(encoded, forbidden_rows_of(target, forbidden))
    if solution is None:
        return None
    value = target.values.value
    return {null: value(vid) for null, vid in solution.items()}


__all__ = [
    "EncodedFact",
    "block_homomorphism_columnar",
    "encode_facts",
    "forbidden_rows_of",
    "solve_encoded",
]
