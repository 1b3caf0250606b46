"""Homomorphism kernel: seeded candidates, arc consistency, ordered search.

Deciding whether a homomorphism ``J1 -> J2`` exists is a constraint
satisfaction problem (Chandra-Merlin): the variables are the nulls of J1,
the values are the elements of J2, and every fact of J1 is a hyper-constraint
"this fact, with its nulls substituted, is a fact of J2".  One search serves
every caller; only the way a source fact gets its candidate target facts
differs, and two seeders provide them:

- :func:`block_homomorphism` (behind
  :func:`~repro.engine.homomorphism.find_homomorphism`, the IMPLIES sweep,
  containment, the standard chase and the tuple core engine) seeds
  :class:`~repro.logic.atoms.Atom` facts from the per-relation /
  per-(relation, position, value) indexes of an
  :class:`~repro.logic.instances.Instance` or
  :class:`~repro.engine.builder.InstanceBuilder`.  It looks candidates up
  from the most selective bound position (a constant or a pre-bound null),
  drops forbidden facts, facts of another arity and facts that fail any
  other bound position, and hands the search the survivors' argument
  columns.  Variables are free nulls; values are tried in repr order.
- :func:`solve_encoded` (the id-space core engine of
  :mod:`repro.engine.core_instance`) takes one f-block and seeds row ids of
  a columnar fact table from the bucket of the most selective constant
  position of its per-(position, value id) index.  Variables are the
  block's null value ids and values are value ids, ordered numerically; no
  Atom is decoded.

Seeding is the only constant check: candidate lists only ever shrink, so
the search proper looks at variable positions alone.

1. **Per-variable domains with AC-3 pruning** -- each variable starts from
   the intersection of the values its occurrences take in the seeded
   candidates, and generalized arc consistency is enforced before any
   search: a revision filters a fact's candidate rows column by column, and
   a value survives only while some candidate supports it.  An emptied
   domain fails the whole block without search.
2. **Most-constrained-first search** -- the search assigns variables (not
   facts), always branching on the variable with the smallest remaining
   domain, and re-propagates after each assignment (full look-ahead).
3. **Connected-component decomposition** -- :func:`block_homomorphism`
   groups facts by shared variables and solves each component
   independently; facts without a variable reduce to membership tests.  An
   f-block is one component already, so :func:`solve_encoded` skips this.

Callers pass an optional ``forbidden`` set (facts, or rows per fact table):
those target facts are treated as absent.  This is how the core engines
search for a retraction into "the instance minus the facts containing null
x" without materializing a new instance per candidate null.

The naive reference implementation (no indexes, no decomposition, no
propagation) is preserved in :func:`repro.engine.naive.find_homomorphism_naive`
for differential testing and for the speedup curves of
``benchmarks/bench_scaling_hom.py``.

Perf counters (``hom.*``): ``kernel_calls``, ``ac3_revisions``,
``ac3_wipeouts``, ``search_nodes`` and ``backtracks``, flushed once per call
of either entry point.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING, Any, Protocol, TypeVar

from repro import perf
from repro.logic.atoms import Atom
from repro.logic.values import is_null

if TYPE_CHECKING:
    from repro.engine.columnar import _RelGroup

_EMPTY_FORBIDDEN: frozenset[Atom] = frozenset()

#: A source fact as a seeder takes it: an Atom, or an EncodedFact.
_F = TypeVar("_F")

#: Argument kinds of an :class:`EncodedFact`.
_CONST = 0
_VAR = 1


class FactIndex(Protocol):
    """The read API the Atom seeder needs from a target (Instance or builder)."""

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


class _Fact:
    """One source fact as the search sees it.

    ``columns[pos][row]`` is the value at position *pos* of candidate row
    *row*.  ``var_positions`` lists the first occurrence of each distinct
    variable -- the positions whose columns define its domain.  ``repeats``
    pairs each later occurrence of a variable with its first position: a
    candidate row must hold equal values in both columns.
    """

    __slots__ = ("columns", "var_positions", "repeats")

    def __init__(self, columns: Sequence[Sequence[Any]], variables: Iterable[object]) -> None:
        """*variables* holds one entry per position: its variable, or None."""
        self.columns = columns
        first: dict[object, int] = {}
        positions: list[tuple[int, object]] = []
        repeats: list[tuple[int, int]] = []
        for pos, var in enumerate(variables):
            if var is None:
                continue
            if var in first:
                repeats.append((pos, first[var]))
            else:
                first[var] = pos
                positions.append((pos, var))
        self.var_positions = tuple(positions)
        self.repeats = tuple(repeats)


#: What a seeder returns for a fact that has no candidate at all.
_NO_FACT = _Fact((), ())


def _split_components(
    facts: Iterable[_F], variables_of: Callable[[_F], Sequence[object]]
) -> tuple[list[list[_F]], list[_F]]:
    """Group facts connected by shared variables; facts with none separately."""
    grounded: list[_F] = []
    with_vars: list[_F] = []
    anchor_of: dict[object, int] = {}
    parent: list[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for fact in facts:
        variables = variables_of(fact)
        if not variables:
            grounded.append(fact)
            continue
        index = len(with_vars)
        with_vars.append(fact)
        parent.append(index)
        for var in variables:
            anchor = anchor_of.setdefault(var, index)
            if anchor != index:
                root_a, root_b = find(anchor), find(index)
                if root_a != root_b:
                    parent[root_b] = root_a
    components: dict[int, list[_F]] = {}
    for index, fact in enumerate(with_vars):
        components.setdefault(find(index), []).append(fact)
    return list(components.values()), grounded


def _propagate(
    facts: list[_Fact],
    facts_of_var: dict[object, list[int]],
    candidates: list[list[int]],
    domains: dict[object, set[Any]],
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
        columns = fact.columns
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
    facts: list[_Fact],
    facts_of_var: dict[object, list[int]],
    candidates: list[list[int]],
    domains: dict[object, set[Any]],
    bound: dict[object, Any],
    value_order: Callable[[Any], Any] | None,
    stats: _Stats,
) -> dict[object, Any] | None:
    """Most-constrained-variable backtracking with full look-ahead.

    Ties between equally constrained variables break by repr; the values
    of the chosen variable are tried in *value_order* (natural order when
    None).
    """
    stats.nodes += 1
    undecided = [var for var in domains if var not in bound]
    if not undecided:
        return dict(bound)
    var = min(undecided, key=lambda v: (len(domains[v]), repr(v)))
    for value in sorted(domains[var], key=value_order):
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
                child_bound, value_order, stats,
            )
            if result is not None:
                return result
        stats.backtracks += 1
    return None


def _solve_component(
    seeded: Iterator[tuple[_Fact, list[int]]],
    value_order: Callable[[Any], Any] | None,
    stats: _Stats,
) -> dict[object, Any] | None:
    """Solve one component: domains from seeded rows, AC-3, then search.

    *seeded* yields the component's facts lazily, so a fact without
    candidates fails the component before the rest are seeded.
    """
    facts: list[_Fact] = []
    candidates: list[list[int]] = []
    domains: dict[object, set[Any]] = {}
    facts_of_var: dict[object, list[int]] = {}
    for index, (fact, rows) in enumerate(seeded):
        facts.append(fact)
        candidates.append(rows)
        if not rows:
            stats.wipeouts += 1
            return None
        columns = fact.columns
        for pos, var in fact.var_positions:
            facts_of_var.setdefault(var, []).append(index)
            column = columns[pos]
            occurrence = {column[row] for row in rows}
            domain = domains.get(var)
            domains[var] = occurrence if domain is None else domain & occurrence
            if not domains[var]:
                stats.wipeouts += 1
                return None
    if not _propagate(
        facts, facts_of_var, candidates, domains, range(len(facts)), stats
    ):
        return None
    bound = {var: next(iter(domain)) for var, domain in domains.items() if len(domain) == 1}
    return _search(facts, facts_of_var, candidates, domains, bound, value_order, stats)


def _solve(
    components: list[list[_F]],
    seed: Callable[[_F], tuple[_Fact, list[int]]],
    value_order: Callable[[Any], Any] | None,
    stats: _Stats,
) -> dict[object, Any] | None:
    """Solve every component in turn; the union of their maps, or None.

    *seed* gives a source fact its kernel fact and candidate rows; values
    are tried in *value_order* (natural order when None).
    """
    result: dict[object, Any] = {}
    for component in components:
        solution = _solve_component(map(seed, component), value_order, stats)
        if solution is None:
            return None
        result.update(solution)
    return result


# ------------------------------------------------------------- Atom seeder


def _seed_atoms(
    fact: Atom,
    target: FactIndex,
    fixed: Mapping[object, object],
    forbidden: AbstractSet[Atom],
) -> tuple[_Fact, list[int]]:
    """Candidate target facts for *fact*, as argument columns.

    Candidates come from the index bucket of the most selective bound
    position (a constant, or a null pre-bound in *fixed*); forbidden facts,
    facts of another arity and facts that fail another bound position are
    dropped here, once.  The variables are the free nulls of *fact*.
    """
    relation, arity = fact.relation, len(fact.args)
    variables: list[object] = []
    bound: list[tuple[int, object]] = []
    best: Collection[Atom] | None = None
    best_pos = -1
    for pos, arg in enumerate(fact.args):
        value = fixed.get(arg) if is_null(arg) else arg
        if value is None:
            variables.append(arg)
            continue
        variables.append(None)
        bound.append((pos, value))
        bucket = target.facts_with(relation, pos, value)
        if not bucket:
            return _NO_FACT, []
        if best is None or len(bucket) < len(best):
            best, best_pos = bucket, pos
    if best is None:
        best = target.facts_of(relation)
    if forbidden:
        args = [t.args for t in best if len(t.args) == arity and t not in forbidden]
    else:
        args = [t.args for t in best if len(t.args) == arity]
    for pos, value in bound:
        if pos != best_pos:
            args = [row for row in args if row[pos] == value]
    return _Fact(list(zip(*args)), variables), list(range(len(args)))


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
    bindings: Mapping[object, object] = fixed or {}
    stats = _Stats()
    try:
        components, grounded = _split_components(
            facts, lambda fact: [a for a in fact.nulls() if a not in bindings]
        )
        fixed_map = dict(bindings) if bindings else None
        for fact in grounded:
            image = fact.rename_values(fixed_map) if fixed_map else fact
            if image not in target or image in forbidden:
                return None
        return _solve(
            components,
            lambda fact: _seed_atoms(fact, target, bindings, forbidden),
            repr,
            stats,
        )
    finally:
        stats.flush()


# --------------------------------------------------------- value-id seeder


class EncodedFact(_Fact):
    """One source fact resolved against a columnar fact table (``group``).

    ``args`` holds one ``(kind, vid)`` pair per position: ``(_CONST, vid)``
    for a constant, ``(_VAR, vid)`` for a null, the variable being the
    null's own value id.  The candidate rows are row ids of the group.
    """

    __slots__ = ("group", "args")

    def __init__(self, group: _RelGroup, args: tuple[tuple[int, int], ...]) -> None:
        super().__init__(
            group.columns, [key if kind == _VAR else None for kind, key in args]
        )
        self.group = group
        self.args = args


def _seed_rows(
    fact: EncodedFact, forbidden: dict[_RelGroup, set[int]] | None
) -> tuple[_Fact, list[int]]:
    """Candidate rows for *fact*: the bucket of its most selective constant
    position, narrowed by every other constant position.

    Index buckets still list tombstoned rows (see :mod:`repro.engine.
    columnar`), so dead rows leave the chosen bucket, or the full scan, in
    the pass that drops forbidden rows.  A bucket is in ascending row order and every other
    constant position narrows it, so the candidates do not depend on which
    bucket is chosen.
    """
    group = fact.group
    best: list[int] | None = None
    best_pos = -1
    constants: list[tuple[int, int]] = []
    for pos, (kind, key) in enumerate(fact.args):
        if kind != _CONST:
            continue
        bucket = group.index[pos].get(key)
        if bucket is None:
            return fact, []
        constants.append((pos, key))
        if best is None or len(bucket) < len(best):
            best, best_pos = bucket, pos
    rows: Iterable[int] = range(len(group.atoms)) if best is None else best
    blocked = forbidden.get(group) if forbidden else None
    dead = group.dead
    if dead and blocked:
        rows = [row for row in rows if row not in dead and row not in blocked]
    elif dead or blocked:
        skipped = dead or blocked
        rows = [row for row in rows if row not in skipped]
    columns = group.columns
    for pos, key in constants:
        if pos != best_pos:
            column = columns[pos]
            rows = [row for row in rows if column[row] == key]
    return fact, list(rows)


def solve_encoded(
    encoded: list[EncodedFact],
    forbidden: dict[_RelGroup, set[int]] | None = None,
) -> dict[object, int] | None:
    """Map every variable key of *encoded* to a value id, or None.

    *encoded* is one f-block: connected through its variables, each fact
    holding at least one, so it is solved as a single component.  Rows in
    *forbidden* count as absent.
    """
    stats = _Stats()
    try:
        return _solve_component(
            (_seed_rows(fact, forbidden) for fact in encoded), None, stats
        )
    finally:
        stats.flush()


__all__ = [
    "EncodedFact",
    "FactIndex",
    "block_homomorphism",
    "solve_encoded",
]
