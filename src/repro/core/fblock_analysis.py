"""F-block size analysis: effective threshold, bounded anchor, and the
boundedness decision (Theorems 4.4, 4.9, 4.10, 4.11 and 5.5 of the paper).

A schema mapping M has *bounded f-block size* if there is an integer b such
that for every source instance I the f-block size of ``core(chase(I, M))``
is at most b.  By Theorem 4.1 (from [FKNP08]), a mapping specified by a
plain SO tgd -- in particular a nested GLAV mapping -- is logically
equivalent to a GLAV mapping iff it has bounded f-block size.

Two procedures are provided:

- :func:`decide_bounded_fblock_size` -- the *pattern-cloning growth test*,
  which operationalizes the proof of Theorem 4.4: a nested GLAV mapping has
  unbounded f-block size iff cloning some subtree of some pattern makes the
  maximal f-block of the core of the chase of the canonical source instance
  grow, and keep growing past the pigeonhole bound ``k = v * w + 1`` of
  Section 3 (beyond that bound, the paper's extension argument shows the
  growth continues forever).  This is the practical decision procedure.
- :func:`decide_bounded_fblock_size_exhaustive` -- the literal procedure of
  Theorem 4.10: test all source instances up to the anchor-derived size
  bound.  Feasible only for toy bounds; exposed for completeness and tested
  on such bounds.

With the persistent store on (:mod:`repro.cache`), the growth test's
verdict is kept in the ``glav`` space: a repeated decision in a fresh
process is one disk read (``glav.verdict_disk_hits``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro import perf
from repro.cache import SPACE_GLAV, disk_get, disk_put, get_store
from repro.cache.fingerprint import fingerprint_texts
from repro.errors import ResourceLimitExceeded
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd, nested_tgds_from
from repro.logic.schema import Schema
from repro.logic.values import Constant
from repro.core.canonical import canonical_instances, legal_canonical_instances
from repro.core.implication import cached_chase
from repro.core.patterns import Pattern, one_patterns
from repro.engine.core_instance import core
from repro.engine.egd_chase import satisfies_egds
from repro.engine.gaifman import fact_block_size


@dataclass
class FBlockVerdict:
    """The outcome of the f-block boundedness analysis.

    When ``bounded`` is False, ``witness_pattern`` / ``witness_path`` name the
    pattern subtree whose cloning grows the core's maximal f-block without
    bound, and ``growth`` records the observed f-block sizes at increasing
    clone counts.  When ``bounded`` is True, ``bound`` is an effective bound
    on the f-block size (the threshold of Theorem 4.4 / 5.5).
    """

    bounded: bool
    bound: int | None = None
    witness_tgd: NestedTgd | None = None
    witness_pattern: Pattern | None = None
    witness_path: tuple[int, ...] | None = None
    growth: list[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.bounded


def _self_bound(tgd: NestedTgd) -> int:
    """The pigeonhole bound ``k = v * w + 1`` of IMPLIES, applied to the tgd itself."""
    return tgd.skolem_function_count() * tgd.universal_variable_count() + 1


def _core_fblock_size(source: Instance, dependencies: Sequence) -> int:
    """``fact_block_size(core(chase(source, M)))`` -- the growth-test probe.

    The chase goes through the IMPLIES chase cache (clone rounds re-derive
    the same canonical sources constantly).
    """
    chased = cached_chase(source, list(dependencies))
    return fact_block_size(core(chased))


def _paths_of(pattern: Pattern) -> Iterator[tuple[int, ...]]:
    """Yield the non-root node paths of *pattern* (candidate cloning targets)."""

    def visit(node: Pattern, path: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for index, child in enumerate(node.children):
            child_path = path + (index,)
            yield child_path
            yield from visit(child, child_path)

    yield from visit(pattern, ())


def _subtree_at(pattern: Pattern, path: tuple[int, ...]) -> Pattern:
    """Return the subtree of *pattern* at the given child-index path."""
    node = pattern
    for index in path:
        node = node.children[index]
    return node


def _canonical_source(
    pattern: Pattern, tgd: NestedTgd, source_egds: Sequence[Egd]
) -> Instance:
    if source_egds:
        return legal_canonical_instances(pattern, tgd, source_egds).source
    return canonical_instances(pattern, tgd).source


def _verdict_key(
    nested: Sequence[NestedTgd],
    source_egds: Sequence[Egd],
    clone_limit: int | None,
    max_patterns: int | None,
) -> str:
    """The disk key of one growth-test verdict.

    Covers every input that can change the verdict or its witness: the
    normalized tgds in order, the source egds, the clone limit, and the
    pattern limit (a call whose limit would raise has its own key, and a
    call that raises stores nothing).  The leading component pins a format
    version and the component counts, so concatenated reprs cannot alias
    across the tgd/egd boundary.
    """
    return fingerprint_texts((
        f"glav-v1:clone={clone_limit}:max={max_patterns}:"
        f"deps={len(nested)}:egds={len(source_egds)}",
        *[repr(tgd) for tgd in nested],
        *[repr(egd) for egd in source_egds],
    ))


def _verdict_payload(verdict: FBlockVerdict, nested: Sequence[NestedTgd]) -> tuple:
    """The verdict as builtins: the witness tgd by index, the pattern by key."""
    if verdict.bounded:
        return (True, verdict.bound, None, None, None, ())
    assert verdict.witness_pattern is not None
    index = next(i for i, tgd in enumerate(nested) if tgd is verdict.witness_tgd)
    return (
        False, None, index, verdict.witness_pattern.sort_key(),
        verdict.witness_path, tuple(verdict.growth),
    )


def _pattern_from_key(key: object, tgd: NestedTgd, parts: Sequence[int]) -> Pattern:
    """Rebuild a pattern of *tgd* from its sort key.

    Raises ValueError unless the key's root is one of *parts* and every
    child key is rooted at a part nested directly under its parent's.
    """
    if not (isinstance(key, tuple) and len(key) == 2 and type(key[0]) is int
            and key[0] in parts and isinstance(key[1], tuple)):
        raise ValueError("malformed pattern key")
    part_id, children = key
    nested_parts = tgd.children_of(part_id)
    return Pattern(
        part_id, tuple(_pattern_from_key(child, tgd, nested_parts) for child in children)
    )


def _verdict_from_payload(
    payload: object, nested: Sequence[NestedTgd], clone_limit: int | None
) -> FBlockVerdict | None:
    """Rebuild a stored verdict, or None if the payload is malformed or
    inconsistent with the tgds it is stored for (the caller recomputes)."""
    if not isinstance(payload, tuple) or len(payload) != 6:
        return None
    bounded, bound, index, pattern_key, path, growth = payload
    if bounded is True:
        if type(bound) is not int or bound < 0 or growth != ():
            return None
        if (index, pattern_key, path) != (None, None, None):
            return None
        return FBlockVerdict(bounded=True, bound=bound)
    if bounded is not False or bound is not None:
        return None
    if type(index) is not int or not 0 <= index < len(nested):
        return None
    tgd = nested[index]
    try:
        pattern = _pattern_from_key(pattern_key, tgd, (tgd.part_ids()[0],))
    except (ValueError, RecursionError):
        return None
    if pattern.sort_key() != pattern_key:
        return None  # children out of canonical order
    if not (isinstance(path, tuple) and path and all(type(i) is int for i in path)):
        return None
    node = pattern
    for step in path:
        if not 0 <= step < len(node.children):
            return None
        node = node.children[step]
    limit = clone_limit if clone_limit is not None else _self_bound(tgd) + 1
    if not (isinstance(growth, tuple) and len(growth) == limit + 1 >= 2
            and all(type(size) is int for size in growth) and growth[-1] > growth[-2]):
        return None
    return FBlockVerdict(
        bounded=False,
        witness_tgd=tgd,
        witness_pattern=pattern,
        witness_path=path,
        growth=list(growth),
    )


def nested_mapping(
    dependencies, source_egds: Sequence[Egd] = ()
) -> tuple[list[NestedTgd], Sequence[Egd]]:
    """The nested tgds and source egds of a mapping.

    *dependencies* is a :class:`~repro.mappings.mapping.SchemaMapping`,
    whose own source egds apply unless *source_egds* is given, or an
    iterable of s-t and nested tgds.
    """
    from repro.mappings.mapping import SchemaMapping

    if isinstance(dependencies, SchemaMapping):
        source_egds = source_egds or dependencies.source_egds
        dependencies = dependencies.dependencies
    return nested_tgds_from(dependencies), source_egds


def decide_bounded_fblock_size(
    dependencies,
    source_egds: Sequence[Egd] = (),
    clone_limit: int | None = None,
    max_patterns: int | None = 100_000,
) -> FBlockVerdict:
    """Decide whether a nested GLAV mapping has bounded f-block size.

    For every nested tgd of the mapping, every 1-pattern, and every subtree of
    the pattern, the subtree is cloned ``1, 2, ..., C`` times (``C`` defaults
    to the tgd's pigeonhole bound ``v * w + 2``) and the maximal f-block size
    of ``core(chase(I_p, M))`` is measured on the (legal) canonical source
    instance of the cloned pattern.  Strictly monotone growth through the
    whole range witnesses unboundedness (the extension argument of Theorem
    4.4); otherwise the maximum observed size is an effective bound.

    With the persistent store on, the verdict is read from and written to
    its ``glav`` space; a stored payload that is malformed or does not fit
    the tgds counts as a miss and is recomputed and overwritten.

        >>> from repro.logic.parser import parse_nested_tgd, parse_tgd
        >>> decide_bounded_fblock_size([parse_tgd("S(x,y) -> R(x,z)")]).bounded
        True
        >>> decide_bounded_fblock_size([parse_nested_tgd(
        ...     "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")]).bounded
        False

    A *clone_limit* below 1 raises :class:`ValueError`: the growth test
    needs at least one clone to see growth.
    """
    if clone_limit is not None and clone_limit < 1:
        raise ValueError(f"clone_limit must be at least 1, got {clone_limit}")
    nested, source_egds = nested_mapping(dependencies, source_egds)
    key: str | None = None
    if get_store() is not None:
        key = _verdict_key(nested, source_egds, clone_limit, max_patterns)
        cached = _verdict_from_payload(disk_get(SPACE_GLAV, key), nested, clone_limit)
        if cached is not None:
            perf.incr("glav.verdict_disk_hits")
            return cached
    verdict = _growth_test(nested, source_egds, clone_limit, max_patterns)
    if key is not None:
        disk_put(SPACE_GLAV, key, _verdict_payload(verdict, nested))
    return verdict


def _growth_test(
    nested: list[NestedTgd],
    source_egds: Sequence[Egd],
    clone_limit: int | None,
    max_patterns: int | None,
) -> FBlockVerdict:
    """The pattern-cloning growth test of :func:`decide_bounded_fblock_size`."""
    best_bound = 0
    for tgd in nested:
        limit = clone_limit if clone_limit is not None else _self_bound(tgd) + 1
        for pattern in one_patterns(tgd, max_patterns=max_patterns):
            base_size = _core_fblock_size(
                _canonical_source(pattern, tgd, source_egds), nested
            )
            best_bound = max(best_bound, base_size)
            tried_subtrees: set[tuple] = set()
            for path in _paths_of(pattern):
                subtree_key = _subtree_at(pattern, path).sort_key()
                parent_key = path[:-1]
                if (parent_key, subtree_key) in tried_subtrees:
                    continue  # cloning an isomorphic sibling subtree is the same test
                tried_subtrees.add((parent_key, subtree_key))
                sizes = [base_size]
                stalled = 0
                for copies in range(1, limit + 1):
                    cloned = pattern.with_clones(path, copies)
                    size = _core_fblock_size(
                        _canonical_source(cloned, tgd, source_egds), nested
                    )
                    sizes.append(size)
                    best_bound = max(best_bound, size)
                    if size <= sizes[-2]:
                        stalled += 1
                        if stalled >= 2:
                            break  # growth genuinely stopped; clones fold in the core
                    else:
                        stalled = 0
                # Unbounded iff the block is still growing at the end of the
                # pigeonhole range: past k = v * w + 1 clones, the paper's
                # extension argument makes the growth persist forever.
                if len(sizes) == limit + 1 and sizes[-1] > sizes[-2]:
                    return FBlockVerdict(
                        bounded=False,
                        witness_tgd=tgd,
                        witness_pattern=pattern,
                        witness_path=path,
                        growth=sizes,
                    )
    return FBlockVerdict(bounded=True, bound=best_bound)


def fblock_threshold(dependencies, source_egds: Sequence[Egd] = ()) -> int:
    """The effective threshold for f-block size (Theorems 4.4 and 5.5).

    Returns an integer ``b`` such that the mapping either has f-block size at
    most ``b`` or unbounded f-block size.  Computed by the growth analysis of
    :func:`decide_bounded_fblock_size`; when that analysis finds unbounded
    growth, the largest size observed before divergence is still a valid
    threshold (any value is, for an unbounded mapping), so the maximum over
    the analysis is returned in both cases.
    """
    verdict = decide_bounded_fblock_size(dependencies, source_egds=source_egds)
    if verdict.bounded:
        return verdict.bound
    return max(verdict.growth)


# ------------------------------------------------------------- bounded anchor


def max_pattern_body_atoms(tgd: NestedTgd) -> int:
    """The maximum number of body atoms contributed by a single pattern node."""
    return max(len(tgd.part(pid).body) for pid in tgd.part_ids())


def bounded_anchor_witness(dependencies) -> int:
    """A witness ``a`` for the effective bounded anchor (Theorem 4.9).

    The proof of Theorem 4.9 constructs, for a connected ``J`` inside the core
    of a chase, a source instance ``I'`` that is the canonical source instance
    of a k-pattern with suitably cloned subtrees; each target fact of ``J``
    is produced by one triggering, each triggering corresponds to one pattern
    node, and each pattern node contributes at most ``max_pattern_body_atoms``
    source atoms plus its ancestors' -- at most ``depth`` many nodes.  Hence
    ``|I'| <= depth * max_body_atoms * |J|`` and

        a(M) = max over nested tgds of (depth(sigma) * max_body_atoms(sigma) * (k + 1))

    is a recursive witness (the ``k + 1`` factor accounts for the extra clone
    the anchor construction appends).
    """
    nested = nested_tgds_from(dependencies)
    best = 1
    for tgd in nested:
        k = _self_bound(tgd)
        best = max(best, tgd.depth() * max_pattern_body_atoms(tgd) * (k + 1))
    return best


# ------------------------------------------- exhaustive decision (Theorem 4.10)


def enumerate_source_instances(
    schema: Schema,
    max_facts: int,
    max_constants: int,
) -> Iterator[Instance]:
    """Enumerate source instances with at most *max_facts* facts over at most
    *max_constants* constants, one representative per isomorphism type.

    The enumeration is brute force (it is only used by the literal procedure
    of Theorem 4.10, on toy bounds): all non-empty subsets of the set of
    possible facts, deduplicated up to constant renaming via a canonical form.
    """
    constants = [Constant(f"u{i}") for i in range(max_constants)]
    possible_facts: list[Atom] = []
    for rel in schema:
        for args in itertools.product(constants, repeat=rel.arity):
            possible_facts.append(Atom(rel.name, args))
    seen: set[frozenset] = set()
    for size in range(1, max_facts + 1):
        for subset in itertools.combinations(possible_facts, size):
            instance = Instance(subset)
            form = _canonical_form(instance)
            if form in seen:
                continue
            seen.add(form)
            yield instance


def _canonical_form(instance: Instance) -> frozenset:
    """A constant-renaming-invariant canonical form (cheap, not perfectly tight).

    Constants are relabeled by a deterministic ordering of their "signatures"
    (multiset of (relation, position) occurrences); ties are broken by trying
    all orders among tied constants and picking the lexicographically least
    fact set.  Exact up to isomorphism for the small instances it is used on.
    """
    constants = sorted(instance.constants(), key=repr)
    signature: dict[Constant, tuple] = {}
    for constant in constants:
        occurrences = []
        for fact in instance:
            for pos, arg in enumerate(fact.args):
                if arg == constant:
                    occurrences.append((fact.relation, pos))
        signature[constant] = tuple(sorted(occurrences))
    groups: dict[tuple, list[Constant]] = {}
    for constant in constants:
        groups.setdefault(signature[constant], []).append(constant)
    ordered_groups = [groups[key] for key in sorted(groups)]

    best: frozenset | None = None
    group_orders = [list(itertools.permutations(group)) for group in ordered_groups]
    for arrangement in itertools.product(*group_orders):
        renaming: dict = {}
        index = 0
        for group in arrangement:
            for constant in group:
                renaming[constant] = Constant(f"#{index}")
                index += 1
        relabeled = frozenset(
            (fact.relation, tuple(repr(renaming[a]) for a in fact.args))
            for fact in instance
        )
        if best is None or sorted(relabeled) < sorted(best):
            best = relabeled
    assert best is not None
    return best


def decide_bounded_fblock_size_exhaustive(
    dependencies,
    bound: int,
    source_egds: Sequence[Egd] = (),
    anchor: int | None = None,
    max_constants: int | None = None,
    max_instances: int | None = 200_000,
) -> bool:
    """The literal procedure of Theorem 4.10: is the f-block size at most *bound*?

    Tests every source instance with at most ``a * (bound + 1)`` facts, where
    ``a`` is the anchor witness (or the supplied *anchor*).  Raises
    :class:`ResourceLimitExceeded` when more than *max_instances* instances
    would be inspected -- the procedure is exponential and only intended for
    toy bounds; use :func:`decide_bounded_fblock_size` in practice.
    """
    nested = nested_tgds_from(dependencies)
    a = anchor if anchor is not None else bounded_anchor_witness(nested)
    max_facts = a * (bound + 1)
    schema = Schema()
    for tgd in nested:
        schema = schema.union(tgd.source_schema())
    if max_constants is None:
        max_constants = max_facts * max(rel.arity for rel in schema)
    inspected = 0
    for instance in enumerate_source_instances(schema, max_facts, max_constants):
        inspected += 1
        if max_instances is not None and inspected > max_instances:
            raise ResourceLimitExceeded("source instances", max_instances)
        if source_egds and not satisfies_egds(instance, list(source_egds)):
            continue
        if _core_fblock_size(instance, nested) > bound:
            return False
    return True


__all__ = [
    "FBlockVerdict",
    "decide_bounded_fblock_size",
    "decide_bounded_fblock_size_exhaustive",
    "fblock_threshold",
    "bounded_anchor_witness",
    "enumerate_source_instances",
    "max_pattern_body_atoms",
    "nested_mapping",
]
