"""The decision procedure IMPLIES for nested tgds (Theorems 3.1 and 5.7).

``implies(Sigma, sigma)`` decides whether every pair (I, J) satisfying the
finite set ``Sigma`` of dependencies also satisfies the nested tgd ``sigma``.
The procedure follows Section 3 of the paper verbatim:

1. Skolemize; let ``v`` be the number of distinct Skolem functions of
   ``sigma`` and ``w`` the maximum number of universally quantified variables
   in a dependency of ``Sigma``; set ``k = v * w + 1``.
2. For every k-pattern ``p`` of ``sigma``, build the canonical source and
   target instances ``I_p`` and ``J_p`` and check that a homomorphism
   ``J_p -> chase(I_p, Sigma)`` exists.  If some check fails, ``Sigma`` does
   not imply ``sigma`` -- and ``I_p`` is a counterexample source instance.

With source egds (Theorem 5.7) the *legal* canonical instances of
Definition 5.4 are used and ``I_p^s`` is chased instead.

``Sigma`` may contain s-t tgds and nested tgds (the paper's setting).  As an
extension, plain SO tgds are accepted on the left-hand side as well: the
correctness argument only needs that the left-hand side admits universal
solutions via a chase and is closed under target homomorphisms, which plain
SO tgds are (Section 4.1); the ``w`` bound likewise only counts universal
variables per clause.

Engine-level accelerations on top of the paper's procedure:

- a **DAG-incremental sweep** (the default): ``P_k(sigma)`` is enumerated as
  a frontier-ordered DAG in which every pattern with ``n > 1`` nodes is
  produced from a pattern with ``n - 1`` nodes by attaching one leaf (see
  ``docs/algorithms.md`` for why such a parent always exists), and each
  pattern's canonical instances and chase are *extended* from its parent's
  cached state by the delta the new leaf contributes, instead of being
  rebuilt and re-chased from scratch.  Patterns are swept smallest first
  (levels by node count, canonical order within a level -- exactly the
  enumeration order of ``enumerate_k_patterns``), so counterexamples
  short-circuit before the deep frontier is ever generated.
- a process-wide LRU **chase cache** keyed by (canonical source facts,
  Sigma fingerprint).  Chasing is deterministic, so two patterns (or two
  IMPLIES runs) whose canonical sources coincide share one chase.  Hits and
  misses are recorded in :mod:`repro.perf`; incremental extensions count as
  ``implies.sweep.incremental_hits``.
- optional **persistent tiers** (:mod:`repro.cache`, enabled by
  ``REPRO_CACHE_DIR`` or ``repro.cache.configure``): chase-cache misses
  consult a fingerprint-keyed on-disk store before chasing, every computed
  chase is written through, and whole IMPLIES verdicts (result, failing
  pattern, counterexamples) are stored under a fingerprint of
  (Sigma, sigma, source egds, k, sweep mode) -- a warm restart answers a
  repeated query without enumerating a single pattern.  Keys are
  content-derived (hash-seed independent), and the disk tiers sit strictly
  behind the in-memory ones, so the hot path is unchanged when disabled.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import perf
from repro.cache import SPACE_CHASE, SPACE_IMPLIES, disk_get, disk_put, get_store
from repro.cache.fingerprint import (
    combine_fingerprints,
    fingerprint_facts,
    fingerprint_texts,
)
from repro.errors import DependencyError, ResourceLimitExceeded
from repro.logic import intern
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.sotgd import SOTgd
from repro.logic.tgds import STTgd
from repro.logic.values import FreshValueFactory
from repro.core.canonical import (
    canonical_extension,
    canonical_instances,
    legal_canonical_instances,
)
from repro.core.patterns import Pattern, enumerate_k_patterns
from repro.engine.builder import InstanceBuilder
from repro.engine.chase import (
    chase,
    compile_clause_program,
    run_clause_program,
    run_clause_program_delta,
)
from repro.engine.homomorphism import find_homomorphism


@dataclass
class ImplicationResult:
    """The outcome of an IMPLIES run, with diagnostics.

    When ``holds`` is False, ``failing_pattern`` is the k-pattern whose check
    failed and ``counterexample_source`` is a source instance I with
    ``chase(I, sigma)`` not homomorphically embeddable in ``chase(I, Sigma)``
    -- i.e. a witness that ``Sigma`` does not imply ``sigma``.
    """

    holds: bool
    k: int
    patterns_checked: int
    failing_pattern: Pattern | None = None
    counterexample_source: Instance | None = None
    counterexample_target: Instance | None = None

    def __bool__(self) -> bool:
        return self.holds


def _normalize_lhs(dependencies: Iterable) -> list:
    result = []
    for dep in dependencies:
        if isinstance(dep, STTgd):
            result.append(dep.to_nested())
        elif isinstance(dep, NestedTgd):
            result.append(dep)
        elif isinstance(dep, SOTgd):
            if not dep.is_plain():
                raise DependencyError(
                    "IMPLIES accepts plain SO tgds on the left-hand side only; "
                    f"{dep!r} has equalities or nested terms"
                )
            result.append(dep)
        else:
            raise DependencyError(f"unsupported dependency {dep!r}")
    return result


def _normalize_rhs(dep) -> NestedTgd:
    if isinstance(dep, STTgd):
        return dep.to_nested()
    if isinstance(dep, NestedTgd):
        return dep
    raise DependencyError(
        "the right-hand side of IMPLIES must be an s-t tgd or a nested tgd, "
        f"got {dep!r} (implication of SO tgds is undecidable)"
    )


def _max_universal_variables(dependencies: Sequence) -> int:
    """The quantity ``w`` of the IMPLIES procedure."""
    best = 0
    for dep in dependencies:
        if isinstance(dep, NestedTgd):
            best = max(best, dep.universal_variable_count())
        elif isinstance(dep, SOTgd):
            best = max(best, dep.max_universal_variables())
    return best


def implication_bound(sigma_set: Sequence, sigma: NestedTgd) -> int:
    """The clone bound ``k = v_sigma * w_Sigma + 1`` from line 4 of IMPLIES."""
    v = sigma.skolem_function_count()
    w = _max_universal_variables(sigma_set)
    return v * w + 1


# --------------------------------------------------------------- chase cache

#: LRU cache of ``chase(I_p, Sigma)`` results, keyed by
#: (facts of the canonical source, Sigma fingerprint).  The chase is
#: deterministic, so equal keys yield identical results (including null
#: labels) and the cached instance can be shared freely.
_CHASE_CACHE: "OrderedDict[tuple, Instance]" = OrderedDict()
_CHASE_CACHE_LIMIT = 512
_CHASE_CACHE_LIMIT_DEFAULT = 512
_CHASE_CACHE_LIMIT_MAX = 8192


def _presize_chase_cache(predicted_patterns: int) -> None:
    """Grow the chase-cache LRU window toward a predicted sweep size.

    A sweep of ``n`` patterns touches at most ``n`` canonical sources; an
    LRU window smaller than that thrashes (every entry is evicted before its
    re-use).  Growth is clamped and never shrinks below the default.  The
    sweep that requested the pre-sizing restores the previous limit when it
    finishes (see ``implies_tgd``), so one ``budget=`` run does not pin an
    oversized cache for the rest of the process.
    """
    global _CHASE_CACHE_LIMIT
    _CHASE_CACHE_LIMIT = max(
        _CHASE_CACHE_LIMIT,
        min(max(predicted_patterns, _CHASE_CACHE_LIMIT_DEFAULT), _CHASE_CACHE_LIMIT_MAX),
    )


def _set_chase_cache_limit(limit: int) -> None:
    """Restore the LRU window to *limit*, evicting surplus entries (oldest first)."""
    global _CHASE_CACHE_LIMIT
    _CHASE_CACHE_LIMIT = limit
    while len(_CHASE_CACHE) > _CHASE_CACHE_LIMIT:
        _CHASE_CACHE.popitem(last=False)


def _sigma_fingerprint(lhs: Sequence) -> tuple[str, ...]:
    """A hashable identity for a normalized left-hand side (reprs are total)."""
    return tuple(repr(dep) for dep in lhs)


def clear_chase_cache() -> None:
    """Drop all cached chase results and reset the pre-sized capacity.

    Used by benchmarks for cold-start runs; also the recovery hatch after a
    ``budget=`` run pre-sized the LRU window (the window is restored at the
    end of the sweep regardless).
    """
    global _CHASE_CACHE_LIMIT
    _CHASE_CACHE.clear()
    _CHASE_CACHE_LIMIT = _CHASE_CACHE_LIMIT_DEFAULT


def _cache_store(key: tuple, result: Instance) -> None:
    _CHASE_CACHE[key] = result
    if len(_CHASE_CACHE) > _CHASE_CACHE_LIMIT:
        _CHASE_CACHE.popitem(last=False)


# Sigma fingerprints are repr tuples (hashable, process-local); the disk
# tiers need content digests.  Memoized because one sweep re-digests the
# same tuple at every cache-miss hook point.
_SIGMA_DIGESTS: dict[tuple[str, ...], str] = {}


def _sigma_digest(fingerprint: tuple[str, ...]) -> str:
    digest = _SIGMA_DIGESTS.get(fingerprint)
    if digest is None:
        if len(_SIGMA_DIGESTS) > 256:
            _SIGMA_DIGESTS.clear()
        digest = fingerprint_texts(fingerprint)
        _SIGMA_DIGESTS[fingerprint] = digest
    return digest


def _disk_chase_get(
    source_facts: Iterable[Atom], fingerprint: tuple[str, ...]
) -> Instance | None:
    """Look a chase result up in the persistent tier (behind the LRU miss)."""
    if get_store() is None:
        return None
    key = combine_fingerprints(fingerprint_facts(source_facts), _sigma_digest(fingerprint))
    payload = disk_get(SPACE_CHASE, key)
    if not isinstance(payload, tuple) or not all(
        isinstance(fact, Atom) for fact in payload
    ):
        return None
    return Instance(payload)


def _disk_chase_put(
    source_facts: Iterable[Atom], fingerprint: tuple[str, ...], result: Instance
) -> None:
    """Write one computed chase through to the persistent tier."""
    if get_store() is None:
        return
    key = combine_fingerprints(fingerprint_facts(source_facts), _sigma_digest(fingerprint))
    disk_put(SPACE_CHASE, key, tuple(sorted(result.facts, key=repr)))


def _chase_tier(
    source_facts: frozenset, fingerprint: tuple[str, ...], compute
) -> tuple[Instance, InstanceBuilder | None]:
    """Look one chase up through the tiers: LRU, then disk, then *compute*.

    *compute* returns ``(chased, builder)`` and runs only on a miss in both
    tiers; its result is written through to disk.  The returned builder is
    None whenever the chase came from a tier.
    """
    key = (source_facts, fingerprint)
    cached = _CHASE_CACHE.get(key)
    if cached is not None:
        _CHASE_CACHE.move_to_end(key)
        perf.incr("implies.cache_hits")
        return cached, None
    perf.incr("implies.cache_misses")
    builder = None
    chased = _disk_chase_get(source_facts, fingerprint)
    if chased is None:
        chased, builder = compute()
        _disk_chase_put(source_facts, fingerprint, chased)
    _cache_store(key, chased)
    return chased, builder


def _cached_chase(source: Instance, lhs: Sequence, fingerprint: tuple[str, ...]) -> Instance:
    chased, _ = _chase_tier(source.facts, fingerprint, lambda: (chase(source, lhs), None))
    return chased


def cached_chase(source: Instance, dependencies: Sequence) -> Instance:
    """``chase(source, dependencies)`` through the process-wide LRU cache.

    Public entry point to the IMPLIES chase cache for the other Section-4
    procedures (``decide_bounded_fblock_size``, ``cq_refute``) that re-chase
    the same canonical sources across growth rounds or mapping pairs.  Sound
    because the chase is deterministic given (source, dependencies); the
    cache key uses the dependencies' reprs, which are total.
    """
    return _cached_chase(source, list(dependencies), _sigma_fingerprint(dependencies))


def _check_pattern(
    pattern: Pattern,
    lhs: Sequence,
    rhs: NestedTgd,
    source_egds: Sequence[Egd],
    fingerprint: tuple[str, ...],
) -> tuple[bool, Instance, Instance]:
    """Run one from-scratch k-pattern check; return (fails, I_p, J_p)."""
    if source_egds:
        canon = legal_canonical_instances(pattern, rhs, source_egds)
    else:
        canon = canonical_instances(pattern, rhs)
    chased = _cached_chase(canon.source, lhs, fingerprint)
    perf.incr("implies.patterns")
    fails = find_homomorphism(canon.target, chased) is None
    return fails, canon.source, canon.target


# ----------------------------------------------------- DAG-incremental sweep


class _MirrorNode:
    """A pattern node in attachment (insertion) order, with its assignment.

    The canonical :class:`Pattern` keeps children sorted, which reshuffles
    node positions as leaves are attached; the mirror tree preserves the
    attachment order so that sweep entries can address nodes by a stable
    preorder index, and carries the per-node variable assignment the
    canonical-instance delta of a new leaf inherits.  The generation trees
    additionally cache each node's canonical subtree (``canon``) and parent
    link, so a candidate attachment rebuilds canonical patterns only along
    the root path instead of over the whole tree.
    """

    __slots__ = ("part_id", "assignment", "children", "parent", "canon")

    def __init__(self, part_id: int, assignment: dict | None, children: list):
        self.part_id = part_id
        self.assignment = assignment
        self.children = children
        self.parent: _MirrorNode | None = None
        self.canon: Pattern | None = None


def _copy_tree(node: _MirrorNode) -> _MirrorNode:
    return _MirrorNode(
        node.part_id, node.assignment, [_copy_tree(child) for child in node.children]
    )


def _preorder(node: _MirrorNode, out: list[_MirrorNode] | None = None) -> list[_MirrorNode]:
    if out is None:
        out = []
    out.append(node)
    for child in node.children:
        _preorder(child, out)
    return out


def _index_gen_tree(node: _MirrorNode, parent: _MirrorNode | None = None) -> None:
    """Set parent links and cache canonical subtrees bottom-up (generation trees)."""
    node.parent = parent
    for child in node.children:
        _index_gen_tree(child, node)
    node.canon = Pattern(node.part_id, tuple(child.canon for child in node.children))


def _copy_gen_tree(node: _MirrorNode, parent: _MirrorNode | None = None) -> _MirrorNode:
    """Copy a generation tree, carrying over parent links and canon caches.

    The copy's canons are identical to the original's; an attachment then
    refreshes only the canons along the attach node's root path.
    """
    clone = _MirrorNode(node.part_id, node.assignment, [])
    clone.parent = parent
    clone.canon = node.canon
    clone.children = [_copy_gen_tree(child, clone) for child in node.children]
    return clone


def _collect_attach_positions(
    node: _MirrorNode, index: int, out: list[tuple[int, _MirrorNode]]
) -> int:
    """Preorder (index, node) attach positions, skipping duplicate-canon siblings.

    Attaching a leaf anywhere inside a subtree isomorphic to an
    already-visited sibling subtree yields the same canonical pattern (swap
    the two siblings), so the whole duplicate subtree is skipped -- the
    preorder counter still advances past it, keeping indexes aligned with
    ``_preorder`` of the same tree.
    """
    out.append((index, node))
    next_index = index + 1
    seen: set[Pattern] = set()
    for child in node.children:
        if child.canon in seen:
            next_index += child.canon.node_count
            continue
        seen.add(child.canon)
        next_index = _collect_attach_positions(child, next_index, out)
    return next_index


def _attach_candidate(node: _MirrorNode, part_id: int, k: int) -> Pattern | None:
    """The canonical pattern after attaching a *part_id* leaf under *node*,
    or None when the attachment would break the clone bound *k*.

    Only the sibling groups along the root path change: the new leaf joins
    *node*'s children, and each ancestor sees exactly one child subtree
    replaced -- so checking those multiplicities *is* ``is_k_pattern(k)``
    (the parent pattern is a k-pattern already).  Canonical subtrees of
    untouched siblings come from the ``canon`` cache, so a candidate costs
    O(depth) interned constructions, not a full-tree rebuild.
    """
    leaf = Pattern(part_id)
    current = node
    current_pat = Pattern(node.part_id, tuple(c.canon for c in node.children) + (leaf,))
    if current_pat.multiplicity(leaf) > k:
        return None
    while current.parent is not None:
        parent = current.parent
        kids = tuple(
            current_pat if child is current else child.canon
            for child in parent.children
        )
        parent_pat = Pattern(parent.part_id, kids)
        if parent_pat.multiplicity(current_pat) > k:
            return None
        current, current_pat = parent, parent_pat
    return current_pat


@dataclass(frozen=True)
class _SweepEntry:
    """One pattern of the sweep DAG: its producing edge and canonical form.

    ``parent`` is the index of the (node_count - 1)-node pattern this one
    extends (-1 for the root), ``node_index`` the preorder position in the
    parent's mirror tree of the node that receives the new leaf, and ``part``
    the part identifier of the leaf.
    """

    index: int
    pattern: Pattern
    parent: int
    node_index: int
    part: int


def _iter_pattern_levels(rhs: NestedTgd, k: int):
    """Yield ``P_k(rhs)`` level by level as lists of :class:`_SweepEntry`.

    Level ``n`` holds the k-patterns with ``n`` nodes, each produced by one
    leaf attachment to a level ``n - 1`` pattern; within a level, entries are
    in canonical (sort-key) order.  The concatenation of the levels is
    exactly ``enumerate_k_patterns(rhs, k)``'s order.  Generation is lazy:
    a sweep that fails early never materializes the deeper frontier.

    Completeness: every k-pattern with ``n > 1`` nodes has a k-pattern parent
    with ``n - 1`` nodes -- remove a leaf reached by descending into a child
    of minimum node count at every step.  The modified subtree along that
    path ends up strictly smaller than every sibling, so it cannot collide
    with one and no sibling multiplicity ever rises (the correctness argument
    is spelled out in ``docs/algorithms.md``).
    """
    root_entry = _SweepEntry(0, Pattern(1), -1, 0, 1)
    yield [root_entry]
    root_tree = _MirrorNode(1, None, [])
    _index_gen_tree(root_tree)
    trees: dict[int, _MirrorNode] = {0: root_tree}
    level = [0]
    next_index = 1
    while level:
        candidates: dict[Pattern, tuple[int, int, int]] = {}
        for index in level:
            positions: list[tuple[int, _MirrorNode]] = []
            _collect_attach_positions(trees[index], 0, positions)
            for node_index, node in positions:
                for part in rhs.children_of(node.part_id):
                    child_pattern = _attach_candidate(node, part, k)
                    if child_pattern is None or child_pattern in candidates:
                        continue
                    candidates[child_pattern] = (index, node_index, part)
        entries: list[_SweepEntry] = []
        new_level: list[int] = []
        for pattern in sorted(candidates, key=lambda p: p.sort_key()):
            parent_index, node_index, part = candidates[pattern]
            tree = _copy_gen_tree(trees[parent_index])
            attach = _preorder(tree)[node_index]
            leaf = _MirrorNode(part, None, [])
            leaf.parent = attach
            leaf.canon = Pattern(part)
            attach.children.append(leaf)
            current: _MirrorNode | None = attach
            while current is not None:
                current.canon = Pattern(
                    current.part_id, tuple(c.canon for c in current.children)
                )
                current = current.parent
            trees[next_index] = tree
            entries.append(_SweepEntry(next_index, pattern, parent_index, node_index, part))
            new_level.append(next_index)
            next_index += 1
        for index in level:
            del trees[index]
        if not entries:
            return
        yield entries
        level = new_level


class _SweepState:
    """The incrementally maintained per-pattern state of the sweep.

    ``chase_builder`` is None when the chase came straight from a cache
    tier; a child extension then re-indexes the cached instance once and
    shares the cost across all children of this state.
    """

    __slots__ = (
        "tree", "factory", "source_builder", "source_facts",
        "chased", "chase_builder", "targets",
    )

    def __init__(self, tree, factory, source_builder, source_facts,
                 chased, chase_builder, targets):
        self.tree = tree
        self.factory = factory
        self.source_builder = source_builder
        self.source_facts = source_facts
        self.chased = chased
        self.chase_builder = chase_builder
        self.targets = targets


def _root_sweep_state(
    rhs: NestedTgd, clauses, fingerprint: tuple[str, ...]
) -> _SweepState:
    """The state of the single-node root pattern (full chase or cache hit)."""
    factory = FreshValueFactory()
    assignment, source_delta, target_delta = canonical_extension(rhs, 1, {}, factory)
    tree = _MirrorNode(1, assignment, [])
    source_builder = InstanceBuilder(source_delta)
    source_facts = frozenset(source_builder)

    def compute() -> tuple[Instance, InstanceBuilder]:
        builder = InstanceBuilder()
        builder.add_all(run_clause_program(clauses, source_builder))
        return builder.freeze(), builder

    chased, chase_builder = _chase_tier(source_facts, fingerprint, compute)
    return _SweepState(
        tree, factory, source_builder, source_facts, chased, chase_builder,
        tuple(target_delta),
    )


def _extend_sweep_state(
    parent: _SweepState,
    entry: _SweepEntry,
    rhs: NestedTgd,
    clauses,
    fingerprint: tuple[str, ...],
) -> _SweepState:
    """Extend *parent* by the one leaf *entry* attaches, chasing only the delta."""
    factory = parent.factory.clone()
    tree = _copy_tree(parent.tree)
    attach = _preorder(tree)[entry.node_index]
    assignment, source_delta, target_delta = canonical_extension(
        rhs, entry.part, attach.assignment, factory
    )
    attach.children.append(_MirrorNode(entry.part, assignment, []))
    source_builder = parent.source_builder.copy()
    delta = source_builder.add_all(source_delta)
    source_facts = frozenset(source_builder)
    targets = parent.targets + tuple(target_delta)

    def compute() -> tuple[Instance, InstanceBuilder]:
        perf.incr("implies.sweep.incremental_hits")
        if parent.chase_builder is not None:
            builder = parent.chase_builder.copy()
        else:
            builder = InstanceBuilder(parent.chased)
        if delta:
            builder.add_all(run_clause_program_delta(clauses, source_builder, delta))
        return builder.freeze(), builder

    chased, chase_builder = _chase_tier(source_facts, fingerprint, compute)
    return _SweepState(
        tree, factory, source_builder, source_facts, chased, chase_builder, targets
    )


def _sweep_incremental_serial(
    lhs: Sequence,
    rhs: NestedTgd,
    fingerprint: tuple[str, ...],
    k: int,
) -> ImplicationResult:
    """Sweep ``P_k(rhs)`` smallest first, extending chase states level by level."""
    clauses = compile_clause_program(lhs)
    checked = 0
    previous: dict[int, _SweepState] = {}
    for entries in _iter_pattern_levels(rhs, k):
        states: dict[int, _SweepState] = {}
        for entry in entries:
            if entry.parent < 0:
                state = _root_sweep_state(rhs, clauses, fingerprint)
            else:
                state = _extend_sweep_state(
                    previous[entry.parent], entry, rhs, clauses, fingerprint
                )
            checked += 1
            perf.incr("implies.patterns")
            if find_homomorphism(state.targets, state.chased) is None:
                return ImplicationResult(
                    holds=False,
                    k=k,
                    patterns_checked=checked,
                    failing_pattern=entry.pattern,
                    counterexample_source=Instance(state.source_facts),
                    counterexample_target=Instance(state.targets),
                )
            states[entry.index] = state
        previous = states
    return ImplicationResult(holds=True, k=k, patterns_checked=checked)


# ------------------------------------------------------- from-scratch sweep

def _sweep_serial(
    patterns: Sequence[Pattern],
    lhs: Sequence,
    rhs: NestedTgd,
    source_egds: Sequence[Egd],
    fingerprint: tuple[str, ...],
    k: int,
) -> ImplicationResult:
    checked = 0
    for pattern in patterns:
        fails, source, target = _check_pattern(pattern, lhs, rhs, source_egds, fingerprint)
        checked += 1
        if fails:
            return ImplicationResult(
                holds=False,
                k=k,
                patterns_checked=checked,
                failing_pattern=pattern,
                counterexample_source=source,
                counterexample_target=target,
            )
    return ImplicationResult(holds=True, k=k, patterns_checked=checked)


# ------------------------------------------------------ persistent verdicts

def _verdict_key(
    fingerprint: tuple[str, ...],
    rhs: NestedTgd,
    source_egds: Sequence[Egd],
    k: int,
    incremental: bool,
) -> str:
    """The disk key of one full IMPLIES verdict.

    Includes every input that can change the result *or its diagnostics*:
    Sigma (repr fingerprint), sigma, the source egds, the clone bound, and
    the sweep mode -- incremental and from-scratch sweeps agree on the
    verdict but may report different (equally valid) counterexamples, and a
    cached result must be indistinguishable from a recomputed one.  The
    leading component pins a format version and the component counts, so
    concatenated reprs cannot alias across the egd/lhs boundary.
    """
    mode = "incremental" if incremental else "scratch"
    return fingerprint_texts((
        f"implies-v1:k={k}:mode={mode}:lhs={len(fingerprint)}",
        *fingerprint,
        repr(rhs),
        *[repr(egd) for egd in source_egds],
    ))


def _facts_payload(instance: Instance | None) -> tuple[Atom, ...] | None:
    if instance is None:
        return None
    return tuple(sorted(instance.facts, key=repr))


def _disk_verdict_get(key: str) -> ImplicationResult | None:
    payload = disk_get(SPACE_IMPLIES, key)
    if not isinstance(payload, tuple) or len(payload) != 6:
        return None
    holds, k, checked, failing, source_facts, target_facts = payload
    if not isinstance(holds, bool) or not isinstance(k, int) or not isinstance(checked, int):
        return None
    perf.incr("implies.verdict_disk_hits")
    return ImplicationResult(
        holds=holds,
        k=k,
        patterns_checked=checked,
        failing_pattern=failing,
        counterexample_source=None if source_facts is None else Instance(source_facts),
        counterexample_target=None if target_facts is None else Instance(target_facts),
    )


def _disk_verdict_put(key: str, result: ImplicationResult) -> None:
    disk_put(
        SPACE_IMPLIES,
        key,
        (
            result.holds,
            result.k,
            result.patterns_checked,
            result.failing_pattern,
            _facts_payload(result.counterexample_source),
            _facts_payload(result.counterexample_target),
        ),
    )


def implies_tgd(
    sigma_set,
    sigma,
    source_egds: Sequence[Egd] = (),
    max_patterns: int | None = 1_000_000,
    *,
    subsumption: bool = True,
    budget: int | None = None,
    incremental: bool | None = None,
) -> ImplicationResult:
    """Run the procedure IMPLIES and return a result with diagnostics.

    By default the sweep is **DAG-incremental**: each pattern's canonical
    instances and chase are extended from its parent pattern's state by the
    delta one new leaf contributes (``incremental=False`` forces the
    from-scratch sweep; with *source_egds* the from-scratch sweep is always
    used, because egd merges are not monotone under source extension).
    Both sweeps run in this process and check patterns in enumeration
    order, stopping at the first failing one.

    A sweep over more than *max_patterns* patterns raises
    :class:`~repro.errors.ResourceLimitExceeded`.  The budget pre-flight
    and this limit are checked before the persistent verdict tier, so a
    warm store never answers a query that would have raised.

    With ``budget=N``, the static cost model of
    :func:`repro.analysis.cost.sweep_cost` predicts the sweep size *before*
    enumerating anything; a predicted sweep above the budget raises
    :class:`~repro.errors.BudgetExceeded` immediately (lint finding ``CC001``
    makes the same prediction), and a predicted sweep that fits pre-sizes
    the chase cache so the sweep does not thrash it.  The previous cache
    capacity is restored when the run finishes.

    With ``subsumption=True`` (the default), a sound syntactic subsumption
    pre-pass (:mod:`repro.analysis.subsumption`) answers trivially implied
    right-hand sides -- alpha-renamed copies and flat weakenings of a
    left-hand-side member -- without enumerating a single pattern.  The
    pre-pass is verdict-preserving; ``implies.subsumption_checks`` and
    ``implies.subsumption_skips`` in :mod:`repro.perf` count its work.

        >>> from repro.logic.parser import parse_nested_tgd, parse_tgd
        >>> tau = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
        >>> bool(implies_tgd([parse_tgd("S2(x2) -> R(x2, z)")], tau))
        False
        >>> bool(implies_tgd([parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")], tau))
        True
    """
    lhs = _normalize_lhs(sigma_set if not isinstance(sigma_set, (STTgd, NestedTgd, SOTgd))
                         else [sigma_set])
    rhs = _normalize_rhs(sigma)
    k = implication_bound(lhs, rhs)
    if any(dep == rhs for dep in lhs):
        # Syntactic membership short-circuit: Sigma trivially implies its own
        # members, and the full k-pattern sweep can be non-elementary.
        return ImplicationResult(holds=True, k=k, patterns_checked=0)
    if subsumption:
        from repro.analysis.subsumption import trivially_implied

        perf.incr("implies.subsumption_checks")
        if trivially_implied(lhs, rhs):
            perf.incr("implies.subsumption_skips")
            return ImplicationResult(holds=True, k=k, patterns_checked=0)
    prior_cache_limit = _CHASE_CACHE_LIMIT
    presized = False
    if budget is not None:
        from repro.analysis.cost import sweep_cost

        estimate = sweep_cost(lhs, rhs, k=k)
        if estimate.cost_units > budget:
            from repro.errors import BudgetExceeded

            raise BudgetExceeded(
                "IMPLIES k-pattern sweep",
                budget,
                predicted=estimate.cost_units,
                hint=f"k={estimate.k} yields ~{estimate.pattern_count} patterns "
                "(lint finding CC001 predicts this).  Raise budget=, or prune "
                "the right-hand side's nesting depth.",
            )
        _presize_chase_cache(estimate.pattern_count)
        presized = True
    source_egds = list(source_egds)
    fingerprint = _sigma_fingerprint(lhs)
    if incremental is None:
        incremental = not source_egds
    elif incremental and source_egds:
        raise DependencyError(
            "the incremental sweep does not support source egds (egd merges "
            "are not monotone under source extension); pass incremental=False"
        )

    try:
        from repro.core.patterns import count_k_patterns

        # The pattern limit is checked before the persistent verdict tier, so
        # ResourceLimitExceeded (like BudgetExceeded above) still raises over
        # a warm store.  The from-scratch sweep enforces the limit while
        # enumerating, so it pays for the count only when the tier is on.
        store = get_store()
        use_store = store is not None and store.enabled(SPACE_IMPLIES)
        if max_patterns is not None and (incremental or use_store):
            if count_k_patterns(rhs, k) > max_patterns:
                raise ResourceLimitExceeded("patterns", max_patterns)
        # A warm process answers a repeated query without enumerating a
        # single pattern.
        verdict_key: str | None = None
        if use_store:
            verdict_key = _verdict_key(fingerprint, rhs, source_egds, k, incremental)
            cached_verdict = _disk_verdict_get(verdict_key)
            if cached_verdict is not None:
                return cached_verdict
        if incremental:
            result = _sweep_incremental_serial(lhs, rhs, fingerprint, k)
        else:
            patterns = enumerate_k_patterns(rhs, k, max_patterns=max_patterns)
            result = _sweep_serial(patterns, lhs, rhs, source_egds, fingerprint, k)
        if verdict_key is not None:
            _disk_verdict_put(verdict_key, result)
        return result
    finally:
        if presized:
            _set_chase_cache_limit(prior_cache_limit)
        intern.publish_stats()


def implies(
    sigma_set,
    sigma_prime_set,
    source_egds: Sequence[Egd] = (),
    max_patterns: int | None = 1_000_000,
    *,
    subsumption: bool = True,
    budget: int | None = None,
    incremental: bool | None = None,
) -> bool:
    """Decide ``Sigma |= Sigma'`` for finite sets of (nested) tgds.

    Both arguments may be a single dependency or an iterable.  With
    *source_egds*, implication is relative to sources satisfying the egds
    (Theorem 5.7).
    """
    if isinstance(sigma_prime_set, (STTgd, NestedTgd)):
        sigma_prime_set = [sigma_prime_set]
    return all(
        implies_tgd(
            sigma_set, sigma, source_egds=source_egds, max_patterns=max_patterns,
            subsumption=subsumption, budget=budget, incremental=incremental,
        ).holds
        for sigma in sigma_prime_set
    )


def equivalent(
    sigma_set,
    sigma_prime_set,
    source_egds: Sequence[Egd] = (),
    max_patterns: int | None = 1_000_000,
    *,
    subsumption: bool = True,
    budget: int | None = None,
    incremental: bool | None = None,
) -> bool:
    """Decide logical equivalence of two finite sets of nested tgds (Corollary 3.11)."""
    return implies(
        sigma_set, sigma_prime_set, source_egds=source_egds,
        max_patterns=max_patterns, subsumption=subsumption,
        budget=budget, incremental=incremental,
    ) and implies(
        sigma_prime_set, sigma_set, source_egds=source_egds,
        max_patterns=max_patterns, subsumption=subsumption,
        budget=budget, incremental=incremental,
    )


def implies_semantic_bounded(
    sigma_set,
    sigma,
    max_facts: int = 3,
    max_constants: int = 3,
    source_egds: Sequence[Egd] = (),
) -> bool:
    """Brute-force implication over all source instances up to a size bound.

    ``Sigma |= sigma`` holds iff for every source instance I,
    ``chase(I, sigma)`` maps homomorphically into ``chase(I, Sigma)`` (the
    closure-under-target-homomorphisms argument of Section 3).  This checker
    verifies exactly that over every source instance with at most *max_facts*
    facts over *max_constants* constants (up to isomorphism).

    It is exponential and exists as a differential-testing oracle for the
    pattern-based procedure :func:`implies_tgd`: sound refutations, and
    agreement on small instances is strong evidence of agreement everywhere
    (the k-pattern argument says small canonical instances suffice).
    """
    from repro.core.fblock_analysis import enumerate_source_instances
    from repro.engine.egd_chase import satisfies_egds

    lhs = _normalize_lhs(sigma_set if not isinstance(sigma_set, (STTgd, NestedTgd, SOTgd))
                         else [sigma_set])
    rhs = _normalize_rhs(sigma)
    schema = rhs.source_schema()
    for dep in lhs:
        schema = schema.union(dep.source_schema())
    for instance in enumerate_source_instances(schema, max_facts, max_constants):
        if source_egds and not satisfies_egds(instance, list(source_egds)):
            continue
        rhs_chase = chase(instance, [rhs])
        lhs_chase = chase(instance, lhs)
        if find_homomorphism(rhs_chase, lhs_chase) is None:
            return False
    return True


__all__ = [
    "ImplicationResult",
    "cached_chase",
    "clear_chase_cache",
    "implication_bound",
    "implies_tgd",
    "implies",
    "implies_semantic_bounded",
    "equivalent",
]
