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

- a **DAG-incremental sweep** (whenever there are no source egds):
  ``P_k(sigma)`` is enumerated as a frontier-ordered DAG in which every
  pattern with ``n > 1`` nodes is built once, from its *canonical parent*:
  the ``n - 1``-node pattern that drops the leaf its minimum descent
  reaches (from the root, always into a child of least
  ``(node_count, sort_key)``; ``docs/algorithms.md`` shows that parent is a
  k-pattern).  A leaf is attached only where it ends the
  child's minimum descent, so no candidate is a duplicate, and most
  attachments are rejected by node counts before any :class:`Pattern` is
  built.  Each pattern's canonical instances and chase are *extended* from
  its parent's state by the delta the new leaf contributes, instead of
  being rebuilt and re-chased from scratch.  The new leaf's constants are
  named by its part and its ordinal among that part's nodes, so patterns
  built along different derivations still share canonical sources, and
  chases, through the chase cache.  Patterns are swept smallest first
  (levels by node count, canonical order within a level -- exactly the
  enumeration order of ``enumerate_k_patterns``), so counterexamples
  short-circuit before the deep frontier is ever generated.  Generation is
  path-copied: a child pattern's mirror tree shares every subtree off the
  new leaf's root path with its parent's.  The sweep state is two frozen
  instances, ``I_p`` and its chase; a chase-cache miss extends both by the
  delta (:meth:`Instance.extended` hands an indexed parent's indexes on),
  and a hit extends nothing.
- a **seeded pattern check** inside that sweep: each state keeps the
  homomorphism ``h`` found for its ``J_p`` and the image ``h(J_p)``.  A child
  whose chase still contains the parent's image searches only the new leaf's
  target facts, with every older null fixed by ``h``; a success maps the
  whole child ``J_p`` (parent facts by the subset test, delta facts by the
  kernel).  The subset test is not redundant: on a chase-cache hit the chased
  instance came from another derivation, whose nulls need not extend the
  parent's.  When the test or the seeded search fails, the full search runs
  (``implies.sweep.hom_fallbacks``), and only the full search refutes -- so
  verdicts, pattern counts and counterexamples are those of the unseeded
  sweep.
- a process-wide LRU **chase cache** keyed by (canonical source facts,
  Sigma fingerprint).  Chasing is deterministic, so two patterns (or two
  IMPLIES runs) whose canonical sources coincide share one chase.  Hits and
  misses are recorded in :mod:`repro.perf`; incremental extensions count as
  ``implies.sweep.incremental_hits``.
- an optional **persistent verdict tier** (:mod:`repro.cache`, enabled by
  ``REPRO_CACHE_DIR`` or ``repro.cache.configure``): whole IMPLIES verdicts
  (result, failing pattern, counterexamples) are stored under a fingerprint
  of (Sigma, sigma, source egds, k, sweep mode), so a warm restart answers a
  repeated query without enumerating a single pattern.  Chases stay in the
  in-memory LRU; keys are content-derived (hash-seed independent), and the
  hot path is unchanged when the store is off.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import perf
from repro.cache import SPACE_IMPLIES, disk_get, disk_put, get_store
from repro.cache.fingerprint import fingerprint_texts
# Not used here: benchmarks/e2e/trace.py resolves both names on this module.
from repro.cache.fingerprint import combine_fingerprints, fingerprint_facts  # noqa: F401
from repro.errors import DependencyError, ResourceLimitExceeded
from repro.logic import intern
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.sotgd import SOTgd
from repro.logic.tgds import STTgd
from repro.core.canonical import (
    canonical_extension,
    canonical_instances,
    legal_canonical_instances,
)
from repro.core.patterns import Pattern, enumerate_k_patterns
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
    """The quantity ``w`` of the IMPLIES procedure, over any mix of formalisms."""
    best = 0
    for dep in dependencies:
        if isinstance(dep, NestedTgd):
            best = max(best, dep.universal_variable_count())
        elif isinstance(dep, STTgd):
            best = max(best, len(dep.universal_variables))
        elif isinstance(dep, SOTgd):
            best = max(best, dep.max_universal_variables())
    return best


def implication_bound(sigma_set: Sequence, sigma: NestedTgd | STTgd) -> int:
    """The clone bound ``k = v_sigma * w_Sigma + 1`` from line 4 of IMPLIES.

    A flat *sigma* counts its existential variables as ``v`` directly, so
    same-schema tgds (which ``to_nested`` rejects) get a bound too.
    """
    if isinstance(sigma, STTgd):
        v = len(sigma.existential_variables)
    else:
        v = sigma.skolem_function_count()
    return v * _max_universal_variables(sigma_set) + 1


# --------------------------------------------------------------- chase cache

#: LRU cache of ``chase(I_p, Sigma)`` results, keyed by
#: (facts of the canonical source, Sigma fingerprint).  The chase is
#: deterministic, so equal keys yield identical results (including null
#: labels) and the cached instance can be shared freely.
_CHASE_CACHE: "OrderedDict[tuple, Instance]" = OrderedDict()
_CHASE_CACHE_LIMIT = 512


def _sigma_fingerprint(lhs: Sequence) -> tuple[str, ...]:
    """A hashable identity for a normalized left-hand side (reprs are total)."""
    return tuple(repr(dep) for dep in lhs)


def clear_chase_cache() -> None:
    """Drop all cached chase results (benchmarks use it for cold-start runs)."""
    _CHASE_CACHE.clear()


def _chase_tier(source_facts: frozenset, fingerprint: tuple[str, ...], compute) -> Instance:
    """Look one chase up in the LRU, running *compute* on a miss."""
    key = (source_facts, fingerprint)
    cached = _CHASE_CACHE.get(key)
    if cached is not None:
        _CHASE_CACHE.move_to_end(key)
        perf.incr("implies.cache_hits")
        return cached
    perf.incr("implies.cache_misses")
    chased = compute()
    _CHASE_CACHE[key] = chased
    if len(_CHASE_CACHE) > _CHASE_CACHE_LIMIT:
        _CHASE_CACHE.popitem(last=False)
    return chased


def _cached_chase(source: Instance, lhs: Sequence, fingerprint: tuple[str, ...]) -> Instance:
    return _chase_tier(source.facts, fingerprint, lambda: chase(source, lhs))


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
    attachment order, so a candidate attachment is addressed by its
    root-to-node path.  Each node caches its canonical subtree (``canon``),
    so a candidate rebuilds canonical patterns only along that path.

    Nodes are shared between patterns: ``children`` is never mutated after
    the node is created, and ``assignment`` (the per-node variable
    assignment a child leaf's canonical-instance delta inherits) is set once,
    by the sweep, on the new leaf.  A child pattern's tree is its parent's
    tree with fresh nodes for the new leaf, the node that received it, and
    that node's ancestors; every other subtree is the parent's, by reference.
    """

    __slots__ = ("part_id", "assignment", "children", "canon")

    def __init__(self, part_id: int, assignment: dict | None,
                 children: list[_MirrorNode], canon: Pattern):
        self.part_id = part_id
        self.assignment = assignment
        self.children = children
        self.canon = canon


def _attach_spine(root: _MirrorNode) -> list[_MirrorNode]:
    """The nodes under which a new leaf can end the child's minimum descent.

    A pattern's canonical parent drops the leaf its *minimum descent*
    reaches: from the root, always into a child of least
    ``(node_count, sort_key)``.  A leaf attached under ``v`` lies on that
    descent only if every subtree it grows, one node larger, is still no
    larger than any of its siblings -- so, at every level, the subtree was
    the unique child of fewest nodes.  The spine is the root, then that
    child, repeatedly, while one exists.  The rest of the rule compares
    sort keys and clone counts (:func:`_attach_candidate`).
    """
    spine = [root]
    node = root
    while node.children:
        counts = [child.canon.node_count for child in node.children]
        least = min(counts)
        if counts.count(least) > 1:
            break
        node = node.children[counts.index(least)]
        spine.append(node)
    return spine


def _attach_candidate(
    path: list[_MirrorNode], part_id: int, k: int
) -> list[Pattern] | None:
    """The canonical subtrees after attaching a *part_id* leaf under
    ``path[-1]``, bottom-up (the leaf, then one per path node, the whole
    pattern last), or None when the child breaks the clone bound *k* or
    does not have the parent as its canonical parent.

    *path* is a prefix of the parent's :func:`_attach_spine` and the caller
    has checked the leaf against its new siblings, so node counts already
    place each grown subtree first among its siblings, up to ties.  Only a
    sibling of equal node count can precede it (by sort key) or be a clone
    of it, so those alone are compared -- and those clone counts *are*
    ``is_k_pattern(k)`` (only the sibling groups along the path change).
    Canonical subtrees of untouched siblings come from the ``canon``
    cache, so a candidate costs O(depth) interned constructions.
    """
    leaf = Pattern(part_id)
    node = path[-1]
    current = Pattern(node.part_id, tuple(c.canon for c in node.children) + (leaf,))
    canons = [leaf, current]
    for depth in range(len(path) - 2, -1, -1):
        parent, replaced = path[depth], path[depth + 1]
        size, key, copies = current.node_count, current.sort_key(), 1
        for child in parent.children:
            canon = child.canon
            if child is replaced or canon.node_count != size:
                continue
            if canon is current:
                copies += 1
            elif canon.sort_key() < key:
                return None
        if copies > k:
            return None
        kids = tuple(current if child is replaced else child.canon
                     for child in parent.children)
        current = Pattern(parent.part_id, kids)
        canons.append(current)
    return canons


@dataclass(frozen=True)
class _SweepEntry:
    """One pattern of the sweep DAG: its producing edge and canonical form.

    ``parent`` is the index of the (node_count - 1)-node pattern this one
    extends (-1 for the root), ``tree`` the root of this pattern's mirror
    tree, ``leaf`` the new leaf (the root node for the root pattern), and
    ``attach`` the node that received it (None for the root pattern).
    """

    index: int
    pattern: Pattern
    parent: int
    tree: _MirrorNode
    attach: _MirrorNode | None
    leaf: _MirrorNode


def _path_copy(
    path: list[_MirrorNode], canons: list[Pattern]
) -> tuple[_MirrorNode, _MirrorNode, _MirrorNode]:
    """Attach the leaf ``canons[0]`` under ``path[-1]`` without touching the old tree.

    Returns ``(root, attach, leaf)`` of the new tree: fresh nodes for the
    leaf and every node on *path*, each with the canon :func:`_attach_candidate`
    computed for it, and the old nodes' other children shared by reference.
    """
    leaf = _MirrorNode(canons[0].part_id, None, [], canons[0])
    old = path[-1]
    attach = new = _MirrorNode(old.part_id, old.assignment, old.children + [leaf], canons[1])
    for depth in range(len(path) - 2, -1, -1):
        node = path[depth]
        children = [new if child is old else child for child in node.children]
        old, new = node, _MirrorNode(node.part_id, node.assignment, children,
                                     canons[len(path) - depth])
    return new, attach, leaf


def _iter_pattern_levels(rhs: NestedTgd, k: int):
    """Yield ``P_k(rhs)`` level by level as lists of :class:`_SweepEntry`.

    Level ``n`` holds the k-patterns with ``n`` nodes, each produced from
    its *canonical parent* -- the level ``n - 1`` pattern that drops the
    leaf of its minimum descent (:func:`_attach_spine`) -- by one leaf
    attachment; within a level, entries are in canonical (sort-key) order.
    The concatenation of the levels is exactly ``enumerate_k_patterns(rhs,
    k)``'s order.  Generation is lazy: a sweep that fails early never
    materializes the deeper frontier.

    Every k-pattern with ``n > 1`` nodes has a k-pattern canonical parent:
    the subtree the dropped leaf shrinks ends up strictly smaller than each
    sibling, so it cannot collide with one and no sibling multiplicity ever
    rises (``docs/algorithms.md``).  Attaching only where the new leaf ends
    the child's minimum descent, at one position per automorphism orbit
    (the spine never enters one of two equal subtrees), builds each pattern
    exactly once, so nothing is deduplicated.  Attachments are rejected by
    node counts and the leaf's part before any :class:`Pattern` is built;
    those built count as ``implies.sweep.candidates``.

    No tree is ever copied whole: a level-``n + 1`` tree shares every
    subtree off the attach path with its level-``n`` parent tree (see
    :class:`_MirrorNode`).  The path copies carry the parent nodes'
    assignments, so level ``n + 1`` is built only when the generator
    resumes, by which time the consumer has set the ``assignment`` of every
    level-``n`` entry's leaf.
    """
    root = _MirrorNode(1, None, [], Pattern(1))
    level = [_SweepEntry(0, root.canon, -1, root, None, root)]
    next_index = 1
    while level:
        yield level
        found: list[tuple] = []
        candidates = 0
        for entry in level:
            spine = _attach_spine(entry.tree)
            for depth, node in enumerate(spine):
                # The leaf must precede (or clone) every leaf child; a
                # larger child always follows it.
                leaves = [child.part_id for child in node.children if not child.children]
                first = min(leaves, default=None)
                for part in rhs.children_of(node.part_id):
                    if first is not None and (
                        part > first or (part == first and leaves.count(part) >= k)
                    ):
                        continue
                    candidates += 1
                    path = spine[:depth + 1]
                    canons = _attach_candidate(path, part, k)
                    if canons is not None:
                        found.append((canons[-1], entry.index, path, canons))
        perf.incr("implies.sweep.candidates", candidates)
        found.sort(key=lambda item: item[0].sort_key())
        level = []
        for pattern, parent_index, path, canons in found:
            tree, attach, leaf = _path_copy(path, canons)
            level.append(_SweepEntry(next_index, pattern, parent_index, tree, attach, leaf))
            next_index += 1


class _SweepState:
    """The incrementally maintained per-pattern state of the sweep.

    ``source`` and ``chased`` are the frozen ``I_p`` and
    ``chase(I_p, Sigma)``.  A child that misses the chase cache extends
    both by its delta (:meth:`Instance.extended`), so an indexed parent
    hands its indexes on; a hit only wraps the source facts, and a later
    miss indexes them on its first lookup.  ``ordinals[part]`` counts the
    pattern's nodes of each part, which names the constants of the next
    such node (:func:`canonical_extension`).  Once the pattern is checked,
    ``hom`` is the homomorphism found for ``targets`` and ``images`` the
    set of target facts under it.
    """

    __slots__ = ("ordinals", "source", "chased", "targets", "hom", "images")

    def __init__(self, ordinals: tuple[int, ...], source: Instance,
                 chased: Instance, targets: tuple[Atom, ...]):
        self.ordinals = ordinals
        self.source = source
        self.chased = chased
        self.targets = targets
        self.hom: dict = {}
        self.images: frozenset[Atom] = frozenset()


def _root_sweep_state(
    rhs: NestedTgd, root: _MirrorNode, clauses, fingerprint: tuple[str, ...]
) -> _SweepState:
    """The state of the single-node root pattern (full chase or cache hit)."""
    assignment, source_delta, target_delta = canonical_extension(rhs, 1, {}, 1)
    root.assignment = assignment
    source = Instance(source_delta)
    chased = _chase_tier(
        source.facts, fingerprint, lambda: Instance(run_clause_program(clauses, source))
    )
    ordinals = (0, 1) + (0,) * (rhs.part_count - 1)
    return _SweepState(ordinals, source, chased, tuple(target_delta))


def _extend_sweep_state(
    parent: _SweepState,
    entry: _SweepEntry,
    rhs: NestedTgd,
    clauses,
    fingerprint: tuple[str, ...],
) -> _SweepState:
    """Extend *parent* by the one leaf *entry* attaches, chasing only the delta."""
    part_id = entry.leaf.part_id
    ordinal = parent.ordinals[part_id] + 1
    assignment, source_delta, target_delta = canonical_extension(
        rhs, part_id, entry.attach.assignment, ordinal
    )
    entry.leaf.assignment = assignment
    ordinals = parent.ordinals[:part_id] + (ordinal,) + parent.ordinals[part_id + 1:]
    delta = [fact for fact in dict.fromkeys(source_delta) if fact not in parent.source]
    source_facts = parent.source.facts.union(delta)
    source = None

    def compute() -> Instance:
        nonlocal source
        perf.incr("implies.sweep.incremental_hits")
        source = parent.source.extended(delta)
        if not delta:
            return parent.chased
        return parent.chased.extended(run_clause_program_delta(clauses, source, delta))

    chased = _chase_tier(source_facts, fingerprint, compute)
    if source is None:
        source = Instance(source_facts)
    return _SweepState(ordinals, source, chased, parent.targets + tuple(target_delta))


def _check_sweep_state(state: _SweepState, parent: _SweepState | None) -> bool:
    """Map ``J_p`` into ``chase(I_p, Sigma)``, seeded by *parent*'s homomorphism.

    Returns False iff no homomorphism exists; on success sets ``state.hom``
    and ``state.images``.  When the chase contains the parent's image, only
    the target facts the new leaf added are searched, with every older null
    fixed by the parent's homomorphism: a success maps the parent's facts by
    the subset test and the new ones by the kernel.  Otherwise, or when the
    seeded search finds nothing, the full search decides
    (``implies.sweep.hom_fallbacks``), so only an unseeded search refutes.
    """
    if parent is not None:
        delta = state.targets[len(parent.targets):]
        if parent.images <= state.chased.facts:
            hom = find_homomorphism(delta, state.chased, parent.hom)
            if hom is not None:
                state.hom = hom
                state.images = parent.images.union(fact.rename_values(hom) for fact in delta)
                return True
        perf.incr("implies.sweep.hom_fallbacks")
    hom = find_homomorphism(state.targets, state.chased)
    if hom is None:
        return False
    state.hom = hom
    state.images = frozenset(fact.rename_values(hom) for fact in state.targets)
    return True


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
                parent = None
                state = _root_sweep_state(rhs, entry.leaf, clauses, fingerprint)
            else:
                parent = previous[entry.parent]
                state = _extend_sweep_state(parent, entry, rhs, clauses, fingerprint)
            checked += 1
            perf.incr("implies.patterns")
            if not _check_sweep_state(state, parent):
                return ImplicationResult(
                    holds=False,
                    k=k,
                    patterns_checked=checked,
                    failing_pattern=entry.pattern,
                    counterexample_source=state.source,
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
) -> str:
    """The disk key of one full IMPLIES verdict.

    Includes every input that can change the result *or its diagnostics*:
    Sigma (repr fingerprint), sigma, the source egds, the clone bound, and
    the sweep mode, which the source egds decide -- incremental and
    from-scratch sweeps agree on the verdict but may report different
    (equally valid) counterexamples, and a cached result must be
    indistinguishable from a recomputed one.  The leading component pins a
    format version and the component counts, so concatenated reprs cannot
    alias across the egd/lhs boundary.
    """
    mode = "scratch" if source_egds else "incremental"
    return fingerprint_texts((
        f"implies-v2:k={k}:mode={mode}:lhs={len(fingerprint)}",
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
) -> ImplicationResult:
    """Run the procedure IMPLIES and return a result with diagnostics.

    Without *source_egds* the sweep is **DAG-incremental**: each pattern's
    canonical instances and chase are extended from its parent pattern's
    state by the delta one new leaf contributes.  With *source_egds* every
    pattern is chased from scratch, because egd merges are not monotone
    under source extension.  Both sweeps run in this process and check
    patterns in enumeration order, stopping at the first failing one.

    A sweep over more than *max_patterns* patterns raises
    :class:`~repro.errors.ResourceLimitExceeded`.  The budget pre-flight
    and this limit are checked before the persistent verdict tier, so a
    warm store never answers a query that would have raised.

    With ``budget=N``, the static cost model of
    :func:`repro.analysis.cost.sweep_cost` predicts the sweep size *before*
    enumerating anything; a predicted sweep above the budget raises
    :class:`~repro.errors.BudgetExceeded` immediately (lint finding ``CC001``
    makes the same prediction).

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
    source_egds = list(source_egds)
    fingerprint = _sigma_fingerprint(lhs)
    incremental = not source_egds

    try:
        from repro.core.patterns import count_k_patterns

        # The pattern limit is checked before the persistent verdict tier, so
        # ResourceLimitExceeded (like BudgetExceeded above) still raises over
        # a warm store.  The from-scratch sweep enforces the limit while
        # enumerating, so it pays for the count only when the tier is on.
        use_store = get_store() is not None
        if max_patterns is not None and (incremental or use_store):
            if count_k_patterns(rhs, k) > max_patterns:
                raise ResourceLimitExceeded("patterns", max_patterns)
        # A warm process answers a repeated query without enumerating a
        # single pattern.
        verdict_key: str | None = None
        if use_store:
            verdict_key = _verdict_key(fingerprint, rhs, source_egds, k)
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
        intern.publish_stats()


def implies(
    sigma_set,
    sigma_prime_set,
    source_egds: Sequence[Egd] = (),
    max_patterns: int | None = 1_000_000,
    *,
    subsumption: bool = True,
    budget: int | None = None,
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
            subsumption=subsumption, budget=budget,
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
) -> bool:
    """Decide logical equivalence of two finite sets of nested tgds (Corollary 3.11)."""
    return implies(
        sigma_set, sigma_prime_set, source_egds=source_egds,
        max_patterns=max_patterns, subsumption=subsumption,
        budget=budget,
    ) and implies(
        sigma_prime_set, sigma_set, source_egds=source_egds,
        max_patterns=max_patterns, subsumption=subsumption,
        budget=budget,
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
