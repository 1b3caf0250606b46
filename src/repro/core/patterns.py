"""Patterns of nested tgds: Definitions 3.2 and 3.3 and Proposition 3.5.

A *pattern* of a nested tgd is a tree whose nodes are labeled by part
identifiers such that the parent-child relation of the tree matches the
nesting of the parts.  The pattern of a chase tree forgets the variable
assignments of its triggerings and keeps only the part identifiers.

A subtree ``t'`` is a *clone* of a subtree ``t`` when their roots are
siblings and the subtrees are isomorphic; a *k-pattern* has at most ``k``
copies of each subtree among any sibling group.  ``P_k(sigma)``, the set of
all k-patterns of ``sigma``, is enumerated exactly as in Proposition 3.5:

    P*_k(sigma_j) = { <sigma_j, union_a P_a^mu_a> | P_a subset of P*_k(sigma_ia),
                      mu_a : P_a -> 1..k }

The size of ``P_k(sigma)`` is non-elementary in the nesting depth (Section 3),
so the enumeration accepts explicit resource limits and there is a separate
:func:`count_k_patterns` that computes ``|P_k(sigma)|`` without enumerating
(saturating at ``analysis.cost.SATURATION_CAP`` -- the exact count of a deep
nesting has more digits than fit in memory).

:class:`Pattern` is hash-consed (see :mod:`repro.logic.intern`): two
isomorphic patterns are the *same* object, and the canonical sort key, node
count, and hash are each computed once at intern time.  Since children of an
interned pattern are already canonically sorted, rebuilding a tree bottom-up
(as :meth:`Pattern.with_extra_clone` does) never re-sorts untouched siblings.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import DependencyError, ResourceLimitExceeded
from repro.logic import intern
from repro.logic.nested import NestedTgd

_PATTERNS = intern.new_table()
_DEAD = intern.DEAD


class Pattern:
    """A pattern node: a part identifier plus child patterns.

    Children are kept in a canonical sorted order so that two isomorphic
    patterns compare (and hash) equal -- equality *is* isomorphism here,
    and by interning it is also pointer identity.
    """

    __slots__ = (
        "part_id", "children", "_hash", "_sort_key", "_node_count",
        "_dense_id", "__weakref__",
    )

    part_id: int
    children: tuple["Pattern", ...]

    def __new__(cls, part_id: int, children: tuple["Pattern", ...] = ()) -> "Pattern":
        if not isinstance(children, tuple):
            children = tuple(children)
        if any(child._sort_key > children[i + 1]._sort_key
               for i, child in enumerate(children[:-1])):
            children = tuple(sorted(children, key=lambda p: p._sort_key))
        key = (part_id, children)
        existing = _PATTERNS.get(key, _DEAD)()
        if existing is not None:
            intern.note_hit()
            return existing
        candidate = object.__new__(cls)
        object.__setattr__(candidate, "part_id", part_id)
        object.__setattr__(candidate, "children", children)
        object.__setattr__(candidate, "_hash", hash(key))
        object.__setattr__(
            candidate,
            "_sort_key",
            (part_id, tuple(child._sort_key for child in children)),
        )
        object.__setattr__(
            candidate,
            "_node_count",
            1 + sum(child._node_count for child in children),
        )
        object.__setattr__(candidate, "_dense_id", intern.next_dense_id("Pattern"))
        return intern.intern_into(_PATTERNS, key, candidate)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("Pattern is immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError("Pattern is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Pattern, (self.part_id, self.children))

    def sort_key(self) -> tuple:
        """A canonical structural key (two patterns are isomorphic iff keys equal)."""
        return self._sort_key

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def dense_id(self) -> int:
        """The per-kind dense intern id (see :func:`repro.logic.intern.next_dense_id`)."""
        return self._dense_id

    def subtrees(self) -> Iterator["Pattern"]:
        """Yield every subtree (closed under the child relation), preorder."""
        yield self
        for child in self.children:
            yield from child.subtrees()

    def multiplicity(self, child: "Pattern") -> int:
        """How many copies of *child* occur among this node's children."""
        return sum(1 for c in self.children if c is child)

    def max_clone_count(self) -> int:
        """The largest sibling multiplicity of any subtree anywhere in the pattern."""
        best = 0
        for node in self.subtrees():
            seen: dict[Pattern, int] = {}
            for child in node.children:
                seen[child] = seen.get(child, 0) + 1
            if seen:
                best = max(best, max(seen.values()))
        return best

    def is_k_pattern(self, k: int) -> bool:
        """True if no subtree has more than *k* clones among its siblings."""
        return self.max_clone_count() <= k

    def with_extra_clone(self, path: tuple[int, ...]) -> "Pattern":
        """Return the pattern with one more clone of the subtree at *path* appended.

        *path* is a sequence of child indexes (into the canonically ordered
        ``children`` tuples) leading from the root to the subtree to clone;
        the empty path is rejected since the root has no siblings.
        """
        if not path:
            raise DependencyError("cannot clone the root of a pattern")

        def rebuild(node: Pattern, path: tuple[int, ...]) -> Pattern:
            index = path[0]
            if index >= len(node.children):
                raise DependencyError(f"invalid clone path {path!r}")
            if len(path) == 1:
                target = node.children[index]
                return Pattern(node.part_id, node.children + (target,))
            new_child = rebuild(node.children[index], path[1:])
            children = list(node.children)
            children[index] = new_child
            return Pattern(node.part_id, tuple(children))

        return rebuild(self, tuple(path))

    def with_clones(self, path: tuple[int, ...], copies: int) -> "Pattern":
        """Return the pattern with *copies* extra clones of the subtree at *path*."""
        result = self
        for __ in range(copies):
            result = result.with_extra_clone(path)
        return result

    def with_extra_child(self, path: tuple[int, ...], leaf_part_id: int) -> "Pattern":
        """Return the pattern with a new leaf labeled *leaf_part_id* under *path*.

        *path* addresses the node (the empty path is the root) that receives
        the new child.  Every pattern with ``n > 1`` nodes arises from a
        pattern with ``n - 1`` nodes by one such leaf attachment, the edge the
        DAG-incremental IMPLIES sweep follows; the sweep itself builds its
        candidates on mirror trees (``repro.core.implication``), not here.
        """
        if not path:
            return Pattern(self.part_id, self.children + (Pattern(leaf_part_id),))
        index = path[0]
        if index >= len(self.children):
            raise DependencyError(f"invalid attach path {path!r}")
        children = list(self.children)
        children[index] = self.children[index].with_extra_child(path[1:], leaf_part_id)
        return Pattern(self.part_id, tuple(children))

    def validate_against(self, tgd: NestedTgd) -> None:
        """Check that this pattern's labels respect the nesting structure of *tgd*."""
        if self.part_id != 1:
            raise DependencyError("the root of a pattern must be the top-level part (1)")

        def check(node: Pattern) -> None:
            allowed = set(tgd.children_of(node.part_id))
            for child in node.children:
                if child.part_id not in allowed:
                    raise DependencyError(
                        f"part {child.part_id} is not nested under part {node.part_id}"
                    )
                check(child)

        check(self)

    def __repr__(self) -> str:
        if not self.children:
            return f"[{self.part_id}]"
        inner = " ".join(repr(c) for c in self.children)
        return f"[{self.part_id} {inner}]"


class _Budget:
    """A mutable enumeration budget shared across the recursive construction."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        if self.limit is None:
            return
        self.used += amount
        if self.used > self.limit:
            raise ResourceLimitExceeded("patterns", self.limit)


def _multiplicity_choices(options: list[Pattern], k: int, budget: _Budget):
    """Yield all multisets over *options* with per-element multiplicity 0..k.

    Each yielded value is a tuple of (pattern, multiplicity > 0) pairs.
    """

    def recurse(index: int, chosen: list[tuple[Pattern, int]]):
        if index == len(options):
            yield tuple(chosen)
            return
        for multiplicity in range(k + 1):
            if multiplicity:
                chosen.append((options[index], multiplicity))
            yield from recurse(index + 1, chosen)
            if multiplicity:
                chosen.pop()

    yield from recurse(0, [])


def _patterns_for_part(
    tgd: NestedTgd, pid: int, k: int, budget: _Budget, memo: dict[int, list[Pattern]]
) -> list[Pattern]:
    """Materialize ``P*_k(sigma_pid)`` (Proposition 3.5), memoized per part."""
    if pid in memo:
        return memo[pid]
    child_ids = tgd.children_of(pid)
    if not child_ids:
        result = [Pattern(pid)]
    else:
        per_child_options = [
            _patterns_for_part(tgd, child, k, budget, memo) for child in child_ids
        ]
        result = []

        def combine(index: int, accumulated: tuple[Pattern, ...]):
            if index == len(per_child_options):
                budget.charge()
                result.append(Pattern(pid, accumulated))
                return
            for multiset in _multiplicity_choices(per_child_options[index], k, budget):
                extra: tuple[Pattern, ...] = ()
                for pattern, multiplicity in multiset:
                    extra = extra + (pattern,) * multiplicity
                combine(index + 1, accumulated + extra)

        combine(0, ())
    memo[pid] = result
    return result


def enumerate_k_patterns(
    tgd: NestedTgd, k: int, max_patterns: int | None = 1_000_000
) -> list[Pattern]:
    """Return ``P_k(sigma)``: all k-patterns of the nested tgd, smallest first.

    Raises :class:`ResourceLimitExceeded` when more than *max_patterns*
    patterns would be constructed (the set is non-elementary in the nesting
    depth; pass ``max_patterns=None`` to remove the guard).

        >>> from repro.logic.parser import parse_nested_tgd
        >>> s = parse_nested_tgd(
        ...     "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) "
        ...     "& (S3(x1,x3) -> R3(y1,x3) & (S4(x3,x4) -> exists y2 . R4(y2,x4))))")
        >>> len(enumerate_k_patterns(s, 1))   # Figure 1 of the paper
        8
    """
    if k < 1:
        raise DependencyError("k must be at least 1")
    budget = _Budget(max_patterns)
    patterns = _patterns_for_part(tgd, 1, k, budget, {})
    return sorted(patterns, key=lambda p: (p.node_count, p.sort_key()))


def one_patterns(tgd: NestedTgd, max_patterns: int | None = 1_000_000) -> list[Pattern]:
    """Return the 1-patterns of *tgd* (used by the f-block analysis of Section 4)."""
    return enumerate_k_patterns(tgd, 1, max_patterns=max_patterns)


def count_k_patterns(tgd: NestedTgd, k: int) -> int:
    """Return ``|P_k(sigma)|`` without enumerating, saturating at the cost cap.

    Uses the recurrence from Proposition 3.5:
    ``|P*_k(sigma_j)| = prod_a (k+1) ** |P*_k(sigma_ia)|`` over the child
    parts, with leaves contributing 1.  Grows non-elementarily in the depth,
    so the arithmetic clamps at :data:`repro.analysis.cost.SATURATION_CAP`
    (the same sentinel the static cost model reports) instead of silently
    materializing multi-gigabyte bigints.
    """
    from repro.analysis.cost import count_k_patterns_saturating

    return count_k_patterns_saturating(tgd, k)


def patterns_up_to_size(
    tgd: NestedTgd, max_nodes: int, max_patterns: int | None = 1_000_000
) -> list[Pattern]:
    """Enumerate all patterns of *tgd* with at most *max_nodes* nodes, smallest first.

    Unlike :func:`enumerate_k_patterns`, which bounds the number of sibling
    clones, this bounds the total node count -- the enumeration used when
    searching for an equivalent GLAV mapping by growing pattern tgds.
    """
    budget = _Budget(max_patterns)
    memo: dict[tuple[int, int], list[Pattern]] = {}

    def trees_for_part(pid: int, node_budget: int) -> list[Pattern]:
        """All trees rooted at part *pid* with at most *node_budget* nodes."""
        if node_budget < 1:
            return []
        key = (pid, node_budget)
        if key in memo:
            return memo[key]
        child_ids = tgd.children_of(pid)
        results: list[Pattern] = []

        def assign_children(index: int, remaining: int, acc: tuple[Pattern, ...]) -> None:
            if index == len(child_ids):
                budget.charge()
                results.append(Pattern(pid, acc))
                return
            options = trees_for_part(child_ids[index], remaining)

            def choose(option_index: int, left: int, acc2: tuple[Pattern, ...]) -> None:
                if option_index == len(options):
                    assign_children(index + 1, left, acc2)
                    return
                option = options[option_index]
                size = option.node_count
                copies = 0
                while copies * size <= left:
                    choose(
                        option_index + 1,
                        left - copies * size,
                        acc2 + (option,) * copies,
                    )
                    copies += 1

            choose(0, remaining, acc)

        assign_children(0, node_budget - 1, ())
        # Canonical child ordering may create duplicates across choice orders.
        deduped = list(dict.fromkeys(results))
        memo[key] = deduped
        return deduped

    patterns = trees_for_part(1, max_nodes)
    return sorted(patterns, key=lambda p: (p.node_count, p.sort_key()))


def full_pattern(tgd: NestedTgd) -> Pattern:
    """The pattern with exactly one node per part of *tgd* (its nesting skeleton)."""

    def build(pid: int) -> Pattern:
        return Pattern(pid, tuple(build(child) for child in tgd.children_of(pid)))

    return build(1)


__all__ = [
    "Pattern",
    "enumerate_k_patterns",
    "one_patterns",
    "count_k_patterns",
    "patterns_up_to_size",
    "full_pattern",
]
