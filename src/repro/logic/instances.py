"""Finite relational instances.

An instance is a finite set of facts (Section 2).  :class:`Instance` stores
the facts in a frozen set and builds three indexes, used throughout the
engine, on the first lookup that needs one:

- a per-relation index (``facts_of``), used by conjunctive-query matching and
  the chase;
- a per-(relation, position, value) index (``facts_with``), used to seed
  backtracking joins;
- a per-value reverse index (``facts_containing``), used by the core engine
  to exclude the facts of a null being eliminated without rebuilding the
  instance.

The indexes store (and return) *tuples*: callers receive the index entries
themselves, and immutability guarantees they cannot corrupt them.  Size,
iteration, membership, equality, hashing and the subinstance test read the
frozen set alone, so an instance that is only iterated or measured (an
exchange's output, a generated source) never pays for indexing.

Instances are immutable: all "modifying" operations return new instances.
The mutable companion used by the chase engines to grow instances
incrementally is :class:`repro.engine.builder.InstanceBuilder`; it maintains
the same indexes under insertion and freezes into an :class:`Instance`
without re-indexing.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.logic.atoms import Atom
from repro.logic.schema import Schema, infer_schema
from repro.logic.values import Constant, is_null

_EMPTY: tuple = ()


class _Indexes(NamedTuple):
    """The lookup indexes of one instance, as :meth:`Instance._index` builds them."""

    by_relation: dict[str, tuple[Atom, ...]]
    by_position: dict[tuple, tuple[Atom, ...]]
    by_value: dict[object, tuple[Atom, ...]]
    nulls: frozenset
    constants: frozenset


class Instance:
    """An immutable finite set of facts with lookup indexes built on demand."""

    __slots__ = (
        "_facts", "_by_relation", "_by_position", "_by_value", "_nulls",
        "_constants", "_hash",
    )

    def __init__(self, facts: Iterable[Atom] = ()):
        self._facts: frozenset[Atom] = frozenset(facts)
        self._by_relation: dict[str, tuple[Atom, ...]] | None = None
        self._by_position: dict[tuple, tuple[Atom, ...]] | None = None
        self._by_value: dict[object, tuple[Atom, ...]] | None = None
        self._nulls: frozenset | None = None
        self._constants: frozenset | None = None
        self._hash: int | None = None

    def _index(self) -> _Indexes:
        """Build every index, then assign every slot, and return the indexes.

        Each accessor checks only its own slot, and a slot is assigned only
        once its index is complete, so a reader never sees a partial index.
        """
        by_relation: dict[str, list[Atom]] = defaultdict(list)
        by_position: dict[tuple, list[Atom]] = defaultdict(list)
        by_value: dict[object, list[Atom]] = defaultdict(list)
        nulls: set = set()
        constants: set = set()
        for fact in self._facts:
            by_relation[fact.relation].append(fact)
            seen_args: set = set()
            for pos, value in enumerate(fact.args):
                by_position[(fact.relation, pos, value)].append(fact)
                if value not in seen_args:
                    seen_args.add(value)
                    by_value[value].append(fact)
                if isinstance(value, Constant):
                    constants.add(value)
                else:
                    nulls.add(value)
        indexes = _Indexes(
            {rel: tuple(fs) for rel, fs in by_relation.items()},
            {key: tuple(fs) for key, fs in by_position.items()},
            {val: tuple(fs) for val, fs in by_value.items()},
            frozenset(nulls),
            frozenset(constants),
        )
        self._by_relation = indexes.by_relation
        self._by_position = indexes.by_position
        self._by_value = indexes.by_value
        self._nulls = indexes.nulls
        self._constants = indexes.constants
        return indexes

    @classmethod
    def _from_indexes(
        cls,
        facts: frozenset[Atom],
        by_relation: dict[str, tuple[Atom, ...]],
        by_position: dict[tuple, tuple[Atom, ...]],
        by_value: dict[object, tuple[Atom, ...]],
        nulls: frozenset,
        constants: frozenset,
    ) -> "Instance":
        """Adopt pre-built indexes without re-indexing (InstanceBuilder.freeze).

        The caller is responsible for consistency; the indexes are adopted,
        not copied.
        """
        instance = cls.__new__(cls)
        instance._facts = facts
        instance._by_relation = by_relation
        instance._by_position = by_position
        instance._by_value = by_value
        instance._nulls = nulls
        instance._constants = constants
        instance._hash = None
        return instance

    # ------------------------------------------------------------------ basics

    @property
    def facts(self) -> frozenset[Atom]:
        return self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Instance):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._facts)
        return self._hash

    def __repr__(self) -> str:
        shown = sorted(self._facts, key=repr)
        if len(shown) <= 8:
            inner = ", ".join(repr(f) for f in shown)
        else:
            inner = ", ".join(repr(f) for f in shown[:8]) + f", ... ({len(shown)} facts)"
        return f"Instance{{{inner}}}"

    def __le__(self, other: "Instance") -> bool:
        """Subinstance test: every fact of self is a fact of *other*."""
        return self._facts <= other._facts

    # ------------------------------------------------------------------ lookups

    def relations(self) -> frozenset[str]:
        """Return the names of relations with at least one fact."""
        by_relation = self._by_relation
        if by_relation is None:
            by_relation = self._index().by_relation
        return frozenset(by_relation)

    def facts_of(self, relation: str) -> tuple[Atom, ...]:
        """Return the facts of *relation* (empty tuple if none)."""
        by_relation = self._by_relation
        if by_relation is None:
            by_relation = self._index().by_relation
        return by_relation.get(relation, _EMPTY)

    def facts_with(self, relation: str, position: int, value) -> tuple[Atom, ...]:
        """Return the facts of *relation* whose argument at *position* is *value*."""
        by_position = self._by_position
        if by_position is None:
            by_position = self._index().by_position
        return by_position.get((relation, position, value), _EMPTY)

    def facts_containing(self, value) -> tuple[Atom, ...]:
        """Return the facts with *value* as a (top-level) argument, each once."""
        by_value = self._by_value
        if by_value is None:
            by_value = self._index().by_value
        return by_value.get(value, _EMPTY)

    def active_domain(self) -> frozenset:
        """Return all values occurring in some fact."""
        return self.constants() | self.nulls()

    def constants(self) -> frozenset[Constant]:
        """Return the constants occurring in some fact."""
        constants = self._constants
        if constants is None:
            constants = self._index().constants
        return constants

    def nulls(self) -> frozenset:
        """Return the nulls (labeled nulls and ground Skolem terms) occurring in some fact."""
        nulls = self._nulls
        if nulls is None:
            nulls = self._index().nulls
        return nulls

    def schema(self) -> Schema:
        """Return the schema inferred from the facts present."""
        return infer_schema(self._facts)

    def is_ground(self) -> bool:
        """Return True if the instance contains no nulls."""
        return not self.nulls()

    # ------------------------------------------------------------- construction

    def extended(self, delta: Iterable[Atom]) -> "Instance":
        """Return ``Instance(self.facts | delta)``, reusing this instance's indexes.

        An indexed instance hands its indexes on: the result shallow-copies
        the three index dicts and appends each new fact to the tuples it
        touches, so adding a few facts costs the dict copies, not a
        re-index.  A not-yet-indexed instance yields a not-yet-indexed one.
        Facts of *delta* already present are ignored; with none left, the
        result is this instance itself.
        """
        facts = self._facts
        new = [fact for fact in dict.fromkeys(delta) if fact not in facts]
        if not new:
            return self
        # _index assigns _constants last, so it marks a complete index.
        if self._constants is None:
            return Instance(facts.union(new))
        by_relation = dict(self._by_relation)
        by_position = dict(self._by_position)
        by_value = dict(self._by_value)
        added: list = []
        for fact in new:
            relation, args = fact.relation, fact.args
            by_relation[relation] = by_relation.get(relation, _EMPTY) + (fact,)
            for pos, value in enumerate(args):
                key = (relation, pos, value)
                by_position[key] = by_position.get(key, _EMPTY) + (fact,)
                if value in args[:pos]:
                    continue
                bucket = by_value.get(value)
                if bucket is None:
                    added.append(value)
                    by_value[value] = (fact,)
                else:
                    by_value[value] = bucket + (fact,)
        nulls, constants = self._nulls, self._constants
        if added:
            fresh = [value for value in added if isinstance(value, Constant)]
            if fresh:
                constants = constants.union(fresh)
            if len(fresh) < len(added):
                nulls = nulls.union(value for value in added if not isinstance(value, Constant))
        return Instance._from_indexes(
            facts.union(new), by_relation, by_position, by_value, nulls, constants
        )

    def union(self, other: "Instance | Iterable[Atom]") -> "Instance":
        """Return the union of this instance with *other*."""
        other_facts = other.facts if isinstance(other, Instance) else frozenset(other)
        return Instance(self._facts | other_facts)

    def difference(self, other: "Instance | Iterable[Atom]") -> "Instance":
        """Return this instance minus the facts of *other*."""
        other_facts = other.facts if isinstance(other, Instance) else frozenset(other)
        return Instance(self._facts - other_facts)

    def restrict(self, predicate: Callable[[Atom], bool]) -> "Instance":
        """Return the subinstance of facts satisfying *predicate*."""
        return Instance(f for f in self._facts if predicate(f))

    def restrict_to_relations(self, names: Iterable[str]) -> "Instance":
        """Return the subinstance over the given relation names."""
        names = set(names)
        return Instance(f for f in self._facts if f.relation in names)

    def map_values(self, mapping: Mapping) -> "Instance":
        """Apply a value -> value map to all facts (identity outside the map's domain).

        This is how a homomorphism ``h`` is applied to an instance: the result
        is ``h(J)``.
        """
        return Instance(f.rename_values(dict(mapping)) for f in self._facts)

    # -------------------------------------------------------------- comparisons

    def _degree_profiles(self) -> dict:
        """Map each value to its occurrence profile: a multiset of (relation, position).

        Any isomorphism preserves profiles, so they both prune obviously
        non-isomorphic pairs early and restrict bijection candidates.
        """
        by_position = self._by_position
        if by_position is None:
            by_position = self._index().by_position
        profiles: dict[object, Counter] = defaultdict(Counter)
        for (relation, pos, value), facts in by_position.items():
            profiles[value][(relation, pos)] += len(facts)
        return {value: frozenset(c.items()) for value, c in profiles.items()}

    def isomorphic(self, other: "Instance", *, rename_constants: bool = False) -> bool:
        """Decide whether this instance is isomorphic to *other*.

        With ``rename_constants=False`` (the default), the bijection must be
        the identity on constants and only renames nulls.  With
        ``rename_constants=True``, constants may be renamed to constants as
        well -- this is the "unique up to renaming of constants" notion used
        for canonical instances of patterns (Definition 3.7).
        """
        if len(self) != len(other):
            return False
        if sorted((f.relation, f.arity) for f in self) != sorted(
            (f.relation, f.arity) for f in other
        ):
            return False
        self_nulls, other_nulls = self.nulls(), other.nulls()
        self_consts, other_consts = self.constants(), other.constants()
        if not rename_constants and self_consts != other_consts:
            return False

        # Degree-profile pruning: a bijection maps each value to a value with
        # the same (relation, position) occurrence profile, so mismatched
        # profile multisets reject without any search, and candidate lists
        # shrink to profile-equal values.
        self_profiles = self._degree_profiles()
        other_profiles = other._degree_profiles()
        if Counter(self_profiles[v] for v in self_nulls) != Counter(
            other_profiles[v] for v in other_nulls
        ):
            return False
        if rename_constants:
            if Counter(self_profiles[v] for v in self_consts) != Counter(
                other_profiles[v] for v in other_consts
            ):
                return False
        elif any(self_profiles[c] != other_profiles[c] for c in self_consts):
            return False

        self_vals = sorted(self.active_domain(), key=repr)
        if not rename_constants:
            self_vals = [v for v in self_vals if is_null(v)]

        # The other instance's nulls (and constants) grouped by profile once,
        # each group in repr order, so a candidate lookup is one dict probe.
        null_groups: dict[frozenset, list] = defaultdict(list)
        for v in sorted(other_nulls, key=repr):
            null_groups[other_profiles[v]].append(v)
        const_groups: dict[frozenset, list] = defaultdict(list)
        if rename_constants:
            for v in sorted(other_consts, key=repr):
                const_groups[other_profiles[v]].append(v)

        def candidates(value) -> list:
            profile = self_profiles[value]
            if is_null(value):
                return null_groups.get(profile, [])
            if rename_constants:
                return const_groups.get(profile, [])
            return [value]

        other_facts = other.facts
        if not self_vals:
            return self._facts == other_facts
        # Each fact is checked as soon as its last value (in search order) is
        # mapped: its image must be a fact of *other*.  The mapping is
        # injective and both instances have the same size, so once every
        # fact has passed, the image is all of *other*.
        order = {value: index for index, value in enumerate(self_vals)}
        due: list[list[Atom]] = [[] for _ in self_vals]
        for fact in self._facts:
            last = max((order[arg] for arg in fact.args if arg in order), default=-1)
            if last >= 0:
                due[last].append(fact)
            elif fact not in other_facts:
                return False
        mapping: dict = {}
        used: set = set()
        # Depth-first search over an explicit stack holding one candidate
        # iterator per value mapped so far, so instances with thousands of
        # nulls stay clear of the recursion limit.
        stack = [iter(candidates(self_vals[0]))]
        while stack:
            depth = len(stack) - 1
            value = self_vals[depth]
            if value in mapping:
                used.discard(mapping.pop(value))
            cand = next((c for c in stack[-1] if c not in used), None)
            if cand is None:
                stack.pop()
                continue
            mapping[value] = cand
            used.add(cand)
            if not all(f.rename_values(mapping) in other_facts for f in due[depth]):
                continue
            if len(stack) == len(self_vals):
                return True
            stack.append(iter(candidates(self_vals[len(stack)])))
        return False


def union_all(instances: Iterable[Instance]) -> Instance:
    """Return the union of all given instances."""
    facts: set[Atom] = set()
    for inst in instances:
        facts.update(inst.facts)
    return Instance(facts)


__all__ = ["Instance", "union_all"]
