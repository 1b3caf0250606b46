"""Mutable instance construction with incrementally maintained indexes.

:class:`Instance` is immutable: every ``union`` re-indexes all facts, so a
fixpoint loop that grows a target one trigger at a time pays quadratic index
maintenance.  :class:`InstanceBuilder` is the mutable companion the chase
engines use instead: it maintains the same three indexes -- per-relation,
per-(relation, position, value), and the per-value reverse index -- under
insertion (and deletion, for the egd chase's merge rewrites and the core
engine's retractions) in amortized constant time per fact, and freezes into
an :class:`Instance` in one linear pass without re-indexing.

A builder is duck-type compatible with the read API the matching and
homomorphism engines use (``facts_of`` / ``facts_with`` / iteration /
``__contains__`` / ``__len__``), so semi-naive chase rounds can match
directly against the partially built instance.  Index buckets are
insertion-ordered dicts used as sets, making both ``add`` and ``discard``
O(arity); the collections returned by the lookup methods are *live views*:
callers must not mutate them and must not hold them across mutations (the
immutable :class:`Instance` returned by :meth:`freeze` is the safe
hand-off).
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.values import Constant

_EMPTY: tuple = ()


class InstanceBuilder:
    """A mutable set of facts with incrementally maintained lookup indexes."""

    __slots__ = ("_facts", "_by_relation", "_by_position", "_by_value")

    def __init__(self, facts: "Instance | Iterable[Atom]" = ()):
        self._facts: set[Atom] = set()
        # Buckets are insertion-ordered dicts used as sets: O(1) insert and
        # delete, deterministic iteration order.
        self._by_relation: dict[str, dict[Atom, None]] = {}
        self._by_position: dict[tuple, dict[Atom, None]] = {}
        self._by_value: dict[object, set[Atom]] = {}
        self.add_all(facts)

    # ---------------------------------------------------------------- mutation

    def add(self, fact: Atom) -> bool:
        """Insert *fact*; return True if it was new."""
        if fact in self._facts:
            return False
        self._facts.add(fact)
        bucket = self._by_relation.get(fact.relation)
        if bucket is None:
            self._by_relation[fact.relation] = {fact: None}
        else:
            bucket[fact] = None
        by_position = self._by_position
        by_value = self._by_value
        for pos, value in enumerate(fact.args):
            key = (fact.relation, pos, value)
            slot = by_position.get(key)
            if slot is None:
                by_position[key] = {fact: None}
            else:
                slot[fact] = None
            holder = by_value.get(value)
            if holder is None:
                by_value[value] = {fact}
            else:
                holder.add(fact)
        return True

    def add_all(self, facts: "Instance | Iterable[Atom]") -> list[Atom]:
        """Insert all *facts*; return the ones that were new (the delta)."""
        add = self.add
        return [fact for fact in facts if add(fact)]

    def discard(self, fact: Atom) -> bool:
        """Remove *fact* if present; return True if it was removed.

        Used by the egd chase to rewrite merged facts in place.  O(arity).
        """
        if fact not in self._facts:
            return False
        self._facts.remove(fact)
        bucket = self._by_relation[fact.relation]
        del bucket[fact]
        if not bucket:
            del self._by_relation[fact.relation]
        for pos, value in enumerate(fact.args):
            key = (fact.relation, pos, value)
            slot = self._by_position[key]
            del slot[fact]
            if not slot:
                del self._by_position[key]
            holder = self._by_value.get(value)
            if holder is not None:
                holder.discard(fact)
                if not holder:
                    del self._by_value[value]
        return True

    # ----------------------------------------------------------------- lookups

    def facts_of(self, relation: str) -> Collection[Atom]:
        """Return the facts of *relation* (live view; do not mutate)."""
        bucket = self._by_relation.get(relation)
        return bucket.keys() if bucket is not None else _EMPTY

    def facts_with(self, relation: str, position: int, value: object) -> Collection[Atom]:
        """Return the facts of *relation* with *value* at *position* (live view)."""
        slot = self._by_position.get((relation, position, value))
        return slot.keys() if slot is not None else _EMPTY

    def facts_containing(self, value: object) -> frozenset[Atom]:
        """Return the facts with *value* as a (top-level) argument."""
        holder = self._by_value.get(value)
        return frozenset(holder) if holder else frozenset()

    def relations(self) -> frozenset[str]:
        return frozenset(self._by_relation)

    def active_domain(self) -> frozenset:
        return frozenset(self._by_value)

    def nulls(self) -> frozenset:
        return frozenset(v for v in self._by_value if not isinstance(v, Constant))

    def constants(self) -> frozenset:
        return frozenset(v for v in self._by_value if isinstance(v, Constant))

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __repr__(self) -> str:
        return f"InstanceBuilder({len(self._facts)} facts)"

    # ------------------------------------------------------------------ freeze

    def freeze(self) -> Instance:
        """Return an immutable :class:`Instance` of the current facts.

        One linear pass (tuplifying the index buckets); no re-indexing.  The
        builder remains usable afterwards -- the frozen instance copies
        nothing from future mutations.
        """
        nulls = []
        constants = []
        for value in self._by_value:
            if isinstance(value, Constant):
                constants.append(value)
            else:
                nulls.append(value)
        return Instance._from_indexes(
            frozenset(self._facts),
            {rel: tuple(fs) for rel, fs in self._by_relation.items()},
            {key: tuple(fs) for key, fs in self._by_position.items()},
            {val: tuple(fs) for val, fs in self._by_value.items()},
            frozenset(nulls),
            frozenset(constants),
        )


__all__ = ["InstanceBuilder"]
