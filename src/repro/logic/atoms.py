"""Relational atoms.

An atom ``R(t1, ..., tn)`` pairs a relation name with a tuple of arguments.
In a dependency, arguments are variables, constants, or (for SO tgds) function
terms; in an instance, arguments are values (constants, nulls, ground terms),
in which case the atom is a *fact*.

:class:`Atom` is hash-consed (see :mod:`repro.logic.intern`): structurally
equal atoms are the same object, so fact-set membership and join equality
checks in the engine reduce to pointer comparisons.  The variable set of an
atom is computed once per interned atom and cached.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.logic import intern
from repro.logic.terms import FuncTerm, is_ground, substitute_term, term_variables
from repro.logic.values import Constant, Null, Variable

_ATOMS = intern.new_table()
_DEAD = intern.DEAD


class Atom:
    """An atom ``relation(*args)``; immutable, hashable, and interned."""

    __slots__ = ("relation", "args", "_hash", "_varset", "_dense_id", "__weakref__")

    relation: str
    args: tuple

    def __new__(cls, relation: str, args: tuple) -> "Atom":
        if not isinstance(args, tuple):
            args = tuple(args)
        key = (relation, args)
        existing = _ATOMS.get(key, _DEAD)()
        if existing is not None:
            intern.note_hit()
            return existing
        candidate = object.__new__(cls)
        object.__setattr__(candidate, "relation", relation)
        object.__setattr__(candidate, "args", args)
        object.__setattr__(candidate, "_hash", hash(key))
        object.__setattr__(candidate, "_varset", None)
        object.__setattr__(candidate, "_dense_id", intern.next_dense_id("Atom"))
        return intern.intern_into(_ATOMS, key, candidate)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError("Atom is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Atom, (self.relation, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def dense_id(self) -> int:
        """The per-kind dense intern id (see :func:`repro.logic.intern.next_dense_id`)."""
        return self._dense_id

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.relation}({inner})"

    def variables(self) -> Iterator[Variable]:
        """Yield the variables of the atom in left-to-right order (with repetition)."""
        for arg in self.args:
            yield from term_variables(arg)

    def variable_set(self) -> frozenset[Variable]:
        """Return the set of variables occurring in the atom (cached per atom)."""
        cached: Optional[frozenset[Variable]] = self._varset
        if cached is None:
            cached = frozenset(self.variables())
            object.__setattr__(self, "_varset", cached)
        return cached

    def nulls(self) -> Iterator:
        """Yield the null values of a fact (labeled nulls and ground function terms)."""
        for arg in self.args:
            if isinstance(arg, (Null, FuncTerm)):
                yield arg

    def constants(self) -> Iterator[Constant]:
        """Yield the constants of the atom (top-level arguments only)."""
        for arg in self.args:
            if isinstance(arg, Constant):
                yield arg

    def is_fact(self) -> bool:
        """Return True if every argument is a value (no variables anywhere)."""
        return all(not isinstance(a, Variable) and is_ground(a) for a in self.args)

    def substitute(self, assignment: dict) -> "Atom":
        """Apply a Variable -> value/term assignment to all arguments."""
        return Atom(self.relation, tuple(substitute_term(a, assignment) for a in self.args))

    def rename_values(self, renaming: dict) -> "Atom":
        """Replace top-level argument values according to *renaming* (value -> value)."""
        return Atom(self.relation, tuple(renaming.get(a, a) for a in self.args))


def atoms_variables(atoms) -> frozenset[Variable]:
    """Return the set of variables occurring in an iterable of atoms."""
    result: set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return frozenset(result)


__all__ = ["Atom", "atoms_variables"]
