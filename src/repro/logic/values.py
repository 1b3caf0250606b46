"""Constants, labeled nulls, and first-order variables.

Following Section 2 of the paper, the active domain of a source instance
consists of *constants* only, while target instances may additionally contain
*(labeled) nulls*.  Dependencies are written with *variables*.

A fourth kind of domain element, the ground Skolem term (:class:`FuncTerm`
from :mod:`repro.logic.terms` with value arguments only), also acts as a null:
the chase instantiates existential variables with Skolem terms and "Skolem
terms are considered as null labels" (Section 3).  The predicate
:func:`is_null` therefore treats everything that is not a :class:`Constant`
as a null.

All three classes are hash-consed through :mod:`repro.logic.intern`:
``Constant("a") is Constant("a")``, equality is pointer identity, and the
structural hash is computed once at intern time.  Pickling re-interns.
"""

from __future__ import annotations

from typing import Any

from repro.logic import intern

_CONSTANTS = intern.new_table()
_NULLS = intern.new_table()
_VARIABLES = intern.new_table()
_DEAD = intern.DEAD


class _InternedLeaf:
    """Shared machinery of the three interned single-field value classes."""

    __slots__ = ("name", "_hash", "_dense_id", "__weakref__")

    name: Any
    _hash: int
    _dense_id: int

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (type(self), (self.name,))

    @property
    def dense_id(self) -> int:
        """The per-kind dense intern id (see :func:`repro.logic.intern.next_dense_id`)."""
        return self._dense_id


def _intern_leaf(cls: type, table: Any, name: object) -> Any:
    existing = table.get(name, _DEAD)()
    if existing is not None:
        intern.note_hit()
        return existing
    candidate = object.__new__(cls)
    object.__setattr__(candidate, "name", name)
    object.__setattr__(candidate, "_hash", hash((name,)))
    object.__setattr__(candidate, "_dense_id", intern.next_dense_id(cls.__name__))
    return intern.intern_into(table, name, candidate)


class Constant(_InternedLeaf):
    """A rigid constant.  Homomorphisms are the identity on constants."""

    __slots__ = ()

    def __new__(cls, name: object) -> "Constant":
        return _intern_leaf(cls, _CONSTANTS, name)

    def __repr__(self) -> str:
        return f"{self.name}"


class Null(_InternedLeaf):
    """A labeled null, i.e. an existential placeholder in a target instance."""

    __slots__ = ()

    def __new__(cls, name: object) -> "Null":
        return _intern_leaf(cls, _NULLS, name)

    def __repr__(self) -> str:
        return f"_{self.name}"


class Variable(_InternedLeaf):
    """A first-order variable occurring in a dependency (never in an instance)."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        return _intern_leaf(cls, _VARIABLES, name)

    def __repr__(self) -> str:
        return f"?{self.name}"


#: ``(Null, FuncTerm)``, cached on first use -- :mod:`repro.logic.terms`
#: imports this module, so the pair cannot be built at import time, and
#: re-importing inside :func:`is_null` (one of the hottest predicates in the
#: engine) costs more than the isinstance check itself.
_NULL_KINDS: tuple[type, ...] | None = None


def _null_kinds() -> tuple[type, ...]:
    global _NULL_KINDS
    if _NULL_KINDS is None:
        from repro.logic.terms import FuncTerm

        _NULL_KINDS = (Null, FuncTerm)
    return _NULL_KINDS


def is_value(obj: Any) -> bool:
    """Return True if *obj* may appear in an instance (constant, null, or ground term)."""
    from repro.logic.terms import is_ground

    if isinstance(obj, (Constant, Null)):
        return True
    return isinstance(obj, _null_kinds()[1]) and is_ground(obj)


def is_null(obj: Any) -> bool:
    """Return True if *obj* acts as a null (anything in an instance that is not a constant).

    Both :class:`Null` objects and ground Skolem terms qualify; homomorphisms
    may move them, whereas constants are fixed.
    """
    kinds = _NULL_KINDS
    return isinstance(obj, kinds if kinds is not None else _null_kinds())


class FreshValueFactory:
    """Deterministic factory for fresh constants and nulls.

    Every construction in the library that needs "fresh" domain elements
    (canonical instances of patterns, chase steps, workload generators) draws
    them from a factory so that runs are reproducible and independent
    constructions never collide by accident.
    """

    def __init__(self, constant_prefix: str = "a", null_prefix: str = "n"):
        self._constant_prefix = constant_prefix
        self._null_prefix = null_prefix
        self._constant_counter = 0
        self._null_counter = 0

    def constant(self) -> Constant:
        """Return a fresh constant, distinct from all previously returned ones."""
        self._constant_counter += 1
        return Constant(f"{self._constant_prefix}{self._constant_counter}")

    def null(self) -> Null:
        """Return a fresh labeled null, distinct from all previously returned ones."""
        self._null_counter += 1
        return Null(f"{self._null_prefix}{self._null_counter}")
