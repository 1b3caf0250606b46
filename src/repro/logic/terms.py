"""Function (Skolem) terms.

Terms are defined recursively as in Section 2 of the paper: every variable is
a term, and if ``f`` is a k-ary function symbol and ``t1 ... tk`` are terms,
then ``f(t1, ..., tk)`` is a term.  In this library, terms may also contain
constants and nulls so that *ground* terms (no variables) can serve as the
null labels produced by the chase.

A term is *nested* when a functional term has another functional term among
its arguments.  Plain SO tgds forbid nested terms (Section 2).

:class:`FuncTerm` is hash-consed (see :mod:`repro.logic.intern`): structurally
equal terms are the same object, and the hash is computed once at intern time.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.logic import intern
from repro.logic.values import Variable

_TERMS = intern.new_table()
_DEAD = intern.DEAD


class FuncTerm:
    """A functional term ``function(*args)``.

    ``args`` may contain :class:`Variable` (in dependencies) or values
    (constants / nulls / ground FuncTerms, in chase results).  Ground
    functional terms are hashable and act as labeled nulls.
    """

    __slots__ = ("function", "args", "_hash", "_dense_id", "__weakref__")

    function: str
    args: tuple

    def __new__(cls, function: str, args: tuple) -> "FuncTerm":
        if not isinstance(args, tuple):
            args = tuple(args)
        key = (function, args)
        existing = _TERMS.get(key, _DEAD)()
        if existing is not None:
            intern.note_hit()
            return existing
        candidate = object.__new__(cls)
        object.__setattr__(candidate, "function", function)
        object.__setattr__(candidate, "args", args)
        object.__setattr__(candidate, "_hash", hash(key))
        object.__setattr__(candidate, "_dense_id", intern.next_dense_id("FuncTerm"))
        return intern.intern_into(_TERMS, key, candidate)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("FuncTerm is immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError("FuncTerm is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (FuncTerm, (self.function, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def dense_id(self) -> int:
        """The per-kind dense intern id (see :func:`repro.logic.intern.next_dense_id`)."""
        return self._dense_id

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.function}({inner})"


Term = Any  # Variable | Constant | Null | FuncTerm


def is_ground(term: Term) -> bool:
    """Return True if *term* contains no variables."""
    if isinstance(term, Variable):
        return False
    if isinstance(term, FuncTerm):
        return all(is_ground(arg) for arg in term.args)
    return True


def is_nested(term: Term) -> bool:
    """Return True if *term* is a functional term with a functional argument."""
    return isinstance(term, FuncTerm) and any(isinstance(a, FuncTerm) for a in term.args)


def term_variables(term: Term) -> Iterator[Variable]:
    """Yield the variables of *term* in left-to-right order (with repetition)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, FuncTerm):
        for arg in term.args:
            yield from term_variables(arg)


def term_functions(term: Term) -> Iterator[str]:
    """Yield the function symbols of *term* in outside-in order (with repetition)."""
    if isinstance(term, FuncTerm):
        yield term.function
        for arg in term.args:
            yield from term_functions(arg)


def substitute_term(term: Term, assignment: dict) -> Term:
    """Replace variables in *term* according to *assignment* (a Variable -> value map).

    Variables missing from the assignment are left in place, so the result of a
    partial substitution is again a term.
    """
    if isinstance(term, Variable):
        return assignment.get(term, term)
    if isinstance(term, FuncTerm):
        return FuncTerm(term.function, tuple(substitute_term(a, assignment) for a in term.args))
    return term


def rename_term_functions(term: Term, renaming: dict) -> Term:
    """Rename function symbols in *term* according to *renaming* (str -> str map)."""
    if isinstance(term, FuncTerm):
        new_args = tuple(rename_term_functions(a, renaming) for a in term.args)
        return FuncTerm(renaming.get(term.function, term.function), new_args)
    return term


__all__ = [
    "FuncTerm",
    "Term",
    "is_ground",
    "is_nested",
    "term_variables",
    "term_functions",
    "substitute_term",
    "rename_term_functions",
]
