"""Second-order tuple-generating dependencies (SO tgds) and plain SO tgds.

An SO tgd (Section 2 of the paper) has the form

    exists f ( (forall x1 (phi_1 -> psi_1)) & ... & (forall xn (phi_n -> psi_n)) )

where each ``phi_i`` is a conjunction of source atoms over variables plus
equalities between terms, and each ``psi_i`` is a conjunction of target atoms
whose arguments are terms over the variables and the function symbols ``f``.

A *plain* SO tgd contains no nested terms (no functional term with a
functional argument) and no equalities.  Every Skolemized nested tgd is a
plain SO tgd; every plain SO tgd is an SO tgd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import DependencyError
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.schema import Schema, infer_schema
from repro.logic.terms import (
    FuncTerm,
    is_nested,
    term_functions,
    term_variables,
)
from repro.logic.values import Variable


@dataclass(frozen=True)
class SOClause:
    """One implication ``forall x (body & equalities -> head)`` of an SO tgd.

    ``body`` atoms are source atoms over variables only.  ``equalities`` is a
    tuple of ``(term, term)`` pairs.  ``head`` atoms are target atoms whose
    arguments are terms (variables or functional terms).
    """

    body: tuple[Atom, ...]
    equalities: tuple[tuple, ...]
    head: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "equalities", tuple(tuple(e) for e in self.equalities))
        object.__setattr__(self, "head", tuple(self.head))
        if not self.body:
            raise DependencyError("an SO tgd clause needs at least one body atom")
        for atom in self.body:
            for arg in atom.args:
                if not isinstance(arg, Variable):
                    raise DependencyError(
                        f"body atom {atom!r} must have variable arguments, got {arg!r}"
                    )
        universal = atoms_variables(self.body)
        for atom in self.head:
            for var in atom.variables():
                if var not in universal:
                    raise DependencyError(
                        f"head atom {atom!r} uses variable {var!r} not occurring in the body"
                    )
        for left, right in self.equalities:
            for term in (left, right):
                for var in term_variables(term):
                    if var not in universal:
                        raise DependencyError(
                            f"equality term {term!r} uses variable {var!r} "
                            "not occurring in the body"
                        )

    def __getstate__(self) -> dict:
        # The chase keeps a compiled head emitter on the clause
        # (repro.engine.chase.clause_emitter): derived, unpicklable, and
        # rebuilt on first use, so only the fields are pickled.
        return {"body": self.body, "equalities": self.equalities, "head": self.head}

    @property
    def universal_variables(self) -> tuple[Variable, ...]:
        """The clause's variables, in order of first body occurrence."""
        seen: dict[Variable, None] = {}
        for atom in self.body:
            for var in atom.variables():
                seen.setdefault(var, None)
        return tuple(seen)

    def terms(self) -> Iterator:
        """Yield every term occurring in the head or an equality."""
        for atom in self.head:
            yield from atom.args
        for left, right in self.equalities:
            yield left
            yield right

    def function_symbols(self) -> frozenset[str]:
        """The function symbols used in this clause."""
        result: set[str] = set()
        for term in self.terms():
            result.update(term_functions(term))
        return frozenset(result)

    def has_nested_terms(self) -> bool:
        """True if some head/equality term is a functional term with functional argument."""
        return any(is_nested(t) for t in self.terms())


class SOTgd:
    """A second-order tgd: existential function symbols plus a set of clauses.

        >>> from repro.logic.parser import parse_so_tgd
        >>> s = parse_so_tgd("S(x, y) -> R(f(x), f(y))")
        >>> s.is_plain()
        True
    """

    def __init__(
        self,
        functions: Iterable[str],
        clauses: Iterable[SOClause],
        name: str | None = None,
    ):
        self.name = name
        self._functions = tuple(functions)
        self._clauses = tuple(clauses)
        if not self._clauses:
            raise DependencyError("an SO tgd needs at least one clause")
        declared = set(self._functions)
        used: set[str] = set()
        arities: dict[str, int] = {}
        for clause in self._clauses:
            used |= clause.function_symbols()
            for term in clause.terms():
                self._collect_arities(term, arities)
        undeclared = used - declared
        if undeclared:
            raise DependencyError(f"function symbols used but not quantified: {undeclared}")
        self._arities = arities
        body_rels = {a.relation for c in self._clauses for a in c.body}
        head_rels = {a.relation for c in self._clauses for a in c.head}
        if body_rels & head_rels:
            raise DependencyError(
                f"source and target schemas must be disjoint; shared: {body_rels & head_rels}"
            )

    @staticmethod
    def _collect_arities(term, arities: dict[str, int]) -> None:
        if isinstance(term, FuncTerm):
            existing = arities.get(term.function)
            if existing is not None and existing != term.arity:
                raise DependencyError(
                    f"function {term.function!r} used with arities {existing} and {term.arity}"
                )
            arities[term.function] = term.arity
            for arg in term.args:
                SOTgd._collect_arities(arg, arities)

    # ---------------------------------------------------------------- structure

    @property
    def functions(self) -> tuple[str, ...]:
        return self._functions

    @property
    def clauses(self) -> tuple[SOClause, ...]:
        return self._clauses

    def function_arity(self, name: str) -> int:
        """The arity of the existentially quantified function *name*."""
        return self._arities[name]

    def is_plain(self) -> bool:
        """True if the SO tgd has no equalities and no nested terms (Section 2)."""
        return all(
            not clause.equalities and not clause.has_nested_terms() for clause in self._clauses
        )

    def max_universal_variables(self) -> int:
        """The maximum number of universal variables in any clause."""
        return max(len(c.universal_variables) for c in self._clauses)

    def source_schema(self) -> Schema:
        """The schema inferred from all clause bodies."""
        return infer_schema(a for c in self._clauses for a in c.body)

    def target_schema(self) -> Schema:
        """The schema inferred from all clause heads."""
        return infer_schema(a for c in self._clauses for a in c.head)

    # ----------------------------------------------------------------- dunders

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SOTgd):
            return NotImplemented
        return self._functions == other._functions and self._clauses == other._clauses

    def __hash__(self) -> int:
        return hash((self._functions, self._clauses))

    def __repr__(self) -> str:
        from repro.logic.printer import format_so_tgd, rendered

        return rendered(self, format_so_tgd)


__all__ = ["SOClause", "SOTgd"]
