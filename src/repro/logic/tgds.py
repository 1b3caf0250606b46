"""Source-to-target tuple-generating dependencies (s-t tgds / GLAV constraints).

An s-t tgd is a first-order sentence of the form

    forall x ( phi(x) -> exists y psi(x, y) )

where ``phi`` is a conjunction of atoms over the source schema, each variable
of ``x`` occurs in at least one atom of ``phi``, and ``psi`` is a conjunction
of atoms over the target schema with variables among ``x`` and ``y``
(Section 2 of the paper).  Following the paper, dependencies contain no
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import DependencyError
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.schema import Schema
from repro.logic.terms import FuncTerm
from repro.logic.values import Variable


def _ordered_variables(atoms: Iterable[Atom]) -> tuple[Variable, ...]:
    """Return the variables of *atoms* in order of first occurrence."""
    seen: dict[Variable, None] = {}
    for atom in atoms:
        for var in atom.variables():
            seen.setdefault(var, None)
    return tuple(seen)


def _check_variables_only(atoms: Iterable[Atom], where: str) -> None:
    for atom in atoms:
        for arg in atom.args:
            if not isinstance(arg, Variable):
                raise DependencyError(
                    f"{where} atom {atom!r} contains non-variable argument {arg!r}; "
                    "dependencies in this library are constant-free (as in the paper)"
                )


@dataclass(frozen=True)
class STTgd:
    """An s-t tgd given by its body (source) and head (target) conjunctions.

    The universally quantified variables are exactly the variables of the
    body; head variables not occurring in the body are existentially
    quantified.

        >>> from repro.logic.parser import parse_tgd
        >>> t = parse_tgd("S(x, y) -> R(x, z)")
        >>> t.existential_variables
        (?z,)
    """

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "head", tuple(self.head))
        if not self.body:
            raise DependencyError("an s-t tgd needs at least one body atom")
        if not self.head:
            raise DependencyError("an s-t tgd needs at least one head atom")
        _check_variables_only(self.body, "body")
        _check_variables_only(self.head, "head")

    # ------------------------------------------------------------------ structure

    @property
    def universal_variables(self) -> tuple[Variable, ...]:
        """The universally quantified variables, in order of first body occurrence."""
        return _ordered_variables(self.body)

    @property
    def existential_variables(self) -> tuple[Variable, ...]:
        """The existentially quantified variables, in order of first head occurrence."""
        universal = set(self.universal_variables)
        return tuple(v for v in _ordered_variables(self.head) if v not in universal)

    def variables(self) -> frozenset[Variable]:
        """All variables of the tgd."""
        return atoms_variables(self.body) | atoms_variables(self.head)

    def source_schema(self) -> Schema:
        """The schema inferred from the body atoms."""
        from repro.logic.schema import infer_schema

        return infer_schema(self.body)

    def target_schema(self) -> Schema:
        """The schema inferred from the head atoms."""
        from repro.logic.schema import infer_schema

        return infer_schema(self.head)

    def validate_against(self, source: Schema, target: Schema) -> None:
        """Check body atoms against *source* and head atoms against *target*."""
        for atom in self.body:
            if atom.relation not in source or source.arity(atom.relation) != atom.arity:
                raise DependencyError(f"body atom {atom!r} does not fit source schema {source!r}")
        for atom in self.head:
            if atom.relation not in target or target.arity(atom.relation) != atom.arity:
                raise DependencyError(f"head atom {atom!r} does not fit target schema {target!r}")

    # -------------------------------------------------------------- conversions

    def skolem_head(self, function_namer=None) -> tuple[Atom, ...]:
        """Return the head with each existential variable replaced by a Skolem term.

        The Skolem term for existential variable ``y`` is ``f_y(x1, ..., xn)``
        over all universally quantified variables, matching the oblivious
        chase (one fresh null per body match).  *function_namer* maps an
        existential variable to a function name; the default derives one from
        the variable name.
        """
        universal = self.universal_variables
        if function_namer is None:
            prefix = f"{self.name}_" if self.name else "f_"

            def function_namer(var: Variable) -> str:
                return f"{prefix}{var.name}"

        assignment = {
            y: FuncTerm(function_namer(y), universal) for y in self.existential_variables
        }
        return tuple(atom.substitute(assignment) for atom in self.head)

    def to_nested(self) -> "NestedTgd":
        """View this s-t tgd as a nested tgd with a single part."""
        from repro.logic.nested import NestedTgd, Part

        part = Part(
            universal_vars=self.universal_variables,
            body=self.body,
            exist_vars=self.existential_variables,
            head=self.head,
            children=(),
        )
        return NestedTgd(part, name=self.name)

    def to_so_tgd(self) -> "SOTgd":
        """Return the logically equivalent plain SO tgd (Skolemization)."""
        return self.to_nested().skolemize()

    def __repr__(self) -> str:
        from repro.logic.printer import format_tgd, rendered

        return rendered(self, format_tgd)


__all__ = ["STTgd"]
