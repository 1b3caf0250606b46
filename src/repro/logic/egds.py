"""Equality-generating dependencies (egds) and key dependencies.

An egd is a first-order sentence ``forall x ( phi(x) -> x_i = x_j )`` where
``phi`` is a conjunction of atoms over a single schema and ``x_i, x_j`` occur
in ``phi``.  Section 5 of the paper studies schema mappings whose *source*
schema carries egds (in particular key dependencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import DependencyError
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.values import Variable


@dataclass(frozen=True)
class Egd:
    """An egd ``body -> left = right`` with ``left``/``right`` body variables."""

    body: tuple[Atom, ...]
    left: Variable
    right: Variable
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise DependencyError("an egd needs at least one body atom")
        for atom in self.body:
            for arg in atom.args:
                if not isinstance(arg, Variable):
                    raise DependencyError(
                        f"egd body atom {atom!r} has non-variable argument {arg!r}"
                    )
        body_vars = atoms_variables(self.body)
        for var in (self.left, self.right):
            if var not in body_vars:
                raise DependencyError(
                    f"egd equality variable {var!r} does not occur in the body"
                )

    def __repr__(self) -> str:
        from repro.logic.printer import format_egd, rendered

        return rendered(self, format_egd)


def key_dependency(relation: str, arity: int, key_positions: Iterable[int]) -> list[Egd]:
    """Build the egds expressing that *key_positions* form a key of *relation*.

    One egd per non-key position: two tuples agreeing on the key positions
    must agree everywhere.

        >>> egds = key_dependency("S", 2, [1])
        >>> len(egds)  # position 0 is determined by position 1
        1
    """
    key_positions = sorted(set(key_positions))
    for pos in key_positions:
        if not 0 <= pos < arity:
            raise DependencyError(f"key position {pos} out of range for arity {arity}")
    xs = tuple(Variable(f"x{i}") for i in range(arity))
    ys = tuple(
        xs[i] if i in key_positions else Variable(f"y{i}") for i in range(arity)
    )
    atom_x = Atom(relation, xs)
    atom_y = Atom(relation, ys)
    egds: list[Egd] = []
    for i in range(arity):
        if i in key_positions:
            continue
        egds.append(
            Egd(
                body=(atom_x, atom_y),
                left=xs[i],
                right=ys[i],
                name=f"key_{relation}_{i}",
            )
        )
    return egds


class KeyDependency:
    """A key constraint on a relation, materialized as a set of egds.

    The paper's Theorem 5.1 uses a single source key dependency stating that
    "each element has a unique predecessor" in the successor relation ``S``;
    that is ``KeyDependency("S", 2, key=[1])``.
    """

    def __init__(self, relation: str, arity: int, key: Iterable[int]):
        self.relation = relation
        self.arity = arity
        self.key = tuple(sorted(set(key)))
        self.egds = tuple(key_dependency(relation, arity, self.key))

    def __iter__(self):
        return iter(self.egds)

    def __repr__(self) -> str:
        return f"KeyDependency({self.relation}/{self.arity}, key={list(self.key)})"


__all__ = ["Egd", "KeyDependency", "key_dependency"]
