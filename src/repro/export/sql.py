"""Compile nested GLAV mappings to SQL and execute them (Clio-style).

Every nested tgd flattens (via Skolemization, Section 2 of the paper) into
clauses ``body_atoms -> head_atom`` whose head arguments are variables or
Skolem terms; the clauses are those of
:func:`repro.engine.chase.compile_clause_program`, so the Skolem names match
``chase``'s.  Each head atom of a clause compiles to one statement::

    INSERT INTO T
    SELECT DISTINCT a0.c1,
           't0_y(' || length(a0.c0) || ':' || a0.c0 || ',' || ... || ')'
    FROM S AS a0, S AS a1
    WHERE a0.c0 = a1.c0

- body atoms become table aliases; repeated variables become join/selection
  predicates;
- Skolem terms become string-concatenation expressions with **length-prefixed
  components** (``3:a,b`` vs ``1:a``), so the generated labeled nulls are in
  bijection with the ground Skolem terms of the oblivious chase even when
  constants themselves contain ``,``/``(``/``)`` -- naive concatenation
  would collide ``f(Constant("a,b"))`` with ``f(a, b)``;
- all columns are TEXT (``c0, c1, ...``).

:func:`execute_exchange` is the *executable* counterpart: it runs the
mapping through one of the interchangeable chase backends
(:mod:`repro.engine.sql_backend` by default, which compiles the exact
clause program of :func:`repro.engine.chase.compile_clause_program` and
decodes results back through the intern tables) and returns an
:class:`Instance` whose facts equal ``chase(I, M)`` **exactly** -- same
constants, same ground-Skolem-term nulls -- verified by the test suite
against the chase engine.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.errors import DependencyError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.schema import Schema
from repro.logic.terms import FuncTerm
from repro.logic.tgds import STTgd
from repro.logic.values import Constant, Null, Variable


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_identifier(name: str) -> str:
    if not _IDENTIFIER.match(name):
        raise DependencyError(f"{name!r} is not usable as an SQL identifier")
    return name


def schema_ddl(schema: Schema) -> list[str]:
    """CREATE TABLE statements for a schema (all columns TEXT).

        >>> schema_ddl(Schema([("S", 2)]))
        ['CREATE TABLE S (c0 TEXT, c1 TEXT)']
    """
    statements = []
    for relation in schema:
        _check_identifier(relation.name)
        columns = ", ".join(f"c{i} TEXT" for i in range(relation.arity))
        statements.append(f"CREATE TABLE {relation.name} ({columns})")
    return statements


def _sql_literal(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


class _ClauseCompiler:
    """Compile one flattened clause (body atoms -> one head atom) to SQL."""

    def __init__(self, body: Sequence[Atom]):
        self.aliases: list[tuple[str, Atom]] = [
            (f"a{i}", atom) for i, atom in enumerate(body)
        ]
        self.variable_columns: dict[Variable, str] = {}
        self.conditions: list[str] = []
        for alias, atom in self.aliases:
            _check_identifier(atom.relation)
            for position, arg in enumerate(atom.args):
                column = f"{alias}.c{position}"
                if not isinstance(arg, Variable):
                    raise DependencyError(f"non-variable body argument {arg!r}")
                if arg in self.variable_columns:
                    self.conditions.append(f"{column} = {self.variable_columns[arg]}")
                else:
                    self.variable_columns[arg] = column

    def expression(self, term) -> str:
        """The SQL expression computing a head argument."""
        if isinstance(term, Variable):
            try:
                return self.variable_columns[term]
            except KeyError:
                raise DependencyError(f"head variable {term!r} unbound in the body")
        if isinstance(term, FuncTerm):
            # Length-prefix every component: a constant containing `,`/`(`/`)`
            # can no longer produce the same label as a different trigger
            # (the prefixes make the rendering injective).
            pieces = [_sql_literal(f"{term.function}(")]
            for index, arg in enumerate(term.args):
                if index:
                    pieces.append(_sql_literal(","))
                inner = self.expression(arg)
                pieces.append(f"length({inner}) || ':' || {inner}")
            pieces.append(_sql_literal(")"))
            return " || ".join(pieces)
        raise DependencyError(f"cannot compile head term {term!r}")

    def insert_statement(self, head_atom: Atom) -> str:
        _check_identifier(head_atom.relation)
        select_list = ", ".join(self.expression(arg) for arg in head_atom.args)
        from_clause = ", ".join(f"{atom.relation} AS {alias}" for alias, atom in self.aliases)
        statement = (
            f"INSERT INTO {head_atom.relation} "
            f"SELECT DISTINCT {select_list} FROM {from_clause}"
        )
        if self.conditions:
            statement += " WHERE " + " AND ".join(self.conditions)
        return statement


def compile_mapping_to_sql(dependencies) -> list[str]:
    """Compile a nested GLAV mapping to a list of INSERT ... SELECT statements.

    The statements run :func:`repro.engine.chase.compile_clause_program`, so
    over tables holding a source instance they produce exactly
    ``render_instance_values(chase(source, dependencies))``, Skolem labels
    included.

        >>> from repro.logic.parser import parse_tgd
        >>> compile_mapping_to_sql([parse_tgd("S(x,y) -> R(y,x)")])
        ['INSERT INTO R SELECT DISTINCT a0.c1, a0.c0 FROM S AS a0']
    """
    from repro.engine.chase import compile_clause_program

    dependencies = list(dependencies)
    for dep in dependencies:
        if not isinstance(dep, (STTgd, NestedTgd)):
            raise DependencyError(f"expected an s-t tgd or nested tgd, got {dep!r}")
    statements: list[str] = []
    for clause in compile_clause_program(dependencies):
        compiler = _ClauseCompiler(clause.body)
        for head_atom in clause.head:
            statements.append(compiler.insert_statement(head_atom))
    return statements


def _render_value(value) -> str:
    """Render an instance value exactly as the SQL expressions build it."""
    if isinstance(value, Constant):
        return str(value.name)
    if isinstance(value, FuncTerm):
        inner = ",".join(
            f"{len(rendered)}:{rendered}"
            for rendered in (_render_value(arg) for arg in value.args)
        )
        return f"{value.function}({inner})"
    if isinstance(value, Null):
        return f"_{value.name}"
    raise DependencyError(f"cannot render value {value!r}")


def render_instance_values(instance: Instance) -> Instance:
    """Rewrite an instance's values into the SQL textual rendering.

    Ground Skolem-term nulls become :class:`Null` values labeled with the
    rendered text, so a chase result becomes directly comparable with the
    output of :func:`compile_mapping_to_sql` statements.
    """
    def convert(value):
        if isinstance(value, Constant):
            return value
        return Null(_render_value(value))

    return Instance(
        Atom(fact.relation, tuple(convert(arg) for arg in fact.args))
        for fact in instance
    )


def execute_exchange(source: Instance, dependencies, *, backend: str = "sql") -> Instance:
    """Execute the data exchange and return the produced target instance.

    The result equals ``chase(source, dependencies)`` **exactly** -- the
    same constants and the same ground-Skolem-term nulls -- whichever
    backend runs it:

    - ``"sql"`` (default): the clause program of
      :func:`repro.engine.chase.compile_clause_program` compiled to SQLite
      ``INSERT ... SELECT`` statements, values crossing the boundary through
      the injective tagged encoding of
      :mod:`repro.engine.sql_backend` and re-interned on the way out;
    - ``"columnar"``: the integer-array engine of
      :mod:`repro.engine.columnar`;
    - ``"tuple"``: the reference :func:`repro.engine.chase.chase`;
    - ``"auto"``: :func:`repro.engine.dispatch.choose_backend` picks by
      source size.
    """
    from repro.engine.chase import chase, compile_clause_program
    from repro.engine.dispatch import choose_backend

    clauses = compile_clause_program(dependencies)
    choice = choose_backend(backend, input_size=len(source), clauses=clauses)
    if choice.backend == "sql":
        from repro.engine.sql_backend import (
            check_sql_backend_supported,
            sql_execute_exchange,
        )

        check_sql_backend_supported(clauses, what="exchange")
        return sql_execute_exchange(source, clauses)
    if choice.backend == "columnar":
        from repro.engine.columnar import columnar_execute_exchange

        return columnar_execute_exchange(source, clauses)
    return chase(source, dependencies)


__all__ = [
    "schema_ddl",
    "compile_mapping_to_sql",
    "render_instance_values",
    "execute_exchange",
]
