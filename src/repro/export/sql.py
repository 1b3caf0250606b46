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

The join, quoting and concatenation helpers and the errors
(:class:`~repro.engine.sql_backend.SQLCompileError`) are the SQL backend's;
the export only writes raw table names and untagged Skolem text, and
accepts s-t and nested tgds only.

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

from repro.engine.sql_backend import (
    SQLCompileError,
    _body_join,
    _check_identifier,
    _length_prefixed,
)
from repro.errors import DependencyError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.schema import Schema
from repro.logic.sotgd import SOClause
from repro.logic.terms import FuncTerm
from repro.logic.tgds import STTgd
from repro.logic.values import Constant, Null, Variable


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


def _insert_statements(clause: SOClause) -> list[str]:
    """One ``INSERT ... SELECT`` per head atom of *clause*, over the raw tables."""
    tables, variable_columns, conditions = _body_join(clause.body)

    def expression(term) -> str:
        if isinstance(term, Variable):
            try:
                return variable_columns[term]
            except KeyError:
                raise SQLCompileError(f"head variable {term!r} unbound in the body")
        if isinstance(term, FuncTerm):
            return _length_prefixed(
                f"{term.function}(", [expression(arg) for arg in term.args]
            )
        raise SQLCompileError(f"cannot compile head term {term!r}")

    from_clause = ", ".join(f"{relation} AS {alias}" for relation, alias in tables)
    where = (" WHERE " + " AND ".join(conditions)) if conditions else ""
    statements = []
    for atom in clause.head:
        _check_identifier(atom.relation)
        select_list = ", ".join(expression(arg) for arg in atom.args)
        statements.append(
            f"INSERT INTO {atom.relation} "
            f"SELECT DISTINCT {select_list} FROM {from_clause}{where}"
        )
    return statements


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
            raise SQLCompileError(f"expected an s-t tgd or nested tgd, got {dep!r}")
    return [
        statement
        for clause in compile_clause_program(dependencies)
        for statement in _insert_statements(clause)
    ]


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
