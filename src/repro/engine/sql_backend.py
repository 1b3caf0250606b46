"""SQL-pushdown execution on SQLite: single-pass exchanges and cores.

"Laconic schema mappings" (PAPERS.md) shows that (core) universal solutions
for the mapping classes this library certifies are computable by plain SQL
queries.  This module turns that observation into an execution backend: a
Skolemized clause program (the same :class:`~repro.logic.sotgd.SOClause`
form every chase engine consumes) compiles to ``INSERT ... SELECT``
statements over one TEXT table per relation, and the database -- not a
Python loop -- performs the joins.

:func:`sql_execute_exchange` runs a single-pass (source-to-target) clause
program: it evaluates every clause over the ``src_``-prefixed source
tables, inserts into the ``tgt_``-prefixed target tables, and decodes.  It
matches :func:`repro.engine.chase.chase` fact for fact when given
:func:`~repro.engine.chase.compile_clause_program`'s output.  The SQL
export (:mod:`repro.export.sql`) renders through this module's clause
helpers and raises its :class:`SQLCompileError`.

Values cross the SQL boundary through an **injective textual encoding**
(:func:`encode_value` / :func:`decode_value`): constants are tagged ``c``,
labeled nulls ``n``, and ground Skolem terms ``f`` with *length-prefixed*
components, so constants whose names contain ``,``/``(``/``)`` can never
collide with (or inside) a generated Skolem label -- the collision the
naive string concatenation of early ``export/sql.py`` versions allowed.
Because the encoding is injective and parseable, results decode back into
the hash-consed value objects of :mod:`repro.logic`, and the SQL backend
returns *exactly* the fact set the tuple engines produce (not merely an
isomorphic copy).

:func:`sql_core` pushes *core computation* down (following the "Laconic
schema mappings" observation that cores of the certified mapping classes
are SQL-computable): each candidate elimination of the core worklist --
"does the f-block of null ``x`` map into the instance minus the facts
containing ``x``?" -- compiles to one SELECT join (:class:`_BlockQuery`)
and eliminations apply as exact-row DELETEs.

Perf counters: ``backend.sql.statements`` (statements executed),
``backend.sql.encoded_rows`` / ``backend.sql.decoded_rows`` (rows crossing
the boundary in each direction); the core pushdown records the shared
``core.blocks`` / ``core.eliminations`` / ``core.rigid_blocks`` counters
and ``core.sql.queries`` (eliminating-hom SELECTs).
"""

from __future__ import annotations

import re
import sqlite3
from collections import deque
from typing import Iterable, Sequence

from repro import perf
from repro.errors import ChaseError, DependencyError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.sotgd import SOClause
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant, Null, Variable, is_null

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class SQLCompileError(DependencyError):
    """A clause program (or instance) cannot be compiled to the SQL backend."""


def _check_identifier(name: str) -> str:
    if not _IDENTIFIER.match(name):
        raise SQLCompileError(f"{name!r} is not usable as an SQL identifier")
    return name


def _sql_literal(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


# ------------------------------------------------------------ value encoding


def encode_value(value: object) -> str:
    """Injectively encode an instance value as TEXT for the SQL backend.

    Constants are tagged ``c``, labeled nulls ``n``; ground Skolem terms are
    tagged ``f`` and carry each component *length-prefixed* (``len:text``),
    so adversarial constant names containing ``,``/``(``/``)``/digits cannot
    forge or collide with a Skolem label.

        >>> encode_value(Constant("a"))
        'ca'
        >>> encode_value(FuncTerm("f_y", (Constant("a,b"), Constant("c"))))
        'ff_y(4:ca,b,2:cc)'
    """
    if isinstance(value, Constant):
        return "c" + str(value.name)
    if isinstance(value, Null):
        return "n" + str(value.name)
    if isinstance(value, FuncTerm):
        pieces = ["f", value.function, "("]
        for index, arg in enumerate(value.args):
            if index:
                pieces.append(",")
            encoded = encode_value(arg)
            pieces.append(f"{len(encoded)}:{encoded}")
        pieces.append(")")
        return "".join(pieces)
    raise SQLCompileError(f"cannot encode value {value!r}")


def decode_value(text: str) -> object:
    """Invert :func:`encode_value`, re-interning through the logic layer.

        >>> decode_value('ff_y(4:ca,b,2:cc)')
        f_y(a,b, c)
    """
    value, end = _decode_at(text, 0, len(text))
    if end != len(text):
        raise DependencyError(f"trailing data in encoded value {text!r}")
    return value


def _decode_at(text: str, start: int, end: int) -> tuple[object, int]:
    tag = text[start]
    if tag == "c":
        return Constant(text[start + 1:end]), end
    if tag == "n":
        return Null(text[start + 1:end]), end
    if tag != "f":
        raise DependencyError(f"bad value tag {tag!r} in {text!r}")
    open_paren = text.index("(", start)
    function = text[start + 1:open_paren]
    args: list[object] = []
    pos = open_paren + 1
    while text[pos] != ")":
        colon = text.index(":", pos)
        length = int(text[pos:colon])
        arg, arg_end = _decode_at(text, colon + 1, colon + 1 + length)
        if arg_end != colon + 1 + length:
            raise DependencyError(f"bad component length in {text!r}")
        args.append(arg)
        pos = arg_end
        if text[pos] == ",":
            pos += 1
    return FuncTerm(function, tuple(args)), pos + 1


# ----------------------------------------------------------- clause compiler


def _body_join(
    body: Sequence[Atom],
) -> tuple[list[tuple[str, str]], dict[Variable, str], list[str]]:
    """Join a clause body: ``(tables, variable_columns, conditions)``.

    Each atom gets a ``(relation, alias a{i})`` table, each variable the
    column of its first occurrence, and each later occurrence an equality.
    """
    tables: list[tuple[str, str]] = []
    variable_columns: dict[Variable, str] = {}
    conditions: list[str] = []
    for index, atom in enumerate(body):
        alias = f"a{index}"
        tables.append((_check_identifier(atom.relation), alias))
        for position, arg in enumerate(atom.args):
            column = f"{alias}.c{position}"
            if not isinstance(arg, Variable):
                raise SQLCompileError(f"non-variable body argument {arg!r}")
            if arg in variable_columns:
                conditions.append(f"{column} = {variable_columns[arg]}")
            else:
                variable_columns[arg] = column
    return tables, variable_columns, conditions


def _length_prefixed(opening: str, arguments: Sequence[str]) -> str:
    """``'<opening>' || length(a) || ':' || a || ',' || ... || ')'``: injective,
    so a constant containing ``,``/``(``/``)`` cannot forge another label."""
    pieces = [_sql_literal(opening)]
    for index, inner in enumerate(arguments):
        if index:
            pieces.append(_sql_literal(","))
        pieces.append(f"length({inner}) || ':' || {inner}")
    pieces.append(_sql_literal(")"))
    return " || ".join(pieces)


class _CompiledClause:
    """One Skolemized clause, compiled to ``INSERT ... SELECT`` statements."""

    def __init__(self, clause: SOClause):
        self.tables, self.variable_columns, self.conditions = _body_join(clause.body)
        for left, right in clause.equalities:
            self.conditions.append(f"{self.expression(left)} = {self.expression(right)}")
        self.heads: list[tuple[str, str]] = []
        for atom in clause.head:
            _check_identifier(atom.relation)
            select_list = ", ".join(self.expression(arg) for arg in atom.args)
            self.heads.append((atom.relation, select_list))

    def expression(self, term: object) -> str:
        """The SQL expression computing the encoded text of *term*."""
        if isinstance(term, Variable):
            try:
                return self.variable_columns[term]
            except KeyError:
                raise SQLCompileError(f"head variable {term!r} unbound in the body")
        if isinstance(term, (Constant, Null)):
            return _sql_literal(encode_value(term))
        if isinstance(term, FuncTerm):
            # Mirror encode_value: 'f<name>(' || len:arg || ',' || ... || ')'
            return _length_prefixed(
                f"f{term.function}(", [self.expression(arg) for arg in term.args]
            )
        raise SQLCompileError(f"cannot compile head term {term!r}")

    def insert_statements(self) -> list[str]:
        """One statement per head atom: ``src_`` body tables into ``tgt_`` tables."""
        from_clause = ", ".join(
            f'"src_{relation}" AS {alias}' for relation, alias in self.tables
        )
        where = (" WHERE " + " AND ".join(self.conditions)) if self.conditions else ""
        return [
            f'INSERT INTO "tgt_{relation}" '
            f"SELECT DISTINCT {select_list} FROM {from_clause}{where}"
            for relation, select_list in self.heads
        ]


def compile_clauses(clauses: Iterable[SOClause]) -> list[_CompiledClause]:
    """Compile a clause program; raises :class:`SQLCompileError` if unsupported."""
    return [_CompiledClause(clause) for clause in clauses]


def sql_compilable(clauses: Iterable[SOClause]) -> bool:
    """Can this clause program run on the SQL backend?  (Used by ``auto``.)"""
    try:
        compile_clauses(clauses)
    except DependencyError:
        return False
    return True


# ------------------------------------------------------------ schema loading


def _collect_arities(
    facts: Iterable[Atom], clauses: Sequence[SOClause]
) -> dict[str, int]:
    """One table per relation: every occurrence must agree on the arity."""
    arities: dict[str, int] = {}

    def note(relation: str, arity: int) -> None:
        if arity == 0:
            raise SQLCompileError(f"relation {relation} has arity 0 (no columns)")
        known = arities.setdefault(relation, arity)
        if known != arity:
            raise SQLCompileError(
                f"relation {relation} used with arities {known} and {arity}: "
                "the SQL backend needs one fixed-width table per relation"
            )

    for fact in facts:
        note(_check_identifier(fact.relation), fact.arity)
    for clause in clauses:
        for atom in clause.body:
            note(_check_identifier(atom.relation), atom.arity)
        for atom in clause.head:
            note(_check_identifier(atom.relation), atom.arity)
    return arities


class _Session:
    """An in-memory SQLite connection plus statement/row accounting.

    The counts are flushed to :mod:`repro.perf` on :meth:`close`.
    """

    def __init__(self) -> None:
        self.connection = sqlite3.connect(":memory:")
        self.cursor = self.connection.cursor()
        self.statements = 0
        self.encoded_rows = 0
        self.decoded_rows = 0
        # Decoded-text memo: column values repeat across rows (every node of
        # a graph appears in many facts), so decoding each distinct text once
        # cuts the read-back cost well below the parse cost per cell.
        self._decoded: dict[str, object] = {}

    def execute(self, statement: str, parameters: Sequence = ()) -> sqlite3.Cursor:
        self.statements += 1
        return self.cursor.execute(statement, parameters)

    def executemany(self, statement: str, rows: list) -> None:
        self.statements += 1
        self.encoded_rows += len(rows)
        self.cursor.executemany(statement, rows)

    def create_table(self, name: str, arity: int) -> None:
        columns = ", ".join(f"c{i} TEXT" for i in range(max(arity, 1)))
        self.execute(f'CREATE TABLE "{name}" ({columns})')

    def create_indexes(self, name: str, arity: int) -> None:
        for i in range(arity):
            self.execute(f'CREATE INDEX "idx_{name}_{i}" ON "{name}"(c{i})')

    def load_facts(self, table: str, arity: int, facts: Iterable[Atom]) -> None:
        rows = [tuple(encode_value(arg) for arg in fact.args) for fact in facts]
        if rows:
            placeholders = ", ".join("?" for _ in range(arity))
            self.executemany(f'INSERT INTO "{table}" VALUES ({placeholders})', rows)

    def read_facts(self, table: str, relation: str) -> list[Atom]:
        self.execute(f'SELECT DISTINCT * FROM "{table}"')
        facts = []
        memo = self._decoded
        for row in self.cursor.fetchall():
            self.decoded_rows += 1
            args = []
            for text in row:
                value = memo.get(text)
                if value is None:
                    value = memo[text] = decode_value(text)
                args.append(value)
            facts.append(Atom(relation, tuple(args)))
        return facts

    def close(self) -> None:
        perf.incr("backend.sql.statements", self.statements)
        if self.encoded_rows:
            perf.incr("backend.sql.encoded_rows", self.encoded_rows)
        if self.decoded_rows:
            perf.incr("backend.sql.decoded_rows", self.decoded_rows)
        self.connection.close()


# ------------------------------------------------------- single-pass exchange


def sql_execute_exchange(source: Instance, clauses: Sequence[SOClause]) -> Instance:
    """Run a single-pass (source-to-target) clause program on SQLite.

    Source relations load into ``src_``-prefixed tables and head facts land
    in ``tgt_``-prefixed tables, so a relation appearing on both sides (legal
    for s-t tgds over overlapping schemas) is matched strictly against the
    *source* state -- the single-pass semantics of
    :func:`repro.engine.chase.chase`, which this function replays exactly.
    """
    compiled = compile_clauses(clauses)
    arities = _collect_arities(source, clauses)
    source_relations = set(source.relations())
    for clause in clauses:
        source_relations.update(atom.relation for atom in clause.body)
    target_relations = {
        relation for clause in compiled for relation, _ in clause.heads
    }
    session = _Session()
    try:
        for relation in sorted(source_relations):
            session.create_table(f"src_{relation}", arities[relation])
        for relation in sorted(target_relations):
            session.create_table(f"tgt_{relation}", arities[relation])
        for relation in sorted(source_relations):
            session.load_facts(
                f"src_{relation}", arities[relation], source.facts_of(relation)
            )
            session.create_indexes(f"src_{relation}", arities[relation])
        for clause in compiled:
            for statement in clause.insert_statements():
                session.execute(statement)
        facts: list[Atom] = []
        for relation in sorted(target_relations):
            facts.extend(session.read_facts(f"tgt_{relation}", relation))
        return Instance(facts)
    finally:
        session.close()


# ------------------------------------------------------------- core pushdown


#: SQLite joins at most 64 tables, and :class:`_BlockQuery` joins one table
#: alias per block fact, so larger f-blocks cannot be pushed down.
SQL_CORE_MAX_BLOCK = 64


def sql_core_supported(
    instance: Instance, blocks: Sequence[Sequence[Atom]] | None = None
) -> bool:
    """Can *instance* load into a SQL core session?  (Used by ``auto``.)

    Requires SQL-safe relation names and one fixed arity (>= 1) per
    relation -- the same table-shape rules as the chase pushdown -- and no
    f-block of more than :data:`SQL_CORE_MAX_BLOCK` facts.  *blocks* are
    the instance's null f-blocks when the caller already has them (pass the
    same list on to :func:`sql_core`).
    """
    try:
        _collect_arities(instance, ())
    except DependencyError:
        return False
    if blocks is None:
        from repro.engine.core_instance import _null_blocks

        blocks = _null_blocks(instance)
    return all(len(block) <= SQL_CORE_MAX_BLOCK for block in blocks)


class _BlockQuery:
    """One f-block compiled to per-null eliminating-homomorphism SELECTs.

    The block's facts become one table alias each (``a{i}``); a null's first
    occurrence defines its join column, repeats add equalities, and ground
    arguments pin columns with ``= ?`` parameters.  Eliminating null ``x``
    means the image avoids every fact containing ``x``, which compiles to
    ``a{i}.c{p} <> ?`` (the encoding of ``x``) for *every* alias position --
    the SQL rendering of the tuple engine's ``forbidden`` fact set.  The
    SELECT list is the distinct null columns (repr-sorted, ``ORDER BY`` +
    ``LIMIT 1`` so runs are reproducible), and a returned row decodes
    directly into the ``null -> value`` mapping.
    """

    def __init__(self, block: Sequence[Atom], nulls: Sequence[object]):
        self.nulls = list(nulls)
        column_of: dict[object, str] = {}
        conditions: list[str] = []
        parameters: list[str] = []
        tables: list[str] = []
        for index, fact in enumerate(block):
            alias = f"a{index}"
            tables.append(f'"{fact.relation}" AS {alias}')
            for position, arg in enumerate(fact.args):
                column = f"{alias}.c{position}"
                if is_null(arg):
                    known = column_of.get(arg)
                    if known is None:
                        column_of[arg] = column
                    else:
                        conditions.append(f"{column} = {known}")
                else:
                    conditions.append(f"{column} = ?")
                    parameters.append(encode_value(arg))
        self.base_conditions = conditions
        self.base_parameters = parameters
        self.from_clause = ", ".join(tables)
        self.columns = [column_of[null] for null in self.nulls]
        #: Every (alias, position) -- the exclusion conditions range over all.
        self.all_columns = [
            f"a{index}.c{position}"
            for index, fact in enumerate(block)
            for position in range(fact.arity)
        ]

    def eliminating(self, null: object) -> tuple[str, list[str]]:
        """The (statement, parameters) eliminating *null*, LIMIT 1."""
        encoded = encode_value(null)
        conditions = list(self.base_conditions)
        parameters = list(self.base_parameters)
        for column in self.all_columns:
            conditions.append(f"{column} <> ?")
            parameters.append(encoded)
        select_list = ", ".join(self.columns)
        where = (" WHERE " + " AND ".join(conditions)) if conditions else ""
        order = f" ORDER BY {select_list}" if self.columns else ""
        return (
            f"SELECT {select_list} FROM {self.from_clause}{where}{order} LIMIT 1",
            parameters,
        )


def sql_core(
    instance: Instance,
    *,
    blocks: Sequence[Sequence[Atom]] | None = None,
) -> Instance:
    """Compute the core of *instance* with block eliminations pushed to SQL.

    Same worklist as :func:`repro.engine.core_instance.core` -- split into
    f-blocks, repeatedly retract a block along an eliminating homomorphism,
    re-enqueue the surviving components -- but each candidate elimination is
    one SELECT join evaluated by the database over the live tables, and an
    elimination is applied as exact-row DELETEs.  *blocks* are the
    instance's null f-blocks when the caller already computed them (as
    :func:`repro.engine.core_instance.core` does for
    :func:`sql_core_supported`).  Candidate nulls are tried in repr order
    and the SELECTs are ordered, so runs are reproducible.
    """
    from repro.engine.builder import InstanceBuilder
    from repro.engine.core_instance import _block_nulls, _null_blocks, _null_components

    arities = _collect_arities(instance, ())
    builder = InstanceBuilder(instance)
    if blocks is None:
        blocks = _null_blocks(instance)
    pending: "deque[Sequence[Atom]]" = deque(blocks)
    perf.incr("core.blocks", len(blocks))

    session = _Session()
    queries = 0
    try:
        for relation, arity in sorted(arities.items()):
            session.create_table(relation, arity)
            session.load_facts(relation, arity, instance.facts_of(relation))
            session.create_indexes(relation, arity)
        while pending:
            block = pending.popleft()
            query = _BlockQuery(block, _block_nulls(block))
            mapping: dict | None = None
            for null in query.nulls:
                statement, parameters = query.eliminating(null)
                queries += 1
                session.execute(statement, parameters)
                row = session.cursor.fetchone()
                if row is not None:
                    session.decoded_rows += len(row)
                    mapping = {
                        key: decode_value(text)
                        for key, text in zip(query.nulls, row)
                    }
                    break
            if mapping is None:
                perf.incr("core.rigid_blocks")
                continue
            perf.incr("core.eliminations")
            images = {fact.rename_values(mapping) for fact in block}
            survivors: list[Atom] = []
            for fact in block:
                if fact in images:
                    survivors.append(fact)
                else:
                    builder.discard(fact)
                    placeholders = " AND ".join(
                        f"c{i} = ?" for i in range(fact.arity)
                    )
                    session.execute(
                        f'DELETE FROM "{fact.relation}" WHERE {placeholders}',
                        [encode_value(arg) for arg in fact.args],
                    )
            if survivors:
                pending.extend(_null_components(survivors))
        return builder.freeze()
    finally:
        perf.incr("core.sql.queries", queries)
        session.close()


def check_sql_backend_supported(clauses: Iterable[SOClause], *, what: str) -> None:
    """Raise a :class:`~repro.errors.ChaseError` if *clauses* cannot push down."""
    try:
        compile_clauses(clauses)
    except DependencyError as exc:
        raise ChaseError(f"{what} cannot run on the SQL backend: {exc}") from exc


__all__ = [
    "SQLCompileError",
    "encode_value",
    "decode_value",
    "sql_compilable",
    "SQL_CORE_MAX_BLOCK",
    "sql_core",
    "sql_core_supported",
    "sql_execute_exchange",
    "check_sql_backend_supported",
]
