"""SQL-pushdown chase execution on SQLite.

"Laconic schema mappings" (PAPERS.md) shows that (core) universal solutions
for the mapping classes this library certifies are computable by plain SQL
queries.  This module turns that observation into an execution backend: a
Skolemized clause program (the same :class:`~repro.logic.sotgd.SOClause`
form every chase engine consumes) compiles to ``INSERT ... SELECT``
statements over one TEXT table per relation, and the database -- not a
Python loop -- performs the joins.

Three entry points:

- :func:`sql_execute_exchange` -- single-pass (source-to-target) execution
  of a clause program: evaluate every clause over the ``src_``-prefixed
  source tables, insert into the ``tgt_``-prefixed target tables, decode.
  Matches :func:`repro.engine.chase.chase` fact for fact when given
  :func:`~repro.engine.chase.compile_clause_program`'s output.
- :func:`sql_fixpoint_chase` -- the recursive (same-schema) case as a
  **semi-naive delta loop**: per relation ``R`` the backend keeps ``R``
  (all facts), ``R__delta`` (the previous round's new facts) and
  ``R__next`` (this round's emissions).  Every round evaluates each clause
  once per body position seeded from a delta table, then computes the
  genuinely new rows with ``SELECT * FROM R__next EXCEPT SELECT * FROM R``
  and rotates them into the delta.  This replays the semi-naive Python
  fixpoint of :mod:`repro.engine.fixpoint_chase` inside SQLite.
- :func:`sql_chase_egds` -- egds by **equalization round-trips**: each egd
  body compiles to a ``SELECT`` producing the value pairs to merge; the
  merges run through the same :class:`~repro.engine.egd_chase.UnionFind`
  (so representatives match the tuple engine), and one ``UPDATE`` per
  (relation, position) joined against a temporary merge table rewrites the
  instance in place.  The loop repeats until no egd produces a pair.

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

A fourth entry point, :func:`sql_core`, pushes *core computation* down
(following the "Laconic schema mappings" observation that cores of the
certified mapping classes are SQL-computable): each candidate elimination
of the core worklist -- "does the f-block of null ``x`` map into the
instance minus the facts containing ``x``?" -- compiles to one SELECT join
(:class:`_BlockQuery`) and eliminations apply as exact-row DELETEs.  When
the ``duckdb`` module is importable the session can run on an in-memory
DuckDB connection for vectorized joins; SQLite remains the default and the
fallback.

Perf counters: ``backend.sql.statements`` (statements executed),
``backend.sql.encoded_rows`` / ``backend.sql.decoded_rows`` (rows crossing
the boundary in each direction); for the core pushdown additionally
``core.sql.blocks``, ``core.sql.queries`` (eliminating-hom SELECTs),
``core.sql.eliminations``, ``core.sql.rigid_blocks``, and
``core.sql.duckdb_sessions``.
"""

from __future__ import annotations

import re
import sqlite3
from collections import deque
from typing import Any, Callable, Iterable, Sequence

from repro import perf
from repro.errors import BudgetExceeded, ChaseError, DependencyError, EgdViolation
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.sotgd import SOClause
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant, Null, Variable, is_null

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Suffixes of the backend's working tables; relation names must not end in
#: them (so a user relation can never alias a delta table).
_RESERVED_SUFFIXES = ("__delta", "__next")


class SQLCompileError(DependencyError):
    """A clause program (or instance) cannot be compiled to the SQL backend."""


def _check_identifier(name: str) -> str:
    if not _IDENTIFIER.match(name):
        raise SQLCompileError(f"{name!r} is not usable as an SQL identifier")
    if name.endswith(_RESERVED_SUFFIXES):
        raise SQLCompileError(f"{name!r} collides with a backend working table")
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


class _CompiledClause:
    """One Skolemized clause, compiled to parameterizable INSERT ... SELECT.

    The FROM clause is produced per statement by a ``table_for(alias_index)``
    callback, which is how one compilation serves the full pass (all aliases
    over full tables) and every delta-seeded variant (one alias over the
    seeded relation's ``__delta`` table).
    """

    def __init__(self, clause: SOClause):
        self.body_relations: list[str] = []
        self.aliases: list[str] = []
        self.variable_columns: dict[Variable, str] = {}
        self.conditions: list[str] = []
        for index, atom in enumerate(clause.body):
            _check_identifier(atom.relation)
            alias = f"a{index}"
            self.aliases.append(alias)
            self.body_relations.append(atom.relation)
            for position, arg in enumerate(atom.args):
                column = f"{alias}.c{position}"
                if not isinstance(arg, Variable):
                    raise SQLCompileError(f"non-variable body argument {arg!r}")
                if arg in self.variable_columns:
                    self.conditions.append(f"{column} = {self.variable_columns[arg]}")
                else:
                    self.variable_columns[arg] = column
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
            pieces = [_sql_literal(f"f{term.function}(")]
            for index, arg in enumerate(term.args):
                if index:
                    pieces.append(_sql_literal(","))
                inner = self.expression(arg)
                pieces.append(f"length({inner}) || ':' || {inner}")
            pieces.append(_sql_literal(")"))
            return " || ".join(pieces)
        raise SQLCompileError(f"cannot compile head term {term!r}")

    def insert_statements(
        self, table_for: Callable[[int], str], target_prefix: str, target_suffix: str
    ) -> list[str]:
        from_clause = ", ".join(
            f'"{table_for(i)}" AS {alias}' for i, alias in enumerate(self.aliases)
        )
        where = (" WHERE " + " AND ".join(self.conditions)) if self.conditions else ""
        return [
            f'INSERT INTO "{target_prefix}{relation}{target_suffix}" '
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
    """A connection plus statement/row accounting flushed to :mod:`repro.perf`.

    Defaults to an in-memory SQLite connection; callers may inject any
    DB-API-compatible connection instead (the core pushdown hands in a
    DuckDB connection when the module is importable -- only the portable
    subset of SQL used here runs on it: ``?`` placeholders, ``CREATE
    TABLE``/``CREATE INDEX``, SELECT/INSERT/DELETE without ``rowcount``).
    """

    def __init__(self, connection: Any = None) -> None:
        self.connection = (
            connection if connection is not None else sqlite3.connect(":memory:")
        )
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
            for statement in clause.insert_statements(
                lambda i, clause=clause: f"src_{clause.body_relations[i]}",
                "tgt_", "",
            ):
                session.execute(statement)
        facts: list[Atom] = []
        for relation in sorted(target_relations):
            facts.extend(session.read_facts(f"tgt_{relation}", relation))
        return Instance(facts)
    finally:
        session.close()


# --------------------------------------------------- semi-naive fixpoint loop


def sql_fixpoint_chase(
    instance: Instance,
    clauses: Sequence[SOClause],
    *,
    max_rounds: int | None = None,
    budget: int | None = None,
    predicted: int | None = None,
) -> tuple[Instance, int, bool]:
    """Iterate a clause program to a fixpoint inside SQLite, semi-naively.

    Returns ``(instance, rounds, reached_fixpoint)`` exactly as the tuple
    engine would compute them (the fixpoint of the oblivious chase is unique:
    head facts are determined by the body assignment alone).  Callers gate
    termination: pass ``max_rounds`` for uncertified programs.

    Round 1 evaluates every clause over the full tables; each later round
    evaluates one delta-seeded statement per (clause, body position) --
    ``FROM R__delta AS a_j`` with the other aliases over the full tables --
    and rotates ``R__next EXCEPT R`` into ``R__delta``.  *budget* caps the
    total fact count across rounds (:class:`~repro.errors.BudgetExceeded`).
    """
    compiled = compile_clauses(clauses)
    arities = _collect_arities(instance, clauses)
    head_relations = sorted({r for clause in compiled for r, _ in clause.heads})
    session = _Session()
    try:
        for relation, arity in sorted(arities.items()):
            session.create_table(relation, arity)
            session.create_indexes(relation, arity)
        for relation in head_relations:
            session.create_table(f"{relation}__next", arities[relation])
            session.create_table(f"{relation}__delta", arities[relation])
        for relation, arity in sorted(arities.items()):
            session.load_facts(relation, arity, instance.facts_of(relation))

        total_facts = len(instance)
        # Relations whose delta is currently non-empty (round 1: everything
        # with at least one fact -- the "delta" is the whole input).
        delta_rows = {r: len(instance.facts_of(r)) for r in arities}
        rounds = 0
        changed = True
        first_round = True
        while changed and (max_rounds is None or rounds < max_rounds):
            changed = False
            rounds += 1
            perf.incr("chase.fixpoint_rounds")
            for clause in compiled:
                if first_round:
                    # Every match's alias-0 fact is an input fact, so one
                    # full-table statement per clause is complete.
                    if all(delta_rows.get(r, 0) for r in clause.body_relations):
                        for statement in clause.insert_statements(
                            lambda i, clause=clause: clause.body_relations[i], "", "__next"
                        ):
                            session.execute(statement)
                    continue
                for seed in range(len(clause.body_relations)):
                    if not delta_rows.get(clause.body_relations[seed], 0):
                        continue

                    def table_for(i: int, clause=clause, seed=seed) -> str:
                        relation = clause.body_relations[i]
                        return f"{relation}__delta" if i == seed else relation

                    for statement in clause.insert_statements(table_for, "", "__next"):
                        session.execute(statement)
            first_round = False
            delta_rows = {}
            for relation in head_relations:
                session.execute(f'DELETE FROM "{relation}__delta"')
                cursor = session.execute(
                    f'INSERT INTO "{relation}__delta" '
                    f'SELECT * FROM "{relation}__next" EXCEPT SELECT * FROM "{relation}"'
                )
                new_rows = max(cursor.rowcount, 0)
                session.execute(f'DELETE FROM "{relation}__next"')
                if not new_rows:
                    continue
                session.execute(
                    f'INSERT INTO "{relation}" SELECT * FROM "{relation}__delta"'
                )
                delta_rows[relation] = new_rows
                changed = True
                perf.incr("chase.facts", new_rows)
                total_facts += new_rows
                if budget is not None and total_facts > budget:
                    raise BudgetExceeded(
                        "fixpoint chase", budget, predicted=predicted,
                        hint="Lint finding CC002 predicts the chase-size "
                        "bound; raise budget= or bound the run with "
                        "max_rounds=.",
                    )
        facts: list[Atom] = []
        for relation in sorted(arities):
            facts.extend(session.read_facts(relation, relation))
        return Instance(facts), rounds, not changed
    finally:
        session.close()


# ------------------------------------------------- egd equalization round-trips


class _CompiledEgd:
    """An egd body compiled to a SELECT of the (left, right) pairs to merge."""

    def __init__(self, egd: Egd):
        clause_like = _CompiledClause(
            SOClause(body=egd.body, equalities=(), head=())
        )
        left = clause_like.variable_columns[egd.left]
        right = clause_like.variable_columns[egd.right]
        from_clause = ", ".join(
            f'"{relation}" AS {alias}'
            for relation, alias in zip(clause_like.body_relations, clause_like.aliases)
        )
        conditions = clause_like.conditions + [f"{left} <> {right}"]
        self.select = (
            f"SELECT DISTINCT {left}, {right} FROM {from_clause} "
            f"WHERE {' AND '.join(conditions)}"
        )


def sql_chase_egds(
    instance: Instance,
    egds: Sequence[Egd],
    *,
    allow_constant_merge: bool = False,
) -> tuple[Instance, dict]:
    """Chase *instance* with *egds* on SQLite by equalization round-trips.

    Each round SELECTs the value pairs every egd forces equal, merges them in
    a Python union-find (same representative policy as the tuple engine), and
    pushes the resulting rewrite back as one ``UPDATE`` per (relation,
    position) joined against a temporary merge table, followed by a
    deduplication pass.  Differentially equal to
    :func:`repro.engine.egd_chase.chase_egds`.
    """
    from repro.engine.egd_chase import UnionFind

    compiled = [_CompiledEgd(egd) for egd in egds]
    arities = _collect_arities(
        instance,
        [SOClause(body=egd.body, equalities=(), head=()) for egd in egds],
    )
    union_find = UnionFind()
    session = _Session()
    try:
        for relation, arity in sorted(arities.items()):
            session.create_table(relation, arity)
            session.load_facts(relation, arity, instance.facts_of(relation))
            session.create_indexes(relation, arity)
        session.execute('CREATE TABLE "__merge" (old TEXT PRIMARY KEY, new TEXT)')
        changed = True
        while changed:
            changed = False
            perf.incr("chase.rounds")
            touched: set = set()
            for compiled_egd in compiled:
                session.execute(compiled_egd.select)
                for left_text, right_text in session.cursor.fetchall():
                    session.decoded_rows += 2
                    left, right = decode_value(left_text), decode_value(right_text)
                    if left == right:
                        continue
                    if (
                        not allow_constant_merge
                        and not is_null(left)
                        and not is_null(right)
                    ):
                        raise EgdViolation(left, right)
                    if union_find.union(left, right):
                        changed = True
                        touched.add(left)
                        touched.add(right)
            if not changed:
                break
            rewrites = [
                (encode_value(value), encode_value(root))
                for value in touched
                if (root := union_find.find(value)) != value
            ]
            session.execute('DELETE FROM "__merge"')
            session.executemany('INSERT INTO "__merge" VALUES (?, ?)', rewrites)
            for relation, arity in sorted(arities.items()):
                for i in range(arity):
                    session.execute(
                        f'UPDATE "{relation}" SET c{i} = '
                        f'(SELECT new FROM "__merge" WHERE old = c{i}) '
                        f'WHERE c{i} IN (SELECT old FROM "__merge")'
                    )
                group = ", ".join(f"c{i}" for i in range(arity))
                session.execute(
                    f'DELETE FROM "{relation}" WHERE rowid NOT IN '
                    f'(SELECT MIN(rowid) FROM "{relation}" GROUP BY {group})'
                )
        facts: list[Atom] = []
        for relation in sorted(arities):
            facts.extend(session.read_facts(relation, relation))
        equalities = union_find.as_mapping(instance.active_domain())
        return Instance(facts), equalities
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


def _duckdb_connection() -> Any:
    """An in-memory DuckDB connection, or None when the module is absent."""
    try:
        import duckdb
    except ImportError:
        return None
    return duckdb.connect(":memory:")


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
    use_duckdb: bool | None = None,
) -> Instance:
    """Compute the core of *instance* with block eliminations pushed to SQL.

    Same worklist as :func:`repro.engine.core_instance.core` -- split into
    f-blocks, repeatedly retract a block along an eliminating homomorphism,
    re-enqueue the surviving components -- but each candidate elimination is
    one SELECT join evaluated by the database over the live tables, and an
    elimination is applied as exact-row DELETEs.  *blocks* are the
    instance's null f-blocks when the caller already computed them (as
    :func:`repro.engine.core_instance.core` does for
    :func:`sql_core_supported`).

    ``use_duckdb=None`` (the default) uses DuckDB when importable and falls
    back to SQLite; ``True`` requires it; ``False`` forces SQLite.  Either
    engine returns the same core up to isomorphism (and the identical fact
    set on deterministic instances: candidate nulls are tried in repr order
    and the SELECTs are ordered).
    """
    from repro.engine.builder import InstanceBuilder
    from repro.engine.core_instance import _block_nulls, _null_blocks, _null_components

    arities = _collect_arities(instance, ())
    connection = None
    if use_duckdb or use_duckdb is None:
        connection = _duckdb_connection()
        if connection is None and use_duckdb:
            raise ChaseError(
                "use_duckdb=True but the duckdb module is not importable"
            )
    if connection is not None:
        perf.incr("core.sql.duckdb_sessions")

    builder = InstanceBuilder(instance)
    if blocks is None:
        blocks = _null_blocks(instance)
    pending: "deque[Sequence[Atom]]" = deque(blocks)
    perf.incr("core.sql.blocks", len(blocks))

    session = _Session(connection)
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
                perf.incr("core.sql.rigid_blocks")
                continue
            perf.incr("core.sql.eliminations")
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
    "sql_fixpoint_chase",
    "sql_chase_egds",
    "check_sql_backend_supported",
]
