"""Backend selection (tuple, columnar or SQL) for the single-pass exchange and cores.

Three interchangeable execution backends run a source-to-target exchange,
and all three evaluate one clause program: the Skolemized clauses of
:func:`repro.engine.chase.compile_clause_program`.  (The fixpoint chase of
:mod:`repro.engine.fixpoint_chase` has one engine of its own and does not
dispatch.)

``tuple``
    The clauses matched over interned Python objects
    (:func:`repro.engine.chase.run_clause_program`) -- lowest constant setup
    cost, no restrictions, and the reference semantics every other backend
    is differential-tested against.
``columnar``
    :func:`repro.engine.columnar.columnar_execute_exchange` -- the clauses
    over dense integer arrays with index-seeded integer joins; pays an
    encode pass up front.
``sql``
    :func:`repro.engine.sql_backend.sql_execute_exchange` -- the clauses
    compiled to SQLite ``INSERT ... SELECT`` statements.  Highest setup
    cost, by far the fastest joins at scale; only available for
    SQL-compilable clause programs.

:func:`choose_backend` implements the ``"auto"`` policy: the instance size
decides whether the per-fact savings amortize each backend's setup cost.
The crossover points below were measured by
``benchmarks/bench_backend_chase.py`` on the scaling workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ChaseError
from repro.logic.sotgd import SOClause

#: Backend names accepted by ``backend=`` parameters everywhere.
BACKENDS = ("tuple", "columnar", "sql", "auto")

#: Minimum input facts before "auto" prefers the columnar engine (below
#: this, encoding the instance costs more than the joins it speeds up).
COLUMNAR_AUTO_THRESHOLD = 500

#: Minimum input facts before "auto" prefers SQL pushdown (below this,
#: connection setup + encode/decode round-trips dominate).
SQL_AUTO_THRESHOLD = 5_000

#: Minimum input facts before core's "auto" prefers the columnar engine.
#: Lower than the chase crossover: the core worklist re-probes the same
#: blocks many times, so the one-shot encode pass amortizes sooner.
CORE_COLUMNAR_AUTO_THRESHOLD = 300

#: Minimum input facts before core's "auto" pushes per-block eliminating
#: homomorphisms down to SQL (per-block SELECT joins; session setup and
#: encode/decode round-trips dominate below this).
CORE_SQL_AUTO_THRESHOLD = 20_000


@dataclass(frozen=True)
class BackendChoice:
    """The resolved backend plus the reason, for reports and ``--backend`` CLI."""

    backend: str  # "tuple" | "columnar" | "sql"
    requested: str
    reason: str

    @property
    def was_auto(self) -> bool:
        return self.requested == "auto"


def validate_backend(name: str) -> str:
    """Return *name* if it is a known backend name, else raise ``ChaseError``."""
    if name not in BACKENDS:
        raise ChaseError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def choose_backend(
    requested: str,
    *,
    input_size: int,
    clauses: Sequence[SOClause],
) -> BackendChoice:
    """Resolve an exchange's ``backend=`` argument ("auto" included).

    "auto" picks SQL from :data:`SQL_AUTO_THRESHOLD` source facts when the
    clause program compiles to SQL, the columnar engine from
    :data:`COLUMNAR_AUTO_THRESHOLD`, and the tuple engine below that.
    """
    from repro.engine.sql_backend import sql_compilable

    validate_backend(requested)
    if requested != "auto":
        return BackendChoice(requested, requested, "requested explicitly")
    if input_size >= SQL_AUTO_THRESHOLD and sql_compilable(clauses):
        # A single-pass exchange always terminates, hence "certified".
        return BackendChoice(
            "sql",
            requested,
            f"certified program, {input_size} facts >= {SQL_AUTO_THRESHOLD}",
        )
    if input_size >= COLUMNAR_AUTO_THRESHOLD:
        return BackendChoice(
            "columnar",
            requested,
            f"{input_size} facts >= {COLUMNAR_AUTO_THRESHOLD}",
        )
    return BackendChoice("tuple", requested, f"small input ({input_size} facts)")


def choose_core_backend(
    requested: str,
    *,
    input_size: int,
    sql_supported: bool = False,
) -> BackendChoice:
    """Resolve a core-computation ``backend=`` argument to a concrete backend.

    Core computation has its own crossover points: the block worklist
    re-probes the shrinking instance many times per null, so the columnar
    encode pass amortizes earlier than in a chase, while the SQL pushdown
    (one SELECT join per candidate elimination) only wins once blocks are
    large enough to drown the per-query compile/decode cost.

    *sql_supported* reports whether the instance can be loaded into a SQL
    core session (:func:`repro.engine.sql_backend.sql_core_supported`);
    callers probe it lazily, only when SQL is actually in play.  An explicit
    ``"sql"`` request on an unsupported instance raises, while ``"auto"``
    falls back to the columnar engine.
    """
    validate_backend(requested)
    if requested == "sql":
        if not sql_supported:
            from repro.engine.sql_backend import SQL_CORE_MAX_BLOCK

            raise ChaseError(
                "backend 'sql' cannot load this instance for core "
                "computation (unencodable value, arity-0 or mixed-arity "
                f"relation, or an f-block of more than {SQL_CORE_MAX_BLOCK} "
                "facts, SQLite's join limit); use the columnar backend"
            )
        return BackendChoice("sql", requested, "requested explicitly")
    if requested != "auto":
        return BackendChoice(requested, requested, "requested explicitly")
    if sql_supported and input_size >= CORE_SQL_AUTO_THRESHOLD:
        return BackendChoice(
            "sql", requested, f"{input_size} facts >= {CORE_SQL_AUTO_THRESHOLD}"
        )
    if input_size >= CORE_COLUMNAR_AUTO_THRESHOLD:
        return BackendChoice(
            "columnar",
            requested,
            f"{input_size} facts >= {CORE_COLUMNAR_AUTO_THRESHOLD}",
        )
    return BackendChoice("tuple", requested, f"small input ({input_size} facts)")


__all__ = [
    "BACKENDS",
    "BackendChoice",
    "COLUMNAR_AUTO_THRESHOLD",
    "CORE_COLUMNAR_AUTO_THRESHOLD",
    "CORE_SQL_AUTO_THRESHOLD",
    "SQL_AUTO_THRESHOLD",
    "choose_backend",
    "choose_core_backend",
    "validate_backend",
]
