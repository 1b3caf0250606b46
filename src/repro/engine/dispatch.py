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

Cores have no crossover: :func:`choose_core_backend` resolves ``"auto"`` to
the columnar (id-space) core engine at every size.  The data behind that is
the ``core_auto`` row of ``BENCH_hom.json``
(``benchmarks/bench_scaling_hom.py``): tuple, columnar and SQL core wall
times on Ex 4.8 cycles and paths (10-80 facts), the introduction's nested
tgd over stars (400-19.6k facts) and the flat shop exchange (30k facts).
The columnar core beats the tuple core on every one of them (1.1x to
9.5x).  SQL is ahead only on the two 10-fact cases, by 3.3 ms or less, and
level with columnar at 30k facts; it is about 40x to 900x slower on the
Ex 4.8 shapes of 22-40 facts and cannot load the five solutions with
f-blocks over 64 facts.  No size threshold separates those cases.
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

#: The reason every "auto" core choice reports.
CORE_AUTO_REASON = "id-space core engine at every size"


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

    ``"auto"`` is the columnar (id-space) engine whatever the size, so
    *input_size* and *sql_supported* no longer decide anything for it (see
    the module docstring for the data).

    *sql_supported* reports whether the instance can be loaded into a SQL
    core session (:func:`repro.engine.sql_backend.sql_core_supported`);
    callers probe it only for an explicit ``"sql"`` request, which raises
    on an unsupported instance.
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
    return BackendChoice("columnar", requested, CORE_AUTO_REASON)


__all__ = [
    "BACKENDS",
    "BackendChoice",
    "COLUMNAR_AUTO_THRESHOLD",
    "CORE_AUTO_REASON",
    "SQL_AUTO_THRESHOLD",
    "choose_backend",
    "choose_core_backend",
    "validate_backend",
]
