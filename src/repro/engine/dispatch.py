"""Backend selection for the chase engines: tuple, columnar, or SQL pushdown.

Three interchangeable execution backends run the oblivious chase, and all
three evaluate one clause program: the Skolemized clauses of
:func:`repro.engine.chase.compile_clause_program` for a single-pass
exchange, or those of the fixpoint chase for a fixpoint run.

``tuple``
    The clauses matched over interned Python objects
    (:func:`repro.engine.chase.run_clause_program` for an exchange) --
    lowest constant setup cost, no restrictions, and the reference
    semantics every other backend is differential-tested against.
``columnar``
    :mod:`repro.engine.columnar` -- the clauses over dense integer arrays
    with index-seeded integer joins.  Same round-by-round semantics as the
    tuple engine (bounded runs agree exactly); pays an encode pass up front.
``sql``
    :mod:`repro.engine.sql_backend` -- the clauses compiled to SQLite
    ``INSERT ... SELECT`` statements (semi-naive delta loop for fixpoints).
    Highest setup cost, by far the fastest joins at scale; only available
    for SQL-compilable clause programs, and a fixpoint run should be
    certified terminating by the static hierarchy (or explicitly bounded)
    before being handed to an unbounded SQL loop.

:func:`choose_backend` implements the ``"auto"`` policy.  The thresholds
derive from the static cost model's role: :func:`repro.analysis.cost.chase_cost`
certifies *whether* a polynomial bound exists (``estimate.degree``); the
instance size then decides whether the per-fact savings amortize each
backend's setup cost.  The crossover points below were measured by
``benchmarks/bench_backend_chase.py`` on the scaling workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ChaseError
from repro.logic.sotgd import SOClause

if TYPE_CHECKING:
    from repro.analysis.frontier import ComplexityTier

#: Backend names accepted by ``backend=`` parameters everywhere.
BACKENDS = ("tuple", "columnar", "sql", "auto")

#: Minimum input facts before "auto" prefers the columnar engine (below
#: this, encoding the instance costs more than the joins it speeds up).
COLUMNAR_AUTO_THRESHOLD = 500

#: Minimum input facts before "auto" prefers SQL pushdown (below this,
#: connection setup + encode/decode round-trips dominate).
SQL_AUTO_THRESHOLD = 5_000

#: Lowered SQL threshold for PTIME-tier programs: the per-relation degree
#: witnesses bound the joins tightly enough that the pushdown amortizes its
#: setup much earlier than in the worst (merely certified) case.
SQL_AUTO_THRESHOLD_PTIME = 1_000

#: Fact budget "auto" imposes on bounded runs of non-elementary-tier
#: (uncertified) programs, so a runaway bounded chase fails fast with
#: ``BudgetExceeded`` instead of grinding through a blowup.
NON_ELEMENTARY_AUTO_BUDGET = 1_000_000

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
    """The resolved backend plus the reason, for reports and ``--backend`` CLI.

    ``tier`` records the complexity tier the policy consulted (when the
    caller passed one) and ``forced_budget`` a fact cap "auto" imposes on
    non-elementary-tier programs (``None`` otherwise -- the caller applies
    it only when no explicit budget was given).
    """

    backend: str  # "tuple" | "columnar" | "sql"
    requested: str
    reason: str
    tier: "ComplexityTier | None" = None
    forced_budget: int | None = None

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
    certified: bool,
    needs_fact_stream: bool = False,
    tier: "ComplexityTier | None" = None,
) -> BackendChoice:
    """Resolve a ``backend=`` argument ("auto" included) to a concrete backend.

    *certified* tells whether the static termination hierarchy certified the
    program (for single-pass exchanges, pass True: they always terminate).
    *needs_fact_stream* marks callers that watch facts as they are derived
    (``fact_hook``); the SQL backend cannot stream, so "auto" avoids it and
    an explicit ``backend="sql"`` is rejected.

    *tier* refines the "auto" policy with the complexity tier of
    :func:`repro.analysis.frontier.tier_report`: a ``PTIME``-certified
    program becomes SQL-eligible at :data:`SQL_AUTO_THRESHOLD_PTIME` facts
    (its per-relation degree witnesses bound the pushdown's work), and a
    ``NON_ELEMENTARY`` program gets ``forced_budget`` set so bounded runs
    fail fast instead of blowing up.
    """
    from repro.engine.sql_backend import sql_compilable

    validate_backend(requested)
    if requested == "sql":
        if needs_fact_stream:
            raise ChaseError(
                "backend 'sql' cannot stream derived facts (fact_hook); "
                "use the tuple or columnar backend"
            )
        return BackendChoice("sql", requested, "requested explicitly", tier=tier)
    if requested != "auto":
        return BackendChoice(
            requested, requested, "requested explicitly", tier=tier
        )

    forced_budget = None
    if tier is not None:
        from repro.analysis.frontier import ComplexityTier

        if tier is ComplexityTier.NON_ELEMENTARY:
            # No certificate at all -- cap bounded runs.
            forced_budget = NON_ELEMENTARY_AUTO_BUDGET

    sql_threshold = SQL_AUTO_THRESHOLD
    if tier is not None and tier.polynomial:
        sql_threshold = SQL_AUTO_THRESHOLD_PTIME
    if (
        not needs_fact_stream
        and certified
        and input_size >= sql_threshold
        and sql_compilable(clauses)
    ):
        qualifier = (
            "PTIME-tier program" if sql_threshold != SQL_AUTO_THRESHOLD
            else "certified program"
        )
        return BackendChoice(
            "sql",
            requested,
            f"{qualifier}, {input_size} facts >= {sql_threshold}",
            tier=tier,
            forced_budget=forced_budget,
        )
    if input_size >= COLUMNAR_AUTO_THRESHOLD:
        return BackendChoice(
            "columnar",
            requested,
            f"{input_size} facts >= {COLUMNAR_AUTO_THRESHOLD}",
            tier=tier,
            forced_budget=forced_budget,
        )
    return BackendChoice(
        "tuple", requested, f"small input ({input_size} facts)",
        tier=tier, forced_budget=forced_budget,
    )


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
    "NON_ELEMENTARY_AUTO_BUDGET",
    "SQL_AUTO_THRESHOLD",
    "SQL_AUTO_THRESHOLD_PTIME",
    "choose_backend",
    "choose_core_backend",
    "validate_backend",
]
