"""BENCH-BACKEND -- one exchange, three execution backends.

Runs the same weakly-acyclic data-exchange program through the tuple engine
(:func:`repro.engine.chase.chase`), the columnar store
(:func:`repro.engine.columnar.columnar_execute_exchange`), and the SQL
pushdown backend (:func:`repro.engine.sql_backend.sql_execute_exchange`),
checks that all three produce *exactly* the same fact set, and records the
wall-time ratios.  Each backend is timed cold: the previous result is
dropped and ``gc.collect()`` runs before every timed call, and backends are
compared by a digest of their sorted fact reprs rather than by keeping their
results alive (a live result keeps every output value interned, which would
turn the next backend's interning into table hits).

The workload is a layered digraph (:func:`repro.workloads.layered_graph_instance`)
with a 2-hop path join, a dedup-heavy projection, and one existential copy:
trigger matching grows with ``width * degree**2`` while the output stays
near ``width * degree``, which is the regime where pushing the join into
SQLite's C executor pays off.  Acceptance: at the largest standard size
(>= 100k source facts) the SQL backend must be >= 5x faster than the tuple
engine end to end (encode + joins + decode included).

Run as a script to merge the comparison into ``BENCH_chase.json``::

    PYTHONPATH=src python benchmarks/bench_backend_chase.py [--smoke] [--json PATH]
"""

import gc
import hashlib
import time

import pytest

from repro.engine.chase import chase, compile_clause_program
from repro.engine.columnar import columnar_execute_exchange
from repro.engine.sql_backend import sql_execute_exchange
from repro.logic.parser import parse_tgd
from repro.workloads import layered_graph_instance


DEPS = [
    parse_tgd("S(x,y) & S(y,z) -> R(x,z)"),
    parse_tgd("S(x,y) & S(x,z) -> P(x)"),
    parse_tgd("Q(x) -> exists w . T(x,w)"),
]

#: (width, degree) per size; source has ``2 * width * degree + width`` facts.
SIZES = [(1000, 10), (2000, 16), (2500, 24)]
SMOKE_SIZES = [(200, 6), (500, 8)]


def backend_source(width: int, degree: int):
    return layered_graph_instance(width, degree, marker="Q")


def _cold_best_of(func, *args, repeats: int = 3) -> tuple[float, str, int]:
    """Minimum wall time of *repeats* cold runs, the result's digest and size.

    No result outlives its run: each is digested and dropped, and
    ``gc.collect()`` runs before the next timed call.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = func(*args)
        best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256("\n".join(sorted(map(repr, result.facts))).encode()).hexdigest()
        size = len(result)
        del result
    return best, digest, size


def compare_backends(width: int, degree: int, repeats: int = 1) -> dict:
    """Time all three backends on one layered-graph exchange; assert that
    they compute exactly the same target facts (set equality, not just
    isomorphism -- the shared clause program pins the Skolem labels; equal
    digests of the sorted fact reprs are equal fact sets)."""
    source = backend_source(width, degree)
    clauses = compile_clause_program(DEPS)
    tuple_s, tuple_facts, size = _cold_best_of(chase, source, DEPS, repeats=repeats)
    columnar_s, columnar_facts, __ = _cold_best_of(
        columnar_execute_exchange, source, clauses, repeats=repeats
    )
    sql_s, sql_facts, __ = _cold_best_of(
        sql_execute_exchange, source, clauses, repeats=repeats
    )
    assert columnar_facts == tuple_facts
    assert sql_facts == tuple_facts
    return {
        "width": width,
        "degree": degree,
        "source_facts": len(source),
        "target_facts": size,
        "tuple_s": tuple_s,
        "columnar_s": columnar_s,
        "sql_s": sql_s,
        "columnar_speedup": tuple_s / columnar_s,
        "sql_speedup": tuple_s / sql_s,
    }


@pytest.mark.parametrize("width,degree", SMOKE_SIZES)
def test_backend_exchange_tuple(benchmark, width, degree):
    source = backend_source(width, degree)
    result = benchmark(chase, source, DEPS)
    assert len(result) > 0


@pytest.mark.parametrize("width,degree", SMOKE_SIZES)
def test_backend_exchange_columnar(benchmark, width, degree):
    source = backend_source(width, degree)
    clauses = compile_clause_program(DEPS)
    result = benchmark(columnar_execute_exchange, source, clauses)
    assert len(result) > 0


@pytest.mark.parametrize("width,degree", SMOKE_SIZES)
def test_backend_exchange_sql(benchmark, width, degree):
    source = backend_source(width, degree)
    clauses = compile_clause_program(DEPS)
    result = benchmark(sql_execute_exchange, source, clauses)
    assert len(result) > 0


def test_backend_smoke_sql_not_slower():
    """CI gate: SQL pushdown must not lose to the tuple engine even at the
    largest smoke size (where per-run fixed costs weigh heaviest)."""
    row = compare_backends(*SMOKE_SIZES[-1], repeats=3)
    assert row["sql_speedup"] >= 1.0, row


def test_backend_sql_speedup():
    """Acceptance: >= 5x over the tuple engine at the largest standard size
    (>= 100k source facts).  Expensive -- run explicitly, not in CI smoke."""
    width, degree = SIZES[-1]
    row = compare_backends(width, degree)
    assert row["source_facts"] >= 100_000, row
    assert row["sql_speedup"] >= 5.0, row


def main(argv=None) -> dict:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller sizes (CI smoke run)")
    parser.add_argument("--json", metavar="PATH", default="BENCH_chase.json",
                        help="file to merge the results into (default: %(default)s)")
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else SIZES
    repeats = 3 if args.smoke else 1
    rows = [compare_backends(w, d, repeats=repeats) for w, d in sizes]
    section = {
        "smoke": args.smoke,
        "workload": "layered-graph exchange (path join + projection + copy)",
        "sizes": rows,
        "largest_sql_speedup": rows[-1]["sql_speedup"],
        "largest_columnar_speedup": rows[-1]["columnar_speedup"],
    }

    try:
        with open(args.json) as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {}
    report["backend_chase"] = section
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)

    for row in rows:
        print(f"n={row['source_facts']:7d}  tuple {row['tuple_s']:7.2f}s  "
              f"columnar {row['columnar_s']:7.2f}s ({row['columnar_speedup']:.1f}x)  "
              f"sql {row['sql_s']:7.2f}s ({row['sql_speedup']:.1f}x)")
    print(f"merged into {args.json}")
    assert section["largest_sql_speedup"] >= (1.0 if args.smoke else 5.0)
    return report


if __name__ == "__main__":
    main()
