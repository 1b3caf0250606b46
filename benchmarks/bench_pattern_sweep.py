"""SWEEP -- from-scratch vs DAG-incremental k-pattern sweeps for IMPLIES.

The from-scratch sweep rebuilds and re-chases the canonical instances of
every k-pattern independently; the DAG-incremental sweep (the default of
``implies_tgd``) extends each pattern's chase state from its parent pattern
by the delta one new leaf contributes.  This benchmark measures both on
implication queries whose right-hand sides nest progressively deeper, cold
(empty chase cache) and warm (second run).

Run as a script to record the results in ``BENCH_sweep.json``::

    PYTHONPATH=src python benchmarks/bench_pattern_sweep.py [--json PATH] [--smoke]

``--smoke`` runs only the small workloads with repetitions and asserts the
incremental sweep is not slower than the from-scratch sweep on the
Example 3.10 query -- the CI perf gate.  The full run also sweeps the deep
workload and asserts the incremental sweep is at least 5x faster there.
The rows are merged into the artifact in place, so other axes stored in it
(``bench_warm_restart.py``'s ``warm_restart``) survive a regeneration.
"""

from __future__ import annotations

import time

from repro import perf
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.core.patterns import count_k_patterns
from repro.logic.parser import parse_nested_tgd, parse_tgd

EX310_TAU = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
EX310_TAU_DP = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")

WIDE_RHS = parse_nested_tgd(
    "S1(x1) -> exists y . ((S2(x2) -> R2(y, x2)) & (S3(x3) -> R3(y, x3)))"
)
WIDE_LHS = parse_nested_tgd(
    "S1(u1) -> exists w . ((S2(u2) -> R2(w, u2)) & (S3(u3) -> R3(w, u3)))"
)

DEEP_RHS = parse_nested_tgd(
    "S1(x1) -> exists y . (S2(x2) -> R2(y, x2) & (S3(x3) -> R3(y, x3)))"
)
DEEP_LHS = parse_nested_tgd(
    "S1(u1) -> exists w . (S2(u2) -> R2(w, u2) & (S3(u3) -> R3(w, u3)))"
)

#: (label, Sigma, sigma): implication holds in each, so the sweep runs to the
#: end (renamed copies dodge the syntactic membership shortcut; the
#: subsumption pre-pass is disabled explicitly).
WORKLOADS = [
    ("ex310", [EX310_TAU_DP], EX310_TAU),
    ("wide", [WIDE_LHS], WIDE_RHS),
    ("deep", [DEEP_LHS], DEEP_RHS),
]


def _timed_sweep(lhs, rhs, *, incremental, cold=True, repeat=1):
    """Best-of-*repeat* wall time of one sweep; cold clears the chase cache."""
    best = None
    result = None
    for __ in range(repeat):
        if cold:
            clear_chase_cache()
        start = time.perf_counter()
        result = implies_tgd(lhs, rhs, max_patterns=100_000, subsumption=False,
                             incremental=incremental)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def sweep_workload(label, lhs, rhs, *, repeat=1):
    """Measure one workload every way; return a result row."""
    from repro.core.implication import _normalize_lhs, implication_bound

    k = implication_bound(_normalize_lhs(lhs), rhs)
    fresh_s, fresh = _timed_sweep(lhs, rhs, incremental=False, repeat=repeat)
    perf.reset()
    incr_s, incr = _timed_sweep(lhs, rhs, incremental=True, repeat=repeat)
    counters = perf.snapshot()
    # every cold repetition contributes the same counts; report one run's worth
    hits_per_run = counters.get("implies.sweep.incremental_hits", 0) // repeat
    # warm: same query again without clearing the cache
    warm_s, __ = _timed_sweep(lhs, rhs, incremental=True, cold=False,
                              repeat=repeat)
    assert incr.holds == fresh.holds
    assert incr.patterns_checked == fresh.patterns_checked
    return {
        "workload": label,
        "k": k,
        "patterns": incr.patterns_checked,
        "pattern_count_formula": count_k_patterns(rhs, k),
        "fresh_cold_s": round(fresh_s, 6),
        "incremental_cold_s": round(incr_s, 6),
        "incremental_warm_s": round(warm_s, 6),
        "speedup_cold": round(fresh_s / incr_s, 2) if incr_s else float("inf"),
        "incremental_hits": hits_per_run,
    }


# ------------------------------------------------------------ pytest entry


def test_sweep_incremental_not_slower_ex310(benchmark):
    """CI smoke property: the incremental sweep beats (or ties) the
    from-scratch sweep on the Example 3.10 workload, and every non-root
    pattern is an incremental extension."""
    row = benchmark(sweep_workload, *WORKLOADS[0], repeat=5)
    assert row["incremental_hits"] == row["patterns"] - 1
    assert row["incremental_cold_s"] <= row["fresh_cold_s"]


def test_sweep_wide_incremental_agrees(benchmark):
    row = benchmark(sweep_workload, *WORKLOADS[1], repeat=3)
    assert row["patterns"] == row["pattern_count_formula"]
    assert row["incremental_hits"] == row["patterns"] - 1


def test_sweep_deep_speedup():
    """Acceptance: at the deepest nesting the DAG-incremental sweep is at
    least 5x faster than re-chasing every pattern from scratch."""
    row = sweep_workload(*WORKLOADS[2])
    assert row["patterns"] == row["pattern_count_formula"]
    assert row["speedup_cold"] >= 5.0


def main(argv=None) -> dict:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default="BENCH_sweep.json",
                        help="where to write the results (default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads only; assert the CI perf gate")
    args = parser.parse_args(argv)

    workloads = WORKLOADS[:2] if args.smoke else WORKLOADS
    repeat = 5 if args.smoke else 1
    rows = [sweep_workload(label, lhs, rhs, repeat=repeat)
            for label, lhs, rhs in workloads]
    try:
        with open(args.json) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError):
        report = {}
    report.update({"benchmark": "pattern-sweep", "smoke": args.smoke, "rows": rows})
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in rows:
        print(f"{row['workload']:>6}: {row['patterns']:>5} patterns  "
              f"fresh {row['fresh_cold_s']:.4f}s  "
              f"incr {row['incremental_cold_s']:.4f}s  "
              f"warm {row['incremental_warm_s']:.4f}s  "
              f"speedup {row['speedup_cold']:.1f}x")
    print(f"wrote {args.json}")
    by_label = {row["workload"]: row for row in rows}
    gate = by_label["ex310"]
    assert gate["incremental_cold_s"] <= gate["fresh_cold_s"], (
        "perf gate: the incremental sweep regressed below the from-scratch "
        f"sweep on Example 3.10 ({gate['incremental_cold_s']:.4f}s vs "
        f"{gate['fresh_cold_s']:.4f}s)"
    )
    if not args.smoke:
        deep = by_label["deep"]
        assert deep["speedup_cold"] >= 5.0, (
            f"acceptance: expected >= 5x at the deepest nesting, got "
            f"{deep['speedup_cold']}x"
        )
    return report


if __name__ == "__main__":
    main()
