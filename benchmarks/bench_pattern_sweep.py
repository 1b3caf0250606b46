"""SWEEP -- from-scratch vs DAG-incremental k-pattern sweeps for IMPLIES.

The from-scratch sweep rebuilds and re-chases the canonical instances of
every k-pattern independently (``_sweep_serial`` over
``enumerate_k_patterns``, which ``implies_tgd`` runs only under source egds);
the DAG-incremental sweep (``implies_tgd`` without source egds) extends each pattern's chase state from its parent pattern
by the delta one new leaf contributes.  This benchmark measures both on
implication queries whose right-hand sides nest progressively deeper, cold
(empty chase cache) and warm (second run).

Run as a script to record the results in ``BENCH_sweep.json``::

    PYTHONPATH=src python benchmarks/bench_pattern_sweep.py [--json PATH] [--smoke]

``--smoke`` runs only the small workloads with repetitions (best of 25 on
the Example 3.10 query, whose sweep takes about a millisecond, and best of 5
on ``wide``) and asserts the incremental sweep is not slower than the
from-scratch sweep on the Example 3.10 query, and that on every workload its seeded pattern checks
take no more hom-kernel search nodes than the from-scratch sweep's -- the
CI perf gate.  The full run also sweeps the deep workload and asserts the
incremental sweep is at least 5x faster there.

Both runs also sweep ``wide4``, the ``_wide(4)`` shape of the e2e
``decide-mix`` deck (2,401 patterns, every one a chase-cache miss),
incremental only, cold, best of 3, and assert its pinned counts: patterns,
candidate attachments built (``implies.sweep.candidates``), chase-cache
hits and misses, and hom-kernel calls.
The rows are merged into the artifact in place, so other axes stored in it
(``bench_warm_restart.py``'s ``warm_restart``) survive a regeneration.
"""

from __future__ import annotations

import gc
import time
from collections import Counter

from repro import perf
from repro.core.implication import (
    _normalize_lhs,
    _normalize_rhs,
    _sigma_fingerprint,
    _sweep_serial,
    clear_chase_cache,
    implication_bound,
    implies_tgd,
)
from repro.core.patterns import count_k_patterns, enumerate_k_patterns
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


def _wide(branches: int, var: str, exist: str):
    """The ``_wide`` shape of ``benchmarks/e2e/ops.py``: *branches* sibling
    parts ``S_i(x_i) -> R_i(y, x_i)`` under one existential."""
    parts = " & ".join(
        f"(S{i}({var}{i}) -> R{i}({exist}, {var}{i}))" for i in range(2, branches + 2)
    )
    return parse_nested_tgd(f"S1({var}1) -> exists {exist} . ({parts})")


#: (label, Sigma, sigma): implication holds in each, so the sweep runs to the
#: end (renamed copies dodge the syntactic membership shortcut; the
#: subsumption pre-pass is disabled explicitly).
WORKLOADS = [
    ("ex310", [EX310_TAU_DP], EX310_TAU),
    ("wide", [WIDE_LHS], WIDE_RHS),
    ("deep", [DEEP_LHS], DEEP_RHS),
]

#: Best-of repetitions per ``--smoke`` workload.  The Example 3.10 sweep
#: takes about a millisecond and its gate has about a 1.2x margin, so it
#: takes enough repetitions for a machine busy with other work to leave one
#: quiet pair.
SMOKE_REPEAT = {"ex310": 25, "wide": 5}

#: The incremental-only row: decide-mix's widest sweep.
WIDE4 = ("wide4", [_wide(4, "u", "w")], _wide(4, "x", "y"))

#: wide4's counts per cold sweep.  Every pattern is built from one
#: candidate attachment but the root, and none shares a canonical source.
WIDE4_PINNED = {
    "patterns": 2401,
    "candidates": 2400,
    "chase_cache_hits": 0,
    "chase_cache_misses": 2401,
    "kernel_calls": 2401,
}


def _fresh_sweep(lhs, rhs):
    """The from-scratch sweep: every k-pattern built and chased on its own."""
    lhs, rhs = _normalize_lhs(lhs), _normalize_rhs(rhs)
    k = implication_bound(lhs, rhs)
    patterns = enumerate_k_patterns(rhs, k, max_patterns=100_000)
    return _sweep_serial(patterns, lhs, rhs, (), _sigma_fingerprint(lhs), k)


def _incremental_sweep(lhs, rhs):
    """The DAG-incremental sweep, as ``implies_tgd`` runs it."""
    return implies_tgd(lhs, rhs, max_patterns=100_000, subsumption=False)


def _timed_sweep(lhs, rhs, modes, *, cold=True, repeat=1):
    """Best-of-*repeat* wall time of one sweep per sweep function in *modes*.

    The repetitions interleave the modes, so a drift in machine speed hits
    each mode alike, and the garbage collector is paused while a sweep is
    timed, as ``timeit`` does.  Cold clears the chase cache and collects
    garbage before each sweep, so no value of an earlier sweep is still
    interned.  Returns one ``(best_s, result, counters)`` per mode; *counters*
    are the ``perf`` counters summed over the mode's repetitions.
    """
    best = [None] * len(modes)
    results = [None] * len(modes)
    counters = [Counter() for __ in modes]
    for __ in range(repeat):
        for slot, sweep in enumerate(modes):
            if cold:
                clear_chase_cache()
                gc.collect()
            perf.reset()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                results[slot] = sweep(lhs, rhs)
                elapsed = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
            counters[slot].update(perf.snapshot())
            best[slot] = elapsed if best[slot] is None else min(best[slot], elapsed)
    return list(zip(best, results, counters))


def _incremental_counts(counters, repeat):
    """One cold incremental sweep's counts (each repetition adds the same)."""
    return {
        "candidates": counters.get("implies.sweep.candidates", 0) // repeat,
        "chase_cache_hits": counters.get("implies.cache_hits", 0) // repeat,
        "chase_cache_misses": counters.get("implies.cache_misses", 0) // repeat,
        "kernel_calls": counters.get("hom.kernel_calls", 0) // repeat,
        "incremental_hits": counters.get("implies.sweep.incremental_hits", 0) // repeat,
    }


def sweep_workload(label, lhs, rhs, *, repeat=1):
    """Measure one workload every way; return a result row."""
    k = implication_bound(_normalize_lhs(lhs), rhs)
    (fresh_s, fresh, fresh_counters), (incr_s, incr, counters) = _timed_sweep(
        lhs, rhs, (_fresh_sweep, _incremental_sweep), repeat=repeat)
    # every cold repetition contributes the same counts; report one run's worth
    fresh_nodes = fresh_counters.get("hom.search_nodes", 0) // repeat
    incr_nodes = counters.get("hom.search_nodes", 0) // repeat
    # warm: same query again without clearing the cache
    [(warm_s, __, __)] = _timed_sweep(lhs, rhs, (_incremental_sweep,), cold=False,
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
        **_incremental_counts(counters, repeat),
        "fresh_search_nodes": fresh_nodes,
        "incremental_search_nodes": incr_nodes,
    }


def incremental_workload(label, lhs, rhs, *, repeat=3):
    """The incremental sweep alone, cold, best of *repeat*; return a result row."""
    [(incr_s, incr, counters)] = _timed_sweep(lhs, rhs, (_incremental_sweep,),
                                              repeat=repeat)
    assert incr.holds
    return {
        "workload": label,
        "k": incr.k,
        "patterns": incr.patterns_checked,
        "pattern_count_formula": count_k_patterns(rhs, incr.k),
        "incremental_cold_s": round(incr_s, 6),
        **_incremental_counts(counters, repeat),
    }


def _assert_wide4_pinned(row) -> None:
    counts = {name: row[name] for name in WIDE4_PINNED}
    assert counts == WIDE4_PINNED, (
        f"wide4 sweep counts moved: {counts}, pinned {WIDE4_PINNED}"
    )


# ------------------------------------------------------------ pytest entry


def test_sweep_incremental_not_slower_ex310(benchmark):
    """CI smoke property: the incremental sweep beats (or ties) the
    from-scratch sweep on the Example 3.10 workload, and every non-root
    pattern is an incremental extension."""
    row = benchmark(sweep_workload, *WORKLOADS[0], repeat=SMOKE_REPEAT["ex310"])
    assert row["incremental_hits"] == row["patterns"] - 1
    assert row["incremental_cold_s"] <= row["fresh_cold_s"]
    assert row["incremental_search_nodes"] <= row["fresh_search_nodes"]


def test_sweep_wide_incremental_agrees(benchmark):
    row = benchmark(sweep_workload, *WORKLOADS[1], repeat=3)
    assert row["patterns"] == row["pattern_count_formula"]
    assert row["incremental_hits"] == row["patterns"] - 1


def test_sweep_wide4_pinned_counts():
    _assert_wide4_pinned(incremental_workload(*WIDE4))


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
    rows = [sweep_workload(label, lhs, rhs,
                           repeat=SMOKE_REPEAT[label] if args.smoke else 1)
            for label, lhs, rhs in workloads]
    rows.append(incremental_workload(*WIDE4))
    try:
        with open(args.json) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError):
        report = {}
    report.update({"benchmark": "pattern-sweep", "smoke": args.smoke, "rows": rows})
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in rows:
        if "fresh_cold_s" not in row:
            print(f"{row['workload']:>6}: {row['patterns']:>5} patterns  "
                  f"incr {row['incremental_cold_s']:.4f}s  "
                  f"candidates {row['candidates']}  "
                  f"chase cache {row['chase_cache_hits']} hits / "
                  f"{row['chase_cache_misses']} misses  "
                  f"kernel calls {row['kernel_calls']}")
            continue
        print(f"{row['workload']:>6}: {row['patterns']:>5} patterns  "
              f"fresh {row['fresh_cold_s']:.4f}s  "
              f"incr {row['incremental_cold_s']:.4f}s  "
              f"warm {row['incremental_warm_s']:.4f}s  "
              f"speedup {row['speedup_cold']:.1f}x  "
              f"search nodes {row['fresh_search_nodes']} -> "
              f"{row['incremental_search_nodes']}")
    print(f"wrote {args.json}")
    by_label = {row["workload"]: row for row in rows}
    _assert_wide4_pinned(by_label["wide4"])
    gate = by_label["ex310"]
    assert gate["incremental_cold_s"] <= gate["fresh_cold_s"], (
        "perf gate: the incremental sweep regressed below the from-scratch "
        f"sweep on Example 3.10 ({gate['incremental_cold_s']:.4f}s vs "
        f"{gate['fresh_cold_s']:.4f}s)"
    )
    for row in rows:
        if "fresh_search_nodes" not in row:
            continue
        assert row["incremental_search_nodes"] <= row["fresh_search_nodes"], (
            f"perf gate: the seeded pattern checks searched more than the "
            f"from-scratch sweep on {row['workload']} "
            f"({row['incremental_search_nodes']} vs {row['fresh_search_nodes']} nodes)"
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
