"""WARM -- does warm-start performance survive a process restart?

Before ``repro.cache``, every cache tier (chase LRU, fold memo, interned
universe) died with the process: the second run of a sweep was fast only
*within* one interpreter.  This benchmark measures the implication sweeps of
``bench_pattern_sweep`` across real process boundaries sharing one
``REPRO_CACHE_DIR``:

- **cold process** -- a fresh interpreter over an empty store (the store is
  write-through, so the cold run also populates it);
- **warm-disk process** -- a *second* fresh interpreter over the store the
  cold one left behind: memory tiers empty, disk tier warm;
- **in-process warm** -- the classic same-interpreter re-run, for scale.

Each child asserts verdict agreement (holds + patterns checked) and reports
its ``cache.disk.*`` counters, so the parent can verify the warm run really
answered from disk rather than re-deriving.

Run as a script to merge a ``warm_restart`` axis into ``BENCH_sweep.json``
and ``BENCH_implication.json``::

    PYTHONPATH=src python benchmarks/bench_warm_restart.py [--smoke]

``--smoke`` runs only the Example 3.10 workload and gates warm-restart at
>= 2x with at least one disk hit -- the CI perf gate.  The full run also
sweeps the deep workload (3125 patterns) and gates it at >= 3x -- the
acceptance criterion of the persistence layer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

if __package__:  # imported as benchmarks.bench_warm_restart (pytest)
    from .bench_pattern_sweep import WORKLOADS
else:  # run as a script: benchmarks/ itself is on sys.path
    from bench_pattern_sweep import WORKLOADS

SWEEP_JSON = "BENCH_sweep.json"
IMPLICATION_JSON = "BENCH_implication.json"

SMOKE_GATE = 2.0
FULL_GATE = 3.0


def _run_sweep(lhs, rhs):
    from repro.core.implication import implies_tgd

    start = time.perf_counter()
    result = implies_tgd(lhs, rhs, max_patterns=100_000, subsumption=False,
                         incremental=True)
    return time.perf_counter() - start, result


def child(mode: str, label: str, repeat: int) -> None:
    """One measured process: run the workload *repeat* times, print JSON.

    ``cold`` starts every repetition with all tiers empty (including disk)
    and leaves the store populated for the warm process; ``warm`` starts
    every repetition with empty memory tiers over the inherited disk store.
    """
    import repro.cache as cache
    from repro import perf

    lhs, rhs = next((l, r) for (name, l, r) in WORKLOADS if name == label)
    assert cache.get_store() is not None, "child needs REPRO_CACHE_DIR"

    best = None
    result = None
    counters: dict[str, int] = {}
    for __ in range(repeat):
        cache.clear_all_caches(disk=(mode == "cold"))
        with perf.measuring() as stats:
            elapsed, result = _run_sweep(lhs, rhs)
        if best is None or elapsed < best:
            best = elapsed
            counters = stats.snapshot()

    inprocess_warm = None
    if mode == "cold":
        # the classic same-interpreter warm run: every tier still hot
        inprocess_warm, again = _run_sweep(lhs, rhs)
        assert again.holds == result.holds

    print(json.dumps({
        "mode": mode,
        "workload": label,
        "best_s": best,
        "holds": result.holds,
        "patterns": result.patterns_checked,
        "inprocess_warm_s": inprocess_warm,
        "disk_hits": counters.get("cache.disk.hits", 0),
        "disk_writes": counters.get("cache.disk.writes", 0),
        "verdict_hits": counters.get("implies.verdict_disk_hits", 0),
    }))


def _spawn(mode: str, label: str, repeat: int, cache_dir: str) -> dict:
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--child", mode, "--workload", label, "--repeat", str(repeat)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_workload(label: str, repeat: int) -> dict:
    """Cold process, then warm-disk process, over one shared store."""
    with tempfile.TemporaryDirectory(prefix="repro-warm-restart-") as tmp:
        cold = _spawn("cold", label, repeat, tmp)
        warm = _spawn("warm", label, repeat, tmp)
    assert cold["holds"] == warm["holds"], f"{label}: verdicts disagree"
    assert cold["patterns"] == warm["patterns"], f"{label}: sweeps disagree"
    return {
        "workload": label,
        "patterns": cold["patterns"],
        "cold_process_s": round(cold["best_s"], 6),
        "warm_disk_process_s": round(warm["best_s"], 6),
        "inprocess_warm_s": round(cold["inprocess_warm_s"], 6),
        "speedup_warm_restart": round(cold["best_s"] / warm["best_s"], 2)
        if warm["best_s"] else float("inf"),
        "disk_writes_cold": cold["disk_writes"],
        "disk_hits_warm": warm["disk_hits"],
        "verdict_hits_warm": warm["verdict_hits"],
    }


def _merge_axis(path: str, rows: list[dict]) -> None:
    """Attach the warm-restart rows to an existing BENCH artifact in place."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError):
        report = {"benchmark": os.path.basename(path)}
    report["warm_restart"] = {
        "gate": {"smoke_min_speedup": SMOKE_GATE, "full_min_speedup": FULL_GATE},
        "rows": rows,
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)


def main(argv=None) -> list[dict]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="Example 3.10 only; assert the CI perf gate")
    parser.add_argument("--child", metavar="MODE",
                        choices=["cold", "warm"], help=argparse.SUPPRESS)
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    parser.add_argument("--repeat", type=int, default=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        child(args.child, args.workload, args.repeat)
        return []

    labels = ["ex310"] if args.smoke else ["ex310", "deep"]
    rows = [measure_workload(label, repeat=5 if label == "ex310" else 1)
            for label in labels]
    for row in rows:
        print(f"{row['workload']:>6}: {row['patterns']:>5} patterns  "
              f"cold {row['cold_process_s']:.4f}s  "
              f"warm-restart {row['warm_disk_process_s']:.4f}s  "
              f"in-process {row['inprocess_warm_s']:.4f}s  "
              f"restart speedup {row['speedup_warm_restart']:.1f}x  "
              f"(disk hits {row['disk_hits_warm']})")

    by_label = {row["workload"]: row for row in rows}
    gate = by_label["ex310"]
    assert gate["disk_hits_warm"] > 0, (
        "perf gate: the warm-restart process never touched the disk store"
    )
    assert gate["speedup_warm_restart"] >= SMOKE_GATE, (
        f"perf gate: warm restart {gate['speedup_warm_restart']}x < "
        f"{SMOKE_GATE}x on Example 3.10"
    )
    if not args.smoke:
        deep = by_label["deep"]
        assert deep["speedup_warm_restart"] >= FULL_GATE, (
            f"acceptance: warm restart {deep['speedup_warm_restart']}x < "
            f"{FULL_GATE}x on the deep sweep"
        )
        assert deep["disk_hits_warm"] > 0

    _merge_axis(SWEEP_JSON, rows)
    _merge_axis(IMPLICATION_JSON, rows)
    print(f"merged warm_restart axis into {SWEEP_JSON} and {IMPLICATION_JSON}")
    return rows


if __name__ == "__main__":
    main()
