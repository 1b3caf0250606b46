"""Repeatability check of the end-to-end metrics against their bounds.

Runs every workload untraced once for each of ten seeds, then the whole set
of runs a second time, and prints for every end-to-end metric its median per
set, its spread (distance between the first and third quartile of the seeds'
values, ``statistics.quantiles(values, n=4)``, as a share of the median) and
how far the second set's median moved from the first's, each against the
metric's bound in ``BENCHMARK.json``::

    python3 benchmarks/e2e/repeat.py --out benchmarks/e2e/results/repeatability.json

A spread at or above the bound or a median that got worse by more than the
bound is flagged, and the command exits with status 1; a spread at or above a
third of the bound is marked as not yet steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=checkout.ROOT,
                               check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{completed.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(first: float, last: float, better: str) -> float:
    """How much worse *last* is than *first*, as a share of *first*."""
    change = (last - first) / first
    return change if better == "lower" else -change


def summarize(sets: list[dict], metrics: list[dict]) -> tuple[dict, bool]:
    summary: dict = {}
    ok = True
    for workload in sets[0]:
        rows = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            per_set = [runs[workload][name] for runs in sets]
            medians = [statistics.median(values) for values in per_set]
            spreads = [spread(values) for values in per_set]
            drift = worsening(medians[0], medians[-1], metric["better"])
            rows[name] = {"medians": medians, "spreads": spreads, "drift": drift,
                          "bound": bound, "ok": max(spreads) < bound and drift <= bound,
                          "steady": max(spreads) < bound / 3}
            ok = ok and rows[name]["ok"]
        summary[workload] = rows
    return summary, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="write all values and the summary here")
    args = parser.parse_args(argv)

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    sets: list[dict] = []
    for number in range(SETS):
        runs: dict = {}
        for workload in (workload["name"] for workload in spec["workloads"]):
            values: dict[str, list[float]] = {}
            for seed in range(SEEDS):
                start = time.monotonic()
                for name, value in run_once(workload, seed, spec["run_seconds"]).items():
                    values.setdefault(name, []).append(value)
                print(f"set {number + 1} {workload} seed {seed}: "
                      f"{time.monotonic() - start:.1f} s", file=sys.stderr, flush=True)
            runs[workload] = values
        sets.append(runs)

    summary, ok = summarize(sets, spec["end_to_end"])
    for workload, rows in summary.items():
        for name, row in rows.items():
            medians = " ".join(f"{m:.5g}" for m in row["medians"])
            spreads = " ".join(f"{s:.3f}" for s in row["spreads"])
            flag = ("" if row["steady"] else "  (spread >= bound/3)") + (
                "" if row["ok"] else "  <-- outside bound")
            print(f"{workload:14s} {name:15s} medians {medians:24s} spreads {spreads:12s} "
                  f"drift {row['drift']:+.3f}  bound {row['bound']}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "run_seconds": spec["run_seconds"], "seeds": SEEDS,
            "sets": sets, "summary": summary,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
