"""End-to-end benchmark of the decision and exchange pipelines.

Runs one workload in a child process and prints its metrics; the last line
of standard output is one JSON object::

    python3 benchmarks/e2e/run.py --workload decide-mix --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (set-up
time is the median over five child starts); ``--trace 1`` reports its
per-layer metrics from a traced run and writes the spans to
``benchmarks/e2e/out/``.  Metric names and units come from ``BENCHMARK.json``.
The program is imported from the checkout's ``src``; without it the command
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent

#: Child starts whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 5
#: Every child must have ended 2 x --seconds plus this long after the run
#: started: the measured child overruns --seconds by at most its last deck
#: (or plays three decks), and the set-up-only children take a few seconds.
DEADLINE_MARGIN_S = 60.0
#: String hashing fixed for the measured process: set iteration orders, and
#: with them the work some core and chase operations do, then repeat from run
#: to run instead of varying with a random hash seed.
HASH_SEED = "0"


class ChildFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run child.py to completion and return its JSON result line."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []), *extra,
        "--t0-ns", str(time.monotonic_ns()),
    ]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=checkout.ROOT,
                               env=dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    try:
        stdout, __ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise ChildFailed(f"{args.workload} child passed the run's deadline")
    if process.returncode != 0:
        raise ChildFailed(f"{args.workload} child exited with status {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="decide-mix, exchange-core, fblock-core or warm-restart")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation per kind instead of timed decks (tests)")
    args = parser.parse_args(argv)

    try:
        checkout.require_program()
    except checkout.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + 2 * args.seconds + DEADLINE_MARGIN_S

    try:
        result = spawn(args, deadline)
        values = dict(result["metrics"])
        if args.trace == 0:
            setups = [result["setup_s"]] + [
                spawn(args, deadline, "--setup-only")["setup_s"]
                for __ in range(SETUP_SAMPLES - 1)
            ]
            values["setup_s"] = statistics.median(setups)
            result["info"]["setup_samples_s"] = setups
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = spec["end_to_end" if args.trace == 0 else "per_layer"]
    units = {metric["name"]: metric["unit"] for metric in section}
    if set(values) != set(units):
        print(f"error: the run reported {sorted(set(values) ^ set(units))} "
              "against BENCHMARK.json", file=sys.stderr)
        return 1
    for key, value in result["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    for name, unit in units.items():
        print(f"# {args.workload} {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
