"""Baseline findings: the dispatch mis-picks and the crash the workloads leave out.

Three operations are too slow or fail outright on the measured code, so the
timed workloads (which must finish every operation, in bounded time) leave
them out.  This script runs each once, traced, and records its outcome, its
per-layer breakdown and, for comparison, the columnar core on the same
solution::

    python3 benchmarks/e2e/findings.py --out benchmarks/e2e/results/findings.json

- ``university-flat`` at n=5000: ``core(backend="auto")`` sends the 20k-fact
  solution to the SQL pushdown;
- ``ex48-odd`` at n=31: ``auto`` keeps the 62-fact odd-cycle core on the
  tuple engine;
- ``intro-star`` at n=150: the 22.5k-fact solution goes to SQL, whose
  per-block join exceeds SQLite's 64-table limit.  ``fblock-core``'s traced
  run also tries it, as ``probe.fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

import child
import ops
import trace as tracing
from repro.engine import core_instance
from repro.export.sql import execute_exchange

CASES = (("university-flat", 5000), ("ex48-odd", 31), ("intro-star", 150))


def columnar_core_s(op: ops.Op, sources: ops.Sources) -> float:
    """Seconds the columnar core engine takes on the operation's solution."""
    inputs = ops.prepare(op, sources)
    solution = execute_exchange(inputs.source, ops.parse(inputs.lhs), backend="auto")
    start = time.perf_counter()
    core_instance.core(solution, backend="columnar")
    return time.perf_counter() - start


def finding(shape: str, n: int) -> dict:
    op = ops.make_op("finding", shape, n)
    sources = {(shape, n): ops.source(shape, n)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        latency, ok, summary, facts = child.run_op(op, sources, tracer, Counter())
    finally:
        tracer.uninstall()
    layers = {
        layer: {
            "calls": tracer.calls[layer],
            "busy_s": tracer.busy_ns[layer] / 1e9,
            "self_s": tracer.self_ns[layer] / 1e9,
            "busy_share": tracer.busy_ns[layer] / tracer.op_ns,
        }
        for layer in (*tracing.LAYERS, tracing.ROOT_LAYER) if tracer.calls[layer]
    }
    return {
        "shape": shape, "n": n, "source_facts": facts,
        "expected_solution_and_core": op.expect,
        "failed": not ok, "summary": summary,
        "latency_s": latency / 1e9,
        "dispatch": tracer.dispatch_reasons(),
        "layers": layers,
        "columnar_core_s": columnar_core_s(op, sources),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    results = []
    for shape, n in CASES:
        results.append(finding(shape, n))
        row = results[-1]
        print(f"{shape} n={n}: {row['summary']} in {row['latency_s']:.2f} s "
              f"(columnar core {row['columnar_core_s']:.2f} s) dispatch {row['dispatch']}",
              file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    failed = sum(row["failed"] for row in results)
    args.out.write_text(json.dumps({
        "attempted": len(results), "failed": failed, "fail_ratio": failed / len(results),
        "findings": results,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
