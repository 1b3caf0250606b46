"""CORE-DIGEST -- one line per e2e core: sizes, a digest of its facts, counters.

For every (shape, n) of the ``exchange-core`` and ``fblock-core`` decks in
``benchmarks/e2e/ops.py``, this runs the deck's own pipeline
(``execute_exchange(backend="auto")``, then ``core(backend="auto")``) and
records the solution and core sizes, a SHA-256 digest of the core's
repr-sorted facts, and every ``core.*`` and ``hom.*`` counter of the core
call.  It exits with status 1, after writing the file, if a solution or core
size differs from the deck's closed form (``ops.expected_sizes``).  A change
meant to keep every core and counter is checked by running this on the
parent commit and on the change and comparing the files::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/core_digest.py --json PATH

The hash seed is fixed because the representative a core keeps follows
value-id order, which follows set iteration order, which follows string
hashing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from repro import perf  # noqa: E402
from repro.engine.core_instance import core  # noqa: E402
from repro.export.sql import execute_exchange  # noqa: E402

import ops  # noqa: E402

WORKLOADS = ("exchange-core", "fblock-core")


def digest_row(shape: str, n: int) -> dict:
    """Solution and core of one deck shape, with the core call's counters."""
    solution = execute_exchange(ops.source(shape, n), ops.parse(ops.mapping_of(shape)),
                                backend="auto")
    with perf.measuring() as stats:
        result = core(solution, backend="auto")
    counters = {name: value for name, value in sorted(stats.snapshot().items())
                if name.startswith(("core.", "hom."))}
    facts = "\n".join(sorted(repr(fact) for fact in result))
    return {"shape": shape, "n": n, "solution_facts": len(solution),
            "core_facts": len(result),
            "core_sha256": hashlib.sha256(facts.encode()).hexdigest(),
            "counters": counters}


def main(argv=None) -> list[dict]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", required=True,
                        help="where to write the rows")
    args = parser.parse_args(argv)
    shapes = sorted({(shape, n) for workload in WORKLOADS
                     for shape, n, __ in ops.DECKS[workload]})
    rows = [digest_row(shape, n) for shape, n in shapes]
    with open(args.json, "w") as handle:
        json.dump(rows, handle, indent=1)
    for row in rows:
        print(f"{row['shape']:18s} n={row['n']:5d}  core {row['core_facts']:6d} facts  "
              f"{row['core_sha256'][:12]}")
    print(f"wrote {args.json}")
    wrong = wrong_sizes(rows)
    for line in wrong:
        print(line, file=sys.stderr)
    if wrong:
        raise SystemExit(1)
    return rows


def wrong_sizes(rows: list[dict]) -> list[str]:
    """The rows whose solution or core size is not the deck's closed form
    (``ops.expected_sizes``), one line each."""
    wrong = []
    for row in rows:
        expected = ops.expected_sizes(row["shape"], row["n"])
        measured = (row["solution_facts"], row["core_facts"])
        if measured != expected:
            wrong.append(f"{row['shape']} n={row['n']}: (solution, core) facts "
                         f"{measured}, expected {expected}")
    return wrong


if __name__ == "__main__":
    main()
