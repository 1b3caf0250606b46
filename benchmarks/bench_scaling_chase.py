"""SCALE-CHASE -- chase runtime scaling per dependency formalism.

Measures ``chase(I, sigma)`` on successor sources of growing length for a
flat s-t tgd, the introduction's nested tgd, and a plain SO tgd.  The nested
tgd's quadratic output (every (x1,x2) root re-scans x3) should dominate the
linear-output flat and SO tgds.

The ``oblivious_chase`` section of ``main`` times cold ``chase`` calls:
the introduction's nested tgd over stars (n^2 facts, every null a Skolem
term), the plain SO tgd over cycles and the flat s-t tgd over successor
relations.  Before each timed call the previous result is dropped and
``gc.collect()`` runs, and the collector is paused during the call, so no
value of an earlier run is still interned (a live earlier result turns
every interning into a table hit).  Each row records the best wall time of
three calls, ``chase.triggers``, the fact count and ``intern.misses``.

The ``test_delta_*`` benchmarks compare the incremental
(:class:`~repro.engine.builder.InstanceBuilder`-backed, semi-naive) engines
against the seed baselines preserved in :mod:`repro.engine.naive`, which
rebuild an immutable :class:`Instance` per fired trigger / fixpoint round.
The delta engines must win by >= 3x at the largest size.

Run as a script to record the comparison in ``BENCH_chase.json``::

    PYTHONPATH=src python benchmarks/bench_scaling_chase.py [--smoke] [--json PATH]
"""

import gc
import time

import pytest

from repro import perf
from repro.engine.chase import chase
from repro.engine.egd_chase import chase_egds
from repro.engine.naive import chase_egds_naive, standard_chase_naive
from repro.engine.standard_chase import standard_chase
from repro.logic import intern
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_egd, parse_nested_tgd, parse_so_tgd, parse_tgd
from repro.logic.values import Constant
from repro.workloads import cycle_instance, star_instance, successor_instance


FLAT = parse_tgd("S(x,y) -> R(x,z)")
NESTED = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
PLAIN_SO = parse_so_tgd("S(x,y) -> R(f(x), f(y))")

STANDARD_TGDS = [
    parse_tgd("S(x,y) -> R(x,y)"),
    parse_tgd("S(x,y) -> exists u . T(x,u)"),
]
CHAIN_EGD = [parse_egd("S(z,x) & S(z,y) -> x = y")]

#: (label, dependency, source generator, sizes, smoke sizes) per cold-chase axis.
OBLIVIOUS_AXES = [
    ("nested-star", NESTED, star_instance, range(20, 141, 20), [20, 60]),
    ("plain-so-cycle", PLAIN_SO, cycle_instance, [1000, 5000, 20000], [500, 2000]),
    ("flat-successor", FLAT, successor_instance, [1000, 5000, 20000], [500, 2000]),
]

STANDARD_SIZES = [50, 100, 200]
EGD_DEPTHS = [10, 20, 40]
SMOKE_STANDARD_SIZES = [20, 40, 80]
SMOKE_EGD_DEPTHS = [5, 10, 20]


def merge_chain(depth: int) -> Instance:
    """A source whose egd chase cascades *depth* rounds deep.

    Two parallel successor chains ``x1 -> ... -> x_depth`` and
    ``y1 -> ... -> y_depth`` hang off one root.  The functionality egd merges
    ``x1 = y1`` in round 1; only after that rewrite do ``S(x1, x2)`` and
    ``S(x1, y2)`` share a first argument and force ``x2 = y2``, and so on --
    exactly one new merge becomes derivable per round.
    """
    facts = [
        Atom("S", (Constant("root"), Constant("x1"))),
        Atom("S", (Constant("root"), Constant("y1"))),
    ]
    for i in range(1, depth):
        facts.append(Atom("S", (Constant(f"x{i}"), Constant(f"x{i + 1}"))))
        facts.append(Atom("S", (Constant(f"y{i}"), Constant(f"y{i + 1}"))))
    return Instance(facts)


def _best_of(func, *args, repeats: int = 3, **kwargs):
    """Minimum wall time of *repeats* runs, and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def cold_chase(source: Instance, dependency, repeats: int = 3) -> dict:
    """Best wall time of *repeats* cold ``chase`` calls, with the run's counts.

    Each call starts with no earlier result alive and the collector paused.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            misses = intern.stats()["misses"]
            with perf.measuring() as stats:
                start = time.perf_counter()
                result = chase(source, dependency)
                elapsed = time.perf_counter() - start
            misses = intern.stats()["misses"] - misses
        finally:
            gc.enable()
        facts = len(result)
        del result
        best = min(best, elapsed)
    return {"wall_s": best, "triggers": stats.get("chase.triggers"),
            "facts": facts, "intern_misses": misses}


def oblivious_chase_rows(smoke: bool = False) -> list[dict]:
    """One :func:`cold_chase` row per axis and size of :data:`OBLIVIOUS_AXES`."""
    rows = []
    for label, dependency, make_source, sizes, smoke_sizes in OBLIVIOUS_AXES:
        for n in smoke_sizes if smoke else sizes:
            rows.append({"axis": label, "n": n, **cold_chase(make_source(n), dependency)})
    return rows


def compare_standard_chase(n: int) -> dict:
    """Time the builder-backed standard chase against the per-trigger-union
    seed baseline on a successor source of length *n*."""
    source = successor_instance(n)
    delta_s, fast = _best_of(standard_chase, source, STANDARD_TGDS)
    naive_s, slow = _best_of(standard_chase_naive, source, STANDARD_TGDS)
    assert fast == slow
    return {"n": n, "delta_s": delta_s, "naive_s": naive_s,
            "speedup": naive_s / delta_s}


def compare_egd_chase(depth: int) -> dict:
    """Time the semi-naive egd chase against the full-rematch seed baseline
    on a merge cascade *depth* fixpoint rounds deep."""
    source = merge_chain(depth)
    delta_s, fast = _best_of(
        chase_egds, source, CHAIN_EGD, allow_constant_merge=True
    )
    naive_s, slow = _best_of(
        chase_egds_naive, source, CHAIN_EGD, allow_constant_merge=True
    )
    assert fast == slow
    return {"depth": depth, "delta_s": delta_s, "naive_s": naive_s,
            "speedup": naive_s / delta_s}


@pytest.mark.parametrize("n", [10, 20, 40])
def test_scale_chase_flat(benchmark, n):
    source = successor_instance(n)
    result = benchmark(chase, source, FLAT)
    assert len(result) == n


@pytest.mark.parametrize("n", [10, 20, 40])
def test_scale_chase_nested(benchmark, n):
    source = successor_instance(n)
    result = benchmark(chase, source, NESTED)
    assert len(result) == n  # on a successor relation each x1 has one x3

def test_scale_chase_nested_fanout(benchmark):
    """A star source makes the nested tgd's inner part fan out: n roots x n
    inner triggerings."""
    from repro.logic.atoms import Atom
    from repro.logic.instances import Instance
    from repro.logic.values import Constant

    n = 15
    star = Instance(
        Atom("S", (Constant("hub"), Constant(f"v{i}"))) for i in range(n)
    )
    result = benchmark(chase, star, NESTED)
    assert len(result) == n * n


@pytest.mark.parametrize("n", [10, 20, 40])
def test_scale_chase_plain_so(benchmark, n):
    source = successor_instance(n)
    result = benchmark(chase, source, PLAIN_SO)
    assert len(result) == n


@pytest.mark.parametrize("n", STANDARD_SIZES)
def test_delta_standard_chase(benchmark, n):
    source = successor_instance(n)
    result = benchmark(standard_chase, source, STANDARD_TGDS)
    assert len(result) == 2 * n


def test_delta_standard_chase_speedup():
    """Acceptance: >= 3x over the seed engine at the largest size."""
    row = compare_standard_chase(STANDARD_SIZES[-1])
    assert row["speedup"] >= 3.0, row


@pytest.mark.parametrize("depth", EGD_DEPTHS)
def test_delta_egd_chase(benchmark, depth):
    source = merge_chain(depth)
    chased, _ = benchmark(
        chase_egds, source, CHAIN_EGD, allow_constant_merge=True
    )
    assert len(chased) == depth  # the two chains zipped into one


def test_delta_egd_chase_speedup():
    """Acceptance: >= 3x over the seed engine at the deepest cascade."""
    row = compare_egd_chase(EGD_DEPTHS[-1])
    assert row["speedup"] >= 3.0, row


def main(argv=None) -> dict:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller sizes (CI smoke run)")
    parser.add_argument("--json", metavar="PATH", default="BENCH_chase.json",
                        help="where to write the results (default: %(default)s)")
    args = parser.parse_args(argv)

    sizes = SMOKE_STANDARD_SIZES if args.smoke else STANDARD_SIZES
    depths = SMOKE_EGD_DEPTHS if args.smoke else EGD_DEPTHS
    report = {
        "benchmark": "scale-chase-delta",
        "smoke": args.smoke,
        "standard_chase": [compare_standard_chase(n) for n in sizes],
        "egd_chase": [compare_egd_chase(d) for d in depths],
        "oblivious_chase": oblivious_chase_rows(args.smoke),
    }
    report["largest_standard_speedup"] = report["standard_chase"][-1]["speedup"]
    report["largest_egd_speedup"] = report["egd_chase"][-1]["speedup"]

    # Merge over any existing file so sections written by other scripts
    # (e.g. bench_backend_chase.py's "backend_chase") survive a re-run.
    try:
        with open(args.json) as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged.update(report)
    report = merged

    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["standard_chase"]:
        print(f"standard n={row['n']:4d}  delta {row['delta_s']:.4f}s  "
              f"naive {row['naive_s']:.4f}s  speedup {row['speedup']:.1f}x")
    for row in report["egd_chase"]:
        print(f"egd depth={row['depth']:3d}  delta {row['delta_s']:.4f}s  "
              f"naive {row['naive_s']:.4f}s  speedup {row['speedup']:.1f}x")
    for row in report["oblivious_chase"]:
        print(f"cold {row['axis']:14s} n={row['n']:5d}  {row['wall_s']:.4f}s  "
              f"triggers {row['triggers']}  facts {row['facts']}  "
              f"intern misses {row['intern_misses']}")
    print(f"wrote {args.json}")
    assert report["largest_standard_speedup"] >= 3.0
    return report


if __name__ == "__main__":
    main()
