"""SCALE-HOM -- indexed homomorphism kernel and core engine vs the seed baselines.

Three workloads, each with a predictable asymptotic gap:

- **pinpoint**: n independent single-null blocks ``R(c_i, _x_i)`` against n
  ground facts ``R(c_i, d_i)``.  The kernel seeds each block's candidates
  from the per-(relation, position, value) index (O(1) per block); the naive
  finder scans every fact of ``R`` per source fact (O(n) per fact, O(n^2)
  total).
- **hub / hub-unsat**: a star of m spokes ``R(_h, _x_i)`` whose hub null is
  pinned by a single ``T(_h, c)`` fact, against g candidate hubs.  AC-3
  propagation intersects the hub's domain to one value (or none, in the
  unsatisfiable variant) before any search; the naive backtracker re-binds
  the hub g times and re-scans g candidates per spoke.
- **core**: the core of the chase of a star source under the introduction's
  nested tgd -- n isomorphic f-blocks of n facts each that must fold into
  one.  The single-pass worklist engine
  (:func:`repro.engine.core_instance.core`) against the seed loop preserved
  as :func:`repro.engine.naive.core_naive` (restricted immutable instance
  per candidate null, searched by the unindexed
  :func:`~repro.engine.naive.find_homomorphism_naive` in repr fact order,
  restart per elimination).

Further axes compare the core engines:

- **core backends** (``core_backends`` key):
  ``core(backend="tuple"/"columnar"/"sql")`` wall times on the star chase.
- **rigid cores** (``core_rigid`` key): the core of Ex 4.8's SO tgd chased
  over an odd n-cycle -- one rigid, vertex-transitive block of n nulls
  (the paper's counterexample to [FK12, Thm 5.2]) -- with wall time and
  kernel calls on the tuple and columnar engines.  The first failed
  retraction puts every null in its orbit, so the rest are skipped.
- **core dispatch** (``core_auto`` key): tuple, columnar and SQL core wall
  times (SQL only where :func:`~repro.engine.sql_backend.sql_core_supported`
  holds) on the solutions the ``fblock-core`` and ``exchange-core`` e2e
  workloads core: Ex 4.8 even and odd cycles and paths (10-80 facts), the
  introduction's nested tgd over stars (400-19.6k facts) and the flat shop
  exchange (30k facts).  Core sizes are asserted against their closed forms
  and the cores of all engines against each other.  This is the data behind
  ``core(backend="auto")`` running the columnar engine at every size.
- **core on the scenario solutions** (``core_scenarios`` key):
  ``core(backend="auto")`` wall time and the ``core.blocks``,
  ``core.iso_folds``, ``core.eliminations`` and ``core.rigid_blocks``
  counts on the nested and flat solutions of the three Clio-style
  scenarios at n = 2500 and on shop-flat at n = 5000.  Most of their
  blocks share no isomorphism invariant with another block, so this row
  tracks what the core costs where little or nothing folds.

Run as a script to record the comparison in ``BENCH_hom.json``::

    PYTHONPATH=src python benchmarks/bench_scaling_hom.py [--smoke] [--json PATH]

Acceptance: the pinpoint workload must show a >= 10x kernel-vs-naive speedup
at the largest size, and each rigid odd cycle must cost one kernel call per
engine (asserted in smoke runs too -- the perf-smoke CI gate).
"""

import time

import pytest

from repro import perf
from repro.engine.chase import chase, chase_so_tgd
from repro.engine.core_instance import core
from repro.engine.homomorphism import find_homomorphism, is_homomorphism
from repro.engine.naive import core_naive, find_homomorphism_naive
from repro.engine.sql_backend import sql_core_supported
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_nested_tgd, parse_so_tgd
from repro.logic.values import Constant, Null
from repro.workloads import cycle_instance, successor_instance
from repro.workloads.scenarios import ALL_SCENARIOS

NESTED = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
EX48 = parse_so_tgd("S(x,y) -> R(f(x), f(y)) & R(f(y), f(x))")

HOM_SIZES = [100, 200, 400]
SMOKE_HOM_SIZES = [30, 60, 120]
CORE_SIZES = [6, 9, 12]
SMOKE_CORE_SIZES = [4, 6, 8]
RIGID_SIZES = [11, 21, 31]
SMOKE_RIGID_SIZES = [7, 11]

#: (shape, n) pairs of the core dispatch row; shapes as in the e2e decks.
#: The SQL core tries every null of a rigid odd cycle with one join over
#: the whole block, and its time grows about 5x per two more nulls
#: (n = 11, 13, 15, 17: 0.23, 1.3, 6.9, 41 s on a 2-core VM), so below the
#: 64-fact SQL limit the odd cycles stop at n = 15; n = 39 (78 facts) runs
#: on the tuple and columnar engines only.
CORE_AUTO_CASES = (
    [("ex48-odd", n) for n in (5, 11, 15, 39)]
    + [("ex48-even", n) for n in (6, 20, 40)]
    + [("ex48-path", n) for n in (5, 20, 40)]
    + [("intro-star", n) for n in (20, 60, 100, 140)]
    + [("shop-flat", 5000)]
)
SMOKE_CORE_AUTO_CASES = [
    ("ex48-odd", 5), ("ex48-odd", 11), ("ex48-even", 6), ("ex48-path", 5),
    ("intro-star", 20), ("shop-flat", 200),
]

#: (scenario, mapping, n) triples of the core_scenarios row.
CORE_SCENARIO_CASES = [
    (scenario.name, mapping, 2500)
    for scenario in ALL_SCENARIOS for mapping in ("nested", "flat")
] + [("shop", "flat", 5000)]
SMOKE_CORE_SCENARIO_CASES = [
    (scenario.name, mapping, 200)
    for scenario in ALL_SCENARIOS for mapping in ("nested", "flat")
]
CORE_SCENARIO_COUNTERS = ("blocks", "iso_folds", "eliminations", "rigid_blocks")

HUB_SPOKES = 10


def pinpoint_instances(n: int) -> tuple[Instance, Instance]:
    """n independent single-null blocks, each with exactly one image fact."""
    source = Instance(Atom("R", (Constant(f"c{i}"), Null(f"x{i}"))) for i in range(n))
    target = Instance(Atom("R", (Constant(f"c{i}"), Constant(f"d{i}"))) for i in range(n))
    return source, target


def hub_instances(g: int, satisfiable: bool = True) -> tuple[Instance, Instance]:
    """One block: a hub null with HUB_SPOKES spokes, g candidate hub values.

    A single ``T(_h, c0)`` fact pins the hub to the last candidate; in the
    unsatisfiable variant the pinning fact has no image at all.
    """
    hub = Null("h")
    source_facts = [Atom("R", (hub, Null(f"x{i}"))) for i in range(HUB_SPOKES)]
    source_facts.append(Atom("T", (hub, Constant("c0"))))
    target_facts = [
        Atom("R", (Constant(f"h{j}"), Constant(f"y{j}"))) for j in range(g)
    ]
    pin = Constant("c0") if satisfiable else Constant("c1")
    target_facts.append(Atom("T", (Constant(f"h{g - 1}"), pin)))
    return Instance(source_facts), Instance(target_facts)


def star_chase(n: int) -> Instance:
    """Chase of an n-spoke star under NESTED: n isomorphic blocks of n facts."""
    star = Instance(Atom("S", (Constant("hub"), Constant(f"v{i}"))) for i in range(n))
    return chase(star, NESTED)


def _best_of(func, *args, repeats: int = 3, **kwargs):
    """Minimum wall time of *repeats* runs, and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def compare_hom(workload: str, n: int) -> dict:
    """Time the indexed kernel against the naive finder on one workload."""
    source, target, expect = _hom_workload(workload, n)
    kernel_s, kernel_map = _best_of(find_homomorphism, source, target)
    naive_s, naive_map = _best_of(find_homomorphism_naive, source, target)
    assert (kernel_map is not None) == expect, workload
    assert (naive_map is not None) == expect, workload
    if expect:
        assert is_homomorphism(kernel_map, source, target)
        assert is_homomorphism(naive_map, source, target)
    return {"workload": workload, "n": n, "kernel_s": kernel_s,
            "naive_s": naive_s, "speedup": naive_s / kernel_s}


def _hom_workload(workload: str, n: int) -> tuple[Instance, Instance, bool]:
    if workload == "pinpoint":
        source, target = pinpoint_instances(n)
        return source, target, True
    if workload == "hub":
        source, target = hub_instances(n, satisfiable=True)
        return source, target, True
    if workload == "hub_unsat":
        source, target = hub_instances(n, satisfiable=False)
        return source, target, False
    raise ValueError(workload)


def compare_core_backends(n: int) -> dict:
    """Core wall times across the three backends on the star chase."""
    chased = star_chase(n)
    times: dict[str, float] = {}
    results: dict[str, Instance] = {}
    for backend in ("tuple", "columnar", "sql"):
        times[backend], results[backend] = _best_of(core, chased, backend=backend)
    for backend in ("columnar", "sql"):
        assert len(results[backend]) == len(results["tuple"]) == n
        assert results[backend].isomorphic(results["tuple"])
    return {"n": n, "chase_facts": len(chased), "tuple_s": times["tuple"],
            "columnar_s": times["columnar"], "sql_s": times["sql"]}


def compare_core_rigid(n: int) -> dict:
    """Wall time and kernel calls of the core of a rigid odd cycle, per engine.

    The chase of an odd n-cycle under Ex 4.8 is one rigid block of n nulls
    and 2n facts.
    """
    chased = chase_so_tgd(cycle_instance(n), EX48)
    row: dict = {"n": n, "chase_facts": len(chased)}
    for backend in ("tuple", "columnar"):
        with perf.measuring() as stats:
            result = core(chased, backend=backend)
        assert result == chased, backend  # an odd cycle is its own core
        row[f"{backend}_kernel_calls"] = stats.get("hom.kernel_calls")
        row[f"{backend}_s"], __ = _best_of(core, chased, backend=backend)
    return row


def core_auto_solution(shape: str, n: int) -> tuple[Instance, int]:
    """The solution a core dispatch case cores, and its closed-form core size."""
    if shape == "ex48-odd":  # an odd cycle is a core: nothing folds
        return chase_so_tgd(cycle_instance(n), EX48), 2 * n
    if shape == "ex48-even":  # bipartite: folds onto one edge
        return chase_so_tgd(cycle_instance(n), EX48), 2
    if shape == "ex48-path":
        return chase_so_tgd(successor_instance(n), EX48), 2
    if shape == "intro-star":  # n isomorphic blocks of n facts fold to one
        return star_chase(n), n
    if shape == "shop-flat":  # two facts per order survive
        shop = next(s for s in ALL_SCENARIOS if s.name == "shop")
        orders = sum(2 + customer % 2 for customer in range(n))
        return chase(shop.source(n), list(shop.flat)), 2 * orders
    raise ValueError(shape)


def _same_core(left: Instance, right: Instance) -> bool:
    """Cores are isomorphic iff homomorphically equivalent."""
    return left == right or (
        len(left) == len(right)
        and find_homomorphism(left, right) is not None
        and find_homomorphism(right, left) is not None
    )


def compare_core_auto(shape: str, n: int) -> dict:
    """Core wall time per engine on one solution; SQL only where it loads."""
    solution, expected = core_auto_solution(shape, n)
    engines = ["tuple", "columnar"]
    if sql_core_supported(solution):
        engines.append("sql")
    row: dict = {"shape": shape, "n": n, "solution_facts": len(solution),
                 "core_facts": expected, "sql_s": None}
    results: dict[str, Instance] = {}
    for backend in engines:
        row[f"{backend}_s"], results[backend] = _best_of(core, solution, backend=backend)
        assert len(results[backend]) == expected, (shape, n, backend)
    for backend in engines[1:]:
        assert _same_core(results[backend], results["tuple"]), (shape, n, backend)
    row["fastest"] = min(engines, key=lambda backend: row[f"{backend}_s"])
    return row


def scenario_solution(name: str, mapping: str, n: int) -> Instance:
    """The chase of a Clio-style scenario's source under its nested or flat mapping."""
    scenario = next(s for s in ALL_SCENARIOS if s.name == name)
    deps = [scenario.nested] if mapping == "nested" else list(scenario.flat)
    return chase(scenario.source(n), deps)


def measure_core_scenario(name: str, mapping: str, n: int) -> dict:
    """``core(backend="auto")`` wall time and core counters on one scenario solution."""
    solution = scenario_solution(name, mapping, n)
    with perf.measuring() as stats:
        result = core(solution, backend="auto")
    row: dict = {"shape": f"{name}-{mapping}", "n": n, "solution_facts": len(solution),
                 "core_facts": len(result)}
    row.update({key: stats.get(f"core.{key}") for key in CORE_SCENARIO_COUNTERS})
    row["auto_s"], __ = _best_of(core, solution, backend="auto")
    return row


def compare_core(n: int) -> dict:
    """Time the worklist core engine against the seed elimination loop."""
    chased = star_chase(n)
    kernel_s, folded = _best_of(core, chased)
    naive_s, folded_naive = _best_of(core_naive, chased)
    assert len(folded) == len(folded_naive) == n  # one block of n facts survives
    assert find_homomorphism(folded, folded_naive) is not None
    assert find_homomorphism(folded_naive, folded) is not None
    return {"n": n, "chase_facts": len(chased), "kernel_s": kernel_s,
            "naive_s": naive_s, "speedup": naive_s / kernel_s}


@pytest.mark.parametrize("n", [50, 100, 200])
def test_scale_hom_pinpoint(benchmark, n):
    source, target = pinpoint_instances(n)
    mapping = benchmark(find_homomorphism, source, target)
    assert mapping is not None


@pytest.mark.parametrize("g", [50, 100, 200])
def test_scale_hom_hub(benchmark, g):
    source, target = hub_instances(g)
    mapping = benchmark(find_homomorphism, source, target)
    assert mapping is not None and mapping[Null("h")] == Constant(f"h{g - 1}")


@pytest.mark.parametrize("n", CORE_SIZES)
def test_scale_core_star(benchmark, n):
    chased = star_chase(n)
    folded = benchmark(core, chased)
    assert len(folded) == n


def test_hom_kernel_speedup():
    """Acceptance: >= 10x over the naive finder at the largest pinpoint size."""
    row = compare_hom("pinpoint", HOM_SIZES[-1])
    assert row["speedup"] >= 10.0, row


def test_core_rigid_gate():
    """Acceptance: a rigid odd cycle costs one kernel call on each engine."""
    row = compare_core_rigid(SMOKE_RIGID_SIZES[-1])
    assert row["tuple_kernel_calls"] == row["columnar_kernel_calls"] == 1, row


@pytest.mark.parametrize("backend", ["tuple", "columnar", "sql"])
def test_scale_core_backends(benchmark, backend):
    chased = star_chase(SMOKE_CORE_SIZES[-1])

    folded = benchmark(core, chased, backend=backend)
    assert len(folded) == SMOKE_CORE_SIZES[-1]


def main(argv=None) -> dict:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller sizes (CI smoke run)")
    parser.add_argument("--json", metavar="PATH", default="BENCH_hom.json",
                        help="where to write the results (default: %(default)s)")
    args = parser.parse_args(argv)

    hom_sizes = SMOKE_HOM_SIZES if args.smoke else HOM_SIZES
    core_sizes = SMOKE_CORE_SIZES if args.smoke else CORE_SIZES
    rigid_sizes = SMOKE_RIGID_SIZES if args.smoke else RIGID_SIZES
    core_auto_cases = SMOKE_CORE_AUTO_CASES if args.smoke else CORE_AUTO_CASES
    core_scenario_cases = SMOKE_CORE_SCENARIO_CASES if args.smoke else CORE_SCENARIO_CASES
    report = {
        "benchmark": "scale-hom-kernel",
        "smoke": args.smoke,
        "pinpoint": [compare_hom("pinpoint", n) for n in hom_sizes],
        "hub": [compare_hom("hub", n) for n in hom_sizes],
        "hub_unsat": [compare_hom("hub_unsat", n) for n in hom_sizes],
        "core": [compare_core(n) for n in core_sizes],
        "core_backends": [compare_core_backends(n) for n in core_sizes],
        "core_rigid": [compare_core_rigid(n) for n in rigid_sizes],
        "core_auto": [compare_core_auto(shape, n) for shape, n in core_auto_cases],
        "core_scenarios": [measure_core_scenario(*case) for case in core_scenario_cases],
    }
    report["largest_pinpoint_speedup"] = report["pinpoint"][-1]["speedup"]
    report["largest_hub_speedup"] = report["hub"][-1]["speedup"]
    report["largest_core_speedup"] = report["core"][-1]["speedup"]

    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
    for key in ("pinpoint", "hub", "hub_unsat"):
        for row in report[key]:
            print(f"{key:9s} n={row['n']:4d}  kernel {row['kernel_s']:.4f}s  "
                  f"naive {row['naive_s']:.4f}s  speedup {row['speedup']:.1f}x")
    for row in report["core"]:
        print(f"core      n={row['n']:4d}  kernel {row['kernel_s']:.4f}s  "
              f"naive {row['naive_s']:.4f}s  speedup {row['speedup']:.1f}x")
    for row in report["core_backends"]:
        print(f"core_backends      n={row['n']:4d}  "
              f"tuple {row['tuple_s']:.4f}s  columnar {row['columnar_s']:.4f}s  "
              f"sql {row['sql_s']:.4f}s")
    for row in report["core_rigid"]:
        print(f"core_rigid         n={row['n']:4d}  "
              f"tuple {row['tuple_s']:.4f}s ({row['tuple_kernel_calls']} kernel call)  "
              f"columnar {row['columnar_s']:.4f}s "
              f"({row['columnar_kernel_calls']} kernel call)")
    for row in report["core_auto"]:
        sql = "-" if row["sql_s"] is None else f"{row['sql_s']:.4f}s"
        print(f"core_auto {row['shape']:10s} n={row['n']:4d} "
              f"({row['solution_facts']:5d} facts)  tuple {row['tuple_s']:.4f}s  "
              f"columnar {row['columnar_s']:.4f}s  sql {sql}")
    for row in report["core_scenarios"]:
        print(f"core_scenarios {row['shape']:17s} n={row['n']:4d} "
              f"({row['solution_facts']:5d} facts)  auto {row['auto_s']:.4f}s  "
              + "  ".join(f"{key} {row[key]}" for key in CORE_SCENARIO_COUNTERS))
    print(f"wrote {args.json}")
    # The rigid-core gate holds at every size tier (smoke included: the
    # perf-smoke CI job runs this script with --smoke).
    for row in report["core_rigid"]:
        assert row["tuple_kernel_calls"] == row["columnar_kernel_calls"] == 1, row
    if not args.smoke:
        assert report["largest_pinpoint_speedup"] >= 10.0
    return report


if __name__ == "__main__":
    main()
