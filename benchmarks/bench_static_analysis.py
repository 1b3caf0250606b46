"""BENCH-STATIC -- analyzer runtime over representative workload families.

The value proposition of the static layer is that its verdicts cost
microseconds-to-milliseconds while the dynamic work they gate (an unbounded
chase, a non-elementary IMPLIES sweep) costs seconds to forever.  This
benchmark times the three analysis passes -- hierarchy classification
(`classify_termination`), the chase cost model (`chase_cost`), and the full
lint driver (`analyze`) -- over workload families of growing size, with all
memoization caches cleared between runs so the numbers are cold-path.

Families:

- ``chain(n)``: n weakly-acyclic copy tgds ``S_i(x,y) -> R_i(x,y)`` (the
  cheap common case the analyzer must not slow down);
- ``cycle(n)``: an n-relation existential cycle ``E_i(x,y) -> exists z .
  E_{i+1}(y,z)`` (not certified by any rung: the analyzer walks the whole
  hierarchy including the bounded MFA chase);
- ``hierarchy``: the four rung witness sets of
  ``examples/termination_hierarchy.py`` combined;
- ``sigma_star``: the paper's deep-nesting workhorse (CC001 territory);
- ``ladder-3``: the existential ladder whose coarse degree is exponential
  (CC002) but whose per-relation witnesses certify PTIME (CC003);
- ``stratified-40``: the bridged MFA chain only the stratified rung decides.

The ``frontier`` axis times the decidability-frontier passes
(:func:`repro.analysis.frontier.frontier_report`: triangular guardedness +
tier stratification) over the same families, and the ``ladder_chase`` axis
*measures* the polynomial chase the PTIME tier promises: facts and seconds
for the ladder program over growing instances, next to the refined
per-relation bound and the (astronomically larger) coarse CC002 bound.

The ``containment`` axis times the mapping-containment analyzer
(:mod:`repro.analysis.containment`) over the redundant-ladder and
counterexample families of :mod:`repro.workloads.families`: verdict,
refuted/redundant counts, and milliseconds per query.

Run::

    PYTHONPATH=src python benchmarks/bench_static_analysis.py [--json PATH]
"""

import argparse
import json
import pathlib
import time

from repro.analysis.acyclicity import classify_termination
from repro.analysis.cost import chase_cost, sweep_cost
from repro.analysis.frontier import frontier_report
from repro.analysis.static import analyze
from repro.cache import clear_all_caches
from repro.logic.parser import parse_nested_tgd, parse_tgd
from repro.workloads.families import (
    containment_pair,
    ladder_instance,
    ladder_tgds,
    redundant_ladder_tgds,
    stratified_chain_tgds,
)

SIGMA_STAR = parse_nested_tgd(
    "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) & (S3(x1,x3) -> R3(y1,x3) "
    "& (S4(x3,x4) -> exists y2 . R4(y2,x4))))"
)


def chain(n: int) -> list:
    return [parse_tgd(f"S{i}(x,y) -> R{i}(x,y)") for i in range(n)]


def cycle(n: int) -> list:
    return [
        parse_tgd(f"E{i}(x,y) -> exists z . E{(i + 1) % n}(y,z)") for i in range(n)
    ]


def hierarchy() -> list:
    return [
        parse_tgd("P(x,y) -> Q(x,y)"),
        parse_tgd("E(x,y) & E(y,x) -> exists z . E(y,z)"),
        parse_tgd("S(x) -> exists y, z . R(y,z) & R(z,y)"),
        parse_tgd("R(u,u) -> exists w . S(w)"),
        parse_tgd("A(x) -> exists y . L(x,y)"),
        parse_tgd("L(x,y) & B(y) -> exists w . A(w)"),
    ]


def _timed(fn, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        clear_all_caches(disk=False)
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _ladder_chase_axis() -> list[dict]:
    """Measure the chase the PTIME tier certifies: polynomial, not 2^degree."""
    from repro.engine.fixpoint_chase import fixpoint_chase

    deps = ladder_tgds(3)
    report = frontier_report(deps)
    rows = []
    for n in (50, 100, 200, 400):
        instance = ladder_instance(n)
        start = time.perf_counter()
        result = fixpoint_chase(instance, deps)
        elapsed = time.perf_counter() - start
        domain = {value for fact in instance for value in fact.args}
        rows.append(
            {
                "n": n,
                "input_facts": len(instance),
                "chase_facts": len(result.instance),
                "chase_s": elapsed,
                "refined_bound": report.tier.fact_bound(len(domain)),
                "coarse_bound": report.cost.fact_bound(len(domain)),
            }
        )
    return rows


def _containment_axis() -> list[dict]:
    """Time the containment analyzer over known-verdict workload pairs."""
    from repro.analysis.containment import check_containment, redundancy_report
    from repro.core.implication import clear_chase_cache

    rows = []
    for depth in (2, 3):
        for contained in (True, False):
            sigma, sigma_prime = containment_pair(depth, contained=contained)
            clear_chase_cache()
            best = _timed(
                lambda s=sigma, sp=sigma_prime: check_containment(s, sp)
            )
            report = check_containment(sigma, sigma_prime)
            rows.append(
                {
                    "family": f"{'contained' if contained else 'refuted'}-ladder-{depth}",
                    "lhs": len(sigma),
                    "rhs": len(sigma_prime),
                    "status": report.status,
                    "refuted": sum(
                        1 for v in report.verdicts if v.status == "refuted"
                    ),
                    "contain_ms": best * 1000,
                }
            )
    for depth in (2, 3):
        deps = redundant_ladder_tgds(depth)
        clear_chase_cache()
        best = _timed(lambda d=deps: redundancy_report(d))
        entries = redundancy_report(deps)
        rows.append(
            {
                "family": f"redundant-ladder-{depth}",
                "lhs": len(deps),
                "rhs": len(deps),
                "status": "redundancy-scan",
                "refuted": sum(1 for e in entries if e.status == "redundant"),
                "contain_ms": best * 1000,
            }
        )
    return rows


def run_benchmark() -> dict:
    families = {
        "chain-8": chain(8),
        "chain-32": chain(32),
        "cycle-4": cycle(4),
        "cycle-8": cycle(8),
        "hierarchy": hierarchy(),
        "sigma_star": [SIGMA_STAR],
        "ladder-3": ladder_tgds(3),
        "stratified-40": stratified_chain_tgds(40),
    }
    results = []
    frontier_rows = []
    for name, deps in families.items():
        classify_s = _timed(lambda deps=deps: classify_termination(deps))
        cost_s = _timed(lambda deps=deps: chase_cost(deps))
        analyze_s = _timed(lambda deps=deps: analyze(deps))
        frontier_s = _timed(lambda deps=deps: frontier_report(deps))
        clear_all_caches(disk=False)
        verdict = classify_termination(deps)
        report = frontier_report(deps)
        results.append(
            {
                "family": name,
                "dependencies": len(deps),
                "termination_class": verdict.cls.value,
                "classify_ms": classify_s * 1000,
                "chase_cost_ms": cost_s * 1000,
                "analyze_ms": analyze_s * 1000,
            }
        )
        frontier_rows.append(
            {
                "family": name,
                "tier": report.tier.tier.value,
                "triangular_guarded": report.triangular.guarded,
                "max_degree": report.tier.max_degree,
                "frontier_ms": frontier_s * 1000,
            }
        )
    # the CC001 prediction must be cheap even though the sweep it prevents
    # is non-elementary
    sweep_s = _timed(lambda: sweep_cost([SIGMA_STAR], SIGMA_STAR))
    return {
        "benchmark": "BENCH-STATIC",
        "families": results,
        "frontier": frontier_rows,
        "ladder_chase": _ladder_chase_axis(),
        "containment": _containment_axis(),
        "sigma_star_sweep_prediction_ms": sweep_s * 1000,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="write the summary as JSON")
    args = parser.parse_args(argv)
    summary = run_benchmark()
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    header = f"{'family':12s} {'deps':>4s} {'class':24s} {'classify':>9s} {'cost':>8s} {'analyze':>8s}"
    print(header)
    for row in summary["families"]:
        print(
            f"{row['family']:12s} {row['dependencies']:4d} "
            f"{row['termination_class']:24s} {row['classify_ms']:8.2f}m "
            f"{row['chase_cost_ms']:7.2f}m {row['analyze_ms']:7.2f}m"
        )
    print()
    header = f"{'family':14s} {'tier':16s} {'guarded':>7s} {'maxdeg':>6s} {'frontier':>9s}"
    print(header)
    for row in summary["frontier"]:
        degree = "-" if row["max_degree"] is None else str(row["max_degree"])
        print(
            f"{row['family']:14s} {row['tier']:16s} "
            f"{str(row['triangular_guarded']):>7s} {degree:>6s} "
            f"{row['frontier_ms']:8.2f}m"
        )
    print()
    print(f"{'n':>5s} {'facts':>7s} {'chase_s':>8s} {'refined':>9s} {'coarse':>22s}")
    for row in summary["ladder_chase"]:
        print(
            f"{row['n']:5d} {row['chase_facts']:7d} {row['chase_s']:8.3f} "
            f"{row['refined_bound']:9d} {row['coarse_bound']:22d}"
        )
    print()
    header = f"{'containment family':22s} {'lhs':>3s} {'rhs':>3s} {'status':>16s} {'hits':>4s} {'ms':>8s}"
    print(header)
    for row in summary["containment"]:
        print(
            f"{row['family']:22s} {row['lhs']:3d} {row['rhs']:3d} "
            f"{row['status']:>16s} {row['refuted']:4d} {row['contain_ms']:8.2f}"
        )
    print(
        "sigma* sweep prediction: "
        f"{summary['sigma_star_sweep_prediction_ms']:.3f} ms "
        "(the sweep itself would be non-elementary)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
