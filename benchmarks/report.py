"""Regenerate every paper artifact as text:  python benchmarks/report.py

One section per experiment id of DESIGN.md.  The output of this script is
the data recorded in EXPERIMENTS.md (paper-vs-measured).
"""

from __future__ import annotations

import time

from repro import (
    Pattern,
    clear_chase_cache,
    canonical_instances,
    chase,
    chase_nested,
    count_k_patterns,
    decide_bounded_fblock_size,
    enumerate_k_patterns,
    fact_block_size,
    fblock_profile,
    implies_tgd,
    nested_expressibility_report,
    one_patterns,
    parse_egd,
    parse_instance,
    parse_nested_tgd,
    parse_so_tgd,
    parse_tgd,
)
from repro import perf
from repro.core.canonical import legal_canonical_instances
from repro.engine.chase import chase_so_tgd
from repro.engine.core_instance import core
from repro.engine.gaifman import fblock_degree, full_fact_graph
from repro.engine.model_check import satisfies_nested, satisfies_so
from repro.turing.encoding import run_source_instance
from repro.turing.machine import halting_machine, looping_machine
from repro.turing.reduction import build_reduction, enumeration_chain_length
from repro.workloads import cycle_instance, successor_instance
from repro.workloads.families import SUCCESSOR_FAMILY, SUCCESSOR_Q_FAMILY


SIGMA_STAR = parse_nested_tgd(
    "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) & (S3(x1,x3) -> R3(y1,x3) "
    "& (S4(x3,x4) -> exists y2 . R4(y2,x4))))"
)
INTRO = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
TAU = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
TAU_P = parse_tgd("S2(x2) -> exists z . R(x2, z)")
TAU_PP = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")
SO_48 = parse_so_tgd("S(x,y) -> R(f(x), f(y)) & R(f(y), f(x))")
SO_413 = parse_so_tgd("S(x,y) -> R(f(x), f(y))")
SO_414 = parse_so_tgd("S(x,y) & Q(z) -> R(f(z,x), f(z,y), g(z))")
SO_415 = parse_so_tgd("S(x,y) & Q(z) -> R(f(x,y,z), g(z), x)")
NESTED_415 = parse_nested_tgd("Q(z) -> exists u . (S(x,y) -> exists v . R(v,u,x))")
SIGMA_53 = parse_nested_tgd("Q(z) -> exists y . (P1(z,x1) & P2(z,x2) -> R(y,x1,x2))")
EGD_53 = parse_egd("P1(z,x1) & P1(z,xp) -> x1 = xp")


def section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def fig1() -> None:
    section("FIG1 -- Figure 1: the 1-patterns of sigma (*)")
    patterns = one_patterns(SIGMA_STAR)
    print(f"|P_1(sigma)| = {len(patterns)}   (paper: 8 patterns p1..p8)")
    for index, pattern in enumerate(patterns, start=1):
        print(f"  p{index}: {pattern}")


def fig2() -> None:
    section("FIG2 -- Figure 2: canonical instances of p8")
    p8 = Pattern(1, (Pattern(2), Pattern(3), Pattern(3, (Pattern(4),))))
    canon = canonical_instances(p8, SIGMA_STAR)
    print("I_p8:", ", ".join(sorted(map(repr, canon.source))))
    print("J_p8:", ", ".join(sorted(map(repr, canon.target))))


def fig3() -> None:
    section("FIG3 -- Figure 3: a 3-pattern and its canonical source")
    p8 = Pattern(1, (Pattern(2), Pattern(3), Pattern(3, (Pattern(4),))))
    cloned = p8.with_extra_clone((0,))
    deep = next(i for i, c in enumerate(cloned.children) if c.children)
    cloned = cloned.with_clones((deep, 0), 2)
    canon = canonical_instances(cloned, SIGMA_STAR)
    print("pattern:", cloned)
    print("I_p:", ", ".join(sorted(map(repr, canon.source))))


def ex310() -> None:
    section("EX310/FIG4 -- Example 3.10: the procedure IMPLIES")
    clear_chase_cache()
    print("P_3(tau):", enumerate_k_patterns(TAU, 3))
    with perf.measuring() as stats:
        for name, lhs, expected_k in (("tau'", TAU_P, 2), ("tau''", TAU_PP, 3)):
            result = implies_tgd([lhs], TAU)
            print(
                f"IMPLIES({{{name}}}, tau) = {result.holds}   "
                f"k = {result.k} (paper: {expected_k}), "
                f"patterns checked = {result.patterns_checked}"
            )
            if not result.holds:
                print(f"  refuting pattern: {result.failing_pattern}")
                print(f"  I_p = {result.counterexample_source}")
                print(f"  J_p = {result.counterexample_target}")
        # Repeat the sweep warm: every canonical-instance chase is cached.
        for lhs in (TAU_P, TAU_PP):
            implies_tgd([lhs], TAU)
    print(
        f"engine stats: patterns = {stats.get('implies.patterns')}, "
        f"chase-cache hits = {stats.get('implies.cache_hits')}, "
        f"misses = {stats.get('implies.cache_misses')} "
        f"(second sweep re-chases nothing)"
    )


def fig5() -> None:
    section("FIG5/EX48 -- Example 4.8: odd cycles and the bounded anchor")
    print(f"{'n':>3} {'|core(chase(I_n))|':>20} {'fblock':>8}   (paper: 2n for odd n)")
    for n in (3, 4, 5, 6, 7):
        solution = core(chase(cycle_instance(n), SO_48))
        print(f"{n:>3} {len(solution):>20} {fact_block_size(solution):>8}")
    print("subinstance (path of length 6) core size:",
          len(core(chase(successor_instance(6), SO_48))), "  (collapses: no anchor)")
    print("I_3 core size:", len(core(chase(cycle_instance(3), SO_48))),
          "  (the anchor of Figure 5, right)")


def prop413() -> None:
    section("PROP413 -- Proposition 4.13: f-block vs f-degree on successors")
    profiles = fblock_profile([SO_413], SUCCESSOR_FAMILY, [2, 4, 6, 8])
    print(f"{'n':>3} {'fblock':>7} {'fdegree':>8}   (paper: fblock = n, fdegree = 2)")
    for p in profiles:
        print(f"{p.size:>3} {p.fblock_size:>7} {p.fdegree:>8}")
    report = nested_expressibility_report([SO_413], SUCCESSOR_FAMILY, [2, 4, 6, 8])
    print("verdict:", report.reason)


def fig6() -> None:
    section("FIG6/EX414 -- Example 4.14: clique fact graph, growing null path")
    solution = core(chase(SUCCESSOR_Q_FAMILY(5), SO_414))
    graph = full_fact_graph(solution)
    n = graph.number_of_nodes()
    print(f"fact graph at n=5: {n} nodes, {graph.number_of_edges()} edges "
          f"(complete: {n * (n - 1) // 2})")
    profiles = fblock_profile([SO_414], SUCCESSOR_Q_FAMILY, [2, 3, 4, 5])
    print("null-graph path lengths:", [p.path_length for p in profiles],
          "(paper: grows with n)")
    report = nested_expressibility_report([SO_414], SUCCESSOR_Q_FAMILY, [2, 3, 4, 5])
    print("verdict:", report.reason)


def fig7() -> None:
    section("FIG7/EX415 -- Example 4.15: same f-blocks, nested-expressible")
    left = fblock_profile([SO_414], SUCCESSOR_Q_FAMILY, [3, 4])
    right = fblock_profile([SO_415], SUCCESSOR_Q_FAMILY, [3, 4])
    print("fblock sizes 4.14 vs 4.15:", [p.fblock_size for p in left], "vs",
          [p.fblock_size for p in right], "(identical)")
    profiles = fblock_profile([SO_415], SUCCESSOR_Q_FAMILY, [2, 3, 4, 5])
    print("null-graph path lengths:", [p.path_length for p in profiles],
          "(paper: star, constant 2)")
    print("IMPLIES(so_415, nested_415):", implies_tgd([SO_415], NESTED_415).holds)


def fig8() -> None:
    section("FIG8/THM51 -- Theorem 5.1: Turing-machine enumeration")
    for name, machine in (("halting(3)", halting_machine(3)), ("looping", looping_machine())):
        reduction = build_reduction(machine)
        print(f"{name}: {len(reduction.so_tgd.clauses)} clauses, "
              f"key = {reduction.key_dependency}")
        print(f"  {'n':>3} {'origin chain':>13} {'fdegree':>8}")
        for n in (4, 6, 8, 10):
            source = run_source_instance(machine, "", max_steps=n, length=n)
            target = chase_so_tgd(source, reduction.so_tgd)
            print(f"  {n:>3} {enumeration_chain_length(reduction, target):>13} "
                  f"{fblock_degree(target):>8}")


def ex53() -> None:
    section("EX53 -- Example 5.3: legal canonical instances")
    pattern = Pattern(1, (Pattern(2), Pattern(2)))
    plain = canonical_instances(pattern, SIGMA_53)
    legal = legal_canonical_instances(pattern, SIGMA_53, [EGD_53])
    print("plain I_p:", ", ".join(sorted(map(repr, plain.source))))
    print("legal I_p^s:", ", ".join(sorted(map(repr, legal.source))))
    print("legal J_p^s:", ", ".join(sorted(map(repr, legal.target))))


def hierarchy() -> None:
    section("SEC2-SEP -- the strict hierarchy GLAV < nested < plain SO")
    verdict = decide_bounded_fblock_size([INTRO])
    print("intro nested tgd bounded f-block size:", verdict.bounded,
          "growth:", verdict.growth)
    report = nested_expressibility_report([SO_413], SUCCESSOR_FAMILY, [2, 4, 6, 8])
    print("S(x,y)->R(f(x),f(y)) nested-expressible:", report.nested_expressible)


def model_checking() -> None:
    section("MC -- model checking: FO recursion vs function search")
    print(f"{'n':>3} {'nested (ms)':>12} {'SO (ms)':>9}")
    for n in (2, 4, 6, 8):
        source = SUCCESSOR_Q_FAMILY(n)
        target = chase(source, NESTED_415)
        start = time.perf_counter()
        assert satisfies_nested(source, target, NESTED_415)
        nested_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        assert satisfies_so(source, chase(source, SO_415), SO_415)
        so_ms = (time.perf_counter() - start) * 1000
        print(f"{n:>3} {nested_ms:>12.2f} {so_ms:>9.2f}")


def scaling() -> None:
    section("SCALE-PAT -- non-elementary pattern counts")
    print(f"{'k':>3} {'|P_k(sigma*)|':>15} {'|P_k(tau)|':>12}")
    for k in (1, 2, 3, 4):
        print(f"{k:>3} {count_k_patterns(SIGMA_STAR, k):>15} "
              f"{count_k_patterns(TAU, k):>12}")
    deep = parse_nested_tgd(
        "S1(x1) -> (S2(x2) -> (S3(x3) -> (S4(x4) -> T(x1))))"
    )
    print("depth-4 linear nesting at k=2:", count_k_patterns(deep, 2),
          "(= 3^27: the wall)")


def ablations() -> None:
    section("ABL -- chase variants and engine primitives")
    from repro.engine.chase import chase_st_tgds
    from repro.engine.standard_chase import core_chase, standard_chase

    tgds = [
        parse_tgd("S(x,y) -> R(x,y)"),
        parse_tgd("S(x,y) -> R(x,z)"),
        parse_tgd("S(x,y) & S(y,z) -> R(x,w) & T(w,z)"),
    ]
    source = successor_instance(12)
    oblivious = chase_st_tgds(source, tgds)
    standard = standard_chase(source, tgds)
    minimal = core_chase(source, tgds)
    print(f"oblivious chase: {len(oblivious)} facts, {len(oblivious.nulls())} nulls")
    print(f"standard chase:  {len(standard)} facts, {len(standard.nulls())} nulls")
    print(f"core chase:      {len(minimal)} facts, {len(minimal.nulls())} nulls")


def engine_counters() -> None:
    section("ENGINE -- delta-driven fixpoint counters (repro.perf)")
    from repro.engine.egd_chase import chase_egds

    # A star source: all n roots inherit the same x1 = hub, so n - 1 of the
    # n child-body matching runs are shared via the memo.
    star = parse_instance(", ".join(f"S(hub, v{i})" for i in range(30)))
    with perf.measuring() as stats:
        chase_nested(star, INTRO)
    print(
        f"nested chase forest (intro tgd, star n=30): "
        f"triggers = {stats.get('chase.triggers')}, "
        f"memoized child-match hits = {stats.get('match.memo_hits')}"
    )

    # Two parallel successor chains zipped together by a functionality egd:
    # one new merge becomes derivable per semi-naive round.
    chain = parse_instance(
        ", ".join(["S(root, x1), S(root, y1)"]
                  + [f"S(x{i}, x{i + 1}), S(y{i}, y{i + 1})" for i in range(1, 15)])
    )
    with perf.measuring() as stats:
        chase_egds(chain, [parse_egd("S(z,x) & S(z,y) -> x = y")],
                   allow_constant_merge=True)
    print(
        f"egd chase (merge cascade, depth 15): rounds = {stats.get('chase.rounds')}, "
        f"delta facts = {stats.get('chase.delta_facts')} "
        f"(vs {len(chain)} facts rematched per round naively)"
    )

    # A hub block whose null is pinned by one fact among 40 candidate hubs:
    # AC-3 propagation collapses the hub's domain before any search node.
    from repro.engine.homomorphism import find_homomorphism
    from repro.logic.atoms import Atom
    from repro.logic.instances import Instance
    from repro.logic.values import Constant, Null

    hub = Null("h")
    hom_source = Instance(
        [Atom("R", (hub, Null(f"x{i}"))) for i in range(8)]
        + [Atom("T", (hub, Constant("c")))]
    )
    hom_target = Instance(
        [Atom("R", (Constant(f"h{j}"), Constant(f"y{j}"))) for j in range(40)]
        + [Atom("T", (Constant("h39"), Constant("c")))]
    )
    with perf.measuring() as stats:
        assert find_homomorphism(hom_source, hom_target) is not None
    print(
        f"hom kernel (pinned hub, 40 candidates): "
        f"ac3 revisions = {stats.get('hom.ac3_revisions')}, "
        f"search nodes = {stats.get('hom.search_nodes')}, "
        f"backtracks = {stats.get('hom.backtracks')}"
    )

    # The chase of the star has n isomorphic blocks: the core engine keeps
    # one and drops the other n - 1 by canonical-form deduplication.
    chased_star = chase(star, INTRO)
    with perf.measuring() as stats:
        folded = core(chased_star)
    print(
        f"core engine (star n=30): blocks = {stats.get('core.blocks')}, "
        f"iso folds = {stats.get('core.iso_folds')}, "
        f"eliminations = {stats.get('core.eliminations')}, "
        f"rigid blocks = {stats.get('core.rigid_blocks')} "
        f"(core size {len(folded)})"
    )

    # The same core in id-space: canonical blocks are compared as integer
    # row keys, so the same blocks fold as in the tuple engine, and the
    # kernel's value-id seeder runs AC-3 and search over integer ids,
    # decoding only the core itself.
    with perf.measuring() as stats:
        folded = core(chased_star, backend="columnar")
    print(
        f"columnar core (same star): "
        f"blocks = {stats.get('core.blocks')}, "
        f"iso folds = {stats.get('core.iso_folds')}, "
        f"eliminations = {stats.get('core.eliminations')}, "
        f"kernel calls = {stats.get('hom.kernel_calls')}, "
        f"decoded rows = {stats.get('backend.columnar.decoded_rows')} "
        f"(core size {len(folded)})"
    )

    # And pushed down to SQL: eliminating homomorphisms as SELECT joins,
    # retractions as exact-row DELETEs.
    with perf.measuring() as stats:
        folded = core(chased_star, backend="sql")
    print(
        f"sql core (same star): blocks = {stats.get('core.blocks')}, "
        f"queries = {stats.get('core.sql.queries')}, "
        f"eliminations = {stats.get('core.eliminations')}, "
        f"rigid blocks = {stats.get('core.rigid_blocks')} "
        f"(core size {len(folded)})"
    )


def cache_persistence() -> None:
    section("CACHE -- persistent store: cold vs warm-restart (repro.cache)")
    import tempfile

    import repro.cache as cache

    tau_workload = [(TAU_P,), (TAU_PP,)]
    with tempfile.TemporaryDirectory() as tmp:
        cache.configure(tmp)
        try:
            cache.clear_all_caches()
            with perf.measuring() as cold:
                for (lhs,) in tau_workload:
                    implies_tgd([lhs], TAU)
            # Warm restart: memory tiers dropped, disk tier kept -- the state
            # a fresh process inherits from a populated REPRO_CACHE_DIR.
            cache.clear_all_caches(disk=False)
            with perf.measuring() as warm:
                for (lhs,) in tau_workload:
                    implies_tgd([lhs], TAU)
            stats = cache.cache_stats()
            print(
                f"cold run:  disk misses = {cold.get('cache.disk.misses')}, "
                f"writes = {cold.get('cache.disk.writes')}, "
                f"write bytes = {cold.get('cache.disk.write_bytes')}"
            )
            print(
                f"warm run:  disk hits = {warm.get('cache.disk.hits')}, "
                f"verdict hits = {warm.get('implies.verdict_disk_hits')}, "
                f"read bytes = {warm.get('cache.disk.read_bytes')} "
                f"(re-chases nothing, re-sweeps nothing)"
            )
            print(
                f"store: {stats['entries']} entries, "
                f"{stats['size_bytes']} bytes on disk"
            )
        finally:
            cache.configure()


def extensions() -> None:
    section("EXT -- composition, certain answers, SQL, unfoldings")
    from repro.core.unfoldings import unfolding
    from repro.export.sql import compile_mapping_to_sql, execute_exchange, \
        render_instance_values
    from repro.mappings.composition import compose
    from repro.queries import certain_answers, parse_query
    from repro.workloads.scenarios import SHOP

    first = [
        parse_tgd("Takes(n, co) -> Takes1(n, co)"),
        parse_tgd("Takes(n, co) -> exists s . Student(n, s)"),
    ]
    second = [parse_tgd("Student(n, s) & Takes1(n, co) -> Enrolled(s, co)")]
    composed = compose(first, second)
    print("composition of the FKPT example:", composed)
    print("  plain:", composed.is_plain(), "(equalities appear)")

    query = parse_query("q(i1, i2) :- Purchase(y, i1) & Purchase(y, i2)")
    source = SHOP.source(3)
    nested_certain = certain_answers(query, source, [SHOP.nested])
    flat_certain = certain_answers(query, source, SHOP.flat)
    print(f"co-purchase certain answers: nested {len(nested_certain)}, "
          f"flat {len(flat_certain)}")

    via_sql = execute_exchange(source, [SHOP.nested])
    via_chase = render_instance_values(chase(source, [SHOP.nested]))
    print("SQL execution agrees with the chase:", via_sql.isomorphic(via_chase))
    print("compiled statements:", len(compile_mapping_to_sql([SHOP.nested])))

    sizes = [len(unfolding(INTRO, n)) for n in (1, 2, 3, 4)]
    print("GLAV unfolding sizes of the intro tgd:", sizes, "(an infinite strict chain)")


def static_analysis() -> None:
    section("STATIC -- analyzer verdicts on the paper's dependencies")
    from repro.analysis.static import analyze
    from repro.analysis.termination import termination_report

    named = [
        ("copy", parse_tgd("S(x,y) -> R(x,y)")),
        ("sigma(*)", SIGMA_STAR),
        ("intro", INTRO),
        ("so_413", SO_413),
        ("so_414", SO_414),
        ("diverging", parse_tgd("E(x,y) -> exists z . E(y,z)")),
    ]
    print(f"{'dependency':>10} {'weakly acyclic':>15} {'depth bound':>12}")
    start = time.perf_counter()
    for name, dep in named:
        verdict = termination_report([dep])
        bound = verdict.depth_bound if verdict.weakly_acyclic else "-"
        print(f"{name:>10} {str(verdict.weakly_acyclic):>15} {bound!s:>12}")
    elapsed_ms = (time.perf_counter() - start) * 1000
    report = analyze([dep for _, dep in named])
    print(f"combined report: ok = {report.ok}, "
          f"{len(report.errors)} error(s), {len(report.warnings)} warning(s), "
          f"{len(report.findings)} finding(s) total "
          f"(termination analysis: {elapsed_ms:.1f} ms)")
    for finding in report.errors:
        print(f"  {finding.code}: {finding.message}")


def containment_analysis() -> None:
    section("CONTAIN -- mapping containment Sigma <= Sigma' (Cali-Torlone)")
    from repro.analysis.containment import check_containment, verify_witness
    from repro.core.normalization import optimize_report
    from repro.workloads.families import containment_pair, redundant_ladder_tgds

    with perf.measuring() as stats:
        sigma, sigma_prime = containment_pair(3, contained=True)
        report = check_containment(sigma, sigma_prime)
        print(f"ladder-3 <= weakened-ladder-3: {report.status} "
              f"(tier {report.tier}, proof map over "
              f"{len(report.proof_map())} dependencies)")
        sigma, sigma_prime = containment_pair(3, contained=False)
        report = check_containment(sigma, sigma_prime)
        witness = report.counterexample
        print(f"ladder-3 <= reversed-ladder-3: {report.status}")
        print(f"  witness source: "
              f"{', '.join(str(f) for f in witness.source)}; unmatched: "
              f"{', '.join(str(f) for f in witness.target)}; machine-check: "
              f"{verify_witness(witness, sigma, sigma_prime[0])}")
        opt = optimize_report(redundant_ladder_tgds(3), semantic=True)
        print(f"optimize --semantic on redundant-ladder-3: "
              f"{len(opt.kept) + len(opt.dropped)} -> {len(opt.kept)} "
              f"dependencies, certificate holds = {opt.certificate.holds}")
    print(f"counters: queries = {stats.get('containment.queries')}, "
          f"sweeps = {stats.get('containment.checks')}, "
          f"refuted = {stats.get('containment.refuted')}, "
          f"redundant = {stats.get('containment.redundant')}")


def main() -> None:
    fig1()
    fig2()
    fig3()
    ex310()
    static_analysis()
    containment_analysis()
    fig5()
    prop413()
    fig6()
    fig7()
    fig8()
    ex53()
    hierarchy()
    model_checking()
    scaling()
    ablations()
    engine_counters()
    cache_persistence()
    extensions()
    print("\ndone.")


if __name__ == "__main__":
    main()
