"""Command-line interface:  python -m repro.cli <command> ...

Commands
--------
chase       chase a source instance with dependencies (optionally the core)
core        compute the core of an instance with a backend report (JSON)
exchange    run a data exchange with a backend report (tuple/columnar/sql/auto)
implies     run the IMPLIES decision procedure
equivalent  decide logical equivalence of two dependency sets
glav        decide equivalence to a GLAV mapping; print one if it exists
patterns    enumerate the k-patterns of a nested tgd
profile     f-block / f-degree / path-length profile along a family
optimize    redundancy removal + tgd normalization (--semantic, --json)
lint        static analysis: termination verdict + structural lints
analyze     decidability-frontier certificate (tier + guards) as JSON
contain     decide mapping containment Sigma <= Sigma' as JSON
cache       inspect / clear / vacuum the persistent cache store as JSON

Dependencies are given as text (see repro/logic/parser.py); s-t tgds and
nested tgds are auto-detected, SO tgds are recognized by function terms or
``;``-separated clauses.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import DependencyError, ParseError, ReproError
from repro.logic.parser import (
    parse_egd,
    parse_instance,
    parse_nested_tgd,
    parse_so_tgd,
    parse_tgd,
)


def parse_dependency(text: str):
    """Parse a dependency, auto-detecting nested tgd vs SO tgd syntax.

    A flat tgd whose source and target relations overlap is rejected by the
    nested-tgd validator but is a legal s-t tgd (and is exactly what the
    termination analyzer exists to vet), so fall back to :func:`parse_tgd`.

    When *every* grammar rejects the text, re-raise the :class:`ParseError`
    that got the furthest: the SO-tgd parser bails at the first function-free
    token, so its (shallow) error would otherwise mask the nested parser's
    line/column-corrected location of the actual typo.
    """
    errors: list[ParseError] = []
    try:
        return parse_nested_tgd(text)
    except ParseError as exc:
        errors.append(exc)
    except DependencyError:
        return parse_tgd(text)
    try:
        return parse_so_tgd(text)
    except ParseError as exc:
        errors.append(exc)
    raise max(
        errors, key=lambda exc: -1 if exc.position is None else exc.position
    )


def _add_dependency_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dep",
        action="append",
        default=[],
        metavar="TEXT",
        help="a dependency (repeatable)",
    )
    parser.add_argument(
        "--egd",
        action="append",
        default=[],
        metavar="TEXT",
        help="a source egd (repeatable)",
    )


def _dependencies(args) -> list:
    if not args.dep:
        raise SystemExit("at least one --dep is required")
    return [parse_dependency(text) for text in args.dep]


def _egds(args) -> list:
    return [parse_egd(text) for text in args.egd]


def _run_exchange_backend(args):
    """Run the source-to-target chase on the selected backend.

    Returns ``(source, result, choice)``; every backend produces the exact
    fact set of ``chase(source, deps)`` (same ground-Skolem-term nulls).
    """
    from repro.engine.chase import compile_clause_program
    from repro.engine.dispatch import choose_backend
    from repro.export.sql import execute_exchange

    deps = _dependencies(args)
    source = parse_instance(args.instance)
    choice = choose_backend(
        args.backend, input_size=len(source), clauses=compile_clause_program(deps)
    )
    return source, execute_exchange(source, deps, backend=choice.backend), choice


def _backend_banner(source, result, choice) -> str:
    picked = choice.backend
    if choice.was_auto:
        picked += f" (auto: {choice.reason})"
    return (
        f"-- backend: {picked}; "
        f"{len(source)} source row(s) -> {len(result)} target row(s)"
    )


def cmd_chase(args) -> int:
    from repro.engine.core_instance import core

    source, result, choice = _run_exchange_backend(args)
    if args.core:
        result = core(result)
    if args.backend != "tuple":
        print(_backend_banner(source, result, choice))
    for fact in sorted(result, key=repr):
        print(fact)
    return 0


def cmd_core(args) -> int:
    """Compute the core of an instance; print a deterministic JSON report.

    The report carries the backend actually used (with the dispatch reason
    when ``--backend auto`` decided), input/core sizes, and the engine's
    block counters.  Core *size* is deterministic across backends (the
    core is unique up to isomorphism); the fact listing is only printed under
    ``--facts`` because different engines may keep different-but-isomorphic
    representatives.
    """
    import json

    from repro import perf
    from repro.engine.core_instance import core
    from repro.engine.dispatch import choose_core_backend

    instance = parse_instance(args.instance)
    if args.dep:
        from repro.engine.chase import chase

        instance = chase(instance, [parse_dependency(text) for text in args.dep])
    size = len(instance)
    sql_supported = False
    if args.backend == "sql":
        from repro.engine.sql_backend import sql_core_supported

        sql_supported = sql_core_supported(instance)
    choice = choose_core_backend(
        args.backend, input_size=size, sql_supported=sql_supported
    )
    with perf.measuring() as stats:
        result = core(instance, backend=choice.backend)
    report: dict = {
        "backend": choice.backend,
        "requested": args.backend,
        "reason": choice.reason,
        "input_facts": size,
        "core_facts": len(result),
        "blocks": stats.get("core.blocks"),
        "eliminations": stats.get("core.eliminations"),
        "rigid_blocks": stats.get("core.rigid_blocks"),
        "orbit_skips": stats.get("core.orbit_skips"),
        "sql_queries": stats.get("core.sql.queries"),
    }
    if args.facts:
        report["facts"] = sorted(str(fact) for fact in result)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_exchange(args) -> int:
    source, result, choice = _run_exchange_backend(args)
    print(_backend_banner(source, result, choice))
    for relation in sorted(result.relations()):
        print(f"--   {relation}: {len(result.facts_of(relation))} row(s)")
    if not args.counts_only:
        for fact in sorted(result, key=repr):
            print(fact)
    return 0


def cmd_implies(args) -> int:
    from repro.core.implication import implies_tgd

    lhs = [parse_dependency(text) for text in args.lhs]
    rhs = parse_dependency(args.rhs)
    result = implies_tgd(lhs, rhs, source_egds=_egds(args))
    print(f"implies: {result.holds}   (k = {result.k}, "
          f"patterns checked = {result.patterns_checked})")
    if not result.holds:
        print(f"refuting pattern: {result.failing_pattern}")
        print(f"counterexample source: {result.counterexample_source}")
    return 0 if result.holds else 1


def cmd_equivalent(args) -> int:
    from repro.core.implication import equivalent

    left = [parse_dependency(text) for text in args.left]
    right = [parse_dependency(text) for text in args.right]
    verdict = equivalent(left, right, source_egds=_egds(args))
    print(f"equivalent: {verdict}")
    return 0 if verdict else 1


def cmd_glav(args) -> int:
    from repro.core.glav_equivalence import glav_distance_report

    report = glav_distance_report(_dependencies(args), source_egds=_egds(args))
    print(f"bounded f-block size: {report['bounded_fblock_size']}")
    if report["bounded_fblock_size"]:
        print(f"f-block bound: {report['fblock_bound']}")
        if report["equivalent_glav"]:
            print("equivalent GLAV mapping:")
            for tgd in report["equivalent_glav"]:
                print(f"  {tgd}")
        return 0
    print(f"f-block growth under cloning: {report['growth']}")
    print(f"witness pattern: {report['witness_pattern']}")
    print("not equivalent to any GLAV mapping (Theorem 4.1/4.2)")
    return 1


def cmd_patterns(args) -> int:
    from repro.core.patterns import count_k_patterns, enumerate_k_patterns

    tgd = parse_nested_tgd(args.dep[0]) if args.dep else None
    if tgd is None:
        raise SystemExit("one --dep is required")
    count = count_k_patterns(tgd, args.k)
    print(f"|P_{args.k}| = {count}")
    if count <= args.limit:
        for pattern in enumerate_k_patterns(tgd, args.k, max_patterns=args.limit):
            print(f"  {pattern}")
    else:
        print(f"  (more than --limit {args.limit}; not enumerating)")
    return 0


def cmd_profile(args) -> int:
    from repro.core.separation import fblock_profile, nested_expressibility_report
    from repro.workloads.families import (
        CYCLE_FAMILY,
        SUCCESSOR_FAMILY,
        SUCCESSOR_Q_FAMILY,
    )

    families = {
        "successor": SUCCESSOR_FAMILY,
        "successor+Q": SUCCESSOR_Q_FAMILY,
        "odd-cycle": CYCLE_FAMILY,
    }
    family = families[args.family]
    sizes = [int(piece) for piece in args.sizes.split(",")]
    deps = _dependencies(args)
    print(f"{'n':>5} {'fblock':>7} {'fdegree':>8} {'path':>5} {'facts':>6}")
    for profile in fblock_profile(deps, family, sizes):
        print(
            f"{profile.size:>5} {profile.fblock_size:>7} "
            f"{profile.fdegree:>8} {profile.path_length:>5} {profile.core_facts:>6}"
        )
    report = nested_expressibility_report(deps, family, sizes)
    print(f"verdict: {report.reason}")
    return 0


def cmd_sql(args) -> int:
    from repro.export.sql import compile_mapping_to_sql, schema_ddl
    from repro.logic.nested import nested_tgds_from
    from repro.logic.schema import Schema

    deps = nested_tgds_from(_dependencies(args))
    source_schema, target_schema = Schema(), Schema()
    for tgd in deps:
        source_schema = source_schema.union(tgd.source_schema())
        target_schema = target_schema.union(tgd.target_schema())
    print("-- source schema")
    for statement in schema_ddl(source_schema):
        print(f"{statement};")
    print("-- target schema")
    for statement in schema_ddl(target_schema):
        print(f"{statement};")
    print("-- transformation")
    for statement in compile_mapping_to_sql(deps):
        print(f"{statement};")
    return 0


def cmd_certain(args) -> int:
    from repro.queries import certain_answers, parse_query

    deps = _dependencies(args)
    query = parse_query(args.query)
    source = parse_instance(args.instance)
    answers = certain_answers(query, source, deps)
    for answer in sorted(answers, key=repr):
        print(", ".join(str(value.name) for value in answer))
    print(f"-- {len(answers)} certain answer(s)")
    return 0


def cmd_lint(args) -> int:
    import json

    from repro.analysis.sarif import sarif_json
    from repro.analysis.static import analyze, apply_baseline, baseline_fingerprints

    deps = _dependencies(args)
    report = analyze(deps, source_egds=_egds(args))
    if args.write_baseline:
        fingerprints = baseline_fingerprints(report)
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump({"fingerprints": fingerprints}, handle, indent=2)
            handle.write("\n")
        print(f"baseline: {len(fingerprints)} fingerprint(s) -> {args.write_baseline}")
        return 0
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        report = apply_baseline(report, baseline.get("fingerprints", ()))
    if args.sarif:
        print(sarif_json(report))
    elif args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    from repro.analysis.frontier import describe_witnesses, frontier_report

    report = frontier_report(_dependencies(args) + _egds(args))
    if args.witnesses:
        tier = report.tier
        print(f"certified: {report.certified}")
        print(f"decidable reasoning: {report.decidable_reasoning}")
        print(f"tier: {tier.tier.value} (basis {tier.basis.value}): {tier.reason}")
        for line in describe_witnesses(report):
            print(line)
    else:
        print(report.to_json())
    return 0 if report.certified else 1


def cmd_cache(args) -> int:
    """Inspect or maintain the persistent cache store (repro.cache).

    Output is deterministic JSON (sorted keys, stable shape): the store
    path, schema version, per-space entry counts (the ``implies`` and
    ``contain`` verdicts), and on-disk size.  ``clear`` drops every entry;
    ``vacuum`` reclaims file space after evictions.  Without a configured
    store (no ``REPRO_CACHE_DIR`` and no ``--dir``), ``stats`` reports
    ``enabled: false`` and the maintenance actions exit 1.
    """
    import json

    from repro.cache import cache_stats, configure, get_store

    if args.dir:
        configure(args.dir)
    if args.action != "stats":
        store = get_store()
        if store is None:
            print(json.dumps({"enabled": False, "path": None}, sort_keys=True, indent=2))
            return 1
        if args.action == "clear":
            store.clear()
        else:
            store.vacuum()
    print(json.dumps(cache_stats(), sort_keys=True, indent=2))
    return 0


def cmd_optimize(args) -> int:
    from repro.core.normalization import optimize_report

    deps = _dependencies(args)
    report = optimize_report(
        deps, source_egds=_egds(args), semantic=args.semantic, budget=args.budget,
    )
    if args.json:
        print(report.to_json())
        return 0
    print(f"{len(deps)} dependencies -> {len(report.kept)}")
    for dep in report.kept:
        print(f"  {dep}")
    return 0


def cmd_contain(args) -> int:
    from repro.analysis.containment import check_containment

    lhs = [parse_dependency(text) for text in args.lhs]
    rhs = [parse_dependency(text) for text in args.rhs]
    report = check_containment(lhs, rhs, _egds(args), budget=args.budget)
    if args.witnesses and not args.json:
        print(f"containment: {report.status}")
        print(f"certified: {report.certified} (tier {report.tier})")
        witness = report.counterexample
        if witness is not None:
            print(f"refuted dependency: {witness.dependency}")
            print(f"counterexample source: "
                  f"{', '.join(str(f) for f in witness.source)}")
            print(f"unmatched target pattern: "
                  f"{', '.join(str(f) for f in witness.target)}")
        for verdict in report.refusals:
            print(f"refused {verdict.dependency}: {verdict.reason}")
    else:
        print(report.to_json())
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nested dependencies: structure and reasoning (PODS 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    backend_choices = ["tuple", "columnar", "sql", "auto"]

    chase_parser = sub.add_parser("chase", help="chase a source instance")
    _add_dependency_arguments(chase_parser)
    chase_parser.add_argument("--instance", required=True, help="source instance text")
    chase_parser.add_argument("--core", action="store_true", help="return the core")
    chase_parser.add_argument(
        "--backend", choices=backend_choices, default="tuple",
        help="execution backend (default: tuple)",
    )
    chase_parser.set_defaults(func=cmd_chase)

    core_parser = sub.add_parser(
        "core", help="compute the core of an instance with a backend report (JSON)"
    )
    core_parser.add_argument("--instance", required=True, help="instance text")
    core_parser.add_argument(
        "--dep", action="append", default=[], metavar="TEXT",
        help="chase the instance with these dependencies first (repeatable)",
    )
    core_parser.add_argument(
        "--backend", choices=backend_choices, default="auto",
        help="core engine (default: auto)",
    )
    core_parser.add_argument(
        "--facts", action="store_true",
        help="include the core's fact listing in the JSON report",
    )
    core_parser.set_defaults(func=cmd_core)

    exchange_parser = sub.add_parser(
        "exchange", help="run a data exchange (chase) with a backend report"
    )
    _add_dependency_arguments(exchange_parser)
    exchange_parser.add_argument(
        "--instance", required=True, help="source instance text"
    )
    exchange_parser.add_argument(
        "--backend", choices=backend_choices, default="auto",
        help="execution backend (default: auto)",
    )
    exchange_parser.add_argument(
        "--counts-only", action="store_true",
        help="print only the backend report and per-relation row counts",
    )
    exchange_parser.set_defaults(func=cmd_exchange)

    implies_parser = sub.add_parser("implies", help="run the IMPLIES procedure")
    implies_parser.add_argument("--lhs", action="append", default=[], required=True)
    implies_parser.add_argument("--rhs", required=True)
    implies_parser.add_argument("--egd", action="append", default=[])
    implies_parser.set_defaults(func=cmd_implies)

    equivalent_parser = sub.add_parser("equivalent", help="decide logical equivalence")
    equivalent_parser.add_argument("--left", action="append", default=[], required=True)
    equivalent_parser.add_argument("--right", action="append", default=[], required=True)
    equivalent_parser.add_argument("--egd", action="append", default=[])
    equivalent_parser.set_defaults(func=cmd_equivalent)

    glav_parser = sub.add_parser("glav", help="decide equivalence to a GLAV mapping")
    _add_dependency_arguments(glav_parser)
    glav_parser.set_defaults(func=cmd_glav)

    patterns_parser = sub.add_parser("patterns", help="enumerate k-patterns")
    _add_dependency_arguments(patterns_parser)
    patterns_parser.add_argument("--k", type=int, default=1)
    patterns_parser.add_argument("--limit", type=int, default=1000)
    patterns_parser.set_defaults(func=cmd_patterns)

    profile_parser = sub.add_parser("profile", help="f-block profile along a family")
    _add_dependency_arguments(profile_parser)
    profile_parser.add_argument(
        "--family", choices=["successor", "successor+Q", "odd-cycle"],
        default="successor",
    )
    profile_parser.add_argument("--sizes", default="2,4,6,8")
    profile_parser.set_defaults(func=cmd_profile)

    lint_parser = sub.add_parser(
        "lint", help="static analysis: termination verdict + structural lints"
    )
    _add_dependency_arguments(lint_parser)
    lint_format = lint_parser.add_mutually_exclusive_group()
    lint_format.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    lint_format.add_argument(
        "--sarif", action="store_true", help="emit the report as SARIF 2.1.0"
    )
    lint_parser.add_argument(
        "--baseline", metavar="FILE",
        help="suppress findings whose fingerprints appear in this baseline file",
    )
    lint_parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="record the current findings' fingerprints to FILE and exit 0",
    )
    lint_parser.set_defaults(func=cmd_lint)

    analyze_parser = sub.add_parser(
        "analyze",
        help="decidability-frontier certificate: complexity tier, triangular "
        "guardedness, and degree witnesses (JSON; exit 1 when uncertified)",
    )
    _add_dependency_arguments(analyze_parser)
    analyze_parser.add_argument(
        "--witnesses", action="store_true",
        help="print human-readable witness lines instead of JSON",
    )
    analyze_parser.set_defaults(func=cmd_analyze)

    optimize_parser = sub.add_parser("optimize", help="minimize a mapping")
    _add_dependency_arguments(optimize_parser)
    optimize_parser.add_argument(
        "--semantic", action="store_true",
        help="drop semantically redundant dependencies via the certified "
        "containment analysis (attaches an equivalence certificate)",
    )
    optimize_parser.add_argument(
        "--json", action="store_true",
        help="emit kept/dropped dependencies (and the certificate) as "
        "deterministic JSON",
    )
    optimize_parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="explicit IMPLIES sweep budget for uncertified sets (--semantic)",
    )
    optimize_parser.set_defaults(func=cmd_optimize)

    contain_parser = sub.add_parser(
        "contain",
        help="decide mapping containment Sigma <= Sigma' (solution-set "
        "inclusion; JSON; exit 1 unless containment holds)",
    )
    contain_parser.add_argument(
        "--lhs", action="append", default=[], required=True,
        help="a dependency of the contained mapping Sigma (repeatable)",
    )
    contain_parser.add_argument(
        "--rhs", action="append", default=[], required=True,
        help="a dependency of the containing mapping Sigma' (repeatable)",
    )
    contain_parser.add_argument("--egd", action="append", default=[])
    contain_parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="explicit sweep budget admitting queries outside the certified "
        "frontier",
    )
    contain_parser.add_argument(
        "--witnesses", action="store_true",
        help="print human-readable witness/refusal lines instead of JSON",
    )
    contain_parser.add_argument(
        "--json", action="store_true",
        help="force deterministic JSON output (the default; wins over "
        "--witnesses)",
    )
    contain_parser.set_defaults(func=cmd_contain)

    cache_parser = sub.add_parser(
        "cache", help="inspect or maintain the persistent cache store"
    )
    cache_parser.add_argument(
        "action",
        choices=["stats", "clear", "vacuum"],
        help="stats: print store statistics; clear: drop all entries; "
        "vacuum: reclaim on-disk space",
    )
    cache_parser.add_argument(
        "--dir",
        help="cache directory (defaults to the REPRO_CACHE_DIR environment variable)",
    )
    cache_parser.set_defaults(func=cmd_cache)

    sql_parser = sub.add_parser("sql", help="compile a nested GLAV mapping to SQL")
    _add_dependency_arguments(sql_parser)
    sql_parser.set_defaults(func=cmd_sql)

    certain_parser = sub.add_parser("certain", help="certain answers of a CQ")
    _add_dependency_arguments(certain_parser)
    certain_parser.add_argument("--instance", required=True, help="source instance")
    certain_parser.add_argument(
        "--query", required=True, help='a CQ, e.g. "q(x) :- R(x, y)"'
    )
    certain_parser.set_defaults(func=cmd_certain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
