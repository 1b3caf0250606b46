"""LINT-SELFCHECK -- run the static analyzer over the repo's own corpora.

The dependency programs this repository ships -- the workload scenarios, the
paper's canonical dependencies, and every dependency literal appearing in the
``examples/`` scripts -- are exactly the programs the analyzer should be able
to vet without surprises.  This script runs :func:`repro.analysis.static.analyze`
over each corpus and writes one JSON artifact with the full reports, which CI
uploads next to the ``BENCH_*.json`` files.

The self-check *fails* (exit code 1) if any corpus produces an error-severity
finding: the shipped corpora are all hierarchy-certified by construction
(most weakly acyclic, the termination-hierarchy tour deliberately higher), so
an error here means either a corpus regression or an analyzer regression.

With ``--sarif PATH`` the script additionally writes one aggregated SARIF
2.1.0 log with one run per corpus -- the artifact the ``lint-sarif`` CI job
uploads for code-scanning consumption.  The summary also tallies which
termination (``TD00x``) and cost (``CC00x``) codes fired across the corpora,
so coverage of the new analyzer passes is visible at a glance.

With ``--analyze PATH`` it writes one *deterministic* JSON document of
decidability-frontier certificates (:func:`repro.analysis.frontier.
frontier_report` per corpus: tier, guards, degree witnesses) -- no timings,
sorted keys, so two runs must produce byte-identical files; the ``lint-sarif``
CI job runs it twice and diffs the artifacts to pin the analyzer's
determinism.

Run::

    PYTHONPATH=src python benchmarks/lint_selfcheck.py \\
        [--json PATH] [--sarif PATH] [--analyze PATH]
"""

import argparse
import ast
import json
import pathlib
import sys
import time

from repro.analysis.static import analyze
from repro.errors import ReproError
from repro.logic.parser import parse_nested_tgd, parse_so_tgd, parse_tgd

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

_PARSERS = {
    "parse_tgd": parse_tgd,
    "parse_nested_tgd": parse_nested_tgd,
    "parse_so_tgd": parse_so_tgd,
}


def _literal_dependencies(script: pathlib.Path) -> list:
    """Extract the dependencies built from string literals in an example script.

    Scans the AST for ``parse_tgd`` / ``parse_nested_tgd`` / ``parse_so_tgd``
    calls whose first argument is a (possibly implicitly concatenated) string
    literal, and parses each one.  The scripts are not executed.
    """
    deps = []
    tree = ast.parse(script.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        parser = _PARSERS.get(name or "")
        if parser is None or not node.args:
            continue
        try:
            text = ast.literal_eval(node.args[0])
        except ValueError:
            continue
        if not isinstance(text, str):
            continue
        try:
            deps.append(parser(text))
        except ReproError:
            # Some examples demonstrate *rejected* inputs on purpose.
            continue
    return deps


def corpora() -> dict[str, list]:
    """The dependency corpora to self-check, keyed by corpus name."""
    from repro.workloads.scenarios import ALL_SCENARIOS

    result: dict[str, list] = {}
    for scenario in ALL_SCENARIOS:
        result[f"scenario:{scenario.name}:nested"] = [scenario.nested]
        result[f"scenario:{scenario.name}:flat"] = list(scenario.flat)
    for script in sorted(EXAMPLES_DIR.glob("*.py")):
        deps = _literal_dependencies(script)
        if deps:
            result[f"example:{script.stem}"] = deps
    return result


def run_selfcheck() -> tuple[dict, dict]:
    """Analyze every corpus; return (JSON-ready summary, aggregated SARIF log)."""
    from repro.analysis.sarif import SARIF_SCHEMA, sarif_report

    reports = {}
    errors = 0
    code_counts: dict[str, int] = {}
    sarif_runs = []
    start = time.perf_counter()
    for name, deps in corpora().items():
        report = analyze(deps)
        reports[name] = report.to_dict()
        errors += len(report.errors)
        for finding in report.findings:
            code_counts[finding.code] = code_counts.get(finding.code, 0) + 1
        sarif_runs.append(sarif_report(report, tool_name=f"repro-lint:{name}")["runs"][0])
    elapsed = time.perf_counter() - start
    summary = {
        "benchmark": "LINT-SELFCHECK",
        "corpora": len(reports),
        "error_findings": errors,
        "finding_codes": dict(sorted(code_counts.items())),
        "analyzer_runtime_s": elapsed,
        "reports": reports,
    }
    sarif_log = {"$schema": SARIF_SCHEMA, "version": "2.1.0", "runs": sarif_runs}
    return summary, sarif_log


def run_analyze() -> dict:
    """Frontier certificates for every corpus -- fully deterministic JSON."""
    from repro.analysis.frontier import frontier_report
    from repro.cache import clear_all_caches

    clear_all_caches(disk=False)
    return {
        name: frontier_report(deps).to_dict()
        for name, deps in sorted(corpora().items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="write the summary as JSON")
    parser.add_argument(
        "--sarif", metavar="PATH", help="write an aggregated SARIF 2.1.0 log"
    )
    parser.add_argument(
        "--analyze", metavar="PATH",
        help="write deterministic frontier certificates (tier/guards/degrees)",
    )
    args = parser.parse_args(argv)
    summary, sarif_log = run_selfcheck()
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    if args.sarif:
        pathlib.Path(args.sarif).write_text(
            json.dumps(sarif_log, indent=2, sort_keys=True) + "\n"
        )
    if args.analyze:
        pathlib.Path(args.analyze).write_text(
            json.dumps(run_analyze(), indent=2, sort_keys=True) + "\n"
        )
    for name, report in summary["reports"].items():
        cls = (report.get("hierarchy") or {}).get("class", "?")
        counts = {}
        for finding in report["findings"]:
            counts[finding["severity"]] = counts.get(finding["severity"], 0) + 1
        print(f"{name:45s} {cls:22s} findings={counts or '{}'}")
    print(f"finding codes: {summary['finding_codes'] or '{}'}")
    print(
        f"{summary['corpora']} corpora analyzed in "
        f"{summary['analyzer_runtime_s'] * 1000:.1f} ms, "
        f"{summary['error_findings']} error finding(s)"
    )
    return 1 if summary["error_findings"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
