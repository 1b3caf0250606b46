"""Tests for the static analyzer (`repro.analysis`) and the fixpoint chase.

Covers the acceptance criteria of the analyzer: termination verdicts on the
paper's named dependency families (with depth bounds validated against the
actual Skolem-term nesting the fixpoint chase produces), positive and
negative cases for every lint code in the catalog, JSON serialization, the
`repro lint` CLI exit codes, and the chase-engine gating.
"""

import json

import pytest

from repro import perf
from repro.analysis.static import LINT_CATALOG, AnalysisReport, Finding, analyze
from repro.cache import clear_all_caches
from repro.analysis.termination import (
    format_position,
    position_graph,
    termination_report,
)
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.errors import ChaseError, DependencyError
from repro.logic.atoms import Atom
from repro.logic.nested import NestedTgd, Part
from repro.logic.parser import (
    parse_egd,
    parse_instance,
    parse_nested_tgd,
    parse_so_tgd,
    parse_tgd,
)
from repro.logic.sotgd import SOClause, SOTgd
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant, Variable


COPY = parse_tgd("S(x,y) -> R(x,y)")
INTRO = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
SO_413 = parse_so_tgd("S(x,y) -> R(f(x), f(y))")
SIGMA_STAR = parse_nested_tgd(
    "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) & (S3(x1,x3) -> R3(y1,x3) "
    "& (S4(x3,x4) -> exists y2 . R4(y2,x4))))"
)
DIVERGING = parse_tgd("E(x,y) -> exists z . E(y,z)")


def term_depth(term: object) -> int:
    """Skolem-term nesting depth: 0 for constants, 1 + max(args) for terms."""
    if isinstance(term, FuncTerm):
        return 1 + max((term_depth(arg) for arg in term.args), default=0)
    return 0


def max_null_depth(instance) -> int:
    return max(
        (term_depth(arg) for fact in instance for arg in fact.args), default=0
    )


class TestTerminationVerdicts:
    def test_copy_is_weakly_acyclic_rank_zero(self):
        report = termination_report([COPY])
        assert report.weakly_acyclic
        assert report.max_rank == 0
        assert report.depth_bound == 0
        assert report.special_edge_count == 0

    def test_full_tgd_transitive_closure_rank_zero(self):
        # Cyclic position graph, but every edge is regular: still rank 0.
        tc = parse_tgd("E(x,y) & E(y,z) -> E(x,z)")
        report = termination_report([tc])
        assert report.weakly_acyclic
        assert report.depth_bound == 0

    def test_so_tgd_example_413(self):
        # Section 4.2: S(x,y) -> R(f(x), f(y)) is weakly acyclic, depth 1.
        report = termination_report([SO_413])
        assert report.weakly_acyclic
        assert report.depth_bound == 1
        assert report.special_edge_count > 0

    def test_intro_nested_tgd(self):
        report = termination_report([INTRO])
        assert report.weakly_acyclic
        assert report.depth_bound == 1

    def test_sigma_star(self):
        report = termination_report([SIGMA_STAR])
        assert report.weakly_acyclic
        assert report.depth_bound == 1

    def test_diverging_set_is_flagged(self):
        report = termination_report([DIVERGING])
        assert not report.weakly_acyclic
        assert report.max_rank is None
        assert report.depth_bound is None
        cycle = report.witness_cycle
        assert cycle is not None and len(cycle) >= 2
        assert all(position[0] == "E" for position in cycle)

    def test_two_stage_skolem_chain_has_depth_two(self):
        deps = [
            parse_tgd("S(x) -> exists y . T(x,y)"),
            parse_tgd("T(x,y) -> exists z . U(y,z)"),
        ]
        report = termination_report(deps)
        assert report.weakly_acyclic
        assert report.depth_bound == 2

    def test_egds_contribute_positions_but_no_edges(self):
        egd = parse_egd("P(x,y) & P(x,z) -> y = z")
        report = termination_report([COPY, egd])
        assert report.weakly_acyclic
        assert ("P", 0) in position_graph([COPY, egd]).nodes

    def test_single_dependency_is_accepted_bare(self):
        assert termination_report(COPY).weakly_acyclic

    def test_verdicts_are_memoized(self):
        first = termination_report([INTRO])
        assert termination_report([INTRO]) is first
        clear_all_caches(disk=False)
        assert termination_report([INTRO]) is not first

    def test_non_dependency_is_rejected(self):
        with pytest.raises(DependencyError):
            termination_report(["not a dependency"])

    def test_format_position(self):
        assert format_position(("R", 2)) == "R.2"


class TestDepthBoundValidation:
    """`depth_bound` really bounds the Skolem nesting the chase produces."""

    @pytest.mark.parametrize(
        "deps,instance_text",
        [
            ([COPY], "S(a,b)"),
            ([parse_tgd("S(x,y) -> exists z . R(x,z)")], "S(a,b), S(b,c)"),
            ([INTRO], "S(a,b), S(a,c)"),
            ([SO_413], "S(a,b)"),
            (
                [
                    parse_tgd("S(x) -> exists y . T(x,y)"),
                    parse_tgd("T(x,y) -> exists z . U(y,z)"),
                ],
                "S(a), S(b)",
            ),
        ],
    )
    def test_chase_respects_depth_bound(self, deps, instance_text):
        report = termination_report(deps)
        result = fixpoint_chase(parse_instance(instance_text), deps)
        assert result.reached_fixpoint
        assert max_null_depth(result.instance) <= report.depth_bound

    def test_two_stage_chain_attains_the_bound(self):
        deps = [
            parse_tgd("S(x) -> exists y . T(x,y)"),
            parse_tgd("T(x,y) -> exists z . U(y,z)"),
        ]
        result = fixpoint_chase(parse_instance("S(a)"), deps)
        assert max_null_depth(result.instance) == 2
        assert termination_report(deps).depth_bound == 2


def finding_codes(*deps, egds=()):
    return [f.code for f in analyze(list(deps), list(egds)).findings]


class TestLintCodes:
    def test_nt001_single_use_universal(self):
        assert finding_codes(parse_tgd("S(x,y) -> R(y,y)")) == ["NT001"]

    def test_nt001_negative_on_copy(self):
        assert finding_codes(COPY) == []

    def test_nt002_dead_existential(self):
        dep = parse_nested_tgd("S(x) -> exists y . R(x)")
        assert "NT002" in finding_codes(dep)

    def test_nt002_negative_when_used_in_head(self):
        dep = parse_nested_tgd("S(x) -> exists y . R(x,y)")
        assert "NT002" not in finding_codes(dep)

    def test_nt003_disconnected_body(self):
        dep = parse_tgd("S(x) & T(y) -> R(x,y)")
        assert "NT003" in finding_codes(dep)

    def test_nt003_negative_when_inherited_variable_connects(self):
        # The child body T(x2) alone is one component; inherited x1 anchors it.
        dep = parse_nested_tgd("S(x1) -> exists y . (T(x2) & U(x1,x2) -> R(y,x2))")
        assert "NT003" not in finding_codes(dep)

    def test_nt004_duplicate_body_atom(self):
        dep = parse_tgd("S(x,y) & S(x,y) -> R(x,y)")
        assert "NT004" in finding_codes(dep)

    def test_nt004_negative_on_distinct_atoms(self):
        dep = parse_tgd("S(x,y) & S(y,x) -> R(x,y)")
        assert "NT004" not in finding_codes(dep)

    def test_nt005_subsumed_body_atom_reported_once(self):
        dep = parse_tgd("S(x,y) & S(x,yp) -> R(x)")
        assert finding_codes(dep).count("NT005") == 1

    def test_nt005_negative_when_both_variables_matter(self):
        dep = parse_tgd("S(x,y) & S(x,z) -> R(y,z)")
        assert "NT005" not in finding_codes(dep)

    def test_nt006_empty_part(self):
        x = Variable("x")
        child = Part(universal_vars=(), body=(Atom("T", (x,)),), exist_vars=(), head=())
        root = Part(
            universal_vars=(x,),
            body=(Atom("S", (x,)),),
            exist_vars=(),
            head=(Atom("R", (x,)),),
            children=(child,),
        )
        assert "NT006" in finding_codes(NestedTgd(root=root))

    def test_nt007_child_repeats_parent_body(self):
        dep = parse_nested_tgd("S(x) -> exists y . (R(x,y) & (S(x) -> R(x,y)))")
        assert "NT007" in finding_codes(dep)

    def test_nt007_negative_on_genuinely_nested_trigger(self):
        assert "NT007" not in finding_codes(INTRO)

    def test_nt008_constant_in_head(self):
        x = Variable("x")
        clause = SOClause(
            body=(Atom("S", (x,)),),
            equalities=(),
            head=(Atom("R", (x, Constant("c"))),),
        )
        dep = SOTgd(functions=(), clauses=(clause,))
        assert "NT008" in finding_codes(dep)

    def test_nt009_inter_dependency_subsumption(self):
        stronger = parse_tgd("S(x,y) -> R(x,y) & T(y)")
        weaker = parse_tgd("S(a,b) -> T(b)")
        codes = finding_codes(stronger, weaker)
        assert "NT009" in codes

    def test_nt009_mutual_subsumption_reported_once(self):
        left = parse_tgd("S(x,y) -> R(x,y)")
        right = parse_tgd("S(a,b) -> R(a,b)")
        assert finding_codes(left, right).count("NT009") == 1

    def test_nt010_existential_used_only_in_descendants(self):
        dep = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
        codes = finding_codes(dep)
        assert "NT010" in codes
        assert "NT002" not in codes

    def test_td001_diverging_set(self):
        report = analyze([DIVERGING])
        assert [f.code for f in report.errors] == ["TD001"]
        assert not report.ok
        assert "cycle" in report.errors[0].message

    def test_eg001_trivial_egd(self):
        assert "EG001" in finding_codes(egds=[parse_egd("S(x,y) -> x = x")])

    def test_eg002_disconnected_egd_body(self):
        assert "EG002" in finding_codes(egds=[parse_egd("S(x) & T(y) -> x = y")])

    def test_egd_negative_on_key_constraint(self):
        assert finding_codes(egds=[parse_egd("P(x,y) & P(x,z) -> y = z")]) == []

    def test_every_finding_code_is_in_the_catalog(self):
        report = analyze(
            [DIVERGING, parse_tgd("S(x,y) & S(x,y) -> R(y,y)")],
            [parse_egd("S(x,y) -> x = x")],
        )
        for finding in report.findings:
            severity, _ = LINT_CATALOG[finding.code]
            assert finding.severity == severity

    def test_findings_sort_errors_first(self):
        report = analyze([parse_tgd("S(x,y) -> R(y,y)"), DIVERGING])
        severities = [f.severity for f in report.findings]
        assert severities == sorted(severities, key=["error", "warning", "info"].index)


class TestReportSerialization:
    def test_json_roundtrip(self):
        report = analyze([DIVERGING, parse_tgd("S(x,y) -> R(y,y)")])
        decoded = json.loads(report.to_json())
        assert decoded == report.to_dict()
        assert decoded["ok"] is False
        assert decoded["termination"]["weakly_acyclic"] is False
        codes = [f["code"] for f in decoded["findings"]]
        assert "TD001" in codes and "NT001" in codes

    def test_finding_to_dict_fields(self):
        finding = Finding(
            code="NT001", severity="info", dependency="#1",
            location="part 2", message="m", hint="h",
        )
        assert finding.to_dict() == {
            "code": "NT001", "severity": "info", "dependency": "#1",
            "location": "part 2", "message": "m", "hint": "h",
            "fingerprint": finding.fingerprint,
        }
        # Content-hashed, not process-hashed: stable across runs/machines.
        assert len(finding.fingerprint) == 16
        assert int(finding.fingerprint, 16) >= 0

    def test_report_bool_mirrors_ok(self):
        assert bool(analyze([COPY]))
        assert not bool(analyze([DIVERGING]))

    def test_render_mentions_verdict_and_counts(self):
        text = analyze([COPY, DIVERGING]).render()
        assert "NOT weakly acyclic" in text
        assert "TD001" in text
        assert "error(s)" in text

    def test_render_weakly_acyclic_header(self):
        text = analyze([INTRO]).render()
        assert "weakly acyclic" in text
        assert "chase depth bound 1" in text

    def test_named_dependencies_use_their_names(self):
        dep = parse_tgd("S(x,y) -> R(y,y)", name="sigma_1")
        report = analyze([dep])
        assert report.findings[0].dependency == "sigma_1"


class TestLintCli:
    def test_lint_ok_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "--dep", "S(x,y) -> R(x,y)"]) == 0
        out = capsys.readouterr().out
        assert "weakly acyclic" in out

    def test_lint_diverging_exit_one(self, capsys):
        from repro.cli import main

        assert main(["lint", "--dep", "E(x,y) -> exists z . E(y,z)"]) == 1
        out = capsys.readouterr().out
        assert "TD001" in out

    def test_lint_json_output(self, capsys):
        from repro.cli import main

        code = main([
            "lint", "--json",
            "--dep", "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))",
            "--egd", "P(x,y) & P(x,z) -> y = z",
        ])
        assert code == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["ok"] is True
        assert decoded["termination"]["depth_bound"] == 1
        assert decoded["dependency_count"] == 2

    def test_lint_parse_error_exit_two(self, capsys):
        from repro.cli import main

        assert main(["lint", "--dep", "S(x y) -> R(x)"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFixpointChase:
    def test_weakly_acyclic_runs_unbounded(self):
        tc = parse_tgd("E(x,y) & E(y,z) -> E(x,z)")
        result = fixpoint_chase(parse_instance("E(a,b), E(b,c), E(c,d)"), [tc])
        assert result.reached_fixpoint
        assert len(result.instance) == 6
        assert result.termination.weakly_acyclic

    def test_result_is_iterable_and_contains_input(self):
        source = parse_instance("S(a,b)")
        result = fixpoint_chase(source, [COPY])
        facts = set(result)
        assert set(source) <= facts
        assert any(fact.relation == "R" for fact in facts)

    def test_diverging_without_bound_refuses(self):
        with pytest.raises(ChaseError) as excinfo:
            fixpoint_chase(parse_instance("E(a,b)"), [DIVERGING])
        assert "TD001" in str(excinfo.value)
        assert "max_rounds" in str(excinfo.value)

    def test_diverging_with_bound_truncates(self):
        result = fixpoint_chase(
            parse_instance("E(a,b)"), [DIVERGING], max_rounds=3
        )
        assert not result.reached_fixpoint
        assert result.rounds == 3
        assert max_null_depth(result.instance) == 3  # each round nests one Skolem

    def test_round_counter_is_recorded(self):
        with perf.measuring() as stats:
            fixpoint_chase(parse_instance("E(a,b), E(b,c)"),
                           [parse_tgd("E(x,y) & E(y,z) -> E(x,z)")])
        assert stats.get("chase.fixpoint_rounds") >= 2

    def test_nested_tgd_input(self):
        result = fixpoint_chase(parse_instance("S(a,b), S(a,c)"), INTRO)
        relations = {fact.relation for fact in result}
        assert "R" in relations
        assert result.reached_fixpoint

    def test_so_tgd_input(self):
        result = fixpoint_chase(parse_instance("S(a,b)"), SO_413)
        r_facts = [fact for fact in result if fact.relation == "R"]
        assert len(r_facts) == 1
        assert max_null_depth(result.instance) == 1

    def test_non_dependency_is_rejected(self):
        # The termination pass runs first, so its DependencyError surfaces.
        with pytest.raises(DependencyError):
            fixpoint_chase(parse_instance("S(a)"), ["garbage"])
