"""Tests for the decidability-frontier analyzer (repro.analysis.frontier).

Covers the triangular-guardedness certificate, the complexity-tier
stratification with its per-relation degree witnesses, the stratified-MFA
rung it builds on, the new lint codes (TD005-TD007, CC003/CC004), the
``repro analyze`` CLI command, and how the fixpoint chase consults the
certificate.
"""

import json

import pytest

from repro.analysis.acyclicity import (
    TerminationClass,
    classify_termination,
    stratified_mfa,
)
from repro.analysis.frontier import (
    ComplexityTier,
    PTIME_DEGREE_LIMIT,
    describe_witnesses,
    frontier_report,
    tier_report,
    triangular_guard_report,
)
from repro.analysis.static import analyze
from repro.cache import clear_all_caches
from repro.cli import main
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.errors import ChaseError
from repro.logic.parser import (
    parse_egd,
    parse_instance,
    parse_nested_tgd,
    parse_so_tgd,
    parse_tgd,
)
from repro.workloads.families import (
    ladder_instance,
    ladder_tgds,
    stratified_chain_instance,
    stratified_chain_tgds,
)

TRIANGULAR = "R(x,y) -> exists z . R(y,z) & R(z,x)"
DIVERGING = "E(x,y) -> exists z . E(y,z)"
JA_NOT_WA = "E(x,y) & E(y,x) -> exists z . E(y,z)"
SWA_SET = [
    "S(x) -> exists y, z . R(y,z) & R(z,y)",
    "R(u,u) -> exists w . S(w)",
]
MFA_SET = [
    "A(x) -> exists y . L(x,y)",
    "L(x,y) & B(y) -> exists w . A(w)",
]


def tgds(*texts):
    return [parse_tgd(text) for text in texts]


class TestTriangularGuardedness:
    def test_triangle_rule_is_guarded(self):
        report = triangular_guard_report(tgds(TRIANGULAR))
        assert report.guarded
        assert bool(report)
        assert report.witness is None
        assert report.clause_count == 1

    def test_guardedness_is_independent_of_termination(self):
        # The triangle rule diverges -- guardedness says nothing about that.
        verdict = classify_termination(tgds(TRIANGULAR))
        assert not verdict.guarantees_termination
        assert triangular_guard_report(tgds(TRIANGULAR)).guarded

    def test_unguarded_pair_named_in_witness(self):
        report = triangular_guard_report(
            tgds("E(x,y) & E(y,w) -> exists z . T(x,w,z)")
        )
        assert not report.guarded
        assert report.witness == ("d0.0", "w", "x")

    def test_single_frontier_variable_is_trivially_guarded(self):
        assert triangular_guard_report(tgds(DIVERGING)).guarded

    def test_egds_void_the_certificate(self):
        report = triangular_guard_report(
            tgds(TRIANGULAR) + [parse_egd("R(x,y) & R(x,z) -> y = z")]
        )
        assert not report.guarded
        assert report.witness is None
        assert "egd" in report.reason

    def test_skolem_argument_counts_as_frontier(self):
        # z's Skolem term depends on both x and w even though the head atom
        # shows only w; x/w share no body atom.
        report = triangular_guard_report(
            tgds("E(x,y) & E(y,w) -> exists z . T(w,z)")
        )
        assert not report.guarded
        assert report.witness == ("d0.0", "w", "x")

    def test_to_dict_round_trips_witness(self):
        report = triangular_guard_report(
            tgds("E(x,y) & E(y,w) -> exists z . T(x,w,z)")
        )
        data = report.to_dict()
        assert data["guarded"] is False
        assert data["witness"] == ["d0.0", "w", "x"]


class TestComplexityTiers:
    def test_tier_chain_is_ordered(self):
        chain = list(ComplexityTier)
        assert chain == sorted(chain, key=lambda tier: tier.rank)
        assert ComplexityTier.PTIME < ComplexityTier.EXPTIME
        assert ComplexityTier.EXPTIME < ComplexityTier.TWO_EXPTIME
        assert ComplexityTier.TWO_EXPTIME < ComplexityTier.NON_ELEMENTARY
        assert ComplexityTier.PTIME.polynomial
        assert not ComplexityTier.EXPTIME.polynomial

    def test_uncertified_is_non_elementary(self):
        report = tier_report(tgds(DIVERGING))
        assert report.tier is ComplexityTier.NON_ELEMENTARY
        assert not report.refined

    def test_ja_example_is_ptime_with_witnesses(self):
        report = tier_report(tgds(JA_NOT_WA))
        assert report.tier is ComplexityTier.PTIME
        assert report.basis is TerminationClass.JOINTLY_ACYCLIC
        assert report.refined
        assert dict(report.relation_degrees) == {"E": 3}

    def test_ladder_degrees_grow_like_fibonacci(self):
        report = tier_report(ladder_tgds(3))
        assert report.tier is ComplexityTier.PTIME
        assert dict(report.relation_degrees) == {
            "T0": 2, "T1": 3, "T2": 5, "T3": 8,
        }
        assert report.max_degree == PTIME_DEGREE_LIMIT

    def test_deeper_ladder_escapes_ptime(self):
        report = tier_report(ladder_tgds(4))
        assert report.tier is ComplexityTier.EXPTIME
        assert report.refined  # witnesses exist, they are just too big
        assert report.max_degree == 13

    def test_swa_set_is_two_exptime_without_witnesses(self):
        # super-weakly but not jointly acyclic: MFA certifies it
        report = tier_report(tgds(*SWA_SET))
        assert report.tier is ComplexityTier.TWO_EXPTIME
        assert report.basis is TerminationClass.MODEL_FAITHFUL
        assert not report.refined

    def test_mfa_is_two_exptime(self):
        report = tier_report(tgds(*MFA_SET))
        assert report.tier is ComplexityTier.TWO_EXPTIME
        assert report.basis is TerminationClass.MODEL_FAITHFUL

    def test_refined_fact_bound_beats_coarse_on_ladder(self):
        report = frontier_report(ladder_tgds(3))
        refined = report.tier.fact_bound(10)
        coarse = report.cost.fact_bound(10)
        assert refined is not None and coarse is not None
        assert refined < coarse
        assert report.fact_bound(10) == refined

    def test_chase_budget_derives_from_the_tier(self):
        from repro.analysis.cost import chase_budget, chase_cost

        deps = ladder_tgds(3)
        assert chase_budget(deps, 10) == frontier_report(deps).fact_bound(10)
        assert chase_budget(deps, 10) < chase_cost(deps).fact_bound(10)
        assert chase_budget(tgds(DIVERGING), 10) is None
        # without refined witnesses the coarse bound is all there is
        swa = tgds(*SWA_SET)
        assert chase_budget(swa, 10) == chase_cost(swa).fact_bound(10)

    def test_refined_bound_actually_bounds_the_chase(self):
        deps = ladder_tgds(3)
        for n in (2, 5, 9):
            instance = ladder_instance(n)
            domain = {value for fact in instance for value in fact.args}
            result = fixpoint_chase(instance, deps)
            bound = frontier_report(deps).tier.fact_bound(len(domain))
            assert len(result.instance) <= bound


class TestStratifiedMfa:
    def test_long_chain_defeats_monolithic_mfa_but_not_strata(self):
        deps = stratified_chain_tgds(40)
        verdict = classify_termination(deps)
        assert verdict.cls is TerminationClass.STRATIFIED_MFA
        assert verdict.guarantees_termination
        assert verdict.strata_count == 42
        assert not verdict.mfa_conclusive  # the monolithic budget ran out

    def test_certified_chain_runs_unbounded_to_fixpoint(self):
        deps = stratified_chain_tgds(40)
        result = fixpoint_chase(stratified_chain_instance(3), deps)
        assert result.reached_fixpoint
        assert result.termination_class is TerminationClass.STRATIFIED_MFA

    def test_diverging_stratum_is_named(self):
        deps = (
            tgds("P(x) -> S0(x)")
            + [parse_tgd(f"S{i}(x) -> exists y . S{i + 1}(y)") for i in range(40)]
            + tgds(
                "S40(x) -> exists y . Bad(x,y)",
                "Bad(x,y) -> exists z . Bad(y,z)",
            )
        )
        verdict = classify_termination(deps)
        assert verdict.cls is TerminationClass.NOT_GUARANTEED
        assert verdict.strata_witness == ("#43",)
        with pytest.raises(ChaseError, match="TD001"):
            fixpoint_chase(parse_instance("P(a)"), deps)

    def test_strata_read_every_formalism_through_its_clauses(self):
        # The nested tgd reads Q only in its child part, so the s-t tgd
        # writing Q feeds it through the child's clause alone; the SO tgd
        # reads what the nested tgd's child writes.
        gadget = tgds(*MFA_SET)
        chain = gadget + [
            parse_nested_tgd("L(x,y) -> exists u . (P(x,u) & (Q(y,z) -> exists v . N(u,z,v)))"),
            parse_so_tgd("N(x,y,z) -> M(f(x), z)"),
            parse_tgd("S(x) -> exists y . Q(x,y)"),
            parse_tgd("M(x,y) -> exists z . T(y,z)"),
        ]
        assert stratified_mfa(chain) == (True, 5, 6, None)
        assert stratified_mfa(chain[::-1]) == (True, 5, 6, None)
        diverging = chain + tgds("T(x,y) -> exists z . T(y,z)")
        assert stratified_mfa(diverging) == (False, 6, None, ("#7",))
        assert stratified_mfa(diverging[::-1]) == (False, 6, None, ("#1",))
        assert stratified_mfa(stratified_chain_tgds(40)) == (True, 42, 42, None)

    def test_single_scc_yields_no_stratification(self):
        assert stratified_mfa(tgds(DIVERGING)) is None

    def test_stratified_rung_ranks_above_mfa(self):
        assert (
            TerminationClass.MODEL_FAITHFUL.rank
            < TerminationClass.STRATIFIED_MFA.rank
            < TerminationClass.NOT_GUARANTEED.rank
        )


class TestFrontierLintCodes:
    def codes(self, deps):
        return [finding.code for finding in analyze(deps).findings]

    def test_td005_on_guarded_uncertified_set(self):
        codes = self.codes(tgds(TRIANGULAR))
        assert "TD001" in codes and "TD005" in codes

    def test_no_td005_when_certified(self):
        assert "TD005" not in self.codes(tgds(JA_NOT_WA))

    def test_td006_on_certified_above_ptime(self):
        assert "TD006" in self.codes(tgds(*MFA_SET))
        assert "TD006" not in self.codes(tgds(JA_NOT_WA))

    def test_td007_on_stratified_rung(self):
        codes = self.codes(stratified_chain_tgds(40))
        assert "TD007" in codes
        assert "TD001" not in codes

    def test_cc003_demotes_cc002_on_ladder(self):
        codes = self.codes(ladder_tgds(3))
        assert "CC003" in codes
        assert "CC002" not in codes

    def test_cc002_survives_when_witnesses_refuse(self):
        codes = self.codes(ladder_tgds(4))
        # coarse exponential AND the refined degree 13 is still too big
        assert "CC002" in codes
        assert "CC003" not in codes

    def test_cc004_on_small_coarse_degree_without_ptime_witnesses(self):
        assert "CC004" in self.codes(tgds(*SWA_SET))

    def test_report_carries_the_frontier(self):
        report = analyze(ladder_tgds(3))
        assert report.frontier is not None
        assert report.frontier.tier.tier is ComplexityTier.PTIME
        assert "complexity tier" in report.render()
        assert report.to_dict()["frontier"]["tier"]["tier"] == "ptime"


class TestAnalyzeCli:
    def test_certified_set_exits_zero_with_json(self, capsys):
        code = main(["analyze", "--dep", JA_NOT_WA])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is True
        assert payload["tier"]["tier"] == "ptime"
        assert payload["tier"]["relation_degrees"] == {"E": 3}

    def test_uncertified_set_exits_one(self, capsys):
        code = main(["analyze", "--dep", DIVERGING])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is False
        assert payload["tier"]["tier"] == "non-elementary"

    def test_guarded_diverging_set_reports_decidable_reasoning(self, capsys):
        code = main(["analyze", "--dep", TRIANGULAR])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["decidable_reasoning"] is True
        assert payload["triangular"]["guarded"] is True

    def test_witness_mode_prints_degrees(self, capsys):
        code = main(["analyze", "--dep", JA_NOT_WA, "--witnesses"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tier: ptime" in out
        assert "relation degrees: E: n^3" in out

    def test_output_is_deterministic(self, capsys):
        main(["analyze", "--dep", JA_NOT_WA])
        first = capsys.readouterr().out
        clear_all_caches(disk=False)
        main(["analyze", "--dep", JA_NOT_WA])
        assert capsys.readouterr().out == first


class TestTierAwareDispatch:
    """The fixpoint chase consults the frontier certificate only for ``budget=``."""

    def test_non_auto_chase_skips_tier_computation(self, monkeypatch):
        import repro.analysis.frontier as frontier

        def refuse(*args, **kwargs):
            raise AssertionError("frontier_report consulted without budget=")

        monkeypatch.setattr(frontier, "frontier_report", refuse)
        result = fixpoint_chase(ladder_instance(5), ladder_tgds(3))
        assert result.reached_fixpoint

    def test_explicit_budget_overrides_the_forced_one(self):
        # A bounded run of a diverging set stops at max_rounds, inside budget.
        result = fixpoint_chase(
            parse_instance("E(a,b)"), tgds(DIVERGING), max_rounds=3, budget=100,
        )
        assert not result.reached_fixpoint


class TestFrontierReportPlumbing:
    def test_report_is_memoized(self):
        deps = ladder_tgds(2)
        first = frontier_report(deps)
        assert frontier_report(deps) is first
        clear_all_caches(disk=False)
        assert frontier_report(deps) is not first

    def test_json_is_deterministic_and_sorted(self):
        report = frontier_report(tgds(JA_NOT_WA))
        payload = report.to_json()
        assert payload == frontier_report(tgds(JA_NOT_WA)).to_json()
        assert json.loads(payload)["tier"]["relation_degrees"] == {"E": 3}

    def test_describe_witnesses_names_everything(self):
        lines = describe_witnesses(frontier_report(tgds(DIVERGING)))
        text = "\n".join(lines)
        assert "weak-acyclicity cycle" in text
        assert "MFA cyclic term" in text

    def test_decidable_reasoning_disjunction(self):
        assert frontier_report(tgds(JA_NOT_WA)).decidable_reasoning
        assert frontier_report(tgds(TRIANGULAR)).decidable_reasoning
        unguarded_diverging = tgds(
            "E(x,y) & E(y,w) -> exists z . T(x,w,z)", DIVERGING
        )
        assert not frontier_report(unguarded_diverging).decidable_reasoning
