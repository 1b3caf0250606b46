"""Tests for the static cost model (repro.analysis.cost) and budget gates."""

import time

import pytest
from hypothesis import given, settings

from repro.analysis.acyclicity import TerminationClass, classify_termination
from repro.analysis.cost import (
    CC001_PATTERN_LIMIT,
    SATURATION_CAP,
    chase_cost,
    count_k_patterns_saturating,
    saturating_add,
    saturating_mul,
    saturating_pow,
    sweep_cost,
)
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.core.patterns import count_k_patterns
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.errors import BudgetExceeded, DependencyError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_nested_tgd, parse_tgd
from repro.logic.values import Constant

from tests.strategies import same_schema_tgds

SIGMA_STAR = parse_nested_tgd(
    "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) & (S3(x1,x3) -> R3(y1,x3) "
    "& (S4(x3,x4) -> exists y2 . R4(y2,x4))))"
)
SIGMA_STAR_RENAMED = parse_nested_tgd(
    "S1(u1) -> exists w1 . ((S2(u2) -> R2(w1,u2)) & (S3(u1,u3) -> R3(w1,u3) "
    "& (S4(u3,u4) -> exists w2 . R4(w2,u4))))"
)
COPY = parse_tgd("S(x,y) -> R(x,y)")
DIVERGING = parse_tgd("E(x,y) -> exists z . E(y,z)")


class TestSaturatingArithmetic:
    def test_add_clamps(self):
        assert saturating_add(1, 2) == 3
        assert saturating_add(SATURATION_CAP, 1) == SATURATION_CAP

    def test_mul_clamps_without_materializing(self):
        assert saturating_mul(6, 7) == 42
        assert saturating_mul(10**10, 10**10) == SATURATION_CAP
        assert saturating_mul(SATURATION_CAP, 0) == 0

    def test_pow_clamps(self):
        assert saturating_pow(2, 10) == 1024
        assert saturating_pow(10, 1) == 10
        assert saturating_pow(2, 10**9) == SATURATION_CAP
        assert saturating_pow(7, 0) == 1
        assert saturating_pow(1, 10**9) == 1

    def test_pow_agrees_with_exact_below_cap(self):
        for base in (2, 3, 10):
            for exp in range(0, 12):
                assert saturating_pow(base, exp) == base**exp


class TestChaseCost:
    def test_copy_is_linear_in_arity(self):
        est = chase_cost([COPY])
        assert est.degree == 2  # no skolems: degree = max arity
        assert not est.exponential
        assert est.fact_bound(10) is not None

    def test_diverging_has_no_bound(self):
        est = chase_cost([DIVERGING])
        assert est.degree is None
        assert est.exponential
        assert est.fact_bound(10) is None
        assert est.value_bound(10) is None

    def test_skolem_arity_drives_degree(self):
        # f_z(x,y): w = 2, depth 1 -> degree = A * w^D = 2 * 2 = 4
        est = chase_cost([parse_tgd("S(x,y) -> exists z . R(x,z)")])
        assert est.max_skolem_arity == 2
        assert est.degree == 4

    def test_fact_bound_is_monotone_in_n(self):
        est = chase_cost([parse_tgd("S(x,y) -> exists z . R(x,z)")])
        bounds = [est.fact_bound(n) for n in (1, 5, 10, 100)]
        assert bounds == sorted(bounds)

    def test_fact_bound_covers_actual_chase(self):
        tgds = [parse_tgd("S(x) -> exists y . R(x,y)")]
        est = chase_cost(tgds)
        instance = Instance([Atom("S", (Constant(f"a{i}"),)) for i in range(3)])
        result = fixpoint_chase(instance, tgds)
        n = len({arg for fact in instance for arg in fact.args})
        assert len(result.instance) <= est.fact_bound(n)

    def test_reuses_memoized_verdict(self):
        verdict = classify_termination([COPY])
        assert chase_cost([COPY]).termination is verdict

    def test_to_dict_shape(self):
        payload = chase_cost([COPY]).to_dict()
        assert payload["termination_class"] == "weakly-acyclic"
        assert payload["degree"] == 2
        assert payload["exponential"] is False


class TestSweepCost:
    def test_sigma_star_is_non_elementary(self):
        est = sweep_cost([SIGMA_STAR], SIGMA_STAR)
        assert est.k == 9
        assert est.non_elementary
        assert est.pattern_count > CC001_PATTERN_LIMIT
        assert est.cost_units >= est.pattern_count

    def test_flat_rhs_has_one_pattern(self):
        est = sweep_cost([COPY], COPY)
        assert est.pattern_count == 1
        assert not est.non_elementary
        assert est.atoms_per_check == 2

    def test_same_schema_flat_rhs_supported(self):
        # to_nested() would reject this; sweep_cost must not route through it
        est = sweep_cost([DIVERGING], DIVERGING)
        assert est.pattern_count == 1

    def test_saturating_count_agrees_with_exact_when_small(self):
        small = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
        for k in (1, 2, 3):
            assert count_k_patterns_saturating(small, k) == count_k_patterns(small, k)

    def test_saturating_count_clamps_deep_nesting(self):
        assert count_k_patterns_saturating(SIGMA_STAR, 9, cap=10**6) == 10**6

    def test_k_zero_rejected(self):
        with pytest.raises(DependencyError):
            count_k_patterns_saturating(SIGMA_STAR, 0)

    def test_rejects_egd_rhs(self):
        from repro.logic.parser import parse_egd

        with pytest.raises(DependencyError):
            sweep_cost([COPY], parse_egd("R(x,y) & R(x,z) -> y = z"))


class TestImpliesBudget:
    def test_budget_fails_fast_without_enumeration(self):
        # subsumption off: the pre-pass would settle the renamed copy before
        # the sweep (and hence before the budget gate) is ever reached
        started = time.monotonic()
        with pytest.raises(BudgetExceeded) as excinfo:
            implies_tgd(
                [SIGMA_STAR], SIGMA_STAR_RENAMED, budget=10_000, subsumption=False
            )
        elapsed = time.monotonic() - started
        assert elapsed < 2.0  # static prediction, not a partial sweep
        assert excinfo.value.budget == 10_000
        assert excinfo.value.predicted is not None
        assert "CC001" in str(excinfo.value)

    def test_generous_budget_does_not_interfere(self):
        clear_chase_cache()
        intro = parse_nested_tgd(
            "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))"
        )
        result = implies_tgd([intro], intro, budget=10**9, subsumption=False)
        assert result.holds

    def test_no_budget_means_no_gate(self):
        # the max_patterns guard still applies, but no BudgetExceeded
        from repro.errors import ResourceLimitExceeded

        with pytest.raises(ResourceLimitExceeded):
            implies_tgd(
                [SIGMA_STAR], SIGMA_STAR_RENAMED, max_patterns=10, subsumption=False
            )


class TestChaseBudget:
    def test_runtime_cap_on_uncertified_chase(self):
        instance = Instance([Atom("E", (Constant("a"), Constant("b")))])
        with pytest.raises(BudgetExceeded) as excinfo:
            fixpoint_chase(instance, [DIVERGING], max_rounds=50, budget=20)
        assert "CC002" in str(excinfo.value)

    def test_static_elision_for_certified_set_within_budget(self):
        instance = Instance([Atom("S", (Constant("a"), Constant("b")))])
        result = fixpoint_chase(instance, [COPY], budget=10**12)
        assert result.reached_fixpoint

    def test_input_larger_than_budget_rejected(self):
        instance = Instance(
            [Atom("S", (Constant(f"a{i}"), Constant(f"b{i}"))) for i in range(10)]
        )
        with pytest.raises(BudgetExceeded):
            fixpoint_chase(instance, [COPY], budget=5)


class TestCostHierarchyDifferential:
    """Certified sets must reach fixpoint within the predicted fact bound."""

    @settings(max_examples=60, deadline=None)
    @given(tgds=same_schema_tgds())
    def test_certified_sets_terminate_within_bound(self, tgds):
        verdict = classify_termination(tgds, mfa_max_rounds=6, mfa_max_facts=2_000)
        if not verdict.guarantees_termination:
            return
        est = chase_cost(tgds)
        instance = Instance(
            [
                Atom("R", (Constant("a"), Constant("b"))),
                Atom("P", (Constant("a"),)),
                Atom("U", (Constant("a"), Constant("b"), Constant("c"))),
            ]
        )
        n = len({arg for fact in instance for arg in fact.args})
        bound = est.fact_bound(n)
        assert bound is not None
        # every non-fixpoint round adds at least one fact, so the fixpoint
        # arrives within fact_bound + 2 rounds if the certification is sound
        result = fixpoint_chase(instance, tgds, max_rounds=bound + 2)
        assert result.reached_fixpoint, (
            f"certified {verdict.cls.name} set did not reach fixpoint: {tgds}"
        )
        assert len(result.instance) <= bound

    @settings(max_examples=60, deadline=None)
    @given(tgds=same_schema_tgds())
    def test_verdict_consistent_with_mfa_refutation(self, tgds):
        verdict = classify_termination(tgds, mfa_max_rounds=6, mfa_max_facts=2_000)
        if verdict.cls is TerminationClass.NOT_GUARANTEED and verdict.mfa_conclusive:
            # a conclusive MFA refutation comes with a cyclic-term witness
            assert verdict.mfa_cyclic_term is not None
