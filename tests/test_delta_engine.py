"""Differential tests for the delta-driven engine and the incremental sweep.

The incremental engines (InstanceBuilder-backed chases, the semi-naive egd
fixpoint, the memoized nested chase) must agree with the seed baselines kept
in :mod:`repro.engine.naive`, and the DAG-incremental `implies_tgd` sweep must
agree with the from-scratch one -- including the failing-pattern diagnostics.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.engine.builder import InstanceBuilder
from repro.engine.chase import chase
from repro.engine.egd_chase import chase_egds, satisfies_egds
from repro.engine.homomorphism import find_homomorphism
from repro.engine.matching import find_matches
from repro.engine.naive import chase_egds_naive, standard_chase_naive
from repro.engine.standard_chase import standard_chase
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_egd, parse_instance, parse_nested_tgd, parse_tgd
from repro.logic.values import Constant
from repro.workloads.generators import random_instance

from tests.strategies import SOURCE_RELATIONS, nested_tgds
from tests.test_incremental_sweep import fresh_sweep


random_sources = st.integers(0, 10_000).map(
    lambda seed: random_instance(SOURCE_RELATIONS, fact_count=8, domain_size=4, seed=seed)
)


class TestInstanceBuilder:
    def test_add_and_freeze_matches_instance(self):
        inst = parse_instance("S(a,b), S(b,c), Q(a)")
        builder = InstanceBuilder()
        delta = builder.add_all(inst)
        assert len(delta) == 3
        frozen = builder.freeze()
        assert frozen == inst
        assert frozen.facts_of("S") == inst.facts_of("S") or set(
            frozen.facts_of("S")
        ) == set(inst.facts_of("S"))
        assert frozen.nulls() == inst.nulls()
        assert frozen.constants() == inst.constants()

    def test_add_is_idempotent(self):
        builder = InstanceBuilder(parse_instance("S(a,b)"))
        fact = next(iter(parse_instance("S(a,b)")))
        assert not builder.add(fact)
        assert len(builder) == 1

    def test_discard_maintains_indexes(self):
        inst = parse_instance("S(a,b), S(a,c)")
        builder = InstanceBuilder(inst)
        fact = next(f for f in inst if f.args[1] == Constant("b"))
        assert builder.discard(fact)
        assert not builder.discard(fact)
        assert len(builder.facts_with("S", 0, Constant("a"))) == 1
        assert builder.facts_containing(Constant("b")) == frozenset()
        assert Constant("b") not in builder.active_domain()
        assert builder.freeze() == parse_instance("S(a,c)")

    def test_freeze_is_snapshot(self):
        builder = InstanceBuilder(parse_instance("S(a,b)"))
        frozen = builder.freeze()
        builder.add_all(parse_instance("S(b,c)"))
        assert len(frozen) == 1
        assert len(builder.freeze()) == 2

    def test_matching_runs_against_builder(self):
        builder = InstanceBuilder(parse_instance("S(a,b), S(b,c)"))
        matches = list(find_matches(parse_instance("S(a,b)").facts_of("S"), builder))
        assert len(matches) == 1

    @settings(max_examples=30, deadline=None)
    @given(source=random_sources)
    def test_builder_roundtrip_random(self, source):
        assert InstanceBuilder(source).freeze() == source


class TestStandardChaseAgreesWithSeed:
    TGDS = [
        parse_tgd("S(x,y) -> R(x,y)"),
        parse_tgd("S(x,y) -> R(x,z)"),
        parse_tgd("S(x,y) & S(y,z) -> R(x,w) & P(w)"),
    ]

    @settings(max_examples=25, deadline=None)
    @given(source=random_sources)
    def test_identical_results(self, source):
        assert standard_chase(source, self.TGDS) == standard_chase_naive(
            source, self.TGDS
        )


class TestEgdChaseAgreesWithSeed:
    EGDS = [
        parse_egd("S(z,x) & S(z,y) -> x = y"),
        parse_egd("T(x,y) & T(y,x) -> x = y"),
    ]

    @settings(max_examples=40, deadline=None)
    @given(source=random_sources)
    def test_identical_fixpoints(self, source):
        fast, fast_eq = chase_egds(source, self.EGDS, allow_constant_merge=True)
        slow, slow_eq = chase_egds_naive(source, self.EGDS, allow_constant_merge=True)
        assert fast == slow
        assert fast_eq == slow_eq
        assert satisfies_egds(fast, self.EGDS)

    def test_cascading_chain_merges(self):
        # A merge cascade n rounds deep: two parallel successor chains off one
        # root; the round-i merge x_i = y_i is what makes the round-(i+1)
        # match S(x_i, x_{i+1}) & S(x_i, y_{i+1}) appear at all.
        n = 12
        facts = [
            Atom("S", (Constant("root"), Constant("x1"))),
            Atom("S", (Constant("root"), Constant("y1"))),
        ]
        for i in range(1, n):
            facts.append(Atom("S", (Constant(f"x{i}"), Constant(f"x{i + 1}"))))
            facts.append(Atom("S", (Constant(f"y{i}"), Constant(f"y{i + 1}"))))
        source = Instance(facts)
        egd = [parse_egd("S(z,x) & S(z,y) -> x = y")]
        with perf.measuring() as stats:
            fast, fast_eq = chase_egds(source, egd, allow_constant_merge=True)
        slow, slow_eq = chase_egds_naive(source, egd, allow_constant_merge=True)
        assert fast == slow
        assert fast_eq == slow_eq
        assert len(fast) == n  # the two chains zipped into one
        # x_i and y_i collapsed at every level, one fixpoint round per level
        assert all(fast_eq[Constant(f"x{i}")] == fast_eq[Constant(f"y{i}")]
                   for i in range(1, n + 1))
        assert stats.get("chase.rounds") >= n


class TestNestedChaseAgreement:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(tgd=nested_tgds(max_depth=3, max_children=2), source=random_sources)
    def test_memoized_chase_isomorphic_to_sotgd_chase(self, tgd, source):
        """The memoized nested chase equals the chase of the Skolemized SO tgd
        (a memoization-free code path) on random mappings."""
        from repro.engine.chase import _rename_functions_apart, chase_so_tgd
        from repro.engine.nested_chase import chase_nested

        via_nested = chase_nested(source, tgd, function_prefix="d0_").instance
        via_so = chase_so_tgd(source, _rename_functions_apart(tgd.skolemize(), "d0_"))
        assert via_nested == via_so or via_nested.isomorphic(via_so)


class TestParallelImpliesAgreesWithSerial:
    PAIRS = [
        ([parse_tgd("S2(x2) -> exists z . R(x2, z)")],
         parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")),
        ([parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")],
         parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")),
        ([parse_tgd("S(x,y) -> exists z . R(x,z)")],
         parse_nested_tgd("S(x,y) -> R(x,y)")),
        ([parse_nested_tgd(
            "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")],
         parse_nested_tgd("S(u1,u2) -> exists w . (R(w,u2) & (S(u1,u3) -> R(w,u3)))")),
    ]

    @pytest.mark.parametrize("lhs,rhs", PAIRS)
    def test_verdict_and_diagnostics_agree(self, lhs, rhs):
        """The incremental sweep against the from-scratch one, subsumption
        off so that every pair runs a real pattern sweep."""
        clear_chase_cache()
        fresh = fresh_sweep(lhs, rhs)
        clear_chase_cache()
        incremental = implies_tgd(lhs, rhs, subsumption=False)
        assert incremental.patterns_checked > 0
        assert incremental.holds == fresh.holds
        assert incremental.k == fresh.k
        assert incremental.patterns_checked == fresh.patterns_checked
        assert incremental.failing_pattern == fresh.failing_pattern
        if not incremental.holds:
            # constants are named in attachment order vs canonical DFS order
            assert incremental.counterexample_source.isomorphic(
                fresh.counterexample_source, rename_constants=True
            )
            witness = incremental.counterexample_source
            assert find_homomorphism(chase(witness, [rhs]), chase(witness, lhs)) is None


class TestChaseCache:
    def test_second_sweep_hits_cache(self):
        lhs = [parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")]
        rhs = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
        clear_chase_cache()
        with perf.measuring() as stats:
            first = implies_tgd(lhs, rhs)
            assert stats.get("implies.cache_hits") == 0
            second = implies_tgd(lhs, rhs)
        assert first.holds and second.holds
        assert stats.get("implies.cache_hits") == second.patterns_checked
        assert stats.get("implies.cache_misses") == first.patterns_checked

    def test_cache_distinguishes_sigma(self):
        rhs = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
        good = [parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")]
        bad = [parse_tgd("S2(x2) -> exists z . R(x2, z)")]
        clear_chase_cache()
        assert implies_tgd(good, rhs).holds
        assert not implies_tgd(bad, rhs).holds
        # and the other order, with a warm cache
        assert not implies_tgd(bad, rhs).holds
        assert implies_tgd(good, rhs).holds


class TestPerfCounters:
    def test_egd_chase_records_rounds_and_deltas(self):
        egd = [parse_egd("S(z,x) & S(z,y) -> x = y")]
        source = parse_instance("S(a,b), S(a,c), S(b,d), S(c,e)")
        with perf.measuring() as stats:
            chased, __ = chase_egds(source, egd, allow_constant_merge=True)
        assert satisfies_egds(chased, egd)
        assert stats.get("chase.rounds") >= 2
        assert stats.get("chase.delta_facts") >= 1

    def test_standard_chase_records_triggers(self):
        with perf.measuring() as stats:
            standard_chase(parse_instance("S(a,b), S(b,c)"),
                           [parse_tgd("S(x,y) -> R(x,y)")])
        assert stats.get("chase.triggers") == 2
