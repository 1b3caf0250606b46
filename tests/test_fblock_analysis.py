"""Tests for f-block size analysis (Theorems 4.4, 4.9, 4.10, 4.11, 5.5)."""

import pytest

from repro.core.fblock_analysis import (
    bounded_anchor_witness,
    decide_bounded_fblock_size,
    decide_bounded_fblock_size_exhaustive,
    enumerate_source_instances,
    fblock_threshold,
    max_pattern_body_atoms,
)
from repro.errors import ResourceLimitExceeded
from repro.logic.parser import parse_egd, parse_nested_tgd, parse_tgd
from repro.logic.schema import Schema


class TestGrowthDecision:
    def test_intro_nested_is_unbounded(self, intro_nested):
        verdict = decide_bounded_fblock_size([intro_nested])
        assert not verdict.bounded
        assert verdict.witness_pattern is not None
        # growth must be strictly increasing at the tail
        assert verdict.growth[-1] > verdict.growth[-2]

    def test_flat_tgd_is_bounded(self):
        verdict = decide_bounded_fblock_size([parse_tgd("S(x,y) -> R(x,z)")])
        assert verdict.bounded
        assert verdict.bound == 1

    def test_flat_tgd_with_two_head_atoms(self):
        verdict = decide_bounded_fblock_size(
            [parse_tgd("S(x,y) -> R(x,z) & T(z,y)")]
        )
        assert verdict.bounded
        assert verdict.bound == 2

    def test_nested_without_shared_nulls_is_bounded(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> T(x1, x2))")
        assert decide_bounded_fblock_size([tgd]).bounded

    def test_nested_with_ground_child_is_bounded(self):
        tgd = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (P(x3) -> U(x3)))")
        assert decide_bounded_fblock_size([tgd]).bounded

    def test_child_existential_not_shared_is_bounded(self):
        # each child triggering gets its own null: blocks stay small
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> exists y . T(x1, x2, y))")
        assert decide_bounded_fblock_size([tgd]).bounded

    def test_nested_415_is_unbounded(self, nested_415):
        """Example 4.15's nested tgd shares u across all (x, y): unbounded."""
        assert not decide_bounded_fblock_size([nested_415]).bounded

    def test_paper_sigma_star_is_bounded(self, sigma_star):
        """sigma (*) shares y1 = f(x1) between parts 2 and 3, but part 2's
        body S2(x2) triggers per x2 with the SAME null y1, so the block grows:
        actually unbounded -- cloning part 2 grows R2(y1, x2) facts."""
        verdict = decide_bounded_fblock_size([sigma_star])
        assert not verdict.bounded

    def test_mapping_with_mixed_tgds(self, intro_nested):
        verdict = decide_bounded_fblock_size(
            [parse_tgd("S(x,y) -> P(x)"), intro_nested]
        )
        assert not verdict.bounded

    def test_schema_mapping_accepted(self, intro_nested):
        from repro.mappings import SchemaMapping

        verdict = decide_bounded_fblock_size(SchemaMapping([intro_nested]))
        assert not verdict.bounded


class TestWithSourceEgds:
    def test_egd_can_make_fblocks_bounded(self):
        """Q(z) -> exists y forall x (P(z,x) -> R(y,x)) is unbounded, but with
        P functional in z each z has one x, so blocks have size one."""
        tgd = parse_nested_tgd("Q(z) -> exists y . (P(z,x) -> R(y,x))")
        assert not decide_bounded_fblock_size([tgd]).bounded
        egd = parse_egd("P(z,x) & P(z,xp) -> x = xp")
        verdict = decide_bounded_fblock_size([tgd], source_egds=[egd])
        assert verdict.bounded

    def test_example_53_stays_unbounded(self, sigma_53, egd_53):
        """The egd of Example 5.3 fixes x1 per z but x2 still ranges freely."""
        assert not decide_bounded_fblock_size([sigma_53], source_egds=[egd_53]).bounded


class TestThresholdAndAnchor:
    def test_threshold_is_positive(self, intro_nested):
        assert fblock_threshold([parse_tgd("S(x,y) -> R(x,z)")]) >= 1
        assert fblock_threshold([intro_nested]) >= 2

    def test_anchor_witness_recursive_function(self, sigma_star, intro_nested):
        assert bounded_anchor_witness([intro_nested]) >= 1
        assert bounded_anchor_witness([sigma_star]) >= bounded_anchor_witness(
            [parse_tgd("S(x) -> R(x)")]
        )

    def test_max_pattern_body_atoms(self, sigma_star):
        assert max_pattern_body_atoms(sigma_star) == 1


class TestExhaustiveProcedure:
    def test_flat_tgd_bounded_by_one(self):
        tgd = parse_tgd("S(x) -> R(x,z)")
        assert decide_bounded_fblock_size_exhaustive(
            [tgd], bound=1, anchor=1, max_constants=2
        )

    def test_bound_violation_detected(self):
        tgd = parse_tgd("S(x) -> R(x,z) & T(z)")
        # every trigger creates a 2-fact block, so bound=1 fails
        assert not decide_bounded_fblock_size_exhaustive(
            [tgd], bound=1, anchor=1, max_constants=1
        )

    def test_resource_limit_enforced(self):
        tgd = parse_tgd("S(x,y) -> R(x,z)")
        with pytest.raises(ResourceLimitExceeded):
            decide_bounded_fblock_size_exhaustive(
                [tgd], bound=2, anchor=3, max_instances=3
            )

    def test_egds_filter_sources(self):
        tgd = parse_nested_tgd("Q(z) -> exists y . (P(z,x) -> R(y,x))")
        egd = parse_egd("P(z,x) & P(z,xp) -> x = xp")
        # with the key, every legal source gives singleton blocks
        assert decide_bounded_fblock_size_exhaustive(
            [tgd], bound=1, anchor=1, max_constants=2, source_egds=[egd]
        )


class TestInstanceEnumeration:
    def test_enumeration_counts_up_to_iso(self):
        schema = Schema([("Q", 1)])
        instances = list(enumerate_source_instances(schema, max_facts=2, max_constants=2))
        # up to iso: {Q(a)} and {Q(a), Q(b)}
        assert len(instances) == 2

    def test_binary_relation_enumeration(self):
        schema = Schema([("S", 2)])
        instances = list(enumerate_source_instances(schema, max_facts=1, max_constants=2))
        # up to iso: S(a,a) and S(a,b)
        assert len(instances) == 2

    def test_no_isomorphic_duplicates(self):
        schema = Schema([("S", 2)])
        instances = list(enumerate_source_instances(schema, max_facts=2, max_constants=3))
        for i, left in enumerate(instances):
            for right in instances[i + 1:]:
                assert not left.isomorphic(right, rename_constants=True)


class TestEdgeCases:
    """Empty schemas, all-constant cores, and single-null blocks."""

    def test_enumeration_of_empty_schema_is_empty(self):
        assert list(enumerate_source_instances(Schema(), 3, 3)) == []

    def test_enumeration_with_zero_facts_is_empty(self):
        schema = Schema([("Q", 1)])
        assert list(enumerate_source_instances(schema, 0, 2)) == []

    def test_enumerated_instances_are_all_constant(self):
        schema = Schema([("S", 2)])
        for instance in enumerate_source_instances(schema, 2, 2):
            assert not instance.nulls()

    def test_ground_tgd_gives_all_constant_singleton_blocks(self):
        # no existentials: the chase output is all-constant, bound 1
        verdict = decide_bounded_fblock_size([parse_tgd("S(x,y) -> R(x,y)")])
        assert verdict.bounded
        assert verdict.bound == 1
        assert decide_bounded_fblock_size_exhaustive(
            [parse_tgd("S(x,y) -> R(x,y)")], bound=1, anchor=1, max_constants=2
        )

    def test_single_null_block_bound_counts_both_facts(self):
        # each trigger makes one null shared by two facts: bound 2
        verdict = decide_bounded_fblock_size(
            [parse_tgd("S(x) -> R(x,y) & T(y)")]
        )
        assert verdict.bounded
        assert verdict.bound == 2

    def test_threshold_of_ground_mapping_is_one(self):
        assert fblock_threshold([parse_tgd("S(x,y) -> R(x,y)")]) == 1

    def test_anchor_witness_is_at_least_one(self):
        assert bounded_anchor_witness([parse_tgd("S(x,y) -> R(x,y)")]) >= 1


class TestCloneLimit:
    """A clone limit below 1 is rejected before the store is touched."""

    @pytest.mark.parametrize("clone_limit", [0, -1])
    @pytest.mark.parametrize("store", [False, True])
    def test_rejected_with_the_store_off_and_on(self, intro_nested, tmp_path, monkeypatch,
                                                clone_limit, store):
        from repro import cache
        from repro.core import fblock_analysis

        def no_key(*args):
            raise AssertionError("a store key was rendered")

        monkeypatch.setattr(fblock_analysis, "_verdict_key", no_key)
        if store:
            cache.configure(tmp_path)
        try:
            with pytest.raises(ValueError, match="clone_limit"):
                decide_bounded_fblock_size([intro_nested], clone_limit=clone_limit)
            if store:
                assert cache.get_store().entry_counts() == {}
        finally:
            cache.configure(None)

    def test_one_clone_is_accepted(self, intro_nested):
        assert decide_bounded_fblock_size([intro_nested], clone_limit=1).bounded is False
