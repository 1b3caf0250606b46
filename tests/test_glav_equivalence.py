"""Tests for GLAV-equivalence of nested GLAV mappings (Theorems 4.2, 5.6)."""

import pytest

from repro.core.glav_equivalence import (
    glav_distance_report,
    is_equivalent_to_glav,
    pattern_tgd,
    to_glav,
)
from repro.core.implication import equivalent, implies
from repro.core.patterns import Pattern
from repro.errors import UndecidedError
from repro.logic.parser import parse_egd, parse_nested_tgd, parse_tgd
from repro.logic.tgds import STTgd
from repro.mappings.mapping import SchemaMapping


class TestDecision:
    def test_intro_nested_not_glav(self, intro_nested):
        """The paper's flagship example of nested > GLAV."""
        assert not is_equivalent_to_glav([intro_nested])

    def test_flat_mapping_is_glav(self):
        assert is_equivalent_to_glav([parse_tgd("S(x,y) -> R(x,z)")])

    def test_bounded_nested_is_glav(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> T(x1, x2))")
        assert is_equivalent_to_glav([tgd])

    def test_example_415_nested_not_glav(self, nested_415):
        """Example 4.15's nested tgd separates nested from GLAV too."""
        assert not is_equivalent_to_glav([nested_415])

    def test_with_source_egds(self):
        """Theorem 5.6: the decision works relative to source egds, and egds
        can flip the answer."""
        tgd = parse_nested_tgd("Q(z) -> exists y . (P(z,x) -> R(y,x))")
        egd = parse_egd("P(z,x) & P(z,xp) -> x = xp")
        assert not is_equivalent_to_glav([tgd])
        assert is_equivalent_to_glav([tgd], source_egds=[egd])


class TestPatternTgds:
    def test_pattern_tgd_shape(self, intro_nested):
        tgd = pattern_tgd(Pattern(1, (Pattern(2),)), intro_nested)
        assert isinstance(tgd, STTgd)
        assert len(tgd.body) == 2  # S(x1,x2), S(x1,x3)
        assert len(tgd.head) == 2  # R(y,x2), R(y,x3)
        assert len(tgd.existential_variables) == 1

    def test_empty_target_pattern_gives_none(self, sigma_star):
        assert pattern_tgd(Pattern(1), sigma_star) is None

    def test_mapping_implies_its_pattern_tgds(self, intro_nested):
        """Universality: every pattern tgd is a consequence of the mapping."""
        for pattern in [
            Pattern(1),
            Pattern(1, (Pattern(2),)),
            Pattern(1, (Pattern(2), Pattern(2))),
        ]:
            induced = pattern_tgd(pattern, intro_nested)
            if induced is not None:
                assert implies([intro_nested], induced)


class TestConstruction:
    def test_to_glav_simple(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> T(x1, x2))")
        glav = to_glav([tgd])
        assert all(isinstance(g, STTgd) for g in glav)
        assert equivalent(glav, [tgd])

    def test_to_glav_with_existential(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> exists y . T(x1, x2, y))")
        glav = to_glav([tgd])
        assert equivalent(glav, [tgd])

    def test_to_glav_multi_branch(self):
        tgd = parse_nested_tgd(
            "S(x1,x2) -> exists y . (R(y,x2) & (P(x3) -> U(x3)))"
        )
        glav = to_glav([tgd])
        assert equivalent(glav, [tgd])

    def test_to_glav_unbounded_raises(self, intro_nested):
        with pytest.raises(UndecidedError):
            to_glav([intro_nested])

    def test_to_glav_with_egds(self):
        tgd = parse_nested_tgd("Q(z) -> exists y . (P(z,x) -> R(y,x))")
        egd = parse_egd("P(z,x) & P(z,xp) -> x = xp")
        glav = to_glav([tgd], source_egds=[egd])
        assert equivalent(glav, [tgd], source_egds=[egd])
        # without the egd they are NOT equivalent
        assert not equivalent(glav, [tgd])


class TestReport:
    def test_report_bounded(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> T(x1, x2))")
        report = glav_distance_report([tgd])
        assert report["bounded_fblock_size"]
        assert report["equivalent_glav"] is not None

    def test_report_unbounded(self, intro_nested):
        report = glav_distance_report([intro_nested])
        assert not report["bounded_fblock_size"]
        assert report["equivalent_glav"] is None
        assert report["witness_pattern"] is not None

    def test_report_decides_once(self, monkeypatch):
        """The report hands its verdict to the GLAV construction instead of
        letting ``to_glav`` decide boundedness a second time."""
        from repro.core import glav_equivalence

        calls = []
        decide = glav_equivalence.decide_bounded_fblock_size

        def counting(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        monkeypatch.setattr(glav_equivalence, "decide_bounded_fblock_size", counting)
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> T(x1, x2))")
        report = glav_distance_report([tgd])
        assert len(calls) == 1
        assert report["equivalent_glav"] == to_glav([tgd])


class TestSchemaMappingInput:
    """Every GLAV entry point takes a SchemaMapping, with its source egds."""

    def test_bounded_mapping(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> T(x1, x2))")
        mapping = SchemaMapping([tgd])
        assert is_equivalent_to_glav(mapping)
        assert to_glav(mapping) == to_glav([tgd])
        assert glav_distance_report(mapping) == glav_distance_report([tgd])

    def test_the_mappings_source_egds_apply(self):
        tgd = parse_nested_tgd("Q(z) -> exists y . (P(z,x) -> R(y,x))")
        egd = parse_egd("P(z,x) & P(z,xp) -> x = xp")
        mapping = SchemaMapping([tgd], source_egds=[egd])
        glav = to_glav(mapping)
        assert glav == to_glav([tgd], source_egds=[egd])
        assert glav_distance_report(mapping)["equivalent_glav"] == glav
        assert not glav_distance_report([tgd])["bounded_fblock_size"]
