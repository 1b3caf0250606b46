"""Tests for the DAG-incremental IMPLIES sweep.

The incremental sweep must be *observationally identical* to the from-scratch
sweep: same verdict, same number of patterns checked, same failing pattern --
and when it refutes, its counterexample must be a genuine semantic witness
(``chase(I, sigma)`` does not map into ``chase(I, Sigma)``), even though the
incremental construction names its fresh constants in attachment order rather
than canonical DFS order (the instances are isomorphic, not equal).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, HealthCheck
import hypothesis.strategies as st

from repro import perf
from repro.core import implication
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.core.patterns import count_k_patterns
from repro.engine.chase import chase
from repro.engine.homomorphism import find_homomorphism
from repro.errors import DependencyError, ResourceLimitExceeded
from repro.logic.parser import parse_nested_tgd, parse_tgd

from tests.strategies import nested_tgds

TAU = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
TAU_PRIME = parse_tgd("S2(x2) -> exists z . R(x2, z)")
TAU_DPRIME = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")


# ----------------------------------------------------------- differential


def _assert_same_result(lhs, rhs, **kwargs):
    clear_chase_cache()
    fresh = implies_tgd(lhs, rhs, incremental=False, **kwargs)
    clear_chase_cache()
    incremental = implies_tgd(lhs, rhs, incremental=True, **kwargs)
    assert incremental.holds == fresh.holds
    assert incremental.k == fresh.k
    assert incremental.patterns_checked == fresh.patterns_checked
    assert incremental.failing_pattern == fresh.failing_pattern
    if not incremental.holds:
        # the incremental counterexample names constants in attachment order,
        # so compare up to isomorphism and check it is a semantic witness
        assert incremental.counterexample_source.isomorphic(
            fresh.counterexample_source, rename_constants=True
        )
        witness = incremental.counterexample_source
        assert find_homomorphism(chase(witness, [rhs]), chase(witness, lhs)) is None
    return incremental


def test_ex310_differential_refuted():
    result = _assert_same_result([TAU_PRIME], TAU)
    assert not result.holds


def test_ex310_differential_implied():
    result = _assert_same_result([TAU_DPRIME], TAU)
    assert result.holds


def test_differential_wider_nesting():
    rhs = parse_nested_tgd(
        "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1, x2)) "
        "& (S3(x3) -> exists y2 . R3(y2, x3)))"
    )
    lhs = [
        parse_nested_tgd("S1(x1) -> exists y1 . (S2(x2) -> R2(y1, x2))"),
        parse_nested_tgd("S3(x3) -> exists y2 . R3(y2, x3)"),
    ]
    result = _assert_same_result(lhs, rhs, max_patterns=50_000, subsumption=False)
    assert result.patterns_checked > 3  # the sweep reached the two-child level


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(st.lists(nested_tgds(max_depth=2), min_size=1, max_size=2),
       nested_tgds(max_depth=2))
def test_differential_random_nested_tgds(lhs, rhs):
    try:
        _assert_same_result(lhs, rhs, max_patterns=2_000, subsumption=False)
    except ResourceLimitExceeded:
        pass  # both sweeps respect max_patterns; the bound itself is tested below


# ----------------------------------------------------------- perf counters


def test_incremental_hits_counted_on_ex310():
    clear_chase_cache()
    perf.reset()
    result = implies_tgd([TAU_DPRIME], TAU, subsumption=False)
    assert result.holds
    snap = perf.snapshot()
    # every non-root pattern extends its parent's chase state incrementally
    assert snap.get("implies.sweep.incremental_hits", 0) > 0
    assert snap["implies.sweep.incremental_hits"] == result.patterns_checked - 1


def test_warm_sweep_hits_cache_for_every_pattern():
    clear_chase_cache()
    implies_tgd([TAU_DPRIME], TAU, subsumption=False)
    perf.reset()
    warm = implies_tgd([TAU_DPRIME], TAU, subsumption=False)
    snap = perf.snapshot()
    assert snap.get("implies.cache_hits", 0) == warm.patterns_checked
    assert snap.get("implies.cache_misses", 0) == 0
    assert snap.get("implies.sweep.incremental_hits", 0) == 0


# ------------------------------------------------------------ resource caps


def test_max_patterns_preflight_raises_before_sweeping():
    rhs = parse_nested_tgd(
        "S1(x1) -> exists y . ((S2(x2) -> R(x2, y)) & (S3(x3) -> R(x3, y)))"
    )
    count = count_k_patterns(rhs, 3)
    with pytest.raises(ResourceLimitExceeded):
        implies_tgd([TAU_DPRIME], rhs, max_patterns=count - 1, subsumption=False)
    # and the exact count passes
    implies_tgd([TAU_DPRIME], rhs, max_patterns=count, subsumption=False)


def test_count_k_patterns_saturates_instead_of_bigint():
    from repro.analysis.cost import SATURATION_CAP

    depth4 = parse_nested_tgd(
        "S1(x1) -> (S1(x2) -> (S1(x3) -> (S1(x4) -> P(x4))))"
    )
    count = count_k_patterns(depth4, 9)
    # the exact value is a tower (10^(10^11)); the saturating count clamps
    assert count == SATURATION_CAP
    assert count.bit_length() < 64


def test_incremental_with_source_egds_is_rejected():
    from repro.logic.parser import parse_egd

    egd = parse_egd("S2(x, y) & S2(x, z) -> y = z")
    with pytest.raises(DependencyError):
        implies_tgd([TAU_PRIME], TAU, source_egds=[egd], incremental=True)
    # the default routes egd runs through the from-scratch sweep
    result = implies_tgd([TAU_PRIME], TAU, source_egds=[egd])
    assert result.patterns_checked > 0


# --------------------------------------------------- chase-cache capacity


def test_budget_presize_is_restored_after_sweep():
    clear_chase_cache()
    before = implication._CHASE_CACHE_LIMIT
    implies_tgd([TAU_DPRIME], TAU, subsumption=False, budget=10_000_000)
    assert implication._CHASE_CACHE_LIMIT == before
    assert len(implication._CHASE_CACHE) <= before


def test_clear_chase_cache_resets_presized_capacity():
    clear_chase_cache()
    implication._presize_chase_cache(4096)
    assert implication._CHASE_CACHE_LIMIT > implication._CHASE_CACHE_LIMIT_DEFAULT
    clear_chase_cache()
    assert implication._CHASE_CACHE_LIMIT == implication._CHASE_CACHE_LIMIT_DEFAULT
    assert len(implication._CHASE_CACHE) == 0
