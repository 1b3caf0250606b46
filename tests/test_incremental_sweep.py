"""Tests for the DAG-incremental IMPLIES sweep.

The incremental sweep must be *observationally identical* to the from-scratch
sweep (``_sweep_serial`` over ``enumerate_k_patterns``, the reference here): same verdict, same number of patterns checked, same failing pattern --
and when it refutes, its counterexample must be a genuine semantic witness
(``chase(I, sigma)`` does not map into ``chase(I, Sigma)``), even though the
incremental construction names its fresh constants in attachment order rather
than canonical DFS order (the instances are isomorphic, not equal).
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, HealthCheck
import hypothesis.strategies as st

from repro import perf
from repro.core import implication
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.core.patterns import Pattern, count_k_patterns, enumerate_k_patterns
from repro.engine.chase import chase
from repro.engine.homomorphism import find_homomorphism
from repro.errors import ResourceLimitExceeded
from repro.logic.parser import parse_nested_tgd, parse_tgd

from tests.strategies import nested_tgds

TAU = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
TAU_PRIME = parse_tgd("S2(x2) -> exists z . R(x2, z)")
TAU_DPRIME = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")


# ----------------------------------------------------------- differential


def fresh_sweep(lhs, rhs, max_patterns=1_000_000):
    """The from-scratch reference sweep: every k-pattern chased on its own."""
    lhs = implication._normalize_lhs(lhs)
    rhs = implication._normalize_rhs(rhs)
    k = implication.implication_bound(lhs, rhs)
    patterns = enumerate_k_patterns(rhs, k, max_patterns=max_patterns)
    return implication._sweep_serial(
        patterns, lhs, rhs, (), implication._sigma_fingerprint(lhs), k
    )


def _assert_same_result(lhs, rhs, max_patterns=1_000_000):
    clear_chase_cache()
    fresh = fresh_sweep(lhs, rhs, max_patterns)
    clear_chase_cache()
    perf.reset()
    incremental = implies_tgd(lhs, rhs, max_patterns=max_patterns, subsumption=False)
    snap = perf.snapshot()
    # one kernel call per pattern, plus one per seeded check that fell back
    assert snap.get("hom.kernel_calls", 0) == (
        incremental.patterns_checked + snap.get("implies.sweep.hom_fallbacks", 0)
    )
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
    result = _assert_same_result(lhs, rhs, max_patterns=50_000)
    assert result.patterns_checked > 3  # the sweep reached the two-child level


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(st.lists(nested_tgds(max_depth=2), min_size=1, max_size=2),
       nested_tgds(max_depth=2))
def test_differential_random_nested_tgds(lhs, rhs):
    assume(rhs not in lhs)  # implies_tgd answers membership without a sweep
    try:
        _assert_same_result(lhs, rhs, max_patterns=2_000)
    except ResourceLimitExceeded:
        pass  # both sweeps respect max_patterns; the bound itself is tested below


# ------------------------------------------------------- pattern generation


def _rebuild(node):
    """The canonical pattern of a mirror tree, rebuilt bottom-up from its nodes."""
    return Pattern(node.part_id, tuple(_rebuild(child) for child in node.children))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(nested_tgds(max_depth=3), st.sampled_from([1, 2, 3]))
def test_pattern_levels_follow_enumeration_and_keep_shared_trees(rhs, k):
    """The levels concatenate to ``enumerate_k_patterns`` in its order, and
    building level n + 1 by path copying leaves every level-n tree intact."""
    assume(count_k_patterns(rhs, k) <= 2_000)
    generated = []
    previous = []
    for level in implication._iter_pattern_levels(rhs, k):
        for entry in previous:
            assert _rebuild(entry.tree) == entry.pattern
        generated.extend(entry.pattern for entry in level)
        previous = level
    assert generated == enumerate_k_patterns(rhs, k)


DEEP_RHS = parse_nested_tgd(
    "S1(x1) -> exists y . (S2(x2) -> R2(y, x2) & (S3(x3) -> R3(y, x3)))"
)
DEEP_LHS = parse_nested_tgd(
    "S1(u1) -> exists w . (S2(u2) -> R2(w, u2) & (S3(u3) -> R3(w, u3)))"
)


def test_deep_sweep_pins_chase_tier_counts():
    """The deep workload of ``bench_pattern_sweep.py``: most patterns hit the
    chase cache, so a later miss indexes its source from the parent's facts
    (a hit never indexes the parent's source)."""
    clear_chase_cache()
    perf.reset()
    result = implies_tgd([DEEP_LHS], DEEP_RHS, subsumption=False)
    snap = perf.snapshot()
    assert result.holds
    assert result.patterns_checked == 3125
    assert snap["implies.cache_hits"] == 2784
    assert snap["implies.cache_misses"] == 341
    assert snap["implies.sweep.incremental_hits"] == 340
    assert snap["hom.kernel_calls"] == 3125
    assert snap.get("implies.sweep.hom_fallbacks", 0) == 0


# ------------------------------------------------------ seeded pattern checks


def test_seeded_check_falls_back_to_full_search():
    """The parent's ``y -> z_b`` does not extend to ``[1 [2] [2]]``: only the
    second dependency's shared ``w`` maps both R facts.  The full search then
    finds that mapping, and it refutes the next pattern."""
    lhs = [
        parse_tgd("S2(x2) -> exists z . R(z, x2)"),
        parse_tgd("S1(x1) & S2(x2) & S2(x3) -> exists w . (R(w, x2) & R(w, x3))"),
    ]
    rhs = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(y, x2))")
    result = _assert_same_result(lhs, rhs)
    assert not result.holds
    assert (result.k, result.patterns_checked) == (4, 4)
    assert repr(result.failing_pattern) == "[1 [2] [2] [2]]"
    assert perf.snapshot().get("implies.sweep.hom_fallbacks", 0) >= 1


def _wide(branches, var, exist):
    """The ``_wide`` shape of ``benchmarks/e2e/ops.py``: *branches* sibling
    parts ``S_i(x_i) -> R_i(y, x_i)`` under one existential."""
    parts = " & ".join(
        f"(S{i}({var}{i}) -> R{i}({exist}, {var}{i}))" for i in range(2, branches + 2)
    )
    return parse_nested_tgd(f"S1({var}1) -> exists {exist} . ({parts})")


def test_seeded_checks_pin_wide3_search_counts():
    """Every wide(3) pattern extends its parent's homomorphism: one kernel
    call per pattern and (almost) no search -- the unseeded sweep takes 215
    search nodes and 1620 AC-3 revisions here."""
    clear_chase_cache()
    perf.reset()
    result = implies_tgd([_wide(3, "u", "w")], _wide(3, "x", "y"), subsumption=False)
    snap = perf.snapshot()
    assert result.holds
    assert result.patterns_checked == 216
    assert snap.get("implies.sweep.hom_fallbacks", 0) == 0
    assert snap["hom.kernel_calls"] == 216
    assert snap.get("hom.search_nodes", 0) <= 3


@pytest.mark.parametrize("lhs, rhs", [
    ([DEEP_LHS], DEEP_RHS),
    ([_wide(4, "u", "w")], _wide(4, "x", "y")),
], ids=["deep", "wide4"])
def test_canonical_parent_rule_builds_few_candidates(lhs, rhs):
    """Attaching only where the new leaf ends the child's minimum descent
    builds each pattern once: at most 1.3 candidate attachments reach
    ``Pattern`` construction per pattern (the earlier generation, which
    deduplicated every attachment, built 5.0 on deep and 4.0 on wide4)."""
    clear_chase_cache()
    perf.reset()
    result = implies_tgd(lhs, rhs, subsumption=False)
    assert result.holds
    assert result.patterns_checked == count_k_patterns(rhs, result.k)
    assert perf.snapshot()["implies.sweep.candidates"] <= 1.3 * result.patterns_checked


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


def test_source_egds_take_the_from_scratch_sweep():
    # egd merges are not monotone under source extension
    from repro.logic.parser import parse_egd

    egd = parse_egd("S2(x, y) & S2(x, z) -> y = z")
    clear_chase_cache()
    perf.reset()
    result = implies_tgd([TAU_PRIME], TAU, source_egds=[egd], subsumption=False)
    assert result.patterns_checked > 0
    assert perf.snapshot().get("implies.sweep.incremental_hits", 0) == 0


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

