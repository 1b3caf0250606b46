"""Differential property tests for the indexed homomorphism kernel and the
worklist core engine.

The kernel (:mod:`repro.engine.hom_kernel`) and the new worklist core
(:mod:`repro.engine.core_instance`) must agree with the naive oracles kept in
:mod:`repro.engine.naive` on random instances drawn from
:func:`tests.strategies.instances`, including the degenerate regimes: ground
(all-constant) instances, empty instances, single-null blocks, and one
relation name used at two arities.  The witnesses the kernel returns on
inputs with several homomorphisms are pinned: they decide which
representatives the default ``core()`` keeps.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.core_instance import core, is_core
from repro.engine.homomorphism import (
    find_homomorphism,
    homomorphically_equivalent,
    is_homomorphism,
)
from repro.engine.naive import core_naive, find_homomorphism_naive
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance
from repro.logic.values import Constant, Null

from tests.strategies import instances

#: ``R`` at arities 2 and 1: index buckets of ``R`` hold facts of both.
MIXED_ARITY = [("R", 2), ("R", 1), ("P", 1)]


class TestKernelAgreesWithNaive:
    @settings(max_examples=120, deadline=None)
    @given(source=instances(), target=instances())
    def test_same_existence_verdict(self, source, target):
        fast = find_homomorphism(source, target)
        slow = find_homomorphism_naive(source, target)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_homomorphism(fast, source, target)

    @settings(max_examples=60, deadline=None)
    @given(source=instances(max_nulls=0), target=instances())
    def test_ground_source(self, source, target):
        # All-constant sources: a homomorphism exists iff source <= target.
        fast = find_homomorphism(source, target)
        expected = all(fact in target.facts for fact in source)
        assert (fast is not None) == expected
        slow = find_homomorphism_naive(source, target)
        assert (slow is None) == (fast is None)

    @settings(max_examples=40, deadline=None)
    @given(target=instances())
    def test_empty_source(self, target):
        assert find_homomorphism(Instance(()), target) == {}

    @settings(max_examples=60, deadline=None)
    @given(target=instances())
    def test_single_null_block(self, target):
        source = Instance([Atom("R", (Constant("a0"), Null("n0")))])
        fast = find_homomorphism(source, target)
        slow = find_homomorphism_naive(source, target)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_homomorphism(fast, source, target)

    @settings(max_examples=60, deadline=None)
    @given(source=instances(), target=instances())
    def test_fixed_bindings_respected(self, source, target):
        nulls = sorted(source.nulls(), key=repr)
        if not nulls:
            return
        for candidate in sorted(target.active_domain(), key=repr)[:2]:
            fixed = {nulls[0]: candidate}
            fast = find_homomorphism(source, target, fixed=fixed)
            slow = find_homomorphism_naive(source, target, fixed=fixed)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast[nulls[0]] == candidate
                assert is_homomorphism(fast, source, target)

    @settings(max_examples=120, deadline=None)
    @given(source=instances(relations=MIXED_ARITY),
           target=instances(relations=MIXED_ARITY))
    def test_mixed_arity_same_verdict(self, source, target):
        fast = find_homomorphism(source, target)
        slow = find_homomorphism_naive(source, target)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_homomorphism(fast, source, target)

    @settings(max_examples=60, deadline=None)
    @given(source=instances(relations=MIXED_ARITY),
           target=instances(relations=MIXED_ARITY))
    def test_mixed_arity_fixed_bindings(self, source, target):
        nulls = sorted(source.nulls(), key=repr)
        if not nulls:
            return
        for candidate in sorted(target.active_domain(), key=repr)[:2]:
            fixed = {nulls[0]: candidate}
            fast = find_homomorphism(source, target, fixed=fixed)
            slow = find_homomorphism_naive(source, target, fixed=fixed)
            assert (fast is None) == (slow is None)

    @pytest.mark.parametrize("source, target", [
        ("R(_x, _y)", "R(a, b), R(a)"),
        ("R(_x, _y)", "R(a)"),
        ("R(a, _x)", "R(a), R(b, c)"),
        ("R(_x), R(_x, _y)", "R(a, b), R(b)"),
    ])
    def test_mixed_arity_examples(self, source, target):
        source, target = parse_instance(source), parse_instance(target)
        fast = find_homomorphism(source, target)
        assert (fast is None) == (find_homomorphism_naive(source, target) is None)
        if fast is not None:
            assert is_homomorphism(fast, source, target)

    def test_identity_on_self(self):
        instance = parse_instance("R(a, _x), R(_x, b), P(_y)")
        mapping = find_homomorphism(instance, instance)
        assert mapping is not None
        assert is_homomorphism(mapping, instance, instance)


class TestCoreAgreesWithNaive:
    @settings(max_examples=80, deadline=None)
    @given(instance=instances())
    def test_cores_hom_equivalent_and_same_size(self, instance):
        fast = core(instance)
        slow = core_naive(instance)
        # Cores of hom-equivalent instances are unique up to isomorphism, so
        # both engines must land on instances of the same size that are
        # hom-equivalent to each other (and to the input).
        assert len(fast) == len(slow)
        assert homomorphically_equivalent(fast, slow)
        assert homomorphically_equivalent(fast, instance)

    @settings(max_examples=80, deadline=None)
    @given(instance=instances())
    def test_core_is_subinstance_and_core(self, instance):
        folded = core(instance)
        assert folded.facts <= instance.facts
        assert is_core(folded)

    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_core_idempotent(self, instance):
        folded = core(instance)
        assert core(folded).facts == folded.facts

    @settings(max_examples=40, deadline=None)
    @given(instance=instances(max_nulls=0))
    def test_ground_instances_are_their_own_core(self, instance):
        assert core(instance).facts == instance.facts
        assert is_core(instance)

    @settings(max_examples=80, deadline=None)
    @given(instance=instances(relations=MIXED_ARITY))
    def test_mixed_arity_cores(self, instance):
        fast = core(instance)
        slow = core_naive(instance)
        assert len(fast) == len(slow)
        assert homomorphically_equivalent(fast, slow)
        assert is_core(instance) == (len(slow) == len(instance))

    @pytest.mark.parametrize("text, size", [
        ("R(_x, _y), R(a)", 2),
        ("R(a, _x), R(a, b), R(a)", 2),
        ("R(_x), R(a, _y), R(a, b), R(a)", 2),
        ("R(_x), R(_x, _y), R(a, b)", 3),
    ])
    def test_mixed_arity_core_examples(self, text, size):
        instance = parse_instance(text)
        assert len(core(instance)) == len(core_naive(instance)) == size
        assert is_core(instance) == (size == len(instance))

    def test_empty_instance(self):
        assert len(core(Instance(()))) == 0

    def test_isomorphic_blocks_fold_to_one(self):
        instance = parse_instance(
            "R(a, _x1), R(_x1, b), R(a, _x2), R(_x2, b), R(a, _x3), R(_x3, b)"
        )
        folded = core(instance)
        assert len(folded) == 2
        assert len(folded.nulls()) == 1


class TestPinnedWitness:
    """The exact map :func:`find_homomorphism` returns when several exist.

    Values are tried in repr order, and ties between equally constrained
    nulls break by repr; the default ``core()`` keeps the representatives
    these choices pick, and the IMPLIES sweep's seeded checks bind them.
    """

    @pytest.mark.parametrize("source, target, fixed, expected", [
        pytest.param("R(_x, _y), R(_y, _z)", "R(a, b), R(b, a)", {},
                     {"_x": "a", "_y": "b", "_z": "a"}, id="path-into-2-cycle"),
        pytest.param("R(_x, _y), R(_y, _z), R(_z, _w)",
                     "R(a, b), R(b, a), R(b, b)", {},
                     {"_x": "a", "_y": "b", "_z": "b", "_w": "a"},
                     id="path-into-cycle-with-loop"),
        pytest.param("R(_x, _y), R(_y, _z)", "R(a, b), R(b, a), R(a, a)",
                     {"_y": "b"}, {"_x": "a", "_y": "b", "_z": "a"}, id="fixed"),
        pytest.param("R(_x, _y), P(_x)", "R(a, b), R(b, a), R(a, a), P(a), P(b)",
                     {}, {"_x": "a", "_y": "a"}, id="loop-first"),
        pytest.param("R(_x, _y), S(_u)", "R(b, a), R(a, b), S(c), S(d)", {},
                     {"_x": "a", "_y": "b", "_u": "c"}, id="two-components"),
    ])
    def test_witness(self, source, target, fixed, expected):
        def value(text):
            return Null(text[1:]) if text.startswith("_") else Constant(text)

        fixed = {value(null): value(image) for null, image in fixed.items()}
        mapping = find_homomorphism(parse_instance(source), parse_instance(target),
                                    fixed or None)
        assert mapping == {value(null): value(image) for null, image in expected.items()}

    def test_core_representatives(self):
        instance = parse_instance(
            "R(a, _x), R(a, _y), R(_x, b), R(_y, b), R(a, _z)"
        )
        assert core(instance) == parse_instance("R(a, _x), R(_x, b)")
