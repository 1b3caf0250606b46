"""Differential suite for the id-space core engine and the SQL core pushdown.

Three interchangeable backends compute cores (``core(backend=...)``): the
seed tuple engine, the columnar id-space engine, and the SQL pushdown.  The
retraction tie-breaks differ between engines (each may keep a different set
of representative facts), so the correctness bar is: **verdicts agree exactly**
(homomorphism existence, witness validity) and **cores agree up to
isomorphism** (the core is unique up to isomorphism; sizes agree exactly).

Also covered here: the block kernels under pre-bound nulls and forbidden
facts, the pinned ``hom.columnar.*`` counts of Ex 4.8 cores, the single
search per canonicalizable block, the ``facts_of`` / ``facts_with`` decode
memo counter, the ``choose_core_backend`` dispatch policy, the SQL core's
64-fact block limit, and the ``repro core`` CLI.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.engine.columnar import ColumnarInstance
from repro.engine.core_instance import core, is_core
from repro.engine.dispatch import CORE_AUTO_REASON, choose_core_backend
from repro.engine.hom_kernel import (
    block_homomorphism,
    block_homomorphism_generic,
    find_homomorphism_indexed,
)
from repro.engine.hom_kernel_columnar import block_homomorphism_columnar
from repro.engine.homomorphism import is_homomorphism
from repro.engine.sql_backend import sql_core_supported
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance
from repro.logic.values import Constant, Null

from tests.strategies import instances


BACKENDS = ["tuple", "columnar", "sql"]


class TestHomKernelDifferential:
    """The id-space kernel agrees with the generic kernel on every draw."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=instances(max_facts=6), target=instances(max_facts=8))
    def test_same_verdict_and_valid_witness(self, source, target):
        generic = find_homomorphism_indexed(source, target)
        columnar = find_homomorphism_indexed(source, ColumnarInstance(target))
        assert (generic is None) == (columnar is None)
        if columnar is not None:
            assert is_homomorphism(columnar, source, target)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=instances(max_facts=5, max_nulls=6, max_constants=2,
                            min_facts=1),
           target=instances(max_facts=8, max_nulls=6, max_constants=2))
    def test_nulls_heavy_draws_agree(self, source, target):
        generic = find_homomorphism_indexed(source, target)
        columnar = find_homomorphism_indexed(source, ColumnarInstance(target))
        assert (generic is None) == (columnar is None)
        if columnar is not None:
            assert is_homomorphism(columnar, source, target)

    def test_unsat_fails_fast_without_search(self):
        # No fact of the target can host R(_x, _x): propagation alone
        # refutes (an AC-3 wipeout), with zero search nodes expanded.
        source = parse_instance("R(_x,_x)")
        target = ColumnarInstance(parse_instance("R(a,b), R(b,c), R(c,a)"))
        with perf.measuring() as stats:
            assert block_homomorphism(source.facts, target) is None
        assert stats.get("hom.columnar.kernel_calls") == 1
        assert stats.get("hom.columnar.search_nodes") == 0

    def test_dispatch_by_target_type(self):
        # A columnar target routes to the id-space kernel; the same target
        # decoded through the FactIndex protocol gives the same verdict.
        source = parse_instance("R(a,_x)")
        target = ColumnarInstance(parse_instance("R(a,b)"))
        with perf.measuring() as stats:
            fast = block_homomorphism(source.facts, target)
            slow = block_homomorphism_generic(source.facts, target)
        assert fast is not None and slow is not None
        assert stats.get("hom.columnar.kernel_calls") == 1
        assert stats.get("hom.kernel_calls") == 1


_NULLS = [Null(f"n{i}") for i in range(3)]
_CONSTANTS = [Constant(name) for name in "abc"]
_ARITY = {"R": 3, "S": 2}


def _fact(relation: str, args) -> Atom:
    return Atom(relation, tuple(args))


@st.composite
def _kernel_inputs(draw):
    """(source facts, target, fixed, forbidden) for the block kernels.

    The source always holds a fact with a repeated null and a fact with two
    constants and a null, so both the repeat filter of an AC-3 revision and
    the constant positions checked when candidates are seeded get exercised;
    *fixed* turns one or two of the other nulls into constants as well.
    """
    values = _NULLS + _CONSTANTS
    null, other = draw(st.sampled_from(_NULLS)), draw(st.sampled_from(values))
    repeated = draw(st.permutations([null, null, other]))
    first, second = draw(st.lists(st.sampled_from(_CONSTANTS), min_size=2, max_size=2))
    constants = draw(st.permutations([first, second, draw(st.sampled_from(_NULLS))]))
    source = [_fact("R", repeated), _fact("R", constants)]
    relations = st.sampled_from(sorted(_ARITY))
    for relation in draw(st.lists(relations, max_size=2)):
        args = draw(st.lists(st.sampled_from(values),
                             min_size=_ARITY[relation], max_size=_ARITY[relation]))
        source.append(_fact(relation, args))
    target_values = _CONSTANTS + [Null("t0")]
    target = Instance(
        _fact(relation, draw(st.lists(st.sampled_from(target_values),
                                      min_size=_ARITY[relation],
                                      max_size=_ARITY[relation])))
        for relation in draw(st.lists(relations, min_size=1, max_size=24))
    )
    others = [n for n in _NULLS if n != null]
    fixed_nulls = draw(st.lists(st.sampled_from(others), unique=True,
                                min_size=1, max_size=2))
    fixed = {n: draw(st.sampled_from(target_values)) for n in fixed_nulls}
    facts = sorted(target, key=repr)
    forbidden = frozenset(draw(st.lists(st.sampled_from(facts), min_size=1,
                                        max_size=3)))
    return source, target, fixed, forbidden


class TestBlockKernelDifferential:
    """block_homomorphism_columnar agrees with block_homomorphism_generic
    under pre-bound nulls and forbidden facts."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_kernel_inputs())
    def test_fixed_and_forbidden_agree(self, inputs):
        source, target, fixed, forbidden = inputs
        generic = block_homomorphism_generic(source, target, fixed, forbidden)
        columnar = block_homomorphism_columnar(
            source, ColumnarInstance(target), fixed, forbidden)
        assert (generic is None) == (columnar is None)
        if columnar is None:
            return
        free = {arg for fact in source for arg in fact.args
                if isinstance(arg, Null) and arg not in fixed}
        assert set(columnar) == free
        mapping = {**fixed, **columnar}
        for fact in source:
            image = fact.rename_values(mapping)
            assert image in target and image not in forbidden


class TestCoreDifferential:
    """Cores agree across backends: equal sizes, isomorphic instances."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8))
    def test_three_backends_isomorphic(self, instance):
        reference = core(instance, backend="tuple")
        for backend in ("columnar", "sql"):
            other = core(instance, backend=backend)
            assert len(other) == len(reference)
            assert other.isomorphic(reference)
            assert is_core(other)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8, max_nulls=6, max_constants=2))
    def test_nulls_heavy_cores_isomorphic(self, instance):
        reference = core(instance, backend="tuple")
        for backend in ("columnar", "sql"):
            assert core(instance, backend=backend).isomorphic(reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_canonical_examples(self, backend):
        assert core(parse_instance("R(a,_x), R(a,b)"), backend=backend) == \
            parse_instance("R(a,b)")
        c4 = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), "
            "R(_3,_4), R(_4,_3), R(_4,_1), R(_1,_4)"
        )
        assert len(core(c4, backend=backend)) == 2
        triangle = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), R(_3,_1), R(_1,_3)"
        )
        assert core(triangle, backend=backend) == triangle

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ground_and_empty(self, backend):
        ground = parse_instance("R(a,b), R(b,c)")
        assert core(ground, backend=backend) == ground
        assert core(parse_instance(""), backend=backend) == parse_instance("")

    def test_columnar_accepts_columnar_input(self):
        # A ColumnarInstance input is consumed in place (no re-encode).
        store = ColumnarInstance(parse_instance("R(a,_x), R(a,b)"))
        assert core(store, backend="columnar") == parse_instance("R(a,b)")

    def test_columnar_counters_flow(self):
        with perf.measuring() as stats:
            core(parse_instance("R(a,_x), R(a,b), T(c,_y), T(c,d)"),
                 backend="columnar")
        assert stats.get("core.columnar.blocks") == 2
        assert stats.get("core.columnar.eliminations") == 2

    def test_sql_counters_flow(self):
        with perf.measuring() as stats:
            core(parse_instance("R(a,_x), R(a,b)"), backend="sql")
        assert stats.get("core.sql.blocks") == 1
        assert stats.get("core.sql.queries") >= 1
        assert stats.get("core.sql.eliminations") == 1


class TestSinglePass:
    """Each kept block is searched once, against the whole store."""

    def test_rigid_canonicalizable_block_costs_one_search(self):
        # An undirected triangle is a core with 3 nulls (3! labelings, so it
        # is canonicalized).  Its nulls form one automorphism orbit, so one
        # failed solve_encoded call proves it rigid.
        triangle = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), R(_3,_1), R(_1,_3)"
        )
        with perf.measuring() as stats:
            result = core(triangle, backend="columnar")
        assert result == triangle
        assert stats.get("hom.columnar.kernel_calls") == 1
        assert stats.get("core.orbit_skips") == 2
        assert stats.get("core.columnar.rigid_blocks") == 1

    def test_canonical_fingerprints_match_across_engines(self):
        from repro.cache.fingerprint import fingerprint_fact_sequence
        from repro.engine.core_instance import _canonical_block, _ColumnarCore

        instance = parse_instance("R(a,_x), R(_x,_y), S(_y,b), S(_y,_z)")
        store = ColumnarInstance(instance)
        engine = _ColumnarCore(store.values)
        [block] = engine.null_blocks(store)
        expected = fingerprint_fact_sequence(_canonical_block(sorted(instance, key=repr)))
        assert engine.block_fingerprint(block) == expected


class TestDecodeMemoCounter:
    """facts_of / facts_with probes hit the per-group decode memo."""

    def test_probe_hits_increment_on_repeat(self):
        store = ColumnarInstance(parse_instance("R(a,b), R(a,c), P(a)"))
        a = next(iter(store.facts_of("P"))).args[0]
        with perf.measuring() as stats:
            first = list(store.facts_with("R", 0, a))
            baseline = stats.get("backend.columnar.probe_hits")
            second = list(store.facts_with("R", 0, a))
            assert stats.get("backend.columnar.probe_hits") > baseline
        assert set(first) == set(second)
        with perf.measuring() as stats:
            list(store.facts_of("R"))
            baseline = stats.get("backend.columnar.probe_hits")
            list(store.facts_of("R"))
            assert stats.get("backend.columnar.probe_hits") > baseline


class TestChooseCoreBackend:
    def test_auto_small_is_columnar(self):
        for size in (0, 10):
            for sql_supported in (False, True):
                choice = choose_core_backend(
                    "auto", input_size=size, sql_supported=sql_supported)
                assert choice.backend == "columnar" and choice.was_auto
                assert choice.reason == CORE_AUTO_REASON

    def test_auto_medium_is_columnar(self):
        for sql_supported in (False, True):
            choice = choose_core_backend(
                "auto", input_size=300, sql_supported=sql_supported)
            assert choice.backend == "columnar"
            assert choice.reason == CORE_AUTO_REASON

    def test_auto_large_ignores_sql_support(self):
        for sql_supported in (False, True):
            choice = choose_core_backend(
                "auto", input_size=20_000, sql_supported=sql_supported)
            assert choice.backend == "columnar"
            assert choice.reason == CORE_AUTO_REASON

    def test_explicit_passthrough(self):
        for backend in BACKENDS:
            choice = choose_core_backend(
                backend, input_size=1, sql_supported=True)
            assert choice.backend == backend and not choice.was_auto

    def test_explicit_sql_unsupported_raises(self):
        with pytest.raises(ChaseError):
            choose_core_backend("sql", input_size=1, sql_supported=False)

    def test_unknown_backend_raises(self):
        with pytest.raises(ChaseError):
            choose_core_backend("vectorized", input_size=1)


class TestPinnedKernelCounts:
    """The column-wise AC-3 revision keeps every ``hom.columnar.*`` count.

    The figures are the ones the per-row revision recorded on Ex 4.8 cores.
    The store is built from the repr-sorted chase so value ids, and with
    them the propagation order, do not depend on the string hash seed.
    """

    EX48 = "S(x,y) -> R(f(x), f(y)) & R(f(y), f(x))"

    @pytest.mark.parametrize("n, counts", [
        pytest.param(21, {"kernel_calls": 1, "ac3_revisions": 862, "search_nodes": 1,
                          "backtracks": 20, "ac3_wipeouts": 20}, id="odd-21"),
        pytest.param(40, {"kernel_calls": 2, "ac3_revisions": 604, "search_nodes": 34,
                          "backtracks": 0, "ac3_wipeouts": 1}, id="even-40"),
    ])
    def test_ex48_cycle_counts(self, n, counts):
        from repro.engine.chase import chase_so_tgd
        from repro.logic.parser import parse_so_tgd
        from repro.workloads import cycle_instance

        chased = chase_so_tgd(cycle_instance(n), parse_so_tgd(self.EX48))
        store = ColumnarInstance(sorted(chased, key=repr))
        with perf.measuring() as stats:
            result = core(store, backend="columnar")
        assert len(result) == (2 * n if n % 2 else 2)
        assert {key: stats.get(f"hom.columnar.{key}") for key in counts} == counts


def _intro_star_chase(n: int):
    """The intro nested tgd chased over a star: n blocks of n facts each."""
    from repro.engine.chase import chase
    from repro.logic.parser import parse_nested_tgd
    from repro.workloads.families import star_instance

    intro = parse_nested_tgd(
        "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))"
    )
    return chase(star_instance(n), [intro])


class TestSqlCore:
    def test_supported_on_plain_instances(self):
        assert sql_core_supported(parse_instance("R(a,_x), R(a,b)"))

    def test_block_of_64_facts_pushes_down(self):
        chased = _intro_star_chase(64)
        assert sql_core_supported(chased)
        assert len(core(chased, backend="sql")) == 64

    def test_block_of_65_facts_exceeds_the_join_limit(self, monkeypatch):
        from repro.engine import sql_backend

        chased = _intro_star_chase(65)
        assert not sql_core_supported(chased)
        with pytest.raises(ChaseError, match="more than 64 facts"):
            core(chased, backend="sql")

        # "auto" runs the columnar engine without probing SQL support.
        def unexpected_probe(*args, **kwargs):
            raise AssertionError("auto probed sql_core_supported")

        monkeypatch.setattr(sql_backend, "sql_core_supported", unexpected_probe)
        with perf.measuring() as stats:
            result = core(chased, backend="auto")
        assert len(result) == 65
        assert stats.get("core.columnar.blocks") == 65
        assert stats.get("core.sql.blocks") == 0


class TestAnalyzerBackends:
    """Analyzers built on core() return identical verdicts on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS + ["auto"])
    def test_cq_equivalent_backend_independent(self, backend):
        from repro.core.cq_equivalence import cq_equivalent
        from repro.logic.parser import parse_tgd

        a = [parse_tgd("S(x,y) -> exists z . R(x,z)")]
        b = [parse_tgd("S(x,y) -> exists w . R(x,w)")]
        c = [parse_tgd("S(x,y) -> R(x,y)")]
        assert bool(cq_equivalent(a, b, backend=backend))
        assert not bool(cq_equivalent(a, c, backend=backend))


class TestCoreCli:
    def _run(self, *argv, capsys):
        from repro.cli import main

        code = main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    def test_report_shape(self, capsys):
        code, report = self._run(
            "core", "--instance", "R(a,_x), R(a,b), R(_y,b)", capsys=capsys)
        assert code == 0
        assert report["backend"] == "columnar" and report["requested"] == "auto"
        assert report["reason"] == CORE_AUTO_REASON
        assert report["input_facts"] == 3 and report["core_facts"] == 1
        assert "facts" not in report

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_core_size_backend_independent(self, backend, capsys):
        code, report = self._run(
            "core", "--backend", backend, "--facts",
            "--instance", "R(a,_x), R(a,b), T(c,_y), T(c,d)", capsys=capsys)
        assert code == 0
        assert report["backend"] == backend
        assert report["core_facts"] == 2 and len(report["facts"]) == 2

    def test_chase_then_core(self, capsys):
        code, report = self._run(
            "core", "--dep", "S(x,y) -> exists z . T(x,z)",
            "--instance", "S(a,b), S(a,c)", "--backend", "columnar",
            capsys=capsys)
        assert code == 0
        assert report["input_facts"] == 2 and report["core_facts"] == 1
