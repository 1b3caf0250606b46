"""Differential suite for the id-space core engine and the SQL core pushdown.

Three interchangeable backends compute cores (``core(backend=...)``): the
seed tuple engine, the columnar id-space engine, and the SQL pushdown.  The
retraction tie-breaks differ between engines (each may keep a different set
of representative facts), so the correctness bar is: **verdicts agree exactly**
(homomorphism existence, witness validity) and **cores agree up to
isomorphism** (the core is unique up to isomorphism; sizes agree exactly).

Also covered here: the single search per canonicalizable block, the
``facts_of`` / ``facts_with`` decode memo counter, the ``choose_core_backend``
dispatch policy, the SQL core's 64-fact block limit, and the ``repro core``
CLI.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.engine.columnar import ColumnarInstance
from repro.engine.core_instance import core, is_core
from repro.engine.dispatch import (
    CORE_COLUMNAR_AUTO_THRESHOLD,
    CORE_SQL_AUTO_THRESHOLD,
    choose_core_backend,
)
from repro.engine.hom_kernel import (
    block_homomorphism,
    block_homomorphism_generic,
    find_homomorphism_indexed,
)
from repro.engine.homomorphism import is_homomorphism
from repro.engine.sql_backend import sql_core_supported
from repro.errors import ChaseError
from repro.logic.parser import parse_instance

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
    def test_auto_small_is_tuple(self):
        choice = choose_core_backend("auto", input_size=10)
        assert choice.backend == "tuple" and choice.was_auto

    def test_auto_medium_is_columnar(self):
        choice = choose_core_backend(
            "auto", input_size=CORE_COLUMNAR_AUTO_THRESHOLD)
        assert choice.backend == "columnar"

    def test_auto_large_needs_sql_support(self):
        size = CORE_SQL_AUTO_THRESHOLD
        assert choose_core_backend(
            "auto", input_size=size, sql_supported=True).backend == "sql"
        assert choose_core_backend(
            "auto", input_size=size, sql_supported=False).backend == "columnar"

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
        from repro.engine import dispatch

        chased = _intro_star_chase(65)
        assert not sql_core_supported(chased)
        with pytest.raises(ChaseError, match="more than 64 facts"):
            core(chased, backend="sql")
        # "auto" above the SQL threshold falls back to columnar.
        monkeypatch.setattr(dispatch, "CORE_SQL_AUTO_THRESHOLD", len(chased))
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
        assert report["backend"] == "tuple" and report["requested"] == "auto"
        assert report["input_facts"] == 3 and report["core_facts"] == 1
        assert "reason" in report and "facts" not in report

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
