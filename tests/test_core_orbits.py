"""Orbit pruning in the core engine.

After a failed retraction attempt the core engine groups the block's nulls
into automorphism orbits (:func:`repro.engine.core_instance._null_orbits`)
and skips every null whose orbit already holds a failed one.  Covered here:
orbits are only ever joined by checked automorphisms (the Frucht graph is
regular but rigid, so colour refinement alone would be wrong), the skip
saves kernel calls on vertex-transitive cores on both engines, the orbit
step never runs on single-null blocks, and a Hypothesis differential on
symmetric instances against the seed elimination loop, including that the
cores are identical fact for fact with the orbit step switched off.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.engine import core_instance
from repro.engine.core_instance import _null_orbits, core, is_core
from repro.engine.naive import core_naive
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance
from repro.logic.values import Null, is_null

from tests.strategies import symmetric_instances

ENGINES = ["tuple", "columnar"]


def graph_instance(graph) -> Instance:
    """An undirected graph as symmetric ``R`` facts over one null per vertex."""
    facts = []
    for u, v in graph.edges():
        x, y = Null(f"v{u}"), Null(f"v{v}")
        facts += [Atom("R", (x, y)), Atom("R", (y, x))]
    return Instance(facts)


def orbits_of(instance: Instance) -> dict:
    return _null_orbits([(fact.relation, fact.args) for fact in instance], is_null)


def orbit_count(instance: Instance) -> int:
    return len(set(orbits_of(instance).values()))


class TestNullOrbits:
    def test_frucht_graph_is_rigid(self):
        # 3-regular, so colour refinement leaves one cell of 12; no
        # automorphism checks out, so every null is its own orbit.
        assert orbit_count(graph_instance(nx.frucht_graph())) == 12

    def test_petersen_graph_is_one_orbit(self):
        assert orbit_count(graph_instance(nx.petersen_graph())) == 1

    def test_constants_are_fixed(self):
        # Swapping _x and _y would move the constants a and b.
        orbits = orbits_of(parse_instance("R(a, _x), R(b, _y), S(_x, _y), S(_y, _x)"))
        assert len(set(orbits.values())) == 2

    def test_cloned_leaves_share_an_orbit_apart_from_the_hub(self):
        instance = parse_instance("R(_h, _1), R(_h, _2), R(_h, _3), P(_1), P(_2), P(_3)")
        orbits = orbits_of(instance)
        leaves = {orbits[Null(name)] for name in ("1", "2", "3")}
        assert len(leaves) == 1 and orbits[Null("h")] not in leaves

    def test_disjoint_isomorphic_cycles_share_an_orbit(self):
        two_cycles = nx.disjoint_union(nx.cycle_graph(5), nx.cycle_graph(5))
        assert orbit_count(graph_instance(two_cycles)) == 1


class TestOrbitSkip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_petersen_core_costs_one_kernel_call(self, engine):
        petersen = graph_instance(nx.petersen_graph())
        with perf.measuring() as stats:
            result = core(petersen, backend=engine)
        assert result == petersen
        assert stats.get("hom.kernel_calls") == 1
        assert stats.get("core.orbit_skips") == 9

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_null_rigid_block_never_computes_orbits(self, engine, monkeypatch):
        def forbidden(*args):
            raise AssertionError("orbit step ran on a single-null block")

        monkeypatch.setattr(core_instance, "_null_orbits", forbidden)
        instance = parse_instance("R(a, _x), S(_x, b), R(c, d)")
        with perf.measuring() as stats:
            result = core(instance, backend=engine)
            assert is_core(instance)
        assert result == instance
        assert stats.get("core.orbit_skips") == 0


def _without_orbits(facts, is_var):
    """Every null its own orbit: the engine with the orbit step switched off."""
    nulls = {arg for __, args in facts for arg in args if is_var(arg)}
    return {null: index for index, null in enumerate(nulls)}


class TestSymmetricDifferential:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(symmetric_instances())
    def test_core_matches_naive(self, instance):
        expected = core_naive(instance)
        for engine in ENGINES:
            result = core(instance, backend=engine)
            assert len(result) == len(expected), engine
            assert result.isomorphic(expected), engine
            assert set(result) <= set(instance), engine
        assert is_core(instance) == (len(expected) == len(instance))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(symmetric_instances())
    def test_cores_identical_without_orbit_step(self, instance):
        # A skipped null would have failed anyway, so the first null that
        # succeeds, and its mapping, are unchanged: same core, fact for fact.
        pruned = {engine: core(instance, backend=engine) for engine in ENGINES}
        saved = core_instance._null_orbits
        core_instance._null_orbits = _without_orbits
        try:
            for engine in ENGINES:
                assert core(instance, backend=engine) == pruned[engine], engine
        finally:
            core_instance._null_orbits = saved
