"""Differential suite for the id-space core engine and the SQL core pushdown.

Three interchangeable backends compute cores (``core(backend=...)``): the
seed tuple engine, the columnar id-space engine, and the SQL pushdown.  The
retraction tie-breaks differ between engines (each may keep a different set
of representative facts), so the correctness bar is: **verdicts agree exactly**
(homomorphism existence, witness validity) and **cores agree up to
isomorphism** (the core is unique up to isomorphism; sizes agree exactly).

Also covered here: the kernel's two seeders against each other and against
the naive search on every retraction attempt the core engine makes, the
pinned ``hom.*`` counts of Ex 4.8 cores, a store with tombstoned rows
against a fresh store of its live facts, canonical fingerprints against
isomorphism, the single search per canonicalizable block, the
``choose_core_backend`` dispatch policy, the SQL core's 64-fact block limit,
and the ``repro core`` CLI.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.engine import core_instance
from repro.engine.columnar import ColumnarInstance
from repro.engine.core_instance import _ColumnarCore, core, is_core
from repro.engine.dispatch import CORE_AUTO_REASON, choose_core_backend
from repro.engine.hom_kernel import _seed_rows, block_homomorphism, solve_encoded
from repro.engine.naive import find_homomorphism_naive
from repro.engine.sql_backend import sql_core_supported
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance
from repro.logic.values import Constant, Null

from tests.strategies import instances


BACKENDS = ["tuple", "columnar", "sql"]


def assert_kernels_agree(instance: Instance) -> None:
    """Both seeders decide every retraction attempt of the core engine alike.

    For every null block of *instance* and every null x of the block,
    :func:`solve_encoded` gets the block encoded by the columnar core engine
    with the block's rows holding x forbidden (these must decode to exactly
    ``facts_containing(x)``), and :func:`block_homomorphism` gets
    the block's facts with ``facts_containing(x)`` forbidden.  Both must
    find a map or both none, and so must the naive search into the instance
    with those facts removed; an id-space map must send the block into the
    instance minus the facts containing x.
    """
    store = ColumnarInstance(instance)
    engine = _ColumnarCore(store.values)
    value = store.values.value
    for rows in engine.null_blocks(store):
        block = [store.decode_row(group, row) for group, row in rows]
        encoded = engine.encode_block(rows)
        for vid, forbidden_rows in engine.block_nulls(rows).items():
            null = value(vid)
            forbidden = frozenset(instance.facts_containing(null))
            assert {
                store.decode_row(group, row)
                for group, group_rows in forbidden_rows.items() for row in group_rows
            } == forbidden
            tuple_map = block_homomorphism(block, instance, None, forbidden)
            id_map = solve_encoded(encoded, forbidden_rows)
            naive_map = find_homomorphism_naive(
                Instance(block), Instance(instance.facts - forbidden)
            )
            verdicts = (tuple_map is None, id_map is None, naive_map is None)
            assert len(set(verdicts)) == 1, (block, null, verdicts)
            if id_map is None:
                continue
            mapping = {value(var): value(image) for var, image in id_map.items()}
            for fact in block:
                image = fact.rename_values(mapping)
                assert image in instance and image not in forbidden, (block, null)


class TestHomKernelDifferential:
    """The value-id seeder agrees with the Atom seeder on the core's inputs."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8))
    def test_same_verdict_and_valid_witness(self, instance):
        assert_kernels_agree(instance)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8, max_nulls=6, max_constants=2))
    def test_nulls_heavy_draws_agree(self, instance):
        assert_kernels_agree(instance)

    def test_unsat_fails_fast_without_search(self):
        # No fact other than R(_x, _x) itself has equal columns, so
        # propagation alone refutes its retraction (an AC-3 wipeout), with
        # zero search nodes expanded.
        store = ColumnarInstance(parse_instance("R(a,b), R(b,c), R(c,a), R(_x,_x)"))
        engine = _ColumnarCore(store.values)
        [block] = engine.null_blocks(store)
        [forbidden] = engine.block_nulls(block).values()
        with perf.measuring() as stats:
            assert solve_encoded(engine.encode_block(block), forbidden) is None
        assert stats.get("hom.kernel_calls") == 1
        assert stats.get("hom.search_nodes") == 0


_NULLS = [Null(f"n{i}") for i in range(3)]
_CONSTANTS = [Constant(name) for name in "abc"]
_ARITY = {"R": 3, "S": 2}


def _fact(relation: str, args) -> Atom:
    return Atom(relation, tuple(args))


@st.composite
def _core_inputs(draw):
    """An instance to core that exercises both filters of the kernel.

    It always holds a fact with a repeated null and a fact with two
    constants and a null, so both the repeat filter of an AC-3 revision and
    the constant positions checked when candidates are seeded get exercised
    on the blocks of those nulls.  Two near misses of the second fact, each
    with one of its constants and its null redrawn, put a row that only the
    check of the other constant rules out into whichever index bucket the
    kernel seeds candidates from.
    """
    values = _NULLS + _CONSTANTS
    null, other = draw(st.sampled_from(_NULLS)), draw(st.sampled_from(values))
    repeated = draw(st.permutations([null, null, other]))
    first, second = draw(st.lists(st.sampled_from(_CONSTANTS), min_size=2, max_size=2))
    constants = draw(st.permutations([first, second, draw(st.sampled_from(_NULLS))]))
    facts = [_fact("R", repeated), _fact("R", constants)]
    all_values = values + [Null("t0")]
    for position, arg in enumerate(constants):
        if isinstance(arg, Constant):
            near_miss = [draw(st.sampled_from(all_values)) if isinstance(a, Null) else a
                         for a in constants]
            near_miss[position] = draw(st.sampled_from(
                [value for value in all_values if value != arg]))
            facts.append(_fact("R", near_miss))
    relations = st.sampled_from(sorted(_ARITY))
    for relation in draw(st.lists(relations, max_size=24)):
        args = draw(st.lists(st.sampled_from(all_values),
                             min_size=_ARITY[relation], max_size=_ARITY[relation]))
        facts.append(_fact(relation, args))
    return Instance(facts)


class TestBlockKernelDifferential:
    """The seeders agree on blocks that hold repeated nulls and constants."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_core_inputs())
    def test_repeat_and_constant_filters_agree(self, instance):
        assert_kernels_agree(instance)


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

    def test_ground_input_skips_the_store(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ColumnarInstance was built for a ground input")

        monkeypatch.setattr(core_instance, "ColumnarInstance", refuse)
        ground = parse_instance("R(a,b), R(b,c)")
        assert core(ground, backend="columnar") is ground
        assert core(ground, backend="auto") is ground

    def test_columnar_counters_flow(self):
        with perf.measuring() as stats:
            core(parse_instance("R(a,_x), R(a,b), T(c,_y), T(c,d)"),
                 backend="columnar")
        assert stats.get("core.blocks") == 2
        assert stats.get("core.eliminations") == 2

    def test_sql_counters_flow(self):
        with perf.measuring() as stats:
            core(parse_instance("R(a,_x), R(a,b)"), backend="sql")
        assert stats.get("core.blocks") == 1
        assert stats.get("core.sql.queries") >= 1
        assert stats.get("core.eliminations") == 1


@st.composite
def _block_copies(draw):
    """Disjoint blocks, most of them renamed copies of one another.

    Each of one to three templates (one to three facts over null slots 0-2
    and the constants a, b) is copied one to three times, with its null
    slots permuted, fresh nulls and its facts in a drawn order, so that
    isomorphic blocks get different value ids; distinct templates often
    share a masked-row invariant without being isomorphic.
    """
    slots = [0, 1, 2, Constant("a"), Constant("b")]
    facts: list[Atom] = []
    for template in range(draw(st.integers(1, 3))):
        shape = draw(st.lists(
            st.sampled_from(sorted(_ARITY)).flatmap(
                lambda relation: st.tuples(
                    st.just(relation), st.lists(st.sampled_from(slots),
                                                min_size=_ARITY[relation],
                                                max_size=_ARITY[relation]))),
            min_size=1, max_size=3))
        for copy in range(draw(st.integers(1, 3))):
            order = draw(st.permutations([0, 1, 2]))
            nulls = [Null(f"t{template}c{copy}s{slot}") for slot in order]
            renamed = [
                _fact(relation, [nulls[arg] if isinstance(arg, int) else arg for arg in args])
                for relation, args in shape
            ]
            facts.extend(draw(st.permutations(renamed)))
    return Instance(facts)


class TestTombstones:
    """A store with discarded rows reads like a fresh store of its live facts."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=10, max_constants=2, max_nulls=3), data=st.data())
    def test_discards_match_a_fresh_store(self, instance, data):
        store = ColumnarInstance(instance)
        rows = [(group, row) for groups in store._groups.values()
                for group in groups for row in group.live_rows()]
        dropped = data.draw(st.sets(st.sampled_from(range(len(rows))))) if rows else set()
        for index in dropped:
            assert store.discard_row(*rows[index])
        live = [store.decode_row(*row) for index, row in enumerate(rows)
                if index not in dropped]
        fresh = ColumnarInstance(live, values=store.values)
        assert len(store) == len(fresh) == len(live)
        for relation, groups in store._groups.items():
            for group in groups:
                twin = fresh.group(relation, group.arity)
                assert len(group) == len(twin)
                assert [store.decode_row(group, row) for row in group.live_rows()] == [
                    fresh.decode_row(twin, row) for row in twin.live_rows()]
        engine = _ColumnarCore(store.values)
        fresh_row = {fresh.decode_row(group, row): (group, row)
                     for groups in fresh._groups.values()
                     for group in groups for row in group.live_rows()}
        for block in engine.null_blocks(store):
            twin_block = [fresh_row[store.decode_row(*row)] for row in block]
            encoded, twin_encoded = engine.encode_block(block), engine.encode_block(twin_block)
            assert solve_encoded(encoded) == solve_encoded(twin_encoded)
            twin_nulls = engine.block_nulls(twin_block)
            for vid, forbidden in engine.block_nulls(block).items():
                for fact, twin_fact in zip(encoded, twin_encoded):
                    __, rows_seeded = _seed_rows(fact, forbidden)
                    __, twin_seeded = _seed_rows(twin_fact, twin_nulls[vid])
                    assert [store.decode_row(fact.group, row) for row in rows_seeded] == [
                        fresh.decode_row(twin_fact.group, row) for row in twin_seeded]
                assert solve_encoded(encoded, forbidden) == solve_encoded(
                    twin_encoded, twin_nulls[vid])


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
        assert stats.get("hom.kernel_calls") == 1
        assert stats.get("core.orbit_skips") == 2
        assert stats.get("core.rigid_blocks") == 1


class TestInvariantGate:
    """Only blocks sharing an invariant hash are fingerprinted; folds are unchanged."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=_block_copies())
    def test_equal_fingerprints_exactly_for_isomorphic_blocks(self, instance):
        store = ColumnarInstance(instance)
        engine = _ColumnarCore(store.values)
        blocks = []
        for rows in engine.null_blocks(store):
            fingerprint = engine.block_fingerprint(rows)
            if fingerprint is not None:
                blocks.append((fingerprint, Instance(store.decode_row(*row) for row in rows)))
        for index, (first_print, first) in enumerate(blocks):
            for second_print, second in blocks[index + 1:]:
                assert (first_print == second_print) == first.isomorphic(second), (
                    first, second)

    @pytest.mark.parametrize("shape, n", [
        *[(f"{scenario}-{mapping}", n)
          for scenario in ("shop", "hospital", "university")
          for mapping in ("nested", "flat") for n in (50, 200)],
        ("intro-star", 20),
    ])
    def test_iso_folds_match_the_tuple_engine(self, shape, n):
        if shape == "intro-star":
            solution = _intro_star_chase(n)
        else:
            from repro.engine.chase import chase
            from repro.workloads.scenarios import ALL_SCENARIOS

            name, mapping = shape.split("-")
            scenario = next(s for s in ALL_SCENARIOS if s.name == name)
            deps = [scenario.nested] if mapping == "nested" else list(scenario.flat)
            solution = chase(scenario.source(n), deps)
        folds = {}
        for backend in ("tuple", "auto"):
            with perf.measuring() as stats:
                core(solution, backend=backend)
            folds[backend] = stats.get("core.iso_folds")
        assert folds["auto"] == folds["tuple"]

    # Two 2-null blocks over U whose rows, nulls masked, are both
    # {U(-1,-1,a), U(-1,-1,b)}: in TWIN the two facts point opposite ways,
    # in SAME_WAY the same way, so they share an invariant but are not
    # isomorphic.  Each is rigid (every fact holds both nulls).
    TWIN = "U(_x1,_y1,a), U(_y1,_x1,b)"
    SAME_WAY = "U(_p,_q,a), U(_p,_q,b)"

    def _fingerprinted(self, monkeypatch) -> list:
        calls: list = []
        fingerprint = _ColumnarCore.block_fingerprint

        def spy(engine, block):
            calls.append(len(block))
            return fingerprint(engine, block)

        monkeypatch.setattr(_ColumnarCore, "block_fingerprint", spy)
        return calls

    def test_equal_invariants_that_are_not_isomorphic_both_survive(self, monkeypatch):
        instance = parse_instance(f"{self.TWIN}, {self.SAME_WAY}")
        store = ColumnarInstance(instance)
        engine = _ColumnarCore(store.values)
        first, second = engine.null_blocks(store)
        assert engine.block_invariant(first) == engine.block_invariant(second)
        fingerprinted = self._fingerprinted(monkeypatch)
        for backend in ("tuple", "auto"):
            with perf.measuring() as stats:
                assert core(instance, backend=backend) == instance
            assert stats.get("core.iso_folds") == 0
        assert fingerprinted == [2, 2]

    def test_isomorphic_blocks_among_distinct_ones_fold(self, monkeypatch):
        instance = parse_instance(
            f"{self.TWIN}, U(_x2,_y2,a), U(_y2,_x2,b), {self.SAME_WAY}, "
            "R(c,_z), R(_z,d)"
        )
        fingerprinted = self._fingerprinted(monkeypatch)
        with perf.measuring() as stats:
            result = core(instance, backend="auto")
        assert stats.get("core.iso_folds") == 1
        assert len(result) == 6
        assert result.isomorphic(core(instance, backend="tuple"))
        # The R block's invariant is its own, so it is never fingerprinted.
        assert fingerprinted == [2, 2, 2]


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
    """The column-wise AC-3 revision keeps every ``hom.*`` count.

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
    def test_ex48_cycle_counts(self, n, counts, monkeypatch):
        from repro.engine.chase import chase_so_tgd
        from repro.logic.parser import parse_so_tgd
        from repro.workloads import cycle_instance

        chased = chase_so_tgd(cycle_instance(n), parse_so_tgd(self.EX48))
        monkeypatch.setattr(core_instance, "ColumnarInstance",
                            lambda facts: ColumnarInstance(sorted(facts, key=repr)))
        with perf.measuring() as stats:
            result = core(chased, backend="columnar")
        assert len(result) == (2 * n if n % 2 else 2)
        assert {key: stats.get(f"hom.{key}") for key in counts} == counts


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
        assert stats.get("core.blocks") == 65
        assert stats.get("core.sql.queries") == 0


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
