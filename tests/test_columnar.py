"""Differential tests: the columnar and SQL exchange backends against the tuple chase.

The three backends must produce the *same facts* (not just isomorphic
copies): they consume the same Skolemized clause programs and all label
nulls with the same ground Skolem terms, so set equality is the contract.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.engine.chase import chase, compile_clause_program
from repro.engine.columnar import ColumnarInstance, columnar_execute_exchange
from repro.engine.dispatch import (
    COLUMNAR_AUTO_THRESHOLD,
    SQL_AUTO_THRESHOLD,
    choose_backend,
)
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.engine.sql_backend import decode_value, encode_value, sql_execute_exchange
from repro.errors import BudgetExceeded, ChaseError
from repro.export.sql import execute_exchange
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance, parse_nested_tgd, parse_tgd
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant, Null

from tests.strategies import SOURCE_RELATIONS, nested_tgds

CONSTANTS = [Constant(c) for c in "abc"]

source_facts = st.builds(
    Atom,
    st.sampled_from([n for n, a in SOURCE_RELATIONS if a == 2]),
    st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS)),
)
q_facts = st.builds(Atom, st.just("Q"), st.tuples(st.sampled_from(CONSTANTS)))
sources = st.lists(st.one_of(source_facts, q_facts), max_size=6).map(Instance)


class TestColumnarInstance:
    def test_len_and_iteration(self):
        inst = parse_instance("R(a,b), R(a,c), P(a)")
        store = ColumnarInstance(inst)
        assert len(store) == 3
        assert set(store) == set(inst)

    def test_add_fact_deduplicates(self):
        store = ColumnarInstance()
        fact = Atom("R", (Constant("a"), Constant("b")))
        assert store.add_fact(fact)
        assert not store.add_fact(fact)
        assert len(store) == 1

    def test_mixed_arity_relation_supported(self):
        # Tuple instances allow one relation name at several arities; the
        # columnar store keys fact tables by (relation, arity).
        facts = [Atom("R", (Constant("a"),)), Atom("R", (Constant("a"), Constant("b")))]
        store = ColumnarInstance(facts)
        assert len(store) == 2
        assert store.to_instance() == Instance(facts)


class TestExchangeDifferential:
    CASES = [
        ([parse_tgd("S(x,y) -> R(y,x)")], "S(a,b), S(b,c)"),
        ([parse_tgd("S(x,y) -> R(x,z) & T2(z,y)")], "S(a,b)"),
        ([parse_tgd("S(x,y) & S(y,z) -> R(x,z)")], "S(a,b), S(b,c), S(c,d)"),
        ([parse_tgd("S(x,x) -> P(x)")], "S(a,a), S(a,b)"),
        (
            [parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")],
            "S(a,b), S(a,c)",
        ),
    ]

    @pytest.mark.parametrize("deps,source_text", CASES)
    def test_backends_agree_exactly(self, deps, source_text):
        source = parse_instance(source_text)
        expected = chase(source, deps)
        clauses = compile_clause_program(deps)
        assert set(columnar_execute_exchange(source, clauses)) == set(expected)
        assert set(sql_execute_exchange(source, clauses)) == set(expected)
        for backend in ("tuple", "columnar", "sql", "auto"):
            assert set(execute_exchange(source, deps, backend=backend)) == set(expected)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tgd=nested_tgds(max_depth=2), source=sources)
    def test_random_mapping_backends_agree(self, tgd, source):
        expected = set(chase(source, [tgd]))
        clauses = compile_clause_program([tgd])
        assert set(columnar_execute_exchange(source, clauses)) == expected
        assert set(sql_execute_exchange(source, clauses)) == expected


class TestFixpointDifferential:
    """The fixpoint chase has one engine; these pin its tuple-engine results."""

    def test_transitive_closure_all_backends(self):
        tc = parse_tgd("E(x,y) & E(y,z) -> E(x,z)")
        inst = parse_instance("E(a,b), E(b,c), E(c,d), E(d,a)")
        result = fixpoint_chase(inst, [tc])
        assert result.reached_fixpoint
        # A 4-cycle closes into the complete relation over its 4 nodes.
        assert len(result.instance) == 16

    def test_budget_exceeded_on_every_backend(self):
        tc = parse_tgd("E(x,y) & E(y,z) -> E(x,z)")
        inst = parse_instance("E(a,b), E(b,c), E(c,d), E(d,a)")
        with pytest.raises(BudgetExceeded):
            fixpoint_chase(inst, [tc], budget=5)


class TestSkolemEncodingRegression:
    """Constants containing ','/'('/')' must not collide inside Skolem labels."""

    ADVERSARIAL = [
        Constant("a,b"),
        Constant("f_y(a"),
        Constant(")"),
        Constant("3:x"),
        Constant("o'brien"),
    ]

    def test_encode_value_injective_on_collision_shapes(self):
        # The naive concatenation rendered both of these as "f(a,b)".
        left = FuncTerm("f", (Constant("a,b"),))
        right = FuncTerm("f", (Constant("a"), Constant("b")))
        assert encode_value(left) != encode_value(right)
        assert decode_value(encode_value(left)) is left
        assert decode_value(encode_value(right)) is right

    def test_adversarial_constants_roundtrip(self):
        for value in self.ADVERSARIAL:
            assert decode_value(encode_value(value)) is value
        nested = FuncTerm("g", (FuncTerm("f", tuple(self.ADVERSARIAL)), Null("n,1")))
        assert decode_value(encode_value(nested)) is nested

    def test_exchange_with_adversarial_constants(self):
        deps = [parse_tgd("S(x,y) -> R(x,z) & T2(z,y)")]
        source = Instance(
            [Atom("S", (a, b)) for a in self.ADVERSARIAL for b in self.ADVERSARIAL]
        )
        expected = set(chase(source, deps))
        clauses = compile_clause_program(deps)
        assert set(sql_execute_exchange(source, clauses)) == expected
        assert set(columnar_execute_exchange(source, clauses)) == expected

    def test_adversarial_pair_yields_distinct_nulls(self):
        # Two triggers whose naive labels collide: f_z("a,b") vs f_z("a","b")
        # must stay two distinct nulls all the way through SQLite.
        deps = [parse_tgd("S(x,y) -> R(z,y)")]
        source = Instance([
            Atom("S", (Constant("a,b"), Constant("k"))),
            Atom("S", (Constant("a"), Constant("b"))),
        ])
        result = execute_exchange(source, deps, backend="sql")
        nulls = {fact.args[0] for fact in result.facts_of("R")}
        assert len(nulls) == 2


class TestDispatch:
    TC = [parse_tgd("E(x,y) & E(y,z) -> E(x,z)")]

    def _clauses(self):
        return compile_clause_program(self.TC)

    def test_explicit_choices_respected(self):
        for backend in ("tuple", "columnar", "sql"):
            choice = choose_backend(backend, input_size=10, clauses=self._clauses())
            assert choice.backend == backend
            assert not choice.was_auto

    def test_auto_small_input_stays_tuple(self):
        choice = choose_backend("auto", input_size=10, clauses=self._clauses())
        assert choice.backend == "tuple"

    def test_auto_medium_input_goes_columnar(self):
        choice = choose_backend(
            "auto",
            input_size=COLUMNAR_AUTO_THRESHOLD,
            clauses=self._clauses(),
        )
        assert choice.backend == "columnar"

    def test_auto_large_certified_goes_sql(self):
        choice = choose_backend(
            "auto",
            input_size=SQL_AUTO_THRESHOLD,
            clauses=self._clauses(),
        )
        assert choice.backend == "sql"
        assert choice.reason == "certified program, 5000 facts >= 5000"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ChaseError):
            choose_backend("fortran", input_size=1, clauses=self._clauses())


class TestPerfCounters:
    def test_backend_counters_recorded(self):
        deps = [parse_tgd("S(x,y) & S(y,z) -> R(x,z)")]
        source = parse_instance("S(a,b), S(b,c), S(c,d)")
        clauses = compile_clause_program(deps)
        with perf.measuring() as stats:
            sql_execute_exchange(source, clauses)
        assert stats.get("backend.sql.statements") > 0
        assert stats.get("backend.sql.encoded_rows") == 3
        assert stats.get("backend.sql.decoded_rows") == 2
        with perf.measuring() as stats:
            columnar_execute_exchange(source, clauses)
        assert stats.get("backend.columnar.joins") > 0
        assert stats.get("backend.columnar.encoded_rows") == 3
        assert stats.get("backend.columnar.decoded_rows") == 2
