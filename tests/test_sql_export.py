"""Tests for the SQL compiler: generated SQL executes the oblivious chase."""

import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine.chase import chase
from repro.errors import DependencyError
from repro.export.sql import (
    compile_mapping_to_sql,
    execute_exchange,
    render_instance_values,
    schema_ddl,
)
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance, parse_nested_tgd, parse_so_tgd, parse_tgd
from repro.logic.schema import Schema
from repro.logic.tgds import STTgd
from repro.logic.values import Constant

from tests.strategies import SOURCE_RELATIONS, nested_tgds


class TestCompilation:
    def test_copy_tgd(self):
        [statement] = compile_mapping_to_sql([parse_tgd("S(x,y) -> R(y,x)")])
        assert statement == "INSERT INTO R SELECT DISTINCT a0.c1, a0.c0 FROM S AS a0"

    def test_join_produces_where(self):
        [statement] = compile_mapping_to_sql(
            [parse_tgd("S(x,y) & S(y,z) -> R(x,z)")]
        )
        assert "WHERE" in statement
        assert {"a0.c1", "a1.c0"} <= set(statement.replace("=", " ").split())

    def test_skolem_term_concatenation(self):
        [statement] = compile_mapping_to_sql([parse_tgd("S(x,y) -> R(x,z)")])
        assert "||" in statement and "t0_z(" in statement

    def test_nested_tgd_one_statement_per_head_atom(self, sigma_star):
        statements = compile_mapping_to_sql([sigma_star])
        assert len(statements) == 3  # parts 2, 3, 4 each have one head atom

    def test_repeated_variable_in_one_atom(self):
        [statement] = compile_mapping_to_sql([parse_tgd("S(x,x) -> P(x)")])
        assert "WHERE a0.c1 = a0.c0" in statement

    def test_ddl(self):
        assert schema_ddl(Schema([("S", 2), ("Q", 1)])) == [
            "CREATE TABLE S (c0 TEXT, c1 TEXT)",
            "CREATE TABLE Q (c0 TEXT)",
        ]

    def test_injection_resistant_identifiers(self):
        with pytest.raises(DependencyError):
            schema_ddl(Schema([("S; DROP TABLE x", 1)]))


class TestExecution:
    CASES = [
        ([parse_tgd("S(x,y) -> R(y,x)")], "S(a,b), S(b,c)"),
        ([parse_tgd("S(x,y) -> R(x,z) & T(z,y)")], "S(a,b)"),
        ([parse_tgd("S(x,y) & S(y,z) -> R(x,z)")], "S(a,b), S(b,c), S(c,d)"),
        (
            [parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")],
            "S(a,b), S(a,c)",
        ),
        (
            [parse_nested_tgd(
                "Customer(c, n) -> exists y . (Account(y, n) & (Ord(c, i) -> Purchase(y, i)))"
            )],
            "Customer(c1, alice), Ord(c1, book), Ord(c1, pen)",
        ),
    ]

    @pytest.mark.parametrize("deps,source_text", CASES)
    def test_sql_equals_chase(self, deps, source_text):
        source = parse_instance(source_text)
        via_sql = execute_exchange(source, deps)
        via_chase = render_instance_values(chase(source, deps))
        # execute_exchange keeps Skolem-term nulls while the rendered chase
        # relabels them as text, so compare up to null renaming.
        assert via_sql.isomorphic(via_chase)

    def test_hospital_nested_agrees_at_scale(self):
        # Same-profile null groups of 5, 5 and 6 at n=16: an isomorphism
        # search that only checks complete mappings tries their factorials.
        from repro.workloads.scenarios import HOSPITAL

        source = HOSPITAL.source(16)
        via_sql = execute_exchange(source, [HOSPITAL.nested])
        via_chase = render_instance_values(chase(source, [HOSPITAL.nested]))
        assert via_sql.isomorphic(via_chase)

    def test_shared_nulls_preserved(self):
        """The correlation: both purchases get the SAME generated account key."""
        nested = parse_nested_tgd(
            "Customer(c, n) -> exists y . (Account(y, n) & (Ord(c, i) -> Purchase(y, i)))"
        )
        source = parse_instance("Customer(c1, alice), Ord(c1, book), Ord(c1, pen)")
        result = execute_exchange(source, [nested])
        accounts = {f.args[0] for f in result.facts_of("Account")}
        purchase_keys = {f.args[0] for f in result.facts_of("Purchase")}
        assert accounts == purchase_keys
        assert len(accounts) == 1

    def test_empty_source(self):
        result = execute_exchange(parse_instance(""), [parse_tgd("S(x) -> R(x)")])
        assert len(result) == 0

    def test_quote_in_constant_handled(self):
        source = Instance([Atom("S", (Constant("o'brien"), Constant("b")))])
        result = execute_exchange(source, [parse_tgd("S(x,y) -> R(x)")])
        expected = render_instance_values(chase(source, [parse_tgd("S(x,y) -> R(x)")]))
        assert result.isomorphic(expected)


class TestExportedStatements:
    """The exported statements, run over raw tables, name nulls as ``chase``."""

    CASES = [case for case in TestExecution.CASES if isinstance(case[0][0], STTgd)] + [
        (
            [
                parse_tgd("S(x,y) -> R(x,z)"),
                parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))"),
                parse_tgd("S(x,y) & S(y,w) -> exists z . T(x,z,w)"),
            ],
            "S(a,b), S(b,c), S(a,c)",
        ),
    ]

    @pytest.mark.parametrize("deps,source_text", CASES)
    def test_exported_rows_equal_chase(self, deps, source_text):
        source = parse_instance(source_text)
        source_schema, target_schema = Schema(), Schema()
        for tgd in deps:
            source_schema = source_schema.union(tgd.source_schema())
            target_schema = target_schema.union(tgd.target_schema())
        connection = sqlite3.connect(":memory:")
        for statement in schema_ddl(source_schema.union(target_schema)):
            connection.execute(statement)
        for fact in source:
            marks = ", ".join("?" for __ in fact.args)
            connection.execute(
                f"INSERT INTO {fact.relation} VALUES ({marks})",
                tuple(value.name for value in fact.args),
            )
        for statement in compile_mapping_to_sql(deps):
            connection.execute(statement)
        expected = render_instance_values(chase(source, deps))
        rows = {
            (relation.name, row)
            for relation in target_schema
            for row in connection.execute(f"SELECT * FROM {relation.name}")
        }
        connection.close()
        assert rows == {
            (fact.relation, tuple(value.name for value in fact.args)) for fact in expected
        }

    def test_so_tgd_rejected(self):
        with pytest.raises(DependencyError):
            compile_mapping_to_sql([parse_so_tgd("S(x,y) -> R(f(x), y)")])


class TestPropertySQLvsChase:
    CONSTANTS = [Constant(c) for c in "abc"]

    source_facts = st.builds(
        Atom,
        st.sampled_from([n for n, a in SOURCE_RELATIONS if a == 2]),
        st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS)),
    )
    q_facts = st.builds(
        Atom, st.just("Q"), st.tuples(st.sampled_from(CONSTANTS))
    )
    sources = st.lists(st.one_of(source_facts, q_facts), max_size=5).map(Instance)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tgd=nested_tgds(max_depth=2), source=sources)
    def test_random_mapping_sql_equals_chase(self, tgd, source):
        via_sql = execute_exchange(source, [tgd])
        via_chase = render_instance_values(chase(source, [tgd]))
        assert via_sql.isomorphic(via_chase)
