"""Tests for the oblivious chase (s-t tgds and SO tgds)."""

import pytest

from repro import perf
from repro.engine.chase import chase, chase_so_tgd, chase_st_tgds
from repro.engine.homomorphism import has_homomorphism
from repro.engine.model_check import satisfies
from repro.logic.parser import parse_instance, parse_nested_tgd, parse_so_tgd, parse_tgd


class TestSTTgdChase:
    def test_simple_copy(self):
        J = chase_st_tgds(parse_instance("S(a,b)"), [parse_tgd("S(x,y) -> R(x,y)")])
        assert J == parse_instance("R(a,b)")

    def test_existential_creates_null(self):
        J = chase_st_tgds(parse_instance("S(a,b)"), [parse_tgd("S(x,y) -> R(x,z)")])
        assert len(J) == 1
        assert len(J.nulls()) == 1

    def test_one_null_per_body_match(self):
        J = chase_st_tgds(
            parse_instance("S(a,b), S(a,c)"), [parse_tgd("S(x,y) -> R(x,z)")]
        )
        assert len(J.nulls()) == 2

    def test_shared_existential_within_head(self):
        J = chase_st_tgds(
            parse_instance("S(a,b)"), [parse_tgd("S(x,y) -> R(x,z) & T(z,y)")]
        )
        r_fact = J.facts_of("R")[0]
        t_fact = J.facts_of("T")[0]
        assert r_fact.args[1] == t_fact.args[0]

    def test_join_body(self):
        J = chase_st_tgds(
            parse_instance("S(a,b), S(b,c)"),
            [parse_tgd("S(x,y) & S(y,z) -> R(x,z)")],
        )
        assert J == parse_instance("R(a,c)")

    def test_multiple_tgds_do_not_share_nulls(self):
        J = chase_st_tgds(
            parse_instance("S(a,b)"),
            [parse_tgd("S(x,y) -> R(x,z)"), parse_tgd("S(x,y) -> T(x,z)")],
        )
        assert len(J.nulls()) == 2

    def test_empty_source_chases_to_empty(self):
        assert len(chase_st_tgds(parse_instance(""), [parse_tgd("S(x) -> R(x)")])) == 0


class TestSOTgdChase:
    def test_skolem_terms_deduplicate(self, so_tgd_413):
        # f(e1) from S(e0,e1) and S(e1,e2) is the same null
        J = chase_so_tgd(parse_instance("S(a,b), S(b,c)"), so_tgd_413)
        assert len(J.nulls()) == 3
        assert len(J) == 2

    def test_equalities_evaluated_over_term_algebra(self):
        so = parse_so_tgd("Emp(e) -> Mgr(e, f(e)) ; Emp(e) & e = f(e) -> SelfMgr(e)")
        J = chase_so_tgd(parse_instance("Emp(a)"), so)
        # e = f(e) never holds in the term algebra, so SelfMgr is never produced
        assert J.facts_of("SelfMgr") == ()
        assert len(J.facts_of("Mgr")) == 1

    def test_trivial_equality_fires(self):
        so = parse_so_tgd("S(x,y) & f(x) = f(x) -> R(f(x))")
        J = chase_so_tgd(parse_instance("S(a,b)"), so)
        assert len(J) == 1

    def test_nested_terms_build_nested_nulls(self):
        so = parse_so_tgd("S(x) -> R(f(g(x)))")
        J = chase_so_tgd(parse_instance("S(a)"), so)
        null = next(iter(J.nulls()))
        assert null.function == "f"
        assert null.args[0].function == "g"


class TestUniversality:
    """chase(I, M) is a universal solution: it maps into every solution."""

    def test_chase_maps_into_other_solutions(self):
        tgd = parse_tgd("S(x,y) -> R(x,z)")
        source = parse_instance("S(a,b)")
        canonical = chase(source, tgd)
        for solution_text in ["R(a,c)", "R(a,a)", "R(a,c), R(c,c)"]:
            solution = parse_instance(solution_text)
            assert satisfies(source, solution, tgd)
            assert has_homomorphism(canonical, solution)

    def test_chase_is_a_solution(self, intro_nested):
        source = parse_instance("S(a,b), S(a,c)")
        assert satisfies(source, chase(source, intro_nested), intro_nested)

    def test_chase_so_tgd_is_a_solution(self, so_tgd_413):
        source = parse_instance("S(a,b), S(b,c)")
        assert satisfies(source, chase(source, so_tgd_413), so_tgd_413)


class TestDispatch:
    def test_mixed_dependencies(self, intro_nested):
        deps = [parse_tgd("S(x,y) -> P(x)"), intro_nested]
        J = chase(parse_instance("S(a,b)"), deps)
        assert "P" in J.relations() and "R" in J.relations()

    def test_single_dependency_accepted(self):
        J = chase(parse_instance("S(a,b)"), parse_tgd("S(x,y) -> R(x,y)"))
        assert len(J) == 1

    def test_distinct_so_tgds_do_not_share_nulls(self, so_tgd_413):
        other = parse_so_tgd("S(x,y) -> T(f(x))")
        J = chase(parse_instance("S(a,b)"), [so_tgd_413, other])
        r_nulls = {n for f in J.facts_of("R") for n in f.nulls()}
        t_nulls = {n for f in J.facts_of("T") for n in f.nulls()}
        assert not r_nulls & t_nulls


class TestResult:
    """``chase`` hands back its facts without building an index."""

    @pytest.mark.parametrize("source, deps", [
        ("S(a,b), S(a,c), S(b,c)",
         [parse_tgd("S(x,y) -> P(x)"), parse_tgd("S(x,y) -> R(x,z) & R(z,y)")]),
        ("star",
         [parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")]),
    ], ids=["st-tgds", "intro-star"])
    def test_unindexed_and_ordered_like_a_frozen_builder(self, source, deps):
        from repro.engine.builder import InstanceBuilder
        from repro.engine.chase import compile_clause_program, run_clause_program
        from repro.workloads.families import star_instance

        instance = star_instance(12) if source == "star" else parse_instance(source)
        emitted = run_clause_program(compile_clause_program(deps), instance)
        assert len(emitted) > len(set(emitted))  # duplicates are dropped
        expected = InstanceBuilder(emitted).freeze()
        with perf.measuring() as stats:
            result = chase(instance, deps)
        assert result._by_relation is None and result._by_value is None
        assert list(result) == list(expected)
        assert stats.get("chase.facts") == len(expected)
