"""Tests for the recursive-triggering chase for nested tgds (Section 3)."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.patterns import Pattern
from repro.engine.chase import chase
from repro.engine.nested_chase import chase_nested
from repro.logic.atoms import Atom
from repro.logic.parser import parse_instance, parse_nested_tgd, parse_so_tgd, parse_tgd
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant
from repro.workloads.generators import random_instance

from tests.strategies import SOURCE_RELATIONS, nested_tgds


class TestTriggeringStructure:
    def test_intro_example_facts(self, intro_nested):
        """S(a,b), S(a,c): root per (x1,x2) pair; each root triggers x3 twice."""
        forest = chase_nested(parse_instance("S(a,b), S(a,c)"), intro_nested)
        assert len(forest.trees) == 2
        J = forest.instance
        # per root y = f(a, x2): R(y, b) and R(y, c) -- 2 distinct nulls, 4 facts
        assert len(J.nulls()) == 2
        assert len(J) == 4

    def test_parent_child_links(self, intro_nested):
        forest = chase_nested(parse_instance("S(a,b)"), intro_nested)
        tree = forest.trees[0]
        children = tree.root.children
        assert len(children) == 1
        assert children[0].parent is tree.root
        assert list(children[0].ancestors()) == [tree.root]

    def test_input_assignment_extends_parent(self, sigma_star):
        source = parse_instance("S1(a), S3(a,b), S4(b,c)")
        forest = chase_nested(source, sigma_star)
        tree = forest.trees[0]
        triggering_4 = [t for t in tree.triggerings() if t.part_id == 4][0]
        parent_assignment = triggering_4.parent.assignment
        for var, value in parent_assignment.items():
            assert triggering_4.assignment[var] == value

    def test_rec_triggerings(self, sigma_star):
        source = parse_instance("S1(a), S3(a,b), S4(b,c)")
        forest = chase_nested(source, sigma_star)
        root = forest.trees[0].root
        assert {t.part_id for t in root.recursive_triggerings()} == {3, 4}


class TestNullDisjointness:
    def test_distinct_chase_trees_share_no_nulls(self, intro_nested):
        """The key underpinning of Theorem 3.1 (Section 3)."""
        forest = chase_nested(parse_instance("S(a,b), S(c,d)"), intro_nested)
        assert len(forest.trees) == 2
        null_sets = [
            {n for f in tree.facts() for n in f.nulls()} for tree in forest.trees
        ]
        assert not null_sets[0] & null_sets[1]

    def test_function_prefix_renames_nulls(self, intro_nested):
        left = chase_nested(parse_instance("S(a,b)"), intro_nested, function_prefix="l_")
        right = chase_nested(parse_instance("S(a,b)"), intro_nested, function_prefix="r_")
        left_nulls = left.instance.nulls()
        right_nulls = right.instance.nulls()
        assert not left_nulls & right_nulls


class TestPatterns:
    def test_chase_tree_pattern(self, intro_nested):
        forest = chase_nested(parse_instance("S(a,b), S(a,c)"), intro_nested)
        patterns = forest.patterns()
        # each root has two part-2 triggerings (x3 in {b, c})
        assert all(p == Pattern(1, (Pattern(2), Pattern(2))) for p in patterns)

    def test_example_34_realizability(self):
        """Example 3.4: a part whose body only uses ancestor variables can
        trigger at most once per parent triggering, so patterns with cloned
        children of that part are not realizable."""
        tgd = parse_nested_tgd("S1(x1) -> (S2(x1) -> T2(x1))")
        source = parse_instance("S1(a), S2(a)")
        forest = chase_nested(source, tgd)
        patterns = forest.patterns()
        assert patterns == [Pattern(1, (Pattern(2),))]

    def test_empty_source_empty_forest(self, intro_nested):
        forest = chase_nested(parse_instance(""), intro_nested)
        assert forest.trees == ()
        assert len(forest.instance) == 0


class TestAgreementWithSkolemizedChase:
    def test_nested_chase_equals_so_chase_modulo_renaming(self, sigma_star):
        from repro.engine.chase import chase_so_tgd

        source = parse_instance("S1(a), S2(b), S3(a,c), S4(c,d)")
        nested_result = chase_nested(source, sigma_star).instance
        so_result = chase_so_tgd(source, sigma_star.skolemize())
        assert nested_result.isomorphic(so_result)


class TestChaseEqualsForest:
    """``chase`` runs the Skolemized clause program; its facts, null labels
    included, must equal the Section 3 forest's.  Chase results cached on
    disk are keyed only by (source, dependencies), so they rely on it."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(tgd=nested_tgds(max_depth=3, max_children=2),
           seed=st.integers(0, 10_000))
    def test_chase_equals_forest_with_labels(self, tgd, seed):
        source = random_instance(SOURCE_RELATIONS, fact_count=6, domain_size=3, seed=seed)
        forest = chase_nested(source, tgd, function_prefix="d0_")
        assert chase(source, [tgd]).facts == forest.instance.facts

    def test_mixed_dependency_labels(self):
        deps = [
            parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))"),
            parse_tgd("S(x,y) -> exists z . P(x,z)"),
            parse_so_tgd("S(x,y) -> U(f(x), y)"),
        ]
        a, b, c = Constant("a"), Constant("b"), Constant("c")
        y_ab, y_ac = FuncTerm("d0_f_y", (a, b)), FuncTerm("d0_f_y", (a, c))
        expected = {
            Atom("R", (y_ab, b)), Atom("R", (y_ab, c)),
            Atom("R", (y_ac, b)), Atom("R", (y_ac, c)),
            Atom("P", (a, FuncTerm("t0_z", (a, b)))),
            Atom("P", (a, FuncTerm("t0_z", (a, c)))),
            Atom("U", (FuncTerm("d2_f", (a,)), b)),
            Atom("U", (FuncTerm("d2_f", (a,)), c)),
        }
        assert chase(parse_instance("S(a,b), S(a,c)"), deps).facts == expected
