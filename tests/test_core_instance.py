"""Tests for core computation."""

from repro.engine.core_instance import core, is_core
from repro.engine.homomorphism import homomorphically_equivalent
from repro.logic.parser import parse_instance


class TestFolding:
    def test_null_folds_into_constant_fact(self):
        assert core(parse_instance("R(a,_x), R(a,b)")) == parse_instance("R(a,b)")

    def test_parallel_nulls_fold_together(self):
        result = core(parse_instance("R(a,_x), R(a,_y)"))
        assert len(result) == 1

    def test_ground_instance_is_its_own_core(self):
        inst = parse_instance("R(a,b), R(b,c)")
        assert core(inst) == inst

    def test_empty_instance(self):
        inst = parse_instance("")
        assert core(inst) == inst


class TestCoreProperties:
    def test_core_is_hom_equivalent_to_input(self):
        inst = parse_instance("R(a,_x), R(_x,_y), R(a,b), R(b,c)")
        assert homomorphically_equivalent(core(inst), inst)

    def test_core_is_subinstance(self):
        inst = parse_instance("R(a,_x), R(_x,_y), R(a,b)")
        result = core(inst)
        assert result <= inst

    def test_core_is_idempotent(self):
        inst = parse_instance("R(a,_x), R(_x,_y), R(a,b), R(b,c)")
        once = core(inst)
        assert core(once) == once
        assert is_core(once)


class TestSymmetricStructures:
    """Automorphisms must not fool the core computation (the triangle trap)."""

    def test_undirected_triangle_is_a_core(self):
        triangle = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), R(_3,_1), R(_1,_3)"
        )
        assert core(triangle) == triangle

    def test_odd_cycle_is_a_core(self):
        c5 = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), R(_3,_4), R(_4,_3), "
            "R(_4,_5), R(_5,_4), R(_5,_1), R(_1,_5)"
        )
        assert core(c5) == c5

    def test_even_cycle_folds_to_edge(self):
        c4 = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), "
            "R(_3,_4), R(_4,_3), R(_4,_1), R(_1,_4)"
        )
        assert len(core(c4)) == 2

    def test_path_with_pendant_folds(self):
        # _y -> _z can fold onto _x -> _y? directed path of nulls is a core
        path = parse_instance("R(_x,_y), R(_y,_z)")
        assert core(path) == path


class TestSinglePass:
    def test_rigid_block_is_searched_once(self):
        # Ex 4.8's SO tgd over the 7-cycle: one rigid block of 7 nulls.
        # The cycle is vertex-transitive, so the first failed retraction
        # proves all 7 nulls rigid: one kernel call, six orbit skips, and no
        # separate block-local fold searching it a second time.
        from repro import perf
        from repro.engine.chase import chase_so_tgd
        from repro.logic.parser import parse_so_tgd
        from repro.workloads import cycle_instance

        ex48 = parse_so_tgd("S(x,y) -> R(f(x), f(y)) & R(f(y), f(x))")
        solution = chase_so_tgd(cycle_instance(7), ex48)
        with perf.measuring() as stats:
            result = core(solution, backend="tuple")
        assert result == solution
        assert stats.get("hom.kernel_calls") == 1
        assert stats.get("core.orbit_skips") == 6
        assert stats.get("core.rigid_blocks") == 1


class TestBlocksIndependent:
    def test_distinct_blocks_folded_independently(self):
        inst = parse_instance("R(a,_x), R(a,b), T(c,_y), T(c,d)")
        assert core(inst) == parse_instance("R(a,b), T(c,d)")

    def test_isomorphic_blocks_do_not_collapse_across_constants(self):
        # blocks anchored at different constants both survive
        inst = parse_instance("R(a,_x), R(b,_y)")
        assert len(core(inst)) == 2
