"""Tests for the Instance data structure and its indexes."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine.builder import InstanceBuilder
from repro.logic.atoms import Atom
from repro.logic.instances import Instance, union_all
from repro.logic.parser import parse_instance
from repro.logic.values import Constant, Null, is_null

from tests.strategies import INSTANCE_RELATIONS, instances


A, B, C = Constant("a"), Constant("b"), Constant("c")
N1, N2 = Null("n1"), Null("n2")


def brute_force_isomorphic(left: Instance, right: Instance, rename_constants: bool) -> bool:
    """Try every bijection of the renameable values (the reference oracle)."""

    def renameable(inst: Instance) -> list:
        values = inst.nulls() | (inst.constants() if rename_constants else frozenset())
        return sorted(values, key=repr)

    domain, codomain = renameable(left), renameable(right)
    if len(left) != len(right) or len(domain) != len(codomain):
        return False
    for image in itertools.permutations(codomain):
        mapping = dict(zip(domain, image))
        if all(is_null(v) == is_null(w) for v, w in mapping.items()):
            if left.map_values(mapping) == right:
                return True
    return False


class TestBasics:
    def test_len_and_iter(self):
        inst = parse_instance("S(a,b), S(b,c)")
        assert len(inst) == 2
        assert all(f.relation == "S" for f in inst)

    def test_duplicates_collapse(self):
        inst = Instance([Atom("S", (A, B)), Atom("S", (A, B))])
        assert len(inst) == 1

    def test_containment(self):
        inst = parse_instance("S(a,b)")
        assert Atom("S", (A, B)) in inst
        assert Atom("S", (B, A)) not in inst

    def test_equality_and_hash(self):
        assert parse_instance("S(a,b)") == parse_instance("S(a, b)")
        assert hash(parse_instance("S(a,b)")) == hash(parse_instance("S(a,b)"))

    def test_subinstance_order(self):
        assert parse_instance("S(a,b)") <= parse_instance("S(a,b), S(b,c)")
        assert not parse_instance("S(c,c)") <= parse_instance("S(a,b)")


class TestIndexes:
    def test_facts_of_relation(self):
        inst = parse_instance("S(a,b), S(b,c), Q(a)")
        assert len(inst.facts_of("S")) == 2
        assert inst.facts_of("Missing") == ()

    def test_facts_with_position_value(self):
        inst = parse_instance("S(a,b), S(a,c), S(b,c)")
        assert len(inst.facts_with("S", 0, A)) == 2
        assert len(inst.facts_with("S", 1, C)) == 2
        assert inst.facts_with("S", 0, C) == ()

    def test_relations(self):
        assert parse_instance("S(a,b), Q(a)").relations() == {"S", "Q"}


_INDEX_SLOTS = ("_by_relation", "_by_position", "_by_value", "_nulls", "_constants")


def _indexed(instance: Instance) -> list[bool]:
    return [getattr(instance, slot) is not None for slot in _INDEX_SLOTS]


class TestLazyIndexes:
    """A fresh Instance builds its indexes on the first lookup that needs one."""

    @settings(max_examples=80, deadline=None)
    @given(drawn=instances(max_facts=10), other=instances(max_facts=10))
    def test_lookups_match_frozen_builder(self, drawn, other):
        # Every lookup runs on a fresh, unindexed instance, so each accessor
        # is checked from the state where it has to build the indexes itself.
        def fresh() -> Instance:
            return Instance(drawn.facts)

        frozen = InstanceBuilder(drawn.facts).freeze()
        values = sorted(frozen.active_domain() | {Constant("absent")}, key=repr)
        relations = [name for name, __ in INSTANCE_RELATIONS] + ["Missing"]
        for relation in relations:
            assert sorted(fresh().facts_of(relation), key=repr) == sorted(
                frozen.facts_of(relation), key=repr)
            for position in range(3):
                for value in values:
                    assert sorted(fresh().facts_with(relation, position, value), key=repr) == (
                        sorted(frozen.facts_with(relation, position, value), key=repr))
        for value in values:
            assert sorted(fresh().facts_containing(value), key=repr) == sorted(
                frozen.facts_containing(value), key=repr)
        assert fresh().relations() == frozen.relations()
        assert fresh().nulls() == frozen.nulls()
        assert fresh().constants() == frozen.constants()
        assert fresh().active_domain() == frozen.active_domain()
        assert fresh().is_ground() == frozen.is_ground()
        frozen_other = InstanceBuilder(other.facts).freeze()
        for rename_constants in (False, True):
            assert fresh().isomorphic(
                Instance(other.facts), rename_constants=rename_constants
            ) == frozen.isomorphic(frozen_other, rename_constants=rename_constants)

    def test_set_operations_leave_indexes_unbuilt(self):
        facts = [Atom("R", (A, N1)), Atom("R", (N1, B)), Atom("P", (C,))]
        inst, same, larger = Instance(facts), Instance(facts), Instance(facts[:2])
        assert len(inst) == 3
        assert sorted(inst, key=repr) == sorted(facts, key=repr)
        assert facts[0] in inst and inst.facts == frozenset(facts)
        assert inst == same and hash(inst) == hash(same)
        assert larger <= inst and not inst <= larger
        for instance in (inst, same, larger):
            assert not any(_indexed(instance))
        assert inst.facts_of("R")
        assert all(_indexed(inst))

    def test_frozen_builder_adopts_its_indexes(self):
        assert all(_indexed(InstanceBuilder(parse_instance("R(a,_x)")).freeze()))


class TestDomains:
    def test_constants_and_nulls_split(self):
        inst = Instance([Atom("R", (A, N1)), Atom("R", (B, N2))])
        assert inst.constants() == {A, B}
        assert inst.nulls() == {N1, N2}

    def test_active_domain(self):
        inst = Instance([Atom("R", (A, N1))])
        assert inst.active_domain() == {A, N1}

    def test_groundness(self):
        assert parse_instance("S(a,b)").is_ground()
        assert not parse_instance("S(a,_n)").is_ground()


class TestConstruction:
    def test_union(self):
        left = parse_instance("S(a,b)")
        right = parse_instance("S(b,c)")
        assert len(left.union(right)) == 2

    def test_union_all(self):
        parts = [parse_instance("S(a,b)"), parse_instance("S(b,c)"), parse_instance("Q(a)")]
        assert len(union_all(parts)) == 3

    def test_difference(self):
        inst = parse_instance("S(a,b), S(b,c)")
        assert len(inst.difference(parse_instance("S(a,b)"))) == 1

    def test_restrict_by_predicate(self):
        inst = parse_instance("S(a,b), Q(a)")
        assert inst.restrict(lambda f: f.relation == "Q") == parse_instance("Q(a)")

    def test_restrict_to_relations(self):
        inst = parse_instance("S(a,b), Q(a), R(b)")
        assert inst.restrict_to_relations(["Q", "R"]).relations() == {"Q", "R"}

    def test_map_values(self):
        inst = Instance([Atom("R", (A, N1))])
        mapped = inst.map_values({N1: B})
        assert mapped == parse_instance("R(a,b)")


def _lookups(inst: Instance, values) -> tuple:
    """Every index lookup of *inst* over the drawn schema and *values*, as sets.

    Each lookup must also list a fact at most once.
    """
    views = []
    for name, arity in INSTANCE_RELATIONS:
        views.append(inst.facts_of(name))
        views.extend(inst.facts_with(name, pos, value)
                     for pos in range(arity) for value in values)
    views.extend(inst.facts_containing(value) for value in values)
    assert all(len(view) == len(set(view)) for view in views)
    return tuple(frozenset(view) for view in views)


class TestExtended:
    @settings(max_examples=200, deadline=None)
    @given(instances(), st.data())
    def test_agrees_with_a_fresh_instance(self, parent, data):
        """``extended`` equals ``Instance(facts | delta)`` on every lookup,
        from an indexed parent or a not-yet-indexed one, for deltas that
        repeat facts and overlap the parent, and leaves the parent alone."""
        delta = list(data.draw(instances(max_facts=4)))
        if len(parent):
            delta += data.draw(st.lists(st.sampled_from(sorted(parent, key=repr)), max_size=2))
        delta += delta[:1]
        if data.draw(st.booleans()):
            parent.facts_of("R")  # builds every index; otherwise none is built
        original = Instance(parent.facts)
        child = parent.extended(delta)
        values = [Constant(f"a{i}") for i in range(4)] + [Null(f"n{i}") for i in range(4)]
        for instance, reference in ((child, Instance(parent.facts | set(delta))),
                                    (parent, original)):
            assert instance == reference and len(instance) == len(reference)
            assert _lookups(instance, values) == _lookups(reference, values)
            assert instance.nulls() == reference.nulls()
            assert instance.constants() == reference.constants()

    def test_nothing_new_returns_the_instance_itself(self):
        inst = parse_instance("S(a,b), Q(a)")
        inst.facts_of("S")
        assert inst.extended(parse_instance("Q(a)")) is inst
        assert inst.extended([]) is inst


class TestIsomorphism:
    def test_null_renaming_isomorphism(self):
        left = parse_instance("R(a,_x), R(_x,_y)")
        right = parse_instance("R(a,_u), R(_u,_v)")
        assert left.isomorphic(right)

    def test_non_isomorphic_structures(self):
        left = parse_instance("R(a,_x), R(_x,a)")
        right = parse_instance("R(a,_u), R(_v,a)")
        assert not left.isomorphic(right)

    def test_constants_must_match_without_renaming(self):
        assert not parse_instance("S(a,b)").isomorphic(parse_instance("S(c,d)"))

    def test_constant_renaming_isomorphism(self):
        left = parse_instance("S(a,b), S(b,a)")
        right = parse_instance("S(c,d), S(d,c)")
        assert left.isomorphic(right, rename_constants=True)

    def test_constant_renaming_respects_structure(self):
        left = parse_instance("S(a,a)")
        right = parse_instance("S(c,d)")
        assert not left.isomorphic(right, rename_constants=True)

    def test_different_sizes_never_isomorphic(self):
        assert not parse_instance("S(a,b)").isomorphic(parse_instance("S(a,b), S(b,a)"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rename_constants=st.booleans())
    def test_agrees_with_brute_force(self, data, rename_constants):
        small = instances(max_facts=6, max_constants=3, max_nulls=3)
        left = data.draw(small)
        mode = data.draw(st.sampled_from(["renamed", "mutated", "independent"]))
        if mode == "independent":
            right = data.draw(small)
        else:
            nulls = sorted(left.nulls(), key=repr)
            fresh = [Null(f"m{i}") for i in range(len(nulls))]
            renaming = dict(zip(nulls, data.draw(st.permutations(fresh))))
            if rename_constants:
                constants = sorted(left.constants(), key=repr)
                fresh = [Constant(f"c{i}") for i in range(len(constants))]
                renaming.update(zip(constants, data.draw(st.permutations(fresh))))
            right = left.map_values(renaming)
            if mode == "mutated" and len(right):
                facts = sorted(right, key=repr)
                dropped = data.draw(st.sampled_from(facts))
                added = data.draw(instances(min_facts=1, max_facts=1, max_constants=3, max_nulls=3))
                right = Instance([f for f in facts if f != dropped] + list(added))
        assert left.isomorphic(right, rename_constants=rename_constants) == (
            brute_force_isomorphic(left, right, rename_constants)
        )

    def test_many_nulls_do_not_exhaust_the_recursion_limit(self):
        # One null per fact, each over its own relation: the search maps
        # 1,500 nulls in a row, past the default recursion limit of 1,000.
        def single_null_facts(prefix: str) -> Instance:
            return Instance(Atom(f"R{i}", (Null(f"{prefix}{i}"),)) for i in range(1500))

        assert single_null_facts("x").isomorphic(single_null_facts("y"))
