"""Property tests: the fixpoint chase equals a naive reference loop.

The fixpoint chase has one engine, a semi-naive loop: after its first round
a clause fires only on matches that use a fact the previous round derived.
The reference below re-runs every clause over the whole instance,
``I := I ∪ run_clause_program(clauses, I)``, until nothing changes.  Ground
Skolem-term nulls make the fixpoint canonical, so the two fact sets must be
equal, not merely isomorphic.  Programs are the certified witness sets of
the frontier test-bed, one per tier below non-elementary, plus random
same-schema sets whose bounded run reaches its fixpoint; instances are drawn
by Hypothesis over small constant pools.

On a source-to-target program the single-pass :func:`repro.engine.chase.chase`
is a second reference: both engines run one compiled clause program, so the
fixpoint's derived facts are the chase's, labels included.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.frontier import ComplexityTier, frontier_report
from repro.engine.chase import chase, compile_clause_program, run_clause_program
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_tgd
from repro.logic.values import Constant
from repro.workloads.families import ladder_tgds

from tests.strategies import (
    SOURCE_RELATIONS,
    instances,
    nested_tgds,
    same_schema_tgds,
    schema_mappings,
)

PROGRAMS = {
    # tier PTIME, weakly acyclic: the existential ladder
    "ladder": (ladder_tgds(2), ["T0", "T1"]),
    # tier PTIME, jointly-but-not-weakly acyclic
    "ja": (
        [
            parse_tgd("E(x,y) & E(y,x) -> exists z . E(y,z)"),
            parse_tgd("E(x,y) -> exists u . W(y,u)"),
        ],
        ["E"],
    ),
    # tier 2-EXPTIME, model-faithful acyclic (super-weakly, not jointly)
    "swa": (
        [
            parse_tgd("S(x) -> exists y, z . R(y,z) & R(z,y)"),
            parse_tgd("R(u,u) -> exists w . S(w)"),
        ],
        ["S", "R"],
    ),
    # tier 2-EXPTIME, model-faithful acyclic
    "mfa": (
        [
            parse_tgd("A(x) -> exists y . L(x,y)"),
            parse_tgd("L(x,y) & B(y) -> exists w . A(w)"),
        ],
        ["A", "B"],
    ),
}

CONSTANTS = [Constant(name) for name in "abcde"]


def instances_over(relations):
    """Instances mixing unary/binary facts of *relations* over a small pool."""
    def fact(relation):
        unary = relation in ("S", "A", "B")
        args = st.tuples(st.sampled_from(CONSTANTS)) if unary else st.tuples(
            st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS)
        )
        return st.builds(lambda a: Atom(relation, a), args)

    return st.lists(
        st.one_of([fact(relation) for relation in relations]),
        min_size=1,
        max_size=8,
    ).map(Instance)


def naive_fixpoint(instance, deps, max_iterations=100):
    """Re-run every clause over the whole instance until nothing changes."""
    clauses = compile_clause_program(deps)
    facts = set(instance)
    for _ in range(max_iterations):
        derived = set(run_clause_program(clauses, Instance(facts)))
        if derived <= facts:
            return facts
        facts |= derived
    raise AssertionError("the naive loop did not reach a fixpoint")


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_is_certified_below_non_elementary(name):
    deps, _relations = PROGRAMS[name]
    report = frontier_report(deps)
    assert report.certified
    assert report.tier.tier < ComplexityTier.NON_ELEMENTARY


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fixpoint_chase_matches_the_naive_loop(name, data):
    deps, relations = PROGRAMS[name]
    instance = data.draw(instances_over(relations))
    result = fixpoint_chase(instance, deps)
    assert result.reached_fixpoint
    assert set(result.instance) == naive_fixpoint(instance, deps)


@settings(max_examples=40, deadline=None)
@given(tgds=same_schema_tgds(), instance=instances(max_facts=5))
def test_random_fixpoints_match_the_naive_loop(tgds, instance):
    result = fixpoint_chase(instance, tgds, max_rounds=4)
    if not result.reached_fixpoint:
        return
    assert set(result.instance) == naive_fixpoint(instance, tgds)


@st.composite
def st_programs(draw):
    """s-t, nested and SO tgds over the disjoint strategy schemas, in any order."""
    deps: list = list(draw(schema_mappings(max_tgds=2)))
    for _ in range(draw(st.integers(0, 2))):
        tgd = draw(nested_tgds(max_depth=2))
        deps.append(tgd.skolemize() if draw(st.booleans()) else tgd)
    return draw(st.permutations(deps))


@st.composite
def source_instances(draw):
    facts = []
    for _ in range(draw(st.integers(1, 6))):
        relation, arity = draw(st.sampled_from(SOURCE_RELATIONS))
        args = tuple(draw(st.sampled_from(CONSTANTS[:3])) for _ in range(arity))
        facts.append(Atom(relation, args))
    return Instance(facts)


@settings(max_examples=60, deadline=None)
@given(deps=st_programs(), instance=source_instances())
def test_fixpoint_equals_the_single_pass_chase_on_st_programs(deps, instance):
    result = fixpoint_chase(instance, deps)
    assert result.reached_fixpoint
    assert set(result.instance) - set(instance) == set(chase(instance, deps))
    assert result.rounds <= 2
    # A second round only confirms that no new fact appears.
    assert fixpoint_chase(instance, deps, max_rounds=1).instance == result.instance
