"""Differential tests of the compiled clause emitter (:mod:`repro.engine.chase`).

Every chase path emits a clause's head facts through the emitter that
:func:`~repro.engine.chase.clause_emitter` compiles once per clause.  The
reference below is the direct reading of an SO tgd clause: check each
equality by substituting the match into both sides, then substitute the
match into every head atom.  The emitter must produce the same fact multiset
and count the same ``chase.triggers``, on the single-pass program, on a
source delta and through the fixpoint chase.
"""

from __future__ import annotations

import pickle
from collections import Counter

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.engine.builder import InstanceBuilder
from repro.engine.chase import (
    clause_emitter,
    compile_clause_program,
    run_clause_program,
    run_clause_program_delta,
)
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.engine.matching import find_delta_matches, find_matches
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance, parse_so_tgd
from repro.logic.sotgd import SOClause, SOTgd
from repro.logic.terms import FuncTerm, substitute_term
from repro.logic.values import Constant, Variable
from repro.workloads import random_instance
from repro.workloads.scenarios import ALL_SCENARIOS

from tests.strategies import SOURCE_RELATIONS, nested_tgds, same_schema_tgds, so_tgds

SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Every s-t tgd of the shipped scenarios, one program per scenario.
SCENARIO_PROGRAMS = [(scenario, compile_clause_program(scenario.flat))
                     for scenario in ALL_SCENARIOS]


def reference_emit(clause, matches) -> tuple[list[Atom], int]:
    """The head facts of *clause* over *matches*, and its trigger count."""
    facts: list[Atom] = []
    triggers = 0
    for match in matches:
        if any(substitute_term(left, match) != substitute_term(right, match)
               for left, right in clause.equalities):
            continue
        triggers += 1
        for atom in clause.head:
            facts.append(Atom(atom.relation,
                              tuple(substitute_term(term, match) for term in atom.args)))
    return facts, triggers


def reference_program(clauses, matches_of) -> tuple[Counter, int]:
    facts: list[Atom] = []
    triggers = 0
    for clause in clauses:
        emitted, fired = reference_emit(clause, matches_of(clause))
        facts.extend(emitted)
        triggers += fired
    return Counter(facts), triggers


def assert_program_agrees(clauses, source) -> None:
    expected = reference_program(clauses, lambda clause: find_matches(clause.body, source))
    with perf.measuring() as stats:
        emitted = run_clause_program(clauses, source)
    assert (Counter(emitted), stats.get("chase.triggers")) == expected


def assert_delta_agrees(clauses, source: Instance, split: int) -> None:
    facts = sorted(source, key=repr)
    builder = InstanceBuilder(facts[:split])
    delta = builder.add_all(facts[split:])
    expected = reference_program(
        clauses, lambda clause: find_delta_matches(clause.body, builder, delta)
    )
    with perf.measuring() as stats:
        emitted = run_clause_program_delta(clauses, builder, delta)
    assert (Counter(emitted), stats.get("chase.triggers")) == expected


def reference_fixpoint(instance: Instance, clauses, max_rounds: int) -> tuple[Instance, int]:
    """The semi-naive loop of ``fixpoint_chase``, emitting through the reference."""
    builder = InstanceBuilder(instance)
    triggers = 0
    delta = None
    for __ in range(max_rounds):
        new_delta: list[Atom] = []
        for clause in clauses:
            if delta is None:
                matches = list(find_matches(clause.body, builder))
            else:
                matches = find_delta_matches(clause.body, builder, delta)
            emitted, fired = reference_emit(clause, matches)
            triggers += fired
            new_delta.extend(fact for fact in emitted if builder.add(fact))
        if not new_delta:
            break
        delta = new_delta
    return builder.freeze(), triggers


def assert_fixpoint_agrees(instance: Instance, deps, max_rounds: int = 3) -> None:
    expected = reference_fixpoint(instance, compile_clause_program(deps), max_rounds)
    with perf.measuring() as stats:
        result = fixpoint_chase(instance, deps, max_rounds=max_rounds)
    assert (result.instance.facts, stats.get("chase.triggers")) == \
        (expected[0].facts, expected[1])


def source_of(seed: int, fact_count: int = 7) -> Instance:
    return random_instance(SOURCE_RELATIONS, fact_count=fact_count, domain_size=3, seed=seed)


# ------------------------------------------------------------ single pass


@SETTINGS
@given(tgd=nested_tgds(max_depth=3, max_children=2), seed=st.integers(0, 10_000))
def test_nested_tgd_program_agrees(tgd, seed):
    assert_program_agrees(compile_clause_program([tgd]), source_of(seed))


@SETTINGS
@given(so_tgd=so_tgds(), seed=st.integers(0, 10_000))
def test_so_tgd_program_agrees(so_tgd, seed):
    assert_program_agrees(compile_clause_program([so_tgd]), source_of(seed))


@settings(max_examples=15, deadline=None)
@given(index=st.integers(0, len(SCENARIO_PROGRAMS) - 1), n=st.integers(1, 12))
def test_scenario_st_tgd_program_agrees(index, n):
    scenario, clauses = SCENARIO_PROGRAMS[index]
    assert_program_agrees(clauses, scenario.source(n))


def test_equalities_gate_triggers():
    # x = y holds on S(a, a) and S(b, b) only; f(x) = h(x) never holds over the
    # term algebra
    x, y, c = Variable("x"), Variable("y"), Constant("c")
    fx = FuncTerm("f", (x,))
    so_tgd = SOTgd(["f", "g", "h"], [
        SOClause((Atom("S", (x, y)),), ((x, y),),
                 (Atom("R", (fx, FuncTerm("g", (FuncTerm("f", (y,)), c)))),)),
        SOClause((Atom("S", (x, y)),), ((fx, FuncTerm("h", (x,))),), (Atom("P", (x,)),)),
    ])
    source = parse_instance("S(a, a), S(a, b), S(b, b)")
    assert_program_agrees(compile_clause_program([so_tgd]), source)
    with perf.measuring() as stats:
        emitted = run_clause_program(compile_clause_program([so_tgd]), source)
    assert stats.get("chase.triggers") == 2
    assert len(emitted) == 2


# ------------------------------------------------------------------ delta


@SETTINGS
@given(tgd=nested_tgds(max_depth=3, max_children=2), seed=st.integers(0, 10_000),
       split=st.integers(0, 7))
def test_nested_tgd_delta_agrees(tgd, seed, split):
    assert_delta_agrees(compile_clause_program([tgd]), source_of(seed), split)


@SETTINGS
@given(so_tgd=so_tgds(), seed=st.integers(0, 10_000), split=st.integers(0, 7))
def test_so_tgd_delta_agrees(so_tgd, seed, split):
    assert_delta_agrees(compile_clause_program([so_tgd]), source_of(seed), split)


@settings(max_examples=10, deadline=None)
@given(index=st.integers(0, len(SCENARIO_PROGRAMS) - 1), n=st.integers(1, 8),
       split=st.integers(0, 30))
def test_scenario_st_tgd_delta_agrees(index, n, split):
    scenario, clauses = SCENARIO_PROGRAMS[index]
    assert_delta_agrees(clauses, scenario.source(n), split)


# --------------------------------------------------------------- fixpoint


@SETTINGS
@given(tgds=same_schema_tgds(), seed=st.integers(0, 10_000))
def test_same_schema_fixpoint_agrees(tgds, seed):
    from tests.strategies import INSTANCE_RELATIONS

    instance = random_instance(INSTANCE_RELATIONS, fact_count=5, domain_size=3, seed=seed)
    assert_fixpoint_agrees(instance, tgds)


@SETTINGS
@given(so_tgd=so_tgds(), tgd=nested_tgds(max_depth=2), seed=st.integers(0, 10_000))
def test_so_and_nested_fixpoint_agrees(so_tgd, tgd, seed):
    assert_fixpoint_agrees(source_of(seed), [so_tgd, tgd])


# ------------------------------------------------------- clause identity


def test_compiled_emitter_leaves_clause_identity_alone():
    program = compile_clause_program([parse_so_tgd("S(x, y) & x = y -> R(f(x), y)")])
    (clause,) = program
    before = (hash(clause), repr(clause), pickle.dumps(clause))
    twin = pickle.loads(pickle.dumps(clause))
    emitter = clause_emitter(clause)
    assert clause_emitter(clause) is emitter  # compiled once
    assert (hash(clause), repr(clause), pickle.dumps(clause)) == before
    assert clause == twin and hash(clause) == hash(twin)
    clause_emitter(twin)
    restored = pickle.loads(pickle.dumps(clause))
    assert restored == clause and hash(restored) == hash(clause)
    assert "_emitter" not in vars(restored)


def test_repeated_chase_compiles_no_emitter(monkeypatch):
    """s-t and SO tgds keep their renamed-apart clauses per naming prefix
    (as nested tgds keep their Skolemization), so a second ``chase`` over
    the same dependencies reuses every compiled emitter."""
    import importlib

    from repro.logic.parser import parse_tgd

    # the package re-exports the chase function under the module's name
    chase_module = importlib.import_module("repro.engine.chase")

    deps = [parse_tgd("S(x, y) -> exists z . R(x, z)"),
            parse_so_tgd("S(x, y) -> R(f(x), y)"),
            parse_tgd("S(x, y) -> R(y, x)")]
    source = parse_instance("S(a, b), S(b, c)")
    compiled = []
    real = chase_module._compile_emitter
    monkeypatch.setattr(chase_module, "_compile_emitter",
                        lambda clause: compiled.append(clause) or real(clause))
    first = chase_module.chase(source, deps)
    assert len(compiled) == 3
    second = chase_module.chase(source, deps)
    assert len(compiled) == 3
    assert second == first
