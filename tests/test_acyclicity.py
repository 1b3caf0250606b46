"""Tests for the chase-termination hierarchy (repro.analysis.acyclicity)."""

import re

import pytest
from hypothesis import given, settings

from repro.analysis.acyclicity import (
    TerminationClass,
    TerminationVerdict,
    classify_termination,
    critical_instance,
    jointly_acyclic,
    model_faithful_acyclic,
)
from repro.analysis.termination import dependency_graph_ir, termination_report
from repro.engine.chase import compile_clause_program
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.parser import parse_egd, parse_nested_tgd, parse_so_tgd, parse_tgd
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant

from tests.strategies import instances, same_schema_tgds


# One witness set per rung of the hierarchy, each refuting all narrower rungs.
WA_SET = [parse_tgd("S(x,y) -> R(x,y)")]
JA_NOT_WA_SET = [parse_tgd("E(x,y) & E(y,x) -> exists z . E(y,z)")]
# Super-weakly but not jointly acyclic (Marnette).  Super-weak acyclicity is
# not a rung: every such set is MFA, and so is this one.
SWA_NOT_JA_SET = [
    parse_tgd("S(x) -> exists y, z . R(y,z) & R(z,y)"),
    parse_tgd("R(u,u) -> exists w . S(w)"),
]
MFA_NOT_SWA_SET = [
    parse_tgd("S(x) -> exists y . R(x,y)"),
    parse_tgd("R(x,y) & B(y) -> exists w . S(w)"),
]
DIVERGING_SET = [parse_tgd("E(x,y) -> exists z . E(y,z)")]


KEY_EGD = parse_egd("R(x,y) & R(x,z) -> y = z")
# Mixed egd/tgd lists whose egd precedes the tgds of every formalism.
MIXED_SETS = [
    [KEY_EGD] + DIVERGING_SET,
    [KEY_EGD, parse_so_tgd("E(x,y) -> F(y, f(x,y))"), parse_tgd("F(x,y) -> exists w . E(x,w)")],
    [
        KEY_EGD,
        parse_tgd("S(x) -> exists y . R(x,y)"),
        parse_nested_tgd("S(x) -> exists y . (R(x,y) & (T(x,z) -> exists w . U(y,z,w)))"),
        KEY_EGD,
        parse_so_tgd("R(x,y) -> V(g(x), y)"),
    ],
]


def engine_functions(deps) -> set[str]:
    """The Skolem functions rooting head terms of the program the chase runs."""
    program = compile_clause_program([dep for dep in deps if not isinstance(dep, Egd)])
    return {
        term.function
        for clause in program
        for atom in clause.head
        for term in atom.args
        if isinstance(term, FuncTerm)
    }


def term_depth(term: object) -> int:
    """Skolem-term nesting depth: 0 for constants, 1 + max(args) for terms."""
    if isinstance(term, FuncTerm):
        return 1 + max((term_depth(arg) for arg in term.args), default=0)
    return 0


def nested_below_itself(term: str) -> bool:
    """Does some function of the rendered *term* occur inside its own arguments?"""
    enclosing: list[str] = []
    for name, bracket in re.findall(r"(\w*)([()])", term):
        if bracket == ")":
            enclosing.pop()
        elif name in enclosing:
            return True
        else:
            enclosing.append(name)
    return False


class TestLattice:
    def test_rank_order(self):
        ranks = [cls.rank for cls in TerminationClass]
        assert ranks == sorted(ranks)
        assert list(TerminationClass) == [
            TerminationClass.WEAKLY_ACYCLIC,
            TerminationClass.JOINTLY_ACYCLIC,
            TerminationClass.MODEL_FAITHFUL,
            TerminationClass.STRATIFIED_MFA,
            TerminationClass.NOT_GUARANTEED,
        ]
        assert (
            TerminationClass.JOINTLY_ACYCLIC
            < TerminationClass.MODEL_FAITHFUL
            < TerminationClass.NOT_GUARANTEED
        )

    def test_guarantees_termination(self):
        for cls in TerminationClass:
            expected = cls is not TerminationClass.NOT_GUARANTEED
            assert cls.guarantees_termination is expected


class TestClassification:
    def test_weakly_acyclic(self):
        verdict = classify_termination(WA_SET)
        assert verdict.cls is TerminationClass.WEAKLY_ACYCLIC
        assert verdict.guarantees_termination
        assert verdict.depth_bound is not None

    def test_jointly_acyclic_not_weak(self):
        verdict = classify_termination(JA_NOT_WA_SET)
        assert verdict.cls is TerminationClass.JOINTLY_ACYCLIC
        assert not verdict.weak.weakly_acyclic
        assert verdict.depth_bound == 1

    def test_super_weakly_acyclic_set_is_model_faithful(self):
        from repro.analysis.frontier import ComplexityTier, tier_report

        verdict = classify_termination(SWA_NOT_JA_SET)
        assert verdict.cls is TerminationClass.MODEL_FAITHFUL
        # the JA refutation is witnessed by a function cycle
        assert verdict.ja_cycle
        assert verdict.depth_bound == 2
        tier = tier_report(SWA_NOT_JA_SET)
        assert tier.tier is ComplexityTier.TWO_EXPTIME
        assert not tier.refined

    def test_model_faithful_not_super_weak(self):
        verdict = classify_termination(MFA_NOT_SWA_SET)
        assert verdict.cls is TerminationClass.MODEL_FAITHFUL
        assert verdict.ja_cycle
        assert verdict.mfa_facts is not None
        assert verdict.depth_bound == 2

    def test_not_guaranteed_with_cyclic_term_witness(self):
        verdict = classify_termination(DIVERGING_SET)
        assert verdict.cls is TerminationClass.NOT_GUARANTEED
        assert not verdict.guarantees_termination
        assert verdict.mfa_conclusive
        # the MFA refutation exhibits a Skolem function nested below itself
        assert verdict.mfa_cyclic_term is not None
        assert nested_below_itself(verdict.mfa_cyclic_term)

    def test_single_dependency_accepted(self):
        verdict = classify_termination(JA_NOT_WA_SET[0])
        assert verdict.cls is TerminationClass.JOINTLY_ACYCLIC

    def test_egds_do_not_block_certification(self):
        verdict = classify_termination(WA_SET + [parse_egd("R(x,y) & R(x,z) -> y = z")])
        assert verdict.guarantees_termination

    def test_bool_protocol(self):
        assert classify_termination(WA_SET)
        assert not classify_termination(DIVERGING_SET)

    def test_to_dict_round_trips_class(self):
        payload = classify_termination(MFA_NOT_SWA_SET).to_dict()
        assert payload["class"] == "model-faithful-acyclic"
        assert payload["guarantees_termination"] is True
        assert payload["ja_cycle"]
        assert "swa_cycle" not in payload

    def test_verdicts_are_cached(self):
        first = classify_termination(SWA_NOT_JA_SET)
        second = classify_termination(SWA_NOT_JA_SET)
        assert first is second

    def test_same_named_so_functions_are_renamed_apart(self):
        # Two SO tgds that both name their function f: the chase runs them
        # as two functions, so the analyses must classify two functions too.
        deps = [
            parse_so_tgd("E(y,x) -> F(x,f(x))"),
            parse_so_tgd("F(x,x) -> E(x,f(x))"),
        ]
        functions = {sk.function for sk in dependency_graph_ir(deps).skolem_functions}
        assert functions == {"d0_f", "d1_f"}
        assert classify_termination(deps).cls is TerminationClass.JOINTLY_ACYCLIC

    @pytest.mark.parametrize("deps", MIXED_SETS, ids=["st", "so-st", "st-nested-so"])
    def test_ir_names_the_engine_functions(self, deps):
        # An egd first: the IR must not count it when naming functions.
        ir_functions = {sk.function for sk in dependency_graph_ir(deps).skolem_functions}
        assert ir_functions == engine_functions(deps)

    def test_mfa_witness_uses_the_engine_functions(self):
        deps = [KEY_EGD] + DIVERGING_SET
        verdict = classify_termination(deps)
        assert verdict.cls is TerminationClass.NOT_GUARANTEED
        assert verdict.mfa_cyclic_term is not None
        witness_functions = set(re.findall(r"(\w+)\(", verdict.mfa_cyclic_term))
        assert witness_functions and witness_functions <= engine_functions(deps)

    def test_inconclusive_mfa_budget(self):
        verdict = classify_termination(
            MFA_NOT_SWA_SET, mfa_max_facts=1, mfa_max_rounds=1
        )
        assert verdict.cls is TerminationClass.NOT_GUARANTEED
        assert not verdict.mfa_conclusive


class TestAnalysisMemo:
    """One memo table keyed by every argument a value depends on."""

    def test_tiny_budget_does_not_leak_into_default(self):
        tiny = classify_termination(MFA_NOT_SWA_SET, mfa_max_rounds=1, mfa_max_facts=1)
        default = classify_termination(MFA_NOT_SWA_SET)
        assert tiny.cls is TerminationClass.NOT_GUARANTEED
        assert default.cls is TerminationClass.MODEL_FAITHFUL

    def test_default_does_not_leak_into_tiny_budget(self):
        default = classify_termination(MFA_NOT_SWA_SET)
        tiny = classify_termination(MFA_NOT_SWA_SET, mfa_max_rounds=1, mfa_max_facts=1)
        assert default.cls is TerminationClass.MODEL_FAITHFUL
        assert tiny.cls is TerminationClass.NOT_GUARANTEED
        assert not tiny.mfa_conclusive

    def test_clear_all_caches_empties_the_memo(self):
        from repro.analysis import termination
        from repro.analysis.frontier import frontier_report
        from repro.cache import clear_all_caches

        frontier_report(MFA_NOT_SWA_SET)
        assert termination._MEMO
        clear_all_caches(disk=False)
        assert not termination._MEMO

    @pytest.mark.parametrize("deps", [WA_SET, MFA_NOT_SWA_SET], ids=["wa", "mfa"])
    def test_frontier_report_builds_the_ir_once(self, deps, monkeypatch):
        from repro.analysis import termination
        from repro.analysis.frontier import frontier_report
        from repro.analysis.static import analyze

        built = []
        real = termination.DependencyGraphIR

        def spy(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(termination, "DependencyGraphIR", spy)
        frontier_report(deps)
        frontier_report(deps)
        analyze(deps)
        assert len(built) == 1


class TestRungInternals:
    def test_jointly_acyclic_direct(self):
        assert jointly_acyclic(dependency_graph_ir(JA_NOT_WA_SET))[0]
        ok, cycle, _depth = jointly_acyclic(dependency_graph_ir(SWA_NOT_JA_SET))
        assert not ok and cycle

    def test_containment_on_certified_sets(self):
        # every rung's witness set is admitted by all wider rungs
        assert jointly_acyclic(dependency_graph_ir(JA_NOT_WA_SET))[0]
        assert model_faithful_acyclic(JA_NOT_WA_SET)[0]
        assert model_faithful_acyclic(SWA_NOT_JA_SET)[0]

    def test_critical_instance_covers_all_positions(self):
        ir = dependency_graph_ir(MFA_NOT_SWA_SET)
        inst = critical_instance(ir)
        relations = {fact.relation for fact in inst}
        assert relations == {"S", "R", "B"}
        assert all(arg == Constant("*") for fact in inst for arg in fact.args)

    def test_mfa_refutes_diverging(self):
        ok, cyclic, _depth, facts = model_faithful_acyclic(DIVERGING_SET)
        assert ok is False
        assert cyclic is not None and facts is not None


class TestEngineGate:
    """The acceptance criterion: certified-but-not-WA sets run unbounded."""

    def test_ja_set_rejected_by_weak_test_but_chases_unbounded(self):
        assert not termination_report(JA_NOT_WA_SET).weakly_acyclic
        a, b = Constant("a"), Constant("b")
        instance = Instance([Atom("E", (a, b)), Atom("E", (b, a))])
        result = fixpoint_chase(instance, JA_NOT_WA_SET)  # no max_rounds
        assert result.reached_fixpoint
        assert result.termination_class is TerminationClass.JOINTLY_ACYCLIC

    def test_mfa_set_chases_unbounded(self):
        instance = Instance([Atom("S", (Constant("a"),)), Atom("B", (Constant("b"),))])
        result = fixpoint_chase(instance, MFA_NOT_SWA_SET)
        assert result.reached_fixpoint
        assert result.termination_class is TerminationClass.MODEL_FAITHFUL

    def test_weakly_acyclic_class_reported(self):
        instance = Instance([Atom("S", (Constant("a"), Constant("b")))])
        result = fixpoint_chase(instance, WA_SET)
        assert result.termination_class is TerminationClass.WEAKLY_ACYCLIC

    def test_uncertified_still_refused_without_max_rounds(self):
        instance = Instance([Atom("E", (Constant("a"), Constant("b")))])
        with pytest.raises(ChaseError) as excinfo:
            fixpoint_chase(instance, DIVERGING_SET)
        message = str(excinfo.value)
        assert "TD001" in message and "max_rounds" in message

    def test_uncertified_allowed_with_max_rounds(self):
        instance = Instance([Atom("E", (Constant("a"), Constant("b")))])
        result = fixpoint_chase(instance, DIVERGING_SET, max_rounds=3)
        assert not result.reached_fixpoint
        assert result.termination_class is None

    @settings(max_examples=150, deadline=None)
    @given(tgds=same_schema_tgds(), instance=instances(max_nulls=0))
    def test_every_certificate_bounds_the_chase(self, tgds, instance):
        # Whatever rung certifies a set, the unbounded chase of any ground
        # instance reaches its fixpoint within the certified Skolem depth.
        verdict = classify_termination(tgds)
        if not verdict.guarantees_termination:
            return
        result = fixpoint_chase(instance, tgds)
        assert result.reached_fixpoint
        deepest = max((term_depth(arg) for fact in result.instance for arg in fact.args), default=0)
        assert deepest <= verdict.depth_bound
