"""Tests for mapping containment (repro.analysis.containment) and its stack.

Covers the decision procedure and its three-valued verdicts, machine-checked
refutation witnesses, the frontier admissibility gate, the persistent
``contain`` verdict store, the MC001/MC002 lints, ``optimize(semantic=True)``
with equivalence certificates, the ``repro contain`` / ``optimize --json``
CLI surfaces, and the differential properties of the acceptance criteria:
equivalence iff mutual containment (against ``equivalent``), agreement with
the bounded model-enumeration oracle, and Hypothesis-verified solution-set
preservation of semantic optimization.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.analysis.containment import (
    ContainmentWitness,
    check_containment,
    check_equivalence,
    contains,
    eliminate_redundant,
    redundancy_report,
    verify_witness,
)
from repro.cli import main
from repro.core.implication import equivalent, implies_semantic_bounded
from repro.core.normalization import optimize, optimize_report
from repro.errors import UndecidedError
from repro.logic.parser import parse_egd, parse_nested_tgd, parse_tgd
from repro.workloads.families import containment_pair, redundant_ladder_tgds

from .strategies import schema_mappings

COPY = "S(x,y) -> R(x,y)"
WEAK = "S(x,y) -> exists z . R(x,z)"
DIVERGING = "E(x,y) -> exists z . E(y,z)"


class TestCheckContainment:
    def test_stronger_contained_in_weaker(self):
        report = check_containment([parse_tgd(COPY)], [parse_tgd(WEAK)])
        assert report.holds is True
        assert report.status == "contained"
        assert bool(report)
        assert report.certified
        assert report.counterexample is None
        assert set(report.proof_map()) == {"#1"}

    def test_weaker_not_contained_in_stronger(self):
        report = check_containment([parse_tgd(WEAK)], [parse_tgd(COPY)])
        assert report.holds is False
        assert report.status == "not-contained"
        assert not bool(report)
        witness = report.counterexample
        assert witness is not None
        assert witness.source and witness.target

    def test_self_containment(self):
        sigma = [parse_tgd(COPY), parse_tgd("T(x,y) -> P(x)")]
        assert check_containment(sigma, sigma).holds is True

    def test_empty_rhs_trivially_contained(self):
        report = check_containment([parse_tgd(COPY)], [])
        assert report.holds is True
        assert report.verdicts == ()

    def test_single_dependency_inputs(self):
        assert check_containment(parse_tgd(COPY), parse_tgd(WEAK)).holds is True

    def test_nested_tgd_rhs(self):
        intro = parse_nested_tgd(
            "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))"
        )
        glav = parse_tgd("S(x1,x2) & S(x1,x3) -> exists y . R(y,x2) & R(y,x3)")
        # the nested tgd (one shared witness per x1) implies the pairwise
        # GLAV weakening, but not vice versa (Section 3 expressiveness gap)
        assert check_containment([intro], [glav]).holds is True
        assert check_containment([glav], [intro]).holds is False

    def test_source_egds_weaken_lhs_obligations(self):
        # without the key egd, the canonical source S(a1,a2), S(a1,a3)
        # demands P(a2,a3), which the diagonal lhs cannot produce; the egd
        # merges a2 = a3 on every legal source, and P(a2,a2) follows
        lhs = [parse_tgd("S(x,y) -> P(y,y)")]
        rhs = [parse_tgd("S(x,y) & S(x,z) -> P(y,z)")]
        egd = parse_egd("S(x,y) & S(x,z) -> y = z")
        assert check_containment(lhs, rhs).holds is False
        assert check_containment(lhs, rhs, [egd]).holds is True

    def test_workload_pairs(self):
        sigma, sigma_prime = containment_pair(2, contained=True)
        assert check_containment(sigma, sigma_prime).holds is True
        sigma, sigma_prime = containment_pair(2, contained=False)
        report = check_containment(sigma, sigma_prime)
        assert report.holds is False
        assert sum(1 for v in report.verdicts if v.status == "refuted") == 2

    def test_report_json_is_deterministic(self):
        sigma, sigma_prime = containment_pair(2, contained=False)
        first = check_containment(sigma, sigma_prime).to_json()
        second = check_containment(sigma, sigma_prime).to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["status"] == "not-contained"
        assert payload["verdicts"][0]["witness"] is not None


class TestAdmissibilityGate:
    def test_uncertified_set_refused_without_budget(self):
        report = check_containment([parse_tgd(DIVERGING)], [parse_tgd(DIVERGING)])
        assert report.holds is None
        assert report.status == "undecided"
        assert not report.certified
        assert report.chase_fact_bound is None
        assert report.refusals
        assert "frontier" in report.refusals[0].reason

    def test_contains_raises_on_undecided(self):
        with pytest.raises(UndecidedError):
            contains([parse_tgd(DIVERGING)], [parse_tgd(DIVERGING)])

    def test_tiny_budget_refuses_per_dependency(self):
        # WEAK <= COPY is not subsumption-answerable, so the sweep-cost
        # preflight really runs -- and a 1-unit budget refuses it
        report = check_containment(
            [parse_tgd(WEAK)], [parse_tgd(COPY)], budget=1,
        )
        assert report.holds is None
        assert report.refusals
        assert "budget" in report.refusals[0].reason

    def test_generous_budget_admits(self):
        report = check_containment(
            [parse_tgd(WEAK)], [parse_tgd(COPY)], budget=10**9,
        )
        assert report.holds is False

    def test_so_tgd_rhs_refused(self):
        from repro.logic.parser import parse_so_tgd

        so = parse_so_tgd("S(x,y) -> R(f(x), f(y))")
        report = check_containment([parse_tgd(COPY)], [so])
        assert report.holds is None
        assert "undecidable" in report.refusals[0].reason

    def test_refutation_sound_despite_refusals(self):
        # one refuted rhs makes the whole query False even if another
        # rhs is refused (an SO tgd here)
        from repro.logic.parser import parse_so_tgd

        so = parse_so_tgd("S(x,y) -> R(f(x), f(y))")
        report = check_containment([parse_tgd(WEAK)], [parse_tgd(COPY), so])
        assert report.holds is False


class TestWitnesses:
    def test_witness_machine_checks(self):
        lhs = [parse_tgd(WEAK)]
        rhs = parse_tgd(COPY)
        witness = check_containment(lhs, [rhs]).counterexample
        assert verify_witness(witness, lhs, rhs)

    def test_tampered_witness_fails(self):
        lhs = [parse_tgd(WEAK)]
        rhs = parse_tgd(COPY)
        witness = check_containment(lhs, [rhs]).counterexample
        # swap source and target: the "demanded" check must fail
        tampered = ContainmentWitness(
            dependency=witness.dependency, pattern=witness.pattern,
            source=witness.target, target=witness.source,
        )
        assert not verify_witness(tampered, lhs, rhs)

    def test_witness_invalid_against_stronger_lhs(self):
        # the same witness does not refute containment in a set that
        # actually implies the rhs
        lhs = [parse_tgd(WEAK)]
        rhs = parse_tgd(COPY)
        witness = check_containment(lhs, [rhs]).counterexample
        assert not verify_witness(witness, [parse_tgd(COPY)], rhs)

    def test_witness_respects_source_egds(self):
        lhs = [parse_tgd("S(x,y) -> R(x,y)")]
        rhs = parse_tgd("S(x,y) & S(x,z) -> R(y,z)")
        egd = parse_egd("S(x,y) & S(x,z) -> y = z")
        witness = check_containment(lhs, [rhs]).counterexample
        assert verify_witness(witness, lhs, rhs)
        # under the key egd the witness source is illegal or absorbable
        assert not verify_witness(witness, lhs, rhs, [egd])


class TestEquivalenceCertificate:
    def test_mutual_containment_is_equivalence(self):
        a = [parse_tgd("S(x,y) & T(y,z) -> R(x,z)")]
        b = [parse_tgd("T(y,z) & S(x,y) -> R(x,z)")]
        certificate = check_equivalence(a, b)
        assert certificate.holds is True
        assert certificate.forward.holds and certificate.backward.holds

    def test_one_direction_only(self):
        certificate = check_equivalence([parse_tgd(COPY)], [parse_tgd(WEAK)])
        assert certificate.holds is False
        assert certificate.forward.holds is True
        assert certificate.backward.holds is False

    def test_undecided_direction_propagates(self):
        certificate = check_equivalence(
            [parse_tgd(DIVERGING)], [parse_tgd(DIVERGING)]
        )
        assert certificate.holds is None


class TestDifferentialAgainstEquivalent:
    """Sigma == Sigma' iff both containments hold (Corollary 3.11)."""

    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(sigma=schema_mappings(), sigma_prime=schema_mappings())
    def test_equivalence_iff_mutual_containment(self, sigma, sigma_prime):
        forward = check_containment(sigma, sigma_prime)
        backward = check_containment(sigma_prime, sigma)
        assert forward.holds is not None and backward.holds is not None
        assert (forward.holds and backward.holds) == equivalent(
            sigma, sigma_prime
        )


class TestDifferentialAgainstSemanticOracle:
    """Containment verdicts agree with bounded model enumeration."""

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(sigma=schema_mappings(max_tgds=2), sigma_prime=schema_mappings(max_tgds=2))
    def test_agreement_on_random_mappings(self, sigma, sigma_prime):
        report = check_containment(sigma, sigma_prime)
        assert report.holds is not None
        if report.holds:
            for dep in sigma_prime:
                assert implies_semantic_bounded(
                    sigma, dep, max_facts=2, max_constants=2
                )
        else:
            refuted = next(
                v for v in report.verdicts if v.status == "refuted"
            )
            dep = sigma_prime[int(refuted.dependency.lstrip("#")) - 1]
            assert verify_witness(refuted.witness, sigma, dep)


class TestRedundancy:
    def test_redundant_ladder(self):
        deps = redundant_ladder_tgds(2)
        entries = redundancy_report(deps)
        assert [e.index for e in entries if e.status == "redundant"] == [2, 3]

    def test_no_false_redundancy(self):
        deps = [parse_tgd(COPY), parse_tgd("T(x,y) -> P(x)")]
        assert redundancy_report(deps) == ()

    def test_uncertified_set_refused(self):
        deps = [parse_tgd(DIVERGING), parse_tgd("E(x,y) -> exists z . E(z,x)")]
        entries = redundancy_report(deps)
        assert entries and all(e.status == "refused" for e in entries)

    def test_eliminate_redundant(self):
        deps = redundant_ladder_tgds(2)
        kept, dropped = eliminate_redundant(deps)
        assert len(kept) == 2 and len(dropped) == 2
        assert equivalent(kept, deps)

    def test_eliminate_keeps_uncertified_sets_intact(self):
        deps = [parse_tgd(DIVERGING), parse_tgd(DIVERGING.replace("E(", "E("))]
        kept, dropped = eliminate_redundant(deps)
        assert len(kept) == len(deps) and not dropped


class TestLints:
    def test_mc001_emitted_for_semantic_redundancy(self):
        from repro.analysis.static import analyze

        report = analyze(redundant_ladder_tgds(2))
        codes = [f.code for f in report.findings]
        assert codes.count("MC001") == 2
        assert report.ok

    def test_mc002_emitted_outside_frontier(self):
        from repro.analysis.static import analyze

        deps = [parse_tgd(DIVERGING), parse_tgd("E(x,y) -> exists z . E(z,x)")]
        report = analyze(deps)
        assert any(f.code == "MC002" for f in report.findings)

    def test_mc_codes_in_sarif_rules(self):
        from repro.analysis.sarif import sarif_report
        from repro.analysis.static import analyze

        sarif = sarif_report(analyze(redundant_ladder_tgds(2)))
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        ids = [rule["id"] for rule in rules]
        assert "MC001" in ids and "MC002" in ids


class TestSemanticOptimize:
    def test_semantic_optimize_drops_redundant(self):
        deps = redundant_ladder_tgds(2)
        report = optimize_report(deps, semantic=True)
        assert len(report.kept) == 2 and len(report.dropped) == 2
        assert report.certificate is not None
        assert report.certificate.holds is True

    def test_plain_optimize_unchanged_signature(self):
        strong, weak = parse_tgd(COPY), parse_tgd(WEAK)
        assert len(optimize([strong, weak])) == 1

    def test_optimize_report_json_deterministic(self):
        deps = redundant_ladder_tgds(2)
        assert (
            optimize_report(deps, semantic=True).to_json()
            == optimize_report(deps, semantic=True).to_json()
        )

    def test_semantic_optimize_safe_on_uncertified_sets(self):
        deps = [parse_tgd(DIVERGING), parse_tgd("E(x,y) -> exists z . E(z,x)")]
        report = optimize_report(deps, semantic=True)
        assert len(report.kept) == 2 and not report.dropped
        assert report.certificate.holds is None  # refused, not falsified

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(sigma=schema_mappings())
    def test_semantic_optimize_preserves_solution_sets(self, sigma):
        report = optimize_report(sigma, semantic=True)
        # certificate checked both directions against the *input*
        assert report.certificate.holds is True
        assert equivalent(list(report.kept), sigma)
        assert check_containment(list(report.kept), sigma).holds is True
        assert check_containment(sigma, list(report.kept)).holds is True


class TestDiskVerdictStore:
    def test_write_through_and_hit(self, tmp_path):
        from repro.cache import clear_all_caches, configure

        configure(tmp_path)
        try:
            clear_all_caches()
            sigma, sigma_prime = containment_pair(2, contained=False)
            first = check_containment(sigma, sigma_prime)
            clear_all_caches(disk=False)
            with perf.measuring() as stats:
                second = check_containment(sigma, sigma_prime)
            assert stats.get("containment.verdict_disk_hits") == 1
            assert first.to_json() == second.to_json()
            assert second.counterexample is not None
        finally:
            configure(None)

    def test_budget_changes_the_key(self, tmp_path):
        from repro.cache import clear_all_caches, configure

        configure(tmp_path)
        try:
            clear_all_caches()
            lhs, rhs = [parse_tgd(COPY)], [parse_tgd(WEAK)]
            check_containment(lhs, rhs)
            with perf.measuring() as stats:
                report = check_containment(lhs, rhs, budget=10**9)
            assert stats.get("containment.verdict_disk_hits") == 0
            assert report.holds is True
        finally:
            configure(None)

    def test_corrupt_payload_degrades_to_recompute(self, tmp_path):
        from repro.cache import SPACE_CONTAIN, clear_all_caches, configure
        from repro.cache.store import get_store

        configure(tmp_path)
        try:
            clear_all_caches()
            lhs, rhs = [parse_tgd(COPY)], [parse_tgd(WEAK)]
            check_containment(lhs, rhs)
            store = get_store()
            with store._connect() as conn:  # corrupt every contain row
                conn.execute(
                    "UPDATE entries SET payload = X'00' WHERE space = ?",
                    (SPACE_CONTAIN,),
                )
            assert check_containment(lhs, rhs).holds is True
        finally:
            configure(None)


class TestCli:
    def test_contain_json_exit_codes(self, capsys):
        code = main(["contain", "--lhs", COPY, "--rhs", WEAK])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "contained"
        code = main(["contain", "--lhs", WEAK, "--rhs", COPY])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["status"] == "not-contained"

    def test_contain_json_deterministic(self, capsys):
        argv = ["contain", "--lhs", WEAK, "--rhs", COPY]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_contain_witnesses(self, capsys):
        code = main(["contain", "--lhs", WEAK, "--rhs", COPY, "--witnesses"])
        assert code == 1
        out = capsys.readouterr().out
        assert "containment: not-contained" in out
        assert "counterexample source:" in out
        assert "unmatched target pattern:" in out

    def test_contain_undecided_exits_nonzero(self, capsys):
        code = main(["contain", "--lhs", DIVERGING, "--rhs", DIVERGING])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["status"] == "undecided"

    def test_contain_with_egd(self, capsys):
        code = main([
            "contain",
            "--lhs", "S(x,y) -> P(y,y)",
            "--rhs", "S(x,y) & S(x,z) -> P(y,z)",
            "--egd", "S(x,y) & S(x,z) -> y = z",
        ])
        assert code == 0

    def test_optimize_prose_unchanged(self, capsys):
        code = main(["optimize", "--dep", COPY, "--dep", WEAK])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("2 dependencies -> 1")

    def test_optimize_json(self, capsys):
        code = main(["optimize", "--dep", COPY, "--dep", WEAK, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["semantic"] is False
        assert len(payload["kept"]) == 1
        assert len(payload["dropped"]) == 1
        assert payload["dropped"][0]["reason"]

    def test_optimize_json_semantic_certificate(self, capsys):
        code = main([
            "optimize", "--dep", COPY, "--dep", WEAK, "--json", "--semantic",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["semantic"] is True
        assert payload["equivalent"] is True
        assert payload["certificate"]["forward"]["status"] == "contained"
        assert payload["certificate"]["backward"]["status"] == "contained"

    def test_optimize_json_deterministic(self, capsys):
        argv = ["optimize", "--dep", COPY, "--dep", WEAK, "--json", "--semantic"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestPerfCounters:
    def test_counters_flow(self):
        with perf.measuring() as stats:
            check_containment([parse_tgd(COPY)], [parse_tgd(WEAK)])
        assert stats.get("containment.queries") == 1
        assert stats.get("containment.checks") == 1
        with perf.measuring() as stats:
            check_containment([parse_tgd(WEAK)], [parse_tgd(COPY)])
        assert stats.get("containment.refuted") == 1
        with perf.measuring() as stats:
            check_containment([parse_tgd(DIVERGING)], [parse_tgd(DIVERGING)])
        assert stats.get("containment.refused") == 1


def _nested_with_egd():
    lhs = [parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")]
    rhs = [parse_tgd("S(x1,x2) & S(x1,x3) -> exists y . (R(y,x2) & R(y,x3))")]
    return lhs, rhs, [parse_egd("S(x,y) & S(x,z) -> y = z")]


class TestDependencyText:
    @pytest.mark.parametrize("make", [
        lambda: (*containment_pair(3, contained=True), []),
        _nested_with_egd,
    ], ids=["ladder", "nested-with-egd"])
    def test_cold_check_renders_each_dependency_once(self, monkeypatch, make):
        """Memo, chase-cache and verdict keys all reuse one rendering per
        dependency object."""
        from collections import Counter

        from repro.logic import printer

        renders: Counter[int] = Counter()
        alive: list[object] = []  # no id is reused while counting
        for name in ("format_tgd", "format_nested_tgd", "format_so_tgd", "format_egd"):
            def spy(dep, render=getattr(printer, name)):
                renders[id(dep)] += 1
                alive.append(dep)
                return render(dep)

            monkeypatch.setattr(printer, name, spy)
        lhs, rhs, egds = make()
        check_containment(lhs, rhs, egds, budget=100_000)
        assert len(renders) >= len(lhs + rhs + egds)
        assert set(renders.values()) == {1}
