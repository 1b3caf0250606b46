"""Termination hierarchy tour: weak < joint < MFA < stratified.

One dependency set per rung of the chase-termination hierarchy, each refuting
every narrower rung (two for MFA) -- and each run *unbounded* to a fixpoint by the engine,
because `fixpoint_chase` consults the hierarchy instead of the bare
weak-acyclicity test.  A diverging set shows the other side of the gate: no
rung certifies it, so the unbounded chase is refused with lint code TD001.

The tour then crosses into the decidability frontier of
``repro.analysis.frontier``:

- a **PTIME-tier** set that is not weakly acyclic, whose per-relation degree
  witnesses certify a polynomial chase ("Chase Termination Beyond Polynomial
  Time", arXiv:2403.16712);
- a **triangularly guarded** set whose chase diverges but whose BCQ
  reasoning is decidable anyway (Asuncion & Zhang, arXiv:1804.05997);
- a **stratified-MFA** set the monolithic MFA budget refuses (TD001) that
  the per-stratum rung certifies, letting the engine run it unbounded.

Run with:  PYTHONPATH=src python examples/termination_hierarchy.py
"""

from repro.analysis.acyclicity import classify_termination
from repro.analysis.cost import chase_cost
from repro.analysis.frontier import frontier_report
from repro.analysis.termination import termination_report
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.errors import ChaseError
from repro.logic.parser import parse_instance, parse_tgd

# Weakly acyclic: the position graph has no cycle through a special edge.
WEAKLY_ACYCLIC = [parse_tgd("P(x,y) -> Q(x,y)")]

# Jointly but not weakly acyclic: the special edge E.1 => E.1 puts a cycle in
# the position graph, but a null at E.1 never reaches *both* body positions
# of y, so its Mov set cannot re-feed the existential.
JOINTLY_ACYCLIC = [parse_tgd("E(x,y) & E(y,x) -> exists z . E(y,z)")]

# Certified by MFA, not jointly acyclic: position sets see a cycle
# f -> h -> f, but R(f(x), g(x)) never matches the body atom R(u,u), so the
# critical-instance chase stops at depth 2.  The set is also super-weakly
# acyclic (Marnette), and every such set is MFA.
MFA_UNMATCHED_HEAD = [
    parse_tgd("S(x) -> exists y, z . R(y,z) & R(z,y)"),
    parse_tgd("R(u,u) -> exists w . S(w)"),
]

# Certified only by MFA: B() guards the second rule, and no rule ever derives
# B of a null, so the critical-instance chase saturates at depth 2 -- a guard
# no position- or place-based movement analysis can see.
MODEL_FAITHFUL = [
    parse_tgd("A(x) -> exists y . L(x,y)"),
    parse_tgd("L(x,y) & B(y) -> exists w . A(w)"),
]

# No rung certifies this classic: the critical chase derives f_z nested below
# itself, and indeed the chase diverges on any nonempty instance.  Kept out
# of a parse_tgd literal so corpus scanners do not lint it as a regression.
DIVERGING_TEXT = "E(x,y) -> exists z . E(y,z)"

# PTIME tier without weak acyclicity: jointly acyclic (so certified), and the
# per-relation degree program of arXiv:2403.16712 assigns E and W small
# polynomial degrees -- the chase output is polynomial even though the
# position graph has a special cycle.
PTIME_NOT_WA = [
    parse_tgd("E(x,y) & E(y,x) -> exists z . E(y,z)"),
    parse_tgd("E(x,y) -> exists u . W(y,u)"),
]

# Triangularly guarded (arXiv:1804.05997) but diverging: the frontier pairs
# {y}x{} of each head atom all share a body atom, so BCQ reasoning over the
# set is decidable -- yet no termination rung admits it (the chase builds an
# infinite R-spiral).  Decidability of reasoning and termination of the
# chase are independent axes.  Kept out of a parse_tgd literal like the
# diverging set above, since it deliberately carries a TD001 error.
TRIANGULAR_TEXT = "R(x,y) -> exists z . R(y,z) & R(z,x)"

INSTANCES = {
    "weak": "P(a,b)",
    "joint": "E(a,b), E(b,a)",
    "mfa-unmatched": "S(a)",
    "mfa": "A(a), B(b)",
}


def show(label: str, dependencies, instance_text: str) -> None:
    verdict = classify_termination(dependencies)
    weak = termination_report(dependencies)
    cost = chase_cost(dependencies)
    print(f"== {label}")
    for dep in dependencies:
        print(f"   {dep}")
    print(f"   weakly acyclic:    {weak.weakly_acyclic}")
    print(f"   hierarchy verdict: {verdict.cls.value} (depth bound {verdict.depth_bound})")
    print(f"   chase-size degree: {cost.degree}")
    result = fixpoint_chase(parse_instance(instance_text), dependencies)
    print(
        f"   unbounded chase:   fixpoint in {result.rounds} round(s), "
        f"{len(result.instance)} facts, certified by {result.termination_class.value}"
    )
    print()


def main() -> None:
    show("weakly acyclic", WEAKLY_ACYCLIC, INSTANCES["weak"])
    show("jointly acyclic (not weakly)", JOINTLY_ACYCLIC, INSTANCES["joint"])
    show("model-faithful acyclic (not jointly: unmatched head)", MFA_UNMATCHED_HEAD,
         INSTANCES["mfa-unmatched"])
    show("model-faithful acyclic (not jointly: guarded rule)", MODEL_FAITHFUL, INSTANCES["mfa"])

    from repro.workloads.families import (
        stratified_chain_instance,
        stratified_chain_tgds,
    )

    stratified = stratified_chain_tgds(40)
    print("== stratified MFA (monolithic MFA budget exhausted)")
    print(f"   {len(stratified)} dependencies: MFA gadget bridged into a 40-step chain")
    verdict = classify_termination(stratified)
    print(
        f"   hierarchy verdict: {verdict.cls.value} "
        f"({verdict.strata_count} strata, depth bound {verdict.depth_bound})"
    )
    result = fixpoint_chase(stratified_chain_instance(3), stratified)
    print(
        f"   unbounded chase:   fixpoint in {result.rounds} round(s), "
        f"{len(result.instance)} facts, certified by {result.termination_class.value}"
    )
    print()

    print("== PTIME tier (not weakly acyclic)")
    for dep in PTIME_NOT_WA:
        print(f"   {dep}")
    report = frontier_report(PTIME_NOT_WA)
    degrees = dict(report.tier.relation_degrees)
    print(f"   hierarchy verdict: {report.termination.cls.value}")
    print(f"   complexity tier:   {report.tier.tier.value} (degrees {degrees})")
    result = fixpoint_chase(parse_instance("E(a,b), E(b,a)"), PTIME_NOT_WA)
    print(
        f"   unbounded chase:   fixpoint in {result.rounds} round(s), "
        f"{len(result.instance)} facts"
    )
    print()

    triangular = [parse_tgd(TRIANGULAR_TEXT)]
    print("== triangularly guarded (diverging chase, decidable reasoning)")
    print(f"   {triangular[0]}")
    report = frontier_report(triangular)
    print(f"   hierarchy verdict: {report.termination.cls.value}")
    print(f"   triangular guard:  {report.triangular.guarded}")
    print(f"   decidable BCQ reasoning: {report.decidable_reasoning}")
    try:
        fixpoint_chase(parse_instance("R(a,b)"), triangular)
    except ChaseError as exc:
        print(f"   unbounded chase refused: {str(exc).splitlines()[0]}")
    bounded = fixpoint_chase(parse_instance("R(a,b)"), triangular, max_rounds=3)
    print(f"   bounded chase (3 rounds): {len(bounded.instance)} facts, no fixpoint")
    print()

    diverging = [parse_tgd(DIVERGING_TEXT)]
    print("== not guaranteed (diverging)")
    print(f"   {diverging[0]}")
    verdict = classify_termination(diverging)
    print(f"   hierarchy verdict: {verdict.cls.value}")
    print(f"   MFA witness term:  {verdict.mfa_cyclic_term}")
    try:
        fixpoint_chase(parse_instance("E(a,b)"), diverging)
    except ChaseError as exc:
        print(f"   unbounded chase refused: {str(exc).splitlines()[0]}")
    bounded = fixpoint_chase(parse_instance("E(a,b)"), diverging, max_rounds=3)
    print(f"   bounded chase (3 rounds): {len(bounded.instance)} facts, no fixpoint")


if __name__ == "__main__":
    main()
