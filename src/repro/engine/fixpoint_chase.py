"""The oblivious fixpoint chase, guided by the static termination verdict.

The single-pass engines of :mod:`repro.engine.chase` only ever match bodies
against the *source* instance -- correct for the source-to-target setting of
the paper, where a dependency's output can never re-trigger it.  This engine
iterates the oblivious chase over its own output until a fixpoint, which is
what general (target or same-schema) tgds need -- e.g. transitive closure, or
the deliberately diverging programs exercised by the analyzer tests.

Before chasing, the engine consults the static termination analyses:

- **weakly acyclic** program: the chase is guaranteed to terminate, so it
  runs to the natural fixpoint (no round bound needed); the verdict's
  ``depth_bound`` caps the Skolem-nesting depth of every null created, which
  the tests verify.
- **not weakly acyclic**: the engine climbs the termination hierarchy of
  :func:`repro.analysis.acyclicity.classify_termination` (joint acyclicity,
  MFA, stratified MFA -- lint findings ``TD002``, ``TD004`` and
  ``TD007``).  Any rung that certifies the set lets
  the chase run unbounded; only when *no* rung admits it does the engine
  refuse without an explicit ``max_rounds``, with a
  :class:`~repro.errors.ChaseError` pointing at the ``TD001`` finding.
  With ``max_rounds`` it runs at most that many rounds and reports whether
  a fixpoint was actually reached.

A ``budget=`` caps the total number of facts: when the static bounds
(the coarse :func:`repro.analysis.cost.chase_cost` estimate or the refined
per-relation tier bound of :func:`repro.analysis.frontier.frontier_report`,
whichever is tighter) already prove the chase fits, the cap costs nothing
at runtime; otherwise every derived fact counts against it and crossing it
raises :class:`~repro.errors.BudgetExceeded` immediately instead of
grinding on a blowup (lint finding ``CC002`` predicts this).

The loop is semi-naive: after the first round, a clause fires only on
matches that use at least one fact derived in the previous round.  It is
the one fixpoint engine; the columnar and SQL backends of
:mod:`repro.engine.dispatch` serve the single-pass exchange only.

The engine runs the single-pass engines' own clause program
(:func:`repro.engine.chase.compile_clause_program`, s-t tgds last and
named ``t{batch}_{var}``) and emits each trigger's head facts through the
same compiled clause emitters, with one Skolem-term cache for the whole
run, so nulls are the same ground Skolem terms and ``chase.triggers``
counts fixpoint emissions too.  Re-firing a trigger re-derives the *same*
fact, so the fixpoint is well-defined, and on a source-to-target program
the result minus the input is ``chase``'s output, label for label.

    >>> from repro.logic.parser import parse_instance, parse_tgd
    >>> tc = parse_tgd("E(x,y) & E(y,z) -> E(x,z)")
    >>> result = fixpoint_chase(parse_instance("E(a,b), E(b,c), E(c,d)"), [tc])
    >>> result.reached_fixpoint, len(result.instance)
    (True, 6)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro import perf
from repro.errors import BudgetExceeded, ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.sotgd import SOTgd
from repro.logic.tgds import STTgd
from repro.engine.builder import InstanceBuilder
from repro.engine.chase import clause_emitter, compile_clause_program
from repro.engine.matching import find_delta_matches, find_matches

if TYPE_CHECKING:
    from repro.analysis.acyclicity import TerminationClass
    from repro.analysis.termination import TerminationReport


@dataclass(frozen=True)
class FixpointChaseResult:
    """The outcome of a fixpoint chase run.

    ``instance`` contains the input facts plus everything derived;
    ``reached_fixpoint`` is False only when ``max_rounds`` cut the run short.
    ``termination`` is the static weak-acyclicity verdict the engine
    consulted, and ``termination_class`` the hierarchy rung that certified
    the run (``None`` for a bounded run of an uncertified set).
    """

    instance: Instance
    rounds: int
    reached_fixpoint: bool
    termination: TerminationReport
    termination_class: "TerminationClass | None" = None

    def __iter__(self) -> "Iterator[Atom]":
        return iter(self.instance)


def fixpoint_chase(
    instance: Instance,
    dependencies: "STTgd | NestedTgd | SOTgd | Iterable[object]",
    *,
    max_rounds: int | None = None,
    budget: int | None = None,
    fact_hook: "Callable[[Atom], None] | None" = None,
) -> FixpointChaseResult:
    """Chase *instance* with tgds of any formalism until a fixpoint.

    *dependencies* may be a single dependency or an iterable mixing s-t
    tgds (which, unlike nested/SO tgds, may share source and target
    relations), nested tgds, and SO tgds.  The result instance contains the
    input facts.

    The static termination hierarchy gates the run: a program certified by
    *any* rung (weakly/jointly/model-faithfully acyclic, or MFA per stratum) runs
    unbounded; otherwise *max_rounds* is required and the result's
    ``reached_fixpoint`` records whether the bound was actually reached.

    *budget* caps the total number of facts (input plus derived); the chase
    raises :class:`~repro.errors.BudgetExceeded` the moment it would cross
    the cap, unless the static cost model already proves it cannot.
    *fact_hook* is called with every newly derived fact (the MFA test of the
    acyclicity analysis watches the critical-instance chase through it);
    exceptions it raises propagate to the caller.
    """
    from repro.analysis.acyclicity import classify_termination
    from repro.analysis.termination import termination_report

    if isinstance(dependencies, (STTgd, NestedTgd, SOTgd)):
        dependencies = [dependencies]
    deps = list(dependencies)
    verdict = termination_report(deps)
    hierarchy = None
    if not verdict.weakly_acyclic and max_rounds is None:
        hierarchy = classify_termination(deps)
        if not hierarchy.guarantees_termination:
            raise ChaseError(
                "no rung of the termination hierarchy certifies the dependency "
                "set (lint finding TD001: not weakly or jointly acyclic, "
                "not MFA even per stratum, and MFA found "
                + (
                    f"the cyclic term {hierarchy.mfa_cyclic_term}"
                    if hierarchy.mfa_cyclic_term is not None
                    else "no certificate"
                )
                + "): the fixpoint chase may diverge.  Pass max_rounds=... to "
                "run a bounded number of rounds anyway, or inspect the witness "
                "cycle with repro.analysis.static.analyze / `repro lint`."
            )

    enforce_budget = budget is not None
    predicted: int | None = None
    total_facts = len(instance)
    if budget is not None:
        # The frontier certificate gives the tightest static fact bound.
        from repro.analysis.cost import chase_budget

        hierarchy = classify_termination(deps)
        domain = {value for fact in instance for value in fact.args}
        predicted = chase_budget(deps, len(domain))
        if predicted is not None and predicted <= budget:
            enforce_budget = False  # statically certified to fit the budget
        if enforce_budget and total_facts > budget:
            raise BudgetExceeded(
                "fixpoint chase", budget, predicted=predicted,
                hint="The input instance alone is larger than the budget.",
            )

    clauses = compile_clause_program(deps)
    skolems: dict = {}  # the run's Skolem terms, shared by every round
    builder = InstanceBuilder(instance)
    rounds = 0
    changed = True
    delta: list[Atom] | None = None  # None: the first round matches everything
    while changed and (max_rounds is None or rounds < max_rounds):
        changed = False
        rounds += 1
        perf.incr("chase.fixpoint_rounds")
        new_delta: list[Atom] = []
        for clause in clauses:
            # Semi-naive rounds: the first round fires every trigger; later
            # rounds only fire triggers whose body uses at least one fact of
            # the previous round's delta -- a match over older facts already
            # fired (the oblivious chase is monotone and head facts are
            # determined by the assignment alone, so re-firing is redundant).
            if delta is None:
                assignments = list(find_matches(clause.body, builder))
            else:
                assignments = find_delta_matches(clause.body, builder, delta)
            emitted: list[Atom] = []
            triggers = clause_emitter(clause)(assignments, skolems, emitted)
            if triggers:
                perf.incr("chase.triggers", triggers)
            for fact in emitted:
                if builder.add(fact):
                    changed = True
                    new_delta.append(fact)
                    perf.incr("chase.facts")
                    total_facts += 1
                    if enforce_budget and budget is not None and total_facts > budget:
                        raise BudgetExceeded(
                            "fixpoint chase", budget, predicted=predicted,
                            hint="Lint finding CC002 predicts the chase-size "
                            "bound; raise budget= or bound the run with "
                            "max_rounds=.",
                        )
                    if fact_hook is not None:
                        fact_hook(fact)
        delta = new_delta
    if hierarchy is not None:
        termination_class = hierarchy.cls
    elif verdict.weakly_acyclic:
        from repro.analysis.acyclicity import TerminationClass

        termination_class = TerminationClass.WEAKLY_ACYCLIC
    else:
        termination_class = None
    return FixpointChaseResult(
        instance=builder.freeze(),
        rounds=rounds,
        reached_fixpoint=not changed,
        termination=verdict,
        termination_class=termination_class,
    )


__all__ = ["FixpointChaseResult", "fixpoint_chase"]
