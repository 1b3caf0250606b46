"""Static analysis of dependency programs: termination verdicts and lints.

:func:`analyze` takes a set of dependencies (s-t tgds, nested tgds, SO tgds,
egds) and produces an :class:`AnalysisReport` of :class:`Finding` records
with stable codes, severities, locations, and fix hints -- JSON-serializable
for tooling (``repro lint --json``, the CI self-check artifact) and
renderable as text (``repro lint``).

Pass 1 -- **termination** (:mod:`repro.analysis.termination` and the
hierarchy of :mod:`repro.analysis.acyclicity`): the position graph with
special edges decides weak acyclicity and bounds the chase depth; a
non-weakly-acyclic program is classified further on the termination
hierarchy, reporting which rung admitted it (``TD002``, ``TD004``,
``TD007``) or the error ``TD001`` with a witness cycle when *no* rung
certifies termination.

Pass 2 -- **frontier** (:mod:`repro.analysis.frontier`): the triangular-
guardedness certificate (``TD005`` when reasoning stays decidable despite a
diverging chase) and the termination-complexity tier refining every
certified verdict (``TD006`` reports tiers above PTIME; the tier also
steers the ``CC00x`` cost findings below).

Pass 3 -- **cost** (:mod:`repro.analysis.cost`): the static cost model
predicts the IMPLIES k-pattern sweep per dependency (``CC001`` when it is
non-elementary) and the chase-size polynomial degree of the whole set --
``CC002`` when it is beyond any practical budget *and* the tier's
per-relation degree witnesses do not rescue it (``CC003`` when they do;
``CC004`` when a small coarse degree is not backed by witnesses).

Pass 4 -- **structural lints** over the parts of each (nested) tgd, the
clauses of each SO tgd, and each egd.

Pass 5 -- **containment** (:mod:`repro.analysis.containment`): for sets of
two or more tgds, the frontier-gated semantic-redundancy scan reports every
dependency that the remaining ones *imply* (``MC001`` -- dropping it
preserves the solution set of every source instance, beyond the syntactic
``NT009`` subsumption) and every redundancy query refused at the
admissibility gate (``MC002``):

=======  ========  ====================================================
code     severity  meaning
=======  ========  ====================================================
NT001    info      universal variable used exactly once (pure guard)
NT002    warning   declared existential variable never used in any head
NT003    warning   part body is disconnected (cartesian product)
NT004    warning   duplicate atom in a body or head
NT005    warning   body atom subsumed by another one (pattern-redundant)
NT006    warning   part with no head atoms and no children
NT007    warning   child part whose body only repeats ancestor atoms
NT008    warning   constant inside a head term (dependencies are
                   constant-free in the paper)
NT009    info      dependency subsumed by another one in the set
NT010    info      existential variable used only in descendant parts
TD001    error     no termination-hierarchy rung certifies the set
TD002    info      set is jointly but not weakly acyclic
TD004    warning   set is MFA-certified only (critical-instance chase)
TD005    warning   triangularly guarded only: BCQ reasoning decidable,
                   chase termination not certified
TD006    info      termination-complexity tier above PTIME
TD007    warning   set is certified only by stratified MFA (per-SCC
                   critical-instance chases)
CC001    warning   predicted IMPLIES sweep is non-elementary
CC002    warning   predicted chase-size bound is exponential
CC003    info      per-relation degree witnesses certify a PTIME chase
                   (demotes the coarse CC002 estimate)
CC004    warning   coarse degree looks polynomial but no per-relation
                   witnesses exist at the certified rung (tier downgrade)
EG001    info      egd equates a variable with itself (trivial)
EG002    warning   egd body is disconnected
MC001    info      dependency semantically redundant under containment
                   (the remaining dependencies imply it -- auto-fixable
                   via ``repro optimize --semantic``)
MC002    info      semantic-redundancy containment query outside the
                   certified frontier (refused, not run)
=======  ========  ====================================================

    >>> from repro.logic.parser import parse_tgd
    >>> report = analyze([parse_tgd("S(x,y) -> R(y,y)")])
    >>> [f.code for f in report.findings]
    ['NT001']
    >>> report.ok
    True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import DependencyError
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.nested import NestedTgd
from repro.logic.printer import dependency_label
from repro.logic.sotgd import SOTgd
from repro.logic.terms import FuncTerm, term_variables
from repro.logic.tgds import STTgd
from repro.logic.values import Constant, Variable
from repro.analysis.acyclicity import TerminationClass, TerminationVerdict, classify_termination
from repro.analysis.cost import ChaseCostEstimate, sweep_cost
from repro.analysis.frontier import FrontierReport, frontier_report
from repro.analysis.subsumption import subsumes
from repro.analysis.termination import (
    TerminationReport,
    dependency_list,
    format_position,
    termination_report,
)

#: severity -> sort weight (errors first in reports).
_SEVERITIES = {"error": 0, "warning": 1, "info": 2}

#: The stable lint catalog: code -> (severity, one-line description).
LINT_CATALOG: dict[str, tuple[str, str]] = {
    "NT001": ("info", "universal variable used exactly once (pure guard)"),
    "NT002": ("warning", "declared existential variable never used in any head"),
    "NT003": ("warning", "part body is disconnected (cartesian product)"),
    "NT004": ("warning", "duplicate atom in a body or head"),
    "NT005": ("warning", "body atom subsumed by another one (pattern-redundant)"),
    "NT006": ("warning", "part with no head atoms and no children"),
    "NT007": ("warning", "child part whose body only repeats ancestor atoms"),
    "NT008": ("warning", "constant inside a head term"),
    "NT009": ("info", "dependency subsumed by another one in the set"),
    "NT010": ("info", "existential variable used only in descendant parts"),
    "TD001": ("error", "no termination-hierarchy rung certifies the set"),
    "TD002": ("info", "set is jointly but not weakly acyclic"),
    "TD004": ("warning", "set is certified only by MFA (critical-instance chase)"),
    "TD005": (
        "warning",
        "triangularly guarded only: BCQ reasoning is decidable although "
        "chase termination is not certified",
    ),
    "TD006": ("info", "termination-complexity tier above PTIME"),
    "TD007": (
        "warning",
        "set is certified only by stratified MFA (per-SCC critical-instance "
        "chases)",
    ),
    "CC001": ("warning", "predicted IMPLIES k-pattern sweep is non-elementary"),
    "CC002": ("warning", "predicted chase-size bound is exponential"),
    "CC003": (
        "info",
        "per-relation degree witnesses certify a PTIME chase (demotes the "
        "coarse CC002 estimate)",
    ),
    "CC004": (
        "warning",
        "coarse degree looks polynomial but the certified rung provides no "
        "per-relation witnesses (tier downgrade)",
    ),
    "EG001": ("info", "egd equates a variable with itself (trivial)"),
    "EG002": ("warning", "egd body is disconnected"),
    "MC001": (
        "info",
        "dependency is semantically redundant under mapping containment "
        "(the remaining dependencies imply it)",
    ),
    "MC002": (
        "info",
        "semantic-redundancy containment query is outside the certified "
        "frontier (refused, not run)",
    ),
}

#: The hierarchy rung -> the finding code reporting it (weak acyclicity
#: needs no finding; NOT_GUARANTEED is the error TD001).
_HIERARCHY_CODES = {
    TerminationClass.JOINTLY_ACYCLIC: "TD002",
    TerminationClass.MODEL_FAITHFUL: "TD004",
    TerminationClass.STRATIFIED_MFA: "TD007",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a stable code, severity, location, message, fix hint."""

    code: str
    severity: str
    dependency: str
    location: str
    message: str
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        """A stable content hash of the finding, for ``--baseline`` suppression.

        sha256 over the identifying fields (not Python's per-process
        ``hash()``), so the same finding fingerprints identically across
        runs, interpreters, and machines.
        """
        payload = "\x1f".join(
            (self.code, self.dependency, self.location, self.message)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, str]:
        """A JSON-serializable view of the finding."""
        return {
            "code": self.code,
            "severity": self.severity,
            "dependency": self.dependency,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class AnalysisReport:
    """The full output of :func:`analyze`: findings plus the static verdicts.

    ``termination`` is the weak-acyclicity report, ``hierarchy`` the full
    lattice verdict of :func:`repro.analysis.acyclicity.classify_termination`,
    ``cost`` the chase-size estimate of
    :func:`repro.analysis.cost.chase_cost`, and ``frontier`` the
    triangular-guardedness certificate plus complexity tier of
    :func:`repro.analysis.frontier.frontier_report`.
    """

    findings: tuple[Finding, ...]
    termination: TerminationReport
    dependency_count: int
    hierarchy: TerminationVerdict
    cost: ChaseCostEstimate
    frontier: FrontierReport

    @property
    def errors(self) -> tuple[Finding, ...]:
        """The findings with severity ``error``."""
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        """The findings with severity ``warning``."""
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        """True if no error-severity finding was reported (the sanitizer gate)."""
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view of the whole report."""
        return {
            "dependency_count": self.dependency_count,
            "ok": self.ok,
            "termination": self.termination.to_dict(),
            "hierarchy": self.hierarchy.to_dict(),
            "cost": self.cost.to_dict(),
            "frontier": self.frontier.to_dict(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document (``repro lint --json``)."""
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """The report as human-readable text (``repro lint``)."""
        lines: list[str] = []
        t = self.termination
        if t.weakly_acyclic:
            lines.append(
                f"termination: weakly acyclic (max rank {t.max_rank}, "
                f"chase depth bound {t.depth_bound})"
            )
        elif self.hierarchy.guarantees_termination:
            lines.append(
                f"termination: NOT weakly acyclic, but {self.hierarchy.cls.value} "
                f"(chase depth bound {self.hierarchy.depth_bound})"
            )
        else:
            lines.append("termination: NOT weakly acyclic -- the chase may diverge")
        tier = self.frontier.tier
        lines.append(f"complexity tier: {tier.tier.value} ({tier.reason})")
        for finding in self.findings:
            where = f" ({finding.location})" if finding.location else ""
            lines.append(
                f"{finding.severity:<7} {finding.code} {finding.dependency}{where}: "
                f"{finding.message}"
            )
            if finding.hint:
                lines.append(f"        hint: {finding.hint}")
        lines.append(
            f"{self.dependency_count} dependencies: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.findings) - len(self.errors) - len(self.warnings)} info"
        )
        return "\n".join(lines)


# ----------------------------------------------------------- part-level view


@dataclass(frozen=True)
class _PartView:
    """A uniform view of one tgd part / SO clause for the lint passes."""

    location: str
    own_universal: tuple[Variable, ...]
    inherited: frozenset[Variable]
    body: tuple[Atom, ...]
    exist_vars: tuple[Variable, ...]
    head: tuple[Atom, ...]
    child_count: int
    ancestor_body: tuple[Atom, ...] = ()
    #: heads of this part and all descendants (scope of its existentials).
    scope_heads: tuple[Atom, ...] = ()
    #: bodies of all descendants (descendants may reuse our universals).
    scope_bodies: tuple[Atom, ...] = ()
    is_child: bool = False


def _atom_var_occurrences(atoms: Iterable[Atom]) -> dict[Variable, int]:
    counts: dict[Variable, int] = {}
    for atom in atoms:
        for arg in atom.args:
            if isinstance(arg, Variable):
                counts[arg] = counts.get(arg, 0) + 1
            elif isinstance(arg, FuncTerm):
                for var in term_variables(arg):
                    counts[var] = counts.get(var, 0) + 1
    return counts


def _part_views(dep: STTgd | NestedTgd | SOTgd) -> Iterator[_PartView]:
    if isinstance(dep, STTgd):
        yield _PartView(
            location="",
            own_universal=dep.universal_variables,
            inherited=frozenset(),
            body=dep.body,
            exist_vars=dep.existential_variables,
            head=dep.head,
            child_count=0,
            scope_heads=dep.head,
        )
        return
    if isinstance(dep, SOTgd):
        for index, clause in enumerate(dep.clauses, start=1):
            yield _PartView(
                location=f"clause {index}" if len(dep.clauses) > 1 else "",
                own_universal=clause.universal_variables,
                inherited=frozenset(),
                body=clause.body,
                exist_vars=(),
                head=clause.head,
                child_count=0,
                scope_heads=clause.head,
            )
        return
    for pid in dep.part_ids():
        part = dep.part(pid)
        ancestor_body = tuple(
            atom for anc in dep.ancestors(pid) for atom in dep.part(anc).body
        )
        descendants = dep.descendants(pid)
        yield _PartView(
            location=f"part {pid}" if dep.part_count > 1 else "",
            own_universal=part.universal_vars,
            inherited=frozenset(dep.inherited_universal_vars(pid))
            | {v for anc in dep.ancestors(pid) for v in dep.part(anc).exist_vars},
            body=part.body,
            exist_vars=part.exist_vars,
            head=part.head,
            child_count=len(dep.children_of(pid)),
            ancestor_body=ancestor_body,
            scope_heads=part.head
            + tuple(atom for d in descendants for atom in dep.part(d).head),
            scope_bodies=tuple(atom for d in descendants for atom in dep.part(d).body),
            is_child=dep.parent(pid) is not None,
        )


# ----------------------------------------------------------------- the lints


def _finding(code: str, dependency: str, location: str, message: str, hint: str = "") -> Finding:
    severity, _ = LINT_CATALOG[code]
    return Finding(
        code=code, severity=severity, dependency=dependency,
        location=location, message=message, hint=hint,
    )


def _connected_components(atoms: Sequence[Atom], anchors: frozenset[Variable]) -> int:
    """Count variable-sharing components; atoms touching *anchors* fuse into one."""
    if not atoms:
        return 0
    parent = list(range(len(atoms) + 1))  # index len(atoms) is the anchor node

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    seen: dict[Variable, int] = {}
    for index, atom in enumerate(atoms):
        for var in atom.variables():
            if var in anchors:
                union(index, len(atoms))
            elif var in seen:
                union(index, seen[var])
            else:
                seen[var] = index
    return len({find(i) for i in range(len(atoms))})


def _atom_subsumed(beta: Atom, alpha: Atom, free: frozenset[Variable]) -> bool:
    """True if *beta* maps onto *alpha* by binding only its *free* variables."""
    if beta.relation != alpha.relation or beta.arity != alpha.arity:
        return False
    binding: dict[Variable, object] = {}
    for b, a in zip(beta.args, alpha.args):
        if b == a:
            continue
        if b not in free:
            return False
        seen = binding.get(b)
        if seen is None:
            binding[b] = a
        elif seen != a:
            return False
    return True


def _lint_part(view: _PartView, label: str) -> Iterator[Finding]:
    # Every place a variable of this part can legally occur: its own body and
    # head, descendant bodies and heads (scope_heads includes the own head),
    # plus ancestor bodies (for inherited variables used here).
    occurrences = _atom_var_occurrences(
        view.ancestor_body + view.body + view.scope_bodies + view.scope_heads
    )

    # NT001: universal variable occurring exactly once in its whole scope.
    for var in view.own_universal:
        if occurrences.get(var, 0) == 1:
            yield _finding(
                "NT001", label, view.location,
                f"universal variable {var} is used exactly once -- it only "
                "guards the trigger",
                hint="intended? a single-use variable never constrains a join "
                "and never reaches the head",
            )

    # NT002 / NT010: existential variables never used, or used only deeper.
    head_vars = {v for atom in view.head for v in atom.variables()}
    scope_head_vars = {v for atom in view.scope_heads for v in atom.variables()}
    for var in view.exist_vars:
        if var not in scope_head_vars:
            yield _finding(
                "NT002", label, view.location,
                f"existential variable {var} is declared but never used in a head",
                hint="drop the quantifier (it asserts nothing)",
            )
        elif var not in head_vars:
            yield _finding(
                "NT010", label, view.location,
                f"existential variable {var} is used only in descendant parts",
                hint="if one witness per inner trigger is intended, declare it "
                "at the part that uses it (note: that weakens the dependency)",
            )

    # NT003: disconnected body.
    if len(view.body) > 1:
        components = _connected_components(view.body, view.inherited)
        if components > 1:
            yield _finding(
                "NT003", label, view.location,
                f"body falls into {components} unconnected groups of atoms -- "
                "the trigger is a cartesian product",
                hint="intended? unconnected atom groups multiply the number of "
                "triggers",
            )

    # NT004: duplicate atoms.
    for what, atoms in (("body", view.body), ("head", view.head)):
        seen: set[Atom] = set()
        for atom in atoms:
            if atom in seen:
                yield _finding(
                    "NT004", label, view.location,
                    f"duplicate {what} atom {atom}",
                    hint="remove the repeated atom",
                )
                break
            seen.add(atom)

    # NT005: body atom subsumed by another via its otherwise-unused variables.
    subsumers: dict[int, list[int]] = {}
    for bi, beta in enumerate(view.body):
        free = frozenset(
            v for v in beta.variables()
            if occurrences.get(v, 0) == sum(1 for a in beta.args if a == v)
        )
        if not free:
            continue
        found = [ai for ai, alpha in enumerate(view.body)
                 if ai != bi and _atom_subsumed(beta, alpha, free)]
        if found:
            subsumers[bi] = found
    for bi, found in subsumers.items():
        # For mutually-subsuming pairs report only the later atom, so a pair
        # of interchangeable atoms yields one finding, not two.
        if not any(ai < bi or ai not in subsumers for ai in found):
            continue
        yield _finding(
            "NT005", label, view.location,
            f"body atom {view.body[bi]} is subsumed by another body atom "
            "(its extra variables are used nowhere else)",
            hint="drop the atom; `repro optimize` performs the exact "
            "(implication-checked) minimization",
        )

    # NT006: part asserting nothing.
    if not view.head and view.child_count == 0:
        yield _finding(
            "NT006", label, view.location,
            "part has no head atoms and no children -- it asserts nothing",
            hint="remove the part",
        )

    # NT007: child body only repeats ancestor atoms.
    if view.is_child and view.body and set(view.body) <= set(view.ancestor_body):
        yield _finding(
            "NT007", label, view.location,
            "child part's body only repeats atoms of its ancestors -- it fires "
            "exactly when its parent does",
            hint="merge the part into its parent",
        )

    # NT008: constants inside head terms.
    for atom in view.head:
        for term in atom.args:
            constants = _term_constants(term)
            if constants:
                yield _finding(
                    "NT008", label, view.location,
                    f"head atom {atom} contains constant(s) "
                    f"{', '.join(sorted(map(str, constants)))}",
                    hint="dependencies in the paper are constant-free; move the "
                    "constant into the source instance",
                )
                break


def _term_constants(term: object) -> set[Constant]:
    if isinstance(term, Constant):
        return {term}
    if isinstance(term, FuncTerm):
        result: set[Constant] = set()
        for arg in term.args:
            result |= _term_constants(arg)
        return result
    return set()


def _lint_egd(egd: Egd, label: str) -> Iterator[Finding]:
    if egd.left == egd.right:
        yield _finding(
            "EG001", label, "",
            f"egd equates {egd.left} with itself -- it is always satisfied",
            hint="remove the egd",
        )
    if len(egd.body) > 1 and _connected_components(egd.body, frozenset()) > 1:
        yield _finding(
            "EG002", label, "",
            "egd body falls into unconnected groups of atoms",
            hint="intended? the equality then links values across unrelated "
            "triggers",
        )


def analyze(dependencies: object, source_egds: Sequence[Egd] = ()) -> AnalysisReport:
    """Statically analyze a dependency program; return an :class:`AnalysisReport`.

    *dependencies* may be a single dependency or an iterable mixing s-t
    tgds, nested tgds, SO tgds, and egds (egds may also be passed separately
    via *source_egds*).
    """
    deps = dependency_list(dependencies)
    egds = [dep for dep in deps if isinstance(dep, Egd)] + list(source_egds)
    tgds = [dep for dep in deps if not isinstance(dep, Egd)]
    for dep in tgds:
        if not isinstance(dep, (STTgd, NestedTgd, SOTgd)):
            raise DependencyError(f"cannot analyze dependency {dep!r}")

    findings: list[Finding] = []
    program = tgds + egds
    termination = termination_report(program)
    hierarchy = classify_termination(program)
    if not termination.weakly_acyclic:
        cycle = termination.witness_cycle or ()
        rendered = " -> ".join(format_position(p) for p in cycle)
        code = _HIERARCHY_CODES.get(hierarchy.cls)
        if code is not None:
            findings.append(_finding(
                code, "*", "position graph",
                f"the dependency set is not weakly acyclic (cycle {rendered} "
                "passes through a special edge) but is "
                f"{hierarchy.cls.value}: the chase terminates with Skolem "
                f"depth at most {hierarchy.depth_bound}",
                hint="fixpoint_chase runs this set unbounded; the weaker "
                "certificate gives a coarser depth bound than weak "
                "acyclicity would",
            ))
        else:
            mfa_note = (
                f"; MFA derived the cyclic term {hierarchy.mfa_cyclic_term}"
                if hierarchy.mfa_cyclic_term is not None
                else "; the bounded MFA chase was inconclusive"
                if not hierarchy.mfa_conclusive
                else ""
            )
            findings.append(_finding(
                "TD001", "*", "position graph",
                f"the dependency set is not weakly acyclic: cycle {rendered} "
                "passes through a special (null-creating) edge, and no "
                f"wider hierarchy rung certifies it{mfa_note}",
                hint="the chase may diverge; fixpoint_chase refuses to run "
                "without an explicit max_rounds bound",
            ))

    frontier = frontier_report(program)
    tier = frontier.tier
    if frontier.triangular.guarded and not hierarchy.guarantees_termination:
        findings.append(_finding(
            "TD005", "*", "triangular guard",
            "the set is triangularly guarded (every frontier-variable "
            "pair shares a body atom): BCQ entailment stays decidable "
            "although no rung certifies chase termination",
            hint="certain-answer reasoning over this set is decidable "
            "(arXiv:1804.05997); the fixpoint chase itself still needs "
            "an explicit max_rounds bound",
        ))
    if hierarchy.guarantees_termination and not tier.tier.polynomial:
        findings.append(_finding(
            "TD006", "*", "complexity tier",
            f"the certified chase sits in the {tier.tier.value} "
            f"tier: {tier.reason}",
            hint="`repro analyze` prints the full tier report with "
            "per-relation degree witnesses where available",
        ))

    cost = frontier.cost
    if cost.degree is not None and cost.exponential:
        if tier.tier.polynomial:
            degrees = ", ".join(
                f"{relation}: n^{degree}"
                for relation, degree in tier.relation_degrees or ()
            )
            findings.append(_finding(
                "CC003", "*", "cost model",
                f"the coarse chase-size bound ~n^{cost.degree} is demoted "
                "to PTIME by per-relation degree witnesses "
                f"({degrees}; maximum degree {tier.max_degree})",
                hint="budgets derived from the tier's fact bound are "
                "polynomial; the coarse CC002 estimate is safely ignored",
            ))
        else:
            rendered_degree = (
                "astronomical" if cost.saturated else f"~n^{cost.degree}"
            )
            findings.append(_finding(
                "CC002", "*", "cost model",
                f"the chase-size bound is {rendered_degree} in the instance "
                f"size ({cost.skolem_function_count} Skolem function(s) of "
                f"arity up to {cost.max_skolem_arity}, depth bound "
                f"{cost.depth_bound})",
                hint="pass budget= to fixpoint_chase to fail fast instead of "
                "grinding through an exponential blowup",
            ))
    elif (
        not cost.exponential
        and hierarchy.guarantees_termination
        and not tier.tier.polynomial
    ):
        findings.append(_finding(
            "CC004", "*", "cost model",
            f"the coarse degree ~n^{cost.degree} looks polynomial but the "
            f"{hierarchy.cls.value} rung provides no per-relation degree "
            f"witnesses -- the complexity tier stays {tier.tier.value}",
            hint="treat the coarse degree as optimistic: derive budgets "
            "from the tier, not from the coarse estimate",
        ))
    for index, dep in enumerate(tgds):
        if not isinstance(dep, (STTgd, NestedTgd)):
            continue  # IMPLIES right-hand sides are (s-t or nested) tgds
        estimate = sweep_cost(tgds, dep)
        if estimate.non_elementary:
            rendered_count = (
                "non-elementarily many"
                if estimate.saturated
                else f"~{estimate.pattern_count}"
            )
            findings.append(_finding(
                "CC001", dependency_label(dep, index), "cost model",
                f"checking implication of this dependency sweeps "
                f"{rendered_count} k-patterns (k={estimate.k})",
                hint="implies_tgd refuses such sweeps under budget=; the "
                "subsumption pre-pass may still answer trivial cases "
                "without enumerating",
            ))

    for index, dep in enumerate(tgds):
        label = dependency_label(dep, index)
        for view in _part_views(dep):
            findings.extend(_lint_part(view, label))

    for i, weaker in enumerate(tgds):
        for j, stronger in enumerate(tgds):
            if i != j and subsumes(stronger, weaker):
                if subsumes(weaker, stronger) and i < j:
                    continue  # report mutual subsumption once, on the later dep
                findings.append(_finding(
                    "NT009", dependency_label(weaker, i), "",
                    "dependency is implied by "
                    f"{dependency_label(stronger, j)} (syntactic subsumption)",
                    hint="remove it, or run `repro optimize` for the exact "
                    "minimization",
                ))
                break

    if len([d for d in tgds if not isinstance(d, SOTgd)]) >= 2:
        from repro.analysis.containment import redundancy_report

        for entry in redundancy_report(tgds, egds):
            if entry.status == "redundant":
                findings.append(_finding(
                    "MC001", entry.dependency, "containment",
                    f"dependency is semantically redundant: {entry.reason}",
                    hint="`repro optimize --semantic` drops it and certifies "
                    "the equivalence in both directions",
                ))
            else:
                findings.append(_finding(
                    "MC002", entry.dependency, "containment",
                    f"semantic-redundancy check refused: {entry.reason}",
                    hint="decide it off-line with `repro contain` and an "
                    "explicit --budget",
                ))

    for index, egd in enumerate(egds):
        findings.extend(_lint_egd(egd, dependency_label(egd, index)))

    # A *total* deterministic order (message and hint included): two runs
    # over the same input must produce byte-identical reports for --baseline
    # fingerprinting and artifact diffing.
    findings.sort(key=lambda f: (
        _SEVERITIES[f.severity], f.code, f.dependency, f.location, f.message, f.hint,
    ))
    return AnalysisReport(
        findings=tuple(findings),
        termination=termination,
        dependency_count=len(deps) + len(list(source_egds)),
        hierarchy=hierarchy,
        cost=cost,
        frontier=frontier,
    )


# ------------------------------------------------------------------ baselines


def baseline_fingerprints(report: AnalysisReport) -> list[str]:
    """The sorted fingerprints of a report's findings (a ``--baseline`` file).

    A baseline file is a JSON document ``{"fingerprints": [...]}``; findings
    whose fingerprint appears in it are suppressed by
    :func:`apply_baseline` (the `repro lint --baseline` workflow: record
    today's findings, fail only on new ones).
    """
    return sorted({finding.fingerprint for finding in report.findings})


def apply_baseline(report: AnalysisReport, fingerprints: Iterable[str]) -> AnalysisReport:
    """Drop every finding whose fingerprint appears in *fingerprints*."""
    suppressed = frozenset(fingerprints)
    return replace(
        report,
        findings=tuple(
            f for f in report.findings if f.fingerprint not in suppressed
        ),
    )


__all__ = [
    "AnalysisReport",
    "Finding",
    "LINT_CATALOG",
    "analyze",
    "apply_baseline",
    "baseline_fingerprints",
]
