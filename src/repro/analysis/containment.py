"""Mapping containment: certified ``Sigma <= Sigma'`` queries (Cali-Torlone).

Two schema mappings over the same source schema are *containment*-ordered,
``Sigma <= Sigma'``, when every source instance's solution set under
``Sigma`` is included in its solution set under ``Sigma'`` (Cali & Torlone,
"Containment of Conjunctive Queries over Databases with Null Values" /
"Containment of schema mappings for data exchange").  For the mapping
languages of this library that semantic order coincides with logical
implication: ``Sol_Sigma(I) <= Sol_Sigma'(I)`` for every ``I`` iff every
model of ``Sigma`` is a model of ``Sigma'`` iff ``Sigma |= sigma'`` for each
``sigma' in Sigma'``.  Containment therefore decomposes per right-hand
dependency into the paper's IMPLIES procedure (Theorem 3.1 / 5.7): chase
each ``Sigma'``-relevant canonical source instance with the cached
``chase`` / ``find_homomorphism`` stack and look for an unmatched target
pattern.

What this module adds over raw :func:`repro.core.implication.implies_tgd`:

- **admissibility gating** through the decidability-frontier certificates of
  :mod:`repro.analysis.frontier`: a containment query over an uncertified
  dependency set (no termination rung) is *refused* rather than run, unless
  the caller supplies an explicit ``budget=``.  Every certified query runs:
  IMPLIES is decidable on every s-t and nested left-hand side, and no static
  fact count is consulted.  The same rule gates :func:`redundancy_report`
  and :func:`eliminate_redundant`;
- a structured :class:`ContainmentReport` carrying either a per-dependency
  *proof map* (every ``sigma'`` implied, with its clone bound and sweep
  size) or a machine-checkable :class:`ContainmentWitness` (a counterexample
  source instance plus the unmatched target pattern) that
  :func:`verify_witness` re-checks from first principles;
- write-through caching of whole containment verdicts in the persistent
  store (:mod:`repro.cache`, space ``contain``), keyed by the fingerprints
  of the ``(Sigma, Sigma')`` pair;
- ``containment.*`` :mod:`repro.perf` counters;
- the semantic-redundancy primitives behind lint ``MC001``/``MC002`` and
  ``optimize(semantic=True)``: :func:`redundancy_report` (one diagnostic
  per dependency implied by the rest) and :func:`eliminate_redundant`
  (the greedy, frontier-gated minimization).

    >>> from repro.logic.parser import parse_tgd
    >>> strong = parse_tgd("S(x,y) -> R(x,y)")
    >>> weak = parse_tgd("S(x,y) -> exists z . R(x,z)")
    >>> check_containment([strong], [weak]).status
    'contained'
    >>> report = check_containment([weak], [strong])
    >>> report.holds, report.counterexample is not None
    (False, True)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro import perf
from repro.cache import SPACE_CONTAIN, disk_get, disk_put
from repro.cache.fingerprint import fingerprint_texts
from repro.cache.store import get_store
from repro.errors import (
    BudgetExceeded,
    DependencyError,
    ResourceLimitExceeded,
    UndecidedError,
)
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.printer import dependency_label
from repro.logic.sotgd import SOTgd
from repro.logic.tgds import STTgd
from repro.analysis.cost import sweep_cost
from repro.analysis.frontier import frontier_report

#: Default guard on the total k-pattern sweep of one containment query
#: (matches the IMPLIES enumeration guard / the CC001 prediction limit).
CONTAINMENT_PATTERN_LIMIT = 1_000_000

#: The (much smaller) per-dependency sweep budget of the *lint* pass: the
#: MC001 semantic-redundancy check runs inside ``analyze()`` and must stay
#: interactive, so sweeps predicted beyond this are refused into ``MC002``.
LINT_PATTERN_LIMIT = 20_000


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class ContainmentWitness:
    """A machine-checkable refutation of ``Sigma <= Sigma'``.

    ``source`` is a source instance ``I`` (the canonical instance of the
    failing k-pattern) and ``target`` the target pattern ``J`` that
    ``dependency`` (a member of ``Sigma'``) demands for ``I`` but that
    ``chase(I, Sigma)`` cannot absorb: ``J`` maps homomorphically into
    ``chase(I, [sigma'])`` but not into ``chase(I, Sigma)``.
    :func:`verify_witness` re-checks exactly that, independently of the
    sweep that produced the witness.
    """

    dependency: str
    pattern: str | None
    source: tuple[Atom, ...]
    target: tuple[Atom, ...]

    @property
    def source_instance(self) -> Instance:
        """The counterexample source ``I`` as an :class:`Instance`."""
        return Instance(self.source)

    @property
    def target_instance(self) -> Instance:
        """The unmatched target pattern ``J`` as an :class:`Instance`."""
        return Instance(self.target)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view (facts rendered in sorted repr order)."""
        return {
            "dependency": self.dependency,
            "pattern": self.pattern,
            "source": [str(fact) for fact in self.source],
            "target": [str(fact) for fact in self.target],
        }


@dataclass(frozen=True)
class DependencyVerdict:
    """The containment verdict for one right-hand dependency ``sigma'``.

    ``status`` is ``"implied"`` (``Sigma |= sigma'``; ``k`` and
    ``patterns_checked`` form the proof-map entry), ``"refuted"``
    (``witness`` carries the counterexample), or ``"refused"`` (the query
    was not run; ``reason`` says why -- frontier gate, budget, or an
    undecidable right-hand side).
    """

    dependency: str
    text: str
    status: str
    reason: str = ""
    k: int | None = None
    patterns_checked: int = 0
    witness: ContainmentWitness | None = None

    @property
    def holds(self) -> bool | None:
        """True / False / None for implied / refuted / refused."""
        if self.status == "implied":
            return True
        if self.status == "refuted":
            return False
        return None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view of the verdict."""
        return {
            "dependency": self.dependency,
            "text": self.text,
            "status": self.status,
            "reason": self.reason,
            "k": self.k,
            "patterns_checked": self.patterns_checked,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


@dataclass(frozen=True)
class ContainmentReport:
    """Everything one ``Sigma <= Sigma'`` query decided.

    ``holds`` is three-valued: ``True`` (every right-hand dependency
    implied: the ``verdicts`` are a per-dependency proof map), ``False``
    (some dependency refuted: a refutation is sound even when other
    dependencies were refused), or ``None`` (no refutation, at least one
    refusal -- the query is undecided at the current gate).  ``certified``
    and ``tier`` record the frontier certificate of the combined set.
    """

    holds: bool | None
    status: str
    certified: bool
    tier: str
    budget: int | None
    lhs: tuple[str, ...]
    verdicts: tuple[DependencyVerdict, ...]

    def __bool__(self) -> bool:
        return self.holds is True

    @property
    def counterexample(self) -> ContainmentWitness | None:
        """The first refutation witness, or ``None``."""
        for verdict in self.verdicts:
            if verdict.witness is not None:
                return verdict.witness
        return None

    @property
    def refusals(self) -> tuple[DependencyVerdict, ...]:
        """The verdicts the admissibility gate refused to run."""
        return tuple(v for v in self.verdicts if v.status == "refused")

    def proof_map(self) -> dict[str, dict[str, int]]:
        """``label -> {k, patterns_checked}`` over the implied dependencies."""
        return {
            v.dependency: {"k": v.k or 0, "patterns_checked": v.patterns_checked}
            for v in self.verdicts
            if v.status == "implied"
        }

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view of the whole report."""
        return {
            "holds": self.holds,
            "status": self.status,
            "certified": self.certified,
            "tier": self.tier,
            "budget": self.budget,
            "lhs": list(self.lhs),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON (sorted keys) -- the ``repro contain`` payload."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Mutual containment: ``Sigma == Sigma'`` iff both directions hold.

    The certificate :func:`optimize <repro.core.normalization.optimize>`
    attaches to a semantic minimization: ``forward`` decides
    ``Sigma <= Sigma'`` and ``backward`` decides ``Sigma' <= Sigma``
    (Corollary 3.11 packaged as two containment reports).
    """

    forward: ContainmentReport
    backward: ContainmentReport

    @property
    def holds(self) -> bool | None:
        """Three-valued conjunction of the two directions."""
        if self.forward.holds is False or self.backward.holds is False:
            return False
        if self.forward.holds is True and self.backward.holds is True:
            return True
        return None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view of both directions."""
        return {
            "holds": self.holds,
            "forward": self.forward.to_dict(),
            "backward": self.backward.to_dict(),
        }


# ------------------------------------------------------------- normalization


def _as_list(mapping: object) -> list[Any]:
    if isinstance(mapping, (STTgd, NestedTgd, SOTgd)):
        return [mapping]
    if isinstance(mapping, Iterable):
        return list(mapping)
    raise DependencyError(f"cannot interpret {mapping!r} as a schema mapping")


def _sweep_estimate(lhs: Sequence[Any], dep: object) -> Any:
    """The per-dependency sweep prediction, ``None`` for undecidable sides."""
    if not isinstance(dep, (STTgd, NestedTgd)):
        return None
    try:
        return sweep_cost(lhs, dep)
    except DependencyError:
        return None


# ------------------------------------------------------ persistent verdicts


def _report_key(
    lhs: Sequence[Any],
    rhs: Sequence[Any],
    source_egds: Sequence[Egd],
    budget: int | None,
    max_patterns: int | None,
) -> str:
    """The disk key of one containment report.

    Keyed by the fingerprints of the ``(Sigma, Sigma')`` pair plus every
    input that can change the verdicts *or the refusal surface*: the source
    egds, the explicit budget, and the enumeration guard.  The leading
    component pins a format version and the component counts so that
    concatenated reprs cannot alias across the lhs/rhs/egd boundaries.
    """
    return fingerprint_texts((
        f"contain-v2:budget={budget}:max={max_patterns}:"
        f"lhs={len(lhs)}:rhs={len(rhs)}",
        *[repr(dep) for dep in lhs],
        *[repr(dep) for dep in rhs],
        *[repr(egd) for egd in source_egds],
    ))


def _witness_payload(witness: ContainmentWitness | None) -> tuple[Any, ...] | None:
    if witness is None:
        return None
    return (witness.dependency, witness.pattern, witness.source, witness.target)


def _witness_from_payload(payload: Any) -> ContainmentWitness | None:
    if payload is None:
        return None
    if not isinstance(payload, tuple) or len(payload) != 4:
        raise ValueError("malformed witness payload")
    dependency, pattern, source, target = payload
    if not isinstance(dependency, str):
        raise ValueError("malformed witness payload")
    return ContainmentWitness(
        dependency=dependency, pattern=pattern,
        source=tuple(source), target=tuple(target),
    )


def _disk_report_get(key: str) -> ContainmentReport | None:
    payload = disk_get(SPACE_CONTAIN, key)
    if not isinstance(payload, tuple) or len(payload) != 7:
        return None
    try:
        holds, status, certified, tier, budget, lhs, verdicts = payload
        report = ContainmentReport(
            holds=holds,
            status=status,
            certified=certified,
            tier=tier,
            budget=budget,
            lhs=tuple(lhs),
            verdicts=tuple(
                DependencyVerdict(
                    dependency=dep, text=text, status=st, reason=reason,
                    k=k, patterns_checked=checked,
                    witness=_witness_from_payload(witness),
                )
                for dep, text, st, reason, k, checked, witness in verdicts
            ),
        )
    except (TypeError, ValueError):
        return None
    if not isinstance(report.status, str) or not isinstance(report.certified, bool):
        return None
    perf.incr("containment.verdict_disk_hits")
    return report


def _disk_report_put(key: str, report: ContainmentReport) -> None:
    disk_put(
        SPACE_CONTAIN,
        key,
        (
            report.holds,
            report.status,
            report.certified,
            report.tier,
            report.budget,
            tuple(report.lhs),
            tuple(
                (v.dependency, v.text, v.status, v.reason, v.k,
                 v.patterns_checked, _witness_payload(v.witness))
                for v in report.verdicts
            ),
        ),
    )


# --------------------------------------------------------- the decision step


def _implies_verdict(
    lhs: Sequence[Any],
    dep: object,
    label: str,
    source_egds: Sequence[Egd],
    *,
    budget: int | None,
    max_patterns: int | None,
) -> DependencyVerdict:
    """Run one gated IMPLIES query and package the outcome."""
    from repro.core.implication import implies_tgd

    try:
        result = implies_tgd(
            lhs, dep, source_egds=list(source_egds), max_patterns=max_patterns,
            budget=budget,
        )
    except (BudgetExceeded, ResourceLimitExceeded, DependencyError) as exc:
        perf.incr("containment.refused")
        return DependencyVerdict(
            dependency=label, text=str(dep), status="refused", reason=str(exc),
        )
    perf.incr("containment.checks")
    if result.holds:
        return DependencyVerdict(
            dependency=label, text=str(dep), status="implied",
            reason="every k-pattern's canonical target embeds into the "
            "chased canonical source",
            k=result.k, patterns_checked=result.patterns_checked,
        )
    perf.incr("containment.refuted")
    witness = ContainmentWitness(
        dependency=label,
        pattern=None if result.failing_pattern is None
        else repr(result.failing_pattern),
        source=tuple(sorted(result.counterexample_source.facts, key=repr)),
        target=tuple(sorted(result.counterexample_target.facts, key=repr)),
    )
    return DependencyVerdict(
        dependency=label, text=str(dep), status="refuted",
        reason="a canonical source instance admits a solution under Sigma "
        "that the dependency rejects",
        k=result.k, patterns_checked=result.patterns_checked, witness=witness,
    )


def check_containment(
    sigma: object,
    sigma_prime: object,
    source_egds: Sequence[Egd] = (),
    *,
    budget: int | None = None,
    max_patterns: int | None = CONTAINMENT_PATTERN_LIMIT,
) -> ContainmentReport:
    """Decide ``Sigma <= Sigma'`` (solution-set inclusion for every source).

    Each right-hand dependency is checked by the cached IMPLIES sweep after
    an admissibility gate: the combined set's frontier certificate
    (:func:`repro.analysis.frontier.frontier_report`) must certify chase
    termination, or the caller must supply an explicit ``budget=`` -- an
    uncertified, unbudgeted query is *refused* (``status == "undecided"``),
    never run.  The IMPLIES calls get the caller's ``budget`` (``None``:
    no sweep-cost preflight, only the ``max_patterns`` guard); budgeted
    queries that exceed the budget's sweep-cost preflight are refused per
    dependency, not raised.

        >>> from repro.logic.parser import parse_tgd
        >>> copy = parse_tgd("S(x,y) -> R(x,y)")
        >>> weak = parse_tgd("S(x,y) -> exists z . R(x,z)")
        >>> check_containment([copy], [weak]).holds
        True
        >>> check_containment([weak], [copy]).holds
        False
    """
    perf.incr("containment.queries")
    lhs = _as_list(sigma)
    rhs = _as_list(sigma_prime)
    egds = list(source_egds)

    key: str | None = None
    if get_store() is not None:
        key = _report_key(lhs, rhs, egds, budget, max_patterns)
        cached = _disk_report_get(key)
        if cached is not None:
            return cached

    frontier = frontier_report(lhs + rhs + egds)
    certified = frontier.certified
    tier = frontier.tier.tier.value

    admitted = certified or budget is not None
    verdicts: list[DependencyVerdict] = []
    for index, dep in enumerate(rhs):
        label = dependency_label(dep, index)
        if _sweep_estimate(lhs, dep) is None:
            perf.incr("containment.refused")
            verdicts.append(DependencyVerdict(
                dependency=label, text=str(dep), status="refused",
                reason="only s-t tgds and nested tgds are decidable "
                "right-hand sides of a containment query (implication of "
                "SO tgds is undecidable)",
            ))
            continue
        if not admitted:
            perf.incr("containment.refused")
            verdicts.append(DependencyVerdict(
                dependency=label, text=str(dep), status="refused",
                reason="outside the certified frontier: the combined set has "
                f"no termination certificate (tier {tier}); pass budget= to "
                "bound the sweep explicitly",
            ))
            continue
        verdicts.append(_implies_verdict(
            lhs, dep, label, egds,
            budget=budget, max_patterns=max_patterns,
        ))

    if any(v.status == "refuted" for v in verdicts):
        holds: bool | None = False
        status = "not-contained"
    elif all(v.status == "implied" for v in verdicts):
        holds = True
        status = "contained"
    else:
        holds = None
        status = "undecided"

    report = ContainmentReport(
        holds=holds,
        status=status,
        certified=certified,
        tier=tier,
        budget=budget,
        lhs=tuple(str(dep) for dep in lhs),
        verdicts=tuple(verdicts),
    )
    if key is not None:
        _disk_report_put(key, report)
    return report


def contains(
    sigma: object,
    sigma_prime: object,
    source_egds: Sequence[Egd] = (),
    *,
    budget: int | None = None,
    max_patterns: int | None = CONTAINMENT_PATTERN_LIMIT,
) -> bool:
    """``Sigma <= Sigma'`` as a plain bool; undecided queries raise.

        >>> from repro.logic.parser import parse_tgd
        >>> contains([parse_tgd("S(x,y) -> R(x,y)")],
        ...          [parse_tgd("S(x,y) -> exists z . R(x,z)")])
        True
    """
    report = check_containment(
        sigma, sigma_prime, source_egds,
        budget=budget, max_patterns=max_patterns,
    )
    if report.holds is None:
        reasons = "; ".join(v.reason for v in report.refusals)
        raise UndecidedError(f"containment query refused: {reasons}")
    return report.holds


def check_equivalence(
    sigma: object,
    sigma_prime: object,
    source_egds: Sequence[Egd] = (),
    *,
    budget: int | None = None,
    max_patterns: int | None = CONTAINMENT_PATTERN_LIMIT,
) -> EquivalenceCertificate:
    """Decide ``Sigma == Sigma'`` as mutual containment (Corollary 3.11).

        >>> from repro.logic.parser import parse_tgd
        >>> a = [parse_tgd("S(x,y) & T(y,z) -> R(x,z)")]
        >>> b = [parse_tgd("T(y,z) & S(x,y) -> R(x,z)")]
        >>> check_equivalence(a, b).holds
        True
    """
    return EquivalenceCertificate(
        forward=check_containment(
            sigma, sigma_prime, source_egds,
            budget=budget, max_patterns=max_patterns,
        ),
        backward=check_containment(
            sigma_prime, sigma, source_egds,
            budget=budget, max_patterns=max_patterns,
        ),
    )


# --------------------------------------------------------- witness checking


def verify_witness(
    witness: ContainmentWitness,
    sigma: object,
    sigma_prime_dep: object,
    source_egds: Sequence[Egd] = (),
) -> bool:
    """Re-check a refutation witness from first principles.

    Valid iff (1) the witness source satisfies the source egds, (2) its
    target pattern is really demanded by ``sigma_prime_dep`` (it maps
    homomorphically into ``chase(I, [sigma'])``), and (3) ``chase(I,
    Sigma)`` -- a universal solution for ``I`` under ``Sigma`` -- cannot
    absorb it.  The three checks use only the chase and the homomorphism
    kernel, independently of the k-pattern sweep that found the witness.
    """
    from repro.engine.chase import chase
    from repro.engine.egd_chase import satisfies_egds
    from repro.engine.homomorphism import find_homomorphism

    source = witness.source_instance
    target = witness.target_instance
    if source_egds and not satisfies_egds(source, list(source_egds)):
        return False
    demanded = chase(source, _as_list(sigma_prime_dep))
    if find_homomorphism(target, demanded) is None:
        return False
    refuting = chase(source, _as_list(sigma))
    return find_homomorphism(target, refuting) is None


# ----------------------------------------------------- semantic redundancy


@dataclass(frozen=True)
class Redundancy:
    """One dependency's semantic-redundancy diagnostic (lint ``MC001``/``MC002``).

    ``status`` is ``"redundant"`` (the remaining dependencies imply this
    one: dropping it preserves the solution set of every source instance)
    or ``"refused"`` (the redundancy query was outside the lint gate --
    uncertified set, predicted sweep beyond the lint budget, or an
    undecidable right-hand side).  Non-redundant dependencies produce no
    entry.
    """

    index: int
    dependency: str
    text: str
    status: str
    reason: str = ""


def redundancy_report(
    dependencies: Sequence[Any],
    source_egds: Sequence[Egd] = (),
    *,
    max_patterns: int = LINT_PATTERN_LIMIT,
) -> tuple[Redundancy, ...]:
    """One-pass semantic-redundancy scan: which deps do the others imply?

    The scan is frontier-gated exactly like :func:`check_containment` --
    a dependency whose redundancy query cannot be certified and budgeted
    statically yields a ``"refused"`` entry instead of an unbounded sweep.

        >>> from repro.logic.parser import parse_tgd
        >>> deps = [parse_tgd("S(x,y) -> R(x,y)"),
        ...         parse_tgd("S(x,y) -> exists z . R(x,z)")]
        >>> [(r.index, r.status) for r in redundancy_report(deps)]
        [(1, 'redundant')]
    """
    from repro.core.implication import implies_tgd

    deps = list(dependencies)
    egds = list(source_egds)
    if len(deps) < 2:
        return ()
    frontier = frontier_report(deps + egds)
    certified = frontier.certified
    entries: list[Redundancy] = []
    for index, dep in enumerate(deps):
        rest = deps[:index] + deps[index + 1:]
        label = dependency_label(dep, index)
        estimate = _sweep_estimate(rest, dep)
        if estimate is None:
            continue  # an SO tgd can never be a decidable right-hand side
        if not certified:
            perf.incr("containment.refused")
            entries.append(Redundancy(
                index=index, dependency=label, text=str(dep), status="refused",
                reason="the set has no termination certificate, so its "
                "containment queries sit outside the certified frontier",
            ))
            continue
        if estimate.pattern_count > max_patterns:
            perf.incr("containment.refused")
            entries.append(Redundancy(
                index=index, dependency=label, text=str(dep), status="refused",
                reason=f"the redundancy check sweeps ~{estimate.pattern_count} "
                f"k-patterns (k={estimate.k}), beyond the lint budget "
                f"{max_patterns}",
            ))
            continue
        try:
            result = implies_tgd(
                rest, dep, source_egds=egds, max_patterns=max_patterns,
            )
        except (DependencyError, ResourceLimitExceeded) as exc:
            perf.incr("containment.refused")
            entries.append(Redundancy(
                index=index, dependency=label, text=str(dep), status="refused",
                reason=str(exc),
            ))
            continue
        perf.incr("containment.checks")
        if result.holds:
            perf.incr("containment.redundant")
            entries.append(Redundancy(
                index=index, dependency=label, text=str(dep),
                status="redundant",
                reason="the remaining dependencies imply it, so dropping it "
                "preserves every source instance's solution set",
            ))
    return tuple(entries)


def eliminate_redundant(
    dependencies: Sequence[Any],
    source_egds: Sequence[Egd] = (),
    *,
    budget: int | None = None,
    max_patterns: int | None = CONTAINMENT_PATTERN_LIMIT,
) -> tuple[list[Any], list[tuple[Any, str]]]:
    """Greedy, frontier-gated semantic minimization of a dependency set.

    Returns ``(kept, dropped)`` with ``dropped`` a list of ``(dependency,
    reason)`` pairs.  The containment admissibility gate applies to every
    query: on an uncertified set without an explicit ``budget=`` nothing is
    dropped (every check is refused), so the function is always safe to
    call.  The result is containment-equivalent to the input: each dropped
    dependency was implied by the dependencies kept at the time, and
    removal never weakens the remaining set's consequences.
    """
    from repro.core.implication import implies_tgd

    kept = list(dependencies)
    egds = list(source_egds)
    dropped: list[tuple[Any, str]] = []
    changed = True
    while changed and len(kept) > 1:
        changed = False
        frontier = frontier_report(kept + egds)
        for index, dep in enumerate(kept):
            rest = kept[:index] + kept[index + 1:]
            estimate = _sweep_estimate(rest, dep)
            if estimate is None:
                continue
            if not frontier.certified and budget is None:
                continue  # refused at the admissibility gate
            try:
                result = implies_tgd(
                    rest, dep, source_egds=egds, max_patterns=max_patterns,
                    budget=budget,
                )
            except (BudgetExceeded, ResourceLimitExceeded, DependencyError):
                perf.incr("containment.refused")
                continue
            perf.incr("containment.checks")
            if result.holds:
                perf.incr("containment.redundant")
                dropped.append((
                    dep,
                    "semantically redundant: the remaining dependencies "
                    "contain it (k="
                    f"{result.k}, {result.patterns_checked} pattern(s) "
                    "checked)",
                ))
                kept = rest
                changed = True
                break
    return kept, dropped


__all__ = [
    "CONTAINMENT_PATTERN_LIMIT",
    "LINT_PATTERN_LIMIT",
    "ContainmentReport",
    "ContainmentWitness",
    "DependencyVerdict",
    "EquivalenceCertificate",
    "Redundancy",
    "check_containment",
    "check_equivalence",
    "contains",
    "eliminate_redundant",
    "redundancy_report",
    "verify_witness",
]
