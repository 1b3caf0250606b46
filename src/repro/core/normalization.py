"""Mapping optimization: redundancy removal and per-dependency normalization.

Decidable implication (Theorem 3.1) makes classic schema-mapping-management
operations *exact* for nested GLAV mappings:

- :func:`remove_redundant_dependencies` -- drop every dependency implied by
  the remaining ones (the result is logically equivalent to the input);
- :func:`minimize_tgd_body` -- drop body atoms of an s-t tgd as long as the
  dependency stays logically equivalent (the classical tableau-minimization,
  here performed with IMPLIES so that it is exact);
- :func:`normalize_tgd_head` -- replace the head by its core: fold redundant
  existential structure (e.g. ``R(x, y) & R(x, z)`` with existential ``z``
  folds onto ``R(x, y)``), treating universal variables as constants;
- :func:`optimize` -- the full pipeline over a set of dependencies, with
  ``semantic=True`` upgrading redundancy removal from the IMPLIES loop to
  the frontier-gated mapping-containment analysis of
  :mod:`repro.analysis.containment`, attaching an equivalence certificate
  checked in both directions;
- :func:`optimize_report` -- the same pipeline returning an
  :class:`OptimizeReport` (kept/dropped dependencies with reasons and the
  certificate), the payload of ``repro optimize --json``.

These operations echo the schema-mapping-optimization agenda of
[Fagin-Kolaitis-Nash-Popa, reference 6 of the paper], whose f-block results
Section 4 builds on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import DependencyError, ReproError
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.printer import dependency_label
from repro.logic.tgds import STTgd
from repro.logic.values import Constant, Variable
from repro.core.implication import equivalent, implies
from repro.engine.core_instance import core

if TYPE_CHECKING:
    from repro.analysis.containment import EquivalenceCertificate


def remove_redundant_dependencies(
    dependencies: Sequence,
    source_egds: Sequence[Egd] = (),
) -> list:
    """Greedily drop dependencies implied by the remaining ones.

    The result is logically equivalent to the input (relative to the source
    egds) and inclusion-minimal w.r.t. the greedy order.

        >>> from repro.logic.parser import parse_tgd
        >>> strong = parse_tgd("S(x,y) -> R(x,y)")
        >>> weak = parse_tgd("S(x,y) -> R(x,z)")
        >>> remove_redundant_dependencies([strong, weak]) == [strong]
        True
    """
    return _greedy_redundancy(dependencies, source_egds)[0]


def _greedy_redundancy(dependencies: Sequence, source_egds: Sequence[Egd]) -> tuple[list, list]:
    """The greedy IMPLIES loop: ``(kept, dropped)``, *dropped* in drop order."""
    kept = list(dependencies)
    dropped: list = []
    changed = True
    while changed:
        changed = False
        for index, dep in enumerate(kept):
            rest = kept[:index] + kept[index + 1:]
            if rest and implies(rest, dep, source_egds=list(source_egds)):
                dropped.append(dep)
                kept = rest
                changed = True
                break
    return kept, dropped


def minimize_tgd_body(tgd: STTgd, source_egds: Sequence[Egd] = ()) -> STTgd:
    """Drop redundant body atoms of an s-t tgd, preserving logical equivalence.

        >>> from repro.logic.parser import parse_tgd
        >>> t = parse_tgd("S(x,y) & S(x,yp) -> R(x)")
        >>> len(minimize_tgd_body(t).body)
        1
    """
    body = list(tgd.body)
    changed = True
    while changed and len(body) > 1:
        changed = False
        for index in range(len(body)):
            candidate_body = body[:index] + body[index + 1:]
            head_vars = {
                v for a in tgd.head for v in a.variable_set()
            } & set(tgd.universal_variables)
            remaining_vars = {v for a in candidate_body for v in a.variable_set()}
            if not head_vars <= remaining_vars:
                continue  # dropping would unsafely free a head variable
            candidate = STTgd(body=tuple(candidate_body), head=tgd.head, name=tgd.name)
            if equivalent([candidate], [tgd], source_egds=list(source_egds)):
                body = candidate_body
                changed = True
                break
    return STTgd(body=tuple(body), head=tgd.head, name=tgd.name)


def normalize_tgd_head(tgd: STTgd) -> STTgd:
    """Replace the head of an s-t tgd by its core.

    Universal variables are frozen as constants, existential variables become
    nulls, and the core computation folds redundant existential structure.
    The result is logically equivalent to the input.
    """
    universal = tgd.universal_variables
    existential = tgd.existential_variables
    to_value: dict[Variable, object] = {}
    for var in universal:
        to_value[var] = Constant(("$u", var.name))
    from repro.logic.values import Null

    for var in existential:
        to_value[var] = Null(("$e", var.name))

    head_instance = Instance(a.substitute(to_value) for a in tgd.head)
    head_core = core(head_instance)

    back: dict[object, Variable] = {}
    for var, value in to_value.items():
        back[value] = var

    new_head = tuple(
        Atom(f.relation, tuple(back[arg] for arg in f.args))
        for f in sorted(head_core.facts, key=repr)
    )
    return STTgd(body=tgd.body, head=new_head, name=tgd.name)


@dataclass(frozen=True)
class OptimizeReport:
    """The machine-readable outcome of :func:`optimize_report`.

    ``kept`` holds the surviving (normalized) dependencies in input order,
    ``dropped`` one ``(label, text, reason)`` triple per removed dependency.
    With ``semantic=True``, ``certificate`` carries the two-directional
    containment certificate of
    :func:`repro.analysis.containment.check_equivalence` between the
    optimized set and the original input (``None`` otherwise).
    """

    kept: tuple
    dropped: tuple[tuple[str, str, str], ...]
    semantic: bool
    certificate: EquivalenceCertificate | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view (``repro optimize --json``)."""
        return {
            "semantic": self.semantic,
            "kept": [str(dep) for dep in self.kept],
            "dropped": [
                {"dependency": label, "text": text, "reason": reason}
                for label, text, reason in self.dropped
            ],
            "equivalent": True if self.certificate is None else self.certificate.holds,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON with sorted keys."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def optimize_report(
    dependencies: Sequence,
    source_egds: Sequence[Egd] = (),
    *,
    semantic: bool = False,
    budget: int | None = None,
) -> OptimizeReport:
    """Run the optimization pipeline and report kept/dropped dependencies.

    Flat dependencies get body minimization and head normalization (both
    equivalence-preserving via IMPLIES); then redundant dependencies are
    removed.  With ``semantic=False`` redundancy removal is the greedy
    IMPLIES loop of :func:`remove_redundant_dependencies`.  With
    ``semantic=True`` it is the frontier-gated containment elimination of
    :func:`repro.analysis.containment.eliminate_redundant` (refused queries
    keep their dependency, so uncertified sets pass through unchanged unless
    ``budget=`` is given), and the result carries an equivalence certificate
    between the optimized set and the *original* input, checked in both
    containment directions; a falsified certificate -- which would mean the
    eliminator dropped a non-redundant dependency -- raises
    :class:`~repro.errors.ReproError`.
    """
    deps = list(dependencies)
    normalized: list = []
    for dep in deps:
        if isinstance(dep, STTgd):
            dep = normalize_tgd_head(dep)
            dep = minimize_tgd_body(dep, source_egds=source_egds)
        elif isinstance(dep, NestedTgd) and dep.is_flat():
            flat = normalize_tgd_head(dep.to_st_tgd())
            dep = minimize_tgd_body(flat, source_egds=source_egds)
        elif not isinstance(dep, NestedTgd):
            raise DependencyError(f"cannot optimize dependency {dep!r}")
        normalized.append(dep)
    labels = {id(dep): dependency_label(dep, index) for index, dep in enumerate(normalized)}

    dropped: list[tuple[str, str, str]] = []
    certificate: EquivalenceCertificate | None = None
    if semantic:
        from repro.analysis.containment import check_equivalence, eliminate_redundant

        kept, removed = eliminate_redundant(
            normalized, source_egds=list(source_egds), budget=budget,
        )
        for dep, reason in removed:
            dropped.append((labels[id(dep)], str(dep), reason))
        certificate = check_equivalence(
            kept, deps, list(source_egds), budget=budget,
        )
        if certificate.holds is False:
            raise ReproError(
                "semantic optimization produced a non-equivalent mapping "
                "(the equivalence certificate is falsified); this is a bug"
            )
    else:
        kept, implied = _greedy_redundancy(normalized, source_egds)
        for dep in implied:
            dropped.append((
                labels[id(dep)], str(dep),
                "implied by the remaining dependencies (IMPLIES)",
            ))
    return OptimizeReport(
        kept=tuple(kept),
        dropped=tuple(dropped),
        semantic=semantic,
        certificate=certificate,
    )


def optimize(
    dependencies: Sequence,
    source_egds: Sequence[Egd] = (),
    *,
    semantic: bool = False,
    budget: int | None = None,
) -> list:
    """Run the full optimization pipeline over a set of dependencies.

    Flat dependencies get body minimization and head normalization; then
    redundant dependencies are removed -- exactly (via IMPLIES) by default,
    or via the certified containment analysis with ``semantic=True`` (see
    :func:`optimize_report`, which also returns the dropped dependencies
    and the equivalence certificate).  The result is logically equivalent
    to the input (relative to the source egds).
    """
    return list(optimize_report(
        dependencies, source_egds, semantic=semantic, budget=budget,
    ).kept)


__all__ = [
    "OptimizeReport",
    "remove_redundant_dependencies",
    "minimize_tgd_body",
    "normalize_tgd_head",
    "optimize",
    "optimize_report",
]
