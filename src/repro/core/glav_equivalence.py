"""Deciding equivalence of a nested GLAV mapping to a GLAV mapping
(Theorems 4.2 and 5.6), and constructing the equivalent GLAV mapping.

By Theorem 4.1 (from [FKNP08], valid also with source egds -- Section 5), a
mapping specified by a plain SO tgd is logically equivalent to a GLAV mapping
iff it has bounded f-block size.  Combining the effective threshold
(Theorem 4.4 / 5.5) and the effective bounded anchor (Theorem 4.9) makes the
boundedness question decidable for nested GLAV mappings (Theorem 4.11), and
hence equivalence to GLAV is decidable (Theorem 4.2 / 5.6).

Beyond the yes/no answer, :func:`to_glav` *constructs* the equivalent GLAV
mapping when one exists: every pattern ``p`` of a nested tgd induces the
"pattern tgd" ``I_p -> J_p`` (canonical instances read back as body and
head), which the mapping always implies; conversely, when the f-block size is
bounded, finitely many pattern tgds imply the mapping back -- which the
decision procedure IMPLIES of Section 3 verifies.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import UndecidedError
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.nested import NestedTgd, nested_tgds_from
from repro.logic.tgds import STTgd
from repro.logic.values import Variable, is_null
from repro.core.canonical import canonical_instances
from repro.core.fblock_analysis import FBlockVerdict, decide_bounded_fblock_size
from repro.core.implication import implies
from repro.core.patterns import patterns_up_to_size


def is_equivalent_to_glav(
    dependencies, source_egds: Sequence[Egd] = (), backend: str = "tuple"
) -> bool:
    """Decide whether a nested GLAV mapping is logically equivalent to a GLAV mapping.

    ``backend=`` is forwarded to the boundedness analysis's core engine (same
    verdict on every backend).

        >>> from repro.logic.parser import parse_nested_tgd
        >>> sigma = parse_nested_tgd(
        ...     "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
        >>> is_equivalent_to_glav([sigma])   # the paper's running counterexample
        False
    """
    verdict = decide_bounded_fblock_size(
        dependencies, source_egds=source_egds, backend=backend
    )
    return verdict.bounded


def pattern_tgd(pattern, tgd: NestedTgd) -> STTgd | None:
    """The GLAV constraint induced by a pattern: ``I_p -> J_p`` as an s-t tgd.

    Fresh constants of the canonical source instance become universally
    quantified variables; the nulls (ground Skolem terms) of the canonical
    target instance become existentially quantified variables.  The mapping
    always implies its pattern tgds (universality of the chase).  Returns
    None for patterns with an empty canonical target instance (their pattern
    tgd would be trivially true).
    """
    canon = canonical_instances(pattern, tgd)
    if not len(canon.target):
        return None
    renaming: dict = {}
    counter = [0]

    def variable_for(value) -> Variable:
        if value not in renaming:
            prefix = "y" if is_null(value) else "x"
            counter[0] += 1
            renaming[value] = Variable(f"{prefix}{counter[0]}")
        return renaming[value]

    body = tuple(
        Atom(f.relation, tuple(variable_for(a) for a in f.args))
        for f in sorted(canon.source.facts, key=repr)
    )
    head = tuple(
        Atom(f.relation, tuple(variable_for(a) for a in f.args))
        for f in sorted(canon.target.facts, key=repr)
    )
    return STTgd(body=body, head=head)


def to_glav(
    dependencies,
    source_egds: Sequence[Egd] = (),
    max_pattern_nodes: int = 8,
    backend: str = "tuple",
) -> list[STTgd]:
    """Construct a GLAV mapping logically equivalent to the given nested GLAV mapping.

    Raises :class:`UndecidedError` when the mapping has unbounded f-block size
    (no equivalent GLAV mapping exists, Theorem 4.1) or when the search bound
    *max_pattern_nodes* is exhausted before the implication closes.
    ``backend=`` is forwarded to the boundedness analysis's core engine; the
    construction is unchanged for every backend.

        >>> from repro.logic.parser import parse_nested_tgd
        >>> sigma = parse_nested_tgd("S1(x1) -> (S2(x2) -> T(x1, x2))")
        >>> glav = to_glav([sigma])
        >>> len(glav)
        1
    """
    nested = nested_tgds_from(dependencies)
    verdict: FBlockVerdict = decide_bounded_fblock_size(
        nested, source_egds=source_egds, backend=backend
    )
    if not verdict.bounded:
        raise UndecidedError(
            "the mapping has unbounded f-block size and is therefore not logically "
            f"equivalent to any GLAV mapping (witness pattern {verdict.witness_pattern!r})"
        )

    for node_limit in range(1, max_pattern_nodes + 1):
        candidate: list[STTgd] = []
        for tgd in nested:
            for pattern in patterns_up_to_size(tgd, node_limit):
                induced = pattern_tgd(pattern, tgd)
                if induced is not None:
                    candidate.append(induced)
        if not candidate:
            continue
        # Deduplicate syntactically equal pattern tgds.
        candidate = list(dict.fromkeys(candidate))
        # The nested mapping always implies its pattern tgds; equivalence holds
        # as soon as the pattern tgds imply the nested mapping back.
        if implies(candidate, nested, source_egds=list(source_egds)):
            return candidate
    raise UndecidedError(
        "no equivalent GLAV mapping found with patterns of at most "
        f"{max_pattern_nodes} nodes (increase max_pattern_nodes)"
    )


def glav_distance_report(
    dependencies, source_egds: Sequence[Egd] = (), backend: str = "tuple"
) -> dict:
    """A structured report for the GLAV-equivalence question.

    Returns a dict with the boundedness verdict, the witnessing growth
    sequence when unbounded, and (when bounded and small enough) the
    constructed equivalent GLAV mapping.
    """
    verdict = decide_bounded_fblock_size(
        dependencies, source_egds=source_egds, backend=backend
    )
    report: dict = {
        "bounded_fblock_size": verdict.bounded,
        "fblock_bound": verdict.bound,
        "growth": list(verdict.growth),
        "witness_pattern": verdict.witness_pattern,
        "equivalent_glav": None,
    }
    if verdict.bounded:
        try:
            report["equivalent_glav"] = to_glav(
                dependencies, source_egds=source_egds, backend=backend
            )
        except UndecidedError:
            report["equivalent_glav"] = None
    return report


__all__ = ["is_equivalent_to_glav", "pattern_tgd", "to_glav", "glav_distance_report"]
