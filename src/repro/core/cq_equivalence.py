"""CQ-equivalence of schema mappings.

Two schema mappings are *CQ-equivalent* when they give the same certain
answers for every conjunctive query (the notion, due to Madhavan & Halevy
[16] and studied in [6], under which plain SO tgds are the right composition
language [2] -- see the paper's introduction).  For mappings that admit
universal solutions, CQ-equivalence is characterized instance-wise:

    M ≡_CQ M'   iff   for every source instance I,
                      core(chase(I, M)) and core(chase(I, M')) are
                      homomorphically equivalent

(certain answers are computed on any universal solution, and hom-equivalent
cores give the same answers for every CQ).

:func:`cq_refute` searches a batch of source instances for a counterexample
(exact refutation); :func:`cq_equivalent_on` is the corresponding bounded
verifier.  :func:`canonical_test_sources` generates the natural test family:
the (legal) canonical source instances of the patterns of both mappings --
for GLAV mappings these are the canonical body instances on which
CQ-equivalence is classically checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import nested_tgds_from
from repro.core.canonical import canonical_instances, legal_canonical_instances
from repro.core.implication import cached_chase
from repro.core.patterns import patterns_up_to_size
from repro.engine.core_instance import core
from repro.engine.egd_chase import satisfies_egds
from repro.engine.homomorphism import homomorphically_equivalent


@dataclass
class CQComparison:
    """Outcome of a CQ-equivalence check over a batch of sources."""

    equivalent_on_batch: bool
    checked: int
    counterexample_source: Instance | None = None

    def __bool__(self) -> bool:
        return self.equivalent_on_batch


def _normalize(mapping) -> list:
    from repro.mappings.mapping import SchemaMapping

    if isinstance(mapping, SchemaMapping):
        return list(mapping.dependencies)
    try:
        return list(mapping)
    except TypeError:
        return [mapping]


def cq_refute(
    mapping_a,
    mapping_b,
    sources: Iterable[Instance],
    source_egds: Sequence[Egd] = (),
) -> Instance | None:
    """Return a source instance separating the mappings' core solutions, or None.

    A returned instance I witnesses that the mappings are **not**
    CQ-equivalent: their cores are not hom-equivalent on I, so some CQ has
    different certain answers.  Both chases go through the IMPLIES chase
    cache: the canonical test family deliberately repeats sources across the
    two mappings and across calls.
    """
    deps_a, deps_b = _normalize(mapping_a), _normalize(mapping_b)
    for source in sources:
        if source_egds and not satisfies_egds(source, list(source_egds)):
            continue
        core_a = core(cached_chase(source, deps_a))
        core_b = core(cached_chase(source, deps_b))
        if not homomorphically_equivalent(core_a, core_b):
            return source
    return None


def cq_equivalent_on(
    mapping_a,
    mapping_b,
    sources: Iterable[Instance],
    source_egds: Sequence[Egd] = (),
) -> CQComparison:
    """Check CQ-equivalence over a batch of sources (bounded verifier).

        >>> from repro.logic.parser import parse_instance, parse_tgd
        >>> a = [parse_tgd("S(x,y) -> R(x,z)")]
        >>> b = [parse_tgd("S(x,y) -> R(x,w)")]
        >>> bool(cq_equivalent_on(a, b, [parse_instance("S(a,b)")]))
        True
    """
    sources = list(sources)
    witness = cq_refute(mapping_a, mapping_b, sources, source_egds=source_egds)
    return CQComparison(
        equivalent_on_batch=witness is None,
        checked=len(sources),
        counterexample_source=witness,
    )


def canonical_test_sources(
    mapping_a,
    mapping_b,
    max_pattern_nodes: int = 3,
    source_egds: Sequence[Egd] = (),
) -> list[Instance]:
    """The canonical source instances of both mappings' small patterns.

    For GLAV mappings these are the canonical body instances (patterns have
    one node per tgd); for nested GLAV mappings, growing *max_pattern_nodes*
    yields ever stronger test families.  Only instances satisfying the source
    egds are returned.
    """
    sources: list[Instance] = []
    seen: set = set()
    for mapping in (mapping_a, mapping_b):
        for tgd in nested_tgds_from(_normalize(mapping)):
            for pattern in patterns_up_to_size(tgd, max_pattern_nodes):
                if source_egds:
                    canon = legal_canonical_instances(pattern, tgd, source_egds)
                else:
                    canon = canonical_instances(pattern, tgd)
                if canon.source.facts in seen:
                    continue
                seen.add(canon.source.facts)
                sources.append(canon.source)
    return sources


def cq_equivalent(
    mapping_a,
    mapping_b,
    max_pattern_nodes: int = 3,
    source_egds: Sequence[Egd] = (),
) -> CQComparison:
    """Check CQ-equivalence on the canonical test family of both mappings.

    Refutations are exact; a positive verdict means "no counterexample among
    the canonical sources with patterns of at most *max_pattern_nodes*
    nodes" -- complete for GLAV mappings at the default, a bounded verifier
    for nested mappings (grow the bound for more confidence).
    """
    sources = canonical_test_sources(
        mapping_a, mapping_b, max_pattern_nodes=max_pattern_nodes,
        source_egds=source_egds,
    )
    return cq_equivalent_on(mapping_a, mapping_b, sources, source_egds=source_egds)


__all__ = [
    "CQComparison",
    "cq_refute",
    "cq_equivalent_on",
    "canonical_test_sources",
    "cq_equivalent",
]
