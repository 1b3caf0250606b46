"""Canonical instances of patterns (Definition 3.7) and their legal variants
with source egds (Definition 5.4).

For each node of a pattern associated with part
``sigma_i : forall x (phi(x, x0) -> psi(x, x0))``, the canonical source
instance receives the atoms ``phi(a, a0)`` and the canonical target instance
the atoms ``psi(a, a0)``, where ``a`` assigns distinct fresh constants to the
part's own universal variables and ``a0`` is the assignment of the ancestor
nodes.  Existential variables are instantiated by their ground Skolem terms,
which act as nulls.

With source egds, the *legal* canonical source instance is obtained by
chasing with the egds (fresh constants may merge), and the legal canonical
target instance by applying the same equalities -- including inside the
ground Skolem terms, whose arguments are the merged constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant, FreshValueFactory
from repro.core.patterns import Pattern
from repro.engine.egd_chase import chase_egds


@dataclass
class CanonicalInstances:
    """The canonical source and target instances of a pattern, with provenance.

    ``assignments`` maps each pattern-node path (a tuple of child indexes,
    ``()`` for the root) to the full variable assignment used at that node.
    """

    pattern: Pattern
    tgd: NestedTgd
    source: Instance
    target: Instance
    assignments: dict[tuple[int, ...], dict]


def canonical_instances(
    pattern: Pattern,
    tgd: NestedTgd,
    factory: FreshValueFactory | None = None,
) -> CanonicalInstances:
    """Build the canonical source and target instances ``I_p`` and ``J_p``.

        >>> from repro.logic.parser import parse_nested_tgd
        >>> from repro.core.patterns import Pattern
        >>> s = parse_nested_tgd("S1(x1) -> (S2(x2) -> R(x1, x2))")
        >>> ci = canonical_instances(Pattern(1, (Pattern(2),)), s)
        >>> len(ci.source), len(ci.target)
        (2, 1)
    """
    pattern.validate_against(tgd)
    factory = factory or FreshValueFactory()
    source_facts: list[Atom] = []
    target_facts: list[Atom] = []
    assignments: dict[tuple[int, ...], dict] = {}

    def visit(node: Pattern, path: tuple[int, ...], inherited: dict) -> None:
        part = tgd.part(node.part_id)
        assignment = dict(inherited)
        for var in part.universal_vars:
            assignment[var] = factory.constant()
        assignments[path] = dict(assignment)
        source_facts.extend(atom.substitute(assignment) for atom in part.body)
        target_facts.extend(
            atom.substitute(assignment) for atom in tgd.skolemized_head(node.part_id)
        )
        for index, child in enumerate(node.children):
            visit(child, path + (index,), assignment)

    visit(pattern, (), {})
    return CanonicalInstances(
        pattern=pattern,
        tgd=tgd,
        source=Instance(source_facts),
        target=Instance(target_facts),
        assignments=assignments,
    )


def canonical_extension(
    tgd: NestedTgd,
    part_id: int,
    inherited: Mapping,
    ordinal: int,
) -> tuple[dict, list[Atom], list[Atom]]:
    """The canonical-instance delta of attaching one leaf node for *part_id*.

    Returns ``(assignment, source_delta, target_delta)``: the node's full
    variable assignment (the ancestor assignment *inherited* extended with
    fresh constants for the part's own universal variables), the part's body
    atoms under it (the source-instance delta), and the part's Skolemized
    head atoms under it (the target-instance delta).

    The fresh constants are named by the node's part and *ordinal*, its rank
    among the pattern's part-*part_id* nodes: the part's ``i``-th universal
    variable becomes ``a{part_id}_{ordinal}_{i}``.  Names never collide
    within a pattern, and two patterns whose nodes agree on part, ordinal
    and inherited assignment get identical deltas, whatever leaf order
    built them.  Extending a pattern's canonical instances one leaf at a
    time with this function yields instances isomorphic to a from-scratch
    :func:`canonical_instances` build (Definition 3.7 determines them up to
    renaming of the fresh constants), which is what the incremental IMPLIES
    sweep relies on.
    """
    part = tgd.part(part_id)
    assignment = dict(inherited)
    for index, var in enumerate(part.universal_vars, start=1):
        assignment[var] = Constant(f"a{part_id}_{ordinal}_{index}")
    source_delta = [atom.substitute(assignment) for atom in part.body]
    target_delta = [
        atom.substitute(assignment) for atom in tgd.skolemized_head(part_id)
    ]
    return assignment, source_delta, target_delta


def rename_values_deep(instance: Instance, mapping: Mapping) -> Instance:
    """Rename values in *instance*, including inside ground Skolem terms.

    ``Instance.map_values`` renames only top-level fact arguments; the legal
    canonical target instance also needs the equalities applied to the
    arguments of its ground Skolem terms (the nulls record which constants
    they were created from).
    """
    mapping = dict(mapping)

    def rename(value):
        if value in mapping:
            return mapping[value]
        if isinstance(value, FuncTerm):
            return FuncTerm(value.function, tuple(rename(a) for a in value.args))
        return value

    return Instance(
        Atom(fact.relation, tuple(rename(a) for a in fact.args)) for fact in instance
    )


def legal_canonical_instances(
    pattern: Pattern,
    tgd: NestedTgd,
    source_egds: Sequence[Egd],
    factory: FreshValueFactory | None = None,
) -> CanonicalInstances:
    """Build the *legal* canonical instances ``I_p^s`` and ``J_p^s`` (Definition 5.4).

    The canonical source instance is chased with the source egds (fresh
    constants are anonymous, so merges are allowed), and the equalities are
    replayed on the canonical target instance, including inside Skolem terms.
    """
    plain = canonical_instances(pattern, tgd, factory=factory)
    legal_source, equalities = chase_egds(
        plain.source, list(source_egds), allow_constant_merge=True
    )
    legal_target = rename_values_deep(plain.target, equalities)
    legal_assignments = {
        path: {var: equalities.get(value, value) for var, value in assignment.items()}
        for path, assignment in plain.assignments.items()
    }
    return CanonicalInstances(
        pattern=pattern,
        tgd=tgd,
        source=legal_source,
        target=legal_target,
        assignments=legal_assignments,
    )


__all__ = ["CanonicalInstances", "canonical_extension", "canonical_instances",
           "legal_canonical_instances", "rename_values_deep"]
