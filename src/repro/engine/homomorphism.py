"""Homomorphisms between target instances.

A homomorphism ``h : J1 -> J2`` maps values to values such that h is the
identity on constants and every fact of J1 is mapped to a fact of J2
(Section 2 of the paper).  Only nulls need to be assigned, so the search
decomposes along the f-blocks of J1: nulls in different f-blocks never
interact, and ground facts of J1 must simply occur in J2.

The search itself is :func:`repro.engine.hom_kernel.block_homomorphism`,
the Atom seeder of the one homomorphism kernel (index-seeded candidates,
AC-3 domain pruning, most-constrained-null ordering), which the id-space
core engine shares through its value-id seeder; this module keeps the
public API.  The unindexed reference search is
:func:`repro.engine.naive.find_homomorphism_naive`.
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.hom_kernel import block_homomorphism
from repro.logic.instances import Instance
from repro.logic.values import is_null


def find_homomorphism(
    source: Instance, target: Instance, fixed: Mapping | None = None
) -> dict | None:
    """Find a homomorphism from *source* to *target*, or return None.

    The returned dict maps every null of *source* to a value of *target*
    (constants are implicitly fixed and not included).  *fixed* pre-binds
    some nulls, which is how the core computation searches for folding
    endomorphisms.

        >>> from repro.logic.parser import parse_instance
        >>> J1 = parse_instance("R(a, _x)")
        >>> J2 = parse_instance("R(a, b)")
        >>> find_homomorphism(J1, J2) is not None
        True
        >>> find_homomorphism(J2, J1) is None   # R(a, b) does not occur in J1
        True
    """
    fixed = dict(fixed) if fixed else {}
    mapping = block_homomorphism(source, target, fixed)
    if mapping is None:
        return None
    mapping.update(fixed)
    return mapping


def has_homomorphism(source: Instance, target: Instance) -> bool:
    """Return True if ``source -> target`` (a homomorphism exists)."""
    return find_homomorphism(source, target) is not None


def homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    """Return True if homomorphisms exist in both directions (``J1 <-> J2``)."""
    return has_homomorphism(left, right) and has_homomorphism(right, left)


def is_homomorphism(mapping: Mapping, source: Instance, target: Instance) -> bool:
    """Verify that *mapping* is a homomorphism from *source* to *target*."""
    for key in mapping:
        if not is_null(key):
            return False
    return all(fact.rename_values(dict(mapping)) in target.facts for fact in source)


__all__ = [
    "find_homomorphism",
    "has_homomorphism",
    "homomorphically_equivalent",
    "is_homomorphism",
]
