"""Naive reference implementations of matching, homomorphisms, and chases.

These are deliberately simple, obviously-correct versions of the engine's
performance-critical procedures:

- :func:`find_matches_naive` -- CQ matching without atom reordering and
  without the per-position index (scans every fact of each relation);
- :func:`find_homomorphism_naive` -- homomorphism search without f-block
  decomposition and without candidate seeding (backtracking over the raw
  fact list);
- :func:`core_naive` -- core computation that rebuilds a restricted
  immutable instance per candidate null and restarts the scan after every
  elimination (no block memoization, no forbidden-set targets);
- :func:`standard_chase_naive` -- the standard chase growing its target with
  one immutable ``Instance.union`` per fired trigger (full re-indexing each
  time: quadratic index maintenance);
- :func:`chase_egds_naive` -- the egd chase re-running full CQ matching over
  the whole instance on every fixpoint round (no delta restriction).

The two chase baselines are verbatim the pre-delta-engine implementations.
They serve two purposes: as *oracles* for differential property tests
(``tests/test_differential.py`` and ``tests/test_delta_engine.py`` check
that the optimized engine agrees with them on random inputs), and as the
baselines of the ablation/scaling benchmarks
(``benchmarks/bench_ablation_engine.py``, ``benchmarks/bench_scaling_chase.py``)
that quantify what the indexes, the block decomposition, and the
delta-driven fixpoints buy.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.errors import EgdViolation
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.values import Null, Variable, is_null


def find_matches_naive(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Mapping | None = None,
) -> Iterator[dict]:
    """All satisfying assignments, by brute-force backtracking in given order."""
    atoms = list(atoms)
    base: dict = dict(partial) if partial else {}

    def search(index: int, assignment: dict) -> Iterator[dict]:
        if index == len(atoms):
            yield dict(assignment)
            return
        atom = atoms[index]
        for fact in instance.facts_of(atom.relation):
            new_bindings: dict = {}
            ok = True
            for arg, value in zip(atom.args, fact.args):
                if isinstance(arg, Variable):
                    bound = assignment.get(arg, new_bindings.get(arg))
                    if bound is None:
                        new_bindings[arg] = value
                    elif bound != value:
                        ok = False
                        break
                elif arg != value:
                    ok = False
                    break
            if not ok or atom.arity != fact.arity:
                continue
            assignment.update(new_bindings)
            yield from search(index + 1, assignment)
            for var in new_bindings:
                del assignment[var]

    yield from search(0, base)


def find_homomorphism_naive(
    source: Instance, target: Instance, fixed: Mapping | None = None
) -> dict | None:
    """Homomorphism search without block decomposition or index seeding."""
    facts = sorted(source.facts, key=repr)
    mapping: dict = dict(fixed) if fixed else {}

    def search(index: int) -> dict | None:
        if index == len(facts):
            return dict(mapping)
        fact = facts[index]
        for candidate in target.facts_of(fact.relation):
            if fact.arity != candidate.arity:
                continue
            new_bindings: dict = {}
            ok = True
            for arg, value in zip(fact.args, candidate.args):
                if is_null(arg):
                    bound = mapping.get(arg, new_bindings.get(arg))
                    if bound is None:
                        new_bindings[arg] = value
                    elif bound != value:
                        ok = False
                        break
                elif arg != value:
                    ok = False
                    break
            if not ok:
                continue
            mapping.update(new_bindings)
            result = search(index + 1)
            if result is not None:
                return result
            for null in new_bindings:
                del mapping[null]
        return None

    return search(0)


def core_naive(instance: Instance) -> Instance:
    """Core computation by the seed elimination loop (pre-kernel baseline).

    Semantically the same stopping condition as
    :func:`repro.engine.core_instance.core` -- null ``x`` is eliminable when
    its f-block maps into the instance minus the facts containing ``x`` --
    but implemented the way the seed did: a *restricted immutable instance*
    is rebuilt per candidate null (full re-indexing),
    :func:`find_homomorphism_naive` searches it from the block's facts, and
    each elimination restarts the whole scan.
    Kept as the oracle for differential tests (cores agree up to isomorphism)
    and as the baseline of ``benchmarks/bench_scaling_hom.py``.
    """
    from repro.engine.gaifman import fact_blocks

    def try_eliminate(current: Instance) -> Instance | None:
        for block in fact_blocks(current):
            block_facts = list(block)
            block_nulls = sorted(
                {arg for fact in block_facts for arg in fact.args if is_null(arg)},
                key=repr,
            )
            for null in block_nulls:
                target = current.restrict(lambda fact: null not in fact.args)
                mapping = find_homomorphism_naive(Instance(block_facts), target)
                if mapping is not None:
                    return current.map_values(mapping)
        return None

    current = instance
    while True:
        folded = try_eliminate(current)
        if folded is None:
            return current
        current = folded


def standard_chase_naive(source: Instance, tgds: Sequence, max_rounds: int = 100) -> Instance:
    """The standard chase with immutable-union target growth (seed baseline).

    Semantically identical to :func:`repro.engine.standard_chase.standard_chase`
    (same trigger order, same null names), but every fired trigger rebuilds
    the target instance's indexes from scratch via ``Instance.union``.
    """
    from repro.engine.matching import find_matches
    from repro.engine.standard_chase import _conclusion_satisfied

    target = Instance()
    counter = [0]
    for tgd in tgds:
        for assignment in find_matches(tgd.body, source):
            if _conclusion_satisfied(tgd.head, assignment, target):
                continue
            instantiation = dict(assignment)
            for var in tgd.existential_variables:
                counter[0] += 1
                instantiation[var] = Null(f"v{counter[0]}")
            target = target.union(
                atom.substitute(instantiation) for atom in tgd.head
            )
    return target


def chase_egds_naive(
    instance: Instance,
    egds: Sequence,
    *,
    allow_constant_merge: bool = False,
) -> tuple[Instance, dict]:
    """The egd chase with full re-matching every round (seed baseline).

    Semantically identical to :func:`repro.engine.egd_chase.chase_egds`, but
    each fixpoint round re-runs CQ matching over the whole instance instead
    of only against the facts rewritten in the previous round.
    """
    from repro.engine.egd_chase import UnionFind
    from repro.engine.matching import find_matches

    union_find = UnionFind()
    current = instance
    changed = True
    while changed:
        changed = False
        for egd in egds:
            for assignment in find_matches(egd.body, current):
                left = assignment[egd.left]
                right = assignment[egd.right]
                if left == right:
                    continue
                if not allow_constant_merge and not is_null(left) and not is_null(right):
                    raise EgdViolation(left, right)
                union_find.union(left, right)
                changed = True
        if changed:
            mapping = union_find.as_mapping(current.active_domain())
            current = current.map_values(mapping)
    equalities = union_find.as_mapping(instance.active_domain())
    return current, equalities


__all__ = [
    "find_matches_naive",
    "find_homomorphism_naive",
    "core_naive",
    "standard_chase_naive",
    "chase_egds_naive",
]
