"""The chase for nested tgds: recursive triggerings and chase forests.

Section 3 of the paper describes the oblivious chase of a source instance I
with a nested tgd as a sequence of *recursive triggerings*.  A triggering t
is associated with a part ``sigma_i : forall x (phi(x, x0) -> psi(x, x0))``
and an assignment for ``x``; unless ``sigma_i`` is the top-level part, t has
a unique parent triggering binding the inherited variables ``x0``.  The
result of t instantiates the (Skolemized) conclusion atoms of ``sigma_i``,
with ground Skolem terms acting as nulls; the child parts are then triggered
recursively.

This module materializes the *chase forest*: one chase tree per root
triggering.  Two facts produced in distinct chase trees share no nulls --
one of the two key underpinnings of the paper's decidability results.

The forest serves realizability, provenance and rendering; it is not an
exchange path.  :func:`repro.engine.chase.chase` runs the Skolemization
instead, whose facts equal the forest's, labels included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro import perf
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd
from repro.logic.terms import rename_term_functions
from repro.engine.builder import InstanceBuilder
from repro.engine.matching import find_matches


@dataclass
class Triggering:
    """One triggering of a nested-tgd part during the chase."""

    part_id: int
    assignment: dict
    parent: "Triggering | None" = None
    children: list["Triggering"] = field(default_factory=list)
    facts: tuple[Atom, ...] = ()

    def ancestors(self) -> Iterator["Triggering"]:
        """Yield the ancestor triggerings, innermost first."""
        current = self.parent
        while current is not None:
            yield current
            current = current.parent

    def recursive_triggerings(self) -> Iterator["Triggering"]:
        """Yield all triggerings recursively called from this one (``rec(t)``)."""
        for child in self.children:
            yield child
            yield from child.recursive_triggerings()

    def subtree_facts(self) -> frozenset[Atom]:
        """All facts produced by this triggering and its recursive triggerings."""
        facts = set(self.facts)
        for triggering in self.recursive_triggerings():
            facts.update(triggering.facts)
        return frozenset(facts)


@dataclass
class ChaseTree:
    """A chase tree: one root triggering and everything recursively triggered."""

    tgd: NestedTgd
    root: Triggering

    def triggerings(self) -> Iterator[Triggering]:
        """Yield all triggerings of the tree, preorder."""
        yield self.root
        yield from self.root.recursive_triggerings()

    def facts(self) -> frozenset[Atom]:
        return self.root.subtree_facts()

    def pattern(self) -> "Pattern":
        """The pattern of this chase tree (Definition 3.2): part ids only."""
        from repro.core.patterns import Pattern

        def build(triggering: Triggering) -> Pattern:
            return Pattern(triggering.part_id, tuple(build(c) for c in triggering.children))

        return build(self.root)


@dataclass
class ChaseForest:
    """The chase forest of a source instance with a nested tgd."""

    tgd: NestedTgd
    source: Instance
    trees: tuple[ChaseTree, ...]

    @property
    def instance(self) -> Instance:
        """The chased target instance (union of all trees' facts)."""
        builder = InstanceBuilder()
        for tree in self.trees:
            builder.add_all(tree.facts())
        return builder.freeze()

    def patterns(self) -> list["Pattern"]:
        """The patterns of all chase trees."""
        return [tree.pattern() for tree in self.trees]

    def provenance(self) -> dict[Atom, list[Triggering]]:
        """Map each produced fact to the triggerings that produced it.

        A fact can have several producing triggerings (different assignments
        may instantiate a head atom identically); all are recorded.
        """
        result: dict[Atom, list[Triggering]] = {}
        for tree in self.trees:
            for triggering in tree.triggerings():
                for fact in triggering.facts:
                    result.setdefault(fact, []).append(triggering)
        return result


def chase_nested(
    source: Instance, tgd: NestedTgd, function_prefix: str = ""
) -> ChaseForest:
    """Chase *source* with a nested tgd; return the materialized chase forest.

    *function_prefix* is prepended to Skolem function names so that chasing
    with several nested tgds produces disjoint nulls (triggerings in distinct
    chase trees -- and a fortiori distinct tgds -- share no nulls).

    The body matches of a child part depend only on the inherited bindings of
    the variables actually occurring in that body, so they are memoized per
    (part, relevant bindings): sibling subtrees triggered under identical
    relevant bindings share one CQ-matching run instead of re-scanning the
    source per parent triggering (the source never changes during the chase,
    which is what makes the sharing sound).

        >>> from repro.logic.parser import parse_instance, parse_nested_tgd
        >>> s = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
        >>> forest = chase_nested(parse_instance("S(a,b)"), s)
        >>> len(forest.instance)   # root and child produce the same fact R(y, b)
        1
    """
    skolemized_heads: dict[int, tuple[Atom, ...]] = {}
    body_vars: dict[int, frozenset] = {}
    for pid in tgd.part_ids():
        head = tgd.skolemized_head(pid)
        if function_prefix:
            renaming = {
                term.function: f"{function_prefix}{term.function}"
                for var, term in tgd._skolem_functions.items()
            }
            head = tuple(
                Atom(a.relation, tuple(rename_term_functions(t, renaming) for t in a.args))
                for a in head
            )
        skolemized_heads[pid] = head
        body_vars[pid] = frozenset(
            var for atom in tgd.part(pid).body for var in atom.variable_set()
        )

    match_memo: dict[tuple, list[dict]] = {}

    def child_matches(child_pid: int, assignment: dict) -> list[dict]:
        """Matches of the child part's body under *assignment*, shared via memo."""
        relevant = tuple(
            (var, assignment[var]) for var in body_vars[child_pid] if var in assignment
        )
        key = (child_pid, frozenset(relevant))
        cached = match_memo.get(key)
        if cached is None:
            cached = list(
                find_matches(tgd.part(child_pid).body, source, partial=dict(relevant))
            )
            match_memo[key] = cached
        else:
            perf.incr("match.memo_hits")
        return cached

    def trigger(pid: int, assignment: dict, parent: Triggering | None) -> Triggering:
        perf.incr("chase.triggers")
        facts = tuple(atom.substitute(assignment) for atom in skolemized_heads[pid])
        triggering = Triggering(
            part_id=pid, assignment=dict(assignment), parent=parent, facts=facts
        )
        for child_pid in tgd.children_of(pid):
            for match in child_matches(child_pid, assignment):
                child_assignment = dict(assignment)
                child_assignment.update(match)
                triggering.children.append(
                    trigger(child_pid, child_assignment, triggering)
                )
        return triggering

    trees: list[ChaseTree] = []
    for assignment in find_matches(tgd.part(1).body, source):
        root = trigger(1, assignment, None)
        trees.append(ChaseTree(tgd=tgd, root=root))
    return ChaseForest(tgd=tgd, source=source, trees=tuple(trees))


__all__ = ["Triggering", "ChaseTree", "ChaseForest", "chase_nested"]
