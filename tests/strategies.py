"""Hypothesis strategies for randomly generated nested tgds and instances.

The tgd generator builds well-formed part trees directly (respecting the
grammar's scoping rules: universal variables occur in their own part's body,
bodies use only universal variables in scope, heads may also use existential
variables in scope), so every generated tgd passes NestedTgd validation by
construction.  The instance generator draws facts over a small shared pool of
constants and nulls, so drawn instances overlap enough for homomorphisms to
exist (and fail) in interesting ways.
"""

from __future__ import annotations

import hypothesis.strategies as st

from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd, Part
from repro.logic.values import Constant, Null, Variable


SOURCE_RELATIONS = [("S", 2), ("T", 2), ("Q", 1)]
TARGET_RELATIONS = [("R", 2), ("P", 1), ("U", 3)]


@st.composite
def nested_tgds(draw, max_depth: int = 3, max_children: int = 2):
    """Generate a random well-formed :class:`NestedTgd`."""
    counter = {"var": 0}

    def fresh(prefix: str) -> Variable:
        counter["var"] += 1
        return Variable(f"{prefix}{counter['var']}")

    def build_part(depth: int, universal_scope: tuple, exist_scope: tuple) -> Part:
        own_universal = tuple(
            fresh("x") for __ in range(draw(st.integers(1, 2)))
        )
        body_scope = universal_scope + own_universal
        body_atoms = []
        # each own universal variable must occur in the part's own body
        remaining = list(own_universal)
        while remaining or not body_atoms:
            name, arity = draw(st.sampled_from(SOURCE_RELATIONS))
            args = []
            for __ in range(arity):
                if remaining:
                    args.append(remaining.pop())
                else:
                    args.append(draw(st.sampled_from(list(body_scope))))
            body_atoms.append(Atom(name, tuple(args)))

        own_exist = tuple(fresh("y") for __ in range(draw(st.integers(0, 1))))
        head_scope = body_scope + exist_scope + own_exist
        head_atoms = []
        for __ in range(draw(st.integers(0, 2))):
            name, arity = draw(st.sampled_from(TARGET_RELATIONS))
            args = tuple(
                draw(st.sampled_from(list(head_scope))) for __ in range(arity)
            )
            head_atoms.append(Atom(name, args))

        children = []
        if depth < max_depth:
            for __ in range(draw(st.integers(0, max_children))):
                children.append(
                    build_part(depth + 1, body_scope, exist_scope + own_exist)
                )
        if not head_atoms and not children:
            # avoid completely vacuous conclusions: add one head atom
            name, arity = draw(st.sampled_from(TARGET_RELATIONS))
            args = tuple(
                draw(st.sampled_from(list(head_scope))) for __ in range(arity)
            )
            head_atoms.append(Atom(name, args))
        return Part(
            universal_vars=own_universal,
            body=tuple(body_atoms),
            exist_vars=own_exist,
            head=tuple(head_atoms),
            children=tuple(children),
        )

    return NestedTgd(build_part(1, (), ()))


#: Relations used by :func:`instances` (reusing the target schema keeps drawn
#: instances homomorphism-comparable with chase results).
INSTANCE_RELATIONS = [("R", 2), ("P", 1), ("U", 3)]


@st.composite
def instances(
    draw,
    max_facts: int = 8,
    max_constants: int = 4,
    max_nulls: int = 4,
    min_facts: int = 0,
    relations: list[tuple[str, int]] = INSTANCE_RELATIONS,
):
    """Generate a random :class:`Instance` over a small value pool.

    Values are drawn from shared pools (``a0..``, ``_n0..``) so that two
    independently drawn instances share constants -- the interesting regime
    for differential homomorphism tests.  ``max_nulls=0`` yields ground
    instances.  Facts use the ``(name, arity)`` pairs of *relations*; a name
    may occur at several arities.
    """
    values = [Constant(f"a{i}") for i in range(max_constants)]
    values += [Null(f"n{i}") for i in range(max_nulls)]
    n_facts = draw(st.integers(min_facts, max_facts))
    facts = []
    for __ in range(n_facts):
        name, arity = draw(st.sampled_from(relations))
        args = tuple(draw(st.sampled_from(values)) for __ in range(arity))
        facts.append(Atom(name, args))
    return Instance(facts)


@st.composite
def symmetric_instances(draw, max_parts: int = 2, max_size: int = 7):
    """Generate an instance with large null automorphism orbits.

    Draws a disjoint union of 1..*max_parts* parts, each a symmetric cycle
    (``R`` both ways), a directed cycle, or a cloned star: one hub with
    copies of one random leaf template, as the cloning of sibling subtrees
    in a nested-tgd chase produces.  Optionally a constant pendant
    ``R(_n, a0)`` hangs off one null, breaking part of the symmetry.  The
    :func:`instances` draws are rarely symmetric; these are, by
    construction, so orbit pruning in the core engine does real work.
    """
    facts: list[Atom] = []
    counter = {"null": 0}

    def fresh() -> Null:
        counter["null"] += 1
        return Null(f"s{counter['null']}")

    for __ in range(draw(st.integers(1, max_parts))):
        kind = draw(st.sampled_from(["symmetric_cycle", "directed_cycle", "star"]))
        if kind == "star":
            hub = fresh() if draw(st.booleans()) else Constant("hub")
            template = draw(st.lists(
                st.sampled_from([("R", "hl"), ("R", "lh"), ("R", "lm"), ("P", "l"),
                                 ("P", "m"), ("U", "hlm"), ("U", "lml")]),
                min_size=1, max_size=3, unique=True,
            ))
            if not any(relation == "R" and "h" in roles for relation, roles in template):
                template.append(("R", "hl"))
            for __ in range(draw(st.integers(2, max(2, max_size // 2)))):
                clone = {"h": hub, "l": fresh(), "m": fresh()}
                facts.extend(
                    Atom(relation, tuple(clone[role] for role in roles))
                    for relation, roles in template
                )
        else:
            nulls = [fresh() for __ in range(draw(st.integers(3, max_size)))]
            for i, null in enumerate(nulls):
                successor = nulls[(i + 1) % len(nulls)]
                facts.append(Atom("R", (null, successor)))
                if kind == "symmetric_cycle":
                    facts.append(Atom("R", (successor, null)))
    if draw(st.booleans()):
        nulls = sorted({arg for fact in facts for arg in fact.nulls()}, key=repr)
        if nulls:
            facts.append(Atom("R", (draw(st.sampled_from(nulls)), Constant("a0"))))
    return Instance(facts)


@st.composite
def same_schema_tgds(draw, max_tgds: int = 3, max_body_atoms: int = 2):
    """Generate a small set of flat tgds over one shared schema.

    Unlike :func:`nested_tgds` (whose source/target schemas are disjoint by
    construction, so the chase trivially terminates in one round), these tgds
    read and write the *same* relations -- the regime where the termination
    hierarchy does real work.  Bodies draw only universal variables; heads mix
    universals with an optional existential, so some draws are recursive and
    value-inventing.
    """
    from repro.logic.tgds import STTgd

    universal = [Variable(f"x{i}") for i in range(3)]
    tgds = []
    for __ in range(draw(st.integers(1, max_tgds))):
        body = []
        for __ in range(draw(st.integers(1, max_body_atoms))):
            name, arity = draw(st.sampled_from(INSTANCE_RELATIONS))
            args = tuple(
                draw(st.sampled_from(universal)) for __ in range(arity)
            )
            body.append(Atom(name, args))
        in_scope = sorted(
            {arg for atom in body for arg in atom.args}, key=lambda v: v.name
        )
        head_pool = list(in_scope)
        if draw(st.booleans()):
            head_pool.append(Variable("w"))  # existential
        head = []
        for __ in range(draw(st.integers(1, 2))):
            name, arity = draw(st.sampled_from(INSTANCE_RELATIONS))
            args = tuple(
                draw(st.sampled_from(head_pool)) for __ in range(arity)
            )
            head.append(Atom(name, args))
        tgds.append(STTgd(body=tuple(body), head=tuple(head)))
    return tgds


@st.composite
def schema_mappings(draw, max_tgds: int = 3, max_body_atoms: int = 2):
    """Generate a small schema mapping: flat s-t tgds over disjoint schemas.

    Bodies draw from ``SOURCE_RELATIONS`` and heads from
    ``TARGET_RELATIONS`` (the disjoint split every s-t mapping has), so any
    drawn set is weakly acyclic by construction and the containment /
    optimization machinery runs fully certified on it -- the regime the
    differential suites need.  Bodies use a shared universal pool ``x0..x2``
    (so independently drawn mappings overlap); heads mix in-scope universals
    with an optional existential ``w``.
    """
    from repro.logic.tgds import STTgd

    universal = [Variable(f"x{i}") for i in range(3)]
    tgds = []
    for __ in range(draw(st.integers(1, max_tgds))):
        body = []
        for __ in range(draw(st.integers(1, max_body_atoms))):
            name, arity = draw(st.sampled_from(SOURCE_RELATIONS))
            args = tuple(
                draw(st.sampled_from(universal)) for __ in range(arity)
            )
            body.append(Atom(name, args))
        in_scope = sorted(
            {arg for atom in body for arg in atom.args}, key=lambda v: v.name
        )
        head_pool = list(in_scope)
        if draw(st.booleans()):
            head_pool.append(Variable("w"))  # existential
        head = []
        for __ in range(draw(st.integers(1, 2))):
            name, arity = draw(st.sampled_from(TARGET_RELATIONS))
            args = tuple(
                draw(st.sampled_from(head_pool)) for __ in range(arity)
            )
            head.append(Atom(name, args))
        tgds.append(STTgd(body=tuple(body), head=tuple(head)))
    return tgds


#: Function symbols of :func:`so_tgds` with their fixed arities (two unary
#: ones, so distinct terms over the same arguments occur).
SO_FUNCTIONS = (("f", 1), ("g", 2), ("h", 1))


@st.composite
def so_tgds(draw, max_clauses: int = 2, max_depth: int = 2):
    """Generate an SO tgd whose clauses use equalities and nested terms.

    Bodies draw source atoms over a shared universal pool ``x0..x2``; head
    and equality terms are variables in scope, constants ``c0`` / ``c1``, or
    ``f`` / ``g`` / ``h`` applied to such terms up to *max_depth* deep, so draws mix
    plain and nested terms, and equalities that hold on some matches (a
    variable against a variable, a term against a term) with ones that never
    hold over the term algebra (a constant against a function term).
    """
    from repro.logic.sotgd import SOClause, SOTgd
    from repro.logic.terms import FuncTerm

    universal = [Variable(f"x{i}") for i in range(3)]
    constants = [Constant("c0"), Constant("c1")]

    def term(scope: list, depth: int):
        kind = draw(st.integers(0, 1 + len(SO_FUNCTIONS) if depth < max_depth else 1))
        if kind == 0:
            return draw(st.sampled_from(scope))
        if kind == 1:
            return draw(st.sampled_from(scope + constants))
        function, arity = SO_FUNCTIONS[kind - 2]
        return FuncTerm(function, tuple(term(scope, depth + 1) for __ in range(arity)))

    clauses = []
    for __ in range(draw(st.integers(1, max_clauses))):
        body = []
        for __ in range(draw(st.integers(1, 2))):
            name, arity = draw(st.sampled_from(SOURCE_RELATIONS))
            args = tuple(draw(st.sampled_from(universal)) for __ in range(arity))
            body.append(Atom(name, args))
        scope = sorted({arg for atom in body for arg in atom.args}, key=lambda v: v.name)
        equalities = tuple(
            (term(scope, 0), term(scope, 0)) for __ in range(draw(st.integers(0, 2)))
        )
        head = []
        for __ in range(draw(st.integers(1, 2))):
            name, arity = draw(st.sampled_from(TARGET_RELATIONS))
            head.append(Atom(name, tuple(term(scope, 0) for __ in range(arity))))
        clauses.append(SOClause(body=tuple(body), equalities=equalities, head=tuple(head)))
    return SOTgd(functions=[name for name, __ in SO_FUNCTIONS], clauses=clauses)


@st.composite
def patterns(draw, tgd: NestedTgd | None = None, max_nodes: int = 6, k: int = 3):
    """Generate ``(tgd, pattern, k)`` with *pattern* a k-pattern of *tgd*.

    The pattern is grown by random single-leaf attachments from the root
    pattern -- exactly the producer edges of the DAG-incremental IMPLIES
    sweep -- rejecting any attachment that would exceed the clone bound, so
    every draw satisfies ``pattern.is_k_pattern(k)`` by construction.
    """
    from repro.core.patterns import Pattern

    if tgd is None:
        tgd = draw(nested_tgds())

    def to_pattern(node: list) -> Pattern:
        return Pattern(node[0], tuple(to_pattern(child) for child in node[1]))

    def preorder(node: list, out: list) -> list:
        out.append(node)
        for child in node[1]:
            preorder(child, out)
        return out

    root = [1, []]
    for __ in range(draw(st.integers(0, max_nodes - 1))):
        nodes = preorder(root, [])
        node = nodes[draw(st.integers(0, len(nodes) - 1))]
        choices = tgd.children_of(node[0])
        if not choices:
            continue
        part = draw(st.sampled_from(list(choices)))
        node[1].append([part, []])
        if not to_pattern(root).is_k_pattern(k):
            node[1].pop()
    return tgd, to_pattern(root), k


__all__ = [
    "nested_tgds",
    "instances",
    "patterns",
    "same_schema_tgds",
    "schema_mappings",
    "so_tgds",
    "SOURCE_RELATIONS",
    "TARGET_RELATIONS",
    "INSTANCE_RELATIONS",
]
