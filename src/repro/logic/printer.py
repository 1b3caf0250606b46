"""Pretty-printers for dependencies -- the inverse of :mod:`repro.logic.parser`.

Each formatter produces text that parses back to an equal object, which the
test suite verifies as a round-trip property.  :func:`dependency_label` is
the short name reports and witnesses give a dependency of a list.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.logic.atoms import Atom
from repro.logic.terms import FuncTerm
from repro.logic.values import Variable


def format_term(term) -> str:
    """Format a variable, constant, or functional term."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, FuncTerm):
        inner = ", ".join(format_term(a) for a in term.args)
        return f"{term.function}({inner})"
    return repr(term)


def format_atom(atom: Atom) -> str:
    """Format a single atom, e.g. ``S(x, y)``."""
    inner = ", ".join(format_term(a) for a in atom.args)
    return f"{atom.relation}({inner})"


def format_conjunction(atoms) -> str:
    """Format atoms joined with ``&``."""
    return " & ".join(format_atom(a) for a in atoms)


def rendered(dependency: object, render: Callable[[Any], str]) -> str:
    """``render(dependency)``, computed once and kept on the immutable object.

    Dependency texts key the analysis memo, the IMPLIES chase cache and the
    persistent verdicts, so one analysis asks for the same text many times.
    """
    text = dependency.__dict__.get("_text")
    if text is None:
        text = render(dependency)
        object.__setattr__(dependency, "_text", text)
    return text


def format_tgd(tgd) -> str:
    """Format an :class:`~repro.logic.tgds.STTgd`."""
    body = format_conjunction(tgd.body)
    head = format_conjunction(tgd.head)
    existential = tgd.existential_variables
    if existential:
        names = ", ".join(v.name for v in existential)
        return f"{body} -> exists {names} . ({head})"
    return f"{body} -> {head}"


def format_nested_tgd(tgd) -> str:
    """Format a :class:`~repro.logic.nested.NestedTgd` with nested parentheses."""

    def format_part(pid: int) -> str:
        part = tgd.part(pid)
        body = format_conjunction(part.body)
        pieces = [format_atom(a) for a in part.head]
        pieces.extend(f"({format_part(child)})" for child in tgd.children_of(pid))
        conclusion = " & ".join(pieces) if pieces else "T()"
        if len(pieces) > 1:
            conclusion = f"({conclusion})"
        if part.exist_vars:
            names = ", ".join(v.name for v in part.exist_vars)
            if len(pieces) == 1:
                conclusion = f"({conclusion})"
            return f"{body} -> exists {names} . {conclusion}"
        return f"{body} -> {conclusion}"

    return format_part(1)


def format_so_tgd(so_tgd) -> str:
    """Format an :class:`~repro.logic.sotgd.SOTgd` with ``;``-separated clauses."""
    clause_texts: list[str] = []
    for clause in so_tgd.clauses:
        body_parts = [format_atom(a) for a in clause.body]
        body_parts.extend(
            f"{format_term(left)} = {format_term(right)}" for left, right in clause.equalities
        )
        head = format_conjunction(clause.head)
        clause_texts.append(f"{' & '.join(body_parts)} -> {head}")
    return " ; ".join(clause_texts)


def format_egd(egd) -> str:
    """Format an :class:`~repro.logic.egds.Egd`."""
    body = format_conjunction(egd.body)
    return f"{body} -> {egd.left.name} = {egd.right.name}"


def format_instance(instance) -> str:
    """Format an :class:`~repro.logic.instances.Instance` as comma-separated facts."""
    from repro.logic.values import Constant, Null

    def format_value(value) -> str:
        if isinstance(value, Constant):
            return str(value.name)
        if isinstance(value, Null):
            return f"_{value.name}"
        return repr(value)

    parts = []
    for fact in sorted(instance.facts, key=repr):
        inner = ", ".join(format_value(a) for a in fact.args)
        parts.append(f"{fact.relation}({inner})")
    return ", ".join(parts)


def dependency_label(dep: object, index: int) -> str:
    """The dependency's ``name``, else ``#i`` for its 0-based list *index*."""
    name = getattr(dep, "name", None)
    return name if name else f"#{index + 1}"


__all__ = [
    "dependency_label",
    "format_term",
    "format_atom",
    "format_conjunction",
    "format_tgd",
    "format_nested_tgd",
    "format_so_tgd",
    "format_egd",
    "format_instance",
    "rendered",
]
