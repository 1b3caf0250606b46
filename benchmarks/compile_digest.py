"""COMPILE-DIGEST -- the compiled programs, their SQL and their termination verdicts.

A change meant to keep every clause compiler's output is checked by running
this on the parent commit and on the change and comparing the files::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/compile_digest.py --out PATH

It writes, one block per dependency set:

- for every ``benchmarks/e2e/ops.py`` mapping and every ``examples/``
  mapping: the ``compile_clause_program`` clauses, the ``chase`` facts over a
  small source, and (when the set is certified to terminate) the
  ``fixpoint_chase`` facts it derives, with s-t Skolem functions written
  ``st{index}_{var}`` whatever the engine calls them;
- for the scenario mappings and the mappings of ``tests/test_sql_export.py``:
  ``compile_mapping_to_sql`` and the SQL backend's ``insert_statements()``;
- for every ``benchmarks/lint_selfcheck.py`` corpus set: the class,
  ``depth_bound`` and ``guarantees_termination`` of ``classify_termination``.

Errors are written as ``error: <message>``, so a refused input is compared
too.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import sys
from pathlib import Path

from repro.analysis.acyclicity import classify_termination
from repro.engine.chase import chase, compile_clause_program
from repro.engine.fixpoint_chase import fixpoint_chase
from repro.engine.sql_backend import compile_clauses
from repro.errors import ReproError
from repro.export.sql import compile_mapping_to_sql
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.terms import rename_term_functions
from repro.logic.tgds import STTgd
from repro.logic.values import Constant

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "e2e"), str(HERE)]
lint_selfcheck = importlib.import_module("lint_selfcheck")
ops = importlib.import_module("ops")


def small_source(deps: list) -> Instance:
    """Every fact over two constants for the relations the tgd bodies read."""
    arities: dict[str, int] = {}
    for clause in compile_clause_program(deps):
        for atom in clause.body:
            arities[atom.relation] = atom.arity
    pool = (Constant("a"), Constant("b"))
    return Instance(
        Atom(relation, args)
        for relation, arity in sorted(arities.items())
        for args in itertools.product(pool, repeat=arity)
    )


def neutral_st_names(deps: list) -> dict[str, str]:
    """Both engines' names of each s-t Skolem function -> ``st{index}_{var}``."""
    renaming: dict[str, str] = {}
    st_indexes = [index for index, dep in enumerate(deps) if isinstance(dep, STTgd)]
    for batch, index in enumerate(st_indexes):
        for var in deps[index].existential_variables:
            renaming[f"t{batch}_{var.name}"] = f"st{index}_{var.name}"
            renaming[f"d{index}_f_{var.name}"] = f"st{index}_{var.name}"
    return renaming


def program_lines(deps: list) -> list[str]:
    source = small_source(deps)
    lines = [repr(clause) for clause in compile_clause_program(deps)]
    lines += sorted(repr(fact) for fact in chase(source, deps))
    if not classify_termination(deps).guarantees_termination:
        return lines + ["fixpoint: not certified"]
    renaming = neutral_st_names(deps)
    derived = set(fixpoint_chase(source, deps).instance) - set(source)
    return lines + sorted(
        "fixpoint " + repr(Atom(fact.relation, tuple(
            rename_term_functions(arg, renaming) for arg in fact.args)))
        for fact in derived
    )


def sql_lines(deps: list) -> list[str]:
    lines = [f"export {statement}" for statement in compile_mapping_to_sql(deps)]
    return lines + [
        f"backend {statement}"
        for compiled in compile_clauses(compile_clause_program(deps))
        for statement in compiled.insert_statements()
    ]


def guarded(compute, *args) -> list[str]:
    try:
        return compute(*args)
    except ReproError as exc:
        return [f"error: {exc}"]


def digest() -> list[str]:
    corpora = lint_selfcheck.corpora()
    lines: list[str] = []
    for name in sorted(ops.MAPPINGS):
        deps = ops.parse(ops.MAPPINGS[name])
        lines.append(f"== mapping {name}")
        lines += guarded(program_lines, deps)
        if not name.startswith(("ex48", "intro")):
            lines += sorted(repr(fact) for fact in chase(ops.source(name, 50), deps))
            lines += guarded(sql_lines, deps)
    for name in sorted(corpora):
        if name.startswith("example:"):
            deps = corpora[name]
            lines.append(f"== {name}")
            lines += guarded(program_lines, deps)
    sql_cases = lint_selfcheck._literal_dependencies(
        HERE.parent / "tests" / "test_sql_export.py"
    )
    for index, dep in enumerate(sql_cases):
        lines.append(f"== test_sql_export #{index}: {dep}")
        lines += guarded(sql_lines, [dep])
    for name in sorted(corpora):
        verdict = classify_termination(corpora[name])
        lines.append(
            f"== termination {name}: {verdict.cls.name} depth_bound={verdict.depth_bound} "
            f"guarantees_termination={verdict.guarantees_termination}"
        )
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="PATH", required=True, help="where to write the digest")
    args = parser.parse_args(argv)
    lines = digest()
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"compile digest: {len(lines)} lines -> {args.out}")


if __name__ == "__main__":
    main()
