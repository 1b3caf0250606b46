"""The oblivious chase: one compiled Skolem clause program, evaluated once.

``chase(I, M)`` produces the canonical universal solution of Section 2: for
every dependency and every assignment making its body true in the source
instance, the head atoms are added with existential variables instantiated by
fresh nulls.  We realize "fresh null per trigger" with ground Skolem terms:
the null for existential variable ``y`` under body match ``a`` is the ground
term ``f_y(a)``, which both deduplicates repeated triggers and records
provenance (Section 3: "Skolem terms are considered as null labels").

Every formalism is chased as one Skolemized clause program
(:func:`compile_clause_program`; a nested tgd is its Skolemized plain SO
tgd, Section 2) evaluated in one pass (:func:`run_clause_program`).  SO tgd
functions are interpreted over the term algebra: an equality ``t = t'``
holds iff the two ground terms are identical -- the canonical-universal-
solution chase of Fagin et al. (reference [8] of the paper).

On the paper's shapes the single pass is bound by building values, not by
joins, so each clause is compiled once into a head emitter
(:func:`clause_emitter`): every head slot -- a body variable, a constant or
a Skolem term -- is read from the match with ``itemgetter``, and every run
keeps one ``(function, args) -> FuncTerm`` cache, so each distinct Skolem
term of the run is built once.  :func:`run_clause_program`,
:func:`run_clause_program_delta` and the fixpoint chase all emit through
these emitters and add ``chase.triggers`` once per run rather than once
per trigger.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Sequence

from repro import perf
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.sotgd import SOClause, SOTgd
from repro.logic.terms import FuncTerm
from repro.logic.tgds import STTgd
from repro.logic.values import Variable
from repro.engine.matching import find_matches


def _freeze(facts: list[Atom]) -> Instance:
    """The chase result: *facts* deduplicated, indexed on its first lookup.

    The facts go through a ``set`` first, not straight into the
    ``frozenset``: a set built by inserting the emitted facts one by one has
    the same hash table, and so the same iteration order, as the fact set
    an incremental builder would have frozen.  The core engines pick which
    of several isomorphic blocks survive, and in what order they search,
    from that order, so the cores (and their ``hom.*`` counts) stay what
    they were; building from the list directly changes them.
    """
    instance = Instance(set(facts))
    perf.incr("chase.facts", len(instance))
    return instance


def chase_st_tgds(instance: Instance, tgds: Sequence[STTgd]) -> Instance:
    """Chase *instance* with a finite set of s-t tgds; return the target instance.

        >>> from repro.logic.parser import parse_instance, parse_tgd
        >>> I = parse_instance("S(a, b)")
        >>> J = chase_st_tgds(I, [parse_tgd("S(x,y) -> R(x,z)")])
        >>> len(J)
        1
    """
    return chase(instance, list(tgds))


def chase_so_tgd(instance: Instance, so_tgd: SOTgd) -> Instance:
    """Chase *instance* with an SO tgd; return the canonical universal solution.

    Equalities between terms are evaluated over the term algebra (two ground
    Skolem terms are equal iff identical); this matches the chase of [8] that
    produces canonical universal solutions for SO tgds.  The function
    symbols keep their names (no renaming apart).
    """
    return _freeze(run_clause_program(so_tgd.clauses, instance))


def chase(instance: Instance, dependencies) -> Instance:
    """Chase *instance* with dependencies of any supported formalism.

    *dependencies* may be a single dependency or an iterable mixing
    :class:`STTgd`, :class:`~repro.logic.nested.NestedTgd`, and
    :class:`SOTgd`.  All of them are compiled by
    :func:`compile_clause_program` and evaluated in one pass; distinct
    dependencies never share nulls (their Skolem functions are renamed
    apart).
    """
    return _freeze(run_clause_program(compile_clause_program(dependencies), instance))


def compile_clause_program(dependencies) -> tuple:
    """Compile a dependency list into the Skolemized clause program of ``chase``.

    The returned clauses are :class:`~repro.logic.sotgd.SOClause` objects;
    evaluating them once over a source instance (:func:`run_clause_program`)
    *is* the chase.  They are :func:`dependency_clauses` flattened.  The
    tuple, columnar and SQL backends, the fixpoint chase, the termination
    analyses, the SQL export and the incremental IMPLIES sweep all consume
    this one program, which is what lets the sweep extend a cached chase
    result by a source delta and still agree, fact for fact and label for
    label, with a from-scratch ``chase`` of the extended source.
    """
    return tuple(clause for _, clauses in dependency_clauses(dependencies) for clause in clauses)


def dependency_clauses(dependencies) -> list[tuple[int, tuple]]:
    """The clause program of :func:`compile_clause_program`, grouped by dependency.

    Returns ``(index, clauses)`` pairs in program order, *index* being the
    dependency's position in *dependencies*.  Skolem functions are named
    apart per dependency: nested tgds are skolemized under ``d{index}_``
    (the fact set of the Section 3 recursive-triggering procedure equals
    its Skolemization's), SO tgds are renamed apart under ``d{index}_``,
    and s-t tgds are batched last and named ``t{batch_index}_{var}``.

        >>> from repro.logic.parser import parse_so_tgd, parse_tgd
        >>> program = dependency_clauses(
        ...     [parse_tgd("S(x) -> exists y . R(x,y)"), parse_so_tgd("S(x) -> T(f(x))")])
        >>> [(index, [clause.head for clause in clauses]) for index, clauses in program]
        [(1, [(T(d1_f(?x)),)]), (0, [(R(?x, t0_y(?x)),)])]
    """
    from repro.logic.nested import NestedTgd

    if isinstance(dependencies, (STTgd, NestedTgd, SOTgd)):
        dependencies = [dependencies]
    program: list[tuple[int, tuple]] = []
    st_batch: list[tuple[int, STTgd]] = []
    for index, dep in enumerate(dependencies):
        if isinstance(dep, STTgd):
            st_batch.append((index, dep))
        elif isinstance(dep, NestedTgd):
            program.append((index, dep.skolemize(function_prefix=f"d{index}_").clauses))
        elif isinstance(dep, SOTgd):
            program.append((index, _memoized_clauses(dep, f"d{index}_", _renamed_clauses)))
        else:
            raise ChaseError(f"cannot chase with dependency {dep!r}")
    for batch_index, (index, tgd) in enumerate(st_batch):
        program.append((index, _memoized_clauses(tgd, f"t{batch_index}_", _skolem_clauses)))
    return program


def _skolem_clauses(tgd: STTgd, prefix: str) -> tuple:
    """The one clause of an s-t tgd, its Skolem functions named ``{prefix}{var}``."""
    head = tgd.skolem_head(function_namer=lambda var: f"{prefix}{var.name}")
    return (SOClause(body=tgd.body, equalities=(), head=head),)


def _renamed_clauses(so_tgd: SOTgd, prefix: str) -> tuple:
    """The clauses of an SO tgd, its function symbols prefixed with *prefix*."""
    return _rename_functions_apart(so_tgd, prefix).clauses


def _memoized_clauses(dependency, prefix: str, build: Callable[[object, str], tuple]) -> tuple:
    """``build(dependency, prefix)``, the dependency's clauses under a Skolem
    *prefix*, built once.

    Kept on the dependency object outside its fields, as
    :meth:`~repro.logic.nested.NestedTgd.skolemize` keeps its result, so a
    later ``chase`` over the same s-t or SO tgd reuses the clauses and their
    compiled emitters (:func:`clause_emitter`).
    """
    memo = dependency.__dict__.get("_clause_memo")
    if memo is None:
        memo = {}
        object.__setattr__(dependency, "_clause_memo", memo)
    clauses = memo.get(prefix)
    if clauses is None:
        clauses = memo[prefix] = build(dependency, prefix)
    return clauses


def _getter(slots: tuple) -> Callable[[dict], tuple]:
    """A function from a match dict to the tuple of its values at *slots*."""
    if len(slots) >= 2:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda match: (match[slot],)
    return lambda match: ()


def _skolem_plan(terms, plan: dict, constants: dict) -> None:
    """Add the function subterms of *terms* to *plan*, innermost first.

    *plan* maps each function term ``f(t1, ..., tk)`` to ``(f, getter)``,
    *getter* reading the values of ``t1 ... tk`` from a match dict that
    already holds every inner term's value under the term itself.  The
    constants and nulls met on the way go to *constants*, mapped to
    themselves.
    """
    for term in terms:
        if isinstance(term, FuncTerm):
            if term not in plan:
                _skolem_plan(term.args, plan, constants)
                plan[term] = (term.function, _getter(term.args))
        elif not isinstance(term, Variable):
            constants[term] = term


def _compile_emitter(clause) -> Callable[[Iterable[dict], dict, list], int]:
    """Compile *clause* once into a function that emits its head facts.

    The emitter ``emit(matches, skolems, out)`` extends each match dict in
    place with the value of every function term of the clause, stored under
    the term itself, and with every constant under itself; then each head
    slot -- a body variable, a constant or a function term -- is one key of
    that dict, and a head atom's arguments are one ``itemgetter`` call.
    *skolems* is the run's ``(function, args) -> FuncTerm`` cache, so each
    distinct Skolem term of a run is built once.  Equalities are checked
    first, over the terms they need alone; the emitter appends the facts of
    every match that satisfies them to *out* and returns how many did (the
    triggers).  The matchers yield a fresh dict per match, so the in-place
    extension is never seen by a caller.
    """
    equalities = clause.equalities
    plan: dict = {}
    constants: dict = {}
    _skolem_plan((term for pair in equalities for term in pair), plan, constants)
    eq_count = len(plan)
    _skolem_plan((term for atom in clause.head for term in atom.args), plan, constants)
    steps = tuple((term, function, args_of) for term, (function, args_of) in plan.items())
    eq_steps, head_steps = steps[:eq_count], steps[eq_count:]
    atoms = tuple((atom.relation, _getter(atom.args)) for atom in clause.head)

    def emit(matches: Iterable[dict], skolems: dict, out: list) -> int:
        append = out.append
        skolem = skolems.get
        triggers = 0
        for match in matches:
            if constants:
                match.update(constants)
            for term, function, args_of in eq_steps:
                key = (function, args_of(match))
                value = skolem(key)
                if value is None:
                    value = skolems[key] = FuncTerm(*key)
                match[term] = value
            if equalities and any(match[left] is not match[right] for left, right in equalities):
                continue
            triggers += 1
            for term, function, args_of in head_steps:
                key = (function, args_of(match))
                value = skolem(key)
                if value is None:
                    value = skolems[key] = FuncTerm(*key)
                match[term] = value
            for relation, args_of in atoms:
                append(Atom(relation, args_of(match)))
        return triggers

    return emit


def clause_emitter(clause) -> Callable[[Iterable[dict], dict, list], int]:
    """The compiled emitter of *clause* (:func:`_compile_emitter`), built once.

    The emitter is kept on the clause object outside its dataclass fields,
    so it changes neither the clause's equality nor its hash, and
    :class:`~repro.logic.sotgd.SOClause` leaves it out of its pickled state.
    """
    emitter = clause.__dict__.get("_emitter")
    if emitter is None:
        emitter = _compile_emitter(clause)
        object.__setattr__(clause, "_emitter", emitter)
    return emitter


def run_clause_program(clauses, source) -> list[Atom]:
    """Emit the chase facts of a compiled clause program over *source*.

    *source* may be an :class:`Instance` or an
    :class:`~repro.engine.builder.InstanceBuilder` (the matching engine is
    duck-typed over both).  Returns the emitted facts in emission order,
    possibly with duplicates, which callers drop by building an
    :class:`Instance` from them.
    """
    out: list[Atom] = []
    skolems: dict = {}
    triggers = 0
    for clause in clauses:
        triggers += clause_emitter(clause)(find_matches(clause.body, source), skolems, out)
    if triggers:
        perf.incr("chase.triggers", triggers)
    return out


def run_clause_program_delta(clauses, source, delta) -> list[Atom]:
    """Emit the chase facts whose body match touches at least one *delta* fact.

    *source* must already contain the delta.  For single-pass (source-to-
    target) programs, ``chase(I ∪ Δ) = chase(I) ∪ run_clause_program_delta``:
    a body match over ``I ∪ Δ`` either avoids Δ entirely (so its emission is
    already in ``chase(I)``) or touches Δ (and is found here, seeded atom by
    atom through :func:`repro.engine.matching.find_delta_matches`).
    """
    from repro.engine.matching import find_delta_matches

    out: list[Atom] = []
    skolems: dict = {}
    triggers = 0
    for clause in clauses:
        triggers += clause_emitter(clause)(
            find_delta_matches(clause.body, source, delta), skolems, out
        )
    if triggers:
        perf.incr("chase.triggers", triggers)
    return out


def _rename_functions_apart(so_tgd: SOTgd, prefix: str) -> SOTgd:
    """Prefix all function symbols of *so_tgd* so nulls do not collide across tgds."""
    from repro.logic.sotgd import SOClause
    from repro.logic.terms import rename_term_functions

    renaming = {f: f"{prefix}{f}" for f in so_tgd.functions}
    clauses = []
    for clause in so_tgd.clauses:
        head = tuple(
            Atom(a.relation, tuple(rename_term_functions(t, renaming) for t in a.args))
            for a in clause.head
        )
        equalities = tuple(
            (rename_term_functions(left, renaming), rename_term_functions(right, renaming))
            for left, right in clause.equalities
        )
        clauses.append(SOClause(body=clause.body, equalities=equalities, head=head))
    return SOTgd(
        functions=tuple(renaming[f] for f in so_tgd.functions),
        clauses=tuple(clauses),
        name=so_tgd.name,
    )


__all__ = [
    "chase",
    "chase_st_tgds",
    "chase_so_tgd",
    "compile_clause_program",
    "dependency_clauses",
    "run_clause_program",
    "run_clause_program_delta",
]
