"""Columnar instance backend: integer-interned fact tables, vectorized joins.

The tuple engines walk Python objects fact by fact: every join step hashes
an interned :class:`~repro.logic.atoms.Atom`, every assignment is a dict of
:class:`~repro.logic.values.Variable` keys.  :class:`ColumnarInstance`
stores the same facts as **dense integer arrays** instead: every distinct
value (constant, labeled null, ground Skolem term) gets a dense id from a
:class:`ValueTable` at intern time, and each relation's facts live in
per-position ``array('q')`` columns plus a per-(position, id) inverted
index.  The inner loops of trigger matching then compare machine integers
and append to flat arrays; interned value objects are only touched at the
encode/decode boundary and when a *new* Skolem term is first created.

Three layers:

- :class:`ColumnarInstance` -- the store.  It serves two engines only: the
  single-pass exchange below and the id-space core engine
  (:mod:`repro.engine.core_instance`), which reads its groups, columns and
  inverted indexes directly.  Rows decode to interned :class:`Atom` objects
  only through :meth:`~ColumnarInstance.decode_row`, iteration and
  :meth:`~ColumnarInstance.to_instance`.
- :class:`_ClausePlan` -- one Skolemized clause compiled against the store:
  a greedy join order (most bound variables first), per-atom bind/check
  position lists resolved to environment *slots*, and head/equality term
  builders that produce value ids directly (with a per-(function, arg-ids)
  cache, so re-firing a trigger never rebuilds its Skolem term).
- :func:`columnar_execute_exchange` -- the single-pass exchange: every
  clause matched over the source store and emitted into a target store,
  deriving exactly the fact set of :func:`repro.engine.chase.chase`.

Perf counters: ``backend.columnar.joins`` (per-atom index joins performed),
``backend.columnar.encoded_rows`` / ``backend.columnar.decoded_rows`` (facts
crossing the object/array boundary).

The store also supports **tombstone deletion** (:meth:`ColumnarInstance.
discard_row`): a discarded row is removed from the dedup map and recorded
in the group's ``dead`` set, while the columns keep their dense layout and
the inverted index keeps the row in its buckets.  Dropping it from a bucket
would be an O(bucket) ``list.remove`` per discard; instead every reader of
a store that discards filters ``dead`` itself.  The columnar core engine
(:mod:`repro.engine.core_instance`) is the only one that discards, and its
kernel seeder (:func:`~repro.engine.hom_kernel.solve_encoded`) drops dead
rows from the bucket or scan it picks, in the pass that drops forbidden
rows.  The clause plans below read the index unfiltered: they run over
chase stores only, which never discard.  Iteration and
:meth:`_RelGroup.live_rows` skip dead rows only behind an ``if group.dead``
guard, keeping the append-only hot paths unchanged.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro import perf
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.sotgd import SOClause
from repro.logic.terms import FuncTerm, is_ground
from repro.logic.values import Variable


class ValueTable:
    """Dense integer ids for interned values, shared by related stores.

    The hash-consed logic layer guarantees structurally equal values are the
    *same* object, so the id table is a plain identity-agnostic dict keyed by
    the interned object.  A source and a target :class:`ColumnarInstance` of
    one exchange share a table so row emission can move ids between stores
    without re-encoding.
    """

    __slots__ = ("_id_of", "_values")

    def __init__(self) -> None:
        self._id_of: dict[object, int] = {}
        self._values: list[object] = []

    def intern(self, value: object) -> int:
        vid = self._id_of.get(value)
        if vid is None:
            vid = len(self._values)
            self._id_of[value] = vid
            self._values.append(value)
        return vid

    def value(self, vid: int) -> object:
        return self._values[vid]

    def __len__(self) -> int:
        return len(self._values)


class _RelGroup:
    """The fact table of one (relation, arity): columns, dedup map, index."""

    __slots__ = ("relation", "arity", "columns", "row_of", "index", "atoms", "dead")

    def __init__(self, relation: str, arity: int) -> None:
        self.relation = relation
        self.arity = arity
        self.columns: list[array] = [array("q") for _ in range(arity)]
        self.row_of: dict[tuple[int, ...], int] = {}
        self.index: list[dict[int, list[int]]] = [{} for _ in range(arity)]
        self.atoms: list[Atom | None] = []
        #: Tombstoned row indexes, still listed in ``index`` (see module
        #: docstring); empty on every store but the core engine's.
        self.dead: set[int] = set()

    def __len__(self) -> int:
        return len(self.atoms) - len(self.dead)

    def live_rows(self) -> Iterable[int]:
        """The indexes of the live (non-tombstoned) rows, in insertion order."""
        if not self.dead:
            return range(len(self.atoms))
        dead = self.dead
        return [row for row in range(len(self.atoms)) if row not in dead]

    def add(self, ids: tuple[int, ...]) -> int | None:
        """Insert a row; return its index if new, None if already present."""
        if ids in self.row_of:
            return None
        row = len(self.atoms)
        self.row_of[ids] = row
        self.atoms.append(None)
        for position, vid in enumerate(ids):
            self.columns[position].append(vid)
            bucket = self.index[position].get(vid)
            if bucket is None:
                self.index[position][vid] = [row]
            else:
                bucket.append(row)
        return row

    def discard(self, row: int) -> bool:
        """Tombstone a live row: drop it from the dedup map, mark it dead.

        The index keeps the row (see the module docstring).
        """
        if row in self.dead or row >= len(self.atoms):
            return False
        ids = tuple(column[row] for column in self.columns)
        if self.row_of.get(ids) != row:
            return False
        del self.row_of[ids]
        self.dead.add(row)
        self.atoms[row] = None
        return True


class ColumnarInstance:
    """A mutable columnar fact store: id-row groups plus a shared ValueTable."""

    __slots__ = ("values", "_groups", "_count")

    def __init__(
        self,
        facts: "Instance | Iterable[Atom]" = (),
        *,
        values: ValueTable | None = None,
    ):
        self.values = values if values is not None else ValueTable()
        self._groups: dict[str, list[_RelGroup]] = {}
        self._count = 0
        encoded = 0
        for fact in facts:
            encoded += 1
            self.add_fact(fact)
        if encoded:
            perf.incr("backend.columnar.encoded_rows", encoded)

    # ---------------------------------------------------------------- mutation

    def group(self, relation: str, arity: int) -> _RelGroup:
        """The fact table of (relation, arity), created on first use."""
        groups = self._groups.setdefault(relation, [])
        for group in groups:
            if group.arity == arity:
                return group
        group = _RelGroup(relation, arity)
        groups.append(group)
        return group

    def add_fact(self, fact: Atom) -> bool:
        intern = self.values.intern
        ids = tuple(intern(arg) for arg in fact.args)
        group = self.group(fact.relation, len(ids))
        row = group.add(ids)
        if row is None:
            return False
        group.atoms[row] = fact
        self._count += 1
        return True

    def add_row(self, group: _RelGroup, ids: tuple[int, ...]) -> int | None:
        """Insert an id row directly; returns the new row index or None."""
        row = group.add(ids)
        if row is not None:
            self._count += 1
        return row

    def discard_row(self, group: _RelGroup, row: int) -> bool:
        """Tombstone one row of *group*; returns True if it was live."""
        if group.discard(row):
            self._count -= 1
            return True
        return False

    # ------------------------------------------------------------------ decode

    def decode_row(self, group: _RelGroup, row: int) -> Atom:
        atom = group.atoms[row]
        if atom is None:
            value = self.values.value
            atom = Atom(
                group.relation,
                tuple(value(column[row]) for column in group.columns),
            )
            group.atoms[row] = atom
        return atom

    def to_instance(self) -> Instance:
        """Decode every row into the immutable tuple representation."""
        perf.incr("backend.columnar.decoded_rows", self._count)
        return Instance(self)

    # ------------------------------------------------------------- iteration

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Atom]:
        decode = self.decode_row
        for groups in self._groups.values():
            for group in groups:
                for row in group.live_rows():
                    yield decode(group, row)

    def __repr__(self) -> str:
        return f"ColumnarInstance({self._count} facts, {len(self.values)} values)"


# -------------------------------------------------------------- clause plans


def _order_atoms(atoms: Sequence[Atom], bound: set[Variable]) -> list[Atom]:
    from repro.engine.matching import _order_atoms as order

    return order(atoms, bound)


class _AtomStep:
    """One body atom resolved against environment slots, in join order.

    ``checks`` hold positions whose slot is bound by an *earlier* step (their
    env value is valid before this atom runs, so they can seed index
    lookups); ``local_checks`` hold repeat occurrences of a variable first
    bound inside this very atom (only checkable after ``binds`` run).
    """

    __slots__ = ("relation", "arity", "checks", "local_checks", "binds")

    def __init__(self, atom: Atom, slot_of: dict[Variable, int], bound: set[Variable]):
        self.relation = atom.relation
        self.arity = atom.arity
        self.checks: list[tuple[int, int]] = []
        self.local_checks: list[tuple[int, int]] = []
        self.binds: list[tuple[int, int]] = []
        seen_here: set[Variable] = set()
        for position, arg in enumerate(atom.args):
            slot = slot_of[arg]
            if arg in bound:
                self.checks.append((position, slot))
            elif arg in seen_here:
                self.local_checks.append((position, slot))
            else:
                seen_here.add(arg)
                self.binds.append((position, slot))
        bound.update(seen_here)


def _make_builder(term: object, slot_of: dict[Variable, int], store: ColumnarInstance):
    """Compile a head/equality term to an env -> value-id function.

    Skolem terms memoize on their argument-id tuple: re-firing a trigger
    reuses the id without reconstructing the interned FuncTerm.
    """
    values = store.values
    if isinstance(term, Variable):
        slot = slot_of[term]
        return lambda env: env[slot]
    if isinstance(term, FuncTerm) and not is_ground(term):
        arg_builders = tuple(_make_builder(a, slot_of, store) for a in term.args)
        function = term.function
        cache: dict[tuple[int, ...], int] = {}

        def build(env: list[int]) -> int:
            key = tuple(builder(env) for builder in arg_builders)
            vid = cache.get(key)
            if vid is None:
                term_value = FuncTerm(
                    function, tuple(values.value(arg) for arg in key)
                )
                vid = values.intern(term_value)
                cache[key] = vid
            return vid

        return build
    # Ground term (constant, null, or variable-free Skolem term): fixed id.
    vid = values.intern(term)
    return lambda env: vid


class _ClausePlan:
    """A Skolemized clause compiled against a source and a target store."""

    def __init__(self, clause: SOClause, source: ColumnarInstance, target: ColumnarInstance):
        self.clause = clause
        self.source = source
        self.target = target
        self.slot_of: dict[Variable, int] = {}
        for atom in clause.body:
            for arg in atom.args:
                if not isinstance(arg, Variable):
                    raise ChaseError(
                        f"columnar backend: non-variable body argument {arg!r}"
                    )
                self.slot_of.setdefault(arg, len(self.slot_of))
        self.slots = len(self.slot_of)
        self.equalities = tuple(
            (_make_builder(left, self.slot_of, target), _make_builder(right, self.slot_of, target))
            for left, right in clause.equalities
        )
        self.heads = tuple(
            (
                target.group(atom.relation, atom.arity),
                tuple(_make_builder(arg, self.slot_of, target) for arg in atom.args),
            )
            for atom in clause.head
        )

    # ---------------------------------------------------------------- matching

    def _candidates(
        self, step: _AtomStep, env: list[int], stats: "_JoinStats"
    ) -> Iterable[tuple[_RelGroup, Iterable[int]]]:
        """Candidate (group, rows) for *step*, from the most selective index."""
        groups = self.source._groups.get(step.relation)
        if not groups:
            return ()
        out = []
        for group in groups:
            if group.arity != step.arity:
                continue
            stats.joins += 1
            best: list[int] | None = None
            for position, slot in step.checks:
                bucket = group.index[position].get(env[slot])
                if bucket is None:
                    best = []
                    break
                if best is None or len(bucket) < len(best):
                    best = bucket
            if best is None:
                out.append((group, group.live_rows()))
            elif best:
                out.append((group, best))
        return out

    def _match(
        self, steps: list[_AtomStep], index: int, env: list[int], stats: "_JoinStats"
    ) -> Iterator[list[int]]:
        if index == len(steps):
            yield env
            return
        step = steps[index]
        checks = step.checks
        local_checks = step.local_checks
        binds = step.binds
        for group, rows in self._candidates(step, env, stats):
            columns = group.columns
            for row in rows:
                ok = True
                for position, slot in checks:
                    if columns[position][row] != env[slot]:
                        ok = False
                        break
                if not ok:
                    continue
                for position, slot in binds:
                    env[slot] = columns[position][row]
                for position, slot in local_checks:
                    if columns[position][row] != env[slot]:
                        ok = False
                        break
                if not ok:
                    continue
                yield from self._match(steps, index + 1, env, stats)
        for _, slot in binds:
            env[slot] = -1

    def stream_assignments(self, stats: "_JoinStats") -> Iterator[list[int]]:
        """Yield live environments over the full source store.

        The yielded list is *borrowed*: it is mutated by the next step of the
        iteration, so callers must consume (or copy) it before advancing.
        Safe to feed straight into :meth:`emit`: the plan's target store is
        distinct from its source store.
        """
        bound: set[Variable] = set()
        steps = [
            _AtomStep(atom, self.slot_of, bound)
            for atom in _order_atoms(self.clause.body, set())
        ]
        env = [-1] * self.slots
        return self._match(steps, 0, env, stats)

    # ---------------------------------------------------------------- emission

    def emit(self, env: Sequence[int]) -> int:
        """Add the head facts of *env* to the target store; count the new ones.

        *env* is read, never written, so streamed (borrowed) environments
        from :meth:`stream_assignments` are safe to pass directly.
        """
        for left, right in self.equalities:
            if left(env) != right(env):
                return 0
        target = self.target
        new = 0
        for group, builders in self.heads:
            if target.add_row(group, tuple(builder(env) for builder in builders)) is not None:
                new += 1
        return new


class _JoinStats:
    """Join steps of one columnar exchange, flushed to :mod:`repro.perf` once."""

    __slots__ = ("joins",)

    def __init__(self) -> None:
        self.joins = 0

    def flush(self) -> None:
        if self.joins:
            perf.incr("backend.columnar.joins", self.joins)


# ---------------------------------------------------------------- exchange


def columnar_execute_exchange(
    source: Instance, clauses: Sequence[SOClause]
) -> Instance:
    """Single-pass (source-to-target) execution over columnar stores.

    The source loads into one store, head facts accumulate in a second store
    sharing the same :class:`ValueTable`, and the result decodes to exactly
    the fact set of :func:`repro.engine.chase.chase` (given
    :func:`~repro.engine.chase.compile_clause_program`'s clauses).
    """
    values = ValueTable()
    source_store = ColumnarInstance(source, values=values)
    target_store = ColumnarInstance(values=values)
    stats = _JoinStats()
    try:
        facts = 0
        for clause in clauses:
            plan = _ClausePlan(clause, source_store, target_store)
            # Streaming is safe here: the plan matches over the source store
            # and emits into a distinct target store, so emission can never
            # invalidate the in-flight iteration.
            for env in plan.stream_assignments(stats):
                facts += plan.emit(env)
        perf.incr("chase.facts", facts)
    finally:
        stats.flush()
    return target_store.to_instance()


__all__ = [
    "ColumnarInstance",
    "ValueTable",
    "columnar_execute_exchange",
]
