"""Property tests for the hash-consing layer (:mod:`repro.logic.intern`).

The logic stack interns :class:`Constant` / :class:`Null` / :class:`Variable`
/ :class:`FuncTerm` / :class:`Atom` / :class:`Pattern`: structurally equal
objects are the *same* object.  The invariants under test:

- ``a == b``  iff  ``a is b``  (equality is pointer identity),
- interning is stable under rebuilding (``with_extra_clone`` /
  ``with_extra_child`` return trees whose untouched subtrees are the
  original objects),
- pickling round-trips *through* the intern table (a loaded copy is the
  original object), so serialized payloads cannot duplicate nodes,
- the cached hash agrees with the structural hash the pre-interning
  dataclasses used, so mixed containers keep working.
"""

from __future__ import annotations

import gc
import pickle

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.engine.chase import chase
from repro.logic import intern
from repro.logic.atoms import _ATOMS, Atom
from repro.logic.parser import parse_nested_tgd
from repro.logic.terms import _TERMS, FuncTerm
from repro.logic.values import _CONSTANTS, Constant, Null, Variable
from repro.core.patterns import Pattern
from repro.workloads import star_instance

from tests.strategies import nested_tgds, patterns


names = st.text(alphabet="abcxyz01", min_size=1, max_size=4)


@st.composite
def terms(draw, depth: int = 2):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from([Constant, Null, Variable]))
        return kind(draw(names))
    args = tuple(draw(terms(depth=depth - 1)) for __ in range(draw(st.integers(0, 2))))
    return FuncTerm(draw(names), args)


@st.composite
def atoms(draw):
    args = tuple(draw(terms()) for __ in range(draw(st.integers(0, 3))))
    return Atom(draw(names).upper(), args)


# ------------------------------------------------------ equality is identity


@given(names, names)
def test_leaf_equality_is_identity(a, b):
    for kind in (Constant, Null, Variable):
        left, right = kind(a), kind(b)
        assert (left == right) == (left is right)
        assert (a == b) == (left is right)


@given(terms(), terms())
def test_term_equality_is_identity(left, right):
    assert (left == right) == (left is right)


@given(atoms(), atoms())
def test_atom_equality_is_identity(left, right):
    assert (left == right) == (left is right)


@settings(max_examples=50)
@given(patterns(), patterns())
def test_pattern_equality_is_identity(first, second):
    __, left, __k = first
    __, right, __k2 = second
    assert (left == right) == (left is right)


def test_distinct_kinds_never_identified():
    # Constant("a"), Null("a"), Variable("a") live in separate tables.
    values = [Constant("a"), Null("a"), Variable("a")]
    assert len({id(v) for v in values}) == 3
    assert len(set(map(repr, values))) == 3


# --------------------------------------------------------- rebuild stability


@settings(max_examples=50)
@given(patterns(max_nodes=5))
def test_intern_stable_across_with_extra_child(drawn):
    tgd, pattern, k = drawn
    for node in pattern.subtrees():
        choices = tgd.children_of(node.part_id)
        if not choices:
            continue
        extended = pattern.with_extra_child((), pattern.children[0].part_id) \
            if pattern.children else None
        break
    # Rebuilding the same structure twice yields the same object, and the
    # untouched children of an extension are the original child objects.
    rebuilt = Pattern(pattern.part_id, pattern.children)
    assert rebuilt is pattern
    if pattern.children:
        grown = pattern.with_extra_child((), pattern.children[0].part_id)
        for child in pattern.children:
            assert any(c is child for c in grown.children)


def test_intern_stable_across_with_extra_clone():
    p = Pattern(1, (Pattern(2, (Pattern(3),)), Pattern(4)))
    cloned = p.with_extra_clone((0,))
    # the cloned subtree is the *same* object as the original subtree
    sub = next(c for c in p.children if c.part_id == 2)
    assert sum(1 for c in cloned.children if c is sub) == 2
    # and re-cloning reproduces the identical interned pattern
    assert p.with_extra_clone((0,)) is cloned


# ---------------------------------------------------------- pickle re-intern


@given(terms())
def test_term_pickle_reinterns(term):
    assert pickle.loads(pickle.dumps(term)) is term


@given(atoms())
def test_atom_pickle_reinterns(atom):
    assert pickle.loads(pickle.dumps(atom)) is atom


@settings(max_examples=50)
@given(patterns())
def test_pattern_pickle_reinterns(drawn):
    __, pattern, __k = drawn
    assert pickle.loads(pickle.dumps(pattern)) is pattern


# ------------------------------------------------------------- hash parity


@given(names)
def test_leaf_hash_matches_dataclass_hash(name):
    # the pre-interning frozen dataclasses hashed their field tuple
    assert hash(Constant(name)) == hash((name,))
    assert hash(Variable(name)) == hash((name,))


@given(terms())
def test_func_term_hash_matches_dataclass_hash(term):
    if isinstance(term, FuncTerm):
        assert hash(term) == hash((term.function, term.args))


@given(atoms())
def test_atom_hash_matches_dataclass_hash(atom):
    assert hash(atom) == hash((atom.relation, atom.args))


# ------------------------------------------------------------ immutability


def test_interned_objects_are_immutable():
    for obj in (Constant("c"), FuncTerm("f", (Constant("c"),)),
                Atom("R", (Constant("c"),)), Pattern(1)):
        with pytest.raises(AttributeError):
            obj.name = "x"  # type: ignore[union-attr]


# ------------------------------------------------------------- perf counters


def test_intern_stats_flow_to_perf():
    from repro import perf

    intern.publish_stats()  # drain anything earlier tests accumulated
    baseline = perf.snapshot()
    first = Constant("intern-stats-probe")   # miss (tables are weak: keep a ref)
    second = Constant("intern-stats-probe")  # hit
    assert first is second
    published = intern.publish_stats()
    assert published["hits"] >= 1
    after = perf.snapshot()
    assert after.get("intern.hits", 0) - baseline.get("intern.hits", 0) >= 1


@settings(max_examples=25)
@given(nested_tgds())
def test_nested_tgd_atoms_are_interned(tgd):
    # every atom reachable from a drawn tgd is the interned representative
    for part_id in tgd.part_ids():
        for atom in tgd.part(part_id).body:
            assert Atom(atom.relation, atom.args) is atom


# ------------------------------------------------------------- table layout


def _table_entry(table, key):
    entry = table.get(key)
    return None if entry is None else entry()


def test_entry_dies_with_its_last_reference():
    probe = Constant("intern-lifetime-probe")
    assert _table_entry(_CONSTANTS, "intern-lifetime-probe") is probe
    del probe
    gc.collect()
    assert "intern-lifetime-probe" not in _CONSTANTS


def test_tables_return_to_baseline_after_a_dropped_chase():
    tgd = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
    source = star_instance(12)
    chase(source, tgd)  # compiles (and caches) the clause program once
    gc.collect()
    baseline = (len(_ATOMS), len(_TERMS))
    result = chase(source, tgd)
    assert len(_ATOMS) >= baseline[0] + len(result)
    del result
    gc.collect()
    assert (len(_ATOMS), len(_TERMS)) == baseline


def test_reinterned_key_gets_a_new_object_and_dense_id():
    key = ("intern-reintern-probe", (Constant("a"),))
    first = FuncTerm(*key)
    first_id = first.dense_id
    del first
    gc.collect()
    assert key not in _TERMS
    again = FuncTerm(*key)
    assert again.dense_id > first_id  # ids are never recycled
    assert FuncTerm(*key) is again


def test_dead_entry_found_on_a_miss_is_replaced():
    class Gone:
        pass

    doomed = Gone()
    _CONSTANTS["intern-dead-probe"] = intern.KeyedRef(doomed, None)
    del doomed
    gc.collect()
    assert _CONSTANTS["intern-dead-probe"]() is None
    misses = intern.stats()["misses"]
    fresh = Constant("intern-dead-probe")
    assert isinstance(fresh, Constant) and fresh.name == "intern-dead-probe"
    assert intern.stats()["misses"] == misses + 1
    assert _table_entry(_CONSTANTS, "intern-dead-probe") is fresh
    assert Constant("intern-dead-probe") is fresh


def test_removal_callback_never_deletes_a_newer_entry():
    older = Constant("intern-newer-probe")
    # Drop the entry by hand so the same key interns a second, newer object
    # while the older one is still alive.
    del _CONSTANTS["intern-newer-probe"]
    newer = Constant("intern-newer-probe")
    assert newer is not older
    del older  # its ref's callback runs now and must leave the newer entry
    gc.collect()
    assert _table_entry(_CONSTANTS, "intern-newer-probe") is newer
    assert Constant("intern-newer-probe") is newer


def test_hits_and_misses_of_a_fixed_construction_sequence():
    before = intern.stats()
    c = Constant("seq-a")
    Constant("seq-a")
    n, v = Null("seq-n"), Variable("seq-v")
    Variable("seq-v")
    t = FuncTerm("seq-f", (c, n))
    FuncTerm("seq-f", (Constant("seq-a"), n))
    a = Atom("SeqR", (t, c, v))
    Atom("SeqR", (t, c, v))
    p = Pattern(987_654, (Pattern(987_655), Pattern(987_656)))
    Pattern(987_654, (Pattern(987_656), Pattern(987_655)))
    copy = pickle.loads(pickle.dumps((a, p)))
    assert copy == (a, p)
    after = intern.stats()
    # the counts of the same sequence on WeakValueDictionary tables
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (16, 8)
