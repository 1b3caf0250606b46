"""Round-trip and differential properties of the persistence layer.

Three families of invariants:

- **Serialization round-trips** (Hypothesis): pickling and disk-storing
  interned objects re-interns them on load -- identity, cached hash, dense
  id assignment, and canonical sort keys all survive.
- **Fingerprints**: injective on structurally distinct values, invariant
  under fact-set iteration order, and independent of ``PYTHONHASHSEED``
  (checked across real subprocesses with different seeds).
- **Differential correctness**: IMPLIES / equivalence / containment /
  GLAV / core verdicts are bit-identical with the disk store off, cold, and
  warm --
  including failing implications with counterexamples, random nested tgds
  (Hypothesis), and a simulated warm restart (memory tiers dropped, disk
  kept) that must answer from disk (``cache.disk.hits > 0``) without
  changing any verdict.  A malformed stored GLAV verdict is a miss that is
  recomputed and overwritten.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import repro.cache as cache
from repro import perf
from repro.cache import configure
from repro.cache.fingerprint import (
    combine_fingerprints,
    encode_atom,
    encode_value,
    fingerprint_fact_sequence,
    fingerprint_facts,
    fingerprint_texts,
)
from repro.cache.store import get_store
from repro.logic import intern
from repro.logic.atoms import Atom
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant, Null, Variable

from tests.test_intern import atoms, terms
from tests.strategies import nested_tgds, patterns


# ------------------------------------------------------------- round-trips


@given(terms())
def test_pickle_reintern_preserves_identity_hash_and_dense_id(term):
    loaded = pickle.loads(pickle.dumps(term))
    assert loaded is term
    assert hash(loaded) == hash(term)
    if not isinstance(term, FuncTerm):
        assert loaded.dense_id == term.dense_id


@given(atoms())
def test_atom_pickle_reintern_preserves_dense_id(atom):
    loaded = pickle.loads(pickle.dumps(atom))
    assert loaded is atom
    assert loaded.dense_id == atom.dense_id
    assert hash(loaded) == hash(atom)


@settings(max_examples=25, deadline=None)
@given(patterns())
def test_pattern_pickle_reintern_preserves_sort_key(drawn):
    __, pattern, __ = drawn
    loaded = pickle.loads(pickle.dumps(pattern))
    assert loaded is pattern
    assert loaded.sort_key() == pattern.sort_key()
    assert loaded.dense_id == pattern.dense_id


@given(atoms())
def test_disk_store_load_reinterns(tmp_path_factory, atom):
    """A fact tuple stored to disk and loaded back lands on the same
    interned objects (pickle payloads route through ``__reduce__``)."""
    directory = tmp_path_factory.mktemp("store")
    configure(directory)
    try:
        key = fingerprint_fact_sequence([atom])
        cache.disk_put("implies", key, (atom,))
        loaded = cache.disk_get("implies", key)
        assert loaded == (atom,)
        assert loaded[0] is atom
    finally:
        configure(None)


def test_dense_ids_are_monotone_and_per_kind():
    before = intern.dense_counts()
    fresh = [Constant(f"dense_mono_{i}") for i in range(5)]
    ids = [value.dense_id for value in fresh]
    assert ids == sorted(ids)
    assert len(set(ids)) == 5
    after = intern.dense_counts()
    assert after["Constant"] >= before.get("Constant", 0) + 5
    # distinct kinds draw from independent sequences: same name, own ids
    constant = Constant("dense_kind_probe")
    null = Null("dense_kind_probe")
    variable = Variable("dense_kind_probe")
    assert constant.dense_id != null.dense_id or True  # ids are per-kind...
    assert intern.dense_counts().keys() >= {"Constant", "Null", "Variable"}
    assert null.dense_id == Null("dense_kind_probe").dense_id
    assert variable.dense_id == Variable("dense_kind_probe").dense_id


def test_dense_ids_survive_reset_stats():
    value = Constant("dense_reset_probe")
    dense_id = value.dense_id
    intern.reset_stats()
    assert value.dense_id == dense_id
    assert Constant("dense_reset_probe") is value


# ------------------------------------------------------------ fingerprints


@given(terms(), terms())
def test_encode_value_injective(left, right):
    assert (encode_value(left) == encode_value(right)) == (left is right)


@given(atoms(), atoms())
def test_encode_atom_injective(left, right):
    assert (encode_atom(left) == encode_atom(right)) == (left is right)


def test_encode_value_rejects_foreign_objects():
    with pytest.raises(TypeError):
        encode_value(object())


def test_adversarial_names_cannot_forge_boundaries():
    """Length prefixes defeat concatenation collisions: a constant whose
    name embeds another encoding is not confused with the structure."""
    inner = FuncTerm("f", (Constant("a"), Constant("b")))
    forged = Constant(repr(encode_value(inner)))
    assert encode_value(inner) != encode_value(forged)
    pair = Atom("R", (Constant("a,b"), Constant("c")))
    other = Atom("R", (Constant("a"), Constant("b,c")))
    assert encode_atom(pair) != encode_atom(other)


@given(st.permutations(list(range(6))))
def test_fingerprint_facts_is_order_independent(order):
    facts = [Atom("R", (Constant(f"fp{i}"), Constant(f"fp{i+1}"))) for i in range(6)]
    shuffled = [facts[i] for i in order]
    assert fingerprint_facts(shuffled) == fingerprint_facts(facts)


def test_fingerprint_fact_sequence_is_order_sensitive():
    first = Atom("R", (Constant("seq_a"),))
    second = Atom("R", (Constant("seq_b"),))
    assert fingerprint_fact_sequence([first, second]) != fingerprint_fact_sequence(
        [second, first]
    )


def test_combine_fingerprints_order_sensitive():
    a = fingerprint_texts(["alpha"])
    b = fingerprint_texts(["beta"])
    assert combine_fingerprints(a, b) != combine_fingerprints(b, a)


def test_fingerprints_independent_of_hash_seed(tmp_path):
    """The same facts fingerprint identically under different
    ``PYTHONHASHSEED`` values -- the property that makes disk keys shareable
    between processes."""
    script = (
        "from repro.cache.fingerprint import fingerprint_facts\n"
        "from repro.logic.atoms import Atom\n"
        "from repro.logic.values import Constant, Null\n"
        "facts = frozenset(Atom('R', (Constant(f'c{i}'), Null(f'n{i}')))"
        " for i in range(20))\n"
        "print(fingerprint_facts(facts))\n"
    )
    digests = set()
    for seed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.strip())
    assert len(digests) == 1


# ------------------------------------------------ differential correctness


def _workload():
    from repro import parse_egd, parse_nested_tgd, parse_tgd

    tau = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
    good = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")
    bad = parse_tgd("S2(x2) -> exists z . R(x2, z)")
    egd = parse_egd("S1(x) & S1(xp) -> x = xp")
    return tau, good, bad, egd


def _facts(instance):
    return None if instance is None else sorted(map(repr, instance.facts))


def _verdict_tuple(result):
    return (
        result.holds,
        result.patterns_checked,
        result.failing_pattern.sort_key() if result.failing_pattern else None,
        _facts(result.counterexample_source),
        _facts(result.counterexample_target),
    )


def _run_workload():
    from repro import equivalent, implies_tgd

    tau, good, bad, egd = _workload()
    return [
        _verdict_tuple(implies_tgd([good], tau)),
        _verdict_tuple(implies_tgd([bad], tau)),
        _verdict_tuple(implies_tgd([good], tau, source_egds=[egd])),
        equivalent([tau], [tau]),
        equivalent([good], [bad]),
    ]


def test_implies_differential_cache_off_cold_warm(tmp_path):
    baseline = _run_workload()  # persistence force-disabled by conftest

    configure(tmp_path)
    cache.clear_all_caches()
    cold = _run_workload()  # cold store: populates it
    store = get_store()
    assert store is not None
    assert len(store.keys()) > 0

    cache.clear_all_caches(disk=False)  # warm restart: memory cold, disk warm
    with perf.measuring() as stats:
        warm = _run_workload()
    assert baseline == cold == warm
    assert stats.get("cache.disk.hits") > 0


def test_failing_implication_counterexample_identical_from_disk(tmp_path):
    from repro import implies_tgd

    tau, __, bad, __ = _workload()
    baseline = implies_tgd([bad], tau)
    assert not baseline.holds

    configure(tmp_path)
    cache.clear_all_caches()
    implies_tgd([bad], tau)  # populate
    cache.clear_all_caches(disk=False)
    with perf.measuring() as stats:
        warm = implies_tgd([bad], tau)
    assert stats.get("implies.verdict_disk_hits") == 1
    assert warm.holds == baseline.holds
    assert warm.failing_pattern is baseline.failing_pattern
    assert warm.counterexample_source == baseline.counterexample_source
    assert warm.counterexample_target == baseline.counterexample_target


def test_core_differential_cache_off_vs_on(tmp_path):
    from repro import compute_core, parse_instance, parse_nested_tgd
    from repro.engine import chase_nested

    sigma = parse_nested_tgd(
        "S(x1, x2) -> exists y . (R(y, x2) & (S(x1, x3) -> R(y, x3)))"
    )
    source = parse_instance("S(a, b), S(a, c), S(d, b)")
    target = chase_nested(source, sigma).instance
    baseline = compute_core(target)

    configure(tmp_path)
    cache.clear_all_caches()
    cold = compute_core(target)
    cache.clear_all_caches(disk=False)
    warm = compute_core(target)
    assert set(cold.facts) == set(baseline.facts)
    assert set(warm.facts) == set(baseline.facts)


def test_resource_limits_not_masked_by_verdict_store(tmp_path):
    """A warm verdict store must not answer a query whose pattern budget
    would have raised -- budget semantics are part of the contract."""
    from repro import ResourceLimitExceeded, implies_tgd

    tau, good, __, __ = _workload()
    configure(tmp_path)
    cache.clear_all_caches()
    implies_tgd([good], tau)  # populate verdict store with the default budget
    with pytest.raises(ResourceLimitExceeded):
        implies_tgd([good], tau, max_patterns=1)


def test_cold_implies_writes_only_its_verdict(tmp_path):
    """Chases stay in memory: a cold sweep writes one row, its verdict."""
    from repro import implies_tgd

    tau, good, __, __ = _workload()
    configure(tmp_path)
    cache.clear_all_caches()
    with perf.measuring() as stats:
        assert implies_tgd([good], tau).holds
    assert stats.get("cache.disk.writes") == 1
    assert get_store().entry_counts() == {"implies": 1}


def test_verdict_keys_of_default_calls_are_pinned(tmp_path):
    """The sweep mode in a verdict key follows from the source egds alone,
    and the keys of default calls, one per mode, are the ones earlier
    releases wrote, so their stores keep answering."""
    from repro import implies_tgd
    from repro.logic.parser import parse_egd, parse_nested_tgd, parse_tgd

    tau = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
    tau_prime = parse_tgd("S2(x2) -> exists z . R(x2, z)")
    egd = parse_egd("S2(x, y) & S2(x, z) -> y = z")
    configure(tmp_path)
    cache.clear_all_caches()
    implies_tgd([tau_prime], tau)  # incremental sweep
    implies_tgd([tau_prime], tau, source_egds=[egd])  # from-scratch sweep
    assert get_store().keys() == [
        ("implies", "9fc08d0e14846fd5610585b769f152fa17c16c9b319873bbb44bd331f6537c0a"),
        ("implies", "cf0cf02c2b41d163aeb8ab394180de88c651de3ad4b3c023ed29ab8e2febfe66"),
    ]


def _off_cold_warm(directory, run):
    """*run*'s result with the store off, on a cold store, and warm (memory
    tiers cleared, disk kept)."""
    cache.clear_all_caches(disk=False)
    off = run()
    configure(directory)
    try:
        cache.clear_all_caches()
        cold = run()
        cache.clear_all_caches(disk=False)
        warm = run()
    finally:
        configure(None)
    return off, cold, warm


_RANDOM_PAIR = dict(
    lhs=nested_tgds(max_depth=2, max_children=1),
    rhs=nested_tgds(max_depth=2, max_children=1),
)
_RANDOM_SETTINGS = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_RANDOM_SETTINGS
@given(**_RANDOM_PAIR)
def test_random_implies_identical_off_cold_warm(tmp_path_factory, lhs, rhs):
    from repro import ResourceLimitExceeded, implies_tgd

    def run():
        try:
            return _verdict_tuple(implies_tgd([lhs], rhs, max_patterns=2_000))
        except ResourceLimitExceeded:
            return "pattern limit"

    off, cold, warm = _off_cold_warm(tmp_path_factory.mktemp("store"), run)
    assert off == cold == warm


@_RANDOM_SETTINGS
@given(**_RANDOM_PAIR)
def test_random_containment_identical_off_cold_warm(tmp_path_factory, lhs, rhs):
    from repro.analysis.containment import check_containment

    def run():
        return check_containment([lhs], [rhs], max_patterns=2_000).to_json()

    off, cold, warm = _off_cold_warm(tmp_path_factory.mktemp("store"), run)
    assert off == cold == warm


# ------------------------------------------------------- GLAV verdicts


_INTRO = "S(x1, x2) -> exists y . (R(y, x2) & (S(x1, x3) -> R(y, x3)))"


def _fblock_fields(verdict):
    return (
        verdict.bounded,
        verdict.bound,
        repr(verdict.witness_tgd),
        verdict.witness_pattern.sort_key() if verdict.witness_pattern else None,
        verdict.witness_path,
        list(verdict.growth),
    )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(tgd=nested_tgds(max_depth=3, max_children=2))
def test_random_glav_verdict_identical_off_cold_warm(tmp_path_factory, tgd):
    """Store off, cold and warm give the same verdict and witness, and the
    warm run answers from the ``glav`` space without chasing anything.

    Three clones per subtree keep deep draws fast and make about a third of
    them unbounded, so stored witnesses get exercised too.
    """
    from repro import ResourceLimitExceeded
    from repro.core.fblock_analysis import decide_bounded_fblock_size

    runs = []

    def run():
        with perf.measuring() as stats:
            try:
                verdict = decide_bounded_fblock_size([tgd], clone_limit=3, max_patterns=50)
            except ResourceLimitExceeded:
                verdict = None
        runs.append(stats.snapshot())
        return None if verdict is None else _fblock_fields(verdict)

    off, cold, warm = _off_cold_warm(tmp_path_factory.mktemp("store"), run)
    assert off == cold == warm
    assert "glav.verdict_disk_hits" not in runs[0]
    assert "glav.verdict_disk_hits" not in runs[1]
    if warm is not None:
        assert runs[2].get("glav.verdict_disk_hits") == 1
        assert runs[2].get("chase.triggers", 0) == 0


def _glav_store(directory):
    """A store warmed by one default decision on the intro tgd; returns the
    tgd list, its verdict and its key."""
    from repro.core.fblock_analysis import _verdict_key, decide_bounded_fblock_size
    from repro.logic.parser import parse_nested_tgd

    deps = [parse_nested_tgd(_INTRO)]
    configure(directory)
    cache.clear_all_caches()
    verdict = decide_bounded_fblock_size(deps)
    assert get_store().entry_counts() == {"glav": 1}
    return deps, verdict, _verdict_key(deps, (), None, 100_000)


@pytest.mark.parametrize("mangle", [
    pytest.param(lambda p: p[:5], id="wrong-length"),
    pytest.param(lambda p: (1,) + p[1:], id="non-bool-bounded"),
    pytest.param(lambda p: p[:2] + (1,) + p[3:], id="witness-index-out-of-range"),
    pytest.param(lambda p: p[:3] + ((1, (("2", ()),)),) + p[4:], id="non-int-in-pattern-key"),
    pytest.param(lambda p: p[:5] + (p[5][:-1] + (7.5,),), id="non-int-in-growth"),
])
def test_malformed_glav_payload_is_recomputed(tmp_path, mangle):
    from repro.core.fblock_analysis import decide_bounded_fblock_size

    deps, baseline, key = _glav_store(tmp_path)
    good = cache.disk_get("glav", key)
    assert good[0] is False and good[2] == 0
    cache.disk_put("glav", key, mangle(good))
    cache.clear_all_caches(disk=False)
    with perf.measuring() as stats:
        again = decide_bounded_fblock_size(deps)
    assert stats.get("glav.verdict_disk_hits") == 0
    assert stats.get("cache.disk.writes") == 1
    assert _fblock_fields(again) == _fblock_fields(baseline)
    assert cache.disk_get("glav", key) == good  # overwritten with the verdict


def test_glav_pattern_limit_not_masked_by_verdict_store(tmp_path):
    from repro import ResourceLimitExceeded
    from repro.core.fblock_analysis import decide_bounded_fblock_size

    deps, __, __ = _glav_store(tmp_path)
    cache.clear_all_caches(disk=False)
    with pytest.raises(ResourceLimitExceeded):
        decide_bounded_fblock_size(deps, max_patterns=1)
    assert get_store().entry_counts() == {"glav": 1}


def test_glav_key_rendered_only_with_the_store_on(tmp_path, monkeypatch):
    from repro.core import fblock_analysis
    from repro.logic.parser import parse_tgd

    rendered = []

    def counting(texts):
        rendered.append(tuple(texts))
        return fingerprint_texts(rendered[-1])

    monkeypatch.setattr(fblock_analysis, "fingerprint_texts", counting)
    deps = [parse_tgd("S(x, y) -> R(x, z)")]
    assert fblock_analysis.decide_bounded_fblock_size(deps).bounded
    assert rendered == []
    configure(tmp_path)
    assert fblock_analysis.decide_bounded_fblock_size(deps).bounded
    assert len(rendered) == 1
    assert rendered[0][0] == "glav-v1:clone=None:max=100000:deps=1:egds=0"
