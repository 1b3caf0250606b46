"""One measured run of one workload, in its own process (started by run.py).

The run is a closed loop with one client: each operation starts when the
previous one has been checked.  Operations come in decks (see ``ops.py``);
the loop runs at least three whole decks and stops when the next one would
end past ``--seconds``, so every run measures the same mix.  Before each
operation the in-memory cache tiers are cleared, so no operation reuses
another's work except through the disk store of ``warm-restart``, and the
garbage collector runs, so the collections inside an operation depend on
that operation alone and not on the order the seed drew.

Slower stretches of the shared machine last minutes, so each deck's
latencies are scaled by a calibration routine timed between the deck's
operations (:func:`calibration_ns`).  ``latency_p90_ms`` is a percentile of
those per-operation latencies, so a slow tail inside a class of operations
shows.  ``latency_p50_ms`` and ``ops_per_s`` are taken over the run's
*typical* operations instead: each operation's latency is replaced by the
median latency of its class (shape and size, and for ``warm-restart`` first
sighting or repeat) over the run.  Every class recurs in each deck, so a
stall of the shared machine during one operation does not move them; over
the per-operation latencies their run-to-run spread was several times wider
(README.md, repeatability).

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs an untraced pass over half the time, then the
same decks again with the trace boundaries patched in, and reports the
per-layer metrics, the tracing overhead, and whether both passes gave the
same per-operation outcomes.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checkout

checkout.require_program()

import ops  # noqa: E402
import trace as tracing  # noqa: E402
import repro  # noqa: E402
from repro import cache, perf  # noqa: E402


@dataclass
class Record:
    """The outcome of one timed operation."""

    op_id: str
    cls: str  # shape/size: operations of one class do the same work
    latency_ns: int
    ok: bool
    summary: str
    first: bool
    source_facts: int
    scale: float = 1.0  # the deck's calibration factor

    @property
    def scaled_ns(self) -> float:
        return self.latency_ns * self.scale


@dataclass
class Pass:
    """All operations of one pass over whole decks."""

    records: list[Record] = field(default_factory=list)
    decks: int = 0
    store_bytes: list[int] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    counters: Counter[str] = field(default_factory=Counter)

    @property
    def op_ns(self) -> float:
        return sum(record.scaled_ns for record in self.records)


#: A run measures at least this many decks, so class medians are robust.
MIN_DECKS = 3

#: On a machine shared with other tenants the speed drifts, by up to about
#: 40% for minutes at a time on the 2-core VM the baseline was measured on.
#: A fixed pure-Python routine is timed between the operations of every deck,
#: about CALIBRATION_SAMPLES times, and the deck's latencies are scaled by
#: NOMINAL_CALIBRATION_NS over its median time: timings are reported at the
#: speed of a machine where the routine takes 9 ms (that VM when idle).
NOMINAL_CALIBRATION_NS = 9_000_000
CALIBRATION_SAMPLES = 15
#: Set-up time is scaled the same way, by samples taken right after set-up.
SETUP_CALIBRATION_SAMPLES = 5


def _calibration_work() -> int:
    """Interpreter-bound work independent of the program: hashing, sorting."""
    table: dict[tuple[int, str], int] = {}
    for i in range(20_000):
        key = (i % 211, f"v{i}")
        table[key] = table.get(key, 0) + 1
    return len({key[0] for key in sorted(table, key=lambda key: key[1])})


def calibration_ns() -> int:
    """One timing of the calibration routine, after a full collection."""
    gc.collect()
    start = time.perf_counter_ns()
    _calibration_work()
    return time.perf_counter_ns() - start


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _open_store() -> str:
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="store-", dir=checkout.OUT)
    cache.configure(directory)
    return directory


def _close_store(directory: str) -> int:
    """Close the deck's store and return its size on disk in bytes."""
    cache.configure(None)
    size = sum(path.stat().st_size for path in Path(directory).iterdir())
    shutil.rmtree(directory)
    return size


def run_op(
    op: ops.Op, sources: ops.Sources, tracer: tracing.Tracer | None, counters: Counter[str]
) -> tuple[int, bool, str, int]:
    """Prepare, time, and check one operation: (latency ns, ok, summary, facts)."""
    inputs = ops.prepare(op, sources)
    cache.clear_all_caches(disk=False)
    gc.collect()
    error: Exception | None = None
    with perf.measuring() as stats:
        if tracer is not None:
            tracer.begin(op.id)
        start = time.perf_counter_ns()
        try:
            result = ops.execute(op, inputs)
        except Exception as exc:  # an operation may fail; the run goes on
            error, result = exc, None
        latency = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.end()
    counters.update(stats.counters)
    if error is None:
        try:
            ok, summary = ops.check(op, inputs, result)
        except Exception as exc:
            error = exc
    if error is not None:
        ok, summary = False, f"error={type(error).__name__}"
        print(f"op {op.id} {op.shape} n={op.n}: "
              + "".join(traceback.format_exception_only(error)).strip(), file=sys.stderr)
    elif not ok:
        print(f"op {op.id} {op.shape} n={op.n}: wrong answer ({summary}, "
              f"expected {op.expect})", file=sys.stderr)
    return latency, ok, summary, inputs.source_facts


def run_pass(
    workload: str,
    seed: int,
    seconds: float,
    sources: ops.Sources,
    *,
    decks: int | None = None,
    min_decks: int = MIN_DECKS,
    smoke: bool = False,
    tracer: tracing.Tracer | None = None,
) -> Pass:
    """Run whole decks: *decks* of them, or at least *min_decks* and as many
    more as fit in *seconds* (one deck with *smoke*)."""
    result = Pass()
    start = time.monotonic()
    while True:
        deck_start = time.monotonic()
        store = _open_store() if workload == "warm-restart" else None
        seen: set[str] = set()
        records: list[Record] = []
        calibration: list[int] = []
        deck_ops = ops.deck(workload, seed, result.decks, smoke)
        stride = max(1, len(deck_ops) // CALIBRATION_SAMPLES)
        for index, op in enumerate(deck_ops):
            if index % stride == 0:
                calibration.append(calibration_ns())
            latency, ok, summary, facts = run_op(op, sources, tracer, result.counters)
            first = store is None or op.key not in seen  # a repeat needs a store
            records.append(Record(op.id, f"{op.shape}/{op.n}", latency, ok, summary, first, facts))
            seen.add(op.key)
        if store is not None:
            result.store_bytes.append(_close_store(store))
        scale = NOMINAL_CALIBRATION_NS / statistics.median(calibration)
        for record in records:
            record.scale = scale
        result.records.extend(records)
        result.scales.append(scale)
        result.decks += 1
        now = time.monotonic()
        if decks is not None:
            if result.decks >= decks:
                return result
        elif smoke or (result.decks >= min_decks
                       and now - start + (now - deck_start) / 2 >= seconds):
            return result


def typical_ms(records: list[Record]) -> list[float]:
    """Each operation's scaled latency in ms, replaced by its class median over the run."""
    by_class: dict[tuple[str, bool], list[float]] = defaultdict(list)
    for record in records:
        by_class[record.cls, record.first].append(record.scaled_ns)
    medians = {key: statistics.median(values) / 1e6 for key, values in by_class.items()}
    return [medians[record.cls, record.first] for record in records]


def end_to_end(run: Pass) -> dict[str, float]:
    typical = typical_ms(run.records)
    return {
        "ops_per_s": len(typical) / (sum(typical) / 1e3),
        "latency_p50_ms": percentile(typical, 50),
        "latency_p90_ms": percentile([record.scaled_ns / 1e6 for record in run.records], 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Layers whose work sits below everything they call: report busy time.
#: The others call into further layers: report self time.
_BUSY_LAYERS = ("logic.parser", "analysis.frontier", "engine.chase", "engine.columnar",
                "engine.sql_backend", "engine.hom_kernel", "cache.fingerprint")
_SELF_LAYERS = ("analysis.containment", "engine.core_instance", "core.implication",
                "core.fblock_analysis")


def per_layer(untraced: Pass, traced: Pass, tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced pass (plus the untraced workload figures)."""
    ops_count = len(traced.records)
    count = traced.counters.__getitem__

    def per_op(value: float) -> float:
        return value / ops_count

    def counted(*names: str) -> float:
        return per_op(sum(count(name) for name in names))

    metrics: dict[str, float] = {}
    for layer in _BUSY_LAYERS:
        metrics[f"{layer}.busy_share"] = _ratio(tracer.busy_ns[layer], tracer.op_ns)
    for layer in _SELF_LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(tracer.self_ns[layer], tracer.op_ns)
    for layer in tracing.LAYERS:
        if layer != "cache.store":
            metrics[f"{layer}.calls"] = per_op(tracer.calls[layer])

    choices = Counter((kind, backend) for kind, backend, __ in tracer.notes["engine.dispatch"])
    for kind in ("chase", "core"):
        for backend in ("tuple", "columnar", "sql"):
            metrics[f"engine.dispatch.{kind}.{backend}"] = per_op(choices[kind, backend])

    metrics["engine.columnar.encoded_rows"] = counted("backend.columnar.encoded_rows")
    metrics["engine.columnar.decoded_rows"] = counted("backend.columnar.decoded_rows")
    metrics["engine.sql_backend.statements"] = counted("backend.sql.statements")
    metrics["engine.sql_backend.encoded_rows"] = counted("backend.sql.encoded_rows")
    metrics["engine.sql_backend.decoded_rows"] = counted("backend.sql.decoded_rows")
    metrics["engine.sql_backend.core_queries"] = counted("core.sql.queries")

    found = tracer.notes["engine.hom_kernel"]
    metrics["engine.hom_kernel.call_p50_us"] = tracer.kernel_p50_us()
    metrics["engine.hom_kernel.found_ratio"] = _ratio(sum(found), len(found))
    for name in ("search_nodes", "ac3_revisions", "backtracks", "ac3_wipeouts"):
        metrics[f"engine.hom_kernel.{name}"] = counted(f"hom.{name}", f"hom.columnar.{name}")

    def core_counted(name: str) -> float:
        return counted(f"core.{name}", f"core.columnar.{name}", f"core.sql.{name}")

    for name in ("blocks", "iso_folds", "eliminations", "rigid_blocks"):
        metrics[f"engine.core_instance.{name}"] = core_counted(name)
    metrics["engine.core_instance.memo_hit_ratio"] = _ratio(
        core_counted("memo_hits"), core_counted("memo_hits") + core_counted("memo_misses"))

    patterns = count("implies.patterns")
    metrics["core.implication.patterns"] = per_op(patterns)
    metrics["core.implication.incremental_hit_ratio"] = _ratio(
        count("implies.sweep.incremental_hits"), patterns)
    metrics["core.implication.chase_cache_hit_ratio"] = _ratio(
        count("implies.cache_hits"), count("implies.cache_hits") + count("implies.cache_misses"))

    gets = [note for note in tracer.notes["cache.store"] if len(note) == 2]
    metrics["cache.store.get_calls"] = per_op(len(gets))
    metrics["cache.store.put_calls"] = per_op(len(tracer.notes["cache.store"]) - len(gets))
    metrics["cache.store.get_share"] = _ratio(tracer.name_ns["cache.store:DiskStore.get"], tracer.op_ns)
    metrics["cache.store.put_share"] = _ratio(tracer.name_ns["cache.store:DiskStore.put"], tracer.op_ns)
    for space in ("chase", "fold", "implies", "contain"):
        hits = [hit for got, hit in gets if got == space]
        metrics[f"cache.store.hit_ratio.{space}"] = _ratio(sum(hits), len(hits))
    for name in ("read_bytes", "write_bytes", "evictions", "errors", "corrupt"):
        metrics[f"cache.store.{name}"] = counted(f"cache.disk.{name}")

    attributed = sum(ns for layer, ns in tracer.self_ns.items() if layer != tracing.ROOT_LAYER)
    metrics["trace.op_ms"] = traced.op_ns / ops_count / 1e6
    metrics["trace.overhead"] = traced.op_ns / untraced.op_ns - 1
    metrics["trace.layer_share"] = _ratio(attributed, tracer.op_ns)

    latencies = typical_ms(untraced.records)
    firsts = [ms for ms, r in zip(latencies, untraced.records) if r.first]
    repeats = [ms for ms, r in zip(latencies, untraced.records) if not r.first]
    metrics["workload.facts_per_s"] = (
        sum(r.source_facts for r in untraced.records) / (sum(latencies) / 1e3))
    metrics["workload.first_p50_ms"] = percentile(firsts, 50)
    metrics["workload.repeat_speedup"] = (
        percentile(firsts, 50) / percentile(repeats, 50) if repeats else 0.0)
    metrics["workload.store_mb"] = (
        statistics.median(untraced.store_bytes) / 2**20 if untraced.store_bytes else 0.0)
    return metrics


def probe_fail_ratio(workload: str) -> float:
    """Run the workload's known-failing probes once each: the share that fails."""
    probes = [ops.make_op(f"probe.{i}", *pair) for i, pair in enumerate(ops.PROBES.get(workload, ()))]
    failed = sum(
        not run_op(op, {(op.shape, op.n): ops.source(op.shape, op.n)}, None, Counter())[1]
        for op in probes
    )
    return _ratio(failed, len(probes))


def _warm_up(workload: str, sources: ops.Sources) -> None:
    """Run the workload's untimed warm-up operation and check it."""
    op = ops.warmup_op(workload)
    inputs = ops.prepare(op, sources)
    ok, summary = ops.check(op, inputs, ops.execute(op, inputs))
    if not ok:
        raise RuntimeError(f"warm-up operation {op.shape} gave a wrong answer: {summary}")
    cache.clear_all_caches(disk=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="time.monotonic_ns() just before the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    checkout.check_imported(repro)
    tracer = tracing.Tracer()
    tracer.resolve()  # an unresolved boundary fails the run here
    cache.configure(None)  # only warm-restart uses a disk store, its own
    sources = ops.generate_sources(args.workload)
    _warm_up(args.workload, sources)
    gc.collect()
    gc.freeze()  # set-up objects live for the whole run: keep them out of collections
    setup_ns = time.monotonic_ns() - args.t0_ns
    calibration = [calibration_ns() for __ in range(SETUP_CALIBRATION_SAMPLES)]
    setup_s = setup_ns * NOMINAL_CALIBRATION_NS / statistics.median(calibration) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace == 0:
        untraced = run_pass(args.workload, args.seed, args.seconds, sources, smoke=args.smoke)
    else:  # one untraced deck is enough as the base of the overhead
        untraced = run_pass(args.workload, args.seed, args.seconds / 2, sources,
                            min_decks=1, smoke=args.smoke)
    problems: list[str] = []
    info: dict[str, object] = {"decks": untraced.decks, "samples": len(untraced.records),
                               "deck_speed_scales": [round(x, 4) for x in untraced.scales]}
    if args.trace == 0:
        metrics = end_to_end(untraced)
        records = untraced.records
    else:
        tracer.install()
        try:
            traced = run_pass(args.workload, args.seed, 0, sources, decks=untraced.decks,
                              smoke=args.smoke, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, traced, tracer)
        metrics["probe.fail_ratio"] = probe_fail_ratio(args.workload)
        records = traced.records
        outcomes = [(r.op_id, r.ok, r.summary) for r in untraced.records]
        if outcomes != [(r.op_id, r.ok, r.summary) for r in traced.records]:
            problems.append("traced and untraced passes gave different outcomes")
        missing = tracing.EXPECTED_LAYERS[args.workload] - tracer.layers_seen()
        if missing and not args.smoke:
            problems.append(f"no spans recorded in layers {sorted(missing)}")
        info["dispatch"] = tracer.dispatch_reasons()
        info["spans"] = len(tracer.spans)
        trace_path = checkout.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "ops": [r.__dict__ for r in traced.records], **info,
        })
        info["trace_file"] = str(trace_path.relative_to(checkout.ROOT))
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    failed = sum(not r.ok for r in records)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
