"""Per-layer spans for the traced run, recorded from the benchmark's side.

The program has no spans of its own yet, so the traced run wraps the calls
into each layer's public functions.  :data:`BOUNDARIES` is the one table of
those boundaries: (consumer module, attribute, layer, note).  A name bound by
``from ... import`` lives in the importing module's namespace, so it is
patched there; a function imported inside a function body is looked up on its
own module at call time, so patching that module covers it.

Each span records its name, layer, start, end, parent span and operation id.
Spans stay in memory and are written to JSON when the run ends.  A layer's
*self* time is its spans' durations minus the time their child spans cover;
its *busy* time is the union of its spans (outermost spans of the layer).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: (consumer module, attribute, layer, note).  The note names what the span
#: keeps from the call: the dispatch decision, whether a homomorphism was
#: found, or the cache space a store access touched.
BOUNDARIES: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.logic.parser", "parse_tgd", "logic.parser", None),
    ("repro.logic.parser", "parse_nested_tgd", "logic.parser", None),
    ("repro.logic.parser", "parse_so_tgd", "logic.parser", None),
    ("repro.analysis.frontier", "frontier_report", "analysis.frontier", None),
    ("repro.analysis.containment", "frontier_report", "analysis.frontier", None),
    ("repro.analysis.containment", "check_containment", "analysis.containment", None),
    ("repro.engine.dispatch", "choose_backend", "engine.dispatch", "chase-choice"),
    ("repro.engine.dispatch", "choose_core_backend", "engine.dispatch", "core-choice"),
    ("repro.engine.chase", "chase", "engine.chase", None),
    ("repro.engine.chase", "compile_clause_program", "engine.chase", None),
    ("repro.core.implication", "chase", "engine.chase", None),
    ("repro.core.implication", "compile_clause_program", "engine.chase", None),
    ("repro.core.implication", "run_clause_program", "engine.chase", None),
    ("repro.core.implication", "run_clause_program_delta", "engine.chase", None),
    ("repro.engine.columnar", "columnar_execute_exchange", "engine.columnar", None),
    ("repro.engine.sql_backend", "check_sql_backend_supported", "engine.sql_backend", None),
    ("repro.engine.sql_backend", "sql_execute_exchange", "engine.sql_backend", None),
    ("repro.engine.sql_backend", "sql_core_supported", "engine.sql_backend", None),
    ("repro.engine.sql_backend", "sql_core", "engine.sql_backend", None),
    ("repro.core.implication", "find_homomorphism", "engine.hom_kernel", "found"),
    ("repro.engine.homomorphism", "find_homomorphism", "engine.hom_kernel", "found"),
    ("repro.engine.core_instance", "block_homomorphism", "engine.hom_kernel", "found"),
    ("repro.engine.core_instance", "solve_encoded", "engine.hom_kernel", "found"),
    ("repro.engine.core_instance", "core", "engine.core_instance", None),
    ("repro.core.fblock_analysis", "core", "engine.core_instance", None),
    ("repro.core.implication", "implies_tgd", "core.implication", None),
    ("repro.core.fblock_analysis", "cached_chase", "core.implication", None),
    ("repro.core.glav_equivalence", "decide_bounded_fblock_size", "core.fblock_analysis", None),
    ("repro.cache.store", "DiskStore.get", "cache.store", "get"),
    ("repro.cache.store", "DiskStore.put", "cache.store", "put"),
    ("repro.core.implication", "fingerprint_facts", "cache.fingerprint", None),
    ("repro.core.implication", "fingerprint_texts", "cache.fingerprint", None),
    ("repro.core.implication", "combine_fingerprints", "cache.fingerprint", None),
    ("repro.engine.core_instance", "fingerprint_fact_sequence", "cache.fingerprint", None),
    ("repro.engine.core_instance", "fingerprint_encoded_sequence", "cache.fingerprint", None),
    ("repro.analysis.containment", "fingerprint_texts", "cache.fingerprint", None),
)

LAYERS = tuple(dict.fromkeys(layer for __, __, layer, __ in BOUNDARIES))

#: The layers each workload exercises: a traced run must record at least one
#: span in each, or the boundary table has drifted from the code.
EXPECTED_LAYERS: dict[str, frozenset[str]] = {
    "decide-mix": frozenset({
        "logic.parser", "analysis.frontier", "analysis.containment", "engine.chase",
        "engine.hom_kernel", "engine.core_instance", "core.implication",
        "core.fblock_analysis",
    }),
    "exchange-core": frozenset({
        "logic.parser", "engine.dispatch", "engine.chase", "engine.columnar",
        "engine.sql_backend", "engine.hom_kernel", "engine.core_instance",
        "cache.fingerprint",
    }),
    "fblock-core": frozenset({
        "logic.parser", "engine.dispatch", "engine.chase", "engine.hom_kernel",
        "engine.core_instance",
    }),
    "warm-restart": frozenset({
        "logic.parser", "analysis.frontier", "analysis.containment", "engine.chase",
        "engine.hom_kernel", "engine.core_instance", "core.implication",
        "core.fblock_analysis", "cache.store", "cache.fingerprint",
    }),
}

ROOT_LAYER = "bench.op"


class BoundaryError(RuntimeError):
    """A boundary of the table does not resolve to a callable in the program."""


def _note(kind: str, args: tuple, result: Any) -> Any:
    if kind == "chase-choice" or kind == "core-choice":
        return [kind[:-7], result.backend, result.reason]
    if kind == "found":
        return result is not None
    if kind == "get":  # DiskStore.get(self, space, key)
        return [args[1], result is not None]
    return [args[1]]  # DiskStore.put(self, space, key, payload)


class Tracer:
    """Patches the boundaries and records spans while an operation runs."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self._op = ""
        self._next_id = 0
        self._stack: list[list] = []  # [span id, layer, start ns, child ns, parent id]
        self._depth: Counter[str] = Counter()
        self._patches: list[tuple[object, str, Callable]] = []
        self.calls: Counter[str] = Counter()
        self.busy_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.name_ns: Counter[str] = Counter()
        self.op_ns = 0
        self.notes: dict[str, list] = defaultdict(list)
        self.kernel_ns: list[int] = []

    # ------------------------------------------------------------ patching

    @staticmethod
    def resolve() -> list[tuple[object, str, Callable, str, str, str | None]]:
        """Resolve every boundary to (owner, name, original, layer, label, note).

        Raises :class:`BoundaryError` naming every boundary that does not
        resolve, so a renamed or moved function fails the run loudly.
        """
        resolved, missing = [], []
        for module_name, attribute, layer, note in BOUNDARIES:
            label = f"{module_name.removeprefix('repro.')}:{attribute}"
            try:
                owner: object = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{module_name}.{attribute} ({exc})")
                continue
            if not callable(original):
                missing.append(f"{module_name}.{attribute} (not callable)")
                continue
            resolved.append((owner, name, original, layer, label, note))
        if missing:
            raise BoundaryError("unresolved trace boundaries: " + "; ".join(missing))
        return resolved

    def install(self) -> None:
        for owner, name, original, layer, label, note in self.resolve():
            self._patches.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, label, note))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, original: Callable, layer: str, name: str, note: str | None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            tracer._enter(layer)
            result, returned = None, False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                tracer._exit(name, _note(note, args, result) if note and returned else None)

        return traced

    # --------------------------------------------------------------- spans

    def _enter(self, layer: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, layer, perf_counter_ns(), 0, parent])
        self._depth[layer] += 1

    def _exit(self, name: str, note: Any) -> None:
        end = perf_counter_ns()
        span_id, layer, start, child_ns, parent = self._stack.pop()
        duration = end - start
        self._depth[layer] -= 1
        if self._stack:
            self._stack[-1][3] += duration
        self.calls[layer] += 1
        self.self_ns[layer] += duration - child_ns
        self.name_ns[name] += duration
        if not self._depth[layer]:
            self.busy_ns[layer] += duration
        if layer == "engine.hom_kernel":
            self.kernel_ns.append(duration)
        elif layer == ROOT_LAYER:
            self.op_ns += duration
        if note is not None:
            self.notes[layer].append(note)
        self.spans.append((span_id, parent, self._op, layer, name, start, end, note))

    def begin(self, op_id: str) -> None:
        """Open the root span of one timed operation and start recording."""
        self._op = op_id
        self.active = True
        self._enter(ROOT_LAYER)

    def end(self) -> None:
        """Close the operation's root span and stop recording."""
        self._exit("op", None)
        self.active = False

    # ------------------------------------------------------------- results

    def layers_seen(self) -> set[str]:
        return {layer for layer, count in self.calls.items() if count and layer != ROOT_LAYER}

    def dispatch_reasons(self) -> dict[str, int]:
        reasons = Counter(f"{kind} -> {backend}: {reason}"
                          for kind, backend, reason in self.notes["engine.dispatch"])
        return dict(sorted(reasons.items()))

    def kernel_p50_us(self) -> float:
        return statistics.median(self.kernel_ns) / 1e3 if self.kernel_ns else 0.0

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span plus *meta* as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            **meta,
            "fields": ["id", "parent", "op", "layer", "name", "start_ns", "end_ns", "note"],
            "spans": self.spans,
        }
        with path.open("w") as handle:
            json.dump(document, handle, separators=(",", ":"))
