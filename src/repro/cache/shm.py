"""Shared-memory publication of interned universes for fork-pool workers.

The parallel pattern sweep fans work out to a fork pool.  Before this
module, the from-scratch sweep pickled every pattern through the task
queue -- per task, per worker.  Here the parent serializes the whole spec
*once* into a ``multiprocessing.shared_memory`` segment; workers attach,
deserialize once (re-interning into their inherited tables, so every object
lands on its canonical identity), memoize the result, and from then on
receive plain integer indexes as tasks.

The segment is published before the pool forks and unlinked by the parent
when the pool is done.  :func:`publish` returns None when shared memory is
unavailable (platform, permissions, exhausted ``/dev/shm``); callers fall
back to their pre-shm path.  Traffic is measured by the ``cache.shm.*``
perf counters.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

from repro import perf

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - platform without shared memory
    shared_memory = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ShmHandle:
    """Name + payload size of a published segment (inherited by workers)."""

    name: str
    size: int


#: Segments this process created (owner must close *and* unlink them).
_OWNED: dict[str, object] = {}
#: Per-process memo of attached payloads: one deserialization per worker.
_ATTACHED: dict[str, object] = {}


def publish(payload: object) -> ShmHandle | None:
    """Serialize *payload* into a fresh shared-memory segment.

    Returns a handle consumable by :func:`attach` in forked children, or
    None when shared memory cannot be used (callers must keep a fallback).
    """
    if shared_memory is None:
        return None
    try:
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        segment = shared_memory.SharedMemory(create=True, size=max(len(data), 1))
    except Exception:
        return None
    segment.buf[: len(data)] = data
    _OWNED[segment.name] = segment
    perf.incr("cache.shm.segments")
    perf.incr("cache.shm.bytes", len(data))
    return ShmHandle(segment.name, len(data))


def attach(handle: ShmHandle) -> object:
    """Deserialize the published payload, once per process.

    Unpickling routes every interned object through its constructor, so the
    attached universe coincides pointer-for-pointer with the fork-inherited
    intern tables.  The attach cost (one unpickle) is recorded in
    ``cache.shm.attach_ns`` and amortized over all tasks of the worker.
    """
    cached = _ATTACHED.get(handle.name)
    if cached is None:
        assert shared_memory is not None
        start = time.perf_counter_ns()
        # Consumers are fork children sharing the parent's resource tracker,
        # so this attach-side registration is an idempotent set add and the
        # owning parent's unlink() remains the single deregistration.
        segment = shared_memory.SharedMemory(name=handle.name)
        try:
            cached = pickle.loads(bytes(segment.buf[: handle.size]))
        finally:
            segment.close()
        _ATTACHED[handle.name] = cached
        perf.incr("cache.shm.attaches")
        perf.incr("cache.shm.attach_ns", time.perf_counter_ns() - start)
    return cached


def unlink(handle: ShmHandle | None) -> None:
    """Release a published segment (owner side); safe to call with None."""
    if handle is None:
        return
    _ATTACHED.pop(handle.name, None)
    segment = _OWNED.pop(handle.name, None)
    if segment is not None:
        try:
            segment.close()  # type: ignore[attr-defined]
            segment.unlink()  # type: ignore[attr-defined]
        except Exception:
            pass


__all__ = ["ShmHandle", "publish", "attach", "unlink"]
