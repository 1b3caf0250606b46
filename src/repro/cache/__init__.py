"""repro.cache -- the persistence layer behind the in-memory cache tiers.

The in-memory cache tiers (the IMPLIES chase cache, the verdict caches)
are process-local.  This package makes the warm state survive restarts:

- :mod:`repro.cache.fingerprint` -- content-derived SHA-256 keys
  (injective length-prefixed encodings; independent of ``PYTHONHASHSEED``).
- :mod:`repro.cache.store` -- a schema-versioned, LRU-evicted,
  corruption-tolerant SQLite store, enabled by ``REPRO_CACHE_DIR`` or
  :func:`configure`; disabled by default, leaving hot paths untouched.

This module is the facade: pickle-level :func:`disk_get` / :func:`disk_put`
used by the engine hook points, :func:`clear_all_caches` resetting every
tier together, and :func:`cache_stats` for the ``repro cache`` CLI.
"""

from __future__ import annotations

import pickle

from repro import perf
from repro.cache.store import (
    DiskStore,
    SCHEMA_VERSION,
    configure,
    get_store,
)

#: The persistent cache spaces (see ``store.SPACE_LIMITS`` for caps).
SPACE_CHASE = "chase"
SPACE_IMPLIES = "implies"
SPACE_CONTAIN = "contain"


def disk_get(space: str, key: str) -> object | None:
    """Fetch and unpickle one entry; any failure degrades to a miss.

    A payload that fails to unpickle counts as ``cache.disk.corrupt`` and
    its row is deleted -- the caller recomputes and overwrites, which is the
    corruption-recovery contract of the store.
    """
    store = get_store()
    if store is None:
        return None
    raw = store.get(space, key)
    if raw is None:
        return None
    try:
        return pickle.loads(raw)
    except Exception:
        perf.incr("cache.disk.corrupt")
        store.delete(space, key)
        return None


def disk_put(space: str, key: str, value: object) -> None:
    """Pickle and write-through one entry (no-op when the store is off)."""
    store = get_store()
    if store is None or not store.enabled(space):
        return
    try:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return
    store.put(space, key, payload)


def clear_all_caches(*, disk: bool = True) -> None:
    """Reset every cache tier together: chase LRU, intern stats, and (with
    ``disk=True``) the persistent store.

    One call keeps "cold" measurements and test isolation honest: no
    in-memory tier is left warm by accident.  ``disk=False`` drops only the
    in-memory tiers -- exactly what a warm-restart benchmark needs to model
    a fresh process over a populated store.
    """
    from repro.core.implication import clear_chase_cache
    from repro.logic import intern

    clear_chase_cache()
    intern.reset_stats()
    if disk:
        store = get_store()
        if store is not None:
            store.clear()


def cache_stats() -> dict[str, object]:
    """A JSON-serializable snapshot of the persistent store (CLI payload)."""
    store = get_store()
    if store is None:
        return {"enabled": False, "path": None}
    return store.stats()


__all__ = [
    "DiskStore",
    "SCHEMA_VERSION",
    "SPACE_CHASE",
    "SPACE_CONTAIN",
    "SPACE_IMPLIES",
    "configure",
    "get_store",
    "disk_get",
    "disk_put",
    "clear_all_caches",
    "cache_stats",
]
