"""Process-wide hash-consing (interning) tables for the logic layer.

Every structural value of the logic stack -- :class:`~repro.logic.values.Constant`,
:class:`~repro.logic.values.Null`, :class:`~repro.logic.values.Variable`,
:class:`~repro.logic.terms.FuncTerm`, :class:`~repro.logic.atoms.Atom`, and
:class:`~repro.core.patterns.Pattern` -- is *interned*: the constructor
consults a process-wide table keyed by the structural identity and returns
the one canonical object for it.  Two structurally equal objects are
therefore the *same* object (``a == b`` iff ``a is b``), which turns the
engine's innermost operations -- set membership, dict lookups, equality
checks during matching and homomorphism search -- into pointer comparisons,
and lets every derived quantity (hash, sort key, node count, variable set)
be computed once at intern time and shared by all users.

The tables hold weak references: an interned object lives exactly as long
as something outside the table references it, so long-running processes do
not accumulate every value ever constructed.

Pickling round-trips through the constructor (``__reduce__`` on each
interned class), so objects read back from the persistent store re-intern
on arrival and the identity invariant survives serialization.

Table traffic is counted locally (two plain integers -- no per-construction
dict update on the hot path) and published to :mod:`repro.perf` as
``intern.hits`` / ``intern.misses`` by :func:`publish_stats`.

Beyond the tables, every interned object receives a **dense id**: a small
per-kind integer assigned at intern time (0, 1, 2, ... in interning order).
Dense ids are per-process -- the same term interned in two processes may get
different ids -- but within a process they give every canonical object a
compact, stable address, which is what columnar layouts index by.  Cross-process cache
keys never use dense ids (or ``hash()``, which is seed-dependent); they use
the content-derived fingerprints of :mod:`repro.cache.fingerprint`.
"""

from __future__ import annotations

from typing import TypeVar
from weakref import WeakValueDictionary

_T = TypeVar("_T")

#: Locally accumulated table traffic (never reset; see :func:`publish_stats`).
_hits = 0
_misses = 0
_published_hits = 0
_published_misses = 0

#: Next dense id per interned kind (class name -> next id).  Dense ids are
#: never recycled: a weakly-collected object's id stays burned, so live ids
#: are unique for the lifetime of the process.
_dense_next: dict[str, int] = {}


def new_table() -> "WeakValueDictionary[object, object]":
    """Return a fresh weak intern table (one per interned class)."""
    return WeakValueDictionary()


def intern_into(table: "WeakValueDictionary[object, _T]", key: object, candidate: _T) -> _T:
    """Intern *candidate* under *key*; return the canonical object.

    ``setdefault`` keeps the invariant under concurrent construction: if two
    callers race, both receive whichever object landed in the table.
    """
    global _hits, _misses
    canon = table.setdefault(key, candidate)
    if canon is candidate:
        _misses += 1
    else:
        _hits += 1
    return canon


def note_hit() -> None:
    """Record a fast-path table hit (the candidate was never constructed)."""
    global _hits
    _hits += 1


def next_dense_id(kind: str) -> int:
    """Assign and return the next dense integer id for interned *kind*.

    Called once per interned object, on the constructor miss path just before
    the candidate enters its table.  Ids count up from 0 per kind; under a
    (rare) concurrent-construction race both candidates draw an id but only
    the table winner's id stays observable, so ids remain unique though not
    perfectly gapless.
    """
    value = _dense_next.get(kind, 0)
    _dense_next[kind] = value + 1
    return value


def dense_counts() -> dict[str, int]:
    """Return the number of dense ids assigned so far, per interned kind."""
    return dict(_dense_next)


def stats() -> dict[str, int]:
    """Return the cumulative intern-table traffic of this process."""
    return {"hits": _hits, "misses": _misses}


def reset_stats() -> None:
    """Zero the local traffic counters and the publish watermark.

    Part of :func:`repro.cache.clear_all_caches`: after a reset, the next
    :func:`publish_stats` flushes only traffic accrued after the reset, so
    tests and benchmarks measure their own interning and nothing earlier.
    Dense-id assignment is *not* reset -- ids of live objects must stay
    unique for the lifetime of the process.
    """
    global _hits, _misses, _published_hits, _published_misses
    _hits = 0
    _misses = 0
    _published_hits = 0
    _published_misses = 0


def publish_stats() -> dict[str, int]:
    """Flush the traffic accrued since the last publish into :mod:`repro.perf`.

    The interning fast path deliberately does not touch the perf counters
    (one dict update per object construction would be the innermost loop);
    callers that want ``intern.hits`` / ``intern.misses`` in a perf snapshot
    call this once at measurement boundaries.
    """
    global _published_hits, _published_misses
    from repro import perf

    delta_hits = _hits - _published_hits
    delta_misses = _misses - _published_misses
    if delta_hits:
        perf.incr("intern.hits", delta_hits)
    if delta_misses:
        perf.incr("intern.misses", delta_misses)
    _published_hits = _hits
    _published_misses = _misses
    return {"hits": delta_hits, "misses": delta_misses}


__all__ = [
    "new_table",
    "intern_into",
    "note_hit",
    "next_dense_id",
    "dense_counts",
    "stats",
    "reset_stats",
    "publish_stats",
]
