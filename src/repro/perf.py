"""Lightweight engine statistics: counters populated by the hot paths.

The chase engines, the homomorphism search, and the IMPLIES procedure record
what they do -- fixpoint rounds, delta sizes, triggers fired, cache hits,
backtracks -- into a process-global :class:`PerfStats` object.  The counters
make performance claims *measurable*: ``benchmarks/report.py`` prints them
after each workload, the scaling benchmarks record them in ``BENCH_*.json``
artifacts, and tests can assert on them (e.g. "the second sweep hits the
chase cache").

Counter names are dotted strings, grouped by subsystem:

========================  =====================================================
``chase.rounds``          fixpoint rounds run by the egd chase
``chase.delta_facts``     facts in the deltas matched by semi-naive rounds
``chase.triggers``        triggers fired: clause emissions (oblivious
                          chase), fired triggers (standard chase),
                          triggerings created (``chase_nested`` forest)
``chase.facts``           facts emitted by the oblivious chase engines
``chase.fixpoint_rounds``  rounds run by ``engine.fixpoint_chase``
``match.memo_hits``       child-match memoization hits of the
                          ``chase_nested`` forest
``hom.backtracks``        value choices undone during homomorphism search
``hom.kernel_calls``      calls into the homomorphism kernel, through
                          either seeder (``block_homomorphism`` or the
                          columnar core's ``solve_encoded``)
``hom.ac3_revisions``     per-fact candidate revisions during AC-3
                          propagation
``hom.ac3_wipeouts``      searches refuted by propagation alone (an emptied
                          domain or candidate list)
``hom.search_nodes``      nodes visited by the most-constrained-null search
``core.blocks``           null-containing f-blocks seen by ``core``, on
                          every backend (tuple, columnar, SQL)
``core.iso_folds``        duplicate blocks dropped as isomorphic copies
``core.eliminations``     eliminating retractions applied
``core.rigid_blocks``     blocks proven rigid (no eliminable null)
``core.orbit_skips``      retraction attempts skipped because a null in the
                          same automorphism orbit already failed (tuple and
                          columnar engines)
``core.sql.queries``      eliminating-homomorphism SELECT joins executed by
                          the SQL core pushdown
``implies.patterns``      k-patterns checked by ``implies_tgd``
``implies.cache_hits``    chase-cache hits inside ``implies_tgd``
``implies.cache_misses``  chase-cache misses inside ``implies_tgd``
``implies.subsumption_checks``  syntactic-subsumption pre-passes attempted
``implies.subsumption_skips``   pattern sweeps skipped: the rhs was
                          trivially implied (``analysis.subsumption``)
``implies.sweep.incremental_hits``  patterns whose chase was extended from
                          the parent pattern's cached chase by the new
                          leaf's delta (DAG-incremental sweep), instead of
                          being re-chased from scratch
``implies.sweep.candidates``  leaf attachments the incremental sweep built
                          canonical patterns for: those left after the
                          node-count and leaf-part checks of the
                          canonical-parent rule
``implies.sweep.hom_fallbacks``  incremental-sweep patterns whose check
                          ran the full hom search: the chase lost the
                          parent's image, or the parent's homomorphism did
                          not extend to the new leaf's target facts
``implies.verdict_disk_hits``  whole IMPLIES verdicts answered by the
                          persistent verdict store (``repro.cache``)
``cache.disk.hits``       persistent-store lookups that found a row
``cache.disk.misses``     persistent-store lookups that found nothing
``cache.disk.writes``     entries written through to the persistent store
``cache.disk.read_bytes``   payload bytes read from the persistent store
``cache.disk.write_bytes``  payload bytes written to the persistent store
``cache.disk.evictions``  rows LRU-evicted past a space's entry cap
``cache.disk.errors``     sqlite-level failures degraded to cache misses
``cache.disk.corrupt``    payloads that failed to unpickle (row deleted,
                          value recomputed and overwritten)
``intern.hits``           hash-consing table hits (an equal object already
                          existed); accumulated locally and flushed by
                          ``logic.intern.publish_stats`` at measurement
                          boundaries (``implies_tgd`` flushes on return)
``intern.misses``         hash-consing table misses (a new canonical object
                          was interned)
``backend.sql.statements``  SQL statements executed by the pushdown backend
                          (DDL, loads, compiled INSERT...SELECTs, core
                          SELECTs and DELETEs)
``backend.sql.encoded_rows``  facts encoded into SQL rows (loads into SQLite)
``backend.sql.decoded_rows``  SQL rows decoded back into interned facts
``backend.columnar.joins``  index-seeded per-atom joins performed by the
                          columnar matcher; accumulated locally and flushed
                          at engine exit
``backend.columnar.encoded_rows``  facts encoded into columnar id rows
``backend.columnar.decoded_rows``  columnar rows decoded back into facts
``containment.queries``   ``Sigma <= Sigma'`` queries answered by
                          ``analysis.containment.check_containment``
``containment.checks``    gated IMPLIES sweeps actually run by the
                          containment / redundancy analyses
``containment.refuted``   right-hand dependencies refuted with a witness
``containment.refused``   queries refused at the admissibility gate
                          (uncertified frontier, budget, undecidable rhs)
``containment.redundant``  dependencies found semantically redundant
                          (lint MC001 / ``optimize(semantic=True)``)
``containment.verdict_disk_hits``  whole containment reports answered by
                          the persistent ``contain`` store (``repro.cache``)
``glav.verdict_disk_hits``  whole f-block boundedness (GLAV-equivalence)
                          verdicts answered by the persistent ``glav``
                          store (``repro.cache``)
========================  =====================================================

The overhead is one dict update per recorded event; events are recorded at
round/trigger granularity (never per candidate inside the innermost loops --
those are accumulated locally and flushed once).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator


class PerfStats:
    """A named bag of monotonically increasing counters."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the current counter values."""
        return dict(self.counters)

    def reset(self) -> None:
        self.counters.clear()

    def merge(self, other: "PerfStats | dict[str, int]") -> None:
        """Add another stats object's counters into this one (used by
        :func:`measuring` to fold a block's counters into the enclosing ones)."""
        items = other.counters if isinstance(other, PerfStats) else other
        self.counters.update(items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"PerfStats({inner})"


#: The process-global stats object every engine records into.
STATS = PerfStats()


def incr(name: str, amount: int = 1) -> None:
    """Record *amount* events named *name* on the global stats object."""
    STATS.counters[name] += amount


def get(name: str) -> int:
    """Return the current value of counter *name* (0 if never recorded)."""
    return STATS.get(name)


def snapshot() -> dict[str, int]:
    """Return a copy of all global counters."""
    return STATS.snapshot()


def reset() -> None:
    """Zero all global counters."""
    STATS.reset()


@contextmanager
def measuring() -> Iterator[PerfStats]:
    """Run a block against fresh counters; restore (and keep) the old ones after.

        >>> from repro import perf
        >>> with perf.measuring() as stats:
        ...     perf.incr("chase.rounds")
        >>> stats.get("chase.rounds")
        1
    """
    global STATS
    saved = STATS
    STATS = PerfStats()
    try:
        yield STATS
    finally:
        fresh = STATS
        STATS = saved
        STATS.merge(fresh)


__all__ = ["PerfStats", "STATS", "incr", "get", "snapshot", "reset", "measuring"]
