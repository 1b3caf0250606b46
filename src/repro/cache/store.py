"""Schema-versioned SQLite store behind the in-memory cache tiers.

One SQLite file (``repro-cache.sqlite`` inside the configured directory)
holds every persistent cache space in a single ``entries`` table keyed by
``(space, key)``; ``key`` is always a content-derived fingerprint from
:mod:`repro.cache.fingerprint`, so two processes -- regardless of hash seed
-- address the same rows.  Design points:

- **Disabled by default.**  The store only exists when a directory is
  configured, via the ``REPRO_CACHE_DIR`` environment variable or
  :func:`configure`; the in-memory tiers and every hot path are untouched
  otherwise.
- **Schema-versioned.**  ``meta['schema_version']`` is checked on open; a
  mismatch (older/newer writer) drops all entries rather than risk decoding
  payloads with different invariants.
- **LRU by access stamp.**  Every get/put bumps a monotone stamp; when a
  space exceeds its cap, the lowest-stamped rows are deleted.
- **Corruption-tolerant.**  Any ``sqlite3`` error degrades to a cache miss
  (counted as ``cache.disk.errors``); an unreadable database file is
  deleted and recreated on open.  Undecodable payloads are handled one
  level up (:func:`repro.cache.disk_get` deletes the row and the caller
  recomputes and overwrites).
- **Fork-safe.**  SQLite connections must not cross ``fork()``; every
  operation checks the owning pid and reopens in the child on mismatch,
  so sweep workers inherit the configuration but not the connection.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import suppress
from pathlib import Path

from repro import perf

#: Version 2 dropped the ``fold`` space: a version-1 store opens empty.
SCHEMA_VERSION = 2
STORE_FILENAME = "repro-cache.sqlite"

#: Environment variable naming the cache directory (unset => disabled).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
#: Optional comma-separated list of enabled spaces (unset => all).
ENV_CACHE_SPACES = "REPRO_CACHE_SPACES"

#: Per-space entry caps (LRU-evicted beyond these).
SPACE_LIMITS: dict[str, int] = {
    "chase": 8192, "contain": 2048, "implies": 4096,
}
DEFAULT_SPACES = frozenset(SPACE_LIMITS)
_FALLBACK_LIMIT = 4096

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS entries (
    space TEXT NOT NULL,
    key TEXT NOT NULL,
    payload BLOB NOT NULL,
    stamp INTEGER NOT NULL,
    PRIMARY KEY (space, key)
);
CREATE INDEX IF NOT EXISTS idx_entries_space_stamp ON entries (space, stamp);
"""


class DiskStore:
    """The write-through on-disk tier: fingerprint-keyed blobs in SQLite."""

    def __init__(
        self,
        directory: str | os.PathLike[str],
        spaces: frozenset[str] = DEFAULT_SPACES,
        limits: dict[str, int] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / STORE_FILENAME
        self.spaces = spaces
        self.limits = dict(SPACE_LIMITS if limits is None else limits)
        self._connection: sqlite3.Connection | None = None
        self._pid = -1
        self._stamp = 0
        self._open(recreate_on_error=True)

    # ------------------------------------------------------------ connection

    def _open(self, recreate_on_error: bool) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            connection = self._connect()
        except sqlite3.Error:
            if not recreate_on_error:
                raise
            # Unreadable/corrupt database file: drop it and start fresh.
            perf.incr("cache.disk.errors")
            for suffix in ("", "-wal", "-shm"):
                with suppress(OSError):
                    os.unlink(f"{self.path}{suffix}")
            connection = self._connect()
        self._connection = connection
        self._pid = os.getpid()
        row = connection.execute("SELECT COALESCE(MAX(stamp), 0) FROM entries").fetchone()
        self._stamp = int(row[0])

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, timeout=10.0)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.executescript(_SCHEMA)
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None and row[0] != str(SCHEMA_VERSION):
            # A different schema version wrote this store: invalidate wholesale.
            connection.execute("DELETE FROM entries")
            connection.execute("DELETE FROM meta")
            row = None
        if row is None:
            connection.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        connection.commit()
        return connection

    def _conn(self) -> sqlite3.Connection:
        if self._connection is None or self._pid != os.getpid():
            # Reopen after fork(): the parent's connection must not be used
            # in the child (its fds and internal locks are shared state).
            self._connection = None
            self._open(recreate_on_error=False)
        assert self._connection is not None
        return self._connection

    def close(self) -> None:
        if self._connection is not None and self._pid == os.getpid():
            with suppress(sqlite3.Error):
                self._connection.close()
        self._connection = None

    # ------------------------------------------------------------ operations

    def enabled(self, space: str) -> bool:
        return space in self.spaces

    def get(self, space: str, key: str) -> bytes | None:
        """Return the payload for (space, key), bumping its LRU stamp."""
        if space not in self.spaces:
            return None
        try:
            connection = self._conn()
            row = connection.execute(
                "SELECT payload FROM entries WHERE space = ? AND key = ?",
                (space, key),
            ).fetchone()
            if row is None:
                perf.incr("cache.disk.misses")
                self._bump_counter(connection, "misses")
                connection.commit()
                return None
            self._stamp += 1
            connection.execute(
                "UPDATE entries SET stamp = ? WHERE space = ? AND key = ?",
                (self._stamp, space, key),
            )
            self._bump_counter(connection, "hits")
            connection.commit()
        except sqlite3.Error:
            perf.incr("cache.disk.errors")
            return None
        payload = bytes(row[0])
        perf.incr("cache.disk.hits")
        perf.incr("cache.disk.read_bytes", len(payload))
        return payload

    def put(self, space: str, key: str, payload: bytes) -> None:
        """Write-through one entry, evicting the space's LRU overflow."""
        if space not in self.spaces:
            return
        try:
            connection = self._conn()
            self._stamp += 1
            connection.execute(
                "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
                (space, key, payload, self._stamp),
            )
            limit = self.limits.get(space, _FALLBACK_LIMIT)
            count = connection.execute(
                "SELECT COUNT(*) FROM entries WHERE space = ?", (space,)
            ).fetchone()[0]
            if count > limit:
                connection.execute(
                    "DELETE FROM entries WHERE space = ? AND key IN ("
                    "SELECT key FROM entries WHERE space = ? "
                    "ORDER BY stamp ASC LIMIT ?)",
                    (space, space, count - limit),
                )
                perf.incr("cache.disk.evictions", count - limit)
            connection.commit()
        except sqlite3.Error:
            perf.incr("cache.disk.errors")
            return
        perf.incr("cache.disk.writes")
        perf.incr("cache.disk.write_bytes", len(payload))

    def delete(self, space: str, key: str) -> None:
        """Drop one entry (used when its payload failed to decode)."""
        try:
            connection = self._conn()
            connection.execute(
                "DELETE FROM entries WHERE space = ? AND key = ?", (space, key)
            )
            connection.commit()
        except sqlite3.Error:
            perf.incr("cache.disk.errors")

    def _bump_counter(self, connection: sqlite3.Connection, name: str) -> None:
        connection.execute(
            "INSERT INTO meta VALUES (?, '1') ON CONFLICT(key) DO UPDATE "
            "SET value = CAST(value AS INTEGER) + 1",
            (f"counter_{name}",),
        )

    # ------------------------------------------------------------ inspection

    def keys(self) -> list[tuple[str, str]]:
        """All (space, key) pairs, sorted (byte-stability checks compare these)."""
        connection = self._conn()
        rows = connection.execute("SELECT space, key FROM entries").fetchall()
        return sorted((str(space), str(key)) for space, key in rows)

    def entry_counts(self) -> dict[str, int]:
        connection = self._conn()
        rows = connection.execute(
            "SELECT space, COUNT(*) FROM entries GROUP BY space"
        ).fetchall()
        return {str(space): int(count) for space, count in rows}

    def counters(self) -> dict[str, int]:
        """Persistent lifetime hit/miss counters (survive restarts, unlike perf)."""
        connection = self._conn()
        rows = connection.execute(
            "SELECT key, value FROM meta WHERE key LIKE 'counter_%'"
        ).fetchall()
        counters = {"hits": 0, "misses": 0}
        for key, value in rows:
            counters[str(key)[len("counter_"):]] = int(value)
        return counters

    def size_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            with suppress(OSError):
                total += os.path.getsize(f"{self.path}{suffix}")
        return total

    def stats(self) -> dict[str, object]:
        """A JSON-serializable snapshot (the ``repro cache stats`` payload)."""
        return {
            "enabled": True,
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "spaces": sorted(self.spaces),
            "entries": self.entry_counts(),
            "counters": self.counters(),
            "size_bytes": self.size_bytes(),
        }

    # ------------------------------------------------------------ maintenance

    def clear(self) -> None:
        """Drop every entry and reset the persistent counters."""
        try:
            connection = self._conn()
            connection.execute("DELETE FROM entries")
            connection.execute("DELETE FROM meta WHERE key LIKE 'counter_%'")
            connection.commit()
        except sqlite3.Error:
            perf.incr("cache.disk.errors")
        self._stamp = 0

    def vacuum(self) -> None:
        """Reclaim on-disk space after evictions/clears."""
        try:
            connection = self._conn()
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            connection.execute("VACUUM")
        except sqlite3.Error:
            perf.incr("cache.disk.errors")


# ----------------------------------------------------------- configuration

#: Sentinel distinguishing "configure() -- revert to env" from
#: "configure(None) -- force-disable regardless of env".
_UNSET = object()

_configured = False
_configured_dir: str | None = None
_configured_spaces: frozenset[str] | None = None

_store: DiskStore | None = None
_store_dir: str | None = None


def configure(
    cache_dir: object = _UNSET, *, spaces: frozenset[str] | None = None
) -> None:
    """Set (or reset) the process-wide disk-store configuration.

    ``configure(path)`` enables the store at *path*; ``configure(None)``
    force-disables it (overriding ``REPRO_CACHE_DIR`` -- what the test
    harness does); ``configure()`` with no arguments reverts to environment
    resolution.  *spaces* restricts which cache spaces persist.
    """
    global _configured, _configured_dir, _configured_spaces, _store, _store_dir
    if cache_dir is _UNSET:
        _configured = False
        _configured_dir = None
    else:
        _configured = True
        _configured_dir = os.fspath(cache_dir) if cache_dir is not None else None  # type: ignore[arg-type]
    _configured_spaces = spaces
    if _store is not None:
        _store.close()
    _store = None
    _store_dir = None


def _resolve_dir() -> str | None:
    if _configured:
        return _configured_dir
    value = os.environ.get(ENV_CACHE_DIR)
    return value if value else None


def _resolve_spaces() -> frozenset[str]:
    if _configured_spaces is not None:
        return _configured_spaces
    value = os.environ.get(ENV_CACHE_SPACES)
    if not value:
        return DEFAULT_SPACES
    return frozenset(name.strip() for name in value.split(",") if name.strip())


def get_store() -> DiskStore | None:
    """The configured process-wide store, or None when persistence is off.

    Opening failures disable the store for the failing call only (the next
    call retries), and always degrade to "no persistence", never to an
    exception on the caller's hot path.
    """
    global _store, _store_dir
    directory = _resolve_dir()
    if directory is None:
        if _store is not None:
            _store.close()
            _store = None
            _store_dir = None
        return None
    spaces = _resolve_spaces()
    if _store is not None and (_store_dir != directory or _store.spaces != spaces):
        _store.close()
        _store = None
        _store_dir = None
    if _store is None:
        try:
            _store = DiskStore(directory, spaces)
        except (sqlite3.Error, OSError):
            perf.incr("cache.disk.errors")
            return None
        _store_dir = directory
    return _store


__all__ = [
    "DiskStore",
    "SCHEMA_VERSION",
    "STORE_FILENAME",
    "ENV_CACHE_DIR",
    "ENV_CACHE_SPACES",
    "SPACE_LIMITS",
    "DEFAULT_SPACES",
    "configure",
    "get_store",
]
