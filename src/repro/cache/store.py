"""Schema-versioned SQLite store behind the in-memory cache tiers.

One SQLite file (``repro-cache.sqlite`` inside the configured directory)
holds the persistent cache spaces -- the ``implies``, ``contain`` and
``glav`` verdicts, listed in :data:`SPACE_LIMITS` -- in one ``entries``
table keyed by ``(space, key)``; ``key`` is always a content-derived
fingerprint from :mod:`repro.cache.fingerprint`, so two processes --
regardless of hash seed -- address the same rows.  Design points:

- **Disabled by default.**  The store only exists when a directory is
  configured, via the ``REPRO_CACHE_DIR`` environment variable or
  :func:`configure`; the in-memory tiers and every hot path are untouched
  otherwise.
- **Schema-versioned.**  ``meta['schema_version']`` is checked on open; a
  mismatch (older/newer writer) drops all entries rather than risk decoding
  payloads with different invariants.
- **LRU by access stamp.**  Every hit and put bumps a monotone stamp; when a
  space exceeds its cap, the lowest-stamped rows are deleted.
- **Corruption-tolerant.**  Any ``sqlite3`` error degrades to a cache miss
  (counted as ``cache.disk.errors``); an unreadable database file is
  deleted and recreated on open.  Undecodable payloads are handled one
  level up (:func:`repro.cache.disk_get` deletes the row and the caller
  recomputes and overwrites).
- **Fork-safe.**  SQLite connections must not cross ``fork()``; every
  operation checks the owning pid and reopens in the child on mismatch,
  so a forked child inherits the configuration but not the connection.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import suppress
from pathlib import Path

from repro import perf

#: Version 2 dropped the ``fold`` space and version 3 the ``chase`` space:
#: a store written by an older version opens empty.  Adding a space needs
#: no bump: an older store simply has no rows in it.
SCHEMA_VERSION = 3
STORE_FILENAME = "repro-cache.sqlite"

#: Environment variable naming the cache directory (unset => disabled).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: The cache spaces and their entry caps (LRU-evicted beyond these).
SPACE_LIMITS: dict[str, int] = {"contain": 2048, "glav": 2048, "implies": 4096}

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

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / STORE_FILENAME
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

    def get(self, space: str, key: str) -> bytes | None:
        """Return the payload for (space, key), bumping its LRU stamp."""
        try:
            connection = self._conn()
            row = connection.execute(
                "SELECT payload FROM entries WHERE space = ? AND key = ?",
                (space, key),
            ).fetchone()
            if row is None:
                perf.incr("cache.disk.misses")
                return None
            self._stamp += 1
            connection.execute(
                "UPDATE entries SET stamp = ? WHERE space = ? AND key = ?",
                (self._stamp, space, key),
            )
            connection.commit()
        except sqlite3.Error:
            perf.incr("cache.disk.errors")
            return None
        payload = bytes(row[0])
        perf.incr("cache.disk.hits")
        perf.incr("cache.disk.read_bytes", len(payload))
        return payload

    def put(self, space: str, key: str, payload: bytes) -> None:
        """Write-through one entry, evicting the space's LRU overflow.

        Raises ValueError for a space not listed in :data:`SPACE_LIMITS`.
        """
        limit = SPACE_LIMITS.get(space)
        if limit is None:
            raise ValueError(f"unknown cache space {space!r}")
        try:
            connection = self._conn()
            self._stamp += 1
            connection.execute(
                "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
                (space, key, payload, self._stamp),
            )
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
            "entries": self.entry_counts(),
            "size_bytes": self.size_bytes(),
        }

    # ------------------------------------------------------------ maintenance

    def clear(self) -> None:
        """Drop every entry."""
        try:
            connection = self._conn()
            connection.execute("DELETE FROM entries")
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

_store: DiskStore | None = None
_store_dir: str | None = None


def configure(cache_dir: object = _UNSET) -> None:
    """Set (or reset) the process-wide disk-store configuration.

    ``configure(path)`` enables the store at *path*; ``configure(None)``
    force-disables it (overriding ``REPRO_CACHE_DIR`` -- what the test
    harness does); ``configure()`` with no arguments reverts to environment
    resolution.
    """
    global _configured, _configured_dir, _store, _store_dir
    if cache_dir is _UNSET:
        _configured = False
        _configured_dir = None
    else:
        _configured = True
        _configured_dir = os.fspath(cache_dir) if cache_dir is not None else None  # type: ignore[arg-type]
    if _store is not None:
        _store.close()
    _store = None
    _store_dir = None


def _resolve_dir() -> str | None:
    if _configured:
        return _configured_dir
    value = os.environ.get(ENV_CACHE_DIR)
    return value if value else None


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
    if _store is not None and _store_dir != directory:
        _store.close()
        _store = None
        _store_dir = None
    if _store is None:
        try:
            _store = DiskStore(directory)
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
    "SPACE_LIMITS",
    "configure",
    "get_store",
]
