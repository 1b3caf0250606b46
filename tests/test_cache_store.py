"""The persistent SQLite store: schema versioning, LRU eviction, corruption
recovery, configuration resolution, and the maintenance operations behind
``repro cache``.

The conftest hook force-disables persistence before every test, so each test
opts back in explicitly with ``configure(tmp_path)`` (or the env variable)
and never sees another test's store.
"""

from __future__ import annotations

import os
import sqlite3

import pytest

import repro.cache as cache
from repro.cache import store as store_mod
from repro.cache.store import (
    DiskStore,
    ENV_CACHE_DIR,
    SCHEMA_VERSION,
    STORE_FILENAME,
    configure,
    get_store,
)


class TestDiskStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.get("implies", "k1") is None
        store.put("implies", "k1", b"payload-1")
        assert store.get("implies", "k1") == b"payload-1"
        store.close()

    def test_spaces_are_isolated(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("implies", "k", b"implies-value")
        store.put("contain", "k", b"contain-value")
        assert store.get("implies", "k") == b"implies-value"
        assert store.get("contain", "k") == b"contain-value"
        store.close()

    def test_put_to_unknown_space_raises(self, tmp_path):
        store = DiskStore(tmp_path)
        with pytest.raises(ValueError, match="chase"):
            store.put("chase", "k", b"v")
        assert store.entry_counts() == {}
        store.close()

    def test_overwrite_replaces_payload(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("implies", "k", b"old")
        store.put("implies", "k", b"new")
        assert store.get("implies", "k") == b"new"
        assert store.entry_counts() == {"implies": 1}
        store.close()

    def test_persists_across_reopen(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("implies", "verdict", b"holds")
        store.close()
        reopened = DiskStore(tmp_path)
        assert reopened.get("implies", "verdict") == b"holds"
        reopened.close()

    def test_keys_sorted_and_counts(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("contain", "b", b"2")
        store.put("implies", "a", b"1")
        store.put("contain", "a", b"3")
        assert store.keys() == [("contain", "a"), ("contain", "b"), ("implies", "a")]
        assert store.entry_counts() == {"contain": 2, "implies": 1}
        store.close()

    def test_stats_shape(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("implies", "k", b"v")
        stats = store.stats()
        assert stats["enabled"] is True
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["entries"] == {"implies": 1}
        assert str(stats["path"]).endswith(STORE_FILENAME)
        assert isinstance(stats["size_bytes"], int)
        store.close()


class TestEviction:
    def test_lru_eviction_past_cap(self, tmp_path, monkeypatch):
        monkeypatch.setitem(store_mod.SPACE_LIMITS, "implies", 3)
        store = DiskStore(tmp_path)
        for i in range(5):
            store.put("implies", f"k{i}", b"v")
        assert store.entry_counts() == {"implies": 3}
        # the two oldest-stamped entries are gone
        assert store.get("implies", "k0") is None
        assert store.get("implies", "k1") is None
        assert store.get("implies", "k4") == b"v"
        store.close()

    def test_get_refreshes_lru_stamp(self, tmp_path, monkeypatch):
        monkeypatch.setitem(store_mod.SPACE_LIMITS, "implies", 3)
        store = DiskStore(tmp_path)
        for i in range(3):
            store.put("implies", f"k{i}", b"v")
        store.get("implies", "k0")  # k0 becomes most-recent; k1 is now LRU
        store.put("implies", "k3", b"v")
        assert store.get("implies", "k0") == b"v"
        assert store.get("implies", "k1") is None
        store.close()

    def test_eviction_is_per_space(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_mod, "SPACE_LIMITS", {"implies": 2, "contain": 100})
        store = DiskStore(tmp_path)
        for i in range(4):
            store.put("implies", f"c{i}", b"v")
            store.put("contain", f"f{i}", b"v")
        assert store.entry_counts() == {"contain": 4, "implies": 2}
        store.close()


def _write_old_store(directory, version: str, rows) -> None:
    """Leave a store in *directory* as schema *version* wrote it, holding *rows*."""
    DiskStore(directory).close()
    connection = sqlite3.connect(directory / STORE_FILENAME)
    connection.executemany("INSERT INTO entries VALUES (?, ?, ?, 1)", rows)
    connection.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'", (version,))
    connection.commit()
    connection.close()


class TestInvalidation:
    def test_schema_version_mismatch_drops_entries(self, tmp_path):
        _write_old_store(tmp_path, "999", [("implies", "k", b"v")])
        reopened = DiskStore(tmp_path)
        assert reopened.get("implies", "k") is None
        assert reopened.entry_counts() == {}
        reopened.close()

    def test_version_1_store_with_fold_rows_opens_empty(self, tmp_path):
        # Version 1 also persisted core block folds in a "fold" space; a
        # store written then must be recomputed from, never served.
        _write_old_store(tmp_path, "1", [("implies", "k", b"v"), ("fold", "block", b"folded")])
        reopened = DiskStore(tmp_path)
        assert reopened.get("implies", "k") is None
        assert reopened.entry_counts() == {}
        reopened.close()

    def test_version_2_store_with_chase_rows_opens_empty(self, tmp_path):
        # Version 2 also persisted IMPLIES chases in a "chase" space.
        _write_old_store(tmp_path, "2", [("implies", "k", b"v"), ("chase", "src", b"chased")])
        reopened = DiskStore(tmp_path)
        assert SCHEMA_VERSION == 3
        assert reopened.get("implies", "k") is None
        assert reopened.entry_counts() == {}
        reopened.close()

    def test_corrupt_database_file_is_recreated(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        path.write_bytes(b"this is not a sqlite database at all" * 100)
        store = DiskStore(tmp_path)
        store.put("implies", "k", b"v")
        assert store.get("implies", "k") == b"v"
        store.close()

    def test_corrupt_payload_row_degrades_to_miss(self, tmp_path):
        configure(tmp_path)
        store = get_store()
        assert store is not None
        # a raw garbage blob that is not a pickle
        store.put("implies", "bad-key", b"\x00garbage\xff")
        assert cache.disk_get("implies", "bad-key") is None
        # the corrupt row was deleted so the caller's overwrite sticks
        cache.disk_put("implies", "bad-key", ("recovered",))
        assert cache.disk_get("implies", "bad-key") == ("recovered",)

    def test_clear_drops_entries_and_counters(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("implies", "k", b"v")
        store.get("implies", "k")
        store.clear()
        assert store.entry_counts() == {}
        store.close()

    def test_vacuum_keeps_entries(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("implies", "k", b"v" * 1000)
        store.vacuum()
        assert store.get("implies", "k") == b"v" * 1000
        store.close()


class TestConfiguration:
    def test_disabled_by_default(self):
        assert get_store() is None
        assert cache.cache_stats() == {"enabled": False, "path": None}

    def test_configure_enables_and_disables(self, tmp_path):
        configure(tmp_path)
        store = get_store()
        assert store is not None
        assert store.directory == tmp_path
        configure(None)
        assert get_store() is None

    def test_env_dir_resolution(self, tmp_path):
        os.environ[ENV_CACHE_DIR] = str(tmp_path)
        configure()  # revert to env resolution (conftest forced None)
        try:
            store = get_store()
            assert store is not None
            assert str(store.directory) == str(tmp_path)
        finally:
            del os.environ[ENV_CACHE_DIR]
            configure(None)

    def test_configure_none_overrides_env(self, tmp_path):
        os.environ[ENV_CACHE_DIR] = str(tmp_path)
        try:
            configure(None)
            assert get_store() is None
        finally:
            del os.environ[ENV_CACHE_DIR]

    def test_reconfigure_switches_directory(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        configure(dir_a)
        cache.disk_put("implies", "k", "in-a")
        configure(dir_b)
        assert cache.disk_get("implies", "k") is None
        cache.disk_put("implies", "k", "in-b")
        configure(dir_a)
        assert cache.disk_get("implies", "k") == "in-a"

    def test_unwritable_directory_degrades_to_disabled(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        configure(blocker / "sub")  # mkdir under a regular file fails
        assert get_store() is None


class TestFacade:
    def test_disk_roundtrip_pickles_values(self, tmp_path):
        configure(tmp_path)
        value = {"holds": True, "patterns": (1, 2, 3)}
        cache.disk_put("implies", "key", value)
        assert cache.disk_get("implies", "key") == value

    def test_disk_get_without_store_is_none(self):
        assert cache.disk_get("implies", "anything") is None

    def test_clear_all_caches_clears_disk(self, tmp_path):
        configure(tmp_path)
        cache.disk_put("implies", "k", "v")
        cache.clear_all_caches()
        assert cache.disk_get("implies", "k") is None

    def test_clear_all_caches_disk_false_keeps_store(self, tmp_path):
        configure(tmp_path)
        cache.disk_put("implies", "k", "v")
        cache.clear_all_caches(disk=False)
        assert cache.disk_get("implies", "k") == "v"

    def test_clear_all_caches_resets_memory_tiers(self):
        # exported at the package top level (the reset-asymmetry fix)
        import repro

        assert repro.clear_all_caches is cache.clear_all_caches
        repro.clear_all_caches()  # no store configured: must not raise

    def test_cache_stats_enabled(self, tmp_path):
        configure(tmp_path)
        cache.disk_put("contain", "k", "v")
        stats = cache.cache_stats()
        assert stats["enabled"] is True
        assert stats["entries"] == {"contain": 1}


class TestForkSafety:
    def test_reopen_after_fork(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("implies", "parent-key", b"parent-value")
        pid = os.fork()
        if pid == 0:  # child: the inherited connection must not be reused
            ok = store.get("implies", "parent-key") == b"parent-value"
            store.put("implies", "child-key", b"child-value")
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert store.get("implies", "child-key") == b"child-value"
        store.close()


class TestByteStability:
    def test_identical_runs_produce_identical_keysets(self, tmp_path):
        """Two identical workloads into fresh stores agree on every key --
        the fingerprints are content-derived, not hash-seed-derived."""
        from repro import implies_tgd, parse_nested_tgd, parse_tgd

        def run(directory):
            configure(directory)
            cache.clear_all_caches(disk=False)
            tau = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
            good = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")
            assert implies_tgd([good], tau).holds
            store = get_store()
            assert store is not None
            keys = store.keys()
            configure(None)
            return keys

        keys_a = run(tmp_path / "a")
        keys_b = run(tmp_path / "b")
        assert keys_a == keys_b
        assert len(keys_a) > 0

    def test_store_mod_exports(self):
        for name in store_mod.__all__:
            assert hasattr(store_mod, name)
