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

import repro.cache as cache
from repro.cache import store as store_mod
from repro.cache.store import (
    DiskStore,
    ENV_CACHE_DIR,
    ENV_CACHE_SPACES,
    SCHEMA_VERSION,
    STORE_FILENAME,
    configure,
    get_store,
)


class TestDiskStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.get("chase", "k1") is None
        store.put("chase", "k1", b"payload-1")
        assert store.get("chase", "k1") == b"payload-1"
        store.close()

    def test_spaces_are_isolated(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"chase-value")
        store.put("contain", "k", b"contain-value")
        assert store.get("chase", "k") == b"chase-value"
        assert store.get("contain", "k") == b"contain-value"
        store.close()

    def test_disabled_space_is_a_noop(self, tmp_path):
        store = DiskStore(tmp_path, spaces=frozenset({"chase"}))
        assert not store.enabled("contain")
        store.put("contain", "k", b"v")
        assert store.get("contain", "k") is None
        assert store.entry_counts() == {}
        store.close()

    def test_overwrite_replaces_payload(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"old")
        store.put("chase", "k", b"new")
        assert store.get("chase", "k") == b"new"
        assert store.entry_counts() == {"chase": 1}
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
        store.put("chase", "a", b"1")
        store.put("contain", "a", b"3")
        assert store.keys() == [("chase", "a"), ("contain", "a"), ("contain", "b")]
        assert store.entry_counts() == {"chase": 1, "contain": 2}
        store.close()

    def test_lifetime_counters_survive_reopen(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"v")
        store.get("chase", "k")
        store.get("chase", "absent")
        store.close()
        reopened = DiskStore(tmp_path)
        counters = reopened.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        reopened.close()

    def test_stats_shape(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"v")
        stats = store.stats()
        assert stats["enabled"] is True
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["entries"] == {"chase": 1}
        assert stats["spaces"] == ["chase", "contain", "implies"]
        assert str(stats["path"]).endswith(STORE_FILENAME)
        assert isinstance(stats["size_bytes"], int)
        store.close()


class TestEviction:
    def test_lru_eviction_past_cap(self, tmp_path):
        store = DiskStore(tmp_path, limits={"chase": 3})
        for i in range(5):
            store.put("chase", f"k{i}", b"v")
        assert store.entry_counts() == {"chase": 3}
        # the two oldest-stamped entries are gone
        assert store.get("chase", "k0") is None
        assert store.get("chase", "k1") is None
        assert store.get("chase", "k4") == b"v"
        store.close()

    def test_get_refreshes_lru_stamp(self, tmp_path):
        store = DiskStore(tmp_path, limits={"chase": 3})
        for i in range(3):
            store.put("chase", f"k{i}", b"v")
        store.get("chase", "k0")  # k0 becomes most-recent; k1 is now LRU
        store.put("chase", "k3", b"v")
        assert store.get("chase", "k0") == b"v"
        assert store.get("chase", "k1") is None
        store.close()

    def test_eviction_is_per_space(self, tmp_path):
        store = DiskStore(tmp_path, limits={"chase": 2, "contain": 100})
        for i in range(4):
            store.put("chase", f"c{i}", b"v")
            store.put("contain", f"f{i}", b"v")
        assert store.entry_counts() == {"chase": 2, "contain": 4}
        store.close()


class TestInvalidation:
    def test_schema_version_mismatch_drops_entries(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"v")
        store.close()
        connection = sqlite3.connect(tmp_path / STORE_FILENAME)
        connection.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        connection.commit()
        connection.close()
        reopened = DiskStore(tmp_path)
        assert reopened.get("chase", "k") is None
        assert reopened.entry_counts() == {}
        reopened.close()

    def test_version_1_store_with_fold_rows_opens_empty(self, tmp_path):
        # Version 1 also persisted core block folds in a "fold" space; a
        # store written then must be recomputed from, never served.
        store = DiskStore(tmp_path, spaces=frozenset({"chase", "fold"}))
        store.put("chase", "k", b"v")
        store.put("fold", "block", b"folded")
        store.close()
        connection = sqlite3.connect(tmp_path / STORE_FILENAME)
        connection.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
        connection.commit()
        connection.close()
        reopened = DiskStore(tmp_path)
        assert SCHEMA_VERSION == 2
        assert not reopened.enabled("fold")
        assert reopened.get("chase", "k") is None
        assert reopened.entry_counts() == {}
        reopened.close()

    def test_corrupt_database_file_is_recreated(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        path.write_bytes(b"this is not a sqlite database at all" * 100)
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"v")
        assert store.get("chase", "k") == b"v"
        store.close()

    def test_corrupt_payload_row_degrades_to_miss(self, tmp_path):
        configure(tmp_path)
        store = get_store()
        assert store is not None
        # a raw garbage blob that is not a pickle
        store.put("chase", "bad-key", b"\x00garbage\xff")
        assert cache.disk_get("chase", "bad-key") is None
        # the corrupt row was deleted so the caller's overwrite sticks
        cache.disk_put("chase", "bad-key", ("recovered",))
        assert cache.disk_get("chase", "bad-key") == ("recovered",)

    def test_clear_drops_entries_and_counters(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"v")
        store.get("chase", "k")
        store.clear()
        assert store.entry_counts() == {}
        assert store.counters() == {"hits": 0, "misses": 0}
        store.close()

    def test_vacuum_keeps_entries(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("chase", "k", b"v" * 1000)
        store.vacuum()
        assert store.get("chase", "k") == b"v" * 1000
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

    def test_env_spaces_restriction(self, tmp_path):
        os.environ[ENV_CACHE_DIR] = str(tmp_path)
        os.environ[ENV_CACHE_SPACES] = "chase,implies"
        configure()
        try:
            store = get_store()
            assert store is not None
            assert store.spaces == frozenset({"chase", "implies"})
            assert not store.enabled("contain")
        finally:
            del os.environ[ENV_CACHE_DIR]
            del os.environ[ENV_CACHE_SPACES]
            configure(None)

    def test_reconfigure_switches_directory(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        configure(dir_a)
        cache.disk_put("chase", "k", "in-a")
        configure(dir_b)
        assert cache.disk_get("chase", "k") is None
        cache.disk_put("chase", "k", "in-b")
        configure(dir_a)
        assert cache.disk_get("chase", "k") == "in-a"

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
        assert cache.disk_get("chase", "anything") is None

    def test_clear_all_caches_clears_disk(self, tmp_path):
        configure(tmp_path)
        cache.disk_put("chase", "k", "v")
        cache.clear_all_caches()
        assert cache.disk_get("chase", "k") is None

    def test_clear_all_caches_disk_false_keeps_store(self, tmp_path):
        configure(tmp_path)
        cache.disk_put("chase", "k", "v")
        cache.clear_all_caches(disk=False)
        assert cache.disk_get("chase", "k") == "v"

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
        store.put("chase", "parent-key", b"parent-value")
        pid = os.fork()
        if pid == 0:  # child: the inherited connection must not be reused
            ok = store.get("chase", "parent-key") == b"parent-value"
            store.put("chase", "child-key", b"child-value")
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert store.get("chase", "child-key") == b"child-value"
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
