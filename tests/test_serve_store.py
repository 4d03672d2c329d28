"""Tests for the SQLite result store, the one persistent cache tier.

Covers WAL-mode concurrent access, schema versioning (incompatible
databases are wiped, not fatal), the LRU entry bound, corrupt rows/files
being treated as misses, and threads and processes racing the same key
without corrupting an entry or changing the result.
"""

import hashlib
import json
import multiprocessing
import sqlite3
import struct
import sys
import threading
import zlib

import pytest

from repro.serve import store as store_module
from repro.serve.store import SCHEMA_VERSION, SQLiteResultStore
from repro.sim.jobs import JobExecutor, ResultCache, job_key, spec_dict
from repro.sim.results import LayerResult, NetworkResult


def _result(cycles=100.0, network="netA", accelerator="AccX"):
    """A tiny synthetic NetworkResult (store tests need no real simulation)."""
    result = NetworkResult(network=network, accelerator=accelerator,
                           clock_ghz=1.0)
    result.add(LayerResult(layer_name="conv1", layer_kind="conv",
                           cycles=cycles, energy_pj=5.5, macs=10))
    result.add(LayerResult(layer_name="fc1", layer_kind="fc",
                           cycles=cycles / 2, energy_pj=2.25, macs=4))
    return result


KEY = "k" * 64


class TestSQLiteStoreBasics:
    def test_round_trip_preserves_every_field(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        original = _result()
        store.store(KEY, original, spec='{"network":{"name":"netA"}}')
        loaded = store.load(KEY)
        assert loaded is not None
        assert loaded.to_dict() == original.to_dict()
        assert store.contains(KEY)
        assert len(store) == 1
        store.close()

    def test_missing_key_is_a_clean_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        assert store.load("absent") is None
        assert not store.contains("absent")
        assert store.invalid_entries == 0

    def test_wal_mode_is_active(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"

    def test_results_survive_across_instances(self, tmp_path):
        path = tmp_path / "cache.db"
        first = SQLiteResultStore(path)
        first.store(KEY, _result())
        first.close()
        second = SQLiteResultStore(path)
        assert second.load(KEY).to_dict() == _result().to_dict()
        second.close()

    def test_stats_dict_reports_store_state(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db", max_entries=10)
        store.store(KEY, _result())
        store.load(KEY)
        stats = store.stats_dict()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 10
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["lifetime_hits"] == 1
        assert stats["size_bytes"] > 0

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            SQLiteResultStore(tmp_path / "cache.db", max_entries=0)

    def test_unbounded_store_still_counts_lifetime_hits(self, tmp_path):
        # Regression: `load` only bumped `hits` on the LRU recency-touch
        # path, so unbounded stores (max_entries=None -- how every cluster
        # worker runs) reported lifetime_hits == 0 forever.
        store = SQLiteResultStore(tmp_path / "cache.db")  # no entry bound
        store.store(KEY, _result())
        assert store.load(KEY) is not None
        assert store.stats_dict()["lifetime_hits"] == 1
        assert store.load(KEY) is not None
        assert store.stats_dict()["lifetime_hits"] == 2
        store.close()
        assert SQLiteResultStore.inspect(
            tmp_path / "cache.db")["lifetime_hits"] == 2


class TestSchemaVersioning:
    def test_incompatible_schema_version_wipes_the_store(self, tmp_path):
        path = tmp_path / "cache.db"
        store = SQLiteResultStore(path)
        store.store(KEY, _result())
        store.close()
        # Simulate a database written by a future incompatible version.
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.commit()
        conn.close()
        reopened = SQLiteResultStore(path)
        assert reopened.schema_resets == 1
        assert reopened.load(KEY) is None  # wiped, not crashed
        reopened.store(KEY, _result())  # and fully usable again
        assert reopened.contains(KEY)

    def test_schema_1_store_is_reset_on_open(self, tmp_path):
        # Schema 2 added the crc column; a v1 database (no checksums) is
        # wiped and counted -- results are recomputable.
        path = tmp_path / "cache.db"
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, format INTEGER "
                "NOT NULL, spec TEXT, result TEXT NOT NULL, created_at REAL "
                "NOT NULL, last_used_at REAL NOT NULL, hits INTEGER NOT NULL "
                "DEFAULT 0)")
            conn.execute(
                "INSERT INTO results VALUES (?, 1, NULL, ?, 0.0, 0.0, 0)",
                (KEY, json.dumps(_result().to_dict())))
            conn.execute("PRAGMA user_version = 1")
        conn.close()
        store = SQLiteResultStore(path)
        assert SCHEMA_VERSION == 4
        assert store.schema_resets == 1
        assert len(store) == 0
        assert store.load(KEY) is None
        store.store(KEY, _result())
        assert store.load(KEY).to_dict() == _result().to_dict()
        store.close()

    def test_schema_2_store_is_reset_on_open(self, tmp_path):
        # Schema 3 holds columnar result texts; a v2 database holds
        # row-form texts (a per-layer list of objects) that no longer
        # decode, so it is wiped and counted on open.
        path = tmp_path / "cache.db"
        original = _result()
        row_form = json.dumps({
            "network": original.network,
            "accelerator": original.accelerator,
            "clock_ghz": original.clock_ghz,
            "layers": [layer.to_dict() for layer in original.layers],
        })
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, format INTEGER "
                "NOT NULL, spec TEXT, result TEXT NOT NULL, crc INTEGER NOT "
                "NULL, created_at REAL NOT NULL, last_used_at REAL NOT NULL, "
                "hits INTEGER NOT NULL DEFAULT 0)")
            conn.execute(
                "INSERT INTO results VALUES (?, 1, NULL, ?, ?, 0.0, 0.0, 0)",
                (KEY, row_form, zlib.crc32(row_form.encode("utf-8"))))
            conn.execute("PRAGMA user_version = 2")
        conn.close()
        store = SQLiteResultStore(path)
        assert store.schema_resets == 1
        assert len(store) == 0
        assert store.load(KEY) is None
        store.store(KEY, original)
        assert store.load(KEY).result == original
        store.close()

    def test_schema_3_store_is_reset_on_open(self, tmp_path):
        # Schema 4 holds packed results in a BLOB; a v3 database holds
        # columnar JSON texts, so it is wiped and counted on open.
        path = tmp_path / "cache.db"
        original = _result()
        text = original.to_json()
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, format INTEGER "
                "NOT NULL, spec TEXT, result TEXT NOT NULL, crc INTEGER NOT "
                "NULL, created_at REAL NOT NULL, last_used_at REAL NOT NULL, "
                "hits INTEGER NOT NULL DEFAULT 0)")
            conn.execute(
                "INSERT INTO results VALUES (?, 2, NULL, ?, ?, 0.0, 0.0, 0)",
                (KEY, text, zlib.crc32(text.encode("utf-8"))))
            conn.execute("PRAGMA user_version = 3")
        conn.close()
        store = SQLiteResultStore(path)
        assert store.schema_resets == 1
        assert len(store) == 0
        assert store.load(KEY) is None
        store.store(KEY, original)
        assert store.load(KEY).result == original
        store.close()

    def test_non_sqlite_file_is_replaced(self, tmp_path):
        path = tmp_path / "cache.db"
        path.write_text("this is not a sqlite database at all")
        store = SQLiteResultStore(path)
        assert store.schema_resets == 1
        store.store(KEY, _result())
        assert store.load(KEY) is not None

    def test_transient_lock_errors_never_wipe_the_store(self, tmp_path):
        # Regression: "database is locked" (another process mid-write) is
        # NOT corruption; opening must fail loudly, not delete shared data.
        path = tmp_path / "cache.db"
        store = SQLiteResultStore(path)
        store.store(KEY, _result())
        store.close()
        locker = sqlite3.connect(str(path))
        locker.execute("BEGIN EXCLUSIVE")
        try:
            with pytest.raises(sqlite3.OperationalError):
                SQLiteResultStore(path, timeout_s=0.1)
        finally:
            locker.rollback()
            locker.close()
        survivor = SQLiteResultStore(path)
        assert survivor.load(KEY) is not None  # data intact
        assert survivor.schema_resets == 0
        survivor.close()

    def test_inspect_is_read_only_even_on_version_mismatch(self, tmp_path):
        # Regression: `stats --store` must NEVER repair-by-wiping the way
        # opening a store for service use does.
        path = tmp_path / "cache.db"
        store = SQLiteResultStore(path)
        store.store(KEY, _result())
        store.close()
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.commit()
        conn.close()
        report = SQLiteResultStore.inspect(path)
        assert report["compatible"] is False
        assert report["schema_version"] == SCHEMA_VERSION + 7
        assert "entries" not in report  # unknown layout: not queried
        # The data is still there: a compatible reader would see it if the
        # version were restored.
        conn = sqlite3.connect(str(path))
        (count,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
        conn.close()
        assert count == 1

    def test_inspect_reports_compatible_stores(self, tmp_path):
        path = tmp_path / "cache.db"
        store = SQLiteResultStore(path, max_entries=5)
        store.store(KEY, _result())
        store.load(KEY)
        store.close()
        report = SQLiteResultStore.inspect(path)
        assert report["compatible"] is True
        assert report["entries"] == 1
        assert report["lifetime_hits"] == 1

    def test_inspect_rejects_non_sqlite_files(self, tmp_path):
        path = tmp_path / "not-a-db.txt"
        path.write_text("plain text")
        with pytest.raises(ValueError, match="not a result-store database"):
            SQLiteResultStore.inspect(path)
        assert path.read_text() == "plain text"  # untouched


class TestCorruptRows:
    def test_unparseable_payload_is_a_counted_miss(self, tmp_path):
        path = tmp_path / "cache.db"
        store = SQLiteResultStore(path)
        store.store(KEY, _result())
        store._conn.execute(
            "UPDATE results SET result = '{truncated' WHERE key = ?", (KEY,))
        store._conn.commit()
        assert store.load(KEY) is None
        assert store.invalid_entries == 1
        # The damaged row was deleted so it cannot poison later lookups.
        assert not store.contains(KEY)

    def test_payload_edited_into_another_valid_result_is_a_counted_miss(
            self, tmp_path):
        # Rows are checked by CRC, not by decoding: a payload that still
        # decodes but no longer holds the stored result must not be served.
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store(KEY, _result(cycles=100.0))
        (payload,) = store._conn.execute(
            "SELECT result FROM results WHERE key = ?", (KEY,)).fetchone()
        edited = payload.replace(struct.pack("<d", 100.0),
                                 struct.pack("<d", 900.0), 1)
        assert edited != payload
        assert NetworkResult.from_packed(edited).total_cycles() == 950.0
        store._conn.execute(
            "UPDATE results SET result = ? WHERE key = ?", (edited, KEY))
        store._conn.commit()
        assert store.load(KEY) is None
        assert store.invalid_entries == 1
        assert not store.contains(KEY)
        store.close()

    def test_corrupted_crc_is_a_counted_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store(KEY, _result())
        store._conn.execute(
            "UPDATE results SET crc = crc + 1 WHERE key = ?", (KEY,))
        store._conn.commit()
        assert store.load(KEY) is None
        assert store.invalid_entries == 1
        assert not store.contains(KEY)
        store.close()

    def test_format_mismatch_is_a_counted_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store(KEY, _result())
        store._conn.execute(
            "UPDATE results SET format = 999 WHERE key = ?", (KEY,))
        store._conn.commit()
        assert store.load(KEY) is None
        assert store.invalid_entries == 1


class TestLRUBound:
    def test_eviction_drops_least_recently_used(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db", max_entries=3)
        for index in range(3):
            store.store(f"key{index}", _result(cycles=float(index + 1)))
        # Touch key0 so key1 becomes the least recently used.
        assert store.load("key0") is not None
        store.store("key3", _result(cycles=4.0))
        assert len(store) == 3
        assert store.evictions == 1
        assert not store.contains("key1")
        assert store.contains("key0")
        assert store.contains("key3")

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        for index in range(10):
            store.store(f"key{index}", _result())
        assert len(store) == 10
        assert store.evictions == 0


class TestBatchedStore:
    """``load_many`` / ``store_many``: one query and one transaction per
    batch, with the one-key semantics intact."""

    def test_store_many_round_trips_every_entry(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store_many([(f"key{i}", _result(cycles=float(i + 1)), None)
                          for i in range(5)])
        assert len(store) == 5
        loaded = store.load_many([f"key{i}" for i in range(5)] + ["absent"])
        assert sorted(loaded) == [f"key{i}" for i in range(5)]
        for i in range(5):
            assert loaded[f"key{i}"].to_dict() \
                == _result(cycles=float(i + 1)).to_dict()
        store.close()

    def test_corrupt_row_among_good_rows_is_deleted_and_counted_once(
            self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store_many([(key, _result(), None)
                          for key in ("good0", "bad", "good1")])
        store._conn.execute(
            "UPDATE results SET result = '{truncated' WHERE key = 'bad'")
        store._conn.commit()
        loaded = store.load_many(["good0", "bad", "good1", "bad"])
        assert sorted(loaded) == ["good0", "good1"]
        assert store.invalid_entries == 1
        assert not store.contains("bad")
        assert store.contains("good0") and store.contains("good1")
        store.close()

    def test_repeated_key_is_handled_once(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store_many([(KEY, _result(cycles=1.0), None),
                          (KEY, _result(cycles=2.0), None)])
        assert len(store) == 1
        assert store.load(KEY).to_dict() == _result(cycles=2.0).to_dict()
        assert list(store.load_many([KEY, KEY, KEY])) == [KEY]
        # One load of the first check plus one batch: two hits, not four.
        assert store.stats_dict()["lifetime_hits"] == 2
        store.close()

    def test_lifetime_hits_are_exact_after_batched_hits(self, tmp_path):
        path = tmp_path / "cache.db"
        store = SQLiteResultStore(path)
        keys = [f"key{i}" for i in range(4)]
        store.store_many([(key, _result(), None) for key in keys])
        assert len(store.load_many(keys)) == 4
        assert len(store.load_many(keys[:3] + ["absent"])) == 3
        assert store.stats_dict()["lifetime_hits"] == 7
        store.close()
        assert SQLiteResultStore.inspect(path)["lifetime_hits"] == 7

    def test_batched_loads_refresh_lru_recency(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db", max_entries=3)
        store.store_many([(f"key{i}", _result(), None) for i in range(3)])
        # Touch key0 and key2 in one batch so key1 becomes the least
        # recently used.
        assert sorted(store.load_many(["key0", "key2"])) == ["key0", "key2"]
        store.store_many([("key3", _result(), None)])
        assert store.evictions == 1
        assert not store.contains("key1")
        assert all(store.contains(key) for key in ("key0", "key2", "key3"))
        store.close()

    def test_batch_beyond_the_parameter_limit_is_chunked(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        keys = [f"key{i:04d}" for i in range(1200)]
        store.store_many([(key, _result(), None) for key in keys])
        assert len(store) == 1200
        loaded = store.load_many(keys + ["absent"])
        assert sorted(loaded) == keys
        assert store.stats_dict()["lifetime_hits"] == 1200
        store.close()

    def test_batch_costs_the_same_statements_at_any_size(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db", max_entries=10_000)
        counts = []
        for size in (4, 64):
            keys = [f"{size}-{i}" for i in range(size)]
            statements = []
            store._conn.set_trace_callback(statements.append)
            store.store_many([(key, _result(), None) for key in keys])
            store.load_many(keys)
            store._conn.set_trace_callback(None)
            counts.append(len(statements))
        assert counts[0] == counts[1]
        store.close()

    def test_a_warm_load_writes_nothing(self, tmp_path):
        # A hit is noted in memory: the load is one SELECT per key chunk,
        # with no UPDATE, INSERT or transaction.  The hits still reach the
        # database, in order, before anything reads them.
        store = SQLiteResultStore(tmp_path / "cache.db", max_entries=2000)
        keys = [f"key{i:04d}" for i in range(1200)]
        store.store_many([(key, _result(), None) for key in keys])
        statements = []
        store._conn.set_trace_callback(statements.append)
        assert len(store.load_many(keys)) == 1200
        store._conn.set_trace_callback(None)
        assert len(statements) == 3  # 1200 keys in chunks of 500
        assert all(statement.startswith("SELECT")
                   for statement in statements)
        assert not store._conn.in_transaction
        assert store.stats_dict()["lifetime_hits"] == 1200

    def test_waiting_hits_are_written_past_their_bound(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(store_module, "_PENDING_TOUCHES", 3)
        path = tmp_path / "cache.db"
        store = SQLiteResultStore(path)
        keys = [f"key{i}" for i in range(4)]
        store.store_many([(key, _result(), None) for key in keys])
        store.load_many(keys[:3])
        assert SQLiteResultStore.inspect(path)["lifetime_hits"] == 0
        store.load_many(keys[3:])  # the fourth waiting key passes the bound
        assert SQLiteResultStore.inspect(path)["lifetime_hits"] == 4
        store.close()

    def test_result_cache_batches_reach_the_backend_once(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        calls = []
        load_many, store_many = store.load_many, store.store_many
        store.load_many = lambda keys: calls.append("load") or load_many(keys)
        store.store_many = lambda items: (calls.append("store")
                                          or store_many(items))
        cache = ResultCache(backend=store, max_memory_entries=2)
        cache.put_many([(f"key{i}", _result(), None) for i in range(4)])
        found = cache.get_many(["key0", "key1", "key2", "key3", "absent"])
        assert sorted(found) == ["key0", "key1", "key2", "key3"]
        assert calls == ["store", "load"]
        assert cache.stats.memory_hits == 2  # key2, key3 stayed in memory
        assert cache.stats.disk_hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.stores == 4
        assert cache.peek_many(["absent"]) == {}
        assert cache.stats.misses == 1  # peeks do not count misses
        cache.close()

    def test_concurrent_batches_keep_every_counter_exact(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        cache = ResultCache(backend=store, max_memory_entries=8)
        keys = [f"key{i:02d}" for i in range(32)]
        cache.put_many([(key, _result(), None) for key in keys[:16]])
        threads_n, rounds = 8, 12
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker(offset):
            try:
                barrier.wait(timeout=10.0)
                for step in range(rounds):
                    start = (offset + step) % 16
                    found = cache.get_many(keys[start:start + 16])
                    if sorted(found) != keys[start:16]:
                        errors.append(f"batch at {start} found {sorted(found)}")
            except Exception as error:  # pragma: no cover - assertion target
                errors.append(repr(error))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Batch ``start`` holds ``start`` never-stored keys.
        misses = sum((offset + step) % 16 for offset in range(threads_n)
                     for step in range(rounds))
        stats = cache.stats
        assert stats.misses == misses
        assert stats.memory_hits + stats.disk_hits + stats.misses \
            == threads_n * rounds * 16
        # Every disk hit bumped its row's counter exactly once.
        assert store.stats_dict()["lifetime_hits"] == stats.disk_hits
        cache.close()


class TestResultCacheIntegration:
    """The SQLite store as a ResultCache backend behind a JobExecutor."""

    def _job(self):
        from repro.sim.jobs import AcceleratorSpec, NetworkSpec, SimJob
        return SimJob(network=NetworkSpec("alexnet"),
                      accelerator=AcceleratorSpec.create("loom"))

    def test_executor_results_survive_to_sqlite(self, tmp_path):
        path = tmp_path / "cache.db"
        job = self._job()
        with JobExecutor(cache=ResultCache(
                backend=SQLiteResultStore(path))) as warm:
            expected = warm.run([job])[0]
        cold_cache = ResultCache(backend=SQLiteResultStore(path))
        fresh = JobExecutor(cache=cold_cache)
        result = fresh.run([job])[0]
        assert fresh.stats.executed == 0
        assert cold_cache.stats.disk_hits == 1
        assert result.to_dict() == expected.to_dict()
        cold_cache.close()

    def test_spec_is_stored_for_audit(self, tmp_path):
        path = tmp_path / "cache.db"
        job = self._job()
        cache = ResultCache(backend=SQLiteResultStore(path))
        with JobExecutor(cache=cache) as executor:
            executor.run([job])
        row = cache.backend._conn.execute(
            "SELECT spec FROM results WHERE key = ?",
            (job_key(job),)).fetchone()
        assert row is not None
        assert json.loads(row[0])["network"]["name"] == "alexnet"
        assert hashlib.sha256(row[0].encode()).hexdigest() == job_key(job)
        assert json.loads(row[0]) == spec_dict(job)
        cache.close()


def _thread_race(backend_factory, workers=8, rounds=10):
    """Hammer one key from many threads; return the backend and errors."""
    backend = backend_factory()
    payload = _result()
    errors = []
    barrier = threading.Barrier(workers)

    def worker():
        try:
            barrier.wait()
            for _ in range(rounds):
                backend.store(KEY, payload)
                loaded = backend.load(KEY)
                if loaded is not None and \
                        loaded.to_dict() != payload.to_dict():
                    errors.append("corrupt read")
        except Exception as error:  # pragma: no cover - the assertion target
            errors.append(repr(error))

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return backend, errors


def _process_worker(path, rounds):
    """Race body run in a separate process (module-level: must pickle)."""
    backend = SQLiteResultStore(path)
    payload = _result()
    for _ in range(rounds):
        backend.store(KEY, payload)
        loaded = backend.load(KEY)
        assert loaded is None or loaded.to_dict() == payload.to_dict()
    backend.close()


class TestConcurrentAccess:
    """Two threads/processes racing one key must yield one
    execution-equivalent result and no corrupt entries."""

    def test_threads_racing_same_key(self, tmp_path):
        backend, errors = _thread_race(
            lambda: SQLiteResultStore(tmp_path / "cache.db"))
        assert errors == []
        final = backend.load(KEY)
        assert final is not None
        assert final.to_dict() == _result().to_dict()
        assert backend.invalid_entries == 0
        backend.close()

    def test_processes_racing_same_key(self, tmp_path):
        path = tmp_path / "cache.db"
        context = multiprocessing.get_context()
        procs = [
            context.Process(target=_process_worker,
                            args=(str(path), 10))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        # The survivor entry must be a perfectly valid, equivalent result.
        backend = SQLiteResultStore(path)
        final = backend.load(KEY)
        assert final is not None
        assert final.to_dict() == _result().to_dict()
        assert backend.invalid_entries == 0
        assert len(backend) == 1
        backend.close()

    def test_concurrent_readers_share_one_database(self, tmp_path):
        # WAL's concrete promise: a second connection reads while the first
        # stays open for writing.
        path = tmp_path / "cache.db"
        writer = SQLiteResultStore(path)
        writer.store(KEY, _result())
        reader = SQLiteResultStore(path)
        assert reader.load(KEY) is not None
        writer.store("other", _result(cycles=7.0))
        assert reader.load("other") is not None
        writer.close()
        reader.close()
