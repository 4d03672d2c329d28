"""SQLite-backed simulation result store: the one persistent tier.

The one persistent result format: ``loom-repro --cache-dir DIR`` keeps its
results in ``DIR/results.db`` and every serve node keeps one, so many
threads *and* many client processes share it safely.
:class:`SQLiteResultStore` keeps every result in one SQLite database:

* **WAL mode** -- readers never block the (single) writer and vice versa, so
  a warm ``loom-repro serve`` process can answer lookups while a store is in
  flight, and several CLI invocations pointed at the same database
  (``--store``) coexist without corrupting each other.
* **Schema versioning** -- the database records its schema version in
  ``PRAGMA user_version``; opening a store written by an incompatible
  version wipes and recreates it (cache entries are always recomputable, so
  a version bump costs re-simulation, never an error).  A database file that
  is not SQLite at all is likewise replaced.
* **LRU size bound** -- an optional ``max_entries`` cap: stores beyond the
  bound evict the least-recently-*used* entries (loads refresh recency), so
  a long-running service's store converges on its hot set instead of growing
  forever.

* **Batch-shaped** -- :meth:`~SQLiteResultStore.load_many` answers a whole
  request's keys with one ``SELECT ... WHERE key IN (...)`` that returns
  one aggregate row (the keys, formats, CRCs and sizes as JSON arrays and
  the results concatenated), because the ``sqlite3`` module releases the
  GIL around every row it steps to;
  :meth:`~SQLiteResultStore.store_many` writes a batch with one multi-row
  ``INSERT`` and checks the entry bound once, in one transaction, so a
  request costs the same number of statements whether it carries 4 keys or
  400.  Key lists are chunked to stay under the 999-variable limit of older
  SQLite builds.
* **A read is a read** -- a warm ``load_many`` runs its ``SELECT`` and
  writes nothing.  Each hit's count and recency stamp wait in memory; one
  ``UPDATE ... FROM (VALUES ...)`` per chunk writes them when
  ``store_many`` is about to evict (before the eviction, so the LRU bound
  sees every load), when ``stats_dict()`` reports ``lifetime_hits``, on
  ``close()``, and once :data:`_PENDING_TOUCHES` keys wait.  Another
  process sharing the file sees a load's hit once one of those runs.

A row holds a result as its packed bytes
(:meth:`~repro.sim.results.NetworkResult.to_packed`, a ``BLOB``), the exact
bytes nodes exchange, with a ``format`` tag and a ``crc`` column
(``zlib.crc32`` of the bytes).  Loads check both and hand the bytes back
undecoded; a row whose format or checksum mismatches is deleted, counted in
``invalid_entries`` and treated as a miss.  The ``spec`` column holds the
job's canonical JSON text (:func:`~repro.sim.jobs.spec.spec_payload`),
written verbatim, so every row checks as ``sha256(spec) == key``.

All operations are serialised behind one internal lock (SQLite connections
are not thread-safe by themselves); cross-process serialisation is SQLite's
own locking with a generous busy timeout.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.jobs.cache import CachedResult, StoreItem

__all__ = ["SQLiteResultStore", "SCHEMA_VERSION"]

#: Payload format tag stored with every row; bump when the layout changes.
#: Format 3 is the packed result.
_FORMAT = 3

#: Database schema version (``PRAGMA user_version``); bump on layout changes.
#: Version 2 added the ``crc`` column; version 3 held columnar JSON texts;
#: version 4 holds packed results in a ``BLOB``, so opening an older store
#: resets it.
SCHEMA_VERSION = 4

#: Keys per ``IN (...)`` list: under the 999 host parameters older SQLite
#: builds allow in one statement.
_KEY_CHUNK = 500

#: Rows per multi-row ``INSERT`` (seven parameters each).
_ROW_CHUNK = 999 // 7

#: Hits per ``UPDATE ... FROM (VALUES ...)`` (three parameters each).
_TOUCH_CHUNK = 999 // 3

#: Keys whose hits may wait in memory before a load writes them.
_PENDING_TOUCHES = 4096

_CREATE_RESULTS = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    format       INTEGER NOT NULL,
    spec         TEXT,
    result       BLOB NOT NULL,
    crc          INTEGER NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
)
"""

_CREATE_LRU_INDEX = """
CREATE INDEX IF NOT EXISTS results_last_used ON results (last_used_at)
"""


class SQLiteResultStore:
    """Concurrent-access persistent result store in one SQLite database.

    The persistent tier behind a :class:`~repro.sim.jobs.cache.ResultCache`.
    Damaged storage is a miss, never an error: a row that is missing *or*
    unreadable is left out of :meth:`load_many` (the latter counted in
    ``invalid_entries``).  Loads answer
    :class:`~repro.sim.jobs.cache.CachedResult` entries holding the stored
    bytes; stores persist ``result.to_packed()``.  Safe to call from many
    threads and processes.
    """

    name = "sqlite store"

    def __init__(self, path: os.PathLike,
                 max_entries: Optional[int] = None,
                 timeout_s: float = 30.0) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 (or None for unbounded), "
                f"got {max_entries}"
            )
        self.path = Path(path).expanduser()
        self.max_entries = max_entries
        self.timeout_s = timeout_s
        #: Rows that were present but unreadable/mismatched on load.
        self.invalid_entries = 0
        #: Times the store was wiped for a schema/file-format mismatch.
        self.schema_resets = 0
        #: LRU evictions performed by the ``max_entries`` bound.
        self.evictions = 0
        #: key -> [hits, last load time] not yet written to the database.
        self._touched: Dict[str, list] = {}
        self._lock = threading.RLock()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = self._open()

    # -- connection / schema -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=self.timeout_s,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        # The connect timeout only guards the initial open; busy_timeout
        # makes every later statement wait out a cross-process writer lock
        # instead of failing with "database is locked" -- with one store
        # per cluster shard plus CLI invocations sharing it, brief write
        # overlap is normal operation, not an error.
        conn.execute(f"PRAGMA busy_timeout = {int(self.timeout_s * 1000)}")
        return conn

    def _open(self) -> sqlite3.Connection:
        conn = None
        try:
            conn = self._connect()
            self._ensure_schema(conn)
            return conn
        except sqlite3.OperationalError:
            # Transient ("database is locked", disk I/O, unopenable path):
            # NEVER treat as corruption -- another process may be using a
            # perfectly valid store.  Surface the error to the caller.
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
            raise
        except sqlite3.DatabaseError:
            # Genuinely not a SQLite database (bad header, malformed image):
            # a cache is always recomputable, so replace the file.
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
            self.schema_resets += 1
            self.path.unlink(missing_ok=True)
            conn = self._connect()
            self._ensure_schema(conn)
            return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        if version not in (0, SCHEMA_VERSION):
            # Written by an incompatible schema: wipe and recreate.
            self.schema_resets += 1
            conn.execute("DROP TABLE IF EXISTS results")
        with conn:
            conn.execute(_CREATE_RESULTS)
            conn.execute(_CREATE_LRU_INDEX)
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    # -- load / store --------------------------------------------------------

    def load(self, key: str) -> Optional[CachedResult]:
        """The stored entry for ``key``, or ``None`` if absent or bad."""
        return self.load_many((key,)).get(key)

    def store(self, key: str, result, spec: Optional[str] = None) -> None:
        """Persist ``result.to_packed()`` under ``key``; ``spec``, when
        given, is the key's preimage text, kept verbatim for audit."""
        self.store_many(((key, result, spec),))

    def load_many(self, keys: Iterable[str]) -> Dict[str, CachedResult]:
        """The stored entries for ``keys``; absent or bad keys are omitted.

        A hit is noted in memory, not written (see the module docstring).
        """
        keys = list(dict.fromkeys(keys))
        found: Dict[str, CachedResult] = {}
        if not keys:
            return found
        with self._lock:
            damaged: List[str] = []
            for chunk in _chunks(keys, _KEY_CHUNK):
                # One aggregate row per chunk, and none when nothing is
                # found: the sqlite3 module releases the GIL around every
                # step, and a busy process hands it back only after its
                # switch interval, so each row stepped to costs a wait.
                for found_keys, formats, crcs, sizes, payloads in \
                        self._conn.execute(
                            "SELECT keys, formats, crcs, sizes, payloads FROM "
                            "(SELECT json_group_array(key) AS keys, "
                            "json_group_array(format) AS formats, "
                            "json_group_array(crc) AS crcs, "
                            "json_group_array(length(CAST(result AS BLOB))) "
                            "AS sizes, CAST(group_concat(result, '') AS BLOB) "
                            "AS payloads, count(*) AS matched FROM results "
                            f"WHERE key IN ({_marks(len(chunk))})) "
                            "WHERE matched > 0", chunk).fetchall():
                    start = 0
                    for key, row_format, crc, size in zip(
                            json.loads(found_keys), json.loads(formats),
                            json.loads(crcs), json.loads(sizes)):
                        payload = payloads[start:start + size]
                        start += size
                        if row_format == _FORMAT \
                                and zlib.crc32(payload) == crc:
                            found[key] = CachedResult(payload)
                        else:
                            damaged.append(key)
            now = time.time()
            touched = self._touched
            for key in found:
                touch = touched.get(key)
                if touch is None:
                    touched[key] = [1, now]
                else:
                    touch[0] += 1
                    touch[1] = now
            if damaged:
                # Damaged rows are dropped (counted, recomputed upstream).
                self.invalid_entries += len(damaged)
                with self._conn:
                    for chunk in _chunks(damaged, _KEY_CHUNK):
                        self._conn.execute(
                            f"DELETE FROM results WHERE key IN "
                            f"({_marks(len(chunk))})", chunk)
            if len(touched) > _PENDING_TOUCHES:
                self._flush_touches()
        return found

    def _flush_touches(self) -> None:
        """Write the hits waiting in memory, in a transaction of their own
        (the caller holds the lock)."""
        if self._touched:
            with self._conn:
                self._write_touches()

    def _write_touches(self) -> None:
        """Write the hits waiting in memory: each key's count added to its
        row's ``hits``, its last load stamped into ``last_used_at``.  The
        caller holds the lock, inside a transaction."""
        touched, self._touched = self._touched, {}
        rows = [(key, hits, stamp) for key, (hits, stamp) in touched.items()]
        for chunk in _chunks(rows, _TOUCH_CHUNK):
            self._conn.execute(
                "UPDATE results SET hits = hits + touched.column2, "
                "last_used_at = MAX(last_used_at, touched.column3) FROM "
                f"(VALUES {', '.join(['(?, ?, ?)'] * len(chunk))}) "
                "AS touched WHERE results.key = touched.column1",
                [field for row in chunk for field in row])

    def store_many(self, items: Iterable[StoreItem]) -> None:
        """Persist every ``(key, result, spec)`` of ``items``."""
        # A key repeated in the batch keeps its last result.
        rows = {key: (result, spec) for key, result, spec in items}
        if not rows:
            return
        now = time.time()
        values = []
        for key, (result, spec) in rows.items():
            packed = result.to_packed()
            values.append((key, _FORMAT, spec, packed, zlib.crc32(packed),
                           now, now))
        with self._lock, self._conn:
            if self._touched:
                # A replaced row starts its count afresh.
                for key in rows:
                    self._touched.pop(key, None)
            for chunk in _chunks(values, _ROW_CHUNK):
                self._conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, format, spec, result, crc, created_at, "
                    "last_used_at, hits) VALUES "
                    + ", ".join(["(?, ?, ?, ?, ?, ?, ?, 0)"] * len(chunk)),
                    [field for row in chunk for field in row])
            if self.max_entries is not None:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM results").fetchone()
                excess = count - self.max_entries
                if excess > 0:
                    # Recency decides what goes: write it first.
                    self._write_touches()
                    cursor = self._conn.execute(
                        "DELETE FROM results WHERE key IN ("
                        "  SELECT key FROM results "
                        "  ORDER BY last_used_at ASC, rowid ASC LIMIT ?)",
                        (excess,),
                    )
                    self.evictions += cursor.rowcount

    def contains(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
            return count

    def close(self) -> None:
        """Write the hits waiting in memory, then close the database."""
        with self._lock:
            self._flush_touches()
            self._conn.close()

    # -- introspection -------------------------------------------------------

    def describe(self) -> str:
        return f"{self.name} ({self.path})"

    @classmethod
    def inspect(cls, path: os.PathLike,
                lock_retries: int = 5,
                lock_retry_delay_s: float = 0.1) -> Dict[str, object]:
        """Read-only statistics for a store database.

        Unlike constructing a store (which *repairs* incompatible databases
        by wiping them), inspection never writes: an incompatible or foreign
        file is reported, not destroyed.  Raises ``ValueError`` when ``path``
        is not a SQLite database at all.

        Inspecting a store a live service is writing to can momentarily hit
        SQLite's writer lock; those attempts are retried (up to
        ``lock_retries`` times, ``lock_retry_delay_s`` apart) and the count
        is surfaced as ``lock_retries`` in the payload -- a non-zero value
        is itself a useful signal that the store is under write contention.
        """
        path = Path(path).expanduser()
        retries = 0
        while True:
            conn = None
            try:
                conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
                (version,) = conn.execute("PRAGMA user_version").fetchone()
                payload: Dict[str, object] = {
                    "backend": "sqlite",
                    "path": str(path),
                    "schema_version": version,
                    "compatible": version == SCHEMA_VERSION,
                    "size_bytes": path.stat().st_size,
                    "lock_retries": retries,
                }
                if version == SCHEMA_VERSION:
                    (payload["entries"],) = conn.execute(
                        "SELECT COUNT(*) FROM results").fetchone()
                    (payload["lifetime_hits"],) = conn.execute(
                        "SELECT COALESCE(SUM(hits), 0) FROM results"
                    ).fetchone()
                return payload
            except sqlite3.OperationalError as error:
                locked = "locked" in str(error) or "busy" in str(error)
                if locked and retries < lock_retries:
                    retries += 1
                    time.sleep(lock_retry_delay_s)
                    continue
                raise ValueError(f"{path} is not a result-store database: "
                                 f"{error}") from None
            except sqlite3.Error as error:
                raise ValueError(f"{path} is not a result-store database: "
                                 f"{error}") from None
            finally:
                if conn is not None:
                    conn.close()

    def stats_dict(self) -> Dict[str, object]:
        """Store-level counters (the service's /stats ``store`` section);
        writes the hits waiting in memory first."""
        with self._lock:
            self._flush_touches()
            (entries,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
            (total_hits,) = self._conn.execute(
                "SELECT COALESCE(SUM(hits), 0) FROM results").fetchone()
        try:
            size_bytes = self.path.stat().st_size
        except OSError:
            size_bytes = 0
        return {
            "backend": "sqlite",
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "entries": entries,
            "max_entries": self.max_entries,
            "size_bytes": size_bytes,
            "lifetime_hits": total_hits,
            "evictions": self.evictions,
            "invalid_entries": self.invalid_entries,
            "schema_resets": self.schema_resets,
        }


def _chunks(items: Sequence, size: int):
    """``items`` in consecutive slices of at most ``size``."""
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _marks(count: int) -> str:
    """``count`` comma-separated SQL parameter placeholders."""
    return ", ".join("?" * count)
