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
  request's keys with one ``SELECT ... WHERE key IN (...)`` and bumps their
  hit counts (and LRU recency) in one ``UPDATE``;
  :meth:`~SQLiteResultStore.store_many` writes a batch with one multi-row
  ``INSERT`` and checks the entry bound once.  Each runs in one
  transaction, so a request costs the same number of statements whether it
  carries 4 keys or 400.  Key lists are chunked to stay under the 999-variable
  limit of older SQLite builds.

A row holds a result as its JSON text
(:meth:`~repro.sim.results.NetworkResult.to_json`), the exact bytes a node
puts on the wire, with a ``format`` tag and a ``crc`` column (``zlib.crc32``
of the UTF-8 text).  Loads check both and hand the text back unparsed; a row
whose format or checksum mismatches is deleted, counted in
``invalid_entries`` and treated as a miss.  The ``spec`` column holds the
job's canonical JSON text (:func:`~repro.sim.jobs.spec.spec_payload`),
written verbatim, so every row checks as ``sha256(spec) == key``.

All operations are serialised behind one internal lock (SQLite connections
are not thread-safe by themselves); cross-process serialisation is SQLite's
own locking with a generous busy timeout.
"""

from __future__ import annotations

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
#: Format 2 is the columnar result text.
_FORMAT = 2

#: Database schema version (``PRAGMA user_version``); bump on layout changes.
#: Version 2 added the ``crc`` column; version 3 holds columnar result
#: texts, so opening a version-2 store (row-form texts) resets it.
SCHEMA_VERSION = 3

#: Keys per ``IN (...)`` list: under the 999 host parameters older SQLite
#: builds allow in one statement.
_KEY_CHUNK = 500

#: Rows per multi-row ``INSERT`` (seven parameters each).
_ROW_CHUNK = 999 // 7

_CREATE_RESULTS = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    format       INTEGER NOT NULL,
    spec         TEXT,
    result       TEXT NOT NULL,
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
    text; stores persist ``result.to_json()``.  Safe to call from many
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
        """Persist ``result.to_json()`` under ``key``; ``spec``, when given,
        is the key's preimage text, kept verbatim for audit."""
        self.store_many(((key, result, spec),))

    def load_many(self, keys: Iterable[str]) -> Dict[str, CachedResult]:
        """The stored entries for ``keys``; absent or bad keys are omitted."""
        keys = list(dict.fromkeys(keys))
        found: Dict[str, CachedResult] = {}
        if not keys:
            return found
        with self._lock:
            damaged: List[str] = []
            for chunk in _chunks(keys, _KEY_CHUNK):
                rows = self._conn.execute(
                    "SELECT key, format, crc, result FROM results "
                    f"WHERE key IN ({_marks(len(chunk))})", chunk).fetchall()
                for key, row_format, crc, payload in rows:
                    if row_format == _FORMAT and isinstance(payload, str) \
                            and _crc(payload) == crc:
                        found[key] = CachedResult(payload)
                    else:
                        damaged.append(key)
            if not found and not damaged:
                return found
            # One transaction per batch: damaged rows are dropped (counted,
            # recomputed upstream); the hit counter always moves (it feeds
            # ``lifetime_hits`` in /stats and inspect(), bound or no
            # bound), and the LRU recency touch only matters when
            # ``max_entries`` can actually evict.
            self.invalid_entries += len(damaged)
            if self.max_entries is not None:
                touch, stamp = "last_used_at = ?, hits = hits + 1", [time.time()]
            else:
                touch, stamp = "hits = hits + 1", []
            with self._conn:
                for chunk in _chunks(damaged, _KEY_CHUNK):
                    self._conn.execute(
                        f"DELETE FROM results WHERE key IN "
                        f"({_marks(len(chunk))})", chunk)
                for chunk in _chunks(list(found), _KEY_CHUNK):
                    self._conn.execute(
                        f"UPDATE results SET {touch} WHERE key IN "
                        f"({_marks(len(chunk))})", stamp + chunk)
        return found

    def store_many(self, items: Iterable[StoreItem]) -> None:
        """Persist every ``(key, result, spec)`` of ``items``."""
        # A key repeated in the batch keeps its last result.
        rows = {key: (result, spec) for key, result, spec in items}
        if not rows:
            return
        now = time.time()
        values = []
        for key, (result, spec) in rows.items():
            text = result.to_json()
            values.append((key, _FORMAT, spec, text, _crc(text), now, now))
        with self._lock, self._conn:
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
        with self._lock:
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
        """Store-level counters (the service's /stats ``store`` section)."""
        with self._lock:
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


def _crc(text: str) -> int:
    """The ``crc`` column of a row holding ``text``."""
    return zlib.crc32(text.encode("utf-8"))


def _chunks(items: Sequence, size: int):
    """``items`` in consecutive slices of at most ``size``."""
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _marks(count: int) -> str:
    """``count`` comma-separated SQL parameter placeholders."""
    return ", ".join("?" * count)
