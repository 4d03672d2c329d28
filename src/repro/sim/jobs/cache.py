"""Content-keyed result cache for simulation jobs.

The cache maps a :func:`~repro.sim.jobs.spec.job_key` content hash to the
packed bytes of the :class:`~repro.sim.results.NetworkResult` the job
produced.  Lookups go through an in-memory dict first; an optional
persistent store behind it -- :class:`repro.serve.store.SQLiteResultStore`,
one SQLite database in WAL mode, the repository's one persistent store --
makes results survive across processes and invocations, which is what lets
a repeated ``loom-repro all`` -- or a long-running ``loom-repro serve``
process -- skip every simulation it has already done.  ``loom-repro
--cache-dir DIR`` installs one at ``DIR/results.db``, and every serve node
keeps one.  An unreadable or mismatched entry is counted in
``stats.invalid_disk_entries`` and treated as a miss rather than crashing
the run.

The in-memory layer can itself be bounded (``max_memory_entries``): entries
beyond the bound are evicted least-recently-used and counted in
``stats.evictions``.  The default is unbounded, which is right for one-shot
CLI runs; long-running processes (the service) set a bound so the dict cannot
grow without limit.  All ``ResultCache`` operations are thread-safe.

Every operation is batch-shaped: :meth:`ResultCache.get_many`,
:meth:`~ResultCache.peek_many` and :meth:`~ResultCache.put_many` (and the
store's ``load_many`` / ``store_many``) take a whole request's keys at
once, so the store answers a batch with one query and persists it in one
transaction.  ``get``, ``peek``,
``put``, ``load`` and ``store`` are the one-key forms.

Both tiers hold a result as its packed bytes
(:meth:`~repro.sim.results.NetworkResult.to_packed`), the same bytes nodes
exchange, so a warm hit between nodes does no encoding or decoding at
all; JSON is rendered only for a client that asks for it.  The batch
lookups answer :class:`CachedResult` entries -- the bytes, plus the result
decoded lazily on first use -- and the stores take anything with a
``to_packed()`` (a :class:`~repro.sim.results.NetworkResult` or a
:class:`CachedResult`).  The one-key ``get``/``peek`` decode.

These two tiers are local to the process: no ``ResultCache`` operation ever
does network I/O.  A cluster worker's peer tier
(:class:`repro.cluster.peercache.PeerCacheBackend`) is not part of it:
the worker's :class:`~repro.serve.core.ServiceCore` consults it on its miss
path, after this cache has missed.

A decoded result shares nothing with the cache: each lookup that decodes
builds its own object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.sim.results import NetworkResult

if TYPE_CHECKING:
    from repro.serve.store import SQLiteResultStore

__all__ = ["CacheStats", "CachedResult", "ResultCache"]


class CachedResult:
    """One cached result: its packed bytes, decoded only when asked.

    ``packed`` is :meth:`NetworkResult.to_packed` output; :attr:`result`
    decodes it on first access (with :meth:`NetworkResult.from_packed`)
    and keeps the object.  An entry built from a result in hand (:meth:`of`)
    starts decoded.
    """

    __slots__ = ("packed", "_result")

    def __init__(self, packed: bytes,
                 result: Optional[NetworkResult] = None) -> None:
        self.packed = packed
        self._result = result

    @classmethod
    def of(cls, result: NetworkResult) -> "CachedResult":
        return cls(result.to_packed(), result)

    @property
    def result(self) -> NetworkResult:
        if self._result is None:
            self._result = NetworkResult.from_packed(self.packed)
        return self._result

    def to_packed(self) -> bytes:
        return self.packed

    def to_json(self) -> str:
        """The JSON rendering, for a client that asked for JSON."""
        return self.result.to_json()

    def to_dict(self) -> Dict[str, object]:
        return self.result.to_dict()


#: One ``store_many`` item: ``(key, result, spec)``; ``result`` is anything
#: with a ``to_packed()`` (a NetworkResult or a CachedResult), ``spec`` the
#: key's preimage text (:func:`~repro.sim.jobs.spec.spec_payload`) or None.
StoreItem = Tuple[str, object, Optional[str]]


@dataclass
class CacheStats:
    """Counters describing what the cache did for a run.

    ``disk_hits`` counts lookups answered by the persistent store;
    ``invalid_disk_entries`` counts store entries that were unreadable or mismatched and therefore treated as
    misses; ``evictions`` counts in-memory entries dropped by the
    ``max_memory_entries`` LRU bound.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid_disk_entries: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> Dict[str, int]:
        """Plain-data form (what ``loom-repro serve`` reports on /stats)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid_disk_entries": self.invalid_disk_entries,
            "evictions": self.evictions,
        }


class ResultCache:
    """In-memory (plus optional persistent) store of results by key.

    Parameters
    ----------
    backend:
        Optional persistent
        :class:`~repro.serve.store.SQLiteResultStore` behind the memory
        layer.
    max_memory_entries:
        Optional LRU bound on the in-memory dict.  ``None`` (the default)
        keeps every result for the life of the process -- fine for one-shot
        CLI invocations, unbounded growth for long-running services, which
        is why ``loom-repro serve`` always sets a bound.  Evicted entries
        are counted in ``stats.evictions`` and, when a backend is attached,
        remain loadable from it.
    """

    def __init__(self, *, backend: Optional["SQLiteResultStore"] = None,
                 max_memory_entries: Optional[int] = None) -> None:
        if max_memory_entries is not None and max_memory_entries < 1:
            raise ValueError(
                f"max_memory_entries must be >= 1 (or None for unbounded), "
                f"got {max_memory_entries}"
            )
        self.backend = backend
        self.max_memory_entries = max_memory_entries
        #: key -> packed result (``NetworkResult.to_packed``), LRU order.
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- lookup --------------------------------------------------------------

    def get(self, key: str) -> Optional[NetworkResult]:
        """Return the cached result for ``key`` (decoded), or ``None`` on a
        miss."""
        entry = self.get_many((key,)).get(key)
        return entry.result if entry is not None else None

    def peek(self, key: str) -> Optional[NetworkResult]:
        """Like :meth:`get`, but a miss is not counted in the statistics."""
        entry = self.peek_many((key,)).get(key)
        return entry.result if entry is not None else None

    def get_many(self, keys: Iterable[str]) -> Dict[str, CachedResult]:
        """The cached entries for ``keys``; a missed key is absent.

        A key repeated in ``keys`` is looked up (and counted) once.
        """
        return self._lookup_many(keys, count_miss=True)

    def peek_many(self, keys: Iterable[str]) -> Dict[str, CachedResult]:
        """Like :meth:`get_many`, but misses are not counted.

        For probe-style lookups (the service's pre-admission pass, result
        lookups by key, a peer's ``POST /cache/lookup``) that are followed
        by a counted :meth:`recheck_many` of the misses -- or by nothing at
        all -- so hit-rate statistics stay meaningful.
        """
        return self._lookup_many(keys, count_miss=False)

    def recheck_many(self, keys: Iterable[str]) -> Dict[str, CachedResult]:
        """Like :meth:`get_many` for keys a :meth:`peek_many` just missed.

        Memory is asked again, so a result another thread stored since is
        still found; the backend is not, since it already missed.  Each
        miss is counted here, once.
        """
        return self._lookup_many(keys, count_miss=True, ask_backend=False)

    def _lookup_many(self, keys: Iterable[str], count_miss: bool,
                     ask_backend: bool = True) -> Dict[str, CachedResult]:
        found: Dict[str, CachedResult] = {}
        missing = []
        with self._lock:
            for key in dict.fromkeys(keys):
                packed = self._memory.get(key)
                if packed is not None:
                    self._memory.move_to_end(key)
                    found[key] = CachedResult(packed)
                else:
                    missing.append(key)
            self.stats.memory_hits += len(found)
            if missing and not ask_backend:
                self.stats.misses += len(missing)
                missing = []
        if not missing:
            return found
        # Backend I/O runs outside the cache-wide lock (the backend carries
        # its own), so warm memory hits never serialise behind another
        # thread's disk/SQLite access.  Concurrent same-key loads are
        # idempotent: both threads remember the same stored bytes.
        loaded = (self.backend.load_many(missing)
                  if self.backend is not None else {})
        with self._lock:
            if self.backend is not None:
                self.stats.invalid_disk_entries = self.backend.invalid_entries
            for key, entry in loaded.items():
                self._remember(key, entry.packed)
            self.stats.disk_hits += len(loaded)
            if count_miss:
                self.stats.misses += len(missing) - len(loaded)
        found.update(loaded)
        return found

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.backend is not None and self.backend.contains(key)

    def __len__(self) -> int:
        return len(self._memory)

    # -- store ---------------------------------------------------------------

    def put(self, key: str, result, spec: Optional[str] = None) -> None:
        """Store ``result`` under ``key``; ``spec`` (the key's preimage
        text) is kept on disk for audit."""
        self.put_many(((key, result, spec),))

    def put_many(self, items: Iterable[StoreItem]) -> None:
        """Store every ``(key, result, spec)`` of ``items``; the backend
        persists the whole batch at once.  ``result`` is anything with a
        ``to_packed()``; a fresh NetworkResult is encoded here, once."""
        items = list(items)
        if not items:
            return
        with self._lock:
            for key, result, _ in items:
                self._remember(key, result.to_packed())
            self.stats.stores += len(items)
        if self.backend is not None:
            # Outside the lock: persisting must not block memory lookups.
            self.backend.store_many(items)

    def _remember(self, key: str, packed: bytes) -> None:
        self._memory[key] = packed
        self._memory.move_to_end(key)
        if self.max_memory_entries is not None:
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory entries (persistent entries are left alone)."""
        with self._lock:
            self._memory.clear()

    def close(self) -> None:
        """Close the persistent backend, if any."""
        if self.backend is not None:
            self.backend.close()
