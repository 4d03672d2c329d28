"""Cluster-shared cache tier: ring-routed peer lookups and replicas.

Cluster shards were shared-nothing through PR 7: each worker's warm
:class:`~repro.serve.store.SQLiteResultStore` answered only the keys that
worker had simulated itself, so a failover or ring change that re-routed a
key to another shard paid for a fresh simulation -- throwing away exactly
the warm-store amortisation that makes ``serve`` worth running.

:class:`PeerCacheBackend` turns the N private caches into one cluster-wide
result cache.  It is not a cache layer itself: it is the network client a
worker's :class:`~repro.serve.core.ServiceCore` calls on its miss path,
after the local tiers (memory and store, inside
:class:`~repro.sim.jobs.cache.ResultCache`) have missed and the request has
claimed its keys.  Both directions are batch-shaped: a worker request
costs one peer request per peer and direction, however many keys it
carries.

* **load_many** -- group the claimed keys by their ring-preferred peer (the
  node a re-routed key would land on) and send each peer one
  ``POST /cache/lookup {"keys": [...]}``, all peers concurrently.  A peer
  answers ``{"results": {key: result}}``; a key absent from ``results`` is
  a miss.  The core stores the answers in its own cache, so each key
  crosses the network at most once per shard.
* **replicate_many** -- send freshly simulated results (fire and forget),
  grouped by failover target, as one ``POST /cache/replicate {"entries":
  {key: result}}`` per peer.  The target is the ring owner when this
  shard is not the owner, or the ring *successor* when it is: precisely the
  shard the key will be re-routed to if this one dies, so a re-routed key
  finds its replica in the new owner's local tiers.
* **timeout budget** -- every batched lookup has a strict deadline
  (``timeout_s``) shared by its concurrent peer requests; a slow or dead
  peer degrades gracefully to local compute, and a connection-refused peer
  is put on a short cooldown so a dead shard does not tax every subsequent
  miss with a full timeout.

The peer target for both directions is ``ring.node_for(key,
exclude={self})``: for a non-owner that is the owner; for the owner it is
the failover successor.  One expression covers lookup and replication.

The counters stay per key: ``peer_hits``, ``peer_misses`` and
``peer_timeouts`` add up to the keys asked (a failed or timed-out request
counts each of its keys), and ``peer_writes`` counts replicated keys.

A peer serves ``POST /cache/lookup`` with ``ResultCache.peek_many`` and
stores replicas with ``ResultCache.put_many``.  Neither reaches this class,
so a lookup cannot chain through the ring and a replica cannot bounce back.

Results travel as their JSON texts, framed by :mod:`repro.cluster.wire`:
a replica is sent as the text the sender's cache holds, and an answer is
decoded once, to validate it, then cached as the text it arrived as.

The backend runs its network I/O on a private asyncio loop in a daemon
thread (reusing :func:`repro.cluster.aio.fetch` and its keep-alive
connections), so it can be driven from the synchronous core without
touching the worker's own event loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import math
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster import wire
from repro.cluster.aio import TIMEOUTS, close_idle_connections, fetch
from repro.obs.metrics import PEER_LATENCY_BUCKETS, MetricsRegistry
from repro.cluster.ring import ConsistentHashRing
from repro.sim.jobs.cache import CachedResult
from repro.sim.results import NetworkResult

__all__ = ["PeerCacheBackend"]

#: After a connection-level failure, skip asking that peer again for this
#: long: a dead shard should cost one failed dial, not one per miss.
DEAD_PEER_COOLDOWN_S = 2.0

#: Most results one ``POST /cache/replicate`` carries.  The largest zoo
#: result encodes to ~19 KB, so a full request stays well under the
#: receiving node's 4 MB body limit however large the worker request was.
REPLICATE_CHUNK = 128


class PeerCacheBackend:
    """Ring-routed peer lookups and write-through replicas for one shard.

    Parameters
    ----------
    ring / self_url:
        Ring membership and this shard's own URL.  Both may be deferred to
        :meth:`configure` (the worker learns membership from the
        coordinator's ``POST /ring``); until configured, :meth:`load_many`
        answers nothing and :meth:`replicate_many` does nothing.
    timeout_s:
        Strict budget for one batched peer lookup, queueing included:
        finite and > 0.  On expiry the outstanding requests are abandoned
        (their keys counted in ``peer_timeouts``) and the caller computes
        locally.
    metrics:
        Optional :class:`MetricsRegistry` to surface
        ``loom_peer_cache_{hits,misses,timeouts}_total`` counters and the
        ``loom_peer_cache_fetch_seconds`` histogram on ``/metrics``.
    """

    def __init__(self, ring: Optional[ConsistentHashRing] = None,
                 self_url: str = "",
                 timeout_s: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.timeout_s = timeout_s
        self.ring = ring
        self.self_url = self_url.rstrip("/")
        #: Peer-tier counters (plain ints; /stats + tests read them).
        self.peer_hits = 0
        self.peer_misses = 0
        self.peer_timeouts = 0
        self.peer_writes = 0
        self.peer_write_errors = 0
        self._lock = threading.Lock()
        self._cooldown_until: Dict[str, float] = {}
        self._pending_writes: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._closed = False
        #: ``loom_peer_cache_<outcome>_total`` counters by outcome.
        self._metrics: Dict[str, object] = {}
        self._fetch_seconds = None
        if metrics is not None:
            self._metrics = {
                "hits": metrics.counter(
                    "loom_peer_cache_hits_total",
                    "Local misses answered by a peer shard's cache."),
                "misses": metrics.counter(
                    "loom_peer_cache_misses_total",
                    "Peer lookups the owning shard could not answer."),
                "timeouts": metrics.counter(
                    "loom_peer_cache_timeouts_total",
                    "Peer lookups abandoned because the peer was slow or "
                    "dead."),
            }
            self._fetch_seconds = metrics.histogram(
                "loom_peer_cache_fetch_seconds",
                "Peer cache lookup request latency in seconds (one sample "
                "per peer request, however many keys it carries).",
                buckets=PEER_LATENCY_BUCKETS)

    @property
    def timeout_s(self) -> float:
        return self._timeout_s

    @timeout_s.setter
    def timeout_s(self, value: float) -> None:
        # The one validation point for every way a budget arrives: the
        # constructor and every POST /ring, the first and any later one.
        value = float(value)
        if not math.isfinite(value) or value <= 0:
            raise ValueError(
                f"timeout_s must be finite and > 0, got {value}")
        self._timeout_s = value

    # -- membership -----------------------------------------------------------

    def configure(self, nodes: List[str], self_url: Optional[str] = None,
                  replicas: int = 64) -> None:
        """(Re)build the ring over ``nodes``; idempotent membership update.

        ``replicas`` must match the coordinator's ring or the two sides
        would disagree about key ownership.
        """
        ring = ConsistentHashRing((url.rstrip("/") for url in nodes),
                                  replicas=replicas)
        with self._lock:
            self.ring = ring
            if self_url is not None:
                self.self_url = self_url.rstrip("/")
            self._cooldown_until.clear()

    def peer_for(self, key: str) -> Optional[str]:
        """The peer worth asking (and replicating to) for ``key``.

        The first ring node that is not this shard: the key's owner when
        we are not it, its failover successor when we are.  ``None`` when
        the ring is unconfigured or holds no other node.
        """
        ring = self.ring
        if ring is None or not self.self_url:
            return None
        return ring.node_for(key, exclude={self.self_url})

    # -- peer tier ------------------------------------------------------------

    def load(self, key: str) -> Optional[CachedResult]:
        """One key's :meth:`load_many`: ``None`` unless a peer answered."""
        return self.load_many((key,)).get(key)

    def load_many(self, keys: Iterable[str]) -> Dict[str, CachedResult]:
        """Ask each key's peer for its result, one request per peer.

        Returns the answered keys; a miss, a timeout, a dead or
        cooling-down peer and an unconfigured ring all leave a key out.
        The caller always has local compute to fall back on, so nothing
        here raises.
        """
        by_peer: Dict[str, List[str]] = {}
        for key in dict.fromkeys(keys):
            peer = self.peer_for(key)
            if peer is not None:
                by_peer.setdefault(peer, []).append(key)
        started = time.monotonic()
        with self._lock:
            cooling = [peer for peer in by_peer
                       if started < self._cooldown_until.get(peer, 0.0)]
        for peer in cooling:
            self._count("timeouts", len(by_peer.pop(peer)))
        found: Dict[str, CachedResult] = {}
        if not by_peer:
            return found
        try:
            loop = self._ensure_loop()
        except RuntimeError:  # closed mid-request
            self._count("timeouts", sum(map(len, by_peer.values())))
            return found
        futures = {
            peer: asyncio.run_coroutine_threadsafe(
                fetch(peer, "POST", "/cache/lookup",
                      payload={"keys": peer_keys},
                      timeout_s=self.timeout_s), loop)
            for peer, peer_keys in by_peer.items()
        }
        for peer, future in futures.items():
            found.update(self._collect(peer, by_peer[peer], future, started))
        return found

    def close(self) -> None:
        self.flush_writes(timeout_s=2.0)
        with self._lock:
            self._closed = True
            loop, thread = self._loop, self._loop_thread
            self._loop = self._loop_thread = None
        if loop is not None:
            # Cancel and drain any still-pending fetch, and close the idle
            # pooled connections, before stopping the loop, so transports
            # close on a live loop instead of complaining from the garbage
            # collector.
            async def _drain() -> None:
                tasks = [task for task in asyncio.all_tasks()
                         if task is not asyncio.current_task()]
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                await close_idle_connections()

            try:
                asyncio.run_coroutine_threadsafe(
                    _drain(), loop).result(timeout=5.0)
            except (concurrent.futures.TimeoutError, RuntimeError):
                pass  # best effort: the loop stops either way
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=5.0)

    # -- peer I/O -------------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._closed:
                raise RuntimeError("peer cache backend is closed")
            if self._loop is not None:
                return self._loop
            loop = asyncio.new_event_loop()
            ready = threading.Event()

            def _run() -> None:
                asyncio.set_event_loop(loop)
                loop.call_soon(ready.set)
                loop.run_forever()
                loop.close()

            thread = threading.Thread(target=_run, daemon=True,
                                      name="loom-peer-cache-io")
            thread.start()
            self._loop = loop
            self._loop_thread = thread
        ready.wait(timeout=5.0)
        return loop

    def _collect(self, peer: str, keys: List[str], future,
                 started: float) -> Dict[str, CachedResult]:
        """Wait (within what is left of the budget) for one peer's
        ``POST /cache/lookup`` and count its keys."""
        try:
            reply = future.result(
                timeout=max(0.0, self.timeout_s
                            - (time.monotonic() - started)))
        except TIMEOUTS:
            future.cancel()
            self._note_timeout(peer, started, len(keys), cooldown=False)
            return {}
        except (ConnectionError, OSError, RuntimeError):
            # Connection refused / reset: the peer is dead or restarting.
            # Cool it down so the next misses skip straight to computing.
            self._note_timeout(peer, started, len(keys), cooldown=True)
            return {}
        if self._fetch_seconds is not None:
            self._fetch_seconds.observe(time.monotonic() - started)
        found: Dict[str, CachedResult] = {}
        try:
            texts = (wire.unframe_texts("results", reply.body)
                     if reply.status == 200 else {})
            for key in keys:
                if key in texts:
                    found[key] = CachedResult(
                        texts[key], NetworkResult.from_json(texts[key]))
        except (ValueError, KeyError, TypeError):
            found = {}  # unreadable answer: recompute every key locally
        self._count("hits", len(found))
        self._count("misses", len(keys) - len(found))
        return found

    def _note_timeout(self, peer: str, started: float, keys: int,
                      cooldown: bool) -> None:
        if self._fetch_seconds is not None:
            self._fetch_seconds.observe(time.monotonic() - started)
        if cooldown:
            with self._lock:
                self._cooldown_until[peer] = (time.monotonic()
                                              + DEAD_PEER_COOLDOWN_S)
        self._count("timeouts", keys)

    def _count(self, outcome: str, keys: int) -> None:
        """Add ``keys`` to ``peer_<outcome>`` and its ``/metrics`` series."""
        if not keys:
            return
        with self._lock:
            setattr(self, f"peer_{outcome}",
                    getattr(self, f"peer_{outcome}") + keys)
        metric = self._metrics.get(outcome)
        if metric is not None:
            metric.inc(keys)

    def replicate_many(self, items: Iterable[Tuple[str, object]]) -> None:
        """Fire-and-forget replication of fresh ``(key, result)`` pairs
        (``result`` is anything with a ``to_json()``): one
        ``POST /cache/replicate`` per failover target and
        :data:`REPLICATE_CHUNK` results (no-op while the ring has no other
        node)."""
        by_peer: Dict[str, List[Tuple[str, str]]] = {}
        for key, result in items:
            peer = self.peer_for(key)
            if peer is not None:
                by_peer.setdefault(peer, []).append((key, result.to_json()))
        if not by_peer:
            return
        try:
            loop = self._ensure_loop()
        except RuntimeError:  # closed mid-request
            return
        for peer, entries in by_peer.items():
            for start in range(0, len(entries), REPLICATE_CHUNK):
                chunk = dict(entries[start:start + REPLICATE_CHUNK])
                future = asyncio.run_coroutine_threadsafe(
                    fetch(peer, "POST", "/cache/replicate",
                          payload=wire.frame_texts("entries", chunk),
                          timeout_s=self.timeout_s), loop)
                with self._lock:
                    self._pending_writes.add(future)
                future.add_done_callback(
                    functools.partial(self._replicated, len(chunk)))

    def _replicated(self, keys: int, completed) -> None:
        with self._lock:
            self._pending_writes.discard(completed)
            try:
                reply = completed.result()
                if 200 <= reply.status < 300:
                    self.peer_writes += keys
                else:
                    self.peer_write_errors += keys
            except (ConnectionError, OSError, asyncio.CancelledError,
                    ValueError) + TIMEOUTS:
                self.peer_write_errors += keys

    def flush_writes(self, timeout_s: float = 5.0) -> bool:
        """Wait for outstanding replications; True when none
        remain.  Tests (and close()) use this for determinism -- the hot
        path never waits on replication."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if not self._pending_writes:
                    return True
            time.sleep(0.005)
        with self._lock:
            return not self._pending_writes

    # -- introspection --------------------------------------------------------

    def stats_dict(self) -> Dict[str, object]:
        """Peer-tier counters (the worker's /stats ``store`` section adds
        the local store under ``local``)."""
        with self._lock:
            return {
                "backend": "peer cache",
                "peers": max((len(self.ring) - 1), 0)
                if self.ring is not None else 0,
                "timeout_s": self.timeout_s,
                "peer_hits": self.peer_hits,
                "peer_misses": self.peer_misses,
                "peer_timeouts": self.peer_timeouts,
                "peer_writes": self.peer_writes,
                "peer_write_errors": self.peer_write_errors,
            }
