"""Cluster-shared cache tier: ring-routed peer lookups after a rejoin.

Each worker's :class:`~repro.serve.store.SQLiteResultStore` answers only
the keys that worker simulated itself.  While a shard is down, its keys
are re-routed to its failover successor, which simulates them; once the
shard rejoins, those keys route home again, to a shard that lacks them.
:class:`PeerCacheBackend` lets the rejoined shard ask the successor
instead of simulating them a second time.

It is not a cache layer itself: it is the network client a worker's
:class:`~repro.serve.core.ServiceCore` calls on its miss path, after the
local tiers (memory and store, inside
:class:`~repro.sim.jobs.cache.ResultCache`) have missed and the request
has claimed its keys.

* **recovery window** -- the tier asks peers only for
  :data:`RECOVERY_WINDOW_S` after a ``POST /ring`` that carries
  ``"recovery": true``.  The coordinator sets that flag on every push to
  a shard after its first: the shard was marked down, or came back
  without a ring.  Outside the window :meth:`load_many` answers nothing
  and sends nothing, so steady cold traffic costs one compute and one
  local write per point.  A probe on a never-seen point cannot hit, and
  a recompute is always bit-identical, so nothing is lost.
* **load_many** -- group the claimed keys by their ring-preferred peer
  (``ring.node_for(key, exclude={self})``: the owner when this shard is
  not it, the failover successor when it is) and send each peer one
  ``POST /cache/lookup {"keys": [...]}``, all peers concurrently.  A peer
  answers ``{"results": {key: result}}``; a key absent from ``results`` is
  a miss.  The core stores the answers in its own cache, so each key
  crosses the network at most once per shard.
* **timeout budget** -- every batched lookup has a strict deadline
  (``timeout_s``) shared by its concurrent peer requests; a slow or dead
  peer degrades gracefully to local compute, and a connection-refused peer
  is put on a short cooldown so a dead shard does not tax every subsequent
  miss with a full timeout.

The counters count keys: ``peer_hits``, ``peer_misses`` and
``peer_timeouts`` add up to the keys asked (a failed or timed-out request
counts each of its keys).

A peer serves ``POST /cache/lookup`` with ``ResultCache.peek_many``,
which never reaches this class, so a lookup cannot chain through the ring.
An answer arrives framed by :mod:`repro.cluster.wire`; it is decoded once,
to validate it, then cached as the text it arrived as.

The tier runs its network I/O on the event loop of the worker that builds
it, through :func:`repro.cluster.aio.fetch` and that loop's keep-alive
connections, which the worker's server closes when it stops.
:meth:`~PeerCacheBackend.load_many` is called from the worker's compute
pool and waits there; on the loop's own thread it answers nothing rather
than block the loop it waits on.

The ring has :class:`~repro.cluster.ring.ConsistentHashRing`'s 64 virtual
nodes per member, as the coordinator's does, so both sides agree on who
owns a key.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from typing import Dict, Iterable, List, Optional

from repro.cluster import wire
from repro.cluster.aio import TIMEOUTS, fetch
from repro.obs.metrics import PEER_LATENCY_BUCKETS, MetricsRegistry
from repro.cluster.ring import ConsistentHashRing
from repro.sim.jobs.cache import CachedResult
from repro.sim.results import NetworkResult

__all__ = ["PeerCacheBackend"]

#: After a connection-level failure, skip asking that peer again for this
#: long: a dead shard should cost one failed dial, not one per miss.
DEAD_PEER_COOLDOWN_S = 2.0

#: How long a recovery ``POST /ring`` lets this shard ask its peers: long
#: enough for clients to come back for the keys its successor computed
#: while it was away, short enough that cold traffic soon stops paying a
#: probe that cannot hit.
RECOVERY_WINDOW_S = 30.0


class PeerCacheBackend:
    """Ring-routed peer lookups for one shard, inside a recovery window.

    Parameters
    ----------
    loop:
        The event loop of the worker that builds the tier; every peer
        request runs on it.
    timeout_s:
        Strict budget for one batched peer lookup, queueing included:
        finite and > 0.  On expiry the outstanding requests are abandoned
        (their keys counted in ``peer_timeouts``) and the caller computes
        locally.
    metrics:
        Optional :class:`MetricsRegistry` to surface
        ``loom_peer_cache_{hits,misses,timeouts}_total`` counters and the
        ``loom_peer_cache_fetch_seconds`` histogram on ``/metrics``.

    Membership arrives through :meth:`configure` (the worker learns it
    from the coordinator's ``POST /ring``); until then, and outside a
    recovery window, :meth:`load_many` answers nothing.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 timeout_s: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.loop = loop
        self.timeout_s = timeout_s
        self.ring: Optional[ConsistentHashRing] = None
        self.self_url = ""
        #: Peer-tier counters (plain ints; /stats + tests read them).
        self.peer_hits = 0
        self.peer_misses = 0
        self.peer_timeouts = 0
        self._lock = threading.Lock()
        self._cooldown_until: Dict[str, float] = {}
        self._recovery_until = 0.0
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
                  recovery: bool = False) -> None:
        """(Re)build the ring over ``nodes``; idempotent membership update.

        ``recovery`` opens a :data:`RECOVERY_WINDOW_S` window from now;
        without it an open window stays as it is.
        """
        ring = ConsistentHashRing(url.rstrip("/") for url in nodes)
        with self._lock:
            self.ring = ring
            if self_url is not None:
                self.self_url = self_url.rstrip("/")
            self._cooldown_until.clear()
            if recovery:
                self._recovery_until = time.monotonic() + RECOVERY_WINDOW_S

    @property
    def recovering(self) -> bool:
        """Whether the recovery window is open (peers are asked)."""
        return time.monotonic() < self._recovery_until

    def peer_for(self, key: str) -> Optional[str]:
        """The peer worth asking for ``key``.

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
        Outside the recovery window, on the worker loop's own thread
        (which a wait here would deadlock) and once that loop has stopped,
        nothing is asked or counted.
        The caller always has local compute to fall back on, so nothing
        here raises.
        """
        if not self.recovering or not self._may_wait():
            return {}
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
        futures = {}
        for peer, peer_keys in by_peer.items():
            request = fetch(peer, "POST", "/cache/lookup",
                            payload={"keys": peer_keys},
                            timeout_s=self.timeout_s)
            try:
                futures[peer] = asyncio.run_coroutine_threadsafe(request,
                                                                 self.loop)
            except RuntimeError:  # the worker's loop closed meanwhile
                request.close()
                self._count("timeouts", len(peer_keys))
        found: Dict[str, CachedResult] = {}
        for peer, future in futures.items():
            found.update(self._collect(peer, by_peer[peer], future, started))
        return found

    # -- peer I/O -------------------------------------------------------------

    def _may_wait(self) -> bool:
        """Whether this thread may wait on the worker's loop: it runs, and
        on another thread."""
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        return running is not self.loop and self.loop.is_running()

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
            texts = (wire.unframe_texts(reply.body)
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
                "recovering": self.recovering,
            }
