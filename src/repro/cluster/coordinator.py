"""Cluster coordinator: the async front door that shards work across workers.

The coordinator owns no executor and simulates nothing.  It routes every
job by content key over a :class:`~repro.cluster.ring.ConsistentHashRing`
of workers, fans batches out concurrently, merges shard answers back in
**submission order** (so a cluster answer is bit-identical to an in-process
run), and layers on the operational surface one box never needed:

* **Sharding** -- all submissions of one (network, accelerator, config)
  land on the same worker's warm executor and store, whoever sends them;
* **Failover** -- a worker that dies mid-batch has its keys re-routed to
  the surviving shards (ring exclusion, not mutation: the worker regains
  its keyspace the moment a health check sees it again).  With the peer
  cache on, a shard that rejoins gets a recovery ring push, and for a
  while asks its ring peer before simulating a key, so keys a survivor
  computed in its absence answer ``cached``;
* **Backpressure politeness** -- shard 429s are retried with capped
  exponential backoff honouring ``Retry-After``;
* **Rate limiting** -- per-client token buckets and quotas at the door
  (clients are keyed by ``X-Client-Id``, falling back to peer address);
* **Streaming** -- ``POST /jobs`` can answer NDJSON (one result line per
  resolved point, flushed in submission order as shards answer) and
  ``POST /explore`` can answer SSE (progress events per strategy round,
  then the full result), so clients stop blocking on whole batches;
* **Observability** -- Prometheus ``/metrics`` with request counts and
  latencies, routed-point and retry counters, and per-shard health gauges.

========  =============  ====================================================
method    path           behaviour
========  =============  ====================================================
POST      /jobs          route a point batch across shards (JSON, or NDJSON
                         stream with ``Accept: application/x-ndjson``)
POST      /explore       run a sweep through the shards (JSON, or SSE with
                         ``"stream": true`` / ``Accept: text/event-stream``)
GET       /jobs/<key>    proxy a key lookup to its owning shard
GET       /networks      the zoo with per-kind layer counts
GET       /healthz       coordinator + per-shard health
GET       /stats         coordinator counters, shard table, rate limiter
GET       /metrics       Prometheus text format
GET       /trace         own spans merged with every healthy shard's
POST      /shutdown      graceful stop (in-flight streams get a clean end)
========  =============  ====================================================

Request bodies are parsed by the same functions a worker uses
(:func:`~repro.serve.core.parse_jobs_request`,
:func:`~repro.serve.core.parse_explore_request`), and the request scope --
spans, request ids, error mapping, counters -- is
:class:`~repro.cluster.node.HTTPNode`'s.

Shard answers are never decoded: the coordinator checks each shard body's
frame and entry count (:mod:`repro.cluster.wire`) and splices the entry
bytes, in submission order, into its own answer.  Only a sweep run here
(``POST /explore``) parses entries, because its strategies need results.
Connections to the shards are kept alive and reused
(:func:`repro.cluster.aio.fetch`).
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro import __version__
from repro.cluster import wire
from repro.cluster.aio import (
    HTTPRequest,
    HTTPResponder,
    RequestError,
    compute_backoff,
    fetch,
    fetch_json,
)
from repro.cluster.node import HTTPNode, error_reply
from repro.cluster.ratelimit import RateLimiter
from repro.cluster.ring import ConsistentHashRing
from repro.obs import Span, get_logger, get_tracer
from repro.serve.core import (
    _networks_payload,
    keyed_jobs,
    parse_explore_request,
    parse_jobs_request,
)
from repro.sim.jobs import ExecutorStats
from repro.sim.results import NetworkResult

__all__ = ["ClusterCoordinator", "ShardState"]

_log = get_logger("cluster.coordinator")

#: Points keyed between two yields to the event loop.
_KEYS_PER_YIELD = 64


async def _gather_bools(coroutines) -> List[bool]:
    return await asyncio.gather(*coroutines)


@dataclass
class ShardState:
    """What the coordinator believes about one worker."""

    url: str
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: Optional[str] = None
    last_check: Optional[float] = None
    #: Whether this shard holds current ring membership (pushed at start;
    #: re-pushed when a restarted shard comes back with empty state).
    ring_pushed: bool = False
    #: Ring pushes sent.  Every push after the first is a recovery push:
    #: it opens the shard's peer-lookup window.
    ring_pushes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "ring_pushed": self.ring_pushed,
            "ring_pushes": self.ring_pushes,
        }


@dataclass
class CoordinatorStats:
    """Front-door counters (shard-level work is counted on the shards)."""

    requests: int = 0
    submitted_points: int = 0
    routed_points: int = 0
    shard_retries: int = 0
    rate_limited: int = 0
    errors: int = 0
    explores: int = 0
    streams: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in (
            "requests", "submitted_points", "routed_points", "shard_retries",
            "rate_limited", "errors", "explores", "streams")}


@dataclass
class _Pending:
    """One submitted point travelling through the fan-out."""

    index: int
    point: Mapping[str, object]
    key: str
    attempts: int = 0


@dataclass(eq=False)  # identity-hashed: handles live in a set
class _StreamHandle:
    """An active SSE stream shutdown must terminate cleanly."""

    queue: "asyncio.Queue"
    done: threading.Event = field(default_factory=threading.Event)


class ClusterCoordinator(HTTPNode):
    """The sharded front door behind ``loom-repro cluster``.

    Parameters
    ----------
    workers:
        Worker base URLs (``http://host:port``).  The ring is built over
        these; health checks may mark members down and back up, but
        membership itself is fixed for the coordinator's lifetime.
    host / port:
        Bind address; ``port=0`` asks the OS for a free port.
    rate_limiter:
        Optional :class:`RateLimiter` applied to execution-bearing routes
        (``/jobs``, ``/explore``).  ``None`` disables rate limiting.
    health_interval_s:
        Seconds between background health sweeps (workers marked dead by a
        failed request are re-probed and can recover).
    shard_timeout_s:
        Deadline for one shard batch (covers a cold sweep's simulations).
    shard_backpressure_retries:
        How many times a shard 429 is retried (with capped exponential
        backoff honouring ``Retry-After``) before failing the request.
    peer_cache:
        Activate the cluster-shared cache tier: ring membership is pushed
        to every worker at start (``POST /ring``).  A shard that rejoins
        (marked down, or reporting no ring on ``/healthz``) is pushed
        again with ``"recovery": true``, and for
        :data:`~repro.cluster.peercache.RECOVERY_WINDOW_S` asks a key's
        ring peer before simulating it -- so keys a survivor computed
        while the shard was away are not simulated twice.
    peer_timeout_s:
        Strict budget for one worker's peer-cache lookup.
    """

    role = "coordinator"

    def __init__(
        self,
        workers: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limiter: Optional[RateLimiter] = None,
        health_interval_s: float = 2.0,
        shard_timeout_s: float = 600.0,
        shard_backpressure_retries: int = 8,
        peer_cache: bool = True,
        peer_timeout_s: float = 1.0,
    ) -> None:
        super().__init__(host, port)
        if not workers:
            raise ValueError("a cluster needs at least one worker URL")
        self.shards: Dict[str, ShardState] = {
            url.rstrip("/"): ShardState(url=url.rstrip("/"))
            for url in workers
        }
        if len(self.shards) != len(workers):
            raise ValueError(f"duplicate worker URLs in {list(workers)}")
        self.ring = ConsistentHashRing(self.shards)
        self.rate_limiter = rate_limiter
        if not math.isfinite(peer_timeout_s) or peer_timeout_s <= 0:
            raise ValueError(
                f"peer_timeout_s must be finite and > 0, got {peer_timeout_s}")
        self.peer_cache = peer_cache
        self.peer_timeout_s = peer_timeout_s
        self.health_interval_s = health_interval_s
        self.shard_timeout_s = shard_timeout_s
        self.shard_backpressure_retries = shard_backpressure_retries
        self.stats = CoordinatorStats()
        self._stats_lock = threading.Lock()
        self._stopping = False
        self._health_task: Optional[asyncio.Task] = None
        self._streams: set = set()
        self._explore_threads: set = set()
        #: Makes adding an explore thread and starting it one step, so
        #: stop() never joins a thread that has not started.
        self._explore_lock = threading.Lock()

        self._routed_total = self.metrics.counter(
            "loom_coordinator_points_routed_total",
            "Design points routed, by shard.", labelnames=("shard",))
        self._retries_total = self.metrics.counter(
            "loom_coordinator_shard_retries_total",
            "Point re-routes after a shard failed mid-batch.")
        self._ratelimited_total = self.metrics.counter(
            "loom_coordinator_ratelimited_total",
            "Requests refused by the per-client rate limiter.")
        self._stream_events_total = self.metrics.counter(
            "loom_coordinator_stream_events_total",
            "Chunks/events written on streaming responses.")
        self._shard_healthy = self.metrics.gauge(
            "loom_coordinator_shard_healthy",
            "1 when the shard answered its last health check, else 0.",
            labelnames=("shard",))
        self.metrics.gauge(
            "loom_coordinator_active_streams",
            "Streaming responses currently open.",
            collect=lambda: len(self._streams))
        for url in self.shards:
            self._shard_healthy.set(1, shard=url)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> str:
        url = super().start()

        async def _install_health_loop() -> None:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop())

        self._server.run_coroutine(_install_health_loop()).result(timeout=5.0)
        if self.peer_cache:
            # Hand every worker the ring so their peer tiers route the
            # same way this coordinator does.  A worker that cannot take
            # it (older build, mid-restart) just stays shared-nothing; the
            # health loop retries once it answers again.
            self._server.run_coroutine(
                asyncio.wait_for(
                    _gather_bools(self._push_ring(shard_url)
                                  for shard_url in self.shards),
                    timeout=30.0)
            ).result(timeout=35.0)
        _log.info("coordinator.started", url=url, shards=len(self.shards),
                  peer_cache=self.peer_cache)
        return url

    def stop(self, drain_timeout_s: float = 15.0) -> None:
        """Graceful stop: end streams cleanly, drain handlers, stop the loop.

        Active SSE streams receive a terminal
        ``end {"complete": false, "reason": "shutdown"}`` event before the
        connection closes, so a client watching a long sweep sees a clean
        end-of-stream instead of a hung socket.
        """
        if not self._claim_stop() or self._server.loop is None:
            return
        self._stopping = True
        loop = self._server.loop
        for handle in list(self._streams):
            loop.call_soon_threadsafe(
                handle.queue.put_nowait,
                ("end", {"complete": False, "reason": "shutdown"}))
        if self._health_task is not None:
            loop.call_soon_threadsafe(self._health_task.cancel)
            self._health_task = None
        # Sweeps running on explore threads notice _stopping at their next
        # batch and unwind; give them (and the streams they feed) a moment.
        with self._explore_lock:
            threads = list(self._explore_threads)
        for thread in threads:
            thread.join(timeout=drain_timeout_s)
        self._server.stop(drain_timeout_s=drain_timeout_s)
        _log.info("coordinator.stopped", url=self._server.url)

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, counter,
                    getattr(self.stats, counter) + amount)

    def _count_request(self, label: str, status: int) -> None:
        with self._stats_lock:
            self.stats.requests += 1
            if status >= 400:
                self.stats.errors += 1

    # -- health ---------------------------------------------------------------

    def healthy_shards(self) -> List[str]:
        return [url for url, shard in self.shards.items() if shard.healthy]

    def _mark_shard(self, url: str, healthy: bool,
                    error: Optional[str] = None) -> None:
        shard = self.shards[url]
        if healthy != shard.healthy:
            # Log transitions only -- the health loop re-probes every couple
            # of seconds and steady state must not spam the log.
            if healthy:
                _log.info("shard.recovered", shard=url)
            else:
                _log.warning("shard.down", shard=url, error=error)
        shard.healthy = healthy
        shard.last_check = time.time()
        if healthy:
            shard.consecutive_failures = 0
            shard.last_error = None
        else:
            shard.consecutive_failures += 1
            shard.last_error = error
            # Whatever replaces this shard (a restarted process with an
            # empty ring) must get membership pushed again on recovery.
            shard.ring_pushed = False
        self._shard_healthy.set(1 if healthy else 0, shard=url)

    async def _push_ring(self, url: str) -> bool:
        """Hand ``url`` the ring membership (and the peer lookup budget);
        every push after the first opens its recovery window."""
        shard = self.shards[url]
        payload = {
            "nodes": list(self.shards),
            "self": url,
            "timeout_ms": self.peer_timeout_s * 1000.0,
            "recovery": shard.ring_pushes > 0,
        }
        shard.ring_pushes += 1
        try:
            reply = await fetch(url, "POST", "/ring", payload=payload,
                                timeout_s=10.0)
            ok = 200 <= reply.status < 300
        except (ConnectionError, OSError, asyncio.TimeoutError):
            ok = False
        shard.ring_pushed = ok
        return ok

    async def _probe_shard(self, url: str) -> bool:
        try:
            payload = await fetch_json(url, "GET", "/healthz", timeout_s=5.0)
            ok = bool(payload.get("ok"))
            self._mark_shard(url, ok,
                            None if ok else "healthz reported not ok")
            # A shard restarted between two probes answers healthy but
            # holds no ring: push it again, as a recovery push.
            if ok and self.peer_cache and (
                    not self.shards[url].ring_pushed
                    or payload.get("ring") is False):
                await self._push_ring(url)
            return ok
        except (ConnectionError, OSError, asyncio.TimeoutError,
                RequestError, ValueError) as error:
            self._mark_shard(url, False, f"{type(error).__name__}: {error}")
            return False

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval_s)
            await asyncio.gather(*(self._probe_shard(url)
                                   for url in self.shards))

    # -- fan-out --------------------------------------------------------------

    @staticmethod
    async def _keys_for(points: Sequence[Mapping[str, object]]) -> List[str]:
        """Content keys for ``points`` (validates them as a side effect).

        Derived on the loop: a warm point is a memo hit, cheaper than any
        hop to a thread.  A large cold batch yields to the loop every
        :data:`_KEYS_PER_YIELD` points, so other connections keep moving.
        """
        keys: List[str] = []
        for start in range(0, len(points), _KEYS_PER_YIELD):
            if start:
                await asyncio.sleep(0)
            keys.extend(key for _, key in
                        keyed_jobs(points[start:start + _KEYS_PER_YIELD]))
        return keys

    async def _submit_to_shard(self, url: str,
                               points: List[Mapping[str, object]]
                               ) -> List[bytes]:
        """One shard batch, retrying 429 backpressure politely; the
        shard's entries, unparsed.

        Raises ``ConnectionError``/``asyncio.TimeoutError`` when the shard
        is unreachable or answers a bad frame (the caller's failover path)
        and ``RequestError`` for anything the shard itself rejected (a
        client bug, not a shard death -- never failed over).
        """
        for attempt in range(self.shard_backpressure_retries + 1):
            reply = await fetch(url, "POST", "/jobs",
                                payload={"points": list(points)},
                                timeout_s=self.shard_timeout_s)
            if reply.status == 429 and \
                    attempt < self.shard_backpressure_retries:
                retry_after: Optional[float] = None
                header = reply.headers.get("retry-after")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
                await asyncio.sleep(compute_backoff(
                    attempt, retry_after_s=retry_after, cap_s=5.0))
                continue
            if not 200 <= reply.status < 300:
                try:
                    message = str(reply.json().get("error", reply.status))
                except ValueError:
                    message = f"shard answered HTTP {reply.status}"
                raise RequestError(reply.status, message)
            try:
                entries = wire.unframe_entries(reply.body)
            except ValueError as error:
                raise ConnectionError(f"{url} answered a bad frame: "
                                      f"{error}") from None
            if len(entries) != len(points):
                raise ConnectionError(f"{url} answered {len(entries)} "
                                      f"results for {len(points)} points")
            return entries
        raise RequestError(429, f"shard {url} still overloaded after "
                                f"{self.shard_backpressure_retries} retries")

    async def _submit_points(self, points: Sequence[Mapping[str, object]],
                             emit=None) -> List[bytes]:
        """Route ``points`` across shards; merged entries in submission
        order, as the shards' unparsed entry bytes.

        ``emit(index, entry)`` (async) is called for every resolved point in
        submission order, as soon as every earlier point has resolved -- the
        NDJSON streaming hook.  A shard that fails mid-batch is marked
        unhealthy and its points re-routed across the survivors; only when
        no healthy shard remains does the request fail (503).
        """
        if self._stopping:
            raise RequestError(503, "coordinator is shutting down")
        keys = await self._keys_for(points)
        pending = [_Pending(index=index, point=point, key=key)
                   for index, (point, key) in enumerate(zip(points, keys))]
        slots: List[Optional[bytes]] = [None] * len(pending)
        self._bump("submitted_points", len(pending))
        flushed = 0

        async def _flush() -> int:
            nonlocal flushed
            while flushed < len(slots) and slots[flushed] is not None:
                if emit is not None:
                    await emit(flushed, slots[flushed])
                flushed += 1
            return flushed

        # Start from the shards already known dead so their keys route
        # around them immediately; a request-time failure adds to this set.
        dead = {url for url, shard in self.shards.items()
                if not shard.healthy}
        remaining = pending
        max_rounds = len(self.shards) + 1
        for _round in range(max_rounds):
            if not remaining:
                break
            groups: Dict[str, List[_Pending]] = {}
            for item in remaining:
                owner = self.ring.node_for(item.key, exclude=dead)
                if owner is None:
                    raise RequestError(
                        503, f"no healthy workers left for key {item.key} "
                             f"({len(self.shards)} total, all down)")
                groups.setdefault(owner, []).append(item)

            async def _run_group(url: str, items: List[_Pending]):
                try:
                    entries = await self._submit_to_shard(
                        url, [item.point for item in items])
                except (ConnectionError, OSError,
                        asyncio.TimeoutError) as error:
                    return url, items, error
                # Fill and flush as THIS shard answers -- a fast shard's
                # prefix streams out while slower shards are still
                # simulating.  (Handlers run on one event loop; fills and
                # flushes never interleave mid-statement.)
                self._bump("routed_points", len(items))
                self._routed_total.inc(len(items), shard=url)
                for item, entry in zip(items, entries):
                    slots[item.index] = entry
                await _flush()
                return url, items, None

            outcomes = await asyncio.gather(
                *(_run_group(url, items) for url, items in groups.items()))
            remaining = []
            for url, items, error in outcomes:
                if error is not None:
                    # Shard died mid-batch: exclude it and re-route its
                    # points.  (A client-level RequestError propagates out
                    # of gather above -- a 400 is the caller's bug on every
                    # shard alike, not a failover case.)
                    self._mark_shard(url, False,
                                     f"{type(error).__name__}: {error}")
                    dead.add(url)
                    self._bump("shard_retries", len(items))
                    self._retries_total.inc(len(items))
                    remaining.extend(items)
            await _flush()
        if remaining:  # pragma: no cover - every round kills >= 1 shard
            raise RequestError(503, "cluster failed to place every point")
        return [entry for entry in slots if entry is not None]

    # -- explore (strategies local, simulations sharded) ----------------------

    def _run_explore(self, arguments: Mapping[str, object],
                     emit=None) -> Dict[str, object]:
        """Run one validated sweep (:func:`parse_explore_request` output)
        with simulations fanned out to the shards.

        Blocking (runs on an explore thread); ``emit(event, data)`` fires
        per executor batch with brief per-job results -- the SSE hook.
        """
        from repro.explore.engine import explore

        self._bump("explores")
        return explore(executor=_ShardedExecutor(self, emit=emit),
                       **arguments).to_dict()

    # -- request handling -----------------------------------------------------

    def _client_id(self, request: HTTPRequest) -> str:
        header = request.headers.get("x-client-id")
        if header:
            return header
        return request.client.rsplit(":", 1)[0]

    def _check_rate(self, request: HTTPRequest) -> None:
        if self.rate_limiter is None:
            return
        decision = self.rate_limiter.check(self._client_id(request))
        if decision.allowed:
            return
        self._bump("rate_limited")
        self._ratelimited_total.inc()
        headers = {}
        if decision.retry_after_s is not None:
            headers["Retry-After"] = str(max(1, int(decision.retry_after_s
                                                    + 0.999)))
        message = ("client quota exhausted" if decision.reason == "quota"
                   else "rate limit exceeded")
        raise RequestError(429, message, headers)

    async def _route(self, request: HTTPRequest, responder: HTTPResponder,
                     path: str) -> None:
        method = request.method
        if method == "GET" and path == "/healthz":
            healthy = self.healthy_shards()
            await responder.send_json(200 if healthy else 503, {
                "ok": bool(healthy),
                "role": "coordinator",
                "version": __version__,
                "uptime_s": self.uptime_s(),
                "shards": {url: shard.healthy
                           for url, shard in self.shards.items()},
            })
        elif method == "GET" and path == "/stats":
            await responder.send_json(200, await self._stats_payload())
        elif method == "GET" and path == "/metrics":
            await responder.send_text(200, self.metrics.render())
        elif method == "GET" and path == "/trace":
            await responder.send_json(200, await self._trace_payload())
        elif method == "GET" and path == "/networks":
            payload = await asyncio.get_running_loop().run_in_executor(
                None, _networks_payload)
            await responder.send_json(200, {"networks": payload})
        elif method == "GET" and path.startswith("/jobs/"):
            await self._proxy_lookup(path[len("/jobs/"):], responder)
        elif method == "POST" and path == "/jobs":
            self._check_rate(request)
            await self._handle_jobs(request, responder)
        elif method == "POST" and path == "/explore":
            self._check_rate(request)
            await self._handle_explore(request, responder)
        elif method == "POST" and path == "/shutdown":
            await self._shutdown(responder)
        else:
            raise RequestError(404, f"unknown path {request.path!r}")

    async def _stats_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "role": "coordinator",
            "version": __version__,
            "uptime_s": self.uptime_s(),
            "service": self.stats.to_dict(),
            "shards": {url: shard.to_dict()
                       for url, shard in self.shards.items()},
            "ring": {"replicas": self.ring.replicas,
                     "nodes": list(self.ring.nodes)},
            "peer_cache": {"enabled": self.peer_cache,
                           "timeout_s": self.peer_timeout_s},
        }
        if self.rate_limiter is not None:
            payload["rate_limiter"] = self.rate_limiter.stats_dict()

        async def _shard_stats(url: str):
            try:
                return url, await fetch_json(url, "GET", "/stats",
                                             timeout_s=5.0)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    RequestError, ValueError):
                return url, None
        gathered = await asyncio.gather(
            *(_shard_stats(url) for url in self.healthy_shards()))
        payload["workers"] = {url: stats for url, stats in gathered
                              if stats is not None}
        return payload

    async def _trace_payload(self) -> Dict[str, object]:
        """Own recorded spans plus every healthy shard's, one flat list.

        Shard spans round-trip through :class:`~repro.obs.trace.Span` so a
        malformed entry from a mid-upgrade worker drops that shard's
        contribution instead of corrupting the merged trace.
        """
        tracer = get_tracer()
        spans = [span.to_dict() for span in tracer.recorder.spans()]

        async def _shard_trace(url: str) -> List[Dict[str, object]]:
            try:
                payload = await fetch_json(url, "GET", "/trace",
                                           timeout_s=5.0)
                return [Span.from_dict(entry).to_dict()
                        for entry in payload.get("spans", [])]
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    RequestError, ValueError, KeyError, TypeError):
                return []
        gathered = await asyncio.gather(
            *(_shard_trace(url) for url in self.healthy_shards()))
        for shard_spans in gathered:
            spans.extend(shard_spans)
        return {"service": tracer.service, "spans": spans}

    async def _proxy_lookup(self, key: str,
                            responder: HTTPResponder) -> None:
        owner = self.ring.node_for(
            key, exclude={url for url, shard in self.shards.items()
                          if not shard.healthy})
        if owner is None:
            raise RequestError(503, "no healthy workers")
        try:
            reply = await fetch(owner, "GET", f"/jobs/{key}", timeout_s=30.0)
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            self._mark_shard(owner, False, f"{type(error).__name__}: {error}")
            raise RequestError(503, f"shard {owner} is unreachable") from None
        # The shard's answer is forwarded as it came, body unparsed.
        await responder.send(reply.status, reply.body,
                             reply.headers.get("content-type",
                                               "application/json"))

    async def _handle_jobs(self, request: HTTPRequest,
                           responder: HTTPResponder) -> None:
        points, single = parse_jobs_request(request.json())
        if single or not request.wants("application/x-ndjson"):
            entries = await self._submit_points(points)
            await responder.send(200, entries[0] if single
                                 else wire.frame_entries(entries),
                                 "application/json")
            return
        # NDJSON stream: one line per resolved point, submission order,
        # flushed as shard answers land -- then a terminal summary line.
        self._bump("streams")
        await responder.start_stream("application/x-ndjson")

        async def _emit(index: int, entry: bytes) -> None:
            self._stream_events_total.inc()
            await responder.write_chunk(wire.ndjson_line(index, entry))

        try:
            entries = await self._submit_points(points, emit=_emit)
        except Exception as error:  # noqa: BLE001 - the stream must end
            status, message, _ = error_reply(error)
            await responder.write_chunk(
                (json.dumps({"error": message, "status": status})
                 + "\n").encode("utf-8"))
            await responder.finish_stream()
            return
        await responder.write_chunk(
            (json.dumps({"done": True, "count": len(entries)}) + "\n")
            .encode("utf-8"))
        await responder.finish_stream()

    async def _handle_explore(self, request: HTTPRequest,
                              responder: HTTPResponder) -> None:
        payload = request.json()
        # Validated up front, so a bad request is a plain 400, not a stream.
        arguments = parse_explore_request(payload)
        stream = bool(payload.get("stream")) or \
            request.wants("text/event-stream")
        loop = asyncio.get_running_loop()
        if not stream:
            # copy_context: run_in_executor loses contextvars, and the
            # sweep's shard submissions should stay in this request's trace.
            context = contextvars.copy_context()
            result = await loop.run_in_executor(
                None, lambda: context.run(self._run_explore, arguments))
            await responder.send_json(200, result)
            return

        self._bump("streams")
        handle = _StreamHandle(queue=asyncio.Queue())
        self._streams.add(handle)

        def _push(event: str, data: Dict[str, object]) -> None:
            if self._server.loop is not None and not handle.done.is_set():
                self._server.loop.call_soon_threadsafe(
                    handle.queue.put_nowait, (event, data))

        def _explore_thread() -> None:
            try:
                result = self._run_explore(arguments, emit=_push)
                _push("result", result)
                _push("end", {"complete": True})
            except Exception as error:  # noqa: BLE001 - stream must terminate
                status, message, _ = error_reply(error)
                _push("error", {"error": message, "status": status})
                _push("end", {"complete": False, "reason": "error"})
            finally:
                self._explore_threads.discard(threading.current_thread())

        # The server closes an SSE connection after its stream; say so.
        responder.close_after = True
        await responder.start_stream("text/event-stream")
        await responder.write_event("start", {
            "strategy": payload.get("strategy", "grid"),
            "space_points": arguments["space"].size,
        })
        self._stream_events_total.inc()
        context = contextvars.copy_context()
        thread = threading.Thread(target=lambda: context.run(_explore_thread),
                                  daemon=True, name="loom-explore-stream")
        with self._explore_lock:
            self._explore_threads.add(thread)
            thread.start()
        try:
            while True:
                event, data = await handle.queue.get()
                self._stream_events_total.inc()
                await responder.write_event(event, data)
                if event == "end":
                    break
            await responder.finish_stream()
        finally:
            handle.done.set()
            self._streams.discard(handle)


class _ShardedExecutor:
    """JobExecutor facade whose ``run`` fans out through the coordinator.

    Drives :func:`repro.explore.engine.explore` from an explore thread:
    every batch becomes one sharded ``_submit_points`` round trip on the
    coordinator's event loop, and ``emit`` (when streaming) receives one
    ``progress`` event per batch with brief per-job results -- which is how
    a streamed ``/explore`` delivers results while later strategy rounds
    are still simulating.
    """

    def __init__(self, coordinator: ClusterCoordinator, emit=None) -> None:
        self.coordinator = coordinator
        self.emit = emit
        self.stats = ExecutorStats()
        self.cache = None
        self._completed = 0

    def run(self, jobs) -> List[NetworkResult]:
        from repro.explore.space import job_to_point

        if self.coordinator._stopping:
            raise RuntimeError("coordinator is shutting down")
        loop = self.coordinator.loop
        if loop is None:
            raise RuntimeError("coordinator is not running")
        jobs = list(jobs)
        points = [job_to_point(job) for job in jobs]
        self.stats.submitted += len(jobs)
        future = asyncio.run_coroutine_threadsafe(
            self.coordinator._submit_points(points), loop)
        entries = [json.loads(entry) for entry in
                   future.result(timeout=self.coordinator.shard_timeout_s)]
        results = []
        brief = []
        for entry in entries:
            if entry["status"] == "executed":
                self.stats.record_execution(entry["key"])
            else:  # "cached" or "coalesced": a shard reused a result
                self.stats.cache_hits += 1
            result = NetworkResult.from_dict(entry["result"])
            results.append(result)
            brief.append({"key": entry["key"], "status": entry["status"],
                          "network": result.network,
                          "accelerator": result.accelerator,
                          "cycles": result.total_cycles()})
        self._completed += len(results)
        if self.emit is not None:
            self.emit("progress", {"batch_jobs": len(jobs),
                                   "completed": self._completed,
                                   "results": brief})
        return results

    def close(self) -> None:
        """Executor-protocol parity; nothing is held locally."""
