"""The HTTP node: one warm :class:`ServiceCore` behind an asyncio server.

A worker is the one kind of serve node.  ``loom-repro serve`` runs a single
worker; ``loom-repro cluster`` runs several as the shards behind a
coordinator.  Each owns one :class:`~repro.serve.core.ServiceCore` -- and
through it one warm :class:`~repro.sim.jobs.JobExecutor` and (typically)
one :class:`~repro.serve.store.SQLiteResultStore` -- and answers over an
:class:`~repro.cluster.aio.AsyncHTTPServer`:

========  =============  ====================================================
method    path           behaviour
========  =============  ====================================================
POST      /jobs          simulate one point (or a ``{"points": [...]}``
                         batch); blocks until the result is ready
GET       /jobs/<key>    look a finished result up by content key
POST      /explore       run a design-space sweep against the warm store
GET       /networks      the zoo with per-kind layer counts
POST      /cache/lookup  the peer-cache wire: ``{"keys": [...]}`` answered
                         ``{"results": {key: result}}`` from this node's
                         local tiers only (``ResultCache.peek_many``)
POST      /ring          accept ring membership from the coordinator and
                         activate the peer cache tier (``"recovery": true``
                         opens its recovery window)
GET       /healthz       liveness probe, with version, uptime and whether
                         this node holds a ring
GET       /stats         core / executor / cache / store counters
GET       /metrics       Prometheus text format (``loom_worker_*``)
GET       /trace         this process's recorded spans
POST      /shutdown      graceful stop (finishes in-flight work first)
========  =============  ====================================================

Cache reads run on the event loop, compute in the pool.  The loop answers
a ``POST /jobs`` batch whose keys all hit the memory or SQLite tier, a
``GET /jobs/<key>`` and a ``POST /cache/lookup`` itself: each is a lookup,
and a hop to a thread would cost more than the answer.  A batch with any
miss goes to a small thread pool once, carrying what the loop looked up
(:class:`~repro.serve.core.Lookup`), because a simulation batch is blocking
NumPy work; execution and store writes run there, a peer probe waits there
while its requests go out on the loop, and the core's locks already
serialise what must be serialised.  Request coalescing, bounded-admission
429 backpressure, the warm-store fast path and the miss path all come from
the core; request ids, spans, the error mapping and the counters from
:class:`~repro.cluster.node.HTTPNode`.

On ``POST /ring`` the worker builds a
:class:`~repro.cluster.peercache.PeerCacheBackend` on its own event loop
and hands it to the core as its peer tier; the ring has 64 virtual nodes
per member, as the coordinator's does.  After a recovery push (this node
rejoined the ring), a key this node claims is asked of its ring peer once
before it is simulated -- one request per peer for a whole ``POST /jobs``
batch -- for :data:`~repro.cluster.peercache.RECOVERY_WINDOW_S`;
otherwise a claimed key is simulated and written to the local tiers only.
``/cache/lookup`` answers from the local tiers alone, so peer traffic
ends at the first hop.

The wire format for a job is a design-*point* mapping -- the same parameter
namespace as ``loom-repro explore`` axes (``network`` / ``accuracy`` /
``accelerator`` / every ``AcceleratorConfig`` knob), canonicalised by
:func:`repro.explore.space.canonical_point`.  Results go out as the JSON
text the cache tiers hold, spliced into the body by
:mod:`repro.cluster.wire`: a warm answer encodes and decodes nothing.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Sequence

from repro import __version__
from repro.cluster import wire
from repro.cluster.aio import HTTPRequest, HTTPResponder, RequestError
from repro.cluster.node import HTTPNode
from repro.cluster.peercache import PeerCacheBackend
from repro.obs import get_logger, get_tracer
from repro.serve.core import (
    Lookup,
    ServiceCore,
    _networks_payload,
    parse_jobs_request,
)
from repro.sim.batched import get_default_engine

__all__ = ["ClusterWorker", "build_worker"]

_log = get_logger("cluster.worker")

#: The node-to-node peer-cache route, left out of the client request
#: counters.
_PEER_ROUTE = "/cache/lookup"


class ClusterWorker(HTTPNode):
    """The serve node: an asyncio front over a warm :class:`ServiceCore`.

    Parameters
    ----------
    core:
        The node's :class:`ServiceCore` (owning the executor and store);
        a fresh in-memory-cached core is built when omitted.  The worker
        owns it: ``stop()`` closes it.
    host / port:
        Bind address; ``port=0`` asks the OS for a free port.
    name:
        Label for logs and the coordinator's ``/stats`` shard table
        (defaults to ``worker-<port>`` once bound).
    request_threads:
        Threads servicing blocking core calls.  More threads = more batches
        admitted concurrently (up to the core's ``queue_limit``).
    """

    role = "worker"

    def __init__(self, core: Optional[ServiceCore] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 name: Optional[str] = None,
                 request_threads: int = 8) -> None:
        if request_threads < 1:
            raise ValueError(
                f"request_threads must be >= 1, got {request_threads}")
        super().__init__(host, port)
        self.core = core if core is not None else ServiceCore()
        self.name = name
        self._peer_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._request_threads = request_threads
        self.metrics.gauge(
            "loom_worker_queue_depth",
            "Execution batches currently admitted (queue_limit bounds this).",
            collect=lambda: self.core._pending_batches)
        self.metrics.gauge(
            "loom_worker_inflight_keys",
            "Content keys currently executing (coalescing targets).",
            collect=lambda: len(self.core._inflight))
        self.metrics.gauge(
            "loom_worker_cache_hit_ratio",
            "Fraction of submitted jobs answered without a simulation.",
            collect=self.core.cache_hit_ratio)
        self.metrics.gauge(
            "loom_worker_jobs_executed_total",
            "Simulations actually run by this node's executor.",
            collect=lambda: self.core.executor.stats.executed)
        self.metrics.gauge(
            "loom_worker_store_answers_total",
            "Submissions answered straight from the warm store.",
            collect=lambda: self.core.stats.store_answers)
        phase_histogram = self.metrics.histogram(
            "loom_executor_phase_seconds",
            "Executor wall time per phase (cache_lookup, layer_table_build, "
            "simulate).",
            labelnames=("phase",))
        self.core.executor.phase_observer = (
            lambda phase, seconds: phase_histogram.observe(seconds,
                                                           phase=phase))

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> str:
        url = super().start()
        if self.name is None:
            self.name = f"worker-{self.port}"
        self._pool = ThreadPoolExecutor(
            max_workers=self._request_threads,
            thread_name_prefix=f"{self.name}-exec")
        _log.info("worker.started", name=self.name, url=url,
                  engine=get_default_engine(),
                  queue_limit=self.core.queue_limit, version=__version__)
        return url

    def stop(self, drain_timeout_s: float = 30.0) -> None:
        """Stop accepting, drain in-flight batches, close executor + store."""
        if not self._claim_stop():
            return
        self._server.stop(drain_timeout_s=min(drain_timeout_s, 10.0))
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.core.close(drain_timeout_s)
        _log.info("worker.stopped", name=self.name)

    # -- peer cache tier ------------------------------------------------------

    @property
    def peer_cache(self) -> Optional[PeerCacheBackend]:
        """The core's peer tier; ``None`` until ring membership arrives."""
        return self.core.peers

    def configure_peers(self, nodes: Sequence[str],
                        self_url: Optional[str] = None,
                        timeout_s: Optional[float] = None,
                        recovery: bool = False) -> int:
        """Activate (or re-shape) the peer cache tier over ``nodes``.

        Installs a :class:`PeerCacheBackend` on this worker's event loop
        as the core's peer tier, so the worker must be running.
        ``recovery`` opens its recovery window, in which a key this node
        claims is asked of its ring-preferred peer before the executor
        simulates it.  Idempotent: a second call updates ring membership
        (and, when given, the lookup budget) in place.  An invalid
        ``timeout_s`` raises ``ValueError`` and changes nothing.
        Returns the number of peers (nodes excluding this one).  The
        coordinator drives this through ``POST /ring``; embedders may call
        it directly.
        """
        own = (self_url or self.url).rstrip("/")
        with self._peer_lock:
            if self.core.peers is None:
                if self.core.cache is None:
                    raise RuntimeError(
                        "this worker's executor has no result cache to "
                        "hold peer answers")
                if self.loop is None:
                    raise RuntimeError("worker is not running")
                # Unconfigured, the tier answers nothing, so a push that
                # fails validation below is inert.
                self.core.peers = PeerCacheBackend(self.loop,
                                                   metrics=self.metrics)
            if timeout_s is not None:
                self.core.peers.timeout_s = timeout_s  # validates
            self.core.peers.configure(list(nodes), self_url=own,
                                      recovery=recovery)
            return sum(1 for node in nodes if node.rstrip("/") != own)

    # -- request handling -----------------------------------------------------

    async def _in_thread(self, fn, *args):
        """Run a blocking core call on the worker pool.

        The call is bound to a snapshot of the current (asyncio-task)
        context: pool threads do not inherit contextvars, and without the
        snapshot executor spans opened inside ``fn`` would start fresh
        traces instead of joining the request's.
        """
        if self._pool is None:
            raise RuntimeError("worker is not running")
        loop = self._server.loop
        context = contextvars.copy_context()
        return await loop.run_in_executor(
            self._pool, lambda: context.run(fn, *args))

    def _count_request(self, label: str, status: int) -> None:
        # Peer-cache traffic is node-to-node: the peer tier counts it, the
        # client counters do not.
        if label != _PEER_ROUTE:
            self.core.count_request(status)

    async def _route(self, request: HTTPRequest, responder: HTTPResponder,
                     path: str) -> None:
        method = request.method
        if method == "POST" and path == "/jobs":
            points, single = parse_jobs_request(request.json())
            submitted = self.core.submit_points(points, on_loop=True)
            if isinstance(submitted, Lookup):  # a key missed: compute
                body = await self._in_thread(
                    lambda: self._jobs_body(self.core.finish(submitted),
                                            single))
            else:
                body = self._jobs_body(submitted, single)
            await responder.send(200, body, "application/json")
        elif method == "GET" and path == "/healthz":
            await responder.send_json(200, {
                "ok": True,
                "role": "worker",
                "name": self.name,
                "version": __version__,
                "uptime_s": self.uptime_s(),
                # False tells the coordinator to push the ring again.
                "ring": getattr(self.peer_cache, "ring", None) is not None,
            })
        elif method == "GET" and path == "/stats":
            await responder.send_json(200,
                                      await self._in_thread(self.stats_dict))
        elif method == "GET" and path == "/metrics":
            await responder.send_text(200, self.metrics.render())
        elif method == "GET" and path == "/trace":
            tracer = get_tracer()
            await responder.send_json(200, {
                "service": self.name or tracer.service,
                "spans": [span.to_dict()
                          for span in tracer.recorder.spans()],
            })
        elif method == "GET" and path == "/networks":
            await responder.send_json(200, {
                "networks": await self._in_thread(_networks_payload)})
        elif method == "GET" and path.startswith("/jobs/"):
            key = path[len("/jobs/"):]
            status, found = self.core.lookup(key)
            if status == "done":
                await responder.send(200, wire.entry(key, "done", found.text),
                                     "application/json")
            elif status == "pending":
                await responder.send_json(202, {"key": key,
                                                "status": "pending"})
            else:
                raise RequestError(404, f"no result for key {key!r}")
        elif method == "POST" and path == "/cache/lookup":
            keys = request.json().get("keys")
            if not isinstance(keys, list) or \
                    not all(isinstance(key, str) for key in keys):
                raise RequestError(400, "'keys' must be a list of strings")
            await responder.send(200, self._peer_lookup(keys),
                                 "application/json")
        elif method == "POST" and path == "/ring":
            payload = request.json()
            nodes = payload.get("nodes")
            if not isinstance(nodes, list) or not nodes or \
                    not all(isinstance(node, str) for node in nodes):
                raise RequestError(
                    400, "'nodes' must be a non-empty list of worker URLs")
            timeout_ms = payload.get("timeout_ms")
            recovery = payload.get("recovery", False)
            if not isinstance(recovery, bool):
                raise RequestError(400, "'recovery' must be true or false")
            peers = await self._in_thread(
                lambda: self.configure_peers(
                    nodes,
                    self_url=payload.get("self"),
                    timeout_s=(float(timeout_ms) / 1000.0
                               if timeout_ms is not None else None),
                    recovery=recovery))
            await responder.send_json(200, {"ok": True, "peers": peers,
                                            "self": self.peer_cache.self_url})
        elif method == "POST" and path == "/explore":
            await responder.send_json(200, await self._in_thread(
                self.core.run_explore, request.json()))
        elif method == "POST" and path == "/shutdown":
            await self._shutdown(responder)
        else:
            raise RequestError(404, f"unknown path {request.path!r}")

    @staticmethod
    def _jobs_body(submitted, single: bool) -> bytes:
        """The ``POST /jobs`` answer: one entry, or a framed batch."""
        entries = [wire.entry(done.key, done.status, done.text)
                   for done in submitted]
        return entries[0] if single else wire.frame_entries(entries)

    def _peer_lookup(self, keys: Sequence[str]) -> bytes:
        """The ``POST /cache/lookup`` answer: local tiers only."""
        cache = self.core.cache
        found = cache.peek_many(keys) if cache is not None else {}
        return wire.frame_texts({key: entry.text
                                 for key, entry in found.items()})

    def stats_dict(self) -> Dict[str, object]:
        payload = self.core.stats_dict()
        payload.update(role="worker", name=self.name, version=__version__,
                       uptime_s=self.uptime_s())
        return payload


def build_worker(store_path: Optional[str] = None,
                 max_entries: Optional[int] = None,
                 max_memory_entries: int = 512,
                 queue_limit: int = 8,
                 host: str = "127.0.0.1", port: int = 0) -> ClusterWorker:
    """A node over a fresh executor, backed by a private SQLite store at
    ``store_path`` (memory only when ``None``); not yet started."""
    from repro.serve.store import SQLiteResultStore
    from repro.sim.jobs import JobExecutor, ResultCache

    backend = (SQLiteResultStore(store_path, max_entries=max_entries)
               if store_path else None)
    executor = JobExecutor(
        cache=ResultCache(backend=backend,
                          max_memory_entries=max_memory_entries))
    return ClusterWorker(core=ServiceCore(executor=executor,
                                          queue_limit=queue_limit),
                         host=host, port=port)


def worker_process_main(store_path: Optional[str] = None,
                        queue_limit: int = 8,
                        max_memory_entries: int = 512,
                        host: str = "127.0.0.1", port: int = 0,
                        log_level: str = "info",
                        log_json: bool = False,
                        engine: str = "vector") -> None:
    """Entry point for one ``loom-repro cluster`` worker child process.

    Builds a :class:`ClusterWorker` around a fresh executor (backed by a
    private SQLite store when ``store_path`` is given), prints the bound URL
    as the first line on stdout, and serves until a ``POST /shutdown`` or
    SIGTERM/SIGINT stops it.  ``log_level`` / ``log_json`` / ``engine``
    forward the parent CLI's global flags into the child.
    """
    from repro.obs import Tracer, configure_logging, set_tracer
    from repro.sim.batched import set_default_engine

    configure_logging(level=log_level, json_output=log_json)
    set_default_engine(engine)
    worker = build_worker(store_path, max_memory_entries=max_memory_entries,
                          queue_limit=queue_limit, host=host, port=port)
    url = worker.start()
    # Name this process's spans after the shard so a merged Chrome trace
    # shows one row per worker instead of an undifferentiated "loom".
    set_tracer(Tracer(service=worker.name or "worker"))
    print(url, flush=True)
    worker.serve_until_stopped()
