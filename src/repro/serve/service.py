"""Threaded HTTP JSON simulation service with request coalescing.

:class:`SimulationService` wraps one shared :class:`~repro.sim.jobs.
JobExecutor` (backed by a persistent :class:`~repro.serve.store.
SQLiteResultStore` by default) behind a small HTTP API, so the expensive
per-invocation costs -- interpreter start, imports, profiled-network
construction, cache warm-up -- are paid once and amortised over every
subsequent request:

========  =============  ====================================================
method    path           behaviour
========  =============  ====================================================
POST      /jobs          simulate one point (or ``{"points": [...]}`` batch);
                         blocks until the result is ready
GET       /jobs/<key>    look a finished result up by content key
POST      /explore       run a design-space sweep against the warm store
GET       /networks      the zoo with per-kind layer counts
GET       /healthz       liveness probe
GET       /stats         service / executor / cache / store counters
POST      /shutdown      graceful stop (finishes in-flight work first)
========  =============  ====================================================

The submission semantics -- coalescing (N concurrent submissions of one key
execute once), bounded-admission 429 backpressure, the warm-store fast path
and graceful drain -- live in :class:`~repro.serve.core.ServiceCore`, which
this class fronts with a :class:`ThreadingHTTPServer`.  The cluster's
workers (:mod:`repro.cluster.worker`) front the *same* core with an asyncio
server, so a shard answers exactly like this single-box service.

The wire format for a job is a design-*point* mapping -- the same parameter
namespace as ``loom-repro explore`` axes (``network`` / ``accuracy`` /
``accelerator`` / every ``AcceleratorConfig`` knob), canonicalised by
:func:`repro.explore.space.canonical_point`.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import __version__
from repro.obs import MetricsRegistry, get_logger, get_tracer
from repro.serve.core import (  # noqa: F401 - _Inflight/_Submitted re-exported
    Backpressure,
    ServiceCore,
    ServiceStats,
    _Inflight,
    _Submitted,
)
from repro.sim.batched import get_default_engine
from repro.sim.jobs import JobExecutor, ResultCache
from repro.sim.results import NetworkResult

__all__ = ["Backpressure", "ServiceStats", "SimulationService"]

_log = get_logger("serve")

#: Largest request body the service accepts (a sweep spec is tiny; anything
#: bigger than this is a client bug, not a workload).
_MAX_BODY_BYTES = 4 * 1024 * 1024


class SimulationService:
    """The batching simulation service behind ``loom-repro serve``.

    Parameters
    ----------
    executor:
        The shared :class:`JobExecutor` (and, through it, the result cache /
        persistent store) every request executes against.  The service owns
        it: ``stop()`` closes it.
    host / port:
        Bind address; ``port=0`` asks the OS for a free port (the bound
        port is available as ``service.port`` after ``start()``).
    queue_limit:
        Bound on concurrently admitted execution batches before submissions
        are refused with 429 (one batch = one unit, however many jobs it
        carries; coalesced duplicates and store answers never count).
    retry_after_s:
        The ``Retry-After`` hint sent with 429 responses.
    wait_timeout_s:
        How long a coalesced waiter polls an owner's execution before
        giving up (a safety net; owners always publish, even on error).

    Cache-miss sets execute on the process-wide engine: with the default
    ``vector`` engine each owner batch -- and each /explore round -- runs as
    whole design planes through
    :func:`repro.sim.batched.simulate_jobs_batched`.
    """

    def __init__(
        self,
        executor: Optional[JobExecutor] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 8,
        retry_after_s: int = 1,
        wait_timeout_s: float = 600.0,
    ) -> None:
        self.core = ServiceCore(
            executor=executor if executor is not None else JobExecutor(
                cache=ResultCache(max_memory_entries=512)),
            queue_limit=queue_limit,
            retry_after_s=retry_after_s,
            wait_timeout_s=wait_timeout_s,
        )
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._stop_requested = threading.Event()
        self.metrics = MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "loom_serve_requests_total",
            "HTTP requests handled, by path template and status code.",
            labelnames=("path", "status"))
        self._request_seconds = self.metrics.histogram(
            "loom_serve_request_seconds",
            "End-to-end HTTP request latency by path template.",
            labelnames=("path",))
        phase_histogram = self.metrics.histogram(
            "loom_executor_phase_seconds",
            "Executor wall time per phase (cache_lookup, layer_table_build, "
            "simulate).",
            labelnames=("phase",))
        self.core.executor.phase_observer = (
            lambda phase, seconds: phase_histogram.observe(seconds,
                                                           phase=phase))
        self.metrics.gauge(
            "loom_serve_pending_batches",
            "Execution batches currently admitted against the queue limit.",
            collect=lambda: self.core._pending_batches)
        self.metrics.gauge(
            "loom_serve_inflight_keys",
            "Distinct job keys currently executing or being awaited.",
            collect=lambda: len(self.core._inflight))
        self.metrics.gauge(
            "loom_serve_uptime_seconds",
            "Seconds since the service started serving.",
            collect=lambda: (time.time() - self.core.started_at
                             if self.core.started_at is not None else 0.0))

    # -- core delegation (the HTTP-independent submission path) ---------------
    #
    # Everything below simply fronts the ServiceCore, preserving the
    # historical SimulationService surface (tests and the cluster's
    # differential harness drive it directly, without HTTP).

    @property
    def executor(self) -> JobExecutor:
        return self.core.executor

    @property
    def cache(self) -> Optional[ResultCache]:
        return self.core.cache

    @property
    def stats(self) -> ServiceStats:
        return self.core.stats

    @property
    def queue_limit(self) -> int:
        return self.core.queue_limit

    @property
    def retry_after_s(self) -> int:
        return self.core.retry_after_s

    @property
    def started_at(self) -> Optional[float]:
        return self.core.started_at

    @property
    def _inflight(self) -> Dict[str, _Inflight]:
        return self.core._inflight

    @property
    def _pending_batches(self) -> int:
        return self.core._pending_batches

    @_pending_batches.setter
    def _pending_batches(self, value: int) -> None:
        self.core._pending_batches = value

    def _bump(self, counter: str, amount: int = 1) -> None:
        self.core._bump(counter, amount)

    def submit_points(self, raw_points: Sequence[Mapping[str, object]],
                      timeout_s: Optional[float] = None) -> List[_Submitted]:
        return self.core.submit_points(raw_points, timeout_s=timeout_s)

    def lookup(self, key: str) -> Tuple[str, Optional[NetworkResult]]:
        return self.core.lookup(key)

    def run_explore(self, request: Mapping[str, object]) -> Dict[str, object]:
        return self.core.run_explore(request)

    def stats_dict(self) -> Dict[str, object]:
        return self.core.stats_dict()

    # -- lifecycle ------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> str:
        """Bind and start serving in a background thread; returns the URL."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = _ServiceServer((self.host, self.port), _Handler, self)
        self.port = self._server.server_address[1]
        self.core.started_at = time.time()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="loom-serve",
            daemon=True,
        )
        self._server_thread.start()
        _log.info("serve.started", url=self.url, engine=get_default_engine(),
                  queue_limit=self.queue_limit, version=__version__)
        return self.url

    def request_stop(self) -> None:
        """Ask the serve loop to stop (safe to call from handler threads)."""
        self._stop_requested.set()

    def wait_until_stopped(self, poll_s: float = 0.5) -> None:
        """Block until ``request_stop`` is called (the CLI's serve loop)."""
        while not self._stop_requested.wait(poll_s):
            pass

    def stop(self, drain_timeout_s: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight work, then release resources.

        ``server.shutdown()`` only stops *accepting* connections -- handler
        threads are daemons and are not joined -- so the executor and store
        must stay open until every admitted batch has published its result;
        otherwise a request racing the shutdown would hit a closed SQLite
        connection and lose its computed result.
        """
        self._stop_requested.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=10.0)
            self._server = None
            self._server_thread = None
            _log.info("serve.stopped", url=self.url)
        self.core.close(drain_timeout_s)

    def __enter__(self) -> "SimulationService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that hands its handlers the service instance."""

    daemon_threads = True

    def __init__(self, address, handler, service: SimulationService) -> None:
        super().__init__(address, handler)
        self.service = service


def _metric_path(path: str) -> str:
    """Low-cardinality path label: keys collapse, junk paths collapse."""
    if path.startswith("/jobs/"):
        return "/jobs/<key>"
    if path in ("/", "/healthz", "/stats", "/networks", "/metrics",
                "/trace", "/jobs", "/explore", "/shutdown"):
        return path
    return "<other>"


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceServer
    #: Human-readable server tag (no version leak in error pages).
    server_version = "loom-serve"
    sys_version = ""
    protocol_version = "HTTP/1.1"
    #: Correlation id for the in-flight request (span id when tracing is
    #: on); echoed as ``X-Request-Id`` on every response and in error
    #: bodies so a 429/500 can be matched to its trace and log lines.
    _request_id = ""
    _status = 0

    # -- plumbing -------------------------------------------------------------

    @property
    def service(self) -> SimulationService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Per-request lines go through the structured logger at debug, so
        # they are silent at the default level but available under
        # --log-level debug (with trace correlation).
        _log.debug("http.access", client=self.address_string(),
                   line=format % args, request_id=self._request_id)

    @contextlib.contextmanager
    def _request_scope(self, method: str):
        """Per-request span, correlation id and metric accounting."""
        self.service._bump("requests")
        path = self.path.rstrip("/") or "/"
        label = _metric_path(path)
        tracer = get_tracer()
        self._status = 0
        self._request_id = os.urandom(8).hex()
        started = time.perf_counter()
        try:
            with tracer.remote_parent(self.headers.get("traceparent")):
                with tracer.span(f"serve.{method} {label}", method=method,
                                 path=path) as span:
                    if span is not None:
                        self._request_id = span.span_id
                    yield path
                    if span is not None and self._status:
                        span.set_attr("status", self._status)
        finally:
            status = str(self._status or 500)
            self.service._requests_total.inc(path=label, status=status)
            self.service._request_seconds.observe(
                time.perf_counter() - started, path=label)

    def _send_json(self, status: int, payload: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._request_id:
            self.send_header("X-Request-Id", self._request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id:
            self.send_header("X-Request-Id", self._request_id)
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _send_error(self, status: int, message: str,
                    headers: Optional[Dict[str, str]] = None) -> None:
        self.service._bump("errors")
        if status >= 500:
            _log.error("http.error", status=status, path=self.path,
                       message=message, request_id=self._request_id)
        payload = {"error": message}
        if self._request_id:
            payload["request_id"] = self._request_id
        self._send_json(status, payload, headers=headers)

    def _drain_body(self) -> bytes:
        """Read the request body up front.

        Persistent (HTTP/1.1) connections require the body to be consumed
        before *any* response -- including errors -- or the unread bytes get
        parsed as the next request on the connection.  Oversized bodies are
        not drained; the connection is closed instead.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ValueError(
                f"request body too large ({length} bytes, "
                f"limit {_MAX_BODY_BYTES})"
            )
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _parse_body(raw: bytes) -> Dict[str, object]:
        if not raw:
            raise ValueError("request body must be a JSON object")
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        with self._request_scope("GET") as path:
            try:
                # keep-alive safety for GETs sent with bodies
                self._drain_body()
                if path == "/healthz":
                    self._send_json(200, {
                        "ok": True,
                        "version": __version__,
                        "uptime_s": time.time() - (self.service.started_at or
                                                   time.time()),
                    })
                elif path == "/stats":
                    payload = self.service.stats_dict()
                    payload["version"] = __version__
                    self._send_json(200, payload)
                elif path == "/metrics":
                    self._send_text(
                        200, self.service.metrics.render(),
                        "text/plain; version=0.0.4; charset=utf-8")
                elif path == "/trace":
                    recorder = get_tracer().recorder
                    self._send_json(200, {
                        "service": get_tracer().service,
                        "spans": [span.to_dict()
                                  for span in recorder.spans()],
                    })
                elif path == "/networks":
                    self._send_json(200, {"networks": _networks_payload()})
                elif path.startswith("/jobs/"):
                    key = path[len("/jobs/"):]
                    status, result = self.service.lookup(key)
                    if status == "done":
                        self._send_json(200, {"key": key, "status": "done",
                                              "result": result.to_dict()})
                    elif status == "pending":
                        self._send_json(202, {"key": key,
                                              "status": "pending"})
                    else:
                        self._send_error(404, f"no result for key {key!r}")
                else:
                    self._send_error(404, f"unknown path {self.path!r}")
            except ValueError as error:
                self._send_error(400, str(error))
            except Exception as error:  # pragma: no cover - defensive
                self._send_error(500, f"{type(error).__name__}: {error}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        with self._request_scope("POST") as path:
            try:
                # Drain before routing so every response -- 404s included --
                # leaves the persistent connection in a parseable state.
                raw = self._drain_body()
                if path == "/jobs":
                    self._handle_jobs(self._parse_body(raw))
                elif path == "/explore":
                    self._send_json(
                        200, self.service.run_explore(self._parse_body(raw)))
                elif path == "/shutdown":
                    self._send_json(200, {"ok": True, "stopping": True})
                    # Stop the serve loop from outside this handler thread:
                    # the owning CLI loop (or .stop() caller) tears the
                    # server down.
                    self.service.request_stop()
                    threading.Thread(target=self.server.shutdown,
                                     daemon=True).start()
                else:
                    self._send_error(404, f"unknown path {self.path!r}")
            except Backpressure as bp:
                self._send_error(
                    429, str(bp),
                    headers={"Retry-After": str(bp.retry_after_s)})
            except (ValueError, KeyError, TypeError) as error:
                self._send_error(400, f"{type(error).__name__}: {error}")
            except TimeoutError as error:
                self._send_error(504, str(error))
            except Exception as error:
                self._send_error(500, f"{type(error).__name__}: {error}")

    def _handle_jobs(self, payload: Dict[str, object]) -> None:
        if "points" in payload:
            points = payload["points"]
            if not isinstance(points, list) or not points:
                raise ValueError("'points' must be a non-empty JSON array")
            submitted = self.service.submit_points(points)
            self._send_json(200, {
                "results": [entry.to_dict() for entry in submitted],
            })
            return
        point = payload.get("point", payload)
        if not isinstance(point, dict) or not point:
            raise ValueError(
                "POST /jobs expects a point object, {'point': {...}} or "
                "{'points': [...]}"
            )
        (submitted,) = self.service.submit_points([point])
        self._send_json(200, submitted.to_dict())


def _networks_payload() -> List[Dict[str, object]]:
    from repro.nn import available_networks
    from repro.sim.jobs import network_kind_counts

    payload = []
    for name in available_networks():
        kinds = network_kind_counts(name)
        payload.append({"name": name, **kinds,
                        "total": sum(kinds.values())})
    return payload
