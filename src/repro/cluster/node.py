"""The request scope every HTTP node shares.

Both node kinds -- :class:`~repro.cluster.worker.ClusterWorker` (what
``loom-repro serve`` runs, and each shard of ``loom-repro cluster``) and
:class:`~repro.cluster.coordinator.ClusterCoordinator` -- subclass
:class:`HTTPNode`.  It owns the asyncio server, the lifecycle and the
per-request scope, defined once:

* a low-cardinality path label (keys collapse into ``/jobs/<key>``,
  unknown paths into ``<other>``);
* a ``<role>.<METHOD> <label>`` span joined to the caller's trace, and a
  correlation id (the span id, or a per-node counter when tracing is off)
  sent as ``X-Request-Id`` on every response and as ``request_id`` in
  error bodies -- one span and one histogram observation per request, and
  no other per-request objects when tracing is off;
* the one exception-to-status mapping, :func:`error_reply`;
* the ``requests``/``errors`` counters and the ``loom_<role>_requests_total``
  / ``loom_<role>_request_seconds`` / ``loom_<role>_uptime_seconds`` series,
  all counted from the response status.  A request is counted when its
  response head is written -- before the client can have the answer, so a
  caller that got its reply always sees it counted -- and its latency is
  observed when the handler ends.

Subclasses implement ``_route``, ``_count_request`` and ``stop``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from typing import Dict, Optional, Tuple

from repro.cluster.aio import (
    AsyncHTTPServer,
    HTTPRequest,
    HTTPResponder,
    RequestError,
    TIMEOUTS,
)
from repro.obs import MetricsRegistry, get_logger, get_tracer
from repro.serve.core import Backpressure

__all__ = ["HTTPNode", "error_reply", "path_label"]

_log = get_logger("cluster.node")

#: The span scope of a request that carries no ``traceparent``.
_NO_PARENT = contextlib.nullcontext()

#: Paths that label themselves; everything else is ``<other>``.
_ROUTES = frozenset(("/", "/jobs", "/explore", "/networks", "/healthz",
                     "/stats", "/metrics", "/trace", "/ring", "/shutdown",
                     "/cache/lookup"))


def path_label(path: str) -> str:
    """The metric / span label for ``path`` (bounded cardinality)."""
    if path.startswith("/jobs/"):
        return "/jobs/<key>"
    return path if path in _ROUTES else "<other>"


def error_reply(error: BaseException) -> Tuple[int, str, Dict[str, str]]:
    """Map an exception to ``(status, message, headers)``.

    :class:`RequestError` keeps its status; malformed input
    (``ValueError``/``KeyError``/``TypeError``) is 400; a full admission
    queue (:class:`Backpressure`) is 429 with ``Retry-After``; a timeout is
    504; anything else is 500.
    """
    if isinstance(error, RequestError):
        return error.status, error.message, error.headers
    if isinstance(error, Backpressure):
        return 429, str(error), {"Retry-After": str(error.retry_after_s)}
    if isinstance(error, (ValueError, KeyError, TypeError)):
        return 400, f"{type(error).__name__}: {error}", {}
    if isinstance(error, TIMEOUTS):
        return 504, str(error), {}
    return 500, f"{type(error).__name__}: {error}", {}


class HTTPNode:
    """An asyncio HTTP node: lifecycle plus the shared request scope."""

    #: Span-name prefix and metric namespace (``loom_<role>_*``).
    role = "node"

    def __init__(self, host: str, port: int) -> None:
        self._server = AsyncHTTPServer(self._handle, host=host, port=port,
                                       server_tag=f"loom-cluster-{self.role}")
        #: Label for logs and spans (a worker names itself once bound).
        self.name: Optional[str] = None
        self.started_at: Optional[float] = None
        self._stop_lock = threading.Lock()
        self._stopped = False
        self.metrics = MetricsRegistry()
        #: Request ids when tracing is off (with it on, the span id): a
        #: random per-node prefix and a counter, unique per node.
        self._id_prefix = os.urandom(4).hex()
        self._ids = itertools.count()
        self._requests_total = self.metrics.counter(
            f"loom_{self.role}_requests_total",
            "HTTP requests handled, by path and status.",
            labelnames=("path", "status"))
        self._request_seconds = self.metrics.histogram(
            f"loom_{self.role}_request_seconds",
            "Request latency in seconds, by path.",
            labelnames=("path",))
        self.metrics.gauge(
            f"loom_{self.role}_uptime_seconds",
            "Seconds since the node started serving.",
            collect=self.uptime_s)

    # -- lifecycle ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return self._server.url

    @property
    def loop(self):
        return self._server.loop

    def uptime_s(self) -> float:
        return (time.time() - self.started_at
                if self.started_at is not None else 0.0)

    def start(self) -> str:
        """Bind and serve on a background event loop; returns the URL."""
        url = self._server.start()
        self.started_at = time.time()
        return url

    def _claim_stop(self) -> bool:
        """True for the one caller that gets to run the stop sequence."""
        with self._stop_lock:
            if self._stopped:
                return False
            self._stopped = True
            return True

    def request_stop(self) -> None:
        """Trigger a graceful stop without blocking (signal-handler safe)."""
        threading.Thread(target=self.stop, daemon=True,
                         name=f"loom-{self.role}-stop").start()

    def wait_until_stopped(self, poll_s: float = 0.5) -> None:
        """Block until the node has stopped (the CLI's main loop)."""
        while not self._stopped or self._server.loop is not None:
            time.sleep(poll_s)

    def serve_until_stopped(self) -> None:
        """Serve until ``POST /shutdown``, SIGINT or SIGTERM, then stop."""
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, lambda *_: self.request_stop())
            except ValueError:  # not the main thread (e.g. a test runner)
                break
        try:
            self.wait_until_stopped()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request scope --------------------------------------------------------

    async def _handle(self, request: HTTPRequest,
                      responder: HTTPResponder) -> None:
        started = time.monotonic()
        path = request.path.rstrip("/") or "/"
        label = responder.label = path_label(path)
        responder.on_head = self._count
        tracer = get_tracer()
        try:
            if not tracer.enabled:
                responder.request_id = self._request_id()
                await self._answer(request, responder, path)
                return
            parent = request.headers.get("traceparent")
            with (tracer.remote_parent(parent) if parent is not None
                  else _NO_PARENT):
                with tracer.span(f"{self.role}.{request.method} {label}",
                                 path=path, node=self.name or self.role
                                 ) as span:
                    responder.request_id = (span.span_id if span is not None
                                            else self._request_id())
                    await self._answer(request, responder, path)
                    if span is not None:
                        span.set_attr("status", responder.status)
        finally:
            if not responder.responded:
                self._count(label, 500)
            self._request_seconds.observe(time.monotonic() - started,
                                          path=label)

    def _request_id(self) -> str:
        return f"{self._id_prefix}{next(self._ids):08x}"

    def _count(self, label: str, status: int) -> None:
        """Count one answered request (the responder calls this as its
        head goes out)."""
        self._count_request(label, status)
        self._requests_total.inc(path=label, status=str(status))

    async def _answer(self, request: HTTPRequest, responder: HTTPResponder,
                      path: str) -> None:
        try:
            await self._route(request, responder, path)
        except Exception as error:
            if responder.responded:
                raise  # mid-stream: the server ends the stream
            await self._send_error(responder, error)

    async def _send_error(self, responder: HTTPResponder,
                          error: Exception) -> None:
        status, message, headers = error_reply(error)
        if status >= 500:
            _log.error("http.error", status=status, message=message,
                       request_id=responder.request_id)
        await responder.send_json(
            status, {"error": message, "request_id": responder.request_id},
            headers=headers)

    async def _shutdown(self, responder: HTTPResponder) -> None:
        """``POST /shutdown``: answer, then stop once the reply is out."""
        responder.close_after = True  # announced as Connection: close
        await responder.send_json(200, {"ok": True, "stopping": True})
        # The server cannot tear itself down from inside a handler; a plain
        # thread does it once this response is on the wire.
        self.request_stop()

    async def _route(self, request: HTTPRequest, responder: HTTPResponder,
                     path: str) -> None:
        raise NotImplementedError

    def _count_request(self, label: str, status: int) -> None:
        raise NotImplementedError

    def stop(self, drain_timeout_s: float = 15.0) -> None:
        """Graceful stop; the first call (see ``_claim_stop``) does the work."""
        raise NotImplementedError
