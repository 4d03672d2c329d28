"""Request-scoped tracing: spans, context propagation, Chrome export.

One trace follows one piece of work -- a CLI invocation, an HTTP request, a
sweep -- across every process it touches.  The pieces:

* :class:`SpanContext` -- the (trace_id, span_id) pair that travels.  On
  the wire it is a W3C-``traceparent``-style header
  (``00-<32 hex>-<16 hex>-01``); :func:`parse_traceparent` /
  :meth:`SpanContext.to_traceparent` convert.
* :class:`Span` -- one named, timed operation with attributes and a parent
  link.  Spans from different processes join into one trace purely through
  shared ``trace_id``/``parent_id`` values.
* :class:`Tracer` -- hands out spans via the ``span("name", **attrs)``
  context manager.  The active context lives in a
  :class:`contextvars.ContextVar`, so nesting works identically on
  threads and asyncio tasks, and ``asyncio.run_coroutine_threadsafe`` /
  ``loop.call_soon_threadsafe`` carry it across loop boundaries for free.
  Thread pools do **not** inherit context; wrap the callable with
  :meth:`Tracer.propagate` (the cluster worker does this for its executor
  pool).
* :class:`SpanRecorder` -- a bounded ring buffer of finished spans.  Every
  node exposes its recorder on ``GET /trace``; :func:`chrome_trace` turns
  any span collection into Chrome trace-event JSON (load it in
  ``chrome://tracing`` or Perfetto).

The process-wide default tracer (:func:`get_tracer`) is **enabled** with a
ring recorder: span creation is a few dict operations on request-scoped
paths only, and ``benchmarks/bench_simulator.py`` gates the overhead so it
stays negligible.  ``Tracer.set_enabled(False)`` turns ``span()`` into a
no-op for benchmarking the floor.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "SpanContext",
    "SpanRecorder",
    "Tracer",
    "chrome_trace",
    "get_tracer",
    "parse_traceparent",
    "set_tracer",
]

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagated identity of the active span."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        """Render as a ``traceparent`` header value (sampled flag set)."""
        return f"00-{self.trace_id}-{self.span_id}-01"


def parse_traceparent(header: Optional[str]) -> Optional[SpanContext]:
    """Parse a ``traceparent`` header; ``None`` on absent/malformed input.

    Malformed headers are dropped rather than raised: a trace is telemetry,
    and a bad header from an old client must never fail its request.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    trace_id, span_id = match.group(1), match.group(2)
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)


@dataclass
class Span:
    """One finished (or finishing) named operation."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_s: float  # Unix epoch seconds
    duration_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"  # "ok" or "error"
    service: str = "loom"
    thread: str = ""

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attr(self, name: str, value: object) -> None:
        self.attrs[name] = value

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the ``GET /trace`` wire format)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "status": self.status,
            "service": self.service,
            "thread": self.thread,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=(str(payload["parent_id"])
                       if payload.get("parent_id") else None),
            start_s=float(payload["start_s"]),
            duration_s=float(payload.get("duration_s", 0.0)),
            attrs=dict(payload.get("attrs") or {}),
            status=str(payload.get("status", "ok")),
            service=str(payload.get("service", "loom")),
            thread=str(payload.get("thread", "")),
        )


class SpanRecorder:
    """Bounded ring buffer of finished spans (oldest evicted first)."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class Tracer:
    """Hands out spans; tracks the active context per thread/task.

    ``span("name", **attrs)`` opens a child of the current context (or a
    fresh trace root when there is none) and restores the previous context
    on exit.  ``remote_parent(header)`` activates a context received over
    the wire, so server-side spans link into the caller's trace.
    """

    def __init__(self, service: str = "loom",
                 recorder: Optional[SpanRecorder] = None,
                 enabled: bool = True) -> None:
        self.service = service
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self._enabled = enabled
        self._current: "contextvars.ContextVar[Optional[SpanContext]]" = \
            contextvars.ContextVar(f"loom-trace-{id(self)}", default=None)

    # -- switches -------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        self._enabled = enabled

    # -- context --------------------------------------------------------------

    def current_context(self) -> Optional[SpanContext]:
        return self._current.get()

    def current_traceparent(self) -> Optional[str]:
        """The header value to propagate, or ``None`` outside any span."""
        context = self._current.get()
        return context.to_traceparent() if context is not None else None

    def inject_headers(self, headers: Dict[str, str]) -> Dict[str, str]:
        """Add ``traceparent`` to ``headers`` (in place) when active.

        A caller-supplied ``traceparent`` is left alone -- explicit beats
        ambient.
        """
        if self._enabled and "traceparent" not in {
                name.lower() for name in headers}:
            value = self.current_traceparent()
            if value is not None:
                headers["traceparent"] = value
        return headers

    @contextlib.contextmanager
    def remote_parent(self, header_or_context):
        """Activate a remote caller's context as the current parent.

        Accepts a ``traceparent`` header string, a :class:`SpanContext`, or
        ``None``/malformed input (a no-op, so handlers can call this
        unconditionally).
        """
        context = (header_or_context
                   if isinstance(header_or_context, SpanContext)
                   else parse_traceparent(header_or_context))
        if context is None or not self._enabled:
            yield None
            return
        token = self._current.set(context)
        try:
            yield context
        finally:
            self._current.reset(token)

    def propagate(self, fn):
        """Bind ``fn`` to a snapshot of the current context.

        Thread pools and ``threading.Thread`` targets do not inherit
        contextvars; wrap the callable so spans opened inside still link to
        the caller's trace.
        """
        snapshot = contextvars.copy_context()
        return lambda *args, **kwargs: snapshot.run(fn, *args, **kwargs)

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, **attrs: object):
        """Open a span named ``name``; the ``with`` block gets the live
        :class:`Span`.

        Gives ``None`` when tracing is disabled (callers must tolerate
        it).  An exception escaping the block marks the span
        ``status="error"`` (and re-raises); the span is recorded either
        way.
        """
        if not self._enabled:
            return _NO_SPAN
        return _SpanScope(self, name, attrs)


#: The ``with`` scope of a span while tracing is disabled.
_NO_SPAN = contextlib.nullcontext()


class _SpanScope:
    """The ``with`` scope of one enabled span (a class rather than a
    generator: a span opens on every request and executor phase)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_token", "_started")

    def __init__(self, tracer: Tracer, name: str,
                 attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = tracer._current.get()
        context = SpanContext(
            trace_id=parent.trace_id if parent is not None
            else _new_trace_id(),
            span_id=_new_span_id(),
        )
        span = self._span = Span(
            name=self._name,
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_s=time.time(),
            attrs=self._attrs,
            service=tracer.service,
            thread=threading.current_thread().name,
        )
        self._token = tracer._current.set(context)
        self._started = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if exc_type is not None:
            span.status = "error"
        span.duration_s = time.perf_counter() - self._started
        self._tracer._current.reset(self._token)
        self._tracer.recorder.record(span)
        return False


def chrome_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Chrome trace-event JSON for ``spans`` (one complete 'X' event each).

    Spans from different services map to different ``pid`` rows (with
    ``process_name`` metadata), threads within a service to ``tid`` rows --
    so a merged multi-process trace renders as one timeline per node.
    """
    events: List[Dict[str, object]] = []
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    for span in spans:
        pid = pids.setdefault(span.service, len(pids) + 1)
        tid = tids.setdefault(f"{span.service}/{span.thread}",
                              len(tids) + 1)
        args: Dict[str, object] = dict(span.attrs)
        args.update({"trace_id": span.trace_id, "span_id": span.span_id,
                     "status": span.status})
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": "loom",
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    for service, pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": service}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- process-wide default tracer -----------------------------------------------

_tracer_lock = threading.Lock()
_tracer: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-wide tracer every tier records into by default."""
    global _tracer
    with _tracer_lock:
        if _tracer is None:
            _tracer = Tracer(service="loom")
        return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as the process default; returns the previous one.

    The CLI uses this to name the service per role (``cli``, ``serve``,
    ``worker-<port>``...), which is what keeps merged Chrome traces
    readable.
    """
    global _tracer
    with _tracer_lock:
        previous = _tracer
        _tracer = tracer
        return previous
