"""Observability layer shared by every tier (stdlib only).

``repro.obs`` is the substrate the CLI, the HTTP nodes (the worker that
``loom-repro serve`` runs and the cluster coordinator) and the job executor
all report through:

* :mod:`repro.obs.trace` -- a thread- and asyncio-safe :class:`Tracer`
  with ``span()`` context managers, W3C-``traceparent``-style context
  propagation over HTTP, a ring-buffer :class:`SpanRecorder` and Chrome
  trace-event JSON export (``loom-repro trace dump`` /
  ``--trace-out FILE``);
* :mod:`repro.obs.metrics` -- the Prometheus-text-format instruments;
* :mod:`repro.obs.logging` -- a JSON-lines structured logger whose records
  carry the current trace/span ids, behind the CLI's ``--log-level`` /
  ``--log-json`` flags.

Everything here is dependency-free and cheap enough to stay on by default;
the tracing-overhead guard in ``benchmarks/bench_simulator.py`` enforces
that staying true.
"""

from repro.obs.logging import (
    LEVELS,
    StructuredLogger,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PEER_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    SpanContext,
    SpanRecorder,
    Tracer,
    chrome_trace,
    get_tracer,
    parse_traceparent,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "LEVELS",
    "PEER_LATENCY_BUCKETS",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "StructuredLogger",
    "Tracer",
    "chrome_trace",
    "configure_logging",
    "get_logger",
    "get_tracer",
    "parse_traceparent",
    "set_tracer",
]
