"""Prometheus-text-format metrics for every tier (stdlib only).

Each node that speaks HTTP -- the worker (what ``loom-repro serve`` runs)
and the cluster coordinator -- exposes ``GET /metrics`` in the Prometheus
`text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_, so a
stock Prometheus scrape -- or ``curl`` -- can watch request rates,
latencies, queue depth, cache efficiency and shard health without any new
dependencies.  Three instrument types cover the stack's needs:

* :class:`Counter` -- monotonically increasing totals, optionally with
  labels (``loom_requests_total{path="/jobs",status="200"}``);
* :class:`Gauge` -- point-in-time values.  A gauge may be *callback-backed*
  (``registry.gauge(..., collect=fn)``): the value is pulled at render
  time, which is how executor/cache statistics surface without having to
  thread increments through the hot path;
* :class:`Histogram` -- cumulative-bucket latency distributions with
  ``_bucket``/``_sum``/``_count`` series.

All instruments are thread-safe (worker cores run request handlers on
threads) and render deterministically (sorted label sets).
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS", "PEER_LATENCY_BUCKETS"]

#: Request-latency buckets (seconds): sub-ms store hits up to minute-long
#: cold sweeps.
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0,
                           120.0)

#: Peer-cache fetch buckets (seconds): a peer lookup is one localhost (or
#: rack-local) store read, budgeted well under a second -- the interesting
#: resolution is all sub-second.
PEER_LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                        0.5, 1.0)


def _format_value(value: float) -> str:
    """Prometheus-friendly number rendering (integers without '.0')."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '{}="{}"'.format(name, str(value).replace("\\", r"\\")
                         .replace('"', r"\"").replace("\n", r"\n"))
        for name, value in labels
    )
    return "{" + body + "}"


class _Instrument:
    """Shared name/help/type plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._labelset = frozenset(self.labelnames)
        self._lock = threading.Lock()

    def _labels_tuple(self, labelvalues: Dict[str, object]
                      ) -> Tuple[Tuple[str, str], ...]:
        if labelvalues.keys() != self._labelset:
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        return tuple([(name, str(labelvalues[name]))
                      for name in self.labelnames])

    def header(self) -> List[str]:
        return [f"# HELP {self.name} {self.help_text}",
                f"# TYPE {self.name} {self.kind}"]


class Counter(_Instrument):
    """Monotonic total, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labelvalues: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._labels_tuple(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labelvalues: object) -> float:
        key = self._labels_tuple(labelvalues)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            series = sorted(self._values.items())
        if not series and not self.labelnames:
            series = [((), 0.0)]
        for labels, value in series:
            lines.append(f"{self.name}{_render_labels(labels)} "
                         f"{_format_value(value)}")
        return lines


class Gauge(_Instrument):
    """Point-in-time value; optionally pulled from a callback at render."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = (),
                 collect: Optional[Callable[[], float]] = None) -> None:
        if collect is not None and labelnames:
            raise ValueError("callback gauges cannot be labelled")
        super().__init__(name, help_text, labelnames)
        self._collect = collect
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def set(self, value: float, **labelvalues: object) -> None:
        if self._collect is not None:
            raise ValueError(f"{self.name} is callback-backed; it cannot "
                             f"be set directly")
        key = self._labels_tuple(labelvalues)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labelvalues: object) -> float:
        if self._collect is not None:
            return float(self._collect())
        key = self._labels_tuple(labelvalues)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> List[str]:
        lines = self.header()
        if self._collect is not None:
            # A collect callback that raises must not take /metrics down
            # with it: report NaN for this series and keep the scrape alive.
            try:
                value = float(self._collect())
            except Exception:
                value = float("nan")
            lines.append(f"{self.name} {_format_value(value)}"
                         if value == value else f"{self.name} NaN")
            return lines
        with self._lock:
            series = sorted(self._values.items())
        if not series and not self.labelnames:
            series = [((), 0.0)]
        for labels, value in series:
            lines.append(f"{self.name}{_render_labels(labels)} "
                         f"{_format_value(value)}")
        return lines


class Histogram(_Instrument):
    """Cumulative-bucket distribution (the Prometheus histogram type)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        #: Per series, how many observations fell in each bucket alone
        #: (the last slot: above every bound); render() accumulates them.
        self._counts: Dict[Tuple[Tuple[str, str], ...], List[int]] = {}
        self._sums: Dict[Tuple[Tuple[str, str], ...], float] = {}
        self._totals: Dict[Tuple[Tuple[str, str], ...], int] = {}

    def observe(self, value: float, **labelvalues: object) -> None:
        key = self._labels_tuple(labelvalues)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            counts[bisect.bisect_left(self.buckets, value)] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labelvalues: object) -> int:
        key = self._labels_tuple(labelvalues)
        with self._lock:
            return self._totals.get(key, 0)

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            keys = sorted(self._counts)
            if not keys and not self.labelnames:
                keys = [()]
                self._counts[()] = [0] * (len(self.buckets) + 1)
                self._sums[()] = 0.0
                self._totals[()] = 0
            for key in keys:
                cumulative = 0
                for bound, count in zip(self.buckets, self._counts[key]):
                    cumulative += count
                    labels = key + (("le", _format_value(bound)),)
                    lines.append(f"{self.name}_bucket{_render_labels(labels)} "
                                 f"{cumulative}")
                labels = key + (("le", "+Inf"),)
                lines.append(f"{self.name}_bucket{_render_labels(labels)} "
                             f"{self._totals[key]}")
                lines.append(f"{self.name}_sum{_render_labels(key)} "
                             f"{_format_value(self._sums[key])}")
                lines.append(f"{self.name}_count{_render_labels(key)} "
                             f"{self._totals[key]}")
        return lines


class MetricsRegistry:
    """One node's instruments, rendered as a single /metrics page."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            if instrument.name in self._instruments:
                raise ValueError(
                    f"metric {instrument.name!r} is already registered")
            self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = (),
              collect: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames,
                                    collect=collect))

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  labelnames: Sequence[str] = ()) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, labelnames))

    def render(self) -> str:
        """The /metrics page: every instrument, names sorted, newline-ended."""
        with self._lock:
            instruments = [self._instruments[name]
                           for name in sorted(self._instruments)]
        lines: List[str] = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n"
