"""Traced runs: spans around the program's public calls, folded into layers.

:func:`instrumented` installs a :class:`Tracer` whose recorder keeps every
span of the window and wraps the public functions and methods each layer is
reached through, patching each name where callers look it up (for example
both ``repro.serve.core.job_key`` and ``repro.sim.jobs.executor.job_key``).
The program's own ``executor.*``, ``coordinator.*`` and ``worker.*`` spans
are kept as they are and stand in for those tiers; traceparent propagation
links client -> coordinator -> worker -> core -> executor.

:func:`layer_metrics` folds the recorded spans, plus counter deltas read
from the nodes' ``/stats``, into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from typing import Dict, Iterator, List, Sequence

from repro.cluster.peercache import PeerCacheBackend
from repro.obs import SpanRecorder, Tracer, get_tracer, set_tracer
from repro.serve.client import ServeClient
from repro.serve.core import ServiceCore
from repro.serve.store import SQLiteResultStore
from repro.sim.jobs import ResultCache
from repro.sim.results import NetworkResult

from measure import nearest_rank, self_times

#: Far more spans than any window records; the run fails if it fills up.
RECORDER_CAPACITY = 4_000_000


def _hit(span, result) -> None:
    span.set_attr("hit", result is not None)


def _count(name: str):
    def note(span, result) -> None:
        span.set_attr(name, len(result))
    return note


#: (layer, function name, modules that look the name up, attribute
#: recorder or None).
_FUNCTIONS = (
    ("explore.space", "canonical_point",
     ("repro.serve.core", "repro.explore.space"), None),
    ("explore.space", "point_to_job",
     ("repro.serve.core", "repro.explore.space"), None),
    ("sim.jobs.spec", "job_key",
     ("repro.serve.core", "repro.sim.jobs.executor", "repro.sim.jobs",
      "repro.explore.space"), None),
    ("sim.batched", "simulate_jobs_batched", ("repro.sim.batched",),
     _count("jobs")),
)

#: (layer, class, method name, attribute recorder or None).
_METHODS = (
    ("sim.jobs.cache", ResultCache, "get", _hit),
    ("sim.jobs.cache", ResultCache, "peek", _hit),
    ("serve.store", SQLiteResultStore, "load", _hit),
    ("serve.store", SQLiteResultStore, "store", None),
    ("cluster.peercache", PeerCacheBackend, "load", _hit),
    ("serve.core", ServiceCore, "submit_points", _count("points")),
    ("sim.results", NetworkResult, "to_dict", None),
    ("sim.results", NetworkResult, "from_dict", None),
    ("serve.client", ServeClient, "submit_points", _count("points")),
)


def _spanned(name: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with get_tracer().span(name) as span:
            result = fn(*args, **kwargs)
            if span is not None and note is not None:
                note(span, result)
            return result
    return wrapper


@contextlib.contextmanager
def instrumented() -> Iterator[Tracer]:
    """Trace everything inside the block; restores the program on exit."""
    tracer = Tracer(service="perfbench",
                    recorder=SpanRecorder(capacity=RECORDER_CAPACITY))
    restore = []
    previous = set_tracer(tracer)
    try:
        for layer, attr, modules, note in _FUNCTIONS:
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                restore.append((module, attr, original))
                setattr(module, attr,
                        _spanned(f"{layer}:{attr}", original, note))
        for layer, cls, attr, note in _METHODS:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            name = f"{layer}:{attr}"
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(
                    _spanned(name, original.__func__, note)))
            else:
                setattr(cls, attr, _spanned(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
        set_tracer(previous)
    if len(tracer.recorder) >= RECORDER_CAPACITY:
        raise RuntimeError("span recorder filled up; spans were evicted")


def layer_of(name: str) -> str:
    """The layer a span belongs to (``""`` for none)."""
    if ":" in name:
        return name.split(":", 1)[0]
    for prefix, layer in (("executor.", "sim.jobs.executor"),
                          ("coordinator.", "cluster.coordinator"),
                          ("worker.", "cluster.worker")):
        if name.startswith(prefix):
            return layer
    return ""


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: Sequence, points: int,
                  counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``points`` is the number of points the clients got back in the window;
    ``counters`` holds the window's deltas of the nodes' ``/stats``
    counters.  A layer that did not run reads 0.
    """
    own = self_times(spans)
    by_name: Dict[str, List] = defaultdict(list)
    by_layer: Dict[str, List] = defaultdict(list)
    children: Dict[str, List] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        by_layer[layer_of(span.name)].append(span)
        if span.parent_id is not None:
            children[span.parent_id].append(span)

    def self_s(group) -> float:
        return sum(own[span.span_id] for span in group)

    def hits(group) -> int:
        return sum(1 for span in group if span.attrs.get("hit"))

    space = by_layer["explore.space"]
    spec = by_layer["sim.jobs.spec"]
    runs = by_name["executor.run"]
    run_jobs = sum(int(span.attrs.get("jobs", 0)) for span in runs)
    batched = by_layer["sim.batched"]
    batched_jobs = sum(int(span.attrs.get("jobs", 0)) for span in batched)
    lookups = by_layer["sim.jobs.cache"]
    memory_hits = [span for span in lookups
                   if span.attrs.get("hit") and not children[span.span_id]]
    loads = by_name["serve.store:load"]
    stores = by_name["serve.store:store"]
    cores = by_name["serve.core:submit_points"]
    clients = by_name["serve.client:submit_points"]
    coordinator = by_name["coordinator.POST /jobs"]
    coordinator_ids = {span.span_id for span in coordinator}
    shard_jobs = by_name["worker.POST /jobs"]
    probes = sorted(
        span.duration_s - sum(child.duration_s
                              for child in children[span.span_id]
                              if child.name == "serve.store:load")
        for span in by_name["cluster.peercache:load"]
        if any(child.name == "serve.store:load" and not child.attrs.get("hit")
               for child in children[span.span_id]))
    peer_probes = (counters["peer_hits"] + counters["peer_misses"]
                   + counters["peer_timeouts"])
    return {
        "explore.space.calls_per_point": _per(len(space), points),
        "explore.space.self_us_per_point": _per(self_s(space) * 1e6, points),
        "sim.jobs.spec.job_key_calls_per_point": _per(
            len(by_name["sim.jobs.spec:job_key"]), points),
        "sim.jobs.spec.self_us_per_point": _per(self_s(spec) * 1e6, points),
        "sim.jobs.executor.jobs_per_call": _per(run_jobs, len(runs)),
        "sim.jobs.executor.self_ms_per_call": _per(
            self_s(by_layer["sim.jobs.executor"]) * 1e3, len(runs)),
        "sim.batched.us_per_job": _per(self_s(batched) * 1e6, batched_jobs),
        "sim.batched.jobs_per_call": _per(batched_jobs, len(batched)),
        "sim.jobs.cache.memory_hit_ratio": _per(len(memory_hits),
                                                len(lookups)),
        "sim.jobs.cache.self_us_per_lookup": _per(self_s(lookups) * 1e6,
                                                  len(lookups)),
        "serve.store.load_calls_per_point": _per(len(loads), points),
        "serve.store.load_us_per_call": _per(self_s(loads) * 1e6, len(loads)),
        "serve.store.hit_ratio": _per(hits(loads), len(loads)),
        "serve.store.store_us_per_call": _per(self_s(stores) * 1e6,
                                              len(stores)),
        "serve.core.self_ms_per_call": _per(self_s(cores) * 1e3, len(cores)),
        "serve.core.coalesced_ratio": _per(counters["coalesced"],
                                           counters["submitted_points"]),
        "serve.core.rejected": float(counters["rejected"]),
        "sim.results.to_dict_us_per_point": _per(
            self_s(by_name["sim.results:to_dict"]) * 1e6, points),
        "sim.results.from_dict_us_per_point": _per(
            self_s(by_name["sim.results:from_dict"]) * 1e6, points),
        "serve.client.self_ms_per_call": _per(self_s(clients) * 1e3,
                                              len(clients)),
        "cluster.coordinator.self_ms_per_request": _per(
            self_s(coordinator) * 1e3, len(coordinator)),
        "cluster.coordinator.shard_requests_per_request": _per(
            sum(1 for span in shard_jobs if span.parent_id in coordinator_ids),
            len(coordinator)),
        "cluster.worker.self_ms_per_request": _per(self_s(shard_jobs) * 1e3,
                                                   len(shard_jobs)),
        "cluster.peercache.probes_per_point": _per(peer_probes, points),
        "cluster.peercache.hit_ratio": _per(counters["peer_hits"],
                                            peer_probes),
        "cluster.peercache.probe_ms_p50": (nearest_rank(probes, 50) * 1e3
                                           if probes else 0.0),
        "cluster.peercache.writes_per_point": _per(counters["peer_writes"],
                                                   points),
    }
