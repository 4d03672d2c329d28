"""Declarative simulation-job specs and their deterministic content keys.

A :class:`SimJob` names everything needed to reproduce one
(network x accelerator x configuration) simulation without holding any live
objects: the network comes from the zoo by name (plus which paper precision
profile to attach), the accelerator from a small registry of factories keyed
by ``kind`` plus a canonical tuple of constructor options, and the
configuration is the (frozen, hashable) :class:`AcceleratorConfig` itself.

Because the spec is pure data it can be

* hashed into a deterministic *content key* (:func:`job_key`) that the result
  cache uses -- two jobs with the same key are guaranteed to produce the same
  :class:`~repro.sim.results.NetworkResult`.  The key is the sha256 of the
  job's canonical JSON text (:func:`spec_payload`), which persistent stores
  keep beside the result as its audit spec;
* sent over the wire, so serve nodes and cluster workers execute the same
  jobs a local :class:`~repro.sim.jobs.executor.JobExecutor` would.

:func:`execute_job` is the single entry point that turns a spec back into
objects and runs the simulation; it memoises the (expensive) profiled-network
construction and the accelerator instances per process, so a batch of jobs
touching the same network pays the build cost once.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, get_type_hints

from repro.canonical import canonical_number
from repro.memo import DESIGN_MEMO_SIZE, POINT_MEMO_SIZE, memo
from repro.quant.dynamic import DynamicPrecisionModel
from repro.sim.results import NetworkResult

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.accelerators.base import AcceleratorConfig

__all__ = [
    "NetworkSpec",
    "AcceleratorSpec",
    "SimJob",
    "job_key",
    "spec_dict",
    "spec_payload",
    "build_accelerator",
    "build_spec_network",
    "network_layer_counts",
    "network_kind_counts",
    "layer_table_cache_info",
    "layer_table_build_seconds",
    "execute_job",
    "ACCELERATOR_KINDS",
]

#: Accelerator kinds whose results do not depend on the precision profile at
#: all (bit-parallel designs).  Their cache keys are normalised so that e.g.
#: the DPNN baseline simulated for the 99% profile, or for the
#: effective-weight networks of Table 4, reuses the 100% profile's result.
_PROFILE_INSENSITIVE_KINDS = frozenset({"dpnn"})


def _loom_factory(config, options: Dict[str, object]):
    from repro.core import Loom
    return Loom(config, **options)


def _dpnn_factory(config, options):
    from repro.accelerators import DPNN
    return DPNN(config, **options)


def _stripes_factory(config, options):
    from repro.accelerators import Stripes
    return Stripes(config, **options)


def _dstripes_factory(config, options):
    from repro.accelerators import DStripes
    return DStripes(config, **options)


#: The stock kinds' factories.  A kind registered to its stock factory has
#: a vector kernel (:func:`stock_kind`); any other factory is an exotic
#: design that the vector engine builds and runs on the event engine.
_STOCK_FACTORIES = {
    "dpnn": _dpnn_factory,
    "stripes": _stripes_factory,
    "dstripes": _dstripes_factory,
    "loom": _loom_factory,
}

#: Registry of accelerator factories: ``kind -> factory(config, options)``.
ACCELERATOR_KINDS = dict(_STOCK_FACTORIES)


def stock_kind(kind: str) -> bool:
    """Whether ``kind`` names a stock design: registered to its stock
    factory, so a spec of it describes the exact stock class."""
    factory = _STOCK_FACTORIES.get(kind)
    return factory is not None and ACCELERATOR_KINDS.get(kind) is factory


#: Lazily imported accelerator class per kind (kept in lockstep with
#: ACCELERATOR_KINDS; the module-level assert below enforces it).
_KIND_CLASSES = {
    "dpnn": ("repro.accelerators", "DPNN"),
    "stripes": ("repro.accelerators", "Stripes"),
    "dstripes": ("repro.accelerators", "DStripes"),
    "loom": ("repro.core", "Loom"),
}

assert set(_KIND_CLASSES) == set(ACCELERATOR_KINDS)


def kind_class(kind: str) -> type:
    """The accelerator class a registered ``kind`` names."""
    import importlib

    if kind not in _KIND_CLASSES:
        raise ValueError(
            f"unknown accelerator kind {kind!r}; "
            f"available: {sorted(ACCELERATOR_KINDS)}"
        )
    module_name, class_name = _KIND_CLASSES[kind]
    return getattr(importlib.import_module(module_name), class_name)


@memo(None)
def _kind_defaults(kind: str) -> Tuple[Tuple[str, object], ...]:
    """Constructor defaults for a kind (canonicalised), for key normalisation."""
    import inspect

    defaults = []
    for name, parameter in inspect.signature(
            kind_class(kind).__init__).parameters.items():
        if name in ("self", "config") or parameter.default is inspect.Parameter.empty:
            continue
        defaults.append((name, _canonical_value(parameter.default)))
    return tuple(defaults)


def _canonical_value(value):
    """Normalise an option value into hashable, JSON-friendly data."""
    if is_dataclass(value) and not isinstance(value, type):
        return tuple(sorted(
            (k, _canonical_value(v)) for k, v in asdict(value).items()
        ))
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"accelerator option value {value!r} cannot be canonicalised; "
        f"use primitives, dataclasses or mappings"
    )


#: Options whose value is a dataclass, given as one or as a mapping of its
#: fields.
_DATACLASS_OPTIONS = {"dynamic_precision": DynamicPrecisionModel}


def _as_default_type(key: str, value, default):
    """An accelerator option spelled as its constructor default's type.

    A dataclass option, given as a mapping or as the dataclass, keeps only
    the fields given (filling in defaults would change stored keys), each
    spelled as its declared field type, so ``{"enabled": 1}`` and
    ``{"enabled": True}`` make one spec.
    """
    if type(default) in (int, float, bool):
        return canonical_number(value, type(default))
    if key in _DATACLASS_OPTIONS and (isinstance(value, Mapping)
                                      or is_dataclass(value)):
        declared = get_type_hints(_DATACLASS_OPTIONS[key])
        given = value if isinstance(value, Mapping) else asdict(value)
        return {name: canonical_number(item, declared[name])
                if declared.get(name) in (int, float, bool) else item
                for name, item in given.items()}
    return value


@dataclass(frozen=True)
class NetworkSpec:
    """Names a zoo network with a bound paper precision profile.

    ``with_effective_weights`` attaches the Table 3 per-group effective
    weight precisions (the Table 4 evaluation mode).  ``groups`` / ``heads``
    are structural overrides forwarded to the zoo builder (ResNeXt-style
    group count for ``resnet18``, attention head count for
    ``tiny_transformer``); they change the simulated geometry, so they are
    part of the spec -- and therefore of the content key -- like everything
    else here.
    """

    name: str
    accuracy: str = "100%"
    with_effective_weights: bool = False
    groups: Optional[int] = None
    heads: Optional[int] = None

    def __post_init__(self) -> None:
        for name, declared in (("with_effective_weights", bool),
                               ("groups", int), ("heads", int)):
            value = getattr(self, name)
            if type(value) is not declared:
                object.__setattr__(self, name,
                                   canonical_number(value, declared))


@dataclass(frozen=True)
class AcceleratorSpec:
    """Names an accelerator design: a registry ``kind`` plus constructor options.

    Use :meth:`create` rather than the raw constructor -- it canonicalises the
    options (sorted tuple of pairs, dataclasses flattened, numbers spelled
    as their constructor default's type) so that two specs describing the
    same design always compare, hash and serialise equal.
    """

    kind: str
    options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ACCELERATOR_KINDS:
            raise ValueError(
                f"unknown accelerator kind {self.kind!r}; "
                f"available: {sorted(ACCELERATOR_KINDS)}"
            )

    @classmethod
    def create(cls, kind: str, **options) -> "AcceleratorSpec":
        defaults = dict(_kind_defaults(kind))
        canonical = tuple(
            (key, canonical_value)
            for key, canonical_value in (
                (key, _canonical_value(_as_default_type(
                    key, value, defaults.get(key))))
                for key, value in sorted(options.items())
            )
            # Options pinned at their constructor default describe the same
            # design as omitting them; drop them so the specs (and therefore
            # the cache keys) coincide.
            if not (key in defaults and canonical_value == defaults[key])
        )
        return cls(kind=kind, options=canonical)

    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)


def _default_config():
    from repro.accelerators.base import AcceleratorConfig
    return AcceleratorConfig()


@dataclass(frozen=True)
class SimJob:
    """One declarative simulation: network x accelerator x configuration."""

    network: NetworkSpec
    accelerator: AcceleratorSpec
    config: "AcceleratorConfig" = field(default_factory=_default_config)


def _jsonable(value):
    """Recursively convert canonical spec data into JSON-serialisable data."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _head_dicts(network: NetworkSpec, accelerator: AcceleratorSpec
                ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """The ``network`` and ``accelerator`` entries of a job's spec."""
    network_dict = asdict(network)
    # Absent structural overrides hash identically to specs that predate the
    # override fields, so a warm on-disk cache stays valid for every job the
    # fields cannot affect; set overrides still change the key.
    for override in ("groups", "heads"):
        if network_dict.get(override) is None:
            del network_dict[override]
    if accelerator.kind in _PROFILE_INSENSITIVE_KINDS:
        # Bit-parallel designs ignore precision profiles entirely; normalise
        # so equivalent simulations share one cache entry.
        network_dict["accuracy"] = "100%"
        network_dict["with_effective_weights"] = False
    return network_dict, {
        "kind": accelerator.kind,
        "options": _jsonable(list(accelerator.options)),
    }


def spec_dict(job: SimJob) -> Dict[str, object]:
    """The canonical, JSON-serialisable description of a job.

    This is what the cache key describes, so *everything* that can change a
    simulation's outcome must appear here: the network identity and
    profile, the accelerator kind and constructor options, and every
    :class:`AcceleratorConfig` knob (including the DRAM channel and the
    technology parameters, which are nested dataclasses).
    :func:`spec_payload` is its canonical JSON text, built without it.
    """
    network, accelerator = _head_dicts(job.network, job.accelerator)
    return {
        "network": network,
        "accelerator": accelerator,
        "config": _jsonable(job.config),
    }


#: The key's canonical JSON settings: sorted keys, no whitespace.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@memo(DESIGN_MEMO_SIZE)
def _fragment(part):
    """Canonical JSON of a payload part that many jobs share.

    ``part`` is a nested config dataclass (its JSON object text) or a
    ``(NetworkSpec, AcceleratorSpec)`` head, whose fragment is the
    ``(prefix, suffix)`` pair the config's JSON goes between: the
    payload's keys sort as ``accelerator``, ``config``, ``network``.
    """
    if type(part) is not tuple:
        return _ENCODE(_jsonable(part))
    network, accelerator = _head_dicts(*part)
    return ('{"accelerator":' + _ENCODE(accelerator) + ',"config":',
            ',"network":' + _ENCODE(network) + "}")


@memo(None)
def _config_layout(config_class: type) -> Tuple[Tuple[str, str], ...]:
    """``('"name":', name)`` per field of ``config_class``, in key order."""
    return tuple((_ENCODE(name) + ":", name)
                 for name in sorted(f.name for f in fields(config_class)))


def _value_json(value) -> str:
    """The canonical JSON of one config field's value."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)  # what json emits for both
    if is_dataclass(value):
        return _fragment(value)
    return _ENCODE(value)


def spec_payload(job: SimJob) -> str:
    """The job's canonical JSON text: the preimage of :func:`job_key`.

    Byte-identical to ``json.dumps(spec_dict(job), sort_keys=True,
    separators=(",", ":"))``, but assembled from memoised fragments -- the
    head and each nested dataclass are encoded once per process -- plus
    the config's scalar fields, so it costs a fraction of ``spec_dict``.
    Persistent stores keep it as the row's audit spec, so a row checks as
    ``sha256(spec) == key``.
    """
    prefix, suffix = _fragment((job.network, job.accelerator))
    config = job.config
    return prefix + "{" + ",".join([
        name_json + _value_json(getattr(config, name))
        for name_json, name in _config_layout(type(config))
    ]) + "}" + suffix


@memo(POINT_MEMO_SIZE)
def job_key(job: SimJob) -> str:
    """Deterministic content key: sha256 over :func:`spec_payload`.

    The memo holds key strings only, never payloads, so a stream of
    never-seen jobs keeps memory flat.
    """
    return hashlib.sha256(spec_payload(job).encode("utf-8")).hexdigest()


# -- spec -> objects ----------------------------------------------------------
#
# The memos below are per process, so every process builds each profiled
# network and each accelerator once per stay in its memo, however many jobs
# reference it.  The memoised networks and layer lists are shared across jobs
# and must be treated as read-only.


@memo(DESIGN_MEMO_SIZE)
def build_spec_network(spec: NetworkSpec):
    """Build the zoo network named by ``spec`` with its profile attached."""
    from repro.nn import build_network
    from repro.quant import get_paper_profile

    network = build_network(spec.name, groups=spec.groups, heads=spec.heads)
    profile = get_paper_profile(
        spec.name, spec.accuracy,
        with_effective_weights=spec.with_effective_weights,
    )
    network.attach_profile(profile)
    return network


@memo(DESIGN_MEMO_SIZE)
def _spec_layers(spec: NetworkSpec) -> tuple:
    """Resolved compute layers for a network spec (shared, read-only)."""
    return tuple(build_spec_network(spec).compute_layers())


#: Cumulative wall seconds spent in :func:`_spec_layer_table` builds.
_table_build_seconds = 0.0
_table_clock_lock = threading.Lock()


@memo(DESIGN_MEMO_SIZE)
def _spec_layer_table(spec: NetworkSpec):
    """Column-wise layer table for the vector engine (shared, read-only).

    The time each build takes runs the build clock that the executor's
    ``layer_table_build`` phase reads (:func:`layer_table_build_seconds`).
    """
    global _table_build_seconds
    from repro.sim.batched import build_layer_table

    started = time.perf_counter()
    table = build_layer_table(_spec_layers(spec))
    with _table_clock_lock:
        _table_build_seconds += time.perf_counter() - started
    return table


def layer_table_cache_info() -> Dict[str, int]:
    """Hit/build counters of the per-(network, profile) layer-table memo.

    ``hits`` counts table requests answered without reconstruction;
    ``builds`` counts actual :func:`~repro.sim.batched.build_layer_table`
    runs.  The counters are process-wide (the memo is shared by every
    executor and engine in the process) and cumulative since process start
    or the last :func:`~repro.memo.clear_memos`;
    :meth:`~repro.sim.jobs.executor.ExecutorStats.to_dict` surfaces them so
    sweep services can confirm repeated sweeps skip table reconstruction.
    """
    info = _spec_layer_table.cache_info()
    return {"hits": info.hits, "builds": info.misses}


def layer_table_build_seconds() -> float:
    """Cumulative wall seconds spent building layer tables (this process)."""
    return _table_build_seconds


def network_layer_counts(name: str) -> Tuple[int, int]:
    """(conv-datapath, fully-connected) compute-layer counts for a zoo network.

    MatMul layers execute on the conv datapath and count in the first entry;
    use :func:`network_kind_counts` for the three-way reporting split.
    """
    layers = _spec_layers(NetworkSpec(name))
    conv = sum(1 for lw in layers if lw.is_conv)
    return conv, len(layers) - conv


def network_kind_counts(name: str) -> Dict[str, int]:
    """Per-reporting-kind compute-layer counts (``conv``/``fc``/``matmul``)."""
    counts = {"conv": 0, "fc": 0, "matmul": 0}
    for lw in _spec_layers(NetworkSpec(name)):
        counts[lw.kind] += 1
    return counts


def accelerator_options(spec: AcceleratorSpec) -> Dict[str, object]:
    """The constructor keyword options ``spec`` gives, dataclass options
    rebuilt from their fields (constructor defaults not filled in)."""
    options = spec.options_dict()
    for key in _DATACLASS_OPTIONS.keys() & options.keys():
        options[key] = _DATACLASS_OPTIONS[key](**dict(options[key]))
    return options


def constructor_options(spec: AcceleratorSpec) -> Optional[Dict[str, object]]:
    """Every constructor option of ``spec``'s kind: the given ones over the
    constructor defaults, or ``None`` when ``spec`` gives an option the
    constructor does not take."""
    options = dict(_kind_defaults(spec.kind))
    given = accelerator_options(spec)
    if not given.keys() <= options.keys():
        return None
    options.update(given)
    return options


@memo(DESIGN_MEMO_SIZE)
def build_accelerator(spec: AcceleratorSpec,
                      config: "Optional[AcceleratorConfig]" = None):
    """Instantiate the accelerator described by ``spec`` (memoised, LRU
    bounded at :data:`~repro.memo.DESIGN_MEMO_SIZE` designs).

    The vector engine never needs one: it derives a stock design's record
    from the spec itself (:mod:`repro.sim.batched`).  The event engine
    and exotic kinds do.
    """
    factory = ACCELERATOR_KINDS[spec.kind]
    return factory(config if config is not None else _default_config(),
                   accelerator_options(spec))


def execute_job(job: SimJob, engine: Optional[str] = None) -> NetworkResult:
    """Run one job: build the network and accelerator, simulate every layer.

    Equivalent to :func:`repro.sim.runner.run_network` on the materialised
    objects, but with the network construction and shape resolution memoised
    per process.

    ``engine`` selects the simulation engine: ``"vector"`` runs the job as a
    one-job :func:`repro.sim.batched.simulate_jobs_batched` batch,
    ``"event"`` walks the layers through ``Accelerator.simulate_layer``; the
    default follows :func:`repro.sim.batched.get_default_engine`.  Both
    produce bit-identical results (enforced by :mod:`repro.sim.validate`),
    which is why the engine is *not* part of the job's cache key.
    """
    from repro.sim import batched

    if batched.resolve_engine(engine) == "vector":
        return batched.simulate_jobs_batched([job])[0]
    accelerator = build_accelerator(job.accelerator, job.config)
    result = NetworkResult(
        network=job.network.name,
        accelerator=accelerator.name,
        clock_ghz=accelerator.config.clock_ghz,
    )
    for layer in _spec_layers(job.network):
        result.add(accelerator.simulate_layer(layer))
    return result
