"""Declarative design-space sweep specifications.

A :class:`SweepSpec` names the axes of a design-space sweep -- network,
precision profile, accelerator design and every :class:`~repro.accelerators.
base.AcceleratorConfig` knob (equivalent MACs, memory capacities, the DRAM
channel, the technology) -- plus fixed ``base`` values for everything that is
not swept and :class:`Constraint` predicates that prune infeasible points
(e.g. "the activation memory must hold the working set").

Expanding a spec is pure data flow: the Cartesian product of the axes (in
declaration order) is filtered through the constraints into an ordered list of
:class:`DesignPoint`\\ s, and each point maps to exactly one declarative
:class:`~repro.sim.jobs.spec.SimJob`.  Because jobs are content-keyed, a spec
also knows its *unique* job list: two points that the cache cannot tell apart
(e.g. a bit-parallel baseline swept over precision profiles it ignores)
collapse to one simulation.

Specs round-trip through plain dicts (:meth:`SweepSpec.to_dict` /
:meth:`SweepSpec.from_dict`), which is what the ``loom-repro explore --grid``
JSON file format is.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.accelerators.base import AcceleratorConfig
from repro.memo import DESIGN_MEMO_SIZE, memo
from repro.memory.dram import DRAMChannel, LPDDR4_4267
from repro.sim.jobs import (
    AcceleratorSpec,
    NetworkSpec,
    SimJob,
    build_accelerator,
    build_spec_network,
    job_key,
)

__all__ = [
    "Axis",
    "Constraint",
    "DesignPoint",
    "SweepSpec",
    "DRAM_CHANNELS",
    "NETWORK_PARAMETERS",
    "CONFIG_PARAMETERS",
    "am_fits_working_set",
    "canonical_point",
    "encode_parameter",
    "format_parameter",
    "job_to_point",
    "named_constraint",
    "parse_accelerator",
    "parse_value",
    "point_to_job",
]

#: Named DRAM channels a sweep can reference by string (JSON grids, CLI axes).
DRAM_CHANNELS: Dict[str, Optional[DRAMChannel]] = {
    "lpddr4-4267": LPDDR4_4267,
    "none": None,
}

#: Parameters that select the network / precision profile of a point.
#: ``groups`` / ``heads`` are structural zoo-builder overrides (ResNeXt-style
#: group count for resnet18, attention head count for tiny_transformer).
NETWORK_PARAMETERS = ("network", "accuracy", "with_effective_weights",
                      "groups", "heads")

#: Parameters forwarded to :class:`AcceleratorConfig` (every config knob).
CONFIG_PARAMETERS = tuple(
    f.name for f in dataclasses.fields(AcceleratorConfig)
)

_KNOWN_PARAMETERS = NETWORK_PARAMETERS + ("accelerator",) + CONFIG_PARAMETERS


@dataclass(frozen=True)
class Axis:
    """One named, ordered parameter axis of a sweep."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if self.name not in _KNOWN_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.name!r}; known parameters: "
                f"{sorted(_KNOWN_PARAMETERS)}"
            )
        values = tuple(_canonical_parameter(self.name, v) for v in self.values)
        if not values:
            raise ValueError(f"axis {self.name!r} has no values")
        if len(set(values)) != len(values):
            raise ValueError(f"axis {self.name!r} has duplicate values")
        object.__setattr__(self, "values", values)

    @property
    def numeric(self) -> bool:
        """Whether every value is a real number (bools excluded).

        Numeric axes have a meaningful order and distance, so surrogate
        featurizers scale them onto one column instead of one-hot encoding
        the individual values.
        """
        return all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in self.values
        )


@dataclass(frozen=True)
class Constraint:
    """A named feasibility predicate over a :class:`DesignPoint`."""

    name: str
    predicate: Callable[["DesignPoint"], bool]

    def __call__(self, point: "DesignPoint") -> bool:
        return bool(self.predicate(point))


class DesignPoint(Mapping):
    """One fully-resolved point of a sweep: parameter name -> value.

    Immutable and hashable (axis values are themselves hashable), so points
    can key evaluation memos directly.  Iteration order is the spec's
    parameter order: swept axes first, then base parameters.
    """

    __slots__ = ("_items", "_index")

    def __init__(self, items: Iterable[Tuple[str, object]]) -> None:
        self._items = tuple(items)
        self._index = dict(self._items)
        if len(self._index) != len(self._items):
            raise ValueError("duplicate parameter in design point")

    def __getitem__(self, name: str) -> object:
        return self._index[name]

    def __iter__(self):
        return iter(name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DesignPoint):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        return f"DesignPoint({self.label()})"

    def label(self, names: Optional[Sequence[str]] = None) -> str:
        """Compact ``name=value`` label (for tables and progress lines)."""
        names = list(names) if names is not None else [n for n, _ in self._items]
        return " ".join(
            f"{name}={format_parameter(name, self[name])}" for name in names
        )


def _canonical_parameter(name: str, value: object) -> object:
    """Normalise one parameter value into its canonical in-memory form."""
    if name == "accelerator":
        return parse_accelerator(value)
    if name == "dram":
        if isinstance(value, str):
            key = value.lower()
            if key not in DRAM_CHANNELS:
                raise ValueError(
                    f"unknown DRAM channel {value!r}; "
                    f"known: {sorted(DRAM_CHANNELS)}"
                )
            return DRAM_CHANNELS[key]
        if value is not None and not isinstance(value, DRAMChannel):
            raise TypeError(f"dram must be a DRAMChannel, name or None, "
                            f"got {value!r}")
        return value
    return value


def parse_accelerator(value: object) -> AcceleratorSpec:
    """Coerce any supported accelerator description into an :class:`AcceleratorSpec`.

    Accepted forms: an ``AcceleratorSpec``; a kind string with optional
    colon-separated options (``"loom:bits_per_cycle=2:window_fanout=4"``);
    a ``(kind, options)`` pair; or a ``{"kind": ..., **options}`` mapping
    (the JSON grid-file form).
    """
    if isinstance(value, AcceleratorSpec):
        return value
    if isinstance(value, str):
        kind, _, rest = value.partition(":")
        options = {}
        for token in filter(None, rest.split(":")):
            key, sep, raw = token.partition("=")
            if not sep:
                raise ValueError(
                    f"bad accelerator option {token!r} in {value!r}; "
                    f"expected key=value"
                )
            options[key] = parse_value(raw)
        return AcceleratorSpec.create(kind, **options)
    if isinstance(value, Mapping):
        options = dict(value)
        kind = options.pop("kind", None)
        if kind is None:
            raise ValueError(f"accelerator mapping {value!r} needs a 'kind'")
        return AcceleratorSpec.create(kind, **options)
    if isinstance(value, Sequence) and len(value) == 2:
        kind, options = value
        return AcceleratorSpec.create(kind, **dict(options))
    raise TypeError(f"cannot interpret {value!r} as an accelerator design")


def parse_value(token: str) -> object:
    """Parse one CLI/JSON scalar token: int, float, bool, none or string."""
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for converter in (int, float):
        try:
            return converter(token)
        except ValueError:
            continue
    return token


def format_parameter(name: str, value: object) -> str:
    """Render one parameter value the way grids and tables spell it."""
    if name == "accelerator":
        from repro.experiments.common import design_label
        return design_label(parse_accelerator(value))
    if isinstance(value, DRAMChannel):
        return value.name.lower()
    if value is None:
        return "none"
    return str(value)


@memo(DESIGN_MEMO_SIZE)
def _overrides_buildable(network: str, groups, heads) -> bool:
    """Whether the zoo builder accepts this (network, overrides) combination."""
    from repro.nn import build_network

    try:
        build_network(network, groups=groups, heads=heads)
    except ValueError:
        return False
    except KeyError:
        # Unknown network: let job construction raise its clearer error.
        return True
    return True


def _structural_overrides_feasible(point: Mapping) -> bool:
    """Whether the point's ``groups``/``heads`` overrides apply to its network.

    A sweep may cross the ``network`` axis with a structural-override axis
    (or base value); combinations the zoo builder rejects -- an unsupported
    override like ``groups`` on AlexNet, or an invalid value like a group
    count that does not divide the block width -- are infeasible points to
    skip, exactly like constraint-violating ones, not errors that abort the
    whole sweep.  ``None``-valued overrides mean "builder default" and are
    always feasible.
    """
    groups, heads = point.get("groups"), point.get("heads")
    network = point.get("network")
    if (groups is None and heads is None) or network is None:
        return True
    return _overrides_buildable(str(network), groups, heads)


# -- built-in constraints ------------------------------------------------------


def _point_am_holds_working_set(point: DesignPoint) -> bool:
    """True when the point's activation memory holds the largest layer.

    The footprint is the network's worst single-layer input + output
    activation count at 16 bits per value (the bit-parallel storage bound;
    precision-scaled designs only do better), compared against the activation
    memory the point's accelerator actually instantiates -- including the
    design's default sizing when ``am_capacity_bytes`` is not swept.
    """
    job = point_to_job(point)
    network = build_spec_network(job.network)
    working_set_bits = network.max_layer_activations() * 16
    accelerator = build_accelerator(job.accelerator, job.config)
    return accelerator.hierarchy.activation_memory.capacity_bits >= working_set_bits


def am_fits_working_set() -> Constraint:
    """Constraint: the activation memory must hold the largest layer's footprint."""
    return Constraint("am_fits_working_set", _point_am_holds_working_set)


#: Constraints a JSON grid file can name by string.
_NAMED_CONSTRAINTS: Dict[str, Callable[[], Constraint]] = {
    "am_fits_working_set": am_fits_working_set,
}


def named_constraint(name: str) -> Constraint:
    """Look up one of the built-in constraints by name."""
    if name not in _NAMED_CONSTRAINTS:
        raise ValueError(
            f"unknown constraint {name!r}; known: {sorted(_NAMED_CONSTRAINTS)}"
        )
    return _NAMED_CONSTRAINTS[name]()


# -- point -> job --------------------------------------------------------------


def canonical_point(values: Mapping[str, object]) -> DesignPoint:
    """Canonicalise a raw parameter mapping into a :class:`DesignPoint`.

    This is the entry point for externally supplied points (JSON request
    bodies, config files): parameter names are validated against the known
    sweep parameters and values are normalised exactly the way axis/base
    values are -- accelerator strings/mappings become
    :class:`~repro.sim.jobs.AcceleratorSpec`\\ s, DRAM channel names become
    channel objects -- so ``point_to_job(canonical_point(data))`` accepts
    everything a sweep axis would.
    """
    unknown = set(values) - set(_KNOWN_PARAMETERS)
    if unknown:
        raise ValueError(
            f"unknown point parameter(s) {sorted(unknown)}; known parameters: "
            f"{sorted(_KNOWN_PARAMETERS)}"
        )
    return DesignPoint(
        tuple((name, _canonical_parameter(name, value))
              for name, value in values.items())
    )


def encode_parameter(name: str, value: object) -> object:
    """JSON-encode one canonical parameter value (inverse of canonicalising).

    Accelerator specs become ``{"kind": ..., **options}`` mappings, DRAM
    channels their registry names; everything else passes through.  This is
    the one shared wire encoding used by :meth:`SweepSpec.to_dict`, the
    service protocol and :func:`job_to_point`.
    """
    if name == "accelerator":
        spec = parse_accelerator(value)
        return {"kind": spec.kind, **_jsonable_options(spec.options_dict())}
    if isinstance(value, DRAMChannel):
        for channel_name, channel in DRAM_CHANNELS.items():
            if channel == value:
                return channel_name
        raise ValueError(
            f"DRAM channel {value.name!r} has no registry name; only "
            f"{sorted(n for n in DRAM_CHANNELS if DRAM_CHANNELS[n])} can be "
            f"encoded for remote execution"
        )
    return value


def _jsonable_options(options: Mapping[str, object]) -> Dict[str, object]:
    """Canonical accelerator options (nested tuples) as JSON-friendly lists."""
    def convert(value):
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value

    return {name: convert(value) for name, value in options.items()}


def job_to_point(job: SimJob) -> Dict[str, object]:
    """Encode a :class:`SimJob` as a JSON-able point mapping (wire format).

    The inverse of ``point_to_job(canonical_point(...))``: round-tripping a
    job through ``job_to_point`` and back preserves its content key, which
    is what lets :class:`repro.serve.RemoteExecutor` ship jobs to a
    ``loom-repro serve`` process.  Only defaulted or registry-known nested
    values can cross the wire: a custom ``tech`` parameter set or an
    unregistered DRAM channel raises ``ValueError``.
    """
    point: Dict[str, object] = {"network": job.network.name}
    if job.network.accuracy != "100%":
        point["accuracy"] = job.network.accuracy
    if job.network.with_effective_weights:
        point["with_effective_weights"] = True
    for override in ("groups", "heads"):
        value = getattr(job.network, override)
        if value is not None:
            point[override] = value
    point["accelerator"] = encode_parameter("accelerator", job.accelerator)
    defaults = AcceleratorConfig()
    for field in dataclasses.fields(AcceleratorConfig):
        value = getattr(job.config, field.name)
        if value == getattr(defaults, field.name):
            continue
        if field.name == "tech":
            raise ValueError(
                "jobs with a non-default technology parameter set cannot be "
                "encoded for remote execution"
            )
        point[field.name] = encode_parameter(field.name, value)
    return point


def point_to_job(point: Mapping) -> SimJob:
    """Translate one design point into its declarative :class:`SimJob`."""
    if "network" not in point:
        raise ValueError("design point needs a 'network' parameter "
                         "(axis or base value)")
    if "accelerator" not in point:
        raise ValueError("design point needs an 'accelerator' parameter "
                         "(axis or base value)")
    network = NetworkSpec(
        name=point["network"],
        accuracy=point.get("accuracy", "100%"),
        with_effective_weights=bool(point.get("with_effective_weights", False)),
        groups=point.get("groups"),
        heads=point.get("heads"),
    )
    accelerator = parse_accelerator(point["accelerator"])
    config_kwargs = {name: point[name] for name in CONFIG_PARAMETERS
                     if name in point}
    return SimJob(network=network, accelerator=accelerator,
                  config=AcceleratorConfig(**config_kwargs))


class SweepSpec:
    """A declarative design-space sweep: axes x base values x constraints.

    Parameters
    ----------
    axes:
        Ordered :class:`Axis` list (or a ``name -> values`` mapping).  The
        Cartesian product is taken in declaration order, with the *last* axis
        varying fastest -- the order :func:`itertools.product` uses.
    base:
        Fixed values for parameters that are not swept (``network`` must
        appear as an axis or here; ``accelerator`` likewise).
    constraints:
        :class:`Constraint` predicates; points any predicate rejects are
        dropped from the expansion.
    """

    def __init__(
        self,
        axes: Union[Sequence[Axis], Mapping[str, Sequence[object]]],
        base: Optional[Mapping[str, object]] = None,
        constraints: Sequence[Union[Constraint, str]] = (),
    ) -> None:
        if isinstance(axes, Mapping):
            axes = [Axis(name, tuple(values)) for name, values in axes.items()]
        self.axes: Tuple[Axis, ...] = tuple(axes)
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")
        base = dict(base or {})
        for name in base:
            if name not in _KNOWN_PARAMETERS:
                raise ValueError(
                    f"unknown base parameter {name!r}; known parameters: "
                    f"{sorted(_KNOWN_PARAMETERS)}"
                )
            if name in names:
                raise ValueError(f"parameter {name!r} is both an axis and a "
                                 f"base value")
        self.base: Dict[str, object] = {
            name: _canonical_parameter(name, value)
            for name, value in base.items()
        }
        self.constraints: Tuple[Constraint, ...] = tuple(
            named_constraint(c) if isinstance(c, str) else c
            for c in constraints
        )
        self._points: Optional[List[DesignPoint]] = None

    # -- introspection ---------------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    @property
    def size(self) -> int:
        """Number of points before constraint filtering."""
        product = 1
        for axis in self.axes:
            product *= len(axis.values)
        return product

    def feature_axes(self) -> Tuple[Axis, ...]:
        """The informative axes for surrogate featurization.

        Only axes with at least two values can distinguish points;
        single-value axes and base parameters are constant across the sweep
        and carry no information, so featurizers skip them.
        """
        return tuple(axis for axis in self.axes if len(axis.values) >= 2)

    def describe(self) -> str:
        parts = [f"{axis.name}[{len(axis.values)}]" for axis in self.axes]
        text = " x ".join(parts)
        if self.base:
            fixed = " ".join(
                f"{name}={format_parameter(name, value)}"
                for name, value in self.base.items()
            )
            text += f" ({fixed})"
        if self.constraints:
            text += " where " + ", ".join(c.name for c in self.constraints)
        return text

    # -- expansion -------------------------------------------------------------

    def points(self) -> List[DesignPoint]:
        """All feasible points, in deterministic product order.

        The expansion (including the constraint pass, which may build
        networks and accelerators) runs once per spec and is memoised;
        callers get a fresh list of the shared, immutable points.
        """
        if self._points is None:
            base_items = tuple(self.base.items())
            points = []
            for combination in itertools.product(
                    *(axis.values for axis in self.axes)):
                point = DesignPoint(
                    tuple(zip(self.axis_names, combination)) + base_items
                )
                if not _structural_overrides_feasible(point):
                    continue
                if all(constraint(point) for constraint in self.constraints):
                    points.append(point)
            self._points = points
        return list(self._points)

    def job(self, point: Mapping) -> SimJob:
        return point_to_job(point)

    def jobs(self, points: Optional[Sequence[DesignPoint]] = None
             ) -> List[SimJob]:
        """One job per point, aligned 1:1 with ``points`` (default: all)."""
        points = self.points() if points is None else points
        return [point_to_job(point) for point in points]

    def unique_jobs(self) -> List[SimJob]:
        """The deduplicated job list: one job per distinct content key.

        Points the simulator cannot tell apart (identical content keys, e.g.
        a profile-insensitive baseline swept across precision profiles)
        collapse to the first occurrence.
        """
        seen = set()
        unique = []
        for job in self.jobs():
            key = job_key(job)
            if key not in seen:
                seen.add(key)
                unique.append(job)
        return unique

    # -- (de)serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form of the spec (the ``--grid`` JSON file format)."""
        return {
            "axes": {
                axis.name: [encode_parameter(axis.name, v)
                            for v in axis.values]
                for axis in self.axes
            },
            "base": {
                name: encode_parameter(name, value)
                for name, value in self.base.items()
            },
            "constraints": [c.name for c in self.constraints],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        unknown = set(data) - {"axes", "base", "constraints"}
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {sorted(unknown)}")
        axes = data.get("axes")
        if not axes:
            raise ValueError("sweep spec needs a non-empty 'axes' mapping")
        return cls(
            axes={name: tuple(values) for name, values in axes.items()},
            base=data.get("base") or {},
            constraints=tuple(data.get("constraints") or ()),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))
