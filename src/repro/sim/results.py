"""Result records for accelerator simulations.

Every accelerator model in this repository produces a :class:`LayerResult`
per compute layer, which records execution cycles, memory traffic and energy.
:class:`NetworkResult` aggregates them -- held as one column per
:class:`LayerResult` field, which is also its JSON form -- and
:func:`compare` produces the relative speedup / energy-efficiency numbers
that the paper's tables report.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional

__all__ = [
    "LayerResult",
    "NetworkResult",
    "ComparisonResult",
    "LAYER_FIELDS",
    "compare",
    "combine_layer_results",
]


@dataclass
class LayerResult:
    """What one accelerator did for one layer.

    Attributes
    ----------
    layer_name:
        Name of the layer.
    layer_kind:
        ``"conv"``, ``"fc"`` or ``"matmul"`` (attention-style work; it runs
        on the conv datapath but is reported distinctly).
    cycles:
        Execution cycles for this layer (compute- or memory-bound, whichever
        dominates; ``compute_cycles`` and ``memory_cycles`` keep the split).
    compute_cycles / memory_cycles:
        Cycles the datapath needed and cycles the off-chip interface needed.
    energy_pj:
        Total energy in picojoules.
    weight_bits_read / activation_bits_read / activation_bits_written:
        Memory traffic in bits (already scaled by the storage precision for
        designs that store data bit-interleaved).
    macs:
        Useful multiply-accumulate operations the layer required.
    utilization:
        Fraction of the datapath's peak throughput actually used.
    extra:
        Model-specific diagnostics (e.g. average dynamic precisions).
    """

    layer_name: str
    layer_kind: str
    cycles: float
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    energy_pj: float = 0.0
    weight_bits_read: float = 0.0
    activation_bits_read: float = 0.0
    activation_bits_written: float = 0.0
    macs: int = 0
    utilization: float = 1.0
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.layer_kind not in _LAYER_KINDS:
            raise ValueError(
                f"layer_kind must be 'conv', 'fc' or 'matmul', "
                f"got {self.layer_kind!r}"
            )
        if self.cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {self.cycles}")
        if self.compute_cycles == 0.0 and self.memory_cycles == 0.0:
            self.compute_cycles = self.cycles

    @property
    def total_traffic_bits(self) -> float:
        return (self.weight_bits_read + self.activation_bits_read
                + self.activation_bits_written)

    @property
    def is_conv(self) -> bool:
        return self.layer_kind == "conv"

    @property
    def is_fc(self) -> bool:
        return self.layer_kind == "fc"

    @property
    def is_matmul(self) -> bool:
        return self.layer_kind == "matmul"

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form of one layer: ``dataclasses.asdict(self)``."""
        return {
            "layer_name": self.layer_name,
            "layer_kind": self.layer_kind,
            "cycles": self.cycles,
            "compute_cycles": self.compute_cycles,
            "memory_cycles": self.memory_cycles,
            "energy_pj": self.energy_pj,
            "weight_bits_read": self.weight_bits_read,
            "activation_bits_read": self.activation_bits_read,
            "activation_bits_written": self.activation_bits_written,
            "macs": self.macs,
            "utilization": self.utilization,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LayerResult":
        """Inverse of :meth:`to_dict`: ``cls(**data)``."""
        return cls(**data)


_LAYER_KINDS = ("conv", "fc", "matmul")
_KINDS = frozenset(_LAYER_KINDS)

#: The columns of a :class:`NetworkResult`: every :class:`LayerResult`
#: field, in declaration order.
LAYER_FIELDS = tuple(f.name for f in fields(LayerResult))
_FIELD_SET = frozenset(LAYER_FIELDS)


def _check_columns(columns) -> None:
    """Validate a decoded ``layers`` mapping.

    A layer-level value :class:`LayerResult` rejects is rejected with the
    constructor's own error; anything but one equal-length list per field
    (a row-form ``layers`` list included) raises ``TypeError`` or
    ``ValueError``.
    """
    if type(columns) is not dict:
        raise TypeError(f"layers must map each field to a column, "
                        f"got {type(columns).__name__}")
    if columns.keys() != _FIELD_SET:
        raise ValueError(f"layers must hold exactly the columns "
                         f"{list(LAYER_FIELDS)}, got {sorted(columns)}")
    count = len(columns["layer_name"])
    for name in LAYER_FIELDS:
        column = columns[name]
        if type(column) is not list or len(column) != count:
            raise ValueError(f"column {name!r} must be a list of {count} "
                             f"values")
    kinds, cycles = columns["layer_kind"], columns["cycles"]
    try:
        # Every kind known and no cycle count negative: one set check and
        # one min().  A NaN that comes first makes min() NaN, and an
        # unhashable kind or an uncomparable count raises TypeError; both
        # take the loop below, like any layer the constructor rejects.
        if not count or (_KINDS.issuperset(kinds) and min(cycles) >= 0):
            return
    except TypeError:
        pass
    for kind, layer_cycles in zip(kinds, cycles):
        if kind not in _LAYER_KINDS or layer_cycles < 0:
            # The constructor raises its own error for this layer.
            LayerResult(layer_name="", layer_kind=kind, cycles=layer_cycles)


def _columns_of(layers: Iterable[LayerResult]) -> Dict[str, list]:
    """Fresh columns holding ``layers``' fields."""
    columns: Dict[str, list] = {name: [] for name in LAYER_FIELDS}
    appends = [columns[name].append for name in LAYER_FIELDS]
    for layer in layers:
        for append, value in zip(appends, (
                layer.layer_name, layer.layer_kind, layer.cycles,
                layer.compute_cycles, layer.memory_cycles, layer.energy_pj,
                layer.weight_bits_read, layer.activation_bits_read,
                layer.activation_bits_written, layer.macs, layer.utilization,
                dict(layer.extra))):
            append(value)
    return columns


def _layers_of(columns: Dict[str, list]) -> List[LayerResult]:
    """The :class:`LayerResult` rows of validated ``columns``.

    Each row is built with ``__new__`` plus attribute stores in field order:
    the columns were checked when they were made (:func:`_check_columns`
    or the engine's closed forms), so ``__post_init__`` has nothing left to
    do, and storing attributes one by one keeps CPython's shared-key
    instance layout.
    """
    new = LayerResult.__new__
    layers: List[LayerResult] = []
    append = layers.append
    for (name, kind, cycles, compute, memory, energy, weights, act_in,
         act_out, macs, utilization, extra) in zip(
            *[columns[field_name] for field_name in LAYER_FIELDS]):
        layer = new(LayerResult)
        layer.layer_name = name
        layer.layer_kind = kind
        layer.cycles = cycles
        layer.compute_cycles = compute
        layer.memory_cycles = memory
        layer.energy_pj = energy
        layer.weight_bits_read = weights
        layer.activation_bits_read = act_in
        layer.activation_bits_written = act_out
        layer.macs = macs
        layer.utilization = utilization
        layer.extra = extra
        append(layer)
    return layers


class NetworkResult:
    """Aggregated result of running one network on one accelerator.

    A result holds its layers in one of two forms: as columns (one list
    per :class:`LayerResult` field, :data:`LAYER_FIELDS`), which is how the
    vector engine and the codec make results, or as a list of
    :class:`LayerResult` rows.  Reading :attr:`layers` turns columns into
    rows once, and from then on the rows are the result (callers may
    mutate them, as they may any list they are handed); the aggregates,
    :meth:`to_dict` and ``==`` read whichever form is held, so a result
    that is only encoded or summed never builds a row.

    :meth:`to_json` / :meth:`from_json` are the one codec a result crosses
    a cache tier or the wire through; the text is memoised on the object,
    so a result is encoded at most once.
    """

    __hash__ = None  # mutable, compared by value

    def __init__(self, network: str, accelerator: str,
                 layers: Optional[List[LayerResult]] = None,
                 clock_ghz: float = 1.0) -> None:
        self.network = network
        self.accelerator = accelerator
        self.clock_ghz = clock_ghz
        self._layers = [] if layers is None else layers
        self._columns: Optional[Dict[str, list]] = None
        #: Memoised :meth:`to_json` text.
        self._json: Optional[str] = None

    @classmethod
    def _of_columns(cls, network: str, accelerator: str, clock_ghz: float,
                    columns: Dict[str, list]) -> "NetworkResult":
        """A result holding ``columns`` as they are (not copied or checked)."""
        result = cls.__new__(cls)
        result.network = network
        result.accelerator = accelerator
        result.clock_ghz = clock_ghz
        result._layers = None
        result._columns = columns
        result._json = None
        return result

    @property
    def layers(self) -> List[LayerResult]:
        """The per-layer results, in network order."""
        layers = self._layers
        if layers is None:
            columns = self._columns
            if columns is None:  # another thread built the rows meanwhile
                return self._layers
            layers = self._layers = _layers_of(columns)
            self._columns = None
        return layers

    @layers.setter
    def layers(self, layers: List[LayerResult]) -> None:
        self._layers = layers
        self._columns = None
        self._json = None

    def add(self, result: LayerResult) -> None:
        self.layers.append(result)
        self._json = None

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.network, self.accelerator, self.clock_ghz)
                == (other.network, other.accelerator, other.clock_ghz)
                and self._held_columns() == other._held_columns())

    def __repr__(self) -> str:
        return (f"NetworkResult(network={self.network!r}, "
                f"accelerator={self.accelerator!r}, layers={self.layers!r}, "
                f"clock_ghz={self.clock_ghz!r})")

    def _held_columns(self) -> Dict[str, list]:
        """The columns held, or columns built from the rows held (read-only)."""
        columns = self._columns
        if columns is None:
            columns = _columns_of(self.layers)
        return columns

    def _column(self, name: str, kind: Optional[str]) -> list:
        """Field ``name`` of the layers of ``kind`` (all when ``None``)."""
        columns = self._columns
        if columns is None:
            return [getattr(lr, name) for lr in self.select(kind)]
        values = columns[name]
        if kind is None:
            return values
        return [value for value, layer_kind
                in zip(values, columns["layer_kind"]) if layer_kind == kind]

    # -- selections ----------------------------------------------------------

    def select(self, kind: Optional[str] = None) -> List[LayerResult]:
        """Layers of the requested kind (``"conv"``, ``"fc"`` or ``None`` for all)."""
        if kind is None:
            return list(self.layers)
        return [lr for lr in self.layers if lr.layer_kind == kind]

    # -- aggregates ----------------------------------------------------------

    def total_cycles(self, kind: Optional[str] = None) -> float:
        return sum(self._column("cycles", kind))

    def total_energy_pj(self, kind: Optional[str] = None) -> float:
        return sum(self._column("energy_pj", kind))

    def total_traffic_bits(self, kind: Optional[str] = None) -> float:
        return sum(map(_traffic, self._column("weight_bits_read", kind),
                       self._column("activation_bits_read", kind),
                       self._column("activation_bits_written", kind)))

    def total_macs(self, kind: Optional[str] = None) -> int:
        return sum(self._column("macs", kind))

    def execution_time_s(self, kind: Optional[str] = None) -> float:
        """Execution time in seconds at the configured clock."""
        return self.total_cycles(kind) / (self.clock_ghz * 1e9)

    def frames_per_second(self, kind: Optional[str] = None) -> float:
        time_s = self.execution_time_s(kind)
        if time_s <= 0:
            return float("inf")
        return 1.0 / time_s

    def average_utilization(self, kind: Optional[str] = None) -> float:
        """Cycle-weighted average datapath utilisation."""
        cycles = self._column("cycles", kind)
        total = sum(cycles)
        if total <= 0:
            return 1.0
        return sum(map(operator.mul, self._column("utilization", kind),
                       cycles)) / total

    def layer(self, name: str) -> LayerResult:
        for lr in self.layers:
            if lr.layer_name == name:
                return lr
        raise KeyError(f"no layer result named {name!r}")

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form: ``{"network", "accelerator", "clock_ghz",
        "layers": {<field>: [one value per layer], ...}}``, one column per
        :class:`LayerResult` field (:data:`LAYER_FIELDS` order).  The
        columns are fresh lists."""
        columns = self._columns
        if columns is None:
            columns = _columns_of(self.layers)
        else:
            columns = {name: (list(values) if name != "extra"
                              else list(map(dict, values)))
                       for name, values in columns.items()}
        return {
            "network": self.network,
            "accelerator": self.accelerator,
            "clock_ghz": self.clock_ghz,
            "layers": columns,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetworkResult":
        """Inverse of :meth:`to_dict`.  The result keeps ``data``'s column
        lists (it does not copy them); raises ``KeyError``, ``TypeError``
        or ``ValueError`` for data that is not a result, a row-form
        ``layers`` list included."""
        columns = data["layers"]
        _check_columns(columns)
        compute, memory = columns["compute_cycles"], columns["memory_cycles"]
        if 0.0 in compute:
            # LayerResult's fix-up: a layer that records neither split
            # was compute bound.
            columns = dict(columns)
            columns["compute_cycles"] = [
                cycles if computed == 0.0 and waited == 0.0 else computed
                for cycles, computed, waited
                in zip(columns["cycles"], compute, memory)]
        return cls._of_columns(data["network"], data["accelerator"],
                               data["clock_ghz"], columns)

    def to_json(self) -> str:
        """The result's JSON text: ``json.dumps(self.to_dict())``, encoded
        once and memoised (:meth:`add` and setting :attr:`layers` forget
        it).

        This text is the result's form at rest (every cache tier) and on
        the wire; ``repr`` round-trips float64 exactly, so
        ``from_json(to_json())`` is field-for-field equal to the original.
        """
        text = self._json
        if text is None:
            text = self._json = json.dumps(self.to_dict())
        return text

    @classmethod
    def from_json(cls, text: str) -> "NetworkResult":
        """Decode :meth:`to_json` text; raises ``ValueError``, ``KeyError``
        or ``TypeError`` for text that is not a result."""
        result = cls.from_dict(json.loads(text))
        result._json = text
        return result


def _traffic(weights: float, act_in: float, act_out: float) -> float:
    """:attr:`LayerResult.total_traffic_bits`, from its three columns."""
    return weights + act_in + act_out


@dataclass(frozen=True)
class ComparisonResult:
    """Relative performance and energy efficiency of one design versus a baseline.

    ``speedup`` is baseline time / design time (higher is better);
    ``energy_efficiency`` is baseline energy / design energy (higher is
    better), matching the paper's "Perf" and "Eff" columns.
    """

    network: str
    design: str
    baseline: str
    kind: Optional[str]
    speedup: float
    energy_efficiency: float
    design_cycles: float
    baseline_cycles: float
    design_energy_pj: float
    baseline_energy_pj: float


def compare(design: NetworkResult, baseline: NetworkResult,
            kind: Optional[str] = None) -> ComparisonResult:
    """Compare a design against a baseline over the selected layer kind."""
    if design.network != baseline.network:
        raise ValueError(
            f"cannot compare results for different networks: "
            f"{design.network!r} vs {baseline.network!r}"
        )
    design_cycles = design.total_cycles(kind)
    baseline_cycles = baseline.total_cycles(kind)
    design_energy = design.total_energy_pj(kind)
    baseline_energy = baseline.total_energy_pj(kind)
    speedup = baseline_cycles / design_cycles if design_cycles > 0 else float("inf")
    eff = baseline_energy / design_energy if design_energy > 0 else float("inf")
    return ComparisonResult(
        network=design.network,
        design=design.accelerator,
        baseline=baseline.accelerator,
        kind=kind,
        speedup=speedup,
        energy_efficiency=eff,
        design_cycles=design_cycles,
        baseline_cycles=baseline_cycles,
        design_energy_pj=design_energy,
        baseline_energy_pj=baseline_energy,
    )


def combine_layer_results(name: str, results: Iterable[LayerResult],
                          kind: str = "conv") -> LayerResult:
    """Merge several layer results into one (used for grouped/cascaded layers)."""
    results = list(results)
    if not results:
        raise ValueError("cannot combine an empty result list")
    return LayerResult(
        layer_name=name,
        layer_kind=kind,
        cycles=sum(r.cycles for r in results),
        compute_cycles=sum(r.compute_cycles for r in results),
        memory_cycles=sum(r.memory_cycles for r in results),
        energy_pj=sum(r.energy_pj for r in results),
        weight_bits_read=sum(r.weight_bits_read for r in results),
        activation_bits_read=sum(r.activation_bits_read for r in results),
        activation_bits_written=sum(r.activation_bits_written for r in results),
        macs=sum(r.macs for r in results),
        utilization=(
            sum(r.utilization * r.cycles for r in results)
            / max(1e-12, sum(r.cycles for r in results))
        ),
    )
