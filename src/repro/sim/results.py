"""Result dataclasses for accelerator simulations.

Every accelerator model in this repository produces a :class:`LayerResult`
per compute layer, which records execution cycles, memory traffic and energy.
:class:`NetworkResult` aggregates them and :func:`compare` produces the
relative speedup / energy-efficiency numbers that the paper's tables report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "LayerResult",
    "NetworkResult",
    "ComparisonResult",
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
        """Plain-data form (for the on-disk result cache and tooling).

        Equal to ``dataclasses.asdict(self)``, field for field and in
        order, without its recursive deep copy: every field but ``extra``
        is a scalar.
        """
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
        """Inverse of :meth:`to_dict`; equal to ``cls(**data)``.

        A plain dict holding exactly the twelve fields (every decoded
        tier's case) skips the keyword call: the instance is built with
        ``object.__new__`` and its attributes stored in field order, as
        the vector engine's scatter does, and ``__post_init__``'s checks
        run inline.  Any other key set, a subclass, or a value those
        checks reject takes ``cls(**data)``, so every error stays the
        same.
        """
        if (cls is LayerResult and type(data) is dict
                and data.keys() == _LAYER_FIELDS):
            kind = data["layer_kind"]
            cycles = data["cycles"]
            if kind in _LAYER_KINDS and not cycles < 0:
                compute_cycles = data["compute_cycles"]
                memory_cycles = data["memory_cycles"]
                if compute_cycles == 0.0 and memory_cycles == 0.0:
                    compute_cycles = cycles
                layer = object.__new__(LayerResult)
                layer.layer_name = data["layer_name"]
                layer.layer_kind = kind
                layer.cycles = cycles
                layer.compute_cycles = compute_cycles
                layer.memory_cycles = memory_cycles
                layer.energy_pj = data["energy_pj"]
                layer.weight_bits_read = data["weight_bits_read"]
                layer.activation_bits_read = data["activation_bits_read"]
                layer.activation_bits_written = data["activation_bits_written"]
                layer.macs = data["macs"]
                layer.utilization = data["utilization"]
                layer.extra = data["extra"]
                return layer
        return cls(**data)


#: The fields ``LayerResult.from_dict``'s fast path stores, spelled out:
#: a field added to the class but not to the fast path takes the
#: constructor, never a half-built instance.
_LAYER_FIELDS = frozenset((
    "layer_name", "layer_kind", "cycles", "compute_cycles", "memory_cycles",
    "energy_pj", "weight_bits_read", "activation_bits_read",
    "activation_bits_written", "macs", "utilization", "extra"))
_LAYER_KINDS = ("conv", "fc", "matmul")


@dataclass
class NetworkResult:
    """Aggregated result of running one network on one accelerator.

    :meth:`to_json` / :meth:`from_json` are the one codec a result crosses
    a cache tier or the wire through; the text is memoised on the object
    (not a dataclass field), so a result is encoded at most once.
    """

    network: str
    accelerator: str
    layers: List[LayerResult] = field(default_factory=list)
    clock_ghz: float = 1.0

    #: Memoised :meth:`to_json` text (a plain class attribute, not a field).
    _json = None

    def add(self, result: LayerResult) -> None:
        self.layers.append(result)
        self._json = None

    # -- selections ----------------------------------------------------------

    def select(self, kind: Optional[str] = None) -> List[LayerResult]:
        """Layers of the requested kind (``"conv"``, ``"fc"`` or ``None`` for all)."""
        if kind is None:
            return list(self.layers)
        return [lr for lr in self.layers if lr.layer_kind == kind]

    # -- aggregates ----------------------------------------------------------

    def total_cycles(self, kind: Optional[str] = None) -> float:
        return sum(lr.cycles for lr in self.select(kind))

    def total_energy_pj(self, kind: Optional[str] = None) -> float:
        return sum(lr.energy_pj for lr in self.select(kind))

    def total_traffic_bits(self, kind: Optional[str] = None) -> float:
        return sum(lr.total_traffic_bits for lr in self.select(kind))

    def total_macs(self, kind: Optional[str] = None) -> int:
        return sum(lr.macs for lr in self.select(kind))

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
        layers = self.select(kind)
        total = sum(lr.cycles for lr in layers)
        if total <= 0:
            return 1.0
        return sum(lr.utilization * lr.cycles for lr in layers) / total

    def layer(self, name: str) -> LayerResult:
        for lr in self.layers:
            if lr.layer_name == name:
                return lr
        raise KeyError(f"no layer result named {name!r}")

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (for the on-disk result cache and tooling)."""
        return {
            "network": self.network,
            "accelerator": self.accelerator,
            "clock_ghz": self.clock_ghz,
            "layers": [lr.to_dict() for lr in self.layers],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetworkResult":
        decode = LayerResult.from_dict
        return cls(
            network=data["network"],
            accelerator=data["accelerator"],
            clock_ghz=data["clock_ghz"],
            layers=[decode(lr) for lr in data["layers"]],
        )

    def to_json(self) -> str:
        """The result's JSON text: ``json.dumps(self.to_dict())``, encoded
        once and memoised (:meth:`add` forgets it).

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
