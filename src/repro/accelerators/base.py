"""Common accelerator interface, configuration and memory-system sizing.

Every design studied by the paper is modelled as an :class:`Accelerator`: it
is constructed from an :class:`AcceleratorConfig` (equivalent peak compute
bandwidth, memory sizes, optional off-chip channel, technology) and simulates
one resolved network layer at a time, producing a
:class:`repro.sim.results.LayerResult`.

The configuration captures the knobs the paper sweeps:

* ``equivalent_macs`` -- the scale of the design expressed as the number of
  16b x 16b multiply-accumulates per cycle of the *bit-parallel* baseline it
  matches (the x-axis of Figure 5: 32 ... 512; the default 128 is the
  configuration used everywhere else).
* activation/weight memory capacities and the off-chip DRAM channel
  (``None`` = the unconstrained-bandwidth mode of Sections 4.3/4.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Optional

from repro.canonical import canonical_number
from repro.energy.area import AreaModel, DatapathArea
from repro.energy.power import DatapathPower, PowerModel
from repro.energy.tech import TechnologyParameters, TSMC_65NM
from repro.memory.dram import DRAMChannel
from repro.memory.edram import EDRAMMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.layout import BitInterleavedLayout, BitParallelLayout, Transposer
from repro.memory.sram import SRAMBuffer
from repro.nn.network import LayerWithPrecision
from repro.sim.results import LayerResult

__all__ = ["AcceleratorConfig", "Accelerator", "ceil_div", "LANES_PER_UNIT",
           "default_am_bytes", "default_wm_bytes", "inner_product_units"]

#: Activations (and weights per filter) processed per inner-product unit per
#: cycle in the baseline -- N in the paper.
LANES_PER_UNIT = 16

#: Default memory sizing for the 128-MAC configuration (Section 4.5): DPNN
#: needs a 2 MB activation memory, Loom 1 MB; weight memories scale with the
#: number of concurrently processed filters.
_DEFAULT_EQUIVALENT_MACS = 128
_DPNN_AM_BYTES_AT_128 = 2 * 1024 * 1024
_LOOM_AM_BYTES_AT_128 = 1 * 1024 * 1024
_DPNN_WM_BYTES_AT_128 = 1 * 1024 * 1024
_LOOM_WM_BYTES_AT_128 = 2 * 1024 * 1024

#: Declared type of each scalar config field: equal spellings (``1``,
#: ``1.0``, ``True``) are stored as it, so equal configs key alike.
_SCALAR_FIELDS = (("equivalent_macs", int), ("clock_ghz", float),
                  ("am_capacity_bytes", int), ("wm_capacity_bytes", int),
                  ("abin_bytes", int), ("about_bytes", int),
                  ("charge_offchip_energy", bool))


def default_am_bytes(activations_serial: bool) -> int:
    """Default activation-memory capacity: 1 MB when activations are stored
    bit-serially (Loom, Stripes), 2 MB otherwise (Section 4.5)."""
    base = (_LOOM_AM_BYTES_AT_128 if activations_serial
            else _DPNN_AM_BYTES_AT_128)
    return max(64 * 1024, int(base))


def default_wm_bytes(weights_serial: bool, scale: float) -> int:
    """Default weight-memory capacity, scaled with the number of
    concurrently processed filters (``scale`` = equivalent MACs / 128)."""
    base = (_LOOM_WM_BYTES_AT_128 if weights_serial
            else _DPNN_WM_BYTES_AT_128)
    return max(64 * 1024, int(base * scale))


def inner_product_units(equivalent_macs: int) -> int:
    """Inner-product units (k in the paper) of the bit-parallel design at
    ``equivalent_macs``: also Stripes' concurrent filters."""
    return equivalent_macs // LANES_PER_UNIT


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division (tiles never run partially empty for free)."""
    if b <= 0:
        raise ValueError(f"divisor must be > 0, got {b}")
    if a < 0:
        raise ValueError(f"dividend must be >= 0, got {a}")
    return -(-a // b)


@dataclass(frozen=True)
class AcceleratorConfig:
    """Configuration shared by all accelerator models.

    Parameters
    ----------
    equivalent_macs:
        Peak compute bandwidth expressed as equivalent 16b x 16b MACs per
        cycle of the bit-parallel baseline.
    clock_ghz:
        Clock frequency (1 GHz in the paper).
    am_capacity_bytes / wm_capacity_bytes:
        On-chip activation / weight memory capacity.  ``None`` picks the
        design's default scaled from the 128-MAC configuration.
    abin_bytes / about_bytes:
        Input/output activation SRAM buffer sizes.
    dram:
        Optional off-chip channel (Figure 5 uses LPDDR4-4267); ``None`` models
        unconstrained off-chip bandwidth.
    charge_offchip_energy:
        Whether off-chip transfer energy counts toward layer energy.  The
        paper's energy results exclude it; it is included by default here so
        the full cost is visible, and the Figure 5 harness turns it off to
        match the paper's accounting.
    tech:
        Technology parameter set.
    """

    equivalent_macs: int = _DEFAULT_EQUIVALENT_MACS
    clock_ghz: float = 1.0
    am_capacity_bytes: Optional[int] = None
    wm_capacity_bytes: Optional[int] = None
    abin_bytes: int = 8 * 1024
    about_bytes: int = 8 * 1024
    dram: Optional[DRAMChannel] = None
    charge_offchip_energy: bool = True
    tech: TechnologyParameters = TSMC_65NM

    def __post_init__(self) -> None:
        for name, declared in _SCALAR_FIELDS:
            value = getattr(self, name)
            if type(value) is not declared:
                object.__setattr__(self, name,
                                   canonical_number(value, declared))
        if self.equivalent_macs < LANES_PER_UNIT or \
                self.equivalent_macs % LANES_PER_UNIT:
            raise ValueError(
                f"equivalent_macs must be a positive multiple of {LANES_PER_UNIT}, "
                f"got {self.equivalent_macs}"
            )
        if self.clock_ghz <= 0:
            raise ValueError(f"clock_ghz must be > 0, got {self.clock_ghz}")
        if self.abin_bytes < 1 or self.about_bytes < 1:
            raise ValueError("buffer sizes must be >= 1 byte")

    @property
    def scale(self) -> float:
        """Scale factor relative to the 128-MAC reference configuration."""
        return self.equivalent_macs / _DEFAULT_EQUIVALENT_MACS

    def with_dram(self, dram: Optional[DRAMChannel]) -> "AcceleratorConfig":
        return replace(self, dram=dram)

    def with_scale(self, equivalent_macs: int) -> "AcceleratorConfig":
        return replace(self, equivalent_macs=equivalent_macs)


class Accelerator(abc.ABC):
    """Abstract accelerator: cycle, traffic and energy model for one design."""

    #: Subclasses set this to their display name (e.g. ``"DPNN"``).
    name: str = "accelerator"

    def __init__(self, config: Optional[AcceleratorConfig] = None) -> None:
        self.config = config or AcceleratorConfig()
        self._power = DatapathPower(self.config.tech)
        self._area = DatapathArea(self.config.tech)
        self._power_model = PowerModel(self._power)
        self._area_model = AreaModel(self._area)
        self.hierarchy = self._build_hierarchy()

    # -- memory system ------------------------------------------------------------

    @property
    def uses_bit_interleaved_storage(self) -> bool:
        """Whether the design stores data bit-interleaved (precision-scaled)."""
        return False

    @property
    def stores_weights_serially(self) -> bool:
        """Whether *weight* storage is precision-scaled (Loom only)."""
        return False

    @property
    def stores_activations_serially(self) -> bool:
        """Whether *activation* storage is precision-scaled (Loom and Stripes)."""
        return self.uses_bit_interleaved_storage

    def default_am_bytes(self) -> int:
        return default_am_bytes(self.stores_activations_serially)

    def default_wm_bytes(self) -> int:
        return default_wm_bytes(self.stores_weights_serially,
                                self.config.scale)

    def _build_hierarchy(self) -> MemoryHierarchy:
        am_bytes = self.config.am_capacity_bytes or self.default_am_bytes()
        wm_bytes = self.config.wm_capacity_bytes or self.default_wm_bytes()
        weight_bus_bits = self.config.equivalent_macs * LANES_PER_UNIT
        act_bus_bits = LANES_PER_UNIT * LANES_PER_UNIT
        act_layout = (BitInterleavedLayout(group_size=act_bus_bits)
                      if self.stores_activations_serially else BitParallelLayout())
        weight_layout = (BitInterleavedLayout(group_size=weight_bus_bits)
                         if self.stores_weights_serially else BitParallelLayout())
        transposer = Transposer() if self.stores_activations_serially else None
        return MemoryHierarchy(
            activation_memory=EDRAMMemory("AM", am_bytes, width_bits=act_bus_bits),
            weight_memory=EDRAMMemory("WM", wm_bytes, width_bits=weight_bus_bits),
            abin=SRAMBuffer("ABin", self.config.abin_bytes, width_bits=act_bus_bits),
            about=SRAMBuffer("ABout", self.config.about_bytes,
                             width_bits=act_bus_bits),
            activation_layout=act_layout,
            weight_layout=weight_layout,
            dram=self.config.dram,
            transposer=transposer,
            clock_ghz=self.config.clock_ghz,
            charge_offchip_energy=self.config.charge_offchip_energy,
        )

    # -- per-design hooks -----------------------------------------------------------

    @abc.abstractmethod
    def compute_cycles(self, layer: LayerWithPrecision) -> float:
        """Datapath cycles for one layer (ignoring off-chip bandwidth)."""

    @abc.abstractmethod
    def datapath_pj_per_cycle(self) -> float:
        """Dynamic energy the datapath burns per active cycle."""

    @abc.abstractmethod
    def core_area_mm2(self) -> float:
        """Datapath (core) area of the design."""

    def storage_precisions(self, layer: LayerWithPrecision) -> tuple:
        """(weight_bits, activation_bits) used for storage/traffic accounting."""
        if self.uses_bit_interleaved_storage:
            return (layer.precision.weight_bits, layer.precision.activation_bits)
        return (16, 16)

    def utilization(self, layer: LayerWithPrecision,
                    compute_cycles: Optional[float] = None) -> float:
        """Fraction of peak datapath throughput used for this layer.

        ``compute_cycles`` lets callers that already scheduled the layer
        (``simulate_layer``) skip re-deriving the datapath cycles.
        """
        cycles = (compute_cycles if compute_cycles is not None
                  else self.compute_cycles(layer))
        if cycles <= 0:
            return 1.0
        ideal = layer.macs / self.config.equivalent_macs
        # For precision-exploiting designs "peak" moves with precision; report
        # utilisation against the fixed-precision peak which is what matters
        # for underutilisation effects (idle lanes/rows).
        return min(1.0, ideal / cycles)

    # -- simulation -----------------------------------------------------------------

    def simulate_layer(self, layer: LayerWithPrecision) -> LayerResult:
        """Simulate one layer: cycles, traffic and energy."""
        if not (layer.is_conv or layer.is_fc):
            raise ValueError(
                f"layer {layer.name!r} is not a compute layer"
            )
        compute_cycles = self.compute_cycles(layer)
        weight_bits, act_bits = self.storage_precisions(layer)
        traffic = self.hierarchy.layer_traffic(
            weight_count=layer.weight_count,
            input_activations=layer.input_activations,
            output_activations=layer.output_activations,
            weight_bits=weight_bits,
            activation_bits=act_bits,
            is_fc=layer.is_fc,
        )
        memory_cycles = self.hierarchy.memory_cycles(traffic)
        cycles = max(compute_cycles, memory_cycles)
        # Energy: the datapath burns its active power for compute cycles and a
        # reduced (clock-gated) power while stalled on memory; memory energy
        # is traffic based.
        stall_cycles = max(0.0, cycles - compute_cycles)
        datapath_pj = self.datapath_pj_per_cycle()
        datapath_energy = (compute_cycles * datapath_pj
                           + stall_cycles * datapath_pj * 0.25)
        memory_energy = self.hierarchy.memory_energy_pj(
            traffic, output_activations=layer.output_activations
        )
        energy = datapath_energy + memory_energy
        return LayerResult(
            layer_name=layer.name,
            layer_kind=layer.kind,
            cycles=cycles,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            energy_pj=energy,
            weight_bits_read=traffic.weight_bits,
            activation_bits_read=traffic.activation_in_bits,
            activation_bits_written=traffic.activation_out_bits,
            macs=layer.macs,
            utilization=self.utilization(layer, compute_cycles=compute_cycles),
        )

    # -- reporting -------------------------------------------------------------------

    def total_area_mm2(self) -> float:
        """Core plus on-chip memory area."""
        return self._area_model.total_mm2(self.core_area_mm2(), self.hierarchy)

    def describe(self) -> str:
        return (f"{self.name} ({self.config.equivalent_macs}-MAC equivalent, "
                f"{self.hierarchy.describe()})")
