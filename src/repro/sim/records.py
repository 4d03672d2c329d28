"""Design records: what the vector engine reads of one design.

The vector engine (:mod:`repro.sim.batched`) never touches an
``Accelerator`` while it evaluates: it reads a design only through its
:class:`DesignRecord` -- the vector kernel it runs on (designs of one kernel
share a plane), the name and clock its results carry, and its per-design
values, numbers and branch flags alike, which become per-row columns when
designs share a plane.

A record comes from one of two places:

* :func:`spec_record` derives a stock design's record straight from its
  (:class:`~repro.sim.jobs.spec.AcceleratorSpec`,
  :class:`~repro.accelerators.base.AcceleratorConfig`) value, so a
  never-seen design costs a few formula calls and no object graph;
* :func:`record_of` reads it off a live stock accelerator (what
  ``run_network`` and ``simulate_layer_table`` hand the engine).

Both call the models' own formulas -- memory capacities
(:func:`~repro.accelerators.base.default_am_bytes`), energy factors
(:func:`repro.memory.edram.size_factor`, ...), DRAM bandwidth, datapath
pJ/cycle (:class:`~repro.energy.power.DatapathPower`) and the SIP grid
(:class:`~repro.core.scheduler.LoomGeometry`) -- so there is no second copy
of a formula, and ``tests/test_batched.py`` draws specs and configs to
check that the two agree.  Adding an accelerator variant means one kernel
branch in ``repro.sim.batched._compute_cycles`` plus its fields here.

This module imports the models, so the engine imports it lazily: it is
loaded while ``repro.accelerators.base`` may still be initialising.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, NamedTuple, Optional

from repro.accelerators.base import (
    default_am_bytes,
    default_wm_bytes,
    inner_product_units,
)
from repro.accelerators.dpnn import DPNN
from repro.accelerators.dstripes import DStripes
from repro.accelerators.stripes import Stripes
from repro.core.loom import Loom
from repro.core.scheduler import LoomGeometry
from repro.energy.power import DatapathPower
from repro.memory import edram, sram
from repro.memo import DESIGN_MEMO_SIZE, memo
from repro.memory.layout import (
    BitInterleavedLayout,
    BitParallelLayout,
    Transposer,
)
from repro.sim.jobs.spec import build_accelerator, constructor_options, kind_class

__all__ = ["DesignRecord", "RECORD_FIELDS", "STOCK_KERNELS", "record_of",
           "spec_record"]

#: The exact classes with a vector kernel, each with its kernel.  The check
#: is on the exact type: subclasses may override any hook, so they take the
#: event engine instead.
STOCK_KERNELS = {Loom: "loom", Stripes: "stripes", DStripes: "stripes",
                 DPNN: "dpnn"}

#: Values every kernel reads, as (integers, floats, flags).
_COMMON_FIELDS = (
    ("am_capacity_bits", "wm_capacity_bits", "equivalent_macs",
     "weight_word_bits", "act_word_bits"),
    ("am_base", "am_size", "am_tech", "wm_base", "wm_size", "wm_tech",
     "abin_base", "abin_size", "abin_tech", "about_base", "about_size",
     "about_tech", "transposer_pj", "dram_bits_per_cycle",
     "dram_energy_pj_per_bit", "datapath_pj"),
    ("has_dram", "charge_offchip_energy", "has_transposer",
     "weight_interleaved", "act_interleaved"),
)

#: Per kernel, the values its cycle closed forms read, as (integers,
#: floats, flags).
_KERNEL_FIELDS = {
    "loom": (("filter_rows", "window_columns", "num_sips", "bits_per_cycle"),
             ("activation_reduction",),
             ("dynamic", "replicate_filters", "use_cascading",
              "use_effective_weight_precision")),
    "stripes": (("filter_lanes", "window_lanes", "fc_ip_units"),
                ("activation_reduction",), ("dynamic",)),
    "dpnn": (("num_ip_units",), (), ()),
}

#: Per kernel, every record field as (integers, floats, flags).
RECORD_FIELDS = {
    kernel: tuple(common + own for common, own in zip(_COMMON_FIELDS, own_fields))
    for kernel, own_fields in _KERNEL_FIELDS.items()
}

#: Per kernel, one getter per part of :data:`RECORD_FIELDS` (every part
#: has at least two fields, so each getter returns a tuple).
_GETTERS = {kernel: tuple(itemgetter(*names) for names in parts)
            for kernel, parts in RECORD_FIELDS.items()}

#: Per kernel: whether activations and weights are stored bit-serially
#: (the models' ``stores_activations_serially``/``stores_weights_serially``).
_KERNEL_STORAGE = {"loom": (True, True), "stripes": (True, False),
                   "dpnn": (False, False)}

#: The memories' energy-per-feature-size factors at their default node.
_EDRAM_TECH = edram.tech_factor(edram.EDRAMMemory.technology_nm)
_SRAM_TECH = sram.tech_factor(sram.SRAMBuffer.technology_nm)


class DesignRecord(NamedTuple):
    """What the vector engine reads of one design: ``ints``, ``floats``
    and ``flags`` hold the values of :data:`RECORD_FIELDS` ``[kernel]``."""

    kernel: str
    name: str
    clock_ghz: float
    ints: tuple
    floats: tuple
    flags: tuple


def _record(kernel: str, name: str, clock_ghz: float,
            values: Dict[str, object]) -> DesignRecord:
    """The record holding ``values`` (every field of ``kernel``'s)."""
    ints, floats, flags = _GETTERS[kernel]
    return DesignRecord(kernel, name, clock_ghz, ints(values), floats(values),
                        tuple(map(bool, flags(values))))


def record_of(accelerator) -> DesignRecord:
    """The record read off a live stock ``accelerator``; ``TypeError``
    for a design without a vector kernel."""
    kernel = STOCK_KERNELS.get(type(accelerator))
    if kernel is None:
        raise TypeError(f"no vector kernel for {type(accelerator).__name__}; "
                        f"check supports_vector_engine() first")
    hierarchy = accelerator.hierarchy
    am, wm = hierarchy.activation_memory, hierarchy.weight_memory
    abin, about = hierarchy.abin, hierarchy.about
    dram, transposer = hierarchy.dram, hierarchy.transposer
    values = {
        "am_capacity_bits": am.capacity_bits,
        "wm_capacity_bits": wm.capacity_bits,
        "equivalent_macs": accelerator.config.equivalent_macs,
        "weight_word_bits": hierarchy.weight_layout.word_bits,
        "act_word_bits": hierarchy.activation_layout.word_bits,
        "am_base": am._BASE_ACCESS_ENERGY_PJ_PER_BIT,
        "am_size": am._size_factor(),
        "am_tech": am._tech_factor(),
        "wm_base": wm._BASE_ACCESS_ENERGY_PJ_PER_BIT,
        "wm_size": wm._size_factor(),
        "wm_tech": wm._tech_factor(),
        "abin_base": abin._BASE_READ_ENERGY_PJ_PER_BIT,
        "abin_size": abin._size_factor(),
        "abin_tech": abin._tech_factor(),
        "about_base": about._BASE_WRITE_ENERGY_PJ_PER_BIT,
        "about_size": about._size_factor(),
        "about_tech": about._tech_factor(),
        "transposer_pj": (0.0 if transposer is None
                          else transposer.energy_pj_per_value),
        "dram_bits_per_cycle": (1.0 if dram is None
                                else dram.bits_per_cycle(hierarchy.clock_ghz)),
        "dram_energy_pj_per_bit": (0.0 if dram is None
                                   else dram.energy_pj_per_bit),
        "datapath_pj": accelerator.datapath_pj_per_cycle(),
        "has_dram": dram is not None,
        "charge_offchip_energy": hierarchy.charge_offchip_energy,
        "has_transposer": transposer is not None,
        "weight_interleaved": isinstance(hierarchy.weight_layout,
                                         BitInterleavedLayout),
        "act_interleaved": isinstance(hierarchy.activation_layout,
                                      BitInterleavedLayout),
    }
    if kernel == "loom":
        geometry = accelerator.geometry
        values.update(
            filter_rows=geometry.filter_rows,
            window_columns=geometry.window_columns,
            num_sips=geometry.num_sips,
            bits_per_cycle=accelerator.bits_per_cycle,
            activation_reduction=accelerator.dynamic_precision.activation_reduction,
            dynamic=accelerator.dynamic_precision.enabled,
            replicate_filters=accelerator.replicate_filters,
            use_cascading=accelerator.use_cascading,
            use_effective_weight_precision=(
                accelerator.use_effective_weight_precision),
        )
    elif kernel == "stripes":
        values.update(
            filter_lanes=accelerator.filter_lanes,
            window_lanes=accelerator.WINDOW_LANES,
            fc_ip_units=accelerator._dpnn.num_ip_units,
            activation_reduction=accelerator.dynamic_precision.activation_reduction,
            dynamic=accelerator.dynamic_precision.enabled,
        )
    else:
        values["num_ip_units"] = accelerator.num_ip_units
    return _record(kernel, accelerator.name, accelerator.config.clock_ghz,
                   values)


def spec_record(spec, config) -> DesignRecord:
    """The record of the stock design ``spec`` names at ``config``, derived
    from the two values without building the accelerator.

    A spec the derivation does not read as the constructor would -- an
    option the constructor does not take, a value it rejects or would keep
    unnormalised -- is left to the constructor: the design is built, which
    raises the constructor's own error, or, if it builds, is read off the
    instance.
    """
    design = _spec_design(spec)
    record = None if design is None else _derived_record(design, config)
    if record is None:
        record = record_of(build_accelerator(spec, config))
    return record


class _SpecDesign(NamedTuple):
    """What a stock spec alone fixes of its design's record."""

    cls: type
    kernel: str
    name: str
    #: Every constructor option, defaults filled in and the precision
    #: model resolved.
    options: Dict[str, object]


@memo(DESIGN_MEMO_SIZE)
def _spec_design(spec) -> Optional[_SpecDesign]:
    """The spec's half of :func:`spec_record` (memoised per spec: a sweep
    varies configs far more than specs), or ``None`` when the constructor
    must decide."""
    options = constructor_options(spec)
    if options is None:
        return None
    cls = kind_class(spec.kind)
    kernel = STOCK_KERNELS[cls]
    name = cls.name
    if kernel != "dpnn":
        dynamic = options["dynamic_precision"] or cls.DEFAULT_DYNAMIC_PRECISION
        if cls is DStripes and not dynamic.enabled:
            return None
        options["dynamic_precision"] = dynamic
    if kernel == "loom":
        bits_per_cycle = options["bits_per_cycle"]
        if (type(bits_per_cycle) is not int
                or type(options["window_fanout"]) is not int
                or bits_per_cycle not in cls.BITS_PER_CYCLE):
            return None
        name = cls.variant_name(bits_per_cycle)
    return _SpecDesign(cls, kernel, name, options)


def _derived_record(design: _SpecDesign, config) -> Optional[DesignRecord]:
    """The record of ``design`` at ``config`` from the models' formulas, or
    ``None`` when the constructor must decide (see :func:`spec_record`)."""
    kernel, options = design.kernel, design.options
    activations_serial, weights_serial = _KERNEL_STORAGE[kernel]
    am_bytes = config.am_capacity_bytes or default_am_bytes(activations_serial)
    wm_bytes = (config.wm_capacity_bytes
                or default_wm_bytes(weights_serial, config.scale))
    if am_bytes < 1 or wm_bytes < 1:
        return None  # the memory model rejects it
    macs = config.equivalent_macs
    dram = config.dram
    power = DatapathPower(config.tech)
    values = {
        "am_capacity_bits": am_bytes * 8,
        "wm_capacity_bits": wm_bytes * 8,
        "equivalent_macs": macs,
        "weight_word_bits": (BitInterleavedLayout if weights_serial
                             else BitParallelLayout).word_bits,
        "act_word_bits": (BitInterleavedLayout if activations_serial
                          else BitParallelLayout).word_bits,
        "am_base": edram.EDRAMMemory._BASE_ACCESS_ENERGY_PJ_PER_BIT,
        "am_size": edram.size_factor(am_bytes),
        "am_tech": _EDRAM_TECH,
        "wm_base": edram.EDRAMMemory._BASE_ACCESS_ENERGY_PJ_PER_BIT,
        "wm_size": edram.size_factor(wm_bytes),
        "wm_tech": _EDRAM_TECH,
        "abin_base": sram.SRAMBuffer._BASE_READ_ENERGY_PJ_PER_BIT,
        "abin_size": sram.size_factor(config.abin_bytes),
        "abin_tech": _SRAM_TECH,
        "about_base": sram.SRAMBuffer._BASE_WRITE_ENERGY_PJ_PER_BIT,
        "about_size": sram.size_factor(config.about_bytes),
        "about_tech": _SRAM_TECH,
        "transposer_pj": (Transposer.energy_pj_per_value
                          if activations_serial else 0.0),
        "dram_bits_per_cycle": (1.0 if dram is None
                                else dram.bits_per_cycle(config.clock_ghz)),
        "dram_energy_pj_per_bit": (0.0 if dram is None
                                   else dram.energy_pj_per_bit),
        "has_dram": dram is not None,
        "charge_offchip_energy": config.charge_offchip_energy,
        "has_transposer": activations_serial,
        "weight_interleaved": weights_serial,
        "act_interleaved": activations_serial,
    }
    if kernel == "loom":
        bits_per_cycle = options["bits_per_cycle"]
        dynamic = options["dynamic_precision"]
        geometry = LoomGeometry(equivalent_macs=macs,
                                bits_per_cycle=bits_per_cycle,
                                window_fanout=options["window_fanout"])
        values.update(
            filter_rows=geometry.filter_rows,
            window_columns=geometry.window_columns,
            num_sips=geometry.num_sips,
            bits_per_cycle=bits_per_cycle,
            activation_reduction=dynamic.activation_reduction,
            dynamic=dynamic.enabled,
            replicate_filters=options["replicate_filters"],
            use_cascading=options["use_cascading"],
            use_effective_weight_precision=(
                options["use_effective_weight_precision"]),
            datapath_pj=power.loom_pj_per_cycle(
                macs, bits_per_cycle=bits_per_cycle,
                dynamic_precision=dynamic.enabled),
        )
    elif kernel == "stripes":
        dynamic = options["dynamic_precision"]
        values.update(
            filter_lanes=inner_product_units(macs),
            window_lanes=design.cls.WINDOW_LANES,
            fc_ip_units=inner_product_units(macs),
            activation_reduction=dynamic.activation_reduction,
            dynamic=dynamic.enabled,
            datapath_pj=power.stripes_pj_per_cycle(
                macs, dynamic_precision=dynamic.enabled),
        )
    else:
        values.update(num_ip_units=inner_product_units(macs),
                      datapath_pj=power.dpnn_pj_per_cycle(macs))
    return _record(kernel, design.name, config.clock_ghz, values)
