"""The vector engine: closed-form simulation of whole design planes.

The reference ("event") engine walks a network layer by layer through
``Accelerator.simulate_layer`` -- per-layer Python arithmetic whose Loom
schedules are cross-checked callback by callback against the event-driven
:class:`repro.core.tile.LoomTileSimulator`.  This module computes the same
per-layer cycle counts, memory-channel stalls, traffic, energy and occupancy
with the NumPy closed forms of :mod:`repro.core.closed_form`, over many
(design x job x layer) rows at once:

1. every compute layer of a network becomes one row of a :class:`LayerTable`
   (memoised per network spec by the job pipeline);
2. jobs are grouped by accelerator design, and each group's tables are
   concatenated end to end into one :class:`BatchedLayerTable`;
3. designs whose *structural* signature matches (class, memory layout, Loom
   scheduling flags -- everything that picks a Python-level branch) share
   one plane; each design's numeric parameters become per-row arrays, while
   a one-design plane keeps them as scalars that broadcast;
4. :func:`_evaluate_plane` runs the closed forms once over the plane, and
   the rows are scattered back into per-job
   :class:`~repro.sim.results.NetworkResult` objects.

Bit-exactness falls out of IEEE float64 arithmetic being elementwise: every
array expression mirrors the scalar models operation for operation, so a
row's bits do not depend on which other rows share its plane.
:mod:`repro.sim.validate` asserts field-for-field equality with the event
engine over the full 216-job matrix.

Only the four stock designs (DPNN, Stripes, DStripes, Loom) have vector
kernels; exotic ``Accelerator`` subclasses take the event engine
automatically (see :func:`supports_vector_engine`), so user extensions keep
working unchanged and mixed batches still come back in submission order.

The engine is chosen once per process (``loom-repro --engine
{vector,event}``, :func:`use_engine`); the result cache keys do not record
it because both engines are bit-identical.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.memo import DESIGN_MEMO_SIZE, PLANE_MEMO_SIZE, memo
from repro.sim.results import LayerResult, NetworkResult

# repro.core.closed_form and the accelerator classes are imported lazily:
# this module is pulled in by ``repro.sim.__init__`` while
# ``repro.accelerators.base`` (which the core schedules depend on) may still
# be mid-initialisation.

__all__ = [
    "ENGINES",
    "BatchedLayerTable",
    "LayerTable",
    "build_layer_table",
    "get_default_engine",
    "resolve_engine",
    "set_default_engine",
    "simulate_jobs_batched",
    "simulate_layer_table",
    "stack_layer_tables",
    "supports_vector_engine",
    "use_engine",
]

#: The selectable simulation engines: the closed-form vector engine and the
#: per-layer reference path anchored to the event-driven tile simulator.
#: Both produce bit-identical results.
ENGINES = ("vector", "event")

_default_engine = "vector"


def get_default_engine() -> str:
    """The process-wide engine used when callers do not pass one."""
    return _default_engine


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine choice; ``None`` resolves to the process default."""
    if engine is None:
        return _default_engine
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; available: {'/'.join(ENGINES)}"
        )
    return engine


def set_default_engine(engine: str) -> str:
    """Install ``engine`` as the process default; returns the previous one."""
    global _default_engine
    previous = _default_engine
    _default_engine = resolve_engine(engine)
    return previous


@contextlib.contextmanager
def use_engine(engine: str) -> Iterator[str]:
    """Temporarily select a simulation engine (restored on exit)."""
    previous = set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)


# -- layer feature tables ------------------------------------------------------


@dataclass(frozen=True)
class LayerTable:
    """Column-wise view of a network's resolved compute layers.

    One row per layer, in network order; ``windows`` is 0 for FCLs and
    ``effective_weight_bits`` is NaN when the profile carries no per-group
    weight precisions.  ``is_conv`` selects the conv-datapath closed forms
    and is True for MatMul layers too (attention work is CVL-shaped);
    ``kinds`` keeps the reporting kind (``"conv"``/``"fc"``/``"matmul"``)
    for the emitted :class:`~repro.sim.results.LayerResult` records.  Tables
    are immutable and safely shared across accelerator designs (the job
    pipeline memoises one per network spec).
    """

    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    is_conv: np.ndarray
    windows: np.ndarray
    terms: np.ndarray
    outputs: np.ndarray
    macs: np.ndarray
    weight_count: np.ndarray
    input_activations: np.ndarray
    output_activations: np.ndarray
    act_bits: np.ndarray
    weight_bits: np.ndarray
    effective_weight_bits: np.ndarray

    def __len__(self) -> int:
        return len(self.names)


#: The numeric columns of a :class:`LayerTable`, in declaration order.
_COLUMNS = ("is_conv", "windows", "terms", "outputs", "macs", "weight_count",
            "input_activations", "output_activations", "act_bits",
            "weight_bits", "effective_weight_bits")


def build_layer_table(layers: Sequence[object]) -> LayerTable:
    """Extract the per-layer quantities the closed forms consume.

    ``layers`` holds :class:`~repro.nn.network.LayerWithPrecision` records
    (what ``Network.compute_layers`` returns).
    """
    names: List[str] = []
    kinds: List[str] = []
    rows: List[Tuple[bool, int, int, int, int, int, int, int, int, int, float]] = []
    for lw in layers:
        if not (lw.is_conv or lw.is_fc):
            raise ValueError(f"layer {lw.name!r} is not a compute layer")
        precision = lw.precision
        if lw.is_conv:
            # Conv2D and MatMul expose the same window/filter interface.
            conv = lw.layer
            windows = conv.num_windows(lw.input_shape)
            terms = conv.window_size(lw.input_shape)
            outputs = conv.out_channels
        else:
            windows = 0
            terms = lw.input_shape.size
            outputs = lw.layer.out_features
        effective = precision.effective_weight_bits
        names.append(lw.name)
        kinds.append(lw.kind)
        rows.append((
            lw.is_conv, windows, terms, outputs, lw.macs, lw.weight_count,
            lw.input_activations, lw.output_activations,
            precision.activation_bits, precision.weight_bits,
            float("nan") if effective is None else float(effective),
        ))
    from repro.core.closed_form import check_table_operands

    columns = list(zip(*rows)) if rows else [[] for _ in _COLUMNS]
    dtypes = (bool,) + (np.int64,) * 9 + (np.float64,)
    table = LayerTable(
        names=tuple(names),
        kinds=tuple(kinds),
        **{column: np.asarray(values, dtype=dtype)
           for column, values, dtype in zip(_COLUMNS, columns, dtypes)},
    )
    # Range-check once here so the per-call closed forms stay guard-free.
    check_table_operands(table.windows, table.terms, table.outputs,
                         table.act_bits, table.weight_bits)
    return table


def _concat_tables(tables: Sequence[LayerTable]) -> LayerTable:
    """One table holding ``tables``' rows end to end."""
    if len(tables) == 1:
        return tables[0]
    if not tables:
        return build_layer_table([])
    return LayerTable(
        names=tuple(name for table in tables for name in table.names),
        kinds=tuple(kind for table in tables for kind in table.kinds),
        **{column: np.concatenate([getattr(table, column) for table in tables])
           for column in _COLUMNS},
    )


@dataclass(frozen=True)
class BatchedLayerTable:
    """The layer tables of one design group's jobs, concatenated end to end.

    ``flat`` holds every member table's rows back to back and ``lengths[j]``
    is job ``j``'s row count -- all the engine needs to carve one plane's
    results back into per-job lists.
    """

    lengths: Tuple[int, ...]
    flat: LayerTable

    @property
    def jobs(self) -> int:
        return len(self.lengths)


def stack_layer_tables(tables: Sequence[LayerTable]) -> BatchedLayerTable:
    """Concatenate per-job layer tables into one :class:`BatchedLayerTable`."""
    return BatchedLayerTable(lengths=tuple(len(t) for t in tables),
                             flat=_concat_tables(list(tables)))


# A sweep revisits the same network mix for every design in the space, so the
# stacked table for a given tuple of network specs is rebuilt identically per
# design group.  Memoise it (the member LayerTables are themselves memoised
# per spec, so equal spec tuples always yield the same stack).  Like the other
# spec->object memos this is per process and read-only once built.
@memo(DESIGN_MEMO_SIZE)
def _stacked_tables_for_specs(network_specs: tuple) -> BatchedLayerTable:
    from repro.sim.jobs.spec import _spec_layer_table

    return stack_layer_tables([_spec_layer_table(s) for s in network_specs])


# -- the per-design record -----------------------------------------------------
#
# The evaluator reads a design only through its record: a structural
# signature (everything that selects a Python-level branch -- designs share a
# plane iff their signatures match) and numeric parameters (promoted to
# per-row arrays when designs share a plane).  Adding an accelerator variant
# means one kernel branch in _compute_cycles plus its entries here.


@memo(None)
def _stock_kinds():
    """Exact classes with a vector kernel (imported lazily: no package cycles)."""
    from repro.accelerators.dpnn import DPNN
    from repro.accelerators.dstripes import DStripes
    from repro.accelerators.stripes import Stripes
    from repro.core.loom import Loom

    return Loom, DPNN, Stripes, DStripes


def supports_vector_engine(accelerator) -> bool:
    """Whether ``accelerator`` is one of the four stock designs.

    The check is on the *exact* type: subclasses may override any hook, so
    they take the event engine (correct for every Accelerator) instead.
    """
    return type(accelerator) in _stock_kinds()


#: What a design signature holds, in order.  Flags a kernel does not read
#: are None.
_SIGNATURE_FIELDS = (
    "class", "kernel", "has_dram", "charge_offchip_energy", "has_transposer",
    "weight_interleaved", "weight_word_bits", "act_interleaved",
    "act_word_bits", "dynamic", "bits_per_cycle", "replicate_filters",
    "use_cascading", "use_effective_weight_precision",
)


def _design_signature(accelerator) -> tuple:
    """Structural key (values in :data:`_SIGNATURE_FIELDS` order): designs
    merge into one plane iff signatures match, and the evaluator branches on
    these values.
    """
    from repro.memory.layout import BitInterleavedLayout

    if not supports_vector_engine(accelerator):
        raise TypeError(f"no vector kernel for {type(accelerator).__name__}; "
                        f"check supports_vector_engine() first")
    loom_cls, _, stripes_cls, _ = _stock_kinds()
    hierarchy = accelerator.hierarchy
    weight_layout = hierarchy.weight_layout
    act_layout = hierarchy.activation_layout
    loom = isinstance(accelerator, loom_cls)
    if loom:
        kernel = "loom"
    elif isinstance(accelerator, stripes_cls):  # covers DStripes
        kernel = "stripes"
    else:
        kernel = "dpnn"
    return (
        type(accelerator),
        kernel,
        hierarchy.dram is not None,
        hierarchy.charge_offchip_energy,
        hierarchy.transposer is not None,
        isinstance(weight_layout, BitInterleavedLayout),
        weight_layout.word_bits,
        isinstance(act_layout, BitInterleavedLayout),
        act_layout.word_bits,
        None if kernel == "dpnn" else accelerator.dynamic_precision.enabled,
        accelerator.bits_per_cycle if loom else None,
        accelerator.replicate_filters if loom else None,
        accelerator.use_cascading if loom else None,
        accelerator.use_effective_weight_precision if loom else None,
    )


def _design_params(accelerator) -> Dict[str, object]:
    """The per-design numbers the plane evaluation reads.

    Energy coefficients are kept as the *separate* factors the scalar models
    multiply (base x size_factor x tech_factor, in that order) so the array
    expressions round identically to the scalar ones.
    """
    loom_cls, dpnn_cls, stripes_cls, _ = _stock_kinds()
    hierarchy = accelerator.hierarchy
    am, wm = hierarchy.activation_memory, hierarchy.weight_memory
    abin, about = hierarchy.abin, hierarchy.about
    params = {
        "am_capacity_bits": am.capacity_bits,
        "am_base": am._BASE_ACCESS_ENERGY_PJ_PER_BIT,
        "am_size": am._size_factor(),
        "am_tech": am._tech_factor(),
        "wm_capacity_bits": wm.capacity_bits,
        "wm_base": wm._BASE_ACCESS_ENERGY_PJ_PER_BIT,
        "wm_size": wm._size_factor(),
        "wm_tech": wm._tech_factor(),
        "abin_base": abin._BASE_READ_ENERGY_PJ_PER_BIT,
        "abin_size": abin._size_factor(),
        "abin_tech": abin._tech_factor(),
        "about_base": about._BASE_WRITE_ENERGY_PJ_PER_BIT,
        "about_size": about._size_factor(),
        "about_tech": about._tech_factor(),
        "transposer_pj": (0.0 if hierarchy.transposer is None
                          else hierarchy.transposer.energy_pj_per_value),
        "dram_bits_per_cycle": (
            1.0 if hierarchy.dram is None
            else hierarchy.dram.bits_per_cycle(hierarchy.clock_ghz)),
        "dram_energy_pj_per_bit": (
            0.0 if hierarchy.dram is None
            else hierarchy.dram.energy_pj_per_bit),
        "datapath_pj": accelerator.datapath_pj_per_cycle(),
        "equivalent_macs": accelerator.config.equivalent_macs,
    }
    if isinstance(accelerator, loom_cls):
        geometry = accelerator.geometry
        params.update(
            filter_rows=geometry.filter_rows,
            window_columns=geometry.window_columns,
            num_sips=geometry.num_sips,
            activation_reduction=accelerator.dynamic_precision.activation_reduction,
        )
    elif isinstance(accelerator, stripes_cls):
        params.update(
            filter_lanes=accelerator.filter_lanes,
            window_lanes=stripes_cls.WINDOW_LANES,
            fc_ip_units=accelerator._dpnn.num_ip_units,
            activation_reduction=accelerator.dynamic_precision.activation_reduction,
        )
    elif isinstance(accelerator, dpnn_cls):
        params.update(num_ip_units=accelerator.num_ip_units)
    return params


@memo(DESIGN_MEMO_SIZE)
def _design_record(accelerator) -> Tuple[tuple, Dict[str, object]]:
    """``(signature, params)`` for ``accelerator``, memoised per instance
    (accelerators hash by identity; stock designs are immutable in every
    field a record reads)."""
    return _design_signature(accelerator), _design_params(accelerator)


# -- design planes -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _DesignPlane:
    """Designs of one signature over their layer rows, ready to evaluate.

    ``flat`` concatenates the member designs' tables end to end.
    ``params`` maps each design parameter to a scalar when every member
    design has that value (it broadcasts) or to an array repeating each
    design's value over that design's rows.
    """

    structure: Dict[str, object]
    flat: LayerTable
    conv: np.ndarray
    fc: np.ndarray
    params: Dict[str, object]


def _design_plane(members: Sequence[Tuple[object, LayerTable]]) -> _DesignPlane:
    """Build the plane for ``members``, which share one design signature."""
    records = [_design_record(accelerator) for accelerator, _ in members]
    flat = _concat_tables([table for _, table in members])
    if len(members) == 1:
        params = records[0][1]
    else:
        counts = [len(table) for _, table in members]
        params = {}
        for name in records[0][1]:
            values = [p[name] for _, p in records]
            # A value every design spells alike stays a scalar, as in a
            # one-design plane, so memoised planes stay small.
            params[name] = (values[0] if len(set(map(repr, values))) == 1
                            else np.repeat(np.asarray(values), counts))
    return _DesignPlane(
        structure=dict(zip(_SIGNATURE_FIELDS, records[0][0])),
        flat=flat,
        conv=np.flatnonzero(flat.is_conv),
        fc=np.flatnonzero(~flat.is_conv),
        params=params,
    )


# Multi-design planes keyed by value: (accelerator, network-spec tuple) per
# member.  Sweeps re-evaluate the same design x network mix repeatedly
# (explore rounds, serve batches), so the concatenation + np.repeat work is
# paid once.  One-design planes are cheap to build and are not memoised.
@memo(PLANE_MEMO_SIZE)
def _spec_plane(members: Tuple[Tuple[object, tuple], ...]) -> _DesignPlane:
    """The plane of several designs, each over its jobs' network specs."""
    return _design_plane([(accelerator, _stacked_tables_for_specs(specs).flat)
                          for accelerator, specs in members])


def _rows(value, idx: np.ndarray):
    """``value`` at plane rows ``idx``: per-row arrays are gathered, scalars
    broadcast as they are."""
    return value[idx] if isinstance(value, np.ndarray) else value


def _loom_weight_serial_bits(plane: _DesignPlane,
                             idx: np.ndarray) -> np.ndarray:
    """Mirror of ``Loom._conv_weight_bits`` / ``_fc_weight_bits``."""
    from repro.core.closed_form import effective_weight_bits_array

    table = plane.flat
    profile = table.weight_bits[idx].astype(np.float64)
    if not plane.structure["use_effective_weight_precision"]:
        return profile
    effective = table.effective_weight_bits[idx]
    has_effective = ~np.isnan(effective)
    clamped = effective_weight_bits_array(np.where(has_effective, effective, 1.0))
    return np.where(has_effective, clamped, profile)


def _compute_cycles(plane: _DesignPlane) -> np.ndarray:
    """Datapath cycles for every plane row (the ``compute_cycles`` column).

    One branch per vector kernel; the branch and every flag it reads come
    from the (plane-uniform) design signature, every number from the
    design parameters.
    """
    from repro.core.closed_form import (
        PlaneGeometry,
        dpnn_conv_cycles_array,
        dpnn_fc_cycles_array,
        effective_activation_bits_array,
        loom_conv_cycles_array,
        loom_fc_cycles_array,
        steps_for_activation_bits_array,
        stripes_conv_cycles_array,
    )

    table, conv, fc = plane.flat, plane.conv, plane.fc
    structure, params = plane.structure, plane.params
    kernel = structure["kernel"]
    cycles = np.zeros(len(table), dtype=np.float64)
    if kernel == "loom":
        bits_per_cycle = structure["bits_per_cycle"]

        def geometry(idx):
            return PlaneGeometry(
                filter_rows=_rows(params["filter_rows"], idx),
                window_columns=_rows(params["window_columns"], idx),
                num_sips=_rows(params["num_sips"], idx),
                bits_per_cycle=bits_per_cycle,
            )

        if conv.size:
            act_bits = effective_activation_bits_array(
                table.act_bits[conv], structure["dynamic"],
                _rows(params["activation_reduction"], conv), bits_per_cycle,
            )
            steps = steps_for_activation_bits_array(act_bits, bits_per_cycle)
            cycles[conv] = loom_conv_cycles_array(
                table.windows[conv], table.terms[conv], table.outputs[conv],
                steps, _loom_weight_serial_bits(plane, conv),
                geometry(conv), structure["replicate_filters"],
            )
        if fc.size:
            cycles[fc] = loom_fc_cycles_array(
                table.outputs[fc], table.terms[fc],
                _loom_weight_serial_bits(plane, fc),
                geometry(fc), structure["use_cascading"],
            )
    elif kernel == "stripes":
        if conv.size:
            serial_bits = effective_activation_bits_array(
                table.act_bits[conv], structure["dynamic"],
                _rows(params["activation_reduction"], conv), bits_per_cycle=1,
            )
            cycles[conv] = stripes_conv_cycles_array(
                table.windows[conv], table.terms[conv], table.outputs[conv],
                serial_bits, _rows(params["filter_lanes"], conv),
                _rows(params["window_lanes"], conv),
            )
        if fc.size:
            cycles[fc] = dpnn_fc_cycles_array(
                table.terms[fc], table.outputs[fc],
                _rows(params["fc_ip_units"], fc),
            )
    else:  # dpnn
        if conv.size:
            cycles[conv] = dpnn_conv_cycles_array(
                table.windows[conv], table.terms[conv], table.outputs[conv],
                _rows(params["num_ip_units"], conv),
            )
        if fc.size:
            cycles[fc] = dpnn_fc_cycles_array(
                table.terms[fc], table.outputs[fc],
                _rows(params["num_ip_units"], fc),
            )
    return cycles


def _traffic_bits(interleaved: bool, word_bits: int, count: np.ndarray,
                  precision: np.ndarray) -> np.ndarray:
    """Vector mirror of the layouts' ``traffic_bits`` (bits to move once)."""
    if interleaved:
        return (count * precision).astype(np.float64)
    return (count * word_bits).astype(np.float64)


def _evaluate_plane(plane: _DesignPlane) -> Tuple[np.ndarray, ...]:
    """Evaluate the closed forms over every row of ``plane`` at once.

    Returns the result columns ``(cycles, compute_cycles, memory_cycles,
    energy, weight_bits, act_in_bits, act_out_bits, utilization)``.  Each
    expression mirrors ``Accelerator.simulate_layer`` and the memory models
    operation for operation and stays elementwise, so each row's bits equal
    what the scalar models produce for that row's design and layer.
    """
    table, structure, params = plane.flat, plane.structure, plane.params
    n = len(table)
    compute_cycles = _compute_cycles(plane)

    # Storage precisions: Loom keeps weights and activations at profile
    # precision, Stripes only activations; 16-bit words otherwise.
    kernel = structure["kernel"]
    full = np.full(n, 16, dtype=np.int64)
    weight_store = table.weight_bits if kernel == "loom" else full
    act_store = full if kernel == "dpnn" else table.act_bits
    weight_bits = _traffic_bits(structure["weight_interleaved"],
                                structure["weight_word_bits"],
                                table.weight_count, weight_store)
    act_in_bits = _traffic_bits(structure["act_interleaved"],
                                structure["act_word_bits"],
                                table.input_activations, act_store)
    act_out_bits = _traffic_bits(structure["act_interleaved"],
                                 structure["act_word_bits"],
                                 table.output_activations, act_store)
    act_footprint = act_in_bits + act_out_bits
    activations_fit = act_footprint <= params["am_capacity_bits"]
    weights_fit = (weight_bits <= params["wm_capacity_bits"]) & table.is_conv
    offchip_bits = weight_bits + np.where(activations_fit, 0.0, act_footprint)

    if structure["has_dram"]:
        memory_cycles = offchip_bits / params["dram_bits_per_cycle"]
    else:
        memory_cycles = np.zeros(n, dtype=np.float64)
    cycles = np.maximum(compute_cycles, memory_cycles)

    # Datapath energy: active power while computing, clock-gated (0.25x)
    # while stalled on memory -- same expression as Accelerator.simulate_layer.
    stall_cycles = np.maximum(0.0, cycles - compute_cycles)
    datapath_pj = params["datapath_pj"]
    datapath_energy = (compute_cycles * datapath_pj
                       + stall_cycles * datapath_pj * 0.25)

    # Memory energy, term by term in MemoryHierarchy.memory_energy_pj order,
    # with each model's base * bits * size_factor * tech_factor kept in the
    # scalar models' multiplication order.
    energy = np.where(
        weights_fit,
        params["wm_base"] * weight_bits * params["wm_size"] * params["wm_tech"],
        (params["abin_base"] * weight_bits
         * params["abin_size"] * params["abin_tech"]) * 0.15,
    )
    energy = energy + (params["am_base"] * (act_in_bits + act_out_bits)
                       * params["am_size"] * params["am_tech"])
    energy = energy + (params["abin_base"] * act_in_bits
                       * params["abin_size"] * params["abin_tech"])
    energy = energy + (params["about_base"] * act_out_bits
                       * params["about_size"] * params["about_tech"])
    if structure["has_transposer"]:
        # Zero-output layers contribute exactly 0.0, matching the scalar guard.
        energy = energy + table.output_activations * params["transposer_pj"]
    if structure["has_dram"] and structure["charge_offchip_energy"]:
        energy = energy + offchip_bits * params["dram_energy_pj_per_bit"]
    energy = datapath_energy + energy

    safe_cycles = np.where(compute_cycles <= 0, 1.0, compute_cycles)
    ideal = table.macs / params["equivalent_macs"]
    utilization = np.where(compute_cycles <= 0, 1.0,
                           np.minimum(1.0, ideal / safe_cycles))
    return (cycles, compute_cycles, memory_cycles, energy,
            weight_bits, act_in_bits, act_out_bits, utilization)


def _simulate_plane(plane: _DesignPlane) -> List[LayerResult]:
    """Evaluate ``plane`` and scatter its rows into ``LayerResult`` objects.

    One flat pass over all rows, constructing LayerResults via ``__new__``
    plus attribute stores in field order.  This skips dataclass
    ``__init__``/``__post_init__`` (whose validation is vacuous here: kinds
    come from built tables and cycles from the closed forms); field layout,
    ``__eq__`` and ``asdict()`` semantics are identical to
    normally-constructed instances.  Storing attributes one by one (rather
    than assigning a ready-made ``__dict__``) keeps CPython's shared-key
    instance layout, so a row allocates no per-instance dict for the garbage
    collector to track -- on a 240-job sweep that halves the collector's
    work.  ``tolist()`` converts whole columns to plain Python scalars in one
    C pass (bit-exact for float64).
    """
    flat = plane.flat
    if not len(flat):
        return []
    (cycles, compute_cycles, memory_cycles, energy, weight_bits,
     act_in_bits, act_out_bits, utilization) = _evaluate_plane(plane)
    new = LayerResult.__new__
    results: List[LayerResult] = []
    append = results.append
    for (name, kind, row_cycles, row_compute, row_memory, row_energy,
         row_weights, row_act_in, row_act_out, row_macs,
         row_utilization) in zip(
        flat.names, flat.kinds, cycles.tolist(), compute_cycles.tolist(),
        memory_cycles.tolist(), energy.tolist(), weight_bits.tolist(),
        act_in_bits.tolist(), act_out_bits.tolist(), flat.macs.tolist(),
        utilization.tolist(),
    ):
        result = new(LayerResult)
        result.layer_name = name
        result.layer_kind = kind
        result.cycles = row_cycles
        result.compute_cycles = row_compute
        result.memory_cycles = row_memory
        result.energy_pj = row_energy
        result.weight_bits_read = row_weights
        result.activation_bits_read = row_act_in
        result.activation_bits_written = row_act_out
        result.macs = row_macs
        result.utilization = row_utilization
        result.extra = {}
        append(result)
    return results


# -- entry points --------------------------------------------------------------


def simulate_layer_table(accelerator, table: LayerTable) -> List[LayerResult]:
    """Simulate every layer of ``table`` on ``accelerator`` (a one-design
    plane).

    Produces exactly what per-layer ``Accelerator.simulate_layer`` calls
    would, bit for bit.  Raises ``TypeError`` for designs without a vector
    kernel (see :func:`supports_vector_engine`).
    """
    return _simulate_plane(_design_plane([(accelerator, table)]))


def simulate_jobs_batched(jobs: Iterable["SimJob"]) -> List[NetworkResult]:
    """Execute a batch of jobs, one closed-form pass per design plane.

    Results come back in submission order, bit-identical to the event
    engine.  Jobs whose accelerator has no vector kernel (exotic
    ``Accelerator`` subclasses) run on the event engine individually;
    everything else is grouped by design, structurally compatible designs
    share a plane (:func:`_design_signature`), and each plane is evaluated
    in one (design x job x layer) pass.  An empty batch returns ``[]``.
    """
    from repro.sim.jobs.spec import build_accelerator, execute_job

    jobs = list(jobs)
    results: List[Optional[NetworkResult]] = [None] * len(jobs)
    # build_accelerator memoises per (spec, config), so the instance's
    # identity *is* the design-group key -- grouping by id() skips re-hashing
    # the nested frozen dataclasses for every job.  Sweeps typically reuse
    # the same spec/config *objects* across jobs, so the id-keyed lookup
    # (valid while ``jobs`` keeps the spec objects alive) short-circuits
    # even the memo-cache hash for all but the first job of each design.
    by_spec_ids: Dict[Tuple[int, int], object] = {}
    groups: Dict[int, Tuple[object, List[int]]] = {}
    for index, job in enumerate(jobs):
        spec_ids = (id(job.accelerator), id(job.config))
        accelerator = by_spec_ids.get(spec_ids)
        if accelerator is None:
            accelerator = build_accelerator(job.accelerator, job.config)
            by_spec_ids[spec_ids] = accelerator
        group = groups.get(id(accelerator))
        if group is not None:
            group[1].append(index)
        elif supports_vector_engine(accelerator):
            groups[id(accelerator)] = (accelerator, [index])
        else:
            results[index] = execute_job(job, engine="event")

    # Merge structurally compatible design groups into shared planes.
    planes: Dict[tuple, List[Tuple[object, List[int]]]] = {}
    for accelerator, indices in groups.values():
        planes.setdefault(_design_record(accelerator)[0], []).append(
            (accelerator, indices)
        )

    new = NetworkResult.__new__
    for members in planes.values():
        specs = [tuple([jobs[i].network for i in indices])
                 for _, indices in members]
        stacks = [_stacked_tables_for_specs(spec) for spec in specs]
        if len(members) == 1:
            plane = _design_plane([(members[0][0], stacks[0].flat)])
        else:
            plane = _spec_plane(tuple(zip([a for a, _ in members], specs)))
        layers = _simulate_plane(plane)
        cursor = 0
        for (accelerator, indices), stack in zip(members, stacks):
            name = accelerator.name
            clock_ghz = accelerator.config.clock_ghz
            for index, length in zip(indices, stack.lengths):
                result = new(NetworkResult)
                result.network = jobs[index].network.name
                result.accelerator = name
                result.layers = layers[cursor:cursor + length]
                result.clock_ghz = clock_ghz
                results[index] = result
                cursor += length
    return results
