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
2. jobs are grouped by accelerator design, and each design's record
   (:mod:`repro.sim.records`) is derived from its spec and config -- no
   accelerator is built;
3. the designs of one kernel (``loom``, ``stripes`` or ``dpnn``) share one
   plane, their jobs' tables concatenated end to end: every record value,
   numbers and branch flags alike, becomes a per-row array, or stays a
   scalar that broadcasts when every design in the plane has it; a branch
   a flag picks is chosen per row with ``np.where``;
4. :func:`_evaluate_plane` runs the closed forms once over the plane, and
   the plane's columns are sliced, with ``tolist()``, into per-job
   columnar :class:`~repro.sim.results.NetworkResult` objects.

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
import math
from dataclasses import dataclass
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.memo import DESIGN_MEMO_SIZE, memo
from repro.sim.results import LayerResult, NetworkResult, _layers_of

if TYPE_CHECKING:
    from repro.sim.records import DesignRecord

# repro.core.closed_form, repro.sim.records and the accelerator classes are
# imported lazily: this module is pulled in by ``repro.sim.__init__`` while
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


#: The integer columns of a :class:`LayerTable`: the rows of its ``counts``.
_COUNT_COLUMNS = ("windows", "terms", "outputs", "macs", "weight_count",
                  "input_activations", "output_activations", "act_bits",
                  "weight_bits")


def _count_column(index: int) -> property:
    return property(lambda table: table.counts[index],
                    doc=f"The ``{_COUNT_COLUMNS[index]}`` column.")


@dataclass(frozen=True)
class LayerTable:
    """Column-wise view of a network's resolved compute layers.

    One row per layer, in network order; ``windows`` is 0 for FCLs and
    ``effective_weight_bits`` is NaN when the profile carries no per-group
    weight precisions.  ``is_conv`` selects the conv-datapath closed forms
    and is True for MatMul layers too (attention work is CVL-shaped);
    ``kinds`` keeps the reporting kind (``"conv"``/``"fc"``/``"matmul"``)
    for the emitted :class:`~repro.sim.results.LayerResult` records.  The
    integer columns (``windows`` ... ``weight_bits``) are the rows of one
    int64 ``counts`` matrix, so tables concatenate in a few calls.  Tables
    are immutable and safely shared across accelerator designs (the job
    pipeline memoises one per network spec).
    """

    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    is_conv: np.ndarray
    counts: np.ndarray
    effective_weight_bits: np.ndarray

    windows = _count_column(0)
    terms = _count_column(1)
    outputs = _count_column(2)
    macs = _count_column(3)
    weight_count = _count_column(4)
    input_activations = _count_column(5)
    output_activations = _count_column(6)
    act_bits = _count_column(7)
    weight_bits = _count_column(8)

    def __len__(self) -> int:
        return len(self.names)


def build_layer_table(layers: Sequence[object]) -> LayerTable:
    """Extract the per-layer quantities the closed forms consume.

    ``layers`` holds :class:`~repro.nn.network.LayerWithPrecision` records
    (what ``Network.compute_layers`` returns).
    """
    names: List[str] = []
    kinds: List[str] = []
    is_conv: List[bool] = []
    counts: List[Tuple[int, ...]] = []
    effective_bits: List[float] = []
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
        is_conv.append(lw.is_conv)
        counts.append((windows, terms, outputs, lw.macs, lw.weight_count,
                       lw.input_activations, lw.output_activations,
                       precision.activation_bits, precision.weight_bits))
        effective_bits.append(
            float("nan") if effective is None else float(effective))
    from repro.core.closed_form import check_table_operands

    table = LayerTable(
        names=tuple(names),
        kinds=tuple(kinds),
        is_conv=np.asarray(is_conv, dtype=bool),
        counts=np.array(counts, dtype=np.int64).reshape(
            len(counts), len(_COUNT_COLUMNS)).T.copy(),
        effective_weight_bits=np.asarray(effective_bits, dtype=np.float64),
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
        names=tuple(chain.from_iterable(table.names for table in tables)),
        kinds=tuple(chain.from_iterable(table.kinds for table in tables)),
        is_conv=np.concatenate([table.is_conv for table in tables]),
        counts=np.concatenate([table.counts for table in tables], axis=1),
        effective_weight_bits=np.concatenate(
            [table.effective_weight_bits for table in tables]),
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


# -- the per-design record -----------------------------------------------------
#
# The evaluator reads a design only through its record
# (:mod:`repro.sim.records`, imported lazily: it imports the models).  The
# memos below are keyed by what the record comes from.


def supports_vector_engine(accelerator) -> bool:
    """Whether ``accelerator`` is one of the four stock designs.

    The check is on the *exact* type: subclasses may override any hook, so
    they take the event engine (correct for every Accelerator) instead.
    """
    from repro.sim.records import STOCK_KERNELS

    return type(accelerator) in STOCK_KERNELS


@memo(DESIGN_MEMO_SIZE)
def _design_record(accelerator) -> DesignRecord:
    """The record read off a live stock ``accelerator``, memoised per
    instance (accelerators hash by identity; stock designs are immutable
    in every field a record reads)."""
    from repro.sim.records import record_of

    return record_of(accelerator)


@memo(DESIGN_MEMO_SIZE)
def _spec_record(spec, config) -> DesignRecord:
    """The record of the stock design ``spec`` names at ``config``, derived
    from the two values (no accelerator is built), memoised per design."""
    from repro.sim.records import spec_record

    return spec_record(spec, config)


# -- design planes -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _DesignPlane:
    """Designs of one kernel over their layer rows, ready to evaluate.

    ``flat`` concatenates the member designs' tables end to end.
    ``params`` maps each record field to a scalar when every member design
    has that value (it broadcasts, and a flag picks its branch once) or to
    an array repeating each design's value over that design's rows.
    """

    kernel: str
    flat: LayerTable
    conv: np.ndarray
    fc: np.ndarray
    params: Dict[str, object]


#: NumPy dtype of a record's (integers, floats, flags).
_PART_DTYPES = (np.int64, np.float64, np.bool_)


def _uniform(values: tuple) -> bool:
    """Whether every design has the first design's value, bit for bit
    (``-0.0`` and ``0.0`` are two values here)."""
    first = values[0]
    if values.count(first) != len(values):
        return False
    return (first != 0 or type(first) is not float
            or len({math.copysign(1.0, v) for v in values}) == 1)


def _design_plane(members: Sequence[Tuple[DesignRecord,
                                         Sequence[LayerTable]]]
                  ) -> _DesignPlane:
    """Build the plane for ``members`` -- each a design and the tables of
    its jobs, in order -- which share one kernel."""
    from repro.sim.records import RECORD_FIELDS

    records = [record for record, _ in members]
    kernel = records[0].kernel
    flat = _concat_tables([table for _, tables in members
                           for table in tables])
    counts = [sum(map(len, tables)) for _, tables in members]
    params: Dict[str, object] = {}
    for part, (names, dtype) in enumerate(
            zip(RECORD_FIELDS[kernel], _PART_DTYPES), start=3):
        if len(records) == 1:
            params.update(zip(names, records[0][part]))
            continue
        # A value every design spells alike stays a scalar, as in a
        # one-design plane (a uniform flag picks its branch once); the rest
        # repeat each design's value over that design's rows.
        varying = []
        for name, values in zip(names, zip(*[r[part] for r in records])):
            if _uniform(values):
                params[name] = values[0]
            else:
                varying.append((name, values))
        if varying:
            rows = np.repeat(np.array([values for _, values in varying],
                                      dtype=dtype), counts, axis=1)
            params.update(zip([name for name, _ in varying], rows))
    return _DesignPlane(
        kernel=kernel,
        flat=flat,
        conv=np.flatnonzero(flat.is_conv),
        fc=np.flatnonzero(~flat.is_conv),
        params=params,
    )


def _rows(value, idx: np.ndarray):
    """``value`` at plane rows ``idx``: per-row arrays are gathered, scalars
    broadcast as they are."""
    return value[idx] if isinstance(value, np.ndarray) else value


def _select(flag, when_set, otherwise):
    """``when_set`` on the rows whose ``flag`` is set, ``otherwise`` on the
    rest: ``np.where`` for a per-row flag, one branch for a plane-wide one.
    A flag chooses between branches and is never folded into arithmetic
    (``x + 0.0`` is not ``x`` when ``x`` is ``-0.0``)."""
    if isinstance(flag, np.ndarray):
        return np.where(flag, when_set, otherwise)
    return when_set if flag else otherwise


def _loom_weight_serial_bits(plane: _DesignPlane,
                             idx: np.ndarray) -> np.ndarray:
    """Mirror of ``Loom._conv_weight_bits`` / ``_fc_weight_bits``."""
    from repro.core.closed_form import any_row, effective_weight_bits_array

    table = plane.flat
    profile = table.weight_bits[idx].astype(np.float64)
    use_effective = _rows(plane.params["use_effective_weight_precision"], idx)
    if not any_row(use_effective):
        return profile
    effective = table.effective_weight_bits[idx]
    has_effective = ~np.isnan(effective)
    clamped = effective_weight_bits_array(np.where(has_effective, effective, 1.0))
    return np.where(use_effective & has_effective, clamped, profile)


def _compute_cycles(plane: _DesignPlane) -> np.ndarray:
    """Datapath cycles for every plane row (the ``compute_cycles`` column).

    One branch per vector kernel; every number and every flag the kernel's
    closed forms read comes from the design parameters, per row.
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

    table, conv, fc, params = plane.flat, plane.conv, plane.fc, plane.params
    cycles = np.zeros(len(table), dtype=np.float64)
    if plane.kernel == "loom":

        def geometry(idx):
            return PlaneGeometry(
                filter_rows=_rows(params["filter_rows"], idx),
                window_columns=_rows(params["window_columns"], idx),
                num_sips=_rows(params["num_sips"], idx),
                bits_per_cycle=_rows(params["bits_per_cycle"], idx),
            )

        if conv.size:
            bits_per_cycle = _rows(params["bits_per_cycle"], conv)
            act_bits = effective_activation_bits_array(
                table.act_bits[conv], _rows(params["dynamic"], conv),
                _rows(params["activation_reduction"], conv), bits_per_cycle,
            )
            steps = steps_for_activation_bits_array(act_bits, bits_per_cycle)
            cycles[conv] = loom_conv_cycles_array(
                table.windows[conv], table.terms[conv], table.outputs[conv],
                steps, _loom_weight_serial_bits(plane, conv),
                geometry(conv), _rows(params["replicate_filters"], conv),
            )
        if fc.size:
            cycles[fc] = loom_fc_cycles_array(
                table.outputs[fc], table.terms[fc],
                _loom_weight_serial_bits(plane, fc),
                geometry(fc), _rows(params["use_cascading"], fc),
            )
    elif plane.kernel == "stripes":
        if conv.size:
            serial_bits = effective_activation_bits_array(
                table.act_bits[conv], _rows(params["dynamic"], conv),
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


def _traffic_bits(interleaved, word_bits, count: np.ndarray,
                  precision: np.ndarray) -> np.ndarray:
    """Vector mirror of the layouts' ``traffic_bits`` (bits to move once):
    precision-scaled when stored bit-interleaved, whole words otherwise."""
    if not isinstance(interleaved, np.ndarray):
        return (count * (precision if interleaved else word_bits)
                ).astype(np.float64)
    return np.where(interleaved, count * precision,
                    count * word_bits).astype(np.float64)


def _evaluate_plane(plane: _DesignPlane) -> Tuple[np.ndarray, ...]:
    """Evaluate the closed forms over every row of ``plane`` at once.

    Returns the result columns ``(cycles, compute_cycles, memory_cycles,
    energy, weight_bits, act_in_bits, act_out_bits, utilization)``.  Each
    expression mirrors ``Accelerator.simulate_layer`` and the memory models
    operation for operation and stays elementwise, so each row's bits equal
    what the scalar models produce for that row's design and layer.
    """
    from repro.core.closed_form import any_row

    table, params = plane.flat, plane.params
    n = len(table)
    compute_cycles = _compute_cycles(plane)

    # Traffic at the profile precisions where storage is bit-interleaved
    # (Loom's weights and activations, Stripes' activations), 16-bit words
    # otherwise.
    weight_bits = _traffic_bits(params["weight_interleaved"],
                                params["weight_word_bits"],
                                table.weight_count, table.weight_bits)
    act_in_bits = _traffic_bits(params["act_interleaved"],
                                params["act_word_bits"],
                                table.input_activations, table.act_bits)
    act_out_bits = _traffic_bits(params["act_interleaved"],
                                 params["act_word_bits"],
                                 table.output_activations, table.act_bits)
    act_footprint = act_in_bits + act_out_bits
    activations_fit = act_footprint <= params["am_capacity_bits"]
    weights_fit = (weight_bits <= params["wm_capacity_bits"]) & table.is_conv
    offchip_bits = np.where(activations_fit, weight_bits,
                            weight_bits + act_footprint)

    has_dram = params["has_dram"]
    if any_row(has_dram):
        memory_cycles = _select(
            has_dram, offchip_bits / params["dram_bits_per_cycle"], 0.0)
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
    has_transposer = params["has_transposer"]
    if any_row(has_transposer):
        # Zero-output layers contribute exactly 0.0, matching the scalar guard.
        energy = _select(
            has_transposer,
            energy + table.output_activations * params["transposer_pj"],
            energy)
    charged = has_dram & params["charge_offchip_energy"]
    if any_row(charged):
        energy = _select(
            charged, energy + offchip_bits * params["dram_energy_pj_per_bit"],
            energy)
    energy = datapath_energy + energy

    idle = compute_cycles <= 0
    safe_cycles = np.where(idle, 1.0, compute_cycles)
    ideal = table.macs / params["equivalent_macs"]
    utilization = np.where(idle, 1.0, np.minimum(1.0, ideal / safe_cycles))
    return (cycles, compute_cycles, memory_cycles, energy,
            weight_bits, act_in_bits, act_out_bits, utilization)


def _plane_numbers(plane: _DesignPlane) -> List[list]:
    """Evaluate ``plane``: its number columns (``cycles`` through
    ``utilization``, in :data:`~repro.sim.results.LAYER_FIELDS` order) as
    plain Python lists -- ``tolist()`` converts a whole column in one C
    pass, bit-exact for float64."""
    (cycles, compute_cycles, memory_cycles, energy, weight_bits,
     act_in_bits, act_out_bits, utilization) = _evaluate_plane(plane)
    return [cycles.tolist(), compute_cycles.tolist(), memory_cycles.tolist(),
            energy.tolist(), weight_bits.tolist(), act_in_bits.tolist(),
            act_out_bits.tolist(), plane.flat.macs.tolist(),
            utilization.tolist()]


def _columns(table: LayerTable, numbers: List[list], start: int,
             stop: int) -> Dict[str, list]:
    """The result columns (:data:`~repro.sim.results.LAYER_FIELDS`, in
    order) of the job whose ``table`` fills the plane's rows
    ``start:stop``."""
    (cycles, compute_cycles, memory_cycles, energy, weight_bits, act_in_bits,
     act_out_bits, macs, utilization) = numbers
    return {
        "layer_name": list(table.names),
        "layer_kind": list(table.kinds),
        "cycles": cycles[start:stop],
        "compute_cycles": compute_cycles[start:stop],
        "memory_cycles": memory_cycles[start:stop],
        "energy_pj": energy[start:stop],
        "weight_bits_read": weight_bits[start:stop],
        "activation_bits_read": act_in_bits[start:stop],
        "activation_bits_written": act_out_bits[start:stop],
        "macs": macs[start:stop],
        "utilization": utilization[start:stop],
        "extra": [{} for _ in range(stop - start)],
    }


def _simulate_plane(plane: _DesignPlane) -> List[LayerResult]:
    """Evaluate ``plane`` into one :class:`LayerResult` per row."""
    flat = plane.flat
    if not len(flat):
        return []
    return _layers_of(_columns(flat, _plane_numbers(plane), 0, len(flat)))


# -- entry points --------------------------------------------------------------


def simulate_layer_table(accelerator, table: LayerTable) -> List[LayerResult]:
    """Simulate every layer of ``table`` on ``accelerator`` (a one-design
    plane).

    Produces exactly what per-layer ``Accelerator.simulate_layer`` calls
    would, bit for bit.  Raises ``TypeError`` for designs without a vector
    kernel (see :func:`supports_vector_engine`).
    """
    return _simulate_plane(_design_plane([(_design_record(accelerator),
                                           [table])]))


def simulate_jobs_batched(jobs: Iterable["SimJob"]) -> List[NetworkResult]:
    """Execute a batch of jobs, one closed-form pass per kernel plane.

    Results come back in submission order, bit-identical to the event
    engine, each holding its layers as columns.  Jobs of a stock kind are
    grouped by design, each design's record derived from its spec and
    config (no accelerator is built), and every kernel's designs share one
    plane evaluated in one (design x job x layer) pass.  Jobs of an exotic
    kind (a non-stock factory) run on the event engine individually.  An
    empty batch returns ``[]``.
    """
    from repro.sim.jobs.spec import _spec_layer_table, execute_job, stock_kind

    jobs = list(jobs)
    results: List[Optional[NetworkResult]] = [None] * len(jobs)
    # Sweeps reuse the same spec/config *objects* across jobs, so grouping
    # by their ids (valid while ``jobs`` keeps them alive) hashes the nested
    # frozen dataclasses once per design, for the record memo.
    groups: Dict[Tuple[int, int], Tuple[DesignRecord, List[int]]] = {}
    for index, job in enumerate(jobs):
        ids = (id(job.accelerator), id(job.config))
        group = groups.get(ids)
        if group is not None:
            group[1].append(index)
        elif stock_kind(job.accelerator.kind):
            groups[ids] = (_spec_record(job.accelerator, job.config), [index])
        else:
            results[index] = execute_job(job, engine="event")

    planes: Dict[str, List[Tuple[DesignRecord, List[int]]]] = {}
    for record, indices in groups.values():
        planes.setdefault(record.kernel, []).append((record, indices))

    # Network specs are reused across jobs too: each object's layer table
    # is looked up once.
    tables: Dict[int, LayerTable] = {}

    def table_of(network) -> LayerTable:
        table = tables.get(id(network))
        if table is None:
            table = tables[id(network)] = _spec_layer_table(network)
        return table

    of_columns = NetworkResult._of_columns
    for members in planes.values():
        job_tables = [[table_of(jobs[i].network) for i in indices]
                      for _, indices in members]
        plane = _design_plane([(record, member_tables) for (record, _),
                               member_tables in zip(members, job_tables)])
        numbers = _plane_numbers(plane)
        cursor = 0
        for (record, indices), member_tables in zip(members, job_tables):
            for index, table in zip(indices, member_tables):
                stop = cursor + len(table)
                results[index] = of_columns(
                    jobs[index].network.name, record.name, record.clock_ghz,
                    _columns(table, numbers, cursor, stop))
                cursor = stop
    return results
