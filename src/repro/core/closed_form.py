"""Vectorized closed-form tile math for all four accelerator models.

The scalar models (:mod:`repro.core.scheduler` / :mod:`repro.core.loom`,
:mod:`repro.accelerators`) derive a layer's cycle count one layer at a time,
and the event-driven :class:`repro.core.tile.LoomTileSimulator` executes the
same schedules callback by callback as the ground truth.  This module is the
third leg: the same closed forms expressed as NumPy array expressions, so a
whole network's layers (and, through :mod:`repro.sim.batched`, whole planes
of design points) are costed in a handful of vector operations.

Exactness contract
------------------
Every function here mirrors its scalar counterpart *operation for operation*
(the same order of multiplications and additions, the same integer/float
promotions), so the results are bit-identical IEEE doubles, not merely close.
The differential harness in :mod:`repro.sim.validate` and the parametrized
tests in ``tests/test_fastpath.py`` enforce this across the full network zoo;
if you change a formula in the scalar model, change it here in lockstep (or
the validator will tell you).

All functions accept NumPy integer/float arrays (or scalars) and broadcast
elementwise; integer inputs must stay below 2**53 for the intermediate
products to remain exact in float64, which holds by orders of magnitude for
every network the paper evaluates.  Design flags (dynamic precision, bits
per cycle, filter replication, cascading) may be per-row arrays too: a
branch the scalar model takes per design is chosen per row with
``np.where``, never folded into the arithmetic (``x + 0.0`` is not ``x``
when ``x`` is ``-0.0``), so each row's bits match its own design's.

Unlike their scalar counterparts these helpers do *not* re-validate their
operands on every call: they sit in the vector engine's inner loop (where an
``np.any`` guard on a 10-element array costs as much as the arithmetic), and
their inputs come from :class:`repro.sim.batched.LayerTable` columns that
were validated when the layers were resolved.  :func:`check_table_operands`
performs the full set of range checks once per table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.accelerators.base import LANES_PER_UNIT
from repro.core.scheduler import LoomGeometry

__all__ = [
    "any_row",
    "ceil_div_array",
    "check_table_operands",
    "effective_activation_bits_array",
    "effective_weight_bits_array",
    "steps_for_activation_bits_array",
    "PlaneGeometry",
    "loom_conv_cycles_array",
    "loom_fc_cycles_array",
    "dpnn_conv_cycles_array",
    "dpnn_fc_cycles_array",
    "stripes_conv_cycles_array",
]


def any_row(flag) -> bool:
    """Whether ``flag`` -- a per-row array or one plane-wide value -- is set
    on any row (without ``np.any``'s Python-level dispatch)."""
    return bool(flag.any()) if isinstance(flag, np.ndarray) else bool(flag)


def ceil_div_array(a, b):
    """Elementwise integer ceiling division (mirrors ``base.ceil_div``).

    Operands must already be non-negative / positive respectively (see
    :func:`check_table_operands`).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return -(-a // b)


def check_table_operands(windows, terms, outputs, act_bits, weight_bits):
    """Range-check layer quantities once, before entering the closed forms.

    Mirrors the per-call validations of the scalar schedules (positive
    precisions, non-negative work counts); called by
    ``repro.sim.batched.build_layer_table`` so the per-layer helpers can
    stay guard-free.
    """
    if np.any(np.asarray(windows) < 0) or np.any(np.asarray(terms) < 0):
        raise ValueError("windows/terms must be >= 0")
    if np.any(np.asarray(outputs) < 1):
        raise ValueError("outputs must be >= 1")
    if np.any(np.asarray(act_bits) < 1):
        raise ValueError("activation precision must be >= 1")
    if np.any(np.asarray(weight_bits) < 1):
        raise ValueError("weight precision must be >= 1")


# -- dynamic precision --------------------------------------------------------


def effective_activation_bits_array(
    profile_bits,
    enabled,
    activation_reduction,
    bits_per_cycle=1,
):
    """Vector mirror of ``DynamicPrecisionModel.effective_activation_bits``;
    ``enabled`` and ``bits_per_cycle`` may be per-row arrays."""
    profile_bits = np.asarray(profile_bits, dtype=np.int64)
    if any_row(bits_per_cycle < 1):
        raise ValueError(f"bits_per_cycle must be >= 1, got {bits_per_cycle}")
    rounded_profile = bits_per_cycle * (-(-profile_bits // bits_per_cycle))
    if not any_row(enabled):
        return rounded_profile.astype(np.float64)
    effective = activation_reduction * profile_bits
    multi_bit = bits_per_cycle > 1
    if isinstance(multi_bit, np.ndarray):
        effective = np.where(multi_bit,
                             effective + (bits_per_cycle - 1) / 2.0, effective)
    elif multi_bit:
        effective = effective + (bits_per_cycle - 1) / 2.0
    dynamic = np.minimum(np.maximum(1.0, effective), rounded_profile)
    if isinstance(enabled, np.ndarray):
        return np.where(enabled, dynamic, rounded_profile.astype(np.float64))
    return dynamic


def effective_weight_bits_array(profile_bits):
    """Vector mirror of ``DynamicPrecisionModel.effective_weight_bits``."""
    profile_bits = np.asarray(profile_bits, dtype=np.float64)
    return np.minimum(np.maximum(1.0, profile_bits), 16.0)


# -- Loom schedules -----------------------------------------------------------


def steps_for_activation_bits_array(activation_bits, bits_per_cycle):
    """Vector mirror of ``LoomGeometry.steps_for_activation_bits``
    (``bits_per_cycle`` may be a per-row array).

    Integral precisions take the exact ``ceil(Pa / b)`` path; fractional
    (dynamically reduced averages) divide straight through, exactly as the
    scalar method does.
    """
    activation_bits = np.asarray(activation_bits, dtype=np.float64)
    integral = activation_bits == np.floor(activation_bits)
    # The truncating cast only feeds elements selected by ``integral``.
    as_int = activation_bits.astype(np.int64)
    exact = (-(-as_int // bits_per_cycle)).astype(np.float64)
    return np.where(integral, exact, activation_bits / bits_per_cycle)


class PlaneGeometry(NamedTuple):
    """Array-valued :class:`~repro.core.scheduler.LoomGeometry`: one SIP grid
    shape per plane row.

    The Loom cycle kernels below consume geometry fields exclusively through
    elementwise ufunc arithmetic, so a geometry whose ``filter_rows`` /
    ``window_columns`` / ``num_sips`` are per-row arrays broadcasts through
    them unchanged -- each row is costed against its own design's grid, bit
    for bit as if the matching scalar geometry had been passed row by row.
    This is what lets :mod:`repro.sim.batched` evaluate *many accelerator
    design points* in a single closed-form pass; a one-design plane passes
    plain integers, which broadcast the same way.

    ``bits_per_cycle`` may be per row as well (LM1b, LM2b and LM4b designs
    share a plane); ``lanes`` is the architectural constant
    ``LANES_PER_UNIT`` for every Loom configuration.
    """

    filter_rows: np.ndarray
    window_columns: np.ndarray
    num_sips: np.ndarray
    bits_per_cycle: np.ndarray = 1
    lanes: int = LANES_PER_UNIT


def loom_conv_cycles_array(
    windows,
    terms,
    filters,
    activation_serial_steps,
    weight_serial_bits,
    geometry: LoomGeometry,
    replicate_filters=False,
) -> np.ndarray:
    """Total Loom CVL cycles: mirrors ``ConvSchedule.total_cycles`` on the
    schedule that ``schedule_conv_layer`` builds (including the filter
    replication mapping and the exposed weight-load fill cycle).

    ``geometry`` may be a scalar :class:`LoomGeometry` or an array-valued
    :class:`PlaneGeometry` (one grid shape per row), and
    ``replicate_filters`` a per-row array."""
    windows = np.asarray(windows, dtype=np.int64)
    terms = np.asarray(terms, dtype=np.int64)
    filters = np.asarray(filters, dtype=np.int64)
    steps = np.asarray(activation_serial_steps, dtype=np.float64)
    weight_bits = np.asarray(weight_serial_bits, dtype=np.float64)
    term_chunks = ceil_div_array(terms, geometry.lanes)
    filter_chunks = ceil_div_array(filters, geometry.filter_rows)
    replication = np.ones_like(filters)
    if any_row(replicate_filters):
        candidate = np.maximum(1, geometry.filter_rows // np.maximum(filters, 1))
        max_useful = np.maximum(
            1, ceil_div_array(windows, geometry.window_columns)
        )
        replication = np.where(
            replicate_filters & (filters < geometry.filter_rows),
            np.minimum(candidate, max_useful),
            replication,
        )
    window_chunks = ceil_div_array(windows, geometry.window_columns * replication)
    passes = window_chunks * term_chunks * filter_chunks
    # passes * cycles_per_pass + weight_load_cycles, in that order.
    return passes * (steps * weight_bits) + 1


def loom_fc_cycles_array(
    outputs,
    terms,
    weight_serial_bits,
    geometry: LoomGeometry,
    use_cascading=True,
) -> np.ndarray:
    """Total Loom FCL cycles: mirrors ``FCSchedule.total_cycles`` on the
    schedule ``schedule_fc_layer`` builds (cascade slicing, column stagger
    and the cascade-reduction tail).

    ``geometry`` may be a scalar :class:`LoomGeometry` or an array-valued
    :class:`PlaneGeometry` (one grid shape per row), and ``use_cascading``
    a per-row array."""
    outputs = np.asarray(outputs, dtype=np.int64)
    terms = np.asarray(terms, dtype=np.int64)
    weight_bits = np.asarray(weight_serial_bits, dtype=np.float64)
    slices = np.ones_like(outputs)
    if any_row(use_cascading):
        raw = geometry.num_sips // np.maximum(outputs, 1)
        slices = np.where(
            use_cascading & (outputs < geometry.num_sips),
            np.maximum(1, np.minimum(geometry.window_columns, raw)),
            slices,
        )
    concurrent = np.maximum(1, geometry.num_sips // slices)
    output_chunks = ceil_div_array(outputs, concurrent)
    terms_per_slice = ceil_div_array(terms, slices)
    term_chunks = ceil_div_array(terms_per_slice, geometry.lanes)
    # The integral ``steps_for_activation_bits(LANES_PER_UNIT)``.
    bits_per_cycle = geometry.bits_per_cycle
    if isinstance(bits_per_cycle, np.ndarray):
        activation_steps = ceil_div_array(
            LANES_PER_UNIT, bits_per_cycle).astype(np.float64)
    else:
        activation_steps = float(-(-LANES_PER_UNIT // bits_per_cycle))
    stagger = geometry.window_columns - 1
    reduction = np.where(slices > 1, slices - 1, np.zeros_like(slices))
    return (output_chunks * term_chunks * (activation_steps * weight_bits)
            + stagger + reduction)


# -- bit-parallel baseline ----------------------------------------------------


def dpnn_conv_cycles_array(windows, terms, filters, num_ip_units: int):
    """DPNN CVL cycles (``DPNN._conv_cycles``), as float64."""
    windows = np.asarray(windows, dtype=np.int64)
    term_chunks = ceil_div_array(terms, LANES_PER_UNIT)
    filter_chunks = ceil_div_array(filters, num_ip_units)
    return (windows * term_chunks * filter_chunks).astype(np.float64)


def dpnn_fc_cycles_array(terms, outputs, num_ip_units: int):
    """DPNN FCL cycles (``DPNN._fc_cycles``), as float64."""
    term_chunks = ceil_div_array(terms, LANES_PER_UNIT)
    filter_chunks = ceil_div_array(outputs, num_ip_units)
    return (term_chunks * filter_chunks).astype(np.float64)


# -- Stripes / DStripes -------------------------------------------------------


def stripes_conv_cycles_array(
    windows,
    terms,
    filters,
    activation_serial_bits,
    filter_lanes: int,
    window_lanes: int,
):
    """Stripes CVL cycles (``Stripes.compute_cycles`` conv branch)."""
    serial_bits = np.asarray(activation_serial_bits, dtype=np.float64)
    window_chunks = ceil_div_array(windows, window_lanes)
    term_chunks = ceil_div_array(terms, LANES_PER_UNIT)
    filter_chunks = ceil_div_array(filters, filter_lanes)
    return window_chunks * term_chunks * filter_chunks * serial_bits


