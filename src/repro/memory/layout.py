"""Storage layouts: bit-parallel (DPNN) and bit-interleaved (Loom).

Because Loom consumes activations and weights one bit plane at a time, it can
store them *bit-interleaved*: all bit-0s of a group of values packed into
consecutive memory rows, then all bit-1s, and so on, keeping only as many
planes as the per-layer precision requires.  The footprint and the traffic of
a tensor therefore scale with its precision, which is where the
``(16 - P)/16`` footprint/bandwidth reduction and the smaller activation
memory of Section 4.5 come from.  DPNN stores everything at the fixed 16-bit
word width.

The transposer converts between the formats: output activations leave the
SIP array value-parallel (one per SIP) and must be rotated into bit planes
before being written back to the activation memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.quant.bitops import pack_bit_interleaved, unpack_bit_interleaved

__all__ = [
    "BitParallelLayout",
    "BitInterleavedLayout",
    "Transposer",
    "footprint_bits",
]


def footprint_bits(num_values: int, precision_bits: int,
                   bit_interleaved: bool, storage_word_bits: int = 16) -> float:
    """Storage footprint of ``num_values`` values.

    Bit-interleaved storage needs ``num_values * precision_bits`` bits;
    bit-parallel storage always spends the full ``storage_word_bits`` per
    value regardless of precision.
    """
    if num_values < 0:
        raise ValueError(f"num_values must be >= 0, got {num_values}")
    if precision_bits < 1 or precision_bits > storage_word_bits:
        raise ValueError(
            f"precision_bits must be in [1, {storage_word_bits}], "
            f"got {precision_bits}"
        )
    if bit_interleaved:
        return float(num_values * precision_bits)
    return float(num_values * storage_word_bits)


@dataclass(frozen=True)
class BitParallelLayout:
    """DPNN's fixed-width layout: every value occupies a full 16-bit word."""

    word_bits: int = 16

    def footprint_bits(self, num_values: int, precision_bits: int) -> float:
        return footprint_bits(num_values, precision_bits, bit_interleaved=False,
                              storage_word_bits=self.word_bits)

    def traffic_bits(self, num_values: int, precision_bits: int) -> float:
        """Bits moved to read/write the values once."""
        return self.footprint_bits(num_values, precision_bits)

    def rows(self, num_values: int, precision_bits: int, row_bits: int) -> int:
        """Memory rows occupied, given a row width in bits."""
        if row_bits < 1:
            raise ValueError(f"row_bits must be >= 1, got {row_bits}")
        return int(math.ceil(self.footprint_bits(num_values, precision_bits)
                             / row_bits))


@dataclass(frozen=True)
class BitInterleavedLayout:
    """Loom's precision-proportional layout.

    ``group_size`` is the number of values packed side by side in one bit
    plane row group (2048 weights or 256 activations in the paper's
    configuration); it only affects row counts, not total footprint.
    """

    word_bits: int = 16
    group_size: int = 2048

    def footprint_bits(self, num_values: int, precision_bits: int) -> float:
        return footprint_bits(num_values, precision_bits, bit_interleaved=True,
                              storage_word_bits=self.word_bits)

    def traffic_bits(self, num_values: int, precision_bits: int) -> float:
        return self.footprint_bits(num_values, precision_bits)

    def rows(self, num_values: int, precision_bits: int, row_bits: int) -> int:
        if row_bits < 1:
            raise ValueError(f"row_bits must be >= 1, got {row_bits}")
        # Each group of group_size values stores precision_bits planes of
        # group_size bits; partial groups still occupy full plane rows.
        groups = int(math.ceil(num_values / self.group_size))
        rows_per_plane = int(math.ceil(self.group_size / row_bits))
        return groups * precision_bits * rows_per_plane

    def reduction_vs_parallel(self, precision_bits: int) -> float:
        """Fraction of bits saved vs. the bit-parallel layout: (16 - P) / 16."""
        return (self.word_bits - precision_bits) / self.word_bits

    # -- functional packing (used by tests and the functional model) -----------

    def pack(self, codes: np.ndarray, precision_bits: int, row_bits: int,
             signed: bool = True) -> np.ndarray:
        """Pack integer codes into bit-plane rows (see :func:`pack_bit_interleaved`)."""
        return pack_bit_interleaved(codes, precision_bits, row_bits, signed=signed)

    def unpack(self, rows: np.ndarray, precision_bits: int, count: int,
               signed: bool = True) -> np.ndarray:
        """Recover integer codes from bit-plane rows."""
        return unpack_bit_interleaved(rows, precision_bits, count, signed=signed)


@dataclass(frozen=True)
class Transposer:
    """Rotates value-parallel output activations into bit planes (ABout -> AM).

    Each output activation takes tens to hundreds of cycles to produce, so a
    transposer handling ``width`` values per cycle easily keeps up; the model
    exposes the cycle count and a (small) energy cost so the accounting is
    explicit rather than assumed free.
    """

    width: int = 16
    energy_pj_per_value: float = 0.05

    def cycles(self, num_values: int) -> int:
        """Cycles to transpose ``num_values`` output activations."""
        if num_values < 0:
            raise ValueError(f"num_values must be >= 0, got {num_values}")
        return int(math.ceil(num_values / self.width))

    def energy_pj(self, num_values: int) -> float:
        """``num_values`` may be a NumPy array (used by the vector engine)."""
        if np.any(np.asarray(num_values) < 0):
            raise ValueError(f"num_values must be >= 0, got {num_values}")
        return num_values * self.energy_pj_per_value
