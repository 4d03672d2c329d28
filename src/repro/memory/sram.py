"""CACTI-style analytical SRAM buffer model.

The paper models the ABin and ABout activation buffers with CACTI 6.0 on a
65 nm process.  We reproduce the behaviour that matters for the evaluation --
per-access energy and area that grow with capacity and port width -- with a
small analytical model whose coefficients are calibrated so that the buffer
contribution to the total energy matches the relative numbers the paper
reports (buffers are a second-order term next to the eDRAM and the datapath).

The model intentionally exposes the same quantities CACTI would: read/write
energy per access, leakage power and area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SRAMBuffer", "size_factor", "tech_factor"]


def size_factor(capacity_bytes: int) -> float:
    """Energy grows mildly with capacity (longer bit/word lines): one place
    for the models and the vector engine's records."""
    kb = capacity_bytes / 1024.0
    return 1.0 + 0.08 * math.log2(max(1.0, kb))


def tech_factor(technology_nm: float) -> float:
    """Quadratic-ish scaling of dynamic energy with feature size."""
    return (technology_nm / 65.0) ** 2


@dataclass(frozen=True)
class SRAMBuffer:
    """An on-chip SRAM buffer (ABin / ABout).

    Parameters
    ----------
    name:
        Buffer name, e.g. ``"ABin"``.
    capacity_bytes:
        Total capacity in bytes.
    width_bits:
        Access-port width in bits (one row per access).
    banks:
        Number of independent banks; energy per access is per bank access,
        area scales with the total capacity.
    technology_nm:
        Feature size; the default 65 nm matches the paper.
    """

    name: str
    capacity_bytes: int
    width_bits: int
    banks: int = 1
    technology_nm: float = 65.0

    # Calibration constants (65 nm): energy per accessed bit and per-byte area.
    _BASE_READ_ENERGY_PJ_PER_BIT: float = 0.012
    _BASE_WRITE_ENERGY_PJ_PER_BIT: float = 0.014
    _AREA_MM2_PER_KB: float = 0.0075
    _LEAKAGE_MW_PER_KB: float = 0.009

    def __post_init__(self) -> None:
        if self.capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {self.capacity_bytes}")
        if self.width_bits < 1:
            raise ValueError(f"width_bits must be >= 1, got {self.width_bits}")
        if self.banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.banks}")

    # -- derived geometry ------------------------------------------------------

    @property
    def capacity_bits(self) -> int:
        return self.capacity_bytes * 8

    @property
    def rows(self) -> int:
        """Number of addressable rows of ``width_bits`` each."""
        return max(1, self.capacity_bits // (self.width_bits * self.banks))

    def _size_factor(self) -> float:
        return size_factor(self.capacity_bytes)

    def _tech_factor(self) -> float:
        return tech_factor(self.technology_nm)

    # -- CACTI-like outputs ------------------------------------------------------

    def read_energy_pj(self, bits: int | None = None) -> float:
        """Energy of reading ``bits`` bits (default: one full-width access).

        ``bits`` may be a NumPy array (used by the vector engine).
        """
        bits = self.width_bits if bits is None else bits
        if np.any(np.asarray(bits) < 0):
            raise ValueError(f"bits must be >= 0, got {bits}")
        return (self._BASE_READ_ENERGY_PJ_PER_BIT * bits * self._size_factor()
                * self._tech_factor())

    def write_energy_pj(self, bits: int | None = None) -> float:
        """Energy of writing ``bits`` bits (default: one full-width access).

        ``bits`` may be a NumPy array (used by the vector engine).
        """
        bits = self.width_bits if bits is None else bits
        if np.any(np.asarray(bits) < 0):
            raise ValueError(f"bits must be >= 0, got {bits}")
        return (self._BASE_WRITE_ENERGY_PJ_PER_BIT * bits * self._size_factor()
                * self._tech_factor())

    @property
    def area_mm2(self) -> float:
        """Silicon area of the buffer."""
        kb = self.capacity_bytes / 1024.0
        # Wide ports add peripheral area.
        port_factor = 1.0 + 0.05 * math.log2(max(1.0, self.width_bits / 64.0))
        return self._AREA_MM2_PER_KB * kb * port_factor * (
            (self.technology_nm / 65.0) ** 2
        )

    @property
    def leakage_mw(self) -> float:
        kb = self.capacity_bytes / 1024.0
        return self._LEAKAGE_MW_PER_KB * kb * (self.technology_nm / 65.0)

    def accesses_for_bits(self, bits: float) -> int:
        """Number of full-width accesses needed to move ``bits`` bits."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        return int(math.ceil(bits / self.width_bits))
