"""Destiny-style analytical eDRAM model for the activation and weight memories.

DaDianNao-class accelerators keep activations (AM) and weights (WM) in
multi-megabyte on-chip eDRAM.  The paper models these with Destiny.  As with
the SRAM model, what the evaluation needs is per-bit access energy, area and
refresh/leakage power with sensible scaling in capacity; absolute values are
calibrated so the relative energy results match the paper (eDRAM accesses and
the datapath dominate total energy, off-chip DRAM is two orders of magnitude
more expensive per bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EDRAMMemory", "size_factor", "tech_factor"]


def size_factor(capacity_bytes: int) -> float:
    """Growth of per-bit access energy with capacity (longer bit/word
    lines): one place for the models and the vector engine's records."""
    mb = max(capacity_bytes / (1024.0 * 1024.0), 1.0 / 1024.0)
    return 1.0 + 0.10 * math.log2(max(1.0, mb * 4.0))


def tech_factor(technology_nm: float) -> float:
    """Scaling of dynamic energy with feature size."""
    return (technology_nm / 65.0) ** 2


@dataclass(frozen=True)
class EDRAMMemory:
    """An on-chip eDRAM macro (AM or WM).

    Parameters
    ----------
    name:
        Memory name, e.g. ``"AM"`` or ``"WM"``.
    capacity_bytes:
        Total capacity.
    width_bits:
        Interface width per access (2048 bits for the weight memory feeding
        128 filter lanes x 16 bits, 256 bits for the activation memory).
    banks:
        Number of banks (DaDianNao-style designs use heavily banked eDRAM).
    technology_nm:
        Feature size, 65 nm by default.
    """

    name: str
    capacity_bytes: int
    width_bits: int
    banks: int = 16
    technology_nm: float = 65.0

    # Calibration constants (65 nm eDRAM).
    _BASE_ACCESS_ENERGY_PJ_PER_BIT: float = 0.05
    _AREA_MM2_PER_MB: float = 2.4
    _REFRESH_MW_PER_MB: float = 0.65

    def __post_init__(self) -> None:
        if self.capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {self.capacity_bytes}")
        if self.width_bits < 1:
            raise ValueError(f"width_bits must be >= 1, got {self.width_bits}")
        if self.banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.banks}")

    @property
    def capacity_bits(self) -> int:
        return self.capacity_bytes * 8

    @property
    def capacity_mb(self) -> float:
        return self.capacity_bytes / (1024.0 * 1024.0)

    def _size_factor(self) -> float:
        return size_factor(self.capacity_bytes)

    def _tech_factor(self) -> float:
        return tech_factor(self.technology_nm)

    def access_energy_pj(self, bits: float | None = None) -> float:
        """Energy to read or write ``bits`` bits (default one full access).

        ``bits`` may be a NumPy array (the vector engine batches whole
        networks); the expression is identical elementwise.
        """
        bits = self.width_bits if bits is None else bits
        if np.any(np.asarray(bits) < 0):
            raise ValueError(f"bits must be >= 0, got {bits}")
        return (self._BASE_ACCESS_ENERGY_PJ_PER_BIT * bits * self._size_factor()
                * self._tech_factor())

    @property
    def area_mm2(self) -> float:
        return self._AREA_MM2_PER_MB * self.capacity_mb * (
            (self.technology_nm / 65.0) ** 2
        )

    @property
    def refresh_power_mw(self) -> float:
        return self._REFRESH_MW_PER_MB * self.capacity_mb

    def accesses_for_bits(self, bits: float) -> int:
        """Number of full-width accesses needed to move ``bits`` bits."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        return int(math.ceil(bits / self.width_bits))

    def fits(self, bits: float) -> bool:
        """Whether a footprint of ``bits`` bits fits in this memory."""
        return bits <= self.capacity_bits
