"""Off-chip DRAM channel model (single-channel LPDDR4-4267).

The Figure 5 scaling study attaches a single channel of low-power
DDR4-4267 to both DPNN and Loom.  What matters for the results is the
channel's sustained bandwidth (which bounds the fully-connected layers,
whose weights never fit on chip) and the per-bit transfer energy (roughly two
orders of magnitude above on-chip eDRAM, which is why the paper sizes AM so
most layers avoid spilling).

The model is an analytical bandwidth/energy channel: it converts a number of
bits into transfer cycles at the accelerator clock and into energy, with an
efficiency factor accounting for row misses and read/write turnarounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.canonical import canonical_number

__all__ = ["DRAMChannel", "LPDDR4_4267"]


@dataclass(frozen=True)
class DRAMChannel:
    """A single off-chip DRAM channel.

    Parameters
    ----------
    name:
        Channel name (e.g. ``"LPDDR4-4267"``).
    transfer_rate_mts:
        Transfer rate in mega-transfers per second.
    interface_bits:
        Data bus width in bits (x16 for LPDDR4).
    efficiency:
        Fraction of the peak bandwidth sustainable on streaming accesses.
    energy_pj_per_bit:
        Total transfer energy (I/O + DRAM core) per bit.
    """

    name: str
    transfer_rate_mts: float
    interface_bits: int = 16
    efficiency: float = 0.85
    energy_pj_per_bit: float = 15.0

    def __post_init__(self) -> None:
        # Equal spellings (``15``, ``15.0``; ``0.0``, ``-0.0``) are stored
        # as the declared type, so equal channels key alike.
        for name, declared in _NUMERIC_FIELDS:
            object.__setattr__(self, name,
                               canonical_number(getattr(self, name), declared))
        if self.transfer_rate_mts <= 0:
            raise ValueError("transfer_rate_mts must be > 0")
        if self.interface_bits < 1:
            raise ValueError("interface_bits must be >= 1")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.energy_pj_per_bit < 0:
            raise ValueError("energy_pj_per_bit must be >= 0")

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak bandwidth in gigabits per second."""
        return self.transfer_rate_mts * 1e6 * self.interface_bits / 1e9

    @property
    def sustained_bandwidth_gbps(self) -> float:
        return self.peak_bandwidth_gbps * self.efficiency

    @property
    def peak_bandwidth_gb_per_s(self) -> float:
        """Peak bandwidth in gigabytes per second."""
        return self.peak_bandwidth_gbps / 8.0

    def bits_per_cycle(self, clock_ghz: float = 1.0) -> float:
        """Sustained bits deliverable per accelerator clock cycle."""
        if clock_ghz <= 0:
            raise ValueError(f"clock_ghz must be > 0, got {clock_ghz}")
        return self.sustained_bandwidth_gbps / clock_ghz

    def transfer_cycles(self, bits: float, clock_ghz: float = 1.0) -> float:
        """Cycles (at the accelerator clock) needed to move ``bits`` bits.

        ``bits`` may be a NumPy array (used by the vector engine).
        """
        if np.any(np.asarray(bits) < 0):
            raise ValueError(f"bits must be >= 0, got {bits}")
        per_cycle = self.bits_per_cycle(clock_ghz)
        return bits / per_cycle

    def transfer_energy_pj(self, bits: float) -> float:
        """Energy of moving ``bits`` bits over the channel.

        ``bits`` may be a NumPy array (used by the vector engine).
        """
        if np.any(np.asarray(bits) < 0):
            raise ValueError(f"bits must be >= 0, got {bits}")
        return bits * self.energy_pj_per_bit


#: Declared type of each numeric :class:`DRAMChannel` field.
_NUMERIC_FIELDS = (("transfer_rate_mts", float), ("interface_bits", int),
                   ("efficiency", float), ("energy_pj_per_bit", float))


#: The channel used in the paper's scaling study: a single channel of
#: low-power DDR4-4267.  LPDDR4 channels are 32 bits wide (two x16 half
#: channels per die pair), giving ~17 GB/s peak.
LPDDR4_4267 = DRAMChannel(
    name="LPDDR4-4267",
    transfer_rate_mts=4267.0,
    interface_bits=32,
    efficiency=0.85,
    energy_pj_per_bit=15.0,
)
