"""Technology parameters for the 65 nm process the paper targets.

The constants below play the role of the synthesis + layout characterisation
in the paper: per-operation dynamic energies and per-unit areas for the
datapath building blocks, at the typical corner and 1 GHz.  Absolute values
are in the right ballpark for a 65 nm process, and -- more importantly for a
reproduction whose targets are *relative* numbers -- the ratios between the
blocks are calibrated so that the derived design-level ratios match what the
paper measured from its layouts:

* Loom-1b datapath power  ~= 1.2x DPNN (paper: perf/eff ratios imply ~1.23x),
* Loom-2b ~= 1.05x, Loom-4b ~= 0.95x, Stripes ~= 1.14x,
* Loom-1b core area ~= 1.34x DPNN, Loom-2b ~= 1.25x, Loom-4b ~= 1.16x.

EXPERIMENTS.md records the values these models actually produce.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.canonical import canonical_number

__all__ = ["TechnologyParameters", "TSMC_65NM"]


@dataclass(frozen=True)
class TechnologyParameters:
    """Per-component energy (pJ) and area (um^2) figures for one process corner."""

    name: str
    feature_nm: float
    clock_ghz: float
    nominal_vdd: float

    # ---- bit-parallel datapath components (DPNN inner-product units) ----------
    #: 16b x 16b multiplier, one operation.
    mult16_energy_pj: float
    #: 32-bit adder, one operation (adder-tree node / accumulator).
    add32_energy_pj: float
    #: 16-bit pipeline/weight register, per cycle.
    reg16_energy_pj: float

    # ---- bit-serial datapath components (Loom / Stripes SIPs) -----------------
    #: One 2-input AND gate toggling, per cycle.
    and_gate_energy_pj: float
    #: One input of a 1-bit-operand adder tree (amortised tree node energy).
    serial_tree_energy_pj_per_input: float
    #: AC1/AC2 shift-accumulator pair plus output register, per cycle.
    accumulator_energy_pj: float
    #: One 1-bit weight register, per cycle.
    bit_register_energy_pj: float
    #: Per-cycle overhead of a Stripes serial IP beyond its AND/tree/accumulator
    #: (weight lanes are full 16-bit, so its gating and tree are wider).
    stripes_unit_overhead_pj: float
    #: Dynamic precision detection logic (OR tree + leading-one detector) per
    #: group of 16 activations, per detection.
    precision_detect_energy_pj: float

    # ---- areas (um^2) -----------------------------------------------------------
    mult16_area_um2: float
    add32_area_um2: float
    reg16_area_um2: float
    and_gate_area_um2: float
    serial_tree_area_um2_per_input: float
    accumulator_area_um2: float
    bit_register_area_um2: float
    stripes_unit_overhead_area_um2: float
    precision_detect_area_um2: float

    #: Global activity factor applied to datapath dynamic energy (data-driven
    #: switching observed by the paper's power analysis).
    activity_factor: float = 0.55

    def __post_init__(self) -> None:
        # Every field but ``name`` is a float: equal spellings (``65``,
        # ``65.0``) are stored as one, so equal parameter sets key alike.
        for name in _NUMERIC_FIELDS:
            object.__setattr__(self, name,
                               canonical_number(getattr(self, name), float))
        if any(getattr(self, name) <= 0
               for name in _NUMERIC_FIELDS if name != "activity_factor"):
            raise ValueError("all technology parameters must be positive")
        if not 0.0 < self.activity_factor <= 1.0:
            raise ValueError(
                f"activity_factor must be in (0, 1], got {self.activity_factor}"
            )


#: Numeric fields of :class:`TechnologyParameters`, in declaration order.
_NUMERIC_FIELDS = tuple(f.name for f in fields(TechnologyParameters)
                        if f.name != "name")


#: The default technology: TSMC 65 nm, typical corner, 1 GHz (as in the paper).
TSMC_65NM = TechnologyParameters(
    name="TSMC 65nm (typical corner)",
    feature_nm=65.0,
    clock_ghz=1.0,
    nominal_vdd=1.0,
    # Bit-parallel components.
    mult16_energy_pj=0.58,
    add32_energy_pj=0.05,
    reg16_energy_pj=0.02,
    # Bit-serial components.  The accumulator / bit-register vs. AND/adder-tree
    # split is calibrated so that the design-level power ratios of Loom-1b/2b/4b
    # and Stripes versus DPNN land at the values the paper's layouts imply
    # (~1.23x / ~1.06x / ~0.98x / ~1.14x).
    and_gate_energy_pj=0.0006,
    serial_tree_energy_pj_per_input=0.00166,
    accumulator_energy_pj=0.0106,
    bit_register_energy_pj=0.0002,
    stripes_unit_overhead_pj=0.04,
    precision_detect_energy_pj=0.020,
    # Areas.  As with energy, the serial-component areas are *effective*
    # coefficients calibrated against the paper's post-layout relative areas
    # (Loom-1b 1.34x, Loom-2b 1.25x, Loom-4b ~1.16x DPNN); they fold in the
    # heavy logic sharing and custom layout of the real SIP array.
    mult16_area_um2=1580.0,
    add32_area_um2=280.0,
    reg16_area_um2=95.0,
    and_gate_area_um2=1.8,
    serial_tree_area_um2_per_input=7.06,
    accumulator_area_um2=10.0,
    bit_register_area_um2=0.75,
    stripes_unit_overhead_area_um2=40.0,
    precision_detect_area_um2=120.0,
)
