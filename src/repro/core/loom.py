"""The Loom accelerator model (LM1b / LM2b / LM4b).

Loom processes both weights and activations bit-serially on a grid of Serial
Inner-Product units.  For convolutional layers its execution time scales with
``Pa x Pw`` (the per-layer -- and, at runtime, per-group -- activation and
weight precisions); for fully-connected layers with ``Pw`` alone.  Because it
also *stores* both operands bit-interleaved, its memory footprint and traffic
scale with the same precisions.

This class implements the common :class:`repro.accelerators.base.Accelerator`
interface on top of the schedules from :mod:`repro.core.scheduler`.  Knobs:

``bits_per_cycle``
    1, 2 or 4 for the LM1b / LM2b / LM4b variants of Section 3.2.
``dynamic_precision``
    The runtime activation-precision reduction model (enabled by default, as
    in the paper's main results).
``use_effective_weight_precision``
    Use the per-group effective weight precisions attached to the layer
    (Table 3) instead of the profile-derived per-layer precision -- the
    Section 4.6 / Table 4 mode.
``window_fanout``
    The alternative "fewer filters over more windows" tiling mentioned as
    future work (1 = the paper's organisation).
``use_cascading``
    SIP cascading for fully-connected layers with fewer outputs than SIPs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.accelerators.base import Accelerator, AcceleratorConfig
from repro.core.scheduler import (
    LoomGeometry,
    schedule_conv_layer,
    schedule_fc_layer,
)
from repro.nn.network import LayerWithPrecision
from repro.quant.dynamic import DynamicPrecisionModel

__all__ = ["Loom"]


class Loom(Accelerator):
    """Bit-serial, precision-exploiting CNN accelerator (the paper's design)."""

    name = "Loom"

    #: The LM1b / LM2b / LM4b variants: activation bits per cycle.
    BITS_PER_CYCLE = (1, 2, 4)

    #: The precision model when none is given: runtime activation
    #: reduction on, as in the paper's main results.
    DEFAULT_DYNAMIC_PRECISION = DynamicPrecisionModel()

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        bits_per_cycle: int = 1,
        dynamic_precision: Optional[DynamicPrecisionModel] = None,
        use_effective_weight_precision: bool = False,
        window_fanout: int = 1,
        use_cascading: bool = True,
        replicate_filters: bool = False,
    ) -> None:
        if bits_per_cycle not in self.BITS_PER_CYCLE:
            raise ValueError(
                f"bits_per_cycle must be 1, 2 or 4, got {bits_per_cycle}"
            )
        self.bits_per_cycle = bits_per_cycle
        self.dynamic_precision = (dynamic_precision
                                  or self.DEFAULT_DYNAMIC_PRECISION)
        self.use_effective_weight_precision = use_effective_weight_precision
        self.window_fanout = window_fanout
        self.use_cascading = use_cascading
        self.replicate_filters = replicate_filters
        super().__init__(config)
        self.geometry = LoomGeometry(
            equivalent_macs=self.config.equivalent_macs,
            bits_per_cycle=bits_per_cycle,
            window_fanout=window_fanout,
        )
        self.name = self.variant_name(bits_per_cycle)

    @staticmethod
    def variant_name(bits_per_cycle: int) -> str:
        """Display name of the LM-``bits_per_cycle``b variant."""
        return f"Loom-{bits_per_cycle}b"

    # -- storage --------------------------------------------------------------------

    @property
    def uses_bit_interleaved_storage(self) -> bool:
        return True

    @property
    def stores_weights_serially(self) -> bool:
        return True

    def storage_precisions(self, layer: LayerWithPrecision) -> Tuple[int, int]:
        # Storage (and thus traffic) uses the profile-derived precisions; the
        # dynamic reduction applies to compute time only (the bits still have
        # to be fetched before the group's precision is known).
        return (layer.precision.weight_bits, layer.precision.activation_bits)

    # -- precision selection -----------------------------------------------------------

    def _conv_weight_bits(self, layer: LayerWithPrecision) -> float:
        precision = layer.precision
        if (self.use_effective_weight_precision
                and precision.effective_weight_bits is not None):
            return self.dynamic_precision.effective_weight_bits(
                precision.effective_weight_bits
            )
        return float(precision.weight_bits)

    def _fc_weight_bits(self, layer: LayerWithPrecision) -> float:
        precision = layer.precision
        if (self.use_effective_weight_precision
                and precision.effective_weight_bits is not None):
            return self.dynamic_precision.effective_weight_bits(
                precision.effective_weight_bits
            )
        return float(precision.weight_bits)

    def _conv_activation_bits(self, layer: LayerWithPrecision) -> float:
        return self.dynamic_precision.effective_activation_bits(
            layer.precision.activation_bits, bits_per_cycle=self.bits_per_cycle
        )

    # -- cycles --------------------------------------------------------------------------

    def conv_schedule(self, layer: LayerWithPrecision):
        """The schedule Loom uses for a convolutional layer."""
        return schedule_conv_layer(
            layer,
            self.geometry,
            activation_serial_bits=self._conv_activation_bits(layer),
            weight_serial_bits=self._conv_weight_bits(layer),
            replicate_filters=self.replicate_filters,
        )

    def fc_schedule(self, layer: LayerWithPrecision):
        """The schedule Loom uses for a fully-connected layer."""
        return schedule_fc_layer(
            layer,
            self.geometry,
            weight_serial_bits=self._fc_weight_bits(layer),
            use_cascading=self.use_cascading,
        )

    def compute_cycles(self, layer: LayerWithPrecision) -> float:
        if layer.is_conv:
            return float(self.conv_schedule(layer).total_cycles)
        return float(self.fc_schedule(layer).total_cycles)

    # -- energy / area -----------------------------------------------------------------------

    def datapath_pj_per_cycle(self) -> float:
        return self._power.loom_pj_per_cycle(
            self.config.equivalent_macs,
            bits_per_cycle=self.bits_per_cycle,
            dynamic_precision=self.dynamic_precision.enabled,
        )

    def core_area_mm2(self) -> float:
        return self._area.loom_core_mm2(
            self.config.equivalent_macs,
            bits_per_cycle=self.bits_per_cycle,
            dynamic_precision=self.dynamic_precision.enabled,
        )
