"""Stripes: the activation-bit-serial comparison point.

Stripes (Judd et al., MICRO 2016) processes activations bit-serially and
weights bit-parallel.  Convolutional layers therefore speed up by
``16 / Pa`` relative to the bit-parallel baseline (ideally), using the
profile-derived per-layer activation precisions; fully-connected layers see no
speedup because there is no weight reuse to amortise the serial processing
(the paper's Table 2 reports Stripes FCL performance of 1.00x and efficiency
of 0.88x).

Stripes stores activations bit-serially (precision-scaled traffic) but
weights at the full 16 bits.
"""

from __future__ import annotations

from typing import Optional

from repro.accelerators.base import (
    Accelerator,
    AcceleratorConfig,
    LANES_PER_UNIT,
    ceil_div,
    inner_product_units,
)
from repro.accelerators.dpnn import DPNN
from repro.nn.layers import Conv2D
from repro.nn.network import LayerWithPrecision
from repro.quant.dynamic import DynamicPrecisionModel

__all__ = ["Stripes"]


class Stripes(Accelerator):
    """Activation-bit-serial accelerator exploiting per-layer activation precision."""

    name = "Stripes"

    #: Stripes processes this many windows concurrently to compensate for
    #: serial activations (matching Loom's 16 window lanes).
    WINDOW_LANES = 16

    #: The precision model when none is given: plain Stripes uses only the
    #: static per-layer profile precisions.
    DEFAULT_DYNAMIC_PRECISION = DynamicPrecisionModel(enabled=False)

    def __init__(self, config: Optional[AcceleratorConfig] = None,
                 dynamic_precision: Optional[DynamicPrecisionModel] = None) -> None:
        super().__init__(config)
        self.dynamic_precision = (dynamic_precision
                                  or self.DEFAULT_DYNAMIC_PRECISION)
        # A DPNN instance with the same configuration provides the FCL timing
        # (Stripes matches the bit-parallel engine on FCLs).
        self._dpnn = DPNN(config)

    # -- storage ------------------------------------------------------------------

    @property
    def uses_bit_interleaved_storage(self) -> bool:
        return True

    @property
    def stores_weights_serially(self) -> bool:
        return False

    def storage_precisions(self, layer: LayerWithPrecision) -> tuple:
        # Activations are stored bit-serially at the profile precision;
        # weights remain 16-bit.
        return (16, layer.precision.activation_bits)

    # -- structure ----------------------------------------------------------------

    @property
    def filter_lanes(self) -> int:
        """Concurrent filters (same as the baseline's inner-product unit count)."""
        return inner_product_units(self.config.equivalent_macs)

    # -- cycles -------------------------------------------------------------------

    def _activation_serial_bits(self, layer: LayerWithPrecision) -> float:
        """Serial steps spent per activation for this layer."""
        return self.dynamic_precision.effective_activation_bits(
            layer.precision.activation_bits, bits_per_cycle=1
        )

    def compute_cycles(self, layer: LayerWithPrecision) -> float:
        if layer.is_fc:
            # No weight reuse: matches the bit-parallel engine.
            return self._dpnn.compute_cycles(layer)
        # Conv2D or MatMul; both expose the window/filter cost interface.
        conv: Conv2D = layer.layer  # type: ignore[assignment]
        windows = conv.num_windows(layer.input_shape)
        terms = conv.window_size(layer.input_shape)
        window_chunks = ceil_div(windows, self.WINDOW_LANES)
        term_chunks = ceil_div(terms, LANES_PER_UNIT)
        filter_chunks = ceil_div(conv.out_channels, self.filter_lanes)
        serial_bits = self._activation_serial_bits(layer)
        return window_chunks * term_chunks * filter_chunks * serial_bits

    # -- energy / area --------------------------------------------------------------

    def datapath_pj_per_cycle(self) -> float:
        return self._power.stripes_pj_per_cycle(
            self.config.equivalent_macs,
            dynamic_precision=self.dynamic_precision.enabled,
        )

    def core_area_mm2(self) -> float:
        return self._area.stripes_core_mm2(
            self.config.equivalent_macs,
            dynamic_precision=self.dynamic_precision.enabled,
        )
