"""DPNN: the DaDianNao-style bit-parallel baseline accelerator.

DPNN processes 16-bit fixed-point activations and weights.  Every cycle it
consumes N = 16 activations (broadcast to all filters) and 16 weights for each
of ``k`` filters, computing ``16 x k`` multiply-accumulates; the default
``k = 8`` gives the 128-MAC configuration the paper compares against.  Its
execution time does not depend on data precision: a layer simply takes as many
cycles as there are (windows x 16-term chunks x filter chunks) tiles.
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
from repro.nn.layers import Conv2D, FullyConnected
from repro.nn.network import LayerWithPrecision

__all__ = ["DPNN"]


class DPNN(Accelerator):
    """Bit-parallel fixed-precision baseline (DaDianNao-style)."""

    name = "DPNN"

    def __init__(self, config: Optional[AcceleratorConfig] = None) -> None:
        super().__init__(config)

    # -- structure ----------------------------------------------------------------

    @property
    def num_ip_units(self) -> int:
        """Number of inner-product units (k in the paper, 8 at the 128 scale)."""
        return inner_product_units(self.config.equivalent_macs)

    # -- cycles -------------------------------------------------------------------

    def compute_cycles(self, layer: LayerWithPrecision) -> float:
        if layer.is_conv:
            return float(self._conv_cycles(layer))
        return float(self._fc_cycles(layer))

    def _conv_cycles(self, layer: LayerWithPrecision) -> int:
        # Conv2D or MatMul; both expose the window/filter cost interface.
        conv: Conv2D = layer.layer  # type: ignore[assignment]
        windows = conv.num_windows(layer.input_shape)
        terms = conv.window_size(layer.input_shape)
        term_chunks = ceil_div(terms, LANES_PER_UNIT)
        filter_chunks = ceil_div(conv.out_channels, self.num_ip_units)
        return windows * term_chunks * filter_chunks

    def _fc_cycles(self, layer: LayerWithPrecision) -> int:
        fc: FullyConnected = layer.layer  # type: ignore[assignment]
        terms = layer.input_shape.size
        term_chunks = ceil_div(terms, LANES_PER_UNIT)
        filter_chunks = ceil_div(fc.out_features, self.num_ip_units)
        return term_chunks * filter_chunks

    # -- energy / area --------------------------------------------------------------

    def datapath_pj_per_cycle(self) -> float:
        return self._power.dpnn_pj_per_cycle(self.config.equivalent_macs)

    def core_area_mm2(self) -> float:
        return self._area.dpnn_core_mm2(self.config.equivalent_macs)
