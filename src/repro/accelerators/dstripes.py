"""DStripes: Stripes extended with dynamic per-group activation precisions.

DStripes is Stripes plus the runtime precision detection of Lascorz et al.:
instead of using the profile-derived per-layer activation precision for every
group of activations, the hardware inspects each group of concurrently
processed activations and uses only as many bits as the largest value in the
group requires.  Convolutional layers therefore run faster than under plain
Stripes; fully-connected layers are unchanged (their time is set by weight
delivery, exactly as in Stripes).
"""

from __future__ import annotations

from typing import Optional

from repro.accelerators.base import AcceleratorConfig
from repro.accelerators.stripes import Stripes
from repro.quant.dynamic import DynamicPrecisionModel

__all__ = ["DStripes"]


class DStripes(Stripes):
    """Stripes with runtime (per-group) activation precision reduction."""

    name = "DStripes"

    DEFAULT_DYNAMIC_PRECISION = DynamicPrecisionModel(enabled=True)

    def __init__(self, config: Optional[AcceleratorConfig] = None,
                 dynamic_precision: Optional[DynamicPrecisionModel] = None) -> None:
        super().__init__(config, dynamic_precision=dynamic_precision)
        if not self.dynamic_precision.enabled:
            raise ValueError(
                "DStripes requires an enabled DynamicPrecisionModel; "
                "use Stripes for the static design"
            )
