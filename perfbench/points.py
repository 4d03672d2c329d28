"""Seeded design-point generator for the end-to-end benchmark.

Every point is a plain JSON-able mapping drawn from the product
networks x accelerators x ``equivalent_macs`` x ``clock_ghz`` x
``abin_bytes`` -- the axes the Loom paper sweeps (per-network precision
profiles, 32-512 equivalent MACs, 1/2/4 bits per cycle).  The program under
test only ever sees these mappings; the seed fixes which ones it sees.

Two access patterns:

* :class:`PointStream` hands out *never-seen* points: each draw is a point
  index no earlier draw of the same stream returned, so every point is a
  cache miss for the node that receives it.
* :func:`working_set` fixes a set of distinct points a warm workload
  preloads and then draws from, with repeats.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Tuple

#: The paper's six networks, in its reporting order.
NETWORKS: Tuple[str, ...] = ("nin", "alexnet", "googlenet", "vggs", "vggm",
                             "vgg19")

#: The stock designs the paper compares (Loom at 1, 2 and 4 bits per cycle).
ACCELERATORS: Tuple[Dict[str, object], ...] = (
    {"kind": "dpnn"},
    {"kind": "stripes"},
    {"kind": "dstripes"},
    {"kind": "loom", "bits_per_cycle": 1},
    {"kind": "loom", "bits_per_cycle": 2},
    {"kind": "loom", "bits_per_cycle": 4},
)

EQUIVALENT_MACS: Tuple[int, ...] = (32, 64, 128, 256, 512)

#: 0.500 to 2.499 GHz in 1 MHz steps: the axis that makes the space large
#: enough that a run never has to repeat a point.
CLOCKS_GHZ: Tuple[float, ...] = tuple(k / 1000 for k in range(500, 2500))

ABIN_BYTES: Tuple[int, ...] = tuple(1024 << j for j in range(8))

_AXES = (NETWORKS, ACCELERATORS, EQUIVALENT_MACS, CLOCKS_GHZ, ABIN_BYTES)

SPACE_SIZE = 1
for _axis in _AXES:
    SPACE_SIZE *= len(_axis)


def point_at(index: int) -> Dict[str, object]:
    """The point with mixed-radix ``index`` (0 <= index < SPACE_SIZE)."""
    if not 0 <= index < SPACE_SIZE:
        raise IndexError(f"point index {index} outside [0, {SPACE_SIZE})")
    digits: List[int] = []
    for axis in reversed(_AXES):
        index, digit = divmod(index, len(axis))
        digits.append(digit)
    net, acc, macs, clock, abin = reversed(digits)
    return {
        "network": NETWORKS[net],
        "accelerator": dict(ACCELERATORS[acc]),
        "equivalent_macs": EQUIVALENT_MACS[macs],
        "clock_ghz": CLOCKS_GHZ[clock],
        "abin_bytes": ABIN_BYTES[abin],
    }


class PointStream:
    """Thread-safe source of never-repeated point indices for one seed.

    Draws are uniform over the space with rejection of earlier draws; the
    space holds some thirty times the points a 40-second in-process run
    consumes, so rejections stay rare.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"perfbench-stream-{seed}")
        self._seen: set = set()
        self._lock = threading.Lock()

    def take(self, count: int) -> List[int]:
        """The next ``count`` indices (never returned before by this stream)."""
        with self._lock:
            if len(self._seen) + count > SPACE_SIZE // 2:
                raise RuntimeError("point space exhausted for this stream")
            indices: List[int] = []
            while len(indices) < count:
                index = self._rng.randrange(SPACE_SIZE)
                if index not in self._seen:
                    self._seen.add(index)
                    indices.append(index)
            return indices


def working_set(seed: int, size: int) -> List[int]:
    """``size`` distinct point indices: the first draws of the seed's stream."""
    return PointStream(seed).take(size)
