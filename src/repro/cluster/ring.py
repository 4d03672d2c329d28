"""Consistent-hash ring: stable job-key -> shard routing.

The coordinator routes every job by its *content key* so that all
submissions of one (network, accelerator, configuration) land on the same
worker -- and therefore in the same warm executor and SQLite store -- no
matter which client sends them or when.  A plain ``hash(key) % N`` would
reshuffle almost every key when a worker joins or dies; a consistent-hash
ring with virtual nodes moves only ``~1/N`` of the keyspace instead, so a
worker loss invalidates one shard's warmth, not the whole cluster's.

Implementation notes:

* Hashing is ``blake2b`` (stdlib, fast, stable across processes and Python
  versions -- unlike ``hash()``, which is salted per process).
* Each node is planted at ``replicas`` positions ("virtual nodes") so the
  keyspace splits evenly even with 2-3 physical workers.
* Lookup is a binary search over the sorted positions; ``O(log(N *
  replicas))`` per key.
* ``node_for(key, exclude=...)`` supports the coordinator's
  retry-on-another-shard path: when a worker dies mid-batch its keys are
  re-routed exactly as if the node had been removed, without mutating the
  ring (the node may come back at the next health check).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["ConsistentHashRing"]


def _position(token: str) -> int:
    """Stable 64-bit ring position for ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Maps keys onto nodes; stable under node addition and removal.

    Parameters
    ----------
    nodes:
        Initial node names (any hashable strings -- the cluster uses worker
        base URLs).
    replicas:
        Virtual nodes planted per physical node.  More replicas = smoother
        key distribution at slightly larger lookup tables; 64 keeps the
        per-shard share within a few percent of ideal for small clusters.
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._nodes: Set[str] = set()
        self._positions: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    # -- membership -----------------------------------------------------------

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Plant ``node`` at its virtual positions (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            position = _position(f"{node}#{replica}")
            index = bisect.bisect(self._positions, position)
            # Ties between distinct nodes are broken deterministically by
            # insertion at the same position in name order; with a 64-bit
            # space they are astronomically unlikely anyway.
            self._positions.insert(index, position)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Remove ``node`` and every virtual position it owns (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [(p, o) for p, o in zip(self._positions, self._owners)
                if o != node]
        self._positions = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- routing --------------------------------------------------------------

    def node_for(self, key: str,
                 exclude: Optional[Set[str]] = None) -> Optional[str]:
        """The node owning ``key``, or ``None`` when no eligible node exists.

        ``exclude`` routes *as if* those nodes were removed (walking
        clockwise past their positions), which is exactly the re-route a
        failed shard's keys take -- without mutating the ring, so the node's
        ownership is restored the moment it stops being excluded.
        """
        if not self._positions:
            return None
        eligible = self._nodes - (exclude or set())
        if not eligible:
            return None
        start = bisect.bisect(self._positions, _position(key)) \
            % len(self._positions)
        for offset in range(len(self._positions)):
            owner = self._owners[(start + offset) % len(self._positions)]
            if owner in eligible:
                return owner
        return None  # pragma: no cover - eligible is non-empty above

    def assign(self, keys: Sequence[str],
               exclude: Optional[Set[str]] = None) -> dict:
        """Group ``keys`` by owning node: ``{node: [key, ...]}`` (key order
        preserved within each node; keys with no eligible owner are absent)."""
        groups: dict = {}
        for key in keys:
            node = self.node_for(key, exclude=exclude)
            if node is not None:
                groups.setdefault(node, []).append(key)
        return groups
