"""repro.cluster: a sharded serve cluster with consistent-hash routing.

A :class:`ClusterWorker` is the one HTTP node: ``loom-repro serve`` runs a
single one, and this package makes the service horizontal.  A
:class:`ClusterCoordinator` consistent-hash
routes job content keys across N :class:`ClusterWorker` shards (each a warm
:class:`~repro.serve.core.ServiceCore` with its own executor and store),
merges shard answers back in submission order -- bit-identical to an
in-process run -- and streams long sweeps back incrementally (NDJSON for
``/jobs``, SSE for ``/explore``).  Per-client token-bucket rate limiting
guards the front door, every node serves Prometheus-text ``/metrics``, and
a worker that dies mid-batch has its keys re-routed to the survivors.

Start one locally with ``loom-repro cluster --workers 2``, or embed:

>>> from repro.cluster import ClusterCoordinator, ClusterWorker
>>> with ClusterWorker() as w1, ClusterWorker() as w2:
...     with ClusterCoordinator([w1.url, w2.url]) as coordinator:
...         ...  # point ServeClient / RemoteExecutor at coordinator.url
"""

from repro.cluster.aio import (
    AsyncHTTPServer,
    HTTPReply,
    HTTPRequest,
    HTTPResponder,
    RequestError,
    fetch,
    fetch_json,
)
from repro.cluster.coordinator import ClusterCoordinator, ShardState
from repro.cluster.peercache import PeerCacheBackend
from repro.cluster.ratelimit import RateLimitDecision, RateLimiter, TokenBucket
from repro.cluster.ring import ConsistentHashRing
from repro.cluster.worker import ClusterWorker

__all__ = [
    "AsyncHTTPServer",
    "ClusterCoordinator",
    "ClusterWorker",
    "ConsistentHashRing",
    "HTTPReply",
    "HTTPRequest",
    "HTTPResponder",
    "PeerCacheBackend",
    "RateLimitDecision",
    "RateLimiter",
    "RequestError",
    "ShardState",
    "TokenBucket",
    "fetch",
    "fetch_json",
]
