"""``repro.serve``: a batching simulation service with a persistent store.

Every ``loom-repro`` subcommand is a one-shot batch process: it pays
interpreter start, imports, profiled-network construction and cache warm-up
on every invocation.  This package keeps those ingredients *hot* in one
long-running process:

* :class:`~repro.serve.store.SQLiteResultStore` -- the one persistent
  store, behind a :class:`~repro.sim.jobs.ResultCache`'s memory tier: every
  simulated result in a single WAL-mode SQLite database, with concurrent
  readers, schema versioning and an optional LRU entry bound.  A cluster
  worker adds a peer tier
  (:class:`~repro.cluster.peercache.PeerCacheBackend`) on its miss path;
  it runs on the worker's own event loop.
* :class:`~repro.serve.core.ServiceCore` -- the HTTP-independent node core:
  request coalescing (N concurrent identical submissions simulate once), a
  bounded in-flight queue with 429 + ``Retry-After`` backpressure, sweep
  execution and the ``/stats`` counters, plus the request parsers every
  node shares.  ``loom-repro serve`` fronts one core with one
  :class:`~repro.cluster.worker.ClusterWorker` (``POST /jobs``,
  ``GET /jobs/<key>``, ``POST /explore``, ``GET /networks``,
  ``GET /healthz``, ``GET /stats``, ``GET /metrics``, ``GET /trace``,
  ``POST /shutdown``).
* :class:`~repro.serve.client.ServeClient` -- a dependency-free client
  (``loom-repro submit`` / ``loom-repro stats --remote``).
* :class:`~repro.serve.remote.RemoteExecutor` -- a
  :class:`~repro.sim.jobs.JobExecutor`-shaped facade so design-space sweeps
  (``loom-repro explore --remote URL``) execute against the shared warm
  store.

Quick tour::

    from repro.cluster import ClusterWorker
    from repro.serve import ServeClient

    with ClusterWorker() as node:                  # port 0 = OS-assigned
        client = ServeClient(node.url)
        done = client.submit(network="alexnet", accelerator="loom")
        assert done.result.total_cycles() > 0

The served results are **bit-identical** to in-process
:func:`~repro.sim.jobs.execute_job` runs -- the same field-for-field
equality the engine validator enforces -- and a job's wire form is the same
design-point parameter namespace as ``loom-repro explore`` axes.
"""

from repro.serve.client import ServeClient, ServeError, SubmittedJob
from repro.serve.core import Backpressure, ServiceCore, ServiceStats
from repro.serve.remote import RemoteExecutor
from repro.serve.store import SQLiteResultStore

__all__ = [
    "Backpressure",
    "RemoteExecutor",
    "SQLiteResultStore",
    "ServeClient",
    "ServeError",
    "ServiceCore",
    "ServiceStats",
    "SubmittedJob",
]
