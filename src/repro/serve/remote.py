"""Execute :class:`~repro.sim.jobs.SimJob` batches through a remote service.

:class:`RemoteExecutor` is a drop-in stand-in for
:class:`~repro.sim.jobs.JobExecutor` wherever only the ``run(jobs)``
contract matters -- in particular :class:`repro.explore.engine.
PointEvaluator`, which is how ``loom-repro explore --remote URL`` runs a
whole design-space sweep against a warm server: every sweep, from every
client, lands in (and is answered from) the *same* persistent store, so the
second user's exploration starts where the first one's left off.

Jobs cross the wire as design-point mappings
(:func:`repro.explore.space.job_to_point`), whose content keys provably
round-trip; results come back as full
:class:`~repro.sim.results.NetworkResult` payloads, bit-identical to an
in-process run.  ``stats`` mirrors :class:`~repro.sim.jobs.ExecutorStats`
from the client's perspective: a server-side store/coalescing answer counts
as a cache hit here, because this process never simulated anything.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, List, Union

from repro.obs.trace import get_tracer
from repro.serve.client import ServeClient, ServeError, compute_backoff
from repro.sim.jobs import ExecutorStats
from repro.sim.results import NetworkResult

__all__ = ["RemoteExecutor"]


class RemoteExecutor:
    """JobExecutor-shaped facade that submits batches to a serve endpoint.

    429 backpressure responses -- and 503 transport failures (connection
    refused while a shard restarts, surfaced as ``ServeError(503)`` by the
    client) -- are retried with capped exponential backoff plus jitter
    (:func:`~repro.serve.client.compute_backoff`), honouring the server's
    ``Retry-After`` hint as a floor, up to ``max_retries`` per batch -- so
    a sweep run against a busy (or briefly restarting) server queues
    politely instead of failing, and a crowd of refused clients does not
    retry in lockstep.

    With ``stream=True`` batches go through
    :meth:`ServeClient.submit_points_stream`, consuming results as the
    server resolves them (NDJSON against a cluster coordinator; plain JSON
    servers degrade transparently).
    """

    def __init__(self, client: Union[ServeClient, str],
                 batch_size: int = 64, max_retries: int = 30,
                 stream: bool = False) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.client = (ServeClient(client) if isinstance(client, str)
                       else client)
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.stream = stream
        self.stats = ExecutorStats()
        #: Times a batch was refused with 429 and retried.
        self.backpressure_retries = 0
        #: Times a batch hit a 503 transport failure and was retried.
        self.transport_retries = 0
        #: The executor protocol executors expose; a remote executor holds no
        #: local result cache (the server's store is the cache).
        self.cache = None
        # Injectable for deterministic tests.
        self._sleep = time.sleep
        self._rng: random.Random = random.Random()

    def _submit_with_retry(self, chunk):
        submit = (self.client.submit_points_stream if self.stream
                  else self.client.submit_points)
        for attempt in range(self.max_retries + 1):
            try:
                return submit(chunk)
            except ServeError as error:
                if error.status not in (429, 503) \
                        or attempt == self.max_retries:
                    raise
                if error.status == 429:
                    self.backpressure_retries += 1
                else:
                    self.transport_retries += 1
                self._sleep(compute_backoff(
                    attempt, retry_after_s=error.retry_after_s,
                    rng=self._rng))

    def run(self, jobs: Iterable[object]) -> List[NetworkResult]:
        """Submit ``jobs`` to the server; results in submission order.

        The server executes with its own engine setting; every engine is
        bit-identical by contract, so results are unaffected.
        """
        from repro.explore.space import job_to_point

        jobs = list(jobs)
        points = [job_to_point(job) for job in jobs]
        self.stats.submitted += len(jobs)
        results: List[NetworkResult] = []
        tracer = get_tracer()
        with tracer.span("remote.run", jobs=len(jobs),
                         endpoint=self.client.base_url):
            for start in range(0, len(points), self.batch_size):
                chunk = points[start:start + self.batch_size]
                # One span per wire batch; the ServeClient forwards this
                # context as a traceparent header, so the server's request
                # span becomes this span's child.
                with tracer.span("remote.submit", points=len(chunk)):
                    entries = self._submit_with_retry(chunk)
                for entry in entries:
                    if entry.status == "executed":
                        self.stats.record_execution(entry.key)
                    else:  # "cached"/"coalesced": the server reused a result
                        self.stats.cache_hits += 1
                    results.append(entry.result)
        return results

    def close(self) -> None:
        """Nothing to release locally; present for executor-protocol parity."""

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
