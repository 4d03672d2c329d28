"""Job executor: cached, deduplicated execution of simulation jobs.

:class:`JobExecutor` is the engine behind every experiment harness: it takes
a batch of declarative :class:`~repro.sim.jobs.spec.SimJob`\\ s, consults the
result cache, deduplicates identical jobs inside the batch, executes the
remainder -- as one :func:`repro.sim.batched.simulate_jobs_batched` call on
the vector engine, or job by job on the event engine -- and returns the
results *in job order*.

A process-wide default executor (in-memory cache) backs every
experiment ``run()`` that is not handed an explicit executor; the CLI
installs a shared one so that ``loom-repro all`` simulates each unique
(network, accelerator, configuration) job exactly once across all tables and
figures.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs.trace import get_tracer
from repro.sim.jobs.cache import ResultCache
from repro.sim.jobs.spec import SimJob, execute_job, job_key, spec_payload
from repro.sim.results import NetworkResult

__all__ = [
    "ExecutorStats",
    "JobEvent",
    "JobExecutor",
    "get_default_executor",
    "set_default_executor",
    "use_executor",
]


@dataclass
class ExecutorStats:
    """What an executor did over its lifetime.

    ``executed`` counts actual simulations; ``cache_hits`` jobs answered from
    the cache; ``dedup_hits`` duplicate jobs inside a batch that piggybacked
    on another job's execution.  ``executed_key_counts`` maps each content key
    to how many times it was simulated -- with a shared cache every count is 1,
    which is exactly what the pipeline tests assert.
    """

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    batched_jobs: int = 0
    executed_key_counts: Dict[str, int] = field(default_factory=dict)
    #: Cumulative wall seconds per execution phase (``cache_lookup``,
    #: ``layer_table_build``, ``simulate``) -- the
    #: "where did this request spend its time" answer, surfaced on /stats
    #: and as the ``loom_executor_phase_seconds`` histogram.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    phase_counts: Dict[str, int] = field(default_factory=dict)

    def record_execution(self, key: str) -> None:
        self.executed += 1
        self.executed_key_counts[key] = self.executed_key_counts.get(key, 0) + 1

    def record_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        self.phase_counts[phase] = self.phase_counts.get(phase, 0) + 1

    @property
    def max_executions_per_key(self) -> int:
        if not self.executed_key_counts:
            return 0
        return max(self.executed_key_counts.values())

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (what ``loom-repro serve`` reports on /stats).

        ``layer_table_hits`` / ``layer_table_builds`` surface the process-wide
        layer-table memo (:func:`repro.sim.jobs.spec.layer_table_cache_info`):
        a sweep that revisits the same networks should show hits climbing
        while builds stay flat.
        """
        from repro.sim.jobs.spec import layer_table_cache_info

        table_info = layer_table_cache_info()
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "batched_jobs": self.batched_jobs,
            "layer_table_hits": table_info["hits"],
            "layer_table_builds": table_info["builds"],
            "unique_keys_executed": len(self.executed_key_counts),
            "max_executions_per_key": self.max_executions_per_key,
            "phases": {
                phase: {
                    "seconds": round(self.phase_seconds[phase], 6),
                    "count": self.phase_counts.get(phase, 0),
                }
                for phase in sorted(self.phase_seconds)
            },
        }

    def summary(self, cache=None) -> str:
        """One-line human-readable account (the CLI's ``--verbose`` output)."""
        line = (f"pipeline: {self.submitted} jobs submitted, "
                f"{self.executed} simulated, {self.cache_hits} cache hits, "
                f"{self.dedup_hits} dedup hits")
        if cache is not None and cache.backend is not None:
            line += (f" ({cache.backend.describe()}: "
                     f"{cache.stats.disk_hits} hits, "
                     f"{cache.stats.stores} stores)")
        return line


@dataclass(frozen=True)
class JobEvent:
    """Progress notification for one job in a batch."""

    job: SimJob
    key: str
    status: str  # "cached", "deduplicated" or "executed"
    index: int
    total: int


#: Sentinel: "give this executor its own fresh in-memory cache".
_FRESH_CACHE = object()


class JobExecutor:
    """Runs batches of jobs with caching and dedup.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching entirely
        (every submitted job is executed, duplicates included).  Left at the
        default, each executor gets its own fresh in-memory cache.
    progress:
        Optional hook called with a :class:`JobEvent` as each job resolves.
    log:
        Optional ``callable(str)`` for human-readable progress lines.

    Jobs execute on the process-wide engine
    (:func:`repro.sim.batched.get_default_engine`) current at each ``run()``;
    both engines return bit-identical results.
    """

    def __init__(
        self,
        cache=_FRESH_CACHE,
        progress: Optional[Callable[[JobEvent], None]] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.cache: Optional[ResultCache] = (
            ResultCache() if cache is _FRESH_CACHE else cache
        )
        self.progress = progress
        self.log = log
        self.stats = ExecutorStats()
        #: Optional ``callable(phase, seconds)`` invoked on every phase
        #: sample -- the serve service and cluster worker point this at a
        #: ``loom_executor_phase_seconds{phase=...}`` histogram.
        self.phase_observer: Optional[Callable[[str, float], None]] = None

    @contextlib.contextmanager
    def _phase(self, phase: str, **attrs: object):
        """Time a named execution phase: stats + observer + a trace span."""
        started = time.perf_counter()
        with get_tracer().span(f"executor.{phase}", **attrs):
            try:
                yield
            finally:
                self._record_phase(phase, time.perf_counter() - started)

    def _record_phase(self, phase: str, seconds: float) -> None:
        self.stats.record_phase(phase, seconds)
        if self.phase_observer is not None:
            self.phase_observer(phase, seconds)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Nothing to release; kept so executors work as context managers."""

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run(self, jobs: Iterable[SimJob],
            probed: bool = False) -> List[NetworkResult]:
        """Execute ``jobs`` and return their results in submission order.

        Within the batch, jobs with identical content keys are simulated
        once; with a cache attached, jobs already answered by a previous
        batch are not simulated at all.  Progress events fire as each job
        resolves (cache lookups and executions as they happen; batch
        duplicates once the job they piggyback on has resolved).  A cached
        job's result is decoded from the cache's text; repeats of a key in
        one batch share one object.

        ``probed`` says the caller's :meth:`ResultCache.peek_many` has just
        missed every job's key, so the lookup asks memory again but not
        the backend (:meth:`ResultCache.recheck_many`): one store read per
        cold key, and each miss counted once.
        """
        from repro.sim.batched import get_default_engine

        jobs = list(jobs)
        with get_tracer().span("executor.run", jobs=len(jobs),
                               engine=get_default_engine()):
            return self._run(jobs, probed)

    def _run(self, jobs: List[SimJob],
             probed: bool) -> List[NetworkResult]:
        keys = [job_key(job) for job in jobs]
        total = len(jobs)
        self.stats.submitted += total

        def emit(job, key, status, index):
            if self.progress is not None:
                self.progress(JobEvent(job=job, key=key, status=status,
                                       index=index, total=total))

        if self.cache is None:
            # No cache: execute every submission, duplicates included.
            def on_result(index, result):
                self.stats.record_execution(keys[index])
                emit(jobs[index], keys[index], "executed", index)

            return self._execute_timed(jobs, on_result)

        resolved: Dict[str, NetworkResult] = {}
        statuses: Dict[str, str] = {}
        first_index: Dict[str, int] = {}
        for index, key in enumerate(keys):
            first_index.setdefault(key, index)
        pending: List[SimJob] = []
        pending_keys: List[str] = []
        with self._phase("cache_lookup", jobs=total):
            cached = (self.cache.recheck_many(first_index) if probed
                      else self.cache.get_many(first_index))
            for key, index in first_index.items():
                if key in cached:
                    resolved[key] = cached[key].result
                    statuses[key] = "cached"
                    emit(jobs[index], key, "cached", index)
                else:
                    statuses[key] = "executed"
                    pending.append(jobs[index])
                    pending_keys.append(key)

        if pending:
            if self.log is not None:
                self.log(
                    f"simulating {len(pending)} of {total} jobs "
                    f"({total - len(pending)} cached/deduplicated)"
                )
            # The audit spec on persistent entries (the key's preimage) is
            # only worth building when there is a store that keeps it.
            keep_spec = self.cache.backend is not None

            def on_result(position, result):
                job, key = pending[position], pending_keys[position]
                self.stats.record_execution(key)
                resolved[key] = result
                emit(job, key, "executed", first_index[key])

            fresh = self._execute_timed(pending, on_result)
            self.cache.put_many(
                (key, result, spec_payload(job) if keep_spec else None)
                for job, key, result in zip(pending, pending_keys, fresh))

        # Account and emit the remaining submissions: repeats of a cached key
        # are further cache hits; repeats of an executed key are dedup hits.
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if statuses[key] == "cached":
                self.stats.cache_hits += 1
                if index != first_index[key]:
                    emit(job, key, "cached", index)
            elif index != first_index[key]:
                self.stats.dedup_hits += 1
                emit(job, key, "deduplicated", index)
        return [resolved[key] for key in keys]

    def _execute_timed(self, jobs: Sequence[SimJob],
                       on_result) -> List[NetworkResult]:
        """Run jobs under the ``simulate`` phase, carving out table builds.

        ``layer_table_build`` is attributed from the process-wide memo's
        build clock: the delta over the batch is the time ``simulate`` spent
        (re)constructing layer tables.
        """
        from repro.sim.jobs.spec import layer_table_build_seconds

        build_before = layer_table_build_seconds()
        with self._phase("simulate", jobs=len(jobs)):
            results = self._execute(jobs, on_result)
        build_delta = layer_table_build_seconds() - build_before
        if build_delta > 0.0:
            self._record_phase("layer_table_build", build_delta)
        return results

    def _execute(self, jobs: Sequence[SimJob],
                 on_result) -> List[NetworkResult]:
        """Run ``jobs`` in order, invoking ``on_result(index, result)`` as
        each result is ready: the vector engine answers the whole batch in
        one call, the event engine streams job by job."""
        from repro.sim import batched

        if batched.get_default_engine() == "vector":
            self.stats.batched_jobs += len(jobs)
            produced = batched.simulate_jobs_batched(jobs)
        else:
            produced = (execute_job(job, engine="event") for job in jobs)
        results: List[NetworkResult] = []
        for index, result in enumerate(produced):
            on_result(index, result)
            results.append(result)
        return results


# -- process-wide default executor --------------------------------------------

_default_executor: Optional[JobExecutor] = None


def get_default_executor() -> JobExecutor:
    """The process-wide executor experiments fall back to (cached)."""
    global _default_executor
    if _default_executor is None:
        _default_executor = JobExecutor()
    return _default_executor


def set_default_executor(executor: Optional[JobExecutor]) -> Optional[JobExecutor]:
    """Install ``executor`` as the process-wide default; returns the previous one."""
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


@contextlib.contextmanager
def use_executor(executor: JobExecutor):
    """Temporarily make ``executor`` the default (restores the old one on exit)."""
    previous = set_default_executor(executor)
    try:
        yield executor
    finally:
        set_default_executor(previous)
