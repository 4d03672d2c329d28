"""Declarative simulation-job pipeline: specs, result cache and executor.

The experiment harnesses *declare* their simulation matrix as
:class:`SimJob` specs -- (network, precision profile) x (accelerator kind,
options) x :class:`~repro.accelerators.base.AcceleratorConfig` -- and hand
the batch to a :class:`JobExecutor`, which answers repeated jobs from a
deterministic content-keyed :class:`ResultCache`, deduplicates identical
jobs within a batch, and returns results in submission order.

Quick tour::

    from repro.serve import SQLiteResultStore
    from repro.sim.jobs import (
        AcceleratorSpec, JobExecutor, NetworkSpec, ResultCache, SimJob,
    )

    jobs = [
        SimJob(network=NetworkSpec("alexnet", "100%"),
               accelerator=AcceleratorSpec.create("loom", bits_per_cycle=1)),
        SimJob(network=NetworkSpec("alexnet", "100%"),
               accelerator=AcceleratorSpec.create("dpnn")),
    ]
    store = SQLiteResultStore("~/.cache/loom/results.db")
    with JobExecutor(cache=ResultCache(backend=store)) as ex:
        loom, dpnn = ex.run(jobs)

``loom-repro`` installs one shared executor per invocation, so ``all`` runs
every unique job exactly once across all of its tables and figures.
"""

from repro.sim.jobs.cache import (
    CachedResult,
    CacheStats,
    ResultCache,
)
from repro.sim.jobs.executor import (
    ExecutorStats,
    JobEvent,
    JobExecutor,
    get_default_executor,
    set_default_executor,
    use_executor,
)
from repro.sim.jobs.spec import (
    ACCELERATOR_KINDS,
    AcceleratorSpec,
    NetworkSpec,
    SimJob,
    build_accelerator,
    build_spec_network,
    execute_job,
    job_key,
    network_kind_counts,
    network_layer_counts,
    spec_dict,
    spec_payload,
)

__all__ = [
    "ACCELERATOR_KINDS",
    "AcceleratorSpec",
    "CacheStats",
    "CachedResult",
    "ExecutorStats",
    "JobEvent",
    "JobExecutor",
    "NetworkSpec",
    "ResultCache",
    "SimJob",
    "build_accelerator",
    "build_spec_network",
    "execute_job",
    "get_default_executor",
    "job_key",
    "network_kind_counts",
    "network_layer_counts",
    "set_default_executor",
    "spec_dict",
    "spec_payload",
    "use_executor",
]
