"""Simulation infrastructure: results, metrics, the cycle engine and the runner.

* :mod:`repro.sim.results` -- dataclasses describing what one accelerator did
  for one layer / one network (cycles, traffic, energy) and helpers to compare
  two accelerators (speedup, energy efficiency).
* :mod:`repro.sim.metrics` -- geometric means and other aggregation helpers
  used by the paper's tables.
* :mod:`repro.sim.engine` -- a small cycle-level engine used by the
  tile-level simulators.
* :mod:`repro.sim.runner` -- walks a network (with a bound precision profile)
  through any accelerator model and aggregates the per-layer results.
* :mod:`repro.sim.jobs` -- the declarative job pipeline: ``SimJob`` specs, a
  content-keyed result cache and the ``JobExecutor`` the experiment
  harnesses run on.
* :mod:`repro.sim.batched` -- the vector engine (the default ``--engine
  vector``): the closed forms evaluated over whole (design x job x layer)
  planes, bit-identical to the per-layer reference (``--engine event``).
* :mod:`repro.sim.validate` -- the differential harness asserting that the
  two engines agree cycle for cycle (and that Loom's analytical schedules
  match the event-driven tile simulator).
"""

from repro.sim.results import (
    LayerResult,
    NetworkResult,
    ComparisonResult,
    compare,
    combine_layer_results,
)
from repro.sim.metrics import geomean, speedup, efficiency_ratio, harmonic_mean
from repro.sim.engine import CycleEngine, Event
from repro.sim.runner import AcceleratorRunner, run_network, LayerSelection
from repro.sim.jobs import (
    AcceleratorSpec,
    JobExecutor,
    NetworkSpec,
    ResultCache,
    SimJob,
    get_default_executor,
    job_key,
    set_default_executor,
    use_executor,
)
from repro.sim.batched import (
    ENGINES,
    BatchedLayerTable,
    LayerTable,
    build_layer_table,
    get_default_engine,
    set_default_engine,
    simulate_jobs_batched,
    simulate_layer_table,
    stack_layer_tables,
    supports_vector_engine,
    use_engine,
)
from repro.sim.report import (
    layer_breakdown,
    comparison_table,
    bottleneck_summary,
    markdown_table,
    to_csv,
    BottleneckSummary,
)

__all__ = [
    "LayerResult",
    "NetworkResult",
    "ComparisonResult",
    "compare",
    "combine_layer_results",
    "geomean",
    "speedup",
    "efficiency_ratio",
    "harmonic_mean",
    "CycleEngine",
    "Event",
    "AcceleratorRunner",
    "run_network",
    "LayerSelection",
    "AcceleratorSpec",
    "JobExecutor",
    "NetworkSpec",
    "ResultCache",
    "SimJob",
    "get_default_executor",
    "job_key",
    "set_default_executor",
    "use_executor",
    "ENGINES",
    "BatchedLayerTable",
    "LayerTable",
    "build_layer_table",
    "get_default_engine",
    "set_default_engine",
    "simulate_jobs_batched",
    "simulate_layer_table",
    "stack_layer_tables",
    "supports_vector_engine",
    "use_engine",
    "layer_breakdown",
    "comparison_table",
    "bottleneck_summary",
    "markdown_table",
    "to_csv",
    "BottleneckSummary",
]
