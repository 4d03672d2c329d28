"""Exploration engine: evaluate design points and assemble sweep results.

The :class:`PointEvaluator` turns :class:`~repro.explore.space.DesignPoint`\\ s
into metrics by dispatching the point's simulation *and* its baseline
simulation (same network and configuration on the reference design, DPNN by
default) through one shared :class:`~repro.sim.jobs.JobExecutor` -- so a sweep
of N points needs at most N + |distinct configs x networks| simulations, the
baselines dedupe across points, and everything lands in the result cache for
the next strategy round or the next invocation.

:func:`drive_search` is the single ask/tell driver loop every strategy runs
under: it owns evaluation (strategies only *propose* candidates and *observe*
results), the ``budget`` cap on true simulations and trace recording, so
adaptive strategies, the service's per-round streaming and budget accounting
all share one code path.

:func:`explore` is the one-call entry point: expand a spec, drive a search
strategy through :func:`drive_search`, rank the evaluated points by Pareto
dominance and return an :class:`ExplorationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.jobs import (
    AcceleratorSpec,
    SimJob,
    build_accelerator,
    get_default_executor,
)
from repro.sim.results import compare
from repro.explore.frontier import (
    Objective,
    dominance_ranks,
    resolve_objectives,
)
from repro.explore.space import DesignPoint, SweepSpec

__all__ = [
    "EvaluatedPoint",
    "PointEvaluator",
    "SearchState",
    "drive_search",
    "ExplorationResult",
    "explore",
]


@dataclass(frozen=True)
class EvaluatedPoint:
    """One design point with its measured metrics.

    ``metrics`` always contains ``cycles``, ``energy_pj``, ``fps``,
    ``speedup``, ``energy_efficiency``, ``area_mm2`` and ``area_ratio``
    (the last four relative to the evaluator's baseline design).
    """

    point: DesignPoint
    baseline: str
    metrics: Dict[str, float] = field(default_factory=dict)

    def metric(self, key: str) -> float:
        return self.metrics[key]

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (the ``loom-repro serve`` /explore wire format)."""
        from repro.explore.space import encode_parameter

        return {
            "point": {name: encode_parameter(name, value)
                      for name, value in self.point.items()},
            "baseline": self.baseline,
            "metrics": dict(self.metrics),
        }


class PointEvaluator:
    """Evaluates design points through a shared executor, with memoisation.

    Repeated evaluations of the same point (adaptive strategies revisit their
    current optimum constantly) are answered from an in-memory memo without
    touching the executor at all.
    """

    def __init__(self, space: SweepSpec, executor=None,
                 baseline: str = "dpnn") -> None:
        self.space = space
        self.executor = executor if executor is not None else get_default_executor()
        self.baseline_spec = AcceleratorSpec.create(baseline)
        self._memo: Dict[DesignPoint, EvaluatedPoint] = {}

    @property
    def evaluated_count(self) -> int:
        return len(self._memo)

    def known(self, point: DesignPoint) -> bool:
        """Whether ``point`` was already evaluated through this evaluator."""
        return point in self._memo

    def warm(self, points: Sequence[DesignPoint]) -> List[DesignPoint]:
        """The subset of ``points`` that cost no true simulation to evaluate.

        A point is *warm* when it is already memoised here, or when both its
        design job and its baseline job are answered by the executor's result
        cache (e.g. a previous sweep against the same on-disk store).  The
        budgeted driver treats warm points as free, and surrogate strategies
        seed their training set with them -- thousands of store-warm results
        are a free training corpus.
        """
        from repro.sim.jobs import job_key

        cache = getattr(self.executor, "cache", None)
        warm: List[DesignPoint] = []
        for point in points:
            if point in self._memo:
                warm.append(point)
                continue
            if cache is None:
                continue
            job = self.space.job(point)
            baseline = SimJob(network=job.network,
                              accelerator=self.baseline_spec,
                              config=job.config)
            # Presence only: ``in`` decodes nothing.
            if job_key(job) in cache and job_key(baseline) in cache:
                warm.append(point)
        return warm

    def evaluate(self, points: Sequence[DesignPoint]) -> List[EvaluatedPoint]:
        """Evaluate ``points`` (one batch through the executor); ordered 1:1."""
        fresh: List[DesignPoint] = []
        seen = set(self._memo)
        for point in points:
            if point not in seen:
                seen.add(point)
                fresh.append(point)
        if fresh:
            jobs: List[SimJob] = []
            for point in fresh:
                job = self.space.job(point)
                jobs.append(job)
                jobs.append(SimJob(network=job.network,
                                   accelerator=self.baseline_spec,
                                   config=job.config))
            results = self.executor.run(jobs)
            for index, point in enumerate(fresh):
                design_result = results[2 * index]
                baseline_result = results[2 * index + 1]
                self._memo[point] = self._evaluated(
                    point, design_result, baseline_result
                )
        return [self._memo[point] for point in points]

    def _evaluated(self, point, design_result, baseline_result) -> EvaluatedPoint:
        job = self.space.job(point)
        comparison = compare(design_result, baseline_result)
        design_area = build_accelerator(job.accelerator, job.config).total_area_mm2()
        baseline_area = build_accelerator(self.baseline_spec,
                                          job.config).total_area_mm2()
        metrics = {
            "cycles": design_result.total_cycles(),
            "energy_pj": design_result.total_energy_pj(),
            "fps": design_result.frames_per_second(),
            "speedup": comparison.speedup,
            "energy_efficiency": comparison.energy_efficiency,
            "area_mm2": design_area,
            "area_ratio": design_area / baseline_area,
        }
        return EvaluatedPoint(point=point, baseline=baseline_result.accelerator,
                              metrics=metrics)


class SearchState:
    """What the ask/tell driver shows a strategy between rounds.

    Attributes
    ----------
    space / objectives:
        The sweep being explored and the resolved objective tuple.
    budget:
        The cap on true simulations (``None`` = unlimited).
    spent:
        True simulations charged against the budget so far (stays 0 when no
        budget is set).
    rounds:
        ``propose()`` batches evaluated so far.
    trace:
        Every evaluated point in first-evaluation order, deduplicated -- the
        exact list :func:`drive_search` will return.  Treat it as read-only.
    """

    def __init__(self, space: SweepSpec, objectives: Sequence[Objective],
                 evaluator: PointEvaluator,
                 budget: Optional[int] = None) -> None:
        self.space = space
        self.objectives: Tuple[Objective, ...] = tuple(objectives)
        self.budget = budget
        self.spent = 0
        self.rounds = 0
        self.trace: List[EvaluatedPoint] = []
        self._evaluator = evaluator

    @property
    def remaining(self) -> Optional[int]:
        """True simulations the budget still allows (``None`` = unlimited)."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.spent)

    def known(self, point: DesignPoint) -> bool:
        """Whether ``point`` was already evaluated this run (free to revisit)."""
        return self._evaluator.known(point)

    def warm(self, points: Sequence[DesignPoint]) -> List[DesignPoint]:
        """Subset of ``points`` that are free (memoised or store-warm)."""
        return self._evaluator.warm(points)


def drive_search(
    strategy,
    space: SweepSpec,
    evaluator: PointEvaluator,
    objectives: Sequence[Objective],
    budget: Optional[int] = None,
) -> List[EvaluatedPoint]:
    """Run one search strategy through the ask/tell loop; returns the trace.

    The driver owns the propose -> evaluate -> observe loop: each round the
    strategy's :meth:`~repro.explore.search.SearchStrategy.propose` batch is
    deduplicated, trimmed to the remaining ``budget`` (points already
    measured this run and store-warm points stay free), evaluated in one
    executor batch, recorded into the trace (first-evaluation order,
    deduplicated) and handed back through ``observe()``.  An empty proposal
    batch ends the search.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    state = SearchState(space, objectives, evaluator, budget=budget)
    strategy.start(state)
    traced = set()
    while True:
        raw = list(strategy.propose(state))
        if not raw:
            break
        state.rounds += 1
        seen_in_batch = set()
        proposals = []
        for point in raw:
            if point not in seen_in_batch:
                seen_in_batch.add(point)
                proposals.append(point)
        kept, dropped = proposals, False
        if budget is not None:
            warm = set(evaluator.warm(proposals))
            kept = []
            for point in proposals:
                if evaluator.known(point) or point in warm:
                    kept.append(point)
                elif state.spent < budget:
                    state.spent += 1
                    kept.append(point)
                else:
                    dropped = True
        evaluated = evaluator.evaluate(kept)
        for ep in evaluated:
            if ep.point not in traced:
                traced.add(ep.point)
                state.trace.append(ep)
        strategy.observe(evaluated)
        if dropped and not kept:
            break  # budget exhausted and nothing in the batch was free
    return list(state.trace)


@dataclass
class ExplorationResult:
    """What one exploration run found.

    ``evaluated`` lists every point the strategy measured, in evaluation
    order; ``ranks`` aligns with it (0 = Pareto-optimal among the evaluated
    set); ``frontier`` is the rank-0 subset in the same order.
    """

    space: SweepSpec
    strategy: str
    objectives: Tuple[Objective, ...]
    evaluated: List[EvaluatedPoint]
    ranks: List[int]
    space_points: int

    @property
    def frontier(self) -> List[EvaluatedPoint]:
        return [ep for ep, rank in zip(self.evaluated, self.ranks) if rank == 0]

    def best(self, objective: Union[str, Objective]) -> EvaluatedPoint:
        """The single best evaluated point for one objective."""
        (resolved,) = resolve_objectives([objective]) \
            if not isinstance(objective, Objective) else (objective,)
        if not self.evaluated:
            raise ValueError("no evaluated points")
        chooser = max if resolved.maximize else min
        return chooser(self.evaluated, key=lambda ep: resolved.value(ep.metrics))

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (the ``loom-repro serve`` /explore wire format).

        ``evaluated`` and ``ranks`` stay aligned 1:1; the frontier is the
        rank-0 subset, so clients can reconstruct it without a second field.
        """
        return {
            "space": self.space.to_dict(),
            "strategy": self.strategy,
            "objectives": [objective.name for objective in self.objectives],
            "evaluated": [ep.to_dict() for ep in self.evaluated],
            "ranks": list(self.ranks),
            "space_points": self.space_points,
        }


def explore(
    space: SweepSpec,
    strategy: Union[str, "SearchStrategy", None] = None,
    objectives: Union[str, Sequence[Union[str, Objective]]] =
        ("speedup", "energy_efficiency", "area"),
    executor=None,
    baseline: str = "dpnn",
    budget: Optional[int] = None,
) -> ExplorationResult:
    """Run one design-space exploration end to end.

    Parameters
    ----------
    space:
        The sweep specification to explore.
    strategy:
        A strategy name (any key of :data:`~repro.explore.search.STRATEGIES`,
        e.g. ``"grid"``, ``"random"``, ``"coordinate"``, ``"surrogate"``), a
        :class:`~repro.explore.search.SearchStrategy` instance, or ``None``
        for exhaustive grid search.
    objectives:
        Objective names (or instances) to rank the frontier over.
    budget:
        Cap on true simulations the whole sweep may issue; points already
        measured this run or warm in the executor's result cache stay free.
        ``None`` (the default) means unlimited.
    executor:
        The shared :class:`~repro.sim.jobs.JobExecutor`; defaults to the
        process-wide one.
    baseline:
        Accelerator kind the relative metrics are measured against.

    Each strategy round's candidate set (and the deduplicated baselines)
    goes to the executor as one batch, which the default vector engine
    evaluates in one :func:`repro.sim.batched.simulate_jobs_batched` call.
    """
    from repro.explore.search import resolve_strategy

    resolved_objectives = resolve_objectives(objectives)
    resolved_strategy = resolve_strategy(strategy)
    evaluator = PointEvaluator(space, executor=executor, baseline=baseline)
    evaluated = drive_search(resolved_strategy, space, evaluator,
                             resolved_objectives, budget=budget)
    ranks = dominance_ranks(evaluated, resolved_objectives)
    return ExplorationResult(
        space=space,
        strategy=resolved_strategy.name,
        objectives=resolved_objectives,
        evaluated=evaluated,
        ranks=ranks,
        space_points=len(space.points()),
    )
