"""Benchmark: cache-aware design-space sweeps vs naive re-simulation.

Two execution styles for the same exploration workload (an exhaustive grid
sweep followed by an adaptive coordinate-descent search over the same space,
which is how a sweep is actually used -- broad pass first, refinement after):

* **naive** -- every search gets a fresh, cache-less executor, the way a
  hand-rolled experiment script re-simulates its matrix from scratch;
* **cache-aware** -- both searches share one cached :class:`JobExecutor`
  (what ``loom-repro explore`` does per invocation), so the refinement pass
  answers every revisited point from the cache.

Run under pytest (``python -m pytest benchmarks/bench_explore.py``) for the
measured artefact, or as a script (``python benchmarks/bench_explore.py
[--quick]``) for the CI smoke check, which asserts the simulation counts
rather than wall-clock so it is robust on noisy runners.

Script mode is also the CI regression gate::

    python benchmarks/bench_explore.py \
        --output BENCH_explore.json \
        --check benchmarks/BENCH_baseline_explore.json

which gates the *simulation-reduction ratio* (naive / cache-aware executed
counts -- fully deterministic) against the committed baseline: any change
that makes the shared executor re-simulate points it used to answer from
the cache fails the gate.

A second scenario (``--scenario surrogate``) measures surrogate-guided
exploration against the exhaustive grid over a 640-point space: the
:class:`SurrogateSearch` strategy must land within ``REGRET_CAP`` of the
grid's best composite score while issuing at most ``FRACTION_CAP`` of the
grid's true simulations, and every point it does simulate must be
bit-identical to the grid's result for the same point.  Gate it in CI with::

    python benchmarks/bench_explore.py --scenario surrogate \
        --output BENCH_explore_surrogate.json \
        --check benchmarks/BENCH_baseline_explore_surrogate.json
"""

import argparse
import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # script mode; pytest gets this from conftest.py
    sys.path.insert(0, _SRC)

from repro.explore import (
    Axis,
    CoordinateDescentSearch,
    SweepSpec,
    explore,
    resolve_objectives,
    resolve_strategy,
    scalar_score,
)
from repro.memo import clear_memos
from repro.sim.jobs import JobExecutor


def _sweep_space(quick: bool) -> SweepSpec:
    if quick:
        axes = [
            Axis("equivalent_macs", (32, 64)),
            Axis("accelerator", ("loom", "dstripes")),
        ]
    else:
        axes = [
            Axis("equivalent_macs", (32, 64, 128, 256)),
            Axis("accelerator", ("loom", "loom:bits_per_cycle=2",
                                 "loom:bits_per_cycle=4", "dstripes")),
            Axis("network", ("alexnet", "nin", "googlenet")),
        ]
    base = {"network": "alexnet"} if quick else {}
    return SweepSpec(axes=axes, base=base)


def _run_workload(space, make_executor):
    """Grid sweep + adaptive refinement; returns (simulations, frontiers)."""
    executed = 0
    frontiers = []
    for strategy in ("grid", CoordinateDescentSearch(seed=0)):
        with make_executor() as executor:
            result = explore(space, strategy=strategy, executor=executor)
            executed += executor.stats.executed
            frontiers.append(
                tuple(sorted(ep.point.label() for ep in result.frontier))
            )
    return executed, frontiers


def _run_workload_shared(space):
    executed_markers = []
    frontiers = []
    with JobExecutor() as executor:
        for strategy in ("grid", CoordinateDescentSearch(seed=0)):
            result = explore(space, strategy=strategy, executor=executor)
            frontiers.append(
                tuple(sorted(ep.point.label() for ep in result.frontier))
            )
        executed_markers = executor.stats.executed
        assert executor.stats.max_executions_per_key == 1
    return executed_markers, frontiers


def measure(quick: bool = False):
    """Time and count both styles; returns a dict of measurements."""
    space = _sweep_space(quick)

    clear_memos()
    start = time.perf_counter()
    naive_executed, naive_frontiers = _run_workload(
        space, lambda: JobExecutor(cache=None))
    naive_wall = time.perf_counter() - start

    clear_memos()
    start = time.perf_counter()
    cached_executed, cached_frontiers = _run_workload_shared(space)
    cached_wall = time.perf_counter() - start

    assert naive_frontiers == cached_frontiers, (
        "cache-aware sweep changed the reported frontier"
    )
    assert cached_executed < naive_executed, (
        f"cache-aware sweep ran {cached_executed} simulations, naive ran "
        f"{naive_executed}; caching saved nothing"
    )
    return {
        "benchmark": "explore-cache-reuse",
        "quick": quick,
        "points": len(space.points()),
        "naive_executed": naive_executed,
        "cached_executed": cached_executed,
        "simulation_reduction": naive_executed / cached_executed,
        "naive_wall": naive_wall,
        "cached_wall": cached_wall,
    }


#: Fraction of the baseline simulation-reduction ratio the measured ratio
#: may lose before the regression gate fails.  The counts are deterministic,
#: so any loss at all is a real behaviour change; the tolerance only leaves
#: room for intentional small workload adjustments to land with a baseline
#: refresh in the same change.
REGRESSION_TOLERANCE = 0.20

#: Hard caps for the surrogate scenario: the surrogate's best composite
#: score may trail the exhaustive grid's by at most REGRET_CAP, while
#: issuing at most FRACTION_CAP of the grid's true simulations.
REGRET_CAP = 0.05
FRACTION_CAP = 0.10

#: Absolute regret slack vs the committed surrogate baseline.  The proposal
#: sequence is deterministic in-process, but near-tie acquisition scores can
#: flip across BLAS builds; the hard caps above do the real gating, the
#: baseline comparison only catches drifts that stay under the cap.
SURROGATE_REGRET_SLACK = 0.02


def _surrogate_space(quick: bool) -> SweepSpec:
    """A wide single-network space where exhaustive search is wasteful.

    The full space crosses 10 accelerator designs with 64 distinct
    configurations (640 points); baselines dedupe per configuration, so the
    grid needs 704 true simulations and a budgeted surrogate at most 64.
    """
    megabyte = 1 << 20
    if quick:
        axes = [
            Axis("accelerator", ("loom", "loom:bits_per_cycle=2",
                                 "stripes", "dstripes")),
            Axis("equivalent_macs", (32, 64)),
            Axis("am_capacity_bytes", (megabyte, 2 * megabyte)),
        ]
    else:
        axes = [
            Axis("accelerator", (
                "loom",
                "loom:bits_per_cycle=2",
                "loom:bits_per_cycle=4",
                "loom:bits_per_cycle=2:window_fanout=2",
                "loom:bits_per_cycle=4:window_fanout=2",
                "loom:bits_per_cycle=2:use_cascading=false",
                "loom:bits_per_cycle=4:use_cascading=false",
                "loom:replicate_filters=true",
                "stripes",
                "dstripes",
            )),
            Axis("equivalent_macs", (32, 64, 128, 256)),
            Axis("am_capacity_bytes", (megabyte, 2 * megabyte,
                                       4 * megabyte, 8 * megabyte)),
            Axis("wm_capacity_bytes", (megabyte, 4 * megabyte)),
            Axis("dram", ("lpddr4-4267", None)),
        ]
    return SweepSpec(axes=axes, base={"network": "alexnet"})


def measure_surrogate(quick: bool = False):
    """Grid reference vs budgeted surrogate search; returns a dict.

    Both runs get their own cold executor, so the executed counts are true
    simulation counts (design + deduplicated baselines).  Every point the
    surrogate evaluates is asserted bit-identical to the grid's metrics for
    the same point before any score is compared.
    """
    space = _surrogate_space(quick)
    objectives = resolve_objectives(("speedup", "energy_efficiency", "area"))
    budget = 8 if quick else 32
    surrogate = resolve_strategy(
        "surrogate", seed=0,
        initial=4 if quick else 12,
        batch=2 if quick else 5,
        rounds=2 if quick else 4,
    )

    clear_memos()
    start = time.perf_counter()
    with JobExecutor() as executor:
        grid_result = explore(space, strategy="grid", executor=executor)
        grid_executed = executor.stats.executed
    grid_wall = time.perf_counter() - start

    clear_memos()
    start = time.perf_counter()
    with JobExecutor() as executor:
        surrogate_result = explore(space, strategy=surrogate,
                                   executor=executor, budget=budget)
        surrogate_executed = executor.stats.executed
    surrogate_wall = time.perf_counter() - start

    grid_metrics = {ep.point: ep.metrics for ep in grid_result.evaluated}
    for ep in surrogate_result.evaluated:
        assert ep.metrics == grid_metrics[ep.point], (
            f"surrogate result for {ep.point.label()} differs from the grid"
        )
    assert len(surrogate_result.evaluated) <= budget

    best_grid = max(scalar_score(ep.metrics, objectives)
                    for ep in grid_result.evaluated)
    best_surrogate = max(scalar_score(ep.metrics, objectives)
                         for ep in surrogate_result.evaluated)
    regret = 1.0 - best_surrogate / best_grid
    fraction = surrogate_executed / grid_executed
    return {
        "benchmark": "explore-surrogate",
        "quick": quick,
        "points": len(space.points()),
        "budget": budget,
        "grid_executed": grid_executed,
        "surrogate_executed": surrogate_executed,
        "simulation_fraction": fraction,
        "frontier_regret": regret,
        "grid_wall": grid_wall,
        "surrogate_wall": surrogate_wall,
    }


def check_surrogate(measured, baseline=None) -> str:
    """Enforce the surrogate caps (and drift vs ``baseline`` when given)."""
    regret = measured["frontier_regret"]
    fraction = measured["simulation_fraction"]
    verdict = (
        f"regret {regret:.4f} (cap {REGRET_CAP}), simulation fraction "
        f"{fraction:.4f} (cap {FRACTION_CAP})"
    )
    if regret > REGRET_CAP:
        raise AssertionError(f"surrogate regret above cap: {verdict}")
    if fraction > FRACTION_CAP:
        raise AssertionError(f"surrogate simulated too much: {verdict}")
    if baseline is not None:
        allowed = baseline["frontier_regret"] + SURROGATE_REGRET_SLACK
        if regret > allowed:
            raise AssertionError(
                f"surrogate regret drifted: {regret:.4f} vs baseline "
                f"{baseline['frontier_regret']:.4f} (+{SURROGATE_REGRET_SLACK}"
                " slack)"
            )
        if measured["surrogate_executed"] > baseline["surrogate_executed"]:
            raise AssertionError(
                f"surrogate executed {measured['surrogate_executed']} "
                f"simulations, baseline {baseline['surrogate_executed']}"
            )
        verdict += (f"; baseline regret {baseline['frontier_regret']:.4f}, "
                    f"{baseline['surrogate_executed']} simulations")
    return verdict


def check_against_baseline(measured, baseline,
                           tolerance: float = REGRESSION_TOLERANCE) -> str:
    """Raise if the simulation-reduction ratio regressed vs ``baseline``."""
    baseline_ratio = baseline["simulation_reduction"]
    measured_ratio = measured["simulation_reduction"]
    floor = baseline_ratio * (1.0 - tolerance)
    verdict = (
        f"baseline reduction {baseline_ratio:.2f}x, measured "
        f"{measured_ratio:.2f}x (gate: >= {floor:.2f}x)"
    )
    if measured_ratio < floor:
        raise AssertionError(f"benchmark regression: {verdict}")
    return verdict


def _format(measured) -> str:
    ratio = measured["simulation_reduction"]
    return (
        "== repro.explore: cache-aware sweep vs naive re-simulation ==\n"
        f"{measured['points']}-point space, grid sweep + coordinate descent\n"
        f"naive:       {measured['naive_executed']} simulations, "
        f"{measured['naive_wall']:.3f}s\n"
        f"cache-aware: {measured['cached_executed']} simulations, "
        f"{measured['cached_wall']:.3f}s\n"
        f"simulation reduction: {ratio:.2f}x"
    )


def _format_surrogate(measured) -> str:
    return (
        "== repro.explore: surrogate search vs exhaustive grid ==\n"
        f"{measured['points']}-point space, budget "
        f"{measured['budget']} evaluations\n"
        f"grid:      {measured['grid_executed']} simulations, "
        f"{measured['grid_wall']:.3f}s\n"
        f"surrogate: {measured['surrogate_executed']} simulations, "
        f"{measured['surrogate_wall']:.3f}s\n"
        f"simulation fraction: {measured['simulation_fraction']:.4f} "
        f"(cap {FRACTION_CAP})\n"
        f"frontier regret:     {measured['frontier_regret']:.4f} "
        f"(cap {REGRET_CAP})"
    )


def test_bench_explore_cache_reuse(artefacts):
    measured = measure(quick=False)
    artefacts["explore-cache-reuse"] = _format(measured)
    # The adaptive refinement must be (nearly) free on the shared executor;
    # wall-clock is asserted loosely since counts are the robust signal.
    assert measured["cached_executed"] < measured["naive_executed"]
    assert measured["cached_wall"] < measured["naive_wall"] * 1.5


def test_bench_explore_surrogate(artefacts):
    measured = measure_surrogate(quick=False)
    artefacts["explore-surrogate"] = _format_surrogate(measured)
    check_surrogate(measured)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=("cache", "surrogate"),
                        default="cache",
                        help="cache: cache-aware vs naive sweeps (default); "
                             "surrogate: surrogate search vs exhaustive grid")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sweep for CI smoke runs")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the measurements as JSON to PATH")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail on regression vs BASELINE (JSON): the "
                             "simulation-reduction ratio for the cache "
                             "scenario, the regret/fraction caps for the "
                             "surrogate scenario")
    args = parser.parse_args(argv)
    if args.scenario == "surrogate":
        measured = measure_surrogate(quick=args.quick)
        print(_format_surrogate(measured))
    else:
        measured = measure(quick=args.quick)
        print(_format(measured))
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"measurements written to {args.output}")
    baseline = None
    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        if baseline.get("quick", False) != args.quick:
            raise AssertionError(
                "baseline was measured with a different --quick setting; "
                "the simulation counts are not comparable"
            )
    if args.scenario == "surrogate":
        # The quick space is too small for the fraction cap to be meaningful;
        # quick mode stops at the bit-identity assertions inside the measure.
        if not args.quick:
            print("regression gate:", check_surrogate(measured, baseline))
    elif baseline is not None:
        print("regression gate:", check_against_baseline(measured, baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
