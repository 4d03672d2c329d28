"""Benchmark: one batched vector-engine call vs a loop of one-job calls.

A design-space sweep evaluates hundreds of jobs that share a handful of
network tables but differ in accelerator design point.  Called one job at a
time, :func:`repro.sim.batched.simulate_jobs_batched` pays a full
closed-form pass -- a few dozen NumPy calls over arrays with only 8..60
rows -- per job; called once with the whole sweep it merges structurally
compatible designs into one (design x job x layer) plane and pays that cost
once per plane.

Script mode is the CI benchmark gate::

    python benchmarks/bench_batched.py \
        --output BENCH_batched.json \
        --check benchmarks/BENCH_baseline_batched.json

measures the batched-vs-per-job speedup over a 240-point Loom design sweep
(scale x activation-memory x clock, AlexNet), writes the results as JSON,
asserts the >= 10x target, and -- when given a committed baseline -- fails
if the measured speedup regressed by more than 20%.  Like the simulator
gate, the comparison is on the *dimensionless speedup ratio*, so runner
speed does not matter.  The two sides run as interleaved pairs, each timed
in process CPU seconds, and the speedup is the median of the per-pair
ratios: the batched side is one call of a few milliseconds, so a burst of
load on a shared host could otherwise land in every sample of it.  Every
benchmark run first asserts both sides produced results bit-identical to
each other and, on a sample, to the event engine, so a run doubles as a
validation run.

``--check`` also gates what a never-seen design costs: 8-job batches of
designs this process has not simulated (network x stock design x scale x
ABin size, each at its own clock) must run within 1.5x of the same batches
run again with every memo warm, both timed in this process's CPU seconds.
That is the cold path of a service sweeping new design points: the engine
derives each design's record from its spec, so the first sight of a design
costs little more than its evaluation.
"""

import argparse
import itertools
import json
import os
import statistics
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # script mode; pytest gets this from conftest.py
    sys.path.insert(0, _SRC)

from repro.accelerators.base import AcceleratorConfig
from repro.sim.batched import simulate_jobs_batched
from repro.sim.jobs.spec import (
    AcceleratorSpec,
    NetworkSpec,
    SimJob,
    execute_job,
)

#: Minimum acceptable batched-vs-per-job sweep speedup; the CI gate also
#: compares against the committed baseline with a 20% tolerance.
SPEEDUP_FLOOR = 10.0

#: Fraction of the baseline speedup the measured speedup may lose before the
#: regression gate fails (0.20 = "fails on >20% slowdown").
REGRESSION_TOLERANCE = 0.20

#: Ceiling on never-seen designs' per-job time over the memo-warm per-job
#: time of the same batches (``--check``).
COLD_RATIO_CEILING = 1.5

#: The never-seen batches' axes: the stock designs the paper compares and a
#: few networks of different depths, over a range of scales and ABin sizes.
_COLD_NETWORKS = ("nin", "alexnet", "googlenet", "vgg19")
_COLD_DESIGNS = (
    AcceleratorSpec.create("dpnn"),
    AcceleratorSpec.create("stripes"),
    AcceleratorSpec.create("dstripes"),
    AcceleratorSpec.create("loom", bits_per_cycle=1),
    AcceleratorSpec.create("loom", bits_per_cycle=2),
    AcceleratorSpec.create("loom", bits_per_cycle=4),
)
_COLD_MACS = (32, 64, 128, 256, 512)
_COLD_ABIN_BYTES = tuple(1024 << j for j in range(8))


def _sweep_jobs():
    """The benchmark sweep: 240 Loom design points (10 scales x 4 activation
    memories x 6 clocks) on AlexNet -- the shape of a ``bench_explore``-scale
    scaling study, and large enough that per-design grouping alone would not
    clear the floor (cross-design plane merging is what is being measured).
    """
    network = NetworkSpec("alexnet", "100%")
    spec = AcceleratorSpec.create("loom")
    jobs = []
    for macs in (32, 48, 64, 96, 128, 192, 256, 384, 512, 768):
        for am_bytes in (512 * 1024, 1024 * 1024, 2 * 1024 * 1024,
                         4 * 1024 * 1024):
            for clock_ghz in (0.8, 0.9, 1.0, 1.1, 1.2, 1.4):
                jobs.append(SimJob(
                    network=network,
                    accelerator=spec,
                    config=AcceleratorConfig(equivalent_macs=macs,
                                             am_capacity_bytes=am_bytes,
                                             clock_ghz=clock_ghz),
                ))
    return jobs


def _cpu_seconds(task) -> float:
    start = time.process_time()
    task()
    return time.process_time() - start


def _one_job_at_a_time(jobs):
    return [simulate_jobs_batched([job])[0] for job in jobs]


def measure_batched(repeats: int = 9) -> dict:
    """Time one batched call vs a loop of one-job calls over the sweep, in
    ``repeats`` interleaved pairs; the speedup is the median pair's ratio.

    Both sides run once untimed first: that warms the shared memos (layer
    tables, accelerator instances, design planes), and the warm-up results
    are asserted bit-identical field for field (a sample also against the
    event engine).  In each pair, each side's timed call follows an untimed
    call of the same side, so the timed calls compare steady-state calls
    rather than a call in the other side's wake.
    """
    jobs = _sweep_jobs()
    batched = simulate_jobs_batched(jobs)
    per_job = _one_job_at_a_time(jobs)
    for index, (b, p) in enumerate(zip(batched, per_job)):
        if b != p or (index % 40 == 0
                      and b != execute_job(jobs[index], engine="event")):
            raise AssertionError(
                f"results disagree on job {index} "
                f"({jobs[index].network.name}); run `loom-repro validate`"
            )
    def per_job_side() -> float:
        _one_job_at_a_time(jobs)  # back in steady state after the other side
        return _cpu_seconds(lambda: _one_job_at_a_time(jobs))

    def batched_side() -> float:
        simulate_jobs_batched(jobs)
        return _cpu_seconds(lambda: simulate_jobs_batched(jobs))

    per_jobs, batcheds, ratios = [], [], []
    for pair in range(repeats):
        # Alternate which side goes first, so neither always runs in the
        # other's wake.
        if pair % 2:
            batched_s = batched_side()
            per_job_s = per_job_side()
        else:
            per_job_s = per_job_side()
            batched_s = batched_side()
        per_jobs.append(per_job_s)
        batcheds.append(batched_s)
        ratios.append(per_job_s / batched_s)
    return {
        "benchmark": "batched-sweep-engine",
        "network": "alexnet",
        "design_points": len(jobs),
        "layers_simulated": sum(len(r.layers) for r in batched),
        "repeats": repeats,
        "per_job_s": statistics.median(per_jobs),
        "batched_s": statistics.median(batcheds),
        "speedup": statistics.median(ratios),
    }


def _never_seen_batches(rng, clocks, count: int, size: int = 8):
    """``count`` batches of ``size`` jobs, every one a design this process
    has not seen: each takes the next clock of ``clocks``."""
    return [[SimJob(network=NetworkSpec(rng.choice(_COLD_NETWORKS)),
                    accelerator=rng.choice(_COLD_DESIGNS),
                    config=AcceleratorConfig(
                        equivalent_macs=rng.choice(_COLD_MACS),
                        abin_bytes=rng.choice(_COLD_ABIN_BYTES),
                        clock_ghz=0.5 + next(clocks) * 1e-6))
             for _ in range(size)]
            for _ in range(count)]


def measure_cold_designs(rounds: int = 15, batches: int = 20) -> dict:
    """Per-job time of never-seen designs against the same batches again.

    Each round draws fresh batches, runs them once (every design record is
    derived) and then three more times with every memo warm, taking the
    median warm pass; the reported ratio is the median of the rounds' cold
    / warm ratios.  A cold pass cannot be repeated, so the warm side gets no
    best-of either: a burst of load on a shared host is as likely to land
    on either side.  The networks' layer tables are built before the first
    round: a network is not a design.
    """
    import random

    rng = random.Random(24)
    clocks = itertools.count()
    simulate_jobs_batched([SimJob(network=NetworkSpec(name),
                                  accelerator=_COLD_DESIGNS[0])
                           for name in _COLD_NETWORKS])
    colds, warms = [], []
    for _ in range(rounds):
        sweep = _never_seen_batches(rng, clocks, batches)

        def run():
            for batch in sweep:
                simulate_jobs_batched(batch)

        colds.append(_cpu_seconds(run))
        warms.append(statistics.median(_cpu_seconds(run) for _ in range(3)))
    jobs = batches * len(sweep[0])
    return {
        "rounds": rounds,
        "jobs_per_round": jobs,
        "cold_us_per_job": statistics.median(colds) / jobs * 1e6,
        "warm_us_per_job": statistics.median(warms) / jobs * 1e6,
        "ratio": statistics.median(c / w for c, w in zip(colds, warms)),
    }


def format_cold_designs(measured: dict) -> str:
    return "\n".join([
        "== never-seen designs vs the same batches memo-warm ==",
        f"{measured['rounds']} rounds of {measured['jobs_per_round']} jobs "
        f"in 8-job batches (CPU time, medians)",
        f"never-seen: {measured['cold_us_per_job']:>7.1f} us/job   "
        f"memo-warm: {measured['warm_us_per_job']:>7.1f} us/job   "
        f"{measured['ratio']:>5.2f}x (ceiling {COLD_RATIO_CEILING}x)",
    ])


def format_batched(measured: dict) -> str:
    return "\n".join([
        "== sweep simulation: one batched call vs one call per job ==",
        f"{measured['design_points']} design points, "
        f"{measured['layers_simulated']} layers "
        f"(process CPU, medians of {measured['repeats']} interleaved "
        "pairs)",
        f"per-job: {measured['per_job_s'] * 1e3:>8.3f} ms   "
        f"batched: {measured['batched_s'] * 1e3:>8.3f} ms   "
        f"{measured['speedup']:>6.2f}x",
    ])


def check_against_baseline(measured: dict, baseline: dict,
                           tolerance: float = REGRESSION_TOLERANCE) -> str:
    """Raise if the measured speedup regressed > ``tolerance`` vs baseline."""
    baseline_speedup = baseline["speedup"]
    measured_speedup = measured["speedup"]
    floor = baseline_speedup * (1.0 - tolerance)
    verdict = (
        f"baseline speedup {baseline_speedup:.2f}x, measured "
        f"{measured_speedup:.2f}x (gate: >= {floor:.2f}x)"
    )
    if measured_speedup < floor:
        raise AssertionError(f"benchmark regression: {verdict}")
    return verdict


# -- pytest entry point --------------------------------------------------------


def test_bench_batched_speedup(artefacts):
    measured = measure_batched(repeats=3)
    artefacts["batched-sweep"] = format_batched(measured)
    assert measured["speedup"] >= SPEEDUP_FLOOR, (
        f"batched sweep speedup {measured['speedup']:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x target"
    )


def test_bench_never_seen_designs_cost_near_warm(artefacts):
    measured = measure_cold_designs()
    artefacts["batched-cold-designs"] = format_cold_designs(measured)
    assert measured["ratio"] <= COLD_RATIO_CEILING, (
        f"never-seen designs cost {measured['ratio']:.2f}x the memo-warm "
        f"per-job time (ceiling {COLD_RATIO_CEILING}x)"
    )


# -- script mode (the CI gate) -------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=9,
                        help="interleaved timed pairs; the speedup is their "
                             "median ratio (default: 9)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the measurements as JSON to PATH")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail if the speedup regressed more than "
                             f"{REGRESSION_TOLERANCE * 100:.0f}%% vs "
                             "BASELINE (JSON), or if never-seen designs "
                             f"cost more than {COLD_RATIO_CEILING}x the "
                             "memo-warm per-job time")
    args = parser.parse_args(argv)
    measured = measure_batched(repeats=args.repeats)
    print(format_batched(measured))
    if measured["speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: speedup {measured['speedup']:.2f}x is below the "
              f"{SPEEDUP_FLOOR:.0f}x floor", file=sys.stderr)
        return 1
    if args.check is not None:
        measured["never_seen_designs"] = measure_cold_designs()
        print(format_cold_designs(measured["never_seen_designs"]))
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"measurements written to {args.output}")
    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        print("regression gate:",
              check_against_baseline(measured, baseline))
        cold = measured["never_seen_designs"]
        if cold["ratio"] > COLD_RATIO_CEILING:
            print(f"FAIL: never-seen designs cost {cold['ratio']:.2f}x the "
                  f"memo-warm per-job time (ceiling {COLD_RATIO_CEILING}x)",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
