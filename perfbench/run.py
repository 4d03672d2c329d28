"""End-to-end benchmark of the Loom reproduction's serving tiers.

Run from the repository root::

    python3 perfbench/run.py --workload cluster_cold --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/predictions.json`` for definitions and the
layer predictions):

* ``sweep_inproc`` -- never-seen 64-point batches into an in-process
  ``ServiceCore``: the floor every other tier is compared against.  Run
  it by hand; ``BENCHMARK.json`` leaves it out because its median latency
  follows the host's speed too closely to gate on;
* ``cluster_cold`` -- never-seen 16-point batches from two clients into a
  coordinator over two SQLite-backed workers with the peer cache on;
* ``cluster_warm`` -- 16-point batches from a preloaded working set three
  times the workers' memory tiers: every point must come back cached.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced window, prints the per-layer metrics and writes a
Chrome trace under ``.perfbench/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

#: Set-ups per run (this process plus fresh child processes); the median is
#: reported as ``setup_s``.
SETUP_SAMPLES = 3

#: Time slices of a window; throughput and median latency are medians over
#: them, so a few seconds of interference from other processes on the box
#: move neither.
SLICES = 10


def _import_program():
    """Import the program from ``src/``; fails when it is not there."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"the program's sources are missing under {source}")
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    import harness

    return harness


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_only(args) -> None:
    """Child mode: one cold-process set-up, timed, then torn down."""
    harness = _import_program()
    workload = harness.WORKLOADS[args.workload](args.seed, _scratch())
    try:
        workload.setup()
        elapsed = time.perf_counter() - _PROCESS_START
    finally:
        workload.teardown()
    print(json.dumps({"setup_s": elapsed}))


def _scratch() -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return SCRATCH


def _child_setups(args, count: int):
    samples = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{completed.stderr}")
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _end_to_end(workload, args):
    try:
        workload.setup()
        setup_s = time.perf_counter() - _PROCESS_START
        before = workload.counters()
        window = workload.run_window(args.seconds)
        peak_rss = _peak_rss_mb()
        after = workload.counters()
        problems = workload.check([window], before, after)
    finally:
        workload.teardown()
    setups = [setup_s] + _child_setups(args, SETUP_SAMPLES - 1)

    from measure import latency_summary

    latency = latency_summary(window.latencies)
    sliced = window.sliced(SLICES)
    failed_ratio = window.failed / window.attempted
    n = latency["n"]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)}: "
                    + ", ".join(f"{s:.3f}" for s in setups)),
        "points_per_s": (sliced["points_per_s"], "1/s",
                         f"median of {SLICES} slices; {window.points} "
                         f"points in {window.elapsed_s:.2f} s"),
        "request_p50_ms": (sliced["p50"] * 1e3, "ms",
                           f"median of {SLICES} slice medians; n={n}"),
        "request_p90_ms": (latency["p90"] * 1e3, "ms", f"n={n}"),
        "success_ratio": (1.0 - failed_ratio, "ratio",
                          f"failed_ratio={failed_ratio:.4f}: "
                          f"{window.failed} failed of {window.attempted} "
                          f"attempted"),
        "peak_rss_mb": (peak_rss, "MB", "this process"),
    }
    return metrics, problems, window.attempted, window.failed


def _traced(workload, args):
    import tracing
    from repro.obs import chrome_trace

    try:
        workload.setup()
        half = args.seconds / 2.0
        start = workload.counters()
        untraced = workload.run_window(half)
        before = workload.counters()
        with tracing.instrumented() as tracer:
            traced = workload.run_window(half)
        after = workload.counters()
        spans = tracer.recorder.spans()
        wire = workload.wire_bytes_per_point()
        problems = workload.check([untraced, traced], start, after)
    finally:
        workload.teardown()
    deltas = {name: after[name] - before[name] for name in after}
    layers = tracing.layer_metrics(spans, traced.points, deltas)
    layers["sim.results.wire_bytes_per_point"] = wire
    layers["obs.trace_overhead_ratio"] = (
        traced.sliced(SLICES)["points_per_s"]
        / untraced.sliced(SLICES)["points_per_s"])
    path = os.path.join(_scratch(), f"trace-{workload.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle)
    print(f"chrome trace: {os.path.relpath(path, ROOT)} "
          f"({len(spans)} spans)")
    units = _per_layer_units()
    metrics = {name: (value, units[name], "") for name, value in
               layers.items()}
    if set(metrics) != set(units):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return metrics, problems, attempted, failed


def _per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_inproc", "cluster_cold",
                                 "cluster_warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        _setup_only(args)
        return 0
    harness = _import_program()
    workload = harness.WORKLOADS[args.workload](args.seed, _scratch())
    run = _traced if args.trace else _end_to_end
    metrics, problems, attempted, failed = run(workload, args)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:6s} {note}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'pass' if not problems else f'{len(problems)} failed'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
