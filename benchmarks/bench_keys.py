"""Benchmark: the cost of a content key, fresh and memoised.

Every never-seen design point crossing a serve node or a cluster derives
its content key (:func:`repro.sim.jobs.job_key`) once.  The key is the
sha256 of the job's canonical JSON, which
:func:`repro.sim.jobs.spec_payload` assembles from memoised fragments; the
original formula built the whole :func:`repro.sim.jobs.spec_dict` with
``dataclasses.asdict`` and ran ``json.dumps`` over it.  That formula stays
here as the oracle.  A point seen before is answered by the raw point memo
in :func:`repro.serve.core.keyed_jobs`, which skips canonicalisation too.

Script mode is the CI gate::

    python benchmarks/bench_keys.py --check

draws seeded raw points (the paper's networks x designs x equivalent MACs
x clocks x buffer sizes, plus precision profiles, memory capacities and the
DRAM channel), asserts every key and payload byte-identical to the oracle,
then times in the same process

* a fresh key (the ``job_key`` memo bypassed) against the oracle, failing
  below ``SPEEDUP_FLOOR``;
* a memoised ``keyed_jobs`` hit against the uncached raw point path
  (``canonical_point``, ``point_to_job`` and a fresh key), failing below
  ``MEMO_FLOOR``.

Both gates are dimensionless ratios, so runner speed does not matter.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # script mode; pytest gets this from conftest.py
    sys.path.insert(0, _SRC)

from repro.explore.space import canonical_point, point_to_job
from repro.serve.core import keyed_jobs
from repro.sim.jobs import job_key, spec_dict, spec_payload

#: Minimum fresh-key speedup over the oracle formula.
SPEEDUP_FLOOR = 4.0

#: Minimum speedup of a memoised ``keyed_jobs`` hit over the uncached path.
MEMO_FLOOR = 5.0

#: Seeded points the byte-identity check covers and both sides time.
POINTS = 2000
SEED = 0

NETWORKS = ("nin", "alexnet", "googlenet", "vggs", "vggm", "vgg19")
ACCELERATORS = ({"kind": "dpnn"}, {"kind": "stripes"}, {"kind": "dstripes"},
                {"kind": "loom", "bits_per_cycle": 1},
                {"kind": "loom", "bits_per_cycle": 2},
                {"kind": "loom", "bits_per_cycle": 4})


def seeded_points(count: int, seed: int):
    """``count`` raw point mappings drawn from ``seed``."""
    rng = random.Random(f"bench-keys-{seed}")
    points = []
    for _ in range(count):
        point = {
            "network": rng.choice(NETWORKS),
            "accelerator": dict(rng.choice(ACCELERATORS)),
            "equivalent_macs": rng.choice((32, 64, 128, 256, 512)),
            "clock_ghz": rng.randrange(500, 2500) / 1000,
            "abin_bytes": 1024 << rng.randrange(8),
        }
        if rng.random() < 0.25:
            point["accuracy"] = "99%"
        if rng.random() < 0.25:
            point["am_capacity_bytes"] = 256 * 1024 << rng.randrange(4)
        if rng.random() < 0.25:
            point["dram"] = "lpddr4-4267"
        points.append(point)
    return points


def oracle_payload(job) -> str:
    return json.dumps(spec_dict(job), sort_keys=True, separators=(",", ":"))


def oracle_key(job) -> str:
    return hashlib.sha256(oracle_payload(job).encode("utf-8")).hexdigest()


def _best_of(repeats, task):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - start)
    return best


def measure_keys(repeats: int = 5) -> dict:
    """Check every key against the oracle, then time both formulas.

    The fresh side calls the function under the ``job_key`` memo, so
    every call derives its key; the fragment memo is warm after the check
    pass, as it is on a node that has served a few points.
    """
    points = seeded_points(POINTS, SEED)
    jobs = [point_to_job(canonical_point(point)) for point in points]
    for index, (job, (memo_job, memo_key)) in enumerate(
            zip(jobs, keyed_jobs(points))):
        if spec_payload(job) != oracle_payload(job) \
                or job_key(job) != oracle_key(job) \
                or memo_job != job or memo_key != oracle_key(job):
            raise AssertionError(f"point {index}: key differs from the "
                                 f"oracle formula for {job}")
    fresh = job_key.__wrapped__
    oracle_s = _best_of(repeats, lambda: [oracle_key(job) for job in jobs])
    fresh_s = _best_of(repeats, lambda: [fresh(job) for job in jobs])
    hit_s = _best_of(repeats, lambda: [job_key(job) for job in jobs])
    uncached_s = _best_of(repeats, lambda: [
        fresh(point_to_job(canonical_point(point))) for point in points])
    point_hit_s = _best_of(repeats, lambda: keyed_jobs(points))
    return {
        "benchmark": "content-keys",
        "points": len(jobs),
        "seed": SEED,
        "repeats": repeats,
        "oracle_us_per_key": oracle_s / len(jobs) * 1e6,
        "fresh_us_per_key": fresh_s / len(jobs) * 1e6,
        "memo_hit_us_per_key": hit_s / len(jobs) * 1e6,
        "speedup": oracle_s / fresh_s,
        "uncached_us_per_point": uncached_s / len(jobs) * 1e6,
        "point_hit_us_per_point": point_hit_s / len(jobs) * 1e6,
        "point_memo_speedup": uncached_s / point_hit_s,
    }


def format_keys(measured: dict) -> str:
    return "\n".join([
        "== content keys: fresh, memoised and the original formula ==",
        f"{measured['points']} points byte-identical (seed "
        f"{measured['seed']}, best of {measured['repeats']})",
        f"oracle: {measured['oracle_us_per_key']:>7.2f} us/key   "
        f"fresh: {measured['fresh_us_per_key']:>6.2f} us/key   "
        f"memo hit: {measured['memo_hit_us_per_key']:>5.2f} us/key   "
        f"{measured['speedup']:>5.2f}x",
        f"raw point, uncached: {measured['uncached_us_per_point']:>6.2f} "
        f"us   memoised keyed_jobs hit: "
        f"{measured['point_hit_us_per_point']:>5.2f} us   "
        f"{measured['point_memo_speedup']:>5.2f}x",
    ])


def gate_failures(measured: dict) -> list:
    """The gates ``measured`` misses (empty: pass)."""
    failures = []
    if measured["speedup"] < SPEEDUP_FLOOR:
        failures.append(f"fresh keys are {measured['speedup']:.2f}x cheaper "
                        f"than the oracle; the floor is "
                        f"{SPEEDUP_FLOOR:.0f}x")
    if measured["point_memo_speedup"] < MEMO_FLOOR:
        failures.append(f"memoised points are "
                        f"{measured['point_memo_speedup']:.2f}x cheaper "
                        f"than the uncached path; the floor is "
                        f"{MEMO_FLOOR:.0f}x")
    return failures


# -- pytest entry point --------------------------------------------------------


def test_bench_keys_speedup(artefacts):
    measured = measure_keys(repeats=3)
    artefacts["content-keys"] = format_keys(measured)
    assert gate_failures(measured) == []


# -- script mode (the CI gate) -------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of repetitions per timed side (default: 5)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the measurements as JSON to PATH")
    parser.add_argument("--check", action="store_true",
                        help=f"fail below a {SPEEDUP_FLOOR:.0f}x fresh-key "
                             f"or a {MEMO_FLOOR:.0f}x point-memo speedup")
    args = parser.parse_args(argv)
    measured = measure_keys(repeats=args.repeats)
    print(format_keys(measured))
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"measurements written to {args.output}")
    if args.check:
        failures = gate_failures(measured)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"gate: {measured['speedup']:.2f}x >= {SPEEDUP_FLOOR:.0f}x, "
              f"{measured['point_memo_speedup']:.2f}x >= "
              f"{MEMO_FLOOR:.0f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
