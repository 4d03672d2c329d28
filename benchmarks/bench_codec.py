"""Benchmark: the packed result codec against the JSON one.

A result crosses every cache tier and every hop between nodes as its
packed bytes (:meth:`repro.sim.results.NetworkResult.to_packed`); JSON
(:meth:`~repro.sim.results.NetworkResult.to_json`) is rendered only for
clients that ask for it.  This benchmark prices one encode plus one decode
in each codec.

Script mode is the CI gate::

    python benchmarks/bench_codec.py --check

simulates seeded never-seen design points (the paper's networks x designs
x equivalent MACs x clocks x buffer sizes), asserts that every result
round-trips through the packed codec bit-identically -- every field's type
and float bits, and the JSON rendering byte for byte -- and then times, in
process CPU, ``from_packed(to_packed())`` against
``from_dict(json.loads(to_json()))`` over fresh result objects (neither
encoding memoised).  The sides run as interleaved pairs, each timed call
after an untimed one of the same side; the gate is the median pair's
ratio, which must stay at or below ``RATIO_CEILING``.  A ratio of two
sides timed in one process, so runner speed does not matter.
"""

import argparse
import json
import os
import random
import statistics
import struct
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # script mode; pytest gets this from conftest.py
    sys.path.insert(0, _SRC)

from repro.explore.space import canonical_point, point_to_job
from repro.sim.batched import simulate_jobs_batched
from repro.sim.results import NetworkResult

#: The packed codec's encode + decode, as a fraction of the JSON codec's.
RATIO_CEILING = 0.6

#: Seeded never-seen results the check covers and both sides time.
RESULTS = 512
SEED = 0

NETWORKS = ("nin", "alexnet", "googlenet", "vggs", "vggm", "vgg19")
ACCELERATORS = ({"kind": "dpnn"}, {"kind": "stripes"}, {"kind": "dstripes"},
                {"kind": "loom", "bits_per_cycle": 1},
                {"kind": "loom", "bits_per_cycle": 2},
                {"kind": "loom", "bits_per_cycle": 4})


def seeded_results(count: int, seed: int):
    """``count`` results of distinct design points drawn from ``seed``."""
    rng = random.Random(f"bench-codec-{seed}")
    points = {}
    while len(points) < count:
        point = {
            "network": rng.choice(NETWORKS),
            "accelerator": dict(rng.choice(ACCELERATORS)),
            "equivalent_macs": rng.choice((32, 64, 128, 256, 512)),
            "clock_ghz": rng.randrange(500, 2500) / 1000,
            "abin_bytes": 1024 << rng.randrange(8),
        }
        points[json.dumps(point, sort_keys=True)] = point
    return simulate_jobs_batched([point_to_job(canonical_point(point))
                                  for point in points.values()])


def _bits(value):
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), repr(value)


def spelled(result: NetworkResult):
    """Every field of ``result`` by type and spelling, floats by bits."""
    layers = result.to_dict()["layers"]
    return ([_bits(result.network), _bits(result.accelerator),
             _bits(result.clock_ghz)],
            {name: [sorted((key, _bits(item)) for key, item in value.items())
                    if name == "extra" else _bits(value) for value in values]
             for name, values in layers.items()})


def fresh(results):
    """Copies of ``results`` with neither encoding memoised."""
    return [NetworkResult.from_dict(result.to_dict()) for result in results]


def packed_side(results) -> None:
    for result in results:
        NetworkResult.from_packed(result.to_packed())


def json_side(results) -> None:
    for result in results:
        NetworkResult.from_dict(json.loads(result.to_json()))


def _cpu(task, results) -> float:
    start = time.process_time()
    task(results)
    return time.process_time() - start


def measure_codec(repeats: int = 9) -> dict:
    """Check every round trip, then time both codecs as interleaved pairs."""
    results = seeded_results(RESULTS, SEED)
    for index, result in enumerate(results):
        decoded = NetworkResult.from_packed(result.to_packed())
        if spelled(decoded) != spelled(result) \
                or decoded.to_json() != result.to_json():
            raise AssertionError(f"result {index} ({result.network} on "
                                 f"{result.accelerator}) does not round-trip "
                                 f"bit-identically")
    ratios, packed_s, json_s = [], [], []
    for pair in range(repeats):
        timed = {}
        sides = (("packed", packed_side), ("json", json_side))
        for name, task in sides if pair % 2 == 0 else reversed(sides):
            task(fresh(results))  # untimed: the same side warms up first
            timed[name] = _cpu(task, fresh(results))
        packed_s.append(timed["packed"])
        json_s.append(timed["json"])
        ratios.append(timed["packed"] / timed["json"])
    return {
        "benchmark": "result-codec",
        "results": len(results),
        "seed": SEED,
        "repeats": repeats,
        "packed_us_per_result": statistics.median(packed_s)
        / len(results) * 1e6,
        "json_us_per_result": statistics.median(json_s) / len(results) * 1e6,
        "ratio": statistics.median(ratios),
        "ratios": ratios,
        "packed_bytes_per_result": sum(len(r.to_packed()) for r in results)
        / len(results),
        "json_bytes_per_result": sum(len(r.to_json()) for r in results)
        / len(results),
    }


def format_codec(measured: dict) -> str:
    return "\n".join([
        "== result codec: packed against JSON (encode + decode) ==",
        f"{measured['results']} results bit-identical (seed "
        f"{measured['seed']}; process CPU, medians of "
        f"{measured['repeats']} interleaved pairs)",
        f"packed: {measured['packed_us_per_result']:>6.2f} us/result   "
        f"json: {measured['json_us_per_result']:>6.2f} us/result   "
        f"ratio {measured['ratio']:.3f}",
        f"size: {measured['packed_bytes_per_result']:.0f} B packed, "
        f"{measured['json_bytes_per_result']:.0f} B JSON per result",
    ])


def gate_failures(measured: dict) -> list:
    """The gates ``measured`` misses (empty: pass)."""
    if measured["ratio"] > RATIO_CEILING:
        return [f"packed encode + decode costs {measured['ratio']:.3f}x the "
                f"JSON codec's; the ceiling is {RATIO_CEILING}x"]
    return []


# -- pytest entry point --------------------------------------------------------


def test_bench_codec_ratio(artefacts):
    measured = measure_codec(repeats=3)
    artefacts["result-codec"] = format_codec(measured)
    assert gate_failures(measured) == []


# -- script mode (the CI gate) -------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=9,
                        help="interleaved timed pairs (default: 9)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the measurements as JSON to PATH")
    parser.add_argument("--check", action="store_true",
                        help=f"fail when packed encode + decode costs more "
                             f"than {RATIO_CEILING}x the JSON codec's")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    measured = measure_codec(repeats=args.repeats)
    print(format_codec(measured))
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
        print(f"gate: {measured['ratio']:.3f}x <= {RATIO_CEILING}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
