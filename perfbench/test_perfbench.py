"""Self-tests for the benchmark's own arithmetic.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import os
from types import SimpleNamespace

import pytest

from measure import (
    MIN_SAMPLES_BEYOND,
    covered_length,
    latency_summary,
    nearest_rank,
    samples_beyond,
    self_times,
    sliced_medians,
)
from points import SPACE_SIZE, PointStream, point_at, working_set

HERE = os.path.dirname(os.path.abspath(__file__))


def _span(span_id, parent_id, start, duration, thread="main"):
    return SimpleNamespace(span_id=span_id, parent_id=parent_id,
                           start_s=start, duration_s=duration, thread=thread)


# -- span fold -----------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [_span("p", None, 0.0, 10.0), _span("a", "p", 1.0, 2.0),
             _span("b", "p", 5.0, 1.0)]
    assert self_times(spans) == pytest.approx(
        {"p": 7.0, "a": 2.0, "b": 1.0})


def test_overlapping_children_count_once():
    # Two concurrent shard requests: [1, 5) and [3, 8) cover [1, 8).
    spans = [_span("p", None, 0.0, 10.0), _span("a", "p", 1.0, 4.0),
             _span("b", "p", 3.0, 5.0)]
    assert self_times(spans)["p"] == pytest.approx(3.0)


def test_child_on_another_thread_still_subtracts():
    spans = [_span("p", None, 0.0, 4.0, thread="loop"),
             _span("c", "p", 1.0, 2.0, thread="pool-1")]
    assert self_times(spans)["p"] == pytest.approx(2.0)


def test_child_is_clipped_to_its_parent():
    # A child that outlives its parent (fire-and-forget) subtracts only the
    # overlap, and self time never goes negative.
    spans = [_span("p", None, 0.0, 2.0), _span("c", "p", 1.0, 5.0)]
    assert self_times(spans)["p"] == pytest.approx(1.0)


def test_grandchildren_do_not_subtract_from_grandparent():
    spans = [_span("g", None, 0.0, 10.0), _span("p", "g", 0.0, 4.0),
             _span("c", "p", 0.0, 4.0)]
    selfs = self_times(spans)
    assert selfs["g"] == pytest.approx(6.0)
    assert selfs["p"] == pytest.approx(0.0)


def test_missing_parent_is_ignored():
    spans = [_span("c", "gone", 0.0, 1.0)]
    assert self_times(spans) == {"c": 1.0}


def test_covered_length_merges_and_skips_empty():
    assert covered_length([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == 3.0
    assert covered_length([]) == 0.0


# -- percentile rule -----------------------------------------------------------


def test_nearest_rank_is_exact_at_round_counts():
    values = list(range(1, 101))  # 0.9 * 100 is not exactly 90 in floats
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 50) == 50
    assert nearest_rank([7.0], 90) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == MIN_SAMPLES_BEYOND
    assert samples_beyond(99, 90) == MIN_SAMPLES_BEYOND - 1
    summary = latency_summary(float(v) for v in range(100))
    assert summary == {"p50": 49.0, "p90": 89.0, "n": 100}
    with pytest.raises(ValueError, match="beyond p90"):
        latency_summary(float(v) for v in range(99))


def test_sliced_medians_ignore_one_slow_slice():
    # Five 1-second slices; the third is stalled (one slow request).
    completions = []
    for slot in range(5):
        if slot == 2:
            completions.append((slot + 0.9, 16, 0.8))
            continue
        for step in range(10):
            completions.append((slot + step / 10 + 0.05, 16, 0.01))
    sliced = sliced_medians(completions, 5.0, 5)
    assert sliced["points_per_s"] == pytest.approx(160.0)
    assert sliced["p50"] == pytest.approx(0.01)


def test_sliced_medians_credit_work_where_it_overlaps_the_window():
    # The third request straddles the window's end: half its points count,
    # its latency does not; the fourth starts after the window: ignored.
    sliced = sliced_medians([(0.5, 10, 0.1), (1.5, 10, 0.1), (2.5, 20, 1.0),
                             (3.5, 99, 0.5)], 2.0, 2)
    assert sliced == pytest.approx({"points_per_s": 15.0, "p50": 0.1})


def test_sliced_throughput_is_not_quantised_to_requests():
    # One request spanning both slices credits each with half its points.
    sliced = sliced_medians([(1.5, 16, 1.0)], 2.0, 2)
    assert sliced["points_per_s"] == pytest.approx(8.0)


def test_latency_summary_ignores_input_order():
    values = [float(v) for v in range(200)]
    assert latency_summary(reversed(values)) == latency_summary(values)


# -- seeded generator ----------------------------------------------------------


def test_same_seed_gives_same_points():
    first, second = PointStream(7), PointStream(7)
    assert first.take(50) + first.take(50) == second.take(100)
    assert working_set(7, 30) == PointStream(7).take(30)


def test_other_seed_gives_other_points():
    assert PointStream(7).take(100) != PointStream(8).take(100)


def test_stream_never_repeats_a_point():
    stream = PointStream(3)
    drawn = stream.take(2000) + stream.take(2000)
    assert len(set(drawn)) == len(drawn)


def test_points_cover_the_axes():
    assert point_at(0) == {
        "network": "nin", "accelerator": {"kind": "dpnn"},
        "equivalent_macs": 32, "clock_ghz": 0.5, "abin_bytes": 1024}
    last = point_at(SPACE_SIZE - 1)
    assert last["network"] == "vgg19"
    assert last["accelerator"] == {"kind": "loom", "bits_per_cycle": 4}
    assert (last["equivalent_macs"], last["clock_ghz"],
            last["abin_bytes"]) == (512, 2.499, 131072)
    with pytest.raises(IndexError):
        point_at(SPACE_SIZE)


def test_points_are_plain_json():
    for index in PointStream(1).take(20):
        point = point_at(index)
        assert json.loads(json.dumps(point)) == point


# -- benchmark description -----------------------------------------------------


def test_predictions_cover_every_metric_and_workload():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "predictions.json")) as handle:
        predictions = json.load(handle)
    gated = {entry["name"] for entry in spec["workloads"]}
    workloads = set(predictions["workloads"])
    assert gated <= workloads
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    predicted = set()
    for prediction in predictions["predictions"]:
        assert set(prediction["moves"]) <= end_to_end
        assert set(prediction["on"]) <= workloads
        if set(prediction["on"]) & gated:
            predicted.update(prediction["layer_metrics"])
    # Every per-layer metric is predicted on a workload the gate runs.
    assert predicted == per_layer
