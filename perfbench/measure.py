"""The benchmark's own arithmetic: percentiles, time slices, span fold.

Kept free of any import from the program so the self-tests can pin the
rules down on hand-made inputs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: A timing percentile is reported only when at least this many samples lie
#: beyond it; fewer and the tail is one or two unlucky requests.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percent: int) -> float:
    """The ``percent``-th percentile by the nearest-rank rule.

    Integer arithmetic on purpose: ``0.9 * 100`` is not exactly 90 in
    floating point, and the rank must not drift by one.
    """
    if not sorted_values:
        raise ValueError("no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    rank = -(-len(sorted_values) * percent // 100)
    return sorted_values[rank - 1]


def samples_beyond(count: int, percent: int) -> int:
    """How many of ``count`` sorted samples lie above the nearest rank."""
    return count - -(-count * percent // 100)


def latency_summary(samples: Iterable[float], high: int = 90
                    ) -> Dict[str, float]:
    """Median and ``high``-th percentile of ``samples``, with the count.

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the high percentile: such a figure would not be
    worth gating on, so the run fails instead of printing it.
    """
    values = sorted(samples)
    beyond = samples_beyond(len(values), high)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"{len(values)} samples leave {beyond} beyond p{high}; "
            f"need {MIN_SAMPLES_BEYOND} (run longer)")
    return {"p50": nearest_rank(values, 50),
            f"p{high}": nearest_rank(values, high),
            "n": len(values)}


def sliced_medians(completions: Iterable[Tuple[float, int, float]],
                   seconds: float, slices: int) -> Dict[str, float]:
    """Throughput and median latency, robust to a slow stretch of the run.

    ``completions`` holds ``(end, points, latency)`` per successful request,
    ``end`` in seconds since the window opened.  The window is cut into
    ``slices`` equal slices.  A request's points are spread evenly over the
    time it was in flight, so each slice is credited with the share that
    overlaps it (work after the window is dropped) and slice throughput is
    not quantised to whole requests; its latency counts in the slice it
    completed in.  Returns the median over slices of the slice's points per
    second and of the slice's median latency, so a few seconds of
    interference from outside the program move neither figure.
    """
    width = seconds / slices
    points = [0.0] * slices
    latencies: List[List[float]] = [[] for _ in range(slices)]
    for end, count, latency in completions:
        slot = int(end // width)
        if 0 <= slot < slices:
            latencies[slot].append(latency)
            if latency <= 0:
                points[slot] += count
                continue
        start = end - latency
        for spanned in range(max(0, int(start // width)),
                             min(slices, slot + 1)):
            overlap = (min(end, (spanned + 1) * width)
                       - max(start, spanned * width))
            if overlap > 0:
                points[spanned] += count * overlap / latency
    medians = [nearest_rank(sorted(values), 50) for values in latencies
               if values]
    if not medians:
        raise ValueError("no request completed inside the window")
    return {"points_per_s": _median([count / width for count in points]),
            "p50": _median(medians)}


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence) -> Dict[str, float]:
    """``span_id -> self seconds`` for every span in ``spans``.

    A span's self time is its duration minus the part of its interval that
    its direct children cover.  Children are clipped to the parent's
    interval and merged first, so overlapping children (concurrent shard
    requests) count once, and a child that ran on another thread or in an
    asyncio task still subtracts.  Spans only need ``span_id``,
    ``parent_id``, ``start_s`` and ``duration_s``.
    """
    present = {span.span_id for span in spans}
    children: Dict[str, List] = defaultdict(list)
    for span in spans:
        if span.parent_id in present:
            children[span.parent_id].append(span)
    result: Dict[str, float] = {}
    for span in spans:
        start = span.start_s
        end = start + span.duration_s
        clipped = [(max(start, child.start_s),
                    min(end, child.start_s + child.duration_s))
                   for child in children.get(span.span_id, ())]
        result[span.span_id] = max(0.0,
                                   span.duration_s - covered_length(clipped))
    return result
