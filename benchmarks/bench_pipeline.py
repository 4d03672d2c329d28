"""Benchmarks for the declarative job pipeline behind ``loom-repro all``.

Three measurements:

* ``test_bench_all_command`` times the current ``loom-repro all`` (every
  table and figure through one shared executor).
* ``test_bench_all_speedup_over_seed`` re-times ``all`` the way the seed
  commit executed it -- every harness re-simulating its full job matrix with
  nothing shared or cached, networks rebuilt per harness, and the seed's
  pure-Python significant-bit counter -- against the pipelined path, checks
  the two produce identical artefacts, and asserts the >= 2x target.  The
  two styles run in interleaved pairs, each timed in process CPU seconds,
  and the gate is the median of the per-pair ratios, so neither a slow
  stretch of a shared host nor one outlier decides it.  The measured
  ratios are printed with the artefacts.
* ``test_bench_pipeline_sharing`` isolates the result-sharing component:
  the five simulation-driven harnesses execute 234 jobs the seed way but
  only 168 unique ones through a shared executor.
"""

import contextlib
import io
import statistics
import time
from unittest import mock

import numpy as np

from repro.cli import main
from repro.experiments import area, figure4, figure5, table1, table2, table3, table4
from repro.memo import clear_memos
from repro.quant import groups
from repro.sim.jobs import JobExecutor


def _seed_count_significant_bits(codes, signed=False):
    """The seed commit's per-element Python loop (reference baseline)."""
    codes = np.asarray(codes)
    flat = codes.ravel()
    out = np.empty(flat.shape, dtype=np.int64)
    for i, v in enumerate(flat):
        v = int(v)
        if signed:
            if v >= 0:
                out[i] = max(1, v.bit_length() + 1)
            else:
                out[i] = max(1, (-v - 1).bit_length() + 1)
        else:
            out[i] = max(1, v.bit_length())
    return out.reshape(codes.shape)


_SIM_HARNESSES = (
    lambda executor: table2.run(executor=executor),
    lambda executor: figure4.run(executor=executor),
    lambda executor: area.run(executor=executor),
    lambda executor: figure5.run(executor=executor),
    lambda executor: table4.run(executor=executor),
)


def _run_all_seed_style() -> str:
    """Regenerate every ``all`` artefact exactly the way the seed commit did.

    Each harness gets a fresh, cache-less executor (nothing shared between
    tables), profiled networks are rebuilt per harness, and Table 3 measures
    group precisions with the seed's per-element bit counter.
    """
    outputs = [table1.format_table()]

    def run(harness, formatter):
        clear_memos()
        with JobExecutor(cache=None) as executor:
            return formatter(harness(executor))

    outputs.append(run(_SIM_HARNESSES[0], table2.format_table))
    outputs.append(run(_SIM_HARNESSES[1], figure4.format_figure))
    outputs.append(run(_SIM_HARNESSES[2], area.format_table))
    outputs.append(run(_SIM_HARNESSES[3], figure5.format_figure))
    with mock.patch.object(groups, "count_significant_bits",
                           _seed_count_significant_bits):
        outputs.append(table3.format_table())
    outputs.append(run(_SIM_HARNESSES[4], table4.format_table))
    return "\n\n".join(outputs) + "\n"


def _run_all_pipelined() -> str:
    """The current ``loom-repro all``: one shared executor, warm memos off."""
    clear_memos()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["all"]) == 0
    return buffer.getvalue()


#: Interleaved (seed-style, pipelined) pairs the speedup gate takes the
#: median of.
SPEEDUP_PAIRS = 7


def _cpu_seconds(task) -> float:
    """Process CPU seconds ``task`` takes."""
    start = time.process_time()
    task()
    return time.process_time() - start


def test_bench_all_command(benchmark, artefacts):
    output = benchmark.pedantic(_run_all_pipelined, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert "Table 2" in output and "Figure 5" in output


def test_bench_all_speedup_over_seed(artefacts):
    # Warm both paths once (imports, profile parsing), and check the refactor
    # is behaviour-preserving: both execution styles emit identical artefacts.
    assert _run_all_seed_style() == _run_all_pipelined()

    pairs = [(_cpu_seconds(_run_all_seed_style),
              _cpu_seconds(_run_all_pipelined))
             for _ in range(SPEEDUP_PAIRS)]
    ratios = sorted(seed / pipelined for seed, pipelined in pairs)
    speedup = statistics.median(ratios)
    artefacts["pipeline-speedup"] = (
        "== loom-repro all: seed-style vs pipelined execution ==\n"
        f"seed-style: {statistics.median(s for s, _ in pairs):.3f}s   "
        f"pipelined: {statistics.median(p for _, p in pairs):.3f}s CPU "
        f"(medians of {SPEEDUP_PAIRS} interleaved pairs)\n"
        f"per-pair speedups: {', '.join(f'{r:.2f}' for r in ratios)}   "
        f"median: {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"`loom-repro all` speedup {speedup:.2f}x (median of "
        f"{SPEEDUP_PAIRS} pairs) is below the 2x target"
    )


def test_bench_pipeline_sharing(artefacts):
    """The sharing component alone: 234 submitted jobs, 168 unique."""
    executed_isolated = 0
    for harness in _SIM_HARNESSES:
        with JobExecutor(cache=None) as executor:
            harness(executor)
            executed_isolated += executor.stats.executed

    with JobExecutor() as shared:
        for harness in _SIM_HARNESSES:
            harness(shared)
        assert shared.stats.max_executions_per_key == 1
        executed_shared = shared.stats.executed

    artefacts["pipeline-sharing"] = (
        "== job pipeline: shared executor deduplication ==\n"
        f"isolated harnesses: {executed_isolated} simulations\n"
        f"shared executor:    {executed_shared} simulations "
        f"({executed_isolated / executed_shared:.2f}x fewer)"
    )
    assert executed_shared < executed_isolated
