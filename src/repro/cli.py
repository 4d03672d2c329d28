"""Command-line interface: regenerate any of the paper's tables and figures.

Usage::

    loom-repro table1
    loom-repro table2
    loom-repro figure4
    loom-repro area
    loom-repro figure5 [--configs 32 64 128]
    loom-repro table3
    loom-repro table4
    loom-repro all
    loom-repro networks
    loom-repro run --network resnet18 [--groups 4]
    loom-repro run --network tiny_transformer [--heads 8]
    loom-repro summary --network mobilenet_v1 [--csv layers.csv]
    loom-repro explore --axis equivalent_macs=32,64,128 \\
        --axis accelerator=loom,dstripes --base network=alexnet
    loom-repro explore --grid sweep.json --strategy random --samples 16
    loom-repro --cache-dir .loom-cache all   # persist results across runs
    loom-repro --verbose all           # report executor/cache statistics
    loom-repro --engine event all      # per-layer reference engine
    loom-repro validate [--quick]      # prove the engines agree cycle-exactly
    loom-repro serve --port 8100 --store .loom-serve.db   # long-running service
    loom-repro submit --url http://127.0.0.1:8100 --network alexnet
    loom-repro stats --remote http://127.0.0.1:8100
    loom-repro explore --remote http://127.0.0.1:8100 --axis ...
    loom-repro explore --remote URL --trace-out sweep-trace.json
    loom-repro trace dump --remote http://127.0.0.1:8100 --out trace.json
    loom-repro --log-level debug --log-json serve   # structured JSON logs

Every simulation goes through one shared :class:`~repro.sim.jobs.JobExecutor`
per invocation, so ``loom-repro all`` simulates each unique
(network, accelerator, configuration) job exactly once even though several
tables and figures share parts of their matrices.  ``--no-cache`` disables
result reuse, ``--cache-dir DIR`` adds an on-disk SQLite store
(``DIR/results.db``) so repeated invocations skip already-simulated jobs
entirely, and
``--verbose`` prints what the pipeline actually did (simulations run vs cache
and dedup hits) to stderr so sweep users can confirm reuse is working.

Every simulation runs on the closed-form vector engine by default (whole
design planes in one tensor pass); ``--engine event`` selects the per-layer
reference path (the one anchored to the event-driven tile simulator) for the
whole invocation, serve nodes included.  ``validate`` differentially checks
the chosen candidate engine against the event reference bit for bit over
the network zoo (non-zero exit on mismatch).

``summary`` prints a per-layer breakdown for one network on DPNN and Loom
(``--csv`` exports the same rows machine-readably); ``run`` simulates one
network -- any of the zoo, including the modern grouped/residual/attention
workloads, with optional ``--groups`` / ``--heads`` structural overrides --
across every stock design and reports speedup/efficiency against the
bit-parallel baseline; ``networks`` lists the zoo networks with their
compute-layer counts; ``explore`` runs a declarative
design-space sweep (inline ``--axis``/``--base`` flags or a ``--grid`` JSON
file) through a search strategy and reports the Pareto frontier -- see
:mod:`repro.explore`.

``serve`` turns the whole pipeline into a long-running batching service
(:mod:`repro.serve`): one HTTP node (a
:class:`~repro.cluster.worker.ClusterWorker`) over one shared executor and
a persistent SQLite result store, with request coalescing and bounded-queue
backpressure.  ``submit`` sends one job to a running server, ``stats
--remote`` inspects its live counters (``stats --store`` inspects a store
database offline), and ``explore --remote URL`` executes a sweep's
simulations on the server so every client shares one warm store.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sqlite3
import sys
from typing import List, Optional, Tuple

from repro.experiments import (
    ablation,
    area,
    figure4,
    figure5,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.common import default_design_specs, loom_spec
from repro.explore import (
    Axis,
    OBJECTIVES,
    STRATEGIES,
    SweepSpec,
    explore,
    frontier_table,
    named_constraint,
    parse_strategy_options,
    parse_value,
    resolve_strategy,
    sweep_markdown,
    sweep_table,
    sweep_to_csv,
)
from repro.nn import available_networks, modern_networks
from repro.obs import (
    LEVELS,
    Span,
    Tracer,
    chrome_trace,
    configure_logging,
    get_logger,
    get_tracer,
    set_tracer,
)
from repro.serve.client import ServeError
from repro.sim.batched import ENGINES, use_engine
from repro.sim.jobs import (
    AcceleratorSpec,
    JobExecutor,
    NetworkSpec,
    ResultCache,
    SimJob,
    network_kind_counts,
)
from repro.sim.report import to_csv
from repro.sim.results import compare

__all__ = ["main", "build_parser", "build_executor"]

_log = get_logger("cli")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _positive_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
    if not math.isfinite(number) or number <= 0:
        raise argparse.ArgumentTypeError(
            f"must be > 0 and finite, got {number}")
    return number


def _port_number(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port number 0-65535 (0 = OS-assigned), got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loom-repro",
        description="Regenerate the tables and figures of the Loom paper "
                    "(Sharify et al., DAC 2018).",
    )
    parser.add_argument(
        "--engine", choices=list(ENGINES), default="vector",
        help="simulation engine: 'vector' (closed forms over whole design "
             "planes, the default) or 'event' (per-layer reference path "
             "anchored to the event-driven tile simulator); results are "
             "bit-identical",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="print pipeline statistics (simulations vs cache/dedup hits) "
             "to stderr",
    )
    parser.add_argument(
        "--log-level", choices=list(LEVELS), default="info",
        help="minimum severity for structured log output on stderr "
             "(default: info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines (one object per line, with "
             "trace/span correlation ids) instead of the human format",
    )
    caching = parser.add_mutually_exclusive_group()
    caching.add_argument(
        "--no-cache", action="store_true",
        help="disable the simulation result cache (every job re-simulates)",
    )
    caching.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist simulation results in a SQLite store at "
             "DIR/results.db so repeated invocations reuse them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="precision profiles (Table 1)")
    sub.add_parser("table2", help="per-kind speedup/efficiency (Table 2)")
    sub.add_parser("figure4", help="all-layer speedup/efficiency (Figure 4)")
    sub.add_parser("area", help="area overhead (Section 4.4)")
    fig5 = sub.add_parser("figure5", help="scaling study (Figure 5)")
    fig5.add_argument("--configs", type=int, nargs="+",
                      default=list(figure5.CONFIG_SWEEP),
                      help="equivalent-MAC configurations to sweep")
    sub.add_parser("table3", help="per-group weight precisions (Table 3)")
    sub.add_parser("table4", help="per-group weight precision speedups (Table 4)")
    sub.add_parser("ablation", help="contribution of each Loom mechanism")
    sub.add_parser("all", help="regenerate every table and figure")
    sub.add_parser("networks", help="list the zoo networks and layer counts")
    validate_cmd = sub.add_parser(
        "validate",
        help="differentially validate the vector engine against the event "
             "engine (exact per-layer equality over the zoo)",
    )
    validate_cmd.add_argument(
        "--quick", action="store_true",
        help="small subset (alexnet/nin, 100%% profile) for smoke runs",
    )
    validate_cmd.add_argument(
        "--engine", dest="validate_engine", choices=list(ENGINES),
        default=None, metavar="ENGINE",
        help="candidate engine to validate against the event reference "
             f"({'/'.join(ENGINES)}; default: the global --engine, i.e. "
             "'vector', which runs the whole matrix through one "
             "simulate_jobs_batched pass)",
    )
    validate_cmd.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write this invocation's spans as Chrome trace-event JSON to "
             "FILE (open in chrome://tracing or Perfetto)",
    )
    summary = sub.add_parser("summary", help="per-layer breakdown for one network")
    summary.add_argument("--network", default="alexnet",
                         choices=available_networks(),
                         help="network to summarise")
    summary.add_argument("--accuracy", default="100%", choices=["100%", "99%"],
                         help="precision profile to use")
    summary.add_argument("--csv", default=None, metavar="PATH",
                         help="also write the per-layer results as CSV to PATH")
    summary.add_argument("--groups", type=_positive_int, default=None,
                         help="structural override: ResNeXt-style group count "
                              "(resnet18 only)")
    summary.add_argument("--heads", type=_positive_int, default=None,
                         help="structural override: attention head count "
                              "(tiny_transformer only)")
    run_cmd = sub.add_parser(
        "run", help="simulate one network across every stock design")
    run_cmd.add_argument("--network", default="alexnet",
                         choices=available_networks(),
                         help="network to simulate")
    run_cmd.add_argument("--accuracy", default="100%", choices=["100%", "99%"],
                         help="precision profile to use")
    run_cmd.add_argument("--groups", type=_positive_int, default=None,
                         help="structural override: ResNeXt-style group count "
                              "(resnet18 only)")
    run_cmd.add_argument("--heads", type=_positive_int, default=None,
                         help="structural override: attention head count "
                              "(tiny_transformer only)")
    run_cmd.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write this invocation's spans as Chrome trace-event JSON to "
             "FILE (open in chrome://tracing or Perfetto)",
    )
    explore_cmd = sub.add_parser(
        "explore", help="design-space sweep with Pareto-frontier reporting")
    explore_cmd.add_argument(
        "--grid", default=None, metavar="FILE",
        help="JSON sweep spec ({\"axes\": {...}, \"base\": {...}, "
             "\"constraints\": [...]}); exclusive with --axis/--base",
    )
    explore_cmd.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2,...",
        help="add a sweep axis, e.g. equivalent_macs=32,64,128 or "
             "accelerator=loom:bits_per_cycle=2,dstripes (repeatable)",
    )
    explore_cmd.add_argument(
        "--base", action="append", default=[], metavar="NAME=VALUE",
        help="fix a non-swept parameter, e.g. network=alexnet (repeatable)",
    )
    explore_cmd.add_argument(
        "--constraint", action="append", default=[], metavar="NAME",
        help="apply a named feasibility constraint, e.g. am_fits_working_set "
             "(repeatable)",
    )
    explore_cmd.add_argument(
        "--strategy", default="grid", choices=sorted(STRATEGIES),
        help="search strategy (default: grid = exhaustive)",
    )
    explore_cmd.add_argument(
        "--strategy-opt", action="append", default=[], metavar="KEY=VALUE",
        help="pass one option to the strategy (repeatable), e.g. "
             "--strategy-opt samples=32 or --strategy-opt model=gp; values "
             "are parsed like axis values (int/float/bool/none/string)",
    )
    explore_cmd.add_argument(
        "--budget", type=_positive_int, default=None, metavar="N",
        help="cap on true simulations the sweep may issue; points already "
             "measured or warm in the result store stay free (default: "
             "unlimited)",
    )
    explore_cmd.add_argument(
        "--samples", type=_positive_int, default=16, metavar="N",
        help="points the random strategy draws (default: 16; shorthand for "
             "--strategy-opt samples=N)",
    )
    explore_cmd.add_argument(
        "--seed", type=int, default=0,
        help="seed for the random/coordinate/surrogate strategies "
             "(default: 0; shorthand for --strategy-opt seed=N)",
    )
    explore_cmd.add_argument(
        "--objectives", default="speedup,energy_efficiency,area",
        metavar="LIST",
        help="comma-separated objectives for the Pareto frontier "
             f"(known: {','.join(sorted(OBJECTIVES))})",
    )
    explore_cmd.add_argument(
        "--baseline", default="dpnn",
        help="accelerator kind the relative metrics compare against "
             "(default: dpnn)",
    )
    explore_cmd.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write every evaluated point (all metrics + Pareto rank) as CSV",
    )
    explore_cmd.add_argument(
        "--markdown", action="store_true",
        help="emit the sweep table as GitHub-flavoured markdown",
    )
    explore_cmd.add_argument(
        "--remote", default=None, metavar="URL",
        help="execute the sweep's simulations on a running `loom-repro "
             "serve` or `loom-repro cluster` endpoint (shared warm store) "
             "instead of in-process",
    )
    explore_cmd.add_argument(
        "--stream", action="store_true",
        help="with --remote: consume results as the server resolves them "
             "(NDJSON against a cluster coordinator; plain servers degrade "
             "to a single response transparently)",
    )
    explore_cmd.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write this sweep's spans as Chrome trace-event JSON to FILE; "
             "with --remote the server's spans are merged in, so the file "
             "shows the whole cross-process trace",
    )
    serve_cmd = sub.add_parser(
        "serve",
        help="run the batching simulation service (HTTP JSON API over one "
             "shared executor and a persistent SQLite result store)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=_port_number, default=8100,
                           help="bind port; 0 asks the OS for a free one "
                                "(default: 8100)")
    store_group = serve_cmd.add_mutually_exclusive_group()
    store_group.add_argument(
        "--store", default=".loom-serve.db", metavar="PATH",
        help="SQLite result store path (default: .loom-serve.db); shared "
             "safely between service threads and other processes",
    )
    store_group.add_argument(
        "--no-store", action="store_true",
        help="keep results in memory only (nothing persisted)",
    )
    serve_cmd.add_argument(
        "--max-entries", type=_positive_int, default=None, metavar="N",
        help="LRU bound on stored results (default: unbounded)",
    )
    serve_cmd.add_argument(
        "--max-memory-entries", type=_positive_int, default=512, metavar="N",
        help="LRU bound on the in-memory result cache (default: 512)",
    )
    serve_cmd.add_argument(
        "--queue-limit", type=_positive_int, default=8, metavar="N",
        help="max distinct in-flight jobs before submissions get 429 + "
             "Retry-After (default: 8; coalesced duplicates never count)",
    )
    serve_cmd.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the bound URL to PATH once listening (for scripts "
             "that start the service in the background)",
    )
    cluster_cmd = sub.add_parser(
        "cluster",
        help="run a sharded serve cluster: a consistent-hash coordinator "
             "plus N local worker processes, each with its own store",
    )
    cluster_cmd.add_argument("--workers", type=_positive_int, default=2,
                             metavar="N",
                             help="worker processes to spawn (default: 2)")
    cluster_cmd.add_argument("--host", default="127.0.0.1",
                             help="coordinator bind address "
                                  "(default: 127.0.0.1)")
    cluster_cmd.add_argument("--port", type=_port_number, default=8200,
                             help="coordinator bind port; 0 asks the OS for "
                                  "a free one (default: 8200)")
    cluster_store = cluster_cmd.add_mutually_exclusive_group()
    cluster_store.add_argument(
        "--store-dir", default=".loom-cluster", metavar="DIR",
        help="directory for the per-worker SQLite stores "
             "(default: .loom-cluster; worker-<i>.db inside it)",
    )
    cluster_store.add_argument(
        "--no-store", action="store_true",
        help="keep worker results in memory only (nothing persisted)",
    )
    cluster_cmd.add_argument(
        "--queue-limit", type=_positive_int, default=8, metavar="N",
        help="per-worker bound on in-flight batches before 429 "
             "backpressure (default: 8)",
    )
    cluster_cmd.add_argument(
        "--rate", type=_positive_float, default=None, metavar="R",
        help="per-client sustained requests/second at the coordinator "
             "(default: unlimited)",
    )
    cluster_cmd.add_argument(
        "--burst", type=_positive_int, default=100, metavar="N",
        help="per-client burst capacity when --rate is set (default: 100)",
    )
    cluster_cmd.add_argument(
        "--quota", type=_positive_int, default=None, metavar="N",
        help="per-client lifetime request quota (default: unlimited)",
    )
    peer_group = cluster_cmd.add_mutually_exclusive_group()
    peer_group.add_argument(
        "--peer-cache", dest="peer_cache", action="store_true", default=True,
        help="let a worker that rejoins the ring ask its ring peer for "
             "a key before simulating it, for a short recovery window "
             "(default: on)",
    )
    peer_group.add_argument(
        "--no-peer-cache", dest="peer_cache", action="store_false",
        help="keep workers shared-nothing (no peer lookups)",
    )
    cluster_cmd.add_argument(
        "--peer-timeout-ms", type=_positive_float, default=1000.0,
        metavar="MS",
        help="strict budget for one peer-cache lookup before falling back "
             "to local compute (default: 1000)",
    )
    cluster_cmd.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the coordinator URL to PATH once every node is up",
    )
    submit_cmd = sub.add_parser(
        "submit", help="submit one simulation to a running serve endpoint")
    submit_cmd.add_argument("--url", required=True,
                            help="serve endpoint, e.g. http://127.0.0.1:8100")
    submit_cmd.add_argument("--network", default="alexnet",
                            choices=available_networks(),
                            help="network to simulate")
    submit_cmd.add_argument("--accuracy", default="100%",
                            choices=["100%", "99%"],
                            help="precision profile to use")
    submit_cmd.add_argument(
        "--accelerator", default="loom", metavar="SPEC",
        help="accelerator design, explore-axis syntax (e.g. dpnn, "
             "loom:bits_per_cycle=2; default: loom)",
    )
    submit_cmd.add_argument("--groups", type=_positive_int, default=None,
                            help="structural override: ResNeXt-style group "
                                 "count (resnet18 only)")
    submit_cmd.add_argument("--heads", type=_positive_int, default=None,
                            help="structural override: attention head count "
                                 "(tiny_transformer only)")
    submit_cmd.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        help="set a config knob, e.g. equivalent_macs=256 or "
             "dram=lpddr4-4267 (repeatable)",
    )
    submit_cmd.add_argument(
        "--json", action="store_true",
        help="print the full result as JSON instead of a summary",
    )
    stats_cmd = sub.add_parser(
        "stats", help="inspect a running service (or a store database)")
    stats_source = stats_cmd.add_mutually_exclusive_group(required=True)
    stats_source.add_argument(
        "--remote", default=None, metavar="URL",
        help="live /stats of a running serve endpoint",
    )
    stats_source.add_argument(
        "--store", default=None, metavar="PATH",
        help="offline statistics of a SQLite result store",
    )
    trace_cmd = sub.add_parser(
        "trace", help="inspect recorded spans (Chrome trace-event export)")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_dump = trace_sub.add_parser(
        "dump",
        help="export recorded spans as Chrome trace-event JSON (open in "
             "chrome://tracing or Perfetto)",
    )
    trace_dump.add_argument(
        "--remote", default=None, metavar="URL",
        help="fetch /trace from a running serve or cluster endpoint (a "
             "coordinator merges every healthy worker's spans) instead of "
             "dumping this process's recorder",
    )
    trace_dump.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the trace document to FILE instead of stdout",
    )
    return parser


def build_executor(args: argparse.Namespace) -> JobExecutor:
    """Build the invocation-wide executor from the parsed CLI flags."""
    if args.no_cache:
        cache = None
    elif args.cache_dir is not None:
        from repro.serve.store import SQLiteResultStore

        cache = ResultCache(backend=SQLiteResultStore(
            os.path.join(os.path.expanduser(args.cache_dir), "results.db")))
    else:
        cache = ResultCache()
    return JobExecutor(cache=cache)


def _format_overrides(groups: Optional[int], heads: Optional[int]) -> str:
    """Render the structural overrides for report headers ('', ' groups=4')."""
    return "".join(
        f" {name}={value}"
        for name, value in (("groups", groups), ("heads", heads))
        if value is not None
    )


def _summary(network_name: str, accuracy: str, executor: JobExecutor,
             csv_path: Optional[str] = None, groups: Optional[int] = None,
             heads: Optional[int] = None) -> str:
    net = NetworkSpec(network_name, accuracy, groups=groups, heads=heads)
    base, fast = executor.run([
        SimJob(network=net, accelerator=AcceleratorSpec.create("dpnn")),
        SimJob(network=net, accelerator=loom_spec()),
    ])

    def ratio(numerator: float, denominator: float) -> str:
        # Degenerate zero-cycle results print "n/a" (like comparison_table)
        # rather than raising ZeroDivisionError.
        if denominator == 0:
            return f"{'n/a':>9s}"
        return f"{numerator / denominator:>9.2f}"

    overrides = _format_overrides(groups, heads)
    lines = [f"== {network_name}{overrides} ({accuracy} profile): "
             f"DPNN vs Loom-1b =="]
    lines.append(f"{'layer':<24s} {'kind':<5s} {'DPNN cycles':>14s} "
                 f"{'Loom cycles':>14s} {'speedup':>9s}")
    for base_layer, loom_layer in zip(base.layers, fast.layers):
        lines.append(
            f"{base_layer.layer_name:<24s} {base_layer.layer_kind:<5s} "
            f"{base_layer.cycles:>14,.0f} {loom_layer.cycles:>14,.0f} "
            f"{ratio(base_layer.cycles, loom_layer.cycles)}"
        )
    lines.append(
        f"{'TOTAL':<24s} {'':<5s} {base.total_cycles():>14,.0f} "
        f"{fast.total_cycles():>14,.0f} "
        f"{ratio(base.total_cycles(), fast.total_cycles())}"
    )
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(to_csv([base, fast]))
        lines.append(f"per-layer CSV written to {csv_path}")
    return "\n".join(lines)


def _parse_axis_flag(token: str) -> Axis:
    name, sep, rest = token.partition("=")
    values = [v for v in rest.split(",") if v]
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"bad --axis {token!r}; expected NAME=V1,V2,..."
        )
    if name == "accelerator":
        return Axis(name, tuple(values))
    return Axis(name, tuple(parse_value(v) for v in values))


def _parse_base_flag(token: str):
    name, sep, raw = token.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"bad --base {token!r}; expected NAME=VALUE"
        )
    return name, (raw if name == "accelerator" else parse_value(raw))


#: Default inline sweep: the Figure 5 scale axis crossed with the paper's
#: precision-exploiting designs, on AlexNet.
_DEFAULT_EXPLORE_AXES = (
    ("equivalent_macs", "32,64,128,256,512"),
    ("accelerator", "loom,loom:bits_per_cycle=2,loom:bits_per_cycle=4,dstripes"),
)


def _build_space(args: argparse.Namespace) -> SweepSpec:
    """Build the sweep spec an ``explore`` invocation describes."""
    if args.grid is not None:
        if args.axis or args.base:
            raise ValueError("--grid is exclusive with --axis/--base")
        with open(args.grid, "r", encoding="utf-8") as handle:
            space = SweepSpec.from_dict(json.load(handle))
        if args.constraint:
            space = SweepSpec(
                axes=list(space.axes),
                base=space.base,
                constraints=list(space.constraints)
                + [named_constraint(name) for name in args.constraint],
            )
        return space
    axis_tokens = args.axis or [f"{name}={values}"
                                for name, values in _DEFAULT_EXPLORE_AXES]
    axes = [_parse_axis_flag(token) for token in axis_tokens]
    base = dict(_parse_base_flag(token) for token in args.base)
    swept = {axis.name for axis in axes}
    if "network" not in swept and "network" not in base:
        base["network"] = "alexnet"
    return SweepSpec(axes=axes, base=base,
                     constraints=[named_constraint(n) for n in args.constraint])


def _explore(args: argparse.Namespace, executor: JobExecutor) -> str:
    if args.stream and args.remote is None:
        raise ValueError("--stream requires --remote (streaming is a wire "
                         "feature; in-process sweeps already stream)")
    space = _build_space(args)
    options = parse_strategy_options(args.strategy_opt)
    if args.strategy == "random":
        options.setdefault("samples", args.samples)
    if args.strategy in ("random", "coordinate", "surrogate"):
        options.setdefault("seed", args.seed)
    if args.remote is not None:
        from repro.serve import RemoteExecutor
        executor = RemoteExecutor(args.remote, stream=args.stream)
    result = explore(
        space,
        strategy=resolve_strategy(args.strategy, **options),
        objectives=args.objectives,
        executor=executor,
        baseline=args.baseline,
        budget=args.budget,
    )
    if args.markdown:
        parts = [sweep_markdown(result)]
    else:
        parts = [sweep_table(result), frontier_table(result)]
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(sweep_to_csv(result))
        parts.append(f"sweep CSV ({len(result.evaluated)} points) written to "
                     f"{args.csv}")
    if args.remote is not None:
        stats = executor.stats
        parts.append(
            f"remote: {stats.submitted} jobs submitted to {args.remote} "
            f"({stats.executed} executed there, {stats.cache_hits} answered "
            f"from its warm store)"
        )
    return "\n\n".join(parts)


def _serve(args: argparse.Namespace) -> str:
    """Run one HTTP node until a signal or POST /shutdown stops it."""
    from repro.cluster.worker import build_worker

    node = build_worker(None if args.no_store else args.store,
                        max_entries=args.max_entries,
                        max_memory_entries=args.max_memory_entries,
                        queue_limit=args.queue_limit,
                        host=args.host, port=args.port)
    url = node.start()
    backend = node.core.cache.backend
    _log.info("serve.listening", url=url,
              store=backend.describe() if backend is not None
              else "memory only",
              queue_limit=args.queue_limit)
    if args.ready_file is not None:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(url + "\n")
    node.serve_until_stopped()
    stats = node.core.stats
    return (f"serve: stopped after {stats.requests} requests "
            f"({stats.submitted_points} points submitted, "
            f"{stats.coalesced} coalesced, {stats.rejected} rejected)")


def _cluster(args: argparse.Namespace) -> str:
    """Run a coordinator plus N worker processes until stopped."""
    import select
    import subprocess
    import time
    from pathlib import Path

    import repro
    from repro.cluster import ClusterCoordinator, RateLimiter
    from repro.serve import ServeClient

    store_dir = None if args.no_store else Path(args.store_dir)
    if store_dir is not None:
        store_dir.mkdir(parents=True, exist_ok=True)
    # Children import this very package, wherever it was loaded from.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    processes = []
    for index in range(args.workers):
        store_path = (str(store_dir / f"worker-{index}.db")
                      if store_dir is not None else None)
        options = dict(store_path=store_path, queue_limit=args.queue_limit,
                       log_level=args.log_level, log_json=args.log_json,
                       engine=args.engine)
        processes.append(subprocess.Popen(
            [sys.executable, "-c",
             "import json, sys; from repro.cluster.worker import "
             "worker_process_main; worker_process_main(**json.loads("
             "sys.argv[1]))", json.dumps(options)],
            env=env, stdout=subprocess.PIPE, text=True,
        ))

    def _reap() -> None:
        for process in processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.terminate()
                process.wait(timeout=5)

    # Each child prints its URL once it serves (EOF: it died on the way).
    worker_urls = []
    deadline = time.monotonic() + 120
    for process in processes:
        readable, _, _ = select.select(
            [process.stdout], [], [], max(0.0, deadline - time.monotonic()))
        worker_urls.append(process.stdout.readline().strip()
                           if readable else "")
        process.stdout.close()
    if not all(worker_urls):
        for process in processes:
            process.terminate()
        _reap()
        raise OSError("a cluster worker failed to start")

    rate_limiter = None
    if args.rate is not None or args.quota is not None:
        rate_limiter = RateLimiter(
            rate=args.rate if args.rate is not None else 50.0,
            burst=args.burst, quota=args.quota)
    coordinator = ClusterCoordinator(worker_urls, host=args.host,
                                     port=args.port,
                                     rate_limiter=rate_limiter,
                                     peer_cache=args.peer_cache,
                                     peer_timeout_s=args.peer_timeout_ms
                                     / 1000.0)

    def _stop_workers() -> None:
        for worker_url in worker_urls:
            try:
                ServeClient(worker_url, timeout_s=10).shutdown()
            except Exception:  # noqa: BLE001 - worker may already be gone
                pass
        _reap()

    try:
        url = coordinator.start()
    except OSError:
        _stop_workers()
        raise
    _log.info("cluster.listening", url=url, workers=len(worker_urls),
              worker_urls=worker_urls)
    if args.ready_file is not None:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(url + "\n")
    try:
        coordinator.serve_until_stopped()
    finally:
        _stop_workers()
    stats = coordinator.stats
    return (f"cluster: stopped after {stats.requests} requests "
            f"({stats.submitted_points} points submitted, "
            f"{stats.routed_points} routed, "
            f"{stats.shard_retries} re-routed, "
            f"{stats.rate_limited} rate-limited)")


def _submit(args: argparse.Namespace) -> str:
    """Submit one job to a running service and report the served result."""
    from repro.serve import ServeClient

    point = {"network": args.network, "accelerator": args.accelerator}
    if args.accuracy != "100%":
        point["accuracy"] = args.accuracy
    for override in ("groups", "heads"):
        value = getattr(args, override)
        if value is not None:
            point[override] = value
    for token in args.set:
        name, sep, raw = token.partition("=")
        if not sep or not name:
            raise ValueError(f"bad --set {token!r}; expected NAME=VALUE")
        point[name] = parse_value(raw)
    done = ServeClient(args.url).submit(point)
    if args.json:
        return json.dumps({"key": done.key, "status": done.status,
                           "result": done.result.to_dict()},
                          indent=2, sort_keys=True)
    result = done.result
    return "\n".join([
        f"== served: {result.network} on {result.accelerator} "
        f"({done.status}) ==",
        f"key:         {done.key}",
        f"cycles:      {result.total_cycles():,.0f}",
        f"energy (uJ): {result.total_energy_pj() / 1e6:.2f}",
        f"fps:         {result.frames_per_second():,.1f}",
    ])


def _stats(args: argparse.Namespace) -> str:
    """Live /stats of a running service, or offline stats of a store file."""
    if args.remote is not None:
        from repro.serve import ServeClient
        payload = ServeClient(args.remote).stats()
    else:
        from repro.serve import SQLiteResultStore
        if not os.path.exists(args.store):
            raise ValueError(f"no store database at {args.store}")
        # Read-only inspection: never repairs/wipes the way opening a store
        # for service use would.
        payload = SQLiteResultStore.inspect(args.store)
    return json.dumps(payload, indent=2, sort_keys=True)


def _collect_spans(remote: Optional[str]) -> List[Span]:
    """This process's recorded spans, or a remote endpoint's via /trace."""
    if remote is None:
        return list(get_tracer().recorder.spans())
    from repro.serve import ServeClient

    payload = ServeClient(remote).trace()
    return [Span.from_dict(entry) for entry in payload.get("spans", [])]


def _trace_dump(args: argparse.Namespace) -> str:
    """Export spans as a Chrome trace-event document (stdout or --out)."""
    spans = _collect_spans(args.remote)
    document = json.dumps(chrome_trace(spans), indent=2)
    if args.out is None:
        return document
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document + "\n")
    return f"trace: {len(spans)} spans written to {args.out}"


def _write_trace_out(args: argparse.Namespace) -> None:
    """Honour ``--trace-out FILE`` after a traced command finishes.

    For ``explore --remote`` the server's spans are merged in (best effort:
    an endpoint that already shut down just yields the local half), so the
    file shows the whole cross-process sweep on one timeline.
    """
    spans = _collect_spans(None)
    remote = getattr(args, "remote", None)
    if remote is not None:
        try:
            spans.extend(_collect_spans(remote))
        except (ServeError, OSError, ValueError, KeyError, TypeError):
            _log.warning("trace.remote_fetch_failed", remote=remote)
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(chrome_trace(spans)) + "\n")
    _log.info("trace.written", path=args.trace_out, spans=len(spans))


def _run_designs() -> List[Tuple[str, AcceleratorSpec]]:
    """The stock designs ``loom-repro run`` simulates, with display labels.

    One shared definition of the labeled six-design matrix (also used by the
    golden-snapshot suite), so adding a stock design is a one-place change.
    """
    return list(default_design_specs(include_dstripes=True).items())


def _run(args: argparse.Namespace, executor: JobExecutor) -> str:
    """Simulate one network on every stock design; report vs the baseline."""
    net = NetworkSpec(args.network, args.accuracy,
                      groups=args.groups, heads=args.heads)
    designs = _run_designs()
    results = executor.run([
        SimJob(network=net, accelerator=spec) for _, spec in designs
    ])
    baseline = results[0]
    kinds = network_kind_counts(args.network)
    workload = " ".join(f"{kinds[kind]} {kind}" for kind in
                        ("conv", "matmul", "fc") if kinds[kind])
    overrides = _format_overrides(args.groups, args.heads)
    lines = [f"== {args.network}{overrides} ({args.accuracy} profile): "
             f"{workload} layers =="]
    lines.append(f"{'design':<10s} {'cycles':>14s} {'energy (uJ)':>12s} "
                 f"{'speedup':>8s} {'efficiency':>11s}")
    for (label, _), result in zip(designs, results):
        relative = compare(result, baseline)
        lines.append(
            f"{label:<10s} {result.total_cycles():>14,.0f} "
            f"{result.total_energy_pj() / 1e6:>12.2f} "
            f"{relative.speedup:>7.2f}x {relative.energy_efficiency:>10.2f}x"
        )
    return "\n".join(lines)


def _networks_listing() -> str:
    lines = ["== networks: the paper's zoo plus the modern workloads =="]
    lines.append(f"{'network':<18s} {'conv':>6s} {'matmul':>7s} {'fc':>6s} "
                 f"{'total':>7s}")
    for name in available_networks():
        kinds = network_kind_counts(name)
        total = sum(kinds.values())
        lines.append(f"{name:<18s} {kinds['conv']:>6d} {kinds['matmul']:>7d} "
                     f"{kinds['fc']:>6d} {total:>7d}")
    return "\n".join(lines)


def _validate(args: argparse.Namespace) -> Tuple[str, bool]:
    """Run the differential engine validation; returns (report, ok)."""
    from repro.sim.validate import validate_tile_level, validate_zoo

    # The subcommand's --engine names the candidate engine explicitly;
    # otherwise the global --engine is the candidate (its historic meaning).
    engine = args.validate_engine if args.validate_engine is not None \
        else args.engine
    if args.quick:
        # Two paper networks plus every modern workload (grouped/depthwise,
        # residual, attention): the smoke set still crosses each layer type
        # with the full accelerator matrix.
        report = validate_zoo(networks=["alexnet", "nin"] + modern_networks(),
                              accuracies=["100%"],
                              include_effective_weights=False,
                              engine=engine)
    else:
        report = validate_zoo(engine=engine)
    tile_checks = validate_tile_level()
    lines = [report.summary(verbose=args.verbose)]
    lines.append("== event-engine anchor: analytical schedules executed "
                 "cycle by cycle ==")
    lines.extend("  " + check.describe() for check in tile_checks)
    ok = report.ok and all(check.ok for check in tile_checks)
    return "\n".join(lines), ok


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``loom-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    configure_logging(level=args.log_level, json_output=args.log_json)
    # Name this process's spans after its role, so a merged Chrome trace
    # shows "cli", "serve" and "coordinator" as separate process rows.
    set_tracer(Tracer(service={"serve": "serve",
                               "cluster": "coordinator"}.get(command, "cli")))
    if command in ("serve", "cluster") and \
            (args.no_cache or args.cache_dir is not None):
        parser.error(f"{command} keeps its own persistent store; use "
                     f"--store/--no-store instead of --cache-dir/--no-cache")
    # Remote-side commands execute on the server, so the local pipeline
    # flags would be silent no-ops -- reject them rather than mislead.
    if command in ("submit", "stats", "trace") or \
            (command == "explore" and args.remote is not None):
        ignored = [flag for flag, is_set in (
            ("--engine", args.engine != "vector"),
            ("--no-cache", args.no_cache),
            ("--cache-dir", args.cache_dir is not None),
        ) if is_set]
        if ignored:
            parser.error(
                f"{'/'.join(ignored)} have no effect on {command}: execution "
                f"happens on the server (configure `loom-repro serve`'s own "
                f"flags instead)")
    outputs: List[str] = []
    exit_code = 0
    # serve builds its own store-backed executor; submit/stats/remote
    # explore execute on the server -- none of them should build (or later
    # report statistics for) a local pipeline executor.
    uses_local_executor = args.command not in ("serve", "cluster", "submit",
                                               "stats", "trace") \
        and not (args.command == "explore" and args.remote is not None)
    executor = None
    if uses_local_executor:
        try:
            executor = build_executor(args)
        except (OSError, sqlite3.Error) as error:
            parser.error(f"--cache-dir: {error}")
    # use_engine (not set_default_engine): in-process callers of main() must
    # get the previous engine default back when the invocation finishes.
    with use_engine(args.engine), \
            (executor if executor is not None else contextlib.nullcontext()), \
            get_tracer().span(f"cli.{command}"):
        if command in ("table1", "all"):
            outputs.append(table1.format_table())
        if command in ("table2", "all"):
            outputs.append(table2.format_table(table2.run(executor=executor)))
        if command in ("figure4", "all"):
            outputs.append(figure4.format_figure(figure4.run(executor=executor)))
        if command in ("area", "all"):
            outputs.append(area.format_table(area.run(executor=executor)))
        if command in ("figure5", "all"):
            configs = tuple(getattr(args, "configs", figure5.CONFIG_SWEEP))
            outputs.append(
                figure5.format_figure(
                    figure5.run(configs=configs, executor=executor)
                )
            )
        if command in ("table3", "all"):
            outputs.append(table3.format_table())
        if command in ("table4", "all"):
            outputs.append(table4.format_table(table4.run(executor=executor)))
        if command == "ablation":
            outputs.append(ablation.format_table(ablation.run(executor=executor)))
        if command == "networks":
            outputs.append(_networks_listing())
        if command == "validate":
            report, ok = _validate(args)
            outputs.append(report)
            if not ok:
                exit_code = 1
        if command == "summary":
            try:
                outputs.append(_summary(args.network, args.accuracy, executor,
                                        csv_path=args.csv, groups=args.groups,
                                        heads=args.heads))
            except OSError as error:
                parser.error(f"--csv: {error}")
            except (KeyError, ValueError) as error:
                parser.error(str(error))
        if command == "run":
            try:
                outputs.append(_run(args, executor))
            except (KeyError, ValueError) as error:
                parser.error(str(error))
        if command == "explore":
            try:
                outputs.append(_explore(args, executor))
            except (OSError, ValueError, argparse.ArgumentTypeError,
                    ServeError) as error:
                parser.error(str(error))
        if command == "serve":
            try:
                outputs.append(_serve(args))
            except OSError as error:
                parser.error(str(error))
        if command == "cluster":
            try:
                outputs.append(_cluster(args))
            except OSError as error:
                parser.error(str(error))
        if command == "submit":
            try:
                outputs.append(_submit(args))
            except (OSError, ValueError, ServeError) as error:
                parser.error(str(error))
        if command == "stats":
            try:
                outputs.append(_stats(args))
            except (OSError, ValueError, ServeError) as error:
                parser.error(str(error))
        if command == "trace":
            try:
                outputs.append(_trace_dump(args))
            except (OSError, ValueError, KeyError, TypeError,
                    ServeError) as error:
                parser.error(str(error))
    if getattr(args, "trace_out", None) is not None:
        try:
            _write_trace_out(args)
        except OSError as error:
            parser.error(f"--trace-out: {error}")
    if args.verbose and executor is not None:
        print(executor.stats.summary(cache=executor.cache), file=sys.stderr)
    if executor is not None and executor.cache is not None:
        executor.cache.close()
    print("\n\n".join(outputs))
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
