"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_executor, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in ("table1", "table2", "figure4", "area", "table3",
                        "table4", "ablation", "all"):
            assert parser.parse_args([command]).command == command

    def test_figure5_configs_argument(self):
        args = build_parser().parse_args(["figure5", "--configs", "32", "64"])
        assert args.configs == [32, 64]

    def test_summary_arguments(self):
        args = build_parser().parse_args(
            ["summary", "--network", "vggm", "--accuracy", "99%"])
        assert args.network == "vggm"
        assert args.accuracy == "99%"

    def test_summary_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summary", "--network", "resnet"])

    def test_pipeline_flags_default(self):
        args = build_parser().parse_args(["all"])
        assert args.engine == "vector"
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_pipeline_flags_parse(self):
        args = build_parser().parse_args(
            ["--engine", "event", "--cache-dir", "/tmp/c", "table2"])
        assert args.engine == "event"
        assert args.cache_dir == "/tmp/c"
        assert build_parser().parse_args(["--no-cache", "all"]).no_cache is True

    def test_no_cache_conflicts_with_cache_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--no-cache", "--cache-dir", "/tmp/c", "all"])

    def test_networks_command_parses(self):
        assert build_parser().parse_args(["networks"]).command == "networks"

    def test_verbose_flag_parses(self):
        assert build_parser().parse_args(["-v", "all"]).verbose is True
        assert build_parser().parse_args(["all"]).verbose is False

    def test_summary_csv_flag(self):
        args = build_parser().parse_args(["summary", "--csv", "/tmp/x.csv"])
        assert args.csv == "/tmp/x.csv"

    def test_explore_arguments(self):
        args = build_parser().parse_args([
            "explore", "--axis", "equivalent_macs=32,64",
            "--axis", "accelerator=loom,dstripes",
            "--base", "network=nin", "--strategy", "random",
            "--samples", "4", "--seed", "9",
            "--objectives", "speedup,area", "--csv", "/tmp/sweep.csv",
        ])
        assert args.command == "explore"
        assert args.axis == ["equivalent_macs=32,64", "accelerator=loom,dstripes"]
        assert args.base == ["network=nin"]
        assert args.strategy == "random" and args.samples == 4 and args.seed == 9
        assert args.objectives == "speedup,area"
        assert args.csv == "/tmp/sweep.csv"

    def test_explore_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--strategy", "genetic"])

    def test_explore_strategy_opt_and_budget(self):
        args = build_parser().parse_args([
            "explore", "--axis", "equivalent_macs=32,64",
            "--strategy", "surrogate",
            "--strategy-opt", "initial=4", "--strategy-opt", "model=ridge",
            "--budget", "12",
        ])
        assert args.strategy == "surrogate"
        assert args.strategy_opt == ["initial=4", "model=ridge"]
        assert args.budget == 12
        assert build_parser().parse_args(["explore"]).budget is None
        assert build_parser().parse_args(["explore"]).strategy_opt == []

    def test_explore_budget_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--budget", "0"])

    def test_explore_bad_strategy_opt_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--axis", "equivalent_macs=32,64",
                  "--strategy-opt", "initial"])
        assert excinfo.value.code == 2
        assert "key=value" in capsys.readouterr().err

    def test_explore_remote_flag(self):
        args = build_parser().parse_args(
            ["explore", "--remote", "http://127.0.0.1:8100"])
        assert args.remote == "http://127.0.0.1:8100"
        assert build_parser().parse_args(["explore"]).remote is None


class TestJobsValidation:
    """There is no process pool, so --jobs is not an option at all: every
    value is rejected up front by argparse, before any simulation."""

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_jobs_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--jobs", bad, "all"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--jobs", "many", "all"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_main_rejects_bad_jobs_before_any_simulation(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--jobs", "2", "table2"])
        assert excinfo.value.code == 2
        assert "Table 2" not in capsys.readouterr().out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8100
        assert args.store == ".loom-serve.db" and args.no_store is False
        assert args.queue_limit == 8
        assert args.max_entries is None and args.max_memory_entries == 512
        assert args.ready_file is None

    def test_serve_port_zero_is_allowed(self):
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0

    def test_serve_rejects_bad_ports(self, capsys):
        for bad in ("-1", "70000", "http"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--port", bad])

    def test_serve_store_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--store", "/tmp/x.db", "--no-store"])

    def test_serve_conflicts_with_global_cache_flags(self, capsys):
        for flags in (["--no-cache"], ["--cache-dir", "/tmp/c"]):
            with pytest.raises(SystemExit) as excinfo:
                main(flags + ["serve"])
            assert excinfo.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_remote_commands_reject_local_pipeline_flags(self, capsys):
        # Regression: --engine/--cache flags would be silent no-ops on
        # commands that execute on the server; they must error instead.
        cases = [
            ["--engine", "event", "submit", "--url", "http://x"],
            ["--engine", "event", "stats", "--remote", "http://x"],
            ["--no-cache", "submit", "--url", "http://x"],
            ["--cache-dir", "/tmp/c", "explore", "--remote", "http://x"],
        ]
        for argv in cases:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no effect" in err and "server" in err
        # Local explore still accepts them all.
        args = build_parser().parse_args(
            ["--engine", "event", "--no-cache", "explore"])
        assert args.remote is None


class TestClusterParser:
    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.command == "cluster"
        assert args.workers == 2
        assert args.host == "127.0.0.1" and args.port == 8200
        assert args.store_dir == ".loom-cluster" and args.no_store is False
        assert args.queue_limit == 8
        assert args.rate is None and args.burst == 100 and args.quota is None
        assert args.ready_file is None
        assert args.peer_cache is True
        assert args.peer_timeout_ms == 1000.0

    def test_cluster_port_zero_is_allowed(self):
        assert build_parser().parse_args(["cluster", "--port", "0"]).port == 0

    def test_cluster_store_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--store-dir", "/tmp/x", "--no-store"])

    def test_cluster_peer_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["cluster", "--no-peer-cache", "--peer-timeout-ms", "250"])
        assert args.peer_cache is False
        assert args.peer_timeout_ms == 250.0

    def test_cluster_peer_cache_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--peer-cache", "--no-peer-cache"])

    def test_cluster_rejects_non_positive_rate_at_parse_time(self, capsys):
        # Regression: `--rate 0` used to pass argparse and only explode at
        # the first client's request, deep in the coordinator request path.
        for value in ("0", "-3", "nope"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["cluster", "--rate", value])
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be > 0" in err and "expected a number" in err

    def test_cluster_rejects_non_positive_peer_timeout(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--peer-timeout-ms", "0"])

    def test_cluster_rejects_non_finite_budgets(self, capsys):
        # Regression: `--peer-timeout-ms nan` parsed, and the peer tier
        # then stayed off (every /ring push answered 400).
        for flag in ("--peer-timeout-ms", "--rate"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(SystemExit) as excinfo:
                    build_parser().parse_args(["cluster", flag, value])
                assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_cluster_conflicts_with_global_cache_flags(self, capsys):
        for flags in (["--no-cache"], ["--cache-dir", "/tmp/c"]):
            with pytest.raises(SystemExit) as excinfo:
                main(flags + ["cluster"])
            assert excinfo.value.code == 2

    def test_explore_stream_requires_remote(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--stream",
                  "--axis", "equivalent_macs=32,64"])
        assert excinfo.value.code == 2
        assert "--remote" in capsys.readouterr().err

    def test_submit_arguments(self):
        args = build_parser().parse_args([
            "submit", "--url", "http://127.0.0.1:8100",
            "--network", "nin", "--accelerator", "loom:bits_per_cycle=2",
            "--set", "equivalent_macs=256", "--json",
        ])
        assert args.url == "http://127.0.0.1:8100"
        assert args.network == "nin"
        assert args.accelerator == "loom:bits_per_cycle=2"
        assert args.set == ["equivalent_macs=256"]
        assert args.json is True

    def test_submit_requires_url(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_stats_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stats", "--remote", "http://x", "--store", "/tmp/x.db"])
        args = build_parser().parse_args(["stats", "--remote", "http://x"])
        assert args.remote == "http://x"


class TestServeMain:
    def test_submit_to_unreachable_server_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--url", "http://127.0.0.1:1", "--network",
                  "alexnet"])
        assert excinfo.value.code == 2

    def test_submit_rejects_bad_set_tokens(self, capsys):
        with pytest.raises(SystemExit):
            main(["submit", "--url", "http://127.0.0.1:1",
                  "--set", "equivalent_macs"])
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_stats_on_missing_store_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["stats", "--store", "/nonexistent/store.db"])
        assert "no store database" in capsys.readouterr().err

    def test_stats_on_a_directory_is_a_clean_error(self, tmp_path, capsys):
        # Regression: a connect-time SQLite failure (e.g. pointing --store
        # at a directory) must be a parser error, not a raw traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--store", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "not a result-store database" in capsys.readouterr().err

    def test_stats_never_wipes_an_incompatible_store(self, tmp_path, capsys):
        import sqlite3

        from repro.serve import SQLiteResultStore
        from repro.serve.store import SCHEMA_VERSION

        path = tmp_path / "s.db"
        store = SQLiteResultStore(path)
        store.close()
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert main(["stats", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"compatible": false' in out
        assert path.read_bytes() == before  # untouched

    def test_stats_reads_a_store_offline(self, tmp_path, capsys):
        from repro.serve import SQLiteResultStore
        store = SQLiteResultStore(tmp_path / "s.db")
        store.close()
        assert main(["stats", "--store", str(tmp_path / "s.db")]) == 0
        out = capsys.readouterr().out
        assert '"backend": "sqlite"' in out and '"entries": 0' in out

    def test_serve_and_submit_round_trip(self, tmp_path, capsys):
        # One in-process node; the CLI submit path runs against it.
        from repro.cluster import ClusterWorker

        with ClusterWorker() as node:
            assert main(["submit", "--url", node.url,
                         "--network", "alexnet", "--accelerator", "dpnn"]) == 0
            out = capsys.readouterr().out
            assert "served: alexnet on DPNN" in out
            assert "cycles" in out

    def test_explore_remote_round_trip(self, tmp_path, capsys):
        from repro.cluster import ClusterWorker

        with ClusterWorker() as node:
            assert main([
                "explore", "--remote", node.url,
                "--axis", "equivalent_macs=32,64",
                "--axis", "accelerator=loom,dpnn",
            ]) == 0
            out = capsys.readouterr().out
            assert "Pareto frontier" in out
            assert f"remote: 8 jobs submitted to {node.url}" in out

    def test_serve_command_full_lifecycle(self, tmp_path, capsys):
        # The `loom-repro serve` loop itself, in-process: binds port 0,
        # writes the ready file, serves a submission, stops on /shutdown.
        import threading

        from repro.serve import ServeClient

        ready = tmp_path / "url.txt"
        exit_codes = []

        def run_server():
            exit_codes.append(main([
                "serve", "--port", "0", "--store", str(tmp_path / "s.db"),
                "--queue-limit", "2", "--ready-file", str(ready),
            ]))

        thread = threading.Thread(target=run_server)
        thread.start()
        try:
            for _ in range(200):
                if ready.exists() and ready.read_text().strip():
                    break
                thread.join(timeout=0.05)
            url = ready.read_text().strip()
            client = ServeClient(url)
            done = client.submit(network="alexnet", accelerator="dpnn")
            assert done.status == "executed"
            client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_codes == [0]
        out = capsys.readouterr().out
        assert "serve: stopped after" in out
        assert "1 points submitted" in out


class TestBuildExecutor:
    def test_default_executor_has_memory_cache(self):
        executor = build_executor(build_parser().parse_args(["all"]))
        assert executor.cache is not None
        assert executor.cache.backend is None

    def test_no_cache_disables_cache(self):
        executor = build_executor(
            build_parser().parse_args(["--no-cache", "all"]))
        assert executor.cache is None

    def test_cache_dir_enables_disk_store(self, tmp_path):
        executor = build_executor(
            build_parser().parse_args(["--cache-dir", str(tmp_path / "c"), "all"]))
        assert executor.cache.backend.path == tmp_path / "c" / "results.db"
        executor.cache.close()



class TestMain:
    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "alexnet" in out

    def test_table3_output(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_area_output(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "area" in out.lower()

    def test_summary_output(self, capsys):
        assert main(["summary", "--network", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "TOTAL" in out

    def test_figure5_with_reduced_sweep(self, capsys):
        assert main(["figure5", "--configs", "32", "64"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "512" not in out.split("\n")[2]

    def test_networks_output(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        # Every zoo network with its conv/fc layer counts.
        assert "googlenet" in out and "57" in out
        assert "nin" in out and "vgg19" in out

    def test_no_cache_flag_runs(self, capsys):
        assert main(["--no-cache", "summary", "--network", "alexnet"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_event_engine_output_identical_to_vector(self, capsys):
        assert main(["figure5", "--configs", "32"]) == 0
        vector = capsys.readouterr().out
        assert main(["--engine", "event", "figure5", "--configs", "32"]) == 0
        assert capsys.readouterr().out == vector

    def test_cache_dir_reused_across_invocations(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["--cache-dir", cache_dir, "table2"]) == 0
        first = capsys.readouterr().out
        assert main(["--cache-dir", cache_dir, "table2"]) == 0
        assert capsys.readouterr().out == first
        import os
        assert "results.db" in os.listdir(cache_dir)

    def test_summary_csv_export(self, capsys, tmp_path):
        path = tmp_path / "layers.csv"
        assert main(["summary", "--network", "alexnet",
                     "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"per-layer CSV written to {path}" in out
        rows = path.read_text().strip().splitlines()
        assert rows[0].startswith("network,accelerator,layer")
        # DPNN and Loom rows for every compute layer, plus the header.
        assert len(rows) > 2 and ",DPNN," in rows[1]
        assert any(",Loom-1b," in row for row in rows)

    def test_summary_csv_unwritable_path_is_a_clean_cli_error(self, capsys,
                                                              tmp_path):
        with pytest.raises(SystemExit):
            main(["summary", "--network", "alexnet",
                  "--csv", str(tmp_path / "missing-dir" / "x.csv")])
        assert "--csv" in capsys.readouterr().err

    def test_figure5_duplicate_configs_accepted(self, capsys):
        assert main(["figure5", "--configs", "32", "32"]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert header.count("32") == 2

    def test_verbose_reports_pipeline_stats(self, capsys):
        assert main(["--verbose", "summary", "--network", "alexnet"]) == 0
        captured = capsys.readouterr()
        assert "TOTAL" in captured.out
        assert "pipeline:" in captured.err and "simulated" in captured.err


class TestExploreCommand:
    ARGS = ["explore",
            "--axis", "equivalent_macs=32,64",
            "--axis", "accelerator=loom,dstripes"]

    def test_inline_axes_sweep(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "design-space exploration: grid strategy" in out
        assert "Pareto frontier" in out
        assert "loom-1b" in out and "dstripes" in out

    def test_grid_file_sweep(self, capsys, tmp_path):
        import json
        grid = tmp_path / "sweep.json"
        grid.write_text(json.dumps({
            "axes": {"equivalent_macs": [32, 64],
                     "accelerator": ["loom", "dstripes"]},
            "base": {"network": "alexnet"},
        }))
        assert main(["explore", "--grid", str(grid)]) == 0
        assert "4/4 feasible points" in capsys.readouterr().out

    def test_grid_conflicts_with_axes(self, tmp_path):
        grid = tmp_path / "sweep.json"
        grid.write_text("{}")
        with pytest.raises(SystemExit):
            main(["explore", "--grid", str(grid),
                  "--axis", "equivalent_macs=32"])

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--csv", str(path)]) == 0
        assert f"written to {path}" in capsys.readouterr().out
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 4
        assert "pareto_rank" in rows[0]

    def test_markdown_output(self, capsys):
        assert main(self.ARGS + ["--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("| equivalent_macs |")

    def test_surrogate_strategy_with_options_and_budget(self, capsys):
        assert main(self.ARGS + [
            "--strategy", "surrogate", "--seed", "1", "--budget", "3",
            "--strategy-opt", "initial=2", "--strategy-opt", "batch=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "design-space exploration: surrogate strategy" in out
        # The budget caps the sweep at 3 of the 4 feasible points.
        assert "3/4 feasible points" in out

    def test_random_strategy_is_reproducible(self, capsys):
        args = self.ARGS + ["--strategy", "random", "--samples", "2",
                            "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "2/4 feasible points" in first

    def test_repeat_run_with_disk_cache_simulates_nothing(self, capsys,
                                                          tmp_path):
        args = ["--verbose", "--cache-dir", str(tmp_path / "cache")] + self.ARGS
        assert main(args) == 0
        first = capsys.readouterr()
        assert " 6 simulated" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert " 0 simulated" in second.err

    def test_constraint_flag(self, capsys):
        assert main(["explore",
                     "--axis", "am_capacity_bytes=65536,4194304",
                     "--base", "accelerator=dpnn",
                     "--constraint", "am_fits_working_set",
                     "--objectives", "cycles,area"]) == 0
        assert "1/1 feasible points" in capsys.readouterr().out

    def test_unknown_axis_errors_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["explore", "--axis", "warp_drive=1,2"])


class TestObservabilityFlags:
    def test_log_flags_default(self):
        args = build_parser().parse_args(["all"])
        assert args.log_level == "info"
        assert args.log_json is False

    def test_log_flags_parse(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--log-json", "networks"])
        assert args.log_level == "debug"
        assert args.log_json is True

    def test_unknown_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "loud", "all"])

    def test_trace_out_parses_on_traced_commands(self):
        parser = build_parser()
        for argv in (["run", "--trace-out", "t.json"],
                     ["explore", "--trace-out", "t.json"],
                     ["validate", "--trace-out", "t.json"]):
            assert parser.parse_args(argv).trace_out == "t.json"

    def test_trace_dump_arguments(self):
        args = build_parser().parse_args(
            ["trace", "dump", "--remote", "http://h:1", "--out", "t.json"])
        assert args.command == "trace"
        assert args.trace_command == "dump"
        assert args.remote == "http://h:1"
        assert args.out == "t.json"

    def test_trace_dump_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["run", "--network", "alexnet",
                     "--trace-out", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        events = [event for event in document["traceEvents"]
                  if event.get("ph") == "X"]
        names = {event["name"] for event in events}
        assert "cli.run" in names
        assert "executor.run" in names
        # Executor spans nest under the CLI root: one connected trace.
        root = next(e for e in events if e["name"] == "cli.run")
        assert all(event["args"]["trace_id"] == root["args"]["trace_id"]
                   for event in events)

    def test_trace_dump_local_prints_a_document(self, capsys):
        import json

        assert main(["trace", "dump"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "traceEvents" in document

    def test_log_json_mode_emits_parseable_records(self, tmp_path, capsys):
        import json

        assert main(["--log-json", "run", "--network", "alexnet",
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines()
                   if line.startswith("{")]
        assert any(record["event"] == "trace.written"
                   for record in records)
