"""Smoke tests: every shipped example must run end to end, and every
benchmark script must at least print its --help."""

import pathlib
import subprocess
import sys

import pytest


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_example(name: str) -> str:
    script = EXAMPLES_DIR / name
    assert script.exists(), f"missing example {name}"
    env = {"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"}
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=600, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Loom-1b" in out and "speedup" in out

    def test_mobile_vision_pipeline(self):
        out = run_example("mobile_vision_pipeline.py")
        assert "pipeline fps" in out and "Loom-1b" in out

    def test_precision_tradeoff(self):
        out = run_example("precision_tradeoff.py")
        assert "bit-serial FC == integer FC" in out
        assert "99%" in out

    def test_scaling_study(self):
        out = run_example("scaling_study.py")
        assert "512" in out and "DStripes" in out

    def test_sparsity_extension(self):
        out = run_example("sparsity_extension.py")
        assert "pruning rate" in out and "speedup bound" in out

    def test_design_space_exploration(self):
        out = run_example("design_space_exploration.py")
        assert "Pareto frontier" in out
        assert "coordinate descent" in out
        assert "am_fits_working_set" in out

    def test_serve_quickstart(self):
        out = run_example("serve_quickstart.py")
        assert "bit-identical to in-process event engine" in out
        assert "max executions per key = 1" in out
        assert "shut down gracefully" in out

    def test_cluster_quickstart(self):
        out = run_example("cluster_quickstart.py")
        assert "2 healthy workers" in out
        assert "remote sweep bit-identical to batched engine" in out
        assert "served layer results bit-identical to batched engine" in out
        assert "metrics scrape ok" in out
        assert "cluster shut down gracefully" in out

    def test_peercache_failover(self):
        out = run_example("peercache_failover.py")
        assert "dead-shard keys from the peer cache, bit-identical" in out
        assert "peer-cache /metrics series present" in out
        assert "peer-cache failover OK" in out


@pytest.mark.parametrize(
    "script", sorted(p.name for p in BENCHMARKS_DIR.glob("*.py")))
def test_benchmark_help_exits_cleanly(script):
    completed = subprocess.run(
        [sys.executable, str(BENCHMARKS_DIR / script), "--help"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
