"""Serve quickstart: the batching simulation service end to end.

Starts ``loom-repro serve --port 0`` as a real background *process* (the way
an operator would), waits for it to come up, and then exercises the client
contract the service promises:

1. ``GET /healthz`` answers;
2. a submitted job's result (the server's vector engine) is
   **bit-identical** (the engine validator's field-for-field comparator) to
   the same job run in-process on the event engine;
3. a duplicate submission is answered from the warm store, and concurrent
   duplicates coalesce: the executor's statistics prove the simulation ran
   exactly once;
4. ``GET /metrics`` serves Prometheus text with the request counters and
   the executor phase histograms the observability layer promises;
5. ``POST /shutdown`` stops the server gracefully.

This script is also the CI smoke job for the serve subsystem.
"""

import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.explore import canonical_point, point_to_job
from repro.serve import ServeClient
from repro.sim.jobs import execute_job
from repro.sim.validate import compare_layer_results

POINT = {"network": "alexnet", "accelerator": "loom:bits_per_cycle=2"}


def start_server(tmp):
    """`loom-repro serve --port 0` in the background; returns (proc, url)."""
    ready_file = os.path.join(tmp, "serve-url.txt")
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--store", os.path.join(tmp, "serve.db"),
         "--ready-file", ready_file],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        if os.path.exists(ready_file):
            with open(ready_file, encoding="utf-8") as handle:
                return proc, handle.read().strip()
        if proc.poll() is not None:
            raise RuntimeError(
                f"server died during startup: {proc.stderr.read().decode()}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server did not come up within 60s")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        proc, url = start_server(tmp)
        try:
            client = ServeClient(url)
            assert client.healthz()["ok"] is True
            print(f"server up at {url}")

            # Served result == in-process result, field for field.
            served = client.submit(POINT)
            local = execute_job(point_to_job(canonical_point(POINT)),
                                engine="event")
            mismatches = compare_layer_results(served.result.layers,
                                               local.layers)
            assert mismatches == [], mismatches
            print(f"served result bit-identical to in-process event engine "
                  f"({len(served.result.layers)} layers compared, "
                  f"status: {served.status})")

            # Warm-store duplicate plus concurrent coalesced duplicates.
            repeat = client.submit(POINT)
            assert repeat.status == "cached", repeat.status
            outcomes = []

            def submit():
                outcomes.append(client.submit(POINT))

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(o.result.to_dict() == served.result.to_dict()
                       for o in outcomes)
            stats = client.stats()
            assert stats["executor"]["max_executions_per_key"] == 1, stats
            print(f"duplicate submissions coalesced: "
                  f"{stats['service']['submitted_points']} points submitted, "
                  f"{stats['executor']['executed']} simulation(s) executed, "
                  f"max executions per key = "
                  f"{stats['executor']['max_executions_per_key']}")

            # A stock Prometheus scrape sees the request and executor series.
            with urllib.request.urlopen(url + "/metrics",
                                        timeout=10) as response:
                assert response.status == 200
                metrics = response.read().decode("utf-8")
            for series in ("loom_worker_requests_total",
                           "loom_worker_request_seconds_bucket",
                           'loom_executor_phase_seconds_count'
                           '{phase="simulate"}',
                           "loom_worker_uptime_seconds"):
                assert series in metrics, f"missing metric series: {series}"
            print("GET /metrics serves Prometheus text "
                  f"({len(metrics.splitlines())} lines, request + executor "
                  f"phase series present)")

            client.shutdown()
        finally:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, proc.stderr.read().decode()
        print("server shut down gracefully")


if __name__ == "__main__":
    main()
