"""Cluster quickstart: the sharded serve cluster end to end.

Starts ``loom-repro cluster --workers 2 --port 0`` as a real background
*process* (the way an operator would) and exercises the cluster contract:

1. ``GET /healthz`` answers and ``GET /stats`` shows both shards healthy;
2. a design-space sweep through ``RemoteExecutor(stream=True)`` — the same
   path ``loom-repro explore --remote URL --stream`` takes — produces
   results **bit-identical** to the in-process batched engine, both per
   submitted point (field-for-field ``LayerResult`` equality) and per
   exploration metric;
3. ``GET /metrics`` on the coordinator scrapes as Prometheus text with the
   routing and shard-health series populated;
4. ``POST /shutdown`` stops the coordinator and both workers gracefully.

This script is also the CI smoke job for the cluster subsystem.
"""

import os
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.explore import Axis, SweepSpec, explore, job_to_point, point_to_job
from repro.serve import RemoteExecutor, ServeClient
from repro.sim.jobs import JobExecutor
from repro.sim.validate import compare_layer_results

SPACE = SweepSpec(
    axes=[Axis("equivalent_macs", (32, 64)),
          Axis("accelerator", ("loom", "dstripes"))],
    base={"network": "alexnet"},
)


def start_cluster(tmp):
    """``loom-repro cluster --workers 2 --port 0`` in the background."""
    ready_file = os.path.join(tmp, "cluster-url.txt")
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster",
         "--workers", "2", "--port", "0",
         "--store-dir", os.path.join(tmp, "stores"),
         "--ready-file", ready_file],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.time() + 120
    while time.time() < deadline:
        if os.path.exists(ready_file):
            with open(ready_file, encoding="utf-8") as handle:
                return proc, handle.read().strip()
        if proc.poll() is not None:
            raise RuntimeError(
                f"cluster died during startup: {proc.stderr.read().decode()}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("cluster did not come up within 120s")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        proc, url = start_cluster(tmp)
        try:
            client = ServeClient(url, timeout_s=120.0)
            assert client.healthz()["ok"] is True
            stats = client.stats()
            shards = stats["shards"]
            assert len(shards) == 2
            assert all(s["healthy"] for s in shards.values())
            print(f"coordinator up at {url} with "
                  f"{len(shards)} healthy workers")

            # Sweep through the cluster == in-process batched engine.
            remote = explore(SPACE, executor=RemoteExecutor(client, stream=True))
            with JobExecutor() as executor:
                local = explore(SPACE, executor=executor)
            assert len(remote.evaluated) == len(local.evaluated) == SPACE.size
            for ours, ref in zip(remote.evaluated, local.evaluated):
                assert ours.point == ref.point
                assert ours.metrics == ref.metrics
            print(f"remote sweep bit-identical to batched engine "
                  f"({len(remote.evaluated)} points, every metric equal)")

            # Per-point layer results, field for field, against the
            # batched engine directly (the sweep above compared derived
            # metrics; this compares the raw simulation output).
            jobs = [point_to_job(p) for p in SPACE.points()]
            served = client.submit_points([job_to_point(j) for j in jobs])
            with JobExecutor() as executor:
                reference = executor.run(jobs)
            for entry, ref in zip(served, reference):
                mismatches = compare_layer_results(entry.result.layers,
                                                   ref.layers)
                assert mismatches == [], mismatches
            print(f"served layer results bit-identical to batched engine "
                  f"({len(served)} points compared)")

            # The coordinator scrapes as Prometheus text.
            with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode("utf-8")
            for series in ("loom_coordinator_requests_total",
                           "loom_coordinator_points_routed_total",
                           "loom_coordinator_shard_healthy"):
                assert f"# TYPE {series}" in text, series
            routed = sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("loom_coordinator_points_routed_total"))
            assert routed >= SPACE.size, text
            print(f"metrics scrape ok ({routed:.0f} points routed "
                  f"across the shards)")

            client.shutdown()
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, proc.stderr.read().decode()
        print("cluster shut down gracefully")


if __name__ == "__main__":
    main()
