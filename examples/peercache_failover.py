"""Peer-cache failover demo: a dead shard's results survive as cache hits.

Builds a 2-worker cluster with the shared cache tier enabled (the
``--peer-cache`` default), simulates a small design matrix, then kills one
worker mid-flight and submits the same matrix again. The contract this
script (and the CI ``cluster-smoke`` job running it) asserts:

1. every already-simulated key of the **dead** shard is answered with
   status ``cached`` — no re-simulation — because each fresh result was
   replicated to its key's failover shard while both shards were alive,
   and the coordinator's ordinary re-route sends the key exactly there;
2. the survivor counted those answers in its ``store_answers``;
3. the re-served results are bit-identical to the first run;
4. worker ``/metrics`` exposes the ``loom_peer_cache_*`` series.

Runs in-process (``ClusterWorker`` + ``ClusterCoordinator`` objects) so the
kill is deterministic — the operator-facing process flow is covered by
``cluster_quickstart.py``.
"""

import os
import sys
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster import ClusterCoordinator, ClusterWorker
from repro.serve import ServeClient
from repro.sim.validate import compare_layer_results

MATRIX = [{"network": network, "accelerator": accelerator}
          for network in ("alexnet", "nin")
          for accelerator in ("loom", "dpnn", "dstripes")]


def scrape(url):
    with urllib.request.urlopen(url + "/metrics", timeout=30.0) as response:
        return response.read().decode("utf-8")


def main():
    workers = [ClusterWorker(), ClusterWorker()]
    for worker in workers:
        worker.start()
    coordinator = ClusterCoordinator([w.url for w in workers],
                                     health_interval_s=60.0)
    coordinator.start()
    try:
        client = ServeClient(coordinator.url, timeout_s=120.0)
        first = client.submit_points(MATRIX)
        assert {entry.status for entry in first} == {"executed"}
        # Let every fire-and-forget replica land.
        for worker in workers:
            assert worker.peer_cache is not None, "ring push did not happen"
            assert worker.peer_cache.flush_writes(timeout_s=30.0)

        victim, survivor = workers
        victim_keys = [entry.key for entry in first
                       if coordinator.ring.node_for(entry.key) == victim.url]
        print(f"simulated {len(first)} points; "
              f"{len(victim_keys)} owned by the victim shard")
        victim._server.stop(drain_timeout_s=0.0)  # kill one shard

        answers_before = survivor.core.stats.store_answers
        again = client.submit_points(MATRIX)
        by_key = {entry.key: entry for entry in again}
        cached = [key for key in victim_keys
                  if by_key[key].status == "cached"]
        assert len(cached) >= 0.9 * len(victim_keys), (
            f"only {len(cached)}/{len(victim_keys)} dead-shard keys were "
            f"answered from their replicas")
        answers = survivor.core.stats.store_answers - answers_before
        assert answers >= len(cached), (
            f"survivor counted {answers} store answers for {len(cached)} "
            f"cached dead-shard keys")
        for entry, original in zip(again, first):
            assert compare_layer_results(entry.result.layers,
                                         original.result.layers) == []
        print(f"survivor answered {len(cached)}/{len(victim_keys)} "
              f"dead-shard keys from the peer cache, bit-identical")

        metrics = scrape(survivor.url)
        for series in ("loom_peer_cache_hits_total",
                       "loom_peer_cache_misses_total",
                       "loom_peer_cache_timeouts_total",
                       "loom_peer_cache_fetch_seconds_bucket"):
            assert series in metrics, f"missing /metrics series {series}"
        print("peer-cache /metrics series present on the survivor")
        print("peer-cache failover OK")
    finally:
        coordinator.stop()
        for worker in workers:
            worker.stop()


if __name__ == "__main__":
    main()
