"""Peer-cache rejoin demo: a shard that comes back does not recompute.

Builds a 2-worker cluster with the shared cache tier enabled (the
``--peer-cache`` default) and simulates a small design matrix. Then it
kills one worker, submits the matrix again (the survivor computes the dead
shard's keys), restarts the worker at the same port with an empty cache
and submits the matrix a third time. The contract this script (and the CI
step running it) asserts:

1. steady traffic makes no peer request: the tier only asks peers inside
   the recovery window the coordinator opens when a shard rejoins;
2. while the victim is down, the survivor simulates its keys (status
   ``executed``);
3. once the victim rejoins, it answers those keys with status ``cached``,
   fetched from the survivor instead of simulated again, and counts them
   in its ``store_answers``;
4. every re-served result is bit-identical to the first run;
5. worker ``/metrics`` exposes the ``loom_peer_cache_*`` series.

Runs in-process (``ClusterWorker`` + ``ClusterCoordinator`` objects) so the
kill is deterministic — the operator-facing process flow is covered by
``cluster_quickstart.py``.
"""

import os
import sys
import time
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


def peer_requests(worker):
    store = ServeClient(worker.url).stats()["store"]
    return store["peer_hits"] + store["peer_misses"] + store["peer_timeouts"]


def statuses(entries, keys):
    by_key = {entry.key: entry.status for entry in entries}
    return [by_key[key] for key in keys]


def main():
    workers = [ClusterWorker(), ClusterWorker()]
    for worker in workers:
        worker.start()
    # A short health interval: the coordinator notices the rejoin itself.
    coordinator = ClusterCoordinator([w.url for w in workers],
                                     health_interval_s=0.5)
    coordinator.start()
    try:
        client = ServeClient(coordinator.url, timeout_s=120.0)
        first = client.submit_points(MATRIX)
        assert {entry.status for entry in first} == {"executed"}
        for worker in workers:
            assert worker.peer_cache is not None, "ring push did not happen"
            assert peer_requests(worker) == 0, "steady traffic asked a peer"

        # The victim is the shard owning more of the matrix, so it owns
        # some of it whichever ports the OS handed out.
        owned = {worker.url: [entry.key for entry in first
                              if coordinator.ring.node_for(entry.key)
                              == worker.url] for worker in workers}
        victim = max(workers, key=lambda worker: len(owned[worker.url]))
        victim_keys = owned[victim.url]
        print(f"simulated {len(first)} points; "
              f"{len(victim_keys)} owned by the victim shard")
        port = victim.port
        victim.stop()  # kill one shard

        down = client.submit_points(MATRIX)
        assert set(statuses(down, victim_keys)) == {"executed"}
        print(f"survivor simulated the {len(victim_keys)} dead-shard keys")

        rejoined = ClusterWorker(port=port)  # same URL, empty cache
        rejoined.start()
        workers.append(rejoined)
        deadline = time.monotonic() + 30.0
        while not (rejoined.peer_cache is not None
                   and rejoined.peer_cache.recovering):
            assert time.monotonic() < deadline, "no recovery ring push"
            time.sleep(0.05)

        answers_before = rejoined.core.stats.store_answers
        again = client.submit_points(MATRIX)
        cached = [key for key, status
                  in zip(victim_keys, statuses(again, victim_keys))
                  if status == "cached"]
        assert len(cached) >= 0.9 * len(victim_keys), (
            f"only {len(cached)}/{len(victim_keys)} dead-shard keys were "
            f"answered by the peer tier")
        answers = rejoined.core.stats.store_answers - answers_before
        assert answers >= len(cached), (
            f"rejoined shard counted {answers} store answers for "
            f"{len(cached)} cached keys")
        for entries in (down, again):
            for entry, original in zip(entries, first):
                assert compare_layer_results(entry.result.layers,
                                             original.result.layers) == []
        print(f"rejoined shard answered {len(cached)}/{len(victim_keys)} "
              f"dead-shard keys from the peer cache, bit-identical")

        metrics = scrape(rejoined.url)
        for series in ("loom_peer_cache_hits_total",
                       "loom_peer_cache_misses_total",
                       "loom_peer_cache_timeouts_total",
                       "loom_peer_cache_fetch_seconds_bucket"):
            assert series in metrics, f"missing /metrics series {series}"
        print("peer-cache /metrics series present on the rejoined shard")
        print("peer-cache failover OK")
    finally:
        coordinator.stop()
        for worker in workers:
            worker.stop()


if __name__ == "__main__":
    main()
