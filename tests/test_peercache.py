"""Tests for the cluster-shared cache tier (repro.cluster.peercache).

The acceptance contract of the peer-cache ISSUE:

* ``PeerCacheBackend`` unit behaviour: local hits never touch the network,
  peer hits are fetched and copied into the local tier, a slow or dead peer
  degrades gracefully to local compute within the timeout budget, and
  concurrent misses of one key share a single peer fetch (single-flight);
* cluster integration: a key simulated on shard A is a **cache hit**
  (status ``"cached"``) after failover routes it to shard B -- the
  coordinator's survivor probe answers >= 90% of a dead shard's
  already-simulated keys from the peer tier instead of re-simulating;
* a peer-timeout fault injection still completes the batch bit-identically
  via local compute;
* the new ``loom_peer_cache_*`` series appear on worker ``/metrics``.
"""

import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterCoordinator, ClusterWorker, PeerCacheBackend
from repro.cluster.ring import ConsistentHashRing
from repro.serve import ServeClient
from repro.sim.jobs import JobExecutor
from repro.sim.results import LayerResult, NetworkResult
from repro.sim.validate import compare_layer_results

MATRIX = [{"network": network, "accelerator": accelerator}
          for network in ("alexnet", "nin")
          for accelerator in ("loom", "dpnn", "dstripes")]

KEY = "k" * 64


def _result(cycles=100.0, network="netA", accelerator="AccX"):
    result = NetworkResult(network=network, accelerator=accelerator,
                           clock_ghz=1.0)
    result.add(LayerResult(layer_name="conv1", layer_kind="conv",
                           cycles=cycles, energy_pj=5.5, macs=10))
    return result


@contextlib.contextmanager
def peer_cluster(n=2, coordinator_kwargs=None):
    """A started peer-cache-enabled coordinator + n workers + client."""
    workers = [ClusterWorker() for _ in range(n)]
    for worker in workers:
        worker.start()
    coordinator = ClusterCoordinator(
        [worker.url for worker in workers],
        health_interval_s=60.0,  # request-path failover only: deterministic
        **(coordinator_kwargs or {}))
    coordinator.start()
    try:
        yield coordinator, workers, ServeClient(coordinator.url,
                                                timeout_s=120.0)
    finally:
        coordinator.stop()
        for worker in workers:
            worker.stop()


@contextlib.contextmanager
def black_hole():
    """A TCP endpoint that accepts connections and never answers (the
    slow-peer fault: connects fine, then eats the timeout budget)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    accepted = []
    stop = threading.Event()

    def _accept() -> None:
        listener.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                continue
            accepted.append(conn)  # hold it open, say nothing

    thread = threading.Thread(target=_accept, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=2.0)
        for conn in accepted:
            conn.close()
        listener.close()


class TestPeerCacheUnit:
    def test_local_hit_never_asks_the_peer(self):
        backend = PeerCacheBackend(timeout_s=0.2)
        # The ring routes everything to an address that would explode if
        # contacted; a local hit must answer before routing even matters.
        backend.configure(["http://self:1", "http://peer:1"],
                          self_url="http://self:1")
        backend.local_store(KEY, _result())
        loaded = backend.load(KEY)
        assert loaded is not None
        assert loaded.to_dict() == _result().to_dict()
        assert backend.peer_hits == backend.peer_misses == 0
        assert backend.peer_timeouts == 0
        backend.close()

    def test_unconfigured_backend_behaves_like_its_local_tier(self):
        backend = PeerCacheBackend()
        assert backend.load(KEY) is None  # no ring: a plain local miss
        backend.store(KEY, _result())    # and no write-through anywhere
        assert backend.load(KEY).to_dict() == _result().to_dict()
        assert backend.peer_hits == backend.peer_timeouts == 0
        backend.close()

    def test_peer_hit_is_fetched_and_copied_into_the_local_tier(self):
        with ClusterWorker() as peer:
            peer.core.cache.put(KEY, _result(cycles=42.0))
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=5.0, write_through=False)
            backend.configure([peer.url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            loaded = backend.load(KEY)
            assert loaded is not None
            assert loaded.to_dict() == _result(cycles=42.0).to_dict()
            assert backend.peer_hits == 1
            # The answer was copied locally: the next load is a local hit,
            # not a second network fetch.
            assert backend.load(KEY) is not None
            assert backend.peer_hits == 1
            backend.close()

    def test_peer_miss_is_counted_and_returns_none(self):
        with ClusterWorker() as peer:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=5.0)
            backend.configure([peer.url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            assert backend.load(KEY) is None
            assert backend.peer_misses == 1
            assert backend.peer_hits == 0
            backend.close()

    def test_slow_peer_times_out_within_budget_and_degrades(self):
        with black_hole() as url:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=0.3)
            backend.configure([url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            started = time.monotonic()
            assert backend.load(KEY) is None  # caller computes locally
            elapsed = time.monotonic() - started
            assert elapsed < 2.0  # the strict budget, not a hung socket
            assert backend.peer_timeouts >= 1
            backend.close()

    def test_dead_peer_cooldown_skips_repeat_timeouts(self):
        # Connection refused (no listener) -> cooldown: the second miss
        # must not pay another connection attempt.
        backend = PeerCacheBackend(self_url="http://nowhere:1",
                                   timeout_s=0.5, dead_peer_cooldown_s=30.0)
        backend.configure(["http://127.0.0.1:9", "http://nowhere:1"],
                          self_url="http://nowhere:1")
        assert backend.load(KEY) is None
        first = backend.peer_timeouts
        assert first >= 1
        started = time.monotonic()
        assert backend.load("x" * 64) is None
        assert time.monotonic() - started < 0.2  # skipped, not re-dialed
        assert backend.peer_timeouts == first + 1
        backend.close()

    def test_single_flight_shares_one_fetch_across_concurrent_misses(self):
        backend = PeerCacheBackend(self_url="http://nowhere:1",
                                   timeout_s=5.0)
        backend.configure(["http://peer:1", "http://nowhere:1"],
                          self_url="http://nowhere:1")
        fetches = []
        release = threading.Event()
        shared = _result(cycles=7.0)

        def fake_fetch(peer, key):
            fetches.append((peer, key))
            release.wait(timeout=5.0)
            return shared

        backend._fetch_from_peer = fake_fetch
        outcomes = []
        threads = [threading.Thread(
            target=lambda: outcomes.append(backend.load(KEY)))
            for _ in range(6)]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # let every thread reach the flight
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(fetches) == 1  # one leader fetched; followers shared
        assert len(outcomes) == 6
        assert all(out is shared for out in outcomes)
        backend.close()

    def test_write_through_replicates_to_the_failover_target(self):
        with ClusterWorker() as a, ClusterWorker() as b:
            a.configure_peers([a.url, b.url], self_url=a.url)
            backend = a.peer_cache
            # The replica target is the first ring node that is not A --
            # which is B in a two-node ring: exactly where A's keys land
            # if A dies.
            assert backend.peer_for(KEY) == b.url
            backend.store(KEY, _result(cycles=9.0))
            assert backend.flush_writes(timeout_s=10.0)
            assert backend.peer_writes == 1
            request = urllib.request.Request(b.url + f"/cache/{KEY}")
            with urllib.request.urlopen(request, timeout=10.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["key"] == KEY
            assert NetworkResult.from_dict(payload["result"]).to_dict() \
                == _result(cycles=9.0).to_dict()

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout_s"):
            PeerCacheBackend(timeout_s=0.0)

    def test_memory_tier_bounds_entries_lru(self):
        backend = PeerCacheBackend(max_memory_entries=2)
        for index in range(3):
            backend.local_store(f"key-{index}" * 8, _result(cycles=index))
        assert len(backend) == 2
        assert backend.local_load("key-0" * 8) is None  # evicted oldest
        assert backend.local_load("key-2" * 8) is not None
        backend.close()

    def test_stats_dict_reports_peer_counters(self):
        backend = PeerCacheBackend(timeout_s=0.7, write_through=False)
        backend.configure(["http://a:1", "http://b:1"],
                          self_url="http://a:1")
        stats = backend.stats_dict()
        assert stats["backend"] == "peer cache"
        assert stats["peers"] == 1
        assert stats["timeout_s"] == 0.7
        assert stats["write_through"] is False
        assert {"peer_hits", "peer_misses", "peer_timeouts",
                "peer_writes", "peer_write_errors"} <= set(stats)
        assert "local" in stats
        backend.close()


class TestRingPush:
    def test_coordinator_pushes_membership_at_start(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            for worker in workers:
                assert worker.peer_cache is not None
                assert worker.peer_cache.self_url == worker.url
                assert set(worker.peer_cache.ring.nodes) \
                    == {w.url for w in workers}
                assert coordinator.shards[worker.url].ring_pushed

    def test_no_peer_cache_keeps_workers_shared_nothing(self):
        with peer_cluster(
                n=2, coordinator_kwargs={"peer_cache": False}
        ) as (coordinator, workers, client):
            for worker in workers:
                assert worker.peer_cache is None
                assert not coordinator.shards[worker.url].ring_pushed

    def test_ring_payload_overrides_timeout_and_write_through(self):
        with ClusterWorker() as worker:
            payload = json.dumps({"nodes": [worker.url, "http://other:1"],
                                  "self": worker.url,
                                  "timeout_ms": 250.0,
                                  "write_through": False}).encode("utf-8")
            request = urllib.request.Request(
                worker.url + "/ring", data=payload,
                headers={"Content-Type": "application/json"}, method="POST")
            with urllib.request.urlopen(request, timeout=10.0) as response:
                answer = json.loads(response.read().decode("utf-8"))
            assert answer == {"ok": True, "peers": 1, "self": worker.url}
            assert worker.peer_cache.timeout_s == pytest.approx(0.25)
            assert worker.peer_cache.write_through is False

    def test_bad_ring_payload_answers_400(self):
        with ClusterWorker() as worker:
            request = urllib.request.Request(
                worker.url + "/ring",
                data=json.dumps({"nodes": []}).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400

    def test_metrics_page_grows_the_peer_cache_series(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            with urllib.request.urlopen(workers[0].url + "/metrics",
                                        timeout=10.0) as response:
                text = response.read().decode("utf-8")
            for series in ("loom_peer_cache_hits_total",
                           "loom_peer_cache_misses_total",
                           "loom_peer_cache_timeouts_total",
                           "loom_peer_cache_fetch_seconds_bucket"):
                assert series in text


class TestFailoverCacheHits:
    def test_dead_shards_keys_answer_from_the_peer_tier(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            first = client.submit_points(MATRIX)
            assert {entry.status for entry in first} == {"executed"}
            # Let every write-through replica land before the kill.
            for worker in workers:
                assert worker.peer_cache.flush_writes(timeout_s=30.0)
            victim, survivor = workers
            victim_keys = [entry.key for entry in first
                           if coordinator.ring.node_for(entry.key)
                           == victim.url]
            assert victim_keys  # six keys over two shards: both own some
            victim._server.stop(drain_timeout_s=0.0)

            again = client.submit_points(MATRIX)
            assert [entry.key for entry in again] \
                == [entry.key for entry in first]
            # >= 90% of the dead shard's already-simulated keys must come
            # back from the peer tier (status "cached"), not re-simulation.
            by_key = {entry.key: entry for entry in again}
            cached = [key for key in victim_keys
                      if by_key[key].status == "cached"]
            assert len(cached) >= 0.9 * len(victim_keys)
            assert coordinator.stats.peer_cache_answers >= len(cached)
            assert coordinator._peer_cache_hits_total.value() \
                >= len(cached)
            # Bit-identical to the original run, every field of every layer.
            for entry, original in zip(again, first):
                assert compare_layer_results(
                    entry.result.layers, original.result.layers) == []

    def test_peer_timeout_fault_still_completes_bit_identically(self):
        from repro.explore.space import canonical_point, point_to_job

        with peer_cluster(
                n=2, coordinator_kwargs={"peer_cache": False}
        ) as (coordinator, workers, client), black_hole() as hole:
            # Fault injection: every worker's peer tier routes all misses
            # to a black hole (connects, never answers) on a short budget.
            for worker in workers:
                worker.configure_peers([worker.url, hole],
                                       self_url=worker.url,
                                       timeout_s=0.25)
            entries = client.submit_points(MATRIX)
            assert {entry.status for entry in entries} == {"executed"}
            timeouts = sum(worker.peer_cache.peer_timeouts
                           for worker in workers)
            assert timeouts > 0  # the fault was actually exercised
            # Degraded-mode results are bit-identical to in-process runs.
            jobs = [point_to_job(canonical_point(p)) for p in MATRIX]
            with JobExecutor() as executor:
                reference = executor.run(jobs)
            for entry, expected in zip(entries, reference):
                assert compare_layer_results(entry.result.layers,
                                             expected.layers) == []

    def test_stats_surface_the_peer_cache_configuration(self):
        with peer_cluster(
                n=2, coordinator_kwargs={"peer_timeout_s": 0.5}
        ) as (coordinator, workers, client):
            with urllib.request.urlopen(coordinator.url + "/stats",
                                        timeout=10.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["peer_cache"] == {"enabled": True,
                                            "timeout_s": 0.5,
                                            "write_through": True}
            worker_stats = payload["workers"][workers[0].url]
            assert worker_stats["store"]["backend"] == "peer cache"
            assert worker_stats["store"]["peers"] == 1
