"""Tests for the cluster-shared cache tier (repro.cluster.peercache).

* ``PeerCacheBackend`` unit behaviour, inside an open recovery window: a
  peer hit is fetched and counted, and a slow or dead peer degrades
  gracefully to local compute within the timeout budget;
* the recovery window: steady cold traffic makes no peer request of any
  kind, a coordinator's first ring push opens no window and every later
  one does (including for a worker restarted between two health checks),
  and once the window closes a cold batch makes no probe;
* the miss path in ``ServiceCore``: local hits never reach the network,
  only the request that claims a cold key probes the peer tier (once per
  key, however many requests race for it), and a peer answer is reported
  ``cached`` with no simulation;
* cluster integration: keys the survivor simulated while a shard was down
  are **cache hits** (status ``"cached"``) on that shard once it rejoins
  with an empty cache, for storeless and SQLite-backed shards alike;
* a peer-timeout fault injection still completes the batch bit-identically
  via local compute;
* the ``loom_peer_cache_*`` series appear on worker ``/metrics``.
"""

import asyncio
import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster import ClusterCoordinator, ClusterWorker, PeerCacheBackend
from repro.cluster.worker import build_worker
from repro.explore.space import canonical_point, point_to_job
from repro.serve import ServeClient
from repro.serve.core import ServiceCore
from repro.sim.jobs import JobExecutor, job_key
from repro.sim.results import LayerResult, NetworkResult
from repro.sim.validate import compare_layer_results

MATRIX = [{"network": network, "accelerator": accelerator}
          for network in ("alexnet", "nin")
          for accelerator in ("loom", "dpnn", "dstripes")]

KEY = "k" * 64

POINT = {"network": "nin", "accelerator": "loom"}


def _result(cycles=100.0, network="netA", accelerator="AccX"):
    result = NetworkResult(network=network, accelerator=accelerator,
                           clock_ghz=1.0)
    result.add(LayerResult(layer_name="conv1", layer_kind="conv",
                           cycles=cycles, energy_pj=5.5, macs=10))
    return result


def _point_key(point):
    return job_key(point_to_job(canonical_point(point)))


def _simulated(point):
    with JobExecutor() as executor:
        return executor.run([point_to_job(canonical_point(point))])[0]


def _post_ring(worker, payload):
    """POST /ring to ``worker``; the answer's status code."""
    request = urllib.request.Request(
        worker.url + "/ring", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.close()  # it holds the connection's socket
        return error.code


def _open_windows(workers):
    """Open every worker's recovery window, as a rejoin ring push does."""
    nodes = [worker.url for worker in workers]
    for worker in workers:
        assert _post_ring(worker, {"nodes": nodes, "self": worker.url,
                                   "recovery": True}) == 200
        assert worker.peer_cache.recovering


def _on_loop(node, coroutine):
    """Run ``coroutine`` on ``node``'s event loop; its result."""
    return asyncio.run_coroutine_threadsafe(
        coroutine, node.loop).result(timeout=30.0)


def _peer_requests(worker):
    """Keys this worker asked of its peers, from its ``/stats``."""
    store = ServeClient(worker.url).stats()["store"]
    return store["peer_hits"] + store["peer_misses"] + store["peer_timeouts"]


@contextlib.contextmanager
def peer_cluster(n=2, coordinator_kwargs=None, store_dir=None):
    """A started peer-cache-enabled coordinator + n workers + client;
    workers keep a SQLite store under ``store_dir`` when it is given."""
    workers = [build_worker(str(store_dir / f"worker-{index}.db"))
               if store_dir is not None else ClusterWorker()
               for index in range(n)]
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
def worker_loop():
    """A running worker's event loop, for a tier built outside a worker
    (the worker's stop closes the connections the tier pooled on it)."""
    with ClusterWorker() as host:
        yield host.loop


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


@contextlib.contextmanager
def counting_peer(hold=None):
    """A fake peer that answers every ``POST /cache/lookup`` with no
    results (after ``hold()`` returns); yields its URL and the list of
    probed key lists."""
    probes = []

    class Handler(BaseHTTPRequestHandler):
        def _reply(self, status, payload):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            body = json.loads(self.rfile.read(
                int(self.headers.get("Content-Length", 0))))
            probes.append(body["keys"])
            if hold is not None:
                hold()
            self._reply(200, {"results": {}})

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", probes
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestPeerCacheUnit:
    def test_local_hit_never_asks_the_peer(self):
        core = ServiceCore()
        with worker_loop() as loop:
            core.peers = PeerCacheBackend(loop, timeout_s=0.2)
            # The ring routes everything to an address that would explode
            # if contacted; a local hit must answer before routing even
            # matters.
            core.peers.configure(["http://self:1", "http://peer:1"],
                                 self_url="http://self:1", recovery=True)
            core.cache.put(_point_key(POINT), _result())
            [entry] = core.submit_points([POINT])
            assert entry.status == "cached"
            assert entry.result.to_dict() == _result().to_dict()
            assert core.peers.peer_hits == core.peers.peer_misses == 0
            assert core.peers.peer_timeouts == 0
        core.close()

    def test_unconfigured_backend_behaves_like_its_local_tier(self):
        core = ServiceCore()
        with worker_loop() as loop:
            backend = PeerCacheBackend(loop)
            assert backend.load(KEY) is None  # no ring: nothing to ask
            core.peers = backend
            assert core.submit_points([POINT])[0].status == "executed"
            assert core.submit_points([POINT])[0].status == "cached"
            assert backend.peer_hits == backend.peer_misses == 0
            assert backend.peer_timeouts == 0
        core.close()

    def test_peer_hit_is_fetched_and_copied_into_the_local_tier(self):
        key = _point_key(POINT)
        with ClusterWorker() as peer, ClusterWorker() as worker:
            peer.core.cache.put(key, _result(cycles=42.0))
            worker.configure_peers([worker.url, peer.url],
                                   self_url=worker.url, timeout_s=5.0,
                                   recovery=True)
            [entry] = worker.core.submit_points([POINT])
            assert entry.status == "cached"
            assert entry.result.to_dict() == _result(cycles=42.0).to_dict()
            assert worker.peer_cache.peer_hits == 1
            # The answer was copied locally: the next lookup is a local
            # hit, not a second network fetch.
            assert worker.core.cache.peek(key) is not None
            assert worker.core.submit_points([POINT])[0].status == "cached"
            assert worker.peer_cache.peer_hits == 1
            assert worker.core.executor.stats.executed == 0

    def test_peer_miss_is_counted_and_returns_none(self):
        with ClusterWorker() as peer, worker_loop() as loop:
            backend = PeerCacheBackend(loop, timeout_s=5.0)
            backend.configure([peer.url, "http://nowhere:1"],
                              self_url="http://nowhere:1", recovery=True)
            assert backend.load(KEY) is None
            assert backend.peer_misses == 1
            assert backend.peer_hits == 0

    def test_slow_peer_times_out_within_budget_and_degrades(self):
        with black_hole() as url, worker_loop() as loop:
            backend = PeerCacheBackend(loop, timeout_s=0.3)
            backend.configure([url, "http://nowhere:1"],
                              self_url="http://nowhere:1", recovery=True)
            started = time.monotonic()
            assert backend.load(KEY) is None  # caller computes locally
            elapsed = time.monotonic() - started
            assert elapsed < 2.0  # the strict budget, not a hung socket
            assert backend.peer_timeouts >= 1

    def test_dead_peer_cooldown_skips_repeat_timeouts(self):
        # Connection refused (no listener) -> cooldown: the second miss
        # must not pay another connection attempt.
        with worker_loop() as loop:
            backend = PeerCacheBackend(loop, timeout_s=0.5)
            backend.configure(["http://127.0.0.1:9", "http://nowhere:1"],
                              self_url="http://nowhere:1", recovery=True)
            assert backend.load(KEY) is None
            first = backend.peer_timeouts
            assert first >= 1
            started = time.monotonic()
            assert backend.load("x" * 64) is None
            assert time.monotonic() - started < 0.2  # skipped, not re-dialed
            assert backend.peer_timeouts == first + 1

    def test_malformed_peer_bodies_answer_400_off_the_client_counters(self):
        with ClusterWorker() as worker:
            for body in ({"keys": "k"}, {"keys": [1]}):
                request = urllib.request.Request(
                    worker.url + "/cache/lookup",
                    data=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10.0)
                excinfo.value.close()
                assert excinfo.value.code == 400
            assert worker.core.stats.requests == 0
            assert worker.core.stats.errors == 0

    def test_the_replicate_route_is_gone(self):
        # An older peer's write-through POST now answers 404 (its sender
        # counts a write error); nothing is stored.
        with ClusterWorker() as worker:
            request = urllib.request.Request(
                worker.url + "/cache/replicate",
                data=json.dumps({"entries": {}}).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            excinfo.value.close()
            assert excinfo.value.code == 404
            assert len(worker.core.cache) == 0

    def test_timeout_must_be_positive(self):
        with worker_loop() as loop:
            backend = PeerCacheBackend(loop, timeout_s=0.5)
            for timeout_s in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="timeout_s"):
                    PeerCacheBackend(loop, timeout_s=timeout_s)
                with pytest.raises(ValueError, match="timeout_s"):
                    backend.timeout_s = timeout_s
        assert backend.timeout_s == 0.5  # a rejected budget changes nothing

    def test_coordinator_rejects_a_non_finite_peer_budget(self):
        # Regression: a NaN budget passed ``<= 0``, then every /ring push
        # answered 400 and the peer tier stayed silently off.
        for timeout_s in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="peer_timeout_s"):
                ClusterCoordinator(["http://127.0.0.1:1"],
                                   peer_timeout_s=timeout_s)

    def test_stats_dict_reports_peer_counters(self):
        with worker_loop() as loop:
            backend = PeerCacheBackend(loop, timeout_s=0.7)
        backend.configure(["http://a:1", "http://b:1"],
                          self_url="http://a:1")
        stats = backend.stats_dict()
        assert stats["backend"] == "peer cache"
        assert stats["peers"] == 1
        assert stats["timeout_s"] == 0.7
        assert {"peer_hits", "peer_misses", "peer_timeouts"} <= set(stats)
        assert stats["recovering"] is False
        backend.configure(["http://a:1", "http://b:1"], recovery=True)
        assert backend.stats_dict()["recovering"] is True


class TestWorkerLoop:
    """The tier runs on its worker's event loop: no loop or thread of its
    own."""

    def test_a_recovering_worker_asks_its_live_peer_on_its_own_loop(self):
        expected = _simulated(POINT)
        with ClusterWorker() as peer, ClusterWorker() as worker:
            peer.core.cache.put(_point_key(POINT), expected)
            worker.configure_peers([worker.url, peer.url],
                                   self_url=worker.url, recovery=True)
            assert worker.peer_cache.loop is worker.loop
            entry = ServeClient(worker.url, timeout_s=60.0).submit(POINT)
            assert entry.status == "cached"
            assert worker.peer_cache.peer_hits == 1
            assert worker.core.executor.stats.executed == 0
            assert [thread.name for thread in threading.enumerate()
                    if thread.name == "loom-peer-cache-io"] == []

    def test_load_many_on_the_loop_thread_asks_no_peer(self):
        with ClusterWorker() as worker, counting_peer() as (peer, probes):
            worker.configure_peers([worker.url, peer], self_url=worker.url,
                                   timeout_s=5.0, recovery=True)

            async def on_loop():
                started = time.monotonic()
                found = worker.peer_cache.load_many([KEY])
                return found, time.monotonic() - started

            found, elapsed = _on_loop(worker, on_loop())
            assert found == {}
            assert elapsed < 0.1  # at once, not after the budget
            assert probes == []
            assert worker.peer_cache.stats_dict()["peer_timeouts"] == 0
            # Off the loop the same call asks the peer.
            assert worker.peer_cache.load_many([KEY]) == {}
            assert probes == [[KEY]]

    def test_stop_closes_the_connections_the_tier_pooled(self):
        import gc
        import warnings

        from repro.cluster import aio

        with ClusterWorker() as peer:
            worker = ClusterWorker()
            worker.start()
            worker.configure_peers([worker.url, peer.url],
                                   self_url=worker.url, recovery=True)
            assert worker.peer_cache.load_many([KEY]) == {}
            loop = worker.loop
            assert aio._IDLE.get(loop)  # a keep-alive connection to peer
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                worker.stop()
                gc.collect()
            assert loop.is_closed()
            assert aio._IDLE.get(loop) is None
            assert [str(warning.message) for warning in caught
                    if issubclass(warning.category, ResourceWarning)] == []


class TestMissPath:
    def test_concurrent_cold_submissions_make_one_peer_probe(self):
        threads_n = 6
        with ClusterWorker() as worker:
            def hold():
                # Keep the claiming request's probe open until every other
                # submission has joined it, so all of them race the one key.
                deadline = time.monotonic() + 3.0
                while (worker.core.stats.coalesced < threads_n - 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)

            with counting_peer(hold) as (peer, probes):
                worker.configure_peers([worker.url, peer],
                                       self_url=worker.url, timeout_s=10.0,
                                       recovery=True)
                outcomes = []
                threads = [threading.Thread(target=lambda: outcomes.extend(
                    worker.core.submit_points([POINT])))
                    for _ in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                # Only the claiming request asked, once, for its one key.
                assert probes == [[_point_key(POINT)]]
                assert worker.core.executor.stats.executed == 1
                assert sorted(entry.status for entry in outcomes) \
                    == ["coalesced"] * (threads_n - 1) + ["executed"]

    def test_point_held_only_by_a_peer_answers_cached(self):
        expected = _simulated(POINT)
        with ClusterWorker() as peer, ClusterWorker() as worker:
            peer.core.cache.put(_point_key(POINT), expected)
            worker.configure_peers([worker.url, peer.url],
                                   self_url=worker.url, recovery=True)
            entry = ServeClient(worker.url, timeout_s=60.0).submit(POINT)
            assert entry.status == "cached"
            assert compare_layer_results(entry.result.layers,
                                         expected.layers) == []
            assert worker.core.executor.stats.executed == 0
            assert worker.core.stats.store_answers == 1
            assert peer.core.executor.stats.executed == 0

    def test_one_peer_probe_per_cold_key(self):
        points = [dict(POINT, clock_ghz=1.0 + index / 1000)
                  for index in range(12)]
        with peer_cluster(n=2) as (coordinator, workers, client):
            _open_windows(workers)
            entries = client.submit_points(points)
            assert {entry.status for entry in entries} == {"executed"}
            assert sum(map(_peer_requests, workers)) == len(points)


def _cold_points(ring, per_node, offset):
    """``per_node`` never-seen points owned by each ring node."""
    by_node = {node: [] for node in ring.nodes}
    index = 0
    while any(len(points) < per_node for points in by_node.values()):
        point = dict(POINT, clock_ghz=3.0 + (offset + index) / 100_000)
        index += 1
        owned = by_node[ring.node_for(_point_key(point))]
        if len(owned) < per_node:
            owned.append(point)
    return [point for points in by_node.values() for point in points]


class TestBatchedWire:
    def test_cold_batches_cost_o1_peer_requests_and_statements(
            self, tmp_path, monkeypatch):
        import repro.cluster.peercache as peercache

        sent = []
        real_fetch = peercache.fetch

        def counting_fetch(url, method, path, payload=None, **kwargs):
            sent.append((url, path))
            return real_fetch(url, method, path, payload=payload, **kwargs)

        monkeypatch.setattr(peercache, "fetch", counting_fetch)
        with peer_cluster(n=2, store_dir=tmp_path) as (coordinator, workers,
                                                       client):
            statements = {worker.url: [] for worker in workers}
            for worker in workers:
                worker.core.cache.backend._conn.set_trace_callback(
                    statements[worker.url].append)
            _open_windows(workers)
            costs = []
            for size in (4, 32):
                points = _cold_points(coordinator.ring, size // 2, 10 * size)
                probes_before = sum(
                    worker.peer_cache.peer_hits
                    + worker.peer_cache.peer_misses
                    + worker.peer_cache.peer_timeouts for worker in workers)
                jobs_before = [worker._requests_total.value(
                    path="/jobs", status="200") for worker in workers]
                del sent[:]
                for log in statements.values():
                    del log[:]
                entries = client.submit_points(points)
                assert {entry.status for entry in entries} == {"executed"}
                # One worker request per shard, and from each one exactly
                # one lookup to its one peer.
                assert [worker._requests_total.value(
                    path="/jobs", status="200") - before
                    for worker, before in zip(workers, jobs_before)] \
                    == [1, 1]
                assert sorted(sent) == sorted(
                    (worker.url, "/cache/lookup") for worker in workers)
                # The peer counters still count keys, not requests.
                assert sum(worker.peer_cache.peer_hits
                           + worker.peer_cache.peer_misses
                           + worker.peer_cache.peer_timeouts
                           for worker in workers) - probes_before == size
                costs.append([len(statements[worker.url])
                              for worker in workers])
            for worker in workers:
                worker.core.cache.backend._conn.set_trace_callback(None)
            # The same SQLite statements per worker for 4 and 32 points.
            assert costs[0] == costs[1]


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

    def test_ring_payload_overrides_timeout(self):
        with ClusterWorker() as worker:
            payload = json.dumps({"nodes": [worker.url, "http://other:1"],
                                  "self": worker.url,
                                  "timeout_ms": 250.0}).encode("utf-8")
            request = urllib.request.Request(
                worker.url + "/ring", data=payload,
                headers={"Content-Type": "application/json"}, method="POST")
            with urllib.request.urlopen(request, timeout=10.0) as response:
                answer = json.loads(response.read().decode("utf-8"))
            assert answer == {"ok": True, "peers": 1, "self": worker.url}
            assert worker.peer_cache.timeout_s == pytest.approx(0.25)

    @pytest.mark.parametrize("timeout_ms", [0, -5])
    def test_ring_rejects_a_non_positive_timeout_first_and_later(
            self, timeout_ms):
        with ClusterWorker() as worker:
            ring = {"nodes": [worker.url, "http://other:1"],
                    "self": worker.url}
            assert _post_ring(worker, dict(ring, timeout_ms=timeout_ms)) \
                == 400
            assert _post_ring(worker, dict(ring, timeout_ms=250.0)) == 200
            assert _post_ring(worker, dict(ring, timeout_ms=timeout_ms)) \
                == 400
            assert worker.peer_cache.timeout_s == pytest.approx(0.25)

    def test_ring_rejects_a_non_boolean_recovery_flag(self):
        with ClusterWorker() as worker:
            ring = {"nodes": [worker.url, "http://other:1"],
                    "self": worker.url}
            assert _post_ring(worker, dict(ring, recovery="yes")) == 400
            assert _post_ring(worker, dict(ring, recovery=True)) == 200
            assert worker.peer_cache.recovering

    def test_ring_keeps_64_virtual_nodes_whatever_the_body_says(self):
        with ClusterWorker() as worker:
            started = time.monotonic()
            assert _post_ring(worker, {"nodes": [worker.url,
                                                 "http://other:1"],
                                       "self": worker.url,
                                       "replicas": 50000}) == 200
            assert time.monotonic() - started < 1.0
            ring = worker.peer_cache.ring
            assert ring.replicas == 64
            assert len(ring._positions) == 2 * 64

    def test_healthz_reports_whether_the_worker_holds_a_ring(self):
        with ClusterWorker() as worker:
            assert ServeClient(worker.url).healthz()["ring"] is False
            worker.configure_peers([worker.url, "http://other:1"])
            assert ServeClient(worker.url).healthz()["ring"] is True

    def test_bad_ring_payload_answers_400(self):
        with ClusterWorker() as worker:
            request = urllib.request.Request(
                worker.url + "/ring",
                data=json.dumps({"nodes": []}).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            excinfo.value.close()
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


class TestRecoveryWindow:
    def test_steady_cold_traffic_makes_no_peer_request(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            for batch in range(3):
                points = [dict(POINT, clock_ghz=1.0 + (8 * batch + index)
                               / 1000) for index in range(8)]
                entries = client.submit_points(points)
                assert {entry.status for entry in entries} == {"executed"}
            for worker in workers:
                assert _peer_requests(worker) == 0
                assert worker._requests_total.value(
                    path="/cache/lookup", status="200") == 0
                store = ServeClient(worker.url).stats()["store"]
                assert store["recovering"] is False

    def test_only_pushes_after_the_first_open_a_window(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            for worker in workers:
                shard = coordinator.shards[worker.url]
                assert shard.ring_pushes == 1
                assert not worker.peer_cache.recovering
            assert _on_loop(coordinator,
                            coordinator._push_ring(workers[0].url))
            assert coordinator.shards[workers[0].url].ring_pushes == 2
            assert workers[0].peer_cache.recovering
            assert not workers[1].peer_cache.recovering

    def test_a_closed_window_makes_no_probe(self, monkeypatch):
        import repro.cluster.peercache as peercache

        monkeypatch.setattr(peercache, "RECOVERY_WINDOW_S", 0.5)
        inside = dict(POINT, clock_ghz=1.5)
        after = dict(POINT, clock_ghz=1.25)
        with ClusterWorker() as worker, counting_peer() as (peer, probes):
            worker.configure_peers([worker.url, peer], self_url=worker.url,
                                   timeout_s=5.0, recovery=True)
            assert worker.core.submit_points([inside])[0].status \
                == "executed"
            assert probes == [[_point_key(inside)]]
            deadline = time.monotonic() + 10.0
            while worker.peer_cache.recovering:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert worker.core.submit_points([after])[0].status \
                == "executed"
            assert probes == [[_point_key(inside)]]
            assert worker.peer_cache.peer_misses == 1
            assert worker.core.stats_dict()["store"]["recovering"] is False

    def test_a_worker_restarted_between_health_checks_gets_its_ring(self):
        # Regression: the restarted worker answered every health check, so
        # the coordinator kept ring_pushed True and never pushed again.
        workers = [ClusterWorker(), ClusterWorker()]
        for worker in workers:
            worker.start()
        coordinator = ClusterCoordinator([worker.url for worker in workers],
                                         health_interval_s=1.0)
        coordinator.start()
        try:
            victim = workers[0]
            shard = coordinator.shards[victim.url]
            checked = shard.last_check
            deadline = time.monotonic() + 10.0
            while shard.last_check == checked:  # just after a check
                assert time.monotonic() < deadline
                time.sleep(0.01)
            port = victim.port
            victim.stop()
            restarted = ClusterWorker(port=port)
            restarted.start()
            workers.append(restarted)
            deadline = time.monotonic() + 5.0  # a few checks
            while restarted.peer_cache is None:
                assert time.monotonic() < deadline, \
                    f"no ring push; shard state {shard.to_dict()}"
                time.sleep(0.05)
            assert restarted.peer_cache.self_url == restarted.url
            assert restarted.peer_cache.recovering
            assert shard.ring_pushed and shard.ring_pushes == 2
        finally:
            coordinator.stop()
            for worker in workers:
                worker.stop()


class TestFailoverCacheHits:
    @pytest.mark.parametrize("store", ["storeless", "sqlite"])
    def test_dead_shards_keys_answer_from_the_peer_tier(self, store,
                                                        tmp_path):
        store_dir = tmp_path if store == "sqlite" else None
        with peer_cluster(n=2, store_dir=store_dir) as (coordinator, workers,
                                                        client):
            first = client.submit_points(MATRIX)
            assert {entry.status for entry in first} == {"executed"}
            # The victim owns more of the matrix, so it owns some of it
            # whichever ports the OS handed out.
            owned = {worker.url: [entry.key for entry in first
                                  if coordinator.ring.node_for(entry.key)
                                  == worker.url] for worker in workers}
            victim = max(workers, key=lambda worker: len(owned[worker.url]))
            victim_keys = owned[victim.url]
            port = victim.port
            victim._server.stop(drain_timeout_s=0.0)

            # While the victim is down the survivor simulates its keys:
            # nothing was replicated ahead of the failure.
            down = {entry.key: entry
                    for entry in client.submit_points(MATRIX)}
            assert {down[key].status for key in victim_keys} == {"executed"}

            # The victim comes back at the same URL with an empty cache
            # (a fresh store file for the SQLite shard); the next health
            # check marks it healthy and pushes it a recovery ring.
            rejoined = (build_worker(str(tmp_path / "rejoined.db"),
                                     port=port)
                        if store_dir is not None else ClusterWorker(port=port))
            rejoined.start()
            workers.append(rejoined)
            assert _on_loop(coordinator, coordinator._probe_shard(victim.url))
            assert rejoined.peer_cache.recovering
            assert rejoined.core.stats_dict()["store"]["local"][
                "backend"] == ("sqlite" if store_dir else "memory")

            again = client.submit_points(MATRIX)
            assert [entry.key for entry in again] \
                == [entry.key for entry in first]
            # >= 90% of the victim's keys come back from the survivor
            # (status "cached"), not from a second simulation.
            by_key = {entry.key: entry for entry in again}
            cached = [key for key in victim_keys
                      if by_key[key].status == "cached"]
            assert len(cached) >= 0.9 * len(victim_keys)
            assert rejoined.core.stats.store_answers >= len(cached)
            assert rejoined.peer_cache.peer_hits == len(cached)
            # Bit-identical to the original run, every field of every layer.
            for entry, original in zip(again, first):
                for served in (entry, down[entry.key]):
                    assert compare_layer_results(
                        served.result.layers, original.result.layers) == []

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
                                       timeout_s=0.25, recovery=True)
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
                                            "timeout_s": 0.5}
            worker_stats = payload["workers"][workers[0].url]
            assert worker_stats["store"]["backend"] == "peer cache"
            assert worker_stats["store"]["peers"] == 1
            assert worker_stats["store"]["timeout_s"] == 0.5
            assert worker_stats["store"]["local"] == {
                "backend": "memory",
                "entries": worker_stats["cache"]["memory_entries"]}
