"""Integration tests for the sharded serve cluster (repro.cluster).

The acceptance contract of the cluster ISSUE, verified over real HTTP
against in-process coordinator + worker nodes:

* a 2-worker cluster answers **bit-identically** (the validator's
  field-for-field comparator) to in-process batched execution for a
  networks x accelerators matrix;
* the cluster keeps serving -- with automatic re-routing -- when a worker
  is killed mid-batch, and the dead shard's keys land on the survivors;
* ``POST /jobs`` streams NDJSON entries in submission order as shards
  answer, and ``POST /explore`` streams SSE events while later strategy
  rounds are still simulating (first event long before the sweep ends);
* graceful coordinator shutdown terminates in-flight streams with a clean
  ``end {"complete": false, "reason": "shutdown"}`` event and leaves no
  worker thread pools or executors behind;
* every node's ``/metrics`` parses as Prometheus text exposition format;
* the coordinator's token-bucket rate limiting and quotas answer 429.
"""

import asyncio
import contextlib
import json
import re
import threading
import time
import urllib.request

import pytest

from repro import __version__
from repro.cluster import ClusterCoordinator, ClusterWorker, RateLimiter
from repro.serve import RemoteExecutor, ServeClient, ServeError
from repro.serve.core import ServiceCore
from repro.sim.jobs import JobExecutor, job_key
from repro.sim.validate import compare_layer_results

MATRIX = [{"network": network, "accelerator": accelerator}
          for network in ("alexnet", "nin")
          for accelerator in ("loom", "dpnn", "dstripes")]


@contextlib.contextmanager
def cluster(n=2, coordinator_kwargs=None, worker_kwargs=None):
    """A started coordinator + n workers + client, torn down afterwards."""
    workers = [ClusterWorker(**(worker_kwargs or {})) for _ in range(n)]
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


def _slow(worker, delay_s=0.2):
    """Delay a worker's executions so requests overlap deterministically."""
    original = worker.core.executor.run

    def run(jobs, **kwargs):
        time.sleep(delay_s)
        return original(jobs, **kwargs)

    worker.core.executor.run = run


def _key(point):
    from repro.explore.space import canonical_point, point_to_job

    return job_key(point_to_job(canonical_point(point)))


def _point_routed_to(coordinator, worker):
    """A design point whose content key routes to ``worker``."""
    from repro.explore.space import canonical_point, point_to_job

    # equivalent_macs must be a positive multiple of 16; enough probes
    # that some key routes to each worker for any ephemeral-port ring.
    for macs in (None, 16, 32, 48, 64, 96, 128, 160, 192,
                 224, 256, 320, 384, 448, 512):
        point = {"network": "alexnet", "accelerator": "loom"}
        if macs is not None:
            point["equivalent_macs"] = macs
        key = job_key(point_to_job(canonical_point(point)))
        if coordinator.ring.node_for(key) == worker.url:
            return point
    raise AssertionError("no probe point routed to the target worker")


class TestBitIdentity:
    def test_two_worker_cluster_matches_batched_engine(self):
        # In-process reference: the batched engine through a JobExecutor.
        from repro.explore.space import canonical_point, point_to_job

        jobs = [point_to_job(canonical_point(p)) for p in MATRIX]
        with JobExecutor() as executor:
            reference = executor.run(jobs)
        with cluster(n=2) as (coordinator, workers, client):
            served = client.submit_points(MATRIX)
            for entry, expected in zip(served, reference):
                assert entry.result.network == expected.network
                assert entry.result.accelerator == expected.accelerator
                assert compare_layer_results(entry.result.layers,
                                             expected.layers) == []
            # Every point went through the ring exactly once.  (Whether the
            # six keys span both shards depends on the ephemeral worker
            # ports; spread itself is pinned in the ring unit tests.)
            assert sum(coordinator._routed_total.value(shard=url)
                       for url in coordinator.shards) == len(MATRIX)

    def test_resubmission_is_answered_from_shard_caches(self):
        with cluster(n=2) as (coordinator, workers, client):
            first = client.submit_points(MATRIX)
            assert {e.status for e in first} == {"executed"}
            again = client.submit_points(MATRIX)
            assert {e.status for e in again} == {"cached"}
            assert [e.key for e in again] == [e.key for e in first]

    def test_key_lookup_proxies_to_the_owning_shard(self):
        with cluster(n=2) as (coordinator, workers, client):
            submitted = client.submit(MATRIX[0])
            status, result = client.lookup(submitted.key)
            assert status == "done"
            assert compare_layer_results(result.layers,
                                         submitted.result.layers) == []
            assert client.lookup("no-such-key")[0] == "unknown"


class TestFailover:
    def test_worker_killed_mid_batch_reroutes_to_survivor(self):
        with cluster(n=2) as (coordinator, workers, client):
            victim = workers[0]
            _slow(victim, delay_s=0.5)
            # Kill the victim's HTTP front while the batch is in flight.
            killer = threading.Timer(0.15, victim._server.stop,
                                     kwargs={"drain_timeout_s": 0.0})
            killer.start()
            try:
                entries = client.submit_points(MATRIX)
            finally:
                killer.join()
            assert len(entries) == len(MATRIX)
            assert all(e.result.layers for e in entries)
            assert not coordinator.shards[victim.url].healthy
            assert coordinator.stats.shard_retries > 0
            # The survivors keep answering -- and keys still resolve.
            again = client.submit_points(MATRIX)
            assert [e.key for e in again] == [e.key for e in entries]

    def test_all_workers_dead_answers_503(self):
        with cluster(n=1) as (coordinator, workers, client):
            workers[0]._server.stop(drain_timeout_s=0.0)
            with pytest.raises(ServeError) as excinfo:
                client.submit(MATRIX[0])
            assert excinfo.value.status == 503

    def test_health_probe_recovers_a_marked_shard(self):
        with cluster(n=2) as (coordinator, workers, client):
            url = workers[0].url
            coordinator._mark_shard(url, False, "test")
            assert coordinator._shard_healthy.value(shard=url) == 0
            future = coordinator._server.run_coroutine(
                coordinator._probe_shard(url))
            assert future.result(timeout=10.0) is True
            assert coordinator.shards[url].healthy
            assert coordinator._shard_healthy.value(shard=url) == 1


class TestStreaming:
    def test_jobs_ndjson_streams_in_submission_order(self):
        with cluster(n=2) as (coordinator, workers, client):
            fast, slow = workers
            _slow(slow, delay_s=0.4)
            points = [_point_routed_to(coordinator, fast),
                      _point_routed_to(coordinator, slow)]
            stamps = []
            entries = client.submit_points_stream(
                points,
                on_entry=lambda i, job: stamps.append((i, time.monotonic())))
            assert [i for i, _ in stamps] == [0, 1]
            assert len(entries) == 2
            # The fast shard's entry was flushed while the slow shard was
            # still simulating: streaming, not buffer-then-dump.
            assert stamps[1][1] - stamps[0][1] > 0.2

    def test_explore_sse_streams_before_the_sweep_completes(self):
        with cluster(n=2) as (coordinator, workers, client):
            for worker in workers:
                _slow(worker, delay_s=0.1)
            space = {"axes": {"equivalent_macs": [32, 64, 128]},
                     "base": {"network": "alexnet", "accelerator": "loom"}}
            events = []
            stamps = {}
            for event, data in client.explore_stream(space,
                                                     strategy="coordinate"):
                events.append((event, data))
                stamps.setdefault(event, time.monotonic())
            names = [name for name, _ in events]
            assert names[0] == "start"
            assert names[-1] == "end"
            assert events[-1][1] == {"complete": True}
            assert "result" in names
            # The coordinate strategy runs multiple rounds; each round's
            # batch arrives as its own progress event, well before the end.
            assert names.count("progress") >= 2
            assert stamps["start"] < stamps["result"] - 0.15
            result = dict(events[names.index("result")][1])
            assert len(result["evaluated"]) >= 3

    def test_plain_explore_still_answers_one_json_document(self):
        with cluster(n=1) as (coordinator, workers, client):
            space = {"axes": {"equivalent_macs": [32, 64]},
                     "base": {"network": "alexnet", "accelerator": "loom"}}
            result = client.explore(space)
            assert len(result["evaluated"]) == 2
            assert coordinator.stats.explores == 1

    def test_explore_strategy_options_and_budget_over_the_wire(self):
        with cluster(n=1) as (coordinator, workers, client):
            space = {"axes": {"equivalent_macs": [32, 64, 128, 192]},
                     "base": {"network": "alexnet", "accelerator": "loom"}}
            result = client.explore(space, strategy="random",
                                    options={"samples": 3, "seed": 1},
                                    budget=2)
            assert result["strategy"] == "random"
            assert len(result["evaluated"]) == 2  # budget trims the 3 samples
            with pytest.raises(ServeError) as excinfo:
                client.explore(space, budget=0)
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                client.explore(space, options={"bogus": 1})
            assert excinfo.value.status == 400

    def test_explore_stream_validates_before_streaming(self):
        with cluster(n=1) as (coordinator, workers, client):
            with pytest.raises(ServeError) as excinfo:
                list(client.explore_stream({"axes": {}}))
            assert excinfo.value.status == 400


class TestGracefulShutdown:
    def test_shutdown_mid_stream_sends_clean_terminal_event(self):
        workers = [ClusterWorker() for _ in range(2)]
        for worker in workers:
            worker.start()
            _slow(worker, delay_s=0.3)
        coordinator = ClusterCoordinator([w.url for w in workers],
                                         health_interval_s=60.0)
        coordinator.start()
        client = ServeClient(coordinator.url, timeout_s=60.0)
        space = {"axes": {"equivalent_macs": [32, 64, 128, 256]},
                 "base": {"network": "alexnet", "accelerator": "loom"}}
        events = []
        finished = threading.Event()

        def consume():
            for event, data in client.explore_stream(space,
                                                     strategy="coordinate"):
                events.append((event, data))
            finished.set()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        deadline = time.monotonic() + 10.0
        while not events and time.monotonic() < deadline:
            time.sleep(0.01)
        assert events, "stream never started"
        try:
            coordinator.stop()  # mid-sweep
            assert finished.wait(timeout=30.0), "stream never terminated"
            names = [name for name, _ in events]
            assert names[-1] == "end"
            end_payload = events[-1][1]
            if end_payload.get("complete"):
                # The sweep may win the race on a fast box; the contract
                # only requires a clean terminal event either way.
                assert end_payload == {"complete": True}
            else:
                assert end_payload["reason"] == "shutdown"
            # No explore threads left behind on the coordinator.
            assert not coordinator._explore_threads
            assert not coordinator._streams
        finally:
            for worker in workers:
                worker.stop()
        # Workers shut down cleanly afterwards: pools gone, cores closed.
        for worker in workers:
            assert worker._pool is None

    def test_worker_shutdown_endpoint_stops_the_worker(self):
        worker = ClusterWorker()
        worker.start()
        client = ServeClient(worker.url, timeout_s=30.0)
        assert client.shutdown() == {"ok": True, "stopping": True}
        worker.wait_until_stopped(poll_s=0.05)
        assert worker._pool is None


_SERIES = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|NaN|[+-]Inf)$")


def _assert_prometheus_text(text: str) -> None:
    """Validate Prometheus text exposition: HELP/TYPE then series lines."""
    assert text.endswith("\n")
    typed = set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            name, kind = line.split(" ")[2:4]
            assert kind in ("counter", "gauge", "histogram")
            typed.add(name)
            continue
        match = _SERIES.match(line)
        assert match, f"unparseable series line: {line!r}"
        name = line.split("{")[0].split(" ")[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or base in typed, f"untyped series {name}"


class TestMetricsEndpoints:
    def test_every_node_serves_parseable_prometheus_text(self):
        with cluster(n=2) as (coordinator, workers, client):
            client.submit_points(MATRIX[:3])
            for url in [coordinator.url] + [w.url for w in workers]:
                with urllib.request.urlopen(url + "/metrics",
                                            timeout=30.0) as response:
                    assert "text/plain" in response.headers["Content-Type"]
                    _assert_prometheus_text(
                        response.read().decode("utf-8"))

    def test_coordinator_counts_requests_and_shard_health(self):
        with cluster(n=2) as (coordinator, workers, client):
            client.submit_points(MATRIX[:2])
            health = client.healthz()
            assert health["role"] == "coordinator"
            assert health["version"] == __version__
            with urllib.request.urlopen(coordinator.url + "/metrics",
                                        timeout=30.0) as response:
                text = response.read().decode("utf-8")
            assert 'loom_coordinator_requests_total{path="/jobs",status="200"} 1' in text
            for worker in workers:
                assert (f'loom_coordinator_shard_healthy{{shard="{worker.url}"}} 1'
                        in text)
            assert "loom_coordinator_request_seconds_bucket" in text

    def test_worker_exposes_queue_depth_and_cache_ratio(self):
        with cluster(n=1) as (coordinator, workers, client):
            client.submit(MATRIX[0])
            client.submit(MATRIX[0])  # warm-store answer
            with urllib.request.urlopen(workers[0].url + "/metrics",
                                        timeout=30.0) as response:
                text = response.read().decode("utf-8")
            assert "loom_worker_queue_depth 0" in text
            assert "loom_worker_cache_hit_ratio 0.5" in text
            assert "loom_worker_jobs_executed_total 1" in text

    def test_a_request_is_counted_before_its_answer_arrives(self):
        # A node counts a request when it writes the response head, so a
        # caller holding its answer always sees it counted (not only once
        # the handler has finished after the bytes went out).
        with ClusterWorker() as worker:
            client = ServeClient(worker.url, timeout_s=60.0)
            for done in range(1, 51):
                client.submit(MATRIX[done % 2])
                assert worker._requests_total.value(
                    path="/jobs", status="200") == done
                assert worker.core.stats.requests == done


class TestRateLimiting:
    def test_burst_exhaustion_answers_429_with_retry_after(self):
        limiter = RateLimiter(rate=0.001, burst=2)
        with cluster(n=1, coordinator_kwargs={"rate_limiter": limiter}) \
                as (coordinator, workers, client):
            client.submit(MATRIX[0])
            client.submit(MATRIX[0])
            with pytest.raises(ServeError) as excinfo:
                client.submit(MATRIX[0])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s >= 1
            assert coordinator.stats.rate_limited == 1
            # Health and metrics stay reachable for refused clients.
            assert client.healthz()["ok"] is True

    def test_quota_exhaustion_has_no_retry_hint(self):
        limiter = RateLimiter(rate=1000.0, burst=1000, quota=1)
        with cluster(n=1, coordinator_kwargs={"rate_limiter": limiter}) \
                as (coordinator, workers, client):
            client.submit(MATRIX[0])
            with pytest.raises(ServeError) as excinfo:
                client.submit(MATRIX[0])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s is None

    def test_rate_limiter_surfaces_in_stats(self):
        limiter = RateLimiter(rate=1000.0, burst=1000)
        with cluster(n=1, coordinator_kwargs={"rate_limiter": limiter}) \
                as (coordinator, workers, client):
            client.submit(MATRIX[0])
            stats = client.stats()
            assert stats["rate_limiter"]["admitted"] == 1
            assert stats["role"] == "coordinator"
            assert stats["version"] == __version__
            assert len(stats["workers"]) == 1


class TestRemoteSweep:
    def test_remote_executor_sweeps_through_the_cluster(self):
        from repro.explore import Axis, SweepSpec, explore

        space = SweepSpec(
            axes=[Axis("equivalent_macs", (32, 64)),
                  Axis("accelerator", ("loom", "dstripes"))],
            base={"network": "alexnet"},
        )
        with cluster(n=2) as (coordinator, workers, client):
            result = explore(space,
                             executor=RemoteExecutor(client, stream=True))
            assert len(result.evaluated) == 4
            # Reference run, in process, must agree on every metric of
            # every point (the metrics are pure functions of the layer
            # results, which the submit-path tests pin bit-identical).
            with JobExecutor() as executor:
                local = explore(space, executor=executor)
            for remote_point, local_point in zip(result.evaluated,
                                                 local.evaluated):
                assert remote_point.point == local_point.point
                assert remote_point.metrics == local_point.metrics

    def test_shared_nothing_stores_stay_per_shard(self, tmp_path):
        from repro.serve import SQLiteResultStore
        from repro.sim.jobs import ResultCache

        def store_backed(index):
            store = SQLiteResultStore(tmp_path / f"worker-{index}.db")
            executor = JobExecutor(cache=ResultCache(backend=store,
                                                     max_memory_entries=32))
            return ClusterWorker(core=ServiceCore(executor=executor))

        workers = [store_backed(0), store_backed(1)]
        for worker in workers:
            worker.start()
        # peer_cache=False keeps the cluster shared-nothing: no ring push,
        # no write-through replication between the worker stores.
        coordinator = ClusterCoordinator([w.url for w in workers],
                                         health_interval_s=60.0,
                                         peer_cache=False)
        coordinator.start()
        try:
            client = ServeClient(coordinator.url, timeout_s=120.0)
            client.submit_points(MATRIX)
            total = sum(
                SQLiteResultStore.inspect(tmp_path / f"worker-{i}.db"
                                          )["entries"]
                for i in range(2))
            assert total == len(MATRIX)  # disjoint: no key stored twice
        finally:
            coordinator.stop()
            for worker in workers:
                worker.stop()


class TestWireCompat:
    def test_single_point_submit_matches_serve_wire_format(self):
        with cluster(n=1) as (coordinator, workers, client):
            request = urllib.request.Request(
                coordinator.url + "/jobs",
                data=json.dumps(MATRIX[0]).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST")
            with urllib.request.urlopen(request, timeout=60.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert set(payload) == {"key", "status", "result"}

    def test_bad_point_answers_400_with_message(self):
        with cluster(n=1) as (coordinator, workers, client):
            with pytest.raises(ServeError) as excinfo:
                client.submit({"network": "no-such-net",
                               "accelerator": "loom"})
            assert excinfo.value.status == 400

    def test_unknown_path_is_404(self):
        with cluster(n=1) as (coordinator, workers, client):
            with pytest.raises(ServeError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404

    @pytest.mark.parametrize("tier", ["node", "coordinator"])
    @pytest.mark.parametrize("body", [{"points": []}, {"points": "x"},
                                      {"point": 5}],
                             ids=["empty-points", "string-points",
                                  "scalar-point"])
    def test_malformed_jobs_envelope_is_a_counted_400(self, tier, body):
        # Regression: a worker parsed the envelope outside its error
        # mapping and answered 500; every tier shares one parser now.
        with cluster(n=1) as (coordinator, workers, _):
            url = coordinator.url if tier == "coordinator" else workers[0].url
            client = ServeClient(url, timeout_s=30.0)
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/jobs", body)
            assert excinfo.value.status == 400
            assert client.stats()["service"]["errors"] == 1


class TestClusterObservability:
    """The cluster half of the repro.obs contract: one sweep -> one
    connected trace across coordinator, workers and executors."""

    def test_remote_sweep_yields_one_connected_trace(self):
        from repro.explore.space import canonical_point, point_to_job
        from repro.obs import Span, chrome_trace, get_tracer

        tracer = get_tracer()
        jobs = [point_to_job(canonical_point(point)) for point in MATRIX]
        with cluster(n=2) as (coordinator, workers, client):
            with RemoteExecutor(client, batch_size=2) as remote:
                with tracer.span("test.sweep") as root:
                    remote.run(jobs)
                    trace_id = root.trace_id
            # Handler spans record a beat after each response flushes.
            names = set()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                payload = client.trace()
                spans = [span for span in payload["spans"]
                         if span["trace_id"] == trace_id]
                names = {span["name"] for span in spans}
                if any(name.startswith("coordinator.POST") for name in names):
                    break
                time.sleep(0.05)
        # One trace id covers every tier of the sweep.
        assert any(name.startswith("coordinator.POST /jobs")
                   for name in names)
        assert any(name.startswith("worker.POST /jobs") for name in names)
        assert "executor.run" in names
        assert "executor.simulate" in names
        # Every span links to a parent inside the same trace (the root and
        # client-side spans live in this process's recorder, not the wire
        # payload -- resolve parents against the union).
        local = {span.span_id: span for span in tracer.recorder.spans()
                 if span.trace_id == trace_id}
        wire = {span["span_id"]: span for span in spans}
        for span in spans:
            parent = span["parent_id"]
            assert parent is None or parent in wire or parent in local
        # And the merged set exports as valid Chrome trace-event JSON.
        merged = [Span.from_dict(entry) for entry in spans]
        merged.extend(local.values())
        document = json.loads(json.dumps(chrome_trace(merged)))
        assert len([event for event in document["traceEvents"]
                    if event.get("ph") == "X"]) == len(merged)

    def test_coordinator_trace_merges_worker_spans(self):
        with cluster(n=2) as (coordinator, workers, client):
            client.submit(MATRIX[0])
            deadline = time.time() + 5.0
            services = set()
            while time.time() < deadline:
                payload = client.trace()
                services = {span["service"] for span in payload["spans"]}
                if len(services) > 1:
                    break
                time.sleep(0.05)
        # In-process workers share the default tracer, so the aggregation
        # is visible through span names instead of service names here;
        # what must hold is that worker-recorded spans ride the payload.
        names = {span["name"] for span in payload["spans"]}
        assert any(name.startswith("worker.") for name in names)

    def test_coordinator_metrics_include_request_series(self):
        with cluster(n=1) as (coordinator, workers, client):
            client.submit(MATRIX[0])
            needle = 'loom_coordinator_requests_total{path="/jobs",status="200"}'
            deadline = time.monotonic() + 5.0
            while True:
                text = urllib.request.urlopen(coordinator.url + "/metrics",
                                              timeout=10).read().decode("utf-8")
                if needle in text or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        assert "# TYPE loom_coordinator_requests_total counter" in text
        assert needle in text

    def test_worker_metrics_include_executor_phases(self):
        with cluster(n=1) as (coordinator, workers, client):
            client.submit(MATRIX[0])
            text = urllib.request.urlopen(workers[0].url + "/metrics",
                                          timeout=10).read().decode("utf-8")
        assert "# TYPE loom_executor_phase_seconds histogram" in text
        assert 'loom_executor_phase_seconds_count{phase="simulate"} 1' \
            in text


def _record_job_clients(node, clients):
    """Collect the client address of every ``POST /jobs`` ``node`` serves:
    one address per connection the node accepted for it."""
    route = node._route

    async def recording(request, responder, path):
        if request.method == "POST" and path == "/jobs":
            clients.add(request.client)
        return await route(request, responder, path)

    node._route = recording


class TestKeepAlive:
    """Every hop reuses its connections; a stop or restart is invisible."""

    def test_sequential_batches_reuse_one_connection_per_hop(self):
        with cluster(n=2) as (coordinator, workers, client):
            seen = {node.url: set() for node in [coordinator, *workers]}
            for node in [coordinator, *workers]:
                _record_job_clients(node, seen[node.url])
            for _ in range(20):
                client.submit_points(MATRIX)
        assert len(seen[coordinator.url]) == 1
        assert all(len(seen[worker.url]) <= 1 for worker in workers)
        assert sum(len(seen[worker.url]) for worker in workers) >= 1

    def test_stop_is_prompt_with_idle_pooled_connections(self):
        worker = ClusterWorker()
        worker.start()
        coordinator = ClusterCoordinator([worker.url],
                                         health_interval_s=60.0)
        coordinator.start()
        try:
            ServeClient(coordinator.url, timeout_s=60.0).submit_points(
                MATRIX[:2])
            direct = ServeClient(worker.url, timeout_s=60.0)
            direct.healthz()
            sock = direct._connection().sock
            # Held open and idle at both ends: the client's socket, and on
            # the worker that one plus the coordinator's pooled connection.
            assert sock is not None and sock.fileno() >= 0
            assert len(worker._server._connections) >= 2
            started = time.monotonic()
            worker.stop()
            assert time.monotonic() - started < 2.0
            # The worker let go of the idle connection: the client reads EOF.
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
            assert len(worker._server._connections) == 0
            direct.close()
        finally:
            coordinator.stop()
            worker.stop()

    def test_worker_restart_on_the_same_port_is_invisible(self):
        with cluster(n=2) as (coordinator, workers, client):
            client.submit_points(MATRIX)  # pools a connection per worker
            port = workers[1].port
            workers[1].stop()
            workers[1] = ClusterWorker(port=port)  # torn down by cluster()
            workers[1].start()
            batch = MATRIX + [_point_routed_to(coordinator, workers[1])]
            routed = sum(
                1 for point in batch
                if coordinator.ring.node_for(_key(point)) == workers[1].url)
            entries = client.submit_points(batch)
            assert len(entries) == len(batch)
            assert all(shard.healthy
                       for shard in coordinator.shards.values())
            assert coordinator.stats.shard_retries == 0
            assert workers[1].core.stats.submitted_points == routed

    def test_shutdown_closes_the_client_connection(self):
        worker = ClusterWorker()
        client = ServeClient(worker.start(), timeout_s=30.0)
        try:
            client.healthz()
            connection = client._connection()
            sock = connection.sock
            # Held open between requests, at both ends.
            assert sock is not None and sock.fileno() >= 0
            assert len(worker._server._connections) == 1
            client.shutdown()
            # The reply said Connection: close, so the client let go: the
            # socket is closed, not just dropped.
            assert connection.sock is None
            assert sock.fileno() == -1
            worker.wait_until_stopped(poll_s=0.05)
            assert len(worker._server._connections) == 0
            started = time.monotonic()
            with pytest.raises(ServeError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert time.monotonic() - started < 2.0
        finally:
            worker.stop()

    def test_fetch_retries_a_stale_pooled_connection_once(self):
        from repro.cluster.aio import (
            AsyncHTTPServer,
            close_idle_connections,
            fetch,
        )

        accepted = []

        async def handler(request, responder):
            accepted.append(request.client)
            responder.close_after = request.path == "/bye"
            await responder.send_json(200, {"path": request.path})

        async def scenario():
            first = AsyncHTTPServer(handler)
            url = first.start()
            try:
                await fetch(url, "GET", "/a")
                await fetch(url, "GET", "/b")  # reuses the connection
                # Blocking here keeps this loop from seeing the close, so
                # the pooled connection still looks open when it is taken.
                first.stop()
            finally:
                first.stop()
            second = AsyncHTTPServer(handler, port=first.port)
            second.start()
            try:
                reply = await fetch(url, "GET", "/c")
                await fetch(url, "GET", "/bye")
                await fetch(url, "GET", "/d")  # "/bye" was not pooled
            finally:
                await close_idle_connections()
                second.stop()
            return reply

        reply = asyncio.run(scenario())
        assert reply.status == 200 and reply.json() == {"path": "/c"}
        assert len(accepted) == 5
        # One connection for /a and /b; /c went out on a fresh one after
        # the stale retry and carried /bye; /d needed another.
        assert len(set(accepted[:2])) == 1
        assert accepted[2] == accepted[3] != accepted[4]
        assert accepted[2] != accepted[0]


@contextlib.contextmanager
def _echo_server():
    """An ``AsyncHTTPServer`` answering each request with what it saw."""
    from repro.cluster.aio import AsyncHTTPServer

    async def handler(request, responder):
        await responder.send_json(200, {
            "method": request.method, "path": request.path,
            "body": request.body.decode("utf-8"), "client": request.client})

    server = AsyncHTTPServer(handler)
    server.start()
    try:
        yield server
    finally:
        server.stop()


def _raw_exchange(port, data, pause_s=0.0):
    """Send ``data`` on a raw socket (byte by byte when ``pause_s`` is
    set) and read until the server closes it or 5 s pass."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if pause_s:
            for byte in data:
                sock.sendall(bytes([byte]))
                time.sleep(pause_s)
        else:
            sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


def _responses(raw):
    """``[(status, headers, body)]`` of Content-Length responses in
    ``raw``."""
    from repro.cluster.aio import parse_response_head

    answers = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status, headers = parse_response_head(head)
        length = int(headers["content-length"])
        answers.append((status, headers, raw[:length]))
        raw = raw[length:]
    return answers


@contextlib.contextmanager
def _dribbling_server(response):
    """A one-shot raw server that reads one request head and answers
    ``response`` one byte per TCP segment."""
    import socket

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(65536)
            for byte in response:
                conn.sendall(bytes([byte]))
                time.sleep(0.0005)
            conn.recv(65536)  # until the client hangs up

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{port}"
    finally:
        listener.close()
        thread.join(timeout=10)


class TestTransport:
    """The HTTP/1.1 codec, the protocol server and both clients."""

    REQUEST = (b"POST /echo?x=1 HTTP/1.1\r\nHost: t\r\n"
               b"Content-Length: 11\r\nConnection: close\r\n\r\nhello world")

    def test_a_request_split_byte_by_byte_is_parsed(self):
        with _echo_server() as server:
            raw = _raw_exchange(server.port, self.REQUEST, pause_s=0.001)
        [(status, headers, body)] = _responses(raw)
        assert status == 200 and headers["connection"] == "close"
        assert json.loads(body)["body"] == "hello world"
        assert json.loads(body)["path"] == "/echo"

    def test_a_response_split_byte_by_byte_is_read_by_both_clients(self):
        from repro.cluster.aio import fetch

        body = json.dumps({"ok": True, "pad": "x" * 40}).encode()
        response = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        with _dribbling_server(response) as url:
            client = ServeClient(url, timeout_s=10.0)
            assert client.healthz() == json.loads(body)
            client.close()
        with _dribbling_server(response) as url:
            async def scenario():
                from repro.cluster.aio import close_idle_connections

                try:
                    return await fetch(url, "GET", "/healthz", timeout_s=10.0)
                finally:
                    await close_idle_connections()

            reply = asyncio.run(scenario())
        assert reply.status == 200 and reply.json() == json.loads(body)

    def test_pipelined_requests_are_answered_in_order(self):
        requests = b"".join(
            b"POST /%d HTTP/1.1\r\nContent-Length: 1\r\n\r\n%d" % (n, n)
            for n in range(3))
        with _echo_server() as server:
            raw = _raw_exchange(server.port, requests)
        answers = _responses(raw)
        assert [json.loads(body)["path"] for _, _, body in answers] \
            == ["/0", "/1", "/2"]
        assert [json.loads(body)["body"] for _, _, body in answers] \
            == ["0", "1", "2"]
        assert len({json.loads(body)["client"] for _, _, body in answers}) \
            == 1

    @pytest.mark.parametrize("request_bytes", [
        b"GARBAGE\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost: t\r\n",  # the peer hung up mid-head
    ])
    def test_a_malformed_request_is_a_400_and_closes(self, request_bytes):
        with _echo_server() as server:
            raw = _raw_exchange(server.port, request_bytes)
        [(status, headers, body)] = _responses(raw)
        assert status == 400 and headers["connection"] == "close"
        assert "error" in json.loads(body)

    def test_an_oversized_head_or_body_is_a_413(self):
        from repro.cluster.aio import MAX_BODY_BYTES

        huge_head = (b"GET / HTTP/1.1\r\nX-Pad: " + b"x" * (70 * 1024)
                     + b"\r\n\r\n")
        huge_body = (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                     % (MAX_BODY_BYTES + 1))
        with _echo_server() as server:
            for request_bytes in (huge_head, huge_body):
                [(status, headers, body)] = _responses(
                    _raw_exchange(server.port, request_bytes))
                assert status == 413 and headers["connection"] == "close"
                assert b"too large" in body

    def test_an_idle_connection_is_closed_after_the_timeout(self,
                                                            monkeypatch):
        import socket

        from repro.cluster import aio

        monkeypatch.setattr(aio, "_KEEPALIVE_TIMEOUT_S", 0.3)
        with _echo_server() as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5.0) as sock:
                sock.sendall(b"GET /a HTTP/1.1\r\n\r\n")
                time.sleep(0.1)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")
                started = time.monotonic()
                assert sock.recv(1) == b""  # idle: the server hung up
                assert 0.1 < time.monotonic() - started < 3.0
            # A head that dribbles in past the timeout is cut off too.
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5.0) as sock:
                sock.sendall(b"GET /slow HTTP/1.1\r\n")
                assert sock.recv(1) == b""
            for _ in range(100):  # connection_lost runs just after
                if not server._connections:
                    break
                time.sleep(0.01)
            assert not server._connections

    def test_serve_client_retries_a_stale_connection_once(self, monkeypatch):
        from repro.cluster import aio

        monkeypatch.setattr(aio, "_KEEPALIVE_TIMEOUT_S", 0.2)
        with _echo_server() as server:
            client = ServeClient(server.url, timeout_s=10.0)
            first = client.healthz()
            sock = client._connection().sock
            time.sleep(0.6)  # the server closes the idle connection
            second = client.healthz()
            assert client._connection().sock is not sock
            client.close()
        # The retry went out on a fresh connection.
        assert first["client"] != second["client"]

    def test_ndjson_and_sse_split_across_chunks_reach_the_client(self):
        from repro.cluster import wire
        from repro.cluster.aio import AsyncHTTPServer
        from repro.sim.jobs import execute_job
        from repro.explore.space import canonical_point, point_to_job

        point = {"network": "alexnet", "accelerator": "loom"}
        job = point_to_job(canonical_point(point))
        result = execute_job(job)
        entry = wire.entry(job_key(job), "executed", result.to_json())

        def pieces(data, size=7):
            return [data[i:i + size] for i in range(0, len(data), size)]

        async def handler(request, responder):
            if request.path == "/jobs":
                await responder.start_stream("application/x-ndjson")
                body = (wire.ndjson_line(0, entry) + wire.ndjson_line(1, entry)
                        + b'{"done": true, "count": 2}\n')
            else:
                await responder.start_stream("text/event-stream")
                body = b"".join(
                    b"event: %s\ndata: %s\n\n" % (name.encode(),
                                                  json.dumps(data).encode())
                    for name, data in (("start", {"n": 1}),
                                       ("progress", {"done": 1}),
                                       ("end", {"complete": True})))
            for piece in pieces(body):
                await responder.write_chunk(piece)
            await responder.finish_stream()

        server = AsyncHTTPServer(handler)
        server.start()
        try:
            client = ServeClient(server.url, timeout_s=10.0)
            seen = []
            jobs = client.submit_points_stream(
                [point, point], on_entry=lambda i, job: seen.append(i))
            assert seen == [0, 1]
            assert [job.status for job in jobs] == ["executed", "executed"]
            assert compare_layer_results(jobs[0].result.layers,
                                         result.layers) == []
            sock = client._connection().sock
            assert len(client.submit_points_stream([point, point])) == 2
            # The NDJSON stream was read to its end: one connection.
            assert client._connection().sock is sock
            events = list(client.explore_stream({"axes": {}}))
            assert events == [("start", {"n": 1}), ("progress", {"done": 1}),
                              ("end", {"complete": True})]
            client.close()
        finally:
            server.stop()


def test_coordinator_keys_a_large_batch_without_stalling_its_loop():
    points = (MATRIX * 22)[:130]

    async def scenario():
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0)

        task = asyncio.get_running_loop().create_task(ticker())
        await asyncio.sleep(0)
        before = ticks
        keys = await ClusterCoordinator._keys_for(points)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return ticks - before, keys

    ticks, keys = asyncio.run(scenario())
    assert keys == [_key(point) for point in points]
    # 130 points key in three slices of at most 64, yielding between them.
    assert ticks >= 2
