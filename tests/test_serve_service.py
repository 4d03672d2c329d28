"""Tests for the batching simulation service: ``loom-repro serve``'s node.

``loom-repro serve`` runs one :class:`~repro.cluster.worker.ClusterWorker`
around a :class:`~repro.serve.core.ServiceCore`.  The contract, verified
over real HTTP against in-process nodes:

* a served job result is **bit-identical** (field-for-field ``LayerResult``
  equality, the validator's comparator) to the same job run in-process via
  ``execute_job``;
* N concurrent submissions of one key execute the simulation exactly once
  (``ExecutorStats.max_executions_per_key == 1``), the rest coalescing onto
  the winner;
* a full in-flight queue answers 429 with a ``Retry-After`` hint instead of
  queueing without bound;
* sweeps can execute through the service (``RemoteExecutor`` + POST
  /explore) with results identical to local execution.
"""

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterWorker
from repro.explore import Axis, SweepSpec, canonical_point, explore, point_to_job
from repro.serve import (
    Backpressure,
    RemoteExecutor,
    SQLiteResultStore,
    ServeClient,
    ServeError,
    ServiceCore,
)
from repro.serve.core import Lookup, _Inflight
from repro.sim.jobs import (
    AcceleratorSpec,
    JobExecutor,
    NetworkSpec,
    ResultCache,
    SimJob,
    execute_job,
    job_key,
)
from repro.sim.validate import compare_layer_results

POINT = {"network": "alexnet", "accelerator": "loom"}


@contextlib.contextmanager
def serving(tmp_path=None, **core_kwargs):
    """A started node + client; SQLite-backed when tmp_path is given."""
    if tmp_path is not None and "executor" not in core_kwargs:
        store = SQLiteResultStore(tmp_path / "serve.db")
        core_kwargs["executor"] = JobExecutor(
            cache=ResultCache(backend=store, max_memory_entries=64))
    node = ClusterWorker(core=ServiceCore(**core_kwargs))
    node.start()
    try:
        yield node, ServeClient(node.url, timeout_s=60.0)
    finally:
        node.stop()


def _slow(node, delay_s=0.25):
    """Wrap the node's executor so executions overlap deterministically."""
    original = node.core.executor.run

    def run(jobs, **kwargs):
        time.sleep(delay_s)
        return original(jobs, **kwargs)

    node.core.executor.run = run
    return original


class TestEndpoints:
    def test_healthz(self):
        with serving() as (_, client):
            payload = client.healthz()
            assert payload["ok"] is True
            assert payload["uptime_s"] >= 0

    def test_networks_lists_the_zoo(self):
        from repro.nn import available_networks

        with serving() as (_, client):
            networks = client.networks()
            assert [n["name"] for n in networks] == available_networks()
            alexnet = next(n for n in networks if n["name"] == "alexnet")
            assert alexnet["conv"] == 5 and alexnet["fc"] == 3

    def test_unknown_path_is_404(self):
        with serving() as (_, client):
            with pytest.raises(ServeError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404

    def test_stats_reports_every_section(self, tmp_path):
        with serving(tmp_path) as (_, client):
            client.submit(POINT)
            stats = client.stats()
            assert stats["service"]["submitted_points"] == 1
            assert stats["executor"]["executed"] == 1
            assert stats["cache"]["stores"] == 1
            assert stats["store"]["backend"] == "sqlite"
            assert stats["store"]["entries"] == 1
            assert stats["queue_limit"] >= 1


class TestServedResults:
    def test_served_result_bit_identical_to_in_process(self):
        local = execute_job(point_to_job(canonical_point(POINT)))
        with serving() as (_, client):
            served = client.submit(POINT)
        assert served.status == "executed"
        assert served.key == job_key(point_to_job(canonical_point(POINT)))
        # The acceptance comparator: the validator's field-for-field equality.
        assert compare_layer_results(served.result.layers, local.layers) == []
        assert served.result.to_dict() == local.to_dict()

    def test_event_engine_selection_reaches_the_core(self, monkeypatch):
        # Regression: the core used to pin the batched engine, so
        # `loom-repro --engine event serve` silently served vector results.
        from repro.serve.core import ServiceCore
        from repro.sim import batched

        def forbidden(jobs):
            raise AssertionError("event-engine core called the batch engine")

        monkeypatch.setattr(batched, "simulate_jobs_batched", forbidden)
        with batched.use_engine("event"):
            core = ServiceCore()
            (entry,) = core.submit_points([POINT])
            core.close()
        assert entry.status == "executed"
        assert core.executor.stats.batched_jobs == 0
        local = execute_job(point_to_job(canonical_point(POINT)),
                            engine="event")
        assert entry.result.to_dict() == local.to_dict()

    def test_repeat_submission_is_answered_from_the_store(self):
        with serving() as (node, client):
            first = client.submit(POINT)
            second = client.submit(POINT)
            assert first.status == "executed"
            assert second.status == "cached"
            assert second.result.to_dict() == first.result.to_dict()
            assert node.core.executor.stats.max_executions_per_key == 1

    def test_store_survives_service_restarts(self, tmp_path):
        with serving(tmp_path) as (_, client):
            first = client.submit(POINT)
        store = SQLiteResultStore(tmp_path / "serve.db")
        with serving(executor=JobExecutor(cache=ResultCache(
                backend=store))) as (node, client):
            revived = client.submit(POINT)
            assert revived.status == "cached"
            assert revived.result.to_dict() == first.result.to_dict()
            assert node.core.executor.stats.executed == 0

    def test_batch_points_resolve_in_order_with_dedup(self):
        points = [
            POINT,
            {"network": "alexnet", "accelerator": "dpnn"},
            POINT,  # duplicate of the first
        ]
        with serving() as (node, client):
            entries = client.submit_points(points)
            assert [e.status for e in entries] == \
                ["executed", "executed", "executed"]
            assert entries[0].key == entries[2].key
            assert entries[0].result.to_dict() == entries[2].result.to_dict()
            # The duplicate never reached a second simulation.
            assert node.core.executor.stats.max_executions_per_key == 1

    def test_lookup_by_key(self):
        with serving() as (_, client):
            done = client.submit(POINT)
            fetched = client.result(done.key)
            assert fetched is not None
            assert fetched.to_dict() == done.result.to_dict()
            assert client.result("0" * 64) is None
            assert client.lookup("0" * 64) == ("unknown", None)

    def test_lookup_reports_pending_for_inflight_keys(self):
        with serving() as (node, client):
            inflight = _Inflight()
            node.core._inflight["busykey"] = inflight
            try:
                assert client.lookup("busykey") == ("pending", None)
            finally:
                node.core._inflight.pop("busykey")
                inflight.event.set()

    def test_config_knobs_ride_the_wire(self):
        point = {"network": "nin", "accelerator": "loom:bits_per_cycle=2",
                 "equivalent_macs": 256, "dram": "lpddr4-4267"}
        local = execute_job(point_to_job(canonical_point(point)))
        with serving() as (_, client):
            served = client.submit(point)
        assert compare_layer_results(served.result.layers, local.layers) == []


class TestCoalescing:
    def test_concurrent_identical_submissions_execute_once(self):
        workers = 6
        with serving() as (node, client):
            _slow(node)
            barrier = threading.Barrier(workers)
            outcomes = []

            def submit():
                barrier.wait()
                outcomes.append(client.submit(POINT))

            threads = [threading.Thread(target=submit)
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert len(outcomes) == workers
            # Exactly one execution; everyone saw the identical result.
            assert node.core.executor.stats.max_executions_per_key == 1
            statuses = sorted(entry.status for entry in outcomes)
            assert statuses.count("executed") == 1
            assert set(statuses) <= {"executed", "coalesced", "cached"}
            assert node.core.stats.coalesced >= 1
            reference = outcomes[0].result.to_dict()
            assert all(entry.result.to_dict() == reference
                       for entry in outcomes)

    def test_coalesced_waiter_sees_owner_error(self):
        # Owner's execution fails -> the waiter must get an error too (and
        # never hang), with the in-flight entry cleaned up afterwards.
        node = ClusterWorker()
        try:
            release = threading.Event()

            def exploding_run(jobs, **kwargs):
                release.wait(5)
                raise RuntimeError("simulator exploded")

            node.core.executor.run = exploding_run
            errors = {}

            def owner():
                try:
                    node.core.submit_points([POINT])
                except RuntimeError as error:
                    errors["owner"] = str(error)

            def waiter():
                # Wait until the owner registered its in-flight entry, then
                # submit the same point so we coalesce onto it.
                for _ in range(100):
                    if node.core._inflight:
                        break
                    time.sleep(0.01)
                release.set()
                try:
                    node.core.submit_points([POINT])
                except RuntimeError as error:
                    errors["waiter"] = str(error)

            threads = [threading.Thread(target=owner),
                       threading.Thread(target=waiter)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert "simulator exploded" in errors["owner"]
            assert "simulator exploded" in errors["waiter"]
            assert node.core._inflight == {}
        finally:
            node.stop()


class TestBackpressure:
    def test_full_queue_is_refused_with_429_retry_after(self):
        with serving(queue_limit=1, retry_after_s=3) as (node, client):
            node.core._pending_batches = 1  # another admitted batch is running
            try:
                with pytest.raises(ServeError) as excinfo:
                    client.submit(POINT)
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after_s == 3
                assert node.core.stats.rejected == 1
                # A rejected batch must not leak into the admission counters.
                assert node.core.stats.submitted_points == 0
            finally:
                node.core._pending_batches = 0
            # Once the queue drains, the same submission succeeds.
            assert client.submit(POINT).status == "executed"

    def test_batch_counts_as_one_admission_unit(self):
        # Regression: a single batch larger than queue_limit must be
        # admitted -- it becomes ONE executor batch, so it costs one slot,
        # not one per distinct key (otherwise any cold sweep wider than the
        # queue could never run).
        points = [
            {"network": "alexnet", "accelerator": "dpnn",
             "equivalent_macs": macs}
            for macs in (32, 48, 64, 80, 96)
        ]
        with serving(queue_limit=1) as (node, client):
            entries = client.submit_points(points)
            assert [e.status for e in entries] == ["executed"] * 5
            assert len({e.key for e in entries}) == 5
            assert node.core.stats.rejected == 0

    def test_remote_sweep_wider_than_the_queue_succeeds(self):
        # The README's own flow: explore --remote against a small queue.
        space = SweepSpec(
            axes=[Axis("equivalent_macs", (32, 64, 128)),
                  Axis("accelerator", ("loom", "dstripes"))],
            base={"network": "alexnet"},
        )
        with serving(queue_limit=1) as (node, client):
            result = explore(space, executor=RemoteExecutor(client))
        assert len(result.evaluated) == 6  # 12 jobs incl. baselines, 1 queue

    def test_remote_executor_retries_on_backpressure(self):
        with serving(queue_limit=1, retry_after_s=1) as (node, client):
            node.core._pending_batches = 1  # queue full...

            def drain():
                time.sleep(0.5)
                node.core._pending_batches = 0  # ...until it drains

            thread = threading.Thread(target=drain)
            thread.start()
            remote = RemoteExecutor(client, max_retries=5)
            jobs = [SimJob(network=NetworkSpec("alexnet"),
                           accelerator=AcceleratorSpec.create("dpnn"))]
            results = remote.run(jobs)
            thread.join()
            assert len(results) == 1
            assert remote.backpressure_retries >= 1

    def test_remote_executor_gives_up_after_max_retries(self):
        with serving(queue_limit=1) as (node, client):
            node.core._pending_batches = 1
            try:
                remote = RemoteExecutor(client, max_retries=0)
                jobs = [SimJob(network=NetworkSpec("alexnet"),
                               accelerator=AcceleratorSpec.create("dpnn"))]
                with pytest.raises(ServeError) as excinfo:
                    remote.run(jobs)
                assert excinfo.value.status == 429
            finally:
                node.core._pending_batches = 0

    def test_coalesced_duplicates_do_not_count_against_the_queue(self):
        with serving(queue_limit=1) as (node, client):
            _slow(node)
            barrier = threading.Barrier(3)
            outcomes, errors = [], []

            def submit():
                barrier.wait()
                try:
                    outcomes.append(client.submit(POINT))
                except ServeError as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=submit) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # All three fit through a queue of one: one owner, two riders.
            assert errors == []
            assert len(outcomes) == 3
            assert node.core.executor.stats.max_executions_per_key == 1

    def test_queue_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="queue_limit"):
            ServiceCore(queue_limit=0)


class TestValidation:
    def test_unknown_network_is_a_400(self):
        with serving() as (_, client):
            with pytest.raises(ServeError) as excinfo:
                client.submit(network="resnet999", accelerator="loom")
            assert excinfo.value.status == 400

    def test_unknown_parameter_is_a_400(self):
        with serving() as (_, client):
            with pytest.raises(ServeError) as excinfo:
                client.submit(network="alexnet", accelerator="loom",
                              flux_capacitance=88)
            assert excinfo.value.status == 400
            assert "flux_capacitance" in excinfo.value.message

    def test_empty_body_is_a_400(self):
        with serving() as (node, _):
            request = urllib.request.Request(
                node.url + "/jobs", data=b"", method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            excinfo.value.close()  # it holds the connection's socket
            assert excinfo.value.code == 400

    def test_submit_points_rejects_non_mappings(self):
        node = ClusterWorker()
        try:
            with pytest.raises(ValueError, match="JSON object"):
                node.core.submit_points(["not-a-mapping"])
        finally:
            node.stop()

    def test_backpressure_is_an_informative_exception(self):
        error = Backpressure(pending=8, limit=8, retry_after_s=2)
        assert "8" in str(error) and "retry" in str(error).lower()

    def test_error_responses_keep_the_connection_parseable(self):
        # Regression: HTTP/1.1 keep-alive means an error response sent
        # without draining the request body leaves the unread bytes to be
        # parsed as the next request on the same connection.
        import http.client

        with serving() as (node, _):
            conn = http.client.HTTPConnection("127.0.0.1", node.port,
                                              timeout=10)
            try:
                conn.request("POST", "/nope", body=b'{"foo": "bar"}',
                             headers={"Content-Type": "application/json"})
                first = conn.getresponse()
                assert first.status == 404
                first.read()
                # Same socket: the next request must parse cleanly.
                conn.request("GET", "/healthz")
                second = conn.getresponse()
                assert second.status == 200
                assert b'"ok": true' in second.read()
            finally:
                conn.close()

    def test_oversized_body_is_refused_and_connection_closed(self):
        import http.client

        from repro.cluster.aio import MAX_BODY_BYTES

        with serving() as (node, _):
            conn = http.client.HTTPConnection("127.0.0.1", node.port,
                                              timeout=10)
            try:
                conn.putrequest("POST", "/jobs")
                conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 413
                assert b"too large" in response.read()
            finally:
                conn.close()


class TestExploreThroughTheService:
    SPACE = SweepSpec(
        axes=[Axis("equivalent_macs", (32, 64)),
              Axis("accelerator", ("loom", "dstripes"))],
        base={"network": "alexnet"},
    )

    def test_post_explore_matches_local_execution(self):
        local = explore(self.SPACE, executor=JobExecutor())
        with serving() as (_, client):
            remote = client.explore(self.SPACE.to_dict())
        assert len(remote["evaluated"]) == len(local.evaluated)
        assert remote["ranks"] == local.ranks
        for wire, local_point in zip(remote["evaluated"], local.evaluated):
            assert wire["metrics"] == pytest.approx(local_point.metrics)

    def test_remote_executor_sweep_matches_local(self, tmp_path):
        local = explore(self.SPACE, executor=JobExecutor())
        with serving(tmp_path) as (_, client):
            remote = explore(self.SPACE, executor=RemoteExecutor(client))
        assert [ep.metrics for ep in remote.evaluated] == \
            [ep.metrics for ep in local.evaluated]
        assert remote.ranks == local.ranks

    def test_second_sweep_is_fully_answered_from_the_warm_store(self, tmp_path):
        with serving(tmp_path) as (node, client):
            explore(self.SPACE, executor=RemoteExecutor(client))
            executed_before = node.core.executor.stats.executed
            second = RemoteExecutor(client)
            explore(self.SPACE, executor=second)
            assert node.core.executor.stats.executed == executed_before
            assert second.stats.executed == 0
            assert second.stats.cache_hits > 0

    def test_bad_explore_request_is_a_400(self):
        with serving() as (_, client):
            with pytest.raises(ServeError) as excinfo:
                client.explore({"axes": {}})
            assert excinfo.value.status == 400

    def test_explore_strategy_options_and_budget_over_the_wire(self):
        with serving() as (_, client):
            result = client.explore(
                self.SPACE.to_dict(), strategy="surrogate",
                options={"seed": 1, "initial": 2, "batch": 1}, budget=3)
            assert result["strategy"] == "surrogate"
            assert len(result["evaluated"]) == 3  # budget-capped below 4
            # Bad option values come back as a 400, not a 500.
            with pytest.raises(ServeError) as excinfo:
                client.explore(self.SPACE.to_dict(), strategy="surrogate",
                               options={"initial": 1})
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                client.explore(self.SPACE.to_dict(), budget=0)
            assert excinfo.value.status == 400

    def test_explore_legacy_samples_seed_keys_still_work(self):
        with serving() as (_, client):
            result = client.explore(self.SPACE.to_dict(), strategy="random",
                                    samples=2, seed=7)
            assert result["strategy"] == "random"
            assert len(result["evaluated"]) == 2

    def test_explore_respects_the_admission_bound(self):
        # Regression: sweeps must pass the same 429 backpressure gate as
        # /jobs batches instead of queueing unboundedly on the execute lock.
        with serving(queue_limit=1, retry_after_s=2) as (node, client):
            node.core._pending_batches = 1
            try:
                with pytest.raises(ServeError) as excinfo:
                    client.explore(self.SPACE.to_dict())
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after_s == 2
            finally:
                node.core._pending_batches = 0
            # Drained queue: the identical sweep is admitted.
            assert len(client.explore(self.SPACE.to_dict())["evaluated"]) == 4


class TestClientTransport:
    """Pins the client bugfix satellites: float Retry-After round-trip and
    connection-level failures surfacing as retryable ServeError 503."""

    @staticmethod
    def _http_error(status, headers_dict, body=b'{"error": "refused"}'):
        import email.message
        import io

        headers = email.message.Message()
        for name, value in headers_dict.items():
            headers[name] = value
        return urllib.error.HTTPError("http://test", status, "refused",
                                      headers, io.BytesIO(body))

    def test_fractional_retry_after_round_trips(self):
        # Regression: Retry-After was parsed with int(), so a fractional
        # hint (proxies, sub-second backpressure) was silently dropped and
        # clients retried sooner than asked.
        error = self._http_error(429, {"Retry-After": "1.5"})
        with pytest.raises(ServeError) as excinfo:
            ServeClient._raise_serve_error(error)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s == pytest.approx(1.5)

    def test_integral_retry_after_still_parses(self):
        error = self._http_error(429, {"Retry-After": "3"})
        with pytest.raises(ServeError) as excinfo:
            ServeClient._raise_serve_error(error)
        assert excinfo.value.retry_after_s == pytest.approx(3.0)

    def test_unparseable_retry_after_is_dropped_not_fatal(self):
        error = self._http_error(429, {"Retry-After": "Wed, 21 Oct"})
        with pytest.raises(ServeError) as excinfo:
            ServeClient._raise_serve_error(error)
        assert excinfo.value.retry_after_s is None

    def test_connection_refused_raises_retryable_serve_error(self):
        # Regression: a raw urllib.error.URLError (connection refused while
        # a shard restarts) used to escape _request, bypassing every
        # ServeError-based retry loop.  It must surface as a 503.
        import socket

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=5.0)
        with pytest.raises(ServeError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert "connection" in str(excinfo.value)

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_a_bad_content_length_is_a_transport_error(self, length):
        # Regression: "-5" read the body minus its last 5 bytes and "abc"
        # raised a bare ValueError; both must be the retryable 503 a bad
        # chunk line already is.
        import socket

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer():
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + length.encode("ascii") + b"\r\n\r\n"
                    + b'{"ok": true, "name": "raw"}')

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        client = ServeClient(
            f"http://127.0.0.1:{listener.getsockname()[1]}", timeout_s=5.0)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.healthz()
        finally:
            client.close()
            thread.join(timeout=5.0)
            listener.close()
        assert excinfo.value.status == 503
        assert "Content-Length" in excinfo.value.message

    def test_remote_executor_retries_through_a_brief_outage(self):
        # The wrapped 503 engages RemoteExecutor's backoff: one refused
        # connection then a healthy server completes the batch.
        with serving() as (node, client):
            real_submit = client.submit_points
            calls = {"n": 0}

            def flaky(points):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ServeError(
                        503, "connection to http://test failed: refused")
                return real_submit(points)

            client.submit_points = flaky
            executor = RemoteExecutor(client)
            executor._sleep = lambda _: None
            jobs = [SimJob(network=NetworkSpec("alexnet"),
                           accelerator=AcceleratorSpec.create("loom"))]
            results = executor.run(jobs)
            assert len(results) == 1
            assert executor.transport_retries == 1


class TestShutdown:
    def test_post_shutdown_stops_the_server_gracefully(self):
        node = ClusterWorker()
        node.start()
        client = ServeClient(node.url, timeout_s=30.0)
        assert client.submit(POINT).status == "executed"
        assert client.shutdown() == {"ok": True, "stopping": True}
        node.wait_until_stopped(poll_s=0.05)
        node.stop()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(node.url + "/healthz", timeout=2)

    def test_stop_closes_the_store(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "serve.db")
        executor = JobExecutor(cache=ResultCache(backend=store))
        node = ClusterWorker(core=ServiceCore(executor=executor))
        node.start()
        node.stop()
        import sqlite3
        with pytest.raises(sqlite3.ProgrammingError):
            store._conn.execute("SELECT 1")

    def test_stop_waits_for_inflight_work_before_closing(self, tmp_path):
        # Regression: handler threads are daemons, so stop() must drain
        # admitted work before closing the executor/store, or a racing
        # submission loses its result to a closed SQLite connection.
        store = SQLiteResultStore(tmp_path / "serve.db")
        executor = JobExecutor(cache=ResultCache(backend=store))
        node = ClusterWorker(core=ServiceCore(executor=executor))
        node.start()
        _slow(node, delay_s=0.3)
        outcome = {}

        def submit():
            try:
                (entry,) = node.core.submit_points([POINT])
                outcome["status"] = entry.status
            except Exception as error:  # pragma: no cover
                outcome["error"] = repr(error)

        thread = threading.Thread(target=submit)
        thread.start()
        for _ in range(100):  # wait until the batch is admitted
            if node.core._pending_batches:
                break
            time.sleep(0.01)
        node.stop()
        thread.join(timeout=10)
        assert outcome == {"status": "executed"}
        # ... and the racing result made it into the (now closed) store.
        reopened = SQLiteResultStore(tmp_path / "serve.db")
        assert len(reopened) == 1
        reopened.close()

    def test_cold_submission_counts_one_miss(self):
        # Regression: the pre-admission probe must not double-count misses.
        with serving() as (node, client):
            client.submit(POINT)
            assert node.core.cache.stats.misses == 1
            client.submit(POINT)  # warm: no further misses
            assert node.core.cache.stats.misses == 1

    def test_context_manager_starts_and_stops(self):
        with ClusterWorker() as node:
            assert node.port != 0
            url = node.url
            with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
                assert resp.status == 200
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)


class TestOneLookupPerColdKey:
    """A cold key is read from the store once, and its miss counted once."""

    A = {"network": "alexnet", "accelerator": "loom"}
    B = {"network": "nin", "accelerator": "dpnn"}
    C = {"network": "alexnet", "accelerator": "dstripes"}
    D = {"network": "nin", "accelerator": "loom"}

    def test_a_fixed_sequence_keeps_its_hit_and_miss_counters(self,
                                                              tmp_path):
        # The counters are the ones the two-lookup path (a probe, then the
        # executor's own get_many) reported for the same sequence.
        store = SQLiteResultStore(tmp_path / "serve.db")
        executor = JobExecutor(cache=ResultCache(backend=store,
                                                 max_memory_entries=2))
        with serving(executor=executor) as (_, client):
            client.submit_points([self.A, self.B, self.A])  # cold, repeat
            client.submit_points([self.A])  # warm, from memory
            client.submit_points([self.B, self.C, self.D])  # evicts
            client.submit_points([self.A, self.B])  # from the store
            client.result(client.submit(self.C).key)
            stats = client.stats()
            client.close()
        assert {name: stats["cache"][name] for name in (
            "memory_hits", "disk_hits", "misses", "stores", "evictions")} \
            == {"memory_hits": 3, "disk_hits": 3, "misses": 4, "stores": 4,
                "evictions": 5}
        assert {name: stats["executor"][name] for name in (
            "submitted", "executed", "cache_hits", "dedup_hits")} \
            == {"submitted": 4, "executed": 4, "cache_hits": 0,
                "dedup_hits": 0}
        assert {name: stats["service"][name] for name in (
            "submitted_points", "store_answers", "coalesced")} \
            == {"submitted_points": 10, "store_answers": 5, "coalesced": 0}

    def test_the_loop_phase_answers_hits_and_hands_misses_on(self):
        core = ServiceCore()
        try:
            batch = [self.A, self.B, self.A]
            handed = core.submit_points(batch, on_loop=True)
            # A miss: nothing claimed or counted yet, the lookup carried on.
            assert isinstance(handed, Lookup) and len(handed) == 3
            assert core.stats.submitted_points == 0 and not core._inflight
            assert [entry.status for entry in core.finish(handed)] \
                == ["executed"] * 3
            warm = core.submit_points(batch, on_loop=True)
            assert [entry.status for entry in warm] == ["cached"] * 3
            assert core.stats.submitted_points == 6
            assert core.executor.stats.executed == 2
        finally:
            core.close()

    def test_a_cold_request_reads_the_store_once_per_key_chunk(
            self, tmp_path, monkeypatch):
        from repro.serve import store as store_module

        monkeypatch.setattr(store_module, "_KEY_CHUNK", 2)
        store = SQLiteResultStore(tmp_path / "serve.db")
        statements = []
        store._conn.set_trace_callback(statements.append)
        executor = JobExecutor(cache=ResultCache(backend=store))
        with serving(executor=executor) as (_, client):
            client.submit_points([self.A, self.B, self.C, self.D, self.A])
            reads = [sql for sql in statements
                     if sql.startswith("SELECT key, format")]
            # Four distinct keys in chunks of two: two SELECTs, all from
            # the one lookup before the executor runs.
            assert len(reads) == 2
            client.close()


class TestRemoteExecutorProtocol:
    def test_results_in_submission_order_with_duplicates(self):
        jobs = [
            SimJob(network=NetworkSpec("alexnet"),
                   accelerator=AcceleratorSpec.create("dpnn")),
            SimJob(network=NetworkSpec("alexnet"),
                   accelerator=AcceleratorSpec.create("loom")),
            SimJob(network=NetworkSpec("alexnet"),
                   accelerator=AcceleratorSpec.create("dpnn")),
        ]
        expected = [execute_job(job) for job in jobs]
        with serving() as (_, client):
            with RemoteExecutor(client, batch_size=2) as remote:
                results = remote.run(jobs)
        assert [r.accelerator for r in results] == ["DPNN", "Loom-1b", "DPNN"]
        for served, local in zip(results, expected):
            assert served.to_dict() == local.to_dict()

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            RemoteExecutor("http://localhost:1", batch_size=0)


def _scrape_until(url, needle, timeout_s=5.0):
    """Poll ``/metrics`` until ``needle`` appears (request-side series are
    recorded a moment *after* the triggering response flushes)."""
    deadline = time.monotonic() + timeout_s
    while True:
        with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
        if needle in text or time.monotonic() > deadline:
            return text
        time.sleep(0.01)


class TestObservability:
    """The serve half of the repro.obs contract: /metrics, /trace,
    X-Request-Id correlation, and version/uptime reporting."""

    def test_metrics_renders_prometheus_text(self):
        with serving() as (node, client):
            client.submit(POINT)
            with urllib.request.urlopen(node.url + "/metrics",
                                        timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == \
                    "text/plain; version=0.0.4; charset=utf-8"
            text = _scrape_until(
                node.url,
                'loom_worker_requests_total{path="/jobs",status="200"} 1')
        assert "# TYPE loom_worker_requests_total counter" in text
        assert 'loom_worker_requests_total{path="/jobs",status="200"} 1' in text
        assert "# TYPE loom_worker_request_seconds histogram" in text
        assert 'loom_worker_request_seconds_count{path="/jobs"} 1' in text
        assert "loom_worker_uptime_seconds" in text
        assert "loom_worker_queue_depth 0" in text
        assert text.endswith("\n")

    def test_metrics_includes_executor_phase_histograms(self):
        with serving() as (node, client):
            client.submit(POINT)
            text = urllib.request.urlopen(node.url + "/metrics",
                                          timeout=10).read().decode("utf-8")
        assert "# TYPE loom_executor_phase_seconds histogram" in text
        assert 'loom_executor_phase_seconds_count{phase="simulate"} 1' in text
        assert 'loom_executor_phase_seconds_count{phase="cache_lookup"}' \
            in text

    def test_metric_path_labels_stay_low_cardinality(self):
        with serving() as (node, client):
            done = client.submit(POINT)
            client.lookup(done.key)
            client.lookup("0" * 16)  # a second distinct key, 404s
            with contextlib.suppress(ServeError):
                client._request("GET", "/made-up-path")
            text = _scrape_until(node.url,
                                 'path="<other>",status="404"')
        # Both key lookups collapse into one series; unknown paths into
        # another -- a scrape's cardinality never grows with traffic.
        assert 'loom_worker_requests_total{path="/jobs/<key>",status="200"} 1' \
            in text
        assert 'loom_worker_requests_total{path="/jobs/<key>",status="404"} 1' \
            in text
        assert 'path="<other>"' in text
        assert "/made-up-path" not in text

    def test_request_id_header_on_success(self):
        with serving() as (node, client):
            with urllib.request.urlopen(node.url + "/healthz",
                                        timeout=10) as response:
                request_id = response.headers["X-Request-Id"]
        assert request_id and len(request_id) == 16
        int(request_id, 16)  # hex

    def test_error_body_echoes_the_request_id_header(self):
        with serving() as (node, _):
            request = urllib.request.Request(node.url + "/nope")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert excinfo.value.headers["X-Request-Id"] == \
                payload["request_id"]

    def test_healthz_and_stats_report_the_version(self):
        from repro import __version__

        with serving() as (_, client):
            assert client.healthz()["version"] == __version__
            stats = client.stats()
            assert stats["version"] == __version__
            assert stats["uptime_s"] >= 0

    def test_stats_reports_executor_phase_timings(self):
        with serving() as (_, client):
            client.submit(POINT)
            phases = client.stats()["executor"]["phases"]
        assert phases["simulate"]["count"] == 1
        assert phases["simulate"]["seconds"] > 0
        assert phases["cache_lookup"]["count"] == 1

    def test_served_request_spans_join_the_callers_trace(self):
        from repro.obs import get_tracer

        tracer = get_tracer()
        with serving() as (node, client):
            with tracer.span("test.client") as root:
                client.submit(POINT)
                trace_id = root.trace_id
            # The handler records its span a beat after the response body
            # is flushed; poll briefly.
            deadline = time.time() + 5.0
            names = set()
            while time.time() < deadline:
                payload = client.trace()
                names = {span["name"] for span in payload["spans"]
                         if span["trace_id"] == trace_id}
                if "worker.POST /jobs" in names:
                    break
                time.sleep(0.05)
        assert "worker.POST /jobs" in names
        assert "executor.run" in names
        assert "executor.simulate" in names

    def test_trace_payload_round_trips_to_chrome_format(self):
        from repro.obs import Span, chrome_trace

        with serving() as (_, client):
            client.submit(POINT)
            payload = client.trace()
        spans = [Span.from_dict(entry) for entry in payload["spans"]]
        document = json.loads(json.dumps(chrome_trace(spans)))
        assert any(event.get("ph") == "X"
                   for event in document["traceEvents"])
