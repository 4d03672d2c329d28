"""Unit tests for the cluster's building blocks (no sockets, no servers).

Covers the consistent-hash ring (stable routing, minimal disruption on
exclusion), the token-bucket rate limiter (deterministic via an injected
clock), the Prometheus text renderer, the capped-exponential-backoff
helper the retry paths share, and the satellites that ride along with the
cluster PR: backoff-with-jitter in :class:`RemoteExecutor`, the store's
``busy_timeout`` / ``inspect()`` lock retries.
"""

import re
import sqlite3

import pytest

from repro.cluster import ConsistentHashRing, RateLimiter, TokenBucket
from repro.obs import MetricsRegistry
from repro.serve import RemoteExecutor, SQLiteResultStore, ServeError
from repro.serve.client import compute_backoff


class TestConsistentHashRing:
    def test_routing_is_deterministic_and_total(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(200)]
        owners = [ring.node_for(k) for k in keys]
        assert all(owner in ("a", "b", "c") for owner in owners)
        assert owners == [ring.node_for(k) for k in keys]  # stable

    def test_every_node_owns_some_keyspace(self):
        ring = ConsistentHashRing(["a", "b", "c"], replicas=64)
        keys = [f"key-{i}" for i in range(600)]
        assignment = ring.assign(keys)
        assert set(assignment) == {"a", "b", "c"}
        assert sum(len(v) for v in assignment.values()) == len(keys)
        # Virtual nodes keep the split from degenerating.
        assert all(len(v) > len(keys) // 10 for v in assignment.values())

    def test_exclusion_moves_only_the_dead_nodes_keys(self):
        # The failover property: routing around a dead shard must not
        # reshuffle keys owned by the survivors.
        ring = ConsistentHashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.node_for(k) for k in keys}
        after = {k: ring.node_for(k, exclude={"b"}) for k in keys}
        for key in keys:
            if before[key] != "b":
                assert after[key] == before[key]
            else:
                assert after[key] in ("a", "c")

    def test_no_eligible_node_returns_none(self):
        ring = ConsistentHashRing(["a", "b"])
        assert ring.node_for("k", exclude={"a", "b"}) is None
        assert ConsistentHashRing([]).node_for("k") is None

    def test_add_remove_membership(self):
        ring = ConsistentHashRing(["a"])
        ring.add("b")
        ring.add("b")  # idempotent
        assert len(ring) == 2 and "b" in ring
        ring.remove("a")
        assert ring.node_for("anything") == "b"
        ring.remove("a")  # idempotent


class TestRateLimiter:
    def test_burst_then_refusal_with_retry_hint(self):
        clock = [0.0]
        limiter = RateLimiter(rate=2.0, burst=3, clock=lambda: clock[0])
        assert all(limiter.check("c").allowed for _ in range(3))
        refused = limiter.check("c")
        assert not refused.allowed
        assert refused.reason == "rate"
        assert refused.retry_after_s == pytest.approx(0.5)
        # After the hinted wait the bucket holds a token again.
        clock[0] += refused.retry_after_s
        assert limiter.check("c").allowed

    def test_clients_are_independent(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: clock[0])
        assert limiter.check("one").allowed
        assert not limiter.check("one").allowed
        assert limiter.check("two").allowed
        assert limiter.refused == 1

    def test_quota_refusal_says_waiting_is_futile(self):
        limiter = RateLimiter(rate=1000.0, burst=1000, quota=2)
        assert limiter.check("c").allowed
        assert limiter.check("c").allowed
        refused = limiter.check("c")
        assert not refused.allowed
        assert refused.reason == "quota"
        assert refused.retry_after_s is None

    def test_stats_dict(self):
        limiter = RateLimiter(rate=1000.0, burst=10, quota=5)
        limiter.check("a")
        limiter.check("b")
        stats = limiter.stats_dict()
        assert stats["clients"] == 2
        assert stats["admitted"] == 2
        assert stats["refused"] == 0

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)
        with pytest.raises(ValueError):
            RateLimiter(quota=0)

    def test_rate_and_burst_are_validated_eagerly(self):
        # Regression: a bad rate/burst used to pass __init__ and only
        # explode at the first client's request, when the lazy per-client
        # TokenBucket was built deep inside the request path.
        with pytest.raises(ValueError, match="rate"):
            RateLimiter(rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            RateLimiter(rate=-5.0)
        with pytest.raises(ValueError, match="burst"):
            RateLimiter(rate=1.0, burst=0)


class TestMetrics:
    def test_counter_renders_labelled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total", "Requests.",
                                   labelnames=("path", "status"))
        counter.inc(path="/jobs", status="200")
        counter.inc(2, path="/jobs", status="200")
        counter.inc(path="/stats", status="200")
        text = registry.render()
        assert '# TYPE reqs_total counter' in text
        assert 'reqs_total{path="/jobs",status="200"} 3' in text
        assert 'reqs_total{path="/stats",status="200"} 1' in text
        assert counter.value(path="/jobs", status="200") == 3

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("c_total", "C.")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_callback_gauge_pulls_at_render(self):
        registry = MetricsRegistry()
        value = [7]
        registry.gauge("depth", "Queue depth.", collect=lambda: value[0])
        assert "depth 7" in registry.render()
        value[0] = 3
        assert "depth 3" in registry.render()

    def test_raising_callback_does_not_kill_the_scrape(self):
        registry = MetricsRegistry()
        registry.gauge("broken", "Boom.",
                       collect=lambda: (_ for _ in ()).throw(RuntimeError))
        registry.counter("fine_total", "Fine.").inc()
        text = registry.render()
        assert "broken NaN" in text
        assert "fine_total 1" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "Latency.",
                                       buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text

    def test_duplicate_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "One.")
        with pytest.raises(ValueError):
            registry.gauge("dup_total", "Two.")

    def test_render_is_sorted_and_newline_terminated(self):
        registry = MetricsRegistry()
        registry.counter("zz_total", "Last.")
        registry.counter("aa_total", "First.")
        text = registry.render()
        assert text.endswith("\n")
        assert text.index("aa_total") < text.index("zz_total")


class _FixedRandom:
    """random.Random stand-in returning a fixed uniform sample."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


class TestComputeBackoff:
    def test_exponential_growth_capped(self):
        rng = _FixedRandom(1.0)  # jitter factor 1.0: the raw schedule
        delays = [compute_backoff(a, base_s=0.05, cap_s=5.0, rng=rng)
                  for a in range(10)]
        assert delays[:4] == pytest.approx([0.05, 0.1, 0.2, 0.4])
        assert delays[-1] == pytest.approx(5.0)  # capped
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_jitter_spans_half_to_full(self):
        low = compute_backoff(3, rng=_FixedRandom(0.0))
        high = compute_backoff(3, rng=_FixedRandom(1.0))
        assert low == pytest.approx(high / 2)
        for _ in range(50):
            delay = compute_backoff(3)
            assert low <= delay <= high

    def test_retry_after_is_a_floor_not_a_ceiling(self):
        # Early attempts obey the server's hint...
        assert compute_backoff(0, retry_after_s=2.0,
                               rng=_FixedRandom(1.0)) == pytest.approx(2.0)
        # ...but a longer computed backoff is not shortened by it.
        assert compute_backoff(9, retry_after_s=2.0, cap_s=5.0,
                               rng=_FixedRandom(1.0)) == pytest.approx(5.0)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            compute_backoff(-1)


class _Refusing:
    """ServeClient stand-in: refuses with ``status`` N times, then answers."""

    def __init__(self, refusals: int, retry_after_s=None) -> None:
        self.refusals = refusals
        self.retry_after_s = retry_after_s
        self.status = 429
        self.calls = 0

    def submit_points(self, chunk):
        self.calls += 1
        if self.calls <= self.refusals:
            raise ServeError(self.status, "refused",
                             retry_after_s=self.retry_after_s)
        return []


class TestRemoteExecutorBackoff:
    """Pins the satellite: capped exponential backoff + jitter, honouring
    Retry-After, instead of the old fixed ``sleep(retry_after or 1)``."""

    def test_backoff_schedule_is_exponential(self):
        client = _Refusing(4, retry_after_s=None)
        executor = RemoteExecutor(client)
        executor._rng = _FixedRandom(1.0)
        sleeps = []
        executor._sleep = sleeps.append
        assert executor._submit_with_retry([{"network": "alexnet"}]) == []
        assert executor.backpressure_retries == 4
        assert sleeps == pytest.approx([0.05, 0.1, 0.2, 0.4])

    def test_retry_after_floors_every_delay(self):
        client = _Refusing(3, retry_after_s=1)
        executor = RemoteExecutor(client)
        executor._rng = _FixedRandom(0.0)
        sleeps = []
        executor._sleep = sleeps.append
        executor._submit_with_retry([{"network": "alexnet"}])
        assert all(delay >= 1.0 for delay in sleeps)

    def test_gives_up_after_max_retries(self):
        client = _Refusing(100)
        executor = RemoteExecutor(client, max_retries=2)
        executor._sleep = lambda _ : None
        with pytest.raises(ServeError):
            executor._submit_with_retry([{"network": "alexnet"}])
        assert client.calls == 3

    def test_transport_503_is_retried_with_backoff(self):
        # Regression: a connection-level failure (now surfaced as
        # ServeError 503 by the client) used to escape the retry loop raw,
        # so a shard restart failed the whole sweep instead of backing off.
        client = _Refusing(2)
        client.status = 503
        executor = RemoteExecutor(client)
        sleeps = []
        executor._sleep = sleeps.append
        assert executor._submit_with_retry([{"network": "alexnet"}]) == []
        assert executor.transport_retries == 2
        assert executor.backpressure_retries == 0
        assert len(sleeps) == 2

    def test_non_retryable_statuses_still_raise_immediately(self):
        client = _Refusing(100)
        client.status = 400
        executor = RemoteExecutor(client)
        executor._sleep = lambda _: None
        with pytest.raises(ServeError):
            executor._submit_with_retry([{"network": "alexnet"}])
        assert client.calls == 1


class TestStoreContention:
    def test_busy_timeout_pragma_is_set(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "store.db", timeout_s=7.0)
        try:
            (timeout_ms,) = store._conn.execute(
                "PRAGMA busy_timeout").fetchone()
            assert timeout_ms == 7000
        finally:
            store.close()

    def test_inspect_retries_through_lock_contention(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "store.db"
        SQLiteResultStore(path).close()
        real_connect = sqlite3.connect
        failures = [2]  # first two opens hit the writer lock

        def flaky_connect(*args, **kwargs):
            if failures[0] > 0:
                failures[0] -= 1
                raise sqlite3.OperationalError("database is locked")
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", flaky_connect)
        payload = SQLiteResultStore.inspect(path, lock_retry_delay_s=0.0)
        assert payload["lock_retries"] == 2
        assert payload["compatible"] is True

    def test_inspect_surfaces_zero_retries_when_uncontended(self, tmp_path):
        path = tmp_path / "store.db"
        SQLiteResultStore(path).close()
        assert SQLiteResultStore.inspect(path)["lock_retries"] == 0

    def test_inspect_still_raises_on_persistent_lock(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "store.db"
        SQLiteResultStore(path).close()

        def always_locked(*args, **kwargs):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(sqlite3, "connect", always_locked)
        with pytest.raises(ValueError):
            SQLiteResultStore.inspect(path, lock_retries=2,
                                      lock_retry_delay_s=0.0)


def test_metric_names_follow_prometheus_conventions():
    # Guard rail for the CONTRIBUTING recipe: all series names we emit are
    # valid Prometheus identifiers.
    from repro.cluster import ClusterWorker

    worker = ClusterWorker()
    pattern = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    for name in worker.metrics._instruments:
        assert pattern.match(name), name
    worker.core.close()
