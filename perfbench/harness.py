"""Benchmark workloads: set-up, closed-loop load and output checks.

Everything here reaches the program through its public Python API, the way
the cluster tests do: a :class:`ServiceCore` called in process, or
:class:`ClusterWorker` / :class:`ClusterCoordinator` nodes started in this
process and driven over HTTP with one :class:`ServeClient` per client
thread.  Clients are closed loop: each sends its next batch only after the
previous reply, and nothing is retried.
"""

from __future__ import annotations

import dataclasses
import operator
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.cluster import ClusterCoordinator, ClusterWorker
from repro.cluster.ring import ConsistentHashRing
from repro.explore.space import canonical_point, point_to_job
from repro.serve.client import ServeClient, ServeError
from repro.serve.core import Backpressure, ServiceCore
from repro.serve.store import SQLiteResultStore
from repro.sim.batched import simulate_jobs_batched
from repro.sim.jobs import JobExecutor, ResultCache, execute_job, job_key
from repro.sim.results import LayerResult, NetworkResult
from repro.sim.validate import compare_layer_results

from measure import sliced_medians
from points import ACCELERATORS, NETWORKS, PointStream, point_at, working_set

#: Client threads of the cluster workloads: two, or one on a one-CPU box.
MAX_CLIENTS = max(1, min(2, os.cpu_count() or 1))

#: Memory-tier entries per worker, as ``worker_process_main`` builds them.
WORKER_MEMORY_ENTRIES = 512

#: Results kept whole for the event-engine oracle, at most.
ORACLE_SAMPLE = 12

_LAYER_FIELDS = tuple(f.name for f in dataclasses.fields(LayerResult)
                      if f.name != "extra")
_layer_values = operator.attrgetter(*_LAYER_FIELDS)


def fingerprint(result: NetworkResult) -> int:
    """Hash of every compared field of ``result``.

    Two results get the same fingerprint exactly when
    :func:`compare_layer_results` (plus the network-level fields) finds no
    difference, barring a 64-bit hash collision.  Hashes are only compared
    within one process.
    """
    layers = result.layers
    return hash((result.network, result.accelerator, result.clock_ghz,
                 tuple(map(_layer_values, layers)),
                 tuple((position, tuple(sorted(layer.extra.items())))
                       for position, layer in enumerate(layers)
                       if layer.extra)))


def canonical_job(index: int):
    return point_to_job(canonical_point(point_at(index)))


def warm_process_memos() -> None:
    """Build every network, layer table and design kind the points use."""
    simulate_jobs_batched([
        point_to_job(canonical_point({"network": network,
                                      "accelerator": accelerator}))
        for network in NETWORKS for accelerator in ACCELERATORS])


@dataclasses.dataclass
class Tally:
    """What one client saw in one timed window."""

    latencies: List[float] = dataclasses.field(default_factory=list)
    #: (end, points, latency) per successful request, end in seconds since
    #: the window opened.
    completions: List[tuple] = dataclasses.field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    #: (point index, returned key, result fingerprint) per resolved point.
    records: List[tuple] = dataclasses.field(default_factory=list)
    #: Whole results kept for the event-engine oracle, by point index.
    kept: Dict[int, NetworkResult] = dataclasses.field(default_factory=dict)
    errors: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Window:
    """One timed window over all clients."""

    seconds: float
    elapsed_s: float
    tallies: List[Tally]

    @property
    def points(self) -> int:
        return sum(t.points for t in self.tallies)

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies)

    @property
    def latencies(self) -> List[float]:
        return [value for t in self.tallies for value in t.latencies]

    def sliced(self, slices: int) -> Dict[str, float]:
        """Median over time slices of throughput and median latency."""
        return sliced_medians((c for t in self.tallies for c in t.completions),
                              self.seconds, slices)


def _drive(send: Callable, next_batch: Callable[[], List[int]],
           statuses: Set[str], failures: tuple, keep: Callable[[int], bool],
           began: float, seconds: float) -> Tally:
    """One closed-loop client for ``seconds`` from ``began`` (its last reply
    may land after that)."""
    tally = Tally()
    deadline = began + seconds
    while time.perf_counter() < deadline:
        indices = next_batch()
        points = [point_at(index) for index in indices]
        tally.attempted += 1
        started = time.perf_counter()
        try:
            entries = send(points)
        except failures as error:
            tally.failed += 1
            tally.errors.append(f"{type(error).__name__}: {error}"[:300])
            continue
        finished = time.perf_counter()
        elapsed = finished - started
        problem = None
        if len(entries) != len(points):
            problem = f"{len(entries)} results for {len(points)} points"
        else:
            wrong = [entry.status for entry in entries
                     if entry.status not in statuses]
            if wrong:
                problem = (f"status {wrong[0]!r} where {sorted(statuses)} "
                           f"was expected")
        if problem is not None:
            tally.failed += 1
            tally.errors.append(f"check: {problem}")
            continue
        tally.latencies.append(elapsed)
        tally.completions.append((finished - began, len(entries), elapsed))
        tally.points += len(entries)
        for index, entry in zip(indices, entries):
            tally.records.append((index, entry.key,
                                  fingerprint(entry.result)))
            if (keep(index) and index not in tally.kept
                    and len(tally.kept) < ORACLE_SAMPLE):
                tally.kept[index] = entry.result
    return tally


class Workload:
    """Base: set-up, client loops, counters, checks and tear-down."""

    name = ""
    batch = 0
    statuses: Set[str] = {"executed"}
    failures: tuple = ()

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        oracle_rng = random.Random(f"perfbench-oracle-{seed}")
        self._keep_salt = oracle_rng.randrange(1 << 30)

    # -- to override ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def senders(self) -> List[Callable]:
        raise NotImplementedError

    def batches(self) -> List[Callable[[], List[int]]]:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started, even after a failed setup."""
        raise NotImplementedError

    def wire_bytes_per_point(self) -> float:
        """Response bytes per point of one raw batch (0: no wire)."""
        return 0.0

    # -- shared ---------------------------------------------------------------

    def _keep(self, index: int) -> bool:
        """Whether to keep this point's result whole for the oracle: a
        seeded one point in 61, so every workload keeps a few."""
        return (index ^ self._keep_salt) % 61 == 0

    def run_window(self, seconds: float) -> Window:
        senders, batches = self.senders(), self.batches()
        tallies: List[Optional[Tally]] = [None] * len(senders)
        errors: List[BaseException] = []
        start = threading.Barrier(len(senders) + 1)
        began = [0.0]

        def client(slot: int) -> None:
            start.wait()
            try:
                tallies[slot] = _drive(senders[slot], batches[slot],
                                       self.statuses, self.failures,
                                       self._keep, began[0], seconds)
            except BaseException as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=client, args=(slot,),
                                    name=f"perfbench-client-{slot}")
                   for slot in range(len(senders))]
        for thread in threads:
            thread.start()
        began[0] = time.perf_counter()
        start.wait()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        elapsed = time.perf_counter() - began[0]
        if errors:
            raise errors[0]
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client did not finish its last request")
        return Window(seconds=seconds, elapsed_s=elapsed,
                      tallies=list(tallies))

    def check(self, windows: Sequence[Window], before: Dict[str, int],
              after: Dict[str, int]) -> List[str]:
        """Every output check; returns the problems found (empty: pass)."""
        problems: List[str] = []
        seen: Dict[int, tuple] = {}
        failed = 0
        for window in windows:
            failed += window.failed
            for tally in window.tallies:
                problems.extend(e for e in tally.errors
                                if e.startswith("check:"))
                for index, key, print_ in tally.records:
                    earlier = seen.setdefault(index, (key, print_))
                    if earlier != (key, print_):
                        problems.append(f"point {index} came back with two "
                                        f"different results")
        problems.extend(self._check_reference(seen))
        problems.extend(self._check_oracle(windows))
        problems.extend(self._check_counters(len(seen), failed, before,
                                             after))
        return problems

    def _check_reference(self, seen: Dict[int, tuple]) -> List[str]:
        """Bit-identity with in-process ``simulate_jobs_batched``."""
        problems: List[str] = []
        indices = sorted(seen)
        for start in range(0, len(indices), 1024):
            chunk = indices[start:start + 1024]
            jobs = [canonical_job(index) for index in chunk]
            for index, job, reference in zip(chunk, jobs,
                                             simulate_jobs_batched(jobs)):
                key, print_ = seen[index]
                if key != job_key(job):
                    problems.append(f"point {index}: key {key} is not the "
                                    f"job's content key")
                if print_ != fingerprint(reference):
                    problems.append(f"point {index}: result differs from "
                                    f"simulate_jobs_batched")
        return problems

    def _check_oracle(self, windows: Sequence[Window]) -> List[str]:
        """A seeded sample against the event-engine reference."""
        kept: Dict[int, NetworkResult] = {}
        for window in windows:
            for tally in window.tallies:
                kept.update(tally.kept)
        if not kept:
            return ["no result was kept for the event-engine oracle"]
        problems: List[str] = []
        for index in sorted(kept)[:ORACLE_SAMPLE]:
            served = kept[index]
            event = execute_job(canonical_job(index), engine="event")
            mismatches = compare_layer_results(served.layers, event.layers)
            if mismatches or (served.network, served.accelerator,
                              served.clock_ghz) != (
                    event.network, event.accelerator, event.clock_ghz):
                problems.append(f"point {index}: differs from the event "
                                f"engine ({len(mismatches)} fields)")
        return problems

    def _check_counters(self, distinct: int, failed: int,
                        before: Dict[str, int],
                        after: Dict[str, int]) -> List[str]:
        executed = after["executed"] - before["executed"]
        if self.statuses == {"cached"}:
            if executed != 0:
                return [f"warm traffic ran {executed} simulations"]
            return []
        if failed == 0 and executed != distinct:
            return [f"{executed} simulations for {distinct} new keys"]
        if executed < distinct:
            return [f"only {executed} simulations for {distinct} new keys"]
        return []


class SweepInproc(Workload):
    """One client, 64-point never-seen batches into an in-memory core."""

    name = "sweep_inproc"
    batch = 64
    failures = (Backpressure, TimeoutError)

    core: Optional[ServiceCore] = None

    def setup(self) -> None:
        warm_process_memos()
        self.core = ServiceCore()
        self.stream = PointStream(self.seed)

    def senders(self) -> List[Callable]:
        return [self.core.submit_points]

    def batches(self) -> List[Callable[[], List[int]]]:
        return [lambda: self.stream.take(self.batch)]

    def counters(self) -> Dict[str, int]:
        stats = self.core.stats_dict()
        return {"executed": stats["executor"]["executed"],
                "submitted_points": stats["service"]["submitted_points"],
                "coalesced": stats["service"]["coalesced"],
                "rejected": stats["service"]["rejected"],
                "peer_hits": 0, "peer_misses": 0, "peer_timeouts": 0,
                "peer_writes": 0}

    def teardown(self) -> None:
        if self.core is not None:
            self.core.close()


class _Cluster(Workload):
    """A coordinator over two SQLite-backed workers, all in this process."""

    clients = MAX_CLIENTS
    batch = 16
    workers = 2
    failures = (ServeError, OSError, ValueError, KeyError)
    store_dir: Optional[str] = None
    coordinator: Optional[ClusterCoordinator] = None
    nodes: Sequence[ClusterWorker] = ()

    def setup(self) -> None:
        self.nodes = []
        self.store_dir = tempfile.mkdtemp(prefix=f"{self.name}-",
                                          dir=self.scratch)
        warm_process_memos()
        for slot in range(self.workers):
            store = SQLiteResultStore(
                os.path.join(self.store_dir, f"worker-{slot}.db"))
            executor = JobExecutor(cache=ResultCache(
                backend=store, max_memory_entries=WORKER_MEMORY_ENTRIES))
            worker = ClusterWorker(core=ServiceCore(executor=executor))
            worker.start()
            self.nodes.append(worker)
        self.preload()
        self.coordinator = ClusterCoordinator(
            [worker.url for worker in self.nodes])
        self.coordinator.start()
        self.verify_ownership()
        for url in [self.coordinator.url] + [w.url for w in self.nodes]:
            ServeClient(url).healthz()

    def preload(self) -> None:
        """Nothing by default: stores start empty."""

    def verify_ownership(self) -> None:
        """Nothing by default: no preloaded keys to place."""

    def senders(self) -> List[Callable]:
        return [ServeClient(self.coordinator.url, timeout_s=60.0).submit_points
                for _ in range(self.clients)]

    def counters(self) -> Dict[str, int]:
        totals = {"executed": 0, "submitted_points": 0, "coalesced": 0,
                  "rejected": 0, "peer_hits": 0, "peer_misses": 0,
                  "peer_timeouts": 0, "peer_writes": 0}
        for worker in self.nodes:
            stats = ServeClient(worker.url).stats()
            totals["executed"] += stats["executor"]["executed"]
            for name in ("submitted_points", "coalesced", "rejected"):
                totals[name] += stats["service"][name]
            store = stats.get("store", {})
            for name in ("peer_hits", "peer_misses", "peer_timeouts",
                         "peer_writes"):
                totals[name] += store.get(name, 0)
        coordinator = ServeClient(self.coordinator.url).stats()
        totals["routed_points"] = coordinator["service"]["routed_points"]
        return totals

    def _check_counters(self, distinct, failed, before, after):
        problems = super()._check_counters(distinct, failed, before, after)
        routed = after["routed_points"] - before["routed_points"]
        submitted = after["submitted_points"] - before["submitted_points"]
        if failed == 0 and routed != submitted:
            problems.append(f"coordinator routed {routed} points, workers "
                            f"saw {submitted}")
        return problems

    def wire_bytes_per_point(self) -> float:
        """One raw ``POST /jobs`` batch, body bytes per point."""
        import http.client
        import json
        from urllib.parse import urlsplit

        indices = self.batches()[0]()
        body = json.dumps({"points": [point_at(i) for i in indices]})
        address = urlsplit(self.coordinator.url)
        connection = http.client.HTTPConnection(address.hostname,
                                                address.port, timeout=60.0)
        try:
            connection.request("POST", "/jobs", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                raise RuntimeError(f"raw batch answered {response.status}")
        finally:
            connection.close()
        return len(payload) / len(indices)

    def teardown(self) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()
        for worker in self.nodes:
            worker.stop()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


class ClusterCold(_Cluster):
    """Never-seen 16-point batches; empty stores; peer cache on."""

    name = "cluster_cold"
    statuses = {"executed"}

    def setup(self) -> None:
        super().setup()
        self.stream = PointStream(self.seed)

    def batches(self) -> List[Callable[[], List[int]]]:
        return [lambda: self.stream.take(self.batch)] * self.clients


class ClusterWarm(_Cluster):
    """16-point batches from a preloaded working set 3x the memory tiers."""

    name = "cluster_warm"
    statuses = {"cached"}
    working_set_size = 3 * 2 * WORKER_MEMORY_ENTRIES

    def preload(self) -> None:
        """Store every working-set point on its ring owner, through the
        owner's own core, before the coordinator exists."""
        self.working = working_set(self.seed, self.working_set_size)
        ring = ConsistentHashRing([w.url.rstrip("/") for w in self.nodes],
                                  replicas=64)
        by_owner: Dict[str, List[int]] = {}
        self.owner: Dict[int, str] = {}
        for index in self.working:
            owner = ring.node_for(job_key(canonical_job(index)))
            self.owner[index] = owner
            by_owner.setdefault(owner, []).append(index)
        for worker in self.nodes:
            mine = by_owner.get(worker.url.rstrip("/"), [])
            for start in range(0, len(mine), 64):
                worker.core.submit_points(
                    [point_at(i) for i in mine[start:start + 64]])

    def verify_ownership(self) -> None:
        ring = self.coordinator.ring
        for index, owner in self.owner.items():
            if ring.node_for(job_key(canonical_job(index))) != owner:
                raise RuntimeError("preload placed a key off its ring owner")

    def batches(self) -> List[Callable[[], List[int]]]:
        def draw(rng: random.Random) -> Callable[[], List[int]]:
            return lambda: rng.sample(self.working, self.batch)

        return [draw(random.Random(f"perfbench-warm-{self.seed}-{slot}"))
                for slot in range(self.clients)]


WORKLOADS = {cls.name: cls for cls in (SweepInproc, ClusterCold, ClusterWarm)}
