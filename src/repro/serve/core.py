"""The HTTP-independent core of a serve node, plus the shared wire parsing.

:class:`ServiceCore` is the submission engine behind every node: request
coalescing, the bounded-admission backpressure, the warm-store fast path,
the miss path (one batched peer-tier probe for the keys a request claims
on a cluster shard in a recovery window, then execution), sweep execution and the stats
surface, with no opinion about the wire protocol in front of it.
:class:`~repro.cluster.worker.ClusterWorker` is the one HTTP node that
fronts it -- ``loom-repro serve`` runs a single worker, ``loom-repro
cluster`` runs several behind a coordinator -- so a shard answers exactly
like a lone serve node because it *is* the same code.

The request bodies both node kinds accept are parsed here, once:
:func:`parse_jobs_request` reads a ``POST /jobs`` envelope and
:func:`parse_explore_request` validates a ``POST /explore`` body;
:func:`_networks_payload` is the ``GET /networks`` answer.  Every parse
error is a ``ValueError``/``KeyError``/``TypeError``, which the nodes map to
HTTP 400.
"""

from __future__ import annotations

import contextlib
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.explore.engine import explore
from repro.explore.search import strategy_from_request
from repro.explore.space import SweepSpec, canonical_point, point_to_job
from repro.memo import POINT_MEMO_SIZE, memo
from repro.sim.jobs import (
    CachedResult, JobExecutor, ResultCache, SimJob, job_key,
)
from repro.sim.results import NetworkResult

__all__ = ["Backpressure", "Lookup", "ServiceCore", "ServiceStats",
           "keyed_jobs", "parse_explore_request", "parse_jobs_request"]

#: Keys a ``POST /explore`` body may carry (``stream`` is read by fronts
#: that can stream; the rest become :func:`~repro.explore.engine.explore`
#: arguments).
_EXPLORE_KEYS = frozenset(("space", "strategy", "options", "budget",
                           "samples", "seed", "objectives", "baseline",
                           "stream"))


def parse_jobs_request(payload: Mapping[str, object]
                       ) -> Tuple[List[Mapping[str, object]], bool]:
    """The points of a ``POST /jobs`` body and whether it named one point.

    A body is a bare point object, ``{"point": {...}}`` or
    ``{"points": [...]}``; a single point is answered with one entry, a
    batch with ``{"results": [...]}``.
    """
    if "points" in payload:
        points = payload["points"]
        if not isinstance(points, list) or not points:
            raise ValueError("'points' must be a non-empty JSON array")
        return points, False
    point = payload.get("point", payload)
    if not isinstance(point, dict) or not point:
        raise ValueError(
            "POST /jobs expects a point object, {'point': {...}} or "
            "{'points': [...]}"
        )
    return [point], True


class _Unfrozen(Exception):
    """A raw value :func:`_frozen` cannot spell exactly."""


_FLOAT_BITS = struct.Struct("<d").pack
_FLOAT_VALUE = struct.Struct("<d").unpack

#: Tags of :func:`_frozen` spellings that are not the value itself.
_TRUE, _FALSE, _DICT, _LIST, _TUPLE = (object() for _ in range(5))


def _frozen(value):
    """A hashable spelling of a raw JSON-like value, equal for two values
    only if they are spelled exactly alike.

    ``str``, ``int`` and ``None`` spell as themselves, a float as its
    eight bytes (``-0.0`` is not ``0.0``) and a bool as a tag of its own,
    so ``True``, ``1``, ``1.0`` and ``"1"`` all differ.  A dict, list or
    tuple spells as a tuple led by a tag of its kind, with a dict's items
    in insertion order.  Anything else -- subclasses included -- raises
    :class:`_Unfrozen`.
    """
    kind = type(value)
    if kind is str or kind is int or value is None:
        return value
    if kind is float:
        return _FLOAT_BITS(value)
    if kind is bool:
        return _TRUE if value else _FALSE
    if kind is dict:
        spelling = [_DICT]
        append = spelling.append
        for name, item in value.items():
            append(name if type(name) is str else _frozen(name))
            # A str, int or None item spells as itself: no call for it.
            item_kind = type(item)
            append(item if item_kind is str or item_kind is int
                   or item is None else _frozen(item))
        return tuple(spelling)
    if kind is list or kind is tuple:
        return (_LIST if kind is list else _TUPLE,
                *[_frozen(item) for item in value])
    raise _Unfrozen


def _thawed(spelling):
    """The raw value :func:`_frozen` spelled as ``spelling`` (its inverse:
    same types, same float bits)."""
    kind = type(spelling)
    if kind is tuple:
        tag, items = spelling[0], spelling[1:]
        if tag is _DICT:
            return {_thawed(items[index]): _thawed(items[index + 1])
                    for index in range(0, len(items), 2)}
        values = [_thawed(item) for item in items]
        return values if tag is _LIST else tuple(values)
    if kind is bytes:
        return _FLOAT_VALUE(spelling)[0]
    if spelling is _TRUE or spelling is _FALSE:
        return spelling is _TRUE
    return spelling


def _keyed(raw: Mapping[str, object]) -> Tuple[SimJob, str]:
    """``(job, key)`` of a raw point, through the module's own names."""
    job = point_to_job(canonical_point(raw))
    return job, job_key(job)


@memo(POINT_MEMO_SIZE)
def _keyed_spelling(spelling: tuple) -> Tuple[SimJob, str]:
    """``(job, key)`` of the raw point spelled ``spelling``, memoised per
    process: each node warms its own on repeated points.  An exception is
    never memoised, so an invalid point raises the same error every time."""
    return _keyed(_thawed(spelling))


def keyed_jobs(raw_points: Sequence[object]) -> List[Tuple[SimJob, str]]:
    """``(job, content key)`` for each raw point mapping, in order.

    Raises ``ValueError`` for a point that is not a mapping or does not
    canonicalise into a job.  A point spelled exactly like one seen before
    (same keys, value types, nesting and float bits; see :func:`_frozen`)
    is answered from a bounded per-process memo; any other runs
    ``canonical_point``, ``point_to_job`` and ``job_key``.
    """
    entries = []
    for raw in raw_points:
        if type(raw) is dict:
            try:
                spelling = _frozen(raw)
            except (_Unfrozen, RecursionError):  # skips the memo
                pass
            else:
                entries.append(_keyed_spelling(spelling))
                continue
        elif not isinstance(raw, Mapping):
            raise ValueError(
                f"a job point must be a JSON object, got {type(raw).__name__}"
            )
        entries.append(_keyed(raw))
    return entries


def parse_explore_request(request: Mapping[str, object]) -> Dict[str, object]:
    """Validate a ``POST /explore`` body into :func:`explore` arguments.

    ``request`` is ``{"space": <SweepSpec dict>, "strategy": name,
    "options": {key: value}, "budget": N, "objectives": [...],
    "baseline": kind}`` with everything but ``space`` optional;
    ``options`` is the uniform strategy-option mapping (``--strategy-opt``
    on the CLI) and ``budget`` caps true simulations.  Legacy top-level
    ``samples`` / ``seed`` keys keep working.  The result lacks only the
    ``executor``.
    """
    if "space" not in request:
        raise ValueError("explore request needs a 'space' sweep spec")
    unknown = set(request) - _EXPLORE_KEYS
    if unknown:
        raise ValueError(f"unknown explore request keys: {sorted(unknown)}")
    strategy, budget = strategy_from_request(request)
    return {
        "space": SweepSpec.from_dict(request["space"]),
        "strategy": strategy,
        "budget": budget,
        "objectives": request.get(
            "objectives", ("speedup", "energy_efficiency", "area")),
        "baseline": request.get("baseline", "dpnn"),
    }


def _networks_payload() -> List[Dict[str, object]]:
    """The zoo with per-kind layer counts (the ``GET /networks`` body)."""
    from repro.nn import available_networks
    from repro.sim.jobs import network_kind_counts

    payload = []
    for name in available_networks():
        kinds = network_kind_counts(name)
        payload.append({"name": name, **kinds,
                        "total": sum(kinds.values())})
    return payload


class Backpressure(Exception):
    """Raised when the in-flight job bound is reached (maps to HTTP 429)."""

    def __init__(self, pending: int, limit: int, retry_after_s: int) -> None:
        super().__init__(
            f"job queue is full ({pending} in flight, limit {limit}); "
            f"retry in {retry_after_s}s"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after_s = retry_after_s


@dataclass
class ServiceStats:
    """Request-level counters (everything execution-level lives in the
    executor/cache stats the service also reports)."""

    requests: int = 0
    submitted_points: int = 0
    store_answers: int = 0
    coalesced: int = 0
    rejected: int = 0
    errors: int = 0
    explores: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "submitted_points": self.submitted_points,
            "store_answers": self.store_answers,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "errors": self.errors,
            "explores": self.explores,
        }


class _Inflight:
    """One in-flight execution other submissions of the same key can join."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[CachedResult] = None
        self.error: Optional[BaseException] = None


@dataclass
class _Submitted:
    """Resolution of one submitted point: its result as the cache holds it
    (packed bytes, decoded only when :attr:`result` is read)."""

    key: str
    status: str  # "cached", "executed" or "coalesced"
    cached: CachedResult

    @property
    def result(self) -> NetworkResult:
        return self.cached.result


class Lookup:
    """A batch's ``(job, key)`` entries and what the memory and store tiers
    held for them: what an event loop hands a thread when a key missed."""

    __slots__ = ("entries", "found", "keys")

    def __init__(self, entries: List[Tuple[SimJob, str]],
                 found: Dict[str, CachedResult]) -> None:
        self.entries = entries
        self.found = found
        #: The batch's distinct keys.
        self.keys = {key for _, key in entries}

    def __len__(self) -> int:
        """The batch's points, as many as its answer will hold."""
        return len(self.entries)


class ServiceCore:
    """Coalescing, backpressure, execution and stats for one serve node.

    Parameters
    ----------
    executor:
        The shared :class:`JobExecutor` (and, through it, the result cache /
        persistent store) every request executes against.  The core owns it:
        ``close()`` closes it.
    queue_limit:
        Bound on concurrently admitted execution batches before submissions
        are refused with :class:`Backpressure` (one batch = one unit,
        however many jobs it carries; coalesced duplicates and store answers
        never count).
    retry_after_s:
        The ``Retry-After`` hint carried by :class:`Backpressure`.
    wait_timeout_s:
        How long a coalesced waiter polls an owner's execution before
        giving up (a safety net; owners always publish, even on error).

    Cache-miss sets execute on the process-wide engine (``loom-repro
    --engine``); both engines are bit-identical, so served results are
    unaffected by the choice.
    """

    def __init__(
        self,
        executor: Optional[JobExecutor] = None,
        queue_limit: int = 8,
        retry_after_s: int = 1,
        wait_timeout_s: float = 600.0,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.executor = executor if executor is not None else JobExecutor(
            cache=ResultCache(max_memory_entries=512))
        self.queue_limit = queue_limit
        self.retry_after_s = retry_after_s
        self.wait_timeout_s = wait_timeout_s
        self.stats = ServiceStats()
        #: The cluster peer tier a worker installs on ``POST /ring``
        #: (:class:`repro.cluster.peercache.PeerCacheBackend`): asked once
        #: per request for its claimed misses (it answers only inside a
        #: recovery window).  ``None`` otherwise.
        self.peers = None
        self._inflight: Dict[str, _Inflight] = {}
        self._pending_batches = 0
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._execute_lock = threading.Lock()

    # -- core submission path -------------------------------------------------

    @property
    def cache(self) -> Optional[ResultCache]:
        return self.executor.cache

    def _bump(self, counter: str, amount: int = 1) -> None:
        """Race-free ServiceStats increment (handlers run concurrently)."""
        with self._stats_lock:
            setattr(self.stats, counter,
                    getattr(self.stats, counter) + amount)

    def count_request(self, status: int) -> None:
        """Count one answered request; a status of 400 or more is an error."""
        with self._stats_lock:
            self.stats.requests += 1
            if status >= 400:
                self.stats.errors += 1

    @contextlib.contextmanager
    def _admit_batch(self):
        """Claim one execution-batch admission slot (429 when full).

        Both execution-bearing routes (/jobs owner batches and /explore
        sweeps) pass through this bound, so neither can queue unboundedly
        on the execution lock.
        """
        with self._lock:
            if self._pending_batches >= self.queue_limit:
                self._bump("rejected")
                raise Backpressure(
                    pending=self._pending_batches,
                    limit=self.queue_limit,
                    retry_after_s=self.retry_after_s,
                )
            self._pending_batches += 1
        try:
            yield
        finally:
            with self._lock:
                self._pending_batches -= 1

    def submit_points(self, raw_points: Sequence[Mapping[str, object]],
                      timeout_s: Optional[float] = None,
                      on_loop: bool = False
                      ) -> Union[List[_Submitted], "Lookup"]:
        """Resolve a batch of raw point mappings into results.

        Point order is preserved.  Already-stored keys are answered from the
        cache (no lock, no admission needed); keys another request is
        currently resolving are joined (coalesced); the rest are claimed by
        this request, asked of the peer tier once (when the node has one and
        its recovery window is open) and otherwise executed here as one
        executor batch -- which counts as *one* unit against the
        ``queue_limit`` admission bound, however many jobs it carries.
        Raises :class:`Backpressure` when the service already has
        ``queue_limit`` admitted batches, and ``ValueError`` for malformed
        points.

        A caller on an event loop passes ``on_loop=True``: the points are
        keyed and looked up in the memory and store tiers, and when every
        key hits the answers come back as usual.  Otherwise nothing is
        claimed or counted yet, and the call returns the :class:`Lookup`
        for :meth:`finish` to complete on a thread.
        """
        entries = keyed_jobs(raw_points)
        # No service lock: warm keys resolve straight from the (internally
        # locked) cache in one batched lookup, so warm traffic never
        # serialises behind another request's admission or bookkeeping.
        # peek_many(), not get_many(): a missed key is counted once, by the
        # executor's recheck_many() (see _resolve_owned).
        found = (self.cache.peek_many(key for _, key in entries)
                 if self.cache is not None else {})
        lookup = Lookup(entries, found)
        if on_loop and len(found) < len(lookup.keys):
            return lookup
        return self.finish(lookup, timeout_s)

    def finish(self, lookup: "Lookup",
               timeout_s: Optional[float] = None) -> List[_Submitted]:
        """Resolve a batch :meth:`submit_points` has looked up: claim its
        missed keys (or join their owners), execute what this request owns
        and wait for the rest.  Blocks; see :meth:`submit_points`."""
        timeout_s = timeout_s if timeout_s is not None else self.wait_timeout_s
        entries = lookup.entries
        resolved = dict(lookup.found)
        statuses = dict.fromkeys(resolved, "cached")
        waits: Dict[str, _Inflight] = {}
        own: List[Tuple[object, str]] = []
        coalesced = 0
        if len(resolved) < len(lookup.keys):
            with self._lock:
                for job, key in entries:
                    if key in statuses:
                        continue
                    inflight = self._inflight.get(key)
                    if inflight is not None:
                        statuses[key] = "coalesced"
                        waits[key] = inflight
                        coalesced += 1
                        continue
                    statuses[key] = "executed"
                    own.append((job, key))
                if own:
                    if self._pending_batches >= self.queue_limit:
                        self._bump("rejected")
                        raise Backpressure(
                            pending=self._pending_batches,
                            limit=self.queue_limit,
                            retry_after_s=self.retry_after_s,
                        )
                    self._pending_batches += 1
                    for _, key in own:
                        self._inflight[key] = _Inflight()
        # Admission succeeded: commit the request-level counters.
        with self._stats_lock:
            self.stats.submitted_points += len(entries)
            self.stats.store_answers += len(lookup.found)
            self.stats.coalesced += coalesced

        if own:
            error: Optional[BaseException] = None
            try:
                self._resolve_owned(own, statuses, resolved)
            except BaseException as exc:  # always publish, even on error
                error = exc
            finally:
                with self._lock:
                    self._pending_batches -= 1
                    for _, key in own:
                        inflight = self._inflight.pop(key)
                        if error is None:
                            inflight.result = resolved[key]
                        else:
                            inflight.error = error
                        inflight.event.set()
            if error is not None:
                raise error

        for key, inflight in waits.items():
            if not inflight.event.wait(timeout_s):
                raise TimeoutError(
                    f"timed out after {timeout_s}s waiting for in-flight "
                    f"job {key}"
                )
            if inflight.error is not None:
                raise RuntimeError(
                    f"coalesced job {key} failed in its owning request: "
                    f"{inflight.error}"
                )
            resolved[key] = inflight.result

        return [
            _Submitted(key=key, status=statuses[key], cached=resolved[key])
            for _, key in entries
        ]

    def _resolve_owned(self, own: List[Tuple[object, str]],
                       statuses: Dict[str, str],
                       resolved: Dict[str, CachedResult]) -> None:
        """The miss path for the keys this request claimed.

        The claimed keys are asked of the peer tier in one batch (other
        requests for them coalesced onto this one, so nobody else probes
        them); outside its recovery window the tier asks nobody.  Peer
        answers are cached here in one write and reported ``cached``.  The
        rest execute as one executor batch, whose cache write stores them
        locally.  A fresh result is encoded once (that write memoises its
        packed bytes); the reply reuses them.
        """
        peers = self.peers
        missing = own
        if peers is not None:
            answers = peers.load_many([key for _, key in own])
            if answers:
                self.cache.put_many((key, answer, None)
                                    for key, answer in answers.items())
                resolved.update(answers)
                statuses.update(dict.fromkeys(answers, "cached"))
                missing = [(job, key) for job, key in own
                           if key not in answers]
            self._bump("store_answers", len(answers))
        if not missing:
            return
        with self._execute_lock:
            results = self.executor.run([job for job, _ in missing],
                                        probed=True)
        resolved.update((key, CachedResult.of(result))
                        for (_, key), result in zip(missing, results))

    def lookup(self, key: str) -> Tuple[str, Optional[CachedResult]]:
        """Look a content key up: ('done', entry), ('pending', None) or
        ('unknown', None)."""
        found = (self.cache.peek_many((key,)).get(key)
                 if self.cache is not None else None)
        if found is not None:
            return "done", found
        with self._lock:
            if key in self._inflight:
                return "pending", None
        return "unknown", None

    def run_explore(self, request: Mapping[str, object]) -> Dict[str, object]:
        """Run one ``POST /explore`` sweep (see :func:`parse_explore_request`)
        against the warm store."""
        arguments = parse_explore_request(request)
        self._bump("explores")
        with self._admit_batch(), self._execute_lock:
            result = explore(executor=self.executor, **arguments)
        return result.to_dict()

    def stats_dict(self) -> Dict[str, object]:
        """Everything /stats reports, as plain data."""
        payload: Dict[str, object] = {
            "queue_limit": self.queue_limit,
            "pending_batches": self._pending_batches,
            "inflight": len(self._inflight),
            "service": self.stats.to_dict(),
            "executor": self.executor.stats.to_dict(),
        }
        if self.cache is not None:
            payload["cache"] = dict(self.cache.stats.to_dict(),
                                    memory_entries=len(self.cache))
            backend = self.cache.backend
            store = backend.stats_dict() if backend is not None else None
            if self.peers is not None:
                # The peer tier's counters, with the local tier under
                # "local" (the memory layer on a storeless node).
                store = dict(self.peers.stats_dict(), local=store or {
                    "backend": "memory", "entries": len(self.cache)})
            if store is not None:
                payload["store"] = store
        return payload

    def cache_hit_ratio(self) -> float:
        """Fraction of submitted jobs answered without a simulation (the
        ``/metrics`` cache-efficiency gauge; 0.0 while nothing was
        submitted)."""
        submitted = self.stats.submitted_points
        if not submitted:
            return 0.0
        executor_stats = self.executor.stats
        # Store fast-path and coalescing answers happen above the executor,
        # so they appear in the service counters, not the executor's.
        answered = (self.stats.store_answers + self.stats.coalesced
                    + executor_stats.cache_hits + executor_stats.dedup_hits)
        return min(1.0, answered / submitted)

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait until no batch is admitted or in flight; True when idle."""
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            with self._lock:
                idle = self._pending_batches == 0 and not self._inflight
            if idle:
                return True
            time.sleep(0.02)
        return False

    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Drain in-flight work, then release the executor and store.

        The execute lock guarantees no ``executor.run`` (and therefore no
        store write) is mid-flight when the resources close; a request
        racing the shutdown would otherwise hit a closed SQLite connection
        and lose its computed result.
        """
        self.drain(drain_timeout_s)
        with self._execute_lock:
            self.executor.close()
            if self.cache is not None:
                self.cache.close()
