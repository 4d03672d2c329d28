"""Thin stdlib HTTP client for ``loom-repro serve`` and cluster nodes.

:class:`ServeClient` speaks the JSON protocol of
:mod:`repro.cluster.worker` with nothing but :mod:`http.client` -- no
dependencies, so any Python process (another CLI invocation, a notebook, a
CI smoke script) can submit simulations to a warm server.  Each thread
keeps one keep-alive connection per client and reuses it request after
request; a connection the server closed while it sat idle is retried once
on a fresh one.  Server-side failures are raised as :class:`ServeError`
carrying the HTTP status and, for 429 backpressure responses, the
``Retry-After`` hint.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import socket
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.obs.trace import get_tracer
from repro.sim.results import NetworkResult

__all__ = ["ServeClient", "ServeError", "SubmittedJob", "compute_backoff"]

_BACKOFF_RNG = random.Random()


def compute_backoff(attempt: int, retry_after_s: Optional[float] = None,
                    base_s: float = 0.05, cap_s: float = 5.0,
                    rng: Optional[random.Random] = None) -> float:
    """Capped exponential backoff with jitter, honouring ``Retry-After``.

    The delay for retry ``attempt`` (0-based) is
    ``min(cap_s, base_s * 2**attempt)`` scaled by a jitter factor uniform in
    ``[0.5, 1.0]`` -- so a burst of clients refused together does not retry
    in lockstep.  A server-provided ``retry_after_s`` acts as a *floor*:
    the server knows how long its queue is, and retrying sooner than it
    asked just earns another refusal.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    delay = min(cap_s, base_s * (2.0 ** attempt))
    delay *= 0.5 + 0.5 * (rng or _BACKOFF_RNG).random()
    if retry_after_s is not None:
        delay = max(delay, float(retry_after_s))
    return delay


class ServeError(Exception):
    """An HTTP error response from the service.

    Also raised (with ``status=503``) for connection-level transport
    failures -- connection refused while a shard restarts, a reset, DNS
    hiccups -- so retry loops built on :class:`ServeError` (the
    :class:`~repro.serve.remote.RemoteExecutor` backoff path) see them as
    retryable instead of crashing on a raw socket error.  A timeout waiting
    for a response is raised as ``socket.timeout`` (``TimeoutError``).
    """

    def __init__(self, status: int, message: str,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class SubmittedJob:
    """One submitted point's resolution, as the server reported it.

    ``status`` is ``"cached"`` (answered from the warm store),
    ``"executed"`` (this request ran the simulation) or ``"coalesced"``
    (another concurrent request ran it and this one shared the result).
    """

    key: str
    status: str
    result: NetworkResult


def _close_all(connections: Dict[threading.Thread,
                                 http.client.HTTPConnection]) -> None:
    for connection in connections.values():
        connection.close()
    connections.clear()


#: A pooled connection the server closed while it idled fails with one of
#: these before any response byte arrives; the request is sent once more.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError,
          ConnectionAbortedError, BrokenPipeError)


class ServeClient:
    """Client for one ``loom-repro serve`` endpoint."""

    def __init__(self, base_url: str, timeout_s: float = 600.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        scheme, _, rest = self.base_url.partition("://")
        if scheme != "http" or not rest:
            raise ValueError(
                f"only http:// URLs are supported, got {base_url!r}")
        self._netloc, slash, base = rest.partition("/")
        self._base_path = "/" + base if slash else ""
        #: One keep-alive connection per thread that used this client.
        self._connections: Dict[threading.Thread,
                                http.client.HTTPConnection] = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._connections)

    def close(self) -> None:
        """Close every connection this client holds (a later request opens
        a new one)."""
        with self._lock:
            _close_all(self._connections)

    # -- plumbing -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's keep-alive connection (opened on first use)."""
        thread = threading.current_thread()
        with self._lock:
            connection = self._connections.get(thread)
            if connection is None:
                # An exited thread cannot use its connection again.
                for gone in [t for t in self._connections
                             if not t.is_alive()]:
                    self._connections.pop(gone).close()
                connection = self._connections[thread] = \
                    http.client.HTTPConnection(self._netloc,
                                               timeout=self.timeout_s)
        return connection

    def _transport_error(self, error: BaseException) -> ServeError:
        # Connection-level failure (refused, reset, DNS): surface as a
        # retryable 503 so ServeError-based backoff loops engage.
        return ServeError(503, f"connection to {self.base_url} failed: "
                               f"{error}")

    def _send(self, method: str, path: str, payload: Optional[dict],
              accept: Optional[str]
              ) -> "tuple[http.client.HTTPConnection, http.client.HTTPResponse]":
        """Issue one request on this thread's connection."""
        headers = {"Content-Type": "application/json"}
        if accept is not None:
            headers["Accept"] = accept
        # Propagate the caller's trace context so server-side spans link
        # into the same trace (one sweep -> one cross-process trace).
        get_tracer().inject_headers(headers)
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        connection = self._connection()
        for attempt in range(2):
            reused = connection.sock is not None
            try:
                if not reused:
                    connection.connect()
                connection.request(method, self._base_path + path,
                                   body=body, headers=headers)
                return connection, connection.getresponse()
            except _STALE as error:
                connection.close()
                if not (reused and attempt == 0):
                    raise self._transport_error(error) from error
            except socket.timeout:
                connection.close()
                raise
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                raise self._transport_error(error) from error
        raise AssertionError("unreachable")  # pragma: no cover

    @contextlib.contextmanager
    def _response(self, method: str, path: str,
                  payload: Optional[dict] = None,
                  accept: Optional[str] = None
                  ) -> Iterator[http.client.HTTPResponse]:
        """One 2xx response; a non-2xx answer raises :class:`ServeError`.
        A response not read to its end closes its connection, which could
        not carry another request."""
        connection, response = self._send(method, path, payload, accept)
        try:
            if not 200 <= response.status < 300:
                self._raise_serve_error(response)
            yield response
        except socket.timeout:
            raise
        except (OSError, http.client.HTTPException) as error:
            raise self._transport_error(error) from error
        finally:
            if not response.isclosed():
                response.close()
                connection.close()

    @staticmethod
    def _raise_serve_error(response: http.client.HTTPResponse) -> None:
        # float(), not int(): a proxy (or a future sub-second backpressure
        # hint) may send a fractional Retry-After; truncating it to int --
        # or dropping it -- makes clients retry sooner than asked.
        retry_after: Optional[float] = None
        header = response.headers.get("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        try:
            message = json.loads(response.read().decode("utf-8"))["error"]
        except (ValueError, KeyError, TypeError):
            message = response.reason
        raise ServeError(response.status, message,
                         retry_after_s=retry_after) from None

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        with self._response(method, path, payload) as response:
            return json.loads(response.read().decode("utf-8"))

    @staticmethod
    def _submitted(entry: Mapping[str, object]) -> SubmittedJob:
        return SubmittedJob(
            key=entry["key"],
            status=entry["status"],
            result=NetworkResult.from_dict(entry["result"]),
        )

    # -- API ------------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def networks(self) -> List[dict]:
        return self._request("GET", "/networks")["networks"]

    def trace(self) -> dict:
        """The server's recorded spans (``{"service": ..., "spans": [...]}``).

        Against a cluster coordinator the payload also merges every healthy
        worker's spans, so one fetch covers the whole cluster.
        """
        return self._request("GET", "/trace")

    def submit(self, point: Optional[Mapping[str, object]] = None,
               **params: object) -> SubmittedJob:
        """Submit one design point (mapping and/or keyword parameters)."""
        merged: Dict[str, object] = dict(point or {})
        merged.update(params)
        return self._submitted(self._request("POST", "/jobs",
                                             {"point": merged}))

    def submit_points(self, points: Sequence[Mapping[str, object]]
                      ) -> List[SubmittedJob]:
        """Submit a batch of points; resolutions come back in order."""
        response = self._request("POST", "/jobs",
                                 {"points": [dict(p) for p in points]})
        return [self._submitted(entry) for entry in response["results"]]

    def result(self, key: str) -> Optional[NetworkResult]:
        """Fetch a finished result by content key (``None`` if unknown).

        A key that is currently executing (HTTP 202) also returns ``None``;
        use :meth:`lookup` to distinguish the two.
        """
        status, result = self.lookup(key)
        return result if status == "done" else None

    def lookup(self, key: str) -> tuple:
        """(status, result) for a key: ('done', NetworkResult),
        ('pending', None) or ('unknown', None)."""
        try:
            payload = self._request("GET", f"/jobs/{key}")
        except ServeError as error:
            if error.status == 404:
                return "unknown", None
            raise
        if payload["status"] == "pending":
            return "pending", None
        return "done", NetworkResult.from_dict(payload["result"])

    def submit_points_stream(
        self, points: Sequence[Mapping[str, object]],
        on_entry: Optional[Callable[[int, SubmittedJob], None]] = None,
    ) -> List[SubmittedJob]:
        """Submit a batch and consume results as the server resolves them.

        Against a cluster coordinator this streams NDJSON: ``on_entry(index,
        job)`` fires per resolved point (in submission order) while later
        points are still simulating.  Against a server that does not stream
        (plain ``loom-repro serve`` answers a single JSON document) the
        callback still fires per entry, just all at once -- same results
        either way.
        """
        with self._response("POST", "/jobs",
                            {"points": [dict(p) for p in points]},
                            accept="application/x-ndjson") as response:
            content_type = (response.headers.get("Content-Type") or "")
            if "application/x-ndjson" not in content_type:
                payload = json.loads(response.read().decode("utf-8"))
                submitted = [self._submitted(entry)
                             for entry in payload["results"]]
                if on_entry is not None:
                    for index, job in enumerate(submitted):
                        on_entry(index, job)
                return submitted
            submitted = []
            for raw_line in response:
                line = raw_line.strip()
                if not line:
                    continue
                entry = json.loads(line.decode("utf-8"))
                if entry.get("done"):
                    response.read()  # the terminal chunk: reuse the socket
                    break
                if "error" in entry:
                    raise ServeError(int(entry.get("status", 500)),
                                     str(entry["error"]))
                job = self._submitted(entry)
                if on_entry is not None:
                    on_entry(entry.get("index", len(submitted)), job)
                submitted.append(job)
            return submitted

    def explore(self, space: Mapping[str, object], **options: object) -> dict:
        """Run a sweep on the server (``space`` is a SweepSpec dict).

        Options: ``strategy``, ``options`` (a mapping of strategy
        constructor options, e.g. ``{"samples": 32, "seed": 7}``),
        ``budget`` (cap on fresh true simulations), ``objectives``,
        ``baseline`` -- the same knobs as :func:`repro.explore.explore`.
        Legacy top-level ``samples`` / ``seed`` keys keep working.
        """
        return self._request("POST", "/explore",
                             {"space": dict(space), **options})

    def explore_stream(self, space: Mapping[str, object],
                       **options: object) -> Iterator[tuple]:
        """Run a sweep and yield ``(event, data)`` pairs as it progresses.

        Against a cluster coordinator this consumes server-sent events:
        ``start`` (sweep shape), ``progress`` (per executor batch, with
        brief per-job results), ``result`` (the full exploration result
        dict) and a terminal ``end`` (``{"complete": true}``, or ``false``
        with a ``reason`` such as ``"shutdown"``).  Against a server that
        does not stream, yields a synthetic ``result`` then ``end`` pair
        from the plain JSON response, so callers need no special-casing.
        """
        payload = {"space": dict(space), **options, "stream": True}
        with self._response("POST", "/explore", payload,
                            accept="text/event-stream") as response:
            content_type = (response.headers.get("Content-Type") or "")
            if "text/event-stream" not in content_type:
                result = json.loads(response.read().decode("utf-8"))
                yield "result", result
                yield "end", {"complete": True}
                return
            event: Optional[str] = None
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:") and event is not None:
                    data = json.loads(line[len("data:"):].strip())
                    yield event, data
                    if event == "end":
                        return
                    event = None

    def shutdown(self) -> dict:
        """Ask the server to stop gracefully."""
        return self._request("POST", "/shutdown")
