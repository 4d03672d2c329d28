"""Thin stdlib HTTP client for ``loom-repro serve`` and cluster nodes.

:class:`ServeClient` speaks the JSON protocol of
:mod:`repro.cluster.worker` over plain sockets and the cluster's own
HTTP/1.1 codec (:mod:`repro.cluster.aio`) -- no dependencies, so any Python
process (another CLI invocation, a notebook, a CI smoke script) can submit
simulations to a warm server.  Each thread keeps one keep-alive socket per
client and reuses it request after request; a connection the server closed
while it sat idle is retried once on a fresh one.  NDJSON and SSE answers
are read chunk by chunk as they arrive.  Server-side failures are raised as
:class:`ServeError` carrying the HTTP status and, for 429 backpressure
responses, the ``Retry-After`` hint.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import weakref
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.cluster.aio import (
    _MAX_HEAD_BYTES,
    _content_length,
    compute_backoff,
    parse_response_head,
    read_chunked,
    write_head,
)
from repro.obs.trace import get_tracer
from repro.sim.results import NetworkResult

__all__ = ["ServeClient", "ServeError", "SubmittedJob", "compute_backoff"]


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


class _Stale(ConnectionError):
    """The server closed a connection before any byte of the answer."""


#: A pooled connection the server closed while it idled fails with one of
#: these before any response byte arrives; the request is sent once more.
_STALE = (_Stale, ConnectionResetError, ConnectionAbortedError,
          BrokenPipeError)


class _Connection:
    """One keep-alive socket and the bytes read ahead on it."""

    __slots__ = ("address", "timeout_s", "sock", "_buffer")

    def __init__(self, address: Tuple[str, int], timeout_s: float) -> None:
        self.address = address
        self.timeout_s = timeout_s
        #: The open socket; ``None`` until the first request and after the
        #: connection is given up.
        self.sock: Optional[socket.socket] = None
        self._buffer = bytearray()

    def open(self) -> None:
        self.sock = socket.create_connection(self.address,
                                             timeout=self.timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self._buffer.clear()

    def _fill(self) -> bool:
        """Read what the socket has; ``False`` at EOF."""
        data = self.sock.recv(262144)
        self._buffer += data
        return bool(data)

    def read_head(self) -> bytes:
        """The next response head; :class:`_Stale` when the server hung up
        before sending a byte of it."""
        buffer = self._buffer
        scanned = 0
        while True:
            end = buffer.find(b"\r\n\r\n", scanned)
            if end >= 0:
                head = bytes(buffer[:end])
                del buffer[:end + 4]
                return head
            if len(buffer) > _MAX_HEAD_BYTES:
                raise ValueError("response head too large")
            scanned = max(0, len(buffer) - 3)
            if not self._fill():
                if buffer:
                    raise ConnectionResetError("server hung up mid-head")
                raise _Stale("server closed the connection")

    def read_exact(self, size: int) -> bytes:
        buffer = self._buffer
        while len(buffer) < size:
            if not self._fill():
                raise ConnectionResetError("server hung up mid-body")
        data = bytes(buffer[:size])
        del buffer[:size]
        return data

    def read_line(self) -> bytes:
        buffer = self._buffer
        scanned = 0
        while True:
            end = buffer.find(b"\n", scanned)
            if end >= 0:
                line = bytes(buffer[:end + 1])
                del buffer[:end + 1]
                return line
            scanned = len(buffer)
            if not self._fill():
                raise ConnectionResetError("server hung up mid-line")

    def read_to_eof(self) -> bytes:
        while self._fill():
            pass
        data = bytes(self._buffer)
        self._buffer.clear()
        return data


class _Response:
    """One response: its status and headers, and its body read on demand.
    A connection is kept for the next request only once its body has been
    read to the end and the server did not say ``Connection: close``."""

    def __init__(self, connection: _Connection, status: int,
                 headers: Dict[str, str]) -> None:
        self.connection = connection
        self.status = status
        self.headers = headers
        self.complete = False

    def _done(self) -> None:
        self.complete = True
        if self.headers.get("connection", "").lower() == "close":
            self.connection.close()

    def read(self) -> bytes:
        """The whole body."""
        headers = self.headers
        try:
            length = _content_length(headers)
        except ValueError as error:
            raise ConnectionError(f"bad response: {error}") from None
        if length is not None:
            body = self.connection.read_exact(length)
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            body = b"".join(self.chunks())
        else:  # no framing: the body runs to EOF, which ends the connection
            body = self.connection.read_to_eof()
            self.connection.close()
        self._done()
        return body

    def chunks(self) -> Iterator[bytes]:
        """The chunks of a chunked body, as they arrive."""
        try:
            yield from read_chunked(self.connection.read_line,
                                    self.connection.read_exact)
        except ValueError as error:
            raise ConnectionError(f"bad chunked body: {error}") from None
        self._done()

    def lines(self) -> Iterator[bytes]:
        """The body's lines (NDJSON entries, SSE fields) as they arrive."""
        if self.headers.get("transfer-encoding", "").lower() != "chunked":
            yield from self.read().splitlines(keepends=True)
            return
        pending = b""
        for chunk in self.chunks():
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                yield line + b"\n"
        if pending:
            yield pending


def _close_all(connections: Dict[threading.Thread, _Connection]) -> None:
    for connection in list(connections.values()):
        connection.close()
    connections.clear()


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
        host, colon, port = self._netloc.rpartition(":")
        if not colon or port.endswith("]"):  # no port, or a bare [v6]
            host, port = self._netloc, "80"
        self._address = (host.strip("[]"), int(port))
        #: One keep-alive connection per thread that used this client.
        self._connections: Dict[threading.Thread, _Connection] = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._connections)

    def close(self) -> None:
        """Close every connection this client holds (a later request opens
        a new one)."""
        with self._lock:
            _close_all(self._connections)

    # -- plumbing -------------------------------------------------------------

    def _connection(self) -> _Connection:
        """This thread's keep-alive connection (its socket opens on first
        use)."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None:
            with self._lock:
                # An exited thread cannot use its connection again.
                for gone in [t for t in self._connections
                             if not t.is_alive()]:
                    self._connections.pop(gone).close()
                connection = self._connections[thread] = _Connection(
                    self._address, self.timeout_s)
        return connection

    def _transport_error(self, error: BaseException) -> ServeError:
        # Connection-level failure (refused, reset, DNS): surface as a
        # retryable 503 so ServeError-based backoff loops engage.
        return ServeError(503, f"connection to {self.base_url} failed: "
                               f"{error}")

    def _send(self, method: str, path: str, payload: Optional[dict],
              accept: Optional[str]) -> _Response:
        """Issue one request on this thread's connection; its response
        with the head read."""
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else b"")
        headers = {"Host": self._netloc, "Content-Type": "application/json",
                   "Content-Length": len(body)}
        if accept is not None:
            headers["Accept"] = accept
        # Propagate the caller's trace context so server-side spans link
        # into the same trace (one sweep -> one cross-process trace).
        get_tracer().inject_headers(headers)
        request = write_head(f"{method} {self._base_path + path} HTTP/1.1",
                             headers) + body
        connection = self._connection()
        for attempt in range(2):
            reused = connection.sock is not None
            try:
                if not reused:
                    connection.open()
                connection.sock.sendall(request)
                status, response_headers = parse_response_head(
                    connection.read_head())
                return _Response(connection, status, response_headers)
            except _STALE as error:
                connection.close()
                if not (reused and attempt == 0):
                    raise self._transport_error(error) from error
            except socket.timeout:
                connection.close()
                raise
            except (OSError, ValueError) as error:
                connection.close()
                raise self._transport_error(error) from error
        raise AssertionError("unreachable")  # pragma: no cover

    @contextlib.contextmanager
    def _response(self, method: str, path: str,
                  payload: Optional[dict] = None,
                  accept: Optional[str] = None) -> Iterator[_Response]:
        """One 2xx response; a non-2xx answer raises :class:`ServeError`.
        A response not read to its end closes its connection, which could
        not carry another request."""
        response = self._send(method, path, payload, accept)
        try:
            if not 200 <= response.status < 300:
                self._raise_serve_error(response)
            yield response
        except socket.timeout:
            raise
        except OSError as error:
            raise self._transport_error(error) from error
        finally:
            if not response.complete:
                response.connection.close()

    @staticmethod
    def _raise_serve_error(response: _Response) -> None:
        # float(), not int(): a proxy (or a future sub-second backpressure
        # hint) may send a fractional Retry-After; truncating it to int --
        # or dropping it -- makes clients retry sooner than asked.
        retry_after: Optional[float] = None
        header = response.headers.get("retry-after")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        body = response.read()
        try:
            message = json.loads(body)["error"]
        except (ValueError, KeyError, TypeError):
            message = f"HTTP {response.status}"
        raise ServeError(response.status, message,
                         retry_after_s=retry_after) from None

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        with self._response(method, path, payload) as response:
            body = response.read()
        return json.loads(body)

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
            content_type = response.headers.get("content-type", "")
            if "application/x-ndjson" not in content_type:
                payload = json.loads(response.read())
                submitted = [self._submitted(entry)
                             for entry in payload["results"]]
                if on_entry is not None:
                    for index, job in enumerate(submitted):
                        on_entry(index, job)
                return submitted
            submitted = []
            lines = response.lines()
            for raw_line in lines:
                line = raw_line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                if entry.get("done"):
                    for _ in lines:  # the terminal chunk: reuse the socket
                        pass
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
            content_type = response.headers.get("content-type", "")
            if "text/event-stream" not in content_type:
                result = json.loads(response.read())
                yield "result", result
                yield "end", {"complete": True}
                return
            event: Optional[str] = None
            for raw_line in response.lines():
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
