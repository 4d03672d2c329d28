"""Minimal asyncio HTTP/1.1 plumbing for the cluster (stdlib only).

Every HTTP node -- the worker that ``loom-repro serve`` runs and the
cluster coordinator -- serves from one event loop.  This module is the
transport both node kinds use, built on one small HTTP/1.1 codec:

* **The codec** -- :func:`parse_request_head` / :func:`parse_response_head`
  read a head, :func:`write_head` writes one, :func:`encode_chunk` and
  :func:`read_chunked` write and read a chunked body.  The server,
  :func:`fetch` and :class:`~repro.serve.client.ServeClient` all speak
  through it.
* :class:`AsyncHTTPServer` -- one :class:`asyncio.Protocol` per connection
  on its own event loop in a background thread (so nodes embed in tests
  and the CLI as plain objects).  Requests are cut out of the bytes as they
  arrive, pipelined ones included, and each runs as one handler task;
  answers go out in request order.  A ``loop.call_later`` timer closes a
  connection that idles (or dribbles a head) past the keep-alive timeout,
  and ``stop()`` drops idle connections at once.
* :class:`HTTPResponder` -- plain ``Content-Length`` responses, plus
  **chunked** streaming (``start_stream``/``write_chunk``/``finish_stream``)
  for NDJSON result streams and ``text/event-stream`` SSE.  Each write is
  followed by a drain that waits only while the transport has paused
  writing.  A response after which the server closes the socket says
  ``Connection: close``.
* :func:`fetch` -- a small async client (the coordinator's shard-facing
  side and the peer cache tier) over a pool of idle keep-alive
  connections per (event loop, host, port).  Each is a protocol whose reply
  completes a future under one ``call_later`` deadline.  A pooled
  connection the server closed meanwhile is retried once on a fresh one;
  every other failure raises, so a dead worker is still detected on the
  request that meets it.

Nothing here knows about jobs or shards; it is transport only.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import random
import threading
import weakref
from dataclasses import dataclass
from typing import (Awaitable, Callable, Dict, Iterator, List, Mapping,
                    Optional, Tuple, Union)

from repro.obs.trace import get_tracer

__all__ = ["AsyncHTTPServer", "HTTPReply", "HTTPRequest", "HTTPResponder",
           "RequestError", "TIMEOUTS", "close_idle_connections",
           "compute_backoff", "encode_chunk", "fetch", "fetch_json", "parse_request_head",
           "parse_response_head", "read_chunked", "write_head"]

#: Every spelling of a timeout (distinct classes before Python 3.11).
TIMEOUTS = (TimeoutError, asyncio.TimeoutError,
            concurrent.futures.TimeoutError)

#: Largest request body a node accepts (a sweep spec is tiny; anything
#: bigger is a client bug, not a workload).
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Largest request or response head (start line + headers).
_MAX_HEAD_BYTES = 64 * 1024
#: How long a keep-alive connection may idle between requests.
_KEEPALIVE_TIMEOUT_S = 30.0
#: Idle client connections :func:`fetch` keeps per (loop, host, port).
_MAX_IDLE_PER_HOST = 8

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable", 504: "Gateway Timeout",
}
_STATUS_LINES = {status: f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1")
                 for status, reason in _REASONS.items()}
_END_OF_HEAD = b"\r\n\r\n"
#: The terminating chunk of a chunked body.
_LAST_CHUNK = b"0\r\n\r\n"


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


class RequestError(Exception):
    """A request answered with ``status`` (400/404/413/429/503, ...)."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


# -- the head codec -------------------------------------------------------------


def _header_fields(lines: List[str], strict: bool) -> Dict[str, str]:
    """Lower-cased header names to values; a line without a colon is a 400
    when ``strict`` and skipped otherwise."""
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            if strict:
                raise RequestError(400, f"bad header line {line!r}")
            continue
        headers[name.strip().lower()] = value.strip()
    return headers


def parse_request_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    """``(method, target, headers)`` of a request head (everything before
    the blank line); :class:`RequestError` 400 when it is malformed."""
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise RequestError(400, f"bad request line {lines[0]!r}")
    return parts[0], parts[1], _header_fields(lines[1:], strict=True)


def parse_response_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    """``(status, headers)`` of a response head; ``ValueError`` when the
    status line is not HTTP/1.x."""
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1.") \
            or not parts[1].isdigit():
        raise ValueError(f"bad status line {lines[0]!r}")
    return int(parts[1]), _header_fields(lines[1:], strict=False)


def _header_lines(headers: Mapping[str, object]) -> str:
    return "".join(f"{name}: {value}\r\n" for name, value in headers.items())


def write_head(start_line: str, headers: Mapping[str, object]) -> bytes:
    """A head: the start line, one ``Name: value`` line per header, and
    the blank line."""
    return f"{start_line}\r\n{_header_lines(headers)}\r\n".encode("latin-1")


def _content_length(headers: Mapping[str, str]) -> Optional[int]:
    """The declared body length, ``None`` when there is none;
    ``ValueError`` when it is not a non-negative integer."""
    value = headers.get("content-length")
    if value is None:
        return None
    if not value.isdigit():
        raise ValueError(f"bad Content-Length {value!r}")
    return int(value)


def encode_chunk(data: bytes) -> bytes:
    """One chunk of a chunked body (``data`` must not be empty: a
    zero-size chunk ends the body)."""
    return b"%x\r\n%s\r\n" % (len(data), data)


def read_chunked(read_line: Callable[[], bytes],
                 read_exact: Callable[[int], bytes]) -> Iterator[bytes]:
    """The chunks of a chunked body, read through ``read_line`` (one line,
    ending ``\\n``) and ``read_exact(n)``; stops after the trailer.
    ``ValueError`` when a size line is malformed."""
    while True:
        size_line = read_line()
        size_text = size_line.split(b";", 1)[0].strip()
        try:
            size = int(size_text, 16)
        except ValueError:
            raise ValueError(f"bad chunk size line {size_line!r}") from None
        if size == 0:
            while read_line().strip():
                pass  # trailer fields, up to the blank line
            return
        data = read_exact(size)
        if read_exact(2) != b"\r\n":
            raise ValueError("chunk not followed by CRLF")
        yield data


class _Incoming:
    """Bytes received on one connection, cut into messages: a head, then a
    ``Content-Length`` body.  A head is searched for once per byte, however
    the bytes are split across reads."""

    __slots__ = ("data", "_scanned")

    def __init__(self) -> None:
        self.data = bytearray()
        self._scanned = 0

    def head(self) -> Optional[bytes]:
        """Take the next complete head off the buffer (``None`` until one
        has arrived); ``RequestError`` 413 when it outgrows the limit."""
        data = self.data
        end = data.find(_END_OF_HEAD, max(0, self._scanned - 3))
        if end < 0:
            self._scanned = len(data)
            if len(data) > _MAX_HEAD_BYTES:
                raise RequestError(413, "request head too large")
            return None
        if end + 4 > _MAX_HEAD_BYTES:
            raise RequestError(413, "request head too large")
        head = bytes(data[:end])
        del data[:end + 4]
        self._scanned = 0
        return head

    def body(self, length: int) -> Optional[bytes]:
        """Take a ``length``-byte body off the buffer once it is all
        here."""
        data = self.data
        if len(data) < length:
            return None
        body = bytes(data[:length])
        del data[:length]
        return body


# -- requests and responses -----------------------------------------------------


@dataclass
class HTTPRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str]  # lower-cased names
    body: bytes
    client: str  # peer address, "ip:port"

    def json(self) -> Dict[str, object]:
        if not self.body:
            raise RequestError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(400, f"bad JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        return payload

    def wants(self, content_type: str) -> bool:
        """True when the Accept header asks for ``content_type``."""
        return content_type in self.headers.get("accept", "")


@dataclass
class HTTPReply:
    """One parsed response (the client side)."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, object]:
        return json.loads(self.body.decode("utf-8"))


class HTTPResponder:
    """Writes exactly one response -- fixed-length or chunked -- per request."""

    __slots__ = ("_connection", "_server_line", "responded", "streaming",
                 "status", "close_after", "request_id", "on_head", "label")

    def __init__(self, connection: "_ServerConnection",
                 server_line: bytes) -> None:
        self._connection = connection
        self._server_line = server_line
        self.responded = False
        self.streaming = False
        self.status: Optional[int] = None
        #: The server closes the connection after this response; set it
        #: before responding and the head announces ``Connection: close``.
        self.close_after = False
        #: Correlation id echoed as ``X-Request-Id`` on the response.
        self.request_id: Optional[str] = None
        #: Called as ``on_head(label, status)`` once, just before the
        #: response head is written, so whatever it counts is visible
        #: before the client can read the answer.
        self.on_head: Optional[Callable[[str, int], None]] = None
        #: The request's metric label, handed to ``on_head``.
        self.label = ""

    def _head(self, status: int, content_type: str, framing: bytes,
              headers: Optional[Dict[str, str]]) -> bytes:
        """Claim this request's one response and write its head."""
        if self.responded:
            raise RuntimeError("response already sent")
        self.responded = True
        self.status = status
        if self.on_head is not None:
            self.on_head(self.label, status)
        parts = [_STATUS_LINES.get(status)
                 or f"HTTP/1.1 {status} OK\r\n".encode("latin-1"),
                 self._server_line]
        if self.request_id:
            parts.append(b"X-Request-Id: %s\r\n"
                         % self.request_id.encode("latin-1"))
        if self.close_after:
            parts.append(b"Connection: close\r\n")
        parts.append(b"Content-Type: %s\r\n" % content_type.encode("latin-1"))
        parts.append(framing)
        if headers:
            parts.append(_header_lines(headers).encode("latin-1"))
        parts.append(b"\r\n")
        return b"".join(parts)

    def _fixed(self, status: int, body: bytes, content_type: str,
               headers: Optional[Dict[str, str]] = None) -> bytes:
        """A whole ``Content-Length`` response, head and body."""
        return self._head(status, content_type,
                          b"Content-Length: %d\r\n" % len(body),
                          headers) + body

    async def send(self, status: int, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._connection.write(self._fixed(status, body, content_type,
                                           headers))
        await self._connection.drain()

    async def send_json(self, status: int, payload: Dict[str, object],
                        headers: Optional[Dict[str, str]] = None) -> None:
        await self.send(status, json.dumps(payload).encode("utf-8"),
                        "application/json", headers)

    async def send_text(self, status: int, text: str,
                        content_type: str = "text/plain; version=0.0.4; "
                                            "charset=utf-8") -> None:
        # The default content type is the Prometheus exposition format tag.
        await self.send(status, text.encode("utf-8"), content_type)

    # -- chunked streaming ----------------------------------------------------

    async def start_stream(self, content_type: str,
                           headers: Optional[Dict[str, str]] = None) -> None:
        """Begin a chunked response (NDJSON or SSE); write with
        :meth:`write_chunk`, end with :meth:`finish_stream`."""
        self._connection.write(self._head(
            200, content_type,
            b"Transfer-Encoding: chunked\r\nCache-Control: no-store\r\n",
            headers))
        self.streaming = True
        await self._connection.drain()

    async def write_chunk(self, data: bytes) -> None:
        if not data:
            return  # a zero-size chunk would terminate the stream
        self._connection.write(encode_chunk(data))
        await self._connection.drain()

    async def finish_stream(self) -> None:
        self._connection.write(_LAST_CHUNK)
        await self._connection.drain()
        self.streaming = False

    # -- SSE convenience ------------------------------------------------------

    async def write_event(self, event: str, data: Dict[str, object]) -> None:
        """One server-sent event carrying a JSON payload."""
        payload = json.dumps(data)
        await self.write_chunk(
            f"event: {event}\ndata: {payload}\n\n".encode("utf-8"))


Handler = Callable[[HTTPRequest, HTTPResponder], Awaitable[None]]


# -- the server -----------------------------------------------------------------


class _ServerConnection(asyncio.Protocol):
    """One accepted connection.

    Requests are parsed as their bytes arrive; a complete one starts the
    connection's one handler task, and bytes that arrive meanwhile wait in
    the buffer (pipelining) until the answer is out.  The idle timer is
    armed once and re-arms itself for whatever is left of the keep-alive
    timeout since the last request ended, so a request costs no timer.
    """

    def __init__(self, server: "AsyncHTTPServer") -> None:
        self._server = server
        self._loop = server.loop
        self._transport: Optional[asyncio.Transport] = None
        self.client = "?:0"
        self._incoming = _Incoming()
        #: ``(method, target, headers, body length)`` of a request whose
        #: head is parsed and whose body is still arriving.
        self._pending: Optional[tuple] = None
        #: The running handler task (``None`` between requests).
        self.task: Optional[asyncio.Task] = None
        self._closed = False
        self._eof = False
        self._reading_paused = False
        self._writing_paused = False
        self._drained: Optional[asyncio.Future] = None
        self._idle_since = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None

    # -- asyncio.Protocol -----------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        peer = transport.get_extra_info("peername") or ("?", 0)
        self.client = f"{peer[0]}:{peer[1]}"
        self._server._connections.add(self)
        if self._server._stopping:
            self.close()
            return
        self._idle_since = self._loop.time()
        self._timer = self._loop.call_later(_KEEPALIVE_TIMEOUT_S,
                                            self._on_timer)

    def data_received(self, data: bytes) -> None:
        self._incoming.data += data
        if self.task is None:
            self._next_request()
        elif len(self._incoming.data) > _MAX_HEAD_BYTES + MAX_BODY_BYTES:
            # A peer pipelining faster than it reads answers: stop reading
            # until the running request is answered.
            self._reading_paused = True
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        if self.task is None:
            self._next_request()
        # Keep the transport for a running handler's answer; the request
        # that ends closes it.
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closed = True
        self._server._connections.discard(self)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._wake_writer(ConnectionResetError("connection lost"))

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._wake_writer(None)

    # -- writing --------------------------------------------------------------

    def write(self, data: bytes) -> None:
        if self._closed or self._transport.is_closing():
            raise ConnectionResetError("connection lost")
        self._transport.write(data)

    async def drain(self) -> None:
        """Wait while the transport has paused writing."""
        if self._writing_paused and not self._closed:
            waiter = self._drained = self._loop.create_future()
            try:
                await waiter
            finally:
                self._drained = None

    def _wake_writer(self, error: Optional[Exception]) -> None:
        waiter = self._drained
        if waiter is not None and not waiter.done():
            if error is None:
                waiter.set_result(None)
            else:
                waiter.set_exception(error)

    def close(self) -> None:
        if self._transport is not None and not self._transport.is_closing():
            self._transport.close()  # flushes what is buffered first

    # -- requests -------------------------------------------------------------

    def _next_request(self) -> None:
        """Start the handler of the next complete request, if one is
        buffered; answer a malformed one and close."""
        if self._closed or self._server._stopping:
            self.close()
            return
        incoming = self._incoming
        try:
            if self._pending is None:
                head = incoming.head()
                if head is None:
                    if self._eof:
                        if incoming.data:
                            raise RequestError(400, "truncated request head")
                        self.close()
                    return
                method, target, headers = parse_request_head(head)
                try:
                    length = _content_length(headers) or 0
                except ValueError as error:
                    raise RequestError(400, str(error)) from None
                if length > MAX_BODY_BYTES:
                    raise RequestError(
                        413, f"request body too large ({length} bytes, "
                             f"limit {MAX_BODY_BYTES})")
                self._pending = (method, target, headers, length)
            method, target, headers, length = self._pending
            body = incoming.body(length) if length else b""
            if body is None:
                if self._eof:
                    raise RequestError(400, "truncated request body")
                return
        except RequestError as error:
            self._reject(error)
            return
        self._pending = None
        request = HTTPRequest(method=method, path=target.split("?", 1)[0],
                              headers=headers, body=body, client=self.client)
        self.task = self._loop.create_task(self._respond(request))

    def _reject(self, error: RequestError) -> None:
        """Answer a request that cannot be parsed, then close."""
        responder = HTTPResponder(self, self._server._server_line)
        responder.close_after = True
        try:
            self.write(responder._fixed(
                error.status, json.dumps({"error": error.message})
                .encode("utf-8"), "application/json"))
        except ConnectionError:
            pass
        self.close()

    async def _respond(self, request: HTTPRequest) -> None:
        responder = HTTPResponder(self, self._server._server_line)
        # A client that asked to close is told the server will.
        responder.close_after = \
            request.headers.get("connection", "").lower() == "close"
        try:
            try:
                await self._server.handler(request, responder)
            except RequestError as error:
                await _best_effort_error(responder, error.status,
                                         error.message)
            except ConnectionError:
                responder.close_after = True
            except Exception as error:
                await _best_effort_error(
                    responder, 500, f"{type(error).__name__}: {error}")
            if not responder.responded:
                await _best_effort_error(responder, 500,
                                         "handler sent no response")
        except BaseException:
            self.task = None
            self.close()
            raise
        self.task = None
        if responder.streaming or responder.close_after:
            self.close()
            return
        self._idle_since = self._loop.time()
        if self._reading_paused:
            self._reading_paused = False
            self._transport.resume_reading()
        if self._incoming.data or self._eof or self._server._stopping:
            self._next_request()

    def _on_timer(self) -> None:
        self._timer = None
        if self._closed:
            return
        remaining = _KEEPALIVE_TIMEOUT_S
        if self.task is None:
            remaining -= self._loop.time() - self._idle_since
            if remaining <= 0:
                self.close()
                return
        self._timer = self._loop.call_later(remaining, self._on_timer)


async def _best_effort_error(responder: HTTPResponder, status: int,
                             message: str) -> None:
    with _swallow_connection_errors():
        if responder.streaming:
            # Mid-stream failure: terminate the stream with an error event
            # so the client sees a clean end, not a hung socket.
            await responder.write_event("error", {"error": message})
            await responder.finish_stream()
            responder.close_after = True
        elif not responder.responded:
            await responder.send_json(status, {"error": message})


class AsyncHTTPServer:
    """An asyncio HTTP server running on its own loop in a daemon thread.

    ``handler(request, responder)`` must send exactly one response (fixed or
    streamed).  Handler exceptions map to 500; :class:`RequestError` to its
    status.  ``start()`` binds and returns the URL; ``stop()`` stops
    accepting, closes keep-alive connections idle between requests, lets
    in-flight handlers finish (bounded), then tears the loop down.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, server_tag: str = "loom-cluster") -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.server_tag = server_tag
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._server_line = f"Server: {server_tag}\r\n".encode("latin-1")
        #: Open connections (each a :class:`_ServerConnection`).
        self._connections: set = set()
        self._stopping = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> str:
        """Bind on a fresh event loop in a daemon thread; returns the URL."""
        if self.loop is not None:
            raise RuntimeError("server already started")
        self.loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list = []

        async def _bind() -> None:
            try:
                self._server = await self.loop.create_server(
                    lambda: _ServerConnection(self), host=self.host,
                    port=self.port)
                self.port = self._server.sockets[0].getsockname()[1]
            except OSError as error:
                failure.append(error)
            finally:
                started.set()

        def _run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.create_task(_bind())
            self.loop.run_forever()
            # Drain callbacks scheduled during shutdown, then close.
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name=self.server_tag)
        self._thread.start()
        started.wait(timeout=10.0)
        if failure:
            self.stop()
            raise failure[0]
        return self.url

    def run_coroutine(self, coroutine) -> "asyncio.Future":
        """Submit a coroutine to the server's loop from any thread."""
        if self.loop is None:
            raise RuntimeError("server is not running")
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop)

    def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting, drop idle connections, drain in-flight handlers,
        stop the loop."""
        if self.loop is None:
            return
        self._stopping = True

        async def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
            # A keep-alive connection between requests has nothing to
            # drain: close it now rather than wait out its idle timeout.
            # One mid-request closes itself when its answer is out.
            for connection in list(self._connections):
                if connection.task is None:
                    connection.close()
            pending = {connection.task for connection in self._connections
                       if connection.task is not None}
            if pending:
                await asyncio.wait(pending, timeout=drain_timeout_s)
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
            for connection in list(self._connections):
                connection.close()
            await close_idle_connections()
            if self._server is not None:
                # Python 3.12+ waits here for every connection to close.
                with _swallow_connection_errors():
                    await asyncio.wait_for(self._server.wait_closed(), 5.0)

        try:
            future = asyncio.run_coroutine_threadsafe(_shutdown(), self.loop)
            future.result(timeout=drain_timeout_s + 5.0)
        except Exception:
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.loop = None
        self._server = None
        self._thread = None


class _swallow_connection_errors:
    """``with`` block that ignores peer-went-away errors while responding."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is not None and issubclass(
            exc_type, (ConnectionError, OSError, RuntimeError))


# -- the coordinator's shard-facing client -------------------------------------


def _split_url(url: str) -> Tuple[str, int, str]:
    """``http://host:port[/base]`` -> (host, port, base_path)."""
    if not url.startswith("http://"):
        raise ValueError(f"only http:// URLs are supported, got {url!r}")
    rest = url[len("http://"):]
    host_port, slash, base = rest.partition("/")
    host, colon, port = host_port.partition(":")
    if not colon:
        port = "80"
    return host, int(port), ("/" + base if slash else "").rstrip("/")


class _Stale(Exception):
    """A pooled connection was closed by the server before any response
    byte arrived: safe to send the request again on a fresh one."""


class _ClientConnection(asyncio.Protocol):
    """One keep-alive connection :func:`fetch` sends requests on; each
    reply completes the future :meth:`request` returned."""

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._incoming = _Incoming()
        self._reply: Optional[asyncio.Future] = None
        self._head: Optional[Tuple[int, Dict[str, str], Optional[int]]] = None
        self._url = ""
        self._reused = False
        self.closed = False

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._incoming.data += data
        reply = self._reply
        if reply is None or reply.done():
            self.close()  # bytes nobody asked for: the stream is lost
            return
        try:
            if self._head is None:
                head = self._incoming.head()
                if head is None:
                    return
                status, headers = parse_response_head(head)
                self._head = (status, headers, _content_length(headers))
            status, headers, length = self._head
            if length is None:
                return  # no length: the body runs to EOF
            body = self._incoming.body(length)
        except (ValueError, RequestError) as error:
            reply.set_exception(ConnectionError(
                f"bad response from {self._url}: {error}"))
            self.close()
            return
        if body is None:
            return
        reusable = (not self._incoming.data
                    and headers.get("connection", "").lower() != "close")
        reply.set_result((HTTPReply(status=status, headers=headers,
                                    body=body), reusable))

    def eof_received(self) -> bool:
        self._hung_up()
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed = True
        self._hung_up()

    def _hung_up(self) -> None:
        reply = self._reply
        if reply is None or reply.done():
            return
        if self._head is not None and self._head[2] is None:
            status, headers, _ = self._head
            reply.set_result((HTTPReply(status=status, headers=headers,
                                        body=bytes(self._incoming.data)),
                              False))
        elif self._reused and self._head is None \
                and not self._incoming.data:
            reply.set_exception(_Stale())
        else:
            reply.set_exception(ConnectionError(
                f"{self._url} hung up mid-response"))

    def request(self, data: bytes, url: str, reused: bool,
                loop: asyncio.AbstractEventLoop) -> "asyncio.Future":
        """Send one request; the future resolves to ``(reply, reusable)``."""
        self._reply = reply = loop.create_future()
        self._head = None
        self._url = url
        self._reused = reused
        if self.closed or self._transport.is_closing():
            self._hung_up()
        else:
            self._transport.write(data)
        return reply

    def close(self) -> None:
        if self._transport is not None and not self._transport.is_closing():
            self._transport.close()


#: Idle keep-alive connections by event loop, then by (host, port).  Only
#: the owning loop's thread touches a loop's pool; the lock guards the map.
_IDLE: "weakref.WeakKeyDictionary[asyncio.AbstractEventLoop, " \
    "Dict[Tuple[str, int], List[_ClientConnection]]]" = \
    weakref.WeakKeyDictionary()
_IDLE_LOCK = threading.Lock()


def _idle_pool(loop: asyncio.AbstractEventLoop, host: str,
               port: int) -> List[_ClientConnection]:
    """``loop``'s idle connections to host:port."""
    by_host = _IDLE.get(loop)
    if by_host is None:
        with _IDLE_LOCK:
            # A pooled transport references its loop, so a loop closed
            # without close_idle_connections() would never leave the map.
            for closed in [other for other in _IDLE if other.is_closed()]:
                del _IDLE[closed]
            by_host = _IDLE.setdefault(loop, {})
    pool = by_host.get((host, port))
    if pool is None:
        pool = by_host[(host, port)] = []
    return pool


def _take_idle(pool: List[_ClientConnection]) -> Optional[_ClientConnection]:
    """A pooled connection that still looks open, or ``None``."""
    while pool:
        connection = pool.pop()
        if not connection.closed:
            return connection
    return None


async def close_idle_connections() -> None:
    """Close every idle pooled connection of the running loop (a loop
    that is about to stop calls this so no transport outlives it)."""
    with _IDLE_LOCK:
        by_host = _IDLE.pop(asyncio.get_running_loop(), {})
    for pool in by_host.values():
        for connection in pool:
            connection.close()


def _expire(reply: "asyncio.Future") -> None:
    if not reply.done():
        reply.set_exception(asyncio.TimeoutError())


async def fetch(url: str, method: str = "GET", path: str = "/",
                payload: Union[Dict[str, object], bytes, None] = None,
                timeout_s: float = 600.0,
                headers: Optional[Dict[str, str]] = None) -> HTTPReply:
    """One HTTP request against ``url`` over a pooled keep-alive connection.

    ``payload`` is a JSON object, or a body already encoded as JSON.
    Raises ``ConnectionError`` when the peer is unreachable or hangs up
    mid-response and ``asyncio.TimeoutError`` on deadline -- the two signals
    the coordinator's failover path treats as "this shard is down".  A
    pooled connection the server had already closed (no response byte
    arrived) is retried once, on a fresh connection.
    """
    host, port, base = _split_url(url)
    if isinstance(payload, bytes):
        body = payload
    else:
        body = json.dumps(payload).encode("utf-8") if payload is not None \
            else b""
    head = {"Host": f"{host}:{port}", "Content-Length": len(body)}
    if payload is not None:
        head["Content-Type"] = "application/json"
    head.update(headers or {})
    # Carry the active trace across the hop (coordinator -> worker,
    # peer-cache lookups) unless the caller pinned its own header.
    get_tracer().inject_headers(head)
    request = write_head(f"{method} {base + path} HTTP/1.1", head) + body

    loop = asyncio.get_running_loop()
    pool = _idle_pool(loop, host, port)
    connection = _take_idle(pool)
    while True:
        reused = connection is not None
        if connection is None:
            _, connection = await asyncio.wait_for(
                loop.create_connection(_ClientConnection, host, port),
                timeout=min(timeout_s, 10.0))
        reply_future = connection.request(request, url, reused, loop)
        deadline = loop.call_later(timeout_s, _expire, reply_future)
        try:
            reply, reusable = await reply_future
        except _Stale:
            connection.close()
            connection = None  # once, on a fresh connection
            continue
        except BaseException:
            connection.close()
            raise
        finally:
            deadline.cancel()
        if reusable and len(pool) < _MAX_IDLE_PER_HOST:
            pool.append(connection)
        else:
            connection.close()
        return reply


async def fetch_json(url: str, method: str = "GET", path: str = "/",
                     payload: Optional[Dict[str, object]] = None,
                     timeout_s: float = 600.0,
                     headers: Optional[Dict[str, str]] = None
                     ) -> Dict[str, object]:
    """:func:`fetch` + JSON decode; non-2xx raises ``RequestError``."""
    reply = await fetch(url, method=method, path=path, payload=payload,
                        timeout_s=timeout_s, headers=headers)
    if not 200 <= reply.status < 300:
        try:
            message = reply.json().get("error", reply.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            message = f"HTTP {reply.status}"
        raise RequestError(reply.status, str(message))
    return reply.json()
