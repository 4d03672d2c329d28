"""Minimal asyncio HTTP/1.1 plumbing for the cluster (stdlib only).

Every HTTP node -- the worker that ``loom-repro serve`` runs and the
cluster coordinator -- serves from one event loop on
:func:`asyncio.start_server`.  This module is the transport both node kinds
use:

* :class:`AsyncHTTPServer` -- accepts connections on its own event loop in
  a background thread (so nodes embed in tests and the CLI as plain
  objects), parses requests, and hands ``(request, responder)`` pairs to
  an async handler.  Keep-alive
  connections serve sequential requests; slow or idle peers are timed out
  instead of pinning resources, and ``stop()`` drops idle connections at
  once.
* :class:`HTTPResponder` -- plain ``Content-Length`` JSON responses, plus
  **chunked** streaming (``start_stream``/``write_chunk``/``finish``) for
  NDJSON result streams and ``text/event-stream`` SSE -- the transfer
  encodings that let ``/explore`` deliver results before a sweep finishes.
  A response after which the server closes the socket says
  ``Connection: close``.
* :func:`fetch` -- a small async HTTP/1.1 client (the coordinator's
  shard-facing side and the peer cache tier) over a pool of idle
  keep-alive connections per (event loop, host, port).  A pooled
  connection the server closed meanwhile is retried once on a fresh one;
  every other failure raises, so a dead worker is still detected on the
  request that meets it.

Nothing here knows about jobs or shards; it is transport only.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import weakref
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.trace import get_tracer

__all__ = ["AsyncHTTPServer", "HTTPReply", "HTTPRequest", "HTTPResponder",
           "RequestError", "TIMEOUTS", "close_idle_connections", "fetch",
           "fetch_json"]

#: Every spelling of a timeout (distinct classes before Python 3.11).
TIMEOUTS = (TimeoutError, asyncio.TimeoutError,
            concurrent.futures.TimeoutError)

#: Largest request body a node accepts (a sweep spec is tiny; anything
#: bigger is a client bug, not a workload).
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Largest request head (request line + headers).
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


class RequestError(Exception):
    """A request answered with ``status`` (400/404/413/429/503, ...)."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


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

    def __init__(self, writer: asyncio.StreamWriter, server_tag: str) -> None:
        self._writer = writer
        self._server_tag = server_tag
        self.responded = False
        self.streaming = False
        self.status: Optional[int] = None
        #: The server closes the connection after this response; set it
        #: before responding and the head announces ``Connection: close``.
        self.close_after = False
        #: Correlation id echoed as ``X-Request-Id`` on the response.
        self.request_id: Optional[str] = None
        #: Called with the status once, just before the response head is
        #: written, so whatever it counts is visible before the client can
        #: read the answer.
        self.on_head: Optional[Callable[[int], None]] = None

    def _begin(self, status: int) -> None:
        """Claim this request's one response."""
        if self.responded:
            raise RuntimeError("response already sent")
        self.responded = True
        self.status = status
        if self.on_head is not None:
            self.on_head(status)

    def _head(self, status: int, headers: Dict[str, str]) -> bytes:
        reason = _REASONS.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Server: {self._server_tag}"]
        if self.request_id:
            lines.append(f"X-Request-Id: {self.request_id}")
        if self.close_after:
            lines.append("Connection: close")
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def send(self, status: int, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._begin(status)
        head = {"Content-Type": content_type,
                "Content-Length": str(len(body))}
        head.update(headers or {})
        self._writer.write(self._head(status, head) + body)
        await self._writer.drain()

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
        self._begin(200)
        self.streaming = True
        head = {"Content-Type": content_type,
                "Transfer-Encoding": "chunked",
                "Cache-Control": "no-store"}
        head.update(headers or {})
        self._writer.write(self._head(200, head))
        await self._writer.drain()

    async def write_chunk(self, data: bytes) -> None:
        if not data:
            return  # a zero-size chunk would terminate the stream
        self._writer.write(f"{len(data):x}\r\n".encode("latin-1") + data
                           + b"\r\n")
        await self._writer.drain()

    async def finish_stream(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
        self.streaming = False

    # -- SSE convenience ------------------------------------------------------

    async def write_event(self, event: str, data: Dict[str, object]) -> None:
        """One server-sent event carrying a JSON payload."""
        payload = json.dumps(data)
        await self.write_chunk(
            f"event: {event}\ndata: {payload}\n\n".encode("utf-8"))


async def _read_request(reader: asyncio.StreamReader,
                        client: str) -> Optional[HTTPRequest]:
    """Parse one request; ``None`` on clean EOF before a request line."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise RequestError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise RequestError(413, "request head too large") from None
    if len(head) > _MAX_HEAD_BYTES:
        raise RequestError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise RequestError(400, f"bad request line {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise RequestError(400, f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length") or 0)
    if length > MAX_BODY_BYTES:
        raise RequestError(413,
                           f"request body too large ({length} bytes, "
                           f"limit {MAX_BODY_BYTES})")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return HTTPRequest(method=method, path=path, headers=headers, body=body,
                       client=client)


Handler = Callable[[HTTPRequest, HTTPResponder], Awaitable[None]]


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
        self._connections: set = set()
        #: Writers of connections waiting for their next request (stop()
        #: closes these at once; the rest are mid-request and get drained).
        self._idle: set = set()
        self._stopping = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection loop ------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername") or ("?", 0)
        client = f"{peer[0]}:{peer[1]}"
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._stopping:
                self._idle.add(writer)
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader, client),
                        timeout=_KEEPALIVE_TIMEOUT_S)
                except (asyncio.TimeoutError, ConnectionError):
                    break
                except RequestError as error:
                    responder = HTTPResponder(writer, self.server_tag)
                    responder.close_after = True
                    with _swallow_connection_errors():
                        await responder.send_json(
                            error.status, {"error": error.message})
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                responder = HTTPResponder(writer, self.server_tag)
                try:
                    await self.handler(request, responder)
                except RequestError as error:
                    await self._best_effort_error(responder, error.status,
                                                  error.message)
                except ConnectionError:
                    break
                except Exception as error:
                    await self._best_effort_error(
                        responder, 500, f"{type(error).__name__}: {error}")
                if not responder.responded:
                    await self._best_effort_error(responder, 500,
                                                  "handler sent no response")
                if responder.streaming or responder.close_after or \
                        request.headers.get("connection", "") == "close":
                    break
        finally:
            self._connections.discard(task)
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _best_effort_error(responder: HTTPResponder, status: int,
                                 message: str) -> None:
        with _swallow_connection_errors():
            if responder.streaming:
                # Mid-stream failure: terminate the stream with an error
                # event so the client sees a clean end, not a hung socket.
                await responder.write_event("error", {"error": message})
                await responder.finish_stream()
                responder.close_after = True
            elif not responder.responded:
                await responder.send_json(status, {"error": message})

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
                self._server = await asyncio.start_server(
                    self._serve_connection, host=self.host, port=self.port)
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
            # drain: close it now rather than wait out its idle timeout
            # (its task then reads EOF and ends).
            for writer in list(self._idle):
                writer.close()
            pending = {task for task in self._connections
                       if task is not asyncio.current_task()}
            if pending:
                await asyncio.wait(pending, timeout=drain_timeout_s)
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
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


#: Idle keep-alive connections by event loop, then by (host, port).  Only
#: the owning loop's thread touches a loop's pool; the lock guards the map.
_IDLE: "weakref.WeakKeyDictionary[asyncio.AbstractEventLoop, " \
    "Dict[Tuple[str, int], List[tuple]]]" = weakref.WeakKeyDictionary()
_IDLE_LOCK = threading.Lock()


def _idle_pool(host: str, port: int) -> List[tuple]:
    """The running loop's idle ``(reader, writer)`` pairs for host:port."""
    loop = asyncio.get_running_loop()
    with _IDLE_LOCK:
        by_host = _IDLE.get(loop)
        if by_host is None:
            # A pooled transport references its loop, so a loop closed
            # without close_idle_connections() would never leave the map.
            for closed in [other for other in _IDLE if other.is_closed()]:
                del _IDLE[closed]
            by_host = _IDLE[loop] = {}
    return by_host.setdefault((host, port), [])


def _take_idle(pool: List[tuple]) -> Optional[tuple]:
    """A pooled connection that still looks open, or ``None``."""
    while pool:
        reader, writer = pool.pop()
        if reader.at_eof() or reader.exception() is not None \
                or writer.is_closing():
            writer.close()
            continue
        return reader, writer
    return None


async def close_idle_connections() -> None:
    """Close every idle pooled connection of the running loop (a loop
    that is about to stop calls this so no transport outlives it)."""
    with _IDLE_LOCK:
        by_host = _IDLE.pop(asyncio.get_running_loop(), {})
    for pool in by_host.values():
        for _reader, writer in pool:
            writer.close()


class _Stale(Exception):
    """A pooled connection was closed by the server before any response
    byte arrived: safe to send the request again on a fresh one."""


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, request: bytes, url: str,
                    timeout_s: float, reused: bool) -> Tuple[HTTPReply, bool]:
    """Send ``request``, read one response; ``(reply, reusable)``."""
    try:
        writer.write(request)
        await writer.drain()
        raw_head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          timeout=timeout_s)
    except asyncio.IncompleteReadError as error:
        if reused and not error.partial:
            raise _Stale() from error
        raise ConnectionError(f"{url} hung up mid-response") from error
    except ConnectionError:
        if reused:
            raise _Stale() from None
        raise
    status_line, *header_lines = raw_head.decode("latin-1").split("\r\n")
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ConnectionError(f"bad status line from {url}: "
                              f"{status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        if "content-length" in headers:
            body = await asyncio.wait_for(
                reader.readexactly(int(headers["content-length"])),
                timeout=timeout_s)
        else:
            # No length: the body runs to EOF, which ends the connection.
            body = await asyncio.wait_for(reader.read(), timeout=timeout_s)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError(f"{url} hung up mid-response") from error
    reusable = ("content-length" in headers
                and headers.get("connection", "").lower() != "close")
    return HTTPReply(status=status, headers=headers, body=body), reusable


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
    head = {"Host": f"{host}:{port}", "Content-Length": str(len(body))}
    if payload is not None:
        head["Content-Type"] = "application/json"
    head.update(headers or {})
    # Carry the active trace across the hop (coordinator -> worker,
    # peer-cache lookups) unless the caller pinned its own header.
    get_tracer().inject_headers(head)
    lines = [f"{method} {base + path} HTTP/1.1"]
    lines.extend(f"{name}: {value}" for name, value in head.items())
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    pool = _idle_pool(host, port)
    connection = _take_idle(pool)
    while True:
        reused = connection is not None
        if connection is None:
            connection = await asyncio.wait_for(
                asyncio.open_connection(host, port),
                timeout=min(timeout_s, 10.0))
        reader, writer = connection
        try:
            reply, reusable = await _exchange(reader, writer, request, url,
                                              timeout_s, reused)
        except _Stale:
            writer.close()
            connection = None  # once, on a fresh connection
            continue
        except BaseException:
            writer.close()
            raise
        if reusable and len(pool) < _MAX_IDLE_PER_HOST:
            pool.append(connection)
        else:
            writer.close()
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
