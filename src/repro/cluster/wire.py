"""The one framing of results in HTTP bodies: packed between nodes, JSON
at the edge.

Between nodes a result travels as its packed bytes
(:meth:`~repro.sim.results.NetworkResult.to_packed`), and nodes splice
those bytes into bodies instead of decoding and re-encoding them.  This
module is the only code that knows how.

**Packed** (media type :data:`PACKED`; all integers little-endian):

* an **entry** (one resolved point) is a ``uint16`` key length, a
  ``uint8`` status length, the UTF-8 key and status, then the packed
  result (:func:`packed_entry` / :func:`unpack_entry`);
* a **frame** is the magic ``b"LRF1"`` and a ``uint32`` entry count, then
  each entry behind its ``uint32`` length (:func:`frame` /
  :func:`unframe`).  Lengths, not line breaks, delimit entries, because
  packed bytes can hold any byte.  A ``POST /jobs`` answer frames its
  entries in submission order; a ``POST /cache/lookup`` answer frames one
  ``cached`` entry per key found.  A streamed answer sends the same frame
  as it resolves (:func:`frame_head`, then one :func:`record` per entry);
  a stream that fails puts an :func:`error_record` where the next entry
  would be.

**JSON**, rendered only for clients that ask for it:

* an **entry** is ``{"key": "<key>", "status": "<status>", "result":
  <text>}`` (:func:`entry`, or :func:`json_entry` from a packed one);
* a ``POST /jobs`` batch answer frames one entry per line,
  ``{"results": [\\n<entry>,\\n<entry>\\n]}`` (:func:`frame_entries`);
* a streamed answer is NDJSON, one :func:`ndjson_line` per entry.

Key order and separators are the ones ``json.dumps`` produces, so every
JSON body is one plain JSON document to any client.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.sim.results import NetworkResult

__all__ = ["PACKED", "StreamError", "entry", "error_record", "frame",
           "frame_entries", "frame_head", "iter_frame", "json_entry",
           "ndjson_line", "packed_entry", "record", "unframe",
           "unpack_entry"]

#: The media type of a packed frame.
PACKED = "application/x-loom-packed"

_MAGIC = b"LRF1"
_HEAD = struct.Struct("<4sI")
_LENGTH = struct.Struct("<I")
_ENTRY = struct.Struct("<HB")
#: The length that marks a stream's error record.
_ERROR = 0xFFFFFFFF


class StreamError(ValueError):
    """A streamed frame ended in an error record; ``payload`` holds its
    ``{"error": ..., "status": ...}``."""

    def __init__(self, payload: object) -> None:
        self.payload = payload if isinstance(payload, dict) else {}
        super().__init__(str(self.payload.get("error", "stream failed")))


# -- packed ------------------------------------------------------------------


def packed_entry(key: str, status: str, packed: bytes) -> bytes:
    """One resolved point: its key, status and packed result."""
    key_bytes, status_bytes = key.encode("utf-8"), status.encode("utf-8")
    return (_ENTRY.pack(len(key_bytes), len(status_bytes)) + key_bytes
            + status_bytes + packed)


def unpack_entry(data: bytes) -> Tuple[str, str, bytes]:
    """``(key, status, packed)`` of a :func:`packed_entry`; ``ValueError``
    when ``data`` is not one."""
    try:
        key_size, status_size = _ENTRY.unpack_from(data)
    except struct.error:
        raise ValueError("packed entry is too short") from None
    start = _ENTRY.size + key_size
    end = start + status_size
    if len(data) < end:
        raise ValueError("packed entry is truncated")
    return (data[_ENTRY.size:start].decode("utf-8"),
            data[start:end].decode("utf-8"), data[end:])


def frame_head(count: int) -> bytes:
    """The start of a frame of ``count`` entries."""
    return _HEAD.pack(_MAGIC, count)


def record(entry_bytes: bytes) -> bytes:
    """One entry of a frame, behind its length."""
    return _LENGTH.pack(len(entry_bytes)) + entry_bytes


def error_record(status: int, message: str) -> bytes:
    """What a failed stream sends where its next entry would be."""
    payload = json.dumps({"error": message, "status": status}).encode("utf-8")
    return _LENGTH.pack(_ERROR) + record(payload)


def frame(entries: Sequence[bytes]) -> bytes:
    """A whole frame over ``entries`` (in order)."""
    parts = [frame_head(len(entries))]
    for entry_bytes in entries:
        parts.append(_LENGTH.pack(len(entry_bytes)))
        parts.append(entry_bytes)
    return b"".join(parts)


def iter_frame(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """The entries of a frame, read with ``read(size)`` (which returns
    exactly ``size`` bytes) as they arrive.  Raises ``ValueError`` when
    the bytes are not a frame and :class:`StreamError` at an error
    record."""
    magic, count = _HEAD.unpack(read(_HEAD.size))
    if magic != _MAGIC:
        raise ValueError(f"not a packed frame (magic {magic!r})")
    for _ in range(count):
        (size,) = _LENGTH.unpack(read(_LENGTH.size))
        if size == _ERROR:
            (size,) = _LENGTH.unpack(read(_LENGTH.size))
            raise StreamError(json.loads(read(size)))
        yield read(size)


def unframe(body: bytes) -> List[bytes]:
    """The entries of a whole :func:`frame`; ``ValueError`` when ``body``
    is not exactly one (a truncated one included)."""
    offset = 0

    def read(size: int) -> bytes:
        nonlocal offset
        end = offset + size
        if end > len(body):
            raise ValueError("packed frame is truncated")
        data = body[offset:end]
        offset = end
        return data

    entries = list(iter_frame(read))
    if offset != len(body):
        raise ValueError("packed frame has trailing bytes")
    return entries


# -- JSON at the edge ----------------------------------------------------------


def _string(value: str) -> bytes:
    if value.isascii() and value.isalnum():  # nothing to escape
        return b'"%s"' % value.encode("ascii")
    return json.dumps(value).encode("utf-8")


def entry(key: str, status: str, text: str) -> bytes:
    """One resolved point as JSON, as ``json.dumps`` would write it."""
    return b'{"key": %s, "status": %s, "result": %s}' % (
        _string(key), _string(status), text.encode("utf-8"))


def json_entry(entry_bytes: bytes) -> bytes:
    """The JSON :func:`entry` of a :func:`packed_entry`."""
    key, status, packed = unpack_entry(entry_bytes)
    return entry(key, status, NetworkResult.from_packed(packed).to_json())


def ndjson_line(index: int, entry_bytes: bytes) -> bytes:
    """A streamed ``POST /jobs`` line: the JSON entry with ``index``
    first."""
    return b'{"index": %d, %s\n' % (index, entry_bytes[1:])


def frame_entries(entries: Sequence[bytes]) -> bytes:
    """A JSON ``POST /jobs`` batch answer over ``entries`` (in order)."""
    if not entries:
        return b'{"results": []}'
    return b'{"results": [\n' + b",\n".join(entries) + b"\n]}"
