"""The one framing of result texts in HTTP bodies.

A result crosses every hop as its JSON text
(:meth:`~repro.sim.results.NetworkResult.to_json`), and nodes splice those
texts into bodies instead of decoding and re-encoding them.  This module is
the only code that knows how:

* an **entry** (one resolved point) is
  ``{"key": "<key>", "status": "<status>", "result": <text>}``;
* a ``POST /jobs`` batch answer frames one entry per line,
  ``{"results": [\\n<entry>,\\n<entry>\\n]}``;
* a ``POST /cache/lookup`` answer frames texts by key, one per line:
  ``{"results": {\\n"<key>": <text>,\\n...\\n}}``.  An empty frame is
  ``{"results": {}}``.

Key order and separators are the ones ``json.dumps`` produces, so every
body is one plain JSON document to any client.  ``json.dumps`` output never
holds a raw newline, so lines delimit items safely: a node checks a frame
and counts its items without parsing a single result.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Sequence

__all__ = ["entry", "frame_entries", "frame_texts", "ndjson_line",
           "unframe_entries", "unframe_texts"]


def _string(value: str) -> bytes:
    if value.isascii() and value.isalnum():  # nothing to escape
        return b'"%s"' % value.encode("ascii")
    return json.dumps(value).encode("utf-8")


def entry(key: str, status: str, text: str) -> bytes:
    """One resolved point, as ``json.dumps`` would write it."""
    return b'{"key": %s, "status": %s, "result": %s}' % (
        _string(key), _string(status), text.encode("utf-8"))


def ndjson_line(index: int, entry_bytes: bytes) -> bytes:
    """A streamed ``POST /jobs`` line: the entry with ``index`` first."""
    return b'{"index": %d, %s\n' % (index, entry_bytes[1:])


def _frame(items: Sequence[bytes], brackets: bytes) -> bytes:
    head = b'{"results": ' + brackets[:1]
    tail = brackets[1:] + b"}"
    if not items:
        return head + tail
    return head + b"\n" + b",\n".join(items) + b"\n" + tail


def _unframe(body: bytes, brackets: bytes) -> List[bytes]:
    head = b'{"results": ' + brackets[:1]
    tail = brackets[1:] + b"}"
    if body == head + tail:
        return []
    if not (body.startswith(head + b"\n") and body.endswith(b"\n" + tail)):
        raise ValueError("body is not a framed 'results' document")
    return body[len(head) + 1:-len(tail) - 1].split(b",\n")


def frame_entries(entries: Sequence[bytes]) -> bytes:
    """A ``POST /jobs`` batch answer over ``entries`` (in order)."""
    return _frame(entries, b"[]")


def unframe_entries(body: bytes) -> List[bytes]:
    """The entries of a :func:`frame_entries` body; ``ValueError`` when
    the body is not one."""
    return _unframe(body, b"[]")


def frame_texts(texts: Mapping[str, str]) -> bytes:
    """``{"results": {"<key>": <text>, ...}}``, one key per line."""
    return _frame([_string(key) + b": " + text.encode("utf-8")
                   for key, text in texts.items()], b"{}")


def unframe_texts(body: bytes) -> Dict[str, str]:
    """The ``{key: text}`` of a :func:`frame_texts` body, texts unparsed;
    ``ValueError`` when the body is not one."""
    texts: Dict[str, str] = {}
    for item in _unframe(body, b"{}"):
        line = item.decode("utf-8")
        if not line.startswith('"'):
            raise ValueError(f"bad result item: {line[:40]!r}")
        key, end = json.decoder.scanstring(line, 1)
        if line[end:end + 2] != ": ":
            raise ValueError(f"bad result item: {line[:40]!r}")
        texts[key] = line[end + 2:]
    return texts
