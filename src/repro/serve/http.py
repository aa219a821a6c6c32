"""A minimal asyncio HTTP/1.1 layer for the graph service.

Zero dependencies by design: the container the service ships in has the
numpy toolchain and nothing else, so :mod:`repro.serve` speaks HTTP
through ``asyncio`` streams directly.  The surface is deliberately
small — exactly what the design/tile endpoints need:

* :func:`read_request` — parse one request (request line, headers,
  ``Content-Length`` body) with hard limits on header and body size;
* :class:`Request` — method, path, parsed query, headers, body;
* :func:`json_response` / :func:`empty_response` — the bytes of a
  fixed-length response (the design server prebuilds them for warm
  records), and :func:`send_json`, which writes a JSON one;
* :class:`ChunkedWriter` — a ``Transfer-Encoding: chunked`` response
  body, one chunk per :mod:`repro.net` frame, so the tile stream's
  framing survives any HTTP client that honours chunk boundaries or
  not (the frame codec carries its own lengths and CRCs).

Malformed syntax raises :class:`BadRequest` (the server answers 400 and
closes); everything here is transport-shaped, so no repro error types
leak into the wire layer.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, Optional
from urllib.parse import unquote, urlsplit

from repro._version import __version__

#: Upper bound on one request's header section (request line included).
MAX_HEADER_BYTES = 32 * 1024

#: Default upper bound on a request body (the design specs this service
#: accepts are a few hundred bytes; anything near this is abuse).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Status phrases for the codes this service emits.
STATUS_PHRASES = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_SERVER_NAME = f"repro-serve/{__version__}"


class BadRequest(Exception):
    """The request bytes are not parseable HTTP (answer 400, close)."""


class PayloadTooLarge(Exception):
    """Headers or body exceed the configured limits (answer 413)."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    #: Raw request target as received (for logging/span attributes).
    target: str = ""
    #: ``time.perf_counter()`` when the request line arrived, so the
    #: parse time excludes the keep-alive wait before it.
    arrived: float = 0.0

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Optional[Request]:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`BadRequest` for syntax damage and
    :class:`PayloadTooLarge` when the declared body exceeds
    ``max_body_bytes`` (the caller answers 413 without reading it).
    """
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError) as exc:
        raise BadRequest(f"unreadable request line: {exc}") from exc
    if not line:
        return None
    arrived = time.perf_counter()
    if len(line) > MAX_HEADER_BYTES:
        raise BadRequest("request line exceeds the header budget")
    try:
        method, target, version = line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError) as exc:
        raise BadRequest(f"malformed request line {line!r}") from exc
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    header_bytes = len(line)
    while True:
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError) as exc:
            raise BadRequest(f"unreadable header line: {exc}") from exc
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest("header section exceeds the header budget")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise BadRequest("connection closed mid-headers")
        try:
            name, _, value = line.decode("ascii").partition(":")
        except UnicodeDecodeError as exc:
            raise BadRequest(f"non-ASCII header line {line!r}") from exc
        if not _ or not name.strip():
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise BadRequest(
                f"bad Content-Length {headers['content-length']!r}"
            ) from exc
        if length < 0:
            raise BadRequest("negative Content-Length")
        if length > max_body_bytes:
            raise PayloadTooLarge(
                f"body of {length} bytes exceeds the {max_body_bytes}-byte limit"
            )
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise BadRequest("connection closed mid-body") from exc
    elif headers.get("transfer-encoding"):
        # The service never needs chunked *requests*; refusing keeps the
        # parser single-pass and the attack surface small.
        raise BadRequest("chunked request bodies are not supported")
    split = urlsplit(target)
    query: Dict[str, str] = {}
    if split.query:
        for part in split.query.split("&"):
            if not part:
                continue
            key, _, value = part.partition("=")
            query[unquote(key)] = unquote(value)
    return Request(
        method=method.upper(),
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
        target=target,
        arrived=arrived,
    )


def _head(
    status: int,
    headers: Dict[str, str],
    *,
    content_length: Optional[int] = None,
    chunked: bool = False,
) -> bytes:
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}", f"Server: {_SERVER_NAME}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    lines.append("")
    lines.append("")
    return "\r\n".join(lines).encode("ascii")


def json_response(
    status: int, doc, *, headers: Optional[Dict[str, str]] = None
) -> bytes:
    """The bytes of one fixed-length JSON response (head and body)."""
    body = (json.dumps(doc, sort_keys=True) + "\n").encode("ascii")
    head = dict(headers or {})
    head.setdefault("Content-Type", "application/json")
    return _head(status, head, content_length=len(body)) + body


def empty_response(
    status: int, *, headers: Optional[Dict[str, str]] = None
) -> bytes:
    """The bytes of one bodyless response (304 and friends)."""
    return _head(status, dict(headers or {}), content_length=0)


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    doc,
    *,
    headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write one fixed-length JSON response."""
    writer.write(json_response(status, doc, headers=headers))
    await writer.drain()


class ChunkedWriter:
    """A chunked response body: one ``write`` per chunk, then ``close``.

    The head is sent lazily on the first chunk, which lets a handler
    still answer a clean error status if tile generation fails before
    any byte went out.  ``started`` tells the caller which world it is
    in (pre-head errors → HTTP status; post-head errors → an ABORT
    frame inside the stream).
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        *,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._writer = writer
        self._status = status
        self._headers = dict(headers or {})
        self.started = False
        self.bytes_sent = 0

    async def write(self, data: bytes) -> None:
        if not self.started:
            self._writer.write(
                _head(self._status, self._headers, chunked=True)
            )
            self.started = True
        self._writer.write(f"{len(data):x}\r\n".encode("ascii"))
        self._writer.write(data)
        self._writer.write(b"\r\n")
        self.bytes_sent += len(data)
        await self._writer.drain()

    async def close(self) -> None:
        if not self.started:
            # An empty stream is still a valid chunked body.
            self._writer.write(
                _head(self._status, self._headers, chunked=True)
            )
            self.started = True
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


__all__ = [
    "BadRequest",
    "ChunkedWriter",
    "DEFAULT_MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "PayloadTooLarge",
    "Request",
    "empty_response",
    "json_response",
    "read_request",
    "send_json",
]
