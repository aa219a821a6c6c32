"""Clients for the graph service.

Two implementations of one surface:

* :class:`ServeClient` — synchronous, over one keep-alive socket.  A
  connection the server closed while it sat idle gets exactly one retry
  on a fresh socket.  One instance per thread; the load harness gives
  each worker thread its own.
* :class:`AsyncServeClient` — asyncio streams, one connection per
  request, for callers already inside an event loop.

Both parse responses with :class:`repro.serve.http.ResponseReader`
(status line, headers, and a ``Content-Length``, chunked or read-to-EOF
body, which it de-chunks with one copy), and both reassemble tile
streams through
:func:`repro.serve.stream.assemble_tile_stream`, so every protocol
guarantee (OPEN-first, contiguous indices, stats that add up, ABORT
detection) is enforced identically, and both translate HTTP error
statuses into :class:`~repro.errors.ServeError` with ``status`` set —
callers never parse status codes out of exception strings.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ServeError
from repro.serve.http import ResponseReader
from repro.serve.stream import TileStreamResult, assemble_tile_stream

#: Bytes asked of the socket per read.
_RECV_BYTES = 1 << 16

_JSON = {"Content-Type": "application/json"}


@dataclass
class DesignReply:
    """One design-record response."""

    status: int
    etag: Optional[str]
    #: The response document; ``None`` on a 304 (your cached copy is
    #: still authoritative — it can never be anything else).
    doc: Optional[Dict]

    @property
    def record_doc(self) -> Dict:
        if self.doc is None:
            raise ServeError("304 reply carries no record", status=304)
        return self.doc["record"]


def _design_path(digest: str, *, participation: bool = False) -> str:
    path = f"/v1/design/{digest}"
    if participation:
        path += "?participation=1"
    return path


def _tiles_path(
    digest: str,
    rank: int,
    *,
    start: int = 0,
    stop: Optional[int] = None,
    ranks: Optional[int] = None,
    budget: Optional[int] = None,
) -> str:
    params = [f"start={start}"]
    if stop is not None:
        params.append(f"stop={stop}")
    if ranks is not None:
        params.append(f"ranks={ranks}")
    if budget is not None:
        params.append(f"budget={budget}")
    return f"/v1/tiles/{digest}/{rank}?" + "&".join(params)


_Reply = Tuple[int, Dict[str, str], bytes]


def _raise_for_status(status: int, body: bytes) -> None:
    try:
        message = json.loads(body.decode("utf-8")).get("error", "")
    except (UnicodeDecodeError, ValueError, AttributeError):
        message = body[:200].decode("utf-8", "replace")
    raise ServeError(
        f"server answered {status}: {message or 'no detail'}", status=status
    )


def _doc(reply: _Reply) -> Dict:
    status, _, body = reply
    if status != 200:
        _raise_for_status(status, body)
    return json.loads(body)


def _design_reply(reply: _Reply) -> DesignReply:
    if reply[0] == 304:
        return DesignReply(304, reply[1].get("etag"), None)
    return DesignReply(200, reply[1].get("etag"), _doc(reply))


def _tile_stream(reply: _Reply) -> TileStreamResult:
    status, _, body = reply
    if status != 200:
        _raise_for_status(status, body)
    return assemble_tile_stream(body)


class _Client:
    """The address, the timeout and the request bytes, for both clients."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ServeError(f"unsupported URL scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

    def _request_bytes(self, method, path, body, headers, *, close: bool) -> bytes:
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        if close:
            lines.append("Connection: close")
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        if body:
            lines.append(f"Content-Length: {len(body)}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + (body or b"")


class ServeClient(_Client):
    """Synchronous client (one instance per thread)."""

    _sock: Optional[socket.socket] = None

    # -- plumbing ------------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> _Reply:
        request = self._request_bytes(method, path, body, headers, close=False)
        reused = self._sock is not None
        try:
            try:
                return self._exchange(request)
            except ConnectionError:
                # A keep-alive connection the server closed while it sat
                # idle gets one retry, on a fresh socket.
                self.close()
                if not reused:
                    raise
            return self._exchange(request)
        except OSError as exc:
            self.close()
            raise ServeError(
                f"request to {self.host}:{self.port} failed: {exc}"
            ) from exc
        except ServeError:
            self.close()
            raise

    def _exchange(self, request: bytes) -> _Reply:
        """Send ``request`` on the socket (opened here if there is none)
        and read its response.  Only a failure before the response's
        first byte raises :class:`ConnectionError`."""
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock = self._sock
        sock.sendall(request)
        data = sock.recv(_RECV_BYTES)
        if not data:
            raise ConnectionResetError("connection closed before a response")
        response = ResponseReader()
        try:
            while not response.feed(data):
                data = sock.recv(_RECV_BYTES)
                if not data:
                    response.feed_eof()  # raises unless the body ran to EOF
        except ConnectionError as exc:
            raise ServeError(f"connection lost mid-response: {exc}") from exc
        if not response.keep_alive:
            self.close()
        return response.status, response.headers, response.body

    # -- surface -------------------------------------------------------------
    def health(self) -> Dict:
        return _doc(self._request("GET", "/v1/health"))

    def metrics(self) -> Dict:
        return _doc(self._request("GET", "/v1/metrics"))

    def post_design(self, spec: Dict) -> Dict:
        body = json.dumps(spec).encode("utf-8")
        return _doc(self._request("POST", "/v1/design", body=body, headers=_JSON))

    def get_design(
        self,
        digest: str,
        *,
        etag: Optional[str] = None,
        participation: bool = False,
    ) -> DesignReply:
        path = _design_path(digest, participation=participation)
        headers = {"If-None-Match": etag} if etag else {}
        return _design_reply(self._request("GET", path, headers=headers))

    def fetch_tiles(
        self,
        digest: str,
        rank: int,
        *,
        start: int = 0,
        stop: Optional[int] = None,
        ranks: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> TileStreamResult:
        path = _tiles_path(digest, rank, start=start, stop=stop, ranks=ranks, budget=budget)
        return _tile_stream(self._request("GET", path))


class AsyncServeClient(_Client):
    """Asyncio client (one connection per request)."""

    async def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> _Reply:
        try:
            return await asyncio.wait_for(
                self._exchange(self._request_bytes(method, path, body, headers, close=True)),
                timeout=self.timeout,
            )
        except asyncio.TimeoutError as exc:
            raise ServeError(
                f"request to {self.host}:{self.port} timed out "
                f"after {self.timeout}s"
            ) from exc
        except OSError as exc:
            raise ServeError(
                f"request to {self.host}:{self.port} failed: {exc}"
            ) from exc

    async def _exchange(self, request: bytes) -> _Reply:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(request)
            await writer.drain()
            response = ResponseReader()
            data = await reader.read(_RECV_BYTES)
            while not response.feed(data):
                data = await reader.read(_RECV_BYTES)
                if not data:
                    response.feed_eof()  # raises unless the body ran to EOF
            return response.status, response.headers, response.body
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- surface -------------------------------------------------------------
    async def health(self) -> Dict:
        return _doc(await self._request("GET", "/v1/health"))

    async def metrics(self) -> Dict:
        return _doc(await self._request("GET", "/v1/metrics"))

    async def post_design(self, spec: Dict) -> Dict:
        body = json.dumps(spec).encode("utf-8")
        return _doc(await self._request("POST", "/v1/design", body=body, headers=_JSON))

    async def get_design(
        self,
        digest: str,
        *,
        etag: Optional[str] = None,
        participation: bool = False,
    ) -> DesignReply:
        path = _design_path(digest, participation=participation)
        headers = {"If-None-Match": etag} if etag else {}
        return _design_reply(await self._request("GET", path, headers=headers))

    async def fetch_tiles(
        self,
        digest: str,
        rank: int,
        *,
        start: int = 0,
        stop: Optional[int] = None,
        ranks: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> TileStreamResult:
        path = _tiles_path(digest, rank, start=start, stop=stop, ranks=ranks, budget=budget)
        return _tile_stream(await self._request("GET", path))


__all__ = ["AsyncServeClient", "DesignReply", "ServeClient"]
