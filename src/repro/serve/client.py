"""The client for the graph service.

:class:`ServeClient` is synchronous, over one keep-alive socket.  A
connection the server closed while it sat idle gets exactly one retry
on a fresh socket.  One instance per thread; the load harness gives
each worker thread its own.

It parses responses with :class:`repro.serve.http.ResponseReader`
(status line, headers, and a ``Content-Length``, chunked or read-to-EOF
body, which it de-chunks with one copy) and reassembles tile streams
through :func:`repro.serve.stream.assemble_tile_stream`, so every
protocol guarantee (OPEN-first, contiguous indices, stats that add up,
ABORT detection) is enforced, and it translates HTTP error statuses
into :class:`~repro.errors.ServeError` with ``status`` set — callers
never parse status codes out of exception strings.
"""

from __future__ import annotations

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


class ServeClient:
    """Synchronous client (one instance per thread)."""

    _sock: Optional[socket.socket] = None

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ServeError(f"unsupported URL scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

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
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        if body:
            lines.append(f"Content-Length: {len(body)}")
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + (body or b"")
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
        path = f"/v1/design/{digest}"
        if participation:
            path += "?participation=1"
        headers = {"If-None-Match": etag} if etag else {}
        reply = self._request("GET", path, headers=headers)
        if reply[0] == 304:
            return DesignReply(304, reply[1].get("etag"), None)
        return DesignReply(200, reply[1].get("etag"), _doc(reply))

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
        params = [f"start={start}"]
        for name, value in (("stop", stop), ("ranks", ranks), ("budget", budget)):
            if value is not None:
                params.append(f"{name}={value}")
        path = f"/v1/tiles/{digest}/{rank}?" + "&".join(params)
        status, _, body = self._request("GET", path)
        if status != 200:
            _raise_for_status(status, body)
        return assemble_tile_stream(body)


__all__ = ["DesignReply", "ServeClient"]
