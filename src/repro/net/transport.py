"""Tile transports: how encoded frames move between processes.

A transport endpoint is anything satisfying :class:`TileTransport` —
``send_frame(bytes)`` / ``recv_frame(timeout=...)`` / ``close()`` over an
ordered, reliable, bidirectional byte channel.  The protocol layer
(:mod:`repro.net.sink`) never sees *how* frames move, so the two
implementations are interchangeable:

* :class:`InProcessTransport` — a pair of ``queue.Queue`` ends in one
  process.  Deterministic and dependency-free: the unit-test and
  conformance-suite workhorse.
* :class:`SocketTransport` — length-prefixed frames over a TCP
  connection (localhost by default).  Real serialization, real kernel
  buffering, runs in CI.

:func:`local_pair` builds a connected (producer, collector) endpoint
pair for single-machine runs — what ``generate_to_disk(transport=...)``
and the CLI use.
"""

from __future__ import annotations

import queue
import socket
import struct
from typing import List, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import (
    TransportClosedError,
    TransportError,
    TransportTimeoutError,
)
from repro.net.codec import MAX_FRAME_BYTES

#: Default blocking-receive timeout (seconds) for local transports.
DEFAULT_RECV_TIMEOUT_S = 30.0


@runtime_checkable
class TileTransport(Protocol):
    """One endpoint of an ordered, reliable, bidirectional frame channel.

    ``send_frame`` must deliver frames in order; ``recv_frame`` blocks up
    to ``timeout`` seconds (:class:`~repro.errors.TransportTimeoutError`
    on expiry, :class:`~repro.errors.TransportClosedError` once the peer
    is gone).  ``close`` is idempotent and unblocks the peer.
    """

    name: str

    def send_frame(self, frame: bytes) -> None: ...

    def recv_frame(self, timeout: Optional[float] = None) -> bytes: ...

    def close(self) -> None: ...


# -- in-process ---------------------------------------------------------------
#: Sentinel a closing endpoint pushes so its peer's recv unblocks.
_CLOSED = object()


class InProcessTransport:
    """One end of a queue pair inside a single process.

    Build connected ends with :meth:`pair`.  Frames are byte strings on a
    ``queue.Queue``, so ordering is exact and the codec path is identical
    to the networked transports — only the wire is simulated.
    """

    name = "inproc"

    def __init__(self, send_q: "queue.Queue", recv_q: "queue.Queue") -> None:
        self._send_q = send_q
        self._recv_q = recv_q
        self._closed = False

    @classmethod
    def pair(cls) -> Tuple["InProcessTransport", "InProcessTransport"]:
        """A connected (a, b) endpoint pair: a.send → b.recv and back."""
        ab: "queue.Queue" = queue.Queue()
        ba: "queue.Queue" = queue.Queue()
        return cls(ab, ba), cls(ba, ab)

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosedError("send on a closed inproc endpoint")
        self._send_q.put(bytes(frame))

    def recv_frame(self, timeout: Optional[float] = None) -> bytes:
        if self._closed:
            raise TransportClosedError("recv on a closed inproc endpoint")
        try:
            item = self._recv_q.get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeoutError(
                f"no frame within {timeout}s on inproc endpoint"
            ) from None
        if item is _CLOSED:
            # Put it back so repeated recv calls keep reporting closure.
            self._recv_q.put(_CLOSED)
            raise TransportClosedError("peer closed the inproc channel")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._send_q.put(_CLOSED)


# -- TCP sockets --------------------------------------------------------------
_LEN_PREFIX = struct.Struct(">I")


class SocketTransport:
    """Length-prefixed frames over a connected TCP socket.

    Each frame travels as a 4-byte big-endian length followed by the
    frame bytes.  A short read (peer died mid-frame) raises
    :class:`~repro.errors.TransportClosedError`; an insane length prefix
    is treated as corruption (:class:`~repro.errors.TransportError`)
    rather than an allocation request.
    """

    name = "socket"

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._closed = False

    @classmethod
    def connect(
        cls, address: Tuple[str, int], *, timeout: float = DEFAULT_RECV_TIMEOUT_S
    ) -> "SocketTransport":
        """Connect to a listening collector at ``(host, port)``."""
        try:
            sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {address}: {exc}") from exc
        return cls(sock)

    def _recv_exact(self, nbytes: int, timeout: Optional[float]) -> bytes:
        self._sock.settimeout(timeout)
        chunks: List[bytes] = []
        remaining = nbytes
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout:
                raise TransportTimeoutError(
                    f"no frame within {timeout}s on socket endpoint"
                ) from None
            except OSError as exc:
                raise TransportClosedError(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise TransportClosedError(
                    f"peer closed the socket with {remaining} of {nbytes} "
                    "bytes outstanding"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosedError("send on a closed socket endpoint")
        try:
            self._sock.sendall(_LEN_PREFIX.pack(len(frame)) + frame)
        except OSError as exc:
            raise TransportClosedError(f"socket send failed: {exc}") from exc

    def recv_frame(self, timeout: Optional[float] = None) -> bytes:
        if self._closed:
            raise TransportClosedError("recv on a closed socket endpoint")
        (length,) = _LEN_PREFIX.unpack(self._recv_exact(_LEN_PREFIX.size, timeout))
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame length prefix {length} exceeds {MAX_FRAME_BYTES}; "
                "refusing as corrupt"
            )
        return self._recv_exact(length, timeout)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class SocketListener:
    """A listening TCP endpoint the collector accepts one producer from."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(1)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
        self._sock = sock

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` producers connect to."""
        return self._sock.getsockname()[:2]

    def accept(self, *, timeout: Optional[float] = None) -> SocketTransport:
        self._sock.settimeout(timeout)
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            raise TransportTimeoutError(
                f"no producer connected within {timeout}s"
            ) from None
        except OSError as exc:
            raise TransportClosedError(f"listener accept failed: {exc}") from exc
        return SocketTransport(conn)

    def close(self) -> None:
        self._sock.close()


# -- registry -----------------------------------------------------------------
#: Registered transport names, in registration order.
_TRANSPORTS = ("inproc", "socket")


def list_transports() -> List[str]:
    """Names accepted by ``--transport`` and :func:`local_pair`."""
    return list(_TRANSPORTS)


def local_pair(
    name: str,
) -> Tuple[TileTransport, TileTransport]:
    """A connected (producer, collector) endpoint pair on this machine.

    ``inproc`` is a queue pair; ``socket`` is a real localhost TCP
    connection (ephemeral port).
    """
    if name == "inproc":
        return InProcessTransport.pair()
    if name == "socket":
        listener = SocketListener()
        try:
            producer = SocketTransport.connect(listener.address)
            collector = listener.accept(timeout=DEFAULT_RECV_TIMEOUT_S)
        finally:
            listener.close()
        return producer, collector
    raise TransportError(
        f"unknown transport {name!r}; choose from {list_transports()}"
    )


__all__ = [
    "DEFAULT_RECV_TIMEOUT_S",
    "InProcessTransport",
    "SocketListener",
    "SocketTransport",
    "TileTransport",
    "list_transports",
    "local_pair",
]
