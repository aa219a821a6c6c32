"""Client-side reassembly of a served tile stream.

The server answers ``GET /v1/tiles/...`` with a chunked HTTP body whose
payload is a sequence of :mod:`repro.net` frames::

    OPEN   control doc: digest, rank, ranks, start, stop, model, budget
    TILE*  one frame per tile, ``tile_index`` = absolute index in the
           rank's tile sequence, payload = the triple arrays
    COMMIT control doc: tiles sent, nnz total
    RESULT control doc: stream summary (echoes the commit stats)

HTTP chunk boundaries carry **no** protocol meaning — the frame codec's
own length prefix and CRC are the authority — so the assembler here is
purely incremental: feed it whatever byte slices arrive, take whole
decoded frames out.  :class:`TileStream` layers the protocol state
machine on top and is the single place the client-side contract lives:
OPEN first, contiguous tile indices, stats that add up, no trailing
bytes.  Violations raise :class:`~repro.errors.ServeProtocolError` —
a torn stream never yields a silently-wrong tile set.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServeProtocolError
from repro.net.codec import (
    FRAME_ABORT,
    FRAME_COMMIT,
    FRAME_NAMES,
    FRAME_OPEN,
    FRAME_RESULT,
    FRAME_TILE,
    Frame,
    HEADER_BYTES,
    decode_control_payload,
    decode_frame,
    decode_tile_views,
)

_LENGTH_OFFSET = HEADER_BYTES - 4  # payload length is the header's last field


class FrameAssembler:
    """Incremental byte→frame reassembly (no protocol knowledge).

    ``feed`` accepts arbitrary byte slices and returns every frame that
    became complete; partial frames wait in the buffer for more bytes.
    Each frame is copied out once (its payload is a view of that copy);
    ``finish`` asserts nothing is left half-delivered.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        while len(self._buffer) >= HEADER_BYTES:
            (length,) = struct.unpack_from(">I", self._buffer, _LENGTH_OFFSET)
            total = HEADER_BYTES + length
            if len(self._buffer) < total:
                break
            frame = self._buffer[:total]
            del self._buffer[:total]
            frames.append(decode_frame(memoryview(frame)))
        return frames

    def finish(self) -> None:
        if self._buffer:
            raise ServeProtocolError(
                f"stream ended with {len(self._buffer)} bytes of a torn frame"
            )


@dataclass
class TileStreamResult:
    """A fully reassembled tile stream for one rank."""

    #: The OPEN frame's control doc (digest, rank, ranks, start, stop...).
    open_doc: Dict
    #: Concatenated triple arrays across every streamed tile, in order.
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    #: Per-tile ``(tile_index, nnz)`` in arrival order.
    tiles: List[Tuple[int, int]]
    #: The COMMIT frame's stats doc.
    commit_doc: Dict
    #: The RESULT frame's summary doc.
    result_doc: Dict

    @property
    def nnz(self) -> int:
        return int(self.rows.shape[0])


class TileStream:
    """The tile-stream protocol state machine (client side).

    Feed it decoded frames in arrival order; call :meth:`result` once
    the transport says the body is complete.  Any protocol violation —
    missing OPEN, out-of-order or non-contiguous tile indices, a stats
    mismatch between what arrived and what COMMIT claims, an ABORT
    frame, or a truncated stream — raises
    :class:`~repro.errors.ServeProtocolError`.
    """

    def __init__(self) -> None:
        self._open_doc: Optional[Dict] = None
        self._commit_doc: Optional[Dict] = None
        self._result_doc: Optional[Dict] = None
        self._tiles: List[Tuple[int, int]] = []
        # Views into each tile frame's payload, until result()'s
        # concatenate makes the one copy.
        self._parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._next_index: Optional[int] = None
        self._nnz = 0

    def accept(self, frame: Frame) -> None:
        name = FRAME_NAMES.get(frame.frame_type, str(frame.frame_type))
        if frame.frame_type == FRAME_ABORT:
            doc = decode_control_payload(frame.payload)
            raise ServeProtocolError(
                f"server aborted the stream: {doc.get('error', 'unknown error')}"
            )
        if self._result_doc is not None:
            raise ServeProtocolError(f"{name} frame after RESULT")
        if frame.frame_type == FRAME_OPEN:
            if self._open_doc is not None:
                raise ServeProtocolError("duplicate OPEN frame")
            self._open_doc = decode_control_payload(frame.payload)
            self._next_index = int(self._open_doc.get("start", 0))
            return
        if self._open_doc is None:
            raise ServeProtocolError(f"{name} frame before OPEN")
        if frame.frame_type == FRAME_TILE:
            if self._commit_doc is not None:
                raise ServeProtocolError("TILE frame after COMMIT")
            if frame.tile_index != self._next_index:
                raise ServeProtocolError(
                    f"non-contiguous tile stream: expected index "
                    f"{self._next_index}, got {frame.tile_index}"
                )
            rows, cols, vals = decode_tile_views(frame.payload)
            self._parts.append((rows, cols, vals))
            self._tiles.append((frame.tile_index, int(rows.shape[0])))
            self._nnz += int(rows.shape[0])
            self._next_index = frame.tile_index + 1
            return
        if frame.frame_type == FRAME_COMMIT:
            if self._commit_doc is not None:
                raise ServeProtocolError("duplicate COMMIT frame")
            doc = decode_control_payload(frame.payload)
            if int(doc.get("tiles", -1)) != len(self._tiles):
                raise ServeProtocolError(
                    f"COMMIT claims {doc.get('tiles')} tiles, "
                    f"{len(self._tiles)} arrived"
                )
            if int(doc.get("nnz", -1)) != self._nnz:
                raise ServeProtocolError(
                    f"COMMIT claims {doc.get('nnz')} entries, "
                    f"{self._nnz} arrived"
                )
            self._commit_doc = doc
            return
        if frame.frame_type == FRAME_RESULT:
            if self._commit_doc is None:
                raise ServeProtocolError("RESULT frame before COMMIT")
            self._result_doc = decode_control_payload(frame.payload)
            return
        raise ServeProtocolError(f"unexpected {name} frame in a tile stream")

    def result(self) -> TileStreamResult:
        if self._open_doc is None:
            raise ServeProtocolError("stream ended before an OPEN frame")
        if self._commit_doc is None or self._result_doc is None:
            raise ServeProtocolError(
                "stream ended before COMMIT/RESULT (truncated response)"
            )
        if self._parts:
            rows = np.concatenate([p[0] for p in self._parts])
            cols = np.concatenate([p[1] for p in self._parts])
            vals = np.concatenate([p[2] for p in self._parts])
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=np.int64)
        return TileStreamResult(
            open_doc=self._open_doc,
            rows=rows,
            cols=cols,
            vals=vals,
            tiles=list(self._tiles),
            commit_doc=self._commit_doc,
            result_doc=self._result_doc,
        )


def assemble_tile_stream(body) -> TileStreamResult:
    """Reassemble a complete tile-stream body, decoding frames in place."""
    view = memoryview(body)
    stream = TileStream()
    offset = 0
    while len(view) - offset >= HEADER_BYTES:
        (length,) = struct.unpack_from(">I", view, offset + _LENGTH_OFFSET)
        end = offset + HEADER_BYTES + length
        if end > len(view):
            break
        stream.accept(decode_frame(view[offset:end]))
        offset = end
    if offset != len(view):
        raise ServeProtocolError(
            f"stream ended with {len(view) - offset} bytes of a torn frame"
        )
    return stream.result()


__all__ = [
    "FrameAssembler",
    "TileStream",
    "TileStreamResult",
    "assemble_tile_stream",
]
