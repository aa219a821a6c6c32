"""The versioned wire format for distributed tile collection.

Every message between a :class:`~repro.net.TransportSink` (producer) and
a :class:`~repro.net.TileCollector` is one *frame*:

======  ====  =======================================================
offset  size  field
======  ====  =======================================================
0       4     magic ``b"RPNF"``
4       4     CRC32 (big-endian) over every byte from offset 8 on
8       1     codec version (:data:`CODEC_VERSION`)
9       1     frame type (:data:`FRAME_TILE` ...)
10      2     reserved (zero)
12      4     rank (signed; ``-1`` on control frames without one)
16      4     tile index within the rank (signed; ``-1`` when n/a)
20      4     payload length in bytes
24      n     payload
======  ====  =======================================================

The CRC covers the header fields *and* the payload, so any single bit
flip anywhere after the magic raises
:class:`~repro.errors.FrameIntegrityError`, and a flip inside the magic
raises :class:`~repro.errors.FrameCodecError` — decoding never returns a
garbage tile (the same checksum-or-refuse discipline as
:mod:`repro.runtime.checkpoint`).

Payloads come in two kinds:

* **tile payloads** (:func:`encode_tile_payload`) — the three triple
  arrays with their dtypes, so arbitrary integer/float widths round-trip
  exactly;
* **control payloads** (:func:`encode_control_payload`) — canonical
  ASCII JSON dicts (OPEN/SKIP/COMMIT/ABORT/FINALIZE/RESULT bookkeeping).

Nothing here touches a transport; the codec is pure bytes → values, so
the property-based tests can hammer it without I/O.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import FrameCodecError, FrameIntegrityError

#: First bytes of every frame ("RePro Net Frame").
FRAME_MAGIC = b"RPNF"

#: Wire format version; bumped on incompatible layout changes.
CODEC_VERSION = 1

#: magic, crc32, version, frame type, reserved, rank, tile index, payload length.
_HEADER = struct.Struct(">4sIBBHiiI")

#: Header size in bytes (24).
HEADER_BYTES = _HEADER.size

#: Upper bound on a single frame (header + payload); a length prefix
#: beyond this is treated as corruption, not an allocation request.
MAX_FRAME_BYTES = 1 << 30

# -- frame types --------------------------------------------------------------
FRAME_OPEN = 1  #: producer → collector: handshake (fingerprint digest, n_ranks)
FRAME_SKIP = 2  #: collector → producer: ranks already complete (resume)
FRAME_TILE = 3  #: producer → collector: one tile's triples
FRAME_COMMIT = 4  #: producer → collector: a rank's tiles are all sent
FRAME_ABORT = 5  #: producer → collector: the run failed; abort the sink
FRAME_FINALIZE = 6  #: producer → collector: all ranks committed; finalize
FRAME_RESULT = 7  #: collector → producer: the finalized sink result

#: Human-readable names, for errors and span attributes.
FRAME_NAMES: Dict[int, str] = {
    FRAME_OPEN: "open",
    FRAME_SKIP: "skip",
    FRAME_TILE: "tile",
    FRAME_COMMIT: "commit",
    FRAME_ABORT: "abort",
    FRAME_FINALIZE: "finalize",
    FRAME_RESULT: "result",
}

#: Array dtype kinds a tile payload may carry (fixed-width numerics).
_TILE_DTYPE_KINDS = frozenset("biuf")


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, addressing, raw payload bytes (a view
    when :func:`decode_frame` was given a memoryview)."""

    frame_type: int
    rank: int
    tile_index: int
    payload: bytes

    @property
    def type_name(self) -> str:
        return FRAME_NAMES.get(self.frame_type, f"unknown({self.frame_type})")


def frame_parts(
    frame_type: int,
    parts: Sequence = (),
    *,
    rank: int = -1,
    tile_index: int = -1,
) -> List:
    """One frame as byte buffers whose ``b"".join`` is the frame: the
    header, then the payload ``parts``, which the CRC is chained over
    rather than copied."""
    if frame_type not in FRAME_NAMES:
        raise FrameCodecError(f"unknown frame type {frame_type}")
    length = sum(len(part) for part in parts)
    fields = _HEADER.pack(
        FRAME_MAGIC, 0, CODEC_VERSION, frame_type, 0, rank, tile_index, length
    )[8:]
    crc = zlib.crc32(fields)
    for part in parts:
        crc = zlib.crc32(part, crc)
    return [FRAME_MAGIC + struct.pack(">I", crc) + fields, *parts]


def encode_frame(
    frame_type: int,
    payload: bytes = b"",
    *,
    rank: int = -1,
    tile_index: int = -1,
) -> bytes:
    """Serialize one frame (header checksum computed here)."""
    return b"".join(
        frame_parts(frame_type, (payload,), rank=rank, tile_index=tile_index)
    )


def decode_frame(data: bytes) -> Frame:
    """Parse and verify one frame; raises instead of returning garbage.

    :class:`~repro.errors.FrameCodecError` for structural damage
    (truncation, bad magic, wrong version/type, length mismatch) and its
    subclass :class:`~repro.errors.FrameIntegrityError` for CRC failures.
    """
    if len(data) < HEADER_BYTES:
        raise FrameCodecError(
            f"frame truncated: {len(data)} bytes < {HEADER_BYTES}-byte header"
        )
    magic, crc, version, frame_type, reserved, rank, tile_index, length = (
        _HEADER.unpack_from(data)
    )
    if magic != FRAME_MAGIC:
        raise FrameCodecError(f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})")
    if length > MAX_FRAME_BYTES:
        raise FrameCodecError(f"frame payload length {length} exceeds {MAX_FRAME_BYTES}")
    if len(data) != HEADER_BYTES + length:
        raise FrameCodecError(
            f"frame length mismatch: header promises {length} payload bytes, "
            f"got {len(data) - HEADER_BYTES}"
        )
    actual = zlib.crc32(memoryview(data)[8:])
    if actual != crc:
        raise FrameIntegrityError(
            f"frame CRC mismatch: header {crc:#010x}, content {actual:#010x}"
        )
    if version != CODEC_VERSION:
        raise FrameCodecError(
            f"unsupported codec version {version} (this library speaks {CODEC_VERSION})"
        )
    if frame_type not in FRAME_NAMES:
        raise FrameCodecError(f"unknown frame type {frame_type}")
    if reserved != 0:
        raise FrameCodecError(f"reserved header field is {reserved}, expected 0")
    return Frame(
        frame_type=frame_type,
        rank=rank,
        tile_index=tile_index,
        payload=data[HEADER_BYTES:],
    )


# -- tile payloads -------------------------------------------------------------
def tile_payload_parts(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> List:
    """One tile's (rows, cols, vals) as self-describing payload buffers.

    Each array carries its own dtype tag, so mixed widths (int32 rows,
    float64 vals, ...) round-trip exactly; only fixed-width numeric
    dtypes are legal on the wire.  A contiguous array goes in as a
    ``uint8`` view, not a copy.
    """
    arrays = [np.asarray(a) for a in (rows, cols, vals)]
    n = len(arrays[0])
    for arr in arrays:
        if arr.ndim != 1:
            raise FrameCodecError(f"tile arrays must be 1-D, got shape {arr.shape}")
        if len(arr) != n:
            raise FrameCodecError(
                f"tile arrays must share a length; got {n} and {len(arr)}"
            )
        if arr.dtype.kind not in _TILE_DTYPE_KINDS or arr.dtype.itemsize == 0:
            raise FrameCodecError(
                f"tile dtype {arr.dtype} is not a fixed-width numeric dtype"
            )
    parts: List = [struct.pack(">I", n)]
    for arr in arrays:
        tag = arr.dtype.str.encode("ascii")
        parts.append(struct.pack(">B", len(tag)) + tag)
        parts.append(np.ascontiguousarray(arr).view(np.uint8))
    return parts


def encode_tile_payload(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> bytes:
    """One tile's (rows, cols, vals) as bytes (see :func:`tile_payload_parts`)."""
    return b"".join(tile_payload_parts(rows, cols, vals))


def decode_tile_views(payload) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_tile_payload`, as views into ``payload``
    (bytes, bytearray or memoryview); refuses malformed bytes."""
    view = memoryview(payload)
    if len(view) < 4:
        raise FrameCodecError("tile payload truncated before element count")
    (n,) = struct.unpack_from(">I", view)
    offset = 4
    arrays = []
    for which in ("rows", "cols", "vals"):
        if len(view) < offset + 1:
            raise FrameCodecError(f"tile payload truncated before {which} dtype")
        tag_len = view[offset]
        offset += 1
        tag = bytes(view[offset : offset + tag_len])
        if len(tag) != tag_len:
            raise FrameCodecError(f"tile payload truncated inside {which} dtype tag")
        offset += tag_len
        try:
            dtype = np.dtype(tag.decode("ascii"))
        except (TypeError, UnicodeDecodeError) as exc:
            raise FrameCodecError(f"invalid {which} dtype tag {tag!r}: {exc}") from exc
        if dtype.kind not in _TILE_DTYPE_KINDS or dtype.itemsize == 0:
            raise FrameCodecError(f"illegal wire dtype {dtype} for {which}")
        nbytes = n * dtype.itemsize
        if len(view) - offset < nbytes:
            raise FrameCodecError(
                f"tile payload truncated inside {which} data "
                f"({len(view) - offset} of {nbytes} bytes)"
            )
        arrays.append(np.frombuffer(view, dtype=dtype, count=n, offset=offset))
        offset += nbytes
    if offset != len(view):
        raise FrameCodecError(
            f"tile payload has {len(view) - offset} trailing garbage byte(s)"
        )
    return arrays[0], arrays[1], arrays[2]


def decode_tile_payload(payload) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decode_tile_views`, as writable arrays that own their data."""
    rows, cols, vals = decode_tile_views(payload)
    return rows.copy(), cols.copy(), vals.copy()


# -- control payloads ----------------------------------------------------------
def encode_control_payload(doc: Dict) -> bytes:
    """Canonical ASCII JSON for control frames (deterministic bytes)."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    except (TypeError, ValueError, UnicodeEncodeError) as exc:
        raise FrameCodecError(f"control payload is not ASCII-JSON-able: {exc}") from exc


def decode_control_payload(payload: bytes) -> Dict:
    """Inverse of :func:`encode_control_payload`."""
    try:
        doc = json.loads(str(payload, "ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCodecError(f"invalid control payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameCodecError(
            f"control payload must decode to an object, got {type(doc).__name__}"
        )
    return doc


__all__ = [
    "CODEC_VERSION",
    "FRAME_ABORT",
    "FRAME_COMMIT",
    "FRAME_FINALIZE",
    "FRAME_MAGIC",
    "FRAME_NAMES",
    "FRAME_OPEN",
    "FRAME_RESULT",
    "FRAME_SKIP",
    "FRAME_TILE",
    "Frame",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "decode_control_payload",
    "decode_frame",
    "decode_tile_payload",
    "decode_tile_views",
    "encode_control_payload",
    "encode_frame",
    "encode_tile_payload",
    "frame_parts",
    "tile_payload_parts",
]
