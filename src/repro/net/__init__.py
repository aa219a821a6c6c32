"""Distributed tile collection: move generated tiles between processes.

The paper's extreme-scale runs generate rank blocks on many nodes and
collect them centrally; :mod:`repro.net` is that collection path,
factored into three layers so each is testable alone:

* :mod:`repro.net.codec` — the versioned, CRC32-checked frame format
  (pure bytes, no I/O);
* :mod:`repro.net.transport` — how frames move:
  :class:`InProcessTransport` (queues), :class:`SocketTransport` (TCP);
* :mod:`repro.net.sink` — the protocol: :class:`TransportSink`
  (producer, an ordinary engine sink) and :class:`TileCollector`
  (replays the stream into any inner sink, byte-identically to a local
  run).

``generate_to_disk(..., config=RunConfig(transport="socket"))`` and the
CLI's
``--sink net --transport ...`` ride on :func:`execute_over_transport`.
"""

from repro.net.codec import (
    CODEC_VERSION,
    FRAME_ABORT,
    FRAME_COMMIT,
    FRAME_FINALIZE,
    FRAME_MAGIC,
    FRAME_NAMES,
    FRAME_OPEN,
    FRAME_RESULT,
    FRAME_SKIP,
    FRAME_TILE,
    Frame,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    decode_control_payload,
    decode_frame,
    decode_tile_payload,
    encode_control_payload,
    encode_frame,
    encode_tile_payload,
)
from repro.net.sink import (
    TileCollector,
    TransportSink,
    decode_result_doc,
    encode_result_doc,
    execute_over_transport,
)
from repro.net.transport import (
    DEFAULT_RECV_TIMEOUT_S,
    InProcessTransport,
    SocketListener,
    SocketTransport,
    TileTransport,
    list_transports,
    local_pair,
)

__all__ = [
    "CODEC_VERSION",
    "DEFAULT_RECV_TIMEOUT_S",
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
    "InProcessTransport",
    "MAX_FRAME_BYTES",
    "SocketListener",
    "SocketTransport",
    "TileCollector",
    "TileTransport",
    "TransportSink",
    "decode_control_payload",
    "decode_frame",
    "decode_result_doc",
    "decode_tile_payload",
    "encode_control_payload",
    "encode_frame",
    "encode_result_doc",
    "encode_tile_payload",
    "execute_over_transport",
    "list_transports",
    "local_pair",
]
