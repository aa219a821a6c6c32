"""Graph-as-a-service: the async design/tile server and its client.

The catalog (:mod:`repro.catalog`) made design properties a
content-addressed lookup; :mod:`repro.serve` puts that lookup — and
on-demand tile generation through the same plan/model layer — behind
HTTP:

* :class:`DesignServer` / :class:`ServerConfig` — the asyncio server
  (``GET``/``POST /v1/design``, ``GET /v1/tiles/{digest}/{rank}``,
  health and metrics), with single-flight cold computes, bounded
  concurrency, per-request deadlines, and streamed
  :mod:`repro.net`-framed tiles;
* :class:`ServeClient` — the keep-alive client that reassembles a
  served tile stream byte-identically to a local
  :func:`repro.engine.execute` run, enforcing the stream protocol via
  :class:`TileStream`;
* :func:`start_in_thread` — a daemon-thread server for tests and the
  load harness (``tools/bench_load.py``).

The CLI front doors are ``repro-graph serve`` and ``repro-graph
query``.
"""

from repro.serve.app import (
    DesignServer,
    ServerConfig,
    ServerHandle,
    design_spec_from_doc,
    start_in_thread,
)
from repro.serve.client import DesignReply, ServeClient
from repro.serve.stream import (
    FrameAssembler,
    TileStream,
    TileStreamResult,
    assemble_tile_stream,
)

__all__ = [
    "DesignReply",
    "DesignServer",
    "FrameAssembler",
    "ServeClient",
    "ServerConfig",
    "ServerHandle",
    "TileStream",
    "TileStreamResult",
    "assemble_tile_stream",
    "design_spec_from_doc",
    "start_in_thread",
]
