"""The distributed-collection protocol: TransportSink ⇄ TileCollector.

The producer side runs the normal engine loop with a
:class:`TransportSink` — a :class:`~repro.engine.sinks.Sink` whose
"storage" is a frame stream — and the collector side replays that stream
into any *inner* sink (:class:`~repro.engine.sinks.ShardSink`,
:class:`~repro.engine.sinks.AssemblySink`,
:class:`~repro.engine.sinks.DegreeSink`).  Because the collector feeds
the inner sink through the same consumers and the same ascending-rank
commit order as a local run, the output — shard bytes, ``manifest.json``,
resume state — is **byte-identical** to running the inner sink directly.

Wire conversation (every message one codec frame)::

    producer                              collector
    ────────                              ─────────
    OPEN {digest, n_ranks}          →
                                    ←     SKIP {skipped: [...]}     (resume)
    per pending rank, ascending:
      TILE rank r, index 0..k-1     →     consumer.consume(tile)
      COMMIT r {nnz, tiles, ...}    →     sink.commit(r)
    FINALIZE {elapsed_s, skipped}   →     sink.finalize(...)
    ABORT {error, message}          →     sink.abort(...)   (failure path)
                                    ←     RESULT {summary}

The collector *enforces* the sink contract rather than trusting the
peer: ranks must commit in ascending order, tile indices must count
0..k-1 with no gaps or repeats, and COMMIT stats must match what was
observed — violations raise :class:`~repro.errors.FrameSequenceError`
and abort the inner sink, leaving a resumable ``failed`` manifest.

Tiles travel at commit time, from the coordinator: worker consumers
(:class:`_TileBufferConsumer`) buffer each rank's tiles and ship them
back as the task payload, because transports hold sockets/queues that
cannot be pickled into a worker — and coordinator-side sends are what
keeps the frame stream in ascending-rank order under *any* scheduler.

:func:`execute_over_transport` wires both halves together on one
machine (collector on a thread, any ``--transport``); a multi-node
deployment runs a :class:`TileCollector` on one node and the engine with
a :class:`TransportSink` on another, over any :class:`TileTransport`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.execute import EngineResult, TaskOutcome, execute
from repro.engine.plan import GenerationPlan, RankTask
from repro.engine.sinks import Sink, StreamSummary
from repro.errors import (
    FrameSequenceError,
    HandshakeError,
    TransportError,
    TransportTimeoutError,
)
from repro.net.codec import (
    FRAME_ABORT,
    FRAME_COMMIT,
    FRAME_FINALIZE,
    FRAME_NAMES,
    FRAME_OPEN,
    FRAME_RESULT,
    FRAME_SKIP,
    FRAME_TILE,
    Frame,
    decode_control_payload,
    decode_frame,
    decode_tile_payload,
    encode_control_payload,
    encode_frame,
    encode_tile_payload,
)
from repro.net.transport import DEFAULT_RECV_TIMEOUT_S, TileTransport, local_pair
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.tracing import Tracer

if TYPE_CHECKING:
    from repro.runtime.events import RankEvents


# -- worker-side consumer (module-level for pickling) -------------------------
class _TileBufferConsumer:
    """Buffer a rank's tiles, preserving per-tile boundaries.

    The payload that travels back to the coordinator is the tuple of
    ``(rows, cols, vals)`` tiles exactly as the kernel emitted them, so
    the collector can replay the same ``consume`` calls the inner sink's
    own consumer would have seen locally.
    """

    def __init__(self) -> None:
        self._tiles: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def consume(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        self._tiles.append((rows, cols, vals))

    def result(self) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        return tuple(self._tiles)

    def abort(self) -> None:
        self._tiles.clear()


@dataclass(frozen=True)
class _TileBufferConsumerFactory:
    def __call__(self, rank: int) -> _TileBufferConsumer:
        return _TileBufferConsumer()


# -- result document codec -----------------------------------------------------
def encode_result_doc(result: object) -> Dict:
    """The finalized inner-sink result as a JSON-able RESULT payload.

    :class:`~repro.engine.sinks.StreamSummary` round-trips exactly (it is
    what ``generate_to_disk`` returns); any other result travels as an
    opaque marker — the real object stays on
    :attr:`TileCollector.result`.
    """
    if isinstance(result, StreamSummary):
        return {
            "kind": "stream_summary",
            "n_ranks": result.n_ranks,
            "total_edges": result.total_edges,
            "max_block_edges": result.max_block_edges,
            "files": list(result.files),
            "elapsed_s": result.elapsed_s,
            "skipped_ranks": result.skipped_ranks,
            "manifest_path": result.manifest_path,
        }
    return {"kind": "opaque", "type": type(result).__name__}


def decode_result_doc(doc: Dict) -> object:
    """Inverse of :func:`encode_result_doc`."""
    if doc.get("kind") == "stream_summary":
        return StreamSummary(
            n_ranks=int(doc["n_ranks"]),
            total_edges=int(doc["total_edges"]),
            max_block_edges=int(doc["max_block_edges"]),
            files=tuple(doc["files"]),
            elapsed_s=float(doc["elapsed_s"]),
            skipped_ranks=int(doc["skipped_ranks"]),
            manifest_path=doc["manifest_path"],
        )
    return doc


def _plan_digest(plan: GenerationPlan) -> Optional[str]:
    fingerprint = plan.fingerprint
    if fingerprint is None:
        return None
    return fingerprint.get("digest")


# -- producer side -------------------------------------------------------------
class TransportSink(Sink):
    """Stream rank tiles over a :class:`~repro.net.transport.TileTransport`.

    Engine-facing it is an ordinary sink; everything it "stores" is sent
    as frames to a :class:`TileCollector` on the other end, and
    ``finalize`` returns whatever result the collector's inner sink
    produced (decoded from the RESULT frame, so a remote
    :class:`~repro.engine.sinks.ShardSink` run still hands back a
    :class:`~repro.engine.sinks.StreamSummary`).
    """

    def __init__(
        self,
        transport: TileTransport,
        *,
        recv_timeout_s: float = DEFAULT_RECV_TIMEOUT_S,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.transport = transport
        self.recv_timeout_s = recv_timeout_s
        self._tracer = tracer
        self._metrics: Optional[MetricsRegistry] = None

    # -- frame plumbing ------------------------------------------------------
    def _send(
        self,
        frame_type: int,
        payload: bytes = b"",
        *,
        rank: int = -1,
        tile_index: int = -1,
    ) -> None:
        data = encode_frame(frame_type, payload, rank=rank, tile_index=tile_index)
        span_cm = (
            self._tracer.span(
                "net.frame",
                type=FRAME_NAMES[frame_type],
                rank=rank,
                bytes=len(data),
            )
            if self._tracer is not None
            else nullcontext()
        )
        with span_cm:
            self.transport.send_frame(data)
        if self._metrics is not None:
            self._metrics.counter("net.frames_sent").inc()
            self._metrics.counter("net.bytes_sent").inc(len(data))

    def _recv_expect(self, frame_type: int) -> Frame:
        frame = decode_frame(self.transport.recv_frame(timeout=self.recv_timeout_s))
        if self._metrics is not None:
            self._metrics.counter("net.frames_received").inc()
            self._metrics.counter("net.bytes_received").inc(
                len(frame.payload) + 24
            )
        if frame.frame_type != frame_type:
            raise FrameSequenceError(
                f"expected a {FRAME_NAMES[frame_type]} frame from the "
                f"collector, got {frame.type_name}"
            )
        return frame

    # -- Sink hooks ----------------------------------------------------------
    def _open(
        self, plan: GenerationPlan, *, metrics: MetricsRegistry | None = None
    ) -> Tuple[int, ...]:
        self._metrics = metrics
        doc = {"digest": _plan_digest(plan), "n_ranks": plan.n_ranks}
        self._send(FRAME_OPEN, encode_control_payload(doc))
        reply = decode_control_payload(self._recv_expect(FRAME_SKIP).payload)
        return tuple(int(r) for r in reply.get("skipped", ()))

    def consumer_factory(self, task: RankTask) -> _TileBufferConsumerFactory:
        return _TileBufferConsumerFactory()

    def _commit(self, task: RankTask, outcome: TaskOutcome) -> None:
        tiles = outcome.payload
        for index, (rows, cols, vals) in enumerate(tiles):
            self._send(
                FRAME_TILE,
                encode_tile_payload(rows, cols, vals),
                rank=task.rank,
                tile_index=index,
            )
        stats = {
            "nnz": outcome.nnz,
            "tiles": outcome.tiles,
            "peak_tile_entries": outcome.peak_tile_entries,
            "elapsed_s": outcome.elapsed_s,
            "t": time.time(),
        }
        self._send(FRAME_COMMIT, encode_control_payload(stats), rank=task.rank)

    def _abort(self, exc: BaseException) -> None:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        try:
            self._send(FRAME_ABORT, encode_control_payload(doc))
        except TransportError:
            # Best effort: the channel may be the thing that died.
            pass
        finally:
            self.transport.close()

    def _finalize(
        self, plan: GenerationPlan, *, elapsed_s: float, skipped: Tuple[int, ...]
    ) -> object:
        doc = {"elapsed_s": elapsed_s, "skipped": list(skipped)}
        self._send(FRAME_FINALIZE, encode_control_payload(doc))
        result = decode_control_payload(self._recv_expect(FRAME_RESULT).payload)
        self.transport.close()
        return decode_result_doc(result)


# -- collector side ------------------------------------------------------------
class TileCollector:
    """Replay a producer's frame stream into an inner sink.

    ``run()`` speaks one full protocol conversation; afterwards
    :attr:`result` holds the inner sink's finalized result (the real
    object, not the wire doc).  Any protocol violation or inner-sink
    failure aborts the inner sink — which, for a
    :class:`~repro.engine.sinks.ShardSink`, leaves a resumable
    ``failed`` manifest — and re-raises.  A
    :class:`~repro.runtime.checkpoint.SimulatedCrash` (``BaseException``)
    deliberately bypasses the abort, exactly as a real SIGKILL would.
    """

    def __init__(
        self,
        plan: GenerationPlan,
        sink: Sink,
        transport: TileTransport,
        *,
        metrics: Optional[MetricsRegistry] = None,
        recv_timeout_s: float = DEFAULT_RECV_TIMEOUT_S,
    ) -> None:
        self.plan = plan
        self.sink = sink
        self.transport = transport
        self.recv_timeout_s = recv_timeout_s
        self._metrics = metrics
        self.result: object = None
        self.error: Optional[BaseException] = None

    def _recv(self) -> Frame:
        frame = decode_frame(self.transport.recv_frame(timeout=self.recv_timeout_s))
        if self._metrics is not None:
            self._metrics.counter("net.frames_received").inc()
            self._metrics.counter("net.bytes_received").inc(
                len(frame.payload) + 24
            )
        return frame

    def _send(self, frame_type: int, payload: bytes) -> None:
        self.transport.send_frame(encode_frame(frame_type, payload))
        if self._metrics is not None:
            self._metrics.counter("net.frames_sent").inc()

    def _check_abort(self, frame: Frame) -> None:
        if frame.frame_type == FRAME_ABORT:
            doc = decode_control_payload(frame.payload)
            raise TransportError(
                f"producer aborted the run: {doc.get('error', '?')}: "
                f"{doc.get('message', '')}"
            )

    def _handshake(self) -> Tuple[int, ...]:
        frame = self._recv()
        self._check_abort(frame)
        if frame.frame_type != FRAME_OPEN:
            raise FrameSequenceError(
                f"protocol must start with an open frame, got {frame.type_name}"
            )
        doc = decode_control_payload(frame.payload)
        digest = _plan_digest(self.plan)
        if doc.get("digest") != digest:
            raise HandshakeError(
                f"producer is generating a different run: its fingerprint "
                f"digest {doc.get('digest')!r} != collector's {digest!r}"
            )
        if doc.get("n_ranks") != self.plan.n_ranks:
            raise HandshakeError(
                f"producer plans {doc.get('n_ranks')} ranks, collector "
                f"plans {self.plan.n_ranks}"
            )
        skipped = tuple(
            sorted(self.sink.open(self.plan, metrics=self._metrics))
        )
        self._send(
            FRAME_SKIP,
            encode_control_payload({"skipped": list(skipped)}),
        )
        return skipped

    def _collect_rank(self, task: RankTask) -> None:
        """One rank's tiles then its commit, in strict tile order."""
        consumer = self.sink.consumer_factory(task)(task.rank)
        try:
            nnz = 0
            tiles = 0
            peak = 0
            while True:
                frame = self._recv()
                self._check_abort(frame)
                if frame.frame_type == FRAME_TILE:
                    if frame.rank != task.rank:
                        raise FrameSequenceError(
                            f"tile frame for rank {frame.rank} while rank "
                            f"{task.rank} is in flight (commit order is "
                            "ascending ranks)"
                        )
                    if frame.tile_index != tiles:
                        raise FrameSequenceError(
                            f"rank {task.rank} tile index {frame.tile_index} "
                            f"arrived where {tiles} was expected (dropped, "
                            "duplicated, or reordered frame)"
                        )
                    rows, cols, vals = decode_tile_payload(frame.payload)
                    consumer.consume(rows, cols, vals)
                    nnz += len(rows)
                    tiles += 1
                    peak = max(peak, len(rows))
                    continue
                if frame.frame_type == FRAME_COMMIT:
                    if frame.rank != task.rank:
                        raise FrameSequenceError(
                            f"commit for rank {frame.rank} while rank "
                            f"{task.rank} is in flight"
                        )
                    doc = decode_control_payload(frame.payload)
                    if doc.get("tiles") != tiles or doc.get("nnz") != nnz:
                        raise FrameSequenceError(
                            f"rank {task.rank} commit declares "
                            f"{doc.get('tiles')} tiles / {doc.get('nnz')} "
                            f"edges but {tiles} tiles / {nnz} edges arrived"
                        )
                    if self._metrics is not None and "t" in doc:
                        self._metrics.gauge("net.collector_lag_s").set(
                            max(0.0, time.time() - float(doc["t"]))
                        )
                    outcome = TaskOutcome(
                        rank=task.rank,
                        nnz=nnz,
                        tiles=tiles,
                        peak_tile_entries=int(
                            doc.get("peak_tile_entries", peak)
                        ),
                        elapsed_s=float(doc.get("elapsed_s", 0.0)),
                        payload=consumer.result(),
                    )
                    self.sink.commit(task, outcome)
                    return
                raise FrameSequenceError(
                    f"unexpected {frame.type_name} frame while collecting "
                    f"rank {task.rank}"
                )
        except BaseException:
            consumer.abort()
            raise

    def _run_protocol(self) -> None:
        skipped = self._handshake()
        skip_set = set(skipped)
        pending = sorted(
            (t for t in self.plan.tasks if t.rank not in skip_set),
            key=lambda t: t.rank,
        )
        for task in pending:
            self._collect_rank(task)
        frame = self._recv()
        self._check_abort(frame)
        if frame.frame_type != FRAME_FINALIZE:
            raise FrameSequenceError(
                f"expected finalize after the last commit, got {frame.type_name}"
            )
        doc = decode_control_payload(frame.payload)
        self.result = self.sink.finalize(
            self.plan,
            elapsed_s=float(doc.get("elapsed_s", 0.0)),
            skipped=skipped,
        )
        self._send(
            FRAME_RESULT, encode_control_payload(encode_result_doc(self.result))
        )

    def run(self) -> object:
        """Collect one full run; returns the inner sink's result."""
        try:
            self._run_protocol()
        except Exception as exc:
            # Tear the inner sink down cleanly (ShardSink → resumable
            # `failed` manifest).  SimulatedCrash is a BaseException and
            # sails past, like a real kill -9.
            self.sink.abort(exc)
            self.error = exc
            raise
        finally:
            self.transport.close()
        return self.result

    def run_in_thread(self) -> threading.Thread:
        """Start ``run()`` on a daemon thread, storing any failure
        (including ``BaseException``) on :attr:`error` instead of
        killing the interpreter."""

        def guarded() -> None:
            try:
                self.run()
            except BaseException as exc:
                self.error = exc

        thread = threading.Thread(
            target=guarded, name="repro-net-collector", daemon=True
        )
        thread.start()
        return thread


# -- single-machine wiring -----------------------------------------------------
def execute_over_transport(
    plan: GenerationPlan,
    sink: Sink,
    *,
    transport: "str | Tuple[TileTransport, TileTransport]" = "inproc",
    config=None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: "Optional[RankEvents]" = None,
    max_retries: int = 0,
    failure_injector=None,
    recv_timeout_s: float = DEFAULT_RECV_TIMEOUT_S,
) -> EngineResult:
    """Run ``plan`` into ``sink`` through a transport, on one machine.

    The collector (feeding the inner ``sink``) runs on a thread; the
    engine runs here with a :class:`TransportSink`.  ``transport`` is a
    registered name (``"inproc"``, ``"socket"``) or an explicit
    ``(producer, collector)`` endpoint pair.  ``config`` is the
    engine's :class:`~repro.engine.config.RunConfig` (backend,
    scheduler), forwarded to
    :func:`~repro.engine.execute.execute`.  The returned
    :class:`~repro.engine.execute.EngineResult` carries the inner sink's
    result (via the RESULT frame), so callers see exactly what a local
    run would have produced.
    """
    if isinstance(transport, str):
        producer_end, collector_end = local_pair(transport)
    else:
        producer_end, collector_end = transport
    collector = TileCollector(
        plan,
        sink,
        collector_end,
        metrics=metrics,
        recv_timeout_s=recv_timeout_s,
    )
    thread = collector.run_in_thread()
    net_sink = TransportSink(
        producer_end, recv_timeout_s=recv_timeout_s, tracer=tracer
    )
    try:
        result = execute(
            plan,
            net_sink,
            config=config,
            metrics=metrics,
            tracer=tracer,
            events=events,
            max_retries=max_retries,
            failure_injector=failure_injector,
        )
    except BaseException as engine_exc:
        producer_end.close()
        thread.join(timeout=recv_timeout_s + 5.0)
        if isinstance(engine_exc, TransportError) and collector.error is not None:
            # The producer only saw a dead/timed-out channel; the
            # collector's own failure (protocol violation, inner-sink
            # error, simulated crash) is the root cause.
            raise collector.error from engine_exc
        raise
    producer_end.close()
    thread.join(timeout=recv_timeout_s + 5.0)
    if thread.is_alive():
        raise TransportTimeoutError(
            f"collector did not finish within {recv_timeout_s + 5.0}s of "
            "the engine completing"
        )
    if collector.error is not None:
        raise collector.error
    # Same machine, so hand back the inner sink's *real* finalized
    # object — the wire RESULT doc is only exact for StreamSummary.
    return replace(result, sink_result=collector.result)


__all__ = [
    "TileCollector",
    "TransportSink",
    "decode_result_doc",
    "encode_result_doc",
    "execute_over_transport",
]
