"""Transports and the collection protocol's ordering enforcement.

Endpoint semantics (order, timeout, close) are asserted per transport
through the same parametrized suite, so ``inproc`` and ``socket`` are
interchangeable by construction.

The :class:`~repro.net.TileCollector` tests drive the protocol frame by
frame over pre-filled inproc queues, proving each contract violation
(wrong first frame, digest mismatch, out-of-order rank or tile, stats
mismatch) raises its promised typed error and aborts the inner sink.
"""

import threading
import time

import pytest

from repro.design import PowerLawDesign
from repro.engine import AssemblySink, plan_from_design
from repro.errors import (
    FrameSequenceError,
    GenerationError,
    HandshakeError,
    TransportClosedError,
    TransportError,
    TransportTimeoutError,
)
from repro.net import (
    FRAME_COMMIT,
    FRAME_OPEN,
    FRAME_TILE,
    InProcessTransport,
    TileCollector,
    TileTransport,
    encode_control_payload,
    encode_frame,
    list_transports,
    local_pair,
)

DESIGN = PowerLawDesign([3, 4, 5], "center")

#: Transports a single test process can exercise.
LOCAL_TRANSPORTS = ["inproc", "socket"]


@pytest.fixture(params=LOCAL_TRANSPORTS)
def endpoint_pair(request):
    a, b = local_pair(request.param)
    yield a, b
    a.close()
    b.close()


class TestEndpointSemantics:
    def test_frames_arrive_in_order_both_directions(self, endpoint_pair):
        a, b = endpoint_pair
        frames = [encode_frame(FRAME_TILE, bytes([i]) * i) for i in range(1, 6)]
        for f in frames:
            a.send_frame(f)
        assert [b.recv_frame(timeout=5.0) for _ in frames] == frames
        b.send_frame(frames[0])
        assert a.recv_frame(timeout=5.0) == frames[0]

    def test_large_frame_survives(self, endpoint_pair):
        a, b = endpoint_pair
        big = encode_frame(FRAME_TILE, b"\xab" * (2 << 20))
        a.send_frame(big)
        assert b.recv_frame(timeout=10.0) == big

    def test_recv_timeout_is_typed(self, endpoint_pair):
        _, b = endpoint_pair
        t0 = time.monotonic()
        with pytest.raises(TransportTimeoutError):
            b.recv_frame(timeout=0.05)
        assert time.monotonic() - t0 < 5.0

    def test_close_unblocks_peer_recv(self, endpoint_pair):
        a, b = endpoint_pair
        errors = []

        def blocked_recv():
            try:
                b.recv_frame(timeout=10.0)
            except TransportError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked_recv)
        t.start()
        time.sleep(0.05)
        a.close()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], TransportClosedError)

    def test_send_after_close_is_typed(self, endpoint_pair):
        a, _ = endpoint_pair
        a.close()
        with pytest.raises(TransportClosedError):
            a.send_frame(b"x")

    def test_close_is_idempotent(self, endpoint_pair):
        a, _ = endpoint_pair
        a.close()
        a.close()  # must not raise

    def test_peer_closure_reported_repeatedly(self, endpoint_pair):
        a, b = endpoint_pair
        a.close()
        for _ in range(3):
            with pytest.raises(TransportClosedError):
                b.recv_frame(timeout=1.0)

    def test_satisfies_protocol(self, endpoint_pair):
        a, b = endpoint_pair
        assert isinstance(a, TileTransport)
        assert isinstance(b, TileTransport)


class TestSocketSpecifics:
    def test_insane_length_prefix_is_corruption_not_allocation(self):
        import struct

        from repro.net.codec import MAX_FRAME_BYTES

        a, b = local_pair("socket")
        try:
            a._sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(TransportError):
                b.recv_frame(timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_peer_death_mid_frame_is_closed_not_garbage(self):
        import struct

        a, b = local_pair("socket")
        try:
            a._sock.sendall(struct.pack(">I", 100) + b"only-part")
            a.close()
            with pytest.raises(TransportClosedError):
                b.recv_frame(timeout=5.0)
        finally:
            b.close()


class TestRegistry:
    def test_names(self):
        assert list_transports() == LOCAL_TRANSPORTS

    def test_local_transports_always_available(self):
        # Every registered transport forms a working pair in-process.
        for name in list_transports():
            a, b = local_pair(name)
            try:
                a.send_frame(b"ping")
                assert b.recv_frame(timeout=5.0) == b"ping"
            finally:
                a.close()
                b.close()

    def test_unknown_name(self):
        with pytest.raises(TransportError, match="unknown transport"):
            local_pair("carrier-pigeon")


# -- collector protocol enforcement -------------------------------------------
def make_plan(n_ranks=3, seed=11):
    return plan_from_design(DESIGN, n_ranks, scramble_seed=seed)


def preloaded_collector(plan, frames, recv_timeout_s=1.0):
    """A collector whose producer already sent ``frames`` then closed —
    lets protocol-violation tests run synchronously, no threads."""
    producer, collector_end = InProcessTransport.pair()
    for f in frames:
        producer.send_frame(f)
    producer.close()
    sink = AssemblySink()
    return (
        TileCollector(plan, sink, collector_end, recv_timeout_s=recv_timeout_s),
        sink,
    )


def open_frame(plan):
    digest = plan.fingerprint.get("digest")
    return encode_frame(
        FRAME_OPEN,
        encode_control_payload({"digest": digest, "n_ranks": plan.n_ranks}),
    )


class TestCollectorEnforcesProtocol:
    def test_first_frame_must_be_open(self):
        plan = make_plan()
        collector, _ = preloaded_collector(
            plan, [encode_frame(FRAME_TILE, b"", rank=0, tile_index=0)]
        )
        with pytest.raises(FrameSequenceError, match="start with an open"):
            collector.run()
        assert isinstance(collector.error, FrameSequenceError)

    def test_digest_mismatch_is_a_handshake_error(self):
        plan = make_plan(seed=11)
        other = make_plan(seed=12)
        collector, _ = preloaded_collector(plan, [open_frame(other)])
        with pytest.raises(HandshakeError, match="different run"):
            collector.run()

    def test_rank_count_mismatch_is_a_handshake_error(self):
        plan = make_plan()
        digest = plan.fingerprint.get("digest")
        bad_open = encode_frame(
            FRAME_OPEN,
            encode_control_payload(
                {"digest": digest, "n_ranks": plan.n_ranks + 1}
            ),
        )
        collector, _ = preloaded_collector(plan, [bad_open])
        with pytest.raises(HandshakeError, match="ranks"):
            collector.run()

    def test_commit_for_wrong_rank_is_out_of_order(self):
        plan = make_plan()
        frames = [
            open_frame(plan),
            encode_frame(
                FRAME_COMMIT,
                encode_control_payload({"nnz": 0, "tiles": 0}),
                rank=1,
            ),
        ]
        collector, _ = preloaded_collector(plan, frames)
        with pytest.raises(FrameSequenceError, match="rank 1"):
            collector.run()

    def test_tile_index_gap_detected(self):
        from repro.net import encode_tile_payload
        import numpy as np

        plan = make_plan()
        empty = np.zeros(0, dtype=np.int64)
        frames = [
            open_frame(plan),
            encode_frame(
                FRAME_TILE,
                encode_tile_payload(empty, empty, empty),
                rank=0,
                tile_index=1,  # index 0 never sent
            ),
        ]
        collector, _ = preloaded_collector(plan, frames)
        with pytest.raises(FrameSequenceError, match="tile index 1"):
            collector.run()

    def test_commit_stats_mismatch_detected(self):
        plan = make_plan()
        frames = [
            open_frame(plan),
            encode_frame(
                FRAME_COMMIT,
                # Declares a tile that never arrived.
                encode_control_payload({"nnz": 7, "tiles": 1}),
                rank=0,
            ),
        ]
        collector, _ = preloaded_collector(plan, frames)
        with pytest.raises(FrameSequenceError, match="declares"):
            collector.run()

    def test_producer_vanishing_mid_protocol_aborts_inner_sink(self):
        plan = make_plan()
        collector, sink = preloaded_collector(plan, [open_frame(plan)])
        with pytest.raises(TransportClosedError):
            collector.run()
        # The inner sink was torn down: committing now must refuse.
        with pytest.raises(GenerationError, match="aborted"):
            sink.finalize(plan, elapsed_s=0.0, skipped=())
