"""Protocol conformance suite for the graph service (repro.serve).

Exercises the failure surface the server promises: malformed requests,
unknown digests, invalid tile ranges, oversized asks (tile ranges and
tiling budgets), saturation, single-flight cold computes, ETag
revalidation, mid-stream client disconnects leaving nothing behind,
tile pulls that share the event loop with other connections, and a
clean SIGINT shutdown of ``repro-graph serve``.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro._version import __version__
from repro.catalog import CatalogCache, DesignProperties
from repro.errors import ServeError, ServeProtocolError
from repro.design import PowerLawDesign
from repro.engine import (
    DEFAULT_MEMORY_BUDGET_ENTRIES,
    iter_task_tiles,
    plan_from_design,
)
from repro.net.codec import (
    FRAME_ABORT,
    FRAME_COMMIT,
    FRAME_OPEN,
    FRAME_RESULT,
    FRAME_TILE,
    MAX_FRAME_BYTES,
    encode_control_payload,
    encode_frame,
    frame_parts,
    tile_payload_parts,
)
from repro.parallel.shm import shm_segment_names
from repro.runtime import MetricsRegistry
from repro.serve import (
    FrameAssembler,
    ServeClient,
    ServerConfig,
    TileStream,
    start_in_thread,
)

SPEC = {"star_sizes": [3, 4, 5], "self_loop": "center", "model": "kron"}


@pytest.fixture
def server(tmp_path):
    metrics = MetricsRegistry()
    handle = start_in_thread(
        ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            ranks=2,
            max_tiles_per_request=64,
            max_body_bytes=4096,
            request_timeout_s=10.0,
        ),
        metrics=metrics,
    )
    handle.metrics = metrics
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServeClient(server.base_url) as c:
        yield c


def _raw_request(port, payload: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


class TestMalformedRequests:
    def test_malformed_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST",
            "/v1/design",
            body=b"{this is not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert "not JSON" in json.loads(response.read())["error"]
        conn.close()

    def test_non_object_spec_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design([1, 2, 3])
        assert err.value.status == 422

    def test_invalid_star_sizes_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design({"star_sizes": ["three"]})
        assert err.value.status == 422

    def test_unknown_spec_field_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design({**SPEC, "frobnicate": 1})
        assert err.value.status == 422

    def test_unknown_model_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design({**SPEC, "model": "erdos"})
        assert err.value.status == 422

    def test_garbage_request_line_is_400(self, server):
        raw = _raw_request(server.port, b"COMPLETE NONSENSE\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_oversized_body_is_413(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/v1/design", body=b"x" * 8192)
        response = conn.getresponse()
        assert response.status == 413
        conn.close()

    def test_unknown_path_is_404(self, client):
        status, _, body = client._request("GET", "/v2/everything")
        assert status == 404

    def test_wrong_method_is_405(self, client):
        status, _, _ = client._request("DELETE", "/v1/health")
        assert status == 405


class TestUnknownDigests:
    def test_design_get_unknown_digest_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.get_design("sha256:" + "0" * 64)
        assert err.value.status == 404

    def test_tiles_unknown_digest_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles("sha256:" + "0" * 64, 0)
        assert err.value.status == 404

    def test_malformed_digest_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.get_design("not-a-digest!")
        assert err.value.status == 404


class TestBadRanges:
    @pytest.fixture
    def digest(self, client):
        return client.post_design(SPEC)["digest"]

    def test_non_integer_rank_is_422(self, client, digest):
        status, _, _ = client._request("GET", f"/v1/tiles/{digest}/zero")
        assert status == 422

    def test_rank_out_of_range_is_422(self, client, digest):
        for rank in (-1, 2, 99):
            with pytest.raises(ServeError) as err:
                client.fetch_tiles(digest, rank, ranks=2)
            assert err.value.status == 422

    def test_negative_start_is_422(self, client, digest):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, start=-1)
        assert err.value.status == 422

    def test_empty_range_is_422(self, client, digest):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, start=5, stop=5)
        assert err.value.status == 422

    def test_non_integer_query_param_is_422(self, client, digest):
        status, _, _ = client._request(
            "GET", f"/v1/tiles/{digest}/0?start=soon"
        )
        assert status == 422

    def test_bad_ranks_param_is_422(self, client, digest):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, ranks=0)
        assert err.value.status == 422

    def test_oversized_explicit_range_is_413(self, client, digest):
        # The fixture server caps max_tiles_per_request at 64.
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, start=0, stop=1000)
        assert err.value.status == 413


class TestSingleFlight:
    def test_concurrent_identical_cold_requests_compute_once(
        self, server, monkeypatch
    ):
        import repro.serve.app as app_module

        gate = threading.Event()
        calls = []
        original = app_module._compute_analytic

        def gated(catalog, subject, include_participation):
            calls.append(1)
            assert gate.wait(timeout=30)
            return original(catalog, subject, include_participation)

        monkeypatch.setattr(app_module, "_compute_analytic", gated)

        results = {}

        def _post(slot):
            with ServeClient(server.base_url) as c:
                results[slot] = c.post_design(SPEC)

        threads = [
            threading.Thread(target=_post, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        # Both requests must be parked on the same in-flight compute.
        deadline = time.monotonic() + 10
        while len(calls) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # give the second request time to coalesce
        gate.set()
        for thread in threads:
            thread.join(timeout=30)

        assert len(results) == 2
        assert results[0]["digest"] == results[1]["digest"]
        assert results[0]["record"] == results[1]["record"]
        assert len(calls) == 1, "cold compute ran more than once"
        computes = server.metrics.counter("serve.design_computes").snapshot()
        assert computes == 1


class TestSaturation:
    def test_429_when_concurrency_exhausted(self, tmp_path, monkeypatch):
        import repro.serve.app as app_module

        metrics = MetricsRegistry()
        gate = threading.Event()
        handle = start_in_thread(
            ServerConfig(cache_dir=str(tmp_path / "c"), max_concurrency=1),
            metrics=metrics,
        )
        try:
            original = app_module._compute_analytic

            def gated(catalog, subject, include_participation):
                assert gate.wait(timeout=30)
                return original(catalog, subject, include_participation)

            monkeypatch.setattr(app_module, "_compute_analytic", gated)

            holder_result = {}

            def _hold():
                with ServeClient(handle.base_url) as c:
                    holder_result["reply"] = c.post_design(SPEC)

            holder = threading.Thread(target=_hold)
            holder.start()
            deadline = time.monotonic() + 10
            gauge = metrics.gauge("serve.active_requests")
            while gauge.snapshot() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gauge.snapshot() == 1

            with ServeClient(handle.base_url) as c:
                with pytest.raises(ServeError) as err:
                    c.health()
            assert err.value.status == 429
            assert metrics.counter("serve.rejected_busy").snapshot() == 1

            gate.set()
            holder.join(timeout=30)
            assert holder_result["reply"]["digest"].startswith("sha256:")
        finally:
            gate.set()
            handle.stop()


class TestDisconnect:
    def test_mid_stream_disconnect_leaves_nothing_behind(self, server, client):
        digest = client.post_design(SPEC)["digest"]
        # Sanity: a full fetch works (many tiles, via a tiny budget).
        full = client.fetch_tiles(digest, 0, ranks=2, budget=100)
        assert len(full.tiles) > 1

        # Now open the same stream raw and slam the socket shut after
        # the first bytes arrive.
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(
                f"GET /v1/tiles/{digest}/0?ranks=2&budget=100 HTTP/1.1\r\n"
                f"Host: localhost\r\n\r\n".encode()
            )
            assert sock.recv(64)  # the response headers started
            # SO_LINGER with zero timeout makes close() send RST — a
            # real mid-stream disconnect, not a polite FIN handshake.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )

        deadline = time.monotonic() + 10
        open_streams = server.metrics.gauge("serve.open_streams")
        active = server.metrics.gauge("serve.active_requests")
        while (
            open_streams.snapshot() > 0 or active.snapshot() > 0
        ) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert open_streams.snapshot() == 0
        assert active.snapshot() == 0
        assert shm_segment_names() == ()
        # The server is still perfectly healthy for the next client.
        assert client.health()["status"] == "ok"
        again = client.fetch_tiles(digest, 0, ranks=2, budget=100)
        assert again.rows.tobytes() == full.rows.tobytes()


def _computes(metrics) -> float:
    return metrics.counter("serve.design_computes").snapshot()


def _design_get(digest, etag=None) -> bytes:
    conditional = f"If-None-Match: {etag}\r\n" if etag else ""
    return (
        f"GET /v1/design/{digest} HTTP/1.1\r\nHost: localhost\r\n"
        f"{conditional}\r\n"
    ).encode()


class TestCaching:
    def test_etag_revalidation_304(self, client):
        reply = client.post_design(SPEC)
        served = client.get_design(reply["digest"])
        assert served.etag is not None
        assert served.doc["cached"] is True
        again = client.get_design(reply["digest"], etag=served.etag)
        assert again.status == 304
        assert again.doc is None

    def test_warm_get_never_computes(self, server, client):
        digest = client.post_design(SPEC)["digest"]
        before = server.metrics.counter("serve.design_computes").snapshot()
        for _ in range(5):
            assert client.get_design(digest).doc["cached"] is True
        after = server.metrics.counter("serve.design_computes").snapshot()
        assert after == before

    def test_warm_replies_are_byte_identical_to_disk_reads(
        self, server, client, tmp_path, monkeypatch
    ):
        """Memory hits write the bytes a cache file read answers with,
        and those are the bytes of the record's JSON reply."""
        digest = client.post_design(SPEC)["digest"]
        cache_dir = str(tmp_path / "cache")
        record = CatalogCache(cache_dir).load(digest, "analytic")
        etag = f'"{record.checksum()}"'
        body = (
            json.dumps(
                {
                    "cached": True,
                    "digest": digest,
                    "record": record.to_doc(),
                    "source": "analytic",
                },
                sort_keys=True,
            )
            + "\n"
        ).encode()
        head = (
            "{status}\r\n"
            f"Server: repro-serve/{__version__}\r\n"
            f"ETag: {etag}\r\n"
            "Cache-Control: public, max-age=31536000, immutable\r\n"
        )
        ok = (
            head.format(status="HTTP/1.1 200 OK")
            + "Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        not_modified = (
            head.format(status="HTTP/1.1 304 Not Modified")
            + "Content-Length: 0\r\n\r\n"
        ).encode()

        loads = []
        load = CatalogCache.load

        def counted(cache, *args):
            loads.append(args)
            return load(cache, *args)

        monkeypatch.setattr(CatalogCache, "load", counted)
        # The fixture server's entry was filled by the compute.
        assert _raw_request(server.port, _design_get(digest)) == ok
        assert _raw_request(server.port, _design_get(digest, etag)) == not_modified
        assert loads == []
        # Fresh servers over the same cache: the first reply of each is
        # a file read (a 200 on one, a 304 on the other), the rest hits.
        for first, expected in ((None, ok), (etag, not_modified)):
            fresh = start_in_thread(ServerConfig(cache_dir=cache_dir))
            try:
                del loads[:]
                assert _raw_request(fresh.port, _design_get(digest, first)) == expected
                assert loads == [(digest, "analytic")]
                assert _raw_request(fresh.port, _design_get(digest)) == ok
                assert _raw_request(fresh.port, _design_get(digest, etag)) == not_modified
                assert len(loads) == 1
            finally:
                fresh.stop()

    def test_warm_hits_read_no_file_and_submit_nothing(
        self, server, client, monkeypatch
    ):
        import repro.serve.app as app_module

        spec_b = {**SPEC, "star_sizes": [2, 3, 4]}
        digests = [client.post_design(spec)["digest"] for spec in (SPEC, spec_b)]
        etags = [client.get_design(digest).etag for digest in digests]
        computes = _computes(server.metrics)

        def refuse(*args, **kwargs):
            raise AssertionError("a warm hit left the event loop")

        monkeypatch.setattr(CatalogCache, "load", refuse)
        monkeypatch.setattr(server.server._executor, "submit", refuse)
        monkeypatch.setattr(app_module, "_compute_analytic", refuse)
        for _ in range(3):
            for spec, digest, etag in zip((SPEC, spec_b), digests, etags):
                reply = client.get_design(digest)
                assert (reply.status, reply.etag) == (200, etag)
                assert reply.doc["cached"] is True
                assert client.get_design(digest, etag=etag).status == 304
                posted = client.post_design(spec)
                assert posted == reply.doc
        assert _computes(server.metrics) == computes

    def test_participation_upgrade_replaces_the_warm_record(
        self, server, client, tmp_path
    ):
        digest = client.post_design(SPEC)["digest"]
        plain = client.get_design(digest)
        assert plain.doc["cached"] is True
        assert not DesignProperties.from_doc(
            plain.record_doc
        ).triangles.has_participation
        computes = _computes(server.metrics)

        upgraded = client.get_design(digest, participation=True)
        assert _computes(server.metrics) == computes + 1
        assert upgraded.doc["cached"] is False
        assert DesignProperties.from_doc(
            upgraded.record_doc
        ).triangles.has_participation
        assert upgraded.etag != plain.etag

        # The upgrade replaced the digest's record, as it replaced the
        # cache file: plain GETs now answer the upgraded record.
        stored = CatalogCache(tmp_path / "cache").load(digest, "analytic")
        for participation in (False, True):
            again = client.get_design(digest, participation=participation)
            assert again.etag == upgraded.etag == f'"{stored.checksum()}"'
            assert again.doc["cached"] is True
            assert again.record_doc == upgraded.record_doc == stored.to_doc()
        assert _computes(server.metrics) == computes + 1

    def test_memory_only_server_recomputes_every_get(self):
        metrics = MetricsRegistry()
        handle = start_in_thread(ServerConfig(cache_dir=None), metrics=metrics)
        try:
            with ServeClient(handle.base_url) as c:
                reply = c.post_design(SPEC)
                assert reply["cached"] is False
                for _ in range(3):
                    again = c.get_design(reply["digest"])
                    assert again.doc == reply
        finally:
            handle.stop()
        assert _computes(metrics) == 4


class TestPhaseHistograms:
    def test_counts_follow_the_requests_and_tiles_sent(self, server, client):
        digest = client.post_design(SPEC)["digest"]
        etag = client.get_design(digest).etag
        assert client.get_design(digest, etag=etag).status == 304
        client.health()
        before = client.metrics()["histograms"]
        tiles = client.fetch_tiles(digest, 0, start=1, stop=3, ranks=2, budget=100)
        assert len(tiles.tiles) == 2
        snapshot = client.metrics()
        hists = snapshot["histograms"]

        def count(name):
            return hists[name]["count"]

        # Six requests before the last metrics GET, whose parse is counted.
        assert count("serve.parse_s") == 7 == snapshot["counters"]["serve.requests"]
        assert count("serve.request_s") == 6
        assert count("serve.design.lookup_s") == 3
        assert count("serve.design.write_s") == 3
        for phase in ("generate", "encode", "write"):
            assert count(f"serve.tiles.{phase}_s") == 2 == len(tiles.tiles)
        assert snapshot["counters"]["serve.tiles_streamed"] == 2
        # The tile phases fit inside the requests between the snapshots:
        # the tile range and the first metrics GET.
        tile_s = sum(
            hists[f"serve.tiles.{phase}_s"]["sum"]
            for phase in ("generate", "encode", "write")
        )
        request_s = hists["serve.request_s"]["sum"] - before["serve.request_s"]["sum"]
        assert 0 < tile_s <= request_s
        design_s = (
            hists["serve.design.lookup_s"]["sum"]
            + hists["serve.design.write_s"]["sum"]
        )
        assert 0 < design_s <= hists["serve.request_s"]["sum"]
        assert "le_1e-05" in hists["serve.parse_s"]["buckets"]
        assert "le_0.01" in hists["serve.parse_s"]["buckets"]


class TestInlinePull:
    def test_health_is_answered_between_tiles(self, server, client, monkeypatch):
        """A stream gives the loop one turn per tile, so a request on
        another connection is answered before the stream's COMMIT.  The
        stream stays under the write high-water mark, where ``drain()``
        never yields, and each pull sleeps to stand for a costly tile."""
        import repro.serve.app as app_module

        digest = client.post_design(SPEC)["digest"]
        tiles = app_module.iter_task_tiles
        pulling, answered = threading.Event(), threading.Event()
        answered_before_commit = []

        def slow(plan, task):
            for tile in tiles(plan, task):
                pulling.set()
                time.sleep(0.05)
                yield tile
            answered_before_commit.append(answered.is_set())

        streamed = {}

        def _stream():
            with ServeClient(server.base_url) as c:
                streamed["tiles"] = c.fetch_tiles(digest, 0, ranks=1, budget=63)

        with ServeClient(server.base_url) as other:
            assert other.health()["status"] == "ok"  # its connection is open
            monkeypatch.setattr(app_module, "iter_task_tiles", slow)
            streamer = threading.Thread(target=_stream)
            streamer.start()
            try:
                assert pulling.wait(timeout=10)
                assert other.health()["status"] == "ok"
                answered.set()
            finally:
                streamer.join(timeout=30)
        assert not streamer.is_alive()
        assert answered_before_commit == [True]
        result = streamed["tiles"]
        assert len(result.tiles) > 5
        local = plan_from_design(PowerLawDesign([3, 4, 5], "center"), 1,
                                 memory_budget_entries=63)
        expected = list(iter_task_tiles(local, local.tasks[0]))
        assert result.rows.tobytes() == np.concatenate([t[0] for t in expected]).tobytes()
        assert result.vals.tobytes() == np.concatenate([t[2] for t in expected]).tobytes()

    def test_warm_tile_range_submits_nothing(self, server, client, monkeypatch):
        digest = client.post_design(SPEC)["digest"]
        first = client.fetch_tiles(digest, 0, ranks=2, budget=100)  # builds the plan
        assert len(first.tiles) > 1

        def refuse(*args, **kwargs):
            raise AssertionError("a warm tile range left the event loop")

        monkeypatch.setattr(server.server._executor, "submit", refuse)
        offsets = np.cumsum([0] + [n for _, n in first.tiles])
        for start, stop in ((0, len(first.tiles)), (1, 3)):
            again = client.fetch_tiles(
                digest, 0, ranks=2, budget=100, start=start, stop=stop
            )
            assert [i for i, _ in again.tiles] == list(range(start, stop))
            window = slice(offsets[start], offsets[stop])
            assert again.rows.tobytes() == first.rows[window].tobytes()


class TestBudgetBound:
    LIMIT = 100

    @pytest.fixture
    def bounded(self, tmp_path):
        handle = start_in_thread(
            ServerConfig(
                cache_dir=str(tmp_path / "cache"),
                ranks=2,
                memory_budget_entries=self.LIMIT,
            )
        )
        with ServeClient(handle.base_url) as c:
            yield handle, c, c.post_design(SPEC)["digest"]
        handle.stop()

    def test_budget_above_the_limit_is_413_without_a_stream_head(self, bounded):
        handle, client, digest = bounded
        raw = _raw_request(
            handle.port,
            f"GET /v1/tiles/{digest}/0?budget={self.LIMIT + 1} HTTP/1.1\r\n"
            "Host: localhost\r\n\r\n".encode(),
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"chunked" not in head.lower()
        doc = json.loads(body)
        assert doc["status"] == 413
        assert f"limit of {self.LIMIT} entries" in doc["error"]
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, budget=self.LIMIT + 1)
        assert err.value.status == 413

    def test_budget_equal_to_the_limit_streams(self, bounded):
        _, client, digest = bounded
        explicit = client.fetch_tiles(digest, 0, budget=self.LIMIT)
        default = client.fetch_tiles(digest, 0)
        assert explicit.open_doc["budget"] == default.open_doc["budget"] == self.LIMIT
        assert len(explicit.tiles) > 1
        assert explicit.rows.tobytes() == default.rows.tobytes()
        local = plan_from_design(PowerLawDesign([3, 4, 5], "center"), 2,
                                 memory_budget_entries=self.LIMIT)
        expected = list(iter_task_tiles(local, local.tasks[0]))
        assert [n for _, n in explicit.tiles] == [len(t[0]) for t in expected]

    def test_default_budget_tile_fits_a_frame(self):
        """A tile of the default budget's int64 triples fits one TILE
        frame; one of the engine's default budget would not."""

        def frame_bytes(entries):
            column = np.zeros(entries, dtype=np.int64)
            parts = frame_parts(
                FRAME_TILE, tile_payload_parts(column, column, column)
            )
            return sum(len(part) for part in parts)

        header, per_entry = frame_bytes(0), frame_bytes(1) - frame_bytes(0)
        assert per_entry == 24
        assert frame_bytes(1000) == header + 1000 * per_entry
        budget = ServerConfig().memory_budget_entries
        assert header + budget * per_entry <= MAX_FRAME_BYTES
        assert header + DEFAULT_MEMORY_BUDGET_ENTRIES * per_entry > MAX_FRAME_BYTES


_SRC = Path(__file__).resolve().parent.parent / "src"


class TestShutdown:
    @pytest.mark.parametrize("client_open", [True, False], ids=["open", "closed"])
    def test_sigint_with_a_keep_alive_client_exits_cleanly(
        self, tmp_path, client_open
    ):
        """SIGINT ends ``repro-graph serve`` with exit 0 and no asyncio
        traceback while a keep-alive client is connected or just left."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            client = ServeClient(line.split()[-1])
            try:
                for _ in range(50):
                    assert client.health()["status"] == "ok"
                if not client_open:
                    client.close()
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=30)
            finally:
                client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        assert "interrupted; shutting down" in out


class TestStreamStateMachine:
    """Client-side protocol enforcement, no server involved."""

    def _frames(self, *frames) -> bytes:
        return b"".join(frames)

    def test_torn_trailing_frame_raises(self):
        assembler = FrameAssembler()
        frame = encode_frame(FRAME_OPEN, encode_control_payload({"start": 0}))
        assembler.feed(frame[: len(frame) - 3])
        with pytest.raises(ServeProtocolError):
            assembler.finish()

    def test_byte_at_a_time_reassembly(self):
        frame = encode_frame(FRAME_OPEN, encode_control_payload({"start": 0}))
        assembler = FrameAssembler()
        out = []
        for i in range(len(frame)):
            out.extend(assembler.feed(frame[i : i + 1]))
        assert len(out) == 1
        assert out[0].frame_type == FRAME_OPEN

    def test_frame_before_open_raises(self):
        stream = TileStream()
        (frame,) = FrameAssembler().feed(
            encode_frame(FRAME_COMMIT, encode_control_payload({}))
        )
        with pytest.raises(ServeProtocolError, match="before OPEN"):
            stream.accept(frame)

    def test_abort_frame_raises(self):
        stream = TileStream()
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(
                    FRAME_ABORT, encode_control_payload({"error": "boom"})
                ),
            )
        )
        stream.accept(frames[0])
        with pytest.raises(ServeProtocolError, match="boom"):
            stream.accept(frames[1])

    def test_non_contiguous_tile_indices_raise(self):
        import numpy as np

        from repro.net.codec import encode_tile_payload

        tile = encode_tile_payload(
            np.array([0]), np.array([0]), np.array([1])
        )
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(FRAME_TILE, tile, rank=0, tile_index=0),
                encode_frame(FRAME_TILE, tile, rank=0, tile_index=2),
            )
        )
        stream = TileStream()
        stream.accept(frames[0])
        stream.accept(frames[1])
        with pytest.raises(ServeProtocolError, match="non-contiguous"):
            stream.accept(frames[2])

    def test_commit_stats_mismatch_raises(self):
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(
                    FRAME_COMMIT,
                    encode_control_payload({"tiles": 7, "nnz": 0}),
                ),
            )
        )
        stream = TileStream()
        stream.accept(frames[0])
        with pytest.raises(ServeProtocolError, match="COMMIT claims"):
            stream.accept(frames[1])

    def test_truncated_stream_raises_at_result(self):
        stream = TileStream()
        for frame in FrameAssembler().feed(
            encode_frame(FRAME_OPEN, encode_control_payload({"start": 0}))
        ):
            stream.accept(frame)
        with pytest.raises(ServeProtocolError, match="truncated"):
            stream.result()

    def test_result_before_commit_raises(self):
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(FRAME_RESULT, encode_control_payload({})),
            )
        )
        stream = TileStream()
        stream.accept(frames[0])
        with pytest.raises(ServeProtocolError, match="before COMMIT"):
            stream.accept(frames[1])
