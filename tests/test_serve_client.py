"""Wire tests of the graph-service client against a scripted server.

A raw-socket server plays fixed response bytes, in pieces, so the
client's response reader meets every framing the protocol allows
(``Content-Length``, 304, chunked with extensions and trailers, a body
read to EOF), every split of the bytes across reads, and the
malformed or truncated responses it must refuse with
``ServeError(status=None)``.  Any split of a response must read as the
whole response does.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ServeError
from repro.net.codec import (
    FRAME_COMMIT,
    FRAME_OPEN,
    FRAME_RESULT,
    FRAME_TILE,
    encode_control_payload,
    encode_frame,
    encode_tile_payload,
)
from repro.serve import ServeClient, ServerConfig, start_in_thread
from repro.serve.http import MAX_HEADER_BYTES

DOC = {"digest": "sha256:" + "ab" * 32, "cached": True, "record": {"num_edges": "7"}}
ETAG = '"etag-1"'
BODY = json.dumps(DOC).encode()

JSON_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"ETag: " + ETAG.encode() + b"\r\n"
    b"Content-Length: " + str(len(BODY)).encode() + b"\r\n\r\n" + BODY
)
NOT_MODIFIED = b"HTTP/1.1 304 Not Modified\r\nETag: " + ETAG.encode() + b"\r\n\r\n"

TILES = [
    (np.arange(5, dtype=np.int64), np.arange(5, 10, dtype=np.int64), np.ones(5, np.int64)),
    (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)),
    (np.array([3, 1], np.int64), np.array([2, 2], np.int64), np.array([9, 8], np.int64)),
]


def _tile_frames():
    nnz = sum(len(t[0]) for t in TILES)
    frames = [encode_frame(FRAME_OPEN, encode_control_payload({"start": 2}), rank=0)]
    frames += [
        encode_frame(FRAME_TILE, encode_tile_payload(*t), rank=0, tile_index=2 + i)
        for i, t in enumerate(TILES)
    ]
    stats = {"rank": 0, "tiles": len(TILES), "nnz": nnz}
    frames.append(encode_frame(FRAME_COMMIT, encode_control_payload(stats), rank=0))
    frames.append(encode_frame(FRAME_RESULT, encode_control_payload(stats)))
    return frames


def _chunked_reply():
    """A chunked tile stream, one frame per chunk (one chunk carries an
    extension, and a trailer follows the last), and the byte offsets at
    which a split lands inside a size line, a CRLF or a frame."""
    out = bytearray(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-repro-frames\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
    )
    splits = []
    for i, frame in enumerate(_tile_frames()):
        size_line = f"{len(frame):x}" + (";name=value" if i == 1 else "")
        splits += [len(out) + 1, len(out) + len(size_line) + 1]
        out += size_line.encode() + b"\r\n"
        splits += [len(out) + 3, len(out) + 20, len(out) + len(frame) // 2]
        out += frame
        splits.append(len(out) + 1)
        out += b"\r\n"
    splits.append(len(out) + 1)
    out += b"0\r\nX-Trailer: yes\r\n\r\n"
    return bytes(out), splits


CHUNKED_REPLY, CHUNKED_SPLITS = _chunked_reply()


class ScriptedServer:
    """Answers connections from a script, in accept order.

    Each connection's script is a list of replies, one per request read;
    a reply is a list of byte pieces, sent apart.  After its replies a
    connection is closed, or with ``hold`` kept open until :meth:`stop`.
    """

    def __init__(self, *connections, hold=False):
        self._script = list(connections)
        self._hold = hold
        self._conns = []
        self.accepted = 0
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        for replies in self._script:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # no client came
            self._conns.append(conn)
            self.accepted += 1
            try:
                conn.settimeout(10)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for reply in replies:
                    request = _read_request(conn)
                    if request is None:
                        break
                    self.requests.append(request)
                    for i, piece in enumerate(reply):
                        if i:
                            time.sleep(0.001)
                        conn.sendall(piece)
            except OSError:
                pass  # a client that gave up mid-reply
            if not self._hold:
                conn.close()

    def stop(self):
        self._thread.join(timeout=15)
        alive = self._thread.is_alive()
        for conn in self._conns:
            conn.close()
        self._listener.close()
        assert not alive, "the scripted server did not finish its script"

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def _read_request(conn):
    """One request's head and body, or ``None`` when the client closed
    (or never sent one)."""
    data = b""
    while b"\r\n\r\n" not in data:
        more = conn.recv(65536)
        if not more:
            return None
        data += more
    head, _, body = data.partition(b"\r\n\r\n")
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            while len(body) < int(value):
                body += conn.recv(65536)
    return head


def _split(raw, cuts):
    cuts = sorted({c for c in cuts if 0 < c < len(raw)})
    return [raw[a:b] for a, b in zip([0, *cuts], [*cuts, len(raw)])]


def _sync(url, call, timeout=10.0):
    with ServeClient(url, timeout=timeout) as client:
        return call(client)


def _assert_tiles(result):
    """``result`` is the stream :func:`_tile_frames` encodes."""
    assert result.tiles == [(2, 5), (3, 0), (4, 2)]
    assert result.nnz == 7
    for got, want in zip((result.rows, result.cols, result.vals), zip(*TILES)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.concatenate(want))


class TestBodies:
    def test_content_length_reply(self):
        with ScriptedServer([[JSON_REPLY]]) as server:
            reply = _sync(server.url, lambda c: c.get_design("d"))
        assert (reply.status, reply.etag, reply.doc) == (200, ETAG, DOC)
        assert server.requests[0].startswith(b"GET /v1/design/d HTTP/1.1\r\n")

    def test_304_has_no_body_even_without_a_length(self):
        with ScriptedServer([[NOT_MODIFIED, JSON_REPLY]]) as server:
            with ServeClient(server.url) as client:
                first = client.get_design("d", etag=ETAG)
                second = client.get_design("d")
        assert (first.status, first.etag, first.doc) == (304, ETAG, None)
        assert second.doc == DOC
        assert b"If-None-Match: " + ETAG.encode() in server.requests[0]
        assert server.accepted == 1

    def test_body_read_to_eof(self):
        reply = b"HTTP/1.1 200 OK\r\n\r\n" + BODY
        with ScriptedServer([[reply]]) as server:
            assert _sync(server.url, lambda c: c.health()) == DOC
        assert server.accepted == 1

    def test_chunked_tile_stream(self):
        with ScriptedServer([[CHUNKED_REPLY]]) as server:
            result = _sync(server.url, lambda c: c.fetch_tiles("d", 0, start=2))
        _assert_tiles(result)

    @given(
        which=st.sampled_from(["json", "304", "chunked"]),
        structural=st.lists(st.sampled_from(CHUNKED_SPLITS), max_size=4),
        anywhere=st.lists(st.integers(min_value=1, max_value=len(CHUNKED_REPLY)), max_size=4),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_split_reads_alike(self, which, structural, anywhere):
        raw, call = {
            "json": (JSON_REPLY, lambda c: c.get_design("d")),
            "304": (NOT_MODIFIED, lambda c: c.get_design("d", etag=ETAG)),
            "chunked": (CHUNKED_REPLY, lambda c: c.fetch_tiles("d", 0, start=2)),
        }[which]
        pieces = _split(raw, [*structural, *anywhere])
        with ScriptedServer([pieces]) as server:
            reply = _sync(server.url, call)
        if which == "chunked":
            _assert_tiles(reply)
        elif which == "304":
            assert (reply.status, reply.etag, reply.doc) == (304, ETAG, None)
        else:
            assert (reply.status, reply.etag, reply.doc) == (200, ETAG, DOC)


class TestConnections:
    def test_idle_connection_closed_by_the_server_is_retried_once(self):
        with ScriptedServer([[JSON_REPLY]], [[JSON_REPLY]]) as server:
            with ServeClient(server.url) as client:
                assert client.get_design("d").doc == DOC
                time.sleep(0.05)  # the server closes the idle connection
                assert client.get_design("d").doc == DOC
        assert server.accepted == 2
        assert len(server.requests) == 2

    def test_a_failing_retry_raises(self):
        # The first connection serves one reply and closes; the second
        # is accepted and closed before any response.
        with ScriptedServer([[JSON_REPLY]], []) as server:
            with ServeClient(server.url) as client:
                client.get_design("d")
                time.sleep(0.05)
                with pytest.raises(ServeError) as err:
                    client.get_design("d")
        assert err.value.status is None
        assert server.accepted == 2

    def test_connection_close_is_honoured(self):
        close_reply = JSON_REPLY.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1)
        # The server keeps the first connection open after its reply, so
        # a client that reused it would wait for a reply that never comes.
        with ScriptedServer([[close_reply]], [[JSON_REPLY]], hold=True) as server:
            with ServeClient(server.url, timeout=5.0) as client:
                assert client.get_design("d").doc == DOC
                assert client.get_design("d").doc == DOC
        assert server.accepted == 2

    def test_keep_alive_reuses_one_connection(self):
        with ScriptedServer([[JSON_REPLY, CHUNKED_REPLY, NOT_MODIFIED]]) as server:
            with ServeClient(server.url) as client:
                client.get_design("d")
                client.fetch_tiles("d", 0, start=2)
                client.get_design("d", etag=ETAG)
        assert server.accepted == 1


BAD_REPLIES = {
    "garbage status line": b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n",
    "not http": b"SSH-2.0-OpenSSH\r\n\r\n",
    "oversized head": b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * MAX_HEADER_BYTES + b"\r\n\r\n",
    "bad chunk size": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    "no CRLF after a chunk": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XX0\r\n\r\n"
    ),
    "EOF mid-body": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"a\": 1",
    "EOF mid-chunk": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n40\r\nabc",
    "EOF before the last chunk": CHUNKED_REPLY[:-30],
    "EOF mid-head": b"HTTP/1.1 200 OK\r\nContent-Le",
}


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(BAD_REPLIES))
    def test_malformed_or_truncated_reply_raises_without_status(self, name):
        raw = BAD_REPLIES[name]
        with ScriptedServer([[raw]]) as server:
            with pytest.raises(ServeError) as err:
                _sync(server.url, lambda c: c.health())
        assert err.value.status is None
        assert server.accepted == 1  # a fresh connection is not retried

    def test_timeout_raises_without_status(self):
        # The server accepts the connection and never answers.
        with ScriptedServer([[]], hold=True) as server:
            started = time.monotonic()
            with pytest.raises(ServeError, match="timed out") as err:
                _sync(server.url, lambda c: c.health(), timeout=0.2)
            elapsed = time.monotonic() - started
        assert err.value.status is None
        assert server.accepted == 1
        assert elapsed < 5

    def test_error_status_keeps_its_code(self):
        body = b'{"error": "no such digest", "status": 404}'
        reply = (
            b"HTTP/1.1 404 Not Found\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        with ScriptedServer([[reply]]) as server:
            with pytest.raises(ServeError, match="no such digest") as err:
                _sync(server.url, lambda c: c.get_design("d"))
        assert err.value.status == 404
        assert server.accepted == 1


class TestQueryCommand:
    def test_query_prints_the_record_and_fetches_tiles(self, tmp_path, capsys):
        handle = start_in_thread(ServerConfig(cache_dir=str(tmp_path / "cache"), ranks=2))
        try:
            code = main(
                ["query", "--url", handle.base_url, "3", "4", "5",
                 "--self-loop", "center", "--rank", "0", "--ranks", "2",
                 "--start", "0", "--stop", "2", "--memory-budget", "100"]
            )
            out = capsys.readouterr().out
            with ServeClient(handle.base_url) as client:
                doc = client.post_design({"star_sizes": [3, 4, 5], "self_loop": "center"})
        finally:
            handle.stop()
        assert code == 0
        assert f"digest        {doc['digest']}" in out
        assert f"num_edges     {doc['record']['num_edges']}" in out
        assert "rank 0: 2 tiles," in out
        assert "(indices [0, 1])" in out
