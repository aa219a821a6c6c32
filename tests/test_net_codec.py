"""Property-based tests of the repro.net wire codec.

The codec's promise is *checksum-or-refuse*: any frame it decodes is
exactly what was encoded, and anything else — any truncation, any
single flipped bit, any trailing garbage — raises a typed
:class:`~repro.errors.FrameCodecError` instead of yielding a garbage
tile.  Hypothesis hammers both directions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameCodecError, FrameIntegrityError
from repro.net.codec import (
    FRAME_MAGIC,
    FRAME_NAMES,
    FRAME_TILE,
    HEADER_BYTES,
    decode_control_payload,
    decode_frame,
    decode_tile_payload,
    decode_tile_views,
    encode_control_payload,
    encode_frame,
    encode_tile_payload,
    frame_parts,
    tile_payload_parts,
)
from tests import oracles

#: Every dtype legal on the wire, spanning kinds b/i/u/f and widths.
WIRE_DTYPES = [
    np.bool_,
    np.int8,
    np.int16,
    np.int32,
    np.int64,
    np.uint8,
    np.uint16,
    np.uint32,
    np.uint64,
    np.float32,
    np.float64,
]

frame_types = st.sampled_from(sorted(FRAME_NAMES))
ranks = st.integers(min_value=-1, max_value=2**31 - 1)
tile_indices = st.integers(min_value=-1, max_value=2**31 - 1)
payloads = st.binary(max_size=512)


def arrays_of(dtype, max_len=64):
    if np.dtype(dtype).kind == "f":
        elements = st.floats(
            allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8
        )
    elif np.dtype(dtype).kind == "b":
        elements = st.booleans()
    else:
        info = np.iinfo(dtype)
        elements = st.integers(min_value=int(info.min), max_value=int(info.max))
    return st.lists(elements, max_size=max_len).map(
        lambda xs: np.asarray(xs, dtype=dtype)
    )


@st.composite
def tile_triples(draw):
    """Three equal-length 1-D arrays with independently drawn dtypes."""
    n = draw(st.integers(min_value=0, max_value=48))
    out = []
    for _ in range(3):
        dtype = draw(st.sampled_from(WIRE_DTYPES))
        if np.dtype(dtype).kind == "f":
            elements = st.floats(
                allow_nan=False,
                allow_infinity=False,
                width=np.dtype(dtype).itemsize * 8,
            )
        elif np.dtype(dtype).kind == "b":
            elements = st.booleans()
        else:
            info = np.iinfo(dtype)
            elements = st.integers(
                min_value=int(info.min), max_value=int(info.max)
            )
        xs = draw(st.lists(elements, min_size=n, max_size=n))
        out.append(np.asarray(xs, dtype=dtype))
    return tuple(out)


class TestFrameRoundtrip:
    @given(frame_types, payloads, ranks, tile_indices)
    def test_roundtrip_exact(self, frame_type, payload, rank, tile_index):
        data = encode_frame(frame_type, payload, rank=rank, tile_index=tile_index)
        frame = decode_frame(data)
        assert frame.frame_type == frame_type
        assert frame.rank == rank
        assert frame.tile_index == tile_index
        assert frame.payload == payload
        assert frame.type_name == FRAME_NAMES[frame_type]

    @given(frame_types, payloads)
    def test_encoded_length_is_header_plus_payload(self, frame_type, payload):
        assert len(encode_frame(frame_type, payload)) == HEADER_BYTES + len(payload)

    def test_unknown_frame_type_refused_at_encode(self):
        with pytest.raises(FrameCodecError):
            encode_frame(99, b"")


class TestFrameCorruption:
    @given(frame_types, st.binary(min_size=1, max_size=64), st.data())
    @settings(max_examples=200)
    def test_any_single_bit_flip_is_detected(self, frame_type, payload, data):
        encoded = encode_frame(frame_type, payload, rank=3, tile_index=1)
        pos = data.draw(
            st.integers(min_value=0, max_value=len(encoded) * 8 - 1),
            label="bit position",
        )
        mutated = bytearray(encoded)
        mutated[pos // 8] ^= 1 << (pos % 8)
        with pytest.raises(FrameCodecError):
            decode_frame(bytes(mutated))

    @given(frame_types, payloads, st.data())
    def test_any_truncation_is_detected(self, frame_type, payload, data):
        encoded = encode_frame(frame_type, payload)
        cut = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1), label="cut"
        )
        with pytest.raises(FrameCodecError):
            decode_frame(encoded[:cut])

    @given(frame_types, payloads, st.binary(min_size=1, max_size=16))
    def test_trailing_garbage_is_detected(self, frame_type, payload, extra):
        with pytest.raises(FrameCodecError):
            decode_frame(encode_frame(frame_type, payload) + extra)

    def test_bad_magic_is_a_codec_error_not_integrity(self):
        encoded = bytearray(encode_frame(3, b"x" * 8))
        encoded[0] ^= 0xFF
        with pytest.raises(FrameCodecError) as excinfo:
            decode_frame(bytes(encoded))
        assert not isinstance(excinfo.value, FrameIntegrityError)
        assert "magic" in str(excinfo.value)

    def test_payload_bit_flip_is_an_integrity_error(self):
        encoded = bytearray(encode_frame(3, b"x" * 8))
        encoded[HEADER_BYTES + 2] ^= 0x10
        with pytest.raises(FrameIntegrityError):
            decode_frame(bytes(encoded))

    def test_integrity_error_is_a_codec_error(self):
        # One except clause catches both structural and bit-rot damage.
        assert issubclass(FrameIntegrityError, FrameCodecError)

    def test_wrong_version_refused(self):
        import struct
        import zlib

        from repro.net.codec import _HEADER

        body = _HEADER.pack(FRAME_MAGIC, 0, 2, 3, 0, -1, -1, 0)[8:]
        crc = zlib.crc32(body) & 0xFFFFFFFF
        data = FRAME_MAGIC + struct.pack(">I", crc) + body
        with pytest.raises(FrameCodecError, match="version"):
            decode_frame(data)


class TestTilePayloadRoundtrip:
    @given(tile_triples())
    @settings(max_examples=150)
    def test_roundtrip_exact_values_and_dtypes(self, triple):
        rows, cols, vals = triple
        out = decode_tile_payload(encode_tile_payload(rows, cols, vals))
        for sent, got in zip((rows, cols, vals), out):
            assert got.dtype == sent.dtype
            np.testing.assert_array_equal(got, sent)

    @given(st.sampled_from(WIRE_DTYPES))
    def test_empty_tile_roundtrips(self, dtype):
        empty = np.zeros(0, dtype=dtype)
        out = decode_tile_payload(encode_tile_payload(empty, empty, empty))
        assert all(len(a) == 0 and a.dtype == np.dtype(dtype) for a in out)

    @given(tile_triples(), st.data())
    @settings(max_examples=100)
    def test_truncated_tile_payload_detected(self, triple, data):
        payload = encode_tile_payload(*triple)
        cut = data.draw(
            st.integers(min_value=0, max_value=len(payload) - 1), label="cut"
        )
        with pytest.raises(FrameCodecError):
            decode_tile_payload(payload[:cut])

    @given(tile_triples(), st.binary(min_size=1, max_size=8))
    def test_trailing_garbage_in_tile_payload_detected(self, triple, extra):
        with pytest.raises(FrameCodecError):
            decode_tile_payload(encode_tile_payload(*triple) + extra)

    def test_mismatched_lengths_refused(self):
        a = np.arange(3)
        with pytest.raises(FrameCodecError, match="length"):
            encode_tile_payload(a, a, np.arange(4))

    def test_2d_arrays_refused(self):
        a = np.zeros((2, 2))
        with pytest.raises(FrameCodecError, match="1-D"):
            encode_tile_payload(a, a, a)

    def test_object_dtype_refused(self):
        a = np.asarray(["x", "y"], dtype=object)
        with pytest.raises(FrameCodecError):
            encode_tile_payload(a, a, a)

    def test_decoded_arrays_are_writable_copies(self):
        a = np.arange(5, dtype=np.int64)
        rows, _, _ = decode_tile_payload(encode_tile_payload(a, a, a))
        rows[0] = 99  # must not raise (np.frombuffer views are read-only)


#: Fixed-width numeric dtypes in both byte orders.
ORDERED_DTYPES = [np.dtype(np.bool_), np.dtype(np.int8), np.dtype(np.uint8)] + [
    np.dtype(order + code)
    for order in "<>"
    for code in ("i2", "i4", "i8", "u2", "u4", "u8", "f2", "f4", "f8")
]
INT32_EDGES = st.sampled_from([-(2**31), -1, 0, 1, 2**31 - 1])


@st.composite
def oracle_triples(draw):
    """Tiles of any ordered dtype, contiguous or strided, length 0 up."""
    n = draw(st.integers(min_value=0, max_value=8))
    step = draw(st.sampled_from([1, 2, -1]))
    out = []
    for _ in range(3):
        dtype = draw(st.sampled_from(ORDERED_DTYPES))
        raw = draw(st.binary(min_size=n * dtype.itemsize * 2, max_size=n * dtype.itemsize * 2))
        base = np.frombuffer(raw, dtype=dtype)  # any bit pattern, NaNs included
        out.append(base[::step][:n] if step != 1 else base[:n])
    return tuple(out)


def _outcome(fn, *args):
    """What ``fn(*args)`` does: its arrays' dtypes and bytes, or the
    codec error it raises."""
    try:
        arrays = fn(*args)
    except FrameCodecError as exc:
        return type(exc), str(exc)
    return [(a.dtype.str, a.tobytes()) for a in arrays]


class TestAgainstOracle:
    """The parts encoders and in-place decoders against the codec that
    built frames by concatenation (``tests/oracles.py``)."""

    @given(oracle_triples(), INT32_EDGES, INT32_EDGES)
    @settings(max_examples=200)
    def test_bytes_equal_the_oracle(self, triple, rank, tile_index):
        payload = oracles.encode_tile_payload(*triple)
        frame = oracles.encode_frame(FRAME_TILE, payload, rank=rank, tile_index=tile_index)
        assert encode_tile_payload(*triple) == payload
        assert encode_frame(FRAME_TILE, payload, rank=rank, tile_index=tile_index) == frame
        parts = frame_parts(
            FRAME_TILE, tile_payload_parts(*triple), rank=rank, tile_index=tile_index
        )
        assert b"".join(parts) == frame

    @given(oracle_triples(), INT32_EDGES, INT32_EDGES)
    @settings(max_examples=100)
    def test_bytes_and_views_decode_alike(self, triple, rank, tile_index):
        payload = oracles.encode_tile_payload(*triple)
        frame = oracles.encode_frame(FRAME_TILE, payload, rank=rank, tile_index=tile_index)
        want = _outcome(oracles.decode_tile_payload, payload)
        for data in (frame, bytearray(frame), memoryview(frame)):
            decoded = decode_frame(data)
            assert (decoded.frame_type, decoded.rank, decoded.tile_index) == (
                FRAME_TILE, rank, tile_index
            )
            assert decoded.payload == payload
            assert _outcome(decode_tile_payload, decoded.payload) == want
            assert _outcome(decode_tile_views, decoded.payload) == want
        for arr in decode_tile_payload(memoryview(payload)):
            assert arr.flags.writeable and arr.flags.owndata

    @given(oracle_triples())
    @settings(max_examples=50)
    def test_every_payload_byte_flip_decodes_as_the_oracle_does(self, triple):
        payload = oracles.encode_tile_payload(*triple)
        for pos in range(len(payload)):
            mutated = bytearray(payload)
            mutated[pos] ^= 0xFF
            want = _outcome(oracles.decode_tile_payload, bytes(mutated))
            assert _outcome(decode_tile_payload, bytes(mutated)) == want
            assert _outcome(decode_tile_views, memoryview(mutated)) == want

    @given(oracle_triples(), INT32_EDGES)
    @settings(max_examples=50)
    def test_every_byte_flip_after_the_magic_raises(self, triple, rank):
        frame = encode_frame(FRAME_TILE, encode_tile_payload(*triple), rank=rank)
        length_field = range(HEADER_BYTES - 4, HEADER_BYTES)
        for pos in range(len(FRAME_MAGIC), len(frame)):
            mutated = bytearray(frame)
            mutated[pos] ^= 0xFF
            errors = []
            for data in (bytes(mutated), memoryview(mutated)):
                with pytest.raises(FrameCodecError) as err:
                    decode_frame(data)
                errors.append((type(err.value), str(err.value)))
            assert errors[0] == errors[1]
            expected = FrameCodecError if pos in length_field else FrameIntegrityError
            assert errors[0][0] is expected


class TestControlPayload:
    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**53), max_value=2**53)
        | st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=8,
            ),
            children,
            max_size=4,
        ),
        max_leaves=10,
    )

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=12,
            ),
            json_values,
            max_size=6,
        )
    )
    def test_roundtrip(self, doc):
        assert decode_control_payload(encode_control_payload(doc)) == doc

    def test_deterministic_bytes(self):
        # Same doc, any key order → same canonical bytes (manifests and
        # handshakes must not depend on dict iteration order).
        assert encode_control_payload(
            {"b": 1, "a": 2}
        ) == encode_control_payload({"a": 2, "b": 1})

    def test_non_ascii_text_roundtrips_via_escapes(self):
        # json escapes non-ASCII (\uXXXX), so the wire stays pure ASCII.
        doc = {"k": "naïve ▲"}
        payload = encode_control_payload(doc)
        payload.decode("ascii")  # must not raise
        assert decode_control_payload(payload) == doc

    def test_unencodable_value_refused(self):
        with pytest.raises(FrameCodecError):
            encode_control_payload({"k": b"raw bytes"})

    def test_non_object_refused_at_decode(self):
        with pytest.raises(FrameCodecError, match="object"):
            decode_control_payload(b"[1,2]")

    def test_invalid_bytes_refused(self):
        with pytest.raises(FrameCodecError):
            decode_control_payload(b"\xff\xfe not json")
