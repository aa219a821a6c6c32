"""Slow reference implementations the fast paths are tested against.

Each is the loop the program ran before its vectorized replacement:
the per-edge f-string TSV encoder, the per-line TSV reader, the
floating-point stochastic Kronecker kernel, the id-ordered triangle
participation loop, and the tile-frame codec that built each frame by
concatenation and copied every decoded array twice.
"""

import struct
import zlib
from typing import List, Tuple

import numpy as np

from repro.errors import FrameCodecError, IOFormatError
from repro.net.codec import (
    _HEADER,
    _TILE_DTYPE_KINDS,
    CODEC_VERSION,
    FRAME_MAGIC,
    FRAME_NAMES,
)
from repro.models.skg import counter_u01


def fstring_tsv(rows, cols, vals) -> bytes:
    """One tile as TSV bytes, one f-string per edge (the shard format)."""
    lines = [
        f"{int(r)}\t{int(c)}\t{int(v)}\n" for r, c, v in zip(rows, cols, vals)
    ]
    return "".join(lines).encode("ascii")


def read_tsv_lines(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-line ``int()`` TSV reader; skips ``#`` comments and blank
    lines, raises :class:`IOFormatError` on a malformed line."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise IOFormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                vals.append(int(parts[2]))
            except ValueError as exc:
                raise IOFormatError(f"{path}:{lineno}: non-integer field") from exc
    return tuple(np.asarray(x, dtype=np.int64) for x in (rows, cols, vals))


def skg_generate_float(model, lo: int, hi: int):
    """Place SKG edges ``[lo, hi)`` with float draws compared against the
    float thresholds, over the whole range at once."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    rows = np.zeros(hi - lo, dtype=np.int64)
    cols = np.zeros(hi - lo, dtype=np.int64)
    for level, (t1, t2, t3) in enumerate(model._thresholds):
        u = counter_u01(model.seed, idx, level)
        q = (u >= t1).astype(np.int64)
        q += u >= t2
        q += u >= t3
        rows = (rows << 1) | (q >> 1)
        cols = (cols << 1) | (q & 1)
    return rows, cols, np.ones(hi - lo, dtype=np.int64)


def _canonical_by_id(rows: np.ndarray, cols: np.ndarray):
    """Orient ``u → v`` with ``u < v`` and drop self-loops."""
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return np.minimum(rows, cols), np.maximum(rows, cols)


def _load_id_blocks(source, ranges):
    """One stream pass keeping the id-oriented edges of the given vertex
    ranges, as sorted, deduplicated CSR ``(lo, indptr, dst)`` blocks."""
    keeps = [([], []) for _ in ranges]
    for rows, cols in source:
        u, v = _canonical_by_id(rows, cols)
        for (us, vs), (lo, hi) in zip(keeps, ranges):
            mask = (u >= lo) & (u < hi)
            us.append(u[mask])
            vs.append(v[mask])
    blocks = []
    for (lo, hi), (us, vs) in zip(ranges, keeps):
        u = np.concatenate(us) if us else np.empty(0, np.int64)
        v = np.concatenate(vs) if vs else np.empty(0, np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        if len(u):
            uniq = np.empty(len(u), dtype=bool)
            uniq[0] = True
            np.not_equal(u[1:], u[:-1], out=uniq[1:])
            uniq[1:] |= v[1:] != v[:-1]
            u, v = u[uniq], v[uniq]
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.add.at(indptr, u - lo + 1, 1)
        np.cumsum(indptr, out=indptr)
        blocks.append((lo, indptr, v))
    return blocks


def triangle_stream_by_id(edges, num_vertices=None, *, memory_budget_entries):
    """The blocked triangle pass ``triangle_stream`` ran before its
    degree-ordered closure: edges oriented by vertex id, one Python
    iteration per (vertex, pivot) and one dict update per closed wedge.

    ``edges`` is a list of ``(rows, cols)`` int64 chunks.  Returns the
    measured fields ``num_vertices``, ``num_edges``, ``num_triangles``,
    ``vertex_participation`` and ``edge_participation`` as a dict.
    """
    source = [(np.asarray(r, np.int64), np.asarray(c, np.int64)) for r, c in edges]
    counts = np.zeros(0 if num_vertices is None else num_vertices, np.int64)
    for rows, cols in source:
        u, v = _canonical_by_id(rows, cols)
        if not len(u):
            continue
        top = int(v.max()) + 1
        if len(counts) < top:
            if num_vertices is not None:
                raise ValueError(f"edge endpoint {top - 1} out of range")
            counts = np.concatenate([counts, np.zeros(top - len(counts), np.int64)])
        counts += np.bincount(u, minlength=len(counts))
    n = len(counts)

    half = max(1, memory_budget_entries // 2)
    ranges = []
    lo = acc = 0
    for v_id in range(n):
        c = int(counts[v_id])
        if acc and acc + c > half:
            ranges.append((lo, v_id))
            lo, acc = v_id, 0
        acc += c
    if lo < n or not ranges:
        ranges.append((lo, n))

    vertex_tri = np.zeros(n, dtype=np.int64)
    edge_tri = {}
    num_edges = 0
    counted = set()
    for a_idx in range(len(ranges)):
        for b_idx in range(a_idx, len(ranges)):
            pair = [ranges[a_idx]] if a_idx == b_idx else [ranges[a_idx], ranges[b_idx]]
            blocks = _load_id_blocks(source, pair)
            (a_lo, a_ptr, a_dst), (b_lo, b_ptr, b_dst) = blocks[0], blocks[-1]
            for idx, (_lo, _ptr, dst) in zip(sorted({a_idx, b_idx}), blocks):
                if idx not in counted:
                    counted.add(idx)
                    num_edges += len(dst)
            b_hi = ranges[b_idx][1]
            for u in range(a_lo, ranges[a_idx][1]):
                ns = a_dst[a_ptr[u - a_lo] : a_ptr[u - a_lo + 1]]
                if len(ns) < 2:
                    continue
                for v in ns[(ns >= b_lo) & (ns < b_hi)]:
                    ws = ns[ns > v]
                    adj_v = b_dst[b_ptr[v - b_lo] : b_ptr[v - b_lo + 1]]
                    if not len(ws) or not len(adj_v):
                        continue
                    pos = np.searchsorted(adj_v, ws)
                    pos[pos >= len(adj_v)] = len(adj_v) - 1
                    closed = ws[adj_v[pos] == ws]
                    if not len(closed):
                        continue
                    vertex_tri[u] += len(closed)
                    vertex_tri[int(v)] += len(closed)
                    vertex_tri[closed] += 1
                    uv = (u, int(v))
                    edge_tri[uv] = edge_tri.get(uv, 0) + len(closed)
                    for w in closed.tolist():
                        for e in ((u, w), (int(v), w)):
                            edge_tri[e] = edge_tri.get(e, 0) + 1

    degrees, vertex_counts = np.unique(vertex_tri, return_counts=True)
    edge_participation = {}
    for count in edge_tri.values():
        edge_participation[count] = edge_participation.get(count, 0) + 1
    if num_edges - len(edge_tri):
        edge_participation[0] = num_edges - len(edge_tri)
    return {
        "num_vertices": n,
        "num_edges": num_edges,
        "num_triangles": int(vertex_tri.sum()) // 3,
        "vertex_participation": {
            int(d): int(c) for d, c in zip(degrees, vertex_counts)
        },
        "edge_participation": edge_participation,
    }


def encode_frame(
    frame_type: int,
    payload: bytes = b"",
    *,
    rank: int = -1,
    tile_index: int = -1,
) -> bytes:
    """One frame: the header with its CRC over bytes 8.., then the payload."""
    if frame_type not in FRAME_NAMES:
        raise FrameCodecError(f"unknown frame type {frame_type}")
    body = _HEADER.pack(
        FRAME_MAGIC, 0, CODEC_VERSION, frame_type, 0, rank, tile_index, len(payload)
    )[8:] + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return FRAME_MAGIC + struct.pack(">I", crc) + body


def _encode_array(arr: np.ndarray) -> bytes:
    dtype_str = arr.dtype.str.encode("ascii")
    return struct.pack(">B", len(dtype_str)) + dtype_str + arr.tobytes()


def encode_tile_payload(rows, cols, vals) -> bytes:
    """The element count, then each array's dtype tag and bytes."""
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
    return struct.pack(">I", n) + b"".join(_encode_array(a) for a in arrays)


def decode_tile_payload(payload: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_tile_payload`; refuses malformed bytes."""
    if len(payload) < 4:
        raise FrameCodecError("tile payload truncated before element count")
    (n,) = struct.unpack_from(">I", payload)
    offset = 4
    arrays = []
    for which in ("rows", "cols", "vals"):
        if len(payload) < offset + 1:
            raise FrameCodecError(f"tile payload truncated before {which} dtype")
        (tag_len,) = struct.unpack_from(">B", payload, offset)
        offset += 1
        tag = payload[offset : offset + tag_len]
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
        raw = payload[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise FrameCodecError(
                f"tile payload truncated inside {which} data "
                f"({len(raw)} of {nbytes} bytes)"
            )
        offset += nbytes
        arrays.append(np.frombuffer(raw, dtype=dtype).copy())
    if offset != len(payload):
        raise FrameCodecError(
            f"tile payload has {len(payload) - offset} trailing garbage byte(s)"
        )
    return arrays[0], arrays[1], arrays[2]
