"""Streamed per-edge/per-vertex triangle participation from shards.

The in-memory counters (:mod:`repro.validate.triangle_check`) need the
whole adjacency at once; this module answers the same question — and the
finer one, *which* edges and vertices the triangles touch — while
holding at most ``memory_budget_entries`` adjacency entries, so shard
output far larger than memory can still be checked.

The motivating comparison is Seshadhri/Pinar/Kolda (arXiv:1102.5046):
plain stochastic Kronecker graphs are triangle-deficient — almost no
edge participates in a triangle — while the noisy-initiator variant
and the paper's exact designs both place a substantial fraction of
edges inside triangles.  :func:`compare_triangle_participation` flags
exactly that deficiency.

Algorithm (degree-ordered wedge closure, blocked):

1. *Pass 0* streams the edges once and histograms the canonical
   out-counts (every edge oriented ``u → v`` with ``u < v``, loops
   dropped), an O(V) array.
2. The vertex range is greedily cut into **blocks** whose summed
   out-counts stay within half the budget, so any two blocks' oriented
   adjacency fits in the budget together (a single hub vertex may
   exceed the half-budget on its own — then, as in the engine's tiling
   story, peak memory is ``max(budget, largest single out-list × 2)``).
3. For each block pair ``(A, B)`` with ``B ≥ A`` the stream is scanned
   once more, keeping only edges whose canonical source lands in A or
   B (sorted, deduplicated CSR slabs).  Every wedge ``v, w ∈ out(u)``,
   ``v < w`` with ``u ∈ A`` and ``v ∈ B`` is closed by a binary search
   for ``w`` in ``out(v)`` — which lives in B because ``v`` is its
   canonical source.  Each triangle ``u < v < w`` is therefore found
   exactly once, in the pair ``(block(u), block(v))``.

Per-vertex counts live in one O(V) array; per-edge counts in a sparse
dict keyed by canonical edge (only edges inside at least one triangle
ever get an entry).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IOFormatError, ValidationError
from repro.io.tsv import READ_CHUNK_BYTES, iter_tsv_triples

#: Default adjacency-entry budget, matching the engine's per-rank default.
DEFAULT_TRIANGLE_BUDGET_ENTRIES = 50_000_000

def iter_shard_edges(
    directory: str | Path, *, chunk_bytes: int = READ_CHUNK_BYTES
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Stream a shard directory's edges rank by rank, chunk by chunk.

    Follows ``manifest.json``'s shard order (ascending rank), so the
    traversal is deterministic and never holds more than one chunk.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise IOFormatError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    for record in manifest["shards"]:
        path = directory / record["filename"]
        for triples in iter_tsv_triples(path, chunk_bytes=chunk_bytes):
            yield triples[:, 0], triples[:, 1]


def _manifest_num_vertices(directory: Path) -> Optional[int]:
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        return None
    fp = json.loads(manifest_path.read_text(encoding="ascii")).get(
        "fingerprint", {}
    )
    n = fp.get("num_vertices")
    return int(n) if n is not None else None


class _EdgeSource:
    """A re-iterable (rows, cols) chunk stream.

    Block loading scans the stream once per block pair, so the source
    must restart: shard directories re-open their files, and in-memory
    sequences re-iterate.  A one-shot iterator is materialized up front
    (with a note in ``passes`` accounting that it then costs memory).
    """

    def __init__(self, edges, chunk_bytes: int) -> None:
        self.passes = 0
        self._directory: Optional[Path] = None
        self._chunks: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._restartable = None
        self._chunk_bytes = chunk_bytes
        if isinstance(edges, (str, Path)):
            self._directory = Path(edges)
        elif isinstance(edges, (list, tuple)):
            self._chunks = [
                (np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64))
                for r, c in edges
            ]
        elif hasattr(edges, "__iter__") and iter(edges) is not edges:
            # A restartable chunk producer (e.g. the catalog's
            # plan-backed edge stream): re-generate per pass instead of
            # materializing, preserving the bounded-memory guarantee.
            self._restartable = edges
        else:
            self._chunks = [
                (np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64))
                for r, c in edges
            ]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        self.passes += 1
        if self._directory is not None:
            return iter_shard_edges(
                self._directory, chunk_bytes=self._chunk_bytes
            )
        if self._restartable is not None:
            return (
                (
                    np.asarray(r, dtype=np.int64),
                    np.asarray(c, dtype=np.int64),
                )
                for r, c in self._restartable
            )
        return iter(self._chunks)


def _canonical(
    rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Orient ``u → v`` with ``u < v`` and drop self-loops (symmetric
    kron output stores both directions; deduplication happens per block)."""
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return np.minimum(rows, cols), np.maximum(rows, cols)


@dataclass(frozen=True)
class _Block:
    """One vertex range's oriented adjacency, CSR over ``[lo, hi)``."""

    lo: int
    hi: int
    indptr: np.ndarray  # len hi - lo + 1
    dst: np.ndarray  # sorted unique per source

    def neighbors(self, u: int) -> np.ndarray:
        base = u - self.lo
        return self.dst[self.indptr[base] : self.indptr[base + 1]]


def _load_blocks(
    source: _EdgeSource, ranges: Sequence[Tuple[int, int]]
) -> List[_Block]:
    """One stream pass keeping the oriented edges of the given vertex
    ranges, returned as sorted+deduplicated CSR blocks."""
    keeps: List[List[np.ndarray]] = [[[], []] for _ in ranges]  # type: ignore[misc]
    for rows, cols in source:
        u, v = _canonical(rows, cols)
        for i, (lo, hi) in enumerate(ranges):
            mask = (u >= lo) & (u < hi)
            if mask.any():
                keeps[i][0].append(u[mask])
                keeps[i][1].append(v[mask])
    blocks = []
    for (lo, hi), (us, vs) in zip(ranges, keeps):
        if us:
            u = np.concatenate(us)
            v = np.concatenate(vs)
            order = np.lexsort((v, u))
            u, v = u[order], v[order]
            if len(u):
                uniq = np.empty(len(u), dtype=bool)
                uniq[0] = True
                np.not_equal(u[1:], u[:-1], out=uniq[1:])
                uniq[1:] |= v[1:] != v[:-1]
                u, v = u[uniq], v[uniq]
        else:
            u = np.empty(0, dtype=np.int64)
            v = np.empty(0, dtype=np.int64)
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.add.at(indptr, u - lo + 1, 1)
        np.cumsum(indptr, out=indptr)
        blocks.append(_Block(lo=lo, hi=hi, indptr=indptr, dst=v))
    return blocks


@dataclass(frozen=True)
class TriangleStreamResult:
    """Streamed triangle-participation measurement of one edge set.

    ``vertex_participation`` and ``edge_participation`` are histograms
    ``{triangles_participated_in: count}`` over all vertices (including
    isolated ones) and all distinct undirected edges respectively.
    """

    num_vertices: int
    num_edges: int
    num_triangles: int
    vertex_participation: Dict[int, int]
    edge_participation: Dict[int, int]
    memory_budget_entries: int
    num_blocks: int
    stream_passes: int

    @property
    def edges_in_triangles(self) -> int:
        """Distinct edges participating in at least one triangle."""
        return sum(c for k, c in self.edge_participation.items() if k > 0)

    @property
    def vertices_in_triangles(self) -> int:
        return sum(c for k, c in self.vertex_participation.items() if k > 0)

    @property
    def edge_participation_fraction(self) -> float:
        """Fraction of distinct edges inside ≥1 triangle — the headline
        statistic of arXiv:1102.5046's deficiency argument."""
        if not self.num_edges:
            return 0.0
        return self.edges_in_triangles / self.num_edges

    def to_text(self) -> str:
        lines = [
            f"streamed triangle participation "
            f"({self.num_blocks} blocks, {self.stream_passes} passes, "
            f"budget {self.memory_budget_entries:,} entries)",
            f"  vertices: {self.num_vertices:,}  "
            f"distinct edges: {self.num_edges:,}",
            f"  triangles: {self.num_triangles:,}",
            f"  edges in >=1 triangle: {self.edges_in_triangles:,} "
            f"({self.edge_participation_fraction:.1%})",
            f"  vertices in >=1 triangle: {self.vertices_in_triangles:,}",
        ]
        return "\n".join(lines)


def triangle_stream(
    edges,
    num_vertices: Optional[int] = None,
    *,
    memory_budget_entries: int = DEFAULT_TRIANGLE_BUDGET_ENTRIES,
    chunk_bytes: int = READ_CHUNK_BYTES,
) -> TriangleStreamResult:
    """Measure per-edge/per-vertex triangle participation, streamed.

    ``edges`` is a shard directory written by a streamed run (its
    ``manifest.json`` supplies shard order and ``num_vertices``), or an
    in-memory sequence/iterable of ``(rows, cols)`` array pairs.  The
    edge set is treated as an undirected simple graph: orientations are
    canonicalized, self-loops dropped, duplicates merged.

    At most ``memory_budget_entries`` oriented adjacency entries are
    held at once (see the module docstring for the one hub-vertex
    exception), at the cost of re-streaming the source once per block
    pair — ``stream_passes`` in the result records the actual count.
    """
    if memory_budget_entries < 1:
        raise ValidationError(
            f"memory_budget_entries must be positive, got "
            f"{memory_budget_entries}"
        )
    if num_vertices is None and isinstance(edges, (str, Path)):
        num_vertices = _manifest_num_vertices(Path(edges))
    source = _EdgeSource(edges, chunk_bytes)

    # Pass 0: canonical out-counts (pre-dedup — a safe overestimate for
    # packing) and, if still unknown, the vertex-id ceiling.
    counts = np.zeros(0 if num_vertices is None else num_vertices, np.int64)
    infer = num_vertices is None
    for rows, cols in source:
        u, v = _canonical(rows, cols)
        if not len(u):
            continue
        top = int(v.max()) + 1
        if len(counts) < top:
            if not infer:
                raise ValidationError(
                    f"edge endpoint {top - 1} out of range for "
                    f"num_vertices={len(counts)}"
                )
            counts = np.concatenate(
                [counts, np.zeros(top - len(counts), np.int64)]
            )
        counts += np.bincount(u, minlength=len(counts))
    n = len(counts)

    # Greedy half-budget blocks: any two fit in the budget together.
    half = max(1, memory_budget_entries // 2)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    acc = 0
    for v_id in range(n):
        c = int(counts[v_id])
        if acc and acc + c > half:
            ranges.append((lo, v_id))
            lo, acc = v_id, 0
        acc += c
    if lo < n or not ranges:
        ranges.append((lo, n))

    vertex_tri = np.zeros(n, dtype=np.int64)
    edge_tri: Dict[Tuple[int, int], int] = {}
    num_edges = 0
    counted_blocks = set()

    for a_idx in range(len(ranges)):
        for b_idx in range(a_idx, len(ranges)):
            if a_idx == b_idx:
                (block_a,) = _load_blocks(source, [ranges[a_idx]])
                block_b = block_a
            else:
                block_a, block_b = _load_blocks(
                    source, [ranges[a_idx], ranges[b_idx]]
                )
            for idx, block in ((a_idx, block_a), (b_idx, block_b)):
                if idx not in counted_blocks:
                    counted_blocks.add(idx)
                    num_edges += len(block.dst)
            b_lo, b_hi = block_b.lo, block_b.hi
            for u in range(block_a.lo, block_a.hi):
                ns = block_a.neighbors(u)
                if len(ns) < 2:
                    continue
                # Wedge pivots v must live in B (their out-list is there).
                pivots = ns[(ns >= b_lo) & (ns < b_hi)]
                for v in pivots:
                    ws = ns[ns > v]
                    if not len(ws):
                        continue
                    adj_v = block_b.neighbors(int(v))
                    if not len(adj_v):
                        continue
                    pos = np.searchsorted(adj_v, ws)
                    pos[pos >= len(adj_v)] = len(adj_v) - 1
                    closed = ws[adj_v[pos] == ws]
                    hits = len(closed)
                    if not hits:
                        continue
                    vertex_tri[u] += hits
                    vertex_tri[int(v)] += hits
                    vertex_tri[closed] += 1
                    uv = (u, int(v))
                    edge_tri[uv] = edge_tri.get(uv, 0) + hits
                    for w in closed:
                        w = int(w)
                        for e in ((u, w), (int(v), w)):
                            edge_tri[e] = edge_tri.get(e, 0) + 1

    degrees, vertex_counts = np.unique(vertex_tri, return_counts=True)
    vertex_participation = {
        int(d): int(c) for d, c in zip(degrees, vertex_counts)
    }
    edge_participation: Dict[int, int] = {}
    for count in edge_tri.values():
        edge_participation[count] = edge_participation.get(count, 0) + 1
    untouched = num_edges - len(edge_tri)
    if untouched:
        edge_participation[0] = untouched
    return TriangleStreamResult(
        num_vertices=n,
        num_edges=num_edges,
        num_triangles=int(vertex_tri.sum()) // 3,
        vertex_participation=vertex_participation,
        edge_participation=edge_participation,
        memory_budget_entries=memory_budget_entries,
        num_blocks=len(ranges),
        stream_passes=source.passes,
    )


@dataclass(frozen=True)
class TriangleComparison:
    """A measured triangle profile against a prediction or baseline."""

    predicted_triangles: int
    measured_triangles: int
    predicted_edge_fraction: Optional[float]
    measured_edge_fraction: float
    threshold: float

    @property
    def triangle_ratio(self) -> float:
        """measured / predicted (1.0 = full agreement; ∞-safe)."""
        if not self.predicted_triangles:
            return float("inf") if self.measured_triangles else 1.0
        return self.measured_triangles / self.predicted_triangles

    @property
    def deficient(self) -> bool:
        """True when the measured graph realizes less than ``threshold``
        of the predicted triangles — the arXiv:1102.5046 signature of
        plain SKG against an exact design or its noisy variant."""
        return self.triangle_ratio < self.threshold

    def to_text(self) -> str:
        lines = [
            f"triangles: measured {self.measured_triangles:,} vs "
            f"predicted {self.predicted_triangles:,} "
            f"(ratio {self.triangle_ratio:.3g})",
            f"  edges in triangles: {self.measured_edge_fraction:.1%} "
            + (
                f"vs {self.predicted_edge_fraction:.1%} baseline"
                if self.predicted_edge_fraction is not None
                else "(no baseline fraction)"
            ),
            "  TRIANGLE-DEFICIENT (below "
            f"{self.threshold:.0%} of prediction)"
            if self.deficient
            else f"  not deficient (>= {self.threshold:.0%} of prediction)",
        ]
        return "\n".join(lines)


def compare_triangle_participation(
    predicted, measured: TriangleStreamResult, *, threshold: float = 0.5
) -> TriangleComparison:
    """Compare a streamed measurement against a prediction or baseline.

    ``predicted`` may be an exact triangle count (int), a
    ``PowerLawDesign`` (its closed-form ``num_triangles``), or another
    :class:`TriangleStreamResult` (e.g. the noisy-SKG baseline the
    plain-SKG run is checked against).
    """
    predicted_fraction: Optional[float] = None
    if isinstance(predicted, TriangleStreamResult):
        predicted_triangles = predicted.num_triangles
        predicted_fraction = predicted.edge_participation_fraction
    elif hasattr(predicted, "num_triangles"):
        predicted_triangles = int(predicted.num_triangles)
    else:
        predicted_triangles = int(predicted)
    return TriangleComparison(
        predicted_triangles=predicted_triangles,
        measured_triangles=measured.num_triangles,
        predicted_edge_fraction=predicted_fraction,
        measured_edge_fraction=measured.edge_participation_fraction,
        threshold=threshold,
    )
