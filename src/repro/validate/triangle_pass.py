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

Algorithm (degree-ordered wedge closure over sorted CSR, blocked; the
edge-local statistics of Sanders–Pearce–La Fond, arXiv:1803.09021),
run by the accumulator :class:`TrianglePass`:

1. *Pass 0* is the one read of the source.  :meth:`TrianglePass.add`
   takes the edges a chunk at a time, counts every vertex's stored
   incidence (the non-loop entries touching it), an O(V) array, and
   appends the chunk's non-loop entries to an anonymous binary spill
   (``tempfile.TemporaryFile``, 16 bytes per entry).  Every endpoint,
   a self-loop's too, must be non-negative and below the given vertex
   count; without one, the non-loop entries set the inferred count.
   Vertices are ranked by ``(incidence, id)`` and every edge is
   oriented from its lower- to its higher-ranked endpoint, so a hub's
   edges belong to its lower-degree neighbours: every out-list stays
   short, and vertex labels only break ties in incidence.
2. *Pass 1* reads the spill back and rewrites it in place as oriented
   rank-space keys ``src·n + dst`` (8 bytes per entry).  It counts the
   out-lists (duplicates included — a safe overestimate for packing)
   and greedily cuts the rank range into **blocks** whose counts stay
   within half the budget, so any two blocks' adjacency fits in the
   budget together.  A single hub vertex may exceed the half budget on
   its own; then, as in the engine's tiling story, peak memory is
   ``max(budget, 2 × largest out-list)``.
3. The out-list counts give each block's exact share of the keys, its
   **region**.  With several blocks, the *copy pass* moves every key
   into its block's region of a second spill (8 bytes per entry) and
   then closes the first, so the two never hold more than pass 0's 16
   bytes per entry; with one block the spill already is that region.
   The *sort pass* then sorts and deduplicates each region in place,
   holding one block's raw keys at a time.
4. For each block pair ``(A, B)`` with ``B ≥ A``, the pair reads just
   its two sorted regions — A's once per row of pairs, B's once per
   pair — as CSR slabs.  The wedges ``v, w ∈ out(u)``, ``v < w`` with
   ``u ∈ A`` and ``v ∈ B`` are expanded by slicing A's rows, at most as
   many wedges at a time as the pair holds entries (so never more than
   the budget, hub rows aside).  Each wedge key ``v·n + w`` is screened
   against a bool table in which every key of B sets its slot, the top
   bits of ``key × SCREEN_HASH``; the table has one to
   :data:`SCREEN_SLOTS_PER_ENTRY` slots per entry the pair holds.  A wedge
   whose slot is clear cannot close.  The survivors go to one
   ``searchsorted`` over B's keys and an exact compare, which alone
   decides a triangle — ``out(v)`` lives in B because ``v`` is its
   source.  Each triangle ``u < v < w`` (in rank order) is therefore
   found exactly once, in the pair ``(block(u), block(v))``.

``stream_passes`` counts the passes over every edge: pass 0 (the only
one that reads the source), pass 1, the copy pass when there are
several blocks, and the sort pass, so ``3 + (k > 1)`` for ``k`` blocks.
The ``k(k + 1)/2`` block-pair passes read only their own regions and
are not counted.  ``peak_entries`` records the most deduplicated
entries one pair held; the screen's table adds at most 2 bytes per held
entry.
Per-edge support lives in one int64 array per block, indexed like the
block's CSR entries: O(distinct edges), outside the adjacency budget
like the O(V) per-vertex array.  A closed wedge adds one to each of its
three edges; once a block's last pair is done, each of its edges hands
its support to both endpoints (a triangle holds two edges at each of
its vertices) and the block's support joins the edge histogram.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.io.shards import read_shards
from repro.io.tsv import READ_CHUNK_BYTES
from repro.runtime.checkpoint import RunManifest

#: Default adjacency-entry budget, matching the engine's per-rank default.
DEFAULT_TRIANGLE_BUDGET_ENTRIES = 50_000_000

#: The largest vertex count whose closure keys ``src·n + dst`` fit int64.
MAX_TRIANGLE_VERTICES = isqrt(2**63 - 1)

#: Entries per read of the spill in pass 1 and the copy pass.  Either
#: holds one read besides its O(V) arrays, so its scratch memory stays
#: fixed whatever the edge count.
SPILL_READ_ENTRIES = 1 << 16

#: The wedge screen's table has the largest power of two of slots not
#: above this many per adjacency entry the block pair holds: one bool
#: per slot, so at most 2 bytes per held entry.
SCREEN_SLOTS_PER_ENTRY = 2

#: Odd 64-bit multiplier of the screen's hash: a key's slot is the top
#: bits of ``key × SCREEN_HASH`` mod 2^64.
SCREEN_HASH = 0x9E3779B97F4A7C15


def _check_vertex_count(n: int) -> None:
    if n > MAX_TRIANGLE_VERTICES:
        raise ValidationError(
            f"num_vertices={n:,} is too large for the closure key "
            f"src·n + dst (n² must stay below 2^63)"
        )


def _cut(sizes: np.ndarray, cap: int) -> List[Tuple[int, int]]:
    """Cut ``sizes`` into consecutive ranges whose sums stay within
    ``cap``; an element larger than ``cap`` gets a range of its own."""
    ends = np.cumsum(sizes)
    ranges: List[Tuple[int, int]] = []
    lo = base = 0
    while lo < len(sizes):
        hi = max(int(np.searchsorted(ends, base + cap, side="right")), lo + 1)
        ranges.append((lo, hi))
        base = int(ends[hi - 1])
        lo = hi
    return ranges


@dataclass(frozen=True)
class _Block:
    """One rank range's oriented adjacency, a sorted CSR slab over
    ``[lo, hi)``: ``keys`` are ``src·n + dst``, unique and ascending."""

    lo: int
    hi: int
    indptr: np.ndarray  # len hi - lo + 1
    keys: np.ndarray
    dst: np.ndarray


def _read(spill, start: int, count: int) -> np.ndarray:
    """``count`` int64 values of ``spill`` from value ``start`` on (fewer
    at the end of the file): every read of a spill."""
    spill.seek(8 * start)
    return np.fromfile(spill, dtype=np.int64, count=count)


def _csr(keys: np.ndarray, n: int, lo: int, hi: int) -> _Block:
    """Block ``[lo, hi)`` from its sorted, deduplicated keys."""
    src, dst = np.divmod(keys, n)
    indptr = np.zeros(hi - lo + 1, np.int64)
    np.cumsum(np.bincount(src - lo, minlength=hi - lo), out=indptr[1:])
    return _Block(lo=lo, hi=hi, indptr=indptr, keys=keys, dst=dst)


def _slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """The screen slot of each key: the top ``bits`` bits of
    ``key × SCREEN_HASH`` mod 2^64."""
    slots = keys.view(np.uint64) * np.uint64(SCREEN_HASH)
    slots >>= np.uint64(64 - bits)
    return slots


def _close_wedges(
    block_a: _Block,
    block_b: _Block,
    n: int,
    chunk: int,
    support_a: np.ndarray,
    support_b: np.ndarray,
) -> None:
    """Close every wedge ``v, w ∈ out(u)``, ``v < w``, with ``u`` in A and
    ``v`` in B, adding each triangle to its three edges' support."""
    keys = block_b.keys
    if not len(keys):
        return
    # Every key of B sets its slot, so a wedge whose slot is clear is no
    # key of B; a set slot only sends the wedge on to the exact search.
    held = len(block_a.keys) + (block_b is not block_a) * len(keys)
    bits = (SCREEN_SLOTS_PER_ENTRY * held).bit_length() - 1
    table = np.zeros(1 << bits, bool)
    table[_slots(keys, bits)] = True
    dst, indptr = block_a.dst, block_a.indptr
    row_end = np.repeat(indptr[1:], np.diff(indptr))
    pivots = np.flatnonzero((dst >= block_b.lo) & (dst < block_b.hi))
    # A pivot entry p pairs with the rest of its row, p + 1 .. row_end.
    fan = row_end[pivots] - pivots - 1
    pivots, fan = pivots[fan > 0], fan[fan > 0]
    last = len(keys) - 1
    for lo, hi in _cut(fan, chunk):
        p, f = pivots[lo:hi], fan[lo:hi]
        ends = np.cumsum(f)
        uw = np.arange(ends[-1]) + np.repeat(p + 1 - (ends - f), f)
        wedge = np.repeat(dst[p] * n, f)
        wedge += dst[uw]
        maybe = np.flatnonzero(table[_slots(wedge, bits)])
        wedge = wedge[maybe]
        vw = np.searchsorted(keys, wedge)
        np.minimum(vw, last, out=vw)
        hit = keys[vw] == wedge
        closed, vw = maybe[hit], vw[hit]
        uv = p[np.searchsorted(ends, closed, side="right")]
        support_a += np.bincount(
            np.concatenate((uv, uw[closed])), minlength=len(support_a)
        )
        support_b += np.bincount(vw, minlength=len(support_b))


@dataclass(frozen=True)
class TriangleStreamResult:
    """Streamed triangle-participation measurement of one edge set.

    ``vertex_participation`` and ``edge_participation`` are histograms
    ``{triangles_participated_in: count}`` over all vertices (including
    isolated ones) and all distinct undirected edges respectively.
    ``peak_entries`` is the most deduplicated oriented adjacency entries
    one block pair held: at most
    ``max(memory_budget_entries, 2 × largest distinct out-list)``.
    ``stream_passes`` counts the passes over every edge (see the module
    docstring).
    """

    num_vertices: int
    num_edges: int
    num_triangles: int
    vertex_participation: Dict[int, int]
    edge_participation: Dict[int, int]
    memory_budget_entries: int
    num_blocks: int
    stream_passes: int
    peak_entries: int

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
            f"budget {self.memory_budget_entries:,} entries, "
            f"peak {self.peak_entries:,})",
            f"  vertices: {self.num_vertices:,}  "
            f"distinct edges: {self.num_edges:,}",
            f"  triangles: {self.num_triangles:,}",
            f"  edges in >=1 triangle: {self.edges_in_triangles:,} "
            f"({self.edge_participation_fraction:.1%})",
            f"  vertices in >=1 triangle: {self.vertices_in_triangles:,}",
        ]
        return "\n".join(lines)


def _histogram(values: np.ndarray) -> Dict[int, int]:
    keys, counts = np.unique(values, return_counts=True)
    return {int(k): int(c) for k, c in zip(keys, counts)}


class TrianglePass:
    """Streamed triangle participation, fed a chunk at a time.

    ``num_vertices=None`` infers the vertex count from the largest
    endpoint.  :meth:`add` is pass 0, the one read of the source;
    :meth:`result` runs pass 1 and the block-pair passes over the spill
    and returns the :class:`TriangleStreamResult`, once, after the last
    :meth:`add`.  The spill is closed on every exit path of a ``with``
    block, errors included::

        with TrianglePass(num_vertices, budget) as tri:
            for rows, cols in chunks:
                tri.add(rows, cols)
            result = tri.result()
    """

    def __init__(
        self,
        num_vertices: Optional[int],
        memory_budget_entries: int = DEFAULT_TRIANGLE_BUDGET_ENTRIES,
    ) -> None:
        if memory_budget_entries < 1:
            raise ValidationError(
                f"memory_budget_entries must be positive, got "
                f"{memory_budget_entries}"
            )
        if num_vertices is not None:
            _check_vertex_count(num_vertices)
        self.memory_budget_entries = memory_budget_entries
        self._infer = num_vertices is None
        self._incidence = np.zeros(0 if self._infer else num_vertices, np.int64)
        self._entries = 0
        self._spill = tempfile.TemporaryFile()

    def __enter__(self) -> "TrianglePass":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close (and so delete) the spill."""
        self._spill.close()

    def add(self, rows, cols) -> None:
        """Pass 0 over one chunk: check every endpoint, count incidence
        and spill the non-loop entries as int64 ``(row, col)`` pairs."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if not len(rows):
            return
        low = min(int(rows.min()), int(cols.min()))
        if low < 0:
            raise ValidationError(f"negative edge endpoint {low}")
        if not self._infer:
            top = max(int(rows.max()), int(cols.max())) + 1
            if top > len(self._incidence):
                raise ValidationError(
                    f"edge endpoint {top - 1} out of range for "
                    f"num_vertices={len(self._incidence)}"
                )
        keep = rows != cols
        pairs = np.column_stack((rows[keep], cols[keep]))
        if not len(pairs):
            return
        top = int(pairs.max()) + 1
        if len(self._incidence) < top:
            # Only an inferred count grows here, and never for a loop.
            _check_vertex_count(top)
            self._incidence = np.concatenate(
                [self._incidence, np.zeros(top - len(self._incidence), np.int64)]
            )
        self._incidence += np.bincount(pairs.ravel(), minlength=len(self._incidence))
        self._spill.write(pairs)
        self._entries += len(pairs)

    def _orient(self, rank: np.ndarray) -> np.ndarray:
        """Pass 1: rewrite the spilled pairs in place as rank-space keys
        ``src·n + dst`` with ``src < dst``; returns the out-list counts."""
        n = len(rank)
        out_counts = np.zeros(n, np.int64)
        spill = self._spill
        # A key takes half a pair's bytes, so each write lands on pairs
        # already read.
        for start in range(0, self._entries, SPILL_READ_ENTRIES):
            pairs = _read(spill, 2 * start, 2 * SPILL_READ_ENTRIES)
            a, b = rank[pairs[0::2]], rank[pairs[1::2]]
            src = np.minimum(a, b)
            out_counts += np.bincount(src, minlength=n)
            np.maximum(a, b, out=a)
            src *= n
            src += a
            spill.seek(8 * start)
            spill.write(src)
        spill.truncate(8 * self._entries)
        return out_counts

    def _copy(
        self, ranges: Sequence[Tuple[int, int]], starts: List[int], n: int
    ) -> None:
        """The copy pass: every key to its block's region of a second
        spill, which then replaces the first."""
        keys_file, self._spill = self._spill, tempfile.TemporaryFile()
        cursors = starts[:-1]
        with keys_file:
            for start in range(0, self._entries, SPILL_READ_ENTRIES):
                keys = _read(keys_file, start, SPILL_READ_ENTRIES)
                for i, (lo, hi) in enumerate(ranges):
                    part = keys[(keys >= lo * n) & (keys < hi * n)]
                    self._spill.seek(8 * cursors[i])
                    self._spill.write(part)
                    cursors[i] += len(part)

    def _sort_regions(self, starts: List[int]) -> List[int]:
        """The sort pass: sort and deduplicate each region in place, one
        block at a time; returns each region's distinct key count."""
        distinct = []
        for start, end in zip(starts, starts[1:]):
            keys = _read(self._spill, start, end - start)
            keys.sort()
            if len(keys):
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            self._spill.seek(8 * start)
            self._spill.write(keys)
            distinct.append(len(keys))
        return distinct

    def result(self) -> TriangleStreamResult:
        """Pass 1, the copy and sort passes and the block-pair passes;
        the measurement."""
        order = np.argsort(self._incidence, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        n = len(rank)
        out_counts = self._orient(rank)
        # Blocks any two of which fit in the budget together; block i's
        # keys go to region [starts[i], starts[i + 1]) of the spill.
        ranges = _cut(out_counts, max(1, self.memory_budget_entries // 2))
        starts = [0]
        for lo, hi in ranges:
            starts.append(starts[-1] + int(out_counts[lo:hi].sum()))
        if len(ranges) > 1:
            self._copy(ranges, starts, n)
        distinct = self._sort_regions(starts)

        def load(idx: int) -> _Block:
            keys = _read(self._spill, starts[idx], distinct[idx])
            return _csr(keys, n, *ranges[idx])

        vertex_support = np.zeros(n, np.int64)
        support = {idx: np.zeros(size, np.int64) for idx, size in enumerate(distinct)}
        edge_participation: Dict[int, int] = {}
        peak = 0
        for a_idx in range(len(ranges)):
            block_a = load(a_idx)
            for b_idx in range(a_idx, len(ranges)):
                block_b = block_a if b_idx == a_idx else load(b_idx)
                held = len(block_a.keys) + (b_idx > a_idx) * len(block_b.keys)
                peak = max(peak, held)
                # Wedge chunks no larger than the slabs keep the closure's
                # scratch arrays in proportion to what the pair holds.
                _close_wedges(
                    block_a,
                    block_b,
                    n,
                    min(self.memory_budget_entries, held),
                    support[a_idx],
                    support[b_idx],
                )
            # Pair (a, last) was block a's last: its support is final, and
            # each edge hands it to both endpoints.
            done = support.pop(a_idx)
            sums = np.concatenate(([0], np.cumsum(done)))
            vertex_support[block_a.lo : block_a.hi] += (
                sums[block_a.indptr[1:]] - sums[block_a.indptr[:-1]]
            )
            np.add.at(vertex_support, block_a.dst, done)
            for count, edges_with in _histogram(done).items():
                edge_participation[count] = (
                    edge_participation.get(count, 0) + edges_with
                )

        vertex_tri = vertex_support // 2
        return TriangleStreamResult(
            num_vertices=n,
            num_edges=sum(edge_participation.values()),
            num_triangles=int(vertex_tri.sum()) // 3,
            vertex_participation=_histogram(vertex_tri),
            edge_participation=dict(sorted(edge_participation.items())),
            memory_budget_entries=self.memory_budget_entries,
            num_blocks=len(ranges),
            stream_passes=3 + (len(ranges) > 1),
            peak_entries=peak,
        )


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
    iterable of ``(rows, cols)`` array pairs, read once.  The edge set
    is treated as an undirected simple graph: orientations are
    canonicalized, self-loops dropped, duplicates merged.

    At most ``memory_budget_entries`` oriented adjacency entries are
    held at once (see the module docstring for the one hub-vertex
    exception), and wedges are closed at most as many at a time as a
    block pair holds entries.  The source is read once, in pass 0, and
    the later passes read the :class:`TrianglePass` spill — 16 bytes per
    non-loop entry in the temp directory, 8 after pass 1, and 16 again
    while the copy pass fills a second spill with each block's region;
    a block pair reads only its two regions.  ``stream_passes`` (the
    passes over every edge) and ``peak_entries`` in the result record
    the actual counts.  Shards are read through the checked reader
    (:func:`repro.io.shards.read_shard`): one whose size or sha256
    disagrees with the manifest raises
    :class:`~repro.errors.ShardIntegrityError`.  Vertex counts above
    :data:`MAX_TRIANGLE_VERTICES` raise :class:`ValidationError`.
    """
    manifest = None
    if isinstance(edges, (str, Path)):
        manifest = RunManifest.load(edges)
        recorded = manifest.fingerprint.get("num_vertices")
        if num_vertices is None and recorded is not None:
            num_vertices = int(recorded)
    with TrianglePass(num_vertices, memory_budget_entries) as tri:
        if manifest is None:
            for rows, cols in edges:
                tri.add(rows, cols)
        else:
            read_shards(
                edges,
                manifest,
                lambda triples: tri.add(triples[:, 0], triples[:, 1]),
                chunk_bytes=chunk_bytes,
            )
        return tri.result()


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
