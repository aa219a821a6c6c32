"""Bounded-memory tiled Kronecker product: ``Bp ⊗ C`` in row-slices.

The whole-block kernel (:func:`repro.kron.sparse_kron.kron`) materializes
``nnz(Bp) · nnz(C)`` entries at once, which caps the scale a single rank
can generate.  :func:`kron_tiles` removes that cap: it yields the product
in *row-slices of Bp* such that no slice's output exceeds
``max_entries``, while preserving the exact canonical triple order.

Why row-slices (and not entry- or column-slices): the product maps B's
row ``r`` to output rows ``[r·nC, (r+1)·nC)``.  Consecutive B-row groups
therefore produce *disjoint, ascending* output-row ranges, so the
concatenation of per-tile lex-sorted triples IS the lex-sorted whole
block::

    concat(kron_tiles(bp, c, k))  ==  kron(bp, c) triples, byte for byte

This identity is what lets the streamed generator write tiles straight
to disk and still produce shards byte-identical to the whole-block
kernel (the property the resume/durability tests compare directly).

A single B row whose output alone exceeds ``max_entries`` is still
yielded whole (one oversized tile): the minimum unit of progress is one
row, so a too-small budget degrades peak memory, never liveness.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GenerationError
from repro.semiring.base import Semiring
from repro.semiring.standard import PLUS_TIMES
from repro.sparse.convert import AnySparse, as_coo


def tile_row_ranges(
    row_entry_cost: np.ndarray, max_entries: Optional[int]
) -> Iterator[Tuple[int, int]]:
    """Greedy consecutive-row grouping under a per-group entry budget.

    ``row_entry_cost[r]`` is the number of output entries row ``r``
    contributes.  Yields half-open ``(start_row, end_row)`` ranges whose
    summed cost stays ≤ ``max_entries`` — except that a single row over
    budget forms its own range (progress guarantee).  ``None`` means
    unbounded (one range covering everything).
    """
    n_rows = len(row_entry_cost)
    if n_rows == 0:
        return
    if max_entries is None:
        yield 0, n_rows
        return
    if max_entries < 1:
        raise GenerationError(
            f"max_entries must be >= 1 or None, got {max_entries}"
        )
    cum = np.cumsum(row_entry_cost, dtype=np.int64)
    start = 0
    base = 0
    while start < n_rows:
        end = int(np.searchsorted(cum, base + max_entries, side="right"))
        if end <= start:
            end = start + 1  # one row over budget still ships whole
        yield start, end
        base = int(cum[end - 1])
        start = end


def kron_tiles(
    bp: AnySparse,
    c: AnySparse,
    max_entries: Optional[int] = None,
    semiring: Semiring = PLUS_TIMES,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``bp ⊗ c`` as ``(rows, cols, vals)`` tiles of bounded size.

    Tiles are row-slices of ``bp`` in ascending row order, each
    internally lex-sorted by (row, col); their concatenation equals the
    canonical triple list of ``kron(bp, c, semiring)`` exactly (see the
    module docstring for why).  No tile exceeds ``max_entries`` output
    entries unless a single ``bp`` row alone does.
    """
    ca, cb = as_coo(bp), as_coo(c)
    nb, mb = cb.shape
    if ca.nnz == 0 or cb.nnz == 0:
        return
    # Canonical COO is sorted by (row, col), so ca.rows is ascending and
    # searchsorted can slice the triple list by row range directly.
    row_nnz = np.bincount(ca.rows, minlength=ca.shape[0])
    for start_row, end_row in tile_row_ranges(
        row_nnz * cb.nnz, max_entries
    ):
        s, e = np.searchsorted(ca.rows, [start_row, end_row])
        if s == e:
            continue  # only structurally empty rows in this span
        k = int(e - s)
        rows = np.repeat(ca.rows[s:e] * nb, cb.nnz) + np.tile(cb.rows, k)
        cols = np.repeat(ca.cols[s:e] * mb, cb.nnz) + np.tile(cb.cols, k)
        vals = semiring.mul(
            np.repeat(ca.vals[s:e], cb.nnz), np.tile(cb.vals, k)
        )
        # Both inputs are canonical (sorted by (row, col), no
        # duplicates), so the repeat/tile order already lists each
        # output row's entries by ascending col: they come from one
        # ``bp`` row's entries in col order, each spread over one ``c``
        # row's entries in col order, and ``c``'s cols stay below
        # ``mb``.  A stable sort by row alone is then the lex order.
        order = np.argsort(rows, kind="stable")
        yield rows[order], cols[order], vals[order]
