"""Sparse vectors for the GraphBLAS layer."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ShapeError
from repro.semiring.base import Semiring
from repro.semiring.standard import PLUS_TIMES
from repro.sparse.kernels import INDEX_DTYPE


class GrbVector:
    """An immutable sparse vector: sorted unique indices + values.

    The GraphBLAS notion of a vector over a semiring: absent entries are
    the semiring zero; stored zeros are dropped on construction.
    """

    __slots__ = ("size", "indices", "values")

    def __init__(
        self,
        size: int,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        semiring: Semiring = PLUS_TIMES,
        _canonical: bool = False,
    ) -> None:
        size = int(size)
        if size < 0:
            raise ShapeError(f"negative vector size {size}")
        indices = np.asarray(indices, dtype=INDEX_DTYPE)
        values = np.asarray(values)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ShapeError("indices and values must be equal-length 1-D arrays")
        if indices.size:
            if indices.min() < 0 or indices.max() >= size:
                raise ShapeError(f"index out of range for size {size}")
        if not _canonical:
            order = np.argsort(indices, kind="stable")
            indices, values = indices[order], values[order]
            if len(indices) > 1 and (np.diff(indices) == 0).any():
                # combine duplicates with the semiring add
                uniq, start = np.unique(indices, return_index=True)
                combined = []
                bounds = np.append(start, len(indices))
                for s, e in zip(bounds[:-1], bounds[1:]):
                    acc = values[s]
                    for v in values[s + 1 : e]:
                        acc = semiring.add(acc, v)
                    combined.append(acc)
                indices = uniq
                values = np.asarray(combined, dtype=values.dtype)
            keep = values != semiring.zero
            if not keep.all():
                indices, values = indices[keep], values[keep]
        self.size = size
        self.indices = indices
        self.values = values

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, semiring: Semiring = PLUS_TIMES) -> "GrbVector":
        dense = np.asarray(dense)
        if dense.ndim != 1:
            raise ShapeError(f"expected 1-D array, got shape {dense.shape}")
        mask = dense != semiring.zero
        return cls(len(dense), np.flatnonzero(mask), dense[mask], _canonical=True)

    @classmethod
    def sparse_unit(cls, size: int, index: int, value=1) -> "GrbVector":
        """A vector with a single stored entry."""
        return cls(size, np.array([index]), np.array([value]))

    @classmethod
    def empty(cls, size: int, *, dtype=np.int64) -> "GrbVector":
        e = np.empty(0, dtype=INDEX_DTYPE)
        return cls(size, e, np.empty(0, dtype=dtype), _canonical=True)

    # -- basics -----------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_dense(self, *, fill=0) -> np.ndarray:
        out = np.full(self.size, fill, dtype=self.values.dtype if self.nnz else np.float64)
        if self.nnz:
            out[self.indices] = self.values
        return out

    def get(self, i: int, default=0):
        pos = np.searchsorted(self.indices, i)
        if pos < self.nnz and self.indices[pos] == i:
            v = self.values[pos]
            return v.item() if hasattr(v, "item") else v
        return default

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GrbVector(size={self.size}, nnz={self.nnz})"

    def equal(self, other: "GrbVector") -> bool:
        return (
            self.size == other.size
            and bool(np.array_equal(self.indices, other.indices))
            and bool(np.array_equal(self.values, other.values))
        )

    # -- element-wise ---------------------------------------------------------------
    def ewise_add(self, other: "GrbVector", semiring: Semiring = PLUS_TIMES) -> "GrbVector":
        """Union combine with the semiring add."""
        self._check(other)
        idx = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.values, other.values])
        return GrbVector(self.size, idx, vals, semiring=semiring)

    def ewise_mult(self, other: "GrbVector", semiring: Semiring = PLUS_TIMES) -> "GrbVector":
        """Intersection combine with the semiring multiply."""
        self._check(other)
        common, ia, ib = np.intersect1d(
            self.indices, other.indices, assume_unique=True, return_indices=True
        )
        vals = semiring.mul(self.values[ia], other.values[ib])
        keep = vals != semiring.zero
        return GrbVector(self.size, common[keep], vals[keep], _canonical=True)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray], *, semiring: Semiring = PLUS_TIMES) -> "GrbVector":
        vals = np.asarray(fn(self.values))
        if vals.shape != self.values.shape:
            raise ShapeError("apply fn must preserve shape")
        keep = vals != semiring.zero
        return GrbVector(self.size, self.indices[keep], vals[keep], _canonical=True)

    def select_mask(self, mask: "GrbVector", *, complement: bool = False) -> "GrbVector":
        """Keep entries whose index is (not) stored in ``mask``."""
        self._check(mask)
        member = np.isin(self.indices, mask.indices, assume_unique=True)
        keep = ~member if complement else member
        return GrbVector(self.size, self.indices[keep], self.values[keep], _canonical=True)

    def reduce(self, semiring: Semiring = PLUS_TIMES):
        """Fold stored values with the semiring add (zero if empty)."""
        if self.nnz == 0:
            return semiring.zero
        return semiring.add_reduce(self.values)

    def _check(self, other: "GrbVector") -> None:
        if self.size != other.size:
            raise ShapeError(f"vector sizes differ: {self.size} vs {other.size}")
