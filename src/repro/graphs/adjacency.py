"""The :class:`Graph` wrapper over a realized adjacency matrix.

This is the user-facing handle for *materialized* graphs: it owns a
canonical sparse adjacency matrix and exposes the measured quantities the
paper validates against predictions (vertex/edge counts, degree
distribution, triangle count, structural audits).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import ShapeError
from repro.graphs.degree import degree_distribution_of
from repro.sparse.convert import AnySparse, as_coo


class Graph:
    """A realized graph backed by a canonical COO adjacency matrix.

    Edge counting follows the paper: the number of edges is
    ``nnz(A)`` — each stored entry of the (symmetric) adjacency matrix,
    so an undirected edge contributes 2 and a self-loop contributes 1.
    """

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: AnySparse) -> None:
        coo = as_coo(adjacency)
        if coo.shape[0] != coo.shape[1]:
            raise ShapeError(f"adjacency matrix must be square, got {coo.shape}")
        self.adjacency = coo

    # -- measured properties ----------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """nnz(A) — the paper's edge count."""
        return self.adjacency.nnz

    def degree_vector(self) -> np.ndarray:
        """Row-nnz of each vertex."""
        return self.adjacency.row_nnz()

    def degree_distribution(self) -> Dict[int, int]:
        """Measured {degree: count}, including isolated vertices at key 0."""
        return degree_distribution_of(self.adjacency)

    def num_triangles(self) -> int:
        """Exact triangle count via ``1ᵀ(A² ∘ A)1 / 6`` (Section IV-A).

        Computed with a structurally *masked* SpGEMM (``mask=A``), so
        ``A²`` — which is near-dense for hub-heavy power-law graphs — is
        never materialized.  Requires a loop-free symmetric 0/1 matrix
        for the count to mean "triangles"; on other inputs it returns the
        raw formula value.
        """
        total = self.triangle_formula_raw()
        return int(total) // 6 if total % 6 == 0 else total / 6

    def triangle_formula_raw(self) -> int:
        """``1ᵀ(A² ∘ A)1`` without the /6 normalization (masked SpGEMM)."""
        a = self.adjacency.to_csr()
        closed = a.matmul(a, mask=a).ewise_mult(a)
        return closed.sum()

    def num_wedges(self) -> int:
        """Measured 2-path count: Σ d(d-1)/2 over the degree vector.

        Assumes a loop-free symmetric matrix (each self-loop would
        inflate its vertex's degree).
        """
        d = self.degree_vector().astype(object)
        return int(sum(dv * (dv - 1) // 2 for dv in d))

    def clustering_coefficient(self) -> float:
        """Measured global clustering coefficient ``3·triangles/wedges``."""
        wedges = self.num_wedges()
        if wedges == 0:
            return 0.0
        return 3.0 * self.num_triangles() / wedges

    # -- structural audits ---------------------------------------------------
    def num_self_loops(self) -> int:
        return self.adjacency.diagonal_nnz()

    def num_empty_vertices(self) -> int:
        """Vertices with no incident stored entries (row and column empty)."""
        touched = np.zeros(self.num_vertices, dtype=bool)
        touched[self.adjacency.rows] = True
        touched[self.adjacency.cols] = True
        return int(self.num_vertices - np.count_nonzero(touched))

    def is_symmetric(self) -> bool:
        return self.adjacency.is_symmetric()

    def max_degree(self) -> int:
        d = self.degree_vector()
        return int(d.max()) if len(d) else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(vertices={self.num_vertices}, edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adjacency.equal(other.adjacency)

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Graph is not hashable")
