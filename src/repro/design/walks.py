"""Exact walk counts of Kronecker designs.

Two more properties that factor through the Kronecker product, via the
mixed-product identity ``(⊗A_i)^k = ⊗(A_i^k)``:

* **closed walks**: ``trace(A^k) = ∏ trace(A_i^k)``,
* **total walks**:  ``1ᵀA^k 1 = ∏ 1ᵀA_i^k 1``

so the number of length-k walks in a 10³⁰-edge product is an exact
product of tiny constituent quantities.  These are *raw-product*
numbers (the design self-loop still present); k = 2 reproduces the raw
nnz and k = 3 the raw triangle product, giving yet more independent
witnesses for the headline counts.

Star constituents never power their (hub-dense) adjacency matrices:
``A`` acts as zero on the complement of a ≤3-dimensional invariant
subspace (center, looped leaf, leaf-sum), so both quantities reduce to
powers of a tiny *integer* quotient matrix — exact, O(k) big-int work,
independent of m̂ (m̂ = 14641 costs the same as m̂ = 3).
"""

from __future__ import annotations

from math import prod
from typing import List, Tuple

from repro.design.star_design import PowerLawDesign
from repro.errors import DesignError
from repro.graphs.star import SelfLoop, StarGraph
from repro.sparse.convert import AnySparse, as_coo
from repro.sparse.linalg import matrix_power, total_sum, trace

IntMatrix = List[List[int]]


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    n = len(m)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [row[:] for row in m]
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        k >>= 1
        if k:
            base = _mat_mul(base, base)
    return result


def _star_quotient(star: StarGraph) -> Tuple[IntMatrix, List[int], List[int]]:
    """(Q, x, y): A restricted to its invariant subspace, the coordinates
    of the all-ones vector, and the summation functional.

    Bases: plain/center-loop -> (center, leaf-sum); leaf-loop ->
    (center, looped leaf, other-leaf-sum).  The complement of each
    subspace is annihilated by A, so trace(A^k) = trace(Q^k) and
    ``1ᵀA^k1 = y · Q^k x`` for k >= 1.
    """
    m = star.m_hat
    if star.self_loop is SelfLoop.LEAF:
        q = [[0, 1, m - 1], [1, 1, 0], [1, 0, 0]]
        return q, [1, 1, 1], [1, 1, m - 1]
    diag = 1 if star.self_loop is SelfLoop.CENTER else 0
    q = [[diag, m], [1, 0]]
    return q, [1, 1], [1, m]


def star_walk_factors(star: StarGraph, k: int) -> Tuple[int, int]:
    """(trace(A^k), 1ᵀA^k 1) for one star, exact at any m̂."""
    if k < 0:
        raise DesignError(f"walk length must be non-negative, got {k}")
    if k == 0:
        return star.num_vertices, star.num_vertices
    q, x, y = _star_quotient(star)
    qk = _mat_pow(q, k)
    closed = sum(qk[i][i] for i in range(len(q)))
    vec = [sum(qk[i][j] * x[j] for j in range(len(q))) for i in range(len(q))]
    total = sum(y[i] * vec[i] for i in range(len(q)))
    return closed, total


def constituent_walk_factors(matrix: AnySparse, k: int) -> Tuple[int, int]:
    """(trace(M^k), 1ᵀM^k 1) for an arbitrary constituent.

    Generic path: sparse matrix power (fine for small constituents;
    hub-heavy ones should go through :func:`star_walk_factors`).
    """
    if k < 0:
        raise DesignError(f"walk length must be non-negative, got {k}")
    powered = matrix_power(as_coo(matrix), k)
    return int(trace(powered)), int(total_sum(powered))


def closed_walks(design: PowerLawDesign, k: int) -> int:
    """trace(A^k) of the *raw* product — closed k-walks, exactly."""
    return prod(star_walk_factors(s, k)[0] for s in design.stars)


def total_walks(design: PowerLawDesign, k: int) -> int:
    """``1ᵀA^k 1`` of the raw product — all k-walks (ordered endpoints)."""
    return prod(star_walk_factors(s, k)[1] for s in design.stars)


def walk_profile(design: PowerLawDesign, max_k: int) -> dict[int, Tuple[int, int]]:
    """{k: (closed, total)} for k = 0..max_k — the design's walk signature.

    Interpretations: k = 0 gives (vertices, vertices) via the identity;
    k = 1 gives (self-loop count, raw nnz); k = 2's closed walks equal
    the raw nnz for a symmetric 0/1 matrix; k = 3's closed walks equal
    the raw triangle product ``∏ t(A_i)``.  Exact at any scale.
    """
    if max_k < 0:
        raise DesignError(f"max_k must be non-negative, got {max_k}")
    return {k: (closed_walks(design, k), total_walks(design, k)) for k in range(max_k + 1)}
