"""The high-level exact-design API: :class:`PowerLawDesign`.

A design is a list of star sizes ``m̂`` plus a self-loop policy.  Every
property the paper computes is available as an exact Python int *before*
any generation, from closed forms — computing the full property set of
the 10³⁰-edge Fig. 7 design takes microseconds.

>>> d = PowerLawDesign([5, 3])
>>> d.num_vertices, d.num_edges, d.num_triangles
(24, 60, 0)
>>> d.degree_distribution.to_dict()
{1: 15, 3: 5, 5: 3, 15: 1}
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence, Tuple

from repro.design.corrections import (
    corrected_degree_distribution,
    corrected_edge_count,
    corrected_triangle_count,
)
from repro.design.distribution import DegreeDistribution
from repro.design.report import DesignReport
from repro.errors import DesignError
from repro.graphs.adjacency import Graph
from repro.graphs.star import SelfLoop, StarGraph
from repro.kron.chain import KroneckerChain


@dataclass(frozen=True)
class PowerLawDesign:
    """An exactly-designed Kronecker power-law graph.

    Parameters
    ----------
    star_sizes:
        The ``m̂`` value of each constituent star (>= 1 each).
    self_loop:
        Loop policy applied to *every* constituent: ``"none"`` (paper
        Section III — bipartite, zero triangles), ``"center"`` (Case 1 —
        triangle-rich), or ``"leaf"`` (Case 2 — few triangles).
    strict_power_law:
        When True (default), reject size lists whose degree products
        collide — the paper's condition for the plain-star distribution
        to lie exactly on ``n(d) = c/d`` ("as long as all of the products
        of the corresponding m̂ are unique").  Only enforced for the
        ``"none"`` policy, where the guarantee applies.
    """

    star_sizes: Tuple[int, ...]
    self_loop: SelfLoop = SelfLoop.NONE
    strict_power_law: bool = False

    def __init__(
        self,
        star_sizes: Sequence[int],
        self_loop: SelfLoop | str | None = None,
        *,
        strict_power_law: bool = False,
    ) -> None:
        sizes = tuple(int(m) for m in star_sizes)
        if not sizes:
            raise DesignError("a design needs at least one star")
        loop = SelfLoop.coerce(self_loop)
        object.__setattr__(self, "star_sizes", sizes)
        object.__setattr__(self, "self_loop", loop)
        object.__setattr__(self, "strict_power_law", bool(strict_power_law))
        # Stars validate their own m̂ >= 1.
        stars = tuple(StarGraph(m, loop) for m in sizes)
        object.__setattr__(self, "_stars", stars)
        if strict_power_law and loop is SelfLoop.NONE:
            from repro.design.search import has_unique_degree_products

            if not has_unique_degree_products(sizes):
                raise DesignError(
                    f"star sizes {sizes} have colliding degree products; "
                    "the distribution will deviate from n(d) = c/d "
                    "(pass strict_power_law=False to allow)"
                )

    # -- constituents ---------------------------------------------------------
    @property
    def stars(self) -> Tuple[StarGraph, ...]:
        return self._stars  # type: ignore[attr-defined]

    @property
    def num_stars(self) -> int:
        return len(self.star_sizes)

    @property
    def has_loop(self) -> bool:
        return self.self_loop is not SelfLoop.NONE

    # -- exact scalar properties (closed form; O(num_stars)) ----------------------
    @property
    def num_vertices(self) -> int:
        """∏ (m̂_k + 1) — unaffected by self-loops."""
        return prod(m + 1 for m in self.star_sizes)

    @property
    def raw_nnz(self) -> int:
        """nnz of the product *before* self-loop removal."""
        return prod(s.nnz for s in self.stars)

    @property
    def num_edges(self) -> int:
        """Exact edge count (nnz) of the final graph, loop removed."""
        if self.has_loop:
            return corrected_edge_count(self.raw_nnz)
        return self.raw_nnz

    @property
    def loop_vertex(self) -> int | None:
        """Flat index of the product's single self-loop vertex, if any.

        All-centers is vertex 0; all-looped-leaves is the last vertex.
        """
        if self.self_loop is SelfLoop.CENTER:
            return 0
        if self.self_loop is SelfLoop.LEAF:
            return self.num_vertices - 1
        return None

    @property
    def loop_degree(self) -> int | None:
        """Pre-removal degree of the loop vertex.

        Center loops: ∏(m̂_k + 1) = num_vertices (the paper's ``m_A``);
        leaf loops: 2^N (each looped leaf row has nnz 2).
        """
        if self.self_loop is SelfLoop.CENTER:
            return self.num_vertices
        if self.self_loop is SelfLoop.LEAF:
            return 2**self.num_stars
        return None

    @property
    def num_triangles(self) -> int:
        """Exact triangle count of the final graph (Section IV-A/B/C)."""
        raw = prod(s.triangle_factor for s in self.stars)
        if not self.has_loop:
            # Bipartite product: every factor is 0, and 0 % 6 == 0.
            return raw // 6
        return corrected_triangle_count(raw, self.loop_degree)

    @property
    def degree_distribution(self) -> DegreeDistribution:
        """Exact degree distribution of the final graph, loop removed."""
        dist = DegreeDistribution.kron_all(
            DegreeDistribution(s.degree_map()) for s in self.stars
        )
        if self.has_loop:
            dist = corrected_degree_distribution(dist, self.loop_degree)
        return dist

    @property
    def max_degree(self) -> int:
        return self.degree_distribution.max_degree()

    @property
    def num_wedges(self) -> int:
        """Exact 2-path count of the final graph (from the distribution)."""
        return self.degree_distribution.wedge_count()

    @property
    def clustering_coefficient(self):
        """Exact global clustering coefficient ``3·triangles / wedges``
        as a :class:`fractions.Fraction` (0 for wedge-free graphs)."""
        from fractions import Fraction

        wedges = self.num_wedges
        if wedges == 0:
            return Fraction(0)
        return Fraction(3 * self.num_triangles, wedges)

    @property
    def power_law_coefficient(self) -> int:
        """c in ``n(d) = c / d`` for the plain-star product: ∏ m̂_k."""
        return prod(self.star_sizes)

    @property
    def alpha(self) -> float:
        """Slope of the power law, log n(d_min) / log d_max (paper §III)."""
        return self.degree_distribution.power_law_alpha()

    def is_exact_power_law(self) -> bool:
        """True if all points lie exactly on ``n(d)·d = const``."""
        return self.degree_distribution.is_exact_power_law()

    # -- realization -------------------------------------------------------------
    def to_chain(self) -> KroneckerChain:
        """Lazy chain of the *raw* constituents (loops still present).

        The final product self-loop must be removed after materializing;
        :meth:`realize` does both steps.
        """
        return KroneckerChain([s.adjacency() for s in self.stars])

    def realize(self) -> Graph:
        """Materialize the graph in memory (loop removed).  Memory-guarded."""
        adjacency = self.to_chain().materialize()
        lv = self.loop_vertex
        if lv is not None:
            adjacency = adjacency.without_self_loop(lv)
        return Graph(adjacency)

    def split(self, k: int) -> Tuple[KroneckerChain, KroneckerChain]:
        """Section V's ``A = B ⊗ C`` split of the raw chain at factor k."""
        return self.to_chain().split(k)

    # -- reporting -------------------------------------------------------------------
    def report(self) -> DesignReport:
        """Bundle all exact properties for printing/serialization."""
        return DesignReport(
            star_sizes=self.star_sizes,
            self_loop=self.self_loop.value,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            num_triangles=self.num_triangles,
            degree_distribution=self.degree_distribution,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        loop = "" if not self.has_loop else f", self_loop={self.self_loop.value!r}"
        return f"PowerLawDesign({list(self.star_sizes)}{loop})"
