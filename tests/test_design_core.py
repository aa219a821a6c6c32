"""Unit tests for triangles, corrections, chain properties, and reports."""

import pytest

from repro.design import (
    DegreeDistribution,
    chain_properties,
    corrected_degree_distribution,
    corrected_edge_count,
    corrected_triangle_count,
    triangle_count_raw,
    triangle_factor,
)
from repro.design.properties import loop_vertex_degree
from repro.design.triangles import star_triangle_factor
from repro.errors import DesignError, ShapeError
from repro.graphs import Graph, StarGraph, complete_graph, cycle_graph, star_adjacency
from repro.sparse import zeros


class TestTriangleFactor:
    def test_star_object_uses_closed_form(self):
        assert triangle_factor(StarGraph(7, "center")) == 22

    def test_matrix_generic_path(self):
        assert triangle_factor(star_adjacency(7, "center")) == 22

    def test_k3_factor(self):
        # K3 has 1 triangle -> raw factor 6.
        assert triangle_factor(complete_graph(3)) == 6

    def test_star_triangle_factor_helper(self):
        assert star_triangle_factor(5) == 0
        assert star_triangle_factor(5, "center") == 16
        assert star_triangle_factor(5, "leaf") == 4

    def test_raw_product(self):
        assert triangle_count_raw([StarGraph(5, "center"), StarGraph(3, "center")]) == 160

    def test_raw_product_zero_for_bipartite(self):
        assert triangle_count_raw([StarGraph(5), StarGraph(3)]) == 0


class TestCorrections:
    def test_edge_correction(self):
        assert corrected_edge_count(100) == 99

    def test_edge_correction_rejects_empty(self):
        with pytest.raises(DesignError):
            corrected_edge_count(0)

    def test_degree_correction(self):
        d = DegreeDistribution({3: 2, 24: 1})
        out = corrected_degree_distribution(d, 24)
        assert out.to_dict() == {3: 2, 23: 1}

    def test_degree_correction_bad_loop_degree(self):
        with pytest.raises(DesignError):
            corrected_degree_distribution(DegreeDistribution({2: 1}), 0)

    def test_triangle_correction_fig2_top(self):
        # Two center-loop stars (5, 3): raw 160, loop degree 24 -> 15.
        assert corrected_triangle_count(160, 24) == 15

    def test_triangle_correction_fig2_bottom(self):
        # Two leaf-loop stars: raw 16, loop degree 4 -> 1 (the paper's
        # body text; the figure caption's "3" is a typo).
        assert corrected_triangle_count(16, 4) == 1

    def test_triangle_correction_single_star_is_zero(self):
        # One center-loop star alone has no triangles after loop removal.
        for m_hat in (1, 2, 5, 9):
            raw = star_triangle_factor(m_hat, "center")
            assert corrected_triangle_count(raw, m_hat + 1) == 0

    def test_non_integer_correction_rejected(self):
        with pytest.raises(DesignError):
            corrected_triangle_count(7, 2)

    def test_negative_correction_rejected(self):
        with pytest.raises(DesignError):
            corrected_triangle_count(0, 10)

    def test_correction_matches_brute_force(self):
        # Realize center-loop products, remove the loop, count triangles.
        for sizes in ([2, 3], [3, 4], [2, 2, 2]):
            stars = [StarGraph(m, "center") for m in sizes]
            raw = triangle_count_raw(stars)
            loop_degree = 1
            for m in sizes:
                loop_degree *= m + 1
            predicted = corrected_triangle_count(raw, loop_degree)
            from repro.kron import kron_chain

            adj = kron_chain([s.adjacency() for s in stars]).without_self_loop(0)
            assert Graph(adj).num_triangles() == predicted, sizes


class TestChainProperties:
    def test_star_chain(self):
        props = chain_properties([star_adjacency(5), star_adjacency(3)])
        assert props.num_vertices == 24
        assert props.nnz == 60
        assert props.triangles == 0
        assert props.degree_distribution.to_dict() == {1: 15, 3: 5, 5: 3, 15: 1}

    def test_matches_realized(self):
        mats = [star_adjacency(3), cycle_graph(4), complete_graph(3)]
        props = chain_properties(mats)
        from repro.kron import kron_chain

        g = Graph(kron_chain(mats))
        assert props.num_vertices == g.num_vertices
        assert props.nnz == g.num_edges
        assert props.degree_distribution == g.degree_distribution()
        assert props.triangles == g.num_triangles()

    def test_triangles_undefined_with_loops(self):
        props = chain_properties([star_adjacency(2, "center")])
        with pytest.raises(DesignError):
            _ = props.triangles

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            chain_properties([zeros((2, 3))])

    def test_rejects_empty(self):
        with pytest.raises(DesignError):
            chain_properties([])

    def test_num_edges_alias(self):
        props = chain_properties([star_adjacency(4)])
        assert props.num_edges == props.nnz == 8


class TestLoopVertexDegree:
    def test_center_loops(self):
        mats = [star_adjacency(3, "center"), star_adjacency(2, "center")]
        flat, degree = loop_vertex_degree(mats, [0, 0])
        assert flat == 0
        assert degree == 4 * 3  # (m̂+1) per factor

    def test_leaf_loops(self):
        mats = [star_adjacency(3, "leaf"), star_adjacency(2, "leaf")]
        flat, degree = loop_vertex_degree(mats, [3, 2])
        assert flat == 4 * 3 - 1  # last vertex
        assert degree == 4  # 2 per factor

    def test_missing_loop_rejected(self):
        with pytest.raises(DesignError):
            loop_vertex_degree([star_adjacency(3)], [0])

    def test_digit_count_mismatch(self):
        with pytest.raises(DesignError):
            loop_vertex_degree([star_adjacency(3, "center")], [0, 0])


class TestDesignReport:
    def test_text_contains_counts(self):
        from repro.design import PowerLawDesign

        text = PowerLawDesign([5, 3], "center").report().to_text()
        assert "24" in text
        assert "76" in text
        assert "15" in text

    def test_text_truncates_long_distributions(self):
        from repro.design import PowerLawDesign

        report = PowerLawDesign([3, 4, 5, 9, 16], "center").report()
        text = report.to_text(max_rows=5)
        assert "more rows" in text

    def test_to_dict_roundtrippable(self):
        import json

        from repro.design import PowerLawDesign

        doc = PowerLawDesign([5, 3]).report().to_dict()
        parsed = json.loads(json.dumps(doc))
        assert parsed["num_edges"] == 60
