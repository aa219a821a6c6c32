"""Unit tests for the GraphBLAS-style layer (repro.grb)."""

import numpy as np
import pytest

from repro.design import PowerLawDesign
from repro.errors import ShapeError, ValidationError
from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, star_adjacency
from repro.grb import (
    GrbMatrix,
    GrbVector,
    bfs_levels,
    pagerank,
    sssp_min_plus,
    triangle_count_grb,
)
from repro.semiring import BOOL_OR_AND, MIN_PLUS
from repro.sparse import from_dense, from_edges
from tests.conftest import random_dense


def _nx(graph: Graph):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(graph.num_vertices))
    for r, c, _ in graph.adjacency:
        if r < c:
            G.add_edge(int(r), int(c))
    return G


class TestGrbVector:
    def test_canonicalization_drops_zeros(self):
        v = GrbVector(4, np.array([0, 2]), np.array([5, 0]))
        assert v.nnz == 1

    def test_duplicates_combine(self):
        v = GrbVector(4, np.array([1, 1]), np.array([2, 3]))
        assert v.get(1) == 5

    def test_min_plus_zero_is_inf(self):
        v = GrbVector(3, np.array([0]), np.array([0.0]), semiring=MIN_PLUS)
        assert v.nnz == 1  # 0.0 is min-plus ONE, kept

    def test_dense_roundtrip(self):
        dense = np.array([0, 3, 0, 7])
        v = GrbVector.from_dense(dense)
        np.testing.assert_array_equal(v.to_dense(), dense)

    def test_index_range_checked(self):
        with pytest.raises(ShapeError):
            GrbVector(2, np.array([2]), np.array([1]))

    def test_ewise_add_union(self):
        a = GrbVector(4, np.array([0, 1]), np.array([1, 2]))
        b = GrbVector(4, np.array([1, 3]), np.array([5, 7]))
        out = a.ewise_add(b)
        assert out.to_dense().tolist() == [1, 7, 0, 7]

    def test_ewise_mult_intersection(self):
        a = GrbVector(4, np.array([0, 1]), np.array([2, 3]))
        b = GrbVector(4, np.array([1, 2]), np.array([4, 5]))
        out = a.ewise_mult(b)
        assert out.to_dense().tolist() == [0, 12, 0, 0]

    def test_select_mask_and_complement(self):
        v = GrbVector(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        mask = GrbVector(4, np.array([1]), np.array([True]))
        assert v.select_mask(mask).to_dense().tolist() == [0, 2, 0, 0]
        assert v.select_mask(mask, complement=True).to_dense().tolist() == [1, 0, 3, 0]

    def test_reduce(self):
        v = GrbVector(3, np.array([0, 2]), np.array([4, 6]))
        assert v.reduce() == 10
        assert GrbVector.empty(3).reduce() == 0

    def test_apply(self):
        v = GrbVector(3, np.array([0, 1]), np.array([1, 2]))
        assert v.apply(lambda x: x * 10).to_dense().tolist() == [10, 20, 0]

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            GrbVector.empty(3).ewise_add(GrbVector.empty(4))


class TestGrbMatrix:
    def test_mxm_matches_dense(self, rng):
        A = random_dense(rng, 5, 5)
        B = random_dense(rng, 5, 5)
        out = GrbMatrix(from_dense(A)).mxm(GrbMatrix(from_dense(B)))
        np.testing.assert_array_equal(out.to_dense(), A @ B)

    def test_mxm_masked(self, rng):
        A = random_dense(rng, 6, 6)
        ga = GrbMatrix(from_dense(A))
        out = ga.mxm(ga, mask=ga).to_dense()
        np.testing.assert_array_equal(out, np.where(A != 0, A @ A, 0))

    def test_mxv_matches_dense(self, rng):
        A = random_dense(rng, 5, 5)
        x = random_dense(rng, 1, 5)[0]
        out = GrbMatrix(from_dense(A)).mxv(GrbVector.from_dense(x))
        np.testing.assert_array_equal(out.to_dense(), A @ x)

    def test_vxm_matches_dense(self, rng):
        A = random_dense(rng, 5, 5)
        x = random_dense(rng, 1, 5)[0]
        out = GrbMatrix(from_dense(A)).vxm(GrbVector.from_dense(x))
        np.testing.assert_array_equal(out.to_dense(), x @ A)

    def test_mxv_boolean_semiring_is_reachability_step(self):
        a = GrbMatrix(from_dense(np.array([[0, 1], [0, 0]], dtype=bool)))
        x = GrbVector(2, np.array([1]), np.array([True]))
        out = a.mxv(x, BOOL_OR_AND)
        assert out.to_dense(fill=False).tolist() == [True, False]

    def test_mxv_size_guard(self):
        a = GrbMatrix(from_dense(np.eye(3, dtype=np.int64)))
        with pytest.raises(ShapeError):
            a.mxv(GrbVector.empty(4))

    def test_reduce_rows(self, rng):
        A = random_dense(rng, 5, 4)
        out = GrbMatrix(from_dense(A)).reduce_rows()
        np.testing.assert_array_equal(out.to_dense(), A.sum(axis=1))

    def test_reduce_rows_min_plus(self):
        inf = np.inf
        A = np.array([[inf, 3.0], [inf, inf]])  # inf = min-plus "absent"
        out = GrbMatrix(from_dense(A, semiring=MIN_PLUS)).reduce_rows(MIN_PLUS)
        assert out.get(0) == 3.0
        assert out.nnz == 1  # row 1 is empty

    def test_reduce_scalar(self, rng):
        A = random_dense(rng, 4, 4)
        assert GrbMatrix(from_dense(A)).reduce_scalar() == A.sum()

    def test_apply_and_select(self, rng):
        A = random_dense(rng, 4, 4)
        g = GrbMatrix(from_dense(A))
        np.testing.assert_array_equal(g.apply(lambda v: v * 2).to_dense(), A * 2)
        np.testing.assert_array_equal(
            g.select(lambda r, c, v: r == c).to_dense(), np.diag(np.diag(A))
        )

    def test_transpose(self, rng):
        A = random_dense(rng, 3, 5)
        np.testing.assert_array_equal(GrbMatrix(from_dense(A)).transpose().to_dense(), A.T)

    def test_kron_facade(self, rng):
        A = random_dense(rng, 3, 3)
        B = random_dense(rng, 2, 2)
        out = GrbMatrix(from_dense(A)).kron(GrbMatrix(from_dense(B)))
        np.testing.assert_array_equal(out.to_dense(), np.kron(A, B))

    def test_extract_facade(self, rng):
        A = random_dense(rng, 5, 5)
        out = GrbMatrix(from_dense(A)).extract(np.array([3, 0]), np.array([1, 4]))
        np.testing.assert_array_equal(out.to_dense(), A[np.ix_([3, 0], [1, 4])])


class TestBFS:
    @pytest.mark.parametrize(
        "matrix", [star_adjacency(5), path_graph(7), cycle_graph(6), complete_graph(4)],
        ids=["star", "path", "cycle", "complete"],
    )
    def test_matches_networkx(self, matrix):
        import networkx as nx

        g = Graph(matrix)
        levels = bfs_levels(g, 0)
        want = nx.single_source_shortest_path_length(_nx(g), 0)
        for v in range(g.num_vertices):
            assert levels[v] == want.get(v, -1)

    def test_unreachable_marked(self):
        g = Graph(from_edges(4, [(0, 1)]))
        assert bfs_levels(g, 0).tolist() == [0, 1, -1, -1]

    def test_source_range_checked(self):
        with pytest.raises(ValidationError):
            bfs_levels(Graph(star_adjacency(3)), 99)

    def test_on_designed_graph(self):
        design = PowerLawDesign([3, 4], "center")
        levels = bfs_levels(design.realize(), 0)
        assert (levels >= 0).all()  # center loops make the product connected


class TestSSSP:
    def test_unweighted_equals_bfs(self):
        g = PowerLawDesign([3, 4], "center").realize()
        levels = bfs_levels(g, 0)
        dist = sssp_min_plus(g, 0)
        for v in range(g.num_vertices):
            if levels[v] >= 0:
                assert dist[v] == levels[v]
            else:
                assert np.isinf(dist[v])

    def test_weighted_path(self):
        W = np.array([[0, 2, 0], [2, 0, 3], [0, 3, 0]])
        dist = sssp_min_plus(Graph(from_dense(W)), 0)
        assert dist.tolist() == [0, 2, 5]

    def test_weighted_shortcut_preferred(self):
        # 0->2 direct costs 10; 0->1->2 costs 3.
        W = np.array([[0, 1, 10], [1, 0, 2], [10, 2, 0]])
        dist = sssp_min_plus(Graph(from_dense(W)), 0)
        assert dist[2] == 3

    def test_max_hops_truncates(self):
        g = Graph(path_graph(5))
        dist = sssp_min_plus(g, 0, max_hops=2)
        assert dist[2] == 2 and np.isinf(dist[4])


class TestTrianglesAndPageRank:
    def test_triangle_count_matches_design(self):
        for sizes, loop in ([[5, 3], "center"], [[3, 4], "leaf"]):
            design = PowerLawDesign(sizes, loop)
            assert triangle_count_grb(design.realize()) == design.num_triangles

    def test_triangle_count_rejects_loops(self):
        with pytest.raises(ValidationError):
            triangle_count_grb(Graph(star_adjacency(3, "center")))

    @pytest.mark.parametrize(
        "matrix", [star_adjacency(6), complete_graph(5), path_graph(6)],
        ids=["star", "complete", "path"],
    )
    def test_pagerank_matches_networkx(self, matrix):
        import networkx as nx

        g = Graph(matrix)
        ours = pagerank(g)
        theirs = nx.pagerank(_nx(g), alpha=0.85, tol=1e-10, max_iter=1000)
        np.testing.assert_allclose(
            ours, [theirs[i] for i in range(g.num_vertices)], atol=1e-6
        )

    def test_pagerank_sums_to_one(self):
        g = PowerLawDesign([3, 4, 5]).realize()
        assert pagerank(g).sum() == pytest.approx(1.0)

    def test_pagerank_handles_isolated_vertices(self):
        g = Graph(from_edges(4, [(0, 1)]))
        scores = pagerank(g)
        assert scores.sum() == pytest.approx(1.0)
        assert scores[2] == pytest.approx(scores[3])

    def test_pagerank_validates_damping(self):
        with pytest.raises(ValidationError):
            pagerank(Graph(star_adjacency(3)), damping=1.5)
