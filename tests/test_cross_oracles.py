"""Randomized cross-oracle battery.

Every major kernel checked against an independent implementation (SciPy
sparse, NetworkX, dense NumPy) on randomized workloads — broader and
more adversarial than the per-module unit tests.
"""

import numpy as np

from repro.design import chain_properties
from repro.graphs import Graph
from repro.kron import KroneckerChain, kron, kron_chain
from repro.semiring import BOOL_OR_AND, MAX_PLUS, MIN_PLUS
from repro.sparse import from_dense, matrix_power
from repro.sparse.convert import to_scipy
from tests.conftest import random_dense


def symmetric_dense(rng, n, density=0.3):
    a = random_dense(rng, n, n, density)
    a = np.minimum(a + a.T, 1)
    np.fill_diagonal(a, 0)
    return a.astype(np.int64)


class TestScipyOracle:
    def test_matmul_chains(self, rng):
        for _ in range(10):
            mats = [random_dense(rng, 6, 6) for _ in range(4)]
            ours = from_dense(mats[0]).to_csr()
            theirs = to_scipy(from_dense(mats[0])).tocsr()
            for m in mats[1:]:
                ours = ours.matmul(from_dense(m).to_csr())
                theirs = theirs @ to_scipy(from_dense(m)).tocsr()
            np.testing.assert_array_equal(ours.to_dense(), theirs.toarray())

    def test_kron_vs_scipy(self, rng):
        import scipy.sparse as sp

        for _ in range(10):
            a = random_dense(rng, 5, 4)
            b = random_dense(rng, 3, 6)
            ours = kron(from_dense(a), from_dense(b))
            theirs = sp.kron(
                to_scipy(from_dense(a)), to_scipy(from_dense(b))
            ).toarray()
            np.testing.assert_array_equal(ours.to_dense(), theirs)

    def test_matrix_power_vs_scipy(self, rng):
        a = symmetric_dense(rng, 8)
        ours = matrix_power(from_dense(a), 4)
        theirs = np.linalg.matrix_power(a, 4)
        np.testing.assert_array_equal(ours.to_dense(), theirs)

    def test_transpose_and_ewise_compose(self, rng):
        a = random_dense(rng, 7, 7)
        b = random_dense(rng, 7, 7)
        ours = (from_dense(a).T + from_dense(b)).to_dense()
        np.testing.assert_array_equal(ours, a.T + b)


class TestSemiringOracles:
    def test_min_plus_power_is_shortest_paths(self, rng):
        # (D^(n-1)) over min-plus == all-pairs shortest paths.
        n = 6
        weights = rng.integers(1, 9, (n, n)).astype(float)
        mask = rng.random((n, n)) < 0.5
        inf = np.inf
        D = np.where(mask, weights, inf)
        np.fill_diagonal(D, 0.0)
        sparse_d = from_dense(D, semiring=MIN_PLUS).to_csr()
        result = sparse_d
        for _ in range(n - 2):
            result = result.matmul(sparse_d, MIN_PLUS)
        ours = np.full((n, n), inf)
        coo = result.to_coo()
        ours[coo.rows, coo.cols] = coo.vals
        # Floyd-Warshall oracle.
        fw = D.copy()
        for k in range(n):
            fw = np.minimum(fw, fw[:, [k]] + fw[[k], :])
        np.testing.assert_allclose(ours, fw)

    def test_boolean_power_is_reachability(self, rng):
        n = 7
        a = (rng.random((n, n)) < 0.25)
        sparse_a = from_dense(a).to_csr()
        result = sparse_a
        for _ in range(n - 2):
            result = result.matmul(sparse_a, BOOL_OR_AND)
        reach = np.linalg.matrix_power(a.astype(np.int64), n - 1) > 0
        np.testing.assert_array_equal(result.to_dense() != 0, reach)

    def test_max_plus_longest_walk_step(self, rng):
        n = 5
        ninf = -np.inf
        W = np.where(rng.random((n, n)) < 0.5, rng.integers(1, 5, (n, n)).astype(float), ninf)
        sw = from_dense(W, semiring=MAX_PLUS).to_csr()
        out = sw.matmul(sw, MAX_PLUS)
        expected = np.full((n, n), ninf)
        for i in range(n):
            for j in range(n):
                expected[i, j] = max(W[i, k] + W[k, j] for k in range(n))
        ours = np.full((n, n), ninf)
        coo = out.to_coo()
        ours[coo.rows, coo.cols] = coo.vals
        np.testing.assert_allclose(ours, expected)


class TestNetworkxOracle:
    def _nx(self, graph: Graph):
        import networkx as nx

        G = nx.Graph()
        G.add_nodes_from(range(graph.num_vertices))
        for r, c, _ in graph.adjacency:
            if r < c:
                G.add_edge(int(r), int(c))
        return G

    def test_triangles_on_random_graphs(self, rng):
        import networkx as nx

        for _ in range(8):
            a = symmetric_dense(rng, 14, density=0.4)
            g = Graph(from_dense(a))
            expected = sum(nx.triangles(self._nx(g)).values()) // 3
            assert g.num_triangles() == expected

    def test_components_on_random_graphs(self, rng):
        import networkx as nx

        from repro.kron import connected_components

        for _ in range(8):
            a = symmetric_dense(rng, 16, density=0.12)
            g = Graph(from_dense(a))
            ours = len(np.unique(connected_components(g.adjacency)))
            theirs = nx.number_connected_components(self._nx(g))
            assert ours == theirs

    def test_chain_properties_on_random_constituents(self, rng):
        for _ in range(5):
            mats = [from_dense(symmetric_dense(rng, rng.integers(3, 6))) for _ in range(2)]
            if any(m.nnz == 0 for m in mats):
                continue
            props = chain_properties(mats)
            g = Graph(kron_chain(mats))
            assert props.num_vertices == g.num_vertices
            assert props.nnz == g.num_edges
            assert props.degree_distribution == g.degree_distribution()
            assert props.triangles == g.num_triangles()

    def test_lazy_chain_degrees_on_random_constituents(self, rng):
        mats = [from_dense(symmetric_dense(rng, 4)) for _ in range(3)]
        chain = KroneckerChain(mats)
        g = Graph(chain.materialize())
        degrees = g.degree_vector()
        probe = rng.integers(0, chain.num_vertices, size=30)
        for v in probe:
            assert chain.degree_of(int(v)) == degrees[v]
