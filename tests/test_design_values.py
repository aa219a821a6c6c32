"""Unit tests for exact value (edge-weight) distributions."""

import pytest

from repro.design import ValueDistribution, total_weight_of_chain, value_distribution
from repro.errors import DesignError
from repro.graphs import star_adjacency
from repro.kron import kron_chain
from repro.sparse import from_dense, from_triples
from tests.conftest import random_dense


class TestValueDistribution:
    def test_from_matrix(self):
        m = from_triples((2, 2), [0, 0, 1], [0, 1, 1], [3, 3, 7])
        assert ValueDistribution.from_matrix(m).to_dict() == {3: 2, 7: 1}

    def test_rejects_value_zero(self):
        with pytest.raises(DesignError):
            ValueDistribution({0: 3})

    def test_rejects_negative_count(self):
        with pytest.raises(DesignError):
            ValueDistribution({1: -1})

    def test_totals(self):
        d = ValueDistribution({2: 3, 5: 1})
        assert d.total_nnz() == 4
        assert d.total_weight() == 11

    def test_kron(self):
        a = ValueDistribution({2: 1, 3: 2})
        b = ValueDistribution({5: 4})
        assert a.kron(b).to_dict() == {10: 4, 15: 8}

    def test_kron_collisions_accumulate(self):
        a = ValueDistribution({2: 1, 4: 1})
        b = ValueDistribution({2: 1, 1: 1})
        # products: 4, 2, 8, 4
        assert a.kron(b).to_dict() == {2: 1, 4: 2, 8: 1}

    def test_negative_values_allowed(self):
        a = ValueDistribution({-1: 2, 3: 1})
        out = a.kron(ValueDistribution({-2: 1}))
        assert out.to_dict() == {2: 2, -6: 1}

    def test_equality_with_dict(self):
        assert ValueDistribution({1: 2}) == {1: 2}

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(ValueDistribution({1: 1}))


class TestChainValueDistribution:
    def test_pattern_chain_is_all_ones(self):
        mats = [star_adjacency(3), star_adjacency(4)]
        dist = value_distribution(mats)
        assert dist.to_dict() == {1: 6 * 8}

    def test_weighted_chain_matches_realized(self, rng):
        mats = [from_dense(random_dense(rng, 4, 4)) for _ in range(3)]
        if any(m.nnz == 0 for m in mats):
            pytest.skip("degenerate draw")
        predicted = value_distribution(mats)
        realized = ValueDistribution.from_matrix(kron_chain(mats))
        assert predicted == realized

    def test_total_weight_identity(self, rng):
        mats = [from_dense(random_dense(rng, 3, 3)) for _ in range(3)]
        product = kron_chain(mats)
        assert total_weight_of_chain(mats) == product.sum()

    def test_total_nnz_matches_edges(self):
        mats = [star_adjacency(5), star_adjacency(3)]
        assert value_distribution(mats).total_nnz() == 60

    def test_empty_constituent_list_rejected(self):
        with pytest.raises(DesignError):
            value_distribution([])
        with pytest.raises(DesignError):
            total_weight_of_chain([])

    def test_huge_weighted_design_exact(self):
        # Weighted stars with weight-5 spokes at Fig-5 scale: the value
        # histogram of a 10^15-entry product computes instantly.
        mats = []
        sizes = [3, 4, 5, 9, 16, 25, 81, 256, 625]
        dists = []
        for m in sizes:
            dists.append(ValueDistribution({5: 2 * m}))
        dist = ValueDistribution.kron_all(dists)
        assert dist.total_nnz() == 1_433_272_320_000_000
        assert dist.to_dict() == {5**9: 1_433_272_320_000_000}
