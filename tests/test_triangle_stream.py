"""Streamed triangle participation: exactness, budgets, deficiency.

Three claims under test: (1) the blocked streaming algorithm computes
*exactly* the same triangle count and participation histograms as the
in-memory counters, at every memory budget — including budgets far
smaller than the edge set; (2) it consumes real shard directories rank
by rank; (3) it reproduces the arXiv:1102.5046 finding on a recorded
configuration — plain SKG is triangle-deficient against its own
noisy-initiator variant.
"""

import itertools

import numpy as np
import pytest

from repro.design import PowerLawDesign
from repro.engine import ShardSink, execute, plan_from_model
from repro.errors import ValidationError
from repro.models import NoisySKGModel, StochasticKroneckerModel
from repro.parallel import generate_to_disk
from repro.validate import (
    compare_triangle_participation,
    count_triangles_ordered,
    iter_shard_edges,
    triangle_stream,
)

DESIGN = PowerLawDesign([3, 4, 5], "center")

#: The recorded deficiency configuration: at 2^14 vertices and average
#: degree 2, plain SKG realizes fewer than half the triangles of its
#: noisy variant (measured ratio ~0.47 for this seed; see EXPERIMENTS.md).
DEFICIENCY_CONFIG = dict(levels=14, num_edges=16384, seed=1)


def brute_force(rows, cols, n):
    """Reference: per-vertex and per-edge triangle counts via sets."""
    edges = set()
    for u, v in zip(rows.tolist(), cols.tolist()):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    vertex = [0] * n
    edge = {}
    triangles = 0
    for u, v, w in itertools.combinations(range(n), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            triangles += 1
            for x in (u, v, w):
                vertex[x] += 1
            for e in ((u, v), (u, w), (v, w)):
                edge[e] = edge.get(e, 0) + 1
    return edges, vertex, edge, triangles


class TestExactness:
    @pytest.mark.parametrize("budget", [10**9, 64, 9, 1])
    def test_matches_brute_force_on_random_graphs(self, rng, budget):
        n = 24
        for _ in range(5):
            m = 60
            rows = rng.integers(0, n, size=m).astype(np.int64)
            cols = rng.integers(0, n, size=m).astype(np.int64)
            edges, vertex, edge, triangles = brute_force(rows, cols, n)
            result = triangle_stream(
                [(rows, cols)], n, memory_budget_entries=budget
            )
            assert result.num_edges == len(edges)
            assert result.num_triangles == triangles
            expect_vertex = {}
            for c in vertex:
                expect_vertex[c] = expect_vertex.get(c, 0) + 1
            assert result.vertex_participation == expect_vertex
            expect_edge = {}
            for c in edge.values():
                expect_edge[c] = expect_edge.get(c, 0) + 1
            zero = len(edges) - len(edge)
            if zero:
                expect_edge[0] = zero
            assert result.edge_participation == expect_edge

    def test_design_triangles_match_closed_form(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        result = triangle_stream(
            [(coo.rows, coo.cols)], DESIGN.num_vertices
        )
        assert result.num_triangles == DESIGN.num_triangles
        assert result.num_triangles == count_triangles_ordered(graph)

    def test_budget_invariance_far_below_edge_count(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        edges = [(coo.rows, coo.cols)]
        base = triangle_stream(edges, DESIGN.num_vertices)
        assert base.num_blocks == 1
        tiny = triangle_stream(
            edges, DESIGN.num_vertices, memory_budget_entries=50
        )
        assert tiny.num_blocks > 1
        assert tiny.stream_passes > base.stream_passes
        for field in (
            "num_edges",
            "num_triangles",
            "vertex_participation",
            "edge_participation",
        ):
            assert getattr(tiny, field) == getattr(base, field), field

    def test_empty_input(self):
        result = triangle_stream([], 0)
        assert result.num_edges == 0
        assert result.num_triangles == 0
        assert result.edge_participation_fraction == 0.0

    def test_out_of_range_endpoint_rejected(self):
        rows = np.array([0, 5], dtype=np.int64)
        cols = np.array([1, 6], dtype=np.int64)
        with pytest.raises(ValidationError, match="out of range"):
            triangle_stream([(rows, cols)], 4)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            triangle_stream([], 0, memory_budget_entries=0)


class TestShardInput:
    def test_reads_shard_directory_with_manifest_vertices(self, tmp_path):
        out = tmp_path / "shards"
        generate_to_disk(DESIGN, 3, out)
        result = triangle_stream(out)
        assert result.num_vertices == DESIGN.num_vertices
        assert result.num_triangles == DESIGN.num_triangles

    def test_shard_stream_equals_in_memory(self, tmp_path):
        model = StochasticKroneckerModel(levels=7, num_edges=400, seed=5)
        out = tmp_path / "skg"
        execute(plan_from_model(model, 3), ShardSink(out))
        streamed = triangle_stream(out)
        chunks = list(iter_shard_edges(out))
        in_memory = triangle_stream(chunks, model.num_vertices)
        assert streamed.num_triangles == in_memory.num_triangles
        assert streamed.edge_participation == in_memory.edge_participation
        # And a tiny budget over the on-disk shards still agrees.
        tiny = triangle_stream(out, memory_budget_entries=37)
        assert tiny.num_blocks > 1
        assert tiny.num_triangles == streamed.num_triangles


class TestDeficiencyFlag:
    def test_plain_skg_deficient_against_noisy_at_recorded_config(self):
        results = {}
        for cls, name in (
            (StochasticKroneckerModel, "skg"),
            (NoisySKGModel, "noisy"),
        ):
            model = cls(**DEFICIENCY_CONFIG)
            rows, cols, _ = model._generate(0, model.num_edges)
            results[name] = triangle_stream([(rows, cols)], model.num_vertices)
        comparison = compare_triangle_participation(
            results["noisy"], results["skg"]
        )
        assert comparison.deficient, comparison.to_text()
        assert comparison.triangle_ratio < 0.5
        assert (
            results["skg"].edge_participation_fraction
            < results["noisy"].edge_participation_fraction
        )
        assert "TRIANGLE-DEFICIENT" in comparison.to_text()

    def test_exact_design_is_not_deficient_against_itself(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        measured = triangle_stream([(coo.rows, coo.cols)], DESIGN.num_vertices)
        comparison = compare_triangle_participation(DESIGN, measured)
        assert comparison.triangle_ratio == 1.0
        assert not comparison.deficient

    def test_comparison_accepts_plain_int(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        measured = triangle_stream([(coo.rows, coo.cols)], DESIGN.num_vertices)
        comparison = compare_triangle_participation(
            DESIGN.num_triangles * 4, measured, threshold=0.5
        )
        assert comparison.deficient
