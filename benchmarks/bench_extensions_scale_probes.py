"""Benchmarks for the scale-probe extensions.

These measure the capabilities the exact-design representation unlocks
beyond the paper: sampling edges of never-materialized graphs, local
subgraph probes, exact assortativity, label scrambling, and the
real-workload Fig.-3 curve point at the paper's exact core count.
"""

import numpy as np

from benchmarks.conftest import record
from repro.design import (
    PowerLawDesign,
    design_assortativity,
    induced_subgraph,
    sample_edges,
)
from repro.engine import RunConfig
from repro.parallel import scramble_graph, scramble_permutation, simulate_rate_curve

FIG7 = [3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641]


def test_sample_edges_of_decetta_graph(benchmark):
    """100 uniform edges of the 10^30-edge Fig.-7 graph."""
    design = PowerLawDesign(FIG7, "leaf")
    chain = design.to_chain()
    rng = np.random.default_rng(0)

    edges = benchmark(lambda: sample_edges(design, 100, rng=rng))
    assert len(edges) == 100
    assert all(chain.entry(i, j) == 1 for i, j in edges[:10])
    record(
        benchmark,
        graph_edges=f"{design.num_edges:.3e}",
        samples=100,
        note="uniform over stored entries; graph never materialized",
    )


def test_induced_subgraph_probe(benchmark):
    """A 12-vertex local probe of the 10^30-edge graph (144 queries)."""
    design = PowerLawDesign(FIG7, "leaf")
    rng = np.random.default_rng(1)
    from repro.design import sample_vertices

    vertices = sample_vertices(design, 12, rng=rng)

    sub = benchmark(lambda: induced_subgraph(design, vertices))
    record(benchmark, probe_vertices=12, probe_nnz=sub.nnz)


def test_exact_assortativity_trillion_edges(benchmark):
    """Exact degree assortativity of the Fig.-4 trillion-edge design."""
    design = PowerLawDesign([3, 4, 5, 9, 16, 25, 81, 256], "center")

    value = benchmark(lambda: design_assortativity(design))
    assert -1 <= value < 0
    record(
        benchmark,
        edges="1,853,002,140,758",
        assortativity=f"{float(value):.6f}",
        note="exact rational; hub graphs are disassortative",
    )


def test_scramble_permutation_at_scale(benchmark):
    """Affine label scrambling applied/inverted at 10^26 vertices."""
    design = PowerLawDesign(FIG7, "leaf")
    perm = scramble_permutation(design.num_vertices, seed=7)
    probe = design.num_vertices - 987654321

    result = benchmark(lambda: perm.invert(perm.apply(probe)))
    assert result == probe
    record(benchmark, vertices=f"{design.num_vertices:.3e}", roundtrip="exact")


def test_scramble_preserves_invariants(benchmark):
    design = PowerLawDesign([3, 4, 5], "center")
    graph = design.realize()

    scrambled = benchmark(lambda: scramble_graph(graph, seed=3))
    assert scrambled.degree_distribution() == design.degree_distribution.to_dict()
    record(benchmark, edges=graph.num_edges, degree_distribution="invariant")


def test_fig3_curve_at_paper_core_count(benchmark):
    """One real rank workload of the trillion-edge graph at 41,472 cores."""
    design = PowerLawDesign([3, 4, 5, 9, 16, 25, 81, 256])

    def run():
        return simulate_rate_curve(
            design,
            [41_472],
            config=RunConfig(memory_budget_entries=30_000_000),
        )

    curve = benchmark.pedantic(run, rounds=1, iterations=1)
    point = curve.points[0]
    assert point.measured
    record(
        benchmark,
        cores=41_472,
        per_rank_edges=f"{point.per_rank_edges:,}",
        simulated_rate=f"{point.aggregate_edges_per_s:.3e} edges/s",
        paper_rate=">1e12 edges/s on real hardware",
    )
