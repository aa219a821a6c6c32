"""End-to-end integration tests spanning every subsystem.

Each test is a full user journey: design -> (parallel) generation ->
on-disk artifacts -> independent re-measurement -> validation, with the
exact predictions as the single source of truth throughout.
"""

import json

import pytest

from repro import (
    ParallelKroneckerGenerator,
    PowerLawDesign,
    VirtualCluster,
    design_for_scale,
    generate_design_parallel,
    validate_design,
)
from repro.analysis import (
    count_by_enumeration,
    fit_power_law,
    k_truss,
)
from repro.design import design_spectrum
from repro.io import (
    load_design,
    load_matrix,
    read_mtx,
    save_design,
    save_matrix,
    write_mtx,
)
from repro.kron import spectral_radius_estimate
from repro.parallel import generate_to_disk, read_streamed_degree_distribution
from repro.validate import audit_partition


class TestFullPipelineInMemory:
    @pytest.mark.parametrize("loop", [None, "center", "leaf"])
    def test_design_generate_validate(self, loop):
        design = PowerLawDesign([3, 4, 5], loop)
        graph = generate_design_parallel(design, n_ranks=7)
        report = validate_design(design, graph=graph)
        assert report.passed, report.to_text()
        # Independent witnesses beyond the validator:
        assert count_by_enumeration(graph) == design.num_triangles
        assert graph.num_wedges() == design.num_wedges

    def test_search_then_full_loop(self):
        design = design_for_scale(30_000, rel_tol=0.5)
        report = validate_design(design)
        assert report.passed

    def test_spectral_cross_checks(self):
        design = PowerLawDesign([3, 4, 2], "center")
        spectrum = design_spectrum(design)
        # Exact spectrum vs matrix-free power iteration on the raw chain.
        estimated = spectral_radius_estimate(design.to_chain())
        assert estimated == pytest.approx(spectrum.spectral_radius, rel=1e-6)
        # Spectrum moments vs exact counts.
        assert spectrum.moment(2) == pytest.approx(design.raw_nnz)


class TestFullPipelineOnDisk:
    def test_stream_write_read_validate(self, tmp_path):
        design = PowerLawDesign([3, 4, 5], "center")
        summary = generate_to_disk(design, 6, tmp_path / "ranks")
        measured = read_streamed_degree_distribution(
            summary.files, design.num_vertices
        )
        assert measured == design.degree_distribution

    def test_design_json_plus_matrix_npz(self, tmp_path):
        design = PowerLawDesign([3, 4], "leaf")
        save_design(tmp_path / "design.json", design)
        graph = design.realize()
        save_matrix(tmp_path / "graph.npz", graph.adjacency)
        # A fresh consumer loads both and re-validates.
        loaded_design = load_design(tmp_path / "design.json")
        loaded_matrix = load_matrix(tmp_path / "graph.npz")
        from repro.graphs import Graph

        report = validate_design(loaded_design, graph=Graph(loaded_matrix))
        assert report.passed

    def test_mtx_interchange(self, tmp_path):
        design = PowerLawDesign([3, 4, 2])
        graph = design.realize()
        write_mtx(tmp_path / "g.mtx", graph.adjacency, symmetric=True)
        back = read_mtx(tmp_path / "g.mtx")
        assert back.equal(graph.adjacency)

    def test_report_json_is_loadable(self, tmp_path):
        doc = PowerLawDesign([3, 4, 5], "center").report().to_dict()
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        parsed = json.loads(path.read_text())
        assert parsed["num_triangles"] == PowerLawDesign([3, 4, 5], "center").num_triangles


class TestWorkloadConsumers:
    """The generator exists to feed graph-analytic workloads; run them."""

    def test_truss_on_designed_graph(self):
        design = PowerLawDesign([3, 4, 5], "center")
        graph = design.realize()
        t3 = k_truss(graph, 3)
        # Every surviving edge participates in a triangle of the truss.
        from repro.analysis import edge_support

        if t3.num_edges:
            support = edge_support(t3.subgraph)
            assert (support.vals >= 1).all()

    def test_power_law_fit_on_generated_graph(self):
        design = PowerLawDesign([3, 4, 5, 9])
        graph = design.realize()
        fit = fit_power_law(graph.degree_distribution())
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)

    def test_partition_audit_through_public_api(self):
        design = PowerLawDesign([3, 4, 5, 9])
        gen = ParallelKroneckerGenerator(design.to_chain(), VirtualCluster(12))
        blocks = gen.generate_blocks()
        audit = audit_partition(gen.plan, blocks, design.raw_nnz)
        assert audit.complete and audit.balanced

    def test_multibackend_agreement(self):
        from repro.parallel import MultiprocessingBackend, SerialBackend

        design = PowerLawDesign([3, 4, 5])
        chain = design.to_chain()
        serial = ParallelKroneckerGenerator(
            chain, VirtualCluster(4), backend=SerialBackend()
        ).assemble()
        multi = ParallelKroneckerGenerator(
            chain, VirtualCluster(4), backend=MultiprocessingBackend(processes=2)
        ).assemble()
        assert serial.equal(multi)
