"""Unit tests for streaming (out-of-core) generation and validation."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.design import PowerLawDesign
from repro.errors import GenerationError, ValidationError
from repro.parallel import (
    StreamingDegreeAccumulator,
    generate_to_disk,
    read_streamed_degree_distribution,
    streamed_degree_distribution,
    validate_streamed,
)


class TestStreamingAccumulator:
    def test_accumulates_across_blocks(self):
        acc = StreamingDegreeAccumulator(4)
        acc.add_block_rows(np.array([0, 0, 1]))
        acc.add_block_rows(np.array([0, 2]))
        assert acc.distribution().to_dict() == {0: 1, 1: 2, 3: 1}
        assert acc.edges_seen == 5

    def test_empty_block_is_noop(self):
        acc = StreamingDegreeAccumulator(3)
        acc.add_block_rows(np.empty(0, dtype=np.int64))
        assert acc.edges_seen == 0

    def test_loop_removal(self):
        acc = StreamingDegreeAccumulator(2)
        acc.add_block_rows(np.array([0, 0]))
        acc.remove_self_loop(0)
        assert acc.distribution().to_dict() == {0: 1, 1: 1}

    def test_loop_removal_requires_entries(self):
        acc = StreamingDegreeAccumulator(2)
        with pytest.raises(GenerationError):
            acc.remove_self_loop(1)

    def test_rejects_empty_graph(self):
        with pytest.raises(GenerationError):
            StreamingDegreeAccumulator(0)

    @pytest.mark.parametrize("row", [7, -3])
    def test_out_of_range_row_is_a_validation_error(self, row):
        acc = StreamingDegreeAccumulator(5)
        acc.add_block_rows(np.array([0, 4]))
        message = re.escape(f"row {row} is outside [0, num_vertices=5)")
        with pytest.raises(ValidationError, match=message):
            acc.add_block_rows(np.array([1, row, 2]))
        assert acc.edges_seen == 2
        assert acc.distribution().to_dict() == {0: 3, 1: 2}

    @pytest.mark.parametrize("row", [7, -3])
    def test_rank_file_with_out_of_range_row(self, tmp_path, row):
        path = tmp_path / "rank-0.tsv"
        path.write_text(f"0\t1\t1\n{row}\t0\t1\n1\t0\t1\n")
        message = re.escape(f"row {row} is outside [0, num_vertices=5)")
        with pytest.raises(ValidationError, match=message):
            read_streamed_degree_distribution([path], 5)


class TestStreamedDistribution:
    @pytest.mark.parametrize("loop", [None, "center", "leaf"])
    def test_matches_design_prediction(self, loop):
        design = PowerLawDesign([3, 4, 5], loop)
        dist = streamed_degree_distribution(design, 6)
        assert dist == design.degree_distribution

    def test_validate_streamed(self):
        check = validate_streamed(PowerLawDesign([3, 4, 5, 9], "center"), 8)
        assert check.exact_match, check.to_text()

    def test_matches_in_memory_measurement(self):
        design = PowerLawDesign([3, 4, 2])
        streamed = streamed_degree_distribution(design, 4)
        assert streamed == design.realize().degree_distribution()


class TestGenerateToDisk:
    def test_files_written_and_counts_reconcile(self, tmp_path):
        design = PowerLawDesign([3, 4, 5], "center")
        summary = generate_to_disk(design, 5, tmp_path)
        assert summary.n_ranks == 5
        assert len(summary.files) == 5
        assert summary.total_edges == design.num_edges
        assert 0 < summary.peak_block_fraction < 1

    def test_loop_absent_from_files(self, tmp_path):
        design = PowerLawDesign([3, 2], "center")
        summary = generate_to_disk(design, 2, tmp_path)
        for path in summary.files:
            for line in Path(path).read_text().splitlines():
                r, c, _ = line.split("\t")
                assert not (r == c == "0")

    def test_files_reproduce_distribution(self, tmp_path):
        design = PowerLawDesign([3, 4, 5], "leaf")
        summary = generate_to_disk(design, 4, tmp_path)
        dist = read_streamed_degree_distribution(summary.files, design.num_vertices)
        assert dist == design.degree_distribution

    def test_files_equal_direct_realization(self, tmp_path):
        from repro.io import read_rank_files

        design = PowerLawDesign([3, 4, 2])
        generate_to_disk(design, 3, tmp_path)
        merged = read_rank_files(tmp_path, (design.num_vertices, design.num_vertices))
        assert merged.equal(design.realize().adjacency)
