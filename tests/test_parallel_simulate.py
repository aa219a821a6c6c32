"""Unit tests for the real-workload rate-curve simulator."""

import pytest

from repro.design import PowerLawDesign
from repro.engine import RunConfig
from repro.errors import PartitionError
from repro.parallel import simulate_rate_curve


def budget(entries):
    return RunConfig(memory_budget_entries=entries)


class TestSimulateRateCurve:
    def test_small_design_all_points_measured(self):
        design = PowerLawDesign([3, 4, 5])
        curve = simulate_rate_curve(design, [1, 2, 4], config=budget(10**6))
        assert all(p.measured for p in curve.points)
        assert curve.peak_rate() > 0

    def test_per_rank_edges_shrink_with_cores(self):
        design = PowerLawDesign([3, 4, 5, 9])
        curve = simulate_rate_curve(design, [1, 4, 16], config=budget(10**7))
        measured = curve.measured_points()
        edges = [p.per_rank_edges for p in measured]
        assert edges == sorted(edges, reverse=True)
        # total work conserved: cores * per-rank ~ raw nnz (within slicing).
        for p in measured:
            assert p.cores * p.per_rank_edges >= design.raw_nnz * 0.9

    def test_oversized_blocks_skipped_with_reason(self):
        design = PowerLawDesign([3, 4, 5, 9, 16])
        curve = simulate_rate_curve(design, [1], config=budget(10_000))
        point = curve.points[0]
        assert not point.measured
        assert "exceeds budget" in point.skip_reason
        assert "skipped" in point.to_text()

    def test_invalid_core_counts_skipped(self):
        design = PowerLawDesign([3, 4, 5])
        curve = simulate_rate_curve(design, [0, 10**9], config=budget(10**6))
        assert not any(p.measured for p in curve.points)

    def test_no_measurable_point_raises_on_peak(self):
        design = PowerLawDesign([3, 4, 5, 9, 16])
        curve = simulate_rate_curve(design, [1], config=budget(10_000))
        with pytest.raises(PartitionError):
            curve.peak_rate()

    def test_explicit_split_respected(self):
        design = PowerLawDesign([3, 4, 5, 9])
        curve = simulate_rate_curve(
            design, [2], split_index=2, config=budget(10**7)
        )
        assert curve.points[0].measured

    def test_infeasible_budget_raises(self):
        design = PowerLawDesign([3, 4, 5])
        with pytest.raises(PartitionError):
            simulate_rate_curve(design, [1], config=budget(1))

    def test_text_rendering(self):
        design = PowerLawDesign([3, 4])
        curve = simulate_rate_curve(design, [1, 2], config=budget(10**6))
        text = curve.to_text()
        assert "edges/s (simulated)" in text
