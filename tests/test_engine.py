"""Tests for the plan→schedule→execute→sink engine and the tiled kernel.

Covers the ISSUE acceptance criteria directly: kron_tiles equivalence
with the whole-block kernel at any budget, guaranteed progress when the
budget is smaller than a single Bp row, empty-rank plans (Np > nnz(B)),
one-rank plans, the bounded-peak guarantee when the largest rank block
exceeds the budget, and byte-identity of tiny-budget streamed output
with the default-budget run.
"""

import numpy as np
import pytest

from repro.design import PowerLawDesign
from repro.engine import (
    AssemblySink,
    DegreeSink,
    GenerationPlan,
    RankTask,
    RunConfig,
    StaticScheduler,
    execute,
    plan_from_chain,
    plan_from_design,
)
from repro.errors import GenerationError, PartitionError
from repro.graphs import star_adjacency
from repro.kron import KroneckerChain, kron, kron_tiles, tile_row_ranges
from repro.parallel import VirtualCluster, streamed_degree_distribution
from repro.runtime import MetricsRegistry


def _triples(m):
    coo = m.as_coo() if hasattr(m, "as_coo") else m
    return np.array(coo.rows), np.array(coo.cols), np.array(coo.vals)


class TestTileRowRanges:
    def test_none_budget_is_single_range(self):
        assert list(tile_row_ranges(np.array([2, 3, 4]), None)) == [(0, 3)]

    def test_packs_consecutive_rows_under_budget(self):
        assert list(tile_row_ranges(np.array([2, 2, 2, 2]), 4)) == [(0, 2), (2, 4)]

    def test_oversized_row_still_progresses(self):
        # Row 0 alone exceeds the budget; it must still form its own
        # (over-budget) tile rather than loop forever.
        assert list(tile_row_ranges(np.array([5, 1, 1]), 3)) == [(0, 1), (1, 3)]

    def test_budget_below_one_rejected(self):
        with pytest.raises(GenerationError):
            list(tile_row_ranges(np.array([1, 1]), 0))


class TestKronTiles:
    B = star_adjacency(5)
    C = star_adjacency(4)

    @pytest.mark.parametrize("budget", [None, 1, 3, 6, 7, 8, 24, 1000])
    def test_concatenated_tiles_equal_whole_kernel(self, budget):
        reference = kron(self.B, self.C)
        tiles = list(kron_tiles(self.B, self.C, budget))
        rows = np.concatenate([t[0] for t in tiles])
        cols = np.concatenate([t[1] for t in tiles])
        vals = np.concatenate([t[2] for t in tiles])
        ref_rows, ref_cols, ref_vals = _triples(reference)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)
        np.testing.assert_array_equal(vals, ref_vals)

    def test_tile_sizes_respect_budget_when_rows_fit(self):
        # star(5) row 0 has 5 entries -> worst row costs 5 * nnz(C) = 40.
        budget = 48
        for rows, _, _ in kron_tiles(self.B, self.C, budget):
            assert len(rows) <= budget

    def test_empty_factor_yields_nothing(self):
        from repro.sparse import COOMatrix

        empty = COOMatrix((3, 3), [], [], [])
        assert list(kron_tiles(empty, self.C, 4)) == []


class TestScheduler:
    def _tasks(self, entries):
        return [
            RankTask(rank=i, assignment=None, estimated_entries=e)
            for i, e in enumerate(entries)
        ]

    def test_default_order_is_ascending_rank(self):
        # Sizes that an LPT order would rearrange: static ignores them.
        tasks = self._tasks([1, 9, 5])
        assert StaticScheduler().order(list(reversed(tasks))) == tasks

    def test_invalid_max_in_flight_rejected(self):
        with pytest.raises(GenerationError, match="max_in_flight"):
            StaticScheduler(max_in_flight=0)


class TestPartitionEdgeCases:
    CHAIN = KroneckerChain([star_adjacency(3), star_adjacency(4)])

    def test_more_ranks_than_b_triples_rejected_by_default(self):
        cluster = VirtualCluster(n_ranks=self.CHAIN.nnz + 10)
        with pytest.raises(PartitionError):
            plan_from_chain(self.CHAIN, cluster)

    def test_empty_ranks_allowed_and_assemble_exact(self):
        n_ranks = 10  # nnz(B) = 6 at the only feasible split, so 4+ ranks idle
        cluster = VirtualCluster(n_ranks=n_ranks)
        plan = plan_from_chain(self.CHAIN, cluster, allow_empty_ranks=True)
        assert plan.n_ranks == n_ranks
        assert any(t.estimated_entries == 0 for t in plan.tasks)
        result = execute(plan, AssemblySink())
        assert result.sink_result.matrix().equal(self.CHAIN.materialize())
        empty_ranks = [s.rank for s in result.stats if s.nnz == 0]
        assert empty_ranks  # the idle ranks ran and produced nothing

    def test_one_rank_plan(self):
        plan = plan_from_chain(self.CHAIN, VirtualCluster(n_ranks=1))
        result = execute(plan, AssemblySink())
        assert len(result.stats) == 1
        assert result.sink_result.matrix().equal(self.CHAIN.materialize())


class TestBoundedMemoryExecution:
    def test_peak_tile_bounded_when_block_exceeds_budget(self):
        # One rank, so the block is the whole 480-entry product; the
        # worst single B row costs 12 * nnz(C) = 120 entries.  A budget
        # between those forces tiling AND must be respected exactly.
        chain = KroneckerChain(
            [star_adjacency(3), star_adjacency(4), star_adjacency(5)]
        )
        budget = 150
        plan = plan_from_chain(
            chain, VirtualCluster(1, memory_budget_entries=budget)
        )
        assert plan.max_task_entries > budget
        metrics = MetricsRegistry()
        result = execute(plan, AssemblySink(), metrics=metrics)
        assert result.peak_tile_entries <= budget
        assert result.total_tiles > 1
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["engine.tiles"] == result.total_tiles
        assert (
            snapshot["gauges"]["engine.peak_tile_entries"]
            == result.peak_tile_entries
        )
        assert result.sink_result.matrix().equal(chain.materialize())

    def test_sub_row_budget_still_completes(self):
        # A tile budget of 1 entry is below every Bp row's cost (the
        # split chooser would reject it, so the plan is built directly);
        # the progress guarantee gives one row per tile, peak = worst
        # row, output still exact.
        from repro.engine import plan_from_partition
        from repro.parallel.partition import partition_bc

        chain = KroneckerChain([star_adjacency(3), star_adjacency(4)])
        partition = partition_bc(chain, VirtualCluster(1))
        plan = plan_from_partition(
            partition,
            num_vertices=chain.num_vertices,
            memory_budget_entries=1,
        )
        result = execute(plan, AssemblySink())
        assert result.sink_result.matrix().equal(chain.materialize())
        assert result.total_tiles > 1  # every row became its own tile
        assert result.peak_tile_entries > 1  # oversized rows, documented

    def test_tiny_budget_stream_bytes_identical(self, tmp_path):
        from repro.parallel import generate_to_disk

        design = PowerLawDesign([3, 4, 5], "center")
        default_dir = tmp_path / "default"
        tiny_dir = tmp_path / "tiny"
        metrics = MetricsRegistry()
        generate_to_disk(
            design, 5, default_dir, config=RunConfig(scramble_seed=11)
        )
        # 63 is the smallest budget at which both split halves fit for
        # this design's factor nnzs [7, 9, 11].
        summary = generate_to_disk(
            design,
            5,
            tiny_dir,
            config=RunConfig(memory_budget_entries=63, scramble_seed=11),
            metrics=metrics,
        )
        assert metrics.snapshot()["counters"]["engine.tiles"] > 5
        for path in sorted(default_dir.iterdir()):
            assert (tiny_dir / path.name).read_bytes() == path.read_bytes()
        assert summary.total_edges == design.num_edges


class TestDegreeSink:
    def test_streamed_distribution_matches_prediction(self):
        design = PowerLawDesign([3, 4, 5], "center")
        measured = streamed_degree_distribution(
            design, 3, config=RunConfig(memory_budget_entries=100)
        )
        assert measured == design.degree_distribution

    def test_direct_sink_use_matches_driver(self):
        design = PowerLawDesign([3, 4, 5], "center")
        plan = plan_from_design(design, 3, memory_budget_entries=100)
        result = execute(plan, DegreeSink())
        assert result.sink_result.distribution() == design.degree_distribution


class TestPlanValidation:
    def test_plan_records_budget_and_estimates(self):
        design = PowerLawDesign([3, 4], "none")
        plan = plan_from_design(design, 2, memory_budget_entries=1000)
        assert isinstance(plan, GenerationPlan)
        assert plan.memory_budget_entries == 1000
        assert sum(t.estimated_entries for t in plan.tasks) == design.raw_nnz
