"""Tests for the plan→schedule→execute→sink engine and the tiled kernel.

Covers the ISSUE acceptance criteria directly: kron_tiles equivalence
with the whole-block kernel at any budget, guaranteed progress when the
budget is smaller than a single Bp row, empty-rank plans (Np > nnz(B)),
one-rank plans, the bounded-peak guarantee when the largest rank block
exceeds the budget, and byte-identity of tiny-budget streamed output
with the default-budget run.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import PowerLawDesign
from repro.engine import (
    AssemblySink,
    DegreeSink,
    GenerationPlan,
    RankTask,
    RunConfig,
    ShardSink,
    Sink,
    StaticScheduler,
    WorkQueueScheduler,
    execute,
    plan_from_chain,
    plan_from_design,
)
from repro.engine.sinks import _BlockConsumerFactory
from repro.errors import GenerationError, PartitionError
from repro.graphs import star_adjacency
from repro.kron import KroneckerChain, kron, kron_tiles, tile_row_ranges
from repro.parallel import VirtualCluster, streamed_degree_distribution
from repro.runtime import (
    CrashInjector,
    FailureInjector,
    MetricsRegistry,
    RankEvents,
    SimulatedCrash,
)
from repro.semiring import MAX_PLUS, PLUS_TIMES
from repro.sparse import COOMatrix, from_dense


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


def _assert_tiles_equal_whole_kernel(bp, c, budget, semiring=PLUS_TIMES):
    """Concatenated ``kron_tiles`` triples == ``kron(bp, c)`` triples."""
    tiles = list(kron_tiles(bp, c, budget, semiring))
    ref = _triples(kron(bp, c, semiring))
    if not tiles:
        assert all(len(r) == 0 for r in ref)
        return
    for i, want in enumerate(ref):
        np.testing.assert_array_equal(
            np.concatenate([t[i] for t in tiles]), want
        )


def _tile_cases():
    """Inputs for the tiles/whole-block identity: two stars over a range
    of budgets, then signed random factors and empty factors under
    both semirings at budgets from one entry to unbounded."""
    star5, star4 = star_adjacency(5), star_adjacency(4)
    cases = [
        pytest.param(star5, star4, PLUS_TIMES, budget, id=str(budget))
        for budget in (None, 1, 3, 6, 7, 8, 24, 1000)
    ]
    rng = np.random.default_rng(1803)

    def signed():
        shape = rng.integers(2, 7, size=2)
        return from_dense(rng.integers(-3, 4, size=shape).astype(np.int64))

    pairs = [(f"random{i}", signed(), signed()) for i in range(3)]
    empty = COOMatrix((3, 3), [], [], [])
    pairs += [("empty-left", empty, star4), ("empty-right", star4, empty)]
    for name, bp, c in pairs:
        for semiring in (PLUS_TIMES, MAX_PLUS):
            for budget in (None, 1, 2, 5, 64):
                cases.append(
                    pytest.param(
                        bp, c, semiring, budget,
                        id=f"{name}-{semiring.name}-{budget}",
                    )
                )
    return cases


_DENSE = st.lists(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestKronTiles:
    B = star_adjacency(5)
    C = star_adjacency(4)

    @pytest.mark.parametrize("bp, c, semiring, budget", _tile_cases())
    def test_concatenated_tiles_equal_whole_kernel(self, bp, c, semiring, budget):
        _assert_tiles_equal_whole_kernel(bp, c, budget, semiring)

    @settings(max_examples=60, deadline=None)
    @given(
        a=_DENSE,
        b=_DENSE,
        semiring=st.sampled_from([PLUS_TIMES, MAX_PLUS]),
        budget=st.sampled_from([None, 1, 2, 5, 64]),
    )
    def test_hypothesis_tiles_equal_whole_kernel(self, a, b, semiring, budget):
        _assert_tiles_equal_whole_kernel(
            from_dense(np.asarray(a, dtype=np.int64)),
            from_dense(np.asarray(b, dtype=np.int64)),
            budget,
            semiring,
        )

    def test_tile_sizes_respect_budget_when_rows_fit(self):
        # star(5) row 0 has 5 entries -> worst row costs 5 * nnz(C) = 40.
        budget = 48
        for rows, _, _ in kron_tiles(self.B, self.C, budget):
            assert len(rows) <= budget

    def test_empty_factor_yields_nothing(self):
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


class TestRankLabels:
    """Events and reports name the rank, not the submission position."""

    DESIGN = PowerLawDesign([3, 4, 5], "center")

    def _run(self, plan, sink, **kwargs):
        retried = []
        events = RankEvents(on_retry=lambda rank, *_: retried.append(rank))
        result = execute(
            plan,
            sink,
            events=events,
            max_retries=1,
            failure_injector=FailureInjector([0], fail_attempts=1),
            **kwargs,
        )
        ranks = result.execution.to_dict()["ranks"]
        return retried, {r["rank"]: r["retries"] for r in ranks}

    def test_queue_scheduler_order(self):
        plan = plan_from_design(self.DESIGN, 4)
        order = WorkQueueScheduler().order(plan.tasks)
        assert [t.rank for t in order] == [1, 2, 3, 0]
        retried, retries = self._run(
            plan,
            AssemblySink(),
            config=RunConfig(backend="serial", scheduler=WorkQueueScheduler()),
        )
        assert retried == [0]
        assert retries == {0: 1, 1: 0, 2: 0, 3: 0}

    def test_resumed_run(self, tmp_path):
        plan = plan_from_design(self.DESIGN, 4)
        with pytest.raises(SimulatedCrash):
            execute(plan, ShardSink(tmp_path, crash_hook=CrashInjector(1)))
        # Rank 0 committed before the crash; rank 3 is the last of the
        # three resumed ranks and fails its first attempt.
        retried = []
        result = execute(
            plan,
            ShardSink(tmp_path, resume=True),
            events=RankEvents(on_retry=lambda rank, *_: retried.append(rank)),
            max_retries=1,
            failure_injector=FailureInjector([3], fail_attempts=1),
        )
        assert result.skipped_ranks == (0,)
        assert retried == [3]
        ranks = result.execution.to_dict()["ranks"]
        assert {r["rank"]: r["retries"] for r in ranks} == {1: 0, 2: 0, 3: 1}


class _ForgetfulSink(Sink):
    """Sees each committed payload and keeps only a weak reference."""

    def __init__(self) -> None:
        self.refs = []

    def consumer_factory(self, task):
        return _BlockConsumerFactory()

    def _commit(self, task, outcome):
        self.refs.append(weakref.ref(outcome.payload[0]))

    def _finalize(self, plan, *, elapsed_s, skipped):
        return None


def test_execute_retains_no_payload():
    sink = _ForgetfulSink()
    result = execute(
        plan_from_design(PowerLawDesign([3, 4, 5], "center"), 3),
        sink,
        config=RunConfig(backend="serial"),
    )
    gc.collect()
    assert len(result.stats) == len(sink.refs) == 3
    assert all(ref() is None for ref in sink.refs)
