"""Completion-driven execution: determinism, backpressure, and metrics.

The engine's contract is that the work-queue scheduler changes *when*
ranks execute but never *what* lands on disk: sink commits stay in
ascending rank order, so shard bytes, ``manifest.json``, and resume
state are byte-identical to the static path.
"""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.design import PowerLawDesign
from repro.engine import RunConfig, StaticScheduler, WorkQueueScheduler
from repro.parallel import (
    ParallelKroneckerGenerator,
    ThreadBackend,
    VirtualCluster,
    generate_to_disk,
    streamed_degree_distribution,
)
from repro.runtime import FailureInjector, MetricsRegistry


def _read_shards(summary):
    return {Path(p).name: Path(p).read_bytes() for p in summary.files}


def _read_manifest(directory):
    with open(directory / "manifest.json") as fh:
        return json.load(fh)


class TestRankOrderCommitDeterminism:
    """Satellite: out-of-order execution, in-order commit."""

    def test_queue_output_byte_identical_to_static(self, tmp_path):
        design = PowerLawDesign([3, 4, 5], "center")
        static_dir = tmp_path / "static"
        queue_dir = tmp_path / "queue"

        static = generate_to_disk(design, 6, static_dir)
        # Delay rank 0 by one injected transient failure so later ranks
        # finish first on the thread pool — commits must still land 0..5.
        queued = generate_to_disk(
            design,
            6,
            queue_dir,
            config=RunConfig(
                backend=ThreadBackend(max_workers=2),
                scheduler=WorkQueueScheduler(),
            ),
            failure_injector=FailureInjector([0], fail_attempts=1),
            max_retries=1,
        )

        assert [Path(p).name for p in static.files] == [
            Path(p).name for p in queued.files
        ]
        assert _read_shards(static) == _read_shards(queued)

        static_manifest = _read_manifest(static_dir)
        queue_manifest = _read_manifest(queue_dir)
        assert static_manifest == queue_manifest
        assert static.total_edges == queued.total_edges == design.num_edges

    def test_backpressure_budget_preserves_output(self, tmp_path):
        # A tiny reorder budget forces the buffer to throttle submission
        # toward the commit pointer; bytes must not change.
        design = PowerLawDesign([3, 4, 5], "center")
        loose = generate_to_disk(design, 8, tmp_path / "loose")
        tight = generate_to_disk(
            design,
            8,
            tmp_path / "tight",
            config=RunConfig(
                memory_budget_entries=63,
                backend=ThreadBackend(max_workers=4),
                scheduler=WorkQueueScheduler(),
            ),
        )
        assert _read_shards(loose) == _read_shards(tight)
        assert _read_manifest(tmp_path / "loose") == _read_manifest(
            tmp_path / "tight"
        )

    @pytest.mark.parametrize("max_in_flight", [1, 2, None])
    def test_static_window_byte_identical_to_queue(self, tmp_path, max_in_flight):
        design = PowerLawDesign([3, 4, 5], "center")
        runs = {}
        for label, scheduler in (
            ("static", StaticScheduler(max_in_flight=max_in_flight)),
            ("queue", WorkQueueScheduler()),
        ):
            backend = ThreadBackend(max_workers=4)
            try:
                runs[label] = generate_to_disk(
                    design,
                    6,
                    tmp_path / label,
                    config=RunConfig(backend=backend, scheduler=scheduler),
                    failure_injector=FailureInjector([0], fail_attempts=1),
                    max_retries=1,
                )
            finally:
                backend.shutdown()
        assert _read_shards(runs["static"]) == _read_shards(runs["queue"])
        assert _read_manifest(tmp_path / "static") == _read_manifest(
            tmp_path / "queue"
        )

    def test_serial_backend_on_queue_path(self, tmp_path):
        # LPT submission must also hold on the reference backend.
        design = PowerLawDesign([3, 4], "leaf")
        static = generate_to_disk(design, 3, tmp_path / "a")
        queued = generate_to_disk(
            design, 3, tmp_path / "b", config=RunConfig(scheduler=WorkQueueScheduler())
        )
        assert _read_shards(static) == _read_shards(queued)


class TestQueueSchedulerAcrossSinks:
    def test_assembly_sink_matches_materialization(self):
        from repro.graphs import star_adjacency
        from repro.kron import KroneckerChain

        chain = KroneckerChain(
            [star_adjacency(3), star_adjacency(4), star_adjacency(5)]
        )
        gen = ParallelKroneckerGenerator(
            chain,
            VirtualCluster(4),
            backend=ThreadBackend(max_workers=2),
            scheduler=WorkQueueScheduler(),
        )
        assert gen.assemble().equal(chain.materialize())

    def test_degree_sink_matches_design_prediction(self):
        design = PowerLawDesign([3, 4, 5], "center")
        dist = streamed_degree_distribution(
            design,
            6,
            config=RunConfig(
                backend=ThreadBackend(max_workers=2),
                scheduler=WorkQueueScheduler(),
            ),
        )
        assert dist == design.degree_distribution


class TestStreamingMetrics:
    def test_queue_metrics_populated(self, tmp_path):
        metrics = MetricsRegistry()
        generate_to_disk(
            PowerLawDesign([3, 4, 5], "center"),
            6,
            tmp_path,
            config=RunConfig(
                backend=ThreadBackend(max_workers=2),
                scheduler=WorkQueueScheduler(),
            ),
            metrics=metrics,
        )
        gauges = metrics.snapshot()["gauges"]
        assert gauges["engine.queue_depth"] >= 1
        assert 0.0 < gauges["engine.worker_utilization"] <= 1.0
        assert gauges["engine.straggler_gap_s"] >= 0.0

    def test_static_path_reports_depth_and_utilization(self, tmp_path):
        metrics = MetricsRegistry()
        generate_to_disk(
            PowerLawDesign([3, 4], "center"), 3, tmp_path, metrics=metrics
        )
        gauges = metrics.snapshot()["gauges"]
        # generate_to_disk's default window: one rank in flight.
        assert gauges["engine.queue_depth"] == 1
        assert 0.0 < gauges["engine.worker_utilization"] <= 1.0

    def test_peak_tile_gauge_resets_between_runs(self, tmp_path):
        """Satellite regression: the gauge reflects *this* run, not the max
        over the registry's lifetime."""
        metrics = MetricsRegistry()
        big = PowerLawDesign([3, 4, 5, 9], "center")
        generate_to_disk(big, 4, tmp_path / "big", metrics=metrics)
        first_peak = metrics.snapshot()["gauges"]["engine.peak_tile_entries"]

        small = PowerLawDesign([3, 2], "center")
        generate_to_disk(small, 2, tmp_path / "small", metrics=metrics)
        second_peak = metrics.snapshot()["gauges"]["engine.peak_tile_entries"]

        assert second_peak < first_peak


class TestInjectorMapping:
    def test_injector_follows_task_identity_not_position(self, tmp_path):
        # LPT reorders submission, so positional mapping would fire the
        # injector on the wrong rank; a fatal injection on rank 2 must
        # name rank 2 no matter where LPT placed it.
        from repro.errors import FatalRankError

        with pytest.raises(FatalRankError, match="rank 2"):
            generate_to_disk(
                PowerLawDesign([3, 4, 5], "center"),
                6,
                tmp_path,
                config=RunConfig(scheduler=WorkQueueScheduler()),
                failure_injector=FailureInjector([2], fatal=True),
            )


class _StartCommitLog:
    """Records worker starts (as the failure injector, inside the
    worker) and durable commits (as the shard sink's crash hook)."""

    def __init__(self, work_s: float) -> None:
        self.work_s = work_s
        self.events = []
        self._lock = threading.Lock()

    def __call__(self, rank, attempt):
        with self._lock:
            self.events.append(("start", rank))
        time.sleep(self.work_s)

    def commit(self, rank, completed):
        with self._lock:
            self.events.append(("commit", rank))


class TestStaticWindow:
    def _run(self, tmp_path, max_in_flight):
        log = _StartCommitLog(work_s=0.05)
        backend = ThreadBackend(max_workers=4)
        try:
            generate_to_disk(
                PowerLawDesign([3, 4, 5], "center"),
                6,
                tmp_path,
                config=RunConfig(
                    backend=backend,
                    scheduler=StaticScheduler(max_in_flight=max_in_flight),
                ),
                failure_injector=log,
                crash_hook=log.commit,
            )
        finally:
            backend.shutdown()
        return log.events

    def test_window_of_one_commits_each_rank_before_the_next_starts(
        self, tmp_path
    ):
        events = self._run(tmp_path, max_in_flight=1)
        expected = []
        for rank in range(6):
            expected += [("start", rank), ("commit", rank)]
        assert events == expected

    def test_backend_sized_window_overlaps_ranks(self, tmp_path):
        # The contrast that shows the log can see overlap: with the
        # window sized from four workers, rank 1 starts before rank 0
        # commits.  Commits still land in rank order.
        events = self._run(tmp_path, max_in_flight=None)
        assert events.index(("start", 1)) < events.index(("commit", 0))
        commits = [rank for kind, rank in events if kind == "commit"]
        assert commits == list(range(6))
