"""One lifecycle contract, asserted across every sink.

The engine promises sinks a strict lifecycle (open → consume →
ascending-rank commit → finalize | abort) and the base
:class:`~repro.engine.sinks.Sink` enforces the state machine for all of
them — so this suite drives **every** sink (in-memory, shard, degree,
and :class:`~repro.net.TransportSink` over both local transports)
through the same conformance cases:

* abort is idempotent (the streaming reorder buffer and ``execute``'s
  outer handler can both observe one failure — regression: ShardSink
  used to rewrite the failed manifest on the second call);
* commit/finalize after abort raise typed errors instead of silently
  swallowing work;
* finalize is idempotent and cached;
* abort before open is a no-op (regression: ShardSink used to
  AttributeError on its missing manifest);

and then asserts the *output* contract: shard bytes, ``manifest.json``,
degree histograms, and assembled triples are identical whether tiles
flow directly into a sink or across a transport, under both the static
and completion-driven schedulers.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.design import PowerLawDesign
from repro.engine import (
    AssemblySink,
    DegreeSink,
    RunConfig,
    ShardSink,
    StaticScheduler,
    WorkQueueScheduler,
    execute,
    plan_from_design,
)
from repro.engine.execute import _RankWork, _run_rank_task
from repro.errors import GenerationError
from repro.net import TileCollector, TransportSink, execute_over_transport, local_pair
from repro.runtime import MetricsRegistry
from repro.runtime.checkpoint import STATUS_FAILED, RunManifest
from tests.conftest import LoseWorkerBackend

DESIGN = PowerLawDesign([3, 4, 5], "center")


def make_plan(n_ranks=3):
    return plan_from_design(DESIGN, n_ranks, scramble_seed=5)


def run_rank(plan, sink, task):
    """Produce one rank's TaskOutcome exactly as the engine worker would."""
    return _run_rank_task(
        _RankWork(
            rank=task.rank,
            b_local=task.assignment.b_local,
            col_base=task.assignment.col_base,
            c=plan.c_matrix,
            loop_vertex=plan.loop_vertex,
            scramble=plan.scramble,
            max_tile_entries=plan.memory_budget_entries,
            consumer_factory=sink.consumer_factory(task),
        )
    )


def commit_all(plan, sink, skipped=()):
    for task in plan.tasks:
        if task.rank not in skipped:
            sink.commit(task, run_rank(plan, sink, task))


class Harness:
    """A sink plus whatever plumbing it needs to live (collector thread
    for the transport variants)."""

    def __init__(self, name, plan, tmp_path):
        self.name = name
        self.plan = plan
        self._thread = None
        if name == "assembly":
            self.sink = AssemblySink()
        elif name == "shards":
            self.sink = ShardSink(tmp_path / "shards")
        elif name == "degrees":
            self.sink = DegreeSink()
        else:
            transport_name = name.split("-", 1)[1]
            producer, collector_end = local_pair(transport_name)
            self.collector = TileCollector(
                plan, AssemblySink(), collector_end, recv_timeout_s=5.0
            )
            self._thread = self.collector.run_in_thread()
            self.sink = TransportSink(producer, recv_timeout_s=5.0)

    def close(self):
        if self._thread is not None:
            self.sink.transport.close()
            self._thread.join(timeout=10.0)
            assert not self._thread.is_alive()


SINKS = ["assembly", "shards", "degrees", "net-inproc", "net-socket"]


@pytest.fixture(params=SINKS)
def harness(request, tmp_path):
    h = Harness(request.param, make_plan(), tmp_path)
    yield h
    h.close()


class TestLifecycleContract:
    def test_full_lifecycle_finalizes_once(self, harness):
        sink, plan = harness.sink, harness.plan
        skipped = sink.open(plan)
        commit_all(plan, sink, skipped)
        result = sink.finalize(plan, elapsed_s=0.5, skipped=skipped)
        assert result is not None

    def test_finalize_is_idempotent_and_cached(self, harness):
        sink, plan = harness.sink, harness.plan
        skipped = sink.open(plan)
        commit_all(plan, sink, skipped)
        first = sink.finalize(plan, elapsed_s=0.5, skipped=skipped)
        second = sink.finalize(plan, elapsed_s=99.0, skipped=skipped)
        assert second is first

    def test_abort_is_idempotent(self, harness):
        sink, plan = harness.sink, harness.plan
        sink.open(plan)
        boom = RuntimeError("boom")
        sink.abort(boom)
        sink.abort(boom)  # second observer of the same failure: no-op

    def test_abort_before_open_is_a_noop(self, harness):
        # Regression: ShardSink.abort used to AttributeError when the
        # run died before open() built the manifest.
        harness.sink.abort(RuntimeError("early"))

    def test_commit_after_abort_refused(self, harness):
        sink, plan = harness.sink, harness.plan
        sink.open(plan)
        sink.abort(RuntimeError("boom"))
        task = plan.tasks[0]
        with pytest.raises(GenerationError, match="aborted"):
            sink.commit(task, object())

    def test_finalize_after_abort_refused(self, harness):
        sink, plan = harness.sink, harness.plan
        sink.open(plan)
        sink.abort(RuntimeError("boom"))
        with pytest.raises(GenerationError, match="aborted"):
            sink.finalize(plan, elapsed_s=0.0, skipped=())

    def test_commit_after_finalize_refused(self, harness):
        sink, plan = harness.sink, harness.plan
        skipped = sink.open(plan)
        commit_all(plan, sink, skipped)
        sink.finalize(plan, elapsed_s=0.1, skipped=skipped)
        with pytest.raises(GenerationError, match="finalized"):
            sink.commit(plan.tasks[0], object())

    def test_abort_after_finalize_is_a_noop(self, harness):
        sink, plan = harness.sink, harness.plan
        skipped = sink.open(plan)
        commit_all(plan, sink, skipped)
        result = sink.finalize(plan, elapsed_s=0.1, skipped=skipped)
        sink.abort(RuntimeError("late"))
        assert sink.finalize(plan, elapsed_s=0.1, skipped=skipped) is result


class TestShardSinkAbortRegression:
    def test_double_abort_writes_failed_manifest_once(self, tmp_path):
        plan = make_plan()
        metrics = MetricsRegistry()
        sink = ShardSink(tmp_path)
        sink.open(plan, metrics=metrics)
        writes_after_open = metrics.counter("checkpoint.manifest_writes").value
        sink.abort(RuntimeError("boom"))
        sink.abort(RuntimeError("boom again"))
        assert (
            metrics.counter("checkpoint.manifest_writes").value
            == writes_after_open + 1
        )
        assert RunManifest.load(tmp_path).status == STATUS_FAILED

    def test_second_finalize_does_not_rewrite_manifest(self, tmp_path):
        plan = make_plan()
        metrics = MetricsRegistry()
        sink = ShardSink(tmp_path)
        skipped = sink.open(plan, metrics=metrics)
        commit_all(plan, sink, skipped)
        sink.finalize(plan, elapsed_s=0.1, skipped=skipped)
        writes = metrics.counter("checkpoint.manifest_writes").value
        sink.finalize(plan, elapsed_s=0.1, skipped=skipped)
        assert metrics.counter("checkpoint.manifest_writes").value == writes


# -- output identity across sinks and transports -------------------------------
def manifest_identity_fields(directory):
    doc = json.loads((Path(directory) / "manifest.json").read_text())
    return {k: doc[k] for k in ("fingerprint", "shards", "status", "prefix")}


def shard_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.tsv"))
    }


SCHEDULERS = {
    "static": lambda: StaticScheduler(max_in_flight=1),
    "queue": lambda: WorkQueueScheduler(),
}


class TestByteIdentityAcrossTransports:
    @pytest.fixture()
    def baseline(self, tmp_path):
        plan = make_plan(4)
        directory = tmp_path / "baseline"
        execute(
            plan,
            ShardSink(directory),
            config=RunConfig(scheduler=SCHEDULERS["static"]()),
        )
        return plan, directory

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
    def test_shard_output_byte_identical(
        self, baseline, tmp_path, transport, scheduler_name
    ):
        plan, base_dir = baseline
        out = tmp_path / f"net-{transport}-{scheduler_name}"
        result = execute_over_transport(
            plan,
            ShardSink(out),
            transport=transport,
            config=RunConfig(scheduler=SCHEDULERS[scheduler_name]()),
        )
        assert shard_bytes(out) == shard_bytes(base_dir)
        assert manifest_identity_fields(out) == manifest_identity_fields(base_dir)
        assert result.sink_result.total_edges == DESIGN.num_edges

    def test_assembled_triples_identical(self):
        plan = make_plan(4)
        local = execute(plan, AssemblySink()).sink_result
        remote = execute_over_transport(
            plan, AssemblySink(), transport="inproc"
        ).sink_result
        assert sorted(local.blocks) == sorted(remote.blocks)
        for rank in local.blocks:
            for a, b in zip(local.blocks[rank], remote.blocks[rank]):
                np.testing.assert_array_equal(a, b)

    def test_degree_histogram_identical(self):
        plan = make_plan(4)
        local = execute(plan, DegreeSink()).sink_result.distribution()
        remote = (
            execute_over_transport(plan, DegreeSink(), transport="inproc")
            .sink_result.distribution()
        )
        assert local == remote == DESIGN.degree_distribution

    def test_resume_over_transport_skips_and_matches(self, tmp_path):
        from repro.parallel import generate_to_disk
        from repro.runtime.checkpoint import CrashInjector, SimulatedCrash

        clean = tmp_path / "clean"
        generate_to_disk(DESIGN, 4, clean)
        crashed = tmp_path / "crashed"
        with pytest.raises(SimulatedCrash):
            generate_to_disk(DESIGN, 4, crashed, crash_hook=CrashInjector(2))
        # Resume the dead run, collecting over a transport: the SKIP
        # handshake must carry the completed ranks across the wire.
        summary = generate_to_disk(
            DESIGN, 4, crashed, config=RunConfig(resume=True, transport="inproc")
        )
        assert summary.skipped_ranks == 2
        assert shard_bytes(crashed) == shard_bytes(clean)
        assert manifest_identity_fields(crashed) == manifest_identity_fields(clean)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_generate_to_disk_transport_matches_direct(self, tmp_path, transport):
        direct = tmp_path / "direct"
        routed = tmp_path / "routed"
        from repro.parallel import generate_to_disk

        s1 = generate_to_disk(DESIGN, 3, direct, config=RunConfig(scramble_seed=9))
        s2 = generate_to_disk(
            DESIGN, 3, routed, config=RunConfig(scramble_seed=9, transport=transport)
        )
        assert shard_bytes(direct) == shard_bytes(routed)
        assert manifest_identity_fields(direct) == manifest_identity_fields(routed)
        assert s1.total_edges == s2.total_edges == DESIGN.num_edges


class TestByteIdentityUnderChurn:
    """A lost worker, across transports: a run that loses one rank's
    worker before the rank runs and another's after it ran (its result
    discarded) must collect the exact bytes of a run that lost none."""

    @staticmethod
    def _lossy_backend():
        return LoseWorkerBackend(before=(1,), after=(4,))

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
    def test_collected_output_identical_under_churn(
        self, baseline_static, tmp_path, transport, scheduler_name
    ):
        plan, base_dir = baseline_static
        backend = self._lossy_backend()
        metrics = MetricsRegistry()
        out = tmp_path / f"churn-{transport}-{scheduler_name}"
        try:
            result = execute_over_transport(
                plan,
                ShardSink(out),
                transport=transport,
                config=RunConfig(
                    backend=backend, scheduler=SCHEDULERS[scheduler_name]()
                ),
                metrics=metrics,
            )
        finally:
            backend.shutdown()
        assert sorted(backend.lost) == [1, 4]
        assert metrics.snapshot()["counters"]["engine.reassigned_tasks"] == 2
        assert shard_bytes(out) == shard_bytes(base_dir)
        assert manifest_identity_fields(out) == manifest_identity_fields(base_dir)
        assert result.sink_result.total_edges == DESIGN.num_edges

    @pytest.fixture()
    def baseline_static(self, tmp_path):
        plan = make_plan(6)
        directory = tmp_path / "baseline"
        execute(
            plan,
            ShardSink(directory),
            config=RunConfig(scheduler=SCHEDULERS["static"]()),
        )
        return plan, directory

    def test_direct_shard_output_identical_under_churn(
        self, baseline_static, tmp_path
    ):
        plan, base_dir = baseline_static
        backend = self._lossy_backend()
        out = tmp_path / "churn-direct"
        try:
            result = execute(
                plan,
                ShardSink(out),
                config=RunConfig(backend=backend, scheduler=WorkQueueScheduler()),
            )
        finally:
            backend.shutdown()
        assert sorted(backend.lost) == [1, 4]
        # A lost worker is not a failed attempt.
        assert result.execution.total_retries == 0
        assert shard_bytes(out) == shard_bytes(base_dir)
        assert manifest_identity_fields(out) == manifest_identity_fields(base_dir)

    def test_resume_after_churned_crash_matches_clean(self, tmp_path):
        from repro.parallel import generate_to_disk
        from repro.runtime.checkpoint import CrashInjector, SimulatedCrash

        clean = tmp_path / "clean"
        generate_to_disk(DESIGN, 4, clean)
        churned = tmp_path / "churned"
        backend = LoseWorkerBackend(before=(0,), after=(1,))
        try:
            with pytest.raises(SimulatedCrash):
                generate_to_disk(
                    DESIGN,
                    4,
                    churned,
                    config=RunConfig(backend=backend),
                    crash_hook=CrashInjector(2),
                )
        finally:
            backend.shutdown()
        assert backend.lost == [0, 1]
        # Resume the interrupted run on a backend that loses nothing: the
        # manifest left behind must be a valid checkpoint.
        summary = generate_to_disk(
            DESIGN, 4, churned, config=RunConfig(resume=True)
        )
        assert summary.skipped_ranks == 2
        assert shard_bytes(churned) == shard_bytes(clean)
        assert manifest_identity_fields(churned) == manifest_identity_fields(clean)


class TestDegeneratePlans:
    """Degenerate plan shapes across the model axis: zero ranks, all-
    empty ranks, and a one-entry tile budget must flow through both
    schedulers and every sink path without special-casing — empty shards
    are still checksummed, manifests still complete, bytes still match.
    """

    SKG_CASES = {
        "empty": dict(levels=4, num_edges=0, seed=0),
        "sparse": dict(levels=5, num_edges=11, seed=3),
    }

    def _skg(self, case):
        from repro.models import StochasticKroneckerModel

        return StochasticKroneckerModel(**self.SKG_CASES[case])

    def test_zero_rank_model_plan_refused(self):
        from repro.engine import plan_from_model

        with pytest.raises(GenerationError, match="at least one rank"):
            plan_from_model(self._skg("sparse"), 0)

    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
    def test_all_empty_rank_model_plan_writes_complete_shards(
        self, tmp_path, scheduler_name
    ):
        from repro.engine import plan_from_model
        from repro.parallel import verify_shards

        plan = plan_from_model(self._skg("empty"), 3, allow_empty_ranks=True)
        out = tmp_path / scheduler_name
        result = execute(
            plan,
            ShardSink(out),
            config=RunConfig(scheduler=SCHEDULERS[scheduler_name]()),
        )
        assert result.sink_result.total_edges == 0
        assert sorted(p.name for p in Path(out).iterdir()) == [
            "edges.0.tsv",
            "edges.1.tsv",
            "edges.2.tsv",
            "manifest.json",
        ]
        assert verify_shards(out, check_degrees=False).passed

    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
    def test_kron_empty_ranks_byte_identical_across_schedulers(
        self, tmp_path, scheduler_name
    ):
        # More ranks than B rows: ranks 0, 3, 6 get nothing to do.
        design = PowerLawDesign([3, 4], "none")
        plan = plan_from_design(design, 9, allow_empty_ranks=True)
        base_dir = tmp_path / "base"
        execute(plan, ShardSink(base_dir))
        out = tmp_path / scheduler_name
        result = execute(
            plan,
            ShardSink(out),
            config=RunConfig(scheduler=SCHEDULERS[scheduler_name]()),
        )
        assert result.sink_result.total_edges == design.num_edges
        assert shard_bytes(out) == shard_bytes(base_dir)
        assert manifest_identity_fields(out) == manifest_identity_fields(base_dir)

    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("axis", ["kron", "skg"])
    def test_single_entry_tile_budget_byte_identical(
        self, tmp_path, scheduler_name, axis
    ):
        from repro.engine import plan_from_model

        if axis == "kron":
            # 63 entries is this design's partition floor (nnz(B) after
            # the only feasible split); every rank still tiles, since
            # the largest whole-rank block is 231 entries.
            whole = make_plan(3)
            tiny = plan_from_design(
                DESIGN, 3, memory_budget_entries=63, scramble_seed=5
            )
        else:
            model = self._skg("sparse")
            whole = plan_from_model(model, 3)
            tiny = plan_from_model(model, 3, memory_budget_entries=1)
        base_dir = tmp_path / "base"
        execute(whole, ShardSink(base_dir))
        out = tmp_path / f"{axis}-{scheduler_name}"
        execute(
            tiny,
            ShardSink(out),
            config=RunConfig(scheduler=SCHEDULERS[scheduler_name]()),
        )
        assert shard_bytes(out) == shard_bytes(base_dir)
