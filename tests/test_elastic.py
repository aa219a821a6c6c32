"""Elastic execution: pools that grow, shrink, and die mid-run.

Covers the four tentpole surfaces of :mod:`repro.runtime.elastic`:

* membership events — ``add_workers`` / ``remove_workers`` (graceful
  drain) / ``revoke_workers`` (loud and silent spot-style kills);
* the lease/heartbeat layer — a vanished worker is detected via lease
  expiry and its task reassigned with the original identity, preserving
  injector schedules and retry budgets;
* the :class:`WorkerRevoker` chaos adversary with deterministic
  event-count schedules (hypothesis generates the churn);
* the autoscaler hook (``scale_policy``) through ``engine.execute``.

The hard invariant asserted throughout: any churn schedule produces
byte-identical shard/manifest output to an uninterrupted static run.
"""

import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import PowerLawDesign
from repro.engine import (
    RunConfig,
    ShardSink,
    StaticScheduler,
    WorkQueueScheduler,
    execute,
    plan_from_design,
)
from repro.errors import (
    FatalRankError,
    GenerationError,
    RetryExhaustedError,
    WorkerLostError,
)
from repro.parallel.backends import (
    MultiprocessingBackend,
    SerialBackend,
    ThreadBackend,
    backend_worker_count,
    get_backend,
    make_backend,
)
from repro.runtime import (
    ChurnAction,
    ElasticWorkerPool,
    FailureInjector,
    MetricsRegistry,
    PoolStats,
    RankExecutor,
    WorkerRevoker,
)
from repro.typing import ElasticBackend, StreamingBackend

DESIGN = PowerLawDesign([3, 4, 5], "center")


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self, start=0.0, step=0.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value

    def advance(self, dt):
        self.now += dt


def make_pool(**kw):
    kw.setdefault("inner", ThreadBackend(max_workers=8))
    kw.setdefault("workers", 2)
    kw.setdefault("lease_timeout_s", 0.05)
    return ElasticWorkerPool(**kw)


# -- membership ---------------------------------------------------------------
class TestMembership:
    def test_satisfies_protocols(self):
        pool = make_pool()
        try:
            assert isinstance(pool, StreamingBackend)
            assert isinstance(pool, ElasticBackend)
            assert not isinstance(SerialBackend(), ElasticBackend)
        finally:
            pool.shutdown()

    def test_add_and_count(self):
        pool = make_pool(workers=2)
        try:
            assert pool.worker_count() == 2
            ids = pool.add_workers(3)
            assert len(ids) == 3
            assert pool.worker_count() == 5
            assert backend_worker_count(pool) == 5
        finally:
            pool.shutdown()

    def test_remove_idle_retires_immediately(self):
        pool = make_pool(workers=3)
        try:
            pool.remove_workers(2)
            assert pool.worker_count() == 1
            assert pool.stats().draining == 0
        finally:
            pool.shutdown()

    def test_remove_busy_drains_then_retires(self):
        release = threading.Event()
        pool = make_pool(workers=1)
        try:
            handle = pool.submit(lambda _: release.wait(5.0), None)
            # The only member is busy: removal must drain, not kill.
            pool.remove_workers(1)
            stats = pool.stats()
            assert stats.workers == 0 and stats.draining == 1
            release.set()
            assert handle.result() is True  # the in-flight task finished
            deadline = time.monotonic() + 5.0
            while pool.stats().draining and time.monotonic() < deadline:
                time.sleep(0.005)
            stats = pool.stats()
            assert stats.draining == 0 and stats.workers == 0
        finally:
            release.set()
            pool.shutdown()

    def test_remove_more_than_eligible_rejected(self):
        pool = make_pool(workers=2)
        try:
            with pytest.raises(GenerationError, match="only 2 eligible"):
                pool.remove_workers(3)
        finally:
            pool.shutdown()

    def test_shutdown_fails_queued_and_closes(self):
        pool = make_pool(workers=0)
        handle = pool.submit(lambda x: x, 1)
        pool.shutdown()
        with pytest.raises(GenerationError, match="shut down"):
            handle.result()
        with pytest.raises(GenerationError, match="shut down"):
            pool.submit(lambda x: x, 2)

    def test_default_inner_is_thread_backend(self):
        pool = ElasticWorkerPool(workers=2)
        try:
            assert pool._inner.name == "thread"
            assert pool.zero_copy_tiles is False
        finally:
            pool.shutdown()

    def test_zero_copy_mirrors_inner(self):
        inner = MultiprocessingBackend(processes=1)
        pool = ElasticWorkerPool(inner, workers=1)
        try:
            assert pool.zero_copy_tiles is True
        finally:
            pool.shutdown()

    def test_registered_backend_name(self):
        pool = get_backend("elastic")
        try:
            assert pool.name == "elastic"
            assert pool.worker_count() >= 1
        finally:
            pool.shutdown()

    def test_make_backend_sizes_pool(self):
        pool = make_backend("elastic", 3)
        try:
            assert pool.worker_count() == 3
        finally:
            pool.shutdown()
        assert make_backend("thread", 2).max_workers == 2
        with pytest.raises(GenerationError, match="single-worker"):
            make_backend("serial", 4)


# -- revocation + leases ------------------------------------------------------
class TestRevocationAndLeases:
    def test_loud_revoke_resolves_worker_lost(self):
        release = threading.Event()
        pool = make_pool(workers=1)
        try:
            handle = pool.submit(lambda _: release.wait(5.0), None)
            pool.revoke_workers(1)
            with pytest.raises(WorkerLostError, match="revoked"):
                handle.result()
            assert pool.worker_count() == 0
        finally:
            release.set()
            pool.shutdown()

    def test_silent_revoke_detected_by_lease_expiry(self):
        clock = FakeClock()
        release = threading.Event()
        pool = make_pool(workers=1, lease_timeout_s=10.0, clock=clock)
        try:
            handle = pool.submit(lambda _: release.wait(5.0), None)
            pool.revoke_workers(1, silent=True)
            # Before the deadline the lease is honoured: no detection.
            assert pool.check_leases() == ()
            assert not handle.done()
            clock.advance(10.0)
            expired = pool.check_leases()
            assert len(expired) == 1
            with pytest.raises(WorkerLostError, match="missed heartbeats"):
                handle.result()
        finally:
            release.set()
            pool.shutdown()

    def test_alive_members_renew_leases(self):
        clock = FakeClock()
        release = threading.Event()
        pool = make_pool(workers=1, lease_timeout_s=10.0, clock=clock)
        try:
            handle = pool.submit(lambda _: release.wait(5.0), None)
            clock.advance(9.0)
            assert pool.check_leases() == ()  # renews: member is alive
            clock.advance(9.0)
            # Without renewal this would be past the original deadline.
            assert pool.check_leases() == ()
            assert not handle.done()
            release.set()
            assert handle.result() is True
        finally:
            release.set()
            pool.shutdown()

    def test_ghost_result_discarded_after_loud_revoke(self):
        release = threading.Event()
        pool = make_pool(workers=1)
        try:
            handle = pool.submit(lambda _: release.wait(5.0) and 42, None)
            pool.revoke_workers(1)
            with pytest.raises(WorkerLostError):
                handle.result()
            # Let the ghost finish; its result must not resurrect the
            # already-failed handle.
            release.set()
            time.sleep(0.05)
            with pytest.raises(WorkerLostError):
                handle.result()
        finally:
            release.set()
            pool.shutdown()

    def test_revoke_prefers_busy_members(self):
        release = threading.Event()
        pool = make_pool(workers=2)
        try:
            handle = pool.submit(lambda _: release.wait(5.0), None)
            revoked = pool.revoke_workers(1)
            # The busy member (id 0, lowest) is the one killed.
            assert revoked == (0,)
            with pytest.raises(WorkerLostError):
                handle.result()
            assert pool.worker_count() == 1
        finally:
            release.set()
            pool.shutdown()

    def test_stall_fails_queued_tasks_fatally(self):
        clock = FakeClock(step=2.0)  # every look at the clock jumps 2s
        pool = ElasticWorkerPool(
            ThreadBackend(max_workers=2),
            workers=0,
            stall_timeout_s=1.0,
            clock=clock,
        )
        try:
            handle = pool.submit(lambda x: x, 1)
            with pytest.raises(FatalRankError, match="stalled"):
                next(iter(pool.as_completed([handle])))
                handle.result()
        finally:
            pool.shutdown()

    def test_map_survives_churn(self):
        pool = make_pool(workers=2)
        rev = WorkerRevoker(
            [
                ChurnAction(trigger="dispatch", at=3, op="revoke"),
                ChurnAction(trigger="complete", at=2, op="add", workers=1),
            ]
        ).attach(pool)
        try:
            assert pool.map(lambda x: x * x, range(12)) == [
                x * x for x in range(12)
            ]
            assert [a.op for a, _ in rev.fired] == ["revoke", "add"]
        finally:
            pool.shutdown()

    def test_metrics_bound_to_pool(self):
        metrics = MetricsRegistry()
        pool = make_pool(workers=2, metrics=metrics)
        try:
            snap = metrics.snapshot()
            assert snap["gauges"]["engine.workers_active"] == 2
            assert snap["counters"]["engine.revocations"] == 0
            assert snap["counters"]["engine.lease_expiries"] == 0
            pool.add_workers(1)
            pool.revoke_workers(2)
            snap = metrics.snapshot()
            assert snap["gauges"]["engine.workers_active"] == 1
            assert snap["counters"]["engine.revocations"] == 2
        finally:
            pool.shutdown()


# -- autoscaler ---------------------------------------------------------------
class TestScalePolicy:
    def test_policy_grows_to_target(self):
        pool = make_pool(workers=1)
        try:
            pool.set_scale_policy(lambda stats: 4)
            pool.submit(lambda x: x, 1).result()
            assert pool.worker_count() == 4
        finally:
            pool.shutdown()

    def test_policy_shrinks_to_target(self):
        pool = make_pool(workers=5)
        try:
            pool.set_scale_policy(lambda stats: 2)
            pool.submit(lambda x: x, 1).result()
            deadline = time.monotonic() + 5.0
            while pool.stats().draining and time.monotonic() < deadline:
                time.sleep(0.005)
            assert pool.worker_count() == 2
        finally:
            pool.shutdown()

    def test_policy_none_means_no_change(self):
        pool = make_pool(workers=3)
        try:
            pool.set_scale_policy(lambda stats: None)
            pool.submit(lambda x: x, 1).result()
            assert pool.worker_count() == 3
        finally:
            pool.shutdown()

    def test_policy_rescues_empty_pool(self):
        pool = ElasticWorkerPool(
            ThreadBackend(max_workers=4),
            workers=0,
            scale_policy=lambda stats: min(2, stats.queued + stats.in_flight),
        )
        try:
            assert pool.map(lambda x: -x, range(6)) == [-x for x in range(6)]
            # Once the queue drains the same policy scales back to zero.
            assert pool.stats().completed == 6
        finally:
            pool.shutdown()

    def test_stats_utilization(self):
        stats = PoolStats(
            workers=4,
            draining=0,
            queued=3,
            in_flight=2,
            submitted=5,
            completed=0,
            revoked=0,
        )
        assert stats.utilization == pytest.approx(0.5)
        empty = PoolStats(0, 0, 1, 0, 1, 0, 0)
        assert empty.utilization == 0.0

    def test_scale_policy_requires_elastic_backend(self):
        plan = plan_from_design(DESIGN, 2)
        from repro.engine import AssemblySink

        with pytest.raises(GenerationError, match="scale_policy requires"):
            execute(
                plan,
                AssemblySink(),
                config=RunConfig(backend="serial"),
                scale_policy=lambda stats: 2,
            )


# -- churn adversary ----------------------------------------------------------
class TestWorkerRevoker:
    def test_actions_validate(self):
        with pytest.raises(GenerationError, match="unknown trigger"):
            ChurnAction(trigger="teatime", at=1, op="revoke")
        with pytest.raises(GenerationError, match="unknown op"):
            ChurnAction(trigger="submit", at=1, op="explode")
        with pytest.raises(GenerationError, match="at must be"):
            ChurnAction(trigger="submit", at=0, op="revoke")
        with pytest.raises(GenerationError, match="workers must be"):
            ChurnAction(trigger="submit", at=1, op="add", workers=0)

    def test_fires_each_action_once(self):
        pool = make_pool(workers=2)
        action = ChurnAction(trigger="submit", at=2, op="add", workers=1)
        rev = WorkerRevoker([action]).attach(pool)
        try:
            pool.map(lambda x: x, range(6))
            assert rev.fired == [(action, (2,))]
            assert pool.worker_count() == 3
        finally:
            pool.shutdown()

    def test_revoke_clamped_to_pool_size(self):
        pool = make_pool(workers=1)
        rev = WorkerRevoker(
            [ChurnAction(trigger="submit", at=1, op="revoke", workers=5)]
        ).attach(pool)
        # The adversary must clamp to the 1 alive member instead of
        # crashing; the scale policy then regrows capacity so the
        # queued work still finishes.
        pool.set_scale_policy(lambda stats: 1 if stats.queued else None)
        try:
            assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]
            (fired,) = rev.fired
            assert len(fired[1]) == 1
        finally:
            pool.shutdown()


# -- executor reassignment ---------------------------------------------------
class _LoseFirstHandle:
    def __init__(self, error):
        self._error = error

    def result(self):
        raise self._error


class LoseFirstBackend:
    """Streaming backend that loses chosen ranks' first submission with
    WorkerLostError, then delegates to serial (a task's rank is its
    index unless ``run_iter`` is given ranks)."""

    name = "lose-first"

    def __init__(self, lose_indices, forever=False):
        self.lose = set(lose_indices)
        self.forever = forever
        self.inner = SerialBackend()
        self.lost_submissions = 0

    def submit(self, fn, task):
        if task.rank in self.lose:
            if not self.forever:
                self.lose.discard(task.rank)
            self.lost_submissions += 1
            return _LoseFirstHandle(
                WorkerLostError(f"synthetic loss of rank {task.rank}")
            )
        return self.inner.submit(fn, task)

    def as_completed(self, handles):
        return iter(handles)

    def map(self, fn, items):
        return [self.submit(fn, item).result() for item in items]


class TestExecutorReassignment:
    def test_reassigned_task_keeps_identity_and_attempt(self):
        backend = LoseFirstBackend({1})
        metrics = MetricsRegistry()
        executor = RankExecutor(backend, metrics=metrics)
        done = list(executor.run_iter(lambda t: t * 10, [5, 6, 7]))
        values = {c.index: c.value for c in done}
        assert values == {0: 50, 1: 60, 2: 70}
        # The lost submission added no attempt record: reassignment is
        # not a retry.
        report = next(c.report for c in done if c.index == 1)
        assert [a.attempt for a in report.attempts] == [0]
        assert (
            metrics.snapshot()["counters"]["engine.reassigned_tasks"] == 1
        )

    def test_reassignment_does_not_consume_retry_budget(self):
        # Task 0 both loses its worker AND fails its (reassigned) first
        # attempt; with max_retries=1 it must still succeed — worker
        # loss and task failure draw on separate budgets.
        backend = LoseFirstBackend({0})
        injector = FailureInjector([0], fail_attempts=1)

        def fn(task):
            return task

        executor = RankExecutor(backend, max_retries=1, sleep=lambda _: None)
        done = list(
            executor.run_iter(fn, ["a", "b"], injector=lambda i, a: injector(i, a))
        )
        report = next(c.report for c in done if c.index == 0)
        # attempt 0 (post-reassignment) failed via the injector, attempt
        # 1 succeeded: the injector saw the original attempt number.
        assert [a.ok for a in report.attempts] == [False, True]

    def test_reassignment_budget_exhausts(self):
        backend = LoseFirstBackend({0}, forever=True)
        executor = RankExecutor(backend, max_reassignments=3)
        with pytest.raises(RetryExhaustedError, match="reassignment budget 3"):
            list(executor.run_iter(lambda t: t, [1]))
        assert backend.lost_submissions == 4  # initial + 3 reassignments

    def test_max_in_flight_accepts_callable(self):
        calls = []

        def limit():
            calls.append(1)
            return 2

        executor = RankExecutor(ThreadBackend(max_workers=2))
        done = list(
            executor.run_iter(lambda t: t, list(range(5)), max_in_flight=limit)
        )
        assert len(done) == 5
        assert calls  # the limit was actually consulted

    def test_rank_mapped_injector_identity_across_reassignment(self):
        # Items carry ranks (7, 3): the injector is called with the rank,
        # also when rank 7's lost submission is re-dispatched.
        seen = []
        executor = RankExecutor(LoseFirstBackend({7}))
        done = list(
            executor.run_iter(
                lambda t: t,
                ["a", "b"],
                ranks=[7, 3],
                injector=lambda rank, attempt: seen.append((rank, attempt)),
            )
        )
        assert seen == [(3, 0), (7, 0)]
        assert {c.index: c.report.rank for c in done} == {0: 7, 1: 3}


# -- engine integration -------------------------------------------------------
def _static_reference(tmp, n_ranks=8):
    ref = Path(tmp) / "reference"
    plan = plan_from_design(DESIGN, n_ranks, memory_budget_entries=63)
    execute(plan, ShardSink(ref), config=RunConfig(backend="serial"))
    return ref


def _read_dir(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(directory).iterdir())
        if p.suffix == ".tsv" or p.name == "manifest.json"
    }


class TestEngineElastic:
    def test_churned_run_byte_identical_and_metered(self, tmp_path):
        ref = _static_reference(tmp_path)
        plan = plan_from_design(DESIGN, 8, memory_budget_entries=63)
        metrics = MetricsRegistry()
        pool = make_pool(workers=3)
        WorkerRevoker(
            [
                ChurnAction(trigger="dispatch", at=2, op="revoke"),
                ChurnAction(trigger="complete", at=1, op="add"),
            ]
        ).attach(pool)
        out = tmp_path / "churned"
        try:
            execute(
                plan,
                ShardSink(out),
                config=RunConfig(backend=pool, scheduler=WorkQueueScheduler()),
                metrics=metrics,
            )
            snap = metrics.snapshot()  # before shutdown zeroes the gauge
        finally:
            pool.shutdown()
        assert _read_dir(out) == _read_dir(ref)
        assert snap["counters"]["engine.revocations"] == 1
        assert snap["counters"]["engine.reassigned_tasks"] >= 1
        assert "engine.lease_expiries" in snap["counters"]
        assert snap["gauges"]["engine.workers_active"] == 3  # 3 - 1 + 1

    def test_autoscaled_run_byte_identical(self, tmp_path):
        ref = _static_reference(tmp_path)
        plan = plan_from_design(DESIGN, 8, memory_budget_entries=63)
        pool = ElasticWorkerPool(ThreadBackend(max_workers=8), workers=1)
        out = tmp_path / "scaled"
        grew = []
        try:
            execute(
                plan,
                ShardSink(out),
                config=RunConfig(backend=pool, scheduler=WorkQueueScheduler()),
                scale_policy=lambda stats: grew.append(stats)
                or min(4, stats.queued + stats.in_flight),
            )
        finally:
            pool.shutdown()
        assert _read_dir(out) == _read_dir(ref)
        assert grew  # the policy was consulted
        assert pool.stats().submitted == 8

    def test_failure_injection_addresses_ranks_across_churn(self, tmp_path):
        # The rank-labelled injector at engine level: rank 5
        # fails its first attempt AND the pool churns; the injected
        # schedule must follow the rank (task identity), and output must
        # still match the static run.
        ref = _static_reference(tmp_path)
        plan = plan_from_design(DESIGN, 8, memory_budget_entries=63)
        pool = make_pool(workers=2)
        WorkerRevoker(
            [ChurnAction(trigger="dispatch", at=1, op="revoke")]
        ).attach(pool)
        out = tmp_path / "churn-inject"
        try:
            execute(
                plan,
                ShardSink(out),
                config=RunConfig(backend=pool, scheduler=WorkQueueScheduler()),
                max_retries=1,
                failure_injector=FailureInjector([5], fail_attempts=1),
            )
        finally:
            pool.shutdown()
        assert _read_dir(out) == _read_dir(ref)


# -- hypothesis churn schedules ----------------------------------------------
churn_actions = st.lists(
    st.builds(
        ChurnAction,
        trigger=st.sampled_from(["submit", "dispatch", "complete"]),
        at=st.integers(min_value=1, max_value=10),
        op=st.sampled_from(["revoke", "add", "remove"]),
        workers=st.integers(min_value=1, max_value=2),
        silent=st.booleans(),
    ),
    max_size=4,
)


class TestChurnScheduleProperty:
    @classmethod
    def reference(cls):
        if not hasattr(cls, "_ref"):
            with tempfile.TemporaryDirectory() as tmp:
                cls._ref = _read_dir(_static_reference(tmp, n_ranks=6))
        return cls._ref

    @settings(max_examples=12, deadline=None)
    @given(actions=churn_actions, scheduler_name=st.sampled_from(["static", "queue"]))
    def test_any_schedule_is_byte_identical(self, actions, scheduler_name):
        reference = self.reference()
        plan = plan_from_design(DESIGN, 6, memory_budget_entries=63)
        scheduler = (
            WorkQueueScheduler()
            if scheduler_name == "queue"
            else StaticScheduler(max_in_flight=1)
        )
        pool = make_pool(workers=2)
        # A schedule that revokes/removes everything with no replacement
        # must not stall the suite: guarantee eventual capacity.
        pool.set_scale_policy(
            lambda stats: 1 if stats.workers == 0 and stats.queued else None
        )
        WorkerRevoker(actions).attach(pool)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            try:
                execute(
                    plan,
                    ShardSink(out),
                    config=RunConfig(backend=pool, scheduler=scheduler),
                )
            finally:
                pool.shutdown()
            assert _read_dir(out) == reference


# -- broken process pools (satellite: MultiprocessingBackend teardown) --------
def _exit_hard(_):
    os._exit(13)


@dataclass(frozen=True)
class _KillProcessOnce:
    """Kill the worker process on the first call; no-op once the flag
    file exists (so the reassigned task completes).  Module-level and
    frozen for pickling into the pool."""

    flag_dir: str

    def __call__(self, task):
        flag = Path(self.flag_dir) / "killed"
        if not flag.exists():
            flag.write_text("x")
            os._exit(17)
        return task * 2


class TestBrokenPoolRecovery:
    def test_submit_rebuilds_after_worker_death(self):
        from concurrent.futures.process import BrokenProcessPool

        backend = MultiprocessingBackend(processes=1)
        try:
            with pytest.raises(BrokenProcessPool):
                backend.submit(_exit_hard, None).result()
            # The old contract left the executor broken forever; now the
            # next submit gets a fresh pool.
            assert backend.submit(len, "abcd").result() == 4
        finally:
            backend.shutdown()

    def test_run_iter_reassigns_across_pool_rebuild(self, tmp_path):
        backend = MultiprocessingBackend(processes=1)
        metrics = MetricsRegistry()
        executor = RankExecutor(backend, metrics=metrics)
        try:
            done = list(
                executor.run_iter(
                    _KillProcessOnce(str(tmp_path)), [3, 4], max_in_flight=1
                )
            )
        finally:
            backend.shutdown()
        assert {c.index: c.value for c in done} == {0: 6, 1: 8}
        assert metrics.snapshot()["counters"]["engine.reassigned_tasks"] >= 1
