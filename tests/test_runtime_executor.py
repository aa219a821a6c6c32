"""Unit tests for :class:`repro.runtime.RankExecutor`.

Every case drives the one execution surface, ``run_iter``.  All timing
uses a deterministic fake clock; no test sleeps for real (except the
thread-overlap case, with tiny real sleeps, and the cases that kill a
real pool process).
"""

import os
import random
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import (
    FatalRankError,
    RetryExhaustedError,
    TransientRankError,
)
from repro.parallel import MultiprocessingBackend, SerialBackend
from repro.runtime import (
    FailureInjector,
    MetricsRegistry,
    RankEvents,
    RankExecutor,
)
from repro.runtime.executor import ExecutionResult
from repro.runtime.tracing import ListSink, Tracer


class FakeClock:
    """Manually advanced clock shared by the executor and the work fn."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_executor(clock=None, sleeps=None, **kwargs):
    clock = clock or FakeClock()
    sleeps = sleeps if sleeps is not None else []
    kwargs.setdefault("jitter", 0.0)
    executor = RankExecutor(
        SerialBackend(),
        clock=clock,
        sleep=sleeps.append,
        rng=random.Random(0),
        **kwargs,
    )
    return executor, clock, sleeps


def run_all(executor, fn, items, **kwargs):
    """Drive ``run_iter`` to the end; return the item-ordered values and
    the :class:`ExecutionResult` the engine would assemble."""
    items = list(items)
    values = [None] * len(items)
    reports = [None] * len(items)
    for done in executor.run_iter(fn, items, **kwargs):
        values[done.index] = done.value
        reports[done.index] = done.report
    return values, ExecutionResult(reports=reports)


class TestHappyPath:
    def test_results_in_item_order(self):
        executor, _, _ = make_executor()
        values, result = run_all(executor, lambda x: x * 10, [1, 2, 3])
        assert values == [10, 20, 30]
        assert result.total_retries == 0
        assert all(len(r.attempts) == 1 for r in result.reports)

    def test_elapsed_measured_with_fake_clock(self):
        executor, clock, _ = make_executor()

        def work(dt):
            clock.advance(dt)
            return dt

        _, result = run_all(executor, work, [0.5, 2.0])
        assert [r.elapsed_s for r in result.reports] == [0.5, 2.0]

    def test_empty_items(self):
        executor, _, _ = make_executor()
        values, result = run_all(executor, lambda x: x, [])
        assert values == [] and result.reports == []


class TestRetry:
    def test_transient_failure_retried_and_succeeds(self):
        executor, _, sleeps = make_executor(max_retries=2)
        injector = FailureInjector([1], fail_attempts=1)
        values, result = run_all(
            executor, lambda x: x, ["a", "b", "c"], injector=injector
        )
        assert values == ["a", "b", "c"]
        assert result.reports[1].retries == 1
        assert not result.reports[1].attempts[0].ok
        assert result.reports[1].attempts[1].ok
        assert len(sleeps) == 1

    def test_backoff_doubles_per_attempt(self):
        executor, _, sleeps = make_executor(
            max_retries=3, backoff_base_s=0.1, backoff_cap_s=10.0
        )
        injector = FailureInjector([0], fail_attempts=3)
        run_all(executor, lambda x: x, [1], injector=injector)
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_backoff_respects_cap(self):
        executor, _, _ = make_executor(backoff_base_s=1.0, backoff_cap_s=1.5)
        assert executor.backoff_delay(5) == pytest.approx(1.5)

    def test_jitter_widens_delay(self):
        executor = RankExecutor(
            SerialBackend(),
            backoff_base_s=1.0,
            jitter=0.5,
            rng=random.Random(0),
        )
        delay = executor.backoff_delay(0)
        assert 1.0 <= delay <= 1.5

    def test_retry_budget_exhausted_raises(self):
        executor, _, _ = make_executor(max_retries=2)
        injector = FailureInjector([0], fail_attempts=10)
        with pytest.raises(RetryExhaustedError, match="retry budget 2 exhausted"):
            run_all(executor, lambda x: x, [1], injector=injector)

    def test_zero_retries_fails_fast(self):
        executor, _, sleeps = make_executor(max_retries=0)
        injector = FailureInjector([0])
        with pytest.raises(RetryExhaustedError):
            run_all(executor, lambda x: x, [1], injector=injector)
        assert sleeps == []

    def test_fatal_error_aborts_immediately(self):
        executor, _, sleeps = make_executor(max_retries=5)
        injector = FailureInjector([1], fatal=True)
        with pytest.raises(FatalRankError, match="rank 1 failed fatally"):
            run_all(executor, lambda x: x, [1, 2], injector=injector)
        assert sleeps == []

    def test_arbitrary_exception_is_transient(self):
        executor, _, _ = make_executor(max_retries=1)
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("boom")
            return x

        values, result = run_all(executor, flaky, [7])
        assert values == [7]
        assert "ValueError: boom" in result.reports[0].attempts[0].error

    def test_negative_retries_rejected(self):
        with pytest.raises(TransientRankError):
            RankExecutor(SerialBackend(), max_retries=-1)


class TestStragglers:
    def _run_with_durations(self, durations, **kwargs):
        executor, clock, _ = make_executor(**kwargs)

        def work(dt):
            clock.advance(dt)
            return dt

        return run_all(executor, work, durations)[1]

    def test_slow_rank_flagged(self):
        result = self._run_with_durations([1.0, 1.0, 1.0, 10.0], straggler_factor=3.0)
        assert result.stragglers == [3]
        assert result.reports[3].straggler

    def test_uniform_ranks_not_flagged(self):
        result = self._run_with_durations([1.0, 1.0, 1.0, 1.0])
        assert result.stragglers == []

    def test_single_rank_never_flagged(self):
        result = self._run_with_durations([5.0])
        assert result.stragglers == []

    def test_factor_controls_threshold(self):
        result = self._run_with_durations([1.0, 1.0, 2.5], straggler_factor=2.0)
        assert result.stragglers == [2]


class TestObservability:
    def test_events_fire_in_order(self):
        calls = []
        events = RankEvents(
            on_rank_start=lambda r, a: calls.append(("start", r, a)),
            on_rank_done=lambda r, e, a: calls.append(("done", r, a)),
            on_retry=lambda r, a, d, err: calls.append(("retry", r, a)),
        )
        executor, _, _ = make_executor(max_retries=1, events=events)
        injector = FailureInjector([0], fail_attempts=1)
        run_all(executor, lambda x: x, [1, 2], injector=injector)
        # Retries are per task: rank 0 is resubmitted the moment its
        # failure is classified, before rank 1's completion is read.
        assert calls == [
            ("start", 0, 0),
            ("start", 1, 0),
            ("retry", 0, 0),
            ("start", 0, 1),
            ("done", 1, 0),
            ("done", 0, 1),
        ]

    def test_straggler_event(self):
        seen = []
        events = RankEvents(on_straggler=lambda r, e, m: seen.append((r, e, m)))
        executor, clock, _ = make_executor(events=events, straggler_factor=2.0)

        def work(dt):
            clock.advance(dt)
            return dt

        run_all(executor, work, [1.0, 1.0, 5.0])
        assert seen == [(2, 5.0, 1.0)]

    def test_metrics_recorded(self):
        metrics = MetricsRegistry()
        executor, _, _ = make_executor(max_retries=1, metrics=metrics)
        injector = FailureInjector([0], fail_attempts=1)
        run_all(executor, lambda x: x, [1, 2], injector=injector)
        snap = metrics.snapshot()
        assert snap["counters"]["ranks.completed"] == 2
        assert snap["counters"]["ranks.retried"] == 1
        assert snap["gauges"]["ranks.total"] == 2
        assert snap["histograms"]["rank.elapsed_s"]["count"] == 2

    def test_tracer_span_wraps_run(self):
        sink = ListSink()
        executor, _, _ = make_executor(tracer=Tracer(sink, clock=FakeClock()))
        run_all(executor, lambda x: x, [1])
        (span,) = [s for s in sink.spans if s.name == "executor.run_iter"]
        assert span.attributes == {"ranks": 1, "backend": "serial"}
        (task,) = [s for s in sink.spans if s.name == "executor.task"]
        assert span.start_s <= task.start_s <= task.end_s <= span.end_s

    def test_execution_report_to_dict(self):
        executor, _, _ = make_executor(max_retries=1)
        injector = FailureInjector([0], fail_attempts=1)
        _, result = run_all(executor, lambda x: x, [1], injector=injector)
        d = result.to_dict()
        assert d["total_retries"] == 1
        assert d["ranks"][0]["retries"] == 1
        assert len(d["ranks"][0]["attempts"]) == 2


class TestRunIter:
    """The completion-streaming surface (run_iter)."""

    def _collect(self, executor, fn, items, **kwargs):
        return list(executor.run_iter(fn, items, **kwargs))

    def test_serial_completions_in_submission_order(self):
        executor, _, _ = make_executor()
        done = self._collect(executor, lambda x: x * 10, [1, 2, 3])
        assert [c.index for c in done] == [0, 1, 2]
        assert [c.value for c in done] == [10, 20, 30]
        assert all(c.in_flight >= 1 for c in done)

    def test_empty_items(self):
        executor, _, _ = make_executor()
        assert self._collect(executor, lambda x: x, []) == []

    def test_transient_failure_retried_per_task(self):
        executor, _, sleeps = make_executor(max_retries=2)
        injector = FailureInjector([1], fail_attempts=1)
        done = self._collect(
            executor, lambda x: x, ["a", "b", "c"], injector=injector
        )
        by_index = {c.index: c for c in done}
        assert by_index[1].value == "b"
        assert by_index[1].report.retries == 1
        assert not by_index[1].report.attempts[0].ok
        assert by_index[1].report.attempts[1].ok
        assert len(sleeps) == 1

    def test_fatal_error_raises_with_rank_message(self):
        executor, _, _ = make_executor(max_retries=5)
        injector = FailureInjector([1], fatal=True)
        with pytest.raises(FatalRankError, match="rank 1 failed fatally"):
            self._collect(executor, lambda x: x, [1, 2], injector=injector)

    def test_retry_budget_exhausted_raises(self):
        executor, _, _ = make_executor(max_retries=2)
        injector = FailureInjector([0], fail_attempts=10)
        with pytest.raises(RetryExhaustedError, match="retry budget 2 exhausted"):
            self._collect(executor, lambda x: x, [1], injector=injector)

    def test_online_straggler_flagged_against_running_median(self):
        executor, clock, _ = make_executor(straggler_factor=3.0)

        def work(dt):
            clock.advance(dt)
            return dt

        done = self._collect(executor, work, [1.0, 1.0, 10.0])
        assert [c.report.straggler for c in done] == [False, False, True]

    def test_early_finisher_never_flagged_retroactively(self):
        # The slow task completes first (serial order); with fewer than
        # two earlier successes there is no median to compare against.
        executor, clock, _ = make_executor(straggler_factor=3.0)

        def work(dt):
            clock.advance(dt)
            return dt

        done = self._collect(executor, work, [10.0, 1.0, 1.0])
        assert all(not c.report.straggler for c in done)

    def test_submit_hook_steers_order(self):
        executor, _, _ = make_executor()
        done = self._collect(
            executor,
            lambda x: x,
            [0, 1, 2],
            submit_hook=lambda pending: pending[-1],
        )
        assert [c.index for c in done] == [2, 1, 0]

    def test_submit_hook_bad_index_rejected(self):
        from repro.errors import GenerationError

        executor, _, _ = make_executor()
        with pytest.raises(GenerationError, match="not an unsubmitted task"):
            self._collect(
                executor, lambda x: x, [1, 2], submit_hook=lambda pending: 99
            )

    def test_submit_hook_stall_detected(self):
        from repro.errors import GenerationError

        executor, _, _ = make_executor()
        with pytest.raises(GenerationError, match="stalled the work queue"):
            self._collect(
                executor, lambda x: x, [1, 2], submit_hook=lambda pending: None
            )

    def test_invalid_max_in_flight_rejected(self):
        from repro.errors import GenerationError

        executor, _, _ = make_executor()
        with pytest.raises(GenerationError, match="max_in_flight"):
            self._collect(executor, lambda x: x, [1], max_in_flight=0)

    def test_metrics_match_run_semantics(self):
        metrics = MetricsRegistry()
        executor, _, _ = make_executor(max_retries=1, metrics=metrics)
        injector = FailureInjector([0], fail_attempts=1)
        self._collect(executor, lambda x: x, [1, 2], injector=injector)
        snap = metrics.snapshot()
        assert snap["counters"]["ranks.completed"] == 2
        assert snap["counters"]["ranks.retried"] == 1
        assert snap["gauges"]["ranks.total"] == 2
        assert snap["histograms"]["rank.elapsed_s"]["count"] == 2

    def test_per_task_spans_recorded(self):
        sink = ListSink()
        executor, _, _ = make_executor(tracer=Tracer(sink, clock=FakeClock()))
        self._collect(executor, lambda x: x, [1, 2])
        names = [s.name for s in sink.spans]
        assert names.count("executor.task") == 2
        assert names.count("executor.run_iter") == 1
        task_spans = [s for s in sink.spans if s.name == "executor.task"]
        assert {s.attributes["task"] for s in task_spans} == {0, 1}
        assert all(s.attributes["ok"] for s in task_spans)

    def test_thread_backend_overlaps_straggler(self):
        # One slow task on two workers: total wall must be well below
        # the serial sum (real sleeps, kept tiny).
        import time as _time

        from repro.parallel import ThreadBackend

        backend = ThreadBackend(max_workers=2)
        try:
            executor = RankExecutor(backend)

            def work(dt):
                _time.sleep(dt)
                return dt

            durations = [0.2, 0.05, 0.05, 0.05]
            t0 = _time.perf_counter()
            done = list(executor.run_iter(work, durations))
            wall = _time.perf_counter() - t0
        finally:
            backend.shutdown()
        assert sorted(c.value for c in done) == sorted(durations)
        assert wall < sum(durations)


# -- a lost worker: reassignment, not retry ------------------------------------
class _LoseFirstHandle:
    def __init__(self, error):
        self._error = error

    def result(self):
        raise self._error


class LoseFirstBackend:
    """Streaming backend that loses chosen ranks' first submission with
    ``BrokenExecutor``, then delegates to serial (a task's rank is its
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
                BrokenExecutor(f"synthetic loss of rank {task.rank}")
            )
        return self.inner.submit(fn, task)

    def as_completed(self, handles):
        return iter(handles)


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


# -- broken process pools -------------------------------------------------------
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
