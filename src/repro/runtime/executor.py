"""Fault-tolerant, observable execution of per-rank work.

The paper's generator is communication-free by construction, so every
rank is an independently retryable, measurable unit of work.
:class:`RankExecutor` wraps any :class:`~repro.typing.Backend` with:

* **bounded retry** — transient failures are retried up to
  ``max_retries`` times with exponential backoff plus jitter;
* **failure classification** — :class:`~repro.errors.FatalRankError`
  aborts immediately; every other exception is treated as transient
  (the optimistic default: a rank that failed on one node may succeed
  on the next try);
* **cooperative per-rank timeout** — synchronous backends cannot
  preempt a worker, so an attempt whose measured elapsed exceeds
  ``rank_timeout_s`` is *classified* as a
  :class:`~repro.errors.RankTimeoutError` (its result is discarded and
  the rank is retried);
* **straggler detection** — a rank slower than ``straggler_factor`` ×
  the running median of earlier successes is reported as it completes;
* **observability** — per-rank durations land in a
  :class:`~repro.runtime.metrics.MetricsRegistry`, spans in a
  :class:`~repro.runtime.tracing.Tracer`, and live progress in a
  :class:`~repro.runtime.events.RankEvents` bag.

The one execution surface is :meth:`RankExecutor.run_iter`:
completion-driven streaming over ``submit``/``as_completed``, yielding
a :class:`TaskCompletion` as each result lands — the loop every engine
run goes through.

Clock, sleep, and RNG are injectable, so retry/backoff behaviour is unit
tested with a deterministic fake clock and zero real sleeping.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from concurrent.futures import BrokenExecutor

from repro.errors import (
    FatalRankError,
    GenerationError,
    RankTimeoutError,
    RetryExhaustedError,
    TransientRankError,
    WorkerLostError,
)
from repro.runtime.events import RankEvents
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.tracing import Span, Tracer
from repro.typing import Backend, StreamingBackend


class FailureInjector:
    """Deterministically fail chosen ranks for their first N attempts.

    The injector is called *inside* the worker before the real work, so
    it exercises the full retry path of any backend.  It is stateless
    (failure is a function of ``(rank, attempt)``), which is what makes
    it correct across process boundaries where shared counters would not
    survive.
    """

    def __init__(
        self,
        fail_ranks: Sequence[int],
        *,
        fail_attempts: int = 1,
        fatal: bool = False,
        message: str = "injected rank failure",
    ) -> None:
        self.fail_ranks = frozenset(int(r) for r in fail_ranks)
        self.fail_attempts = fail_attempts
        self.fatal = fatal
        self.message = message

    def __call__(self, rank: int, attempt: int) -> None:
        if rank in self.fail_ranks and attempt < self.fail_attempts:
            cls = FatalRankError if self.fatal else TransientRankError
            raise cls(f"{self.message} (rank {rank}, attempt {attempt})")


@dataclass(frozen=True)
class _Task:
    """One attempt's worth of work, picklable for process pools."""

    rank: int
    fn: Callable
    item: object
    attempt: int
    clock: Callable[[], float]
    injector: Optional[Callable[[int, int], None]] = None


@dataclass(frozen=True)
class _Outcome:
    """What came back from one attempt (errors travel as strings so the
    outcome pickles regardless of the user exception type)."""

    rank: int
    ok: bool
    value: object
    elapsed_s: float
    error_kind: str = ""  # "transient" | "fatal" | "timeout"
    error_text: str = ""


def _guarded_call(task: _Task) -> _Outcome:
    """Worker wrapper: run one attempt, classify any failure.

    Module-level so process pools can pickle it.
    """
    t0 = task.clock()
    try:
        if task.injector is not None:
            task.injector(task.rank, task.attempt)
        value = task.fn(task.item)
    except FatalRankError as exc:
        return _Outcome(
            rank=task.rank,
            ok=False,
            value=None,
            elapsed_s=task.clock() - t0,
            error_kind="fatal",
            error_text=f"{type(exc).__name__}: {exc}",
        )
    except Exception as exc:  # everything else is optimistically transient
        return _Outcome(
            rank=task.rank,
            ok=False,
            value=None,
            elapsed_s=task.clock() - t0,
            error_kind="transient",
            error_text=f"{type(exc).__name__}: {exc}",
        )
    return _Outcome(
        rank=task.rank, ok=True, value=value, elapsed_s=task.clock() - t0
    )


class _CompletedHandle:
    """Handle over a value (or error) that is already known."""

    __slots__ = ("_value", "_error")

    def __init__(
        self, value: object = None, error: BaseException | None = None
    ) -> None:
        self._value = value
        self._error = error

    def result(self) -> object:
        if self._error is not None:
            raise self._error
        return self._value


class _MapStreamingAdapter:
    """Present a map-only :class:`~repro.typing.Backend` as streaming.

    ``submit`` pushes the single item through the backend's own ``map``
    eagerly, so nothing actually overlaps — but a third-party backend
    that only implements ``map`` still runs correctly (if serially)
    under the completion-driven execution path.  This adapter lives in
    :mod:`repro.runtime` (not :mod:`repro.parallel`) because the
    executor must not import the higher backend layer.
    """

    def __init__(self, backend: Backend) -> None:
        self._backend = backend
        self.name = backend.name

    def map(self, fn: Callable, items: Sequence) -> List:
        return self._backend.map(fn, items)

    def submit(self, fn: Callable, item: object) -> _CompletedHandle:
        try:
            return _CompletedHandle(value=self._backend.map(fn, [item])[0])
        except BaseException as exc:
            return _CompletedHandle(error=exc)

    def as_completed(self, handles: Sequence) -> Iterator:
        return iter(handles)

    def shutdown(self) -> None:
        getattr(self._backend, "shutdown", lambda: None)()


def as_streaming(backend: Backend) -> StreamingBackend:
    """Return ``backend`` if it already streams, else wrap it.

    The wrapper (:class:`_MapStreamingAdapter`) derives ``submit`` /
    ``as_completed`` from ``map`` — correct for any conforming backend,
    with no concurrency of its own.
    """
    if isinstance(backend, StreamingBackend):
        return backend
    return _MapStreamingAdapter(backend)


@dataclass(frozen=True)
class RankAttempt:
    """One attempt's accounting."""

    attempt: int
    ok: bool
    elapsed_s: float
    error: str = ""


@dataclass
class RankReport:
    """Everything that happened to one rank across all its attempts."""

    rank: int
    attempts: List[RankAttempt] = field(default_factory=list)
    straggler: bool = False

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def elapsed_s(self) -> float:
        """Elapsed of the final (successful) attempt."""
        return self.attempts[-1].elapsed_s if self.attempts else 0.0

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "elapsed_s": self.elapsed_s,
            "retries": self.retries,
            "straggler": self.straggler,
            "attempts": [
                {
                    "attempt": a.attempt,
                    "ok": a.ok,
                    "elapsed_s": a.elapsed_s,
                    "error": a.error,
                }
                for a in self.attempts
            ],
        }


@dataclass
class ExecutionResult:
    """The full per-rank execution report (the results themselves go to
    the sink as each task commits; none are retained here)."""

    reports: List[RankReport]

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.reports)

    @property
    def stragglers(self) -> List[int]:
        return [r.rank for r in self.reports if r.straggler]

    def to_dict(self) -> dict:
        return {
            "total_retries": self.total_retries,
            "stragglers": self.stragglers,
            "ranks": [r.to_dict() for r in self.reports],
        }


@dataclass(frozen=True)
class TaskCompletion:
    """One task finishing, as yielded by :meth:`RankExecutor.run_iter`.

    ``index`` is the position in the submitted ``items`` sequence;
    ``report`` is that task's (final) :class:`RankReport`, labelled with
    its rank; ``in_flight`` is how many tasks were running at the moment
    this one completed — the instantaneous queue depth, which the engine
    aggregates into ``engine.queue_depth``.
    """

    index: int
    value: object
    report: RankReport
    in_flight: int


class RankExecutor:
    """Runs rank work on a backend with retry, timeout, and accounting.

    Parameters
    ----------
    backend:
        Any :class:`~repro.typing.Backend`.
    max_retries:
        Extra attempts allowed per rank after the first (0 = fail fast).
    rank_timeout_s:
        Cooperative per-rank timeout; ``None`` disables it.
    straggler_factor:
        A rank slower than this multiple of the running median of
        earlier successes is flagged (and reported via
        ``events.on_straggler``).
    backoff_base_s / backoff_cap_s / jitter:
        Retry delay is ``min(cap, base * 2**attempt) * (1 + jitter * U)``
        with ``U ~ Uniform[0, 1)`` from the injectable ``rng``.
    max_reassignments:
        How many times one task may lose its worker
        (:class:`~repro.errors.WorkerLostError` / a broken pool) and be
        handed to another, *without* consuming its retry budget — worker
        churn says nothing about the task.  Exceeding the cap raises
        :class:`~repro.errors.RetryExhaustedError` so a pool that eats
        every worker still terminates.
    metrics / tracer / events:
        Observability hooks; all optional.
    clock / sleep / rng:
        Injectable time sources for deterministic tests.
    """

    def __init__(
        self,
        backend: Backend,
        *,
        max_retries: int = 0,
        max_reassignments: int = 8,
        rank_timeout_s: float | None = None,
        straggler_factor: float = 3.0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        jitter: float = 0.5,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: RankEvents | None = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        if max_retries < 0:
            raise TransientRankError(f"max_retries must be >= 0, got {max_retries}")
        if max_reassignments < 0:
            raise TransientRankError(
                f"max_reassignments must be >= 0, got {max_reassignments}"
            )
        if rank_timeout_s is not None and rank_timeout_s <= 0:
            raise TransientRankError(
                f"rank_timeout_s must be positive, got {rank_timeout_s}"
            )
        self.backend = backend
        self.max_retries = max_retries
        self.max_reassignments = max_reassignments
        self.rank_timeout_s = rank_timeout_s
        self.straggler_factor = straggler_factor
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter = jitter
        self.metrics = metrics
        self.tracer = tracer
        self.events = events or RankEvents()
        self._clock = clock
        self._sleep = sleep
        self._rng = rng or random.Random()

    # -- internals -----------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt + 1`` (attempt is 0-based)."""
        base = min(self.backoff_cap_s, self.backoff_base_s * (2**attempt))
        return base * (1.0 + self.jitter * self._rng.random())

    def _classify(self, outcome: _Outcome) -> _Outcome:
        """Apply the cooperative timeout on top of the worker's verdict."""
        if (
            outcome.ok
            and self.rank_timeout_s is not None
            and outcome.elapsed_s > self.rank_timeout_s
        ):
            return _Outcome(
                rank=outcome.rank,
                ok=False,
                value=None,
                elapsed_s=outcome.elapsed_s,
                error_kind="timeout",
                error_text=(
                    f"RankTimeoutError: rank {outcome.rank} took "
                    f"{outcome.elapsed_s:.4f}s > timeout {self.rank_timeout_s}s"
                ),
            )
        return outcome

    # -- execution -----------------------------------------------------------
    def run_iter(
        self,
        fn: Callable,
        items: Sequence,
        *,
        ranks: Sequence[int] | None = None,
        injector: Callable[[int, int], None] | None = None,
        max_in_flight: int | Callable[[], int] | None = None,
        submit_hook: Callable[[Tuple[int, ...]], Optional[int]] | None = None,
    ) -> Iterator[TaskCompletion]:
        """Run ``fn`` over ``items``, yielding completions as they land.

        Tasks are submitted individually (``max_in_flight`` at a time,
        default = the full item count) and a :class:`TaskCompletion` is
        yielded the moment each succeeds — in *completion* order, not
        item order.  Raises :class:`~repro.errors.FatalRankError` on a
        fatal failure and :class:`~repro.errors.RetryExhaustedError`
        when a task keeps failing past its retry budget.  Two properties
        follow from submitting tasks one at a time:

        * retries are per-task — one failing task delays only itself
          (the retry backoff sleep runs in the coordinator, so already
          in-flight work keeps running underneath it);
        * straggler flagging is *online*: a completion is compared
          against the running median of successes so far (needs at
          least two earlier successes), so early finishers are never
          flagged retroactively.

        ``submit_hook`` lets the caller steer submission order and apply
        backpressure: it receives the tuple of not-yet-submitted item
        indices and returns the one to submit next, or ``None`` to pause
        submission until the next completion.  Pausing with nothing in
        flight would deadlock, so that case raises
        :class:`~repro.errors.GenerationError`.

        ``max_in_flight`` may also be a zero-arg callable, re-evaluated
        before each submission — how an elastic pool's *current* worker
        count bounds the window as members join and leave (clamped to at
        least 1 so a momentarily empty pool queues instead of stalling).

        A task whose worker vanished mid-flight
        (:class:`~repro.errors.WorkerLostError` from an elastic pool, or
        a broken process pool) is *reassigned*: resubmitted with its
        original task identity and an unchanged attempt counter, so
        injector schedules, retry budgets, and commit order are exactly
        those of a churn-free run.  Reassignments are capped by
        ``max_reassignments`` and counted in ``engine.reassigned_tasks``.

        ``ranks`` names each item's rank (default: its position).  Events,
        reports, error messages and the ``injector(rank, attempt)`` call
        all use it, so they name the right rank whatever order the items
        were submitted in.

        Map-only backends are adapted via :func:`as_streaming` (they run
        correctly but without overlap).
        """
        items = list(items)
        n = len(items)
        ranks = list(range(n)) if ranks is None else list(ranks)
        if len(ranks) != n:
            raise GenerationError(f"got {len(ranks)} ranks for {n} items")
        if callable(max_in_flight):
            dynamic_limit = max_in_flight
            limit = lambda: max(1, int(dynamic_limit()))  # noqa: E731
        elif max_in_flight is None:
            limit = lambda: max(1, n)  # noqa: E731
        elif max_in_flight < 1:
            raise GenerationError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        else:
            static_limit = max_in_flight
            limit = lambda: static_limit  # noqa: E731
        reports = [RankReport(rank=r) for r in ranks]
        if self.metrics is not None:
            self.metrics.gauge("ranks.total").set(n)
        backend = as_streaming(self.backend)
        pending: List[int] = list(range(n))
        attempts: Dict[int, int] = {i: 0 for i in range(n)}
        reassignments: Dict[int, int] = {i: 0 for i in range(n)}
        in_flight: Dict[object, int] = {}
        spans: Dict[int, Span] = {}
        successes: List[float] = []

        def submit(idx: int) -> None:
            attempt = attempts[idx]
            self.events.rank_start(ranks[idx], attempt)
            if self.tracer is not None:
                # Overlapping in-flight spans can't use the tracer's
                # per-thread stack; they are built and recorded by hand.
                spans[idx] = Span(
                    name="executor.task",
                    start_s=self._clock(),
                    attributes={
                        "task": idx,
                        "rank": ranks[idx],
                        "attempt": attempt,
                        "backend": backend.name,
                    },
                    parent="executor.run_iter",
                    depth=1,
                )
            task = _Task(
                rank=ranks[idx],
                fn=fn,
                item=items[idx],
                attempt=attempt,
                clock=self._clock,
                injector=injector,
            )
            in_flight[backend.submit(_guarded_call, task)] = idx

        def fill() -> None:
            while pending and len(in_flight) < limit():
                if submit_hook is None:
                    choice = pending.pop(0)
                else:
                    choice = submit_hook(tuple(pending))
                    if choice is None:
                        return
                    if choice not in pending:
                        raise GenerationError(
                            f"submit_hook returned {choice!r}, which is not "
                            f"an unsubmitted task index"
                        )
                    pending.remove(choice)
                submit(choice)

        run_span: Optional[Span] = None
        if self.tracer is not None:
            run_span = Span(
                name="executor.run_iter",
                start_s=self._clock(),
                attributes={"ranks": n, "backend": backend.name},
            )
        try:
            completed = 0
            while completed < n:
                fill()
                if not in_flight:
                    raise GenerationError(
                        "submit_hook stalled the work queue: nothing in "
                        f"flight but {len(pending)} task(s) unsubmitted"
                    )
                depth = len(in_flight)
                handle = next(iter(backend.as_completed(list(in_flight))))
                idx = in_flight.pop(handle)
                attempt = attempts[idx]
                try:
                    raw = handle.result()
                except (WorkerLostError, BrokenExecutor) as exc:
                    # The worker holding this task's lease vanished
                    # (revocation / missed heartbeats / dead pool
                    # process).  That is a statement about the *worker*,
                    # not the task: reassign with the original identity
                    # and an unchanged attempt counter, so injector
                    # schedules and retry budgets are those of a
                    # churn-free run.
                    span = spans.pop(idx, None)
                    if span is not None:
                        span.end_s = self._clock()
                        span.attributes["ok"] = False
                        span.attributes["reassigned"] = True
                        self.tracer.sink.record(span)
                    reassignments[idx] += 1
                    if self.metrics is not None:
                        self.metrics.counter("engine.reassigned_tasks").inc()
                    if reassignments[idx] > self.max_reassignments:
                        if self.metrics is not None:
                            self.metrics.counter("ranks.failed_exhausted").inc()
                        raise RetryExhaustedError(
                            f"rank {ranks[idx]} lost its worker "
                            f"{reassignments[idx]} time(s), reassignment "
                            f"budget {self.max_reassignments} exhausted: "
                            f"{exc}"
                        ) from exc
                    self.events.reassigned(ranks[idx], attempt, exc)
                    submit(idx)
                    continue
                outcome = self._classify(raw)
                span = spans.pop(idx, None)
                if span is not None:
                    span.end_s = self._clock()
                    span.attributes["ok"] = outcome.ok
                    self.tracer.sink.record(span)
                reports[idx].attempts.append(
                    RankAttempt(
                        attempt=attempt,
                        ok=outcome.ok,
                        elapsed_s=outcome.elapsed_s,
                        error=outcome.error_text,
                    )
                )
                if outcome.ok:
                    completed += 1
                    if self.metrics is not None:
                        self.metrics.counter("ranks.completed").inc()
                        self.metrics.histogram("rank.elapsed_s").observe(
                            outcome.elapsed_s
                        )
                    self.events.rank_done(ranks[idx], outcome.elapsed_s, attempt)
                    if len(successes) >= 2:
                        median = statistics.median(successes)
                        if (
                            median > 0
                            and outcome.elapsed_s
                            > self.straggler_factor * median
                        ):
                            reports[idx].straggler = True
                            if self.metrics is not None:
                                self.metrics.counter("ranks.stragglers").inc()
                            self.events.straggler(
                                ranks[idx], outcome.elapsed_s, median
                            )
                    successes.append(outcome.elapsed_s)
                    yield TaskCompletion(
                        index=idx,
                        value=outcome.value,
                        report=reports[idx],
                        in_flight=depth,
                    )
                    continue
                if outcome.error_kind == "fatal":
                    if self.metrics is not None:
                        self.metrics.counter("ranks.failed_fatal").inc()
                    raise FatalRankError(
                        f"rank {ranks[idx]} failed fatally on attempt "
                        f"{attempt + 1}: {outcome.error_text}"
                    )
                if attempt >= self.max_retries:
                    if self.metrics is not None:
                        self.metrics.counter("ranks.failed_exhausted").inc()
                    raise RetryExhaustedError(
                        f"rank {ranks[idx]} failed {attempt + 1} time(s), retry "
                        f"budget {self.max_retries} exhausted: "
                        f"{outcome.error_text}"
                    )
                if self.metrics is not None:
                    self.metrics.counter("ranks.retried").inc()
                    if outcome.error_kind == "timeout":
                        self.metrics.counter("ranks.timeout").inc()
                delay = self.backoff_delay(attempt)
                error: TransientRankError = (
                    RankTimeoutError(outcome.error_text)
                    if outcome.error_kind == "timeout"
                    else TransientRankError(outcome.error_text)
                )
                self.events.retry(ranks[idx], attempt, delay, error)
                self._sleep(delay)
                attempts[idx] = attempt + 1
                submit(idx)
        finally:
            if run_span is not None:
                run_span.end_s = self._clock()
                self.tracer.sink.record(run_span)
