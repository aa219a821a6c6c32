"""The single generation loop: plan → schedule → execute → sink.

One worker function (:func:`_run_rank_task`) streams a rank's tiles out
of the plan's generator model (:meth:`GeneratorModel.tile_iter` — for
the deterministic Kronecker model, ``Ap = Bp ⊗ C`` through the
bounded-memory tiled kernel :func:`repro.kron.kron_tiles`; for the
stochastic family, counter-seeded edge batches), applies the plan's
transforms (design loop removal, vertex scramble) per tile, and streams
the tiles into the sink's consumer — so peak memory per rank is bounded
by ``memory_budget_entries`` (plus the model's single-row floor) instead
of the whole rank block.

:func:`execute` drives the whole run through one completion-driven
loop: tasks stream through :meth:`~repro.runtime.RankExecutor.run_iter`
(retry/backoff/timeout/online straggler accounting come for free) in
the scheduler's submission order, at most the scheduler's
``max_in_flight`` at a time, and land in whatever order workers finish.
A **reorder buffer** holds completed-but-not-yet-committable outcomes
so ``sink.commit`` happens in ascending rank order under every
scheduler — shard bytes, ``manifest.json``, and resume behavior do not
depend on the submission order or the window.  The buffer is bounded by
the plan's ``memory_budget_entries``: when buffered estimated entries
exceed it, submission pauses (backpressure) except for the
commit-pointer task itself, which is always eligible so the buffer can
drain and the run cannot deadlock.

Fatal failures (``StorageError``, ``FatalRankError``,
``RetryExhaustedError``) abort the sink — which leaves a resumable
``failed`` manifest when the sink is a
:class:`~repro.engine.sinks.ShardSink` — then re-raise.  A
:class:`~repro.runtime.checkpoint.SimulatedCrash` (a ``BaseException``)
deliberately sails past this handling, exactly as a real SIGKILL would.

Metrics: ``engine.tasks`` (executed, excluding skipped),
``engine.tiles`` (total tiles across all ranks — how often the kernel
had to cut), ``engine.peak_tile_entries`` (the realized memory
high-water mark, reset at the start of every run), ``engine.queue_depth``
(peak in-flight tasks), ``engine.worker_utilization``
(busy worker-seconds over ``workers × wall``), and
``engine.straggler_gap_s`` (slowest final attempt minus the median).
Elastic backends add ``engine.workers_active`` (live members),
``engine.revocations``, ``engine.lease_expiries``, and
``engine.reassigned_tasks`` (tasks resubmitted after losing their
worker — also incremented by ``run_iter`` for broken process pools).

NOTE Imports from ``repro.parallel`` are function-local only — see
:mod:`repro.engine.plan` on the import cycle.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.config import RunConfig, resolve_run_config
from repro.engine.plan import GenerationPlan, RankTask
from repro.engine.scheduler import StaticScheduler
from repro.engine.sinks import Sink
from repro.errors import (
    FatalRankError,
    GenerationError,
    RetryExhaustedError,
    StorageError,
)
from repro.models import default_model
from repro.runtime.events import RankEvents
from repro.runtime.executor import ExecutionResult, RankExecutor, RankReport
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.tracing import Tracer

if TYPE_CHECKING:
    from repro.parallel.scramble import ScramblePermutation
    from repro.sparse.coo import COOMatrix


@dataclass(frozen=True)
class _RankWork:
    """Everything one worker invocation needs (picklable).

    ``model`` produces the tiles (:meth:`GeneratorModel.tile_iter`); the
    deterministic Kronecker singleton by default.  For that model ``c``
    is the materialized right factor — or ``None`` when the run moves it
    through shared memory, in which case ``c_ref`` points at the
    coordinator-owned segment and the worker attaches (cached per
    process, zero-copy).  Models without a shared factor ignore
    ``b_local``/``col_base``/``c`` and read their per-rank ``spec``
    instead.
    """

    rank: int
    b_local: Optional["COOMatrix"]
    col_base: int
    c: Optional["COOMatrix"]
    loop_vertex: Optional[int]
    scramble: Optional["ScramblePermutation"]
    max_tile_entries: Optional[int]
    consumer_factory: Callable
    c_ref: object = None
    spec: object = None
    model: object = field(default_factory=default_model)


@dataclass(frozen=True)
class TaskOutcome:
    """One rank's completed work, as returned by the worker."""

    rank: int
    nnz: int
    tiles: int
    peak_tile_entries: int
    elapsed_s: float
    payload: object


@dataclass(frozen=True)
class TaskStats:
    """Coordinator-side per-task accounting (no payload)."""

    rank: int
    nnz: int
    tiles: int
    peak_tile_entries: int
    elapsed_s: float


@dataclass(frozen=True)
class EngineResult:
    """The full outcome of one :func:`execute` run."""

    plan: GenerationPlan
    sink_result: object
    stats: Tuple[TaskStats, ...]
    skipped_ranks: Tuple[int, ...]
    execution: ExecutionResult
    elapsed_s: float

    @property
    def total_nnz(self) -> int:
        return sum(s.nnz for s in self.stats)

    @property
    def total_tiles(self) -> int:
        return sum(s.tiles for s in self.stats)

    @property
    def peak_tile_entries(self) -> int:
        return max((s.peak_tile_entries for s in self.stats), default=0)


def _transform_tile(work, rows, cols, vals):
    """Apply the plan's shared transforms (loop removal, then vertex
    scramble) to one model tile — the one definition both the worker
    loop and :func:`iter_task_tiles` use, so a tile served any other
    way (e.g. over HTTP by :mod:`repro.serve`) is byte-identical to
    what a sink consumer would have seen."""
    if work.loop_vertex is not None:
        hit = (rows == work.loop_vertex) & (cols == work.loop_vertex)
        if hit.any():
            keep = ~hit
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if work.scramble is not None:
        rows = work.scramble.apply_array(rows)
        cols = work.scramble.apply_array(cols)
    return rows, cols, vals


def iter_task_tiles(plan: GenerationPlan, task: RankTask):
    """Yield one rank's post-transform ``(rows, cols, vals)`` tiles.

    The coordinator-side twin of the worker loop in
    :func:`_run_rank_task`: the plan's model produces the tiles and the
    plan's transforms (design loop removal, vertex scramble) are applied
    through the same :func:`_transform_tile` code path, so concatenating
    the yielded tiles reproduces — byte for byte — the block a sink
    consumer would have accumulated for ``task``.  No sink, no executor:
    tiles are yielded and dropped, so peak memory is one tile.  This is
    the generation surface :mod:`repro.serve` streams over HTTP.
    """
    model = plan.model
    shared_c = plan.c_matrix if model.shared_factor else None
    work = _RankWork(
        rank=task.rank,
        b_local=None if task.assignment is None else task.assignment.b_local,
        col_base=0 if task.assignment is None else task.assignment.col_base,
        c=shared_c,
        loop_vertex=plan.loop_vertex,
        scramble=plan.scramble,
        max_tile_entries=plan.memory_budget_entries,
        consumer_factory=None,
        spec=task.spec,
        model=model,
    )
    for rows, cols, vals in model.tile_iter(work):
        yield _transform_tile(work, rows, cols, vals)


def _run_rank_task(work: _RankWork) -> TaskOutcome:
    """Worker: stream one rank's tiles into its consumer.

    The model produces global-coordinate tiles
    (:meth:`GeneratorModel.tile_iter`); the worker applies the shared
    transforms (loop removal, vertex scramble) and the peak-memory
    accounting, identically for every model.  The consumer is created
    *inside* the worker, per attempt, so a retried rank starts from a
    clean slate; on any failure — including ``BaseException`` like a
    simulated crash — the partial consumer state is aborted before the
    error propagates.
    """
    t0 = time.perf_counter()
    consumer = work.consumer_factory(work.rank)
    nnz = 0
    tiles = 0
    peak = 0
    try:
        for rows, cols, vals in work.model.tile_iter(work):
            tiles += 1
            # Peak is the pre-transform tile size: the memory actually
            # held, before loop removal can shrink it.
            peak = max(peak, len(rows))
            rows, cols, vals = _transform_tile(work, rows, cols, vals)
            consumer.consume(rows, cols, vals)
            nnz += len(rows)
        payload = consumer.result()
    except BaseException:
        consumer.abort()
        raise
    return TaskOutcome(
        rank=work.rank,
        nnz=nnz,
        tiles=tiles,
        peak_tile_entries=peak,
        elapsed_s=time.perf_counter() - t0,
        payload=payload,
    )


def execute(
    plan: GenerationPlan,
    sink: Sink,
    *,
    config: RunConfig | None = None,
    executor: RankExecutor | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    events: RankEvents | None = None,
    max_retries: int = 0,
    rank_timeout_s: float | None = None,
    failure_injector: Callable[[int, int], None] | None = None,
    scale_policy: Callable | None = None,
) -> EngineResult:
    """Run ``plan`` through ``sink`` — the one generation loop.

    ``config`` (:class:`~repro.engine.config.RunConfig`) shapes the run:
    ``execute`` honours its ``backend`` and ``scheduler`` fields; the
    remaining fields belong to the higher-level drivers and raise here.

    ``executor`` overrides the backend/retry/timeout arguments when
    given; the scheduler defaults to ascending-rank submission with a
    backend-sized window (:class:`~repro.engine.scheduler.StaticScheduler`).
    Commit order — and therefore all sink output — is the same under
    every scheduler.  ``failure_injector`` is called as
    ``injector(rank, attempt)`` inside the worker, before the kernel —
    the adversary hook the failure tests drive.

    On an elastic backend (:class:`~repro.typing.ElasticBackend`, e.g.
    :class:`~repro.runtime.elastic.ElasticWorkerPool`) the engine binds
    the pool's churn metrics into ``metrics``, bounds a backend-sized
    in-flight window by the pool's *live* worker count, and installs
    ``scale_policy`` (a ``PoolStats -> target size | None`` callable
    consulted on submit/completion/tick — the autoscaler hook).  Passing
    ``scale_policy`` with a non-elastic backend raises
    :class:`~repro.errors.GenerationError`.  Membership churn never
    changes output: lost tasks are reassigned with their original
    identity and the reorder buffer still commits in ascending rank
    order, so shard bytes, ``manifest.json``, and resume behavior match
    a churn-free run exactly.
    """
    cfg = resolve_run_config(
        "execute",
        config,
        unsupported=(
            "memory_budget_entries",
            "transport",
            "checkpoint_dir",
            "resume",
            "scramble_seed",
            "model",
        ),
    )
    scheduler = cfg.scheduler or StaticScheduler()
    from repro.parallel.backends import backend_worker_count, resolve_backend

    if executor is None:
        executor = RankExecutor(
            resolve_backend(cfg.backend),
            max_retries=max_retries,
            rank_timeout_s=rank_timeout_s,
            metrics=metrics,
            tracer=tracer,
            events=events,
        )
    from repro.typing import ElasticBackend

    elastic = isinstance(executor.backend, ElasticBackend)
    if scale_policy is not None and not elastic:
        raise GenerationError(
            "scale_policy requires an elastic backend "
            "(repro.runtime.elastic.ElasticWorkerPool); got "
            f"{getattr(executor.backend, 'name', type(executor.backend).__name__)!r}"
        )
    if elastic:
        if metrics is not None:
            executor.backend.bind_metrics(metrics)
        if scale_policy is not None:
            executor.backend.set_scale_policy(scale_policy)
    if metrics is not None:
        # Gauges persist across runs on a reused registry; a small
        # second run must not report the first run's peak/depth.
        metrics.gauge("engine.peak_tile_entries").set(0)
        metrics.gauge("engine.queue_depth").set(0)
    model = plan.model
    # Zero-copy tile handoff: for sinks whose payload IS the triples
    # (payload_kind == "triples") on a backend advertising
    # ``zero_copy_tiles``, tiles move through a coordinator-owned
    # shared-memory pool instead of being pickled back.  Only models
    # with a shared right factor use the pool; other models' tiles
    # travel by pickle.  The pool's lifecycle is tied to this call (see
    # the ``finally`` below).
    pool = None
    c_ref = None
    if (
        getattr(sink, "payload_kind", "opaque") == "triples"
        and getattr(executor.backend, "zero_copy_tiles", False)
        and model.shared_factor
    ):
        from repro.parallel.shm import (
            SharedTilePool,
            ShmConsumerFactory,
            ShmTriplesHandle,
        )

        pool = SharedTilePool()
        c_ref = pool.share_coo(plan.c_matrix)
    skipped = tuple(sorted(sink.open(plan, metrics=metrics)))
    t0 = time.perf_counter()
    skip_set = set(skipped)
    pending = [t for t in plan.tasks if t.rank not in skip_set]
    if metrics is not None:
        metrics.counter("engine.tasks").inc(len(pending))
    stats: List[TaskStats] = []
    peak = 0
    queue_depth_peak = 0

    def make_work(t: RankTask) -> _RankWork:
        if pool is not None:
            # "triples" promises the consumer just accumulates consumed
            # tiles, so the engine may substitute the shared-memory
            # consumer for the sink's own.
            factory = ShmConsumerFactory(
                pool.allocate_output(t.estimated_entries)
            )
        else:
            factory = sink.consumer_factory(t)
        shared_c = None
        if model.shared_factor and pool is None:
            shared_c = plan.c_matrix
        return _RankWork(
            rank=t.rank,
            b_local=None if t.assignment is None else t.assignment.b_local,
            col_base=0 if t.assignment is None else t.assignment.col_base,
            c=shared_c,
            loop_vertex=plan.loop_vertex,
            scramble=plan.scramble,
            max_tile_entries=plan.memory_budget_entries,
            consumer_factory=factory,
            c_ref=c_ref,
            spec=t.spec,
            model=model,
        )

    def commit(task: RankTask, outcome: TaskOutcome) -> None:
        nonlocal peak
        if pool is not None and isinstance(outcome.payload, ShmTriplesHandle):
            # The one owning copy of the zero-copy path: materialize the
            # triples and release the segment before the sink sees them.
            outcome = replace(outcome, payload=pool.take(outcome.payload))
        sink.commit(task, outcome)
        stats.append(
            TaskStats(
                rank=outcome.rank,
                nnz=outcome.nnz,
                tiles=outcome.tiles,
                peak_tile_entries=outcome.peak_tile_entries,
                elapsed_s=outcome.elapsed_s,
            )
        )
        if metrics is not None:
            metrics.counter("engine.tiles").inc(outcome.tiles)
            if outcome.peak_tile_entries > peak:
                peak = outcome.peak_tile_entries
                metrics.gauge("engine.peak_tile_entries").set(peak)

    try:
        order = scheduler.order(
            pending, memory_budget_entries=plan.memory_budget_entries
        )
        # Commit pointer: item indices in ascending-rank order; the
        # reorder buffer drains along this sequence.
        commit_seq = sorted(range(len(order)), key=lambda i: order[i].rank)
        buffered: Dict[int, TaskOutcome] = {}
        buffered_entries = 0
        pos = 0
        budget = plan.memory_budget_entries

        def submit_hook(unsubmitted: Tuple[int, ...]) -> Optional[int]:
            # Backpressure: once buffered-but-uncommittable outcomes
            # exceed the budget, only the commit-pointer task may still
            # be submitted — it is what the buffer is waiting on, so
            # refusing it would deadlock while admitting it drains it.
            if budget is None or buffered_entries <= budget:
                return unsubmitted[0]
            head = commit_seq[pos]
            return head if head in unsubmitted else None

        max_in_flight = scheduler.max_in_flight
        if max_in_flight is None:
            # An elastic window must track the *live* membership as
            # workers join and leave; run_iter re-evaluates the callable
            # before each submission (clamped >= 1 so an empty pool
            # queues instead of stalling).
            max_in_flight = (
                executor.backend.worker_count
                if elastic
                else backend_worker_count(executor.backend)
            )
        reports: List[Optional[RankReport]] = [None] * len(order)
        span_cm = (
            tracer.span("engine.stream", ranks=len(order))
            if tracer is not None
            else nullcontext()
        )
        with span_cm:
            for done in executor.run_iter(
                _run_rank_task,
                [make_work(t) for t in order],
                ranks=[t.rank for t in order],
                injector=failure_injector,
                max_in_flight=max_in_flight,
                submit_hook=submit_hook,
            ):
                queue_depth_peak = max(queue_depth_peak, done.in_flight)
                reports[done.index] = done.report
                buffered[done.index] = done.value
                buffered_entries += order[done.index].estimated_entries
                while pos < len(commit_seq) and commit_seq[pos] in buffered:
                    i = commit_seq[pos]
                    buffered_entries -= order[i].estimated_entries
                    commit(order[i], buffered.pop(i))
                    pos += 1
    except (StorageError, FatalRankError, RetryExhaustedError) as exc:
        # Storage is unusable or a rank is unrecoverable: let the sink
        # leave clean state behind (ShardSink commits a `failed`
        # manifest), then re-raise for the caller.  SimulatedCrash is a
        # BaseException and deliberately bypasses this (but not the
        # pool shutdown below — coordinator-side segment reclaim is
        # what the resource tracker would do for a real SIGKILL).
        sink.abort(exc)
        raise
    finally:
        if pool is not None:
            reclaimed = pool.shutdown()
            # The shared C segment is released here by design; anything
            # else still outstanding is a leaked output segment.
            c_name = c_ref.triples.name
            leaked = [n for n in reclaimed if n != c_name]
            if metrics is not None:
                metrics.gauge("engine.shm_leaked").set(len(leaked))
    elapsed = time.perf_counter() - t0
    execution = ExecutionResult(reports=reports)
    if metrics is not None:
        metrics.gauge("engine.queue_depth").set(queue_depth_peak)
        workers = backend_worker_count(executor.backend)
        # Busy time counts every attempt (retries included): it is what
        # the workers actually did with the wall-clock they had.
        busy = sum(a.elapsed_s for r in reports for a in r.attempts)
        if elapsed > 0:
            metrics.gauge("engine.worker_utilization").set(
                min(1.0, busy / (workers * elapsed))
            )
        finals = [
            r.elapsed_s for r in reports if r.attempts and r.attempts[-1].ok
        ]
        if len(finals) >= 2:
            metrics.gauge("engine.straggler_gap_s").set(
                max(0.0, max(finals) - statistics.median(finals))
            )
    stats.sort(key=lambda s: s.rank)
    sink_result = sink.finalize(plan, elapsed_s=elapsed, skipped=skipped)
    return EngineResult(
        plan=plan,
        sink_result=sink_result,
        stats=tuple(stats),
        skipped_ranks=skipped,
        execution=execution,
        elapsed_s=elapsed,
    )
