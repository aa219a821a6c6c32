"""The parallel Kronecker generator: ``Ap = Bp ⊗ C`` per rank.

Given a :class:`~repro.parallel.partition.PartitionPlan`, every rank
independently forms its block of the product.  Blocks report both local
and *global* coordinates, so the union can be assembled (for validation)
or streamed to per-rank edge files without ever holding all of ``A``.

Execution goes through :class:`~repro.runtime.RankExecutor`: per-rank
work is retried on transient failures, timed, metered, and checked for
stragglers.  The default configuration (serial backend, no retries) is
bit-identical to running the ranks in a plain loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.config import RunConfig, resolve_run_config
from repro.engine.execute import execute as engine_execute
from repro.engine.plan import chain_fingerprint, plan_from_partition
from repro.engine.sinks import AssemblySink
from repro.errors import GenerationError
from repro.graphs.adjacency import Graph
from repro.graphs.star import SelfLoop
from repro.kron.chain import KroneckerChain
from repro.parallel.backends import BackendLike, resolve_backend
from repro.parallel.machine import VirtualCluster
from repro.parallel.partition import PartitionPlan, partition_bc
from repro.runtime.events import RankEvents
from repro.runtime.executor import ExecutionResult, RankExecutor

# Re-exported for backwards compatibility; the clamp now lives with the
# other rate-accounting primitives in repro.runtime.metrics.
from repro.runtime.metrics import MIN_ELAPSED_S, MetricsRegistry
from repro.runtime.tracing import Tracer
from repro.sparse.coo import COOMatrix
from repro.sparse.kernels import lex_sort_triples


@dataclass(frozen=True)
class RankBlock:
    """One rank's generated block of A.

    ``block`` is ``Bp ⊗ C`` in local coordinates; rows already span the
    full product row range (B keeps all rows), columns are offset by
    ``col_base * mC``.
    """

    rank: int
    block: COOMatrix
    col_base: int
    c_cols: int
    elapsed_s: float

    @property
    def nnz(self) -> int:
        return self.block.nnz

    def global_triples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of this block in A's global coordinates."""
        offset = self.col_base * self.c_cols
        return self.block.rows, self.block.cols + offset, self.block.vals


class ParallelKroneckerGenerator:
    """Generates a Kronecker product on a simulated cluster.

    Parameters
    ----------
    chain:
        The factor chain of ``A`` (use ``PowerLawDesign.to_chain()``).
    cluster:
        Rank count and memory budget.
    backend:
        A backend name (``"serial"``, ``"thread"``, ``"multiprocessing"``)
        or any :class:`~repro.typing.Backend` instance; defaults to
        serial.
    split_index:
        Optional explicit B/C split; otherwise
        :func:`~repro.parallel.partition.choose_split` decides.
    max_retries:
        Retry budget forwarded to the
        :class:`~repro.runtime.RankExecutor` (0 = fail fast, the
        historical behaviour).
    metrics / tracer / events:
        Observability hooks; per-rank durations, retries, and stragglers
        are recorded when provided.
    executor:
        A fully custom :class:`~repro.runtime.RankExecutor`; overrides
        every executor-related argument above.
    scheduler:
        How ranks are ordered and dispatched; ``None`` submits ranks in
        order with a backend-sized window
        (:class:`~repro.engine.scheduler.StaticScheduler`), a
        :class:`~repro.engine.scheduler.WorkQueueScheduler` submits the
        longest first (output identical).
    """

    def __init__(
        self,
        chain: KroneckerChain,
        cluster: VirtualCluster,
        *,
        backend: BackendLike = None,
        split_index: int | None = None,
        max_retries: int = 0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: RankEvents | None = None,
        executor: RankExecutor | None = None,
        scheduler=None,
        failure_injector: Callable[[int, int], None] | None = None,
    ) -> None:
        self.chain = chain
        self.cluster = cluster
        self.backend = resolve_backend(backend)
        self.scheduler = scheduler
        self.plan: PartitionPlan = partition_bc(chain, cluster, split_index=split_index)
        self._c_matrix = self.plan.c_chain.materialize()
        self.metrics = metrics
        self.failure_injector = failure_injector
        self.executor = executor or RankExecutor(
            self.backend,
            max_retries=max_retries,
            metrics=metrics,
            tracer=tracer,
            events=events,
        )
        self.last_execution: Optional[ExecutionResult] = None

    # -- generation ---------------------------------------------------------
    def generate_blocks(self) -> List[RankBlock]:
        """Run every rank's ``Bp ⊗ C`` and return the blocks in rank order.

        Transient rank failures (including injected ones) are retried by
        the executor within its budget; the per-rank accounting of the
        run is kept in :attr:`last_execution`.

        Work routes through :func:`repro.engine.execute.execute` with an
        :class:`~repro.engine.sinks.AssemblySink`, as many ranks in
        flight as the backend has workers; the cluster's
        ``memory_budget_entries`` doubles as the kernel tile budget, so a block
        larger than the budget is produced in bounded row-slices and the
        returned triples are byte-identical either way.
        """
        c = self._c_matrix
        plan = plan_from_partition(
            self.plan,
            num_vertices=self.chain.num_vertices,
            memory_budget_entries=self.cluster.memory_budget_entries,
            fingerprint=chain_fingerprint(
                self.chain,
                n_ranks=self.cluster.n_ranks,
                split_index=self.plan.split_index,
            ),
            expected_nnz=self.chain.nnz,
            c=c,
        )
        result = engine_execute(
            plan,
            AssemblySink(),
            executor=self.executor,
            config=RunConfig(scheduler=self.scheduler),
            metrics=self.metrics,
            failure_injector=self.failure_injector,
        )
        self.last_execution = result.execution
        bp_rows = {a.rank: a.b_local.shape[0] for a in self.plan.assignments}
        bp_cols = {a.rank: a.b_local.shape[1] for a in self.plan.assignments}
        col_bases = {a.rank: a.col_base for a in self.plan.assignments}
        blocks = []
        for stats in result.stats:
            rank = stats.rank
            rows, cols, vals = result.sink_result.blocks[rank]
            offset = col_bases[rank] * c.shape[1]
            # Subtracting the constant global offset preserves the
            # canonical (row, col) order, so no re-sort is needed.
            local = COOMatrix(
                (bp_rows[rank] * c.shape[0], bp_cols[rank] * c.shape[1]),
                rows,
                cols - offset,
                vals,
                _canonical=True,
            )
            blocks.append(
                RankBlock(
                    rank=rank,
                    block=local,
                    col_base=col_bases[rank],
                    c_cols=c.shape[1],
                    elapsed_s=stats.elapsed_s,
                )
            )
        expected = self.chain.nnz
        produced = sum(b.nnz for b in blocks)
        if produced != expected:
            raise GenerationError(
                f"blocks hold {produced} entries, chain predicts {expected}"
            )
        if self.metrics is not None:
            self.metrics.counter("edges.generated").inc(produced)
            self.metrics.gauge("edges.per_second").set(self.edges_per_second(blocks))
        return blocks

    def assemble(self, blocks: Sequence[RankBlock] | None = None) -> COOMatrix:
        """Union of all rank blocks in global coordinates (validation aid).

        Only possible when the full product fits in memory; the paper's
        production path keeps blocks distributed.
        """
        blocks = list(blocks) if blocks is not None else self.generate_blocks()
        n = self.chain.num_vertices
        rows = np.concatenate([b.global_triples()[0] for b in blocks])
        cols = np.concatenate([b.global_triples()[1] for b in blocks])
        vals = np.concatenate([b.global_triples()[2] for b in blocks])
        rows, cols, vals = lex_sort_triples(rows, cols, vals)
        # Entries are disjoint across ranks, so no coalescing is needed;
        # COOMatrix still verifies index ranges.
        return COOMatrix((n, n), rows, cols, vals, _canonical=True)

    def generate_graph(self, *, remove_loop_at: int | None = None) -> Graph:
        """Assemble the product and optionally remove the design self-loop."""
        adjacency = self.assemble()
        if remove_loop_at is not None:
            adjacency = adjacency.without_self_loop(remove_loop_at)
        return Graph(adjacency)

    # -- rate accounting ---------------------------------------------------------
    def measured_rank_seconds(self, blocks: Sequence[RankBlock]) -> List[float]:
        return [b.elapsed_s for b in blocks]

    def edges_per_second(self, blocks: Sequence[RankBlock]) -> float:
        """Simulated parallel rate: total edges / slowest rank.

        Because ranks are independent (no communication), wall-clock time
        on a real machine with one core per rank is the max of per-rank
        times — the quantity Fig. 3 plots.  Elapsed is clamped to
        :data:`MIN_ELAPSED_S` so tiny designs that measure 0.0 at clock
        resolution report a (huge) rate rather than raising.
        """
        if not blocks:
            raise GenerationError("no blocks to rate")
        slowest = max(max(b.elapsed_s for b in blocks), MIN_ELAPSED_S)
        return sum(b.nnz for b in blocks) / slowest


def generate_design_parallel(
    design,
    n_ranks: int,
    *,
    config: RunConfig | None = None,
    max_retries: int = 0,
    metrics: MetricsRegistry | None = None,
    events: RankEvents | None = None,
) -> Graph:
    """One-call helper: realize a :class:`~repro.design.PowerLawDesign`
    on ``n_ranks`` simulated ranks, removing the design self-loop.

    ``config`` (:class:`~repro.engine.config.RunConfig`) shapes the run:
    backend, scheduler, memory budget, checkpoint directory, resume —
    ``scramble_seed`` only together with ``checkpoint_dir``,
    since the in-memory path returns the unrelabeled graph.

    With a checkpoint directory, generation runs through the crash-safe
    streamed pipeline (:func:`~repro.parallel.stream.generate_to_disk`):
    every rank shard is written atomically and committed to the run
    manifest, and resume re-derives the plan, verifies the design
    fingerprint, and regenerates only missing/invalid shards before
    assembling the graph from disk.
    """
    cfg = resolve_run_config(
        "generate_design_parallel", config, unsupported=("transport", "model")
    )
    budget = (
        cfg.memory_budget_entries
        if cfg.memory_budget_entries is not None
        else 50_000_000
    )
    if cfg.checkpoint_dir is not None:
        from repro.io.tsv import read_rank_files
        from repro.parallel.stream import generate_to_disk

        generate_to_disk(
            design,
            n_ranks,
            cfg.checkpoint_dir,
            config=RunConfig(
                backend=cfg.backend,
                scheduler=cfg.scheduler,
                memory_budget_entries=budget,
                resume=cfg.resume,
                scramble_seed=cfg.scramble_seed,
            ),
            max_retries=max_retries,
            metrics=metrics,
        )
        n = design.num_vertices
        # Shards already have the self-loop removed.
        return Graph(read_rank_files(cfg.checkpoint_dir, (n, n)))
    if cfg.resume:
        raise GenerationError("resume=True requires checkpoint_dir")
    if cfg.scramble_seed is not None:
        raise GenerationError(
            "scramble_seed requires checkpoint_dir: the in-memory path "
            "returns the graph in design labels (relabel via "
            "generate_to_disk instead)"
        )
    cluster = VirtualCluster(n_ranks=n_ranks, memory_budget_entries=budget)
    gen = ParallelKroneckerGenerator(
        design.to_chain(),
        cluster,
        backend=cfg.backend,
        max_retries=max_retries,
        metrics=metrics,
        events=events,
        scheduler=cfg.scheduler,
    )
    loop_vertex = design.loop_vertex if design.self_loop is not SelfLoop.NONE else None
    return gen.generate_graph(remove_loop_at=loop_vertex)
