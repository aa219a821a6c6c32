"""Full-curve Fig.-3 simulation from real per-rank workloads.

For each requested core count ``Np``, this module partitions the *actual*
target graph (e.g. the paper's trillion-edge design), generates ONE real
rank block at that ``Np``, times the kernel, and reports the aggregate
rate a zero-communication machine with ``Np`` such cores would achieve.
Unlike a scaled-down sweep, every timed workload is the true per-rank
workload of the corresponding cluster size — only the *replication*
across ranks is simulated, justified by the disjointness/balance
invariants the validators check.

Points whose single block exceeds the memory budget are skipped with an
explicit reason (never silently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.design.star_design import PowerLawDesign
from repro.engine.config import RunConfig, resolve_run_config
from repro.engine.execute import execute as engine_execute
from repro.engine.plan import plan_from_partition
from repro.engine.sinks import AssemblySink
from repro.errors import PartitionError
from repro.parallel.partition import PartitionPlan, partition_rank
from repro.runtime.metrics import MIN_ELAPSED_S, MetricsRegistry


@dataclass(frozen=True)
class CurvePoint:
    """One simulated point of the rate-vs-cores curve."""

    cores: int
    per_rank_edges: int
    per_rank_seconds: float
    aggregate_edges_per_s: float
    measured: bool
    skip_reason: str = ""

    def to_text(self) -> str:
        if not self.measured:
            return f"{self.cores:>8,} cores: skipped ({self.skip_reason})"
        return (
            f"{self.cores:>8,} cores: {self.per_rank_edges:,} edges/rank in "
            f"{self.per_rank_seconds:.3f}s -> {self.aggregate_edges_per_s:.3e} "
            f"edges/s (simulated)"
        )


@dataclass(frozen=True)
class SimulatedCurve:
    """The Fig.-3-style curve for one design."""

    design_sizes: tuple
    points: tuple

    def measured_points(self) -> List[CurvePoint]:
        return [p for p in self.points if p.measured]

    def peak_rate(self) -> float:
        measured = self.measured_points()
        if not measured:
            raise PartitionError("no core count was measurable under the budget")
        return max(p.aggregate_edges_per_s for p in measured)

    def to_text(self) -> str:
        return "\n".join(p.to_text() for p in self.points)


def simulate_rate_curve(
    design: PowerLawDesign,
    core_counts: Sequence[int],
    *,
    config: RunConfig | None = None,
    split_index: int | None = None,
    repeats: int = 1,
    metrics: MetricsRegistry | None = None,
) -> SimulatedCurve:
    """Measure the true rank-0 workload of ``design`` at each core count.

    ``split_index`` defaults to the last factor boundary that keeps C
    materializable; the same B/C split is used at every core count (as
    in the paper, where B and C are fixed and only Np varies).  With
    ``metrics``, every measured point lands in the ``simulate.rank_s``
    histogram and the skip count in ``simulate.points_skipped``.

    ``config`` shapes the run: its ``memory_budget_entries`` is this
    function's block budget (default 40M entries), and ``backend`` /
    ``kernel`` shape the timed kernel runs.
    """
    cfg = resolve_run_config(
        "simulate_rate_curve",
        config,
        unsupported=(
            "scheduler",
            "transport",
            "checkpoint_dir",
            "resume",
            "scramble_seed",
            "model",
        ),
    )
    budget = (
        cfg.memory_budget_entries
        if cfg.memory_budget_entries is not None
        else 40_000_000
    )
    engine_config = RunConfig(backend=cfg.backend)
    chain = design.to_chain()
    nnzs = [f.nnz for f in chain.factors]
    if split_index is None:
        # Largest-B split with both halves under the budget (more B
        # triples -> finer, more representative rank slicing).
        prefix = 1
        total = 1
        for v in nnzs:
            total *= v
        best_k = None
        best_prefix = -1
        for k in range(1, chain.num_factors):
            prefix *= nnzs[k - 1]
            suffix = total // prefix
            if suffix <= budget and prefix <= budget:
                if prefix > best_prefix:
                    best_prefix = prefix
                    best_k = k
        if best_k is None:
            raise PartitionError(
                f"no split of factor nnzs {nnzs} keeps both halves under "
                f"{budget:,} entries"
            )
        split_index = best_k
    b_chain, c_chain = chain.split(split_index)
    if b_chain.nnz > budget:
        raise PartitionError(
            f"B half has {b_chain.nnz:,} entries, above the "
            f"{budget:,} budget"
        )
    b = b_chain.materialize()
    c = c_chain.materialize()
    points: List[CurvePoint] = []
    for cores in core_counts:
        cores = int(cores)
        if cores < 1 or cores > b.nnz:
            points.append(
                CurvePoint(
                    cores=cores,
                    per_rank_edges=0,
                    per_rank_seconds=0.0,
                    aggregate_edges_per_s=0.0,
                    measured=False,
                    skip_reason=f"need 1 <= cores <= nnz(B)={b.nnz:,}",
                )
            )
            if metrics is not None:
                metrics.counter("simulate.points_skipped").inc()
            continue
        # Only rank 0's slice is ever timed; partition_rank builds just
        # that one, so probing 40k-core layouts stays O(sort) instead of
        # materializing 40k assignments.
        assignment = partition_rank(b, cores, 0)
        block_entries = assignment.nnz * c.nnz
        if block_entries > budget:
            points.append(
                CurvePoint(
                    cores=cores,
                    per_rank_edges=block_entries,
                    per_rank_seconds=0.0,
                    aggregate_edges_per_s=0.0,
                    measured=False,
                    skip_reason=(
                        f"rank block of {block_entries:,} entries exceeds "
                        f"budget {budget:,}"
                    ),
                )
            )
            if metrics is not None:
                metrics.counter("simulate.points_skipped").inc()
            continue
        plan = plan_from_partition(
            PartitionPlan(
                split_index=split_index,
                b_chain=b_chain,
                c_chain=c_chain,
                assignments=(assignment,),
            ),
            num_vertices=chain.num_vertices,
            memory_budget_entries=budget,
            kernel=cfg.kernel,
            c=c,
        )
        best = float("inf")
        produced = 0
        for _ in range(max(1, repeats)):
            result = engine_execute(plan, AssemblySink(), config=engine_config)
            best = min(best, result.stats[0].elapsed_s)
            produced = result.stats[0].nnz
        if metrics is not None:
            metrics.histogram("simulate.rank_s").observe(best)
        points.append(
            CurvePoint(
                cores=cores,
                per_rank_edges=produced,
                per_rank_seconds=best,
                aggregate_edges_per_s=cores * produced / max(best, MIN_ELAPSED_S),
                measured=True,
            )
        )
    return SimulatedCurve(design_sizes=tuple(design.star_sizes), points=tuple(points))
