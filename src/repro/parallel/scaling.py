"""Scaling studies (Fig. 3): edge generation rate vs processor cores.

The paper's Fig. 3 plots aggregate edges/second against core count on a
real 41,472-core machine.  Our substrate is a single machine running
simulated ranks, so the study separates two quantities:

* **measured per-rank rate** — the real, timed throughput of the
  ``Bp ⊗ C`` kernel on this machine at the exact per-rank workload a
  given core count implies;
* **simulated aggregate rate** — ``total_edges / slowest_rank_time``,
  the wall-clock rate a machine with one core per rank would achieve.
  This equality is not an assumption: ranks share no data and perform
  identical-size work (invariants checked by
  :mod:`repro.validate.structure`), which is precisely the property the
  paper demonstrates.

Every figure produced from this module is labelled simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.engine.config import RunConfig, resolve_run_config
from repro.errors import GenerationError
from repro.kron.chain import KroneckerChain
from repro.parallel.backends import BackendLike
from repro.parallel.generator import ParallelKroneckerGenerator
from repro.parallel.machine import VirtualCluster
from repro.runtime.metrics import MIN_ELAPSED_S, MetricsRegistry


@dataclass(frozen=True)
class ScalingPoint:
    """One (core count, rate) sample of the scaling curve."""

    n_ranks: int
    total_edges: int
    slowest_rank_s: float
    mean_rank_s: float
    aggregate_edges_per_s: float
    simulated: bool = True


@dataclass
class ScalingStudy:
    """A Fig.-3-style sweep over rank counts for one design."""

    points: List[ScalingPoint] = field(default_factory=list)

    def rows(self) -> List[dict]:
        return [
            {
                "cores": p.n_ranks,
                "edges": p.total_edges,
                "slowest_rank_s": p.slowest_rank_s,
                "rate_edges_per_s": p.aggregate_edges_per_s,
            }
            for p in self.points
        ]

    def is_linear(self, *, rel_tol: float = 0.5) -> bool:
        """True if rate grows ~linearly in cores across the sweep.

        Compares the rate-per-core of the largest sweep point with that
        of the smallest; embarrassing parallelism keeps the ratio near 1.
        """
        if len(self.points) < 2:
            raise GenerationError("need at least two points to assess linearity")
        first, last = self.points[0], self.points[-1]
        per_core_first = first.aggregate_edges_per_s / first.n_ranks
        per_core_last = last.aggregate_edges_per_s / last.n_ranks
        return abs(per_core_last - per_core_first) <= rel_tol * per_core_first

    def to_text(self) -> str:
        lines = ["cores      edges            slowest-rank(s)   rate(edges/s, simulated)"]
        for p in self.points:
            lines.append(
                f"{p.n_ranks:<10,} {p.total_edges:<16,} {p.slowest_rank_s:<17.6f} "
                f"{p.aggregate_edges_per_s:,.3e}"
            )
        return "\n".join(lines)


def measure_rank_rate(
    chain: KroneckerChain,
    cluster: VirtualCluster,
    *,
    backend: BackendLike = None,
    scheduler=None,
    max_retries: int = 0,
    metrics: MetricsRegistry | None = None,
) -> ScalingPoint:
    """Generate ``chain`` on ``cluster`` and time every rank's kernel."""
    gen = ParallelKroneckerGenerator(
        chain,
        cluster,
        backend=backend,
        scheduler=scheduler,
        max_retries=max_retries,
        metrics=metrics,
    )
    blocks = gen.generate_blocks()
    times = [b.elapsed_s for b in blocks]
    total = sum(b.nnz for b in blocks)
    slowest = max(times)
    return ScalingPoint(
        n_ranks=cluster.n_ranks,
        total_edges=total,
        slowest_rank_s=slowest,
        mean_rank_s=sum(times) / len(times),
        aggregate_edges_per_s=total / max(slowest, MIN_ELAPSED_S),
    )


def run_scaling_study(
    chain: KroneckerChain,
    rank_counts: Sequence[int],
    *,
    config: RunConfig | None = None,
    max_retries: int = 0,
    metrics: MetricsRegistry | None = None,
) -> ScalingStudy:
    """Sweep ``rank_counts`` and collect the scaling curve for ``chain``.

    ``config`` honours ``backend``, ``scheduler``, and
    ``memory_budget_entries``.
    """
    cfg = resolve_run_config(
        "run_scaling_study",
        config,
        unsupported=("transport", "checkpoint_dir", "resume", "scramble_seed", "model"),
    )
    budget = (
        cfg.memory_budget_entries
        if cfg.memory_budget_entries is not None
        else 50_000_000
    )
    study = ScalingStudy()
    for n in rank_counts:
        cluster = VirtualCluster(
            n_ranks=int(n), memory_budget_entries=budget
        )
        study.points.append(
            measure_rank_rate(
                chain,
                cluster,
                backend=cfg.backend,
                scheduler=cfg.scheduler,
                max_retries=max_retries,
                metrics=metrics,
            )
        )
    return study


def extrapolate_rate(
    per_rank_edges: int,
    per_rank_seconds: float,
    n_ranks: int,
) -> float:
    """Aggregate rate of ``n_ranks`` independent ranks at a measured
    per-rank workload — used to extend the Fig. 3 curve to core counts
    beyond this machine (always labelled simulated by callers)."""
    if per_rank_seconds <= 0:
        raise GenerationError("per-rank time must be positive")
    return n_ranks * per_rank_edges / per_rank_seconds

