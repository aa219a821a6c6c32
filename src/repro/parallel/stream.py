"""Streaming (out-of-core) generation and validation, crash-safe.

The paper's production mode never assembles ``A``: each rank writes its
block to its own file and downstream systems consume the files.  This
module reproduces that pipeline end to end on one machine — since the
engine refactor it is a thin adapter: :func:`generate_to_disk` is
:func:`repro.engine.execute.execute` over a
:class:`~repro.engine.sinks.ShardSink` with a one-rank in-flight window,
and :func:`streamed_degree_distribution` the same over a
:class:`~repro.engine.sinks.DegreeSink`.  Memory now obeys the budget
*within* a rank too: blocks larger than ``memory_budget_entries`` are
produced in bounded row-slice tiles (:func:`repro.kron.kron_tiles`) and
streamed to disk incrementally, with bytes, checksums, and the manifest
identical to whole-block writes.

* :func:`generate_to_disk` — iterate ranks, form ``Ap = Bp ⊗ C``, write
  it atomically (temp file → fsync → rename) with a SHA-256 checksum,
  commit it to the run manifest, drop it;
* **resume** — ``generate_to_disk(..., config=RunConfig(resume=True))``
  re-derives the plan, verifies the design fingerprint against the
  existing ``manifest.json``, validates surviving shards against their
  recorded checksums (quarantining corrupt ones as ``*.corrupt``), and
  regenerates only the missing/invalid ranks through the
  :class:`~repro.runtime.RankExecutor` retry path;
* :func:`verify_shards` — recompute every shard checksum and cross-check
  total nnz and the streamed degree distribution against the
  closed-form prediction (the CLI's ``verify-shards``);
* :func:`validate_streamed` — the measured==predicted degree check for
  graphs bigger than RAM (bounded by the tile budget only).

Because every rank block is a pure function of (design, partition,
scramble seed), an interrupted-then-resumed run produces shards and a
manifest byte-identical to an uninterrupted one — which is exactly what
the durability tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.design.distribution import DegreeDistribution
from repro.design.star_design import PowerLawDesign
from repro.engine.config import RunConfig, resolve_run_config
from repro.engine.execute import execute as engine_execute
from repro.engine.plan import plan_from_design, plan_from_model
from repro.engine.scheduler import StaticScheduler
from repro.engine.sinks import (  # noqa: F401  (re-exported, historical home)
    DegreeSink,
    ShardSink,
    StreamingDegreeAccumulator,
    StreamSummary,
)
from repro.errors import IOFormatError, ManifestError
from repro.models import resolve_model
from repro.runtime.checkpoint import (
    STATUS_COMPLETE,
    RunManifest,
    design_fingerprint,
    verify_shard_record,
)
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.tracing import Tracer
from repro.validate.degree_check import DegreeCheck, check_degree_distribution


def generate_to_disk(
    design: PowerLawDesign,
    n_ranks: int,
    directory: str | Path,
    *,
    config: RunConfig | None = None,
    prefix: str = "edges",
    max_retries: int = 0,
    failure_injector: Callable[[int, int], None] | None = None,
    crash_hook: Callable[[int, int], None] | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> StreamSummary:
    """Generate ``design`` rank by rank, writing per-rank TSV shards
    crash-safely.

    Holds at most one budget-sized tile of one block at a time; the
    design self-loop (if any) is removed from the owning rank's block
    before writing, so the files are the *final* graph.  Every shard is
    written atomically (temp file → fsync → rename), checksummed, and
    committed to ``manifest.json`` (also atomic) before the next rank
    starts — killing the process at any instant leaves a valid partial
    checkpoint.

    ``config`` (:class:`~repro.engine.config.RunConfig`) carries the
    run-shaping choices; every field but ``checkpoint_dir`` (the
    directory is positional here) is honoured:

    ``memory_budget_entries``
        Per-tile budget in stored entries (default 50M).
    ``scramble_seed``
        Apply the Graph500-style affine vertex scramble to the written
        labels (degree/triangle statistics are label-invariant, so
        validation is unaffected).  Recorded in the manifest
        fingerprint: a resume with a different seed is refused.
    ``resume``
        Load an existing manifest, verify its design fingerprint,
        checksum-validate surviving shards (quarantining corrupt ones to
        ``*.corrupt``), and regenerate only missing/invalid ranks.
    ``backend``
        Per-rank work runs through a
        :class:`~repro.runtime.RankExecutor` on this backend, so
        transient failures retry with backoff (``max_retries``,
        ``failure_injector``) exactly as in ``generate_design_parallel``.
    ``scheduler``
        ``None`` (the default) submits ranks in order one at a time
        (``StaticScheduler(max_in_flight=1)``), so each rank commits
        before the next starts; pass a wider window or a
        :class:`~repro.engine.scheduler.WorkQueueScheduler` to overlap
        ranks on the backend's workers — the engine's reorder buffer
        keeps shard bytes and manifest byte-identical.
    ``transport``
        ``None`` (the default) writes shards directly.  A transport name
        (``"inproc"``, ``"socket"``) routes every tile through
        :mod:`repro.net` instead: the engine streams frames over the
        transport to a :class:`~repro.net.TileCollector` feeding this
        same :class:`~repro.engine.sinks.ShardSink`, and the written
        shards, ``manifest.json``, and resume state are byte-identical
        to the direct path — the single-machine rehearsal of the
        distributed collection deployment.
    ``model``
        The generator model: the default (``None`` or ``"kron"``)
        streams the design exactly as always; ``"skg"`` /
        ``"noisy-skg"`` (or a :class:`~repro.models.GeneratorModel`
        instance) stream the stochastic Kronecker family matched to the
        design's scale through the identical shard/manifest/resume
        pipeline — the manifest fingerprint then carries the model id
        and seed, so a resume against a different model or seed is
        refused.

    ``crash_hook(rank, completed_count)`` is invoked after each rank is
    durably committed — :class:`~repro.runtime.CrashInjector` raises
    from here to simulate a mid-run death in tests.

    Metrics: ``checkpoint.ranks_skipped`` (reused from checkpoint),
    ``checkpoint.ranks_regenerated``, ``checkpoint.shards_quarantined``,
    ``checkpoint.manifest_writes``, the per-rank ``stream.rank_s`` /
    ``stream.edges_written``, and the engine's ``engine.tiles`` /
    ``engine.peak_tile_entries``.
    """
    cfg = resolve_run_config(
        "generate_to_disk", config, unsupported=("checkpoint_dir",)
    )
    budget = (
        cfg.memory_budget_entries
        if cfg.memory_budget_entries is not None
        else 50_000_000
    )
    model = resolve_model(cfg.model, design=design)
    if model is not None:
        plan = plan_from_model(
            model,
            n_ranks,
            memory_budget_entries=budget,
            scramble_seed=cfg.scramble_seed,
            kernel=cfg.kernel,
        )
    else:
        plan = plan_from_design(
            design,
            n_ranks,
            memory_budget_entries=budget,
            scramble_seed=cfg.scramble_seed,
            kernel=cfg.kernel,
        )
    sink = ShardSink(
        directory, prefix=prefix, resume=cfg.resume, crash_hook=crash_hook
    )
    # One rank in flight by default: the sink commits after every rank
    # and at most one rank's results are held between commits.
    engine_config = RunConfig(
        backend=cfg.backend,
        scheduler=cfg.scheduler or StaticScheduler(max_in_flight=1),
    )
    if cfg.transport is not None:
        from repro.net import execute_over_transport

        result = execute_over_transport(
            plan,
            sink,
            transport=cfg.transport,
            config=engine_config,
            metrics=metrics,
            tracer=tracer,
            max_retries=max_retries,
            failure_injector=failure_injector,
        )
    else:
        result = engine_execute(
            plan,
            sink,
            config=engine_config,
            metrics=metrics,
            tracer=tracer,
            max_retries=max_retries,
            failure_injector=failure_injector,
        )
    return result.sink_result


# -- shard verification -------------------------------------------------------
@dataclass(frozen=True)
class ShardVerification:
    """Outcome of :func:`verify_shards` over one shard directory."""

    directory: str
    n_ranks: int
    status: str
    total_nnz: int
    expected_nnz: int
    ok_ranks: Tuple[int, ...]
    bad_ranks: Tuple[int, ...]
    failures: Tuple[str, ...]
    degree_check: Optional[DegreeCheck]

    @property
    def passed(self) -> bool:
        return (
            not self.bad_ranks
            and self.status == STATUS_COMPLETE
            and self.total_nnz == self.expected_nnz
            and (self.degree_check is None or self.degree_check.exact_match)
        )

    def to_text(self) -> str:
        lines = [
            f"shard verification of {self.directory}",
            f"  manifest status: {self.status}",
            f"  shards intact:   {len(self.ok_ranks)}/{self.n_ranks}",
            f"  total nnz:       {self.total_nnz:,} "
            f"(predicted {self.expected_nnz:,})",
        ]
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        if self.degree_check is not None:
            verdict = "EXACT" if self.degree_check.exact_match else "MISMATCH"
            lines.append(f"  degree distribution vs prediction: {verdict}")
        elif self.bad_ranks:
            lines.append("  degree check skipped (corrupt/missing shards)")
        lines.append("VERIFICATION " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def verify_shards(
    directory: str | Path,
    *,
    design: PowerLawDesign | None = None,
    check_degrees: bool = True,
) -> ShardVerification:
    """Recompute every shard checksum in ``directory`` and cross-check
    the totals against the closed-form prediction.

    The manifest's fingerprint carries the star sizes and loop policy,
    so the design is reconstructed from it when not supplied.  When all
    shards are intact (and ``check_degrees``), the streamed degree
    distribution is compared to the design's exact prediction — the
    Fig.-4 measured==predicted check run purely from disk.

    Shards written by a stochastic generator model (the fingerprint
    carries a ``model`` field) have no exact closed-form degree
    prediction; for those, checksums and the total edge count recorded
    in the fingerprint are verified and the degree comparison is
    skipped.
    """
    directory = Path(directory)
    manifest = RunManifest.load(directory)
    fp = manifest.fingerprint
    failures: List[str] = []
    model_run = design is None and "model" in fp
    if model_run:
        expected_nnz = int(fp.get("num_edges", 0))
        check_degrees = False
    else:
        if design is None:
            try:
                design = PowerLawDesign(fp["star_sizes"], fp["self_loop"])
            except KeyError as exc:
                raise ManifestError(
                    f"manifest fingerprint missing field {exc}; cannot "
                    "reconstruct the design (pass design= explicitly)"
                ) from exc
        expected_fp = design_fingerprint(
            design,
            n_ranks=manifest.n_ranks,
            scramble_seed=fp.get("scramble_seed"),
        )
        if not manifest.matches_fingerprint(expected_fp):
            failures.append(
                "manifest fingerprint does not match the supplied design"
            )
        expected_nnz = design.num_edges
    ok_ranks: List[int] = []
    bad_ranks: List[int] = []
    for rank in range(manifest.n_ranks):
        record = manifest.shards.get(rank)
        if record is None:
            bad_ranks.append(rank)
            failures.append(f"rank {rank}: no shard recorded in manifest")
            continue
        ok, reason = verify_shard_record(directory, record)
        if ok:
            ok_ranks.append(rank)
        else:
            bad_ranks.append(rank)
            failures.append(f"rank {rank}: {reason}")
    total_nnz = sum(manifest.shards[r].nnz for r in ok_ranks)
    degree_check = None
    if check_degrees and not bad_ranks and not failures:
        files = [directory / manifest.shards[r].filename for r in ok_ranks]
        measured = read_streamed_degree_distribution(files, design.num_vertices)
        degree_check = check_degree_distribution(
            measured, design.degree_distribution
        )
    return ShardVerification(
        directory=str(directory),
        n_ranks=manifest.n_ranks,
        status=manifest.status,
        total_nnz=total_nnz,
        expected_nnz=expected_nnz,
        ok_ranks=tuple(ok_ranks),
        bad_ranks=tuple(bad_ranks),
        failures=tuple(failures),
        degree_check=degree_check,
    )


def streamed_degree_distribution(
    design: PowerLawDesign,
    n_ranks: int,
    *,
    config: RunConfig | None = None,
) -> DegreeDistribution:
    """Measured degree distribution, one budget-sized tile at a time.

    ``config`` honours ``backend``, ``scheduler`` (default: one rank in
    flight, like :func:`generate_to_disk`), ``memory_budget_entries``,
    ``kernel``, and ``model``.
    """
    cfg = resolve_run_config(
        "streamed_degree_distribution",
        config,
        unsupported=("transport", "checkpoint_dir", "resume", "scramble_seed"),
    )
    budget = (
        cfg.memory_budget_entries
        if cfg.memory_budget_entries is not None
        else 50_000_000
    )
    model = resolve_model(cfg.model, design=design)
    if model is not None:
        plan = plan_from_model(
            model, n_ranks, memory_budget_entries=budget, kernel=cfg.kernel
        )
    else:
        plan = plan_from_design(
            design, n_ranks, memory_budget_entries=budget, kernel=cfg.kernel
        )
    result = engine_execute(
        plan,
        DegreeSink(),
        config=RunConfig(
            backend=cfg.backend,
            scheduler=cfg.scheduler or StaticScheduler(max_in_flight=1),
        ),
    )
    return result.sink_result.distribution()


def validate_streamed(
    design: PowerLawDesign,
    n_ranks: int,
    *,
    memory_budget_entries: int = 50_000_000,
) -> DegreeCheck:
    """The Fig.-4 measured==predicted degree check, out of core."""
    measured = streamed_degree_distribution(
        design,
        n_ranks,
        config=RunConfig(memory_budget_entries=memory_budget_entries),
    )
    return check_degree_distribution(measured, design.degree_distribution)


#: Bytes per read in the chunked shard parser — large enough that numpy
#: decoding dominates, small enough to stay out of the way of the one
#: budget-sized-tile memory story.
_READ_CHUNK_BYTES = 1 << 24


def read_streamed_degree_distribution(
    files: Sequence[str | Path],
    num_vertices: int,
    *,
    chunk_bytes: int = _READ_CHUNK_BYTES,
) -> DegreeDistribution:
    """Recompute the degree histogram from on-disk rank files, one
    chunk in memory at a time (the downstream consumer's validation
    path).

    Decoding is chunked and vectorized: each ~``chunk_bytes`` slab is
    cut at its last newline and parsed in one ``np.fromstring`` call
    (tab- and newline-separated int64s), then the row column is taken by
    stride — about an order of magnitude faster than per-line ``int()``
    (``tools/bench_smoke.py`` asserts a throughput floor).
    """
    accumulator = StreamingDegreeAccumulator(num_vertices)
    for path in files:
        with open(path, "r", encoding="ascii") as fh:
            tail = ""
            while True:
                text = fh.read(chunk_bytes)
                if not text:
                    break
                text = tail + text
                cut = text.rfind("\n")
                if cut < 0:
                    tail = text
                    continue
                tail = text[cut + 1 :]
                arr = np.fromstring(text[: cut + 1], dtype=np.int64, sep="\t")
                if arr.size % 3:
                    raise IOFormatError(
                        f"{path}: malformed TSV shard (token count "
                        f"{arr.size} is not a multiple of 3)"
                    )
                accumulator.add_block_rows(arr[0::3])
            if tail.strip():
                raise IOFormatError(
                    f"{path}: trailing partial line {tail!r}"
                )
    return accumulator.distribution()
