"""Sinks: where generated tiles go, decoupled from how they are made.

The engine worker streams each rank block through a *consumer* (created
inside the worker, so retries start from a clean slate) and the
coordinator-side *sink* turns committed rank outcomes into the run's
result.  Three sinks cover the repo's historical drivers:

* :class:`AssemblySink` — accumulate every rank's global-coordinate
  triples in memory (the validating generator);
* :class:`ShardSink` — write each rank's TSV shard atomically, commit it
  to the crash-safe run manifest, support resume (the streamed
  generator);
* :class:`DegreeSink` — fold tile row indices into the exact degree
  histogram, storing no edges at all.

Consumers and their factories are module-level and picklable so the
multiprocessing backend works unchanged.  The serialized byte stream and
the manifest bookkeeping reproduce ``parallel.stream`` exactly: shards
written tile-by-tile through :class:`~repro.runtime.checkpoint.ShardWriter`
are byte- and checksum-identical to the old whole-payload writes.

NOTE Imports from ``repro.parallel`` are function-local only — see
:mod:`repro.engine.plan` on the import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.design.distribution import DegreeDistribution
from repro.errors import GenerationError, StorageError
from repro.runtime.checkpoint import (
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_IN_PROGRESS,
    RunManifest,
    ShardRecord,
    ShardWriter,
    classify_storage_error,
    quarantine_shard,
    verify_shard_record,
)
from repro.runtime.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.engine.execute import TaskOutcome
    from repro.engine.plan import GenerationPlan, RankTask
    from repro.sparse.coo import COOMatrix


# -- accounting types (moved from parallel.stream; re-exported there) ---------
@dataclass(frozen=True)
class StreamSummary:
    """Accounting for one streamed generation run.

    ``files`` holds the absolute shard paths as strings (convertible
    with ``Path(p)``), sorted by rank — index ``i`` is always rank
    ``i``'s shard, whether it was generated this run or reused from a
    checkpoint.
    """

    n_ranks: int
    total_edges: int
    max_block_edges: int
    files: Tuple[str, ...]
    elapsed_s: float
    skipped_ranks: int = 0
    manifest_path: Optional[str] = None

    @property
    def peak_block_fraction(self) -> float:
        """Largest single block as a fraction of the whole graph — the
        memory high-water mark relative to full assembly."""
        return self.max_block_edges / self.total_edges if self.total_edges else 0.0


class StreamingDegreeAccumulator:
    """Folds rank blocks into an exact global degree histogram.

    Works because the paper's partition is column-disjoint: every rank
    block spans all rows, and a vertex's degree is the sum of its row
    counts across blocks.  Accumulates an int64 per-vertex vector, which
    at ~10⁸ vertices is the real bound (8 bytes/vertex), far below the
    edge count the full matrix would need.
    """

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 1:
            raise GenerationError("graph must have at least one vertex")
        self.num_vertices = num_vertices
        self._row_counts = np.zeros(num_vertices, dtype=np.int64)
        self.edges_seen = 0

    def add_block_rows(self, rows: np.ndarray) -> None:
        """Fold one block's row indices in."""
        if len(rows):
            self._row_counts += np.bincount(rows, minlength=self.num_vertices)
            self.edges_seen += len(rows)

    def add_counts(self, counts: np.ndarray, edges: int) -> None:
        """Fold a pre-binned per-vertex count vector in (worker-side
        bincounts travel back as one vector, not per-edge rows)."""
        if edges:
            self._row_counts += counts
            self.edges_seen += int(edges)

    def remove_self_loop(self, vertex: int) -> None:
        """Account for the design's loop-removal at ``vertex``."""
        if self._row_counts[vertex] < 1:
            raise GenerationError(f"vertex {vertex} has no entries to remove")
        self._row_counts[vertex] -= 1
        self.edges_seen -= 1

    def distribution(self) -> DegreeDistribution:
        """The accumulated exact degree distribution."""
        degrees, counts = np.unique(self._row_counts, return_counts=True)
        return DegreeDistribution(
            {int(d): int(c) for d, c in zip(degrees, counts)}
        )


# -- serialization / writer seams ---------------------------------------------
def _serialize_tile(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> Tuple[bytes, int]:
    """One tile as TSV bytes (the exact historical shard line format).

    This f-string path is the serialization *oracle*: the native encoder
    (:func:`repro.kron._fast.encode_tile_native`) must produce identical
    bytes, and the kernel byte-identity tests compare against this."""
    lines = [
        f"{int(r)}\t{int(c)}\t{int(v)}\n" for r, c, v in zip(rows, cols, vals)
    ]
    return "".join(lines).encode("ascii"), len(lines)


def _serialize_tile_native(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> Tuple[bytes, int]:
    """Compiled TSV encode — byte-identical to :func:`_serialize_tile`."""
    from repro.kron._fast import encode_tile_native

    return encode_tile_native(rows, cols, vals), len(rows)


def _open_shard_writer(path: Path) -> ShardWriter:
    """Open the incremental writer for one shard (monkeypatch seam for
    storage-failure tests)."""
    return ShardWriter(path)


# -- consumers (worker-side, module-level for pickling) -----------------------
class BlockConsumer:
    """Accumulate a rank's global-coordinate tiles in memory."""

    def __init__(self) -> None:
        self._rows: List[np.ndarray] = []
        self._cols: List[np.ndarray] = []
        self._vals: List[np.ndarray] = []

    def consume(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals)

    def result(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self._rows:
            # int64 empties: concatenation with real triples must not
            # promote the value dtype.
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        return (
            np.concatenate(self._rows),
            np.concatenate(self._cols),
            np.concatenate(self._vals),
        )

    def abort(self) -> None:
        pass


@dataclass(frozen=True)
class _BlockConsumerFactory:
    def __call__(self, rank: int) -> BlockConsumer:
        return BlockConsumer()


class ShardConsumer:
    """Stream a rank's tiles into an atomic on-disk shard.

    Fatal storage errors (disk full, permission, read-only) reclassify
    as :class:`~repro.errors.StorageError` so the executor aborts
    instead of burning its retry budget on a full disk.
    """

    def __init__(
        self, directory: str, filename: str, rank: int, kernel: str = "numpy"
    ) -> None:
        self.filename = filename
        self.rank = rank
        self._nnz = 0
        self._serialize = (
            _serialize_tile_native if kernel == "native" else _serialize_tile
        )
        try:
            self._writer = _open_shard_writer(Path(directory) / filename)
        except OSError as exc:
            raise classify_storage_error(
                exc, f"writing shard {filename}"
            ) from exc

    def consume(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        data, count = self._serialize(rows, cols, vals)
        try:
            self._writer.write(data)
        except OSError as exc:
            raise classify_storage_error(
                exc, f"writing shard {self.filename}"
            ) from exc
        self._nnz += count

    def result(self) -> ShardRecord:
        try:
            size = self._writer.size_bytes
            checksum = self._writer.close()
        except OSError as exc:
            raise classify_storage_error(
                exc, f"writing shard {self.filename}"
            ) from exc
        return ShardRecord(
            rank=self.rank,
            filename=self.filename,
            nnz=self._nnz,
            checksum=checksum,
            size_bytes=size,
        )

    def abort(self) -> None:
        self._writer.discard()


@dataclass(frozen=True)
class _ShardConsumerFactory:
    directory: str
    prefix: str
    kernel: str = "numpy"

    def __call__(self, rank: int) -> ShardConsumer:
        return ShardConsumer(
            self.directory, f"{self.prefix}.{rank}.tsv", rank, kernel=self.kernel
        )


class DegreeConsumer:
    """Bin a rank's tile rows into a per-vertex count vector."""

    def __init__(self, num_vertices: int) -> None:
        self._counts = np.zeros(num_vertices, dtype=np.int64)
        self._edges = 0
        self._num_vertices = num_vertices

    def consume(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        if len(rows):
            self._counts += np.bincount(rows, minlength=self._num_vertices)
            self._edges += len(rows)

    def result(self) -> Tuple[np.ndarray, int]:
        return self._counts, self._edges

    def abort(self) -> None:
        pass


@dataclass(frozen=True)
class _DegreeConsumerFactory:
    num_vertices: int

    def __call__(self, rank: int) -> DegreeConsumer:
        return DegreeConsumer(self.num_vertices)


# -- sinks (coordinator-side) -------------------------------------------------
#: Sentinel distinguishing "never finalized" from a legitimate None result.
_UNFINALIZED = object()


class Sink:
    """Where committed rank outcomes go.

    Lifecycle, driven by :func:`repro.engine.execute.execute`:
    ``open(plan)`` (returns ranks already complete, to skip) →
    ``consumer_factory(task)`` per task (pickled into the worker) →
    ``commit(task, outcome)`` per completed task, in ascending rank
    order → ``finalize(plan, elapsed_s=..., skipped=...)``
    on success, or ``abort(exc)`` on a fatal error before it re-raises.

    The public methods are a template: they enforce the lifecycle state
    machine once, for every sink, and delegate to the ``_open`` /
    ``_commit`` / ``_abort`` / ``_finalize`` hooks subclasses override.
    The enforced contract (what the conformance suite asserts):

    * ``abort`` is **idempotent** — the reorder-buffer loop and
      ``execute()``'s outer handler can both observe one failure, so a
      second (or later) ``abort`` is a no-op, as is ``abort`` after
      ``finalize`` or before ``open``;
    * ``commit`` after ``abort`` or ``finalize`` raises
      :class:`~repro.errors.GenerationError` — a torn-down sink must
      never silently swallow a rank's output;
    * ``finalize`` after ``abort`` raises — there is no valid result;
    * ``finalize`` is **idempotent** — a second call returns the first
      call's cached result without re-running side effects;
    * ``open`` resets the state machine, so a sink instance whose run
      never started can be reused.
    """

    _aborted: bool = False
    _finalized: object = _UNFINALIZED

    #: What the worker payload *is*.  ``"triples"`` promises the payload
    #: is a ``(rows, cols, vals)`` int64 tuple, which lets the engine
    #: route it through the zero-copy shared-memory pool on capable
    #: backends; ``"opaque"`` payloads always travel by pickle.
    payload_kind: str = "opaque"

    def open(
        self, plan: "GenerationPlan", *, metrics: MetricsRegistry | None = None
    ) -> Tuple[int, ...]:
        self._aborted = False
        self._finalized = _UNFINALIZED
        return self._open(plan, metrics=metrics)

    def consumer_factory(self, task: "RankTask"):
        raise NotImplementedError

    def commit(self, task: "RankTask", outcome: "TaskOutcome") -> None:
        if self._aborted:
            raise GenerationError(
                f"cannot commit rank {task.rank}: the sink was aborted"
            )
        if self._finalized is not _UNFINALIZED:
            raise GenerationError(
                f"cannot commit rank {task.rank}: the sink was finalized"
            )
        self._commit(task, outcome)

    def abort(self, exc: BaseException) -> None:
        if self._aborted or self._finalized is not _UNFINALIZED:
            return
        self._aborted = True
        self._abort(exc)

    def finalize(
        self, plan: "GenerationPlan", *, elapsed_s: float, skipped: Tuple[int, ...]
    ):
        if self._aborted:
            raise GenerationError("cannot finalize an aborted sink")
        if self._finalized is not _UNFINALIZED:
            return self._finalized
        result = self._finalize(plan, elapsed_s=elapsed_s, skipped=skipped)
        self._finalized = result
        return result

    # -- subclass hooks ------------------------------------------------------
    def _open(
        self, plan: "GenerationPlan", *, metrics: MetricsRegistry | None = None
    ) -> Tuple[int, ...]:
        return ()

    def _commit(self, task: "RankTask", outcome: "TaskOutcome") -> None:
        pass

    def _abort(self, exc: BaseException) -> None:
        pass

    def _finalize(
        self, plan: "GenerationPlan", *, elapsed_s: float, skipped: Tuple[int, ...]
    ):
        raise NotImplementedError


@dataclass(frozen=True)
class AssemblyResult:
    """All rank blocks as global-coordinate triples, keyed by rank."""

    plan: "GenerationPlan"
    blocks: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def total_nnz(self) -> int:
        return sum(len(r) for r, _, _ in self.blocks.values())

    def matrix(self) -> "COOMatrix":
        """The assembled union ``A`` (validation aid; needs the full
        product to fit in memory)."""
        from repro.sparse.coo import COOMatrix
        from repro.sparse.kernels import lex_sort_triples

        n = self.plan.num_vertices
        order = sorted(self.blocks)
        rows = np.concatenate([self.blocks[r][0] for r in order])
        cols = np.concatenate([self.blocks[r][1] for r in order])
        vals = np.concatenate([self.blocks[r][2] for r in order])
        rows, cols, vals = lex_sort_triples(rows, cols, vals)
        # Rank blocks are column-disjoint, so no coalescing is needed.
        return COOMatrix((n, n), rows, cols, vals, _canonical=True)


class AssemblySink(Sink):
    """Hold every rank's triples in memory (the validating path)."""

    payload_kind = "triples"

    def __init__(self) -> None:
        self._blocks: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def consumer_factory(self, task: "RankTask") -> _BlockConsumerFactory:
        return _BlockConsumerFactory()

    def _commit(self, task: "RankTask", outcome: "TaskOutcome") -> None:
        self._blocks[task.rank] = outcome.payload

    def _finalize(
        self, plan: "GenerationPlan", *, elapsed_s: float, skipped: Tuple[int, ...]
    ) -> AssemblyResult:
        return AssemblyResult(plan=plan, blocks=dict(self._blocks))


class ShardSink(Sink):
    """Atomic per-rank TSV shards + the crash-safe run manifest.

    Byte-compatible with the historical ``parallel.stream`` pipeline:
    same line format, same manifest schema and write cadence (one commit
    at open, one per completed rank, one at finalize), same resume
    semantics (fingerprint check, checksum validation, quarantine of
    corrupt shards), same fatal-error handling (a clean ``failed``
    manifest is left behind).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        prefix: str = "edges",
        resume: bool = False,
        crash_hook=None,
    ) -> None:
        self.directory = Path(directory)
        self.prefix = prefix
        self.resume = resume
        self.crash_hook = crash_hook
        self._manifest: Optional[RunManifest] = None
        self._metrics: Optional[MetricsRegistry] = None
        self._completed = 0
        self._kernel = "numpy"
        self.manifest_path: Optional[Path] = None

    # -- manifest plumbing ---------------------------------------------------
    def _commit_manifest(self) -> Path:
        if self._metrics is not None:
            self._metrics.counter("checkpoint.manifest_writes").inc()
        self.manifest_path = self._manifest.save(self.directory)
        return self.manifest_path

    def _reconcile(self, fingerprint: Dict) -> None:
        """Validate a loaded manifest's shards for resume: fingerprint
        must match; shards failing their checksum are quarantined as
        ``*.corrupt`` and dropped so they regenerate."""
        manifest = self._manifest
        manifest.require_fingerprint(fingerprint)
        for rank in manifest.completed_ranks():
            record = manifest.shards[rank]
            ok, _reason = verify_shard_record(self.directory, record)
            if ok:
                continue
            path = self.directory / record.filename
            if path.is_file():
                quarantine_shard(path)
                if self._metrics is not None:
                    self._metrics.counter("checkpoint.shards_quarantined").inc()
            manifest.drop_shard(rank)

    # -- Sink protocol -------------------------------------------------------
    def _open(
        self, plan: "GenerationPlan", *, metrics: MetricsRegistry | None = None
    ) -> Tuple[int, ...]:
        if plan.fingerprint is None:
            raise GenerationError(
                "ShardSink needs a plan with a fingerprint (the manifest "
                "records it); build the plan with plan_from_design/chain"
            )
        from repro.kron._fast import resolve_kernel

        # Resolved once, coordinator-side, so every worker's consumer
        # uses the same serializer (a strict "native" request fails
        # here, before any shard is touched).
        self._kernel = resolve_kernel(plan.kernel)
        self._metrics = metrics
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.resume and RunManifest.exists(self.directory):
            self._manifest = RunManifest.load(self.directory)
            self._reconcile(plan.fingerprint)
            self._manifest.status = STATUS_IN_PROGRESS
        else:
            self._manifest = RunManifest(
                fingerprint=plan.fingerprint, prefix=self.prefix
            )
        skipped = tuple(self._manifest.completed_ranks())
        pending = len(self._manifest.missing_ranks())
        if metrics is not None:
            metrics.counter("checkpoint.ranks_skipped").inc(len(skipped))
            metrics.counter("checkpoint.ranks_regenerated").inc(pending)
        self._commit_manifest()
        self._completed = len(skipped)
        return skipped

    def consumer_factory(self, task: "RankTask") -> _ShardConsumerFactory:
        return _ShardConsumerFactory(
            str(self.directory), self.prefix, kernel=self._kernel
        )

    def _commit(self, task: "RankTask", outcome: "TaskOutcome") -> None:
        record: ShardRecord = outcome.payload
        self._manifest.record_shard(record)
        self._commit_manifest()
        self._completed += 1
        if self._metrics is not None:
            self._metrics.histogram("stream.rank_s").observe(outcome.elapsed_s)
            self._metrics.counter("stream.edges_written").inc(record.nnz)
        if self.crash_hook is not None:
            self.crash_hook(task.rank, self._completed)

    def _abort(self, exc: BaseException) -> None:
        # Leave a clean partial manifest behind (status=failed) so the
        # run can be diagnosed and resumed.  Abort before open (no
        # manifest yet) has nothing to record.
        if self._manifest is None:
            return
        self._manifest.status = STATUS_FAILED
        try:
            self._commit_manifest()
        except StorageError:  # pragma: no cover - disk truly gone
            pass

    def _finalize(
        self, plan: "GenerationPlan", *, elapsed_s: float, skipped: Tuple[int, ...]
    ) -> StreamSummary:
        manifest = self._manifest
        total = manifest.total_nnz
        expected = (
            plan.expected_edges
            if plan.expected_edges is not None
            else plan.expected_nnz
        )
        if expected is not None and total != expected:
            manifest.status = STATUS_FAILED
            self._commit_manifest()
            raise GenerationError(
                f"streamed {total} edges; design predicts {expected}"
            )
        manifest.status = STATUS_COMPLETE
        manifest_path = self._commit_manifest()
        if self._metrics is not None:
            self._metrics.gauge("stream.total_s").set(elapsed_s)
        files = tuple(
            str(self.directory / manifest.shards[r].filename)
            for r in range(plan.n_ranks)
        )
        return StreamSummary(
            n_ranks=plan.n_ranks,
            total_edges=total,
            max_block_edges=max(s.nnz for s in manifest.shards.values()),
            files=files,
            elapsed_s=elapsed_s,
            skipped_ranks=len(skipped),
            manifest_path=str(manifest_path),
        )


class DegreeSink(Sink):
    """Fold tiles straight into the degree histogram — no edge storage.

    ``finalize`` returns the :class:`StreamingDegreeAccumulator`; call
    ``.distribution()`` on it.  Tiles arrive with the design self-loop
    already removed (the worker applies plan transforms), so no final
    loop adjustment is needed.
    """

    def __init__(self, num_vertices: Optional[int] = None) -> None:
        self.num_vertices = num_vertices
        self._accumulator: Optional[StreamingDegreeAccumulator] = None

    def _open(
        self, plan: "GenerationPlan", *, metrics: MetricsRegistry | None = None
    ) -> Tuple[int, ...]:
        n = self.num_vertices if self.num_vertices is not None else plan.num_vertices
        self._accumulator = StreamingDegreeAccumulator(n)
        return ()

    def consumer_factory(self, task: "RankTask") -> _DegreeConsumerFactory:
        return _DegreeConsumerFactory(self._accumulator.num_vertices)

    def _commit(self, task: "RankTask", outcome: "TaskOutcome") -> None:
        counts, edges = outcome.payload
        self._accumulator.add_counts(counts, edges)

    def _finalize(
        self, plan: "GenerationPlan", *, elapsed_s: float, skipped: Tuple[int, ...]
    ) -> StreamingDegreeAccumulator:
        return self._accumulator
