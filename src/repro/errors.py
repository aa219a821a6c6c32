"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle all library failures.  Subclasses are
grouped by subsystem; the constructor signatures stay plain (message-only)
so errors pickle cleanly across multiprocessing workers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ShapeError(ReproError):
    """Operands have incompatible shapes for the requested operation."""


class FormatError(ReproError):
    """A sparse matrix is malformed (bad indptr, out-of-range indices...)."""


class SemiringError(ReproError):
    """A semiring definition is inconsistent or an op is unsupported."""


class DesignError(ReproError):
    """A graph design is invalid (e.g. non-unique degree products)."""


class DesignSearchError(DesignError):
    """No design satisfying the requested constraints could be found."""


class GenerationError(ReproError):
    """Parallel or serial graph generation failed."""


class PartitionError(GenerationError):
    """A parallel partition is infeasible (e.g. more ranks than triples)."""


class RankExecutionError(GenerationError):
    """A rank's unit of work failed while executing on a backend."""


class TransientRankError(RankExecutionError):
    """A retryable rank failure (flaky I/O, injected fault, timeout...).

    The :class:`~repro.runtime.RankExecutor` retries these with backoff
    up to its ``max_retries`` budget.
    """


class FatalRankError(RankExecutionError):
    """A non-retryable rank failure; the executor aborts immediately."""


class RankTimeoutError(TransientRankError):
    """A rank exceeded its per-rank timeout (cooperative, post-hoc)."""


class WorkerLostError(RankExecutionError):
    """The worker holding a task's lease vanished before finishing it
    (spot-style revocation, missed heartbeats, or a dead pool process).

    Deliberately *neither* transient nor fatal: losing a worker says
    nothing about the task itself, so the executor reassigns the task to
    another worker with its original identity and an **unchanged**
    attempt counter — worker churn never burns a task's retry budget.
    Reassignments have their own separate cap (``max_reassignments``)
    so a pool that eats every worker still terminates.
    """


class RetryExhaustedError(RankExecutionError):
    """A rank kept failing after every permitted retry attempt."""


class StorageError(FatalRankError):
    """A non-retryable storage failure (disk full, permission, read-only).

    Retrying cannot help until the operator frees space or fixes
    permissions, so the run aborts immediately — leaving a clean partial
    manifest behind so it can be resumed later.
    """


class TransportError(ReproError):
    """A :mod:`repro.net` tile transport operation failed.

    Base class for every distributed-collection failure: the contract is
    that a transported run either produces byte-identical output to a
    local run or raises a subclass of this — never silent data loss.
    """


class FrameCodecError(TransportError):
    """A wire frame is malformed (bad magic, truncation, unknown version
    or type, inconsistent lengths).  Decoding never returns garbage
    tiles; it raises this instead."""


class FrameIntegrityError(FrameCodecError):
    """A frame's CRC32 does not match its content (bit rot in flight)."""


class FrameSequenceError(TransportError):
    """Frames arrived out of protocol order (duplicated, reordered, or
    dropped tile/commit frames; unexpected control frames)."""


class HandshakeError(TransportError):
    """Producer and collector disagree about the run being generated
    (fingerprint digest or rank-count mismatch at OPEN time)."""


class TransportClosedError(TransportError):
    """The peer endpoint closed (or the connection died) mid-protocol."""


class TransportTimeoutError(TransportError):
    """A blocking transport receive exceeded its timeout."""


class CheckpointError(ReproError):
    """A durability-layer (manifest / shard checkpoint) operation failed."""


class ManifestError(CheckpointError):
    """A run manifest is missing, unparsable, or structurally invalid."""


class ResumeMismatchError(ManifestError):
    """A resume was requested against a manifest whose design fingerprint
    does not match the design being generated."""


class ShardIntegrityError(CheckpointError):
    """An on-disk shard disagrees with its recorded checksum or size."""


class ValidationError(ReproError):
    """A generated graph disagrees with its design prediction."""


class CatalogError(ReproError):
    """A design-catalog operation failed (unkeyable subject, incomplete
    shard run, or an internally inconsistent property computation).

    Deliberately *not* raised for corrupt or stale cache entries — those
    are recomputed silently, never trusted and never fatal."""


class IOFormatError(ReproError):
    """An on-disk artifact could not be parsed."""


class ServeError(ReproError):
    """A graph-service request failed (client side of :mod:`repro.serve`).

    ``status`` carries the HTTP status code when the failure was a
    server response (404 unknown digest, 422 bad rank/range, 413
    oversized range, 429 saturated, ...), or ``None`` for local
    failures (connection refused, a torn or protocol-violating frame
    stream)."""

    def __init__(self, message: str, *, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServeProtocolError(ServeError):
    """The served frame stream violated the tile-stream protocol
    (missing OPEN, non-contiguous tile indices, stats mismatch, or an
    ABORT frame mid-stream)."""
