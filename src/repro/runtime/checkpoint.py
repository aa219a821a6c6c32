"""Crash-safe checkpointing for streamed generation (the durability layer).

The paper's production pipeline is communication-free: every rank block
``Ap = Bp ⊗ C`` is an independent, deterministically regenerable unit of
work, and validation depends on the on-disk files being *exactly* the
predicted graph.  That combination makes durability cheap and exact:

* **atomic shard writes** — :func:`atomic_write_bytes` writes a temp
  file in the same directory, fsyncs it, and renames it into place, so a
  shard either exists complete or not at all (no torn files after a
  crash);
* **checksums** — every payload is hashed (:func:`payload_checksum`,
  SHA-256) before it hits disk, and :func:`file_checksum` re-derives the
  same digest from the file (:func:`iter_shard_bytes` while handing the
  bytes to a reader), so corruption is detectable byte-for-byte;
* **a run manifest** — :class:`RunManifest` (``manifest.json``, itself
  written atomically and updated per completed rank) records the design
  fingerprint, per-shard path/nnz/checksum, and run status
  (``in_progress`` → ``complete`` | ``failed``);
* **fingerprints** — :func:`design_fingerprint` digests the constituent
  stars, loop placement, scramble seed, and partition shape, so a resume
  against the wrong design fails loudly instead of silently mixing
  graphs;
* **quarantine** — :func:`quarantine_shard` moves a corrupt/partial
  shard aside as ``*.corrupt`` rather than deleting evidence;
* **failure classification** — :func:`is_fatal_storage_error` separates
  disk-full / permission / read-only errors (fatal, never retried) from
  transient I/O hiccups;
* **crash injection** — :class:`CrashInjector` kills a run between ranks
  (raising :class:`SimulatedCrash`) so tests can prove that an
  interrupted-then-resumed run is byte-identical to an uninterrupted one.

Nothing here imports above ``repro.errors``, so any subsystem may adopt
it.  Manifests contain no timestamps or host state: the same design on
the same partition always serializes to the same bytes, which is what
makes "resume produced identical output" checkable with a file compare.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping

from repro.errors import (
    ManifestError,
    ResumeMismatchError,
    ShardIntegrityError,
    StorageError,
)

#: Manifest schema version; bumped on incompatible layout changes.
MANIFEST_VERSION = 1

#: File name of the run manifest inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: Suffix appended to a shard that failed integrity verification.
QUARANTINE_SUFFIX = ".corrupt"

#: ``errno`` values that mean storage is unusable until an operator
#: intervenes — retrying cannot help, so these classify as fatal.
_FATAL_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EDQUOT, errno.EROFS, errno.EACCES, errno.EPERM}
)


# -- failure classification ---------------------------------------------------
def is_fatal_storage_error(exc: OSError) -> bool:
    """True when ``exc`` is a disk-full / permission / read-only failure."""
    return getattr(exc, "errno", None) in _FATAL_ERRNOS


def classify_storage_error(exc: OSError, context: str) -> Exception:
    """Wrap an ``OSError`` as :class:`~repro.errors.StorageError` when it
    is fatal; otherwise return it unchanged (optimistically transient)."""
    if is_fatal_storage_error(exc):
        return StorageError(f"{context}: {exc}")
    return exc


# -- checksums ----------------------------------------------------------------
def payload_checksum(data: bytes) -> str:
    """SHA-256 digest of an in-memory payload, ``sha256:<hex>``."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def file_checksum(path: str | Path, *, chunk_size: int = 1 << 20) -> str:
    """SHA-256 digest of a file's bytes, identical in format to
    :func:`payload_checksum` of the same content."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


# -- atomic writes ------------------------------------------------------------
#: Per-process sequence keeping concurrent :class:`ShardWriter` temp files
#: distinct even for the *same* target path.  Two threads of one process
#: can write one shard at once: a rank whose lost attempt is still
#: streaming when its reassigned attempt starts, or two runs into one
#: directory; a pid-only suffix would interleave the two temp files.
#: With unique temps, each writer completes independently and the
#: (deterministic, identical) content is renamed into place atomically
#: whichever finishes last.
_WRITER_SEQ = itertools.count()
def atomic_write_bytes(path: str | Path, data: bytes, *, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically: temp file → fsync → rename.

    The temp file lives in the same directory (rename must not cross
    filesystems) and is removed on any failure, so a crash at any point
    leaves either the old file, the new file, or nothing — never a torn
    write.  Fatal storage errors surface as
    :class:`~repro.errors.StorageError`.
    """
    path = Path(path)
    # Unique per call (pid + sequence), like ShardWriter's temp names:
    # concurrent writers of the SAME target path — e.g. two catalog
    # lookups racing to store one digest from different server threads —
    # must not share a temp file, or one writer's rename can publish the
    # other's half-written bytes (a torn entry a reader could observe).
    # With unique temps each rename atomically publishes complete
    # content; last writer wins, and identical content makes the order
    # irrelevant.
    tmp = path.with_name(
        f".{path.name}.tmp.{os.getpid()}.{next(_WRITER_SEQ)}"
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise classify_storage_error(exc, f"atomic write to {path} failed") from exc


def atomic_write_text(path: str | Path, text: str) -> None:
    """ASCII-encoded :func:`atomic_write_bytes` convenience."""
    atomic_write_bytes(path, text.encode("ascii"))


class ShardWriter:
    """Incremental, atomic shard writer with a running checksum.

    The streaming equivalent of :func:`atomic_write_bytes`: chunks are
    appended with :meth:`write` (the SHA-256 digest is fed as bytes
    arrive, so the checksum of the finished file never requires a
    re-read), and :meth:`close` fsyncs and renames the temp file into
    place.  Until ``close`` returns, ``path`` is either its previous
    content or absent — never a torn shard.  The final checksum equals
    :func:`payload_checksum` of the concatenated chunks, which is how
    tiled writes stay manifest-compatible with whole-payload writes.

    ``OSError``s propagate raw; callers classify them
    (:func:`classify_storage_error`) with their own context.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True):
        self.path = Path(path)
        self._tmp = self.path.with_name(
            f".{self.path.name}.tmp.{os.getpid()}.{next(_WRITER_SEQ)}"
        )
        self._fsync = fsync
        self._digest = hashlib.sha256()
        self._size = 0
        self._fh = open(self._tmp, "wb")

    @property
    def size_bytes(self) -> int:
        """Bytes written so far."""
        return self._size

    def write(self, data: bytes) -> None:
        """Append a chunk, updating the running digest."""
        self._fh.write(data)
        self._digest.update(data)
        self._size += len(data)

    def close(self) -> str:
        """Flush, fsync, rename into place; return ``sha256:<hex>``."""
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._fh.close()
        os.replace(self._tmp, self.path)
        return "sha256:" + self._digest.hexdigest()

    def discard(self) -> None:
        """Abandon the write, removing the temp file (best effort)."""
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        try:
            self._tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


# -- quarantine ---------------------------------------------------------------
def quarantine_shard(path: str | Path) -> Path:
    """Move a failed shard aside as ``<name>.corrupt`` and return the
    quarantine path (evidence is preserved, the slot is freed for
    regeneration).  An older quarantine of the same shard is replaced."""
    path = Path(path)
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    os.replace(path, target)
    return target


# -- design fingerprint -------------------------------------------------------
def design_fingerprint(
    design, *, n_ranks: int, scramble_seed: int | None = None
) -> Dict:
    """The identity of a streamed run: constituent stars, loop placement,
    scramble seed, and partition width, plus the closed-form totals the
    shards must reconcile against.

    ``digest`` is the SHA-256 of the canonical JSON of the other fields,
    so two fingerprints are interchangeable iff their digests match.
    """
    doc = {
        "star_sizes": [int(m) for m in design.star_sizes],
        "self_loop": design.self_loop.value,
        "loop_vertex": design.loop_vertex,
        "scramble_seed": scramble_seed,
        "n_ranks": int(n_ranks),
        "num_vertices": design.num_vertices,
        "num_edges": design.num_edges,
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["digest"] = payload_checksum(canonical.encode("ascii"))
    return doc


# -- shard records and the manifest -------------------------------------------
@dataclass(frozen=True)
class ShardRecord:
    """One completed shard's durable accounting."""

    rank: int
    filename: str
    nnz: int
    checksum: str
    size_bytes: int

    def to_dict(self) -> Dict:
        return {
            "rank": self.rank,
            "filename": self.filename,
            "nnz": self.nnz,
            "checksum": self.checksum,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ShardRecord":
        try:
            return cls(
                rank=int(doc["rank"]),
                filename=str(doc["filename"]),
                nnz=int(doc["nnz"]),
                checksum=str(doc["checksum"]),
                size_bytes=int(doc["size_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"invalid shard record {doc!r}: {exc}") from exc


#: Legal run states recorded in a manifest.
STATUS_IN_PROGRESS = "in_progress"
STATUS_COMPLETE = "complete"
STATUS_FAILED = "failed"
_STATUSES = (STATUS_IN_PROGRESS, STATUS_COMPLETE, STATUS_FAILED)


@dataclass
class RunManifest:
    """The durable state of one streamed generation run.

    Serialized deterministically (sorted keys, shards in rank order, no
    timestamps), so identical runs produce byte-identical manifests —
    the property the resume acceptance test compares directly.
    """

    fingerprint: Dict
    prefix: str
    status: str = STATUS_IN_PROGRESS
    shards: Dict[int, ShardRecord] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ManifestError(
                f"status must be one of {_STATUSES}, got {self.status!r}"
            )

    # -- accounting ----------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return int(self.fingerprint["n_ranks"])

    @property
    def total_nnz(self) -> int:
        """Sum of recorded shard nnz (the streamed edge total so far)."""
        return sum(s.nnz for s in self.shards.values())

    def completed_ranks(self) -> List[int]:
        return sorted(self.shards)

    def missing_ranks(self) -> List[int]:
        return [r for r in range(self.n_ranks) if r not in self.shards]

    def record_shard(self, record: ShardRecord) -> None:
        self.shards[record.rank] = record

    def drop_shard(self, rank: int) -> None:
        self.shards.pop(rank, None)

    def matches_fingerprint(self, other: Mapping) -> bool:
        return self.fingerprint.get("digest") == other.get("digest")

    def require_fingerprint(self, other: Mapping) -> None:
        """Raise :class:`~repro.errors.ResumeMismatchError` unless this
        manifest was produced by the same design/partition/seed."""
        if not self.matches_fingerprint(other):
            raise ResumeMismatchError(
                "manifest fingerprint "
                f"{self.fingerprint.get('digest')} does not match the design "
                f"being generated ({other.get('digest')}); refusing to mix "
                "shards from different runs"
            )

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "status": self.status,
            "prefix": self.prefix,
            "fingerprint": dict(self.fingerprint),
            "shards": [self.shards[r].to_dict() for r in sorted(self.shards)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RunManifest":
        try:
            version = int(doc["version"])
            status = str(doc["status"])
            prefix = str(doc["prefix"])
            fingerprint = dict(doc["fingerprint"])
            shard_docs = doc["shards"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"manifest missing/invalid field: {exc}") from exc
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {version} "
                f"(this library writes version {MANIFEST_VERSION})"
            )
        shards = {}
        for shard_doc in shard_docs:
            record = ShardRecord.from_dict(shard_doc)
            if record.rank in shards:
                raise ManifestError(f"duplicate shard record for rank {record.rank}")
            shards[record.rank] = record
        return cls(
            fingerprint=fingerprint,
            prefix=prefix,
            status=status,
            shards=shards,
            version=version,
        )

    # -- persistence ---------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Atomically write ``manifest.json`` into ``directory``."""
        path = Path(directory) / MANIFEST_NAME
        atomic_write_text(path, self.to_json())
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "RunManifest":
        """Read and validate ``directory/manifest.json``."""
        path = Path(directory) / MANIFEST_NAME
        try:
            text = path.read_text(encoding="ascii")
        except FileNotFoundError as exc:
            raise ManifestError(f"no {MANIFEST_NAME} in {directory}") from exc
        except OSError as exc:
            raise ManifestError(f"cannot read {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def exists(cls, directory: str | Path) -> bool:
        return (Path(directory) / MANIFEST_NAME).is_file()


def iter_shard_bytes(
    directory: str | Path, record: ShardRecord, *, chunk_size: int = 1 << 20
) -> Iterator[bytes]:
    """Yield a recorded shard's bytes, ``chunk_size`` at a time, hashing
    each chunk as it is read.

    Raises :class:`~repro.errors.ShardIntegrityError` with a
    human-readable diagnosis (missing / size / checksum): the size is
    checked before the first read, so truncation is reported as such
    without reading the payload, and the checksum after the last.
    """
    path = Path(directory) / record.filename
    if not path.is_file():
        raise ShardIntegrityError(f"shard file {record.filename} is missing")
    size = path.stat().st_size
    if size != record.size_bytes:
        raise ShardIntegrityError(
            f"shard {record.filename} is {size} bytes; "
            f"manifest records {record.size_bytes}"
        )
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(chunk_size), b""):
            digest.update(chunk)
            yield chunk
    actual = "sha256:" + digest.hexdigest()
    if actual != record.checksum:
        raise ShardIntegrityError(
            f"shard {record.filename} checksum {actual} != recorded "
            f"{record.checksum}"
        )


def verify_shard_record(
    directory: str | Path, record: ShardRecord
) -> tuple[bool, str]:
    """Check one recorded shard against the file on disk.

    Returns ``(ok, reason)`` — ``reason`` is empty when the shard is
    intact, otherwise the diagnosis :func:`iter_shard_bytes` raised.
    """
    try:
        for _ in iter_shard_bytes(directory, record):
            pass
    except ShardIntegrityError as exc:
        return False, str(exc)
    return True, ""


# -- crash injection ----------------------------------------------------------
class SimulatedCrash(BaseException):
    """Raised by :class:`CrashInjector` to emulate a hard process death.

    Deliberately *not* a :class:`~repro.errors.ReproError` (nor even an
    ``Exception``): a real crash gives the run no chance to handle it,
    so the simulated one must sail past every ``except ReproError`` /
    ``except Exception`` cleanup path exactly as ``kill -9`` would.
    """


class CrashInjector:
    """Kill a streamed run after a chosen number of ranks have committed.

    Mirrors :class:`~repro.runtime.executor.FailureInjector`: stateless,
    a pure function of the observed progress, so it behaves identically
    on every backend.  The hook is invoked by ``generate_to_disk`` after
    each rank's shard is durably committed to the manifest — the point
    where a real mid-run death leaves a valid partial checkpoint.
    """

    def __init__(self, crash_after_ranks: int) -> None:
        if crash_after_ranks < 1:
            raise ManifestError(
                f"crash_after_ranks must be >= 1, got {crash_after_ranks}"
            )
        self.crash_after_ranks = crash_after_ranks

    def __call__(self, rank: int, completed: int) -> None:
        if completed >= self.crash_after_ranks:
            raise SimulatedCrash(
                f"injected crash after rank {rank} "
                f"({completed} rank(s) committed)"
            )


__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "QUARANTINE_SUFFIX",
    "STATUS_COMPLETE",
    "STATUS_FAILED",
    "STATUS_IN_PROGRESS",
    "CrashInjector",
    "RunManifest",
    "ShardRecord",
    "ShardWriter",
    "SimulatedCrash",
    "atomic_write_bytes",
    "atomic_write_text",
    "classify_storage_error",
    "design_fingerprint",
    "file_checksum",
    "iter_shard_bytes",
    "is_fatal_storage_error",
    "payload_checksum",
    "quarantine_shard",
    "verify_shard_record",
]
