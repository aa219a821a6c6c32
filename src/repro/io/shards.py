"""Reading a shard directory, each shard checked against its manifest.

A streamed run leaves TSV shards and a ``manifest.json`` recording each
shard's size and sha256 (:mod:`repro.runtime.checkpoint`).
:func:`iter_shard_triples` is the one checked reader: it checks a
shard's size before reading it, and hashes the very bytes the strict
parser (:func:`repro.io.tsv.parse_tsv_chunks`) decodes, so one read
both checks and parses the shard.  A shard whose bytes disagree with
its record raises :class:`~repro.errors.ShardIntegrityError` naming it,
also when the corruption first shows as a parse error or as an error
of whoever consumes the parsed entries.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Tuple

import numpy as np

from repro.io.tsv import READ_CHUNK_BYTES, parse_tsv_chunks
from repro.runtime.checkpoint import RunManifest, ShardRecord, iter_shard_bytes


def iter_shard_triples(
    directory: str | Path,
    record: ShardRecord,
    *,
    chunk_bytes: int = READ_CHUNK_BYTES,
) -> Iterator[np.ndarray]:
    """Yield a recorded shard's triples as ``(n, 3)`` int64 arrays, one
    ~``chunk_bytes`` slab at a time, checked against ``record``.

    Raises :class:`~repro.errors.ShardIntegrityError` (missing / size /
    checksum, the reasons of
    :func:`~repro.runtime.checkpoint.verify_shard_record`) when the
    shard's bytes disagree with the record, and
    :class:`~repro.errors.IOFormatError` naming the file when they
    agree but do not parse.
    """
    chunks = iter_shard_bytes(directory, record, chunk_size=chunk_bytes)
    try:
        yield from parse_tsv_chunks(chunks, Path(directory) / record.filename)
    except Exception:
        # A parse error, or the consumer's error thrown in by read_shard,
        # may come from corrupt bytes: hashing the rest of the shard
        # raises ShardIntegrityError if so, and the error stands if not.
        for _ in chunks:
            pass
        raise


def read_shard(
    directory: str | Path,
    record: ShardRecord,
    consume: Callable[[np.ndarray], None],
    *,
    chunk_bytes: int = READ_CHUNK_BYTES,
) -> None:
    """Hand each chunk of :func:`iter_shard_triples` to ``consume``.

    An error ``consume`` raises is thrown into the reader, so on a shard
    whose bytes disagree with its record (say, a flipped digit that
    puts an endpoint out of range) it becomes
    :class:`~repro.errors.ShardIntegrityError`.
    """
    triples = iter_shard_triples(directory, record, chunk_bytes=chunk_bytes)
    for chunk in triples:
        try:
            consume(chunk)
        except Exception as exc:
            triples.throw(exc)


def read_shards(
    directory: str | Path,
    manifest: RunManifest,
    consume: Callable[[np.ndarray], None],
    *,
    chunk_bytes: int = READ_CHUNK_BYTES,
) -> None:
    """:func:`read_shard` over every shard ``manifest`` records, in rank
    order."""
    for rank in sorted(manifest.shards):
        read_shard(directory, manifest.shards[rank], consume, chunk_bytes=chunk_bytes)


def iter_shard_edges(
    directory: str | Path, *, chunk_bytes: int = READ_CHUNK_BYTES
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Stream a shard directory's edges rank by rank, chunk by chunk.

    Follows ``manifest.json``'s shard records in rank order, so the
    traversal is deterministic and never holds more than one chunk;
    every shard goes through :func:`iter_shard_triples`.
    """
    manifest = RunManifest.load(directory)
    for rank in sorted(manifest.shards):
        for triples in iter_shard_triples(
            directory, manifest.shards[rank], chunk_bytes=chunk_bytes
        ):
            yield triples[:, 0], triples[:, 1]
