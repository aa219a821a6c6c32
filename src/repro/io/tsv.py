"""TSV edge lists — the interchange format of the Graph500/GraphChallenge
ecosystem the paper's generator feeds.

One line per stored entry: ``row<TAB>col<TAB>value``, each field a
decimal integer.  The per-rank writers mirror the paper's production
mode, where every rank streams its own block to its own file with no
coordination.

This module holds the repository's one TSV codec; every shard writer,
shard reader and helper here goes through it:

* :func:`write_tsv_triples` — the vectorized encoder.  Each row block
  becomes a ``uint8`` digit matrix, one column per digit position of
  the block's widest value, filled a column at a time by repeated
  floor division on the narrowest unsigned dtype; leading zeros are
  masked out and a single boolean compress yields the bytes.  Its
  output is byte-identical to ``f"{r}\\t{c}\\t{v}\\n"`` per entry,
  negative values and the int64 extremes included.
* :func:`parse_tsv_chunks` — the chunked, strict parser: takes the
  bytes a chunk at a time, checks that the separators run
  ``\\t \\t \\n`` line after line, and decodes each chunk in one
  ``np.fromstring`` call.  :func:`iter_tsv_triples` feeds it a file
  ``chunk_bytes`` at a time; :mod:`repro.io.shards` feeds it a shard's
  bytes as they are hashed.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import IOFormatError
from repro.sparse.convert import AnySparse, as_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.kernels import INDEX_DTYPE

if TYPE_CHECKING:
    from repro.parallel.generator import RankBlock

#: Rows encoded per digit matrix: the encoder's scratch memory is this
#: many rows times the line width, whatever the tile size.
ENCODE_ROW_BLOCK = 1 << 14

#: Bytes per read in the chunked parser — large enough that NumPy
#: decoding dominates, small enough to stay out of the way of the one
#: budget-sized-tile memory story.
READ_CHUNK_BYTES = 1 << 24

_ZERO = ord("0")
# Constant columns are stored minus ``_ZERO`` (wrapping in uint8), so a
# single ``+= _ZERO`` over the whole matrix turns digits into ASCII.
_MINUS, _TAB, _NEWLINE = ((ord(ch) - _ZERO) % 256 for ch in "-\t\n")
_UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)
#: What is left of a well-formed line once every byte from ``-`` up (the
#: bytes a field may hold) is deleted: any space, ``+``, ``#`` or
#: ``\r`` survives the deletion and breaks the pattern.
_LINE_SEPARATORS = b"\t\t\n"
_FIELD_BYTES = bytes(range(ord("-"), 256))
_I64 = np.iinfo(np.int64)


# -- encoder -------------------------------------------------------------------
def _magnitudes(values: np.ndarray):
    """``(|values| as an unsigned-or-non-negative array, negative mask or
    None, largest magnitude)``; object arrays (Python ints) go through
    int64, other non-integer dtypes truncate like ``int()``."""
    values = np.asarray(values)
    if values.dtype.kind != "u":
        if values.dtype.kind != "i":
            values = values.astype(np.int64)
        if int(values.min()) < 0:
            negative = values < 0
            # Two's complement negation in uint64 is exact for INT64_MIN.
            magnitude = values.astype(np.uint64)
            np.negative(magnitude, out=magnitude, where=negative)
            return magnitude, negative, int(magnitude.max())
    return values, None, int(values.max())


def _encode_block(columns: Sequence[np.ndarray]) -> bytes:
    """One non-empty row block of triples as TSV bytes (see the module
    docstring)."""
    n = len(columns[0])
    fields = [_magnitudes(c) for c in columns]
    widths = [len(str(largest)) for _, _, largest in fields]
    line = sum(w + 1 + (neg is not None) for w, (_, neg, _) in zip(widths, fields))
    out = np.empty((n, line), dtype=np.uint8)
    keep = np.ones((n, line), dtype=bool)
    pos = 0
    for width, (magnitude, negative, largest) in zip(widths, fields):
        if negative is not None:
            out[:, pos] = _MINUS
            keep[:, pos] = negative
            pos += 1
        dtype = next(t for t in _UNSIGNED if largest <= np.iinfo(t).max)
        x = magnitude.astype(dtype)
        ten = dtype(10)
        # Right to left: column k holds x mod 10, and the column left
        # of it is a leading zero unless the quotient is non-zero.
        for k in range(pos + width - 1, pos, -1):
            q = x // ten
            out[:, k] = x - q * ten
            keep[:, k - 1] = q != 0
            x = q
        out[:, pos] = x
        pos += width
        out[:, pos] = _TAB
        pos += 1
    out[:, pos - 1] = _NEWLINE
    out += np.uint8(_ZERO)
    return out[keep].tobytes()


def write_tsv_triples(
    fh: BinaryIO, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> int:
    """Write ``(rows, cols, vals)`` to the binary file object ``fh`` as
    TSV lines, one row block at a time; returns the number of lines.

    Byte-identical to ``f"{int(r)}\\t{int(c)}\\t{int(v)}\\n"`` per
    entry for every integer dtype, object arrays of int64-range Python
    ints included.
    """
    n = len(rows)
    for lo in range(0, n, ENCODE_ROW_BLOCK):
        hi = lo + ENCODE_ROW_BLOCK
        fh.write(_encode_block((rows[lo:hi], cols[lo:hi], vals[lo:hi])))
    return n


# -- parser --------------------------------------------------------------------
def _parse_lines(data: bytes, path, *, comments_dropped: bool = False) -> np.ndarray:
    """Decode newline-terminated TSV lines into an ``(n, 3)`` int64 array.

    Raises :class:`IOFormatError` naming ``path`` on a line without
    exactly three fields, a field that is not a decimal integer, or a
    field outside int64.  ``#`` comment lines and blank lines are
    dropped (a slow path taken only when the separator check fails).
    """
    seps = data.translate(None, _FIELD_BYTES)
    if seps != _LINE_SEPARATORS * (len(seps) // 3):
        lines = data.split(b"\n")[:-1]
        if not comments_dropped:
            kept = [
                line + b"\n"
                for line in lines
                if line.strip() and not line.lstrip().startswith(b"#")
            ]
            return _parse_lines(b"".join(kept), path, comments_dropped=True)
        bad = next(ln for ln in lines if ln.translate(None, _FIELD_BYTES) != b"\t\t")
        raise IOFormatError(
            f"{path}: expected 3 tab-separated fields per line, got {bad[:80]!r}"
        )
    try:
        values = np.fromstring(data, dtype=np.int64, sep="\t")
    except ValueError as exc:
        raise IOFormatError(f"{path}: non-integer field") from exc
    if values.size != len(seps):
        raise IOFormatError(f"{path}: empty or non-integer field")
    if values.size and (values.max() == _I64.max or values.min() == _I64.min):
        # np.fromstring saturates out-of-range fields: re-read the
        # extreme ones exactly.
        tokens = data.split()
        for j in np.flatnonzero((values == _I64.max) | (values == _I64.min)):
            if int(tokens[j]) != values[j]:
                raise IOFormatError(
                    f"{path}: field {tokens[j][:40]!r} is outside int64"
                )
    return values.reshape(-1, 3)


def parse_tsv_chunks(chunks: Iterable[bytes], path) -> Iterator[np.ndarray]:
    """Yield the triples of a TSV byte stream, given in ``chunks``, as
    ``(n, 3)`` int64 arrays, one per chunk (each cut at its last
    newline, the rest carried into the next).

    Strict: every line is ``int<TAB>int<TAB>int``; anything else —
    including a final line without its newline — raises
    :class:`~repro.errors.IOFormatError` naming ``path``.
    """
    tail = b""
    for data in chunks:
        data = tail + data
        cut = data.rfind(b"\n") + 1
        tail = data[cut:]
        if cut:
            yield _parse_lines(data[:cut], path)
    if tail.strip():
        raise IOFormatError(f"{path}: trailing partial line {tail[:80]!r}")


def iter_tsv_triples(
    path: str | Path, *, chunk_bytes: int = READ_CHUNK_BYTES
) -> Iterator[np.ndarray]:
    """Yield a TSV file's triples as ``(n, 3)`` int64 arrays, one
    ~``chunk_bytes`` slab at a time, through :func:`parse_tsv_chunks`."""
    with open(path, "rb") as fh:
        yield from parse_tsv_chunks(iter(lambda: fh.read(chunk_bytes), b""), path)


# -- matrix helpers ------------------------------------------------------------
def write_tsv_edges(path: str | Path, matrix: AnySparse) -> int:
    """Write a matrix's triples as TSV; returns the number of lines."""
    coo = as_coo(matrix)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        return write_tsv_triples(fh, coo.rows, coo.cols, coo.vals)


def read_tsv_edges(path: str | Path, shape: Tuple[int, int]) -> COOMatrix:
    """Read TSV triples back into a canonical COO matrix (``#`` comment
    lines and blank lines are skipped)."""
    chunks = list(iter_tsv_triples(path))
    triples = np.concatenate(chunks) if chunks else np.zeros((0, 3), np.int64)
    return COOMatrix(
        shape,
        triples[:, 0].astype(INDEX_DTYPE),
        triples[:, 1].astype(INDEX_DTYPE),
        triples[:, 2].copy(),
    )


def write_rank_files(
    directory: str | Path, blocks: Sequence["RankBlock"], *, prefix: str = "edges"
) -> List[Path]:
    """Write each rank block (global coordinates) to ``prefix.<rank>.tsv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for block in blocks:
        path = directory / f"{prefix}.{block.rank}.tsv"
        with open(path, "wb") as fh:
            write_tsv_triples(fh, *block.global_triples())
        paths.append(path)
    return paths


def read_rank_files(
    directory: str | Path, shape: Tuple[int, int], *, prefix: str = "edges"
) -> COOMatrix:
    """Union all ``prefix.*.tsv`` rank files into one matrix."""
    directory = Path(directory)
    files = sorted(
        p for p in directory.iterdir() if p.name.startswith(prefix + ".") and p.suffix == ".tsv"
    )
    if not files:
        raise IOFormatError(f"no {prefix}.*.tsv files in {directory}")
    parts = [read_tsv_edges(p, shape) for p in files]
    rows = np.concatenate([p.rows for p in parts])
    cols = np.concatenate([p.cols for p in parts])
    vals = np.concatenate([p.vals for p in parts])
    return COOMatrix(shape, rows, cols, vals)
