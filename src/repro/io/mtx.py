"""Matrix Market (.mtx) coordinate format.

The lingua franca of the GraphChallenge/SuiteSparse ecosystems the paper
targets.  Supports the ``matrix coordinate`` container with ``integer``
or ``real`` fields and ``general`` or ``symmetric`` symmetry; indices are
1-based on disk per the spec.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import IOFormatError
from repro.sparse.convert import AnySparse, as_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.kernels import INDEX_DTYPE


def write_mtx(path: str | Path, matrix: AnySparse, *, symmetric: bool = False) -> int:
    """Write a sparse matrix in Matrix Market coordinate format.

    With ``symmetric=True`` only the lower triangle (plus diagonal) is
    stored, as the format requires; the matrix must actually be
    symmetric.  Returns the number of data lines written.
    """
    coo = as_coo(matrix)
    if symmetric and not coo.is_symmetric():
        raise IOFormatError("symmetric=True but the matrix is not symmetric")
    rows, cols, vals = coo.rows, coo.cols, coo.vals
    if symmetric:
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    integer = np.issubdtype(coo.dtype, np.integer)
    field = "integer" if integer else "real"
    symmetry = "symmetric" if symmetric else "general"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n")
        fh.write("% written by repro (Kepner et al. 2018 reproduction)\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {len(vals)}\n")
        if integer:
            for r, c, v in zip(rows, cols, vals):
                fh.write(f"{int(r) + 1} {int(c) + 1} {int(v)}\n")
        else:
            for r, c, v in zip(rows, cols, vals):
                fh.write(f"{int(r) + 1} {int(c) + 1} {float(v):.17g}\n")
    return len(vals)


def read_mtx(path: str | Path) -> COOMatrix:
    """Read a Matrix Market coordinate file written by anyone."""
    path = Path(path)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        parts = header.strip().split()
        if (
            len(parts) != 5
            or parts[0] != "%%MatrixMarket"
            or parts[1].lower() != "matrix"
            or parts[2].lower() != "coordinate"
        ):
            raise IOFormatError(f"{path}: not a MatrixMarket coordinate header: {header!r}")
        field = parts[3].lower()
        symmetry = parts[4].lower()
        if field not in ("integer", "real", "pattern"):
            raise IOFormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise IOFormatError(f"{path}: unsupported symmetry {symmetry!r}")
        # Skip comments; first non-comment line is the size line.
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            n, m, nnz = (int(x) for x in line.split())
        except ValueError as exc:
            raise IOFormatError(f"{path}: malformed size line {line!r}") from exc
        rows, cols, vals = [], [], []
        for _ in range(nnz):
            entry = fh.readline().split()
            expected_fields = 2 if field == "pattern" else 3
            if len(entry) != expected_fields:
                raise IOFormatError(f"{path}: malformed entry line {entry!r}")
            r, c = int(entry[0]) - 1, int(entry[1]) - 1
            v: object = 1 if field == "pattern" else (
                int(entry[2]) if field == "integer" else float(entry[2])
            )
            rows.append(r)
            cols.append(c)
            vals.append(v)
            if symmetry == "symmetric" and r != c:
                rows.append(c)
                cols.append(r)
                vals.append(v)
    dtype = np.int64 if field in ("integer", "pattern") else np.float64
    return COOMatrix(
        (n, m),
        np.asarray(rows, dtype=INDEX_DTYPE),
        np.asarray(cols, dtype=INDEX_DTYPE),
        np.asarray(vals, dtype=dtype),
    )


def roundtrip_check(matrix: AnySparse, path: str | Path) -> bool:
    """Write + read back + compare; a convenience for pipelines."""
    coo = as_coo(matrix)
    write_mtx(path, coo, symmetric=coo.is_symmetric())
    return read_mtx(path).equal(coo)
