"""Slow reference implementations the fast paths are tested against.

Each is the loop the program ran before its vectorized replacement:
the per-edge f-string TSV encoder, the per-line TSV reader, and the
floating-point stochastic Kronecker kernel.
"""

from typing import List, Tuple

import numpy as np

from repro.errors import IOFormatError
from repro.models.skg import counter_u01


def fstring_tsv(rows, cols, vals) -> bytes:
    """One tile as TSV bytes, one f-string per edge (the shard format)."""
    lines = [
        f"{int(r)}\t{int(c)}\t{int(v)}\n" for r, c, v in zip(rows, cols, vals)
    ]
    return "".join(lines).encode("ascii")


def read_tsv_lines(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-line ``int()`` TSV reader; skips ``#`` comments and blank
    lines, raises :class:`IOFormatError` on a malformed line."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise IOFormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                vals.append(int(parts[2]))
            except ValueError as exc:
                raise IOFormatError(f"{path}:{lineno}: non-integer field") from exc
    return tuple(np.asarray(x, dtype=np.int64) for x in (rows, cols, vals))


def skg_generate_float(model, lo: int, hi: int):
    """Place SKG edges ``[lo, hi)`` with float draws compared against the
    float thresholds, over the whole range at once."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    rows = np.zeros(hi - lo, dtype=np.int64)
    cols = np.zeros(hi - lo, dtype=np.int64)
    for level, (t1, t2, t3) in enumerate(model._thresholds):
        u = counter_u01(model.seed, idx, level)
        q = (u >= t1).astype(np.int64)
        q += u >= t2
        q += u >= t3
        rows = (rows << 1) | (q >> 1)
        cols = (cols << 1) | (q & 1)
    return rows, cols, np.ones(hi - lo, dtype=np.int64)
