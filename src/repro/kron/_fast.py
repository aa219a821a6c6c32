"""Optional compiled fast path for the generation hot loop.

Two kernels live here, each with a pure-Python body that is
``numba.njit``-compatible as written:

* **expand** — merge-order Kronecker tile expansion.  Because canonical
  COO inputs have unique ``(row, col)`` keys, walking row groups of the
  ``Bp`` slice crossed with row groups of ``C`` (columns ascending within
  each group) emits the product *already in lex order* — byte-identical
  to the NumPy ``repeat``/``tile``/``lexsort`` oracle with no sort at all.
* **encode** — int64 → decimal ASCII TSV serialization, byte-identical
  to the f-string oracle in :mod:`repro.engine.sinks`
  (``f"{r}\\t{c}\\t{v}\\n"``), including negative values.

Gating: importing this module is always safe (``numba`` is only imported on first kernel use),
:func:`native_available` answers the capability question, and asking
for ``kernel="native"`` on a bare interpreter raises
:class:`~repro.errors.KernelUnavailableError` while ``"auto"`` falls
back to the NumPy oracle.

For environments without numba, setting ``REPRO_NATIVE_ALLOW_PYTHON=1``
runs the *same kernel bodies* un-jitted — slow, but it lets the
byte-identity tests and the engine-level plumbing exercise the native
code path everywhere (the env var crosses process boundaries, so
multiprocessing workers inherit it).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.errors import GenerationError, KernelUnavailableError

KERNEL_CHOICES = ("auto", "numpy", "native")

#: Environment hook: run the native kernel bodies as plain Python when
#: numba is absent (testing/bench aid; see module docstring).
ALLOW_PYTHON_ENV = "REPRO_NATIVE_ALLOW_PYTHON"

# Worst case TSV line: 3 int64 fields (20 chars incl. sign) + 2 tabs +
# newline = 63 bytes; 66 leaves slack so the bound never goes stale.
_MAX_LINE_BYTES = 66

_TEN = np.uint64(10)
_ZERO_U = np.uint64(0)
_ONE_U = np.uint64(1)
_ASCII_ZERO = np.uint8(48)
_MINUS = np.uint8(45)
_TAB = np.uint8(9)
_NEWLINE = np.uint8(10)


def _build_kernels(jit):
    """Construct the kernel pair, optionally jitted.

    The same closure bodies serve both modes: ``jit=None`` returns them
    as plain Python (the ``REPRO_NATIVE_ALLOW_PYTHON`` path), otherwise
    each is wrapped by the provided decorator (``numba.njit``).  Keeping
    one source for both is what makes the un-jitted byte-identity tests
    meaningful evidence about the compiled kernels.
    """
    ten, zero_u, one_u = _TEN, _ZERO_U, _ONE_U
    ascii_zero, minus, tab, newline = _ASCII_ZERO, _MINUS, _TAB, _NEWLINE

    def write_int(out, pos, v):
        # Decimal digits of an int64, byte-identical to str(int(v)).
        # Magnitude math runs in uint64 via -(v + 1) + 1 so INT64_MIN
        # never negates out of range.
        if v < 0:
            out[pos] = minus
            pos += 1
            u = np.uint64(-(v + 1)) + one_u
        else:
            u = np.uint64(v)
        n = 1
        t = u // ten
        while t > zero_u:
            n += 1
            t = t // ten
        end = pos + n
        i = end - 1
        while i >= pos:
            out[i] = np.uint8(u % ten) + ascii_zero
            u = u // ten
            i -= 1
        return end

    if jit is not None:
        write_int = jit(write_int)

    def encode_tsv(rows, cols, vals, out):
        pos = 0
        for i in range(rows.shape[0]):
            pos = write_int(out, pos, rows[i])
            out[pos] = tab
            pos += 1
            pos = write_int(out, pos, cols[i])
            out[pos] = tab
            pos += 1
            pos = write_int(out, pos, vals[i])
            out[pos] = newline
            pos += 1
        return pos

    def expand(a_rows, a_cols, a_vals, b_rows, b_cols, b_vals, nb, mb,
               out_r, out_c, out_v):
        # Merge-order expansion: a-row groups × b-row groups, columns
        # ascending within each group (canonical COO), so `pos` walks
        # the output in exact lex (row, col) order.
        pos = 0
        na = a_rows.shape[0]
        nbe = b_rows.shape[0]
        i = 0
        while i < na:
            i2 = i
            ar = a_rows[i]
            while i2 < na and a_rows[i2] == ar:
                i2 += 1
            j = 0
            while j < nbe:
                j2 = j
                br = b_rows[j]
                while j2 < nbe and b_rows[j2] == br:
                    j2 += 1
                row = ar * nb + br
                for ia in range(i, i2):
                    ac = a_cols[ia] * mb
                    av = a_vals[ia]
                    for jb in range(j, j2):
                        out_r[pos] = row
                        out_c[pos] = ac + b_cols[jb]
                        out_v[pos] = av * b_vals[jb]
                        pos += 1
                j = j2
            i = i2
        return pos

    if jit is not None:
        encode_tsv = jit(encode_tsv)
        expand = jit(expand)
    return expand, encode_tsv


_IMPL: "Optional[Tuple[object, object, bool]]" = None  # (expand, encode, jitted)


def numba_available() -> bool:
    """True when ``numba`` can be imported (without importing it eagerly)."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def python_fallback_allowed() -> bool:
    return os.environ.get(ALLOW_PYTHON_ENV, "") not in ("", "0")


def native_available() -> bool:
    """Can ``kernel="native"`` run here?  (numba, or the env hook.)"""
    return numba_available() or python_fallback_allowed()


def resolve_kernel(kernel: Optional[str]) -> str:
    """Map an ``auto``/``numpy``/``native`` request to a concrete kernel.

    ``"auto"`` (or ``None``) picks ``"native"`` exactly when
    :func:`native_available`; an explicit ``"native"`` on a machine that
    cannot run it raises :class:`KernelUnavailableError` instead of
    silently downgrading.
    """
    if kernel is None or kernel == "auto":
        return "native" if native_available() else "numpy"
    if kernel == "numpy":
        return "numpy"
    if kernel == "native":
        if not native_available():
            raise KernelUnavailableError(
                "kernel='native' requires numba (pip install numba) or the "
                f"{ALLOW_PYTHON_ENV}=1 testing hook; use kernel='auto' to "
                "fall back to the NumPy oracle automatically"
            )
        return "native"
    raise GenerationError(
        f"unknown kernel {kernel!r}; choose one of {KERNEL_CHOICES}"
    )


def _load():
    """Build (and cache) the kernel implementations; raises when gated off."""
    global _IMPL
    if _IMPL is None:
        if numba_available():
            import numba

            expand, encode = _build_kernels(
                numba.njit(cache=True, nogil=True)
            )
            _IMPL = (expand, encode, True)
        elif python_fallback_allowed():
            expand, encode = _build_kernels(None)
            _IMPL = (expand, encode, False)
        else:
            # Same message as the strict resolve_kernel branch.
            resolve_kernel("native")
            raise AssertionError("unreachable")  # pragma: no cover
    return _IMPL


def _reset() -> None:
    """Drop the cached kernels (tests flip the env hook around this)."""
    global _IMPL
    _IMPL = None


def kernels_jitted() -> bool:
    """True when the loaded kernels are numba-compiled (vs. env-hook Python)."""
    return _load()[2]


def expand_tile(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    a_vals: np.ndarray,
    b_rows: np.ndarray,
    b_cols: np.ndarray,
    b_vals: np.ndarray,
    nb: int,
    mb: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kron-expand one canonical A-slice against canonical C triples.

    Returns lex-sorted ``(rows, cols, vals)`` — byte-identical to the
    NumPy ``repeat``/``tile``/``lexsort`` path in
    :func:`repro.kron.tiles.kron_tiles`.
    """
    expand, _, _ = _load()
    total = int(a_rows.shape[0]) * int(b_rows.shape[0])
    out_r = np.empty(total, dtype=np.int64)
    out_c = np.empty(total, dtype=np.int64)
    out_v = np.empty(total, dtype=np.int64)
    written = expand(
        np.ascontiguousarray(a_rows, dtype=np.int64),
        np.ascontiguousarray(a_cols, dtype=np.int64),
        np.ascontiguousarray(a_vals, dtype=np.int64),
        np.ascontiguousarray(b_rows, dtype=np.int64),
        np.ascontiguousarray(b_cols, dtype=np.int64),
        np.ascontiguousarray(b_vals, dtype=np.int64),
        np.int64(nb),
        np.int64(mb),
        out_r,
        out_c,
        out_v,
    )
    if int(written) != total:  # defensive: inputs were not canonical
        raise GenerationError(
            f"native expand wrote {int(written)} of {total} entries"
        )
    return out_r, out_c, out_v


def encode_tile_native(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> bytes:
    """TSV-encode a tile, byte-identical to the f-string serializer."""
    _, encode, _ = _load()
    n = int(rows.shape[0])
    if n == 0:
        return b""
    buf = np.empty(n * _MAX_LINE_BYTES, dtype=np.uint8)
    end = encode(
        np.ascontiguousarray(rows, dtype=np.int64),
        np.ascontiguousarray(cols, dtype=np.int64),
        np.ascontiguousarray(vals, dtype=np.int64),
        buf,
    )
    return buf[: int(end)].tobytes()


def warmup_native() -> bool:
    """Compile both kernels now (e.g. in the coordinator before forking
    workers, so children inherit the compiled code).  Returns False when
    the native kernel is unavailable instead of raising."""
    if not native_available():
        return False
    a = np.array([0, 1], dtype=np.int64)
    expand_tile(a, a, a + 1, a, a, a + 1, 2, 2)
    encode_tile_native(a, a, np.array([-1, 7], dtype=np.int64))
    return True
