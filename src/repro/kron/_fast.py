"""Optional compiled fast path for Kronecker tile expansion.

The kernel has a pure-Python body that is ``numba.njit``-compatible as
written: merge-order expansion.  Because canonical COO inputs have
unique ``(row, col)`` keys, walking row groups of the ``Bp`` slice
crossed with row groups of ``C`` (columns ascending within each group)
emits the product *already in lex order* — byte-identical to the NumPy
``repeat``/``tile``/``lexsort`` oracle with no sort at all.  (TSV
encoding has one implementation, NumPy-vectorized, in
:mod:`repro.io.tsv`.)

Gating: importing this module is always safe (``numba`` is only imported on first kernel use),
:func:`native_available` answers the capability question, and asking
for ``kernel="native"`` on a bare interpreter raises
:class:`~repro.errors.KernelUnavailableError` while ``"auto"`` falls
back to the NumPy oracle.

For environments without numba, setting ``REPRO_NATIVE_ALLOW_PYTHON=1``
runs the *same kernel body* un-jitted — slow, but it lets the
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

#: Environment hook: run the native kernel body as plain Python when
#: numba is absent (testing/bench aid; see module docstring).
ALLOW_PYTHON_ENV = "REPRO_NATIVE_ALLOW_PYTHON"


def _build_kernel(jit):
    """Construct the expand kernel, optionally jitted.

    The same closure body serves both modes: ``jit=None`` returns it as
    plain Python (the ``REPRO_NATIVE_ALLOW_PYTHON`` path), otherwise it
    is wrapped by the provided decorator (``numba.njit``).  Keeping one
    source for both is what makes the un-jitted byte-identity tests
    meaningful evidence about the compiled kernel.
    """

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

    return expand if jit is None else jit(expand)


_IMPL: "Optional[Tuple[object, bool]]" = None  # (expand, jitted)


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
    """Build (and cache) the kernel implementation; raises when gated off."""
    global _IMPL
    if _IMPL is None:
        if numba_available():
            import numba

            _IMPL = (_build_kernel(numba.njit(cache=True, nogil=True)), True)
        elif python_fallback_allowed():
            _IMPL = (_build_kernel(None), False)
        else:
            # Same message as the strict resolve_kernel branch.
            resolve_kernel("native")
            raise AssertionError("unreachable")  # pragma: no cover
    return _IMPL


def _reset() -> None:
    """Drop the cached kernel (tests flip the env hook around this)."""
    global _IMPL
    _IMPL = None


def kernels_jitted() -> bool:
    """True when the loaded kernel is numba-compiled (vs. env-hook Python)."""
    return _load()[1]


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
    expand, _ = _load()
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


def warmup_native() -> bool:
    """Compile the kernel now (e.g. in the coordinator before forking
    workers, so children inherit the compiled code).  Returns False when
    the native kernel is unavailable instead of raising."""
    if not native_available():
        return False
    a = np.array([0, 1], dtype=np.int64)
    expand_tile(a, a, a + 1, a, a, a + 1, 2, 2)
    return True
