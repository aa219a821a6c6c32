"""The :class:`Semiring` description and a global registry.

A semiring ``(S, add, mul, zero, one)`` supplies the two element-wise
operations used throughout the library.  ``add`` and ``mul`` must be
binary callables that broadcast over NumPy arrays (NumPy ufuncs such as
``np.add`` / ``np.minimum`` qualify, as do plain Python lambdas applied to
arrays).  ``zero`` is the additive identity and must annihilate under
``mul``; ``one`` is the multiplicative identity.

The design path of the library (exact counting) never needs semirings —
it works on the conventional arithmetic semiring over Python ints.  The
semiring layer exists so the *generation* path matches the paper's
GraphBLAS-style generality and so tests can exercise the mixed-product
identity over several algebras.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import SemiringError

BinaryOp = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Semiring:
    """An explicit semiring over NumPy-compatible scalars.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"plus_times"``.
    add:
        Commutative, associative binary op with identity ``zero``.
    mul:
        Associative binary op with identity ``one`` and annihilator
        ``zero``.
    zero:
        Additive identity / multiplicative annihilator.
    one:
        Multiplicative identity.
    dtype:
        Default NumPy dtype for dense arrays over this semiring.
    """

    name: str
    add: BinaryOp
    mul: BinaryOp
    zero: object
    one: object
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def __post_init__(self) -> None:
        if self.name == "":
            raise SemiringError("semiring name must be non-empty")

    # -- reductions -----------------------------------------------------
    def add_reduce(self, values: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Fold ``values`` with ``add`` along ``axis`` (all axes if None).

        Empty reductions return ``zero``.
        """
        arr = np.asarray(values)
        if arr.size == 0:
            if axis is None:
                return np.asarray(self.zero, dtype=arr.dtype if arr.dtype != object else None)
            shape = list(arr.shape)
            del shape[axis]
            return np.full(shape, self.zero, dtype=arr.dtype)
        ufunc = getattr(self.add, "reduce", None)
        if callable(ufunc):
            return self.add.reduce(arr, axis=axis)  # type: ignore[union-attr]
        # Generic fallback: fold along the axis with Python-level loop.
        if axis is None:
            flat = arr.ravel()
            acc = flat[0]
            for v in flat[1:]:
                acc = self.add(acc, v)
            return np.asarray(acc)
        moved = np.moveaxis(arr, axis, 0)
        acc = moved[0]
        for row in moved[1:]:
            acc = self.add(acc, row)
        return acc

    # -- self checks ----------------------------------------------------
    def check_axioms(self, samples: Sequence[object] | None = None) -> None:
        """Verify semiring axioms on a sample set; raise on violation.

        This is a *finite* check (semiring axioms are universally
        quantified), meant to catch blatantly wrong definitions early.
        """
        if samples is None:
            samples = self._default_samples()
        samples = list(samples)
        if self.zero not in samples:
            samples.append(self.zero)
        if self.one not in samples:
            samples.append(self.one)

        add, mul, zero, one = self.add, self.mul, self.zero, self.one
        for a in samples:
            if not _eq(add(a, zero), a) or not _eq(add(zero, a), a):
                raise SemiringError(f"{self.name}: {zero!r} is not an additive identity for {a!r}")
            if not _eq(mul(a, one), a) or not _eq(mul(one, a), a):
                raise SemiringError(f"{self.name}: {one!r} is not a multiplicative identity for {a!r}")
            if not _eq(mul(a, zero), zero) or not _eq(mul(zero, a), zero):
                raise SemiringError(f"{self.name}: {zero!r} does not annihilate {a!r}")
        for a, b in itertools.product(samples, repeat=2):
            if not _eq(add(a, b), add(b, a)):
                raise SemiringError(f"{self.name}: add is not commutative on ({a!r}, {b!r})")
        for a, b, c in itertools.product(samples, repeat=3):
            if not _eq(add(add(a, b), c), add(a, add(b, c))):
                raise SemiringError(f"{self.name}: add is not associative on ({a!r}, {b!r}, {c!r})")
            if not _eq(mul(mul(a, b), c), mul(a, mul(b, c))):
                raise SemiringError(f"{self.name}: mul is not associative on ({a!r}, {b!r}, {c!r})")
            if not _eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))):
                raise SemiringError(f"{self.name}: mul does not left-distribute on ({a!r}, {b!r}, {c!r})")
            if not _eq(mul(add(b, c), a), add(mul(b, a), mul(c, a))):
                raise SemiringError(f"{self.name}: mul does not right-distribute on ({a!r}, {b!r}, {c!r})")

    def _default_samples(self) -> list[object]:
        if self.dtype == np.dtype(bool):
            return [False, True]
        base = [0, 1, 2, 3, 5]
        if np.issubdtype(self.dtype, np.floating):
            return [float(x) for x in base]
        return base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name!r}, zero={self.zero!r}, one={self.one!r})"


def _eq(a: object, b: object) -> bool:
    """Value equality that tolerates NumPy scalars, inf, and nan-free floats."""
    return bool(np.asarray(a == b).all())


_REGISTRY: dict[str, Semiring] = {}


def register_semiring(sr: Semiring, *, overwrite: bool = False) -> Semiring:
    """Add ``sr`` to the global registry; returns it for chaining."""
    if sr.name in _REGISTRY and not overwrite:
        raise SemiringError(f"semiring {sr.name!r} already registered")
    _REGISTRY[sr.name] = sr
    return sr


def get_semiring(name: str) -> Semiring:
    """Look up a registered semiring by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SemiringError(
            f"unknown semiring {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_semirings() -> list[str]:
    """Names of all registered semirings, sorted."""
    return sorted(_REGISTRY)
