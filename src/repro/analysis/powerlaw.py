"""Power-law fitting and deviation measurement in log10 space.

All arithmetic happens on ``log10`` of exact Python ints, so the
10³⁰-edge designs fit without ever touching float overflow: a count like
``2.7e30`` enters as ``int`` and leaves as ``30.43`` on a log axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.design.distribution import DegreeDistribution
from repro.errors import DesignError


def _log10_exact(value: int) -> float:
    """log10 of a (possibly astronomically large) positive int, via
    ``int.bit_length`` scaling to dodge float conversion overflow."""
    if value <= 0:
        raise DesignError(f"log10 needs a positive value, got {value}")
    if value < 10**300:
        return math.log10(value)
    bits = value.bit_length() - 60
    return bits * math.log10(2) + math.log10(value >> bits)


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``n(d) = c / d^alpha`` on log-log axes."""

    alpha: float
    log10_coefficient: float
    r_squared: float
    num_points: int

    @property
    def coefficient(self) -> float:
        """c as a float (inf if beyond float range — use the log form)."""
        try:
            return 10.0**self.log10_coefficient
        except OverflowError:  # pragma: no cover - astronomically large c
            return math.inf


def fit_power_law(
    distribution: DegreeDistribution | Mapping[int, int],
) -> PowerLawFit:
    """Least-squares line through (log10 d, log10 n(d)), degree-0 excluded."""
    items = (
        list(distribution.items())
        if isinstance(distribution, DegreeDistribution)
        else sorted(distribution.items())
    )
    pts: list[Tuple[float, float]] = [
        (_log10_exact(d), _log10_exact(c)) for d, c in items if d > 0 and c > 0
    ]
    if len(pts) < 2:
        raise DesignError("need at least two positive points to fit a power law")
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise DesignError("degenerate fit: all degrees equal")
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in pts)
    ss_tot = sum((y - my) ** 2 for _, y in pts)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        alpha=-slope, log10_coefficient=intercept, r_squared=r2, num_points=n
    )


def power_law_deviation(
    distribution: DegreeDistribution | Mapping[int, int],
    alpha: float,
    log10_coefficient: float,
) -> float:
    """Max |log10 n(d) - log10 c/d^alpha| over the distribution.

    Zero means every point sits exactly on the line (Fig. 5); the
    center-loop designs of Fig. 6 show "small deviations above and below
    the line", i.e. a small positive value here.
    """
    items = (
        list(distribution.items())
        if isinstance(distribution, DegreeDistribution)
        else sorted(distribution.items())
    )
    worst = 0.0
    for d, c in items:
        if d <= 0 or c <= 0:
            continue
        ideal = log10_coefficient - alpha * _log10_exact(d)
        worst = max(worst, abs(_log10_exact(c) - ideal))
    return worst
