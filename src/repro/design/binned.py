"""Power-law designs under logarithmic degree binning.

Section III notes that real graphs follow power laws either plainly
plotted or under logarithmic degree binning — rarely both — and that
Kronecker products can target the binned view "by placing additional
constraints on the values of m̂".

The constraint implemented here: take every star size as a power of a
common base, ``m̂_k = b^(e_k)``, with exponents having distinct subset
sums (e.g. ``e_k = 2^k``).  Then every product-vertex degree is a pure
power ``b^s``, each log-b bin holds exactly one distinct degree, and the
binned counts follow ``n_bin(s) = b^(T - s)`` with ``T = Σ e_k`` — an
exact power law in the binned view (and, degenerately, in the plain view
too, making such designs exact under *both* readings).
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.design.star_design import PowerLawDesign
from repro.errors import DesignError


def log_binned_design(base: int, num_stars: int) -> PowerLawDesign:
    """A design exact under log-``base`` degree binning.

    Star sizes are ``base^(2^k)`` for ``k = 0..num_stars-1`` (exponents
    1, 2, 4, ... have unique subset sums, the binned analogue of the
    unique-products condition).  Sizes explode doubly-exponentially, so
    ``num_stars`` is capped where the largest star exceeds 10^9 points.
    """
    if base < 2:
        raise DesignError(f"base must be >= 2, got {base}")
    if num_stars < 1:
        raise DesignError(f"need at least one star, got {num_stars}")
    sizes = []
    for k in range(num_stars):
        size = base ** (2**k)
        if size > 10**9:
            raise DesignError(
                f"star {k} would have {size} points; reduce num_stars or base"
            )
        sizes.append(size)
    if base == 2:
        # 2^1 = 2 is a valid star even though the generic search pool
        # excludes it; uniqueness holds by the exponent argument.
        return PowerLawDesign(sizes)
    return PowerLawDesign(sizes, strict_power_law=True)


def binned_series(design: PowerLawDesign, base: int) -> Tuple[Tuple[int, int], ...]:
    """((bin_exponent, total_count), ...) under log-``base`` binning.

    Bin ``s`` covers degrees in ``[base^s, base^(s+1))``.
    """
    if base < 2:
        raise DesignError(f"base must be >= 2, got {base}")
    bins: dict[int, int] = {}
    for degree, count in design.degree_distribution.items():
        if degree == 0:
            raise DesignError("degree-0 vertices have no log bin")
        s = int(math.floor(math.log(degree, base) + 1e-12))
        # Guard against float log noise on huge exact ints.
        while base ** (s + 1) <= degree:
            s += 1
        while base**s > degree:
            s -= 1
        bins[s] = bins.get(s, 0) + count
    return tuple(sorted(bins.items()))


def is_exact_under_log_binning(design: PowerLawDesign, base: int) -> bool:
    """True if binned counts sit exactly on ``n_bin(s) = c / base^s``.

    Checked in exact integer arithmetic: ``count · base^s`` must be the
    same constant for every occupied bin.
    """
    series = binned_series(design, base)
    if len(series) < 2:
        return True
    constants = {count * base**s for s, count in series}
    return len(constants) == 1


def binned_alpha(design: PowerLawDesign, base: int) -> float:
    """Slope of the binned law, ``log n_bin(min) / log d_bin(max)``."""
    series = binned_series(design, base)
    if len(series) < 2:
        raise DesignError("need at least two occupied bins")
    s_max, _ = series[-1]
    _, n_min = series[0]
    if s_max == 0:
        raise DesignError("max bin exponent must exceed 0")
    return math.log(n_min) / (s_max * math.log(base))
