"""Design search: choosing star sizes to hit a target scale.

The paper's pitch is that exact property computation replaces the
trial-and-error loop of random generators.  This module closes that
loop programmatically: given a target edge (or vertex) count, find a
star-size list whose *exact* product lands within tolerance, subject to
the unique-degree-products condition that keeps the distribution a clean
power law.

Sizes are drawn from a pool of prime powers (the paper's designs use
``{3, 4, 5, 9, 16, 25, 81, 256, 625, ...}``): products of prime powers
with distinct bases are automatically unique, which is why the paper's
m̂ sets look the way they do.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Sequence, Tuple

from repro.design.star_design import PowerLawDesign
from repro.errors import DesignSearchError
from repro.graphs.star import SelfLoop

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def star_size_pool(max_size: int = 15000, *, primes: Sequence[int] = _PRIMES) -> List[int]:
    """Prime powers <= ``max_size`` (excluding 1, 2), sorted.

    These are the natural star sizes: subsets with at most one power per
    prime have pairwise-coprime-driven unique degree products.  Size 2 is
    excluded because 2 = 2¹ collides too easily (2·x patterns), matching
    the paper's pools which start at 3.
    """
    pool = set()
    for p in primes:
        q = p
        while q <= max_size:
            if q > 2:
                pool.add(q)
            q *= p
    return sorted(pool)


def has_unique_degree_products(star_sizes: Sequence[int]) -> bool:
    """The paper's power-law condition: all products of subsets of m̂ are
    distinct (so no two product-vertex degrees collide off the curve).

    Prime-power size lists (every pool this library generates) are
    decided exactly in ~O(N) via per-prime exponent subset sums.  Other
    lists fall back to exhaustive 2^N enumeration, which caps at N = 24;
    beyond that the check conservatively returns False (cannot prove).
    """
    sizes = list(star_sizes)
    if all(_prime_base(s) is not None for s in sizes):
        return _coprime_signature_unique(sizes)
    n = len(sizes)
    if n > 24:
        return False
    seen = set()
    for mask in range(2**n):
        p = 1
        for k in range(n):
            if mask >> k & 1:
                p *= sizes[k]
        if p in seen:
            return False
        seen.add(p)
    return True


def _coprime_signature_unique(sizes: Sequence[int]) -> bool:
    """Exact check for prime-power pools (sufficient in general).

    By unique factorization, subset products of prime powers collide iff
    the exponent subset *sums* collide within some single prime.  Group
    sizes by prime base and check each group's exponent multiset for
    distinct subset sums (groups are small, so 2^|group| is cheap).
    Any size that is not a prime power makes the check return False
    (cannot prove uniqueness) — the exhaustive path handles those pools.
    """
    by_prime: dict[int, list[int]] = {}
    for s in sizes:
        b = _prime_base(s)
        if b is None:
            return False
        exponent = 0
        q = s
        while q > 1:
            q //= b
            exponent += 1
        by_prime.setdefault(b, []).append(exponent)
    for exponents in by_prime.values():
        seen = set()
        for mask in range(2 ** len(exponents)):
            total = sum(e for k, e in enumerate(exponents) if mask >> k & 1)
            if total in seen:
                return False
            seen.add(total)
    return True


def _prime_base(n: int) -> int | None:
    """The prime p with n = p^k, or None if n is not a prime power."""
    if n < 2:
        return None
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return n  # n itself is prime


def design_for_scale(
    target_edges: int,
    *,
    self_loop: SelfLoop | str | None = None,
    rel_tol: float = 0.5,
    max_stars: int = 12,
    pool: Sequence[int] | None = None,
) -> PowerLawDesign:
    """Find a design whose exact edge count is within ``rel_tol`` of target.

    Greedy beam over the prime-power pool: repeatedly multiply in the
    size that moves log(edges) closest to log(target), keeping the
    unique-products condition, then locally improve by swaps.  The
    returned design's ``num_edges`` is *exact* — the tolerance only
    bounds how close to the requested scale the search managed to land.

    Raises :class:`DesignSearchError` when nothing lands inside
    tolerance.
    """
    if target_edges < 2:
        raise DesignSearchError(f"target_edges must be >= 2, got {target_edges}")
    loop = SelfLoop.coerce(self_loop)
    pool = sorted(set(pool)) if pool is not None else star_size_pool()
    log_target = math.log(target_edges)
    tol_log = math.log1p(rel_tol)

    # Each star contributes a fixed log-edge factor: log(2m̂) plain,
    # log(2m̂ + 1) with a loop (the -1 loop removal is negligible in log
    # space and applied exactly at the end via PowerLawDesign).
    def contribution(size: int) -> float:
        return math.log(2 * size + (0 if loop is SelfLoop.NONE else 1))

    logs = [contribution(s) for s in pool]

    # Branch-and-bound DFS over subsets (sorted ascending): adding a star
    # only increases the edge count, so any partial already past
    # target + best_err can be pruned.  Track the best overall subset and
    # every subset inside tolerance; among the latter prefer MORE stars —
    # a single huge star is a degenerate hub, many moderate stars give
    # the rich distributions the paper's designs use.
    best: Tuple[int, ...] | None = None
    best_err = math.inf
    within: List[Tuple[int, float, Tuple[int, ...]]] = []
    # Deterministic work cap: the subset space can be astronomically
    # large for loose tolerances; 200k nodes explores all small-size
    # combinations (visited first) before giving up on exotic ones.
    budget = 200_000

    def visit(sizes: Tuple[int, ...], log_sum: float) -> None:
        nonlocal best, best_err
        err = abs(log_sum - log_target)
        if err <= tol_log:
            if has_unique_degree_products(sizes):
                within.append((len(sizes), err, sizes))
                if err < best_err:
                    best_err, best = err, sizes
        elif err < best_err and has_unique_degree_products(sizes):
            best_err, best = err, sizes

    def dfs(start: int, sizes: Tuple[int, ...], log_sum: float) -> None:
        nonlocal budget
        if budget <= 0:
            return
        budget -= 1
        if sizes:
            visit(sizes, log_sum)
        if len(sizes) >= max_stars:
            return
        for idx in range(start, len(pool)):
            new_sum = log_sum + logs[idx]
            # Prune: already overshooting beyond any useful margin.
            if new_sum - log_target > max(best_err, tol_log):
                break  # pool is sorted; later items overshoot more
            dfs(idx + 1, sizes + (pool[idx],), new_sum)

    dfs(0, (), 0.0)

    if best is None:
        raise DesignSearchError("search produced no candidate designs")
    if within:
        # Most stars wins; error breaks ties.
        within.sort(key=lambda t: (-t[0], t[1]))
        best = within[0][2]
    achieved = PowerLawDesign(best, loop)
    ratio = achieved.num_edges / target_edges
    if not (1 - rel_tol) <= ratio <= 1 / (1 - rel_tol):
        raise DesignSearchError(
            f"best design {list(best)} has {achieved.num_edges} edges, "
            f"{ratio:.3g}x the target {target_edges}; outside rel_tol={rel_tol}"
        )
    return achieved


def design_for_alpha(
    target_alpha: float,
    target_edges: int,
    *,
    self_loop: SelfLoop | str | None = None,
    rel_tol: float = 1.0,
    alpha_tol: float = 0.15,
    max_stars: int = 10,
    pool: Sequence[int] | None = None,
) -> PowerLawDesign:
    """Find a design whose *fitted* slope approximates ``target_alpha``.

    **Feasibility caveat** (a structural fact about the paper's
    construction, verified empirically by this search): star-Kronecker
    degree distributions obey ``n(d)·d = multiplicity(d) · ∏m̂`` where
    the multiplicity bump from colliding subset products is symmetric in
    log-degree — so the least-squares slope stays pinned near the
    paper's ``α = 1`` regardless of size choices (repetition allowed
    here, so the unique-products condition is deliberately dropped).
    Targets near 1 succeed; targets far from 1 exhaust the search space
    and raise :class:`DesignSearchError` — use that as the honest answer
    that the requested slope is not expressible with star constituents.

    α and the edge count trade off; ``alpha_tol`` and ``rel_tol`` bound
    the accepted compromise.
    """
    if target_edges < 2:
        raise DesignSearchError(f"target_edges must be >= 2, got {target_edges}")
    if target_alpha <= 0:
        raise DesignSearchError(f"target_alpha must be positive, got {target_alpha}")
    loop = SelfLoop.coerce(self_loop)
    pool = sorted(set(pool)) if pool is not None else star_size_pool(64)
    log_target = math.log(target_edges)
    tol_log = math.log1p(rel_tol)

    best: PowerLawDesign | None = None
    best_score = math.inf

    def consider(sizes: Tuple[int, ...]) -> None:
        nonlocal best, best_score
        design = PowerLawDesign(sizes, loop)
        edge_err = abs(math.log(design.num_edges) - log_target)
        if edge_err > tol_log:
            return
        try:
            alpha, _ = design.degree_distribution.fit_alpha()
        except Exception:
            return
        alpha_err = abs(alpha - target_alpha)
        if alpha_err > alpha_tol:
            return
        score = alpha_err + 0.1 * edge_err
        if score < best_score:
            best_score, best = score, design

    def dfs(start: int, sizes: Tuple[int, ...], log_sum: float) -> None:
        if sizes:
            consider(sizes)
        if len(sizes) >= max_stars:
            return
        for idx in range(start, len(pool)):  # start, not start+1: repeats allowed
            contribution = math.log(
                2 * pool[idx] + (0 if loop is SelfLoop.NONE else 1)
            )
            new_sum = log_sum + contribution
            if new_sum - log_target > tol_log:
                break
            dfs(idx, sizes + (pool[idx],), new_sum)

    dfs(0, (), 0.0)
    if best is None:
        raise DesignSearchError(
            f"no design with fitted alpha within {alpha_tol} of {target_alpha} "
            f"and edges within rel_tol={rel_tol} of {target_edges}"
        )
    return best


def enumerate_designs(
    pool: Sequence[int], num_stars: int, *, self_loop: SelfLoop | str | None = None
) -> Iterable[PowerLawDesign]:
    """All valid (unique-products) designs with ``num_stars`` sizes drawn
    from ``pool`` — exhaustive, for small pools; used by examples/benches.
    """
    loop = SelfLoop.coerce(self_loop)
    for combo in itertools.combinations(sorted(pool), num_stars):
        if has_unique_degree_products(combo):
            yield PowerLawDesign(combo, loop)
