"""Triangle participation of the random baselines vs an exact design.

PR 8 recorded the arXiv:1102.5046 comparison for the SKG family; this
closes the ROADMAP follow-up by running the same streamed measurement
against the other two generators the paper contrasts itself with:

* **Chung-Lu**, seeded with the design's *exact* degree sequence (the
  fairest possible handicap: the baseline gets the answer's degree
  distribution as input and still has to realize the triangles);
* **R-MAT**, at the design's scale and undirected edge budget with the
  Graph500 initiator.

Everything funnels through the same
:func:`repro.validate.triangle_pass.triangle_stream` /
:func:`~repro.validate.triangle_pass.compare_triangle_participation`
machinery used for SKG, so the deficiency verdicts are directly
comparable across all four generator families.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Optional

import numpy as np

from repro.baselines.chung_lu import chung_lu_graph
from repro.baselines.rmat import RMATParameters, rmat_graph
from repro.errors import GenerationError
from repro.graphs.adjacency import Graph

#: Baseline generator kinds this module knows how to seed from a design.
BASELINE_CHOICES = ("chung-lu", "rmat")


def baseline_graph(kind: str, design, *, seed: int = 0) -> Graph:
    """Sample a baseline graph matched to ``design``'s headline numbers.

    ``chung-lu`` receives the design's exact per-vertex degree sequence
    as its expected degrees; ``rmat`` receives the design's scale
    (``ceil(log2(num_vertices))``) and undirected edge count.  Both are
    deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    if kind == "chung-lu":
        dist = design.degree_distribution
        weights = np.repeat(
            [float(d) for d, _ in dist.items()],
            [c for _, c in dist.items()],
        )
        # Chung-Lu requires positive expected degrees; designs have no
        # isolated vertices, but guard the contract explicitly.
        if len(weights) != design.num_vertices or (weights <= 0).any():
            raise GenerationError(
                f"design {design!r} degree sequence is not a valid "
                "Chung-Lu weight vector"
            )
        return chung_lu_graph(weights, rng=rng)
    if kind == "rmat":
        scale = max(1, ceil(log2(max(2, design.num_vertices))))
        params = RMATParameters(scale=scale)
        return rmat_graph(params, design.num_edges // 2, rng=rng)
    raise GenerationError(
        f"unknown baseline kind {kind!r}; choose from {BASELINE_CHOICES}"
    )


def baseline_triangle_participation(
    kind: str,
    design,
    *,
    seed: int = 0,
    memory_budget_entries: Optional[int] = None,
):
    """Streamed triangle participation of one baseline sample."""
    from repro.validate.triangle_pass import (
        DEFAULT_TRIANGLE_BUDGET_ENTRIES,
        triangle_stream,
    )

    adj = baseline_graph(kind, design, seed=seed).adjacency
    return triangle_stream(
        [(adj.rows, adj.cols)],
        adj.shape[0],
        memory_budget_entries=(
            DEFAULT_TRIANGLE_BUDGET_ENTRIES
            if memory_budget_entries is None
            else memory_budget_entries
        ),
    )


def compare_baseline_triangles(
    kind: str,
    design,
    *,
    seed: int = 0,
    threshold: float = 0.5,
    memory_budget_entries: Optional[int] = None,
):
    """One baseline sample vs the design's closed-form triangle count.

    Returns a :class:`repro.validate.triangle_pass.TriangleComparison`
    whose ``deficient`` flag answers the paper's question: does the
    random generator realize the designed triangle structure?
    """
    from repro.validate.triangle_pass import compare_triangle_participation

    measured = baseline_triangle_participation(
        kind,
        design,
        seed=seed,
        memory_budget_entries=memory_budget_entries,
    )
    return compare_triangle_participation(
        design, measured, threshold=threshold
    )
