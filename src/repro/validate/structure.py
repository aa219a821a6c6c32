"""Structural audits of generated graphs and partitions.

Section V claims the generated graphs are "free of many of the
problematic vertices and edges, such as empty vertices and self-loops,
found in randomly generated graphs", and that rank blocks have "the same
number of non-zero entries on each processor".  These audits check those
claims on real outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.adjacency import Graph
from repro.parallel.generator import RankBlock
from repro.parallel.partition import PartitionPlan


@dataclass(frozen=True)
class StructureAudit:
    """Structural health of one realized graph."""

    num_vertices: int
    num_edges: int
    num_empty_vertices: int
    num_self_loops: int
    symmetric: bool

    @property
    def clean(self) -> bool:
        """The paper's claim: no empty vertices, no self-loops, symmetric."""
        return (
            self.num_empty_vertices == 0
            and self.num_self_loops == 0
            and self.symmetric
        )

    def to_text(self) -> str:
        flag = "CLEAN" if self.clean else "ISSUES"
        return (
            f"structure: {flag} — {self.num_vertices:,} vertices, "
            f"{self.num_edges:,} edges, {self.num_empty_vertices} empty "
            f"vertices, {self.num_self_loops} self-loops, "
            f"symmetric={self.symmetric}"
        )


def audit_graph_structure(graph: Graph) -> StructureAudit:
    """Run all structural checks on a realized graph."""
    return StructureAudit(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_empty_vertices=graph.num_empty_vertices(),
        num_self_loops=graph.num_self_loops(),
        symmetric=graph.is_symmetric(),
    )


@dataclass(frozen=True)
class PartitionAudit:
    """Balance and coverage of a parallel generation run."""

    n_ranks: int
    min_block_nnz: int
    max_block_nnz: int
    total_nnz: int
    expected_nnz: int
    disjoint: bool
    spread_allowance: int

    @property
    def balanced(self) -> bool:
        """Per-rank nnz within one B-triple's fanout of each other.

        Exactly equal when Np divides nnz(B) — the paper's stated
        property; otherwise slices differ by one B triple, i.e. the
        block nnz spread is at most nnz(C) (= ``spread_allowance``).
        """
        return self.max_block_nnz - self.min_block_nnz <= self.spread_allowance

    @property
    def complete(self) -> bool:
        return self.disjoint and self.total_nnz == self.expected_nnz

    def to_text(self) -> str:
        return (
            f"partition: ranks={self.n_ranks}, block nnz in "
            f"[{self.min_block_nnz:,}, {self.max_block_nnz:,}], "
            f"total {self.total_nnz:,} / expected {self.expected_nnz:,}, "
            f"disjoint={self.disjoint}"
        )


def audit_partition(
    plan: PartitionPlan, blocks: Sequence[RankBlock], expected_nnz: int
) -> PartitionAudit:
    """Verify disjointness, coverage, and balance of generated blocks."""
    counts = [b.nnz for b in blocks]
    total = sum(counts)
    # Disjointness: global (row, col) keys must be unique across blocks.
    keys = []
    for b in blocks:
        rows, cols, _ = b.global_triples()
        n_cols = plan.b_chain.num_vertices * b.c_cols
        keys.append(rows * n_cols + cols)
    allkeys = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    disjoint = len(np.unique(allkeys)) == len(allkeys)
    return PartitionAudit(
        n_ranks=len(blocks),
        min_block_nnz=min(counts) if counts else 0,
        max_block_nnz=max(counts) if counts else 0,
        total_nnz=total,
        expected_nnz=expected_nnz,
        disjoint=bool(disjoint),
        spread_allowance=plan.c_chain.nnz,
    )
