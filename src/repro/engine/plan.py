"""The generation plan IR: everything a run needs, decided up front.

A :class:`GenerationPlan` is the frozen middle of the
plan → schedule → execute → sink pipeline.  It bundles the B/C
:class:`~repro.parallel.partition.PartitionPlan`, one
:class:`RankTask` per rank (with its predicted output size, the
scheduler's packing weight), the run identity fingerprint (what resume
compares), and the generation-time transforms (loop removal, vertex
scramble) — so that :func:`repro.engine.execute.execute` is a pure
function of ``(plan, sink)`` and every driver builds its behaviour by
choosing a plan + sink pair instead of re-wiring the loop.

Builders, most- to least-derived:

* :func:`plan_from_design` — from a :class:`PowerLawDesign` (loop
  vertex, closed-form edge total, and the manifest-compatible
  :func:`~repro.runtime.checkpoint.design_fingerprint` all filled in);
* :func:`plan_from_chain` — from a bare factor chain on a
  :class:`~repro.parallel.machine.VirtualCluster`;
* :func:`plan_from_partition` — from an existing partition (the
  adapter entry point: drivers that already built one don't repartition).

NOTE Imports from ``repro.parallel`` are deliberately function-local:
``repro.parallel.generator`` imports this package at module level, so a
top-level import here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import GenerationError
from repro.models import default_model
from repro.runtime.checkpoint import design_fingerprint, payload_checksum

if TYPE_CHECKING:  # annotation-only; see module note on circularity
    from repro.kron.chain import KroneckerChain
    from repro.models import GeneratorModel
    from repro.parallel.machine import VirtualCluster
    from repro.parallel.partition import PartitionPlan, RankAssignment
    from repro.parallel.scramble import ScramblePermutation
    from repro.sparse.coo import COOMatrix

#: Default per-rank memory budget (entries), matching the historical
#: ``VirtualCluster.memory_budget_entries`` default.
DEFAULT_MEMORY_BUDGET_ENTRIES = 50_000_000


@dataclass(frozen=True)
class RankTask:
    """One rank's unit of work plus a size prediction.

    For the deterministic Kronecker model ``assignment`` is the rank's
    B slice and ``estimated_entries`` is exact (``nnz(Bp) · nnz(C)``,
    every pair yields one entry).  Other generator models leave
    ``assignment`` as ``None`` and attach their own picklable ``spec``
    (e.g. :class:`repro.models.skg.SKGRankSpec`, an edge-index range).
    Either way ``estimated_entries`` is what the scheduler packs against
    the memory budget and what decides whether the kernel must tile.
    """

    rank: int
    assignment: Optional["RankAssignment"]
    estimated_entries: int
    spec: object = None


@dataclass(frozen=True)
class GenerationPlan:
    """Immutable description of one generation run (the engine's IR).

    ``model`` names the generator producing the tiles — the
    deterministic Kronecker singleton by default, keeping every
    historical plan byte-identical — and ``partition`` is that model's
    B/C split (``None`` for models without a shared right factor).
    """

    partition: Optional["PartitionPlan"]
    tasks: Tuple[RankTask, ...]
    num_vertices: int
    memory_budget_entries: Optional[int]
    fingerprint: Optional[Dict] = None
    loop_vertex: Optional[int] = None
    scramble_seed: Optional[int] = None
    expected_edges: Optional[int] = None
    expected_nnz: Optional[int] = None
    #: The generator model producing the tiles (see :mod:`repro.models`).
    model: "GeneratorModel" = field(default_factory=default_model)
    # Pre-materialized C (adapters that already hold it avoid a second
    # materialization); excluded from equality/repr like any cache.
    _c: Optional["COOMatrix"] = field(default=None, repr=False, compare=False)

    @property
    def n_ranks(self) -> int:
        return len(self.tasks)

    @property
    def max_task_entries(self) -> int:
        """Largest predicted rank block — the whole-block memory
        high-water mark that ``memory_budget_entries`` tiling bounds."""
        return max((t.estimated_entries for t in self.tasks), default=0)

    @cached_property
    def c_matrix(self) -> "COOMatrix":
        """The shared right factor ``C``, materialized once per plan."""
        if self._c is not None:
            return self._c
        if self.partition is None:
            raise GenerationError(
                f"plan has no shared right factor (model "
                f"{self.model.name!r} carries no B/C partition)"
            )
        return self.partition.c_chain.materialize()

    @cached_property
    def scramble(self) -> Optional["ScramblePermutation"]:
        """The vertex relabeling, or None when ``scramble_seed`` is."""
        if self.scramble_seed is None:
            return None
        from repro.parallel.scramble import scramble_permutation

        return scramble_permutation(self.num_vertices, seed=self.scramble_seed)


def chain_fingerprint(
    chain: "KroneckerChain", *, n_ranks: int, split_index: int
) -> Dict:
    """Run-identity fingerprint for a bare factor chain.

    The chain analogue of
    :func:`~repro.runtime.checkpoint.design_fingerprint`: factor shapes
    and nnzs, partition width, split point, and the product nnz, plus a
    digest over the canonical JSON of those fields.  ``n_ranks`` is
    included because :class:`~repro.runtime.checkpoint.RunManifest`
    derives its rank count from the fingerprint.
    """
    import json

    doc = {
        "factors": [
            [int(m.shape[0]), int(m.shape[1]), int(m.nnz)] for m in chain.factors
        ],
        "n_ranks": int(n_ranks),
        "split_index": int(split_index),
        "nnz": int(chain.nnz),
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["digest"] = payload_checksum(canonical.encode("ascii"))
    return doc


def plan_from_partition(
    partition: "PartitionPlan",
    *,
    num_vertices: int,
    memory_budget_entries: Optional[int],
    fingerprint: Optional[Dict] = None,
    loop_vertex: Optional[int] = None,
    scramble_seed: Optional[int] = None,
    expected_edges: Optional[int] = None,
    expected_nnz: Optional[int] = None,
    c: Optional["COOMatrix"] = None,
) -> GenerationPlan:
    """Wrap an existing partition as a plan (the adapter entry point)."""
    if c is not None and c.nnz != partition.c_chain.nnz:
        raise GenerationError(
            f"pre-materialized c has nnz {c.nnz} but the partition's C "
            f"chain predicts {partition.c_chain.nnz}; a mismatched factor "
            "would skew estimated_entries and scheduler packing"
        )
    c_nnz = c.nnz if c is not None else partition.c_chain.nnz
    tasks = tuple(
        RankTask(
            rank=a.rank,
            assignment=a,
            estimated_entries=a.nnz * c_nnz,
        )
        for a in partition.assignments
    )
    return GenerationPlan(
        partition=partition,
        tasks=tasks,
        num_vertices=num_vertices,
        memory_budget_entries=memory_budget_entries,
        fingerprint=fingerprint,
        loop_vertex=loop_vertex,
        scramble_seed=scramble_seed,
        expected_edges=expected_edges,
        expected_nnz=expected_nnz,
        _c=c,
    )


def plan_from_model(
    model: "GeneratorModel",
    n_ranks: int,
    *,
    memory_budget_entries: Optional[int] = DEFAULT_MEMORY_BUDGET_ENTRIES,
    scramble_seed: Optional[int] = None,
    allow_empty_ranks: bool = False,
) -> GenerationPlan:
    """Plan a run of a self-describing generator model (SKG family).

    The model cuts its own rank tasks (:meth:`GeneratorModel.rank_tasks`)
    and supplies the run-identity fingerprint, so resume refuses a
    manifest written by a different model, seed, scale, or scramble.
    Deterministic-Kronecker plans keep their dedicated builders below —
    their rank tasks come from the B/C partition and their fingerprints
    stay byte-compatible with pre-model manifests.
    """
    return GenerationPlan(
        partition=None,
        tasks=model.rank_tasks(n_ranks, allow_empty_ranks=allow_empty_ranks),
        num_vertices=model.num_vertices,
        memory_budget_entries=memory_budget_entries,
        fingerprint=model.fingerprint(
            n_ranks=n_ranks, scramble_seed=scramble_seed
        ),
        loop_vertex=None,
        scramble_seed=scramble_seed,
        expected_edges=model.num_edges,
        expected_nnz=model.num_edges,
        model=model,
    )


def plan_from_chain(
    chain: "KroneckerChain",
    cluster: "VirtualCluster",
    *,
    split_index: Optional[int] = None,
    allow_empty_ranks: bool = False,
) -> GenerationPlan:
    """Plan a bare factor chain on a virtual cluster."""
    from repro.parallel.partition import partition_bc

    partition = partition_bc(
        chain, cluster, split_index=split_index, allow_empty=allow_empty_ranks
    )
    return plan_from_partition(
        partition,
        num_vertices=chain.num_vertices,
        memory_budget_entries=cluster.memory_budget_entries,
        fingerprint=chain_fingerprint(
            chain, n_ranks=cluster.n_ranks, split_index=partition.split_index
        ),
        expected_nnz=chain.nnz,
    )


def plan_from_design(
    design,
    n_ranks: int,
    *,
    memory_budget_entries: int = DEFAULT_MEMORY_BUDGET_ENTRIES,
    scramble_seed: Optional[int] = None,
    split_index: Optional[int] = None,
    remove_loop: bool = True,
    allow_empty_ranks: bool = False,
) -> GenerationPlan:
    """Plan a :class:`~repro.design.star_design.PowerLawDesign` run.

    The fingerprint is exactly
    :func:`~repro.runtime.checkpoint.design_fingerprint`, so manifests
    written from this plan are byte-compatible with (and resumable
    against) pre-engine streamed runs.
    """
    from repro.parallel.machine import VirtualCluster
    from repro.parallel.partition import partition_bc

    chain = design.to_chain()
    cluster = VirtualCluster(
        n_ranks=n_ranks, memory_budget_entries=memory_budget_entries
    )
    partition = partition_bc(
        chain, cluster, split_index=split_index, allow_empty=allow_empty_ranks
    )
    return plan_from_partition(
        partition,
        num_vertices=design.num_vertices,
        memory_budget_entries=memory_budget_entries,
        fingerprint=design_fingerprint(
            design, n_ranks=n_ranks, scramble_seed=scramble_seed
        ),
        loop_vertex=design.loop_vertex if remove_loop else None,
        scramble_seed=scramble_seed,
        expected_edges=design.num_edges,
        expected_nnz=chain.nnz,
    )
