"""The deterministic Kronecker model — the engine's historical payload.

This is the paper's generator, unchanged, behind the
:class:`~repro.models.base.GeneratorModel` protocol: each rank forms
``Ap = Bp ⊗ C`` through the bounded-memory tiled kernel
(:func:`repro.kron.kron_tiles`) and yields its tiles with the global
column offset already applied.  Output bytes are identical to the pre-model engine —
the refactor's central acceptance criterion.

Rank decomposition and fingerprints stay where they always lived: the
B/C partition (:func:`repro.parallel.partition.partition_bc`) and the
design/chain fingerprints
(:func:`repro.runtime.checkpoint.design_fingerprint`,
:func:`repro.engine.plan.chain_fingerprint`) are built by the plan
builders, so manifests remain byte-compatible with (and resumable
against) every run written since the streaming pipeline existed.  The
model therefore refuses :meth:`rank_tasks` / :meth:`fingerprint` — a
deterministic-Kronecker plan is built from a design, chain, or
partition, never from the bare model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GenerationError
from repro.kron.tiles import kron_tiles

if TYPE_CHECKING:
    from repro.engine.plan import RankTask


@dataclass(frozen=True)
class DeterministicKronModel:
    """``Ap = Bp ⊗ C`` per rank, byte-identical to the pre-model engine."""

    name: ClassVar[str] = "kron"
    shared_factor: ClassVar[bool] = True
    #: ``nnz(Bp) · nnz(C)`` — every index pair yields exactly one entry.
    exact_prediction: ClassVar[bool] = True

    def rank_tasks(
        self, n_ranks: int, *, allow_empty_ranks: bool = False
    ) -> Tuple["RankTask", ...]:
        raise GenerationError(
            "the deterministic Kronecker model derives its rank tasks from "
            "a B/C partition; build the plan with plan_from_design, "
            "plan_from_chain, or plan_from_partition"
        )

    def fingerprint(
        self, *, n_ranks: int, scramble_seed: Optional[int] = None
    ) -> Dict:
        raise GenerationError(
            "deterministic Kronecker plans carry design/chain fingerprints "
            "(design_fingerprint / chain_fingerprint); the bare model has "
            "no run identity of its own"
        )

    def tile_iter(
        self, work
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        c = work.c
        if c is None:
            from repro.parallel.shm import attach_shared_coo

            c = attach_shared_coo(work.c_ref)
        offset = work.col_base * c.shape[1]
        for rows, cols, vals in kron_tiles(
            work.b_local, c, work.max_tile_entries
        ):
            yield rows, cols + offset, vals


#: The process-wide singleton every kron-family plan shares.
DETERMINISTIC_KRON = DeterministicKronModel()


def default_model() -> DeterministicKronModel:
    """The model a plan gets when none is specified (historical path)."""
    return DETERMINISTIC_KRON
