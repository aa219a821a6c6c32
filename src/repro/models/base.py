"""The :class:`GeneratorModel` protocol — what the engine generates.

The engine's plan → schedule → execute → sink pipeline is agnostic to
*what* each rank's payload is; a generator model supplies exactly the
pieces that differ between graph families:

* **per-rank task description** — either a B/C partition assignment
  (deterministic Kronecker) or a model-specific ``spec`` attached to the
  :class:`~repro.engine.plan.RankTask` (e.g. an edge-index range for the
  stochastic family), built by :meth:`GeneratorModel.rank_tasks`;
* **per-tile payload production** — :meth:`GeneratorModel.tile_iter`
  yields global-coordinate ``(rows, cols, vals)`` tiles bounded by the
  plan's ``memory_budget_entries``; the engine worker applies the shared
  transforms (loop removal, vertex scramble) and feeds the sink's
  consumer, so every sink, scheduler, backend, and transport works for
  every model unchanged;
* **seed / fingerprint contribution** — :meth:`GeneratorModel.fingerprint`
  folds the model id and its seeds into the run-identity document that
  manifests record, so resume refuses a checkpoint written by a
  different model or seed (the digest comparison the manifest already
  performs);
* **exact-or-estimated entry prediction** — ``exact_prediction`` says
  whether ``RankTask.estimated_entries`` is an exact output count (both
  built-in families: the Kronecker product emits ``nnz(Bp)·nnz(C)``
  entries, a stochastic rank emits one entry per owned edge index) or a
  scheduler-packing estimate.

Models must be **deterministic**: a tile's bytes may depend only on the
plan (fingerprint, rank, tile index), never on the backend, scheduler,
memory budget, worker churn, or transport — that is the invariant the
cross-backend byte-identity suites enforce for every registered model.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

if TYPE_CHECKING:
    from repro.engine.plan import RankTask

#: CLI/RunConfig spellings of the built-in models.
MODEL_CHOICES = ("kron", "skg", "noisy-skg")


@runtime_checkable
class GeneratorModel(Protocol):
    """What a pluggable generator must provide (structural protocol).

    Implementations must be picklable (they travel to workers inside
    :class:`~repro.engine.execute._RankWork`) and should be frozen
    dataclasses so plan equality works.
    """

    #: Stable model identifier, recorded in fingerprints ("kron", "skg"...).
    name: str
    #: Whether the model consumes a shared right factor (``plan.c_matrix``)
    #: that the engine may move through the zero-copy shared-memory pool.
    #: Only the deterministic Kronecker model sets this.
    shared_factor: bool
    #: Whether ``RankTask.estimated_entries`` is an exact output count.
    exact_prediction: bool

    def rank_tasks(
        self, n_ranks: int, *, allow_empty_ranks: bool = False
    ) -> Tuple["RankTask", ...]:
        """Cut the model's work into one :class:`RankTask` per rank."""
        ...

    def fingerprint(
        self, *, n_ranks: int, scramble_seed: Optional[int] = None
    ) -> Dict:
        """The run-identity document (model id + parameters + seeds +
        digest) recorded in manifests — what resume compares."""
        ...

    def tile_iter(
        self, work
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield one rank's output as bounded global-coordinate tiles.

        ``work`` is the engine's :class:`~repro.engine.execute._RankWork`;
        the model reads its ``spec`` / ``b_local`` / ``c`` / ``c_ref`` /
        ``col_base`` / ``max_tile_entries`` fields.  Tiles
        must arrive pre-offset (global coordinates) and pre-transform —
        the worker applies loop removal and scramble afterwards.
        """
        ...
