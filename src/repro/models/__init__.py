"""Pluggable generator models: *what* the engine generates.

The plan/schedule/execute/sink pipeline (:mod:`repro.engine`) moves
bounded tiles from workers into sinks; a **generator model** decides
what those tiles contain.  Three models ship:

* :data:`DETERMINISTIC_KRON` (:mod:`repro.models.deterministic_kron`) —
  the paper's exact Kronecker generator, byte-identical to the
  pre-model engine;
* :class:`StochasticKroneckerModel` (:mod:`repro.models.skg`) — plain
  SKG/R-MAT with counter-based per-edge seeding (deterministic for a
  given ``(fingerprint, rank, tile)`` on any backend/scheduler/budget/
  transport, and under worker churn);
* :class:`NoisySKGModel` (:mod:`repro.models.noisy_skg`) — per-level
  initiator noise per Seshadhri/Pinar/Kolda (arXiv:1102.5046), which
  repairs plain SKG's triangle deficiency.

Models ride the whole stack unchanged: every sink, scheduler, backend,
transport, and resume path.  Build a plan with
:func:`repro.engine.plan_from_model` (stochastic family) or the
historical design/chain builders (kron), or pass
``RunConfig(model=...)`` / ``repro-graph generate --model ...``.
"""

from repro.models.base import MODEL_CHOICES, GeneratorModel
from repro.models.deterministic_kron import (
    DETERMINISTIC_KRON,
    DeterministicKronModel,
    default_model,
)
from repro.models.noisy_skg import NoisySKGModel, noisy_skg_from_design
from repro.models.skg import (
    GRAPH500_INITIATOR,
    SKGRankSpec,
    StochasticKroneckerModel,
    counter_u01,
    skg_from_design,
)


def resolve_model(model, *, design=None, seed: int = 0, noise: float = 0.1):
    """A model name or instance → a :class:`GeneratorModel`, or ``None``
    for the deterministic-Kronecker default.

    Strings resolve against :data:`MODEL_CHOICES`; ``"skg"`` and
    ``"noisy-skg"`` need ``design`` to fix the scale (levels and edge
    count are matched to it).  Instances pass through unchanged.
    """
    from repro.errors import GenerationError

    if model is None or model == "kron":
        return None
    if isinstance(model, str):
        if model not in MODEL_CHOICES:
            raise GenerationError(
                f"unknown generator model {model!r}; choose one of "
                f"{MODEL_CHOICES}"
            )
        if design is None:
            raise GenerationError(
                f"resolving model {model!r} by name needs a design to "
                "match scale against; pass a model instance instead"
            )
        if model == "skg":
            return skg_from_design(design, seed=seed)
        return noisy_skg_from_design(design, seed=seed, noise=noise)
    if isinstance(model, GeneratorModel):
        return model
    raise GenerationError(
        f"model must be a name from {MODEL_CHOICES} or a GeneratorModel "
        f"instance, got {type(model).__name__}"
    )


__all__ = [
    "MODEL_CHOICES",
    "GeneratorModel",
    "DeterministicKronModel",
    "DETERMINISTIC_KRON",
    "default_model",
    "StochasticKroneckerModel",
    "NoisySKGModel",
    "SKGRankSpec",
    "GRAPH500_INITIATOR",
    "counter_u01",
    "skg_from_design",
    "noisy_skg_from_design",
    "resolve_model",
]
