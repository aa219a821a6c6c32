"""``RunConfig`` — one object for every run-shaping choice.

Every generation driver takes its run-shaping choices (backend,
scheduler, memory budget, ...) as one frozen :class:`RunConfig` passed
as ``config=`` to :func:`repro.engine.execute.execute`,
:func:`repro.net.execute_over_transport`,
:func:`repro.parallel.stream.generate_to_disk`,
:func:`repro.parallel.generator.generate_design_parallel`,
:func:`repro.parallel.stream.streamed_degree_distribution`,
:func:`repro.parallel.scaling.run_scaling_study`, or
:func:`repro.parallel.simulate.simulate_rate_curve`.

Not every function can honour every field (``execute`` takes its memory
budget from the plan; the degree driver has no checkpoint directory).
Functions declare those fields unsupported, and
:func:`resolve_run_config` raises on a config that sets one instead of
silently ignoring it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.errors import GenerationError


@dataclass(frozen=True)
class RunConfig:
    """How a generation run executes, independent of *what* it generates.

    Every field has a neutral default, so ``RunConfig()`` reproduces
    each driver's historical behaviour exactly.

    Parameters
    ----------
    backend:
        Backend name (``"serial"``, ``"thread"``, ``"multiprocessing"``)
        or instance; ``None`` means serial.
    scheduler:
        A scheduler instance, or ``None`` for each driver's default
        (rank-order submission; see :mod:`repro.engine.scheduler`).
    memory_budget_entries:
        Per-rank memory budget in stored entries; ``None`` means the
        driver's default (50M entries for the generation drivers, 40M
        for ``simulate_rate_curve``).
    transport:
        ``repro.net`` transport name routing tiles through a collector
        (``generate_to_disk`` only); ``None`` writes directly.
    checkpoint_dir:
        Shard/manifest directory for the crash-safe pipeline
        (``generate_design_parallel`` only — ``generate_to_disk`` takes
        the directory positionally).
    resume:
        Resume from an existing manifest instead of regenerating
        completed ranks.
    scramble_seed:
        Graph500-style vertex-relabeling seed; ``None`` disables.
    model:
        Generator model: ``None`` or ``"kron"`` for the deterministic
        Kronecker path (historical behaviour), ``"skg"`` /
        ``"noisy-skg"`` to run the stochastic family matched to the
        driver's design scale, or a
        :class:`~repro.models.GeneratorModel` instance carrying its own
        parameters and seed.  Honoured by ``generate_to_disk`` and
        ``streamed_degree_distribution``; other drivers raise.
    """

    backend: object = None
    scheduler: object = None
    memory_budget_entries: Optional[int] = None
    transport: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    scramble_seed: Optional[int] = None
    model: object = None

    def __post_init__(self) -> None:
        if isinstance(self.model, str):
            from repro.models import MODEL_CHOICES

            if self.model not in MODEL_CHOICES:
                raise GenerationError(
                    f"unknown generator model {self.model!r}; choose one "
                    f"of {MODEL_CHOICES}"
                )
        if (
            self.memory_budget_entries is not None
            and self.memory_budget_entries < 1
        ):
            raise GenerationError(
                "memory_budget_entries must be positive or None, got "
                f"{self.memory_budget_entries}"
            )

    def replace(self, **changes) -> "RunConfig":
        """A copy with the given fields changed (frozen-friendly)."""
        return replace(self, **changes)

    def non_default_fields(self) -> Tuple[str, ...]:
        """Names of fields that differ from ``RunConfig()`` (sorted)."""
        default = _DEFAULT
        return tuple(
            sorted(
                f.name
                for f in fields(self)
                if getattr(self, f.name) != getattr(default, f.name)
            )
        )


_DEFAULT = RunConfig()


def resolve_run_config(
    func_name: str,
    config: Optional[RunConfig],
    *,
    unsupported: Tuple[str, ...] = (),
) -> RunConfig:
    """The ``RunConfig`` a driver runs with: ``config``, or the neutral
    ``RunConfig()`` when it is ``None``.

    Raises :class:`~repro.errors.GenerationError` when ``config`` is not
    a ``RunConfig`` or sets a field named in ``unsupported`` (loud,
    never silently ignored).
    """
    if config is None:
        config = _DEFAULT
    elif not isinstance(config, RunConfig):
        raise GenerationError(
            f"{func_name}: config must be a RunConfig, got "
            f"{type(config).__name__}"
        )
    bad = sorted(set(config.non_default_fields()) & set(unsupported))
    if bad:
        raise GenerationError(
            f"{func_name} does not support config field(s) {bad}; "
            "clear them (see RunConfig docs for which driver honours "
            "which field)"
        )
    return config
