"""Analytic catalog records — properties without materialization.

Three subject families, three exactness stories:

* **Kronecker designs** (``PowerLawDesign``): pure closed forms — the
  paper's Section VI argument.  Vertices, edges, triangles, the full
  degree distribution, and the low-order spectral moments all come
  from O(num_stars) arithmetic; a 10³⁰-edge record computes in
  microseconds and never touches an edge.  Participation histograms
  (which closed forms don't give) are optional and, when requested,
  are streamed from a single-rank plan and **cross-checked** against
  the closed forms — a disagreement is a :class:`CatalogError`, not a
  silent record.

* **Stochastic models** (SKG family): counter-based seeding makes the
  whole edge list a pure function of ``(seed, levels, num_edges,
  initiator[, noise])``, so "analytic" here means *exact streamed
  evaluation of the model's definition* — tiles are generated
  plan-side, histogrammed, and discarded; no shard directory, no
  materialized graph, memory bounded by the tile budget.

* **Bare factor chains**: streamed from the chain's own plan the same
  way (a chain fingerprint alone cannot reconstruct factor contents,
  so chains must be submitted as plans).

The vertex scramble is deliberately **not** applied when streaming:
every catalog property is a label-invariant histogram or count, so
records are shared across all scrambles of the same graph — which is
exactly why :func:`repro.catalog.keys.catalog_key` strips the seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Tuple

from repro.catalog.keys import catalog_key, model_name_for_key
from repro.catalog.record import (
    DesignProperties,
    SpectrumMoments,
    TriangleSummary,
)
from repro.errors import CatalogError


class PlanEdgeStream:
    """A ``(rows, cols)`` chunk stream generated straight from a
    :class:`~repro.engine.plan.GenerationPlan`.

    Iterates :func:`repro.engine.execute.iter_task_tiles` over every
    task — model tiles, then the plan's loop removal — with the scramble
    dropped (label-invariant consumers don't need it) and no sink:
    tiles are yielded and dropped, so peak memory is one tile.
    :func:`_streamed_stats` iterates it once; the triangle pass's later
    passes read its own spill, so the graph is never materialized and
    never generated twice.
    """

    def __init__(self, plan) -> None:
        self._plan = replace(plan, scramble_seed=None)

    def __iter__(self):
        from repro.engine.execute import iter_task_tiles

        for task in self._plan.tasks:
            for rows, cols, _vals in iter_task_tiles(self._plan, task):
                yield rows, cols


def _streamed_stats(
    stream, num_vertices: int, *, memory_budget_entries: Optional[int]
) -> Tuple["DegreeDistribution", int, "TriangleStreamResult"]:
    """One read of ``stream`` feeds the degree histogram and pass 0 of
    the blocked triangle pass, whose later passes read its spill."""
    from repro.engine.sinks import StreamingDegreeAccumulator
    from repro.validate.triangle_pass import (
        DEFAULT_TRIANGLE_BUDGET_ENTRIES,
        TrianglePass,
    )

    acc = StreamingDegreeAccumulator(num_vertices)
    budget = (
        DEFAULT_TRIANGLE_BUDGET_ENTRIES
        if memory_budget_entries is None
        else memory_budget_entries
    )
    with TrianglePass(num_vertices, budget) as tri_pass:
        for rows, cols in stream:
            acc.add_block_rows(rows)
            tri_pass.add(rows, cols)
        tri = tri_pass.result()
    return acc.distribution(), acc.edges_seen, tri


def _design_from_key(subject, key: Mapping):
    from repro.design import PowerLawDesign

    if hasattr(subject, "star_sizes") and hasattr(subject, "self_loop"):
        return subject
    return PowerLawDesign(key["star_sizes"], self_loop=key["self_loop"])


def _model_from_key(subject, key: Mapping):
    if hasattr(subject, "_fingerprint_doc") and hasattr(subject, "tile_iter"):
        return subject
    if hasattr(subject, "tasks") and hasattr(subject, "model"):
        return subject.model
    from repro.models.noisy_skg import NoisySKGModel
    from repro.models.skg import StochasticKroneckerModel

    name = key.get("model")
    kwargs = dict(
        levels=int(key["levels"]),
        num_edges=int(key["num_edges"]),
        seed=int(key["seed"]),
        initiator=tuple(float(p) for p in key["initiator"]),
    )
    if name == "skg":
        return StochasticKroneckerModel(**kwargs)
    if name == "noisy-skg":
        return NoisySKGModel(noise=float(key["noise"]), **kwargs)
    raise CatalogError(
        f"cannot reconstruct generator model {name!r} from its key; "
        "pass the model or plan object itself"
    )


def _analytic_design(
    design,
    key: Mapping,
    *,
    include_participation: bool,
    memory_budget_entries: Optional[int],
) -> DesignProperties:
    num_edges = design.num_edges
    num_triangles = design.num_triangles
    distinct_edges = num_edges // 2
    if include_participation:
        from repro.engine.plan import (
            DEFAULT_MEMORY_BUDGET_ENTRIES,
            plan_from_design,
        )

        plan = plan_from_design(
            design,
            1,
            memory_budget_entries=(
                DEFAULT_MEMORY_BUDGET_ENTRIES
                if memory_budget_entries is None
                else memory_budget_entries
            ),
        )
        dist, stored, tri = _streamed_stats(
            PlanEdgeStream(plan),
            design.num_vertices,
            memory_budget_entries=memory_budget_entries,
        )
        # The streamed pass must reproduce every closed form exactly —
        # any gap means a bug somewhere, and a catalog must never
        # archive one side of a disagreement.
        if (
            stored != num_edges
            or tri.num_triangles != num_triangles
            or tri.num_edges != distinct_edges
            or dist != design.degree_distribution
        ):
            raise CatalogError(
                f"streamed participation pass disagrees with closed forms "
                f"for {design!r}: edges {stored} vs {num_edges}, triangles "
                f"{tri.num_triangles} vs {num_triangles}"
            )
        triangles = TriangleSummary.from_stream(tri)
    else:
        dist = design.degree_distribution
        triangles = TriangleSummary(
            num_triangles=num_triangles, distinct_edges=distinct_edges
        )
    return DesignProperties(
        source="analytic",
        model="kron",
        key_digest=key["digest"],
        num_vertices=design.num_vertices,
        num_edges=num_edges,
        degree_distribution=dist,
        triangles=triangles,
        moments=SpectrumMoments(
            m0=design.num_vertices,
            m2=2 * distinct_edges,
            m3=6 * num_triangles,
        ),
    )


def _analytic_streamed(
    plan, key: Mapping, *, memory_budget_entries: Optional[int]
) -> DesignProperties:
    dist, stored, tri = _streamed_stats(
        PlanEdgeStream(plan),
        plan.num_vertices,
        memory_budget_entries=memory_budget_entries,
    )
    return DesignProperties(
        source="analytic",
        model=model_name_for_key(key),
        key_digest=key["digest"],
        num_vertices=plan.num_vertices,
        num_edges=stored,
        degree_distribution=dist,
        triangles=TriangleSummary.from_stream(tri),
        moments=SpectrumMoments(
            m0=plan.num_vertices,
            m2=2 * tri.num_edges,
            m3=6 * tri.num_triangles,
        ),
    )


def analytic_properties(
    subject,
    *,
    include_participation: bool = False,
    memory_budget_entries: Optional[int] = None,
) -> DesignProperties:
    """Compute a :class:`DesignProperties` record without materializing.

    ``subject`` is anything :func:`~repro.catalog.keys.catalog_key`
    accepts — a design, a generator model, a plan, or a fingerprint
    mapping.  Kronecker designs use pure closed forms (set
    ``include_participation=True`` to additionally stream the
    participation histograms, cross-checked against the closed forms);
    stochastic models and chains are evaluated by exact bounded-memory
    streaming of their definition.  ``memory_budget_entries`` caps both
    the tile size and the triangle pass's adjacency budget.
    """
    key = catalog_key(subject)
    kind = key["kind"]
    if kind == "design":
        return _analytic_design(
            _design_from_key(subject, key),
            key,
            include_participation=include_participation,
            memory_budget_entries=memory_budget_entries,
        )
    if kind == "model":
        model = _model_from_key(subject, key)
        from repro.engine.plan import (
            DEFAULT_MEMORY_BUDGET_ENTRIES,
            plan_from_model,
        )

        plan = plan_from_model(
            model,
            1,
            memory_budget_entries=(
                DEFAULT_MEMORY_BUDGET_ENTRIES
                if memory_budget_entries is None
                else memory_budget_entries
            ),
            allow_empty_ranks=True,
        )
        return _analytic_streamed(
            plan, key, memory_budget_entries=memory_budget_entries
        )
    if kind == "chain":
        if not (hasattr(subject, "tasks") and hasattr(subject, "fingerprint")):
            raise CatalogError(
                "a chain fingerprint records factor shapes, not contents; "
                "pass the GenerationPlan built from the chain itself"
            )
        return _analytic_streamed(
            subject, key, memory_budget_entries=memory_budget_entries
        )
    raise CatalogError(f"unrecognized catalog key kind {kind!r}")
