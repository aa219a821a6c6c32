"""Empirical catalog records — measured from shard directories.

The twin of :mod:`repro.catalog.analytic`: the same
:class:`~repro.catalog.record.DesignProperties` schema, filled from
what a streamed run actually wrote.  One scan reads each shard once
through the checked reader (:func:`repro.io.shards.read_shards`, which
checks its size and sha256 against the manifest) and feeds the degree
histogram and pass 0 of the blocked triangle pass
(:class:`repro.validate.triangle_pass.TrianglePass`), whose later
passes read its spill — both bounded-memory, so directories far larger
than RAM measure fine.

Only **complete** runs are measurable: an in-progress or failed
manifest raises :class:`CatalogError` (a partial graph's properties
would be archived under the full graph's key).  The record's key is
derived from the manifest fingerprint with run-only fields stripped,
so it lands on the same digest as the analytic record of the design,
model, or chain that produced the run — that shared address is the
whole point of the catalog.
"""

from __future__ import annotations

from math import prod
from pathlib import Path
from typing import Optional

from repro.catalog.keys import catalog_key, model_name_for_key
from repro.catalog.record import (
    DesignProperties,
    SpectrumMoments,
    TriangleSummary,
)
from repro.errors import CatalogError


def _num_vertices_from_fingerprint(fp) -> int:
    n = fp.get("num_vertices")
    if n is not None:
        return int(n)
    factors = fp.get("factors")
    if factors is not None:
        # Chain fingerprints record factor shapes; the product's vertex
        # count is the product of the factor row counts.
        return prod(int(rows) for rows, _cols, _nnz in factors)
    raise CatalogError(
        f"fingerprint (keys {sorted(fp)}) carries no vertex count"
    )


def empirical_properties(
    directory, *, memory_budget_entries: Optional[int] = None
) -> DesignProperties:
    """Measure a :class:`DesignProperties` record from a shard directory.

    ``directory`` must hold a complete streamed run (its
    ``manifest.json`` supplies shard order, the fingerprint, and the
    vertex count).  ``memory_budget_entries`` caps the triangle pass's
    adjacency budget; degrees always stream chunk-by-chunk.  A shard
    whose size or sha256 disagrees with the manifest raises
    :class:`~repro.errors.ShardIntegrityError` naming it.
    """
    from repro.engine.sinks import StreamingDegreeAccumulator
    from repro.io.shards import read_shards
    from repro.runtime.checkpoint import STATUS_COMPLETE, RunManifest
    from repro.validate.triangle_pass import (
        DEFAULT_TRIANGLE_BUDGET_ENTRIES,
        TrianglePass,
    )

    directory = Path(directory)
    manifest = RunManifest.load(directory)
    if manifest.status != STATUS_COMPLETE:
        raise CatalogError(
            f"run in {directory} has status {manifest.status!r}; only "
            "complete runs can be cataloged"
        )
    fp = manifest.fingerprint
    key = catalog_key(fp)
    num_vertices = _num_vertices_from_fingerprint(fp)
    degrees = StreamingDegreeAccumulator(num_vertices)
    budget = (
        DEFAULT_TRIANGLE_BUDGET_ENTRIES
        if memory_budget_entries is None
        else memory_budget_entries
    )
    with TrianglePass(num_vertices, budget) as tri_pass:

        def scan(triples):
            degrees.add_block_rows(triples[:, 0])
            tri_pass.add(triples[:, 0], triples[:, 1])

        read_shards(directory, manifest, scan)
        tri = tri_pass.result()
    dist = degrees.distribution()
    return DesignProperties(
        source="empirical",
        model=model_name_for_key(key),
        key_digest=key["digest"],
        num_vertices=num_vertices,
        num_edges=dist.total_nnz(),
        degree_distribution=dist,
        triangles=TriangleSummary.from_stream(tri),
        moments=SpectrumMoments(
            m0=num_vertices,
            m2=2 * tri.num_edges,
            m3=6 * tri.num_triangles,
        ),
    )
