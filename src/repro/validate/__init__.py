"""Validation: measured vs. predicted graph properties.

The paper's headline validation (Fig. 4) is that the *measured* degree
distribution of a generated graph agrees exactly with the prediction
computed before generation.  This package performs that comparison plus
the structural audits Section V claims for the generator (no empty
vertices, no stray self-loops, balanced rank blocks, disjoint coverage).
"""

from repro.validate.degree_check import check_degree_distribution, DegreeCheck
from repro.validate.triangle_check import (
    count_triangles_matrix,
    count_triangles_node_iterator,
    count_triangles_ordered,
    check_triangles,
    TriangleCheck,
)
from repro.validate.structure import (
    audit_graph_structure,
    audit_partition,
    StructureAudit,
    PartitionAudit,
)
from repro.validate.report import ValidationReport, validate_design
from repro.io.shards import iter_shard_edges
from repro.validate.triangle_pass import (
    TriangleComparison,
    TriangleStreamResult,
    compare_triangle_participation,
    triangle_stream,
)
from repro.validate.catalog_check import check_against_catalog
# Validation *is* a catalog diff now; re-exported here so callers keep
# one import site.  Last on purpose: repro.catalog's submodules import
# repro.validate.triangle_pass, which the lines above already bound.
from repro.catalog.diff import CatalogDiff, FieldDiff, diff_properties

__all__ = [
    "CatalogDiff",
    "FieldDiff",
    "check_against_catalog",
    "diff_properties",
    "check_degree_distribution",
    "DegreeCheck",
    "count_triangles_matrix",
    "count_triangles_node_iterator",
    "count_triangles_ordered",
    "check_triangles",
    "TriangleCheck",
    "audit_graph_structure",
    "audit_partition",
    "StructureAudit",
    "PartitionAudit",
    "ValidationReport",
    "validate_design",
    "TriangleStreamResult",
    "TriangleComparison",
    "triangle_stream",
    "compare_triangle_participation",
    "iter_shard_edges",
]
