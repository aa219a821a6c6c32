"""Brute-force checks of the benchmark's closed-form references.

Run from the repository root: ``python -m pytest perfbench/test_refs.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402

SMALL = [(2, 3), (3, 4), (2, 3, 4), (1, 2, 3)]


def dense_reference(star_sizes, loop):
    """Everything from a dense G = ⊗A_k - (the product's loop)."""
    a = np.ones((1, 1), dtype=np.int64)
    for m in star_sizes:
        a = np.kron(a, refs.star_factor(m, loop))
    g = a.copy()
    np.fill_diagonal(g, 0)  # the product carries at most one loop
    assert a.trace() == (0 if loop == "none" else 1)
    g2 = g @ g
    per_vertex = np.diag(g2 @ g) // 2
    u, v = np.nonzero(np.triu(g, 1))
    per_edge = g2[u, v]
    return {
        "num_vertices": g.shape[0],
        "num_edges": int(g.sum()),
        "degree_hist": refs.histogram(g.sum(axis=1)),
        "num_triangles": int(np.trace(g2 @ g)) // 6,
        "distinct_edges": len(u),
        "vertex_participation": refs.histogram(per_vertex),
        "edge_participation": refs.histogram(per_edge),
        "vertices_in_triangles": int((per_vertex > 0).sum()),
        "edges_in_triangles": int((per_edge > 0).sum()),
    }


@pytest.mark.parametrize("loop", ["center", "leaf", "none"])
@pytest.mark.parametrize("sizes", SMALL)
def test_closed_forms_match_dense_cube(sizes, loop):
    assert refs.kron_reference(sizes, loop) == dense_reference(sizes, loop)


def _record_doc(ref):
    """A catalog-record document carrying exactly the reference values."""
    as_json = lambda h: {str(k): str(v) for k, v in h.items()}  # noqa: E731
    return {
        "num_vertices": str(ref["num_vertices"]),
        "num_edges": str(ref["num_edges"]),
        "degree_distribution": as_json(ref["degree_hist"]),
        "triangles": {
            "num_triangles": str(ref["num_triangles"]),
            "distinct_edges": str(ref["distinct_edges"]),
            "edges_in_triangles": str(ref["edges_in_triangles"]),
            "vertices_in_triangles": str(ref["vertices_in_triangles"]),
            "vertex_participation": as_json(ref["vertex_participation"]),
            "edge_participation": as_json(ref["edge_participation"]),
        },
        "moments": {
            "m0": str(ref["num_vertices"]),
            "m1": "0",
            "m2": str(2 * ref["distinct_edges"]),
            "m3": str(6 * ref["num_triangles"]),
        },
    }


@pytest.mark.parametrize(
    "field", ["degree_hist", "vertex_participation", "edge_participation"]
)
def test_reference_off_by_one_fails_the_op(field):
    ref = refs.kron_reference((2, 3, 4), "center")
    doc = _record_doc(ref)
    tally = refs.Tally()
    assert tally.add(refs.check_kron_record(doc, ref, participation=True))
    perturbed = dict(ref)
    hist = dict(ref[field])
    key = max(hist)
    hist[key] += 1
    perturbed[field] = hist
    assert not tally.add(refs.check_kron_record(doc, perturbed, participation=True))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons and "op 2" in tally.reasons[0]


def test_triangle_count_off_by_one_fails_the_op():
    ref = refs.kron_reference((3, 4), "leaf")
    perturbed = dict(ref, num_triangles=ref["num_triangles"] + 1)
    assert refs.check_kron_record(_record_doc(ref), perturbed, participation=False)


def _write_shards(directory: Path, triples, ranks=2):
    """A manifest plus TSV shards in the program's line format."""
    directory.mkdir()
    chunks = np.array_split(np.asarray(triples), ranks)
    shards = []
    for rank, chunk in enumerate(chunks):
        data = "".join(f"{r}\t{c}\t{v}\n" for r, c, v in chunk).encode()
        name = f"edges.{rank}.tsv"
        (directory / name).write_bytes(data)
        digest = "sha256:" + hashlib.sha256(data).hexdigest()
        shards.append({"filename": name, "checksum": digest, "nnz": len(chunk)})
    manifest = {"status": "complete", "shards": shards}
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _dense_triples(sizes, loop):
    a = np.ones((1, 1), dtype=np.int64)
    for m in sizes:
        a = np.kron(a, refs.star_factor(m, loop))
    np.fill_diagonal(a, 0)
    r, c = np.nonzero(a)
    return np.stack([r, c, np.ones_like(r)], axis=1)


def test_shard_check_accepts_exact_and_rejects_a_missing_edge(tmp_path):
    sizes, loop = (2, 3, 4), "center"
    ref = refs.kron_reference(sizes, loop)
    triples = _dense_triples(sizes, loop)
    _write_shards(tmp_path / "ok", triples)
    assert refs.check_kron_shards(tmp_path / "ok", ref) == []
    _write_shards(tmp_path / "short", triples[:-1])
    reasons = refs.check_kron_shards(tmp_path / "short", ref)
    assert any("edges" in r for r in reasons)


def test_shard_check_rejects_a_tampered_shard(tmp_path):
    sizes, loop = (3, 4), "leaf"
    ref = refs.kron_reference(sizes, loop)
    _write_shards(tmp_path / "d", _dense_triples(sizes, loop))
    shard = tmp_path / "d" / "edges.0.tsv"
    data = shard.read_bytes()
    shard.write_bytes(data.replace(b"\t1\n", b"\t2\n", 1))
    reasons = refs.check_kron_shards(tmp_path / "d", ref)
    assert any("sha256" in r for r in reasons)
    assert any("value other than 1" in r for r in reasons)


def test_skg_levels_cover_the_design():
    assert refs.skg_levels((2, 3, 4, 5, 9, 16)) == 16  # 61,200 vertices
    assert refs.skg_levels((3, 4, 5, 9)) == 11  # 1,200 vertices
    assert refs.skg_levels((1,)) == 1


def test_record_etag_is_the_canonical_checksum():
    doc = {"b": "1", "a": {"y": "2", "x": "3"}}
    canonical = b'{"a":{"x":"3","y":"2"},"b":"1"}'
    digest = hashlib.sha256(canonical).hexdigest()
    assert refs.record_etag(doc) == f'"sha256:{digest}"'


def test_skg_checks_carry_the_one_rank_run_over(tmp_path):
    rng = np.random.default_rng(5)
    triples = np.stack(
        [rng.integers(0, 16, 40), rng.integers(0, 16, 40), np.ones(40, np.int64)], axis=1
    )
    _write_shards(tmp_path / "one", triples, ranks=1)
    reasons, sha = refs.check_skg_reference(tmp_path / "one", 40, 16)
    assert reasons == []
    _write_shards(tmp_path / "eight", triples, ranks=8)
    assert refs.check_skg_shards(tmp_path / "eight", 40, sha) == []
    assert refs.check_skg_reference(tmp_path / "one", 40, 8)[0]  # ids >= 8
    swapped = triples.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    _write_shards(tmp_path / "swapped", swapped, ranks=8)
    if not np.array_equal(swapped, triples):
        assert refs.check_skg_shards(tmp_path / "swapped", 40, sha)
