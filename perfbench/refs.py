"""Reference values and output checks, computed apart from the program.

Everything here is derived from the star sizes and loop policy alone,
with NumPy and the standard library; nothing imports ``repro``.  A
design ``[m1, ..., mN]`` is the Kronecker product ``A = A1 ⊗ ... ⊗ AN``
of star adjacency matrices (centre = vertex 0, leaves 1..m).  With a
``center`` or ``leaf`` loop every factor carries one self-loop, so ``A``
carries exactly one, at the vertex ``l`` whose every factor coordinate
is that factor's looped vertex, and the generated graph is
``G = A - e_l e_l^T``.

* degrees: ``deg_A = ⊗ deg(A_k)``, minus one at ``l``;
* per-vertex triangles: ``diag(G^3) / 2`` with ``diag(A^3) = ⊗ diag(A_k^3)``
  and ``diag(G^3)_v = diag(A^3)_v - A_vl`` for ``v != l``,
  ``diag(G^3)_l = diag(A^3)_l - 2 (A^2)_ll + 1``;
* per-edge triangles: ``(G^2)_uv`` on the edges of ``G``, from
  ``A^2 ∘ A = ⊗ (A_k^2 ∘ A_k)``; an edge touching ``l`` loses one.

``test_refs.py`` checks these forms against a dense ``G^3`` on small
designs.  The rest of the module checks the program's outputs: TSV
shards read one chunk at a time (so the checks never hold more than a
chunk), catalog records, and served replies.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Bytes read per chunk when a check scans a shard.
CHUNK_BYTES = 1 << 24

#: Failure reasons kept per run (the first few are enough to debug).
MAX_REASONS = 5


def star_factor(m_hat: int, loop: str) -> np.ndarray:
    """Dense 0/1 adjacency of a star with ``m_hat`` leaves."""
    a = np.zeros((m_hat + 1, m_hat + 1), dtype=np.int64)
    a[0, 1:] = 1
    a[1:, 0] = 1
    looped = factor_loop_vertex(m_hat, loop)
    if looped is not None:
        a[looped, looped] = 1
    return a


def factor_loop_vertex(m_hat: int, loop: str) -> Optional[int]:
    if loop == "center":
        return 0
    if loop == "leaf":
        return m_hat
    if loop == "none":
        return None
    raise ValueError(f"unknown loop policy {loop!r}")


def _kron_all(vectors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ones(1, dtype=np.int64)
    for v in vectors:
        out = np.kron(out, v)
    return out


def histogram(values: np.ndarray) -> Dict[int, int]:
    keys, counts = np.unique(values, return_counts=True)
    return {int(k): int(c) for k, c in zip(keys, counts)}


def kron_reference(star_sizes: Sequence[int], loop: str) -> Dict:
    """Closed-form properties of a star-product design (see module doc)."""
    factors = [star_factor(m, loop) for m in star_sizes]
    sizes = [f.shape[0] for f in factors]
    n = math.prod(sizes)
    deg = _kron_all([f.sum(axis=1) for f in factors])
    diag3 = _kron_all([np.diag(f @ f @ f) for f in factors])
    loop_coords = [factor_loop_vertex(m, loop) for m in star_sizes]
    ell = None
    if loop != "none":
        ell = 0
        for size, coord in zip(sizes, loop_coords):
            ell = ell * size + coord

    # Every stored entry of A with its (A^2 ∘ A) value, built factor by
    # factor in the same row-major order as np.kron.
    rows = np.zeros(1, dtype=np.int64)
    cols = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=np.int64)
    for f, size in zip(factors, sizes):
        r, c = np.nonzero(f)
        m = (f @ f)[r, c]
        rows = (rows[:, None] * size + r[None, :]).ravel()
        cols = (cols[:, None] * size + c[None, :]).ravel()
        vals = (vals[:, None] * m[None, :]).ravel()

    tri2 = diag3.copy()
    if ell is not None:
        loop_degree = int(deg[ell])  # (A^2)_ll: the loop row's entries
        col_ell = _kron_all([f[:, c] for f, c in zip(factors, loop_coords)])
        tri2 -= col_ell
        tri2[ell] = diag3[ell] - 2 * loop_degree + 1
        deg = deg.copy()
        deg[ell] -= 1
        keep = ~((rows == ell) & (cols == ell))
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        vals = vals - ((rows == ell) | (cols == ell))
    if np.any(tri2 % 2):
        raise AssertionError("diag(G^3) must be even")
    tri = tri2 // 2
    upper = rows < cols
    edge_tri = vals[upper]
    num_edges = int(deg.sum())
    total_tri = int(tri.sum())
    if total_tri % 3:
        raise AssertionError("per-vertex triangles must sum to 3x the count")
    return {
        "num_vertices": n,
        "num_edges": num_edges,
        "degree_hist": histogram(deg),
        "num_triangles": total_tri // 3,
        "distinct_edges": int(upper.sum()),
        "vertex_participation": histogram(tri),
        "edge_participation": histogram(edge_tri),
        "vertices_in_triangles": int((tri > 0).sum()),
        "edges_in_triangles": int((edge_tri > 0).sum()),
    }


def skg_levels(star_sizes: Sequence[int]) -> int:
    """Recursion depth of the SKG model matched to a design: the
    smallest power of two covering its vertex count."""
    n = math.prod(m + 1 for m in star_sizes)
    return max(1, (max(2, n) - 1).bit_length())


# -- failure accounting -------------------------------------------------------
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, reasons: Sequence[str]) -> bool:
        """Count one operation; it failed if any check gave a reason."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"op {self.attempted}: " + "; ".join(reasons))
        return not reasons


# -- shard checks -------------------------------------------------------------
def _parse_tsv(text: str, path: Path) -> np.ndarray:
    arr = np.fromstring(text, dtype=np.int64, sep="\t") if text else np.zeros(0, np.int64)
    if arr.size % 3:
        raise ValueError(f"{path.name}: {arr.size} tokens is not a multiple of 3")
    return arr.reshape(-1, 3)


def scan_shard(path: Path, on_chunk=None, concat=None) -> str:
    """Hash one TSV shard and, when ``on_chunk`` is given, pass its
    ``(k, 3)`` triples to it a chunk at a time; returns ``sha256:<hex>``
    of the file.  ``concat``, when given, is a hashlib object fed the same
    bytes (to hash several files as one)."""
    digest = hashlib.sha256()
    tail = b""
    with open(path, "rb") as fh:
        while data := fh.read(CHUNK_BYTES):
            digest.update(data)
            if concat is not None:
                concat.update(data)
            if on_chunk is None:
                continue
            data = tail + data
            cut = data.rfind(b"\n") + 1
            tail = data[cut:]
            on_chunk(_parse_tsv(data[:cut].decode("ascii"), path))
    if tail:
        raise ValueError(f"{path.name}: trailing partial line {tail[:40]!r}")
    return "sha256:" + digest.hexdigest()


def _load_manifest(directory: Path) -> Tuple[Dict, List[str]]:
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return {"shards": []}, [f"no readable manifest: {exc}"]
    reasons = []
    if manifest.get("status") != "complete":
        reasons.append(f"manifest status {manifest.get('status')!r}")
    return manifest, reasons


def check_kron_shards(directory: Path, ref: Dict) -> List[str]:
    """Edge total, out- and in-degree histograms and every manifest
    checksum of a kron shard directory (label-free, so they hold under
    any vertex scramble)."""
    directory = Path(directory)
    manifest, reasons = _load_manifest(directory)
    n = ref["num_vertices"]
    out_deg = np.zeros(n, dtype=np.int64)
    in_deg = np.zeros(n, dtype=np.int64)
    bad_vals = 0

    def on_chunk(t: np.ndarray) -> None:
        nonlocal bad_vals
        if len(t) and (t[:, :2].min() < 0 or t[:, :2].max() >= n):
            raise ValueError(f"vertex id out of [0, {n})")
        out_deg[:] += np.bincount(t[:, 0], minlength=n)
        in_deg[:] += np.bincount(t[:, 1], minlength=n)
        bad_vals += int((t[:, 2] != 1).sum())

    try:
        for shard in manifest["shards"]:
            actual = scan_shard(directory / shard["filename"], on_chunk)
            if actual != shard["checksum"]:
                reasons.append(f"{shard['filename']}: sha256 differs from manifest")
    except (OSError, ValueError) as exc:
        return reasons + [f"unreadable shards: {exc}"]
    total = int(out_deg.sum())
    if total != ref["num_edges"]:
        reasons.append(f"{total} edges, closed form {ref['num_edges']}")
    if histogram(out_deg) != ref["degree_hist"]:
        reasons.append("out-degree histogram differs from the closed form")
    if histogram(in_deg) != ref["degree_hist"]:
        reasons.append("in-degree histogram differs from the closed form")
    if bad_vals:
        reasons.append(f"{bad_vals} entries with a value other than 1")
    return reasons


def check_skg_reference(directory: Path, num_edges: int, num_vertices: int):
    """Edge count and id range of the one-rank noisy-SKG run; returns
    ``(reasons, sha256 of its shards concatenated)``."""
    directory = Path(directory)
    manifest, reasons = _load_manifest(directory)
    concat = hashlib.sha256()
    count = 0
    low, top = 0, -1

    def on_chunk(t: np.ndarray) -> None:
        nonlocal count, low, top
        count += len(t)
        if len(t):
            low = min(low, int(t[:, :2].min()))
            top = max(top, int(t[:, :2].max()))

    try:
        for shard in manifest["shards"]:
            actual = scan_shard(directory / shard["filename"], on_chunk, concat)
            if actual != shard["checksum"]:
                reasons.append(f"{shard['filename']}: sha256 differs from manifest")
    except (OSError, ValueError) as exc:
        reasons.append(f"unreadable shards: {exc}")
    if count != num_edges:
        reasons.append(f"{count} edges, model has {num_edges}")
    if low < 0 or top >= num_vertices:
        reasons.append(f"vertex ids span [{low}, {top}], not within [0, {num_vertices})")
    return reasons, "sha256:" + concat.hexdigest()


def check_skg_shards(directory: Path, num_edges: int, reference_sha256: str) -> List[str]:
    """Manifest checksums, edge total and byte identity of an eight-rank
    noisy-SKG run with the checked one-rank run (given as its sha256),
    which carries its edge count and id range over to these shards."""
    directory = Path(directory)
    manifest, reasons = _load_manifest(directory)
    concat = hashlib.sha256()
    try:
        for shard in manifest["shards"]:
            if scan_shard(directory / shard["filename"], concat=concat) != shard["checksum"]:
                reasons.append(f"{shard['filename']}: sha256 differs from manifest")
    except OSError as exc:
        return reasons + [f"unreadable shards: {exc}"]
    total = sum(int(shard["nnz"]) for shard in manifest["shards"])
    if total != num_edges:
        reasons.append(f"manifest records {total} edges, model has {num_edges}")
    if "sha256:" + concat.hexdigest() != reference_sha256:
        reasons.append("concatenated shards differ from the one-rank run")
    return reasons


# -- record checks ------------------------------------------------------------
def _int_hist(doc: Optional[Dict]) -> Optional[Dict[int, int]]:
    if doc is None:
        return None
    return {int(k): int(v) for k, v in doc.items()}


def check_kron_record(doc: Dict, ref: Dict, *, participation: bool) -> List[str]:
    """A catalog record (``DesignProperties.to_doc()``) against the
    closed forms; ``participation`` demands the two histograms too."""
    reasons = []
    tri = doc.get("triangles", {})
    moments = doc.get("moments", {})
    expect = {
        "num_vertices": (int(doc.get("num_vertices", -1)), ref["num_vertices"]),
        "num_edges": (int(doc.get("num_edges", -1)), ref["num_edges"]),
        "degree histogram": (
            _int_hist(doc.get("degree_distribution")),
            ref["degree_hist"],
        ),
        "triangles": (int(tri.get("num_triangles", -1)), ref["num_triangles"]),
        "distinct edges": (int(tri.get("distinct_edges", -1)), ref["distinct_edges"]),
        "m0": (int(moments.get("m0", -1)), ref["num_vertices"]),
        "m2": (int(moments.get("m2", -1)), 2 * ref["distinct_edges"]),
        "m3": (int(moments.get("m3", -1)), 6 * ref["num_triangles"]),
    }
    if participation:
        expect.update(
            {
                "vertex participation": (
                    _int_hist(tri.get("vertex_participation")),
                    ref["vertex_participation"],
                ),
                "edge participation": (
                    _int_hist(tri.get("edge_participation")),
                    ref["edge_participation"],
                ),
                "vertices in triangles": (
                    int(tri.get("vertices_in_triangles") or -1),
                    ref["vertices_in_triangles"],
                ),
                "edges in triangles": (
                    int(tri.get("edges_in_triangles") or -1),
                    ref["edges_in_triangles"],
                ),
            }
        )
    for name, (got, want) in expect.items():
        if got != want:
            reasons.append(f"{name} differs from the closed form")
    return reasons


def check_skg_record(doc: Dict, num_edges: int, num_vertices: int) -> List[str]:
    """A stochastic-model record: its edge count and histogram sums."""
    reasons = []
    hist = _int_hist(doc.get("degree_distribution")) or {}
    if int(doc.get("num_edges", -1)) != num_edges:
        reasons.append(f"num_edges {doc.get('num_edges')} != model's {num_edges}")
    if int(doc.get("num_vertices", -1)) != num_vertices:
        reasons.append(f"num_vertices {doc.get('num_vertices')} != {num_vertices}")
    if sum(hist.values()) != num_vertices:
        reasons.append("degree histogram does not sum to the vertex count")
    if sum(d * c for d, c in hist.items()) != num_edges:
        reasons.append("degree histogram does not sum to the edge count")
    return reasons


def record_etag(doc: Dict) -> str:
    """The ETag a record must carry: its canonical-JSON sha256, quoted."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return '"sha256:' + hashlib.sha256(canonical.encode("ascii")).hexdigest() + '"'
