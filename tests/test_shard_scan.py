"""One checked read per shard: the scan behind ``verify_shards``,
``empirical_properties`` and ``triangle_stream``.

Three claims under test: (1) each call reads each shard once, and the
triangle pass reads any source once; (2) that read checks the shard's
size and sha256 against the manifest, so a corrupt shard raises
``ShardIntegrityError`` naming it (``verify_shards`` reports it with
the reasons of its hash-only check) before anything is cached; (3) the
triangle pass closes its spill when it fails.
"""

import builtins
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.io.shards as shards_module
from repro.catalog import (
    DesignCatalog,
    PlanEdgeStream,
    analytic_properties,
    empirical_properties,
)
from repro.design import PowerLawDesign
from repro.engine import RunConfig
from repro.errors import ShardIntegrityError, ValidationError
from repro.parallel import generate_to_disk, verify_shards
from repro.runtime.checkpoint import RunManifest, verify_shard_record
from repro.validate import triangle_stream

DESIGN = PowerLawDesign([3, 4, 5], "center")
N_RANKS = 3
#: Small enough that the triangle pass cuts several blocks.
BUDGET = 64
#: The shard the corruption tests damage: the only one with three-digit
#: rows (it holds every vertex's first entries).
DAMAGED = "edges.0.tsv"


@pytest.fixture
def shard_dir(tmp_path):
    out = tmp_path / "shards"
    generate_to_disk(DESIGN, N_RANKS, out)
    return out


@pytest.fixture
def shard_opens(monkeypatch):
    """Every ``open`` of a shard file, counted by file name."""
    opened = Counter()
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        if str(file).endswith(".tsv"):
            opened[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return opened


@pytest.fixture
def spills(monkeypatch):
    """Every spill the triangle pass opens."""
    opened = []
    real = tempfile.TemporaryFile

    def spy(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    return opened


def corrupt(path: Path, how: str) -> None:
    """Damage one shard in place; every way but ``truncated`` keeps its
    size (the graph has 120 vertices)."""
    data = bytearray(path.read_bytes())
    last_line = data.rindex(b"\n", 0, len(data) - 1) + 1
    if how == "truncated":
        del data[-1]
    elif how == "digit":
        # The last digit of the last row: any other digit keeps it in range.
        at = data.index(b"\t", last_line) - 1
        data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    elif how == "letter":
        data[last_line] = ord("x")
    else:  # out-of-range: a three-digit row becomes 9xx
        data[re.search(rb"(?m)^\d{3}\t", bytes(data)).start()] = ord("9")
    path.write_bytes(bytes(data))


CORRUPTIONS = ["digit", "out-of-range", "letter", "truncated"]


class TestOneReadPerShard:
    def test_verify_shards(self, shard_dir, shard_opens):
        assert verify_shards(shard_dir).passed
        assert shard_opens == {f"edges.{r}.tsv": 1 for r in range(N_RANKS)}

    def test_empirical_properties(self, shard_dir, shard_opens):
        record = empirical_properties(shard_dir, memory_budget_entries=BUDGET)
        assert record.triangles.num_triangles == DESIGN.num_triangles
        assert shard_opens == {f"edges.{r}.tsv": 1 for r in range(N_RANKS)}

    def test_triangle_stream(self, shard_dir, shard_opens):
        result = triangle_stream(shard_dir, memory_budget_entries=BUDGET)
        assert result.num_blocks > 1
        assert result.num_triangles == DESIGN.num_triangles
        assert shard_opens == {f"edges.{r}.tsv": 1 for r in range(N_RANKS)}

    def test_model_run_shards_are_hashed_not_parsed(
        self, tmp_path, shard_opens, monkeypatch
    ):
        out = tmp_path / "skg"
        generate_to_disk(DESIGN, N_RANKS, out, config=RunConfig(model="skg"))
        parsed = []
        monkeypatch.setattr(
            shards_module, "parse_tsv_chunks", lambda *args: parsed.append(args)
        )
        verification = verify_shards(out)
        assert verification.passed and verification.degree_check is None
        assert parsed == []
        assert shard_opens == {f"edges.{r}.tsv": 1 for r in range(N_RANKS)}

    def test_streamed_stats_iterates_its_plan_stream_once(self, monkeypatch):
        iterations = []
        real_iter = PlanEdgeStream.__iter__

        def spy(self):
            iterations.append(self)
            return real_iter(self)

        monkeypatch.setattr(PlanEdgeStream, "__iter__", spy)
        record = analytic_properties(
            DESIGN, include_participation=True, memory_budget_entries=BUDGET
        )
        assert record.triangles.has_participation
        assert len(iterations) == 1


@pytest.mark.parametrize("how", CORRUPTIONS)
class TestCorruptShard:
    def test_verify_shards_keeps_its_reasons(self, shard_dir, how):
        corrupt(shard_dir / DAMAGED, how)
        record = RunManifest.load(shard_dir).shards[0]
        ok, reason = verify_shard_record(shard_dir, record)
        assert not ok
        assert ("bytes; manifest records" if how == "truncated" else "checksum") in reason
        verification = verify_shards(shard_dir)
        assert verification.bad_ranks == (0,)
        assert verification.ok_ranks == tuple(range(1, N_RANKS))
        assert verification.failures == (f"rank 0: {reason}",)
        assert verification.degree_check is None
        assert f"FAIL: rank 0: {reason}" in verification.to_text()

    def test_one_scan_raises_and_caches_nothing(self, tmp_path, shard_dir, how):
        corrupt(shard_dir / DAMAGED, how)
        catalog = DesignCatalog(tmp_path / "cache")
        with pytest.raises(ShardIntegrityError, match=DAMAGED):
            catalog.empirical(shard_dir, memory_budget_entries=BUDGET)
        assert not list((tmp_path / "cache").glob("*.json"))
        with pytest.raises(ShardIntegrityError, match=DAMAGED):
            triangle_stream(shard_dir, memory_budget_entries=BUDGET)


class TestSpillClosedOnError:
    def test_out_of_range_endpoint_in_the_last_chunk(self, spills):
        ok = (np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int64))
        bad = (np.array([0], dtype=np.int64), np.array([9], dtype=np.int64))
        with pytest.raises(ValidationError, match="out of range"):
            triangle_stream(iter([ok, ok, bad]), 4, memory_budget_entries=2)
        assert len(spills) == 1 and spills[0].closed

    def test_shard_integrity_error(self, shard_dir, spills):
        corrupt(shard_dir / DAMAGED, "digit")
        with pytest.raises(ShardIntegrityError, match=DAMAGED):
            triangle_stream(shard_dir)
        assert len(spills) == 1 and spills[0].closed
