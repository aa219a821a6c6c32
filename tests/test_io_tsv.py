"""The one TSV codec (:mod:`repro.io.tsv`): encoder identity with the
f-string oracle, parser round trips, strict parsing, and the shard
bytes of fixed runs pinned by sha256."""

import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PowerLawDesign, RunConfig
from repro.errors import IOFormatError
from repro.io import read_tsv_edges
from repro.io.tsv import ENCODE_ROW_BLOCK, iter_tsv_triples, write_tsv_triples
from repro.models import noisy_skg_from_design
from repro.parallel.scramble import scramble_permutation
from repro.parallel.stream import generate_to_disk, read_streamed_degree_distribution
from repro.runtime.checkpoint import RunManifest, ShardRecord, payload_checksum
from repro.validate import iter_shard_edges
from tests.oracles import fstring_tsv, read_tsv_lines

INT64 = st.integers(-(2**63), 2**63 - 1)


def encode(rows, cols, vals) -> bytes:
    buf = io.BytesIO()
    assert write_tsv_triples(buf, rows, cols, vals) == len(rows)
    return buf.getvalue()


def columns(triples):
    if not triples:
        return (np.zeros(0, dtype=np.int64),) * 3
    return tuple(np.array(col, dtype=np.int64) for col in zip(*triples))


class TestEncoder:
    @settings(max_examples=80, deadline=None)
    @given(triples=st.lists(st.tuples(INT64, INT64, INT64), max_size=20))
    def test_hypothesis_encoder_matches_fstring_oracle(self, triples):
        rows, cols, vals = columns(triples)
        assert encode(rows, cols, vals) == fstring_tsv(rows, cols, vals)

    def test_int64_extremes(self):
        extremes = np.array(
            [0, 1, -1, 9, -9, 10, -10, 2**63 - 1, -(2**63), 123456789],
            dtype=np.int64,
        )
        reverse = extremes[::-1].copy()
        assert encode(extremes, reverse, extremes) == fstring_tsv(
            extremes, reverse, extremes
        )

    def test_empty_tile_is_empty_bytes(self):
        empty = np.array([], dtype=np.int64)
        assert encode(empty, empty, empty) == b""

    @settings(max_examples=10, deadline=None)
    @given(
        extra=st.integers(0, 3 * ENCODE_ROW_BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_widths_across_row_blocks(self, extra, seed):
        # Widths vary within each column and between row blocks: one
        # block may hold only short values while the next is wider.
        rng = np.random.default_rng(seed)
        n = ENCODE_ROW_BLOCK + extra
        digits = rng.integers(0, 19, n)
        rows = rng.integers(0, 10, n) * 10 ** digits
        cols = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64)
        vals = np.where(np.arange(n) < ENCODE_ROW_BLOCK, 1, -7)
        assert encode(rows, cols, vals) == fstring_tsv(rows, cols, vals)

    def test_object_dtype_labels(self):
        # n > 2^31 makes the scramble return Python ints in an object array.
        perm = scramble_permutation(2**40 + 5, seed=3)
        labels = perm.apply_array(np.array([0, 1, 2**39, 2**40 + 4], dtype=np.int64))
        assert labels.dtype == object
        ones = np.ones(len(labels), dtype=np.int64)
        assert encode(labels, labels, ones) == fstring_tsv(labels, labels, ones)


class TestParser:
    @settings(max_examples=60, deadline=None)
    @given(
        triples=st.lists(st.tuples(INT64, INT64, INT64), max_size=40),
        chunk_bytes=st.sampled_from([1, 7, 64, 1 << 20]),
    )
    def test_round_trip(self, triples, chunk_bytes):
        rows, cols, vals = columns(triples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tsv"
            path.write_bytes(encode(rows, cols, vals))
            chunks = list(iter_tsv_triples(path, chunk_bytes=chunk_bytes))
        parsed = np.concatenate(chunks) if chunks else np.zeros((0, 3), np.int64)
        np.testing.assert_array_equal(parsed, np.stack([rows, cols, vals], axis=1))

    def test_comments_and_blank_lines_match_line_oracle(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("# header\n0\t1\t1\n\n  \n  # indented\n1\t0\t-1\n")
        (parsed,) = list(iter_tsv_triples(path))
        oracle = np.stack(read_tsv_lines(path), axis=1)
        np.testing.assert_array_equal(parsed, oracle)

    def test_missing_final_newline_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_bytes(b"0\t1\t1\n1\t0")
        with pytest.raises(IOFormatError, match="trailing partial line"):
            list(iter_tsv_triples(path))


def _read_with_tsv_edges(path: Path) -> None:
    read_tsv_edges(path, (10**6, 10**6))


def _read_with_degree_reader(path: Path) -> None:
    read_streamed_degree_distribution([path], 10**6)


def _read_with_shard_edges(path: Path) -> None:
    # The record matches the malformed bytes, so the checked reader
    # passes them on and the parser is what fails.
    data = path.read_bytes()
    record = ShardRecord(0, path.name, 0, payload_checksum(data), len(data))
    RunManifest({"n_ranks": 1}, "edges", shards={0: record}).save(path.parent)
    list(iter_shard_edges(path.parent))


@pytest.mark.parametrize(
    "reader", [_read_with_tsv_edges, _read_with_degree_reader, _read_with_shard_edges]
)
@pytest.mark.parametrize(
    "text",
    [
        "1\t2\t3\n4\tx\t6\n",  # a non-integer field
        "1\t2\t3\t4\n5\t6\n",  # lines of four and two fields
        "99999999999999999999\t1\t1\n",  # a field outside int64
    ],
    ids=["non-integer", "field-count", "int64-overflow"],
)
def test_strict_parsing_names_the_file(tmp_path, reader, text):
    path = tmp_path / "edges.0.tsv"
    path.write_text(text)
    with pytest.raises(IOFormatError, match="edges.0.tsv"):
        reader(path)


# -- output bytes --------------------------------------------------------------
#: sha256 of every file of two fixed shard runs, recorded before the
#: vectorized encoder and the integer-threshold SKG kernel replaced the
#: f-string encoder and the float kernel.  Each rank's 19,750-edge block
#: is one tile wider than the encoder's row block.
PINNED = {
    "kron": {
        "edges.0.tsv": "875c5840dfbe1b0ccfc118d948f4295b5628f55e8f663d66fe90cc0a0eebd73b",
        "edges.1.tsv": "6d873ef737e2a8562a126ad6ff9f1661ef788259f17caf730186a188faa3bde3",
        "manifest.json": "318ddd54d17c1af2d64fbda42daf371081c91be9257a9955168fb73b9e717393",
    },
    "noisy-skg": {
        "edges.0.tsv": "32cc2a059ebe08f5dd36457d0887d2f1cbd38594c006aa5a381b2e28480fce5c",
        "edges.1.tsv": "b037a3351fca791668cb21807e514fb4e100139d60928735f366ec5ed3b25527",
        "manifest.json": "3184771d820669db080e37632735a8e13846bb4294da5d3d11dc34cc06de17f0",
    },
}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_shard_bytes_pinned(tmp_path, label):
    design = PowerLawDesign([3, 4, 9, 16], "center")
    config = RunConfig(memory_budget_entries=1 << 15, scramble_seed=11)
    if label == "noisy-skg":
        config = config.replace(model=noisy_skg_from_design(design, seed=5))
    generate_to_disk(design, 2, tmp_path, config=config)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert digests == PINNED[label]
