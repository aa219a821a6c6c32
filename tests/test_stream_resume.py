"""Crash-safety of streamed generation: atomic shards, manifest, resume.

The acceptance property: a streamed run killed mid-way (via the
injectable crash hook) and resumed produces a shard directory
byte-identical — same shard bytes, same checksums, same manifest — to an
uninterrupted run, and ``verify_shards`` passes the measured-vs-predicted
degree check on it.
"""

import errno
from pathlib import Path

import pytest

from repro.design import PowerLawDesign
from repro.engine import RunConfig
from repro.errors import (
    FatalRankError,
    GenerationError,
    ResumeMismatchError,
    RetryExhaustedError,
)
from repro.parallel import (
    generate_design_parallel,
    generate_to_disk,
    verify_shards,
)
from repro.runtime import (
    MANIFEST_NAME,
    CrashInjector,
    FailureInjector,
    MetricsRegistry,
    RunManifest,
    SimulatedCrash,
)
from repro.runtime.checkpoint import STATUS_COMPLETE, STATUS_FAILED

DESIGN = PowerLawDesign([3, 4, 5], "center")
N_RANKS = 5
RESUME = RunConfig(resume=True)


def _dir_bytes(directory):
    """{filename: content} of every non-temp file in a shard directory."""
    return {
        p.name: p.read_bytes()
        for p in Path(directory).iterdir()
        if not p.name.startswith(".")
    }


class TestManifestLifecycle:
    def test_complete_run_writes_complete_manifest(self, tmp_path):
        summary = generate_to_disk(DESIGN, N_RANKS, tmp_path)
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == STATUS_COMPLETE
        assert manifest.completed_ranks() == list(range(N_RANKS))
        assert manifest.total_nnz == DESIGN.num_edges == summary.total_edges
        assert summary.manifest_path == str(tmp_path / MANIFEST_NAME)

    def test_every_shard_checksum_verifies(self, tmp_path):
        generate_to_disk(DESIGN, N_RANKS, tmp_path)
        verification = verify_shards(tmp_path)
        assert verification.passed, verification.to_text()
        assert verification.degree_check.exact_match

    def test_crash_leaves_valid_partial_manifest(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN, N_RANKS, tmp_path, crash_hook=CrashInjector(2)
            )
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == "in_progress"
        assert manifest.completed_ranks() == [0, 1]
        # The committed shards are already intact on disk.
        for rank in (0, 1):
            assert (tmp_path / f"edges.{rank}.tsv").is_file()


class TestResume:
    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path):
        clean, crashed = tmp_path / "clean", tmp_path / "crashed"
        generate_to_disk(DESIGN, N_RANKS, clean)
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN, N_RANKS, crashed, crash_hook=CrashInjector(3)
            )
        metrics = MetricsRegistry()
        summary = generate_to_disk(
            DESIGN, N_RANKS, crashed, config=RESUME, metrics=metrics
        )
        assert summary.skipped_ranks == 3
        counters = metrics.snapshot()["counters"]
        assert counters["checkpoint.ranks_skipped"] == 3
        assert counters["checkpoint.ranks_regenerated"] == N_RANKS - 3
        # Shards AND manifest identical to the uninterrupted run.
        assert _dir_bytes(clean) == _dir_bytes(crashed)
        assert verify_shards(crashed).passed

    def test_resume_with_scramble_is_byte_identical(self, tmp_path):
        clean, crashed = tmp_path / "clean", tmp_path / "crashed"
        generate_to_disk(DESIGN, N_RANKS, clean, config=RunConfig(scramble_seed=11))
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN, N_RANKS, crashed,
                config=RunConfig(scramble_seed=11), crash_hook=CrashInjector(1),
            )
        generate_to_disk(
            DESIGN,
            N_RANKS,
            crashed,
            config=RunConfig(scramble_seed=11, resume=True),
        )
        assert _dir_bytes(clean) == _dir_bytes(crashed)
        assert verify_shards(crashed).passed

    def test_resume_on_complete_run_regenerates_nothing(self, tmp_path):
        generate_to_disk(DESIGN, N_RANKS, tmp_path)
        metrics = MetricsRegistry()
        summary = generate_to_disk(
            DESIGN, N_RANKS, tmp_path, config=RESUME, metrics=metrics
        )
        assert summary.skipped_ranks == N_RANKS
        assert metrics.snapshot()["counters"]["checkpoint.ranks_regenerated"] == 0

    def test_resume_without_manifest_is_fresh_run(self, tmp_path):
        summary = generate_to_disk(DESIGN, N_RANKS, tmp_path, config=RESUME)
        assert summary.skipped_ranks == 0
        assert verify_shards(tmp_path).passed

    def test_resume_wrong_design_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN, N_RANKS, tmp_path, crash_hook=CrashInjector(1)
            )
        with pytest.raises(ResumeMismatchError):
            generate_to_disk(
                PowerLawDesign([3, 4, 5], "leaf"),
                N_RANKS,
                tmp_path,
                config=RESUME,
            )

    def test_resume_wrong_seed_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN, N_RANKS, tmp_path,
                config=RunConfig(scramble_seed=1), crash_hook=CrashInjector(1),
            )
        with pytest.raises(ResumeMismatchError):
            generate_to_disk(
                DESIGN,
                N_RANKS,
                tmp_path,
                config=RunConfig(scramble_seed=2, resume=True),
            )

    def test_resume_goes_through_retry_path(self, tmp_path):
        """Regenerated ranks get the executor's full retry budget."""
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN, N_RANKS, tmp_path, crash_hook=CrashInjector(2)
            )
        summary = generate_to_disk(
            DESIGN, N_RANKS, tmp_path,
            config=RESUME,
            max_retries=1,
            failure_injector=FailureInjector([2, 4], fail_attempts=1),
        )
        assert summary.total_edges == DESIGN.num_edges
        assert verify_shards(tmp_path).passed

    def test_resume_without_retry_budget_fails_and_marks_manifest(self, tmp_path):
        with pytest.raises(RetryExhaustedError):
            generate_to_disk(
                DESIGN, N_RANKS, tmp_path,
                failure_injector=FailureInjector([3], fail_attempts=1),
            )
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == STATUS_FAILED
        assert manifest.completed_ranks() == [0, 1, 2]
        # A later resume with budget completes the run.
        generate_to_disk(DESIGN, N_RANKS, tmp_path, config=RESUME)
        assert verify_shards(tmp_path).passed


class TestCorruptionDetectionAndRepair:
    def _flip_one_byte(self, path):
        data = bytearray(Path(path).read_bytes())
        data[len(data) // 2] ^= 0x01
        Path(path).write_bytes(bytes(data))

    def test_verify_flags_exactly_the_corrupt_rank(self, tmp_path):
        summary = generate_to_disk(DESIGN, N_RANKS, tmp_path)
        self._flip_one_byte(summary.files[2])
        verification = verify_shards(tmp_path)
        assert not verification.passed
        assert verification.bad_ranks == (2,)
        assert verification.ok_ranks == (0, 1, 3, 4)
        assert any("checksum" in f for f in verification.failures)

    def test_resume_quarantines_and_regenerates_to_identical_checksum(
        self, tmp_path
    ):
        summary = generate_to_disk(DESIGN, N_RANKS, tmp_path)
        original = RunManifest.load(tmp_path).shards[2].checksum
        self._flip_one_byte(summary.files[2])
        metrics = MetricsRegistry()
        resumed = generate_to_disk(
            DESIGN, N_RANKS, tmp_path, config=RESUME, metrics=metrics
        )
        counters = metrics.snapshot()["counters"]
        assert counters["checkpoint.shards_quarantined"] == 1
        assert counters["checkpoint.ranks_regenerated"] == 1
        assert resumed.skipped_ranks == N_RANKS - 1
        assert (tmp_path / "edges.2.tsv.corrupt").is_file()
        assert RunManifest.load(tmp_path).shards[2].checksum == original
        assert verify_shards(tmp_path).passed

    def test_deleted_shard_regenerated(self, tmp_path):
        summary = generate_to_disk(DESIGN, N_RANKS, tmp_path)
        Path(summary.files[1]).unlink()
        assert verify_shards(tmp_path).bad_ranks == (1,)
        generate_to_disk(DESIGN, N_RANKS, tmp_path, config=RESUME)
        assert verify_shards(tmp_path).passed


class TestGracefulDegradation:
    def test_disk_full_is_fatal_and_leaves_failed_manifest(
        self, tmp_path, monkeypatch
    ):
        import repro.engine.sinks as sinks_mod

        real = sinks_mod._open_shard_writer

        def full_after_two(path):
            if "edges.2" in Path(path).name:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(path)

        monkeypatch.setattr(sinks_mod, "_open_shard_writer", full_after_two)
        with pytest.raises(FatalRankError):
            generate_to_disk(DESIGN, N_RANKS, tmp_path, max_retries=3)
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == STATUS_FAILED
        assert manifest.completed_ranks() == [0, 1]

    def test_wrong_total_marks_manifest_failed(self, tmp_path, monkeypatch):
        import repro.engine.sinks as sinks_mod

        real = sinks_mod._serialize_tile
        dropped = {"done": False}

        def lossy(rows, cols, vals):
            data, count = real(rows, cols, vals)
            # Drop the last line of the first tile seen (rank 0 runs
            # first on the serial backend), undercounting the total.
            if not dropped["done"] and count:
                dropped["done"] = True
                lines = data.splitlines(keepends=True)[:-1]
                return b"".join(lines), count - 1
            return data, count

        monkeypatch.setattr(sinks_mod, "_serialize_tile", lossy)
        with pytest.raises(GenerationError):
            generate_to_disk(DESIGN, N_RANKS, tmp_path)
        assert RunManifest.load(tmp_path).status == STATUS_FAILED


class TestStreamSummaryContract:
    def test_files_sorted_by_rank_and_path_convertible(self, tmp_path):
        summary = generate_to_disk(DESIGN, N_RANKS, tmp_path)
        assert [Path(f).name for f in summary.files] == [
            f"edges.{r}.tsv" for r in range(N_RANKS)
        ]
        assert all(Path(f).is_file() for f in summary.files)

    def test_file_order_preserved_across_resume(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN, N_RANKS, tmp_path, crash_hook=CrashInjector(3)
            )
        summary = generate_to_disk(DESIGN, N_RANKS, tmp_path, config=RESUME)
        assert [Path(f).name for f in summary.files] == [
            f"edges.{r}.tsv" for r in range(N_RANKS)
        ]

    def test_scrambled_run_keeps_degree_distribution(self, tmp_path):
        from repro.parallel import read_streamed_degree_distribution

        summary = generate_to_disk(
            DESIGN, 4, tmp_path, config=RunConfig(scramble_seed=3)
        )
        measured = read_streamed_degree_distribution(
            summary.files, DESIGN.num_vertices
        )
        assert measured == DESIGN.degree_distribution


class TestGenerateDesignParallelCheckpoint:
    def test_checkpointed_graph_equals_direct_realization(self, tmp_path):
        graph = generate_design_parallel(
            DESIGN, 4, config=RunConfig(checkpoint_dir=tmp_path / "ckpt")
        )
        assert graph.adjacency.equal(DESIGN.realize().adjacency)
        assert RunManifest.load(tmp_path / "ckpt").status == STATUS_COMPLETE

    def test_resume_completes_interrupted_checkpointed_run(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulatedCrash):
            generate_to_disk(DESIGN, 4, ckpt, crash_hook=CrashInjector(2))
        graph = generate_design_parallel(
            DESIGN, 4, config=RunConfig(checkpoint_dir=ckpt, resume=True)
        )
        assert graph.adjacency.equal(DESIGN.realize().adjacency)

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(GenerationError):
            generate_design_parallel(DESIGN, 4, config=RESUME)
