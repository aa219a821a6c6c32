"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDesignCommand:
    def test_prints_exact_properties(self, capsys):
        assert main(["design", "5", "3", "--self-loop", "center"]) == 0
        out = capsys.readouterr().out
        assert "24" in out and "76" in out and "15" in out

    def test_error_path_returns_2(self, capsys):
        assert main(["design", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_legacy_output_unchanged_without_catalog_flags(self, capsys):
        from repro.design import PowerLawDesign

        assert main(["design", "5", "3", "--self-loop", "center"]) == 0
        out = capsys.readouterr().out
        expected = PowerLawDesign([5, 3], "center").report().to_text(max_rows=12)
        assert out == expected + "\n"

    def test_catalog_table_output(self, capsys):
        assert (
            main(
                [
                    "design", "3", "4", "5",
                    "--self-loop", "center",
                    "--catalog", "--participation",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "catalog record [analytic]" in out
        assert "287" in out  # triangles
        assert "participation:" in out

    def test_catalog_json_round_trips(self, capsys):
        import json

        from repro.catalog import DesignProperties

        assert (
            main(["design", "3", "4", "5", "--self-loop", "center", "--json"])
            == 0
        )
        record = DesignProperties.from_doc(
            json.loads(capsys.readouterr().out)
        )
        assert record.num_vertices == 120
        assert record.num_edges == 692

    def test_cache_dir_writes_entry(self, tmp_path, capsys):
        cache = tmp_path / "catalog"
        assert (
            main(
                [
                    "design", "3", "4",
                    "--self-loop", "center",
                    "--json", "--cache-dir", str(cache),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "catalog entry:" in err
        assert len(list(cache.glob("*.analytic.json"))) == 1
        # A second run is served from the same entry, byte-identically.
        entry = next(cache.glob("*.analytic.json"))
        before = entry.read_bytes()
        assert (
            main(
                [
                    "design", "3", "4",
                    "--self-loop", "center",
                    "--json", "--cache-dir", str(cache),
                ]
            )
            == 0
        )
        assert entry.read_bytes() == before

    def test_catalog_model_flag(self, capsys):
        import json

        assert (
            main(
                [
                    "design", "3", "4",
                    "--self-loop", "center",
                    "--model", "noisy-skg",
                    "--model-seed", "3",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "noisy-skg"


class TestSearchCommand:
    def test_search(self, capsys):
        assert main(["search", "100000"]) == 0
        assert "found design" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_with_output(self, tmp_path, capsys):
        out_dir = tmp_path / "ranks"
        assert main(["generate", "3", "4", "--ranks", "3", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "simulated aggregate rate" in out
        assert len(list(out_dir.glob("edges.*.tsv"))) == 3

    def test_generate_without_output(self, capsys):
        assert main(["generate", "3", "4", "--ranks", "2"]) == 0

    def test_generate_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "generate", "3", "4", "5",
                    "--ranks", "3",
                    "--max-retries", "2",
                    "--metrics-out", str(path),
                ]
            )
            == 0
        )
        assert "wrote metrics snapshot" in capsys.readouterr().out
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["ranks.completed"] == 3
        run = snapshot["run"]
        assert run["edges_per_second"] > 0
        ranks = run["execution"]["ranks"]
        assert len(ranks) == 3
        assert all("elapsed_s" in r and "retries" in r for r in ranks)

    def test_generate_backend_flag(self, capsys):
        assert main(["generate", "3", "4", "--ranks", "2", "--backend", "thread"]) == 0
        assert "simulated aggregate rate" in capsys.readouterr().out

    def test_generate_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "3", "4", "--backend", "smoke-signals"])

    def test_generate_kernel_flag_rejected(self, capsys):
        # One kron kernel, so no flag selects one.
        with pytest.raises(SystemExit) as exc:
            main(["generate", "3", "4", "5", "--kernel", "numpy"])
        assert exc.value.code == 2
        assert "--kernel" in capsys.readouterr().err


class TestValidateCommand:
    def test_passing_validation(self, capsys):
        assert main(["validate", "3", "4", "--self-loop", "leaf"]) == 0
        assert "VALIDATION PASSED" in capsys.readouterr().out


class TestScaleCommand:
    def test_sweep(self, capsys):
        assert main(["scale", "3", "4", "5", "--ranks", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "cores" in out and "rate" in out

    def test_sweep_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "scale.json"
        assert (
            main(["scale", "3", "4", "--ranks", "1", "2", "--metrics-out", str(path)])
            == 0
        )
        snapshot = json.loads(path.read_text())
        assert snapshot["run"]["command"] == "scale"
        assert len(snapshot["run"]["sweep"]) == 2
        # 1-rank + 2-rank runs -> 3 rank completions recorded.
        assert snapshot["counters"]["ranks.completed"] == 3


class TestSpectrumCommand:
    def test_prints_spectrum(self, capsys):
        assert main(["spectrum", "3", "4", "--self-loop", "center"]) == 0
        out = capsys.readouterr().out
        assert "spectral radius" in out
        assert "distinct eigenvalues" in out

    def test_raw_nnz_moment_shown(self, capsys):
        assert main(["spectrum", "5", "3"]) == 0
        assert "lambda^2" in capsys.readouterr().out


class TestTrianglesCommand:
    def test_enumerates_and_checks(self, capsys):
        assert main(["triangles", "5", "3", "--self-loop", "center", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "predicted triangles: 15" in out
        assert "enumerated: 15" in out
        assert "... (12 more)" in out

    def test_zero_triangle_design(self, capsys):
        assert main(["triangles", "3", "4"]) == 0
        assert "enumerated: 0" in capsys.readouterr().out


class TestSpyCommand:
    def test_plain(self, capsys):
        assert main(["spy", "5", "3"]) == 0
        out = capsys.readouterr().out
        assert "nnz 60" in out

    def test_permuted(self, capsys):
        assert main(["spy", "5", "3", "--permute-components", "--width", "20"]) == 0
        assert "component-permuted" in capsys.readouterr().out


class TestEstimateCommand:
    def test_feasible(self, capsys):
        assert main(["estimate", "3", "4", "5"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out

    def test_infeasible_budget(self, capsys):
        rc = main(["estimate", "3", "4", "5", "--rank-memory-gb", "0.0000001"])
        assert rc == 1
        assert "no feasible" in capsys.readouterr().out


class TestCheckFilesCommand:
    def _setup(self, tmp_path, loop="center"):
        from repro.design import PowerLawDesign
        from repro.io import save_design
        from repro.parallel import generate_to_disk

        design = PowerLawDesign([3, 4, 5], loop)
        save_design(tmp_path / "design.json", design)
        generate_to_disk(design, 4, tmp_path / "ranks")
        return design

    def test_passing_check(self, tmp_path, capsys):
        self._setup(tmp_path)
        rc = main(
            ["check-files", str(tmp_path / "design.json"), str(tmp_path / "ranks")]
        )
        assert rc == 0
        assert "EXACT" in capsys.readouterr().out

    def test_corrupted_file_fails(self, tmp_path, capsys):
        self._setup(tmp_path)
        victim = next((tmp_path / "ranks").glob("edges.*.tsv"))
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(lines[:-1]) + "\n")  # drop one edge
        rc = main(
            ["check-files", str(tmp_path / "design.json"), str(tmp_path / "ranks")]
        )
        assert rc == 1
        assert "mismatching" in capsys.readouterr().out

    def test_missing_files_error(self, tmp_path, capsys):
        from repro.design import PowerLawDesign
        from repro.io import save_design

        save_design(tmp_path / "design.json", PowerLawDesign([3]))
        (tmp_path / "empty").mkdir()
        rc = main(
            ["check-files", str(tmp_path / "design.json"), str(tmp_path / "empty")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestGenerateStream:
    def test_stream_writes_manifest_and_shards(self, tmp_path, capsys):
        out_dir = tmp_path / "shards"
        rc = main(
            ["generate", "3", "4", "5", "--ranks", "3",
             "--out", str(out_dir), "--stream"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "streamed" in out and "manifest" in out
        assert (out_dir / "manifest.json").is_file()
        assert len(list(out_dir.glob("edges.*.tsv"))) == 3

    def test_stream_requires_out(self, capsys):
        assert main(["generate", "3", "4", "--stream"]) == 2
        assert "require --out" in capsys.readouterr().err

    def test_resume_completes_interrupted_run(self, tmp_path, capsys):
        import pytest as _pytest

        from repro.design import PowerLawDesign
        from repro.parallel import generate_to_disk
        from repro.runtime import CrashInjector, SimulatedCrash

        out_dir = tmp_path / "shards"
        with _pytest.raises(SimulatedCrash):
            generate_to_disk(
                PowerLawDesign([3, 4, 5], "center"), 4, out_dir,
                crash_hook=CrashInjector(2),
            )
        rc = main(
            ["generate", "3", "4", "5", "--self-loop", "center",
             "--ranks", "4", "--out", str(out_dir), "--resume"]
        )
        assert rc == 0
        assert "2 reused from checkpoint, 2 generated" in capsys.readouterr().out


class TestVerifyShardsCommand:
    def _streamed(self, tmp_path):
        from repro.design import PowerLawDesign
        from repro.parallel import generate_to_disk

        return generate_to_disk(
            PowerLawDesign([3, 4, 5], "center"), 4, tmp_path / "shards"
        )

    def test_passing_verification(self, tmp_path, capsys):
        self._streamed(tmp_path)
        assert main(["verify-shards", str(tmp_path / "shards")]) == 0
        out = capsys.readouterr().out
        assert "VERIFICATION PASSED" in out
        assert "EXACT" in out

    def test_corrupt_shard_fails_with_rank_named(self, tmp_path, capsys):
        from pathlib import Path

        summary = self._streamed(tmp_path)
        victim = Path(summary.files[1])
        data = bytearray(victim.read_bytes())
        data[0] ^= 1
        victim.write_bytes(bytes(data))
        assert main(["verify-shards", str(tmp_path / "shards")]) == 1
        out = capsys.readouterr().out
        assert "VERIFICATION FAILED" in out
        assert "rank 1" in out

    def test_no_degrees_flag(self, tmp_path, capsys):
        self._streamed(tmp_path)
        assert main(["verify-shards", str(tmp_path / "shards"), "--no-degrees"]) == 0
        assert "degree distribution" not in capsys.readouterr().out

    def test_missing_manifest_errors(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["verify-shards", str(tmp_path / "empty")]) == 2
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
