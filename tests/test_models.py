"""The generator-model layer: SKG family determinism and engine fit.

The hard promise under test is **counter-based determinism**: a
stochastic model's output is a pure function of ``(seed, edge index,
level)``, so the *same bytes* come out of every backend, scheduler,
memory budget, and transport — and resume after a crash regenerates
exactly the missing shards.  The deterministic-Kronecker path must stay
byte-identical to the pre-model engine (its plans and fingerprints are
unchanged), and cross-model or cross-seed resume must be refused by the
manifest fingerprint, never silently mixed.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.design import PowerLawDesign
from repro.engine import (
    RunConfig,
    ShardSink,
    StaticScheduler,
    WorkQueueScheduler,
    execute,
    plan_from_model,
)
from repro.errors import (
    GenerationError,
    PartitionError,
    ResumeMismatchError,
)
from repro.models import (
    DETERMINISTIC_KRON,
    MODEL_CHOICES,
    GeneratorModel,
    NoisySKGModel,
    SKGRankSpec,
    StochasticKroneckerModel,
    counter_u01,
    noisy_skg_from_design,
    resolve_model,
    skg_from_design,
)
from repro.parallel import generate_to_disk
from repro.parallel.partition import partition_bc
from repro.parallel.machine import VirtualCluster
from tests.oracles import skg_generate_float

DESIGN = PowerLawDesign([3, 4, 5], "center")
SKG = StochasticKroneckerModel(levels=6, num_edges=300, seed=42)
NOISY = NoisySKGModel(levels=6, num_edges=300, seed=42, noise=0.1)


def shard_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.tsv"))
    }


def manifest_fields(directory):
    doc = json.loads((Path(directory) / "manifest.json").read_text())
    return {k: doc[k] for k in ("fingerprint", "shards", "status", "prefix")}


# -- the counter-based PRNG ---------------------------------------------------
class TestCounterU01:
    def test_values_in_unit_interval(self):
        u = counter_u01(7, np.arange(10_000, dtype=np.uint64), 3)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0

    def test_tile_boundary_invariance(self):
        """The stream is indexed by absolute edge counter, so chunking
        cannot change any value — the root of budget independence."""
        idx = np.arange(1000, dtype=np.uint64)
        whole = counter_u01(9, idx, 2)
        pieces = np.concatenate(
            [counter_u01(9, idx[i : i + 17], 2) for i in range(0, 1000, 17)]
        )
        np.testing.assert_array_equal(whole, pieces)

    def test_seed_and_level_decorrelate(self):
        idx = np.arange(4096, dtype=np.uint64)
        assert not np.array_equal(counter_u01(1, idx, 0), counter_u01(2, idx, 0))
        assert not np.array_equal(counter_u01(1, idx, 0), counter_u01(1, idx, 1))

    def test_roughly_uniform(self):
        u = counter_u01(0, np.arange(1 << 16, dtype=np.uint64), 5)
        hist, _ = np.histogram(u, bins=16, range=(0.0, 1.0))
        assert hist.min() > (1 << 12) * 0.85
        assert hist.max() < (1 << 12) * 1.15


# -- the integer-threshold kernel against the float oracle -------------------
class TestIntegerThresholdKernel:
    @pytest.mark.parametrize(
        "length", [1, (1 << 15) - 1, 1 << 15, (1 << 15) + 1, 1 << 17]
    )
    @pytest.mark.parametrize(
        "model",
        [
            SKG,
            NOISY,
            StochasticKroneckerModel(
                levels=16, num_edges=1 << 20, seed=3, initiator=(0.0, 0.5, 0.5, 0.0)
            ),
            NoisySKGModel(
                levels=20,
                num_edges=1 << 20,
                seed=5,
                initiator=(0.5, 0.25, 0.25, 0.0),
                noise=0.1,
            ),
        ],
        ids=["skg", "noisy-skg", "skg-zero-a-d", "noisy-skg-zero-d"],
    )
    def test_matches_float_oracle(self, model, length):
        lo = 12345
        got = model._generate(lo, lo + length)
        want = skg_generate_float(model, lo, lo + length)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


# -- model construction and validation ----------------------------------------
class TestModelConstruction:
    def test_protocol_conformance(self):
        for model in (DETERMINISTIC_KRON, SKG, NOISY):
            assert isinstance(model, GeneratorModel)
        assert DETERMINISTIC_KRON.name == "kron"
        assert SKG.name == "skg"
        assert NOISY.name == "noisy-skg"
        assert set(MODEL_CHOICES) == {"kron", "skg", "noisy-skg"}

    def test_initiator_must_normalize(self):
        with pytest.raises(GenerationError, match="sum"):
            StochasticKroneckerModel(
                levels=3, num_edges=10, initiator=(0.5, 0.4, 0.3, 0.2)
            )

    def test_levels_and_edges_validated(self):
        with pytest.raises(GenerationError):
            StochasticKroneckerModel(levels=0, num_edges=10)
        with pytest.raises(GenerationError):
            StochasticKroneckerModel(levels=3, num_edges=-1)

    def test_noisy_feasibility_bound(self):
        # noise must stay within min(b, c, (a+d)/2) or some level's
        # perturbed initiator goes negative.
        with pytest.raises(GenerationError, match="noise"):
            NoisySKGModel(levels=3, num_edges=10, noise=0.5)

    def test_noisy_thresholds_differ_per_level(self):
        per_level = NOISY._thresholds
        assert len(set(per_level)) > 1  # levels got distinct perturbations
        plain = SKG._thresholds
        assert all(t == plain[0] for t in plain)

    def test_from_design_matches_scale(self):
        m = skg_from_design(DESIGN, seed=3)
        assert m.num_vertices >= DESIGN.num_vertices
        assert m.num_edges == DESIGN.num_edges
        assert m.seed == 3
        noisy = noisy_skg_from_design(DESIGN, seed=3, noise=0.05)
        assert noisy.noise == 0.05

    def test_resolve_model(self):
        assert resolve_model(None) is None
        assert resolve_model("kron") is None
        assert resolve_model(SKG) is SKG
        assert resolve_model("skg", design=DESIGN).name == "skg"
        assert resolve_model("noisy-skg", design=DESIGN).name == "noisy-skg"
        with pytest.raises(GenerationError, match="unknown generator model"):
            resolve_model("bogus", design=DESIGN)
        with pytest.raises(GenerationError, match="design"):
            resolve_model("skg")
        with pytest.raises(GenerationError, match="GeneratorModel"):
            resolve_model(3.14)

    def test_run_config_validates_model_name(self):
        with pytest.raises(GenerationError, match="unknown generator model"):
            RunConfig(model="typo")
        assert RunConfig(model="skg").model == "skg"


# -- plan building ------------------------------------------------------------
class TestPlanFromModel:
    def test_tasks_cover_edge_range_exactly(self):
        plan = plan_from_model(SKG, 7)
        specs = [t.spec for t in plan.tasks]
        assert all(isinstance(s, SKGRankSpec) for s in specs)
        assert specs[0].start == 0
        assert specs[-1].stop == SKG.num_edges
        for prev, cur in zip(specs, specs[1:]):
            assert prev.stop == cur.start
        assert sum(t.estimated_entries for t in plan.tasks) == SKG.num_edges

    def test_empty_ranks_gated(self):
        tiny = StochasticKroneckerModel(levels=4, num_edges=2)
        with pytest.raises(PartitionError, match="empty"):
            plan_from_model(tiny, 5)
        plan = plan_from_model(tiny, 5, allow_empty_ranks=True)
        assert plan.n_ranks == 5
        assert sum(t.estimated_entries for t in plan.tasks) == 2

    def test_fingerprint_distinguishes_model_seed_scale(self):
        digests = {
            plan_from_model(m, 4).fingerprint["digest"]
            for m in (
                SKG,
                NOISY,
                StochasticKroneckerModel(levels=6, num_edges=300, seed=43),
                StochasticKroneckerModel(levels=7, num_edges=300, seed=42),
            )
        }
        assert len(digests) == 4

    def test_no_shared_factor(self):
        plan = plan_from_model(SKG, 2)
        assert plan.partition is None
        with pytest.raises(GenerationError, match="no shared right factor"):
            plan.c_matrix

    def test_kron_rank_tasks_delegated_to_partition_builders(self):
        with pytest.raises(GenerationError):
            DETERMINISTIC_KRON.rank_tasks(4)


class TestPlanFromPartitionValidation:
    def test_mismatched_prematerialized_c_refused(self):
        # Satellite: a pre-materialized C whose nnz disagrees with the
        # partition's C chain would silently skew every estimate.
        from repro.engine.plan import plan_from_partition

        chain = DESIGN.to_chain()
        cluster = VirtualCluster(n_ranks=2, memory_budget_entries=10**6)
        partition = partition_bc(chain, cluster)
        good_c = partition.c_chain.materialize()
        plan = plan_from_partition(
            partition,
            num_vertices=DESIGN.num_vertices,
            memory_budget_entries=10**6,
            c=good_c,
        )
        assert plan.c_matrix is good_c
        from repro.sparse.coo import COOMatrix

        bogus = COOMatrix(
            good_c.shape,
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )
        with pytest.raises(GenerationError, match="nnz"):
            plan_from_partition(
                partition,
                num_vertices=DESIGN.num_vertices,
                memory_budget_entries=10**6,
                c=bogus,
            )


# -- seed determinism and byte-identity ---------------------------------------
@pytest.mark.parametrize("model", [SKG, NOISY], ids=["skg", "noisy-skg"])
class TestSeedDeterminism:
    def test_same_seed_same_bytes_different_seed_different(
        self, model, tmp_path
    ):
        runs = {}
        for tag, m in (
            ("a", model),
            ("b", model),
            ("other", model.__class__(levels=6, num_edges=300, seed=7)),
        ):
            out = tmp_path / tag
            execute(plan_from_model(m, 3), ShardSink(out))
            runs[tag] = shard_bytes(out)
        assert runs["a"] == runs["b"]
        assert runs["a"] != runs["other"]

    def test_byte_identity_across_budgets_and_schedulers(
        self, model, tmp_path
    ):
        base = tmp_path / "base"
        execute(plan_from_model(model, 4), ShardSink(base))
        variants = [
            (plan_from_model(model, 4, memory_budget_entries=17), None),
            (plan_from_model(model, 4, memory_budget_entries=1), None),
            (plan_from_model(model, 4), WorkQueueScheduler()),
            (
                plan_from_model(model, 4, memory_budget_entries=13),
                StaticScheduler(max_in_flight=1),
            ),
        ]
        for i, (plan, scheduler) in enumerate(variants):
            out = tmp_path / f"v{i}"
            execute(plan, ShardSink(out), config=RunConfig(scheduler=scheduler))
            assert shard_bytes(out) == shard_bytes(base), i
            assert manifest_fields(out) == manifest_fields(base), i

    def test_byte_identity_across_backends(self, model, tmp_path):
        base = tmp_path / "serial"
        execute(plan_from_model(model, 4), ShardSink(base))
        for backend in ("thread", "multiprocessing"):
            out = tmp_path / backend
            execute(
                plan_from_model(model, 4),
                ShardSink(out),
                config=RunConfig(backend=backend),
            )
            assert shard_bytes(out) == shard_bytes(base), backend

    def test_byte_identity_over_transport(self, model, tmp_path):
        from repro.net import execute_over_transport

        base = tmp_path / "direct"
        execute(plan_from_model(model, 3), ShardSink(base))
        out = tmp_path / "net"
        execute_over_transport(
            plan_from_model(model, 3), ShardSink(out), transport="inproc"
        )
        assert shard_bytes(out) == shard_bytes(base)
        assert manifest_fields(out) == manifest_fields(base)


class TestModelThroughDrivers:
    def test_generate_to_disk_with_model_config(self, tmp_path):
        out = tmp_path / "skg"
        summary = generate_to_disk(
            DESIGN, 3, out, config=RunConfig(model=SKG)
        )
        assert summary.total_edges == SKG.num_edges
        fp = manifest_fields(out)["fingerprint"]
        assert fp["model"] == "skg"
        assert fp["seed"] == 42

    def test_model_by_name_matches_design_scale(self, tmp_path):
        out = tmp_path / "named"
        summary = generate_to_disk(
            DESIGN, 3, out, config=RunConfig(model="skg")
        )
        assert summary.total_edges == DESIGN.num_edges

    def test_verify_shards_checks_model_manifest(self, tmp_path):
        from repro.parallel import verify_shards

        out = tmp_path / "skg"
        generate_to_disk(DESIGN, 3, out, config=RunConfig(model=SKG))
        verification = verify_shards(out)
        assert verification.passed
        # Corruption is still caught through the model manifest path.
        shard = next(Path(out).glob("edges.*.tsv"))
        shard.write_bytes(shard.read_bytes()[:-4] + b"9\t9\n")
        assert not verify_shards(out).passed

    def test_resume_after_crash_regenerates_missing_shards(self, tmp_path):
        from repro.runtime.checkpoint import CrashInjector, SimulatedCrash

        clean = tmp_path / "clean"
        generate_to_disk(DESIGN, 4, clean, config=RunConfig(model=SKG))
        crashed = tmp_path / "crashed"
        with pytest.raises(SimulatedCrash):
            generate_to_disk(
                DESIGN,
                4,
                crashed,
                config=RunConfig(model=SKG),
                crash_hook=CrashInjector(2),
            )
        summary = generate_to_disk(
            DESIGN, 4, crashed, config=RunConfig(model=SKG, resume=True)
        )
        assert summary.skipped_ranks == 2
        assert shard_bytes(crashed) == shard_bytes(clean)
        assert manifest_fields(crashed) == manifest_fields(clean)

    def test_resume_refuses_cross_model(self, tmp_path):
        out = tmp_path / "kron"
        generate_to_disk(DESIGN, 3, out)
        with pytest.raises(ResumeMismatchError):
            generate_to_disk(
                DESIGN, 3, out, config=RunConfig(model=SKG, resume=True)
            )

    def test_resume_refuses_cross_seed(self, tmp_path):
        out = tmp_path / "seeded"
        generate_to_disk(DESIGN, 3, out, config=RunConfig(model=SKG))
        reseeded = StochasticKroneckerModel(levels=6, num_edges=300, seed=43)
        with pytest.raises(ResumeMismatchError):
            generate_to_disk(
                DESIGN,
                3,
                out,
                config=RunConfig(model=reseeded, resume=True),
            )

    def test_unsupported_drivers_refuse_model(self):
        from repro.parallel.scaling import run_scaling_study

        with pytest.raises(GenerationError, match="model"):
            run_scaling_study(
                DESIGN.to_chain(), [1], config=RunConfig(model=SKG)
            )

    def test_kron_output_unchanged_by_model_field(self, tmp_path):
        """The refactor's ground rule: plans built the historical way
        produce byte-identical shards and manifests (the fingerprint has
        no model keys, so pre-refactor checkpoints still resume)."""
        out = tmp_path / "kron"
        generate_to_disk(DESIGN, 3, out, config=RunConfig(scramble_seed=5))
        fp = manifest_fields(out)["fingerprint"]
        assert "model" not in fp
        from repro.runtime.checkpoint import design_fingerprint

        assert fp == design_fingerprint(DESIGN, n_ranks=3, scramble_seed=5)


# -- CLI ----------------------------------------------------------------------
class TestModelCLI:
    def test_info_reports_capabilities(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for needle in (
            "backends:",
            "start methods:",
            "transports:",
            "generator models: kron, skg, noisy-skg",
        ):
            assert needle in out
        # Version and python lines, then exactly these capability lines.
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[2:]] == [
            "backends",
            "start methods",
            "transports",
            "generator models",
        ]

    def test_generate_model_shards_and_seed(self, tmp_path, capsys):
        from repro.cli import main

        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        out3 = tmp_path / "three"
        base = ["generate", "3", "4", "5", "--ranks", "2", "--sink", "shards"]
        assert main(base + ["--model", "skg", "--out", str(out1)]) == 0
        assert main(base + ["--model", "skg", "--out", str(out2)]) == 0
        assert (
            main(
                base
                + ["--model", "skg", "--model-seed", "9", "--out", str(out3)]
            )
            == 0
        )
        assert shard_bytes(out1) == shard_bytes(out2)
        assert shard_bytes(out1) != shard_bytes(out3)

    def test_generate_model_requires_streaming_sink(self, capsys):
        from repro.cli import main

        assert main(["generate", "3", "4", "--model", "noisy-skg"]) == 2
        assert "streaming sink" in capsys.readouterr().err

    def test_generate_model_degrees(self, capsys):
        from repro.cli import main

        code = main(
            [
                "generate",
                "3",
                "4",
                "5",
                "--model",
                "noisy-skg",
                "--sink",
                "degrees",
                "--ranks",
                "2",
            ]
        )
        assert code == 0
        assert "noisy-skg model" in capsys.readouterr().out
