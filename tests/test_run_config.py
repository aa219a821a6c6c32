"""RunConfig: the one run-shaping API.

Contract under test (shared by every config-accepting driver):

* ``RunConfig()`` reproduces each driver's historical behaviour;
* ``config=`` is the only spelling: the individual run-shaping keywords
  are gone, so passing one beside ``config=`` raises;
* a config field the function cannot honour raises loudly instead of
  being silently ignored.
"""

import dataclasses
import warnings

import pytest

from repro import (
    ParallelKroneckerGenerator,
    PowerLawDesign,
    RunConfig,
    VirtualCluster,
)
from repro.engine import DegreeSink, execute, plan_from_design
from repro.engine.config import resolve_run_config
from repro.errors import GenerationError
from repro.parallel import generate_design_parallel, streamed_degree_distribution
from repro.parallel.scaling import run_scaling_study
from repro.parallel.simulate import simulate_rate_curve
from repro.parallel.stream import generate_to_disk

DESIGN = PowerLawDesign([3, 4, 5], "center")
BUDGET = 500


class TestRunConfigDataclass:
    def test_defaults_are_neutral(self):
        cfg = RunConfig()
        assert cfg.backend is None
        assert cfg.scheduler is None
        assert cfg.memory_budget_entries is None
        assert cfg.transport is None
        assert cfg.checkpoint_dir is None
        assert cfg.resume is False
        assert cfg.scramble_seed is None
        assert cfg.model is None
        assert cfg.non_default_fields() == ()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().resume = True

    def test_replace_round_trip(self):
        cfg = RunConfig(memory_budget_entries=BUDGET, scramble_seed=7)
        again = cfg.replace(scramble_seed=None).replace(scramble_seed=7)
        assert again == cfg
        assert cfg.non_default_fields() == (
            "memory_budget_entries",
            "scramble_seed",
        )

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(GenerationError, match="must be positive"):
            RunConfig(memory_budget_entries=0)


class TestResolveRunConfig:
    def test_config_passes_through(self):
        cfg = RunConfig(memory_budget_entries=BUDGET)
        assert resolve_run_config("f", cfg) is cfg

    def test_no_kwargs_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_run_config("f", None) == RunConfig()

    def test_mixing_raises(self):
        with pytest.raises(TypeError, match="backend"):
            resolve_run_config("f", RunConfig(), backend="thread")

    def test_non_runconfig_rejected(self):
        with pytest.raises(GenerationError, match="must be a RunConfig"):
            resolve_run_config("f", {"backend": "thread"})

    def test_unsupported_field_raises(self):
        cfg = RunConfig(resume=True)
        with pytest.raises(GenerationError, match=r"\['resume'\]"):
            resolve_run_config("f", cfg, unsupported=("resume",))


class TestDriversHonourConfig:
    def test_streamed_degrees_config_path(self):
        dist = streamed_degree_distribution(
            DESIGN, 2, config=RunConfig(memory_budget_entries=BUDGET)
        )
        assert dist == DESIGN.degree_distribution

    def test_scaling_and_simulate_accept_config(self):
        study = run_scaling_study(
            DESIGN.to_chain(),
            [1, 2],
            config=RunConfig(memory_budget_entries=BUDGET),
        )
        assert [p.n_ranks for p in study.points] == [1, 2]
        curve = simulate_rate_curve(
            DESIGN, [1, 2], config=RunConfig(memory_budget_entries=BUDGET)
        )
        assert len(curve.points) == 2

    def test_checkpoint_dir_via_config(self, tmp_path):
        graph = generate_design_parallel(
            DESIGN,
            2,
            config=RunConfig(
                memory_budget_entries=BUDGET,
                checkpoint_dir=str(tmp_path / "ckpt"),
            ),
        )
        assert graph.num_edges == DESIGN.num_edges
        assert (tmp_path / "ckpt" / "manifest.json").exists()

    def test_scramble_without_checkpoint_raises(self):
        with pytest.raises(GenerationError, match="scramble_seed requires"):
            generate_design_parallel(
                DESIGN, 2, config=RunConfig(scramble_seed=3)
            )

    def test_resume_without_checkpoint_raises(self):
        with pytest.raises(GenerationError, match="requires checkpoint_dir"):
            generate_design_parallel(DESIGN, 2, config=RunConfig(resume=True))

    def test_transport_unsupported_in_degree_driver(self):
        with pytest.raises(GenerationError, match="transport"):
            streamed_degree_distribution(
                DESIGN, 2, config=RunConfig(transport="inproc")
            )

    def test_drivers_reject_mixed_styles(self, tmp_path):
        plan = plan_from_design(DESIGN, 2)
        calls = [
            lambda: RunConfig(kernel="numpy"),
            lambda: plan_from_design(DESIGN, 2, kernel="numpy"),
            lambda: ParallelKroneckerGenerator(
                DESIGN.to_chain(), VirtualCluster(2), kernel="numpy"
            ),
            lambda: execute(plan, DegreeSink(), config=RunConfig(), backend="serial"),
            lambda: generate_to_disk(
                DESIGN, 2, tmp_path, config=RunConfig(), memory_budget_entries=BUDGET
            ),
            lambda: streamed_degree_distribution(
                DESIGN, 2, config=RunConfig(), scheduler=None
            ),
            lambda: generate_design_parallel(
                DESIGN, 2, config=RunConfig(), checkpoint_dir=str(tmp_path)
            ),
            lambda: run_scaling_study(
                DESIGN.to_chain(), [1], config=RunConfig(), backend="serial"
            ),
            lambda: simulate_rate_curve(
                DESIGN, [1], config=RunConfig(), max_block_entries=BUDGET
            ),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="unexpected keyword"):
                call()
        assert not list(tmp_path.iterdir())


class TestVirtualClusterMigration:
    def test_new_name_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cluster = VirtualCluster(n_ranks=2, memory_budget_entries=BUDGET)
        assert cluster.memory_budget_entries == BUDGET

    def test_repr_uses_new_name(self):
        assert "memory_budget_entries" in repr(VirtualCluster(2))
