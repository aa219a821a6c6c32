"""Unit tests for the parallel generation subsystem."""

import pytest

from repro.design import PowerLawDesign
from repro.engine import RunConfig
from repro.errors import PartitionError
from repro.graphs import star_adjacency
from repro.kron import KroneckerChain
from repro.parallel import (
    MultiprocessingBackend,
    ParallelKroneckerGenerator,
    VirtualCluster,
    choose_split,
    partition_bc,
)
from repro.parallel.generator import generate_design_parallel
from repro.parallel.partition import partition_b_triples
from repro.runtime import RankExecutor
from repro.validate import audit_partition


def chain345():
    return KroneckerChain([star_adjacency(3), star_adjacency(4), star_adjacency(5)])


class TestVirtualCluster:
    def test_ranks_iterable(self):
        assert list(VirtualCluster(3).ranks) == [0, 1, 2]

    def test_rejects_zero_ranks(self):
        with pytest.raises(PartitionError):
            VirtualCluster(0)

    def test_rejects_zero_memory(self):
        with pytest.raises(PartitionError):
            VirtualCluster(2, memory_budget_entries=0)


class TestChooseSplit:
    def test_prefers_larger_b(self):
        chain = chain345()
        k = choose_split(chain, VirtualCluster(2, memory_budget_entries=10**6))
        # nnz: 6, 8, 10 -> prefix nnz 6, 48; both fit, so k=2 maximizes B.
        assert k == 2

    def test_respects_budget(self):
        chain = chain345()
        # Budget 10 forbids nnz(B)=48, so k=1 (B=6, C=80)... but C must
        # also fit; with budget 10 C never fits -> error.
        with pytest.raises(PartitionError):
            choose_split(chain, VirtualCluster(2, memory_budget_entries=10))

    def test_requires_two_factors(self):
        with pytest.raises(PartitionError):
            choose_split(KroneckerChain([star_adjacency(3)]), VirtualCluster(1))

    def test_requires_enough_triples_for_ranks(self):
        chain = chain345()
        # 500 ranks > any prefix nnz -> infeasible.
        with pytest.raises(PartitionError):
            choose_split(chain, VirtualCluster(500, memory_budget_entries=10**6))


class TestPartitionTriples:
    def test_balance_exact_when_divisible(self):
        b = star_adjacency(5)  # nnz 10
        parts = partition_b_triples(b, 5)
        assert all(p.nnz == 2 for p in parts)

    def test_balance_within_one_otherwise(self):
        b = star_adjacency(5)  # nnz 10
        parts = partition_b_triples(b, 3)
        counts = sorted(p.nnz for p in parts)
        assert sum(counts) == 10
        assert counts[-1] - counts[0] <= 1

    def test_union_covers_b(self):
        b = star_adjacency(6)
        parts = partition_b_triples(b, 4)
        got = set()
        for p in parts:
            for r, c, v in p.b_local:
                got.add((r, c + p.col_base, v))
        expected = {(r, c, v) for r, c, v in b}
        assert got == expected

    def test_more_ranks_than_triples_rejected(self):
        with pytest.raises(PartitionError):
            partition_b_triples(star_adjacency(2), 50)

    def test_col_rebase_starts_at_zero(self):
        parts = partition_b_triples(star_adjacency(5), 2)
        for p in parts:
            assert p.b_local.cols.min() == 0


class TestPartitionPlan:
    def test_plan_balance(self):
        plan = partition_bc(chain345(), VirtualCluster(4, memory_budget_entries=10**6))
        lo, hi = plan.balance()
        assert hi - lo <= 1

    def test_explicit_split_index(self):
        plan = partition_bc(
            chain345(), VirtualCluster(2, memory_budget_entries=10**6), split_index=1
        )
        assert plan.split_index == 1
        assert plan.b_chain.num_factors == 1

    def test_explicit_split_over_budget_rejected(self):
        with pytest.raises(PartitionError):
            partition_bc(chain345(), VirtualCluster(2, memory_budget_entries=20), split_index=2)


class TestGenerator:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 7, 16])
    def test_assembled_equals_direct(self, n_ranks):
        chain = chain345()
        gen = ParallelKroneckerGenerator(chain, VirtualCluster(n_ranks))
        assert gen.assemble().equal(chain.materialize())

    def test_block_nnz_sums_to_total(self):
        chain = chain345()
        gen = ParallelKroneckerGenerator(chain, VirtualCluster(5))
        blocks = gen.generate_blocks()
        assert sum(b.nnz for b in blocks) == chain.nnz

    def test_partition_audit_passes(self):
        chain = chain345()
        gen = ParallelKroneckerGenerator(chain, VirtualCluster(6))
        blocks = gen.generate_blocks()
        audit = audit_partition(gen.plan, blocks, chain.nnz)
        assert audit.complete
        assert audit.balanced

    def test_generate_graph_removes_loop(self):
        design = PowerLawDesign([3, 4], "center")
        gen = ParallelKroneckerGenerator(design.to_chain(), VirtualCluster(3))
        g = gen.generate_graph(remove_loop_at=design.loop_vertex)
        assert g.num_self_loops() == 0
        assert g.num_edges == design.num_edges

    def test_edges_per_second_positive(self):
        gen = ParallelKroneckerGenerator(chain345(), VirtualCluster(2))
        blocks = gen.generate_blocks()
        assert gen.edges_per_second(blocks) > 0

    def test_edges_per_second_clamps_zero_elapsed(self):
        # Tiny designs on fast machines can legitimately measure 0.0 at
        # clock resolution; the rate must clamp, not raise.
        from dataclasses import replace

        gen = ParallelKroneckerGenerator(chain345(), VirtualCluster(2))
        blocks = [replace(b, elapsed_s=0.0) for b in gen.generate_blocks()]
        rate = gen.edges_per_second(blocks)
        total = sum(b.nnz for b in blocks)
        assert rate == pytest.approx(total / 1e-9)

    def test_edges_per_second_rejects_no_blocks(self):
        from repro.errors import GenerationError

        gen = ParallelKroneckerGenerator(chain345(), VirtualCluster(2))
        with pytest.raises(GenerationError):
            gen.edges_per_second([])

    def test_backend_accepted_by_name(self):
        chain = chain345()
        gen = ParallelKroneckerGenerator(chain, VirtualCluster(3), backend="thread")
        assert gen.backend.name == "thread"
        assert gen.assemble().equal(chain.materialize())

    def test_helper_matches_serial_realization(self):
        for loop in (None, "center", "leaf"):
            design = PowerLawDesign([3, 2, 4], loop)
            g = generate_design_parallel(design, 5)
            assert g == design.realize()

    def test_helper_accepts_backend_name(self):
        design = PowerLawDesign([3, 4], "center")
        g = generate_design_parallel(
            design, 3, config=RunConfig(backend="thread")
        )
        assert g == design.realize()

    def test_helper_memory_budget_entries_no_warning(self):
        import warnings

        design = PowerLawDesign([3, 4], "center")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = generate_design_parallel(
                design, 2, config=RunConfig(memory_budget_entries=10**6)
            )
        assert g == design.realize()


class TestBackends:
    def test_multiprocessing_empty(self):
        # No work submits nothing, so no worker process is started.
        backend = MultiprocessingBackend(processes=2)
        assert list(RankExecutor(backend).run_iter(_square, [])) == []
        assert backend._executor is None

    def test_multiprocessing_generator_end_to_end(self):
        chain = chain345()
        gen = ParallelKroneckerGenerator(
            chain, VirtualCluster(4), backend=MultiprocessingBackend(processes=2)
        )
        assert gen.assemble().equal(chain.materialize())


def _square(x):
    return x * x


class TestScaling:
    def test_study_rows_and_linearity(self):
        from repro.parallel.scaling import run_scaling_study

        chain = KroneckerChain(
            [star_adjacency(9), star_adjacency(16), star_adjacency(5)]
        )
        study = run_scaling_study(chain, [1, 2, 4])
        rows = study.rows()
        assert [r["cores"] for r in rows] == [1, 2, 4]
        assert all(r["edges"] == chain.nnz for r in rows)
        assert all(r["rate_edges_per_s"] > 0 for r in rows)

    def test_extrapolate_rate(self):
        from repro.parallel.scaling import extrapolate_rate

        assert extrapolate_rate(1000, 0.5, 10) == pytest.approx(20000.0)

    def test_extrapolate_rejects_zero_time(self):
        from repro.errors import GenerationError
        from repro.parallel.scaling import extrapolate_rate

        with pytest.raises(GenerationError):
            extrapolate_rate(10, 0.0, 2)

    def test_linearity_needs_points(self):
        from repro.errors import GenerationError
        from repro.parallel.scaling import ScalingStudy

        with pytest.raises(GenerationError):
            ScalingStudy().is_linear()
