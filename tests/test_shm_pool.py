"""The shared-memory tile pool: lifecycle, zero-copy handoff, leaks.

Ownership contract under test: the coordinator-side
:class:`SharedTilePool` creates and unlinks every segment; workers only
attach.  A clean engine run releases every output segment at commit and
the pool's ``shutdown()`` (run in ``execute``'s ``finally``) reclaims
whatever survives — so ``/dev/shm`` never accumulates segments, no
matter how the run ends.
"""

import numpy as np
import pytest

from repro import PowerLawDesign, RunConfig, VirtualCluster
from repro.errors import GenerationError
from repro.parallel import ParallelKroneckerGenerator
from repro.parallel.backends import MultiprocessingBackend
from repro.parallel.shm import (
    SHM_PREFIX,
    SharedTilePool,
    ShmConsumerFactory,
    ShmTriplesConsumer,
    attach_shared_coo,
    shm_segment_names,
)
from repro.runtime import MetricsRegistry
from repro.sparse import from_dense

DESIGN = PowerLawDesign([3, 4, 5], "center")


@pytest.fixture
def pool():
    p = SharedTilePool()
    yield p
    p.shutdown()


def small_coo(rng):
    return from_dense(rng.integers(0, 3, size=(4, 5)).astype(np.int64))


class TestPoolLifecycle:
    def test_share_and_attach_round_trip(self, pool, rng):
        matrix = small_coo(rng)
        ref = pool.share_coo(matrix)
        attached = attach_shared_coo(ref)
        assert attached.shape == matrix.shape
        np.testing.assert_array_equal(attached.rows, matrix.rows)
        np.testing.assert_array_equal(attached.cols, matrix.cols)
        np.testing.assert_array_equal(attached.vals, matrix.vals)

    def test_attached_views_are_read_only(self, pool, rng):
        attached = attach_shared_coo(pool.share_coo(small_coo(rng)))
        with pytest.raises(ValueError):
            attached.rows[0] = 99

    def test_attach_is_cached_per_process(self, pool, rng):
        ref = pool.share_coo(small_coo(rng))
        assert attach_shared_coo(ref) is attach_shared_coo(ref)

    def test_empty_matrix_needs_no_segment(self, pool):
        empty = np.zeros(0, dtype=np.int64)
        ref = pool.share_coo(
            from_dense(np.zeros((3, 3), dtype=np.int64))
        )
        assert ref.triples.name is None
        attached = attach_shared_coo(ref)
        assert attached.nnz == 0
        np.testing.assert_array_equal(attached.rows, empty)

    def test_consume_take_release_cycle(self, pool):
        ref = pool.allocate_output(10)
        consumer = ShmConsumerFactory(ref)(rank=0)
        a = np.arange(4, dtype=np.int64)
        consumer.consume(a, a + 10, a + 20)
        consumer.consume(a[:2], a[:2] + 10, a[:2] + 20)
        handle = consumer.result()
        assert handle.count == 6
        assert ref.name in pool.outstanding()
        rows, cols, vals = pool.take(handle)
        np.testing.assert_array_equal(rows, [0, 1, 2, 3, 0, 1])
        np.testing.assert_array_equal(cols - 10, rows)
        np.testing.assert_array_equal(vals - 20, rows)
        # take() released the segment: gone from the pool and /dev/shm.
        assert ref.name not in pool.outstanding()
        assert ref.name not in shm_segment_names()

    def test_double_take_raises(self, pool):
        ref = pool.allocate_output(4)
        consumer = ShmTriplesConsumer(ref)
        one = np.ones(1, dtype=np.int64)
        consumer.consume(one, one, one)
        handle = consumer.result()
        pool.take(handle)
        with pytest.raises(GenerationError, match="double take"):
            pool.take(handle)

    def test_overflow_raises(self, pool):
        consumer = ShmTriplesConsumer(pool.allocate_output(3))
        a = np.arange(4, dtype=np.int64)
        with pytest.raises(GenerationError, match="overflow"):
            consumer.consume(a, a, a)
        # The worker loop aborts the consumer on any failure; mirror it
        # so the attachment is dropped before the pool reclaims.
        consumer.abort()

    def test_abort_detaches_without_release(self, pool):
        ref = pool.allocate_output(4)
        consumer = ShmTriplesConsumer(ref)
        consumer.abort()
        # The coordinator still owns (and can reclaim) the segment.
        assert pool.shutdown() == (ref.name,)

    def test_shutdown_reclaims_and_is_idempotent(self, pool):
        names = {pool.allocate_output(2).name, pool.allocate_output(2).name}
        assert set(pool.shutdown()) == names
        assert pool.shutdown() == ()
        assert not any(n in shm_segment_names() for n in names)

    def test_create_after_shutdown_refused(self, pool):
        pool.shutdown()
        with pytest.raises(GenerationError, match="shut down"):
            pool.allocate_output(1)


class TestEngineZeroCopy:
    def _blocks(self, backend):
        gen = ParallelKroneckerGenerator(
            DESIGN.to_chain(),
            VirtualCluster(4, memory_budget_entries=500),
            backend=backend,
        )
        return gen.generate_blocks()

    def test_zero_copy_matches_pickled_and_serial(self):
        serial = self._blocks(None)
        zero_copy = self._blocks(MultiprocessingBackend(processes=2))
        assert len(zero_copy) == len(serial)
        for s, z in zip(serial, zero_copy):
            assert s.block.equal(z.block)

    def test_no_segments_survive_a_clean_run(self):
        before = shm_segment_names()
        self._blocks(MultiprocessingBackend(processes=2))
        assert shm_segment_names() == before

    def test_leak_gauge_zero_on_clean_run(self):
        metrics = MetricsRegistry()
        gen = ParallelKroneckerGenerator(
            DESIGN.to_chain(),
            VirtualCluster(4, memory_budget_entries=500),
            backend=MultiprocessingBackend(processes=2),
            metrics=metrics,
        )
        gen.generate_blocks()
        assert metrics.gauge("engine.shm_leaked").value == 0

    def test_shards_byte_identical_with_zero_copy_assembly(self, tmp_path):
        # ShardSink is not a "triples" sink (workers serialize locally),
        # but a zero-copy assembled run must agree with its bytes.
        from repro.parallel.stream import generate_to_disk

        generate_to_disk(
            DESIGN, 4, tmp_path, config=RunConfig(memory_budget_entries=500)
        )
        blocks = self._blocks(MultiprocessingBackend(processes=2))
        total = sum(b.nnz for b in blocks)
        shard_lines = sum(
            len((tmp_path / f"edges.{r}.tsv").read_bytes().splitlines())
            for r in range(4)
        )
        # The streamed run removed the design self-loop; assembly keeps it.
        assert total - 1 == shard_lines == DESIGN.num_edges

    def test_prefix_constant_is_the_leak_scan_key(self):
        pool = SharedTilePool()
        try:
            name = pool.allocate_output(1).name
            assert name.startswith(SHM_PREFIX)
            assert name in shm_segment_names()
        finally:
            pool.shutdown()
