"""Unit tests for the low-level sparse kernels."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.semiring import BOOL_OR_AND, MIN_PLUS
from repro.sparse import kernels


class TestExpandRanges:
    def test_basic(self):
        out = kernels.expand_ranges(np.array([5, 0]), np.array([3, 2]))
        np.testing.assert_array_equal(out, [5, 6, 7, 0, 1])

    def test_empty_counts(self):
        out = kernels.expand_ranges(np.array([1, 9]), np.array([0, 0]))
        assert out.size == 0

    def test_mixed_zero_counts(self):
        out = kernels.expand_ranges(np.array([2, 7, 4]), np.array([1, 0, 2]))
        np.testing.assert_array_equal(out, [2, 4, 5])

    def test_no_segments(self):
        out = kernels.expand_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert out.size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            kernels.expand_ranges(np.array([0]), np.array([-1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            kernels.expand_ranges(np.array([0, 1]), np.array([1]))

    def test_matches_python_reference(self, rng):
        starts = rng.integers(0, 100, size=20)
        counts = rng.integers(0, 6, size=20)
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)] or [np.empty(0)]
        )
        np.testing.assert_array_equal(kernels.expand_ranges(starts, counts), expected)


class TestCoalesce:
    def test_merges_duplicates(self):
        r = np.array([1, 0, 1])
        c = np.array([2, 0, 2])
        v = np.array([3, 1, 4])
        rr, cc, vv = kernels.coalesce(r, c, v)
        np.testing.assert_array_equal(rr, [0, 1])
        np.testing.assert_array_equal(cc, [0, 2])
        np.testing.assert_array_equal(vv, [1, 7])

    def test_drops_zeros(self):
        r = np.array([0, 0])
        c = np.array([1, 1])
        v = np.array([5, -5])
        rr, cc, vv = kernels.coalesce(r, c, v)
        assert rr.size == 0 and cc.size == 0 and vv.size == 0

    def test_keep_zero_when_disabled(self):
        r = np.array([0])
        c = np.array([0])
        v = np.array([0])
        rr, _, vv = kernels.coalesce(r, c, v, drop_zero=False)
        assert rr.size == 1 and vv[0] == 0

    def test_sorts_lexicographically(self):
        r = np.array([2, 0, 1])
        c = np.array([0, 5, 3])
        v = np.array([1, 2, 3])
        rr, cc, _ = kernels.coalesce(r, c, v)
        np.testing.assert_array_equal(rr, [0, 1, 2])
        np.testing.assert_array_equal(cc, [5, 3, 0])

    def test_empty_input(self):
        e = np.empty(0, dtype=np.int64)
        rr, cc, vv = kernels.coalesce(e, e, e)
        assert rr.size == 0

    def test_min_plus_semiring_combines_with_min(self):
        r = np.array([0, 0])
        c = np.array([0, 0])
        v = np.array([3.0, 1.0])
        _, _, vv = kernels.coalesce(r, c, v, MIN_PLUS)
        assert vv[0] == 1.0

    def test_boolean_semiring(self):
        r = np.array([0, 0, 1])
        c = np.array([0, 0, 1])
        v = np.array([True, True, False])
        rr, _, vv = kernels.coalesce(r, c, v, BOOL_OR_AND)
        # (1,1) False is the boolean zero and is dropped.
        assert list(rr) == [0]
        assert vv[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            kernels.coalesce(np.array([0]), np.array([0, 1]), np.array([1]))


class TestBuildIndptr:
    def test_basic(self):
        indptr = kernels.build_indptr(np.array([0, 0, 2]), 4)
        np.testing.assert_array_equal(indptr, [0, 2, 2, 3, 3])

    def test_empty(self):
        indptr = kernels.build_indptr(np.empty(0, dtype=np.int64), 3)
        np.testing.assert_array_equal(indptr, [0, 0, 0, 0])


class TestValidateCompressed:
    def _ok(self):
        return (
            np.array([0, 1, 2]),
            np.array([0, 1]),
            np.array([1, 1]),
        )

    def test_accepts_valid(self):
        indptr, indices, data = self._ok()
        kernels.validate_compressed(indptr, indices, data, 2, 2)

    def test_bad_indptr_length(self):
        indptr, indices, data = self._ok()
        with pytest.raises(FormatError):
            kernels.validate_compressed(indptr, indices, data, 3, 2)

    def test_indptr_not_starting_at_zero(self):
        with pytest.raises(FormatError):
            kernels.validate_compressed(
                np.array([1, 1, 2]), np.array([0, 1]), np.array([1, 1]), 2, 2
            )

    def test_decreasing_indptr(self):
        with pytest.raises(FormatError):
            kernels.validate_compressed(
                np.array([0, 2, 1]), np.array([0]), np.array([1]), 2, 2
            )

    def test_nnz_mismatch(self):
        with pytest.raises(FormatError):
            kernels.validate_compressed(
                np.array([0, 1, 3]), np.array([0, 1]), np.array([1, 1]), 2, 2
            )

    def test_column_out_of_range(self):
        with pytest.raises(FormatError):
            kernels.validate_compressed(
                np.array([0, 1, 2]), np.array([0, 9]), np.array([1, 1]), 2, 2
            )


class TestCsrMatmulKernel:
    def test_empty_operand_gives_empty(self):
        e = np.empty(0, dtype=np.int64)
        r, c, v = kernels.csr_matmul(
            np.array([0, 0]), e, e, np.array([0, 0]), e, e, 1
        )
        assert r.size == 0

    def test_against_dense_plus_times(self, rng):
        from tests.conftest import random_dense
        from repro.sparse import from_dense

        for _ in range(20):
            n, k, m = rng.integers(1, 10, 3)
            A = random_dense(rng, int(n), int(k))
            B = random_dense(rng, int(k), int(m))
            sa, sb = from_dense(A).to_csr(), from_dense(B).to_csr()
            r, c, v = kernels.csr_matmul(
                sa.indptr, sa.indices, sa.data, sb.indptr, sb.indices, sb.data, int(n)
            )
            dense = np.zeros((n, m), dtype=np.int64)
            dense[r, c] = v
            np.testing.assert_array_equal(dense, A @ B)

    def test_min_plus_shortest_path_step(self):
        # Distances over one relaxation step: D' = D min.+ D
        from repro.sparse import from_dense

        inf = np.inf
        D = np.array([[0.0, 1.0, inf], [inf, 0.0, 2.0], [inf, inf, 0.0]])
        # Represent inf as "absent" (the min-plus zero).
        sd = from_dense(D, semiring=MIN_PLUS)
        r, c, v = kernels.csr_matmul(
            *(lambda s: (s.indptr, s.indices, s.data))(sd.to_csr()),
            *(lambda s: (s.indptr, s.indices, s.data))(sd.to_csr()),
            3,
            MIN_PLUS,
        )
        out = np.full((3, 3), inf)
        out[r, c] = v
        expected = np.full((3, 3), inf)
        for i in range(3):
            for j in range(3):
                expected[i, j] = min(D[i, k] + D[k, j] for k in range(3))
        np.testing.assert_array_equal(out, expected)


class TestCsrTranspose:
    def test_against_dense(self, rng):
        from tests.conftest import random_dense
        from repro.sparse import from_dense

        for _ in range(10):
            n, m = rng.integers(1, 12, 2)
            A = random_dense(rng, int(n), int(m))
            csr = from_dense(A).to_csr()
            ti, tc, td = kernels.csr_transpose(
                csr.indptr, csr.indices, csr.data, int(n), int(m)
            )
            dense = np.zeros((m, n), dtype=np.int64)
            rows = np.repeat(np.arange(m), np.diff(ti))
            dense[rows, tc] = td
            np.testing.assert_array_equal(dense, A.T)
