"""Native kernel byte-identity and capability gating.

The native expand kernel (``repro.kron._fast``) must be *invisible* in
the output: tiles, shard bytes, and manifests are byte-identical to the
pure-NumPy oracle at every memory budget.  (The TSV encoder has one
implementation; its tests are in ``test_io_tsv.py``.)  Without numba
installed, the same kernel body runs as plain Python under the
``REPRO_NATIVE_ALLOW_PYTHON=1`` testing hook — same code, same answers,
just slow — so these properties hold in every environment; a numba
install only changes ``kernels_jitted()``.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GenerationError, KernelUnavailableError
from repro.kron import _fast
from repro.kron.tiles import kron_tiles
from repro.semiring import MAX_PLUS
from repro.sparse import from_dense


@pytest.fixture
def python_native(monkeypatch):
    """Enable the plain-Python native fallback for one test."""
    monkeypatch.setenv(_fast.ALLOW_PYTHON_ENV, "1")
    _fast._reset()
    yield
    monkeypatch.delenv(_fast.ALLOW_PYTHON_ENV, raising=False)
    _fast._reset()


def random_pair(rng, max_n=6):
    a = rng.integers(0, 3, size=(rng.integers(1, max_n), rng.integers(1, max_n)))
    b = rng.integers(0, 3, size=(rng.integers(1, max_n), rng.integers(1, max_n)))
    return from_dense(a.astype(np.int64)), from_dense(b.astype(np.int64))


def collect(bp, c, budget, kernel):
    tiles = list(kron_tiles(bp, c, budget, kernel=kernel))
    if not tiles:
        return (np.array([], dtype=np.int64),) * 3
    return tuple(
        np.concatenate([t[i] for t in tiles]) for i in range(3)
    )


class TestGating:
    def test_kernel_choices_frozen(self):
        assert _fast.KERNEL_CHOICES == ("auto", "numpy", "native")

    def test_auto_resolves_to_a_concrete_kernel(self):
        resolved = _fast.resolve_kernel("auto")
        assert resolved in ("numpy", "native")
        assert (resolved == "native") == _fast.native_available()
        assert _fast.resolve_kernel(None) == resolved

    def test_unknown_kernel_rejected(self):
        with pytest.raises(GenerationError, match="unknown kernel"):
            _fast.resolve_kernel("fortran")

    def test_strict_native_without_capability_raises(self):
        if _fast.native_available():
            pytest.skip("native capability present in this environment")
        with pytest.raises(KernelUnavailableError, match="numba"):
            _fast.resolve_kernel("native")

    def test_env_hook_grants_capability_in_clean_interpreter(self):
        # A subprocess keeps this test independent of module-level cache
        # state and of whether numba happens to be installed here.
        code = (
            "import os; os.environ['%s']='1'\n"
            "from repro.kron import _fast\n"
            "assert _fast.native_available()\n"
            "assert _fast.resolve_kernel('native') == 'native'\n"
            "assert _fast.warmup_native() in (True, False)\n"
            "print('ok')\n" % _fast.ALLOW_PYTHON_ENV
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "ok"

    def test_native_inapplicable_semiring_strict_raises(self, python_native, rng):
        bp, c = random_pair(rng)
        with pytest.raises(GenerationError, match="plus-times"):
            list(kron_tiles(bp, c, None, MAX_PLUS, kernel="native"))

    def test_native_inapplicable_semiring_auto_downgrades(self, python_native, rng):
        bp, c = random_pair(rng)
        tiles = list(kron_tiles(bp, c, None, MAX_PLUS, kernel="auto"))
        oracle = list(kron_tiles(bp, c, None, MAX_PLUS, kernel="numpy"))
        for (r1, c1, v1), (r2, c2, v2) in zip(tiles, oracle):
            np.testing.assert_array_equal(r1, r2)
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(v1, v2)


class TestExpandByteIdentity:
    def test_random_pairs_all_budgets(self, python_native, rng):
        for _ in range(25):
            bp, c = random_pair(rng)
            for budget in (None, 1, 3, 17):
                native = collect(bp, c, budget, "native")
                oracle = collect(bp, c, budget, "numpy")
                for got, want in zip(native, oracle):
                    np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(
            st.lists(st.integers(-3, 3), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        b=st.lists(
            st.lists(st.integers(-3, 3), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        budget=st.sampled_from([None, 1, 2, 5, 64]),
    )
    def test_hypothesis_expand_matches_oracle(self, a, b, budget):
        # The fixture can't wrap @given, so manage the env hook inline.
        import os

        os.environ[_fast.ALLOW_PYTHON_ENV] = "1"
        _fast._reset()
        try:
            bp = from_dense(np.asarray(a, dtype=np.int64))
            c = from_dense(np.asarray(b, dtype=np.int64))
            native = collect(bp, c, budget, "native")
            oracle = collect(bp, c, budget, "numpy")
            for got, want in zip(native, oracle):
                np.testing.assert_array_equal(got, want)
        finally:
            os.environ.pop(_fast.ALLOW_PYTHON_ENV, None)
            _fast._reset()

    def test_expand_tile_empty_factor(self, python_native):
        empty = np.array([], dtype=np.int64)
        rows, cols, vals = _fast.expand_tile(
            empty, empty, empty, empty, empty, empty, 3, 3
        )
        assert rows.size == cols.size == vals.size == 0


class TestEngineByteIdentity:
    def test_shards_identical_across_kernels(self, python_native, tmp_path):
        from repro import PowerLawDesign, RunConfig
        from repro.parallel.stream import generate_to_disk

        design = PowerLawDesign([3, 4, 5], "center")
        for budget in (100, 500):
            a = tmp_path / f"numpy-{budget}"
            b = tmp_path / f"native-{budget}"
            generate_to_disk(
                design,
                3,
                a,
                config=RunConfig(
                    memory_budget_entries=budget, kernel="numpy"
                ),
            )
            generate_to_disk(
                design,
                3,
                b,
                config=RunConfig(
                    memory_budget_entries=budget, kernel="native"
                ),
            )
            for rank in range(3):
                name = f"edges.{rank}.tsv"
                assert (a / name).read_bytes() == (b / name).read_bytes()
