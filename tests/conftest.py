"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Future

import numpy as np
import pytest

from repro.parallel.backends import ThreadBackend
from repro.sparse import from_dense
from repro.sparse.coo import COOMatrix

try:  # hypothesis is a test-only dependency; the suite mostly works without
    from hypothesis import HealthCheck, settings as _hyp_settings

    # The "ci" profile makes the codec property sweeps reproducible
    # on shared runners: no wall-clock deadline (CI machines stall), a
    # derandomized example stream (failures reproduce across reruns), and
    # the failing-example blob printed so a red run can be replayed
    # locally with @reproduce_failure.  Select with HYPOTHESIS_PROFILE=ci.
    _hyp_settings.register_profile(
        "ci",
        deadline=None,
        derandomize=True,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # pragma: no cover - exercised only without hypothesis
    pass


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need other seeds create their own."""
    return np.random.default_rng(12345)


def random_dense(rng: np.random.Generator, n: int, m: int, density: float = 0.3) -> np.ndarray:
    """Random small int64 matrix with ~density nonzeros, values in 1..4."""
    mask = rng.random((n, m)) < density
    vals = rng.integers(1, 5, size=(n, m))
    return (mask * vals).astype(np.int64)


def random_coo(rng: np.random.Generator, n: int, m: int, density: float = 0.3) -> COOMatrix:
    return from_dense(random_dense(rng, n, m, density))


def assert_matrix_equals_dense(sparse, dense: np.ndarray) -> None:
    np.testing.assert_array_equal(sparse.to_dense(), dense)


class LoseWorkerBackend(ThreadBackend):
    """A thread pool that loses the worker of chosen ranks' first submission.

    A lost submission's future raises
    :class:`concurrent.futures.BrokenExecutor`, as a process pool's does
    when its worker process dies: either before the rank runs (ranks in
    ``before``) or after it ran, with its result discarded (ranks in
    ``after``) — by then its consumer has written the rank's tiles.  The
    futures are plain ``Future`` objects with the exception set, so
    ``futures.as_completed`` yields them like any other.  Both sets may
    be changed mid-run; a rank is looked up when it is submitted.
    """

    name = "lose-worker"

    def __init__(self, *, before=(), after=(), max_workers=4):
        super().__init__(max_workers=max_workers)
        self.before = set(before)
        self.after = set(after)
        self.lost = []  # ranks whose submission was lost, in order

    def submit(self, fn, task):
        rank = task.rank
        if rank not in self.before and rank not in self.after:
            return super().submit(fn, task)
        self.lost.append(rank)
        lost = Future()
        error = BrokenExecutor(f"lost the worker of rank {rank}")
        if rank in self.before:
            self.before.discard(rank)
            lost.set_exception(error)
        else:
            self.after.discard(rank)
            super().submit(fn, task).add_done_callback(
                lambda _ran: lost.set_exception(error)
            )
        return lost
