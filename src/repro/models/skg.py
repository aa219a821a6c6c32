"""Stochastic Kronecker (R-MAT / Graph500-style) as a first-class plan.

Each of ``num_edges`` edges is placed independently: at every one of
``levels`` recursion levels a quadrant of the adjacency matrix is chosen
with the initiator probabilities ``(a, b, c, d)`` (Graph500 defaults
``0.57, 0.19, 0.19, 0.05``), appending one row bit and one column bit —
after ``levels`` descents the edge lands in a ``2^levels × 2^levels``
graph.  Duplicate edges and self-loops are kept, exactly as the
reference generators emit them.

**Counter-based seeding.**  Every uniform draw is a pure function
``u = hash(seed, edge_index, level)`` (a splitmix64-style mix over
uint64), *not* a stateful RNG stream.  Consequences the test suites
lean on:

* an edge's placement depends only on its absolute index — tile
  boundaries, memory budgets, schedulers, backends, worker churn, and
  transports cannot change a single byte of output;
* any rank (or tile) can be regenerated in isolation, which is what
  makes resume-after-crash byte-identical and the net/elastic paths
  safe for free;
* two runs differ iff their ``(seed, levels, num_edges, initiator)``
  differ — the same tuple the fingerprint digests, so manifests refuse
  cross-seed and cross-model resume.

Rank decomposition is an even split of the edge-index range (the same
``np.linspace`` shape :func:`repro.parallel.partition._slice_bounds`
uses for triples), recorded per rank as a :class:`SKGRankSpec`; the
prediction is *exact* — one output entry per owned index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GenerationError, PartitionError
from repro.runtime.checkpoint import payload_checksum

if TYPE_CHECKING:
    from repro.engine.plan import RankTask

#: Graph500's reference initiator matrix.
GRAPH500_INITIATOR: Tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN64 = np.uint64(_GOLDEN)

#: Edges placed per pass of :meth:`StochasticKroneckerModel._generate`'s
#: level loop, so its scratch arrays stay cache-resident for any tile.
_GENERATE_CHUNK = 1 << 15


def _mix64_scalar(x: int) -> int:
    """splitmix64's finalizer on a python int (no numpy overflow warns)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _mix64(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """splitmix64's finalizer, vectorized over uint64 (wrapping), in place
    on ``x`` (returned); ``scratch`` is an optional buffer shaped like it."""
    t = np.empty_like(x) if scratch is None else scratch
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= np.right_shift(x, np.uint64(shift), out=t)
        x *= np.uint64(mult)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def stream_key(seed: int, level: int, salt: int = 0) -> int:
    """A per-``(seed, level)`` 64-bit subkey (scalar, deterministic)."""
    return _mix64_scalar((seed & _MASK) + (level + 1) * _GOLDEN + salt)


def counter_u01(seed: int, idx: np.ndarray, level: int) -> np.ndarray:
    """Uniform [0, 1) draws as a pure function of (seed, index, level).

    ``idx`` is a uint64 array of absolute edge indices.  The value for a
    given triple never depends on array layout, so generating indices
    one-by-one, per-tile, or all at once yields identical draws — the
    property the tile-boundary-invariance tests assert directly.
    """
    z = _mix64(idx * _GOLDEN64 + np.uint64(stream_key(seed, level)))
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class SKGRankSpec:
    """One rank's slice of the edge-index range ``[start, stop)``."""

    start: int
    stop: int

    @property
    def count(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class StochasticKroneckerModel:
    """Plain SKG: a constant initiator at every recursion level."""

    levels: int
    num_edges: int
    seed: int = 0
    initiator: Tuple[float, float, float, float] = GRAPH500_INITIATOR

    name: ClassVar[str] = "skg"
    shared_factor: ClassVar[bool] = False
    #: One output entry per owned edge index — exact, like the kron model.
    exact_prediction: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise GenerationError(
                f"levels must be >= 1, got {self.levels}"
            )
        if self.num_edges < 0:
            raise GenerationError(
                f"num_edges must be >= 0, got {self.num_edges}"
            )
        probs = tuple(float(p) for p in self.initiator)
        if len(probs) != 4:
            raise GenerationError(
                f"initiator must be 4 probabilities (a, b, c, d), got "
                f"{len(probs)}"
            )
        if any(p < 0 for p in probs):
            raise GenerationError(
                f"initiator probabilities must be non-negative: {probs}"
            )
        if abs(sum(probs) - 1.0) > 1e-9:
            raise GenerationError(
                f"initiator probabilities must sum to 1, got {sum(probs)!r}"
            )
        object.__setattr__(self, "initiator", probs)

    # -- identity ------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return 1 << self.levels

    def _fingerprint_doc(self) -> Dict:
        return {
            "model": self.name,
            "levels": int(self.levels),
            "num_edges": int(self.num_edges),
            "seed": int(self.seed),
            "initiator": [float(p) for p in self.initiator],
            "num_vertices": self.num_vertices,
        }

    def fingerprint(
        self, *, n_ranks: int, scramble_seed: Optional[int] = None
    ) -> Dict:
        """Run identity: model id, parameters, seeds, partition width.

        Same digest convention as
        :func:`~repro.runtime.checkpoint.design_fingerprint`, so the
        manifest's existing digest comparison refuses resumes across
        models, seeds, scales, and scramble seeds with no new code.
        """
        doc = self._fingerprint_doc()
        doc["scramble_seed"] = scramble_seed
        doc["n_ranks"] = int(n_ranks)
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc["digest"] = payload_checksum(canonical.encode("ascii"))
        return doc

    # -- engine protocol -----------------------------------------------------
    def rank_tasks(
        self, n_ranks: int, *, allow_empty_ranks: bool = False
    ) -> Tuple["RankTask", ...]:
        from repro.engine.plan import RankTask

        if n_ranks < 1:
            raise GenerationError(f"need at least one rank, got {n_ranks}")
        if self.num_edges < n_ranks and not allow_empty_ranks:
            raise PartitionError(
                f"{self.num_edges} edges over {n_ranks} ranks leaves some "
                "ranks empty; pass allow_empty_ranks=True to permit that"
            )
        bounds = np.linspace(0, self.num_edges, n_ranks + 1).astype(np.int64)
        return tuple(
            RankTask(
                rank=r,
                assignment=None,
                estimated_entries=int(bounds[r + 1] - bounds[r]),
                spec=SKGRankSpec(int(bounds[r]), int(bounds[r + 1])),
            )
            for r in range(n_ranks)
        )

    @cached_property
    def _thresholds(self) -> Tuple[Tuple[float, float, float], ...]:
        """Per-level cumulative quadrant thresholds ``(a, a+b, a+b+c)``."""
        a, b, c, _d = self.initiator
        return tuple((a, a + b, a + b + c) for _ in range(self.levels))

    @cached_property
    def _level_keys(self) -> Tuple[Tuple[np.uint64, ...], ...]:
        """Per level: the counter key and the thresholds as sorted integers.

        A draw is ``u = (z >> 11)·2^-53`` (:func:`counter_u01`), exact
        because ``z >> 11 < 2^53``, so ``u >= t`` holds exactly when
        ``z >> 11 >= ceil(t·2^53)``: the float compare, in integers.
        The quadrant is the number of thresholds at or below the draw,
        which does not depend on their order, and rounding can leave a
        noisy level's cumulative thresholds out of order: so they are
        sorted.
        """
        return tuple(
            (np.uint64(stream_key(self.seed, level)),)
            + tuple(np.uint64(max(0, math.ceil(t * 2.0**53))) for t in sorted(ts))
            for level, ts in enumerate(self._thresholds)
        )

    def _generate(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Place edges ``[lo, hi)`` — a pure function of the model.

        The level loop runs over chunks of ``_GENERATE_CHUNK`` edges, in
        place on two chunk-sized buffers and on the chunk's slice of the
        output.
        """
        n = hi - lo
        rows = np.zeros(n, dtype=np.int64)
        cols = np.zeros(n, dtype=np.int64)
        draws = np.empty(min(n, _GENERATE_CHUNK), dtype=np.uint64)
        scratch = np.empty_like(draws)
        for start in range(0, n, _GENERATE_CHUNK):
            stop = min(n, start + _GENERATE_CHUNK)
            base = np.arange(lo + start, lo + stop, dtype=np.uint64) * _GOLDEN64
            z, t = draws[: stop - start], scratch[: stop - start]
            r, c = rows[start:stop], cols[start:stop]
            for key, s1, s2, s3 in self._level_keys:
                _mix64(np.add(base, key, out=z), t)
                z >>= np.uint64(11)
                # Quadrant q = #{s_i <= z} maps (a, b, c, d) → 0..3; its
                # row bit is q >= 2, its column bit q's parity.
                mid = z >= s2
                r <<= 1
                r |= mid
                c <<= 1
                c |= (z >= s1) ^ mid ^ (z >= s3)
        return rows, cols, np.ones(n, dtype=np.int64)

    def tile_iter(
        self, work
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        spec: SKGRankSpec = work.spec
        if spec is None:
            raise GenerationError(
                f"the {self.name!r} model needs a RankTask spec "
                "(SKGRankSpec); build the plan with plan_from_model"
            )
        total = spec.count
        if total <= 0:
            return
        budget = work.max_tile_entries
        step = total if budget is None else max(1, min(int(budget), total))
        for lo in range(spec.start, spec.stop, step):
            yield self._generate(lo, min(spec.stop, lo + step))


def skg_from_design(
    design,
    *,
    seed: int = 0,
    initiator: Tuple[float, float, float, float] = GRAPH500_INITIATOR,
) -> StochasticKroneckerModel:
    """An SKG model matched to a design's scale (the comparison story).

    ``levels`` is the smallest power of two covering the design's vertex
    count and ``num_edges`` its exact edge total, so exact-design and
    stochastic runs are comparable vertex-for-vertex and edge-for-edge.
    """
    levels = max(1, math.ceil(math.log2(max(2, design.num_vertices))))
    return StochasticKroneckerModel(
        levels=levels,
        num_edges=design.num_edges,
        seed=seed,
        initiator=initiator,
    )
