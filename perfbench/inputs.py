"""Workload inputs, drawn from the workload seed.

The same seed gives the same inputs.  Every seed gives inputs of the
same size and shape (the same designs, rank counts, budgets and request
mix); the seed picks vertex labels, stochastic-model seeds and request
order.  The output sizes do not depend on the seed, but some of the work
does: the triangle pass of ``validate`` orients each edge by vertex id,
so its wedge work and the memory of its vertex blocks depend on the
scramble's labels, and the noisy-SKG model seed picks which edges
``generate`` draws.  A spread taken across seeds includes that work.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: ``generate``: 2,172,554 edges over 61,200 vertices.  A rank's block
#: is ~271k entries, so a 2^17 budget tiles every rank.
GENERATE_SIZES = [2, 3, 4, 5, 9, 16]
GENERATE_RANKS = 8
GENERATE_BUDGET = 1 << 17

#: ``validate``: the ROADMAP baseline design (434,510 edges, 465,427
#: triangles).  A 2^18 triangle budget cuts it into 4 vertex blocks.
VALIDATE_SIZES = [3, 4, 5, 9, 16]
VALIDATE_RANKS = 8
VALIDATE_TRIANGLE_BUDGET = 1 << 18

#: ``serve``: the designs the server registers; the kron one also
#: serves the tile range.  Tile plans use 8 ranks at a 2^13 budget.
SERVE_KRON = {"star_sizes": [3, 4, 5, 9, 16], "self_loop": "center", "model": "kron"}
SERVE_KRON_LEAF = {"star_sizes": [2, 3, 4, 5, 9], "self_loop": "leaf", "model": "kron"}
SERVE_SKG_SIZES = [3, 4, 5, 9]
SERVE_TILE_RANKS = 8
SERVE_TILE_BUDGET = 1 << 13
SERVE_TILE_RANK = 3
SERVE_TILE_RANGE = (0, 4)
#: One round of the closed loop: 36 design GETs (12 per design) and 4
#: tile-range GETs, shuffled by the seed.  Nine in ten requests are
#: design GETs, so the median latency lies inside their distribution.
SERVE_ROUND = {"design": 36, "tiles": 4}


def _draws(seed: int, salt: str, n: int) -> List[int]:
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1, 1 << 31) for _ in range(n)]


def generate_inputs(seed: int) -> Dict:
    scramble_seed, model_seed = _draws(seed, "generate", 2)
    return {
        "star_sizes": GENERATE_SIZES,
        "self_loop": "center",
        "ranks": GENERATE_RANKS,
        "memory_budget_entries": GENERATE_BUDGET,
        "scramble_seed": scramble_seed,
        "model_seed": model_seed,
    }


def validate_inputs(seed: int) -> Dict:
    (scramble_seed,) = _draws(seed, "validate", 1)
    return {
        "star_sizes": VALIDATE_SIZES,
        "self_loop": "center",
        "ranks": VALIDATE_RANKS,
        "triangle_budget_entries": VALIDATE_TRIANGLE_BUDGET,
        "scramble_seed": scramble_seed,
    }


def serve_inputs(seed: int) -> Dict:
    (model_seed,) = _draws(seed, "serve", 1)
    skg = {
        "star_sizes": SERVE_SKG_SIZES,
        "self_loop": "center",
        "model": "noisy-skg",
        "seed": model_seed,
    }
    designs = [SERVE_KRON, SERVE_KRON_LEAF, skg]
    per_design = SERVE_ROUND["design"] // len(designs)
    round_ops = [("design", i) for i in range(len(designs)) for _ in range(per_design)]
    round_ops += [("tiles", 0)] * SERVE_ROUND["tiles"]
    random.Random(f"serve-order:{seed}").shuffle(round_ops)
    return {"designs": designs, "round": round_ops}
