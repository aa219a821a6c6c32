"""Streamed triangle participation: exactness, budgets, deficiency.

Four claims under test: (1) the blocked streaming algorithm computes
*exactly* the same triangle count and participation histograms as the
in-memory counters, brute force and the id-ordered loop it replaced, at
every memory budget — including budgets far smaller than the edge set —
under any vertex labelling; (2) it holds no more adjacency than the
budget (or twice the largest out-list); (3) it consumes real shard
directories rank by rank; (4) it reproduces the arXiv:1102.5046 finding
on a recorded configuration — plain SKG is triangle-deficient against
its own noisy-initiator variant.
"""

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.design import PowerLawDesign
from repro.engine import ShardSink, execute, plan_from_model
from repro.errors import ValidationError
from repro.models import NoisySKGModel, StochasticKroneckerModel
from repro.parallel import generate_to_disk
from repro.validate import (
    compare_triangle_participation,
    count_triangles_ordered,
    iter_shard_edges,
    triangle_stream,
)
import repro.validate.triangle_pass as triangle_pass
from repro.validate.triangle_pass import MAX_TRIANGLE_VERTICES
from tests.oracles import triangle_stream_by_id

DESIGN = PowerLawDesign([3, 4, 5], "center")

#: The recorded deficiency configuration: at 2^14 vertices and average
#: degree 2, plain SKG realizes fewer than half the triangles of its
#: noisy variant (measured ratio ~0.47 for this seed; see EXPERIMENTS.md).
DEFICIENCY_CONFIG = dict(levels=14, num_edges=16384, seed=1)


def brute_force(rows, cols, n):
    """Reference: per-vertex and per-edge triangle counts via sets."""
    edges = set()
    for u, v in zip(rows.tolist(), cols.tolist()):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    vertex = [0] * n
    edge = {}
    triangles = 0
    for u, v, w in itertools.combinations(range(n), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            triangles += 1
            for x in (u, v, w):
                vertex[x] += 1
            for e in ((u, v), (u, w), (v, w)):
                edge[e] = edge.get(e, 0) + 1
    return edges, vertex, edge, triangles


MEASURED = (
    "num_vertices",
    "num_edges",
    "num_triangles",
    "vertex_participation",
    "edge_participation",
)


def measured(result):
    """The label-independent fields of a ``TriangleStreamResult``."""
    return {field: getattr(result, field) for field in MEASURED}


def brute_measured(rows, cols, n):
    """``measured`` computed by :func:`brute_force`."""
    edges, vertex, edge, triangles = brute_force(rows, cols, n)
    edge_hist = Counter(edge.values())
    if len(edges) > len(edge):
        edge_hist[0] = len(edges) - len(edge)
    return {
        "num_vertices": n,
        "num_edges": len(edges),
        "num_triangles": triangles,
        "vertex_participation": dict(Counter(vertex)),
        "edge_participation": dict(edge_hist),
    }


def oriented_edges(rows, cols, n):
    """The distinct ``(src, dst)`` rank pairs once every edge points from
    the lower to the higher vertex in (stored incidence, id) order."""
    incidence = Counter()
    for u, v in zip(rows.tolist(), cols.tolist()):
        if u != v:
            incidence[u] += 1
            incidence[v] += 1
    order = sorted(range(n), key=lambda x: (incidence[x], x))
    rank = {x: i for i, x in enumerate(order)}
    return {
        tuple(sorted((rank[u], rank[v])))
        for u, v in zip(rows.tolist(), cols.tolist())
        if u != v
    }


def largest_out_list(rows, cols, n):
    """The largest distinct out-list of :func:`oriented_edges`."""
    oriented = oriented_edges(rows, cols, n)
    return max(Counter(src for src, _ in oriented).values(), default=0)


@st.composite
def chunked_multigraphs(draw):
    """A budget and a multigraph on ``n`` vertices cut into random
    chunks, with a relabelling of its vertices.

    Entries may be self-loops or repeats, and are stored in one
    direction or both; high ids may stay isolated; chunks may be empty,
    and so may the whole input.  A random clique makes triangles likely.
    Budget 1 cuts a block per vertex, so its graphs stay smaller.
    """
    budget = draw(st.sampled_from([1, 2, 3, 7, 64, 10**9]))
    n = draw(st.integers(0, 6 if budget == 1 else 12))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30)) if n else []
    clique = sorted(draw(st.sets(ids, max_size=6))) if n else []
    pairs += itertools.combinations(clique, 2)
    both = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    entries = draw(
        st.permutations(pairs + [(v, u) for (u, v), b in zip(pairs, both) if b])
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(entries)), max_size=4)))
    bounds = [0, *cuts, len(entries)]
    chunks = [
        (
            np.array([u for u, _ in entries[lo:hi]], dtype=np.int64),
            np.array([v for _, v in entries[lo:hi]], dtype=np.int64),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return budget, n, chunks, perm


def assert_sweep_exact(case, infer):
    """One case of the sweep: the oracles, the pass count, the memory
    bound and label independence."""
    budget, n, chunks, perm = case
    num_vertices = None if infer else n
    result = triangle_stream(chunks, num_vertices, memory_budget_entries=budget)
    assert measured(result) == triangle_stream_by_id(
        chunks, num_vertices, memory_budget_entries=budget
    )
    rows = np.concatenate([r for r, _ in chunks])
    cols = np.concatenate([c for _, c in chunks])
    assert measured(result) == brute_measured(rows, cols, result.num_vertices)
    assert result.stream_passes == 3 + (result.num_blocks > 1)
    assert result.peak_entries <= max(
        budget, 2 * largest_out_list(rows, cols, result.num_vertices)
    )
    relabelled = [(perm[r], perm[c]) for r, c in chunks]
    assert measured(
        triangle_stream(relabelled, n, memory_budget_entries=budget)
    ) == measured(triangle_stream(chunks, n, memory_budget_entries=budget))


def one_chunk(entries):
    rows, cols = zip(*entries)
    return [(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))]


#: A triangle stored in both directions: out-lists 4, 2 and 0 at half
#: budget 1 cut three blocks, the last with an empty region.
TRIANGLE_BOTH_WAYS = one_chunk([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])

#: A 4-clique stored one way beside an isolated vertex, which ranks
#: first: at half budget 1 its block's region is empty, and every pair of
#: the first row has an empty block A.
CLIQUE_AND_ISOLATED = one_chunk(list(itertools.combinations(range(4), 2)))


class TestExactness:
    @pytest.mark.parametrize("budget", [10**9, 64, 9, 1])
    def test_matches_brute_force_on_random_graphs(self, rng, budget):
        n = 24
        for _ in range(5):
            m = 60
            rows = rng.integers(0, n, size=m).astype(np.int64)
            cols = rng.integers(0, n, size=m).astype(np.int64)
            result = triangle_stream(
                [(rows, cols)], n, memory_budget_entries=budget
            )
            assert measured(result) == brute_measured(rows, cols, n)

    @settings(max_examples=150, deadline=None)
    @given(case=chunked_multigraphs(), infer=st.booleans())
    # Four leaves stored one way only: one leaf per half-budget block.
    @example(
        case=(
            2,
            5,
            [(np.array([1, 2, 3, 4]), np.zeros(4, dtype=np.int64))],
            np.arange(5),
        ),
        infer=False,
    )
    @example(case=(1, 3, TRIANGLE_BOTH_WAYS, np.array([2, 0, 1])), infer=False)
    @example(case=(2, 5, CLIQUE_AND_ISOLATED, np.array([4, 3, 2, 1, 0])), infer=False)
    def test_sweep_matches_oracles_under_any_labelling(self, case, infer):
        assert_sweep_exact(case, infer)

    @settings(max_examples=60, deadline=None)
    @given(case=chunked_multigraphs(), infer=st.booleans())
    def test_sweep_exact_when_the_screen_passes_every_wedge(self, case, infer):
        # With the multiplier 0 every key hashes to slot 0, so every
        # wedge passes the screen and the exact compare alone decides.
        with mock.patch.object(triangle_pass, "SCREEN_HASH", 0):
            assert_sweep_exact(case, infer)

    def test_design_triangles_match_closed_form(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        result = triangle_stream(
            [(coo.rows, coo.cols)], DESIGN.num_vertices
        )
        assert result.num_triangles == DESIGN.num_triangles
        assert result.num_triangles == count_triangles_ordered(graph)

    def test_budget_invariance_far_below_edge_count(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        edges = [(coo.rows, coo.cols)]
        base = triangle_stream(edges, DESIGN.num_vertices)
        assert base.num_blocks == 1
        tiny = triangle_stream(
            edges, DESIGN.num_vertices, memory_budget_entries=50
        )
        assert tiny.num_blocks > 1
        assert tiny.stream_passes > base.stream_passes
        for field in (
            "num_edges",
            "num_triangles",
            "vertex_participation",
            "edge_participation",
        ):
            assert getattr(tiny, field) == getattr(base, field), field

    @pytest.mark.parametrize("budget", [1024, 4096])
    def test_wedges_closed_in_several_chunks_per_block_pair(
        self, budget, monkeypatch
    ):
        # At these budgets some block pairs hold more wedges than the
        # budget, so their closure runs in several chunks.
        design = PowerLawDesign([3, 4, 5, 9], "center")
        from repro.sparse.convert import as_coo

        coo = as_coo(design.realize().adjacency)
        edges = [(coo.rows, coo.cols)]
        base = triangle_stream(edges, design.num_vertices)

        # Spy on the wedge cut: per block pair, the chunk cap the pair
        # allows and each chunk's (wedges, pivot rows).  The blocks are
        # cut before the first pair closes, so every later cut is a
        # wedge cut.
        pairs = []
        real_close, real_cut = triangle_pass._close_wedges, triangle_pass._cut

        def close_spy(block_a, block_b, *args):
            held = len(block_a.keys) + (block_b is not block_a) * len(block_b.keys)
            pairs.append((min(budget, held), []))
            real_close(block_a, block_b, *args)

        def cut_spy(sizes, cap):
            ranges = real_cut(sizes, cap)
            if pairs:
                pairs[-1][1].extend(
                    (int(sizes[lo:hi].sum()), hi - lo) for lo, hi in ranges
                )
            return ranges

        monkeypatch.setattr(triangle_pass, "_close_wedges", close_spy)
        monkeypatch.setattr(triangle_pass, "_cut", cut_spy)
        chunked = triangle_stream(
            edges, design.num_vertices, memory_budget_entries=budget
        )
        assert base.num_triangles == design.num_triangles
        assert measured(chunked) == measured(base)
        assert len(pairs) == chunked.num_blocks * (chunked.num_blocks + 1) // 2
        for cap, chunks in pairs:
            for wedges, pivot_rows in chunks:
                assert wedges <= cap or pivot_rows == 1
        assert max(len(chunks) for _, chunks in pairs) > 1

    @pytest.mark.parametrize("budget", [2, 64])
    def test_pair_passes_read_only_their_own_blocks(self, budget, monkeypatch):
        # Spy on every read of a spill and on every pair's closure.  From
        # the first pair on, each pair reads one region, the block it does
        # not share with the pair before (A at the start of a row, else
        # B), and nothing else; every block holds exactly its distinct
        # oriented keys.  So no pair reads the whole spill.
        from repro.sparse.convert import as_coo

        coo = as_coo(DESIGN.realize().adjacency)
        n = DESIGN.num_vertices
        oriented = oriented_edges(coo.rows, coo.cols, n)
        events = []
        real_read, real_close = triangle_pass._read, triangle_pass._close_wedges

        def read_spy(spill, start, count):
            values = real_read(spill, start, count)
            events.append(len(values))
            return values

        def close_spy(block_a, block_b, *args):
            events.append((block_a, block_b))
            real_close(block_a, block_b, *args)

        monkeypatch.setattr(triangle_pass, "_read", read_spy)
        monkeypatch.setattr(triangle_pass, "_close_wedges", close_spy)
        result = triangle_stream(
            [(coo.rows, coo.cols)], n, memory_budget_entries=budget
        )
        assert result.num_triangles == DESIGN.num_triangles

        closes = [i for i, event in enumerate(events) if isinstance(event, tuple)]
        k = result.num_blocks
        assert k > 1 and len(closes) == k * (k + 1) // 2
        empty = 0
        for i, at in enumerate(closes):
            block_a, block_b = events[at]
            for block in (block_a, block_b):
                want = sorted(
                    src * n + dst
                    for src, dst in oriented
                    if block.lo <= src < block.hi
                )
                assert block.keys.tolist() == want
                empty += not want
            new = block_a if block_b is block_a else block_b
            reads = events[closes[i - 1] + 1 : at] if i else events[at - 1 : at]
            assert reads == [len(new.keys)]
        assert empty or budget > 2

    def test_one_shot_generator_source_matches_oracle(self, rng):
        n = 24
        chunks = [
            (
                rng.integers(0, n, size=40).astype(np.int64),
                rng.integers(0, n, size=40).astype(np.int64),
            )
            for _ in range(3)
        ]
        result = triangle_stream(
            (chunk for chunk in chunks), n, memory_budget_entries=9
        )
        assert result.num_blocks > 1
        assert measured(result) == triangle_stream_by_id(
            chunks, n, memory_budget_entries=9
        )

    def test_empty_input(self):
        result = triangle_stream([], 0)
        assert result.num_edges == 0
        assert result.num_triangles == 0
        assert result.edge_participation_fraction == 0.0

    @pytest.mark.parametrize("loop", [False, True], ids=["non-loop", "loop"])
    def test_out_of_range_endpoint_rejected(self, loop):
        rows = np.array([0, 7], dtype=np.int64)
        cols = np.array([1, 7 if loop else 2], dtype=np.int64)
        with pytest.raises(ValidationError, match="out of range"):
            triangle_stream([(rows, cols)], 5)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            triangle_stream([], 0, memory_budget_entries=0)

    @pytest.mark.parametrize("loop", [False, True], ids=["non-loop", "loop"])
    @pytest.mark.parametrize("num_vertices", [4, None])
    def test_negative_endpoint_rejected(self, loop, num_vertices):
        rows = np.array([0, -3], dtype=np.int64)
        cols = np.array([1, -3 if loop else 2], dtype=np.int64)
        with pytest.raises(ValidationError, match="negative"):
            triangle_stream([(rows, cols)], num_vertices)

    def test_loops_stay_out_of_the_inferred_vertex_count(self):
        rows = np.array([0, 7], dtype=np.int64)
        cols = np.array([1, 7], dtype=np.int64)
        result = triangle_stream([(rows, cols)])
        assert (result.num_vertices, result.num_edges) == (2, 1)

    def test_vertex_count_beyond_closure_key_rejected(self):
        # Refused before any O(V) array is allocated.
        with pytest.raises(ValidationError, match="too large"):
            triangle_stream([], MAX_TRIANGLE_VERTICES + 1)
        rows = np.array([0], dtype=np.int64)
        cols = np.array([MAX_TRIANGLE_VERTICES], dtype=np.int64)
        with pytest.raises(ValidationError, match="too large"):
            triangle_stream([(rows, cols)])


class TestShardInput:
    def test_reads_shard_directory_with_manifest_vertices(self, tmp_path):
        out = tmp_path / "shards"
        generate_to_disk(DESIGN, 3, out)
        result = triangle_stream(out)
        assert result.num_vertices == DESIGN.num_vertices
        assert result.num_triangles == DESIGN.num_triangles

    def test_shard_stream_equals_in_memory(self, tmp_path):
        model = StochasticKroneckerModel(levels=7, num_edges=400, seed=5)
        out = tmp_path / "skg"
        execute(plan_from_model(model, 3), ShardSink(out))
        streamed = triangle_stream(out)
        chunks = list(iter_shard_edges(out))
        in_memory = triangle_stream(chunks, model.num_vertices)
        assert streamed.num_triangles == in_memory.num_triangles
        assert streamed.edge_participation == in_memory.edge_participation
        # And a tiny budget over the on-disk shards still agrees.
        tiny = triangle_stream(out, memory_budget_entries=37)
        assert tiny.num_blocks > 1
        assert tiny.num_triangles == streamed.num_triangles


class TestDeficiencyFlag:
    def test_plain_skg_deficient_against_noisy_at_recorded_config(self):
        results = {}
        for cls, name in (
            (StochasticKroneckerModel, "skg"),
            (NoisySKGModel, "noisy"),
        ):
            model = cls(**DEFICIENCY_CONFIG)
            rows, cols, _ = model._generate(0, model.num_edges)
            results[name] = triangle_stream([(rows, cols)], model.num_vertices)
        comparison = compare_triangle_participation(
            results["noisy"], results["skg"]
        )
        assert comparison.deficient, comparison.to_text()
        assert comparison.triangle_ratio < 0.5
        assert (
            results["skg"].edge_participation_fraction
            < results["noisy"].edge_participation_fraction
        )
        assert "TRIANGLE-DEFICIENT" in comparison.to_text()

    def test_exact_design_is_not_deficient_against_itself(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        measured = triangle_stream([(coo.rows, coo.cols)], DESIGN.num_vertices)
        comparison = compare_triangle_participation(DESIGN, measured)
        assert comparison.triangle_ratio == 1.0
        assert not comparison.deficient

    def test_comparison_accepts_plain_int(self):
        graph = DESIGN.realize()
        from repro.sparse.convert import as_coo

        coo = as_coo(graph.adjacency)
        measured = triangle_stream([(coo.rows, coo.cols)], DESIGN.num_vertices)
        comparison = compare_triangle_participation(
            DESIGN.num_triangles * 4, measured, threshold=0.5
        )
        assert comparison.deficient
