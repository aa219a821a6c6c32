"""Property-based tests, round 3: joints, scrambles, samples, I/O."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import (
    JointDegreeDistribution,
    PowerLawDesign,
    joint_degree_distribution,
    sample_edges,
    sample_vertices,
)
from repro.design.estimate import estimate_resources
from repro.parallel import scramble_permutation
from repro.validate import validate_design

star_sizes = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3)
loops = st.sampled_from([None, "center", "leaf"])


@st.composite
def joint_maps(draw):
    pairs = st.tuples(st.integers(1, 10), st.integers(1, 10))
    return draw(st.dictionaries(pairs, st.integers(1, 9), min_size=1, max_size=5))


# -- joint distributions -----------------------------------------------------------


@given(joint_maps(), joint_maps())
@settings(max_examples=50, deadline=None)
def test_joint_kron_totals_multiply(da, db):
    a, b = JointDegreeDistribution(da), JointDegreeDistribution(db)
    assert a.kron(b).total_edges() == a.total_edges() * b.total_edges()


@given(star_sizes, loops)
@settings(max_examples=25, deadline=None)
def test_joint_matches_realized(sizes, loop):
    design = PowerLawDesign(sizes, loop)
    if design.raw_nnz > 20_000:
        return
    from collections import Counter

    graph = design.realize()
    degrees = graph.degree_vector()
    measured: Counter = Counter()
    for r, c, _ in graph.adjacency:
        measured[(int(degrees[r]), int(degrees[c]))] += 1
    assert joint_degree_distribution(design) == dict(measured)


@given(star_sizes, loops)
@settings(max_examples=25, deadline=None)
def test_joint_totals_and_symmetry(sizes, loop):
    design = PowerLawDesign(sizes, loop)
    joint = joint_degree_distribution(design)
    assert joint.total_edges() == design.num_edges
    assert joint.is_symmetric()


# -- scrambling -------------------------------------------------------------------


@given(st.integers(1, 500), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_scramble_is_bijection(n, seed):
    perm = scramble_permutation(n, seed=seed)
    images = {perm.apply(x) for x in range(n)}
    assert images == set(range(n))


@given(st.integers(2, 10**6), st.integers(0, 2**32), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_scramble_roundtrip(n, seed, x):
    x = x % n
    perm = scramble_permutation(n, seed=seed)
    assert perm.invert(perm.apply(x)) == x


# -- sampling ---------------------------------------------------------------------


@given(star_sizes, loops, st.integers(1, 30))
@settings(max_examples=20, deadline=None)
def test_samples_are_stored_entries(sizes, loop, count):
    design = PowerLawDesign(sizes, loop)
    chain = design.to_chain()
    rng = np.random.default_rng(0)
    for i, j in sample_edges(design, count, rng=rng):
        assert chain.entry(i, j) != 0
    for v in sample_vertices(design, count, rng=rng):
        assert 0 <= v < design.num_vertices


# -- resource estimates ----------------------------------------------------------------


@given(star_sizes, loops)
@settings(max_examples=40, deadline=None)
def test_estimate_consistency(sizes, loop):
    design = PowerLawDesign(sizes, loop)
    est = estimate_resources(design)
    assert est.coo_bytes == design.num_edges * 24
    assert est.coo_bytes >= est.csr_bytes * 24 // 16 - 1
    assert est.fits_in(est.coo_bytes)
    assert not est.fits_in(est.coo_bytes - 1) or design.num_edges == 0


# -- deep validation closes the loop -----------------------------------------------------


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), loops)
@settings(max_examples=15, deadline=None)
def test_deep_validation_passes(sizes, loop):
    design = PowerLawDesign(sizes, loop)
    if design.raw_nnz > 10_000:
        return
    report = validate_design(design, deep=True)
    assert report.passed, report.to_text()
    assert report.wedges_match is True
    assert report.joint_match is True


# -- mtx roundtrip over random matrices ----------------------------------------------------


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_mtx_roundtrip_random(tmp_path_factory, data):
    from repro.io.mtx import read_mtx, write_mtx
    from repro.sparse import from_dense

    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 6))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    matrix = from_dense(np.asarray(rows, dtype=np.int64))
    path = tmp_path_factory.mktemp("mtx") / "m.mtx"
    write_mtx(path, matrix)
    assert read_mtx(path).equal(matrix)
