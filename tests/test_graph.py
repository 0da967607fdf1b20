"""Graph construction: k-NN build, kernels, validation, binary cache format."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import graphtv.graph as graph_module
from graphtv import KernelSpec, build_knn_graph, synth_two_moons
from graphtv.errors import (
    DegenerateFeaturesError,
    IsolatedNodeError,
    ParseError,
)
from graphtv.graph import FeatureMatrix, load_graph, save_graph
from oracles import (
    dense_knn_graph,
    exact_cosine_distance,
    from_dense,
    random_connected_graph,
)


# ---------------------------------------------------------------- KernelSpec


def test_kernel_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        KernelSpec(k=0)
    with pytest.raises(ValueError, match="metric"):
        KernelSpec(k=3, metric="manhattan")
    with pytest.raises(ValueError, match="kernel"):
        KernelSpec(k=3, kernel="laplace")
    with pytest.raises(ValueError):
        KernelSpec(k=3, sigma=-1.0)


# ------------------------------------------------------------------- builds


def edge_weights(graph):
    """{(i, j): w} over the undirected edges i < j of a graph."""
    w = graph.csr.toarray()
    return {(int(i), int(j)): w[i, j] for i, j in zip(*np.nonzero(np.triu(w, k=1)))}


def test_identical_points_gaussian_weight_one():
    feats = FeatureMatrix(np.array([[2.0, 3.0], [2.0, 3.0]]))
    graph = build_knn_graph(feats, KernelSpec(k=1, sigma=1.0))
    assert graph.num_edges == 1
    assert edge_weights(graph) == {(0, 1): 1.0}


def test_mean_symmetrization_halves_one_sided_edges():
    # {0, 1, 3}: with k=1, 1's nearest is 0 and 0's nearest is 1 (mutual),
    # 2's nearest is 1 (one-sided) -> binary weights 1 and 0.5.
    feats = FeatureMatrix(np.array([[0.0], [1.0], [3.0]]))
    graph = build_knn_graph(feats, KernelSpec(k=1, kernel="binary"))
    assert edge_weights(graph) == {(0, 1): 1.0, (1, 2): 0.5}


def test_two_moons_graph_structural_audit():
    feats, _ = synth_two_moons(500, 0.1, 3)
    graph = build_knn_graph(feats, KernelSpec(k=10))
    assert graph.n == 500
    assert np.all(graph.degrees > 0)
    # symmetrized union keeps at least the k out-neighbours of every node
    assert np.diff(graph.csr.indptr).min() >= 10
    coo = graph.csr.tocoo()
    assert not np.any(coo.row == coo.col)  # no self-loops


def test_gaussian_auto_sigma_matches_hand_rule():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(40, 3))
    k = 6
    dists = cdist(values, values)
    np.fill_diagonal(dists, np.inf)
    kth = int(np.ceil(k / 2))  # 1-based neighbour rank
    sigma = np.mean(np.sort(dists, axis=1)[:, kth - 1])

    built_auto = build_knn_graph(FeatureMatrix(values), KernelSpec(k=k))
    built_manual = build_knn_graph(
        FeatureMatrix(values), KernelSpec(k=k, sigma=float(sigma))
    )
    assert np.array_equal(built_auto.csr.data, built_manual.csr.data)


def test_cosine_metric_runs_and_rejects_zero_rows():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(30, 4))
    graph = build_knn_graph(FeatureMatrix(values), KernelSpec(k=4, metric="cosine"))
    assert graph.n == 30
    values[3] = 0.0
    with pytest.raises(DegenerateFeaturesError):
        build_knn_graph(FeatureMatrix(values), KernelSpec(k=4, metric="cosine"))


@pytest.mark.parametrize("scale", [1e-170, 1e154])
def test_cosine_graph_does_not_depend_on_the_scale_of_the_rows(scale):
    # the sum of squares of a row underflows (1e-170) or overflows (1e154)
    values = np.array([[float(i), 30.0] for i in range(12)])
    spec = KernelSpec(k=3, metric="cosine")
    unscaled = build_knn_graph(values, spec)
    scaled = build_knn_graph(values * scale, spec)
    assert np.array_equal(scaled.csr.indptr, unscaled.csr.indptr)
    assert np.array_equal(scaled.csr.indices, unscaled.csr.indices)
    np.testing.assert_allclose(scaled.csr.data, unscaled.csr.data, rtol=1e-12, atol=0)


def test_overflowing_squared_distances_are_rejected():
    values = np.random.default_rng(0).normal(size=(6, 2)) * 1e160
    with pytest.raises(DegenerateFeaturesError, match="overflows"):
        build_knn_graph(values, KernelSpec(k=2))


def test_isolated_node_rejected():
    # distances so large the gaussian kernel underflows to exactly zero
    feats = FeatureMatrix(np.array([[0.0], [1e9], [2e9]]))
    with pytest.raises(IsolatedNodeError) as info:
        build_knn_graph(feats, KernelSpec(k=1, sigma=1e-3))
    assert info.value.node == 0
    message = str(info.value)
    assert "metric euclidean" in message
    assert "sigma=0.001" in message
    assert "nearest-neighbor distance 1e+09" in message
    assert "--sigma" in message and "--kernel binary" in message


def test_k_must_be_smaller_than_n():
    feats = FeatureMatrix(np.zeros((5, 2)) + np.arange(5)[:, None])
    with pytest.raises(ValueError, match="k must be < n"):
        build_knn_graph(feats, KernelSpec(k=5))


def test_build_is_deterministic():
    feats, _ = synth_two_moons(120, 0.1, 9)
    a = build_knn_graph(feats, KernelSpec(k=7))
    b = build_knn_graph(feats, KernelSpec(k=7))
    assert np.array_equal(a.csr.toarray(), b.csr.toarray())


# ------------------------------------------- blocked search vs dense oracle


def assert_same_graph(built, oracle):
    assert np.array_equal(built.csr.indptr, oracle.csr.indptr)
    assert np.array_equal(built.csr.indices, oracle.csr.indices)
    assert np.array_equal(built.csr.data, oracle.csr.data)


SPECS = list(itertools.product(("euclidean", "cosine"), ("gaussian", "binary")))


@st.composite
def knn_cases(draw):
    """Features, k and rows per block; small-integer grids give heavy ties."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = np.array(
            draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d)),
            dtype=np.float64,
        ).reshape(n, d)
        values[np.all(values == 0.0, axis=1), 0] = 1.0  # cosine needs a norm
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).normal(size=(n, d))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
        values[dst] = values[src]
    k = draw(st.integers(1, n - 1))
    rows = draw(st.integers(2, n + 1))
    return values, k, rows


# seven rows in blocks of three (two at two threads) leave a one-row tail;
# the ties at distance 1 straddle the k-th neighbor of several rows
TIED_LINE = np.array([[0.0], [1.0], [1.0], [2.0], [3.0], [3.0], [4.0]])
# nine rows in blocks of four (two at two threads) leave a one-row tail
NINE_ROWS = np.random.default_rng(12).normal(size=(9, 2))
# in blocks of three rows, row 4 sits in the second block and its third
# neighbor is a tie between column 0 and column n - 1, at the same distance
# in both metrics by symmetry about the x-axis
EDGE_TIES = np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 0.0],
                      [-1.0, 0.0], [2.0, 0.0], [1.0, -1.0]])


@settings(max_examples=150, deadline=None)
@given(case=knn_cases(), spec_index=st.integers(0, len(SPECS) - 1))
@example(case=(TIED_LINE, 2, 3), spec_index=0)
@example(case=(TIED_LINE + 1.0, 3, 3), spec_index=SPECS.index(("cosine", "binary")))
@example(case=(EDGE_TIES, 3, 3), spec_index=SPECS.index(("euclidean", "binary")))
@example(case=(EDGE_TIES, 3, 3), spec_index=SPECS.index(("cosine", "binary")))
@example(case=(NINE_ROWS, 4, 4), spec_index=0)
def test_blocked_build_matches_dense_oracle(case, spec_index):
    values, k, rows = case
    metric, kernel = SPECS[spec_index]
    spec = KernelSpec(k=k, metric=metric, kernel=kernel)
    n = values.shape[0]
    try:
        oracle = dense_knn_graph(values, spec)
    except IsolatedNodeError as exc:
        # a far outlier's gaussian weights underflow under the mean bandwidth;
        # the build must then reject the same node
        for cpus in (1, 2):
            with pytest.raises(IsolatedNodeError) as built_exc:
                build_on_cpus(cpus, values, spec, rows * n)
            assert built_exc.value.node == exc.node
        return
    for cpus in (1, 2):
        assert_same_graph(build_on_cpus(cpus, values, spec, rows * n), oracle)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), rows=st.integers(2, 8),
       d=st.integers(1, 8), jitter=st.integers(3, 12))
def test_blocked_cosine_distances_match_oracle_to_rounding(seed, n, rows, d, jitter):
    # the second half of the rows are near-copies of the first, where
    # 1 - <x,y>/(|x||y|) would cancel to a few digits
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, d))
    half = n // 2
    values[half:2 * half] = values[:half] + 10.0**-jitter * rng.normal(size=(half, d))
    with mock.patch.object(graph_module, "_BLOCK_ENTRIES", rows * n):
        neighbor, ndist = graph_module._nearest_neighbors(values, n - 1, "cosine")
    exact = [[exact_cosine_distance(values[i], values[j]) for j in row]
             for i, row in enumerate(neighbor)]
    assert np.abs(ndist - exact).max() <= 8 * np.finfo(np.float64).eps


def test_euclidean_keeps_squared_distances_whose_roots_tie_the_kth():
    # q and p are one ulp apart in squared distance from node 0 and equal
    # after the square root, so the tie goes to q, the lower index; a mask
    # at the k-th squared distance alone would see only p
    q = (1.7199053588004087, 1.8691333659165827)
    p = (1.7199053588004087, 1.8691333659165825)
    values = np.array([(0.0, 0.0), q, p, (50.0, 0.0), (0.0, 50.0)])
    squared = cdist(values[:1], values[1:3], "sqeuclidean")[0]
    assert squared[0] > squared[1]
    assert np.sqrt(squared[0]) == np.sqrt(squared[1])
    neighbor, ndist = graph_module._nearest_neighbors(values, 1, "euclidean")
    assert neighbor[0, 0] == 1
    assert ndist[0, 0] == cdist(values[:1], values[1:2])[0, 0]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_both_metrics_rank_squared_distances(metric):
    metrics = []

    def recording_cdist(xa, xb, pair_metric, **kwargs):
        metrics.append(pair_metric)
        return cdist(xa, xb, pair_metric, **kwargs)

    values = np.random.default_rng(9).normal(size=(12, 3))
    with mock.patch.object(graph_module, "cdist", recording_cdist):
        build_on_cpus(2, values, KernelSpec(k=3, metric=metric), 2 * 12)
    assert len(metrics) > 1 and set(metrics) == {"sqeuclidean"}


@pytest.mark.parametrize("n, rows, blocks", [
    (7, 3, [(0, 3), (3, 6), (6, 7)]),   # a one-row tail is a block of its own
    (6, 3, [(0, 3), (3, 6)]),
    (5, 1, [(0, 2), (2, 4), (4, 5)]),   # never fewer than two rows but the tail
    (4, 100, [(0, 4)]),
])
def test_full_windows_give_the_row_blocks_of_a_whole_row_scan(n, rows, blocks):
    # when every window is every column, the blocks are whole rows, at least
    # two of them but at the tail
    got = graph_module._window_blocks(np.zeros(n, dtype=np.intp),
                                      np.full(n, n), rows * n)
    assert got == [(lo, hi, 0, n) for lo, hi in blocks]


@st.composite
def sorted_windows(draw):
    """Windows [lo, hi) of n sorted rows, each holding its own row."""
    n = draw(st.integers(1, 60))
    reach = st.lists(st.integers(0, n), min_size=n, max_size=n)
    rows = np.arange(n)
    lo = np.maximum(0, rows - np.array(draw(reach)))
    hi = np.minimum(n, rows + 1 + np.array(draw(reach)))
    return lo, hi, draw(st.integers(1, n * n + 1))


@settings(max_examples=200, deadline=None)
@given(case=sorted_windows())
def test_window_blocks_hold_every_sorted_row_once_within_the_budget(case):
    lo, hi, budget = case
    blocks = graph_module._window_blocks(lo, hi, budget)
    # consecutive runs of sorted rows, so every row lies in exactly one block
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == lo.size
    for r0, r1, c0, c1 in blocks:
        assert r1 > r0
        # one window of columns holds every row's own window
        assert (c0, c1) == (lo[r0:r1].min(), hi[r0:r1].max())
        # beyond the two-row floor a block stays within the budget
        assert (r1 - r0) * (c1 - c0) <= budget or r1 - r0 <= 2


def test_scan_blocks_split_the_budget_between_workers():
    budgets = []
    window_blocks = graph_module._window_blocks

    def recording(lo, hi, budget):
        budgets.append(budget)
        return window_blocks(lo, hi, budget)

    values = np.random.default_rng(3).normal(size=(10, 2))
    with mock.patch.object(graph_module, "_window_blocks", recording):
        for cpus in (1, 2, 3):
            build_on_cpus(cpus, values, KernelSpec(k=2), 8 * 10)
    assert budgets == [80, 40, 26]


@st.composite
def dominant_axis_cases(draw):
    """Line-like clouds: integer steps along one axis and a small jitter.

    Integer steps put exact distance ties on a window's edge; the jitter is
    either exact (a power of two times small integers) or gaussian.
    """
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 4))
    values = np.empty((n, d))
    axis = draw(st.integers(0, d - 1))
    values[:, axis] = draw(st.lists(st.integers(-25, 25), min_size=n, max_size=n))
    others = [c for c in range(d) if c != axis]
    if draw(st.booleans()):
        jitter = draw(st.lists(st.integers(-2, 2), min_size=n * (d - 1),
                               max_size=n * (d - 1)))
        values[:, others] = np.reshape(jitter, (n, d - 1)) * 2.0 ** -draw(st.integers(0, 8))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values[:, others] = rng.normal(size=(n, d - 1)) * 10.0 ** -draw(st.integers(1, 6))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
        values[dst] = values[src]
    # a line off the origin keeps a dominant axis among the unit rows of
    # cosine; a zero row has no cosine direction at all
    values[:, others[0] if others else 0] += draw(st.sampled_from([0.0, 30.0]))
    values[np.all(values == 0.0, axis=1), 0] = 1.0
    return values, draw(st.integers(1, n - 1)), draw(st.integers(2, 2 * n))


TILTED_LINE = np.array([[float(i), 30.0 + (i % 3)] for i in range(12)])


@settings(max_examples=150, deadline=None)
@given(case=dominant_axis_cases(), metric=st.sampled_from(["euclidean", "cosine"]))
@example(case=(np.arange(9.0)[:, None], 2, 4), metric="euclidean")
@example(case=(np.array([[float(i), 30.0] for i in range(12)]), 3, 2), metric="cosine")
# an exact tie on the window's edge, moved by rounding in the projections
@example(case=(np.array([[1000.0 + i, 1000.0 + 2 * i] for i in range(8)]), 1, 2),
         metric="euclidean")
# squared distances that round to 0 (1e-170) or to subnormals (1e-160)
@example(case=(np.arange(10.0)[:, None] * 1e-170, 3, 3), metric="euclidean")
@example(case=(TILTED_LINE * 1e-170, 2, 3), metric="euclidean")
@example(case=(TILTED_LINE * 1e-160, 3, 2), metric="euclidean")
@example(case=(TILTED_LINE * 1e-160, 3, 2), metric="cosine")
def test_window_scan_matches_dense_oracle_on_a_dominant_axis(case, metric):
    values, k, rows = case
    spec = KernelSpec(k=k, metric=metric, kernel="binary")
    oracle = dense_knn_graph(values, spec)
    for cpus in (1, 2):
        assert_same_graph(build_on_cpus(cpus, values, spec, rows * values.shape[0]),
                          oracle)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_window_scan_skips_most_pairs_of_a_line_like_cloud(metric):
    n = 400
    values = np.column_stack([np.arange(n, dtype=np.float64),
                              1e-3 * np.random.default_rng(1).normal(size=(n, 2)) + 5.0])
    pairs = []

    def counting_cdist(xa, xb, pair_metric, **kwargs):
        pairs.append(len(xa) * len(xb))
        return cdist(xa, xb, pair_metric, **kwargs)

    spec = KernelSpec(k=10, metric=metric)
    with mock.patch.object(graph_module, "cdist", counting_cdist):
        built = build_knn_graph(values, spec)
    assert sum(pairs) < n * n / 4
    assert_same_graph(built, dense_knn_graph(values, spec))


def test_a_cloud_without_a_dominant_axis_matches_dense_oracle():
    n = 400
    values = np.random.default_rng(4).normal(size=(n, 8))
    spec = KernelSpec(k=10)
    assert_same_graph(build_knn_graph(values, spec), dense_knn_graph(values, spec))


def tail14(n_scale, sep, seed):
    """The long-tailed 14-class cloud in 32-d, class sizes times ``n_scale``."""
    rng = np.random.default_rng(seed)
    sizes = [max(8, round(n_scale * 600 / (k + 1) ** 0.8)) for k in range(14)]
    means = rng.normal(0, sep, (14, 32))
    return np.concatenate([means[k] + rng.normal(size=(size, 32))
                           for k, size in enumerate(sizes)])


@pytest.mark.parametrize("sep", [0.8, 1.2])
@pytest.mark.parametrize("metric, kernel", [("euclidean", "gaussian"),
                                            ("cosine", "binary")])
def test_long_tailed_cloud_in_32_dimensions_matches_dense_oracle(sep, metric, kernel):
    # windows of nearly every column, widened by the rounding terms of d = 32
    values = tail14(0.2, sep, 0)
    assert values.shape == (493, 32)
    spec = KernelSpec(k=10, metric=metric, kernel=kernel)
    oracle = dense_knn_graph(values, spec)
    for cpus in (1, 2):
        assert_same_graph(build_on_cpus(cpus, values, spec), oracle)


def test_two_moons_matches_dense_oracle():
    feats, _ = synth_two_moons(2000, 0.1, 3)  # several blocks of rows
    spec = KernelSpec(k=10)
    assert_same_graph(build_knn_graph(feats, spec), dense_knn_graph(feats.values, spec))
    # shifted off the origin so no cosine weight underflows
    values = feats.values + np.array([3.0, 2.0])
    spec = KernelSpec(k=10, metric="cosine")
    assert_same_graph(build_knn_graph(values, spec), dense_knn_graph(values, spec))


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_build_memory_stays_below_one_dense_matrix(metric):
    n = 4000
    values = np.random.default_rng(8).normal(size=(n, 8))
    tracemalloc.start()
    try:
        build_knn_graph(values, KernelSpec(k=10, metric=metric))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


# ------------------------------------------------- worker-count invariance


def build_on_cpus(cpus, values, spec, entries=None):
    """Build with ``cpus`` usable CPUs and, if given, ``entries`` distances."""
    entries = entries or graph_module._BLOCK_ENTRIES
    with mock.patch.object(graph_module, "_usable_cpus", lambda: cpus), \
            mock.patch.object(graph_module, "_BLOCK_ENTRIES", entries):
        return build_knn_graph(values, spec)


def graph_bytes(graph):
    csr = graph.csr
    return csr.indptr.tobytes(), csr.indices.tobytes(), csr.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=knn_cases(), spec_index=st.integers(0, len(SPECS) - 1))
def test_build_does_not_depend_on_worker_count(case, spec_index):
    values, k, rows = case
    metric, kernel = SPECS[spec_index]
    spec = KernelSpec(k=k, metric=metric, kernel=kernel)
    results = []
    for cpus in (1, 2, 3):
        try:
            built = build_on_cpus(cpus, values, spec, rows * values.shape[0])
        except IsolatedNodeError as exc:
            results.append(("isolated", exc.node))
        else:
            results.append(graph_bytes(built))
    assert results[1] == results[0]
    assert results[2] == results[0]


def lifted_moons(n, seed):
    """Two moons in a rotated 8-d space, shifted off the origin for cosine."""
    moons, _ = synth_two_moons(n, 0.1, seed)
    extra = np.random.default_rng([seed, 1]).normal(0.0, 0.05, size=(n, 6))
    rotation, _ = np.linalg.qr(np.random.default_rng(2019).standard_normal((8, 8)))
    return np.concatenate([moons.values, extra], axis=1) @ rotation.T + 4.0 / np.sqrt(8)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_lifted_moons_build_does_not_depend_on_worker_count(metric):
    values = lifted_moons(5000, 0)
    spec = KernelSpec(k=10, metric=metric)
    serial = graph_bytes(build_on_cpus(1, values, spec))
    assert graph_bytes(build_on_cpus(2, values, spec)) == serial
    assert graph_bytes(build_on_cpus(3, values, spec)) == serial


def test_build_errors_do_not_depend_on_worker_count():
    # node 4 is 1e9 from every other node, so its weights underflow; in
    # blocks of two rows it sits in the third block
    far = np.array([[0.0], [1.0], [2.0], [3.0], [1e9], [2e9]])
    zero = np.random.default_rng(4).normal(size=(6, 2))
    zero[5] = 0.0
    raised = []
    for cpus in (1, 2):
        with pytest.raises(IsolatedNodeError) as isolated:
            build_on_cpus(cpus, far, KernelSpec(k=1, sigma=1.0), 2 * 6)
        with pytest.raises(DegenerateFeaturesError) as degenerate:
            build_on_cpus(cpus, zero, KernelSpec(k=1, metric="cosine"), 2 * 6)
        raised.append((isolated.value.node, str(isolated.value), str(degenerate.value)))
    assert raised[0][0] == 4
    assert raised[1] == raised[0]


def test_worker_exception_reaches_the_caller():
    calls = itertools.count()

    def failing_cdist(*args, **kwargs):
        if next(calls) == 1:
            raise RuntimeError("block failed")
        return cdist(*args, **kwargs)

    values = np.random.default_rng(6).normal(size=(12, 2))
    with mock.patch.object(graph_module, "cdist", failing_cdist):
        with pytest.raises(RuntimeError, match="block failed"):
            build_on_cpus(2, values, KernelSpec(k=2), 2 * 12)


@pytest.mark.xfail(
    strict=True,
    raises=IsolatedNodeError,
    reason="ROADMAP item 8: the automatic bandwidth is the mean k-th-neighbour "
    "distance, so one far point among many coincident ones gets weight "
    "exp(-(d/sigma)^2) = exp(-784) = 0",
)
def test_auto_sigma_keeps_a_far_point_among_coincident_ones():
    values = np.array([[1.0]] * 27 + [[-1.0]])
    graph = build_knn_graph(values, KernelSpec(k=1))
    assert graph.degrees.min() > 0


# --------------------------------------------------------- Graph invariants


def test_from_dense_validates():
    with pytest.raises(ValueError, match="symmetric"):
        from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(IsolatedNodeError, match=r"^node 0 is isolated \(zero degree\)$"):
        from_dense(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        from_dense(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_self_loops_are_rejected():
    w = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="self-loop"):
        from_dense(w)


def test_csr_is_symmetric_and_counts_edges_once(rng):
    for _ in range(20):
        graph = random_connected_graph(rng, int(rng.integers(3, 30)))
        dense = graph.csr.toarray()
        assert np.array_equal(dense, dense.T)
        assert not dense.diagonal().any()
        assert graph.num_edges == len(edge_weights(graph))
        assert graph.csr.has_sorted_indices
        assert np.allclose(graph.degrees, dense.sum(axis=1), rtol=1e-12, atol=0)


# ----------------------------------------------------------- binary format


def test_graph_file_roundtrip(tmp_path, rng):
    graph = random_connected_graph(rng, 25)
    path = tmp_path / "g.gxg"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert loaded.n == graph.n
    assert np.array_equal(loaded.csr.indptr, graph.csr.indptr)
    assert np.array_equal(loaded.csr.indices, graph.csr.indices)
    assert np.array_equal(loaded.csr.data, graph.csr.data)
    assert np.array_equal(loaded.degrees, graph.degrees)


def test_graph_file_is_byte_deterministic(tmp_path, rng):
    graph = random_connected_graph(rng, 25)
    save_graph(graph, tmp_path / "a.gxg")
    save_graph(graph, tmp_path / "b.gxg")
    assert (tmp_path / "a.gxg").read_bytes() == (tmp_path / "b.gxg").read_bytes()


def test_graph_file_magic_checked(tmp_path, rng):
    graph = random_connected_graph(rng, 8)
    path = tmp_path / "g.gxg"
    save_graph(graph, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.gxg"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="magic"):
        load_graph(bad)


def test_graph_file_truncation_detected(tmp_path, rng):
    graph = random_connected_graph(rng, 8)
    path = tmp_path / "g.gxg"
    save_graph(graph, path)
    (tmp_path / "trunc.gxg").write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ParseError):
        load_graph(tmp_path / "trunc.gxg")
    (tmp_path / "head.gxg").write_bytes(path.read_bytes()[:12])
    with pytest.raises(ParseError, match="header"):
        load_graph(tmp_path / "head.gxg")


def test_graph_file_size_must_match_header(tmp_path, rng):
    graph = random_connected_graph(rng, 8)
    path = tmp_path / "g.gxg"
    save_graph(graph, path)
    (tmp_path / "long.gxg").write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ParseError, match="implies"):
        load_graph(tmp_path / "long.gxg")
    # sizes that overflow any index type fail the same check, before a
    # section is read
    huge = tmp_path / "huge.gxg"
    huge.write_bytes(b"GXG1" + np.array([2**62, 0], dtype="<u8").tobytes())
    with pytest.raises(ParseError, match="n=4611686018427387904"):
        load_graph(huge)
