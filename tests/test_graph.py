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
from graphtv import (
    FeatureMatrix,
    Graph,
    KernelSpec,
    build_knn_graph,
    load_graph,
    save_graph,
    synth_two_moons,
)
from graphtv.errors import (
    DegenerateFeaturesError,
    IsolatedNodeError,
    ParseError,
)
from oracles import dense_distances, dense_knn_graph, random_connected_graph


# ---------------------------------------------------------------- KernelSpec


def test_kernel_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        KernelSpec(k=0)
    with pytest.raises(ValueError, match="metric"):
        KernelSpec(k=3, metric="manhattan")
    with pytest.raises(ValueError, match="kernel"):
        KernelSpec(k=3, kernel="laplace")
    with pytest.raises(ValueError, match="symmetrization"):
        KernelSpec(k=3, symmetrization="sum")
    with pytest.raises(ValueError):
        KernelSpec(k=3, sigma=-1.0)


# ------------------------------------------------------------------- builds


def test_collinear_points_binary_max():
    # 1-D points {0, 1, 10}, k=1: 0<->1 mutually nearest, node 2's nearest
    # neighbour is 1, so max-symmetrization keeps both edges at weight 1.
    feats = FeatureMatrix(np.array([[0.0], [1.0], [10.0]]))
    graph = build_knn_graph(
        feats, KernelSpec(k=1, kernel="binary", symmetrization="max")
    )
    edges = set(zip(graph.edges_i.tolist(), graph.edges_j.tolist()))
    assert edges == {(0, 1), (1, 2)}
    assert np.all(graph.edge_weights == 1.0)


def test_identical_points_gaussian_weight_one():
    feats = FeatureMatrix(np.array([[2.0, 3.0], [2.0, 3.0]]))
    graph = build_knn_graph(feats, KernelSpec(k=1, sigma=1.0))
    assert graph.num_edges == 1
    assert graph.edge_weights[0] == pytest.approx(1.0, abs=0.0)


def test_mean_symmetrization_halves_one_sided_edges():
    # {0, 1, 3}: with k=1, 1's nearest is 0 and 0's nearest is 1 (mutual),
    # 2's nearest is 1 (one-sided) -> binary weights 1 and 0.5.
    feats = FeatureMatrix(np.array([[0.0], [1.0], [3.0]]))
    graph = build_knn_graph(
        feats, KernelSpec(k=1, kernel="binary", symmetrization="mean")
    )
    weights = {
        (int(i), int(j)): w
        for i, j, w in zip(graph.edges_i, graph.edges_j, graph.edge_weights)
    }
    assert weights == {(0, 1): 1.0, (1, 2): 0.5}


def test_two_moons_graph_structural_audit():
    feats, _ = synth_two_moons(500, 0.1, 3)
    graph = build_knn_graph(feats, KernelSpec(k=10))
    assert graph.n == 500
    assert np.all(graph.degrees > 0)
    # symmetrized union keeps at least the k out-neighbours of every node
    incident = np.zeros(500, dtype=int)
    np.add.at(incident, graph.edges_i, 1)
    np.add.at(incident, graph.edges_j, 1)
    assert incident.min() >= 10
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
    assert np.array_equal(built_auto.edge_weights, built_manual.edge_weights)


def test_cosine_metric_runs_and_rejects_zero_rows():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(30, 4))
    graph = build_knn_graph(FeatureMatrix(values), KernelSpec(k=4, metric="cosine"))
    assert graph.n == 30
    values[3] = 0.0
    with pytest.raises(DegenerateFeaturesError):
        build_knn_graph(FeatureMatrix(values), KernelSpec(k=4, metric="cosine"))


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
    assert np.array_equal(built.edge_weights, oracle.edge_weights)


SPECS = list(
    itertools.product(("euclidean", "cosine"), ("gaussian", "binary"), ("mean", "max"))
)


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


def _exact_gram(values):
    """Integer features: every Gram entry is exact whatever BLAS kernel runs."""
    return np.array_equal(values, np.round(values))


# seven rows in blocks of three would leave a one-row tail; the ties at
# distance 1 straddle the k-th neighbor of several rows
TIED_LINE = np.array([[0.0], [1.0], [1.0], [2.0], [3.0], [3.0], [4.0]])


@settings(max_examples=150, deadline=None)
@given(case=knn_cases(), spec_index=st.integers(0, len(SPECS) - 1))
@example(case=(TIED_LINE, 2, 3), spec_index=0)
@example(case=(TIED_LINE + 1.0, 3, 3), spec_index=SPECS.index(("cosine", "binary", "max")))
def test_blocked_build_matches_dense_oracle(case, spec_index):
    values, k, rows = case
    metric, kernel, sym = SPECS[spec_index]
    spec = KernelSpec(k=k, metric=metric, kernel=kernel, symmetrization=sym)
    n = values.shape[0]
    # one block runs the same Gram product as the oracle; several blocks run
    # BLAS gemm on row slices, whose rounding may differ from the full product
    # in the last bit unless the entries are exact
    if metric == "cosine" and not _exact_gram(values):
        rows = n
    with mock.patch.object(graph_module, "_BLOCK_ENTRIES", rows * n):
        built = build_knn_graph(values, spec)
    assert_same_graph(built, dense_knn_graph(values, spec))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), rows=st.integers(2, 8))
def test_blocked_cosine_distances_match_oracle_to_rounding(seed, n, rows):
    values = np.random.default_rng(seed).normal(size=(n, 4))
    k = min(5, n - 1)
    with mock.patch.object(graph_module, "_BLOCK_ENTRIES", rows * n):
        _, ndist = graph_module._nearest_neighbors(values, k, "cosine")
    expected = np.sort(dense_distances(values, "cosine"), axis=1)[:, :k]
    assert np.allclose(ndist, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n, rows, blocks", [
    (7, 3, [(0, 3), (3, 7)]),   # a single-row tail folds into the block before
    (6, 3, [(0, 3), (3, 6)]),
    (5, 1, [(0, 2), (2, 5)]),   # never fewer than two rows per block
    (4, 100, [(0, 4)]),
])
def test_row_blocks_never_leave_a_single_row(n, rows, blocks):
    with mock.patch.object(graph_module, "_BLOCK_ENTRIES", rows * n):
        assert list(graph_module._row_blocks(n)) == blocks


def test_two_moons_matches_dense_oracle():
    feats, _ = synth_two_moons(2000, 0.1, 3)  # several blocks of rows
    spec = KernelSpec(k=10)
    assert_same_graph(build_knn_graph(feats, spec), dense_knn_graph(feats.values, spec))
    # shifted off the origin so no cosine weight underflows; the Gram rounding
    # of row slices may differ from the full product's in the last bit
    values = feats.values + np.array([3.0, 2.0])
    spec = KernelSpec(k=10, metric="cosine")
    built, oracle = build_knn_graph(values, spec), dense_knn_graph(values, spec)
    assert np.array_equal(built.csr.indptr, oracle.csr.indptr)
    assert np.array_equal(built.csr.indices, oracle.csr.indices)
    assert np.allclose(built.csr.data, oracle.csr.data, rtol=1e-12, atol=0.0)


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


# --------------------------------------------------------- Graph invariants


def test_from_dense_validates():
    with pytest.raises(ValueError, match="symmetric"):
        Graph.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(IsolatedNodeError, match=r"^node 0 is isolated \(zero degree\)$"):
        Graph.from_dense(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Graph.from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        Graph.from_dense(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_self_loops_are_rejected():
    w = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_dense(w)


def test_edge_list_matches_csr(rng):
    for _ in range(20):
        graph = random_connected_graph(rng, int(rng.integers(3, 30)))
        dense = graph.csr.toarray()
        assert np.array_equal(dense, dense.T)
        rebuilt = np.zeros_like(dense)
        for i, j, w in zip(graph.edges_i, graph.edges_j, graph.edge_weights):
            assert i < j
            rebuilt[i, j] = rebuilt[j, i] = w
        assert np.array_equal(rebuilt, dense)
        assert np.allclose(graph.degrees, dense.sum(axis=1), rtol=1e-12, atol=0)


def test_from_edges_roundtrip():
    graph = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 0.5])
    assert graph.num_edges == 3
    assert graph.degrees == pytest.approx([1.0, 3.0, 2.5, 0.5])


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
