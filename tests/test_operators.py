"""Normalized gradient/divergence against dense oracles and hand values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtv import (
    NormalizedGradient,
    apply_divergence,
    apply_gradient,
    operator_norm,
    total_variation,
)
from graphtv.errors import NoConvergenceError, NonFiniteError, ShapeMismatchError
from graphtv.operators import diffusion_solve, normalized_adjacency
from oracles import (
    dense_gradient,
    dense_normalized_adjacency,
    from_dense,
    random_connected_graph,
)


def two_node_graph():
    return from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))


def path_graph():
    # path 0-1-2, unit weights, degrees (1, 2, 1)
    return from_dense(
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    )


# ------------------------------------------------------------- hand values


def test_two_node_hand_values():
    op = NormalizedGradient(two_node_graph())
    assert apply_gradient(op, np.array([1.0, -1.0])) == pytest.approx([2.0])
    assert apply_divergence(op, np.array([1.0])) == pytest.approx([1.0, -1.0])
    assert total_variation(op, np.array([1.0, -1.0])) == pytest.approx(2.0)


def test_path_graph_hand_values():
    op = NormalizedGradient(path_graph())
    u = np.array([1.0, 0.0, -1.0])
    # edges (0,1) and (1,2): 1*(1/1 - 0/2) = 1 and 1*(0/2 - (-1)/1) = 1
    assert apply_gradient(op, u) == pytest.approx([1.0, 1.0])
    assert total_variation(op, u) == pytest.approx(2.0)


def test_divergence_of_zero_is_zero():
    op = NormalizedGradient(path_graph())
    assert np.array_equal(apply_divergence(op, np.zeros(2)), np.zeros(3))


def test_degree_vector_in_nullspace(rng):
    for _ in range(10):
        graph = random_connected_graph(rng, int(rng.integers(3, 40)))
        op = NormalizedGradient(graph)
        assert np.max(np.abs(apply_gradient(op, graph.degrees))) <= 1e-12
        assert total_variation(op, graph.degrees) <= 1e-12


def test_dimension_checks():
    op = NormalizedGradient(path_graph())
    with pytest.raises(ShapeMismatchError):
        apply_gradient(op, np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        apply_divergence(op, np.zeros(3))
    with pytest.raises(NonFiniteError):
        apply_gradient(op, np.full(op.graph.n, np.nan))


# ------------------------------------------------------------ dense oracle


def test_matches_dense_oracle(rng):
    for _ in range(100):
        graph = random_connected_graph(rng, int(rng.integers(2, 21)))
        op = NormalizedGradient(graph)
        K = dense_gradient(graph)
        u = rng.normal(size=graph.n)
        z = rng.normal(size=graph.num_edges)
        assert np.max(np.abs(apply_gradient(op, u) - K @ u)) <= 1e-12
        assert np.max(np.abs(apply_divergence(op, z) - K.T @ z)) <= 1e-12
        assert abs(total_variation(op, u) - np.abs(K @ u).sum()) <= 1e-12


def test_adjoint_identity_hundred_pairs(rng):
    for _ in range(100):
        graph = random_connected_graph(rng, int(rng.integers(2, 51)))
        op = NormalizedGradient(graph)
        u = rng.normal(size=graph.n)
        z = rng.normal(size=graph.num_edges)
        lhs = float(apply_gradient(op, u) @ z)
        rhs = float(u @ apply_divergence(op, z))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 25),
    alpha=st.floats(-100.0, 100.0, allow_nan=False),
)
def test_tv_is_absolutely_homogeneous(seed, n, alpha):
    gen = np.random.default_rng(seed)
    graph = random_connected_graph(gen, n)
    op = NormalizedGradient(graph)
    u = gen.normal(size=n)
    base = total_variation(op, u)
    assert total_variation(op, alpha * u) == pytest.approx(
        abs(alpha) * base, rel=1e-12, abs=1e-12
    )


# ----------------------------------------------------------- operator norm


def test_operator_norm_two_node_sqrt2():
    op = NormalizedGradient(two_node_graph())
    assert operator_norm(op) == pytest.approx(np.sqrt(2.0), abs=1e-8)


def test_operator_norm_matches_dense_svd(rng):
    for _ in range(15):
        graph = random_connected_graph(rng, int(rng.integers(3, 30)))
        op = NormalizedGradient(graph)
        top = np.linalg.svd(dense_gradient(graph), compute_uv=False)[0]
        operator_norm(op, iters=3, tol=1.0)  # a loose estimate is not reused
        assert operator_norm(op, iters=20000, tol=1e-11) == pytest.approx(
            top, rel=1e-8
        )


def test_operator_norm_budget_error_carries_estimate(rng):
    graph = random_connected_graph(rng, 20)
    op = NormalizedGradient(graph)
    with pytest.raises(NoConvergenceError) as info:
        operator_norm(op, iters=1, tol=1e-16)
    reference = operator_norm(op, iters=20000, tol=1e-11)
    assert info.value.last_estimate == pytest.approx(reference, rel=0.5)


def test_normalized_adjacency_matches_dense_oracle(rng):
    graph = random_connected_graph(rng, 15)
    s = normalized_adjacency(graph)
    assert (s != s.T).nnz == 0  # exactly symmetric, as CG assumes
    assert np.max(np.abs(s.toarray() - dense_normalized_adjacency(graph))) <= 1e-15


def test_diffusion_solve_error_carries_iterate(rng):
    # alpha = 1 on the whole graph is singular (I - S kills D^1/2 1); a
    # right-hand side with a component along that direction has no solution
    graph = random_connected_graph(rng, 8)
    rhs = np.sqrt(graph.degrees)[:, None] * np.ones((1, 2))
    rhs[0] += 1.0
    with pytest.raises(NoConvergenceError, match="column 0") as info:
        diffusion_solve(normalized_adjacency(graph), rhs, 1.0)
    assert info.value.last_iterate.shape == (8, 2)


def test_operator_norm_deterministic(rng):
    graph = random_connected_graph(rng, 20)
    op = NormalizedGradient(graph)
    assert operator_norm(op) == operator_norm(NormalizedGradient(graph))
