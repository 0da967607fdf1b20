"""Normalized gradient/divergence against dense oracles and hand values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtv import NormalizedGradient
from graphtv.errors import NoConvergenceError
from graphtv.operators import diffusion_solve, normalized_adjacency, operator_norm
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
    u = np.array([1.0, -1.0])
    assert op.matrix @ u == pytest.approx([2.0])
    assert op.adjoint_matrix @ np.array([1.0]) == pytest.approx([1.0, -1.0])
    assert np.abs(op.matrix @ u).sum() == pytest.approx(2.0)


def test_path_graph_hand_values():
    op = NormalizedGradient(path_graph())
    u = np.array([1.0, 0.0, -1.0])
    # edges (0,1) and (1,2): 1*(1/1 - 0/2) = 1 and 1*(0/2 - (-1)/1) = 1
    assert op.matrix @ u == pytest.approx([1.0, 1.0])
    assert np.abs(op.matrix @ u).sum() == pytest.approx(2.0)


def test_divergence_of_zero_is_zero():
    op = NormalizedGradient(path_graph())
    assert np.array_equal(op.adjoint_matrix @ np.zeros(2), np.zeros(3))


def test_degree_vector_in_nullspace(rng):
    for _ in range(10):
        graph = random_connected_graph(rng, int(rng.integers(3, 40)))
        op = NormalizedGradient(graph)
        assert np.abs(op.matrix @ graph.degrees).sum() <= 1e-12


# ------------------------------------------------------------ dense oracle


def test_matches_dense_oracle(rng):
    for _ in range(100):
        graph = random_connected_graph(rng, int(rng.integers(2, 21)))
        op = NormalizedGradient(graph)
        K = dense_gradient(graph)
        u = rng.normal(size=graph.n)
        z = rng.normal(size=graph.num_edges)
        assert np.max(np.abs(op.matrix @ u - K @ u)) <= 1e-12
        assert np.max(np.abs(op.adjoint_matrix @ z - K.T @ z)) <= 1e-12
        assert abs(np.abs(op.matrix @ u).sum() - np.abs(K @ u).sum()) <= 1e-12


def test_adjoint_identity_hundred_pairs(rng):
    for _ in range(100):
        graph = random_connected_graph(rng, int(rng.integers(2, 51)))
        op = NormalizedGradient(graph)
        u = rng.normal(size=graph.n)
        z = rng.normal(size=graph.num_edges)
        lhs = float((op.matrix @ u) @ z)
        rhs = float(u @ (op.adjoint_matrix @ z))
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
    base = np.abs(op.matrix @ u).sum()
    assert np.abs(op.matrix @ (alpha * u)).sum() == pytest.approx(
        abs(alpha) * base, rel=1e-12, abs=1e-12
    )


# ----------------------------------------------------------- operator norm


def test_operator_norm_two_node_sqrt2():
    op = NormalizedGradient(two_node_graph())
    assert operator_norm(op) == pytest.approx(np.sqrt(2.0), abs=1e-8)


def test_operator_norm_matches_dense_svd():
    # on an unweighted d-regular bipartite graph the bound is attained:
    # ||K||^2 = lambda_max(D^-1 L D^-1) = 2d / d^2, which is also the Schur sum
    even_cycle = np.roll(np.eye(8), 1, axis=1)
    even_cycle += even_cycle.T
    complete_bipartite = np.kron([[0.0, 1.0], [1.0, 0.0]], np.ones((3, 3)))
    for w in (even_cycle, complete_bipartite):
        graph = from_dense(w)
        top = np.linalg.svd(dense_gradient(graph), compute_uv=False)[0]
        assert operator_norm(NormalizedGradient(graph)) == pytest.approx(
            top, rel=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
def test_operator_norm_bounds_dense_svd(seed, n):
    # the step bound must never undercut ||K||, and never exceed sqrt(2)
    graph = random_connected_graph(np.random.default_rng(seed), n)
    top = np.linalg.svd(dense_gradient(graph), compute_uv=False)[0]
    bound = operator_norm(NormalizedGradient(graph))
    assert top <= bound * (1.0 + 1e-12)
    assert bound <= np.sqrt(2.0) * (1.0 + 1e-12)


def test_normalized_adjacency_matches_dense_oracle(rng):
    graph = random_connected_graph(rng, 15)
    s = normalized_adjacency(graph)
    assert (s != s.T).nnz == 0  # exactly symmetric, as CG assumes
    assert np.max(np.abs(s.toarray() - dense_normalized_adjacency(graph))) <= 1e-15


def test_diffusion_solve_names_the_column_it_misses(rng):
    # alpha = 1 on the whole graph is singular (I - S kills D^1/2 1); a
    # right-hand side with a component along that direction has no solution
    graph = random_connected_graph(rng, 8)
    rhs = np.sqrt(graph.degrees)[:, None] * np.ones((1, 2))
    rhs[0] += 1.0
    with pytest.raises(NoConvergenceError, match="column 0"):
        diffusion_solve(normalized_adjacency(graph), rhs, 1.0)
