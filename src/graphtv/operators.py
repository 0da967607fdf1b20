"""Degree-normalized first-difference operator of a graph and its friends.

For each canonical edge e = (i, j) with i < j the gradient is

    (K u)_e = w_ij * (u_i / d_i - u_j / d_j),

so the total variation sum(|K u|) penalizes differences of the
degree-rescaled node function.  The degree vector itself lies in the
nullspace of K.  The adjoint scatters an edge function back to the nodes,

    (K^T z)_i = sum_{e=(i,j)} +- w_ij * z_e / d_i,

with a plus sign where i is the first endpoint.  Both maps are realized
once as sparse matrices so they are exactly transposes of each other.
The p=2 side, S = D^-1/2 W D^-1/2 and one CG solve with it, lives here too.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .errors import NoConvergenceError, NonFiniteError, ShapeMismatchError


class NormalizedGradient:
    """Sparse realization of the edge-difference operator of a graph.

    Attributes
    ----------
    graph : Graph
    matrix : csr_matrix, shape (num_edges, n)
        The forward (node -> edge) map.
    adjoint_matrix : csr_matrix, shape (n, num_edges)
        Its exact transpose (edge -> node).
    """

    def __init__(self, graph):
        self.graph = graph
        # canonical edges i < j, in row-major order of the upper triangle
        upper = sparse.triu(graph.csr, k=1).tocoo()
        m = upper.nnz
        rows = np.concatenate([np.arange(m), np.arange(m)])
        cols = np.concatenate([upper.row, upper.col])
        inv_deg = 1.0 / graph.degrees
        vals = np.concatenate(
            [upper.data * inv_deg[upper.row], -upper.data * inv_deg[upper.col]]
        )
        self.matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(m, graph.n))
        self.adjoint_matrix = self.matrix.T.tocsr()


def _check_input(x, length):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != length:
        raise ShapeMismatchError(
            f"expected length {length} along axis 0, got {x.shape[0]}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteError("input contains NaN or Inf")
    return x


def apply_gradient(operator, u):
    """Edge differences K u of a node function (vector or (n, L) matrix)."""
    return operator.matrix @ _check_input(u, operator.graph.n)


def apply_divergence(operator, z):
    """Adjoint map K^T z of an edge function, satisfying <Ku, z> = <u, K^T z>."""
    return operator.adjoint_matrix @ _check_input(z, operator.graph.num_edges)


def total_variation(operator, u):
    """sum(|K u|); zero exactly on multiples of the degree vector."""
    grad = apply_gradient(operator, u)
    return np.abs(grad).sum(axis=0)


def operator_norm(operator):
    """An upper bound on the largest singular value of K, never below it.

    ||K||^2 = lambda_max(K^T K) <= max_i (|K|^T |K| 1)_i, the Schur test:
    two sparse products, exact up to rounding.  For this degree-normalized
    gradient the bound is at most sqrt(2), which a single edge attains.
    """
    magnitude = abs(operator.matrix)
    row_sums = magnitude @ np.ones(operator.graph.n)
    return float(np.sqrt((magnitude.T @ row_sums).max()))


def normalized_adjacency(graph):
    """S = D^-1/2 W D^-1/2 as an exactly symmetric csr matrix."""
    w = graph.csr.tocoo()
    inv_sqrt = 1.0 / np.sqrt(graph.degrees)
    vals = w.data * (inv_sqrt[w.row] * inv_sqrt[w.col])
    return sparse.csr_matrix((vals, (w.row, w.col)), shape=w.shape)


def diffusion_solve(block, rhs, alpha):
    """Solve ``(I - alpha * block) X = rhs`` column by column with CG.

    ``block`` is a principal block of :func:`normalized_adjacency`; the
    system is positive definite for ``alpha < 1``, and for ``alpha = 1``
    when every connected piece of the block has an edge leaving it.  Raises
    :class:`~graphtv.errors.NoConvergenceError` (carrying the last iterate)
    if a column misses relative residual 1e-12.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    system = sparse.identity(block.shape[0], format="csr") - alpha * block
    out = np.zeros_like(rhs)
    for k in range(rhs.shape[1]):
        out[:, k], info = cg(system, rhs[:, k], rtol=1e-12, atol=0.0)
        if info != 0:
            raise NoConvergenceError(
                f"conjugate gradients did not reach 1e-12 on column {k} "
                f"in {info} iterations",
                last_iterate=out,
            )
    return out
