"""Degree-normalized first-difference operator of a graph and its friends.

For each canonical edge e = (i, j) with i < j the gradient is

    (K u)_e = w_ij * (u_i / d_i - u_j / d_j),

so the total variation sum(|K u|) penalizes differences of the
degree-rescaled node function.  The degree vector itself lies in the
nullspace of K.  The adjoint scatters an edge function back to the nodes,

    (K^T z)_i = sum_{e=(i,j)} +- w_ij * z_e / d_i,

with a plus sign where i is the first endpoint.  Both maps are realized
once as CSR matrices, exact transposes of each other, and callers take
K u and K^T z as plain products with them.
The p=2 side, S = D^-1/2 W D^-1/2 and one CG solve with it, lives here too.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .errors import NoConvergenceError


class NormalizedGradient:
    """The edge-difference operator of a graph as its two CSR matrices.

    Attributes
    ----------
    matrix : csr_matrix, shape (num_edges, n)
        The forward (node -> edge) map.
    adjoint_matrix : csr_matrix, shape (n, num_edges)
        Its exact transpose (edge -> node).
    """

    def __init__(self, graph):
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


def operator_norm(operator):
    """An upper bound on the largest singular value of K, never below it.

    ||K||^2 = lambda_max(K^T K) <= max_i (|K|^T |K| 1)_i, the Schur test:
    two sparse products, exact up to rounding.  For this degree-normalized
    gradient the bound is at most sqrt(2), which a single edge attains.
    :func:`~graphtv.solver.solve` no longer calls it: its inner loop steps
    each edge by its own row of K.
    """
    magnitude = abs(operator.matrix)
    row_sums = magnitude @ np.ones(operator.matrix.shape[1])
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
