"""Independent oracles and small graph builders shared across test modules.

These deliberately avoid the library's own code paths: the dense gradient
matrix is assembled entry-by-entry from the edge list, the AUC oracle
counts pairs literally, and the k-NN oracle stable-sorts a full distance
matrix.  Tests compare the fast implementations against these
slow-but-obvious routes.
"""

import math

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from graphtv import Graph


def dense_gradient(graph):
    """|E| x n dense matrix with row e = w_ij*(e_i/d_i - e_j/d_j), i<j."""
    mat = np.zeros((graph.num_edges, graph.n))
    for e, (i, j, w) in enumerate(
        zip(graph.edges_i, graph.edges_j, graph.edge_weights)
    ):
        mat[e, i] = w / graph.degrees[i]
        mat[e, j] = -w / graph.degrees[j]
    return mat


def pairwise_auc(scores, positives):
    """O(n^2) Mann-Whitney count: 1 per correct pair, 1/2 per tie."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def random_connected_graph(rng, n, extra=2.0):
    """Random spanning tree plus extra edges; never isolated, always one piece."""
    rows, cols = [], []
    for v in range(1, n):
        rows.append(int(rng.integers(0, v)))
        cols.append(v)
    n_extra = int(extra * n)
    rows += list(rng.integers(0, n, n_extra))
    cols += list(rng.integers(0, n, n_extra))
    w = np.zeros((n, n))
    for i, j in zip(rows, cols):
        if i != j:
            weight = float(rng.uniform(0.1, 2.0))
            w[i, j] = w[j, i] = weight
    return Graph.from_dense(w)


def triangles_bridge(w_bridge=0.1):
    """Two unit-weight triangles {0,1,2} and {3,4,5} joined by one weak edge."""
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        w[a, b] = w[b, a] = 1.0
    w[2, 3] = w[3, 2] = w_bridge
    return Graph.from_dense(w)


def cliques_graph(blocks, bridges=()):
    """Disjoint cliques (one per block of node ids) plus optional weak bridges."""
    n = max(max(b) for b in blocks) + 1
    w = np.zeros((n, n))
    for block in blocks:
        for a in block:
            for b in block:
                if a != b:
                    w[a, b] = 1.0
    for i, j, weight in bridges:
        w[i, j] = w[j, i] = weight
    return Graph.from_dense(w)


def dense_distances(values, metric):
    """Full n x n distance matrix with ``inf`` on the diagonal."""
    if metric == "euclidean":
        dist = cdist(values, values, metric="euclidean")
    else:
        norms = np.linalg.norm(values, axis=1)
        sim = (values @ values.T) / np.outer(norms, norms)
        dist = np.clip(1.0 - sim, 0.0, 2.0)
    np.fill_diagonal(dist, np.inf)
    return dist


def dense_knn_graph(values, spec):
    """k-NN graph from the full n x n distance matrix and a stable row sort.

    Same distance arithmetic, tie rule (equal distances go to the lower node
    index), kernel and symmetrization as ``build_knn_graph``.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    dist = dense_distances(values, spec.metric)
    neighbor = np.argsort(dist, axis=1, kind="stable")[:, : spec.k]
    ndist = np.take_along_axis(dist, neighbor, axis=1)
    if spec.kernel == "gaussian":
        sigma = spec.sigma
        if sigma is None:
            sigma = float(np.mean(ndist[:, math.ceil(spec.k / 2) - 1])) or 1.0
        weights = np.exp(-((ndist / sigma) ** 2))
    else:
        weights = np.ones_like(ndist)
    rows = np.repeat(np.arange(n), spec.k)
    directed = sparse.coo_matrix(
        (weights.ravel(), (rows, neighbor.ravel())), shape=(n, n)
    ).tocsr()
    if spec.symmetrization == "mean":
        return Graph.from_csr((directed + directed.T) * 0.5)
    return Graph.from_csr(directed.maximum(directed.T))
