"""Weighted undirected graphs, k-NN construction, and binary serialization.

A :class:`Graph` is symmetric, has non-negative weights, no self-loops and
strictly positive degrees.  Those invariants are enforced at every
construction site (k-NN builder, synthetic generators, file loader) because
the degree-normalized operators downstream divide by ``d_i``.

The k-NN build is an exact search in O(n^2 d) time.  It walks the rows in
blocks of ``max(2, 2**20 // n)`` rows, so beyond its O(n k) result it holds
one fixed-size block of distances (O(n) memory in n), never an n x n matrix.
Distance ties go to the lower node index.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from .errors import (
    DegenerateFeaturesError,
    DimensionMismatchError,
    IsolatedNodeError,
    ParseError,
)

_GXG_MAGIC = b"GXG1"
# distances held at once by the k-NN search: 8 MiB of float64
_BLOCK_ENTRIES = 2**20

_METRICS = ("euclidean", "cosine")
_KERNELS = ("gaussian", "binary")
_SYMMETRIZATIONS = ("mean", "max")


@dataclass
class FeatureMatrix:
    """Dense real feature rows, one row per node.

    Parameters
    ----------
    values : ndarray, shape (n, d)
        Finite float features.  ``n >= 2`` and ``d >= 1``.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionMismatchError("features must be a 2-d array")
        n, d = self.values.shape
        if n < 2 or d < 1:
            raise DimensionMismatchError(
                f"need at least 2 rows and 1 column, got shape {(n, d)}"
            )
        if not np.isfinite(self.values).all():
            raise DegenerateFeaturesError("features contain NaN or Inf")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """How to turn pairwise distances into k-NN edge weights.

    ``sigma=None`` selects the data-driven bandwidth: the mean distance to
    the ceil(k/2)-th nearest neighbor over all nodes.
    """

    k: int
    metric: str = "euclidean"
    kernel: str = "gaussian"
    sigma: float | None = None
    symmetrization: str = "mean"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}")
        if self.kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}")
        if self.symmetrization not in _SYMMETRIZATIONS:
            raise ValueError(f"symmetrization must be one of {_SYMMETRIZATIONS}")
        if self.sigma is not None:
            if self.kernel != "gaussian":
                raise ValueError("sigma only applies to the gaussian kernel")
            if not (self.sigma > 0 and math.isfinite(self.sigma)):
                raise ValueError("sigma must be a positive finite real")


@dataclass
class Graph:
    """Symmetric weighted graph with positive degrees.

    Attributes
    ----------
    n : int
        Number of nodes.
    csr : scipy.sparse.csr_matrix
        Symmetric non-negative weight matrix with zero diagonal.
    degrees : ndarray, shape (n,)
        Row sums of ``csr``; strictly positive.
    edges_i, edges_j : ndarray of int64
        Canonical undirected edge endpoints with ``edges_i < edges_j``,
        sorted lexicographically.
    edge_weights : ndarray of float64
        Weight per canonical edge, matching ``csr``.
    """

    n: int
    csr: sparse.csr_matrix
    degrees: np.ndarray
    edges_i: np.ndarray = field(repr=False)
    edges_j: np.ndarray = field(repr=False)
    edge_weights: np.ndarray = field(repr=False)

    @property
    def num_edges(self):
        return self.edges_i.shape[0]

    @classmethod
    def from_csr(cls, matrix):
        """Validate a symmetric weight matrix and derive the edge list."""
        w = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
        if w.shape[0] != w.shape[1]:
            raise DimensionMismatchError(f"weight matrix must be square, got {w.shape}")
        n = w.shape[0]
        if n < 2:
            raise DimensionMismatchError("a graph needs at least 2 nodes")
        w.sum_duplicates()
        w.eliminate_zeros()
        if w.nnz and not np.isfinite(w.data).all():
            raise ValueError("edge weights contain NaN or Inf")
        if w.nnz and w.data.min() < 0:
            raise ValueError("edge weights must be non-negative")
        if w.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if (w != w.T).nnz != 0:
            raise ValueError("weight matrix must be exactly symmetric")
        degrees = np.asarray(w.sum(axis=1)).ravel()
        zero = np.flatnonzero(degrees <= 0.0)
        if zero.size:
            raise IsolatedNodeError(zero[0])
        upper = sparse.triu(w, k=1).tocoo()
        order = np.lexsort((upper.col, upper.row))
        return cls(
            n=n,
            csr=w,
            degrees=degrees,
            edges_i=upper.row[order].astype(np.int64),
            edges_j=upper.col[order].astype(np.int64),
            edge_weights=upper.data[order].astype(np.float64),
        )

    @classmethod
    def from_dense(cls, matrix):
        return cls.from_csr(sparse.csr_matrix(np.asarray(matrix, dtype=np.float64)))

    @classmethod
    def from_edges(cls, n, edges_i, edges_j, weights):
        """Build from one direction of each undirected edge."""
        i = np.asarray(edges_i, dtype=np.int64)
        j = np.asarray(edges_j, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if not (i.shape == j.shape == w.shape):
            raise DimensionMismatchError("edge arrays must have equal length")
        mat = sparse.coo_matrix(
            (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(n, n),
        )
        return cls.from_csr(mat.tocsr())


def _row_blocks(n):
    """Row ranges of about ``_BLOCK_ENTRIES`` distances each, none a single row.

    A one-row product would go through BLAS gemv, whose rounding differs from
    the gemm path the other blocks take, so a single-row tail is folded into
    the block before it.
    """
    size = max(2, _BLOCK_ENTRIES // n)
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def _nearest_neighbors(values, k, metric):
    """Indices and distances of each row's ``k`` nearest other rows, ascending.

    Distance ties are broken by node index.  Rows are processed in blocks, so
    at most one block of distances is held at a time.
    """
    n = values.shape[0]
    if metric == "cosine":
        # cosine distance 1 - <x,y>/(|x||y|); zero-norm rows are undefined
        norms = np.linalg.norm(values, axis=1)
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DegenerateFeaturesError(
                f"row {bad[0]} has zero norm; cosine distance is undefined"
            )
    neighbor = np.empty((n, k), dtype=np.intp)
    ndist = np.empty((n, k))
    for lo, hi in _row_blocks(n):
        if metric == "euclidean":
            dist = cdist(values[lo:hi], values, metric="euclidean")
        else:
            dist = values[lo:hi] @ values.T
            dist /= np.outer(norms[lo:hi], norms)
            np.subtract(1.0, dist, out=dist)
            np.clip(dist, 0.0, 2.0, out=dist)
        rows = np.arange(hi - lo)
        dist[rows, rows + lo] = np.inf
        # every entry up to the k-th smallest, in (row, distance, index) order
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        r, c = np.nonzero(dist <= kth[:, None])
        d = dist[r, c]
        order = np.lexsort((c, d, r))
        # keep the first k of each row's run; ties past the k-th are dropped
        starts = np.searchsorted(r[order], rows)
        keep = (starts[:, None] + np.arange(k)).ravel()
        neighbor[lo:hi] = c[order[keep]].reshape(-1, k)
        ndist[lo:hi] = d[order[keep]].reshape(-1, k)
    return neighbor, ndist


def build_knn_graph(features, spec):
    """Exact k-nearest-neighbor graph of a feature matrix.

    Each node is connected to its ``spec.k`` nearest neighbors (self
    excluded, distance ties broken by node index, also across the k-th
    neighbor), directed weights are computed by the kernel, and the directed
    graph is symmetrized by ``mean`` (missing reverse edge counts as zero) or
    elementwise ``max``.

    The search is exact and takes O(n^2 d) time.  Rows are handled in blocks
    of about ``_BLOCK_ENTRIES`` distances, each reduced to its k nearest by
    partition rather than a full sort, so the build holds one fixed-size
    block of distances (O(n) memory in n) rather than an n x n matrix.  Each
    distance is computed exactly as a dense matrix would compute it, except
    that a cosine block's Gram products go through BLAS on a row slice and
    may round differently from the full product in the last bit.

    Parameters
    ----------
    features : FeatureMatrix or ndarray
    spec : KernelSpec

    Returns
    -------
    Graph

    Raises
    ------
    IsolatedNodeError
        If a node has zero degree after symmetrization (possible when
        gaussian weights underflow to zero).  The message names the metric,
        the bandwidth and the node's nearest-neighbor distance.
    DegenerateFeaturesError
        For cosine metric with a zero-norm feature row.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(np.asarray(features, dtype=np.float64))
    n = features.n
    if spec.k >= n:
        raise ValueError(f"k must be < n (k={spec.k}, n={n})")

    neighbor, ndist = _nearest_neighbors(features.values, spec.k, spec.metric)

    if spec.kernel == "gaussian":
        sigma = spec.sigma
        if sigma is None:
            rank = math.ceil(spec.k / 2)
            sigma = float(np.mean(ndist[:, rank - 1]))
            if sigma <= 0.0:
                sigma = 1.0  # all selected distances are zero; any bandwidth works
        weights = np.exp(-((ndist / sigma) ** 2))
    else:
        weights = np.ones_like(ndist)

    rows = np.repeat(np.arange(n), spec.k)
    directed = sparse.coo_matrix(
        (weights.ravel(), (rows, neighbor.ravel())), shape=(n, n)
    ).tocsr()
    if spec.symmetrization == "mean":
        sym = (directed + directed.T) * 0.5
    else:
        sym = directed.maximum(directed.T)
    try:
        return Graph.from_csr(sym)
    except IsolatedNodeError as exc:
        # only gaussian weights can vanish: binary ones are all 1
        raise IsolatedNodeError(
            exc.node,
            f"its gaussian weights underflow to zero (metric {spec.metric}, "
            f"bandwidth sigma={sigma:.6g}, nearest-neighbor distance "
            f"{ndist[exc.node, 0]:.6g}); pass a larger --sigma or use "
            f"--kernel binary",
        ) from exc


def _read_exact(handle, count, what):
    buf = handle.read(count)
    if len(buf) != count:
        raise ParseError(f"truncated graph file while reading {what}")
    return buf


def save_graph(graph, path):
    """Write a graph in the GXG1 binary layout (all fields little-endian).

    magic "GXG1" | u64 n | u64 nnz | u64 row-pointers (n+1) |
    u64 column indices (nnz) | f64 weights (nnz) | f64 degrees (n)
    """
    csr = graph.csr
    with open(path, "wb") as fh:
        fh.write(_GXG_MAGIC)
        fh.write(np.asarray([graph.n, csr.nnz], dtype="<u8").tobytes())
        fh.write(csr.indptr.astype("<u8").tobytes())
        fh.write(csr.indices.astype("<u8").tobytes())
        fh.write(csr.data.astype("<f8").tobytes())
        fh.write(graph.degrees.astype("<f8").tobytes())


def load_graph(path):
    """Read a GXG1 file and validate every graph invariant."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _GXG_MAGIC:
            raise ParseError(f"bad magic {magic!r}, expected {_GXG_MAGIC!r}")
        n, nnz = np.frombuffer(_read_exact(fh, 16, "header"), dtype="<u8")
        n, nnz = int(n), int(nnz)
        indptr = np.frombuffer(
            _read_exact(fh, 8 * (n + 1), "row pointers"), dtype="<u8"
        ).astype(np.int64)
        indices = np.frombuffer(
            _read_exact(fh, 8 * nnz, "column indices"), dtype="<u8"
        ).astype(np.int64)
        data = np.frombuffer(_read_exact(fh, 8 * nnz, "weights"), dtype="<f8")
        degrees = np.frombuffer(_read_exact(fh, 8 * n, "degrees"), dtype="<f8")
        if fh.read(1):
            raise ParseError("trailing bytes after graph payload")
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ParseError("row pointers are not a valid monotone index")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise ParseError("column index out of range")
    csr = sparse.csr_matrix((data.copy(), indices, indptr), shape=(n, n))
    graph = Graph.from_csr(csr)
    if not np.allclose(graph.degrees, degrees, rtol=1e-12, atol=0.0):
        raise ParseError("stored degrees do not match the weight matrix")
    return graph
