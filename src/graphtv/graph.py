"""Weighted undirected graphs, k-NN construction, and binary serialization.

A :class:`Graph` is symmetric, has non-negative weights, no self-loops and
strictly positive degrees.  Those invariants are enforced at every
construction site (k-NN builder, synthetic generators, file loader) because
the degree-normalized operators downstream divide by ``d_i``.

The k-NN build is an exact search in O(n^2 d) time.  It walks the rows in
blocks on the ``min(usable CPUs, blocks)`` threads of one pool, one thread
at one CPU.  The ``2**18`` distances (2 MiB of float64) it may hold at once
are split between the threads, so beyond its O(n k) result it holds one
fixed-size budget of distances (O(n) memory in n), never an n x n matrix;
at two threads each one's distances and partition scratch fit a 2 MiB L2
cache.  Both metrics rank squared euclidean distances.  A block picks its
candidates in three steps: an in-place partition of a scratch copy finds
each row's k-th smallest squared distance, the flat indices of the one mask
``dist <= kth`` give every entry up to it, and a lexsort by (row, distance,
index) orders them, so distance ties go to the lower node index.  Every distance is computed
per pair by ``cdist``, with no BLAS call, so the result does not depend on
the blocks or the thread count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from .errors import (
    DegenerateFeaturesError,
    IsolatedNodeError,
    ParseError,
    ShapeMismatchError,
)

_GXG_MAGIC = b"GXG1"
# distances held at once by the k-NN search, over all its threads: 2 MiB of
# float64
_BLOCK_ENTRIES = 2**18
# a euclidean block keeps every squared distance up to kth * _SQRT_TIE_SLACK:
# correctly rounded sqrt can merge squared distances a few ulps apart, and
# each one whose root ties the k-th root must reach the lexsort
_SQRT_TIE_SLACK = 1.0 + 4.0 * np.finfo(np.float64).eps

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
            raise ShapeMismatchError("features must be a 2-d array")
        n, d = self.values.shape
        if n < 2 or d < 1:
            raise ShapeMismatchError(
                f"need at least 2 rows and 1 column, got shape {(n, d)}"
            )
        if not np.isfinite(self.values).all():
            raise DegenerateFeaturesError("features contain NaN or Inf")

    @property
    def n(self):
        return self.values.shape[0]


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
        Symmetric non-negative weight matrix with zero diagonal and sorted
        column indices; each undirected edge is stored once per direction.
    degrees : ndarray, shape (n,)
        Row sums of ``csr``; strictly positive.
    """

    n: int
    csr: sparse.csr_matrix
    degrees: np.ndarray

    @property
    def num_edges(self):
        return self.csr.nnz // 2

    @classmethod
    def from_csr(cls, matrix):
        """Validate a symmetric weight matrix and derive its degrees."""
        w = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
        if w.shape[0] != w.shape[1]:
            raise ShapeMismatchError(f"weight matrix must be square, got {w.shape}")
        n = w.shape[0]
        if n < 2:
            raise ShapeMismatchError("a graph needs at least 2 nodes")
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
        return cls(n=n, csr=w, degrees=degrees)


def _usable_cpus():
    """CPUs this process may run on; ``taskset`` limits them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _row_blocks(n, parts):
    """Row ranges of about ``_BLOCK_ENTRIES / parts`` distances each."""
    size = max(2, _BLOCK_ENTRIES // (n * parts))
    starts = list(range(0, n, size))
    return list(zip(starts, starts[1:] + [n]))


def _nearest_neighbors(values, k, metric):
    """Indices and distances of each row's ``k`` nearest other rows, ascending.

    Distance ties are broken by node index.  The row blocks are shared out
    between the ``min(usable CPUs, blocks)`` threads of one pool, each with
    its own distance and partition buffers, and the ``_BLOCK_ENTRIES``
    budget is split between them.  Both metrics rank
    ``cdist(..., "sqeuclidean")``.  A block's candidates are
    the flat indices of the mask ``dist <= kth`` (``kth`` from an in-place
    partition of a copy), split into (row, column) by ``divmod(flat, n)``; a
    lexsort by (row, distance, index) orders them and each row keeps its
    first k.  Euclidean distance is the square root of the candidates only
    (``cdist``'s euclidean is that root, bit for bit); its mask is widened to
    ``kth * _SQRT_TIE_SLACK``, so every entry whose root ties the k-th root
    still reaches the lexsort.  Cosine distance is half the squared
    euclidean distance of the unit rows, so the search ranks the unit rows
    and halves the k distances it keeps.
    """
    n = values.shape[0]
    if metric == "cosine":
        # 1 - <x,y>/(|x||y|) = |x/|x| - y/|y||^2 / 2; zero-norm rows are undefined
        norms = np.linalg.norm(values, axis=1)
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DegenerateFeaturesError(
                f"row {bad[0]} has zero norm; cosine distance is undefined"
            )
        values = values / norms[:, None]
    neighbor = np.empty((n, k), dtype=np.intp)
    ndist = np.empty((n, k))

    def scan(blocks):
        rows_max = max(hi - lo for lo, hi in blocks)
        dist_buf = np.empty((rows_max, n))
        part_buf = np.empty((rows_max, n))
        for lo, hi in blocks:
            dist, part = dist_buf[: hi - lo], part_buf[: hi - lo]
            cdist(values[lo:hi], values, "sqeuclidean", out=dist)
            rows = np.arange(hi - lo)
            dist[rows, rows + lo] = np.inf
            # every entry up to the k-th smallest, in (row, distance, index)
            # order; the mask's flat indices come in C order, i.e. by (row, column)
            np.copyto(part, dist)
            part.partition(k - 1, axis=1)
            kth = part[:, k - 1 : k]
            if metric == "euclidean":
                kth *= _SQRT_TIE_SLACK
            flat = np.flatnonzero(dist <= kth)
            r, c = np.divmod(flat, n)
            d = dist.ravel()[flat]
            if metric == "euclidean":
                np.sqrt(d, out=d)
            order = np.lexsort((c, d, r))
            # keep the first k of each row's run; ties past the k-th are dropped
            starts = np.searchsorted(r[order], rows)
            keep = (starts[:, None] + np.arange(k)).ravel()
            neighbor[lo:hi] = c[order[keep]].reshape(-1, k)
            ndist[lo:hi] = d[order[keep]].reshape(-1, k)

    cpus = _usable_cpus()
    blocks = _row_blocks(n, cpus)
    workers = min(cpus, len(blocks))
    # each thread writes only its own rows of neighbor and ndist
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(scan, [blocks[w::workers] for w in range(workers)]))
    if metric == "cosine":
        ndist *= 0.5
    return neighbor, ndist


def build_knn_graph(features, spec):
    """Exact k-nearest-neighbor graph of a feature matrix.

    Each node is connected to its ``spec.k`` nearest neighbors (self
    excluded, distance ties broken by node index, also across the k-th
    neighbor), directed weights are computed by the kernel, and the directed
    graph is symmetrized by ``mean`` (missing reverse edge counts as zero) or
    elementwise ``max``.

    The search is exact and takes O(n^2 d) time.  Rows are handled in blocks
    on ``min(usable CPUs, blocks)`` threads, each block reduced to its k
    nearest rather than fully sorted: the partition threshold (each row's
    k-th smallest distance), then the flat indices of one ``dist <= kth``
    mask, then a lexsort of those candidates by (row, distance, index).  The
    threads split one budget of ``_BLOCK_ENTRIES`` distances (2 MiB), so the
    build holds O(n) memory in n rather than an n x n matrix.  Both metrics
    rank squared euclidean distances; the euclidean distance is the square
    root of the candidates alone, equal bit for bit to ``cdist``'s
    euclidean.  The cosine distance of x and y is
    ``cdist(x/|x|, y/|y|, "sqeuclidean") / 2``, which equals 1 - cos(x, y)
    without the cancellation of that difference.  Every
    distance is computed per pair, with no BLAS call, so the graph is the one
    a dense n x n distance matrix gives, bit for bit, for any thread count.

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
    """Read a GXG1 file and validate every graph invariant.

    The file size must be exactly the one the header's n and nnz imply, so
    a truncated file, trailing bytes and a corrupt header all raise
    :class:`ParseError` before any section is read.
    """
    with open(path, "rb") as fh:
        head = fh.read(20)
        if head[:4] != _GXG_MAGIC:
            raise ParseError(f"bad magic {head[:4]!r}, expected {_GXG_MAGIC!r}")
        if len(head) != 20:
            raise ParseError("truncated graph file while reading header")
        n, nnz = (int(x) for x in np.frombuffer(head, dtype="<u8", offset=4))
        expected = 20 + 8 * (n + 1) + 16 * nnz + 8 * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ParseError(
                f"graph file has {size} bytes, but its header (n={n}, "
                f"nnz={nnz}) implies {expected}"
            )
        indptr = np.frombuffer(fh.read(8 * (n + 1)), dtype="<u8").astype(np.int64)
        indices = np.frombuffer(fh.read(8 * nnz), dtype="<u8").astype(np.int64)
        data = np.frombuffer(fh.read(8 * nnz), dtype="<f8")
        degrees = np.frombuffer(fh.read(8 * n), dtype="<f8")
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ParseError("row pointers are not a valid monotone index")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise ParseError("column index out of range")
    csr = sparse.csr_matrix((data.copy(), indices, indptr), shape=(n, n))
    graph = Graph.from_csr(csr)
    if not np.allclose(graph.degrees, degrees, rtol=1e-12, atol=0.0):
        raise ParseError("stored degrees do not match the weight matrix")
    return graph
