"""Weighted undirected graphs, k-NN construction, and binary serialization.

A :class:`Graph` is symmetric, has non-negative weights, no self-loops and
strictly positive degrees.  Those invariants are enforced at every
construction site (k-NN builder, synthetic generators, file loader) because
the degree-normalized operators downstream divide by ``d_i``.

The k-NN build is an exact search.  It sorts the rows on their principal
axis and scans each row only against the columns whose projection lies
within a rigorous bound of its own: the square root of an upper bound on
the row's k-th squared distance, widened for rounding (Friedman, Baskett &
Shustek 1975).  A cloud spread along one axis far beyond its k-th neighbor
distance is searched in a fraction of the n^2 pairs; in a cloud with no
dominant axis the windows hold nearly every column, and the search is the
O(n^2 d) scan of all pairs.  Blocks of rows are scanned against one
contiguous window of columns each, on the ``min(usable CPUs, blocks)``
threads of one pool, one thread at one CPU.
The ``2**18`` distances (2 MiB of float64) it may hold at once are split
between the threads, so beyond its O(n k) result and O(n d) sorted copy it
holds one fixed-size budget of distances, never an n x n matrix; at two
threads each one's distances and partition scratch fit a 2 MiB L2 cache.
Both metrics rank squared euclidean distances.  A block picks its
candidates in three steps: an in-place partition of a scratch copy finds
each row's k-th smallest squared distance, the flat indices of the one mask
``dist <= kth`` give every entry up to it, and a lexsort by (row, distance,
node index) orders them, so distance ties go to the lower node index.
Every distance is computed per pair by ``cdist``, with no BLAS call, so the
result does not depend on the blocks, the windows or the thread count.  The
projection makes no BLAS call either: its products are ``np.einsum``, as
BLAS threads left spinning would slow the scan's own threads.
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
# power steps toward the principal axis the k-NN search sorts the rows on,
# taken on every (n // _AXIS_ROWS)-th row: the axis only steers the pruning
_POWER_STEPS = 4
_AXIS_ROWS = 512
# the pass that bounds each k-th distance compares each sorted row with a
# run of n / _BOUND_SHARE sorted rows, but at most _BOUND_ROWS of them
_BOUND_SHARE = 64
_BOUND_ROWS = 256

# a cosine row whose largest |entry| lies outside this range is divided by
# that entry first, as its sum of squares would under- or overflow
_NORM_RANGE = (2.0**-500, 2.0**500)

_METRICS = ("euclidean", "cosine")
_KERNELS = ("gaussian", "binary")


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

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}")
        if self.kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}")
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


def _principal_axis(values):
    """Unit principal axis of the rows, after ``_POWER_STEPS`` power steps.

    The steps start from the centred row farthest from the mean, so the axis
    needs no RNG, and each product is an ``np.einsum``, not a BLAS call.
    The centred rows and each step are scaled to a largest entry of 1, so
    the steps neither under- nor overflow at any scale of the features, and
    the squared norm the axis is divided by at the end is at least 1.  Rows
    that are all equal have no axis; the first coordinate stands in.
    """
    centered = values - np.einsum("ij->j", values) / values.shape[0]
    with np.errstate(all="ignore"):
        centered = centered / np.max(np.abs(centered))
        axis = centered[np.argmax(np.einsum("ij,ij->i", centered, centered))]
        for _ in range(_POWER_STEPS):
            axis = np.einsum("ij,i->j", centered, np.einsum("ij,j->i", centered, axis))
            axis = axis / np.max(np.abs(axis))
        axis = axis / math.sqrt(np.einsum("i,i->", axis, axis))
    if not np.isfinite(axis).all():
        axis = np.eye(1, values.shape[1])[0]
    return axis


def _kth_bounds(rows, k, size, pool, parts):
    """Bound the k-th smallest squared distance of each sorted row.

    The sorted rows are cut into runs of ``size`` rows, the last one reaching
    back to ``size`` rows, so that with ``size > k`` every row sees at least
    k others.  A row's bound is its k-th smallest ``cdist`` value over the
    other rows of its run.  The runs are shared out between ``parts`` tasks
    of ``pool``, each partitioning its runs in one ``(size, size)`` buffer.
    """
    n = rows.shape[0]
    bound = np.empty(n)

    def fill(starts):
        buf = np.empty((size, size))
        for lo in starts:
            hi = min(lo + size, n)
            dist = buf[: hi - lo]
            cdist(rows[lo:hi], rows[hi - size : hi], "sqeuclidean", out=dist)
            np.fill_diagonal(dist[:, lo - hi + size :], np.inf)
            dist.partition(k - 1, axis=1)
            bound[lo:hi] = dist[:, k - 1]

    starts = range(0, n, size)
    list(pool.map(fill, [starts[w::parts] for w in range(parts)]))
    return bound


def _windows(values, k, pool, parts):
    """Each sorted row's column window ``[lo, hi)``, and the sort order.

    The rows are sorted by their projection p on the principal axis a.  A
    row's window holds every column whose projection lies within

        r_i = sqrt(R_i * _SQRT_TIE_SLACK + (d + 2) t) * (1 + delta) + 2 E

    of its own, where R_i is the ``_kth_bounds`` bound and t = 2**-1074 the
    smallest subnormal.  Every column a scan of all n columns could select
    lies in it: that scan keeps column j only if the computed squared
    distance D_ij is at most the k-th smallest one, widened by
    ``_SQRT_TIE_SLACK``, so at most the computed R_i * _SQRT_TIE_SLACK.
    With u = 2**-53 the unit roundoff, and t / 2 the most a product loses
    to underflow (a sum or difference loses nothing to it):

    - D_ij sums d squares of rounded differences, so
      |x_i - x_j|**2 <= (D_ij + d t / 2) (1 - u)**-(d + 2);
    - a is scaled to a largest entry of 1 and divided by its computed norm,
      whose square is at least 1, so |a| <= 1 + (d + 2) u;
    - the computed projection p_i is off by at most d u / (1 - d u) times
      sum_k |x_ik a_k| <= sqrt(d) m |a|, with m the largest |x_ik|
      (Higham's bound, for any order of summation), plus d t / 2 lost to
      underflow.

    With delta = 2 (d + 4) u and E = 2 (d + 2) u sqrt(d) m + d t, the
    window therefore covers |x_i - x_j| |a| plus both projection errors,
    and also the few roundings made in computing r_i and p_i -+ r_i
    themselves.  The window so holds the k rows that gave R_i, hence the
    k-th smallest distance within it is the one over all columns.  When
    R_i is infinite, the window is every column.
    """
    n, d = values.shape
    axis = _principal_axis(values[:: max(1, n // _AXIS_ROWS)])
    proj = np.einsum("ij,j->i", values, axis)
    order = np.argsort(proj)
    rows = values[order]
    proj = proj[order]
    u = np.finfo(np.float64).eps / 2
    tiny = np.finfo(np.float64).smallest_subnormal
    delta = 2 * (d + 4) * u
    error = 2 * (d + 2) * u * math.sqrt(d) * max(rows.max(), -rows.min()) + d * tiny
    size = max(k + 1, min(_BOUND_ROWS, n // _BOUND_SHARE))  # at most n
    bound = _kth_bounds(rows, k, size, pool, parts)
    radius = np.sqrt(bound * _SQRT_TIE_SLACK + (d + 2) * tiny) * (1 + delta)
    radius += 2 * error
    lo = np.searchsorted(proj, proj - radius, side="left")
    hi = np.searchsorted(proj, proj + radius, side="right")
    return rows, order, lo, hi


def _window_blocks(lo, hi, budget):
    """Blocks ``(row lo, row hi, column lo, column hi)`` of the sorted rows.

    Each block is a run of sorted rows and the union of their windows, which
    is one contiguous run of columns.  A block grows while rows x window
    stays within ``budget`` and its rows number no more than the columns of
    its first row's window, so that the rows' own spread does not widen a
    block of narrow windows much.  It keeps at least two rows, but at the
    tail.
    """
    n = lo.size
    blocks = []
    start = 0
    while start < n:
        width = int(hi[start] - lo[start])
        span = min(n - start, max(2, min(width, budget // width)))
        # rows x window grows with every row, so the rows that fit are a prefix
        c0s = np.minimum.accumulate(lo[start:start + span])
        c1s = np.maximum.accumulate(hi[start:start + span])
        fits = np.arange(1, span + 1) * (c1s - c0s) <= budget
        count = min(span, max(2, np.count_nonzero(fits)))
        blocks.append((start, start + count, int(c0s[count - 1]), int(c1s[count - 1])))
        start += count
    return blocks


def _nearest_neighbors(values, k, metric):
    """Indices and distances of each row's ``k`` nearest other rows, ascending.

    Distance ties are broken by node index.  The rows are sorted on their
    principal axis (``_windows``), and each block of sorted rows is scanned
    against one contiguous window of sorted columns that holds every column
    it could select (``_window_blocks``).  The blocks are shared out between
    the ``min(usable CPUs, blocks)`` threads of one pool, each with its own
    distance and partition buffers, and the ``_BLOCK_ENTRIES`` budget is
    split between them.  Both metrics rank ``cdist(..., "sqeuclidean")`` of
    copies of the rows.  A block's candidates are the flat indices of the
    mask ``dist <= kth`` (``kth`` from an in-place partition of a copy),
    split into (row, column) by ``divmod``; a lexsort by (row, distance,
    node index) orders them and each row keeps its first k.  Euclidean
    distance is the square root of the candidates only (``cdist``'s
    euclidean is that root, bit for bit); its mask is widened to
    ``kth * _SQRT_TIE_SLACK``, so every entry whose root ties the k-th root
    still reaches the lexsort.  Cosine distance is half the squared
    euclidean distance of the unit rows, so the search ranks the unit rows
    and halves the k distances it keeps; a row whose largest |entry| lies
    outside ``_NORM_RANGE`` is divided by it before it is normalized.
    """
    n = values.shape[0]
    if metric == "cosine":
        # 1 - <x,y>/(|x||y|) = |x/|x| - y/|y||^2 / 2; zero-norm rows are undefined
        peak = np.max(np.abs(values), axis=1)
        bad = np.flatnonzero(peak == 0.0)
        if bad.size:
            raise DegenerateFeaturesError(
                f"row {bad[0]} has zero norm; cosine distance is undefined"
            )
        far = np.flatnonzero((peak < _NORM_RANGE[0]) | (peak > _NORM_RANGE[1]))
        if far.size:
            values = values.copy()
            values[far] /= peak[far, None]
        values = values / np.linalg.norm(values, axis=1)[:, None]
    neighbor = np.empty((n, k), dtype=np.intp)
    ndist = np.empty((n, k))

    def scan(blocks):
        entries = max((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in blocks)
        dist_buf = np.empty(entries)
        part_buf = np.empty(entries)
        for r0, r1, c0, c1 in blocks:
            shape = (r1 - r0, c1 - c0)
            dist = dist_buf[: shape[0] * shape[1]].reshape(shape)
            part = part_buf[: dist.size].reshape(shape)
            cdist(rows[r0:r1], rows[c0:c1], "sqeuclidean", out=dist)
            block_rows = np.arange(shape[0])
            dist[block_rows, block_rows + r0 - c0] = np.inf
            # every entry up to the k-th smallest, in (row, distance, index)
            # order; the mask's flat indices come in C order, i.e. by (row, column)
            np.copyto(part, dist)
            part.partition(k - 1, axis=1)
            kth = part[:, k - 1 : k]
            if metric == "euclidean":
                kth *= _SQRT_TIE_SLACK
            flat = np.flatnonzero(dist <= kth)
            r, c = np.divmod(flat, shape[1])
            c = order[c + c0]
            d = dist.ravel()[flat]
            if metric == "euclidean":
                np.sqrt(d, out=d)
            ranked = np.lexsort((c, d, r))
            # keep the first k of each row's run; ties past the k-th are dropped
            starts = np.searchsorted(r[ranked], block_rows)
            keep = ranked[(starts[:, None] + np.arange(k)).ravel()]
            neighbor[order[r0:r1]] = c[keep].reshape(-1, k)
            ndist[order[r0:r1]] = d[keep].reshape(-1, k)

    cpus = _usable_cpus()
    # each thread writes only its own rows of bound, neighbor and ndist
    with ThreadPoolExecutor(cpus) as pool:
        rows, order, lo, hi = _windows(values, k, pool, cpus)
        blocks = _window_blocks(lo, hi, _BLOCK_ENTRIES // cpus)
        workers = min(cpus, len(blocks))
        list(pool.map(scan, [blocks[w::workers] for w in range(workers)]))
    # features beyond about 1e154 overflow a squared distance; unit rows cannot
    overflow = np.flatnonzero(ndist[:, -1] == np.inf)
    if overflow.size:
        raise DegenerateFeaturesError(
            f"the squared distance from row {overflow[0]} to its k-th nearest "
            f"neighbor overflows float64 (largest |feature| "
            f"{np.max(np.abs(values)):.6g}); scale the features down"
        )
    if metric == "cosine":
        ndist *= 0.5
    return neighbor, ndist


def build_knn_graph(features, spec):
    """Exact k-nearest-neighbor graph of a feature matrix.

    Each node is connected to its ``spec.k`` nearest neighbors (self
    excluded, distance ties broken by node index, also across the k-th
    neighbor), directed weights are computed by the kernel, and the directed
    graph is symmetrized by the mean of the two directions (a missing
    reverse edge counts as zero).

    The search is exact.  The rows are sorted on their principal axis, and
    each row is compared only with the columns whose projection lies within
    a rigorous bound of its own: the root of an upper bound on its k-th
    squared distance (the k-th smallest over a run of nearby sorted rows),
    widened for rounding.  A cloud spread along one axis far beyond its k-th
    neighbor distance is searched in a fraction of the n^2 pairs; the worst
    case, a window of every column, takes O(n^2 d) time.  Blocks of sorted
    rows run on ``min(usable CPUs, blocks)`` threads, each block reduced to
    its k nearest rather than fully sorted: the partition threshold (each
    row's k-th smallest distance), then the flat indices of one
    ``dist <= kth`` mask, then a lexsort of those candidates by (row,
    distance, node index).  The threads split one budget of
    ``_BLOCK_ENTRIES`` distances (2 MiB), so the build holds O(n) memory in
    n rather than an n x n matrix.  Both metrics rank squared euclidean
    distances; the euclidean distance is the square root of the candidates
    alone, equal bit for bit to ``cdist``'s euclidean.  The cosine distance
    of x and y is ``cdist(x/|x|, y/|y|, "sqeuclidean") / 2``, which equals
    1 - cos(x, y) without the cancellation of that difference.  Every
    distance is computed per pair, with no BLAS call, so the graph is the
    one a dense n x n distance matrix gives, bit for bit, for any thread
    count.

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
        For cosine metric with a zero-norm feature row, and when a squared
        distance to a k-th nearest neighbor overflows float64.
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
    try:
        return Graph.from_csr((directed + directed.T) * 0.5)
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
