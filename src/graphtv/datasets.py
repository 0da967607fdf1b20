"""Synthetic datasets, seed/evaluation partitions, and the CSV formats.

Features CSV: one node per row of comma-separated decimal floats, with an
optional first header row starting with '#'.  Label/truth CSV: header
``node,class`` followed by 0-based integer pairs.  Both are written and
read through :mod:`graphtv.tables`: numpy's C reader parses them, and a
Python row loop reads a file again to name the line of an error.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import (
    FractionTooSmallError,
    GenerationFailedError,
    ParseError,
    ShapeMismatchError,
)
from .graph import FeatureMatrix, Graph
from .solver import LabelConstraints
from .tables import _FLOAT, convert_cells, read_array, read_rows, write_table

_SBM_MAX_ATTEMPTS = 100
# draws per rng call of synth_sbm: 1 MiB of doubles
_SBM_RUN = 1 << 17


@dataclass
class LabeledDataset:
    """A graph plus the ground-truth class of each of its nodes."""

    truth: np.ndarray
    n_classes: int
    graph: Graph

    def __post_init__(self):
        self.truth = np.asarray(self.truth, dtype=np.int64)
        if self.truth.ndim != 1:
            raise ShapeMismatchError("truth must be a 1-d class array")
        if self.truth.min() < 0 or self.truth.max() >= self.n_classes:
            raise ValueError("truth contains a class id out of range")
        if self.graph.n != self.truth.shape[0]:
            raise ShapeMismatchError("graph row count differs from truth")


@dataclass
class Partition:
    """The heldout side of a split; the seeds live in its LabelConstraints."""

    eval_indices: np.ndarray
    degenerate: bool = False


def synth_two_moons(n, noise, seed):
    """Two interleaved half-circles of radius 1 with Gaussian coordinate noise.

    Returns ``(FeatureMatrix, truth)`` with exactly n/2 points per moon
    (moon 0 first).  ``n`` must be even and >= 4.
    """
    if n < 4 or n % 2:
        raise ValueError("n must be an even integer >= 4")
    if not 0 <= noise < math.inf:  # NaN fails too
        raise ValueError("noise must be a finite real >= 0")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    xy = np.empty((n, 2))
    xy[:half, 0] = np.cos(t)
    xy[:half, 1] = np.sin(t)
    xy[half:, 0] = 1.0 - np.cos(t)
    xy[half:, 1] = 0.5 - np.sin(t)
    if noise > 0:
        rng = np.random.default_rng(seed)
        xy += rng.normal(0.0, noise, size=xy.shape)
    truth = np.repeat(np.arange(2, dtype=np.int64), half)
    return FeatureMatrix(xy), truth


def synth_sbm(sizes, p_in, p_out, seed):
    """Stochastic block model with unit edge weights.

    Within-block pairs connect with probability ``p_in``, cross-block pairs
    with ``p_out``.  An attempt takes one uniform double per pair i < j in
    row-major order of the upper triangle (row i: columns i + 1 .. n - 1,
    its own block's first), the order of a single n(n - 1)/2 draw, so each
    seed keeps the graph it has always given.  The stream is drawn in runs
    of at most ``_SBM_RUN`` doubles; each draw below ``max(p_in, p_out)``
    is mapped to its (row, column) by the row offsets and compared with
    p_in or p_out by whether its two nodes share a block: O(n^2) time,
    O(n + m) memory for m edges.
    Draws are resampled (same generator stream) until no node is isolated,
    up to 100 attempts, then :class:`~graphtv.errors.GenerationFailedError`
    is raised.  Returns ``(Graph, truth)`` with block ids as truth.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or min(sizes) < 2:
        raise ValueError("need at least two blocks of at least two nodes")
    for p, name in ((p_in, "p_in"), (p_out, "p_out")):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    n = sum(sizes)
    truth = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    # row i's draws start at starts[i]
    starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    total = int(starts[-1])  # n(n - 1)/2
    p_max = max(p_in, p_out)
    rng = np.random.default_rng(seed)
    for _ in range(_SBM_MAX_ATTEMPTS):
        rows, cols = [], []
        for begin in range(0, total, _SBM_RUN):
            draws = rng.random(min(_SBM_RUN, total - begin))
            hits = np.flatnonzero(draws < p_max)
            at = begin + hits
            row = np.searchsorted(starts, at, side="right") - 1
            col = at - starts[row] + row + 1
            keep = draws[hits] < np.where(truth[row] == truth[col], p_in, p_out)
            rows.append(row[keep])
            cols.append(col[keep])
        indices = np.concatenate(cols)
        out_degree = np.bincount(np.concatenate(rows), minlength=n)
        if (out_degree + np.bincount(indices, minlength=n)).min() > 0:
            indptr = np.concatenate([[0], np.cumsum(out_degree)])
            upper = sparse.csr_matrix(
                (np.ones(indices.size), indices, indptr), shape=(n, n)
            )
            return Graph.from_csr(upper + upper.T), truth
    raise GenerationFailedError(
        f"no isolate-free draw in {_SBM_MAX_ATTEMPTS} attempts "
        f"(sizes={sizes}, p_in={p_in}, p_out={p_out})"
    )


def make_partition(
    truth, n_classes, labeled_fraction, seed, epsilon=LabelConstraints.epsilon
):
    """Stratified seed/evaluation split of a labeled dataset.

    Per class, ``round(fraction * class_size)`` seeds (at least 1) are drawn
    without replacement; the remaining nodes form the evaluation set.
    ``fraction == 1.0`` labels everything and returns a partition flagged
    ``degenerate`` with an empty evaluation set.

    Returns ``(LabelConstraints, Partition)``.
    """
    truth = np.asarray(truth, dtype=np.int64)
    n = truth.shape[0]
    if not (0.0 < labeled_fraction <= 1.0):
        raise ValueError("labeled_fraction must lie in (0, 1]")
    if labeled_fraction * n < n_classes:
        raise FractionTooSmallError(
            f"fraction {labeled_fraction} of {n} nodes cannot cover "
            f"{n_classes} classes"
        )
    rng = np.random.default_rng(seed)
    labeled = []
    for k in range(n_classes):
        members = np.flatnonzero(truth == k)
        if members.size == 0:
            raise FractionTooSmallError(f"class {k} has no members to seed")
        count = int(round(labeled_fraction * members.size))
        count = min(max(count, 1), members.size)
        picked = rng.choice(members, size=count, replace=False)
        labeled.append(np.sort(picked))
    constraints = LabelConstraints(
        n=n, n_classes=n_classes, labeled=labeled, epsilon=epsilon
    )
    eval_indices = constraints.unlabeled_nodes
    return constraints, Partition(eval_indices, degenerate=eval_indices.size == 0)


def write_features_csv(path, features):
    values = features.values if isinstance(features, FeatureMatrix) else features
    header = [f"x{j}" for j in range(values.shape[1])]
    header[0] = "#" + header[0]
    row = ",".join([_FLOAT] * values.shape[1])
    write_table(path, header, map(row.__mod__, map(tuple, values.tolist())))


def load_features_csv(path):
    """Read a features CSV into a FeatureMatrix.

    numpy's C reader (:func:`~graphtv.tables.read_array`) parses the file;
    it converts each cell with the same correctly rounded string-to-double
    as Python's ``float``.  Only when it raises, finds no data row or reads
    a NaN/Inf entry does the Python row loop read the file again: it raises
    :class:`ParseError` (with 1-based line number) on malformed rows, NaN/Inf
    entries and a file without data rows, and :class:`ShapeMismatchError`
    on ragged rows, or reads the cells that only ``float`` accepts, such as
    ``1_0`` and non-ASCII digits.
    """
    with open(path, encoding="utf-8-sig") as fh:
        if not fh.readline().strip().startswith("#"):
            fh.seek(0)
        values = read_array(fh, np.float64, 2)
    if values is not None and values.size and np.isfinite(values).all():
        return FeatureMatrix(values)
    # the row loop, whose every error names its line
    rows = []
    width = None
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        for lineno, cells in read_rows(fh):
            if lineno == 1 and cells[0].startswith("#"):
                continue
            vals = convert_cells(itertools.repeat(float), cells, lineno)
            if not all(map(math.isfinite, vals)):
                raise ParseError("feature is not finite", line=lineno)
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ShapeMismatchError(
                    f"line {lineno}: expected {width} columns, got {len(vals)}"
                )
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows", line=1)
    return FeatureMatrix(np.asarray(rows, dtype=np.float64))


def write_labels_csv(path, nodes, classes):
    pairs = zip(np.asarray(nodes).tolist(), np.asarray(classes).tolist())
    write_table(path, ["node", "class"], map("%d,%d".__mod__, pairs))


def load_labels_csv(path):
    """Read a ``node,class`` CSV into parallel int arrays.

    numpy's C reader parses the rows as int64.  Unless line 1 is the
    header, there is a row and every row holds two ids of at least 0, the
    Python row loop reads the file again: it raises :class:`ParseError`
    naming the line, or reads the cells that only ``int`` accepts, such as
    ``1_0`` and non-ASCII digits.
    """
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().strip() == "node,class"
        pairs = read_array(fh, np.int64, 2) if header else None
    if pairs is not None and pairs.shape[1] == 2 and pairs.size and pairs.min() >= 0:
        nodes, classes = pairs.T.copy()
        return nodes, classes
    # the row loop, whose every error names its line
    nodes, classes = [], []
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        rows = read_rows(fh)
        if next(rows, None) != (1, ["node", "class"]):
            raise ParseError("expected header 'node,class'", line=1)
        for lineno, cells in rows:
            if len(cells) != 2:
                raise ParseError("expected two fields", line=lineno)
            node, cls = convert_cells((int, int), cells, lineno)
            if node < 0 or cls < 0:
                raise ParseError("indices must be non-negative", line=lineno)
            if max(node, cls) > np.iinfo(np.int64).max:
                raise ParseError("index exceeds the int64 range", line=lineno)
            nodes.append(node)
            classes.append(cls)
    if not nodes:
        raise ParseError("no data rows", line=1)
    return np.asarray(nodes, dtype=np.int64), np.asarray(classes, dtype=np.int64)


def truth_from_pairs(nodes, classes, n):
    """Dense truth array from (node, class) pairs covering every node once."""
    nodes = np.asarray(nodes, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    if nodes.size != n or np.unique(nodes).size != n:
        raise ShapeMismatchError(
            f"truth must cover each of the {n} nodes exactly once"
        )
    if nodes.min() < 0 or nodes.max() >= n:
        raise ShapeMismatchError("truth node index out of range")
    truth = np.empty(n, dtype=np.int64)
    truth[nodes] = classes
    return truth
