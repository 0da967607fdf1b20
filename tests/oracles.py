"""Independent oracles and small graph builders shared across test modules.

These deliberately avoid the library's own code paths: the dense gradient
matrix is assembled entry-by-entry from the dense weight matrix, the SBM
oracle draws every pair at once into an n x n adjacency, the AUC oracle
counts pairs literally, the k-NN oracle stable-sorts a full distance
matrix, the exact cosine distance works in 80-digit decimals, the
diffusion oracles solve their linear systems densely, the duality-gap
oracle uses the dense gradient, the dual optimum comes from L-BFGS-B
rather than a primal-dual loop, the reference inner loop allocates
fresh arrays on every iteration, the reference table readers convert each
CSV cell with Python's ``float`` or ``int``, and the reference table writers
format each cell on its own.  Tests compare the fast implementations against
these slow-but-obvious routes.

Where a test compares bits, an oracle adds floats in the library's order:
the class mean of a projection adds the classes left to right, and the
reference inner loop takes its whole-array sums over the (L, n)
class-major layout that the solver's loop keeps.
"""

import decimal
import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from graphtv import Graph
from graphtv.errors import NonFiniteError, ParseError, ShapeMismatchError
from graphtv.graph import FeatureMatrix
from graphtv.solver import Prediction, _certified_steps
from graphtv.tables import convert_cells, read_rows


def same_bits(a, b):
    """Equal shape and identical float64 bytes (signed zeros and NaNs too)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def from_dense(matrix):
    """Graph of a dense symmetric weight matrix."""
    return Graph.from_csr(sparse.csr_matrix(np.asarray(matrix, dtype=np.float64)))


def dense_gradient(graph):
    """|E| x n dense matrix with row e = w_ij*(e_i/d_i - e_j/d_j), i<j.

    Edges are the nonzeros of the upper triangle, in row-major order.
    """
    w = graph.csr.toarray()
    rows, cols = np.nonzero(np.triu(w, k=1))
    mat = np.zeros((rows.size, graph.n))
    for e, (i, j) in enumerate(zip(rows, cols)):
        mat[e, i] = w[i, j] / graph.degrees[i]
        mat[e, j] = -w[i, j] / graph.degrees[j]
    return mat


def dense_sbm(sizes, p_in, p_out, seed, max_attempts=100):
    """Stochastic block model from one n(n-1)/2 draw per attempt.

    Builds the n x n probability matrix and adjacency and draws every
    upper-triangle pair at once; resamples from the same stream until no
    node is isolated.  Returns ``(Graph, truth)``, or ``None`` when every
    attempt leaves an isolated node.
    """
    n = sum(sizes)
    truth = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    prob = np.where(truth[:, None] == truth[None, :], p_in, p_out)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(max_attempts):
        keep = rng.random(iu.size) < prob[iu, ju]
        adj = np.zeros((n, n))
        adj[iu[keep], ju[keep]] = 1.0
        adj += adj.T
        if adj.sum(axis=1).min() > 0:
            return from_dense(adj), truth
    return None


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
    return from_dense(w)


def triangles_bridge(w_bridge=0.1):
    """Two unit-weight triangles {0,1,2} and {3,4,5} joined by one weak edge."""
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        w[a, b] = w[b, a] = 1.0
    w[2, 3] = w[3, 2] = w_bridge
    return from_dense(w)


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
    return from_dense(w)


def dense_distances(values, metric):
    """Full n x n distance matrix with ``inf`` on the diagonal.

    The cosine distance is half the squared euclidean distance of the unit
    rows, the same per-pair arithmetic ``build_knn_graph`` uses; a row whose
    largest |entry| lies outside [2**-500, 2**500] is divided by it first.
    """
    if metric == "euclidean":
        dist = cdist(values, values, metric="euclidean")
    else:
        peak = np.max(np.abs(values), axis=1)
        far = (peak < 2.0**-500) | (peak > 2.0**500)
        values = values.copy()
        values[far] /= peak[far, None]
        unit = values / np.linalg.norm(values, axis=1)[:, None]
        dist = 0.5 * cdist(unit, unit, metric="sqeuclidean")
    np.fill_diagonal(dist, np.inf)
    return dist


def exact_cosine_distance(x, y):
    """1 - cos(x, y) in 80-digit decimal arithmetic, rounded once to a float."""
    with decimal.localcontext(decimal.Context(prec=80)):
        x = [decimal.Decimal(float(a)) for a in x]
        y = [decimal.Decimal(float(b)) for b in y]
        dot = sum(a * b for a, b in zip(x, y))
        norms = sum(a * a for a in x) * sum(b * b for b in y)
        return float(1 - dot / norms.sqrt())


def reference_load_features_csv(path):
    """Read a features CSV into a FeatureMatrix.

    Raises :class:`ParseError` (with 1-based line number) on malformed rows
    and NaN/Inf entries, and :class:`ShapeMismatchError` on ragged rows.
    """
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


def reference_load_labels_csv(path):
    """Read a ``node,class`` CSV into parallel int arrays, row by row.

    Raises :class:`ParseError` (with 1-based line number) on a missing
    header, a row without two integer fields, a negative id, an id beyond
    int64 and a file without data rows.
    """
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


def reference_read_scores_csv(path):
    """Parse a scores table into a Prediction, row by row.

    Raises :class:`ParseError` (with 1-based line number) on a malformed
    header or row, nodes out of order, a non-finite score, a file without
    data rows, and at the first line whose label or tie cell differs from
    what its scores imply.
    """
    scores, given = [], []
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        rows = read_rows(fh)
        lineno, head = next(rows, (1, None))
        if head is None:
            raise ParseError("empty scores file", line=1)
        n_classes = len(head) - 3
        expected = ["node", *(f"score_{k}" for k in range(n_classes)), "label", "tie"]
        if lineno != 1 or n_classes < 2 or head != expected:
            raise ParseError("malformed scores header", line=1)
        converters = [int, *[float] * n_classes, int, int]
        for lineno, cells in rows:
            if len(cells) != len(head):
                raise ParseError(f"expected {len(head)} fields", line=lineno)
            node, *vals, label, tie = convert_cells(converters, cells, lineno)
            if node != len(scores):
                raise ParseError(
                    f"expected node {len(scores)}, got {node}", line=lineno
                )
            if not all(map(math.isfinite, vals)):
                raise ParseError("score is not finite", line=lineno)
            scores.append(vals)
            given.append((lineno, label, tie))
    if not scores:
        raise ParseError("scores file has no data rows", line=2)
    prediction = Prediction(scores)
    implied = zip(prediction.labels.tolist(), prediction.tie_flag.tolist())
    for (lineno, label, tie), (own, tied) in zip(given, implied):
        if (label, tie) != (own, tied):  # a tie cell of 1 equals True
            raise ParseError(f"label {label}, tie {tie}: the scores imply "
                             f"label {own}, tie {int(tied)}", line=lineno)
    return prediction


def _write_cells(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, rows)]) + "\n")


def _cell(x):
    return format(float(x), ".17g")


def reference_write_features_csv(path, values):
    """Features CSV of a 2-d array, each float formatted on its own."""
    values = np.asarray(values)
    header = [f"x{j}" for j in range(values.shape[1])]
    header[0] = "#" + header[0]
    _write_cells(path, header, ([_cell(x) for x in row] for row in values.tolist()))


def reference_write_labels_csv(path, nodes, classes):
    """Labels CSV, each id converted with ``int`` on its own."""
    rows = ((str(int(i)), str(int(c))) for i, c in zip(nodes, classes))
    _write_cells(path, ["node", "class"], rows)


def reference_write_scores_csv(path, prediction):
    """Scores table of a Prediction, each cell formatted on its own."""
    n_classes = prediction.scores.shape[1]
    header = ["node", *(f"score_{k}" for k in range(n_classes)), "label", "tie"]
    columns = (prediction.scores, prediction.labels, prediction.tie_flag)
    rows = (
        [str(i), *[_cell(x) for x in scores], str(label), str(int(tie))]
        for i, (scores, label, tie) in enumerate(zip(*(c.tolist() for c in columns)))
    )
    _write_cells(path, header, rows)


def dense_knn_graph(values, spec):
    """k-NN graph from the full n x n distance matrix and a stable row sort.

    Same distance arithmetic, tie rule (equal distances go to the lower node
    index), kernel and mean symmetrization as ``build_knn_graph``.
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
    return Graph.from_csr((directed + directed.T) * 0.5)


def dense_normalized_adjacency(graph):
    """D^-1/2 W D^-1/2 as a dense matrix."""
    inv_sqrt = 1.0 / np.sqrt(graph.degrees)
    return graph.csr.toarray() * np.outer(inv_sqrt, inv_sqrt)


def dense_harmonic_extension(graph, constraints):
    """Seed margins plus the harmonic unlabeled rows, unit Frobenius norm.

    Solves (I - S_UU) X = S_UL (Y_L - rowmean(Y_L)) with ``np.linalg.solve``;
    the graph must be connected.
    """
    s = dense_normalized_adjacency(graph)
    lab, unl = constraints.labeled_nodes, constraints.unlabeled_nodes
    u = np.full((graph.n, constraints.n_classes), -constraints.epsilon)
    u[lab, constraints.own_class[lab]] = constraints.epsilon
    margins = u[lab] - u[lab].mean(axis=1, keepdims=True)
    system = np.eye(unl.size) - s[np.ix_(unl, unl)]
    u[unl] = np.linalg.solve(system, s[np.ix_(unl, lab)] @ margins)
    return u / np.linalg.norm(u)


def dense_label_spreading(graph, constraints, alpha):
    """(1 - alpha) (I - alpha S)^-1 Y with one-hot seed rows Y."""
    y = np.zeros((graph.n, constraints.n_classes))
    lab = constraints.labeled_nodes
    y[lab, constraints.own_class[lab]] = 1.0
    system = np.eye(graph.n) - alpha * dense_normalized_adjacency(graph)
    return (1.0 - alpha) * np.linalg.solve(system, y)


def reference_project_constraints(u, constraints):
    """Projection onto the seed margins and zero class-sums, one copy per call.

    Unlabeled rows lose the mean of their own gathered block, its classes
    added left to right; seed rows are clamped from the input values.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (constraints.n, constraints.n_classes):
        raise ShapeMismatchError(
            f"state shape {u.shape} does not match "
            f"({constraints.n}, {constraints.n_classes})"
        )
    out = u.copy()
    unl = constraints.unlabeled_nodes
    if unl.size:
        rows = out[unl]
        total = np.zeros(unl.size)  # +0.0, so an all -0.0 row sums to +0.0
        for k in range(constraints.n_classes):
            total += rows[:, k]
        out[unl] -= (total / constraints.n_classes)[:, None]
    lab = constraints.labeled_nodes
    if lab.size:
        eps = constraints.epsilon
        own = constraints.own_class[lab]
        block = np.minimum(u[lab], -eps)
        block[np.arange(lab.size), own] = np.maximum(u[lab, own], eps)
        out[lab] = block
    return out


def constraint_violation(u, constraints):
    """Largest violation of the seed margins / zero class-sums (0 if feasible)."""
    worst = 0.0
    lab = constraints.labeled_nodes
    if lab.size:
        eps = constraints.epsilon
        own = constraints.own_class[lab]
        own_vals = u[lab, own]
        worst = max(worst, float(np.max(eps - own_vals, initial=0.0)))
        others = np.minimum(u[lab], -eps)  # entries already <= -eps unchanged
        gap = u[lab] - others
        gap[np.arange(lab.size), own] = 0.0
        worst = max(worst, float(gap.max(initial=0.0)))
    unl = constraints.unlabeled_nodes
    if unl.size:
        worst = max(worst, float(np.abs(u[unl].sum(axis=1)).max(initial=0.0)))
    return worst


def dense_duality_gap(graph, constraints, u, z, anchor, coeff):
    """Primal value and gap of one surrogate at the pair (u, z), densely.

    P(u) = ||u - v||^2 / 2 - <drive, u> + sum|K u| and
    D(z) = min over the constraint set of ||x - v||^2 / 2 - <drive - K^T z, x>,
    with K from :func:`dense_gradient` and drive = coeff * sign(v).
    """
    grad = dense_gradient(graph)
    drive = np.sign(anchor) * coeff
    primal = (
        np.sum((u - anchor) ** 2) / 2.0
        - np.sum(drive * u)
        + np.sum(np.abs(grad @ u))
    )
    w = drive - grad.T @ z
    x = reference_project_constraints(anchor + w, constraints)
    dual = np.sum((x - anchor) ** 2) / 2.0 - np.sum(w * x)
    return float(primal), float(primal - dual)


def dual_optimum(graph, constraints, anchor, coeff):
    """max D(z) over the unit box, by L-BFGS-B from z = 0.

    D is the dual of :func:`dense_duality_gap` with the dense gradient K;
    it is concave with gradient K P_C(v + w), w = drive - K^T z.  Any z
    the optimizer stops at gives a lower bound on the true maximum, which
    itself is at most the surrogate's primal minimum.
    """
    grad = dense_gradient(graph)
    drive = np.sign(anchor) * coeff
    shape = (grad.shape[0], constraints.n_classes)

    def neg_dual(flat):
        w = drive - grad.T @ flat.reshape(shape)
        x = reference_project_constraints(anchor + w, constraints)
        value = np.sum((x - anchor) ** 2) / 2.0 - np.sum(w * x)
        return -value, -(grad @ x).ravel()

    size = shape[0] * shape[1]
    found = minimize(
        neg_dual, np.zeros(size), jac=True, method="L-BFGS-B",
        bounds=[(-1.0, 1.0)] * size,
        options={"maxiter": 20000, "ftol": 0.0, "gtol": 0.0},
    )
    return -float(found.fun)


def surrogate_objective(operator, u, anchor):
    """Value at ``u`` of the convex model minimized by one outer step.

    The model tethers ``u`` to the linearization point ``anchor`` and
    replaces each class ratio by its linearization there::

        ||u - anchor||^2 / 2
            + sum_k [ TV(u^k) - ratio(anchor^k) * <sign(anchor^k), u^k> ]

    with ratio = TV / max(||.||_1, 1e-12).  By construction the value at
    ``u = anchor`` is zero, so any feasible minimizer has a nonpositive value.
    """
    u = np.asarray(u, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    tv = np.abs(operator.matrix @ u).sum(axis=0)
    coeff = np.abs(operator.matrix @ anchor).sum(axis=0) / np.maximum(
        np.abs(anchor).sum(axis=0), 1e-12
    )
    linear = (np.sign(anchor) * u).sum(axis=0) * coeff
    tether = float(((u - anchor) ** 2).sum()) / 2.0
    return tether + float((tv - linear).sum())


def reference_inner_loop(anchor, operator, constraints, config, coeff, dual=None):
    """The accelerated primal-dual loop written with whole-array temporaries.

    Starts from u = u_tilde = ``anchor``, z = ``dual`` (clip(K anchor) when
    it is None) and the solver's own certified steps: the scalar primal step
    and the row-scaled K of ``_certified_steps``, whose dual steps the scalar
    sigma (starting at 1) multiplies.  Every update builds
    new arrays and the projection is the copying
    :func:`reference_project_constraints`.  Every ``check_every``
    iterations and on the last one it checks that the iterate is finite
    and evaluates the surrogate's primal-dual gap at the last iterate pair
    (u, z), the pair it returns; it stops once that is at most
    ``inner_tol`` times the primal value's magnitude.
    The tether, the linear term and the dual value are summed over the
    class-major (L, n) layout, the order of the solver loop's buffers.
    Returns ``(u, iters, gap, converged, z)`` like the solver loop, z being
    the last dual iterate.
    """

    def class_major_sum(x):
        return np.ascontiguousarray(x.T).sum()

    def dual_value(w):
        # the Lagrangian's minimizer over the constraint set, and its value
        u_star = reference_project_constraints(anchor + w, constraints)
        tether = class_major_sum((u_star - anchor) ** 2)
        return tether / 2.0 - class_major_sum(w * u_star)

    check_every = 10
    fwd = operator.matrix
    adj = operator.adjoint_matrix
    drive = np.sign(anchor) * coeff  # c^k * sign(v^k), zero where v is zero
    u = anchor
    z = np.clip(fwd @ anchor, -1.0, 1.0) if dual is None else dual
    u_tilde = anchor
    tau, fwd_steps = _certified_steps(operator)
    sigma = 1.0
    iters = 0
    gap = math.inf
    converged = False
    for it in range(1, config.inner_max + 1):
        check = it % check_every == 0 or it == config.inner_max
        # dual ascent on the edges, then projection onto the unit box
        z = np.clip(z + sigma * (fwd_steps @ u_tilde), -1.0, 1.0)
        w = drive - adj @ z
        if check:
            lower = dual_value(w)
        # proximal descent on the nodes: resolvent of the quadratic tether
        # ||u - anchor||^2 / 2 plus the linearized-l1 drive, followed by
        # projection onto the seed set
        u_prev = u
        u = (u + tau * w + tau * anchor) / (1.0 + tau)
        u = reference_project_constraints(u, constraints)
        theta = 1.0 / math.sqrt(1.0 + tau)
        tau *= theta
        sigma /= theta
        u_tilde = u + theta * (u - u_prev)
        iters = it
        if check:
            if not np.isfinite(u).all():
                raise NonFiniteError("inner iterate is not finite", iteration=it)
            primal = (
                class_major_sum((u - anchor) ** 2) / 2.0
                - class_major_sum(drive * u)
                + np.abs(fwd @ u).sum()
            )
            gap = float(primal - lower)
            if math.isfinite(gap) and gap <= config.inner_tol * abs(primal):
                converged = True
                break
    return u, iters, gap, converged, z
