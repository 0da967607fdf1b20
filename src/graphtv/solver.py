"""Multi-class transductive labeling by normalized total-variation ratio descent.

One score vector per class lives on the graph.  Seeded nodes are pinned to
a margin (own class >= eps, every other class <= -eps) and unlabeled nodes
keep a zero class-sum, so classes compete for them.  The outer loop
repeatedly linearizes the non-smooth ratio

    r(u) = TV(u) / ||u||_1,      TV(u) = sum(|K u|),

around the current state v and solves the resulting convex surrogate

    min_u  ||u - v||^2 / 2
           + sum_k [ TV(u^k) - c^k <sign(v^k), u^k> ]        over C,

with c^k the pre-step ratio of class k, by an accelerated primal-dual
(gradient-ascent on a box-constrained dual edge variable, proximal descent
on the nodes, extrapolation with a decreasing step ratio; Chambolle & Pock
2011, Algorithm 2), whose dual steps are diagonally preconditioned: each
edge steps by its own row sum of |K| (Pock & Chambolle 2011, alpha = 1),
not by the worst row's.  Every few iterations the inner loop evaluates the
primal-dual gap P(u) - D(z), P being the surrogate above, z the dual edge
variable in the unit box, drive^k = c^k sign(v^k), w = drive - K^T z and

    D(z) = ||u* - v||^2 / 2 - <w, u*>,      u* = P_C(v + w),

taken at the last iterate pair (u, z), the pair the loop returns; it stops
once the gap is at most inner_tol * |P(u)|.  The first outer step starts
its dual at clip(K v); every later one starts from the last dual of
the step before, since consecutive surrogates differ little and the loop
converges from any dual in the unit box, so the gap still certifies it.
At two classes the state is mirrored, class 1 the negation of class 0:
the warm start, every inner update, the median shift and the
renormalization keep it so.  Such a solve runs its inner loops on class 0
alone and widens the iterates to [x, -x] only for the gap and the result.
Each outer step then re-centers every class by its median and renormalizes
the state to unit Frobenius norm, which keeps the iteration away from the
trivial zero and degree-vector states.  Because u = v is feasible with
surrogate value zero, the exact minimizer keeps the surrogate nonpositive,
i.e.

    TV(u_new^k) <= c^k <sign(v^k), u_new^k>  <=  c^k * ||u_new^k||_1

summed over classes; the per-class slack of the right-hand inequality is
measured on the raw inner-loop output and recorded in the trace together
with the re-centered ratios.  An inner solve that stops with gap g meets
the summed inequality to within g.
"""

import dataclasses
import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import (
    EmptyClassError,
    NoProgressWarning,
    NonFiniteError,
    ParseError,
    SeedlessComponentWarning,
    ShapeMismatchError,
)
from .operators import NormalizedGradient, diffusion_solve, normalized_adjacency
from .tables import _FLOAT, convert_cells, read_array, read_rows, write_json, write_table

log = logging.getLogger(__name__)

#: two class scores closer than this are reported as a tie
TIE_THRESHOLD = 1e-12

#: class ratios divide by max(||u^k||_1, ZERO_GUARD): a zero column has ratio 0
ZERO_GUARD = 1e-12

#: the inner loop evaluates its duality gap every this many iterations
GAP_CHECK_EVERY = 10

#: :func:`solve` stops as "budget" after this many outer steps, far more
#: than a solve takes to stop on "tol" or "no_decrease"
OUTER_MAX = 100


@dataclass
class LabelConstraints:
    """Seed sets and the margin they are pinned to.

    Parameters
    ----------
    n : int
        Number of nodes.
    n_classes : int
        Number of classes L >= 2.
    labeled : list of int arrays
        ``labeled[k]`` holds the seed node indices of class k.  Classes must
        be disjoint and non-empty; unlabeled nodes are the complement.
    epsilon : float
        Margin in (0, 1]; compatible with the unit-norm solver state.
    """

    n: int
    n_classes: int
    labeled: list
    epsilon: float = 0.1

    def __post_init__(self):
        if self.n < 2:
            raise ShapeMismatchError("need at least 2 nodes")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if len(self.labeled) != self.n_classes:
            raise ShapeMismatchError(
                f"got {len(self.labeled)} seed sets for {self.n_classes} classes"
            )
        own = np.full(self.n, -1, dtype=np.int64)
        sets = []
        for k, idx in enumerate(self.labeled):
            idx = np.unique(np.asarray(idx, dtype=np.int64))
            if idx.size == 0:
                raise EmptyClassError(k)
            if idx.min() < 0 or idx.max() >= self.n:
                raise ShapeMismatchError(f"class {k} has a seed index out of range")
            if (own[idx] != -1).any():
                raise ValueError(f"class {k} shares a seed node with another class")
            own[idx] = k
            sets.append(idx)
        self.labeled = sets
        self.own_class = own
        self.labeled_nodes = np.flatnonzero(own >= 0)
        self.unlabeled_nodes = np.flatnonzero(own < 0)

    # the default is the field's, read from this class body
    @classmethod
    def from_pairs(cls, nodes, classes, n, n_classes, epsilon=epsilon):
        """Build from parallel (node, class) arrays, e.g. a parsed seed CSV."""
        nodes = np.asarray(nodes, dtype=np.int64)
        classes = np.asarray(classes, dtype=np.int64)
        if nodes.shape != classes.shape:
            raise ShapeMismatchError("node and class arrays differ in length")
        if classes.size and (classes.min() < 0 or classes.max() >= n_classes):
            raise ValueError("class id out of range")
        labeled = [nodes[classes == k] for k in range(n_classes)]
        return cls(n=n, n_classes=n_classes, labeled=labeled, epsilon=epsilon)

    @property
    def n_labeled(self):
        return int(self.labeled_nodes.size)


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs of the solver; defaults are the calibrated ones.

    The inner loop is CP Algorithm 2 on a surrogate that is mu-strongly
    convex with mu = 1, its tether weight.  It starts from Pock &
    Chambolle's (2011) alpha = 1 diagonal steps: edge e takes the dual step
    0.999 / r_e, r = |K| 1 being the row sums of K, and the nodes the primal
    step tau = 1 / max(|K|^T 1), so ||diag(0.999 / r)^1/2 K||^2 tau <= 0.999
    < 1, the Chambolle & Pock (2011) condition in the rescaled dual.  It
    multiplies tau by theta = 1/sqrt(1 + 2*gamma*tau) = 1/sqrt(1 + tau) per
    iteration, and divides by theta a scalar sigma that starts at 1 and
    multiplies every edge's step, i.e. with gamma = mu/2, which meets the
    algorithm's condition gamma <= mu.
    It stops once its primal-dual gap is at most ``inner_tol * |P(u)|``,
    P being the surrogate's primal value, or at ``inner_max`` iterations.
    ``inner_tol`` also stops :func:`solve` on the smallest ratio-sum
    decrease such a gap resolves.
    """

    inner_max: int = 2000
    inner_tol: float = 1e-3

    def __post_init__(self):
        if self.inner_max < 1:
            raise ValueError("inner_max must be >= 1")
        if not self.inner_tol > 0:  # NaN fails too
            raise ValueError("inner_tol must be positive")


@dataclass
class OuterRecord:
    """Diagnostics of one outer step.

    ``ratios`` are the per-class ratios of the stored (re-centered,
    normalized) state; ``ratios_pre`` those of the raw inner-loop output;
    ``decrease_slack`` is c^k*||u||_1 - TV(u) on the raw output; its sum
    is at least ``-gap``.  ``gap`` is the inner loop's final primal-dual
    gap, always finite.  ``hit_cap`` is true when the inner loop ran to
    ``inner_max`` without meeting the gap test.
    """

    ratios: list
    ratios_pre: list
    decrease_slack: list
    sum_ratios: float
    inner_iters: int
    hit_cap: bool
    gap: float
    wall_ms: float


@dataclass
class SolveTrace:
    """Records of the kept outer steps, and of the rolled-back one if any.

    On ``stop_reason`` "tol" the last kept step lowered the ratio sum by at
    most ``inner_tol`` times the sum before it; on "no_decrease" the step
    rolled back is kept, in memory only, as ``rejected_step`` (else None).
    """

    records: list = field(default_factory=list)
    initial_ratios: list = field(default_factory=list)
    stop_reason: str = "budget"  # "tol" | "no_decrease" | "budget"
    rejected_step: OuterRecord | None = None


@dataclass
class Prediction:
    """Scores, and what they imply: the row argmax ``labels`` (ties to the
    lowest index) and ``tie_flag``, top two scores within ``TIE_THRESHOLD``.
    """

    scores: np.ndarray
    labels: np.ndarray = field(init=False)
    tie_flag: np.ndarray = field(init=False)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not np.isfinite(self.scores).all():
            raise NonFiniteError("prediction scores contain NaN or Inf")
        top_two = np.sort(self.scores, axis=1)[:, -2:]
        self.labels = np.argmax(self.scores, axis=1)
        self.tie_flag = (top_two[:, 1] - top_two[:, 0]) < TIE_THRESHOLD


class _Projection:
    """Projection of class-major (L, n) states, done in place.

    Row k holds the scores of class k, so each class is one contiguous
    vector.  The index arrays and the scratch it needs are built once per
    constraint set, so the inner loop can project every iterate without
    allocating.  With ``mirrored`` it projects the (1, n) class-0 row of a
    two-class state whose class 1 is its negation: a node's class mean is
    then exactly 0.0, so only the seeds are clamped.
    """

    def __init__(self, constraints, mirrored=False):
        n = constraints.n
        lab = constraints.labeled_nodes
        own = constraints.own_class[lab]
        self.epsilon = constraints.epsilon
        self.center = not mirrored
        # flat positions of the seed columns in the state, class by class,
        # and of each seed's own class inside the gathered seed block
        if mirrored:
            self.seed_entries = lab
            self.own_entries = np.flatnonzero(own == 0)
        else:
            classes = np.arange(constraints.n_classes)[:, None]
            self.seed_entries = (classes * n + lab).ravel()
            self.own_entries = own * lab.size + np.arange(lab.size)
        self.block = np.empty(self.seed_entries.size)
        self.own_block = np.empty(self.own_entries.size)
        self.node_mean = np.empty(n)

    def __call__(self, u):
        # u must be (n_classes, n) of the constraints, or (1, n) when
        # mirrored, which keeps every index in range; mode="clip" only
        # spares numpy the buffered copy of `out` that mode="raise" makes
        flat = u.reshape(-1)  # a view: u is C-contiguous
        np.take(flat, self.seed_entries, out=self.block, mode="clip")
        np.take(self.block, self.own_entries, out=self.own_block, mode="clip")
        # Every node loses its mean over the classes, added left to right
        # onto +0.0; the seed columns are then overwritten from the values
        # taken above, so only the unlabeled nodes keep the shift.
        if self.center:
            self.node_mean.fill(0.0)
            for u_k in u:
                self.node_mean += u_k
            self.node_mean /= u.shape[0]
            u -= self.node_mean
        np.minimum(self.block, -self.epsilon, out=self.block)
        np.maximum(self.own_block, self.epsilon, out=self.own_block)
        self.block[self.own_entries] = self.own_block
        flat[self.seed_entries] = self.block


def project_constraints(u, constraints):
    """Project a state row-wise onto the seed margins and zero class-sums.

    Seeded node i of class k: u[i, k] -> max(u[i, k], eps) and
    u[i, k'] -> min(u[i, k'], -eps) for k' != k.  Unlabeled rows lose their
    mean across classes, summed from class 0 up.  The map is idempotent up
    to rounding of each unlabeled row's mean.
    Takes an (n, L) state in any memory order and returns a new
    C-contiguous one; it projects a class-major copy with the in-place
    routine the inner loop runs on its own buffers.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (constraints.n, constraints.n_classes):
        raise ShapeMismatchError(
            f"state shape {u.shape} does not match "
            f"({constraints.n}, {constraints.n_classes})"
        )
    out = np.array(u.T, order="C")
    _Projection(constraints)(out)
    return np.ascontiguousarray(out.T)


def _ratio_terms(operator, u):
    """Columnwise TV(u), ||u||_1 and TV(u) / max(||u||_1, ZERO_GUARD)."""
    tv = np.abs(operator.matrix @ u).sum(axis=0)
    l1 = np.abs(u).sum(axis=0)
    return tv, l1, tv / np.maximum(l1, ZERO_GUARD)


def seedless_nodes(graph, constraints):
    """Boolean mask of the nodes whose connected component holds no seed."""
    _, component = connected_components(graph.csr, directed=False)
    seeded = np.zeros(component.max() + 1, dtype=bool)
    seeded[component[constraints.labeled_nodes]] = True
    return ~seeded[component]


def initialize_state(graph, constraints):
    """Harmonic extension of the seeds, normalized and projected.

    Ratio descent only moves downhill from where it starts, so it starts
    from the p=2 smooth solution (Zhu, Ghahramani & Lafferty 2003): seed
    rows ``Y_L`` hold +1 in their own class and -1 elsewhere, unlabeled
    rows solve ``(I - S_UU) X_U = S_UL (Y_L - rowmean(Y_L))`` with
    ``S = D^-1/2 W D^-1/2`` (zero class-sums included), and nodes of a
    component without seeds stay zero.  Returns the ``(n, L)`` score
    matrix, scaled to unit Frobenius norm (without a median shift that
    could zero a tied block) and projected onto the constraints.  The
    extension is linear in ``Y_L``, so ``epsilon`` enters only through the
    projection, and the norm is at least sqrt(seeds * L) before scaling.
    """
    if constraints.n != graph.n:
        raise ShapeMismatchError(
            f"constraints built for n={constraints.n}, graph has n={graph.n}"
        )
    u = np.zeros((constraints.n, constraints.n_classes))
    lab = constraints.labeled_nodes
    u[lab] = -1.0
    u[lab, constraints.own_class[lab]] = 1.0
    unl = constraints.unlabeled_nodes
    free = unl[~seedless_nodes(graph, constraints)[unl]]
    if free.size:
        rows = normalized_adjacency(graph)[free]
        margins = u[lab] - u[lab].mean(axis=1, keepdims=True)
        rhs = rows[:, lab] @ margins
        if constraints.n_classes == 2:
            # the two margin columns are mirrored and CG is sign-symmetric,
            # so class 1 is the negation of class 0's solve, bit for bit
            half = diffusion_solve(rows[:, free], rhs[:, :1], 1.0)
            u[free] = np.hstack([half, -half])
        else:
            u[free] = diffusion_solve(rows[:, free], rhs, 1.0)
    return project_constraints(u / np.linalg.norm(u), constraints)


def _dual_value(w, anchor, project, u_star, tmp):
    """D = ||u* - v||^2 / 2 - <w, u*> at u* = P_C(v + w), class-major."""
    np.add(w, anchor, out=u_star)
    project(u_star)
    np.multiply(w, u_star, out=tmp)
    cross = tmp.sum()
    np.subtract(u_star, anchor, out=tmp)
    np.square(tmp, out=tmp)
    return tmp.sum() / 2.0 - cross


def _certified_steps(operator):
    """The inner loop's first primal step and its diagonally scaled K.

    Pock & Chambolle's (2011) alpha = 1 preconditioner: with the row sums
    r = |K| 1 and column sums c = |K|^T 1, the primal step is the scalar
    tau = 1 / max(c) and edge e takes its own dual step 0.999 / r_e, so
    ``fwd_steps = diag(0.999 / r) K`` and ||diag(0.999 / r)^1/2 K||^2 * tau
    <= 0.999 (their Lemma 2).  Each entry is divided by its row sum before
    it is scaled, so it lies in [-1, 1]; a row whose entries both underflowed
    to zero takes step 0.  Returns ``(tau, fwd_steps)``, a CSR matrix with
    the pattern of K.
    """
    fwd = operator.matrix
    magnitude = abs(fwd)
    col_sums = magnitude.T @ np.ones(fwd.shape[0])
    row_sums = np.repeat(magnitude @ np.ones(fwd.shape[1]), np.diff(fwd.indptr))
    steps = np.divide(fwd.data, row_sums, out=np.zeros_like(row_sums),
                      where=row_sums > 0.0)
    steps *= 0.999
    fwd_steps = sparse.csr_matrix((steps, fwd.indices, fwd.indptr), shape=fwd.shape)
    return 1.0 / col_sums.max(), fwd_steps


def _inner_loop(anchor, operator, constraints, config, coeff, dual=None):
    """Solve the surrogate linearized at ``anchor``, starting from it.

    The primal iterate and its extrapolation start at the ``(n, L)``
    ``anchor``.  The dual starts at a copy of ``dual``, an ``(m, L)`` edge
    variable in the unit box such as the last dual of a previous loop, or
    at the clamped gradient ``clip(K anchor)`` when it is None.  ``anchor``
    and ``dual`` are only read, and the steps restart at
    :func:`_certified_steps` either way: the dual update is
    ``z += sigma * (fwd_steps @ u_tilde)``, every edge scaled by its own
    step, and the scalar ``sigma`` starts at 1.  With y' = diag(0.999 /
    r)^-1/2 z this is Algorithm 2 on an operator of norm at most
    sqrt(0.999), and the box projection of z stays a clip.  The gap is
    taken at the last dual iterate, so the recorded gap is that of the
    returned pair ``(u, z)``.  TV(u) is taken with the unscaled K.  The
    loop itself holds every array class-major, (L, n) on the nodes and
    (L, m) on the edges.  Returns ``(u, iters, gap, converged, z)``: ``u``
    is a new C-contiguous ``(n, L)`` array and ``z`` the ``(m, L)`` last
    dual iterate.  Each gap
    term is bounded by the anchor, ``coeff`` and ||K||, so a non-finite gap
    means a non-finite iterate and raises NonFiniteError at that check.

    At two classes, when the anchor, the drive ``coeff * sign(anchor)`` and
    the starting dual each equal minus their class 0 in class 1, the loop
    runs class 0 alone: one sparse product per direction and iteration
    instead of two, half of every update, and a projection that only
    clamps the seeds, since a mirrored node's class mean is exactly 0.0.
    The gap check widens u and the dual to full-width ``[x, -x]`` and
    runs unchanged, except that ``K u`` is one class-0 product and its
    negation; ``u`` and ``z`` are returned widened.  The test
    compares values, not sign bits: at odd n the median shift leaves +0.0
    in both columns of one node, and a sign-bit test would send every
    outer step after the first down the full-width path.  Every update is
    sign-symmetric, so the result can differ from a full-width run only in
    the sign of an exact zero.  Only the dual has shown one: an edge whose
    gradient stays 0.0, such as one joining two equal-degree seeds of one
    class on a unit-weight graph, holds +0.0 in class 1 at full width and
    -0.0 in the mirror.  No score of a test case or benchmark output has
    differed.
    """
    shape = (constraints.n, constraints.n_classes)
    if np.shape(anchor) != shape:
        raise ShapeMismatchError(
            f"anchor shape {np.shape(anchor)} does not match {shape}"
        )
    dual_shape = (operator.matrix.shape[0], constraints.n_classes)
    if dual is not None and np.shape(dual) != dual_shape:
        raise ShapeMismatchError(
            f"dual shape {np.shape(dual)} does not match {dual_shape}"
        )
    fwd = operator.matrix
    adj = operator.adjoint_matrix
    # Every buffer is owned by the loop and class-major, so each class is
    # one contiguous row for the sparse products, the elementwise updates
    # and the projection.  Every update keeps the operand order of the
    # whole-array form (reference_inner_loop in tests/oracles.py), so the
    # results are bit-identical to it.
    v = np.array(anchor.T, order="C")
    drive = np.sign(v) * coeff[:, None]  # c^k * sign(v^k), zero where v is zero
    if dual is None:
        dual = np.clip(fwd @ anchor, -1.0, 1.0)
    # mirrored inputs stay mirrored, so class 0 alone is run (see above);
    # values decide, not sign bits
    mirrored = (
        constraints.n_classes == 2
        and coeff[0] == coeff[1]
        and np.array_equal(v[1], -v[0])
        and np.array_equal(dual[:, 1], -dual[:, 0])
    )
    rows = 1 if mirrored else constraints.n_classes
    project = _Projection(constraints)
    project_rows = _Projection(constraints, mirrored=True) if mirrored else project
    v_rows = v[:rows]
    drive_rows = drive[:rows]
    u = v_rows.copy()
    u_prev = np.empty_like(u)
    scratch = np.empty_like(u)
    u_tilde = v_rows.copy()
    z = np.array(dual.T[:rows], order="C")
    # the gap is evaluated on full-width (L, n) arrays
    u_star = np.empty_like(v)
    tmp = np.empty_like(v)
    wide = np.empty_like(v) if mirrored else None
    grad_wide = np.empty((dual_shape[0], 2)) if mirrored else None

    def widen(x, out=None):
        """The (L, .) array that loop array ``x`` stands for, in ``out``."""
        if not mirrored:
            return x
        if out is None:
            out = np.empty((2, x.shape[1]))
        out[0] = x[0]
        np.negative(x[0], out=out[1])
        return out

    tau, fwd_steps = _certified_steps(operator)
    sigma = 1.0  # the scale of every edge's own step in fwd_steps
    gap = math.inf
    converged = False
    for it in range(1, config.inner_max + 1):
        check = it % GAP_CHECK_EVERY == 0 or it == config.inner_max
        # dual ascent on the edges, then projection onto the unit box
        for k, z_k in enumerate(z):
            grad = fwd_steps @ u_tilde[k]
            grad *= sigma
            z_k += grad
        np.clip(z, -1.0, 1.0, out=z)
        for k, z_k in enumerate(z):
            scratch[k] = adj @ z_k
        np.subtract(drive_rows, scratch, out=scratch)  # w = drive - K^T z
        if check:
            lower = _dual_value(widen(scratch, wide), v, project, u_star, tmp)
        # proximal descent on the nodes: resolvent of the quadratic tether
        # ||u - anchor||^2 / 2 plus the linearized-l1 drive, followed by
        # projection onto the seed set
        scratch *= tau
        u, u_prev = u_prev, u
        np.add(u_prev, scratch, out=u)
        np.multiply(v_rows, tau, out=scratch)
        u += scratch
        u /= 1.0 + tau
        project_rows(u)
        theta = 1.0 / math.sqrt(1.0 + tau)
        tau *= theta
        sigma /= theta
        np.subtract(u, u_prev, out=scratch)
        scratch *= theta
        np.add(u, scratch, out=u_tilde)
        if not check:
            continue
        # primal value P(u) = ||u - v||^2 / 2 - <drive, u> + TV(u)
        u_full = widen(u, wide)
        np.subtract(u_full, v, out=tmp)
        np.square(tmp, out=tmp)
        tether = tmp.sum()
        np.multiply(drive, u_full, out=tmp)
        linear = tmp.sum()
        if mirrored:
            # K [x, -x] = [K x, -K x]: one class-0 product, summed in the
            # (m, 2) order of the full-width product
            grad_u = grad_wide
            grad_u[:, 0] = fwd @ u[0]
            np.negative(grad_u[:, 0], out=grad_u[:, 1])
        else:
            grad_u = fwd @ u_full.T  # one (m, L) product, summed in that order
        tv = np.abs(grad_u, out=grad_u).sum()
        primal = tether / 2.0 - linear + tv
        gap = float(primal - lower)
        if not math.isfinite(gap):
            raise NonFiniteError("inner iterate is not finite", iteration=it)
        if gap <= config.inner_tol * abs(primal):
            converged = True
            break
    # inner_max >= 1, so the loop ran and ``it`` counts its iterations
    return np.ascontiguousarray(widen(u).T), it, gap, converged, widen(z).T


def outer_step(u, operator, constraints, config, *, dual=None):
    """One ratio-descent step: inner solve, median re-center, renormalize.

    ``u`` is the current score matrix and the step's linearization point;
    it is only read.  It is expected to satisfy the constraints (every
    score matrix this module hands out does), which is what makes the
    recorded ``decrease_slack`` a certificate: the anchor is then feasible
    for the inner problem with surrogate value exactly zero.  The median
    shift can push seeds off their margins, and a final projection makes
    the returned matrix feasible again.  The shift cannot zero the state:
    the raw inner output is projected, so its column 0 holds an entry
    >= eps and one <= -eps, and any shift of them leaves a norm >= eps.
    The inner loop starts its dual from
    ``dual`` (see :func:`_inner_loop`), from ``clip(K u)`` when it is None.
    Returns ``(u_new, record, z)``, ``z`` being the inner loop's last dual.
    """
    t0 = time.perf_counter()
    _, _, coeff = _ratio_terms(operator, u)
    raw, iters, gap, converged, z = _inner_loop(
        u, operator, constraints, config, coeff, dual
    )
    tv_pre, l1_pre, ratios_pre = _ratio_terms(operator, raw)
    slack = coeff * l1_pre - tv_pre
    shifted = raw - np.median(raw, axis=0)
    shifted /= np.linalg.norm(shifted)
    u_new = project_constraints(shifted, constraints)
    _, _, ratios_carried = _ratio_terms(operator, u_new)
    record = OuterRecord(
        ratios=[float(r) for r in ratios_carried],
        ratios_pre=[float(r) for r in ratios_pre],
        decrease_slack=[float(s) for s in slack],
        sum_ratios=float(ratios_carried.sum()),
        inner_iters=iters,
        hit_cap=not converged,
        gap=gap,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return u_new, record, z


def solve(graph, constraints, config=None):
    """Label every node of ``graph`` from the seeds in ``constraints``.

    Starts from the harmonic extension of the seeds (see
    :func:`initialize_state`), then runs outer ratio-descent steps; the
    score matrix is the only state carried from one step to the next.  The
    loop keeps a step only if it does not raise the monitored sum of
    per-class ratios: the re-centering inside each step is not a descent
    operation, so the first step that comes back worse marks convergence
    and is rolled back to the matrix it started from.  It otherwise stops
    as "tol" on the first kept step that lowers the sum by at most
    ``inner_tol`` times the sum before it, all that an inner gap of that
    size resolves (also after a capped inner loop, which certifies less),
    or after ``OUTER_MAX`` steps; ``trace.stop_reason`` says which.  Returns
    ``(Prediction, SolveTrace)``.  Nodes of a component without seeds are
    returned tied (label 0) with one
    :class:`~graphtv.errors.SeedlessComponentWarning`.  Every inner loop
    starts from the certified steps of :class:`SolverConfig`; the first
    one starts its dual cold at ``clip(K u)`` and every later one from the
    last dual of the step before it.  Nothing on the way draws a random
    number.
    """
    if config is None:
        config = SolverConfig()
    if constraints.n != graph.n:
        raise ShapeMismatchError(
            f"constraints built for n={constraints.n}, graph has n={graph.n}"
        )
    seedless = seedless_nodes(graph, constraints)
    if seedless.any():
        warnings.warn(
            f"{int(seedless.sum())} nodes lie in components without seeds; "
            "they are returned tied",
            SeedlessComponentWarning,
            stacklevel=2,
        )
    operator = NormalizedGradient(graph)
    u = initialize_state(graph, constraints)
    _, _, r0 = _ratio_terms(operator, u)
    trace = SolveTrace(initial_ratios=[float(r) for r in r0])
    prev_sum = float(r0.sum())
    dual = None
    for t in range(OUTER_MAX):
        try:
            u_new, record, z = outer_step(u, operator, constraints, config, dual=dual)
        except NonFiniteError as exc:
            exc.trace = trace  # expose the partial trace to callers
            raise
        log.debug(
            "outer %d: sum_ratios=%.6g inner=%d gap=%s",
            t,
            record.sum_ratios,
            record.inner_iters,
            record.gap,
        )
        if record.sum_ratios > prev_sum:
            trace.stop_reason = "no_decrease"
            trace.rejected_step = record
            if t == 0:
                warnings.warn(
                    "ratio descent stagnated on its first outer step",
                    NoProgressWarning,
                    stacklevel=2,
                )
            break
        u, dual = u_new, z
        trace.records.append(record)
        if prev_sum - record.sum_ratios <= config.inner_tol * prev_sum:
            trace.stop_reason = "tol"
            break
        prev_sum = record.sum_ratios
    u[seedless] = 0.0
    return Prediction(u), trace


def _scores_header(n_classes):
    return ["node", *(f"score_{k}" for k in range(n_classes)), "label", "tie"]


def write_scores_csv(path, prediction):
    """Scores table: node,score_0,...,score_{L-1},label,tie (17 sig. digits)."""
    n, n_classes = prediction.scores.shape
    row = ",".join(["%d", *[_FLOAT] * n_classes, "%d", "%d"])
    columns = zip(
        range(n), *prediction.scores.T.tolist(),
        prediction.labels.tolist(), prediction.tie_flag.tolist(),
    )
    write_table(path, _scores_header(n_classes), map(row.__mod__, columns))


def read_scores_csv(path):
    """Parse a scores table back into a Prediction.

    The label and tie columns must be the ones the scores imply (see
    :class:`Prediction`); the first line that differs raises ParseError.
    numpy's C reader parses the rows; unless the header is well formed,
    the nodes count up from 0, the scores are finite and the labels and
    ties agree, the Python row loop reads the file again to raise
    ParseError naming the line, or to read the cells only Python accepts.
    """
    with open(path, encoding="utf-8-sig") as fh:
        head = fh.readline().strip().split(",")
        n_classes = len(head) - 3
        table = None
        if n_classes >= 2 and head == _scores_header(n_classes):
            row = [("node", np.int64), ("scores", np.float64, (n_classes,)),
                   ("label", np.int64), ("tie", np.int64)]
            table = read_array(fh, np.dtype(row), 1)
    if (table is not None and table.size
            and np.array_equal(table["node"], np.arange(table.size))
            and np.isfinite(table["scores"]).all()):
        prediction = Prediction(np.ascontiguousarray(table["scores"]))
        if (np.array_equal(prediction.labels, table["label"])
                and np.array_equal(prediction.tie_flag, table["tie"])):
            return prediction
    # the row loop, whose every error names its line
    scores, given = [], []
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        rows = read_rows(fh)
        lineno, head = next(rows, (1, None))
        if head is None:
            raise ParseError("empty scores file", line=1)
        n_classes = len(head) - 3
        if lineno != 1 or n_classes < 2 or head != _scores_header(n_classes):
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


def write_trace_json(path, trace):
    """Trace file: a JSON array with one record per outer iteration."""
    write_json(path, [dataclasses.asdict(record) for record in trace.records])
