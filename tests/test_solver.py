"""Solver suite: projection, inner loop optimality, outer descent, solve()."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import graphtv.solver
from graphtv import (
    Graph,
    KernelSpec,
    LabelConstraints,
    NormalizedGradient,
    SolverConfig,
    build_knn_graph,
    make_partition,
    project_constraints,
    solve,
    synth_sbm,
    synth_two_moons,
)
from graphtv.errors import (
    EmptyClassError,
    NonFiniteError,
    NoProgressWarning,
    ParseError,
    SeedlessComponentWarning,
    ShapeMismatchError,
)
from graphtv.operators import diffusion_solve, normalized_adjacency
from graphtv.solver import (
    GAP_CHECK_EVERY,
    Prediction,
    _certified_steps,
    _inner_loop,
    _ratio_terms,
    initialize_state,
    outer_step,
    read_scores_csv,
    write_scores_csv,
    write_trace_json,
)
from oracles import (
    cliques_graph,
    constraint_violation,
    dense_duality_gap,
    dense_gradient,
    dense_harmonic_extension,
    from_dense,
    random_connected_graph,
    reference_inner_loop,
    reference_project_constraints,
    surrogate_objective,
    triangles_bridge,
)


def make_constraints(n, n_classes, labeled, epsilon=0.1):
    return LabelConstraints(
        n=n,
        n_classes=n_classes,
        labeled=[np.asarray(ix, dtype=np.int64) for ix in labeled],
        epsilon=epsilon,
    )


def random_constraints(rng, n, n_classes, epsilon=0.1, per=None):
    nodes = rng.permutation(n)
    if per is None:
        cap = max(1, n // n_classes)
        per = int(rng.integers(1, cap + 1))
    labeled = [nodes[k * per : (k + 1) * per] for k in range(n_classes)]
    return make_constraints(n, n_classes, labeled, epsilon)


def same_bits(a, b):
    """Equal shape and identical float64 bytes (signed zeros and NaNs too)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_inner_problem(rng, n, n_classes, per=None):
    """A random graph, seed sets, and a random feasible anchor."""
    graph = random_connected_graph(rng, n)
    op = NormalizedGradient(graph)
    cons = random_constraints(rng, n, n_classes, per=per)
    anchor = project_constraints(rng.normal(size=(n, n_classes)), cons)
    return op, cons, anchor


def inner_solve(anchor, op, cons, config):
    """The inner loop on the surrogate linearized at ``anchor``."""
    _, _, coeff = _ratio_terms(op, anchor)
    return _inner_loop(anchor, op, cons, config, coeff)


def run_both_loops(anchor, op, cons, config, dual=None, drive=1.0):
    """Fused loop and reference oracle from the same start; both outcomes.

    The drive coefficients are the anchor's class ratios times ``drive``.
    """
    coeff = _ratio_terms(op, anchor)[2] * drive
    fused_out = _inner_loop(anchor, op, cons, config, coeff, dual)
    ref_out = reference_inner_loop(anchor, op, cons, config, coeff, dual)
    return fused_out, ref_out


def assert_loops_agree(fused_out, ref_out):
    (u, iters, gap, converged, z), (ref_u, ref_iters, ref_gap, ref_converged, ref_z) = (
        fused_out, ref_out
    )
    assert iters == ref_iters and converged == ref_converged
    assert same_bits(gap, ref_gap)
    assert same_bits(u, ref_u)
    assert same_bits(z, ref_z)


# -------------------------------------------------------------- projection


def test_projection_pinned_values():
    cons = make_constraints(2, 2, [[0], [1]], epsilon=0.1)
    u = np.array([[0.05, 0.2], [0.0, -0.5]])
    out = project_constraints(u, cons)
    assert out[0, 0] == 0.1  # own class clamped up to epsilon
    assert out[0, 1] == -0.1  # other class clamped down to -epsilon
    assert out[1, 1] == 0.1

    # unlabeled row loses its class mean: (0.3, 0.1, -0.1) -> (0.2, 0, -0.2)
    cons3 = make_constraints(4, 3, [[0], [1], [2]], epsilon=0.1)
    u3 = np.array(
        [
            [0.3, -0.3, -0.3],
            [-0.1, 0.4, -0.2],
            [-0.2, -0.3, 0.5],
            [0.3, 0.1, -0.1],
        ]
    )
    out3 = project_constraints(u3, cons3)
    assert out3[3] == pytest.approx([0.2, 0.0, -0.2], abs=1e-15)


def test_projection_leaves_satisfying_values_alone():
    cons = make_constraints(2, 2, [[0], [1]], epsilon=0.1)
    u = np.array([[0.7, -0.3], [-0.4, 0.2]])
    assert np.array_equal(project_constraints(u, cons), u)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    n_classes=st.integers(2, 5),
)
@example(seed=1261, n=16, n_classes=5)  # 1.25 ulps of its largest entry
def test_projection_properties(seed, n, n_classes):
    assume(n >= n_classes)
    gen = np.random.default_rng(seed)
    cons = random_constraints(gen, n, n_classes)
    u = gen.normal(scale=3.0, size=(n, n_classes))
    once = project_constraints(u, cons)
    twice = project_constraints(once, cons)
    # idempotent up to the rounding of each unlabeled row's mean, which
    # scales with the largest entry
    bound = 2 * np.spacing(max(1.0, np.abs(once).max()))
    assert np.max(np.abs(twice - once)) <= bound
    # seed margins hold exactly
    for k, idx in enumerate(cons.labeled):
        assert np.all(once[idx, k] >= cons.epsilon)
        others = [kk for kk in range(n_classes) if kk != k]
        assert np.all(once[np.ix_(idx, others)] <= -cons.epsilon)
    # unlabeled rows sum to zero
    unl = cons.unlabeled_nodes
    if unl.size:
        assert np.max(np.abs(once[unl].sum(axis=1))) <= 1e-12
    assert constraint_violation(once, cons) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    n_classes=st.integers(2, 14),
    fortran=st.booleans(),
)
def test_projection_matches_reference_oracle(seed, n, n_classes, fortran):
    # in-place class-major projection (mean over every node, seed entries
    # written after) against the copying one, bit for bit; both add the
    # classes left to right at every class count, signed zeros and ties
    # are planted
    assume(n >= n_classes)
    gen = np.random.default_rng(seed)
    cons = random_constraints(gen, n, n_classes)
    u = gen.normal(size=(n, n_classes)) * 10.0 ** gen.integers(-6, 6, (n, 1))
    rows = gen.integers(0, n, size=3)
    u[rows[0]] = -0.0
    u[rows[1], :2] = [0.0, -0.0]
    u[rows[2]] = u[rows[2], 0]
    u[gen.random(u.shape) < 0.1] = cons.epsilon
    if fortran:
        u = np.asfortranarray(u)
    given_u = u.copy()
    out = project_constraints(u, cons)
    assert same_bits(out, reference_project_constraints(u, cons))
    assert out.flags.c_contiguous
    assert same_bits(u, given_u)  # the input is never written


@pytest.mark.parametrize("n_classes", [9, 14])
def test_projection_adds_classes_left_to_right(n_classes):
    # the unlabeled row's sum depends on the order of addition: left to
    # right, 1e16 + 1 rounds to 1e16, which -1e16 then cancels, so the sum
    # is L - 3; numpy's pairwise summation gives another value
    cons = make_constraints(n_classes + 1, n_classes, [[k] for k in range(n_classes)])
    row = np.ones(n_classes)
    row[[0, 2]] = [1e16, -1e16]
    u = np.zeros((n_classes + 1, n_classes))
    u[-1] = row
    out = project_constraints(u, cons)
    assert same_bits(out[-1], row - (n_classes - 3) / n_classes)
    assert same_bits(out, reference_project_constraints(u, cons))


# ------------------------------------------------------------------- state


def test_initialize_state_two_seeds_pinned():
    graph = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cons = make_constraints(2, 2, [[0], [1]], epsilon=0.1)
    u = initialize_state(graph, cons)
    # seed rows +-1, Frobenius norm 2 -> entries +-0.5, clear of the 0.1 margins
    assert np.array_equal(u, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_initialize_state_deterministic(rng):
    graph = random_connected_graph(rng, 15)
    cons = make_constraints(15, 2, [[0], [1]], epsilon=0.1)
    assert same_bits(initialize_state(graph, cons), initialize_state(graph, cons))


@pytest.mark.parametrize("n_classes", [2, 3])
def test_initialize_state_matches_dense_harmonic_oracle(rng, n_classes):
    for n in (6, 11, 20, 35):
        graph = random_connected_graph(rng, n)
        cons = random_constraints(rng, n, n_classes)
        u = initialize_state(graph, cons)
        expected = project_constraints(dense_harmonic_extension(graph, cons), cons)
        assert np.max(np.abs(u - expected)) <= 1e-10


def test_initialize_state_validates():
    graph = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ShapeMismatchError):
        initialize_state(graph, make_constraints(3, 2, [[0], [1]]))
    with pytest.raises(EmptyClassError, match="class 1 has no seeds"):
        make_constraints(2, 2, [[0], []])


@pytest.mark.parametrize("n_classes", [2, 3])
def test_initialize_state_takes_epsilon_only_from_the_projection(rng, n_classes):
    # the extension is linear in the seed rows, so they sit at +-1 and the
    # margin enters only through the projection: the unlabeled rows are the
    # same bytes at every margin, and no margin is too small to normalize
    graph = random_connected_graph(rng, 20)
    labeled = random_constraints(rng, 20, n_classes).labeled
    unlabeled_rows = []
    for eps in (1e-300, 1e-16, 0.1, 1.0):
        cons = make_constraints(20, n_classes, labeled, epsilon=eps)
        u = initialize_state(graph, cons)
        lab = cons.labeled_nodes
        own = u[lab, cons.own_class[lab]]
        assert (own >= eps).all()
        assert (np.sort(u[lab], axis=1)[:, :-1] <= -eps).all()
        unlabeled_rows.append(u[cons.unlabeled_nodes])
    assert all(same_bits(rows, unlabeled_rows[0]) for rows in unlabeled_rows)


def test_constraints_reject_overlapping_seed_sets():
    with pytest.raises(ValueError):
        make_constraints(3, 2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        LabelConstraints(
            n=3, n_classes=2,
            labeled=[np.array([0]), np.array([1])], epsilon=0.0,
        )


# -------------------------------------------------------------- inner loop


def test_inner_loop_preserves_its_own_fixed_point():
    # fully labeled problem: the feasible anchor has surrogate value 0, so
    # the point the loop settles on must not lie above it
    graph = triangles_bridge()
    cons = make_constraints(6, 2, [[0, 1, 2], [3, 4, 5]], epsilon=0.1)
    op = NormalizedGradient(graph)
    config = SolverConfig(inner_tol=1e-12, inner_max=20000)
    anchor = initialize_state(graph, cons)
    settled, *_ = inner_solve(anchor, op, cons, config)
    assert surrogate_objective(op, settled, anchor) <= 1e-12


def test_inner_loop_beats_random_feasible_candidates(rng):
    # random 6-node problem: the returned point must have a model value no
    # worse than 1000 random feasible candidates (random-search oracle)
    graph = random_connected_graph(rng, 6)
    cons = make_constraints(6, 2, [[0], [3]], epsilon=0.1)
    op = NormalizedGradient(graph)
    config = SolverConfig(inner_tol=1e-12, inner_max=6000)
    anchor = initialize_state(graph, cons)
    u, *_ = inner_solve(anchor, op, cons, config)
    achieved = surrogate_objective(op, u, anchor)

    best = np.inf
    for _ in range(1000):
        cand = project_constraints(
            anchor + rng.normal(scale=rng.uniform(0.01, 2.0), size=anchor.shape),
            cons,
        )
        best = min(best, surrogate_objective(op, cand, anchor))
    assert achieved <= best + 1e-9
    # the anchor itself is feasible with value 0, so the minimum is <= 0
    assert achieved <= 1e-12


def test_inner_loop_flags_non_finite_state(rng):
    graph = random_connected_graph(rng, 8)
    cons = make_constraints(8, 2, [[0], [4]], epsilon=0.1)
    op = NormalizedGradient(graph)
    anchor = initialize_state(graph, cons)
    anchor[2, 0] = np.nan
    with pytest.raises(NonFiniteError) as info:
        inner_solve(anchor, op, cons, SolverConfig())
    assert info.value.iteration >= 1


# The loop builds its whole state from the anchor: v is its class-major
# copy, u and its extrapolation u_tilde start as copies of v, and z starts
# as clip(K anchor).  Each case hands it an anchor of another class layout
# that would reach the named array ("u_extrapolated" is u_tilde).
MISSHAPEN_ANCHORS = {
    "u": lambda a: np.hstack([a, a[:, :1]]),  # one class more
    "u_extrapolated": lambda a: a[:, :1],  # one class fewer
    "v": lambda a: a[:, 0],  # no class axis; would broadcast against coeff
    "z": lambda a: a.T,  # classes on the node axis; K a would fail in scipy
}


@pytest.mark.parametrize("field", list(MISSHAPEN_ANCHORS))
def test_inner_loop_rejects_state_of_other_class_count(rng, field):
    # a misshapen anchor must not be projected with the 2-class seed indices
    op, cons, anchor = random_inner_problem(rng, 12, 2)
    bad = np.ascontiguousarray(MISSHAPEN_ANCHORS[field](anchor))
    coeff = np.ones(bad.shape[-1])
    with pytest.raises(ShapeMismatchError, match="anchor shape"):
        _inner_loop(bad, op, cons, SolverConfig(inner_max=5), coeff)


def test_inner_loop_rejects_three_class_state_for_two_class_constraints(rng):
    op, _, anchor = random_inner_problem(rng, 12, 3)
    cons2 = random_constraints(rng, 12, 2)
    config = SolverConfig(inner_max=5)
    _, _, coeff = _ratio_terms(op, anchor)
    with pytest.raises(ShapeMismatchError):
        _inner_loop(anchor, op, cons2, config, coeff)
    with pytest.raises(ShapeMismatchError):  # the old loop failed the same way
        reference_inner_loop(anchor, op, cons2, config, coeff)


def oracle_case(n_classes, drive, stop, seeding):
    """A seeded inner problem and a config that stops on ``stop``."""
    n = 6 * n_classes + (seeding != "all")
    per = {"one": 1, "most": 6, "all": 6}[seeding]
    rng = np.random.default_rng(
        [n_classes, int(10 * drive), int(stop == "tol"), per, n]
    )
    op, cons, anchor = random_inner_problem(rng, n, n_classes, per=per)
    if stop == "tol":
        config = SolverConfig(inner_tol=1e-3, inner_max=5000)
    else:
        config = SolverConfig(inner_tol=1e-300, inner_max=60)
    return rng, op, cons, anchor, config


def assert_oracle_case(op, cons, anchor, config, stop, dual=None, drive=1.0):
    fused_out, ref_out = run_both_loops(anchor, op, cons, config, dual, drive)
    assert_loops_agree(fused_out, ref_out)
    iters = fused_out[1]
    assert (iters < config.inner_max) if stop == "tol" else (iters == config.inner_max)


# The drive axis scales the anchor's class ratios in the linear term, so
# at 0.3 the loops run where the total variation outweighs the drive.
@pytest.mark.parametrize("n_classes", [2, 3, 5, 9])
@pytest.mark.parametrize("drive", [1.0, 0.3])
@pytest.mark.parametrize("stop", ["tol", "cap"])
@pytest.mark.parametrize("seeding", ["one", "most", "all"])
def test_inner_loop_matches_reference_oracle(n_classes, drive, stop, seeding):
    # the fused in-place loop must repeat the whole-array loop's arithmetic
    # exactly; 9 classes cross numpy's pairwise-summation block
    _, op, cons, anchor, config = oracle_case(n_classes, drive, stop, seeding)
    assert_oracle_case(op, cons, anchor, config, stop, drive=drive)


@pytest.mark.parametrize("n_classes", [2, 3, 5, 9])
@pytest.mark.parametrize("drive", [1.0, 0.3])
@pytest.mark.parametrize("stop", ["tol", "cap"])
@pytest.mark.parametrize("seeding", ["one", "most", "all"])
@pytest.mark.parametrize("start", ["random", "previous"])
def test_inner_loop_matches_reference_oracle_from_warm_dual(
    n_classes, drive, stop, seeding, start
):
    # the same, with the dual started at a random point of the unit box or
    # at the last dual of the outer step that produced the anchor
    rng, op, cons, anchor, config = oracle_case(n_classes, drive, stop, seeding)
    if start == "random":
        dual = rng.uniform(-1.0, 1.0, size=(op.matrix.shape[0], n_classes))
    else:
        anchor, _, dual = outer_step(anchor, op, cons, config)
    assert_oracle_case(op, cons, anchor, config, stop, dual, drive)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    n_classes=st.sampled_from([2, 3, 5, 9]),
    inner_max=st.integers(1, 40),
    inner_tol=st.sampled_from([1e-8, 1e-2]),
    warm=st.booleans(),
)
def test_inner_loop_matches_reference_oracle_on_random_graphs(
    seed, n, n_classes, inner_max, inner_tol, warm
):
    assume(n >= n_classes)
    rng = np.random.default_rng(seed)
    op, cons, anchor = random_inner_problem(rng, n, n_classes)
    config = SolverConfig(inner_tol=inner_tol, inner_max=inner_max)
    dual = None
    if warm:
        dual = rng.uniform(-1.0, 1.0, size=(op.matrix.shape[0], n_classes))
    assert_loops_agree(*run_both_loops(anchor, op, cons, config, dual))


def mirrored_anchor(rng, cons):
    """A feasible two-class anchor whose class 1 is the negation of class 0."""
    a = rng.normal(size=cons.n)
    return project_constraints(np.column_stack([a, -a]), cons)


def mirrored_dual(rng, op):
    """A random two-class dual in the unit box, class 1 the negation of class 0."""
    d = rng.uniform(-1.0, 1.0, size=op.matrix.shape[0])
    return np.column_stack([d, -d])


@pytest.mark.parametrize("drive", [1.0, 0.3])
@pytest.mark.parametrize("stop", ["tol", "cap"])
@pytest.mark.parametrize("seeding", ["one", "most", "all"])
@pytest.mark.parametrize("start", ["cold", "mirrored", "previous"])
def test_mirrored_inner_loop_matches_reference_oracle(drive, stop, seeding, start):
    # a two-class loop whose anchor and dual are mirrored runs class 0
    # alone; widened back, it must repeat the full-width arithmetic exactly
    rng, op, cons, _, config = oracle_case(2, drive, stop, seeding)
    anchor = mirrored_anchor(rng, cons)
    dual = None
    if start == "mirrored":
        dual = mirrored_dual(rng, op)
    elif start == "previous":
        anchor, _, dual = outer_step(anchor, op, cons, config)
    assert_oracle_case(op, cons, anchor, config, stop, dual, drive)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    inner_max=st.integers(1, 40),
    inner_tol=st.sampled_from([1e-8, 1e-2]),
    warm=st.booleans(),
)
def test_mirrored_inner_loop_matches_reference_oracle_on_random_graphs(
    seed, n, inner_max, inner_tol, warm
):
    rng = np.random.default_rng(seed)
    op = NormalizedGradient(random_connected_graph(rng, n))
    cons = random_constraints(rng, n, 2)
    anchor = mirrored_anchor(rng, cons)
    config = SolverConfig(inner_tol=inner_tol, inner_max=inner_max)
    dual = mirrored_dual(rng, op) if warm else None
    assert_loops_agree(*run_both_loops(anchor, op, cons, config, dual))


def test_mirrored_loop_differs_only_in_the_sign_of_an_exact_zero(monkeypatch):
    # adjacent seeds 0 and 1 of one class have equal degree, so their
    # edge's gradient and dual stay exactly 0.0: the full-width loop
    # computes +0.0 in class 1 where the mirror writes -0.0.  The scores
    # and the gap keep their bits, and the solve's scores too.
    graph = cliques_graph([range(5), range(5, 10)], bridges=[(4, 5, 0.3)])
    cons = make_constraints(10, 2, [[0, 1], [8, 9]])
    op = NormalizedGradient(graph)
    anchor = initialize_state(graph, cons)
    config = SolverConfig(inner_tol=1e-300, inner_max=30)
    (u, iters, gap, converged, z), ref_out = run_both_loops(anchor, op, cons, config)
    ref_u, ref_iters, ref_gap, ref_converged, ref_z = ref_out
    assert (iters, converged) == (ref_iters, ref_converged)
    assert same_bits(u, ref_u) and same_bits(gap, ref_gap)
    assert np.array_equal(z, ref_z)
    assert z[0, 1] == 0.0
    prediction, _ = solve(graph, cons)
    monkeypatch.setattr(graphtv.solver, "_inner_loop", reference_inner_loop)
    assert same_bits(prediction.scores, solve(graph, cons)[0].scores)


class CountingCSR(sparse.csr_matrix):
    """A csr matrix that counts its products with a single vector."""

    vector_products = 0

    def __matmul__(self, other):
        if np.ndim(other) == 1:
            self.vector_products += 1
        return super().__matmul__(other)


def counting_operator(graph):
    """The graph's operator, its two matrices counting their vector products."""
    op = NormalizedGradient(graph)
    op.matrix = CountingCSR(op.matrix)
    op.adjoint_matrix = CountingCSR(op.adjoint_matrix)
    return op


def count_step_products(monkeypatch):
    """Make every K the solver scales for its dual steps count its products.

    Returns the list that collects those matrices, one per inner loop.
    """
    made = []
    certified = graphtv.solver._certified_steps

    def counting_steps(operator):
        tau, fwd_steps = certified(operator)
        made.append(CountingCSR(fwd_steps))
        return tau, made[-1]

    monkeypatch.setattr(graphtv.solver, "_certified_steps", counting_steps)
    return made


def vector_products(op, step_matrices):
    return (
        op.matrix.vector_products
        + op.adjoint_matrix.vector_products
        + sum(m.vector_products for m in step_matrices)
    )


@pytest.mark.parametrize(
    "start, per_iteration",
    [("mirrored", 2), ("seed_row", 4), ("dual", 4), ("coeff", 4)],
)
def test_two_class_loop_runs_one_class_only_when_mirrored(
    monkeypatch, start, per_iteration
):
    # one product per class and direction: a mirrored loop pays for class 0
    # alone, and any input that is not mirrored keeps the full-width path
    rng = np.random.default_rng(11)
    op = counting_operator(random_connected_graph(rng, 30))
    step_matrices = count_step_products(monkeypatch)
    cons = random_constraints(rng, 30, 2, per=3)
    anchor = mirrored_anchor(rng, cons)
    dual = mirrored_dual(rng, op)
    if start == "seed_row":
        anchor[cons.labeled[0][0]] = (0.5, -0.9)
    elif start == "dual":
        dual[0, 1] = -0.5 * dual[0, 0]
    _, _, coeff = _ratio_terms(op, anchor)
    if start == "coeff":  # a drive that is not mirrored
        coeff[1] *= 1.5
    config = SolverConfig(inner_tol=1e-300, inner_max=9)
    fused_out = _inner_loop(anchor, op, cons, config, coeff, dual)
    assert fused_out[1] == 9
    # nine iterations and one gap check, at the last: the mirrored check
    # takes one class-0 vector product, the full-width one an (m, 2) product
    checks = 1 if start == "mirrored" else 0
    assert vector_products(op, step_matrices) == per_iteration * 9 + checks
    ref_out = reference_inner_loop(anchor, op, cons, config, coeff, dual)
    assert_loops_agree(fused_out, ref_out)


def test_inner_loop_leaves_caller_arrays_alone(rng):
    # the loop swaps its own buffers; none of them may be the caller's
    # anchor or starting dual
    op, cons, anchor = random_inner_problem(rng, 15, 3)
    dual = rng.uniform(-1.0, 1.0, size=(op.matrix.shape[0], 3))
    before, dual_before = anchor.copy(), dual.copy()
    _, _, coeff = _ratio_terms(op, anchor)
    config = SolverConfig(inner_max=5)
    u, iters, _, _, z = _inner_loop(anchor, op, cons, config, coeff, dual)
    assert iters == 5
    assert same_bits(anchor, before) and same_bits(dual, dual_before)
    assert not np.shares_memory(u, anchor)
    assert not np.shares_memory(z, dual)


MISSHAPEN_DUALS = {
    "edge": lambda m, n_classes: (m + 1, n_classes),
    "class": lambda m, n_classes: (m, n_classes + 1),
    "transposed": lambda m, n_classes: (n_classes, m),
}


@pytest.mark.parametrize("field", list(MISSHAPEN_DUALS))
def test_inner_loop_rejects_dual_of_other_shape(rng, field):
    op, cons, anchor = random_inner_problem(rng, 12, 3)
    bad = np.zeros(MISSHAPEN_DUALS[field](op.matrix.shape[0], 3))
    _, _, coeff = _ratio_terms(op, anchor)
    with pytest.raises(ShapeMismatchError, match="dual shape"):
        _inner_loop(anchor, op, cons, SolverConfig(inner_max=5), coeff, bad)


@pytest.mark.parametrize("field", ["u", "v", "z"])
def test_inner_loop_reports_non_finite_at_reference_iteration(rng, field):
    # u: NaN at a free node of the anchor; v: NaN at a seed node, whose
    # row the projection rewrites; z: +inf at a free node, which
    # clip(K anchor) turns into a finite start dual
    op, cons, anchor = random_inner_problem(rng, 12, 2, per=2)
    seeds = np.concatenate(cons.labeled)
    free = np.setdiff1d(np.arange(12), seeds)
    if field == "u":
        anchor[free[0], 1] = np.nan
    elif field == "v":
        anchor[seeds[0], 1] = np.nan
    else:
        anchor[free[0], 1] = np.inf
        assert np.isfinite(np.clip(op.matrix @ anchor, -1.0, 1.0)).all()
    config = SolverConfig(inner_max=50)
    with np.errstate(all="ignore"):
        _, _, coeff = _ratio_terms(op, anchor)
    with pytest.raises(NonFiniteError) as fused_info:
        _inner_loop(anchor, op, cons, config, coeff)
    with pytest.raises(NonFiniteError) as ref_info:
        reference_inner_loop(anchor, op, cons, config, coeff)
    assert fused_info.value.iteration == ref_info.value.iteration


def primal_value(op, u, anchor, coeff):
    drive = np.sign(anchor) * coeff
    return (
        ((u - anchor) ** 2).sum() / 2.0
        - (drive * u).sum()
        + np.abs(op.matrix @ u).sum()
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    n_classes=st.sampled_from([2, 3, 5]),
    inner_max=st.integers(1, 80),
)
def test_inner_gap_is_non_negative_at_every_check(seed, n, n_classes, inner_max):
    # weak duality: every feasible primal value bounds every dual value
    # from above, so the gap reported at the last iteration (always a
    # check) is non-negative up to rounding
    assume(n >= n_classes)
    op, cons, anchor = random_inner_problem(np.random.default_rng(seed), n, n_classes)
    config = SolverConfig(inner_tol=1e-300, inner_max=inner_max)
    _, _, coeff = _ratio_terms(op, anchor)
    u, iters, gap, *_ = _inner_loop(anchor, op, cons, config, coeff)
    # the loop starts at the anchor, which can be optimal already: only a
    # gap that rounds to <= 0 may then stop it before the cap
    assert iters == inner_max or gap <= 0.0
    assert gap >= -1e-10 * (1.0 + abs(primal_value(op, u, anchor, coeff)))


@pytest.mark.parametrize("inner_max", [1, 10, 57])
def test_inner_gap_matches_dense_oracle(rng, inner_max):
    graph = random_connected_graph(rng, 15)
    op = NormalizedGradient(graph)
    cons = random_constraints(rng, 15, 3, per=2)
    u0 = initialize_state(graph, cons)
    anchor = project_constraints(u0 + 0.1 * rng.normal(size=u0.shape), cons)
    config = SolverConfig(inner_tol=1e-300, inner_max=inner_max)
    fused_out, ref_out = run_both_loops(anchor, op, cons, config)
    assert_loops_agree(fused_out, ref_out)
    u, _, gap, _, z = fused_out
    _, _, coeff = _ratio_terms(op, anchor)
    primal, last_gap = dense_duality_gap(graph, cons, u, z, anchor, coeff)
    assert primal == pytest.approx(primal_value(op, u, anchor, coeff), rel=1e-12)
    if inner_max == 1:
        # one iterate: the dual average is the last dual iterate
        assert gap == pytest.approx(last_gap, rel=1e-10, abs=1e-13)
    else:
        # the loop takes the better of the last and the averaged dual
        assert gap <= last_gap + 1e-12
    assert gap >= -1e-12


# -------------------------------------------------------------- outer step


def test_outer_step_decreases_on_bridged_triangles():
    graph = triangles_bridge(0.1)
    cons = make_constraints(6, 2, [[0], [3]], epsilon=0.1)
    op = NormalizedGradient(graph)
    config = SolverConfig()
    u = initialize_state(graph, cons)
    before = _ratio_terms(op, u)[2].sum()
    u, record, _ = outer_step(u, op, cons, config)
    assert record.sum_ratios <= before + 1e-9
    # per-class pre-shift certificate
    assert min(record.decrease_slack) >= -1e-9
    # carried state is renormalized and feasible
    assert np.linalg.norm(project_constraints(u, cons) - u) <= 1e-12
    assert record.wall_ms >= 0.0


def test_outer_step_leaves_its_input_alone(rng):
    # solve rolls a rejected step back to the matrix it passed in, uncopied
    graph = random_connected_graph(rng, 14)
    cons = make_constraints(14, 2, [[0], [7]], epsilon=0.1)
    op = NormalizedGradient(graph)
    u = initialize_state(graph, cons)
    before = u.copy()
    u_new, *_ = outer_step(u, op, cons, SolverConfig())
    assert same_bits(u, before)
    assert not np.shares_memory(u_new, u)


def test_outer_record_flags_inner_cap(rng):
    graph = random_connected_graph(rng, 14)
    cons = make_constraints(14, 2, [[0], [7]], epsilon=0.1)
    op = NormalizedGradient(graph)
    u = initialize_state(graph, cons)
    _, capped, _ = outer_step(u, op, cons, SolverConfig(inner_max=3))
    assert capped.inner_iters == 3 and capped.hit_cap is True
    _, settled, _ = outer_step(
        u, op, cons, SolverConfig(inner_tol=1e-2, inner_max=100000)
    )
    assert settled.inner_iters < 100000 and settled.hit_cap is False
    # meeting the gap test on the last allowed iteration is not a cap hit
    _, exact, _ = outer_step(
        u, op, cons,
        SolverConfig(inner_tol=1e-2, inner_max=settled.inner_iters),
    )
    assert exact.inner_iters == settled.inner_iters and exact.hit_cap is False


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 30),
    inner_max=st.sampled_from([3, 40, 2000]),
)
def test_summed_decrease_slack_is_at_least_minus_gap(seed, n, inner_max):
    # the anchor is feasible with surrogate value 0, so P(u) <= gap and the
    # summed slack, which is at least -P(u), is at least -gap at any iterate
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, n)
    cons = random_constraints(rng, n, 2)
    op = NormalizedGradient(graph)
    u = initialize_state(graph, cons)
    _, record, _ = outer_step(u, op, cons, SolverConfig(inner_max=inner_max))
    assert sum(record.decrease_slack) >= -record.gap - 1e-12


def test_outer_step_record_ratios_match_carried_state(rng):
    graph = random_connected_graph(rng, 14)
    cons = make_constraints(14, 2, [[0], [7]], epsilon=0.1)
    op = NormalizedGradient(graph)
    u, record, _ = outer_step(initialize_state(graph, cons), op, cons, SolverConfig())
    again = _ratio_terms(op, u)[2]
    assert record.ratios == pytest.approx(again, rel=1e-12)
    assert record.sum_ratios == pytest.approx(sum(again), rel=1e-12)


# ------------------------------------------------------------- step sizing


def weakened_edge_graph(rng, n, factor):
    """A random connected graph with one edge ``factor`` times its weight."""
    w = random_connected_graph(rng, n).csr.toarray()
    rows, cols = np.nonzero(np.triu(w, k=1))
    e = int(rng.integers(rows.size))
    w[rows[e], cols[e]] *= factor
    w[cols[e], rows[e]] = w[rows[e], cols[e]]
    return from_dense(w)


@pytest.mark.parametrize("factor", [1.0, 1e-9, 1e-200])
@pytest.mark.parametrize("seed", range(8))
def test_certified_steps_meet_the_preconditioned_norm_bound(seed, factor):
    # Pock & Chambolle's Lemma 2: with edge e's dual step sigma_e, the
    # scaled operator diag(sqrt(sigma)) K sqrt(tau) has squared norm at
    # most 0.999, also next to an edge many orders weaker than the rest
    rng = np.random.default_rng(seed)
    graph = weakened_edge_graph(rng, int(rng.integers(4, 30)), factor)
    tau, fwd_steps = _certified_steps(NormalizedGradient(graph))
    assert math.isfinite(tau) and tau > 0
    dense = dense_gradient(graph)
    steps = fwd_steps.toarray()
    assert np.abs(steps).max() <= 1.0
    assert np.array_equal(steps != 0, dense != 0)  # the pattern of K
    # every entry of a row is K's times the row's own step
    sigma = np.abs(steps).sum(axis=1) / np.abs(dense).sum(axis=1)
    assert np.allclose(steps, sigma[:, None] * dense, rtol=1e-15, atol=0.0)
    scaled = np.sqrt(sigma)[:, None] * dense * math.sqrt(tau)
    norm = np.linalg.svd(scaled, compute_uv=False)[0]
    assert norm**2 <= 0.999 * (1 + 1e-12)


def test_certified_steps_are_tight_on_one_edge():
    # K = [1, -1] on one edge, where Lemma 2 holds with equality: the
    # scaled squared norm, 2 * 0.4995 * tau, is 0.999 itself, not below it
    op = NormalizedGradient(from_dense([[0.0, 3.0], [3.0, 0.0]]))
    tau, fwd_steps = _certified_steps(op)
    assert tau == 1.0
    assert np.array_equal(fwd_steps.toarray(), [[0.4995, -0.4995]])


def test_zero_row_of_k_takes_step_zero_and_solves_finite():
    # two triangles of weight 1e300 joined by an edge of weight 1e-30: both
    # entries of that edge's row of K, 1e-30 / 2e300, underflow to zero
    w = np.zeros((6, 6))
    for i, j, weight in [(0, 1, 1e300), (0, 2, 1e300), (1, 2, 1e300),
                         (3, 4, 1e300), (3, 5, 1e300), (4, 5, 1e300),
                         (2, 3, 1e-30)]:
        w[i, j] = w[j, i] = weight
    graph = from_dense(w)
    op = NormalizedGradient(graph)
    zero_rows = np.flatnonzero(abs(op.matrix).max(axis=1).toarray().ravel() == 0)
    assert zero_rows.size == 1
    cons = make_constraints(6, 2, [[0], [5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tau, fwd_steps = _certified_steps(op)
        prediction, _ = solve(graph, cons)
    assert np.isfinite(fwd_steps.data).all() and math.isfinite(tau)
    assert not fwd_steps[zero_rows].toarray().any()
    assert np.isfinite(prediction.scores).all()
    assert np.array_equal(prediction.labels, [0, 0, 0, 1, 1, 1])


def test_moons_solve_inner_iterations_stay_low():
    # every edge steps by its own row of K, not by the worst one: the three
    # seed partitions of the 2000-node moons benchmark take 640 inner
    # iterations in all (one scalar step for every edge took 2420), and no
    # solve draws a random number, so the count repeats exactly
    features, truth = synth_two_moons(2000, 0.2, 0)
    graph = build_knn_graph(features, KernelSpec(k=10))
    total = 0
    for fraction, seed in [(0.02, 0), (0.05, 1), (0.10, 2)]:
        cons, _ = make_partition(truth, 2, fraction, seed)
        _, trace = solve(graph, cons)
        steps = every_step(trace)
        assert not any(r.hit_cap for r in steps)
        total += sum(r.inner_iters for r in steps)
    assert total <= 1000


def test_solve_draws_no_random_numbers(monkeypatch):
    # the steps come from arithmetic on K, not from a seeded estimate
    def no_rng(*args, **kwargs):
        raise AssertionError("solve drew from numpy.random")

    graph, _ = synth_sbm((8, 8), 0.8, 0.1, 1)
    cons = make_constraints(16, 2, [[0], [8]], epsilon=0.1)
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    prediction, trace = solve(graph, cons)
    assert trace.records
    assert np.array_equal(prediction.labels, [0] * 8 + [1] * 8)


# ------------------------------------------------------------------- solve


def test_solve_disconnected_cliques():
    graph = cliques_graph([range(5), range(5, 10)])
    cons = make_constraints(10, 2, [[0], [5]], epsilon=0.1)
    prediction, trace = solve(graph, cons)
    assert np.array_equal(prediction.labels, [0] * 5 + [1] * 5)
    assert not np.any(prediction.tie_flag)
    assert trace.stop_reason != "budget"


def test_solve_fully_labeled_reproduces_labels():
    graph = triangles_bridge()
    cons = make_constraints(6, 2, [[0, 1, 2], [3, 4, 5]], epsilon=0.1)
    prediction, _ = solve(graph, cons)
    assert np.array_equal(prediction.labels, [0, 0, 0, 1, 1, 1])


def test_solve_k3_k4_handles_tied_diffusion_blocks():
    # odd node count with exactly tied majority-clique values: the median
    # shift inside a step can zero out the larger clique; the descent must
    # not accept that step
    graph = cliques_graph([(0, 1, 2), (3, 4, 5, 6)], [(2, 3, 0.1)])
    cons = make_constraints(7, 2, [[0], [3]], epsilon=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoProgressWarning)
        prediction, _ = solve(graph, cons)
    assert np.array_equal(prediction.labels, [0, 0, 0, 1, 1, 1, 1])
    assert not np.any(prediction.tie_flag)


def test_solve_warns_when_first_step_stagnates():
    graph = cliques_graph([(0, 1, 2), (3, 4, 5, 6)], [(2, 3, 0.1)])
    cons = make_constraints(7, 2, [[0], [3]], epsilon=0.1)
    with pytest.warns(NoProgressWarning):
        prediction, trace = solve(graph, cons)
    assert trace.stop_reason == "no_decrease"
    assert trace.records == []
    assert same_bits(prediction.scores, initialize_state(graph, cons))
    # the rolled-back step stays visible: it is the cold first step
    u = initialize_state(graph, cons)
    _, record, _ = outer_step(u, NormalizedGradient(graph), cons, SolverConfig())
    assert record_fields(trace.rejected_step) == record_fields(record)


def test_solve_deterministic(rng):
    graph, truth = synth_sbm((8, 8), 0.8, 0.1, 5)
    cons = make_constraints(16, 2, [[0, 1], [8, 9]], epsilon=0.1)
    pred_a, trace_a = solve(graph, cons)
    pred_b, trace_b = solve(graph, cons)
    assert np.array_equal(pred_a.scores, pred_b.scores)
    assert np.array_equal(pred_a.labels, pred_b.labels)
    assert trace_a.stop_reason == trace_b.stop_reason
    assert [r.sum_ratios for r in trace_a.records] == [
        r.sum_ratios for r in trace_b.records
    ]


def test_solve_seed_labels_always_kept(rng):
    for trial in range(5):
        graph, truth = synth_sbm(
            (6, 6, 6), 0.9, 0.1, 100 + trial
        )
        cons = make_constraints(18, 3, [[0], [6], [12]], epsilon=0.1)
        prediction, _ = solve(graph, cons)
        assert prediction.labels[0] == 0
        assert prediction.labels[6] == 1
        assert prediction.labels[12] == 2


def test_solve_recorded_sums_non_increasing(rng):
    graph, _ = synth_sbm((10, 10), 0.7, 0.08, 21)
    cons = make_constraints(20, 2, [[0, 1], [10, 11]], epsilon=0.1)
    _, trace = solve(graph, cons)
    sums = [sum(trace.initial_ratios)] + [r.sum_ratios for r in trace.records]
    assert all(b <= a + 1e-7 for a, b in zip(sums, sums[1:]))
    for record in trace.records:
        assert all(np.isfinite(record.ratios))
        assert all(r >= 0.0 for r in record.ratios)


def resolved(trace, inner_tol):
    """Per kept step: is its ratio-sum decrease within the outer stop bound?"""
    sums = [sum(trace.initial_ratios)] + [r.sum_ratios for r in trace.records]
    return [before - after <= inner_tol * before
            for before, after in zip(sums, sums[1:])]


def test_solve_budget_stop_reason(monkeypatch):
    # the first step lowers the sum by about 60%, far above the stop bound
    graph = triangles_bridge()
    cons = make_constraints(6, 2, [[0], [3]], epsilon=0.1)
    monkeypatch.setattr(graphtv.solver, "OUTER_MAX", 1)
    config = SolverConfig()
    _, trace = solve(graph, cons, config)
    assert trace.stop_reason == "budget"
    assert len(trace.records) == 1
    assert resolved(trace, config.inner_tol) == [False]
    assert trace.rejected_step is None


@pytest.mark.parametrize(
    "config, kept",
    [(SolverConfig(), 3), (SolverConfig(inner_tol=1.0), 1)],
    ids=["default", "inner_tol=1"],
)
def test_solve_tol_stop_reason(config, kept):
    # the loop stops on the first kept step whose decrease is at most
    # inner_tol times the sum before it; at inner_tol = 1 every kept step's
    # decrease is, since ratios are non-negative
    graph = triangles_bridge()
    cons = make_constraints(6, 2, [[0], [3]], epsilon=0.1)
    _, trace = solve(graph, cons, config)
    assert trace.stop_reason == "tol"
    assert len(trace.records) == kept
    assert resolved(trace, config.inner_tol) == [False] * (kept - 1) + [True]
    assert trace.rejected_step is None


def moons_instance(noise=0.2):
    """300 two-moons points, k = 10, 10% seeds: three kept steps.

    At the default noise the fourth step is rolled back; at noise 0.15 the
    outer stop ends the solve, and steps chained past it keep lowering the
    ratio sum.
    """
    features, truth = synth_two_moons(300, noise, 0)
    graph = build_knn_graph(features, KernelSpec(10))
    constraints, _ = make_partition(truth, 2, 0.1, 0)
    return graph, constraints


def two_moons_400(outlier=False):
    """400 two-moons points, k = 10, and their truth.

    With ``outlier`` a 401st point, truth 1, sits two bandwidths right of
    the rightmost point, so it is weakly attached.
    """
    features, truth = synth_two_moons(400, 0.1, 0)
    x = features.values
    if outlier:
        # the auto bandwidth: the mean distance to the ceil(k/2)-th neighbour
        dist = np.linalg.norm(x[:, None] - x[None], axis=2)
        sigma = np.sort(dist, axis=1)[:, 5].mean()
        x = np.vstack([x, x[np.argmax(x[:, 0])] + [2.0 * sigma, 0.0]])
        truth = np.append(truth, 1)
    return build_knn_graph(x, KernelSpec(k=10)), truth


def record_fields(record):
    """An outer record's fields, less its wall-clock time."""
    fields = dataclasses.asdict(record)
    del fields["wall_ms"]
    return fields


def every_step(trace):
    """The kept records, then the rolled-back one if there is one."""
    steps = list(trace.records)
    if trace.rejected_step is not None:
        steps.append(trace.rejected_step)
    return steps


def test_solve_first_step_is_a_cold_outer_step(monkeypatch):
    graph, cons = moons_instance()
    monkeypatch.setattr(graphtv.solver, "OUTER_MAX", 1)
    config = SolverConfig()
    prediction, trace = solve(graph, cons, config)
    assert trace.stop_reason == "budget"
    u = initialize_state(graph, cons)
    u_new, record, _ = outer_step(u, NormalizedGradient(graph), cons, config)
    assert len(trace.records) == 1
    assert record_fields(trace.records[0]) == record_fields(record)
    assert same_bits(prediction.scores, u_new)


def test_carried_dual_saves_inner_iterations(monkeypatch):
    # no RNG is drawn, so both counts repeat exactly from run to run
    graph, cons = moons_instance()
    _, warm = solve(graph, cons)
    cold_step = outer_step
    monkeypatch.setattr(
        graphtv.solver, "outer_step", lambda *args, dual=None: cold_step(*args)
    )
    _, cold = solve(graph, cons)
    assert len(cold.records) > 1
    assert warm.records[0].inner_iters == cold.records[0].inner_iters
    assert sum(r.inner_iters for r in every_step(warm)) < sum(
        r.inner_iters for r in every_step(cold)
    )
    # a warm-started loop is certified by its gap like a cold one
    for record in warm.records:
        assert sum(record.decrease_slack) >= -record.gap


@pytest.mark.parametrize("outlier", [False, True], ids=["moons", "outlier"])
@pytest.mark.parametrize("fraction, seed", [(0.02, 0), (0.05, 1), (0.10, 2)])
def test_two_class_solve_matches_full_width_reference(
    monkeypatch, outlier, fraction, seed
):
    # every inner loop of a two-class solve runs class 0 alone, also from
    # the second step on at odd n, where the median shift leaves +0.0 in
    # both columns of one node; scores and records repeat the full-width
    # reference loop exactly
    graph, truth = two_moons_400(outlier)
    cons, _ = make_partition(truth, 2, fraction, seed)
    ops = []

    def operator(graph):
        ops.append(counting_operator(graph))
        return ops[-1]

    monkeypatch.setattr(graphtv.solver, "NormalizedGradient", operator)
    step_matrices = count_step_products(monkeypatch)
    prediction, trace = solve(graph, cons)
    steps = every_step(trace)
    assert len(step_matrices) == len(steps)
    assert len(steps) > 1
    if outlier:  # the median node of both columns, at +0.0
        zero = (prediction.scores == 0.0) & ~np.signbit(prediction.scores)
        assert zero.all(axis=1).any()
    # two per iteration, and one per gap check, which ends every loop
    checks = sum(-(-r.inner_iters // GAP_CHECK_EVERY) for r in steps)
    assert (
        vector_products(ops[0], step_matrices)
        == 2 * sum(r.inner_iters for r in steps) + checks
    )
    monkeypatch.setattr(graphtv.solver, "_inner_loop", reference_inner_loop)
    ref_prediction, ref_trace = solve(graph, cons)
    assert same_bits(prediction.scores, ref_prediction.scores)
    assert [record_fields(r) for r in steps] == [
        record_fields(r) for r in every_step(ref_trace)
    ]
    assert trace.stop_reason == ref_trace.stop_reason
    assert trace.initial_ratios == ref_trace.initial_ratios


@pytest.mark.parametrize("outlier", [False, True], ids=["moons", "outlier"])
def test_two_class_warm_start_matches_two_column_solve(outlier):
    # one CG column, negated, is the two-column solve bit for bit
    graph, truth = two_moons_400(outlier)
    cons, _ = make_partition(truth, 2, 0.05, 1)
    lab, unl = cons.labeled_nodes, cons.unlabeled_nodes
    u = np.full((graph.n, 2), -1.0)
    u[lab, cons.own_class[lab]] = 1.0
    rows = normalized_adjacency(graph)[unl]
    margins = u[lab] - u[lab].mean(axis=1, keepdims=True)
    u[unl] = diffusion_solve(rows[:, unl], rows[:, lab] @ margins, 1.0)
    expected = project_constraints(u / np.linalg.norm(u), cons)
    assert same_bits(initialize_state(graph, cons), expected)


def test_outer_stop_only_truncates():
    # the stop ends the descent early but changes none of the steps it keeps:
    # the kept records are a prefix of outer steps chained by hand, the
    # chain running on past the stop until a step raises the ratio sum
    graph, cons = moons_instance(noise=0.15)
    config = SolverConfig()
    _, trace = solve(graph, cons, config)
    op = NormalizedGradient(graph)
    u, dual = initialize_state(graph, cons), None
    chain, prev_sum = [], sum(trace.initial_ratios)
    while len(chain) < 10:
        u, record, dual = outer_step(u, op, cons, config, dual=dual)
        chain.append(record)
        if record.sum_ratios > prev_sum:
            break
        prev_sum = record.sum_ratios
    kept = len(trace.records)
    assert 1 < kept < len(chain)
    assert [record_fields(r) for r in trace.records] == [
        record_fields(r) for r in chain[:kept]
    ]
    assert resolved(trace, config.inner_tol) == [False] * (kept - 1) + [True]
    assert trace.stop_reason == "tol"
    assert trace.rejected_step is None
    for record in trace.records:
        assert sum(record.decrease_slack) >= -record.gap


def test_solve_weight_scale_invariance(rng):
    graph, _ = synth_sbm((9, 9), 0.8, 0.1, 31)
    scaled = Graph.from_csr(graph.csr * 7.3)
    cons = make_constraints(18, 2, [[0], [9]], epsilon=0.1)
    pred_a, _ = solve(graph, cons)
    pred_b, _ = solve(scaled, cons)
    assert np.array_equal(pred_a.labels, pred_b.labels)


def test_solve_raises_non_finite_with_partial_trace(monkeypatch):
    # certified steps keep every iterate of a finite start finite, so the
    # failure is injected: the second inner loop reports a non-finite iterate
    calls = []

    def fail_second_call(anchor, operator, constraints, config, coeff, dual=None):
        calls.append(dual)
        if len(calls) == 2:
            raise NonFiniteError("inner iterate is not finite", iteration=7)
        return _inner_loop(anchor, operator, constraints, config, coeff, dual)

    monkeypatch.setattr(graphtv.solver, "_inner_loop", fail_second_call)
    graph, _ = synth_sbm((6, 6), 0.8, 0.1, 1)
    cons = make_constraints(12, 2, [[0], [6]], epsilon=0.1)
    # the first step lowers the sum by about 60%, so the outer loop goes on
    with pytest.raises(NonFiniteError) as info:
        solve(graph, cons)
    assert info.value.iteration == 7
    trace = info.value.trace
    assert trace.initial_ratios  # partial trace is usable
    assert len(trace.records) == 1 and trace.stop_reason == "budget"
    # the first loop starts cold, the second from the first one's dual
    assert calls[0] is None and calls[1] is not None


# ------------------------------------------------------------- warm start


def test_warm_start_is_deterministic_and_feasible(rng):
    graph, _ = synth_sbm((10, 10), 0.7, 0.05, 3)
    cons = make_constraints(20, 2, [[0], [10]], epsilon=0.1)
    a = initialize_state(graph, cons)
    b = initialize_state(graph, cons)
    assert np.array_equal(a, b)
    assert constraint_violation(a, cons) <= 1e-12
    # unlabeled rows keep the zero class-sum coupling
    unl = cons.unlabeled_nodes
    assert np.max(np.abs(a[unl].sum(axis=1))) <= 1e-10


def test_seedless_component_is_returned_tied():
    # three disjoint K4s, the third without seeds: no class has any claim
    # on it, so its nodes come back tied with label 0, and one warning
    graph = cliques_graph([range(4), range(4, 8), range(8, 12)])
    cons = make_constraints(12, 2, [[0], [4]], epsilon=0.1)
    with pytest.warns(SeedlessComponentWarning, match="4 nodes") as record:
        prediction, _ = solve(graph, cons)
    assert len(record) == 1
    assert np.array_equal(prediction.labels, [0] * 4 + [1] * 4 + [0] * 4)
    assert prediction.tie_flag[8:].all() and not prediction.tie_flag[:8].any()
    assert np.all(prediction.scores[8:] == prediction.scores[8:, :1])
    # the warm start leaves the seedless block at zero as well
    assert np.all(initialize_state(graph, cons)[8:] == 0.0)


def test_warm_start_beats_random_init_on_weak_bridges():
    # the documented reason the warm start exists: from a random start the
    # descent gets stuck in a basin whose ratio is far above the planted cut
    graph = cliques_graph(
        [range(5), range(5, 10)], [(4, 5, 0.2), (0, 9, 0.1)]
    )
    cons = make_constraints(10, 2, [[0], [5]], epsilon=0.1)
    prediction, trace = solve(graph, cons)
    assert np.array_equal(prediction.labels, [0] * 5 + [1] * 5)


# ------------------------------------------------------------ ratio + ties


def test_ratio_pinned_values():
    graph = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    op = NormalizedGradient(graph)
    u = np.array([0.3, -0.8])
    columns = np.column_stack([[1.0, -1.0], graph.degrees, u, 3.0 * u, np.zeros(2)])
    _, _, r = _ratio_terms(op, columns)
    assert r[0] == pytest.approx(1.0)
    assert r[1] == pytest.approx(0.0, abs=1e-12)  # the degree vector
    assert r[3] == pytest.approx(r[2], rel=1e-12)  # scale invariance
    # a zero column hits the guard instead of dividing by zero
    assert r[4] == 0.0


def test_prediction_ties_break_to_smallest_index():
    scores = np.array([[0.5, 0.5, 0.1], [0.2, 0.7, 0.7], [0.1, 0.2, 0.9]])
    prediction = Prediction(scores)
    assert prediction.labels.tolist() == [0, 1, 2]
    assert prediction.tie_flag.tolist() == [True, True, False]
    near = np.array([[0.5, 0.5 - 1e-13], [0.5, 0.5 - 1e-11]])
    flagged = Prediction(near)
    assert flagged.tie_flag.tolist() == [True, False]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: at two classes and odd n the median re-centering "
    "sets the median node of each column to exactly 0, and a weakly attached "
    "node is the one that sits at that median, so it ends tied",
)
def test_near_isolated_node_keeps_its_warm_start_label():
    graph, truth = two_moons_400(outlier=True)
    node = graph.n - 1
    assert graph.degrees[node] < 0.02
    cons, _ = make_partition(truth, 2, 0.02, 0)
    assert initialize_state(graph, cons)[node].argmax() == 1
    prediction, _ = solve(graph, cons)
    assert not prediction.tie_flag[node]
    assert prediction.labels[node] == 1


# -------------------------------------------------------------------- I/O


def test_scores_csv_roundtrip(tmp_path, rng):
    scores = rng.normal(size=(17, 3))
    prediction = Prediction(scores)
    path = tmp_path / "scores.csv"
    write_scores_csv(path, prediction)
    back = read_scores_csv(path)
    assert np.array_equal(back.scores, prediction.scores)
    assert np.array_equal(back.labels, prediction.labels)
    assert np.array_equal(back.tie_flag, prediction.tie_flag)


_SCORES_HEAD = "node,score_0,score_1,label,tie\n"
_SCORES_ROW0 = "0,0.5,-0.5,0,0\n"


def test_scores_csv_skips_a_byte_order_mark(tmp_path):
    marked = tmp_path / "marked.csv"
    marked.write_text(_SCORES_HEAD + _SCORES_ROW0, encoding="utf-8-sig")
    back = read_scores_csv(marked)
    assert back.scores.tolist() == [[0.5, -0.5]]
    assert back.labels.tolist() == [0]


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("node,score_1,score_0,label,tie\n" + _SCORES_ROW0, 1),
        (_SCORES_HEAD, 2),
        (_SCORES_HEAD + "0,0.5,-0.5,0\n", 2),
        (_SCORES_HEAD + _SCORES_ROW0 + "x,0.5,-0.5,0,0\n", 3),
        (_SCORES_HEAD + _SCORES_ROW0 + "\n2,0.5,-0.5,0,0\n", 4),
        (_SCORES_HEAD + _SCORES_ROW0 + "1,nan,-0.5,0,0\n", 3),
        (_SCORES_HEAD + "0,0.5,-0.5,2,0\n", 2),
        (_SCORES_HEAD + _SCORES_ROW0 + "1,0.5,-0.5,0,7\n", 3),
        (_SCORES_HEAD + _SCORES_ROW0 + "1,0.5,-0.5,1,0\n", 3),
        (_SCORES_HEAD + _SCORES_ROW0 + "1,0.5,0.5,0,0\n", 3),
        ("node,score_0,label,tie\n0,0.5,0,0\n", 1),
    ],
    ids=[
        "empty", "bad-header", "header-only", "field-count", "non-int-node",
        "node-order", "nan-score", "label-range", "tie-range", "label-flipped",
        "tie-flipped", "one-score-column",
    ],
)
def test_read_scores_csv_errors_carry_line_numbers(tmp_path, text, line):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        read_scores_csv(path)
    assert info.value.line == line


def test_trace_json_schema(tmp_path):
    graph = triangles_bridge()
    cons = make_constraints(6, 2, [[0], [3]], epsilon=0.1)
    _, trace = solve(graph, cons)
    path = tmp_path / "trace.json"
    write_trace_json(path, trace)
    doc = json.loads(path.read_text())
    assert isinstance(doc, list) and doc
    for entry in doc:
        for key in (
            "ratios", "inner_iters", "hit_cap", "gap", "wall_ms"
        ):
            assert key in entry
        assert isinstance(entry["hit_cap"], bool)
