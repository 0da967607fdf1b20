"""Release gate: one test per shipping criterion, each with a wall-clock cap.

Every test prints a one-line PASS summary (visible under ``pytest -v -s``)
so a criterion can be quoted in release notes with its measured runtime.
"""

import itertools
import time
import warnings

import numpy as np
import pytest
from scipy import sparse

from graphtv import (
    Graph,
    KernelSpec,
    LabelConstraints,
    LabeledDataset,
    NormalizedGradient,
    SolverConfig,
    baseline_label_spreading,
    build_knn_graph,
    evaluate,
    make_partition,
    project_constraints,
    roc_auc,
    solve,
    stability_experiment,
    synth_sbm,
    synth_two_moons,
)
from graphtv.cli import RunConfig, main
from graphtv.datasets import write_labels_csv
from graphtv.errors import NoProgressWarning
from oracles import (
    constraint_violation,
    dense_gradient,
    pairwise_auc,
    random_connected_graph,
)


def _report(tag, wall, detail=""):
    print(f"[{tag}] PASS {detail} ({wall:.2f}s)")


# --------------------------------------------------------------------- A1


def test_a1_operators_match_dense_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        graph = random_connected_graph(rng, n)
        op = NormalizedGradient(graph)
        K = dense_gradient(graph)
        u = rng.normal(size=n)
        z = rng.normal(size=graph.num_edges)
        assert np.max(np.abs(op.matrix @ u - K @ u)) <= 1e-12
        assert np.max(np.abs(op.adjoint_matrix @ z - K.T @ z)) <= 1e-12
        lhs = float((op.matrix @ u) @ z)
        rhs = float(u @ (op.adjoint_matrix @ z))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
        assert np.abs(op.matrix @ graph.degrees).sum() <= 1e-12
    wall = time.perf_counter() - start
    assert wall < 5.0
    _report("A1", wall, "100 graphs, gradient/divergence/adjoint/nullspace")


# --------------------------------------------------------------------- A2


def test_a2_projection_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n_classes = int(rng.integers(2, 5))
        n = int(rng.integers(n_classes, 31))
        epsilon = float(rng.uniform(0.01, 0.5))
        perm = rng.permutation(n)
        per = max(1, n // (2 * n_classes))
        labeled = [perm[k * per:(k + 1) * per] for k in range(n_classes)]
        cons = LabelConstraints(
            n=n, n_classes=n_classes,
            labeled=[np.asarray(ix, dtype=np.int64) for ix in labeled],
            epsilon=epsilon,
        )
        u = rng.normal(size=(n, n_classes))
        p = project_constraints(u, cons)
        # idempotence
        assert np.max(np.abs(project_constraints(p, cons) - p)) <= 1e-15
        # seed margins hold exactly
        for k in range(n_classes):
            assert np.all(p[labeled[k], k] >= epsilon)
            other = [kk for kk in range(n_classes) if kk != k]
            assert np.all(p[np.ix_(labeled[k], other)] <= -epsilon)
        # unlabeled rows have zero class sum
        seeds = np.concatenate(labeled)
        unlabeled = np.setdiff1d(np.arange(n), seeds)
        if unlabeled.size:
            assert np.max(np.abs(p[unlabeled].sum(axis=1))) <= 1e-12
        assert constraint_violation(p, cons) <= 1e-12
    wall = time.perf_counter() - start
    assert wall < 5.0
    _report("A2", wall, "1000 random states")


# --------------------------------------------------------------------- A3


def test_a3_outer_steps_certified_decreasing():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    config = SolverConfig(inner_tol=1e-9, inner_max=4000)
    checked_steps = 0
    for inst in range(20):
        n_classes = 2 if inst % 2 == 0 else 3
        sizes = tuple(int(rng.integers(8, 61 // n_classes)) for _ in range(n_classes))
        graph, truth = synth_sbm(
            sizes,
            p_in=float(rng.uniform(0.5, 0.8)),
            p_out=float(rng.uniform(0.05, 0.12)),
            seed=int(rng.integers(1e6)),
        )
        n = truth.size
        cons, _ = make_partition(
            truth, n_classes,
            labeled_fraction=max(0.12, (n_classes + 1) / n),
            seed=int(rng.integers(1e6)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoProgressWarning)
            _, trace = solve(graph, cons, config)
        for record in trace.records:
            # per-class certificate of the anchored surrogate step
            assert min(record.decrease_slack) >= -1e-9
        sums = [sum(trace.initial_ratios)] + [r.sum_ratios for r in trace.records]
        for before, after in zip(sums, sums[1:]):
            assert after <= before + 1e-7
        checked_steps += len(trace.records)
    wall = time.perf_counter() - start
    assert wall < 60.0
    _report("A3", wall, f"20 SBMs, {checked_steps} certified outer steps")


# --------------------------------------------------------------------- A4


def _graph_from_edges(n, edges):
    rows, cols, vals = [], [], []
    for i, j, w in edges:
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    return Graph.from_csr(sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def _clique(nodes, w=1.0):
    return [(i, j, w) for i, j in itertools.combinations(nodes, 2)]


def _path(nodes, weights):
    nodes = list(nodes)
    return [(i, j, w) for (i, j), w in zip(zip(nodes, nodes[1:]), weights)]


def _star(center, leaves, w=1.0):
    return [(center, leaf, w) for leaf in leaves]


def _ring(n, weak_positions, weak=0.1):
    return [
        (min(i, (i + 1) % n), max(i, (i + 1) % n),
         weak if i in weak_positions else 1.0)
        for i in range(n)
    ]


def _exhaustive_ratio_cut(graph, cons):
    """Minimize TV(s)/||s||_1 over all +-1 labelings that respect the seeds."""
    K = dense_gradient(graph)
    fixed = {int(i): +1 for i in cons.labeled[0]}
    fixed.update({int(i): -1 for i in cons.labeled[1]})
    free = [i for i in range(graph.n) if i not in fixed]
    best_val, best_labels = np.inf, None
    s = np.empty(graph.n)
    for i, v in fixed.items():
        s[i] = v
    for bits in itertools.product((+1.0, -1.0), repeat=len(free)):
        for i, v in zip(free, bits):
            s[i] = v
        val = float(np.abs(K @ s).sum() / np.abs(s).sum())
        if val < best_val - 1e-12:
            best_val, best_labels = val, (s < 0).astype(int)
    return best_val, best_labels


_A4_BATTERY = [
    ("disjoint cliques 5+5", 10, _clique(range(5)) + _clique(range(5, 10)), [0], [5]),
    ("disjoint cliques 4+4", 8, _clique(range(4)) + _clique(range(4, 8)), [0], [4]),
    ("triangles, bridge 0.1", 6,
     _clique(range(3)) + _clique(range(3, 6)) + [(2, 3, 0.1)], [0], [3]),
    ("K4-K4, bridge 0.1", 8,
     _clique(range(4)) + _clique(range(4, 8)) + [(3, 4, 0.1)], [0], [4]),
    ("K5-K5, bridge 0.2", 10,
     _clique(range(5)) + _clique(range(5, 10)) + [(4, 5, 0.2)], [0], [5]),
    ("K5-K5, double bridge", 10,
     _clique(range(5)) + _clique(range(5, 10)) + [(4, 5, 0.1), (0, 9, 0.1)],
     [0], [5]),
    ("path-10, weak middle", 10,
     _path(range(10), [1, 1, 1, 1, 0.1, 1, 1, 1, 1]), [0], [9]),
    ("two stars, bridge 0.1", 12,
     _star(0, range(1, 6)) + _star(6, range(7, 12)) + [(0, 6, 0.1)], [1], [8]),
    ("ring-12, two weak links", 12, _ring(12, weak_positions={5, 11}), [3], [9]),
    ("K6-K6, bridge 0.3", 12,
     _clique(range(6)) + _clique(range(6, 12)) + [(5, 6, 0.3)], [0], [6]),
]


def test_a4_matches_exhaustive_ratio_cut():
    start = time.perf_counter()
    for name, n, edges, seeds0, seeds1 in _A4_BATTERY:
        graph = _graph_from_edges(n, edges)
        cons = LabelConstraints(
            n=n, n_classes=2,
            labeled=[np.asarray(seeds0), np.asarray(seeds1)],
        )
        _, oracle_labels = _exhaustive_ratio_cut(graph, cons)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoProgressWarning)
            prediction, _ = solve(graph, cons)
        assert np.array_equal(prediction.labels, oracle_labels), name
    wall = time.perf_counter() - start
    assert wall < 60.0
    _report("A4", wall, f"{len(_A4_BATTERY)} exhaustively verified bipartitions")


# --------------------------------------------------------------------- A5/A6


@pytest.fixture(scope="module")
def moons():
    features, truth = synth_two_moons(500, 0.1, seed=7)
    graph = build_knn_graph(features, KernelSpec(k=10))
    return graph, truth


def test_a5_synthetic_benchmarks(moons):
    start = time.perf_counter()
    graph, truth = moons
    ours, spread = [], []
    for pseed in (0, 1, 2):
        cons, _ = make_partition(truth, 2, 0.02, seed=pseed)
        prediction, _ = solve(graph, cons)
        ours.append(evaluate(prediction, truth, cons).accuracy)
        spread.append(
            evaluate(baseline_label_spreading(graph, cons), truth, cons).accuracy
        )
    mean_ours, mean_spread = np.mean(ours), np.mean(spread)
    assert mean_ours >= 0.85
    assert abs(mean_ours - mean_spread) <= 0.10

    graph2, truth2 = synth_sbm((50, 50), 0.5, 0.02, seed=11)
    cons2, _ = make_partition(truth2, 2, 0.02, seed=0)  # one seed per block
    prediction2, _ = solve(graph2, cons2)
    sbm_acc = evaluate(prediction2, truth2, cons2).accuracy
    assert sbm_acc >= 0.98

    wall = time.perf_counter() - start
    assert wall < 120.0
    _report(
        "A5", wall,
        f"moons acc={mean_ours:.3f} (spreading {mean_spread:.3f}), "
        f"sbm acc={sbm_acc:.3f}",
    )


def test_a6_partition_stability(moons):
    start = time.perf_counter()
    graph, truth = moons
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    fractions = [0.02, 0.05, 0.10, 0.15, 0.20]
    report = stability_experiment(dataset, fractions, [0, 1, 2])
    summary = report["summary"]
    assert all(summary[str(f)]["n_cells"] == 3 for f in fractions)
    assert summary["0.15"]["accuracy_std"] <= 0.03

    means = [summary[str(f)]["accuracy_mean"] for f in fractions]
    # the sweep trend is reported, not enforced: seeds are cheap insurance,
    # so more of them should not hurt, but tiny dips are in-noise
    dips = [
        (a, b) for a, b in zip(means, means[1:]) if b < a - 0.01
    ]
    trend = "non-decreasing" if not dips else f"dips at {dips}"
    wall = time.perf_counter() - start
    _report(
        "A6", wall,
        f"std@15%={summary['0.15']['accuracy_std']:.4f}, "
        f"sweep means={[round(m, 3) for m in means]} ({trend})",
    )


# --------------------------------------------------------------------- A7


def test_a7_cmd_solve_byte_determinism(tmp_path):
    start = time.perf_counter()
    graph_path = tmp_path / "g.gxg"
    truth_path = tmp_path / "t.csv"
    assert main([
        "synth", "sbm", "--sizes", "15,15", "--p-in", "0.6", "--p-out", "0.05",
        "--seed", "5", "--out-graph", str(graph_path),
        "--out-truth", str(truth_path),
    ]) == 0
    seeds = tmp_path / "seeds.csv"
    write_labels_csv(seeds, np.array([0, 2, 15, 20]), np.array([0, 0, 1, 1]))

    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["solve", "--graph", str(graph_path), "--labels", str(seeds)]
    assert main(args + ["--out-scores", str(first)]) == 0
    assert main(["solve", "--config", str(tmp_path / "a.config.json"),
                 "--out-scores", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # and the two resolved configs agree on everything but the output path
    rc_a = RunConfig.load(tmp_path / "a.config.json")
    rc_b = RunConfig.load(tmp_path / "b.config.json")
    assert rc_a.parameters == rc_b.parameters and rc_a.inputs == rc_b.inputs
    wall = time.perf_counter() - start
    _report("A7", wall, "replayed scores byte-identical")


# --------------------------------------------------------------------- A8


def test_a8_auc_matches_pairwise_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for inst in range(100):
        n = int(rng.integers(2, 201))
        scores = rng.normal(size=n)
        if inst % 3 == 0:
            scores = np.round(scores, 1)  # clustered ties
        if inst % 7 == 0:
            scores = rng.integers(0, 3, size=n).astype(float)  # heavy ties
        positives = rng.random(n) < rng.uniform(0.2, 0.8)
        if positives.all() or not positives.any():
            positives[0] = ~positives[0]
        gap = abs(roc_auc(scores, positives) - pairwise_auc(scores, positives))
        worst = max(worst, gap)
        assert gap <= 1e-12
    wall = time.perf_counter() - start
    _report("A8", wall, f"100 instances, worst |gap|={worst:.2e}")
