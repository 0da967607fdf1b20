"""AUC against the pairwise oracle, report assembly, spreading baseline."""

import json
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphtv.evaluation
from graphtv import (
    KernelSpec,
    LabelConstraints,
    LabeledDataset,
    SolverConfig,
    baseline_label_spreading,
    build_knn_graph,
    evaluate,
    make_partition,
    roc_auc,
    solve,
    stability_experiment,
    synth_sbm,
    synth_two_moons,
    write_report_csv,
)
from graphtv.errors import (
    DegenerateClassError,
    DegenerateClassWarning,
    InvalidExperimentError,
    ShapeMismatchError,
)
from graphtv.solver import Prediction
from graphtv.tables import write_json
from oracles import (
    cliques_graph,
    dense_label_spreading,
    pairwise_auc,
    random_connected_graph,
)


def make_constraints(n, n_classes, labeled, epsilon=0.1):
    return LabelConstraints(
        n=n,
        n_classes=n_classes,
        labeled=[np.asarray(ix, dtype=np.int64) for ix in labeled],
        epsilon=epsilon,
    )


# ----------------------------------------------------------------- roc_auc


def test_roc_auc_pinned_values():
    pos = np.array([True, True, False, False])
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), pos) == 1.0
    assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), pos) == 0.0
    # 3 of 4 pairs ranked correctly
    assert roc_auc(np.array([0.9, 0.3, 0.4, 0.1]), pos) == 0.75
    # all scores tied -> every pair half credit
    assert roc_auc(np.ones(4), pos) == 0.5


def test_roc_auc_needs_both_classes():
    with pytest.raises(DegenerateClassError):
        roc_auc(np.array([1.0, 2.0]), np.array([True, True]))
    with pytest.raises(DegenerateClassError):
        roc_auc(np.array([1.0, 2.0]), np.array([False, False]))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    dup=st.booleans(),
)
def test_roc_auc_matches_pairwise_oracle(seed, n, dup):
    gen = np.random.default_rng(seed)
    scores = gen.normal(size=n)
    if dup:  # force tied scores through a coarse grid
        scores = np.round(scores)
    positives = gen.random(n) < 0.5
    if positives.all() or not positives.any():
        positives[0] = ~positives[0]
    assert abs(roc_auc(scores, positives) - pairwise_auc(scores, positives)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_roc_auc_complement_symmetry(seed, n):
    gen = np.random.default_rng(seed)
    scores = np.round(gen.normal(size=n), 1)
    positives = gen.random(n) < 0.5
    if positives.all() or not positives.any():
        positives[0] = ~positives[0]
    total = roc_auc(scores, positives) + roc_auc(scores, ~positives)
    assert abs(total - 1.0) <= 1e-12


def test_roc_auc_invariant_under_monotone_transform(rng):
    scores = rng.normal(size=30)
    positives = rng.random(30) < 0.4
    positives[0], positives[1] = True, False
    base = roc_auc(scores, positives)
    assert roc_auc(np.exp(scores), positives) == pytest.approx(base, abs=1e-12)
    assert roc_auc(3.0 * scores + 11.0, positives) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_prediction():
    truth = np.array([0, 0, 0, 1, 1, 1])
    scores = np.where(
        np.arange(2)[None, :] == truth[:, None], 2.0, -2.0
    ) + 0.01 * np.arange(6)[:, None]
    cons = make_constraints(6, 2, [[0], [3]])
    report = evaluate(Prediction(scores), truth, cons)
    assert report.accuracy == 1.0
    assert report.per_class_auc == [1.0, 1.0]
    assert report.average_auc == 1.0
    assert report.n_eval == 4  # the two seeds are excluded


def test_evaluate_uniform_scores_all_half():
    truth = np.array([0, 0, 1, 1, 0, 1])
    cons = make_constraints(6, 2, [[0], [2]])
    report = evaluate(Prediction(np.zeros((6, 2))), truth, cons)
    assert report.per_class_auc == [0.5, 0.5]


def test_evaluate_matches_oracle_per_class(rng):
    n, L = 20, 3
    truth = rng.integers(0, L, n)
    truth[:3] = [0, 1, 2]
    scores = rng.normal(size=(n, L))
    cons = make_constraints(n, L, [[0], [1], [2]])
    report = evaluate(Prediction(scores), truth, cons)
    held = np.setdiff1d(np.arange(n), [0, 1, 2])
    for k in range(L):
        expect = pairwise_auc(scores[held, k], truth[held] == k)
        assert report.per_class_auc[k] == pytest.approx(expect, abs=1e-12)
    valid = [a for a in report.per_class_auc if a is not None]
    assert report.average_auc == pytest.approx(np.mean(valid), abs=1e-12)


def test_evaluate_ignores_seed_scores(rng):
    truth = np.array([0, 1] * 8)
    cons = make_constraints(16, 2, [[0, 2], [1, 3]])
    scores = rng.normal(size=(16, 2))
    base = evaluate(Prediction(scores), truth, cons)
    bumped = scores.copy()
    bumped[[0, 1, 2, 3]] += rng.normal(scale=50.0, size=(4, 2))
    after = evaluate(Prediction(bumped), truth, cons)
    assert after.accuracy == base.accuracy
    assert after.per_class_auc == base.per_class_auc


def test_evaluate_degenerate_class_excluded_with_warning(rng):
    # class 2 exists only as a seed, so the heldout set never contains it
    truth = np.array([0, 0, 0, 1, 1, 1, 2])
    cons = make_constraints(7, 3, [[0], [3], [6]])
    scores = rng.normal(size=(7, 3))
    with pytest.warns(DegenerateClassWarning):
        report = evaluate(Prediction(scores), truth, cons)
    assert report.per_class_auc[2] is None
    valid = [a for a in report.per_class_auc[:2]]
    assert report.average_auc == pytest.approx(np.mean(valid), abs=1e-12)


@pytest.mark.parametrize("stray", [2, -1])
def test_evaluate_rejects_truth_class_out_of_range(stray):
    # a truth class the scores do not cover would count as wrong and as a
    # negative in every AUC
    truth = np.array([0, 0, 0, 1, 1, stray])
    cons = make_constraints(6, 2, [[0], [3]])
    scores = np.zeros((6, 2))
    with pytest.raises(ValueError, match="truth contains a class id out of range"):
        evaluate(Prediction(scores), truth, cons)


# ---------------------------------------------------------------- baseline


def test_label_spreading_disjoint_cliques():
    graph = cliques_graph([range(4), range(4, 8)])
    cons = make_constraints(8, 2, [[0], [4]])
    prediction = baseline_label_spreading(graph, cons)
    assert prediction.labels.tolist() == [0] * 4 + [1] * 4


@pytest.mark.parametrize("n_classes", [2, 3])
def test_label_spreading_matches_dense_oracle(rng, n_classes):
    for n in (6, 11, 20, 35):
        graph = random_connected_graph(rng, n)
        labeled = np.array_split(rng.permutation(n)[: 2 * n_classes], n_classes)
        cons = make_constraints(n, n_classes, labeled)
        scores = baseline_label_spreading(graph, cons).scores
        expected = dense_label_spreading(graph, cons, 0.99)
        assert np.max(np.abs(scores - expected)) <= 1e-10


def test_label_spreading_returns_on_noisy_moons():
    # F <- alpha S F + (1 - alpha) Y mixes slowly on this graph: 1000 passes
    # stop short of 1e-9 on 4 of these 5 partitions; the exact solve must not
    features, truth = synth_two_moons(500, 0.2, seed=0)
    graph = build_knn_graph(features, KernelSpec(k=10))
    for seed in range(5):
        cons, _ = make_partition(truth, 2, 0.1, seed)
        prediction = baseline_label_spreading(graph, cons)
        assert evaluate(prediction, truth, cons).accuracy >= 0.9


# -------------------------------------------------------------- experiment


def test_stability_single_cell_matches_direct_composition():
    graph, truth = synth_sbm((12, 12), 0.7, 0.05, 9)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    config = SolverConfig()
    report = stability_experiment(dataset, [0.1], [4], config=config)
    assert len(report["cells"]) == 1
    cell = report["cells"][0]

    cons, part = make_partition(truth, 2, 0.1, 4)
    prediction, _ = solve(graph, cons, config)
    direct = evaluate(prediction, truth, cons)
    assert cell["accuracy"] == pytest.approx(direct.accuracy, abs=1e-15)
    assert cell["auc_mean"] == pytest.approx(direct.average_auc, abs=1e-15)
    summary = report["summary"]["0.1"]
    assert summary["n_cells"] == 1
    assert summary["accuracy_std"] == 0.0


def test_stability_validation():
    graph, truth = synth_sbm((6, 6), 0.8, 0.1, 0)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    with pytest.raises(InvalidExperimentError):
        stability_experiment(dataset, [], [1])
    with pytest.raises(InvalidExperimentError):
        stability_experiment(dataset, [0.1], [])
    with pytest.raises(InvalidExperimentError):
        stability_experiment(dataset, [0.1, 0.1], [1])
    smaller, _ = synth_sbm((5, 6), 0.8, 0.1, 0)
    with pytest.raises(ShapeMismatchError, match="graph"):
        LabeledDataset(truth=truth, n_classes=2, graph=smaller)


def test_stability_captures_cell_errors_and_continues():
    graph, truth = synth_sbm((10, 10), 0.8, 0.05, 2)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    # 0.01 of a 10-node class cannot seed both classes -> that cell errors
    report = stability_experiment(dataset, [0.05, 0.5], [0], config=SolverConfig())
    cells = {c["fraction"]: c for c in report["cells"]}
    assert "error" in cells[0.05]
    assert "accuracy" in cells[0.5]
    assert report["summary"]["0.05"]["n_cells"] == 0
    assert report["summary"]["0.5"]["n_cells"] == 1


def _grid_run(monkeypatch, cpus, *args):
    """Run a grid with ``cpus`` usable CPUs; returns the report and warnings."""
    monkeypatch.setattr(graphtv.evaluation, "_usable_cpus", lambda: cpus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = stability_experiment(*args)
    return report, [(w.category, str(w.message)) for w in caught]


def test_stability_output_does_not_depend_on_worker_count(monkeypatch):
    # fraction 1.0 seeds every node: its cell warns and has no accuracy
    graph, truth = synth_sbm((10, 10), 0.7, 0.05, 6)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    args = (dataset, [0.1, 1.0, 0.2], [0, 1])
    serial, serial_warnings = _grid_run(monkeypatch, 1, *args)
    pooled, pooled_warnings = _grid_run(monkeypatch, 2, *args)
    assert pooled == serial
    assert pooled_warnings == serial_warnings
    assert serial_warnings.count(
        (DegenerateClassWarning, "empty heldout set: every node is seeded")
    ) == 2


def test_stability_cells_carry_solve_counters():
    graph, truth = synth_sbm((12, 12), 0.7, 0.05, 9)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    [cell] = stability_experiment(dataset, [0.1], [4])["cells"]
    cons, _ = make_partition(truth, 2, 0.1, 4)
    _, trace = solve(graph, cons)
    # the rolled-back step's inner work counts, as `solve` logs it
    steps = trace.records + [trace.rejected_step] * (trace.rejected_step is not None)
    assert cell["stop_reason"] == trace.stop_reason
    assert cell["outer_steps"] == len(trace.records)
    assert cell["inner_iters"] == sum(r.inner_iters for r in steps)
    assert cell["inner_cap_hits"] == sum(r.hit_cap for r in steps)
    assert cell["first_step_rejected"] is (
        trace.rejected_step is not None and not trace.records
    )


def test_stability_logs_failed_cells_in_the_caller(monkeypatch, caplog):
    graph, truth = synth_sbm((10, 10), 0.8, 0.05, 2)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    monkeypatch.setattr(graphtv.evaluation, "_usable_cpus", lambda: 2)
    with caplog.at_level("WARNING", logger="graphtv.evaluation"):
        stability_experiment(dataset, [0.05, 0.5], [0, 1])
    failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert [m.split(":")[0] for m in failed] == [
        "cell fraction=0.05 seed=0 failed", "cell fraction=0.05 seed=1 failed",
    ]


def test_stability_leaves_no_worker_running(monkeypatch):
    graph, truth = synth_sbm((10, 10), 0.7, 0.05, 6)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    monkeypatch.setattr(graphtv.evaluation, "_usable_cpus", lambda: 2)
    stability_experiment(dataset, [0.1, 0.2], [0, 1])
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched solve reaches only forked workers",
)
def test_stability_raises_a_cell_crash_and_stops_every_worker(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("cell crashed")

    graph, truth = synth_sbm((10, 10), 0.7, 0.05, 6)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    monkeypatch.setattr(graphtv.evaluation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(graphtv.evaluation, "solve", crash)
    with pytest.raises(RuntimeError, match="cell crashed"):
        stability_experiment(dataset, [0.1, 0.2], [0, 1])
    assert multiprocessing.active_children() == []


def test_stability_pool_has_at_most_one_worker_per_cell(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(graphtv.evaluation, "ProcessPoolExecutor", SerialPool)
    graph, truth = synth_sbm((10, 10), 0.7, 0.05, 6)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    reports = []
    for cpus, workers in ((64, [6]), (4, [6, 4]), (1, [6, 4])):
        monkeypatch.setattr(graphtv.evaluation, "_usable_cpus", lambda: cpus)
        reports.append(stability_experiment(dataset, [0.1, 0.2], [0, 1, 2]))
        assert started == workers  # one CPU runs the cells in this process
    assert reports[0] == reports[2]


def test_non_monotone_warning_prints_plain_floats(caplog):
    features, truth = synth_two_moons(300, 0.1, 1)
    graph = build_knn_graph(features, KernelSpec(k=10))
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    with caplog.at_level("WARNING", logger="graphtv.evaluation"):
        report = stability_experiment(dataset, [0.02, 0.1], [0, 1, 2])
    [record] = [r for r in caplog.records if "not monotone" in r.getMessage()]
    means = {f: report["summary"][f]["accuracy_mean"] for f in ("0.02", "0.1")}
    assert record.getMessage().endswith(repr(means))
    assert "np.float64" not in record.getMessage()


def test_report_writers(tmp_path):
    graph, truth = synth_sbm((8, 8), 0.8, 0.05, 4)
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    report = stability_experiment(dataset, [0.2, 0.3], [0, 1])
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    write_json(jpath, report)
    write_report_csv(cpath, report)
    doc = json.loads(jpath.read_text())
    assert set(doc) == {"cells", "summary"}
    assert len(doc["cells"]) == 4
    for cell in doc["cells"]:
        assert {"fraction", "seed"} <= set(cell)
    lines = cpath.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == ("fraction,seed,accuracy,auc_mean,auc_0,auc_1,stop_reason,"
                        "outer_steps,inner_iters,inner_cap_hits,first_step_rejected")
    for cell, line in zip(doc["cells"], lines[1:]):
        assert line.split(",")[-5:] == [
            cell["stop_reason"], str(cell["outer_steps"]), str(cell["inner_iters"]),
            str(cell["inner_cap_hits"]), str(int(cell["first_step_rejected"])),
        ]
    failed = {"cells": [{"fraction": 0.5, "seed": 3, "error": "no seeds"}]}
    write_report_csv(cpath, failed)
    assert cpath.read_text().splitlines()[1] == "0.5,3,,,,,,,"
