"""One-vs-rest ranking evaluation, a diffusion baseline, and sweep experiments.

Evaluation always excludes the seeded nodes: accuracy and per-class AUC are
computed over the heldout complement only.
"""

import logging
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.stats import rankdata

from .errors import (
    DegenerateClassError,
    DegenerateClassWarning,
    GraphTVError,
    InvalidExperimentError,
    ShapeMismatchError,
)
from .operators import diffusion_solve, normalized_adjacency
from .datasets import make_partition
from .graph import _usable_cpus
from .solver import LabelConstraints, Prediction, SolverConfig, solve
from .tables import fmt, write_table

log = logging.getLogger(__name__)

#: label spreading's propagation weight, the value of Zhou et al. (2004)
SPREADING_ALPHA = 0.99


@dataclass
class EvalReport:
    """Heldout metrics; ``None`` marks an undefined value (see :func:`evaluate`)."""

    per_class_auc: list
    average_auc: float | None
    accuracy: float | None
    n_eval: int
    partition: dict


def roc_auc(scores, positives):
    """Probability that a random positive outranks a random negative.

    Computed from midranks, so tied scores contribute half credit; the
    result is invariant under strictly increasing transforms of ``scores``.

    Raises
    ------
    DegenerateClassError
        If ``positives`` is all true or all false.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ShapeMismatchError("scores and positives must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain NaN or Inf")
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClassError(
            f"need both positives and negatives (got {n_pos} positives "
            f"out of {positives.size})"
        )
    ranks = rankdata(scores, method="average")
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(prediction, truth, constraints):
    """Heldout accuracy and one-vs-rest AUC per class.

    Classes without both positives and negatives among the heldout nodes are
    reported as ``None`` and excluded from the average (with a
    :class:`DegenerateClassWarning`); the average is ``None`` when no class
    is left, and so is the accuracy when every node is a seed.
    """
    truth = np.asarray(truth, dtype=np.int64)
    if truth.shape[0] != constraints.n:
        raise ShapeMismatchError("truth length does not match constraints")
    if truth.min() < 0 or truth.max() >= constraints.n_classes:
        raise ValueError("truth contains a class id out of range")
    if prediction.scores.shape != (constraints.n, constraints.n_classes):
        raise ShapeMismatchError("prediction shape does not match constraints")
    held = constraints.unlabeled_nodes
    n_eval = int(held.size)
    descriptor = {
        "n": constraints.n,
        "n_labeled": constraints.n_labeled,
        "n_eval": n_eval,
    }
    if n_eval == 0:
        warnings.warn(
            "empty heldout set: every node is seeded", DegenerateClassWarning
        )
        return EvalReport(
            per_class_auc=[None] * constraints.n_classes,
            average_auc=None,
            accuracy=None,
            n_eval=0,
            partition=descriptor,
        )
    held_truth = truth[held]
    accuracy = float(np.mean(prediction.labels[held] == held_truth))
    per_class = []
    for k in range(constraints.n_classes):
        try:
            per_class.append(roc_auc(prediction.scores[held, k], held_truth == k))
        except DegenerateClassError:
            warnings.warn(
                f"class {k} has no positives or no negatives in the heldout "
                "set; excluded from the AUC average",
                DegenerateClassWarning,
            )
            per_class.append(None)
    valid = [a for a in per_class if a is not None]
    average = float(np.mean(valid)) if valid else None
    return EvalReport(
        per_class_auc=per_class,
        average_auc=average,
        accuracy=accuracy,
        n_eval=n_eval,
        partition=descriptor,
    )


def baseline_label_spreading(graph, constraints):
    """Classic quadratic diffusion baseline (Zhou et al. 2004).

    Scores are the fixed point ``F = (1 - alpha) (I - alpha S)^-1 Y`` of
    ``F <- alpha * S F + (1 - alpha) * Y`` at alpha = ``SPREADING_ALPHA``,
    with ``S = D^-1/2 W D^-1/2`` and one-hot seeds ``Y``, solved by
    :func:`~graphtv.operators.diffusion_solve` (whose
    :class:`~graphtv.errors.NoConvergenceError` it passes on).
    """
    if constraints.n != graph.n:
        raise ShapeMismatchError("constraints do not match the graph")
    alpha = SPREADING_ALPHA
    y = np.zeros((graph.n, constraints.n_classes))
    lab = constraints.labeled_nodes
    y[lab, constraints.own_class[lab]] = 1.0
    f = diffusion_solve(normalized_adjacency(graph), (1.0 - alpha) * y, alpha)
    return Prediction(f)


def solve_counters(trace):
    """Why a solve stopped and how much work it did.

    ``inner_iters`` and ``inner_cap_hits`` count the rolled-back step too;
    ``outer_steps`` counts only the kept ones.
    """
    steps = list(trace.records)
    if trace.rejected_step is not None:
        steps.append(trace.rejected_step)
    return {
        "stop_reason": trace.stop_reason,
        "outer_steps": len(trace.records),
        "inner_iters": sum(r.inner_iters for r in steps),
        "inner_cap_hits": sum(r.hit_cap for r in steps),
        "first_step_rejected": trace.rejected_step is not None and not trace.records,
    }


def _cell(graph, truth, n_classes, config, epsilon, cell):
    """Solve and evaluate the grid cell ``(fraction, seed)``.

    Returns the report cell and the warnings raised on the way, as
    ``(category, message, filename, lineno)`` tuples, so that the caller
    can re-issue them in grid order whichever process ran the cell.  A
    solver error becomes an error cell.
    """
    fraction, part_seed = cell
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            constraints, _ = make_partition(
                truth, n_classes, fraction, part_seed, epsilon
            )
            prediction, trace = solve(graph, constraints, config)
            report = evaluate(prediction, truth, constraints)
        except GraphTVError as exc:
            result = {"fraction": fraction, "seed": part_seed, "error": str(exc)}
        else:
            result = {
                "fraction": fraction,
                "seed": part_seed,
                "accuracy": report.accuracy,
                "auc_per_class": report.per_class_auc,
                "auc_mean": report.average_auc,
                **solve_counters(trace),
            }
    raised = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return result, raised


#: the grid's shared arguments in a worker process, set by its initializer
_worker_grid = None


def _start_worker(*grid):
    global _worker_grid
    _worker_grid = grid


def _worker_cell(cell):
    return _cell(*_worker_grid, cell)


def stability_experiment(
    dataset, fractions, seeds, config=None, epsilon=LabelConstraints.epsilon
):
    """Full (fraction x partition-seed) grid of solve-and-evaluate cells.

    Every cell solves on the one ``dataset.graph``, so the graph is built
    once for the whole grid (by the caller, e.g. ``graphtv build-graph``).
    Per-cell solver errors are recorded in the cell and do not abort the
    grid.  Returns the report as a dict::

        {"cells": [{fraction, seed, accuracy, auc_per_class, auc_mean,
                    stop_reason, outer_steps, inner_iters, inner_cap_hits,
                    first_step_rejected}...],
         "summary": {str(fraction): {accuracy_mean, accuracy_std,
                                     auc_mean, auc_std, n_cells}}}

    The counters are :func:`solve_counters` of the cell's solve.  A cell
    with no heldout node has a ``None`` accuracy (see :func:`evaluate`);
    the summary's means skip ``None`` values, and ``n_cells`` counts the
    cells that have an accuracy.

    The cells run on ``min(cells, usable CPUs)`` processes: in this one
    when that is 1, else in a pool of worker processes that receive the
    graph once.  Each cell's warnings are re-issued here, and each error
    cell logged, in grid order, so the report, the warnings and the log
    lines do not depend on the worker count.  An exception other than a
    solver error reaches the caller.  A non-monotone mean-accuracy trend
    across increasing fractions is logged as a warning but never raised.
    """
    fractions = list(fractions)
    seeds = list(seeds)
    if not fractions or not seeds:
        raise InvalidExperimentError("need at least one fraction and one seed")
    if len(set(fractions)) != len(fractions) or len(set(seeds)) != len(seeds):
        raise InvalidExperimentError("fractions and seeds must be unique")
    if config is None:
        config = SolverConfig()
    shared = (dataset.graph, dataset.truth, dataset.n_classes, config, epsilon)
    grid = [(f, s) for f in fractions for s in seeds]
    workers = min(len(grid), _usable_cpus())
    if workers == 1:
        results = list(map(partial(_cell, *shared), grid))
    else:
        with ProcessPoolExecutor(
            workers, initializer=_start_worker, initargs=shared
        ) as pool:
            results = list(pool.map(_worker_cell, grid))
    # a repeat is shown once under the "default" action, as if raised here
    registry = globals().setdefault("__warningregistry__", {})
    cells = []
    for cell, raised in results:
        for category, message, filename, lineno in raised:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=registry)
        if "error" in cell:
            log.warning("cell fraction=%s seed=%s failed: %s",
                        cell["fraction"], cell["seed"], cell["error"])
        cells.append(cell)
    summary = {}
    means = []
    for f in fractions:
        # an error cell has no accuracy key, an unscored one a None value
        scored = [
            c for c in cells if c["fraction"] == f and c.get("accuracy") is not None
        ]
        if scored:
            acc = np.array([c["accuracy"] for c in scored])
            auc = np.array([c["auc_mean"] for c in scored if c["auc_mean"] is not None])
            summary[str(f)] = {
                "accuracy_mean": float(acc.mean()),
                "accuracy_std": float(acc.std()),
                "auc_mean": float(auc.mean()) if auc.size else None,
                "auc_std": float(auc.std()) if auc.size else None,
                "n_cells": len(scored),
            }
            means.append(float(acc.mean()))
        else:
            summary[str(f)] = {"n_cells": 0}
            means.append(float("nan"))
    order = np.argsort(fractions)
    seq = [means[i] for i in order if not np.isnan(means[i])]
    if any(b < a - 1e-12 for a, b in zip(seq, seq[1:])):
        log.warning(
            "mean accuracy is not monotone over fractions: %s",
            {str(fractions[i]): means[i] for i in order},
        )
    return {"cells": cells, "summary": summary}


#: the solve counters of a scored cell, as write_report_csv orders them
_COUNTERS = ("stop_reason", "outer_steps", "inner_iters", "inner_cap_hits",
             "first_step_rejected")


def write_report_csv(path, report):
    """Flat mirror of the cells: fraction,seed,accuracy,auc_mean,auc_0,...

    then the solve counters, a flag as 0 or 1; an error cell has neither
    metrics nor counters.
    """
    cells = report["cells"]
    width = max((len(c.get("auc_per_class", ())) for c in cells), default=0)

    def row(cell):
        values = [cell.get("accuracy"), cell.get("auc_mean")]
        values += cell.get("auc_per_class", [])  # an error cell has none
        values += [None] * (2 + width - len(values))
        head = [fmt(cell["fraction"]), str(cell["seed"])]
        if "error" in cell:
            counts = [""] * len(_COUNTERS)
        else:
            counts = [cell["stop_reason"]]
            counts += [str(int(cell[key])) for key in _COUNTERS[1:]]
        return ",".join(head + ["" if x is None else fmt(x) for x in values] + counts)

    header = ["fraction", "seed", "accuracy", "auc_mean"]
    header += [f"auc_{k}" for k in range(width)]
    write_table(path, header + list(_COUNTERS), map(row, cells))
