"""The three benchmark workloads, the operation runner and the output checks.

Every workload drives the staged CLI in-process through
``graphtv.cli.main(argv)`` with the solver's default settings, in one
process and a closed loop: the next call starts when the previous one has
returned.  A workload is a fixed list of calls (one *round*), repeated
while the measuring window lasts.

Inputs come from the workload seed.  On ``knn-build`` the seed draws the
data; the dense build costs the same on every draw.  The solver workloads
solve one fixed instance each, and the seed only shuffles the row order of
their label files, which the parsers must accept in any order.  The solved
problem is fixed on purpose: the solver's outer-step count, and with it
solve time, flips under last-digit changes of its input.  Relabelling the
nodes of one moons graph, which changes only the order of floating-point
sums, moved the median of its three solves between 3.0 s and 6.1 s, so
a seed-drawn instance would measure that flip rather than the code.
"""

import contextlib
import hashlib
import io
import json
import os
import time
import traceback

import numpy as np
from scipy.stats import rankdata

import graphtv.cli
from graphtv.datasets import (
    make_partition,
    synth_sbm,
    synth_two_moons,
    write_features_csv,
    write_labels_csv,
)
from graphtv.errors import GraphTVError, NoConvergenceError
from graphtv.evaluation import baseline_label_spreading
from graphtv.graph import load_graph, save_graph
from graphtv.operators import NormalizedGradient, operator_norm
from graphtv.solver import read_scores_csv

#: public names each layer is called through; wrapped only in a traced pass
WRAP_TARGETS = (
    ("graphtv.cli", "load_graph", "graph.load_graph"),
    ("graphtv.cli", "build_knn_graph", "graph.build_knn_graph"),
    ("graphtv.cli", "save_graph", "graph.save_graph"),
    ("graphtv.cli", "load_features_csv", "datasets.load_features_csv"),
    ("graphtv.cli", "load_labels_csv", "datasets.load_labels_csv"),
    ("graphtv.cli", "solve", "solver.solve"),
    ("graphtv.cli", "write_scores_csv", "solver.write_scores_csv"),
    ("graphtv.cli", "write_trace_json", "solver.write_trace_json"),
    ("graphtv.cli", "read_scores_csv", "solver.read_scores_csv"),
    ("graphtv.cli", "evaluate", "evaluation.evaluate"),
    ("graphtv.cli", "stability_experiment", "evaluation.stability_experiment"),
    ("graphtv.solver", "NormalizedGradient", "operators.NormalizedGradient"),
    ("graphtv.solver", "initialize_state", "solver.initialize_state"),
    ("graphtv.solver", "diffusion_warm_start", "solver.diffusion_warm_start"),
    ("graphtv.solver", "outer_step", "solver.outer_step"),
    ("graphtv.solver", "project_constraints", "solver.project_constraints"),
    ("graphtv.evaluation", "solve", "solver.solve"),
    ("graphtv.evaluation", "evaluate", "evaluation.evaluate"),
    ("graphtv.evaluation", "make_partition", "datasets.make_partition"),
)


def _observe_outer_step(args, kwargs, result):
    _, operator, constraints, config = args
    record = result[1]
    hit = getattr(record, "hit_cap", None)
    if hit is None:
        hit = record.inner_iters >= config.inner_max
    return {
        "inner_iters": int(record.inner_iters),
        "cap_hit": bool(hit),
        "edges": int(operator.matrix.shape[0]),
        "classes": int(constraints.n_classes),
    }


def _observe_solve(args, kwargs, result):
    trace = result[1]
    initial = float(sum(trace.initial_ratios))
    final = float(trace.records[-1].sum_ratios) if trace.records else initial
    return {"kept_steps": len(trace.records), "final_sum_ratios": final}


def _observe_load_graph(args, kwargs, result):
    return {
        "edges": int(result.num_edges),
        "bytes": os.path.getsize(args[0]),
    }


OBSERVERS = {
    "solver.outer_step": _observe_outer_step,
    "solver.solve": _observe_solve,
    "graph.load_graph": _observe_load_graph,
}


class SetupError(RuntimeError):
    """A set-up step failed; the run cannot measure anything."""


class Runner:
    """Times operations, counts failures, runs checks and hashes outputs.

    An operation is one CLI command, one ``load_graph`` round trip or one
    baseline call; on ``sbm-grid`` each experiment cell counts as one.  An
    operation fails when it raises, exits outside {0, 3}, or fails a check.
    Failed checks also make the run incorrect; a baseline
    ``NoConvergenceError`` (a known defect) only counts as a failure.
    """

    def __init__(self, tracer, earlier=None):
        self.tracer = tracer
        self.earlier = earlier or {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rounds = []
        self.digests = {}
        self._round = None

    def _timed(self, kind, seconds):
        if self._round is not None:
            self._round.setdefault(kind, []).append(seconds)

    def begin_round(self):
        self._round = {}
        self.rounds.append(self._round)

    def end_round(self):
        """Close the round; returns its timed wall (checks excluded)."""
        timed, self._round = self._round, None
        return sum(sum(times) for times in timed.values())

    def samples(self, kind):
        return [t for timed in self.rounds for t in timed.get(kind, [])]

    def cli(self, kind, argv, cells=1):
        """Run ``graphtv.cli.main(argv)``; returns an :class:`Op`."""
        op = Op(self, kind, cells)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                op.rc = self.tracer.call("cli.main", graphtv.cli.main, argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            op.rc = exc.code
        except Exception:  # keep measuring; the failure is reported
            op.rc = None
            op.fail("raised:\n" + traceback.format_exc())
        self._timed(kind, time.perf_counter() - t0)
        op.stdout = buf.getvalue()
        if op.rc is not None:
            op.check(op.rc in (0, 3), f"exit code {op.rc}")
        return op

    def direct(self, kind, span_name, fn, *args, known=()):
        """Call ``fn`` directly; ``known`` errors fail the op but not the run."""
        op = Op(self, kind)
        t0 = time.perf_counter()
        try:
            op.result = self.tracer.call(span_name, fn, *args,
                                         observe=OBSERVERS.get(span_name))
        except known as exc:
            op.fail(f"{type(exc).__name__}: {exc}", known=True)
        except Exception:
            op.fail("raised:\n" + traceback.format_exc())
        self._timed(kind, time.perf_counter() - t0)
        return op

    def digest(self, op, role, path):
        """Hash an output; ``op`` fails if the same role hashed otherwise.

        The same role is compared across the rounds of this run and with
        ``earlier``, the digests of earlier runs of the same code and seed.
        """
        try:
            with open(path, "rb") as fh:
                value = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            op.fail(f"{role} was not written: {exc}")
            return
        seen = self.digests.setdefault(role, value)
        op.check(seen == value, f"{role} differs between rounds of this run")
        before = self.earlier.get(role, value)
        op.check(before == value, f"{role} differs from an earlier run of the same code")


class Op:
    """One attempted operation and its failure state."""

    def __init__(self, runner, kind, cells=1):
        self.runner = runner
        self.kind = kind
        self.cells = cells
        self.failed_cells = 0
        self.rc = None
        self.stdout = ""
        self.result = None
        runner.attempted += cells

    def fail(self, message, known=False, cells=None):
        cells = self.cells - self.failed_cells if cells is None else cells
        cells = min(cells, self.cells - self.failed_cells)
        self.failed_cells += cells
        self.runner.failed += cells
        if not known:
            self.runner.problems.append(f"{self.kind}: {message}")

    def check(self, ok, message):
        if not ok:
            self.fail(message)
        return ok

    @property
    def ok(self):
        return self.failed_cells == 0


# --------------------------------------------------------------------------
# shared input helpers


def write_labels_shuffled(path, nodes, classes, rng):
    """``node,class`` file with its rows in an order drawn from ``rng``."""
    order = rng.permutation(len(nodes))
    write_labels_csv(path, np.asarray(nodes)[order], np.asarray(classes)[order])


def load_json(op, path):
    """Parsed JSON output, or ``None`` after failing ``op``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        op.fail(f"{path} is not readable JSON: {exc}")
        return None


def heldout_accuracy(labels, truth, seed_nodes):
    held = np.setdiff1d(np.arange(truth.size), seed_nodes)
    return float(np.mean(labels[held] == truth[held]))


def binary_auc(scores, positives):
    ranks = rankdata(scores)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def graph_vote_quality(graph, truth):
    """Leave-one-out weighted k-NN vote of a graph against the truth.

    Each node is predicted as the class holding most of its edge weight;
    the AUC ranks nodes by the share of their weight going to class 1.
    This is how a k-NN build's accuracy shows without running the solver.
    """
    onehot = np.eye(int(truth.max()) + 1)[truth]
    votes = graph.csr @ onehot
    accuracy = float(np.mean(np.argmax(votes, axis=1) == truth))
    share = votes[:, 1] / votes.sum(axis=1)
    return accuracy, binary_auc(share, truth == 1)


def check_trace_file(op, path):
    payload = load_json(op, path)
    if payload is None:
        return
    try:
        records = payload["records"] if isinstance(payload, dict) else payload
        sums = [float(r["sum_ratios"]) for r in records]
    except (KeyError, TypeError, ValueError) as exc:
        op.fail(f"trace file has no sum_ratios per record: {exc!r}")
        return
    op.check(
        all(b <= a for a, b in zip(sums, sums[1:])),
        f"sum_ratios increases across trace records: {sums}",
    )


# --------------------------------------------------------------------------
# workloads


class KnnBuild:
    """Dense k-NN build of a lifted two-moons cloud, euclidean and cosine."""

    name = "knn-build"
    n = 5000
    noise = 0.1
    lift_dims = 6
    lift_noise = 0.05
    # Cosine distance needs the cloud away from the origin: the second moon
    # passes through it, and there the gaussian weights of a cosine build
    # underflow to zero and isolate nodes.  A shift leaves euclidean
    # distances unchanged.
    offset = 4.0
    k = 10
    stage_kinds = ("build_euclidean", "build_cosine")
    stage_cells = 1

    def setup(self, work, seed):
        moons, truth = synth_two_moons(self.n, self.noise, seed)
        extra = np.random.default_rng([seed, 1]).normal(
            0.0, self.lift_noise, size=(self.n, self.lift_dims)
        )
        # fixed orthonormal map, so the moons plane is not axis-aligned
        rotation, _ = np.linalg.qr(
            np.random.default_rng(2019).standard_normal((2 + self.lift_dims,) * 2)
        )
        features = np.concatenate([moons.values, extra], axis=1) @ rotation.T
        features += self.offset / np.sqrt(features.shape[1])
        ctx = {
            "features": os.path.join(work, "features.csv"),
            "truth": truth,
            "graphs": {m: os.path.join(work, f"{m}.gxg") for m in ("euclidean", "cosine")},
        }
        write_features_csv(ctx["features"], features)
        return ctx

    def _build_argv(self, ctx, metric):
        argv = ["build-graph", "--features", ctx["features"], "--k", str(self.k),
                "--out", ctx["graphs"][metric]]
        if metric == "cosine":
            argv += ["--metric", "cosine"]
        return argv

    def warmup(self, runner, ctx):
        op = runner.cli("warmup", self._build_argv(ctx, "euclidean"))
        if op.ok:
            runner.digest(op, "euclidean.gxg", ctx["graphs"]["euclidean"])

    def round(self, runner, ctx):
        for metric in ("euclidean", "cosine"):
            op = runner.cli(f"build_{metric}", self._build_argv(ctx, metric))
            if not op.ok:
                continue
            runner.digest(op, f"{metric}.gxg", ctx["graphs"][metric])
            printed = dict(
                tok.split("=", 1) for tok in op.stdout.split() if "=" in tok
            )
            load = runner.direct("load_graph", "graph.load_graph", load_graph,
                                 ctx["graphs"][metric])
            if load.ok:
                graph = load.result
                load.check(
                    (str(graph.n), str(graph.num_edges))
                    == (printed.get("n"), printed.get("edges")),
                    f"load_graph gives n={graph.n} edges={graph.num_edges}, "
                    f"build-graph printed {op.stdout.strip()!r}",
                )
                ctx[f"{metric}_graph"] = graph
        ctx["graph"] = ctx.get("euclidean_graph")

    def quality(self, ctx):
        scores = [graph_vote_quality(ctx[f"{m}_graph"], ctx["truth"])
                  for m in ("euclidean", "cosine") if f"{m}_graph" in ctx]
        if not scores:
            return None
        return tuple(float(np.mean(s)) for s in zip(*scores))


class MoonsSolve:
    """Solve, eval and baseline on three seed partitions of one moons graph."""

    name = "moons-solve"
    n = 2000
    noise = 0.2
    data_seed = 0
    k = 10
    partitions = ((0.02, 0), (0.05, 1), (0.10, 2))
    stage_kinds = ("solve",)
    stage_cells = 1

    def setup(self, work, seed):
        moons, truth = synth_two_moons(self.n, self.noise, self.data_seed)
        rng = np.random.default_rng(seed)
        ctx = {
            "features": os.path.join(work, "features.csv"),
            "truth_csv": os.path.join(work, "truth.csv"),
            "graph_path": os.path.join(work, "moons.gxg"),
            "truth": truth,
            "parts": [],
        }
        write_features_csv(ctx["features"], moons)
        write_labels_shuffled(ctx["truth_csv"], np.arange(truth.size), truth, rng)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = graphtv.cli.main(["build-graph", "--features", ctx["features"],
                                   "--k", str(self.k), "--out", ctx["graph_path"]])
        if rc != 0:
            raise SetupError(f"build-graph exited {rc}")
        ctx["graph"] = load_graph(ctx["graph_path"])
        for i, (fraction, part_seed) in enumerate(self.partitions):
            constraints, _ = make_partition(truth, 2, fraction, part_seed)
            seeds = os.path.join(work, f"seeds{i}.csv")
            nodes = constraints.labeled_nodes
            write_labels_shuffled(seeds, nodes, constraints.own_class[nodes], rng)
            ctx["parts"].append({
                "seeds": seeds,
                "constraints": constraints,
                "scores": os.path.join(work, f"scores{i}.csv"),
                "trace": os.path.join(work, f"trace{i}.json"),
                "report": os.path.join(work, f"report{i}.json"),
            })
        return ctx

    def _solve(self, runner, ctx, i, kind):
        part = ctx["parts"][i]
        op = runner.cli(kind, ["solve", "--graph", ctx["graph_path"],
                               "--labels", part["seeds"],
                               "--out-scores", part["scores"],
                               "--out-trace", part["trace"]])
        if op.ok:
            runner.digest(op, f"scores{i}.csv", part["scores"])
        if op.ok:
            try:
                part["labels"] = read_scores_csv(part["scores"]).labels
            except (GraphTVError, ValueError) as exc:
                op.fail(f"scores file does not parse: {exc}")
            else:
                check_trace_file(op, part["trace"])
        return op

    def warmup(self, runner, ctx):
        self._solve(runner, ctx, 1, "warmup")

    def round(self, runner, ctx):
        reports = []
        baseline_acc = []
        for i, part in enumerate(ctx["parts"]):
            if not self._solve(runner, ctx, i, "solve").ok:
                continue
            op = runner.cli("eval", ["eval", "--scores", part["scores"],
                                     "--truth", ctx["truth_csv"],
                                     "--labels", part["seeds"],
                                     "--report", part["report"]])
            report = load_json(op, part["report"]) if op.ok else None
            if report is not None:
                runner.digest(op, f"report{i}.json", part["report"])
                recount = heldout_accuracy(part["labels"], ctx["truth"],
                                           part["constraints"].labeled_nodes)
                if op.check(abs(report.get("accuracy", -1.0) - recount) <= 1e-12,
                            f"report accuracy {report.get('accuracy')} != recount {recount}"):
                    reports.append(report)
            base = runner.direct("baseline", "evaluation.baseline_label_spreading",
                                 baseline_label_spreading, ctx["graph"],
                                 part["constraints"], known=(NoConvergenceError,))
            if base.ok:
                baseline_acc.append(heldout_accuracy(
                    base.result.labels, ctx["truth"],
                    part["constraints"].labeled_nodes))
        ctx["reports"] = reports
        ctx["baseline_accuracy"] = baseline_acc

    def quality(self, ctx):
        reports = ctx.get("reports")
        if not reports:
            return None
        return (float(np.mean([r["accuracy"] for r in reports])),
                float(np.mean([r["average_auc"] for r in reports])))


class SbmGrid:
    """One fraction x seed stability grid on a 3-block SBM graph."""

    name = "sbm-grid"
    sizes = (400, 400, 400)
    p_in = 0.03
    p_out = 0.008
    data_seed = 3
    fractions = (0.02, 0.05, 0.10)
    part_seeds = (0, 1)
    stage_kinds = ("experiment",)
    stage_cells = len(fractions) * len(part_seeds)

    def setup(self, work, seed):
        graph, truth = synth_sbm(self.sizes, self.p_in, self.p_out, self.data_seed)
        ctx = {
            "graph_path": os.path.join(work, "sbm.gxg"),
            "truth_csv": os.path.join(work, "truth.csv"),
            "report": os.path.join(work, "grid.json"),
            "warm_report": os.path.join(work, "warm.json"),
        }
        ctx["graph"] = graph
        save_graph(graph, ctx["graph_path"])
        write_labels_shuffled(ctx["truth_csv"], np.arange(truth.size), truth,
                              np.random.default_rng(seed))
        return ctx

    def _argv(self, ctx, fractions, seeds, report):
        return ["experiment", "--graph", ctx["graph_path"], "--truth", ctx["truth_csv"],
                "--fractions", ",".join(str(f) for f in fractions),
                "--seeds", ",".join(str(s) for s in seeds), "--report", report]

    def _experiment(self, runner, ctx, kind, fractions, seeds, report, role):
        cells = len(fractions) * len(seeds)
        op = runner.cli(kind, self._argv(ctx, fractions, seeds, report), cells=cells)
        if not op.ok:
            return op, None
        doc = load_json(op, report)
        if doc is None:
            return op, None
        runner.digest(op, role, report)
        got = doc.get("cells", [])
        errors = [c for c in got if "error" in c]
        if errors:
            op.fail(f"{len(errors)} cells failed: {errors}", cells=len(errors))
        present = {(c.get("fraction"), c.get("seed")) for c in got if "accuracy" in c}
        missing = [(f, s) for f in fractions for s in seeds if (f, s) not in present]
        op.check(not missing and len(got) == cells, f"missing experiment cells {missing}")
        return op, doc

    def warmup(self, runner, ctx):
        self._experiment(runner, ctx, "warmup", self.fractions[:1], self.part_seeds[:1],
                         ctx["warm_report"], "warm.json")

    def round(self, runner, ctx):
        op, doc = self._experiment(runner, ctx, "experiment", self.fractions,
                                   self.part_seeds, ctx["report"], "grid.json")
        if op.ok:
            ctx["cells"] = doc["cells"]

    def quality(self, ctx):
        cells = ctx.get("cells")
        if not cells:
            return None
        return (float(np.mean([c["accuracy"] for c in cells])),
                float(np.mean([c["auc_mean"] for c in cells])))


WORKLOADS = {w.name: w for w in (KnnBuild(), MoonsSolve(), SbmGrid())}


def operator_norm_probe(tracer, graph):
    """Time ``operator_norm`` by a direct call: it is off the default path."""
    operator = tracer.call("probe.NormalizedGradient", NormalizedGradient, graph)
    try:
        tracer.call("operators.operator_norm", operator_norm, operator)
    except NoConvergenceError:
        pass  # the time to give up is still the time it takes
