"""Command-line front end: synth / build-graph / solve / eval / experiment.

The pipeline is deliberately staged around files — features CSV, graph
binary, seed CSV, scores CSV — so the expensive graph build is cached on
disk and the solver can be re-run across many partitions of the same graph:
``solve`` and ``experiment`` both take the graph that ``build-graph`` (or
``synth sbm``) wrote.  The class count is the largest class id + 1 of the
seed file (``solve``) or the truth file (``experiment``).

Each command is declared once, in ``_COMMANDS``: handler, help and flags.
It writes its fully resolved configuration (defaults expanded) as a
``*.config.json`` next to its first output file; re-running the command
with ``--config <that file>`` reproduces the run byte for byte.  Config
keys the command does not declare, such as removed options, are ignored.

Exit codes: 0 success, 2 usage/validation, 3 non-convergence or an
``experiment`` whose every cell failed (outputs are still written), 4 a
non-finite iterate.  Log verbosity comes from the ``GRAPHX_LOG``
environment variable (error|warn|info|debug, default warn); logs go to
stderr, data to stdout and files.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    LabeledDataset,
    load_features_csv,
    load_labels_csv,
    synth_sbm,
    synth_two_moons,
    truth_from_pairs,
    write_features_csv,
    write_labels_csv,
)
from .errors import (
    GraphTVError,
    NoConvergenceError,
    NonFiniteError,
    ParseError,
)
from .evaluation import (
    evaluate,
    solve_counters,
    stability_experiment,
    write_report_csv,
)
from .graph import _KERNELS, _METRICS
from .graph import KernelSpec, build_knn_graph, load_graph, save_graph
from .solver import (
    LabelConstraints,
    SolverConfig,
    read_scores_csv,
    solve,
    write_scores_csv,
    write_trace_json,
)
from .tables import write_json

log = logging.getLogger("graphtv.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class UsageError(Exception):
    """Bad flag combination or value detected after argument parsing."""


# --------------------------------------------------------------------------
# run configuration


_RC_KEYS = ("command", "version", "parameters", "inputs", "outputs")


@dataclasses.dataclass
class RunConfig:
    """Fully resolved record of one CLI run.

    ``parameters`` holds every tunable with defaults expanded, ``inputs``
    and ``outputs`` the file paths by role.  The JSON form is canonical
    (sorted keys, fixed indentation) so identical runs produce identical
    bytes, and unknown keys are rejected on load so a stale or hand-edited
    file fails loudly instead of being silently ignored.
    """

    command: str
    parameters: dict
    inputs: dict
    outputs: dict
    version: str = __version__

    def write(self, path):
        write_json(path, dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"run config is not valid JSON: {exc}", line=exc.lineno)
        if not isinstance(doc, dict):
            raise ParseError("run config must be a JSON object", line=1)
        unknown = sorted(set(doc) - set(_RC_KEYS))
        if unknown:
            raise ParseError(f"unknown run-config keys: {unknown}", line=1)
        missing = sorted(set(_RC_KEYS) - set(doc) - {"version"})
        if missing:
            raise ParseError(f"run config is missing keys: {missing}", line=1)
        if not isinstance(doc["command"], str):
            raise ParseError("run-config 'command' must be a string", line=1)
        for section in ("parameters", "inputs", "outputs"):
            if not isinstance(doc[section], dict):
                raise ParseError(f"run-config '{section}' must be an object", line=1)
        return cls(
            command=doc["command"],
            parameters=doc["parameters"],
            inputs=doc["inputs"],
            outputs=doc["outputs"],
            version=str(doc.get("version", __version__)),
        )

    @classmethod
    def load(cls, path):
        # an editor may save the sidecar back with a UTF-8 byte order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            return cls.from_json(fh.read())


# --------------------------------------------------------------------------
# options
#
# Every flag is declared once, with its role (parameter vs input/output
# path), type, and default.  argparse itself keeps all defaults at None so
# we can tell "user passed the flag" from "fall back to --config, then to
# the declared default" — that three-way merge is what makes replay work.


@dataclasses.dataclass(frozen=True)
class _Opt:
    dest: str
    kind: str  # "param" | "in" | "out"
    type: object = str
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""

    @property
    def flag(self):
        return "--" + self.dest.replace("_", "-")


def _csv_ints(text):
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _csv_floats(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _sigma_value(text):
    if str(text).lower() == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sigma must be a float or 'auto', got {text!r}")


#: every SolverConfig field is a flag, with the field default
_SOLVER_FIELDS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}

_SOLVER_OPTS = [
    _Opt("epsilon", "param", float, LabelConstraints.epsilon, help="seed margin"),
    *(
        _Opt(name, "param", type(default), default)
        for name, default in _SOLVER_FIELDS.items()
    ),
]


def _solver_config(params):
    return SolverConfig(
        **{
            name: type(default)(params[name])
            for name, default in _SOLVER_FIELDS.items()
        }
    )


# --------------------------------------------------------------------------
# commands


def cmd_synth(rc):
    p = rc.parameters
    if rc.command == "synth two-moons":
        features, truth = synth_two_moons(int(p["n"]), float(p["noise"]), int(p["seed"]))
        write_features_csv(rc.outputs["out_features"], features)
    else:
        graph, truth = synth_sbm(
            tuple(int(s) for s in p["sizes"]), float(p["p_in"]),
            float(p["p_out"]), int(p["seed"]),
        )
        save_graph(graph, rc.outputs["out_graph"])
    write_labels_csv(rc.outputs["out_truth"], np.arange(truth.size), truth)
    log.info("synthesized %d nodes", truth.size)
    return EXIT_OK


def cmd_build_graph(rc):
    features = load_features_csv(rc.inputs["features"])
    p = rc.parameters
    spec = KernelSpec(
        k=int(p["k"]),
        metric=str(p["metric"]),
        kernel=str(p["kernel"]),
        sigma=None if p["sigma"] == "auto" else float(p["sigma"]),
    )
    graph = build_knn_graph(features, spec)
    save_graph(graph, rc.outputs["out"])
    deg = graph.degrees
    print(
        f"n={graph.n} edges={graph.num_edges} "
        f"degree_min={deg.min():.6g} degree_mean={deg.mean():.6g} "
        f"degree_max={deg.max():.6g}"
    )
    return EXIT_OK


def cmd_solve(rc):
    graph = load_graph(rc.inputs["graph"])
    nodes, classes = load_labels_csv(rc.inputs["labels"])
    # every class needs a seed, so the seed file fixes the class count
    constraints = LabelConstraints.from_pairs(
        nodes, classes, graph.n, int(classes.max()) + 1,
        float(rc.parameters["epsilon"]),
    )
    prediction, trace = solve(graph, constraints, _solver_config(rc.parameters))
    write_scores_csv(rc.outputs["out_scores"], prediction)
    if rc.outputs["out_trace"] is not None:
        write_trace_json(rc.outputs["out_trace"], trace)
    counts = solve_counters(trace)
    converged = trace.stop_reason != "budget"
    log.info(
        "solve finished: %d outer steps, converged=%s, stop=%s, "
        "%d inner iterations and %d inner cap hits (rolled-back step included)",
        counts["outer_steps"], converged, counts["stop_reason"],
        counts["inner_iters"], counts["inner_cap_hits"],
    )
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def cmd_eval(rc):
    prediction = read_scores_csv(rc.inputs["scores"])
    n, n_classes = prediction.scores.shape
    truth = truth_from_pairs(*load_labels_csv(rc.inputs["truth"]), n)
    constraints = LabelConstraints.from_pairs(
        *load_labels_csv(rc.inputs["labels"]), n, n_classes
    )
    report = evaluate(prediction, truth, constraints)
    write_json(rc.outputs["report"], dataclasses.asdict(report))
    # an undefined metric is null in the report and nan on the console
    acc, auc = ("nan" if x is None else f"{x:.6g}"
                for x in (report.accuracy, report.average_auc))
    print(f"accuracy={acc} average_auc={auc}")
    return EXIT_OK


def cmd_experiment(rc):
    p = rc.parameters
    nodes, classes = load_labels_csv(rc.inputs["truth"])
    truth = truth_from_pairs(nodes, classes, len(nodes))
    graph = load_graph(rc.inputs["graph"])
    dataset = LabeledDataset(truth=truth, n_classes=int(truth.max()) + 1, graph=graph)
    report = stability_experiment(
        dataset,
        fractions=[float(f) for f in p["fractions"]],
        seeds=[int(s) for s in p["seeds"]],
        config=_solver_config(p),
        epsilon=float(p["epsilon"]),
    )
    write_json(rc.outputs["report"], report)
    if rc.outputs["report_csv"] is not None:
        write_report_csv(rc.outputs["report_csv"], report)
    if all("error" in cell for cell in report["cells"]):
        print("error: every cell of the grid failed", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


_Command = collections.namedtuple("_Command", "handler help opts")

#: every command, once: "synth <kind>" names go under the synth group.  The
#: run config lands beside the command's first output file.
_COMMANDS = {
    "synth two-moons": _Command(cmd_synth, "two interleaved half-circles", [
        _Opt("n", "param", int, 500),
        _Opt("noise", "param", float, 0.1),
        _Opt("seed", "param", int, 0),
        _Opt("out_features", "out", str, required=True),
        _Opt("out_truth", "out", str, required=True),
    ]),
    "synth sbm": _Command(cmd_synth, "stochastic block model graph", [
        _Opt("sizes", "param", _csv_ints, required=True, help="e.g. 20,20"),
        _Opt("p_in", "param", float, required=True),
        _Opt("p_out", "param", float, required=True),
        _Opt("seed", "param", int, 0),
        _Opt("out_graph", "out", str, required=True),
        _Opt("out_truth", "out", str, required=True),
    ]),
    "build-graph": _Command(cmd_build_graph, "k-NN graph from a features CSV", [
        _Opt("features", "in", str, required=True),
        _Opt("k", "param", int, required=True, help="neighbours per node"),
        _Opt("metric", "param", str, "euclidean", choices=_METRICS),
        _Opt("kernel", "param", str, "gaussian", choices=_KERNELS),
        _Opt("sigma", "param", _sigma_value, "auto",
             help="gaussian bandwidth, or 'auto'"),
        _Opt("out", "out", str, required=True),
    ]),
    "solve": _Command(cmd_solve, "label a graph from seed nodes", [
        _Opt("graph", "in", str, required=True),
        _Opt("labels", "in", str, required=True, help="seed CSV; sets the class count"),
        *_SOLVER_OPTS,
        _Opt("out_scores", "out", str, required=True),
        _Opt("out_trace", "out", str),
    ]),
    "eval": _Command(cmd_eval, "heldout accuracy and AUC of a scores file", [
        _Opt("scores", "in", str, required=True),
        _Opt("truth", "in", str, required=True, help="full truth CSV (node,class)"),
        _Opt("labels", "in", str, required=True, help="seed CSV; excluded from metrics"),
        _Opt("report", "out", str, required=True),
    ]),
    "experiment": _Command(cmd_experiment, "fraction x seed stability grid", [
        _Opt("graph", "in", str, required=True, help="graph from build-graph"),
        _Opt("truth", "in", str, required=True, help="truth CSV; sets the class count"),
        _Opt("fractions", "param", _csv_floats, required=True),
        _Opt("seeds", "param", _csv_ints, required=True),
        *_SOLVER_OPTS,
        _Opt("report", "out", str, required=True),
        _Opt("report_csv", "out", str),
    ]),
}


def _fits(opt, value):
    """Whether a sidecar value has the JSON type of the flag's values.

    An int flag, and each entry of a ``_csv_ints`` list, takes a JSON integer
    only: 5.7 would be truncated to 5 while the sidecar kept 5.7.
    """
    # not bool, the type JSON true and false load as
    numbers = (int,) if opt.type in (int, _csv_ints) else (int, float)
    if opt.type in (_csv_ints, _csv_floats):
        return isinstance(value, list) and all(type(x) in numbers for x in value)
    if opt.type is int:
        return type(value) in numbers
    return isinstance(value, str) or opt.kind == "param" and type(value) in numbers


def _resolve(command, args):
    """Merge CLI flags over --config values over declared defaults."""
    loaded = None
    if getattr(args, "config", None) is not None:
        loaded = RunConfig.load(args.config)
        if loaded.command != command:
            raise UsageError(
                f"--config is for '{loaded.command}', not '{command}'"
            )
    sections = {"param": {}, "in": {}, "out": {}}
    for opt in _COMMANDS[command].opts:
        value = getattr(args, opt.dest)
        if value is None and loaded is not None:
            for sect in (loaded.parameters, loaded.inputs, loaded.outputs):
                if opt.dest in sect and sect[opt.dest] is not None:
                    value = sect[opt.dest]
                    break
            if value is not None and not _fits(opt, value):
                raise ParseError(f"run-config '{opt.dest}' has a wrong type", line=1)
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise UsageError(f"{opt.flag} is required")
        sections[opt.kind][opt.dest] = value
    return RunConfig(
        command=command,
        parameters=sections["param"],
        inputs=sections["in"],
        outputs=sections["out"],
    )


# --------------------------------------------------------------------------
# parser / entry point


def _attach(parser, command):
    parser.add_argument(
        "--config", default=None, metavar="JSON",
        help="resolved run-config file to replay; explicit flags override it",
    )
    for opt in _COMMANDS[command].opts:
        kwargs = {"default": None, "help": opt.help or None, "metavar": opt.dest.upper()}
        if opt.choices is not None:
            kwargs["choices"] = opt.choices
            del kwargs["metavar"]
        if opt.kind == "param" and opt.type is not str:
            kwargs["type"] = opt.type
        parser.add_argument(opt.flag, **kwargs)
    parser.set_defaults(command=command)


@functools.cache  # one tree per process: main() is called many times
def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphtv",
        description="transductive labeling by total-variation ratio descent",
    )
    parser.add_argument("--version", action="version", version=f"graphtv {__version__}")
    sub = parser.add_subparsers(dest="_top", required=True)
    synth = sub.add_parser("synth", help="generate a benchmark dataset")
    groups = {"": sub, "synth": synth.add_subparsers(dest="_gen", required=True)}
    for name, command in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        _attach(groups[group].add_parser(leaf, help=command.help), name)
    return parser


def main(argv=None):
    raw = os.environ.get("GRAPHX_LOG", "warn").lower()
    if raw not in _LOG_LEVELS:
        print(
            f"error: GRAPHX_LOG must be one of {'|'.join(_LOG_LEVELS)}, got {raw!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    logging.basicConfig(
        level=_LOG_LEVELS[raw],
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        rc = _resolve(args.command, args)
        command = _COMMANDS[args.command]
        code = command.handler(rc)
        # after the handler: a run that raised writes no config
        first_out = next(o.dest for o in command.opts if o.kind == "out")
        rc.write(Path(rc.outputs[first_out]).with_suffix(".config.json"))
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (GraphTVError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
