"""End-to-end CLI runs (in-process), run-config replay, exit codes."""

import dataclasses
import json
import logging
import re

import numpy as np
import pytest

import graphtv.solver
from graphtv import LabelConstraints, SolverConfig
from graphtv.cli import _COMMANDS, _SOLVER_OPTS, RunConfig, main
from graphtv.datasets import load_labels_csv, write_labels_csv
from graphtv.errors import (
    DegenerateClassWarning,
    NonFiniteError,
    NoProgressWarning,
    ParseError,
)
from graphtv.graph import save_graph
from graphtv.tables import json_text
from oracles import cliques_graph, triangles_bridge


def run(*argv):
    return main(list(argv))


def canonical(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.fixture()
def sbm_files(tmp_path):
    """A 24-node two-block graph plus truth and a 4-seed labels file."""
    graph = tmp_path / "g.gxg"
    truth = tmp_path / "truth.csv"
    code = run(
        "synth", "sbm", "--sizes", "12,12", "--p-in", "0.7", "--p-out", "0.05",
        "--seed", "3", "--out-graph", str(graph), "--out-truth", str(truth),
    )
    assert code == 0
    seeds = tmp_path / "seeds.csv"
    write_labels_csv(seeds, np.array([0, 5, 12, 17]), np.array([0, 0, 1, 1]))
    return graph, truth, seeds


# ---------------------------------------------------------------- RunConfig


def test_run_config_round_trip_is_canonical():
    rc = RunConfig(
        command="solve",
        parameters={"dt": 1.0, "seed": 0},
        inputs={"graph": "g.gxg"},
        outputs={"out_scores": "s.csv"},
    )
    text = json_text(dataclasses.asdict(rc))
    assert text == canonical(text)
    assert text.endswith("\n")
    again = RunConfig.from_json(text)
    assert again == rc
    assert json_text(dataclasses.asdict(again)) == text


def test_run_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ParseError, match="unknown run-config keys.*bogus"):
        RunConfig.from_json(
            '{"command": "solve", "parameters": {}, "inputs": {}, '
            '"outputs": {}, "bogus": 1}'
        )
    with pytest.raises(ParseError, match="missing keys.*outputs"):
        RunConfig.from_json('{"command": "solve", "parameters": {}, "inputs": {}}')
    with pytest.raises(ParseError, match="must be an object"):
        RunConfig.from_json(
            '{"command": "solve", "parameters": [], "inputs": {}, "outputs": {}}'
        )
    with pytest.raises(ParseError, match="JSON object"):
        RunConfig.from_json("[1, 2]")
    with pytest.raises(ParseError) as info:
        RunConfig.from_json("{not json")
    assert info.value.line == 1


# ----------------------------------------------------------------- pipeline


def test_full_feature_pipeline(tmp_path, capsys):
    feats, truth = tmp_path / "f.csv", tmp_path / "t.csv"
    assert run(
        "synth", "two-moons", "--n", "80", "--noise", "0.08", "--seed", "1",
        "--out-features", str(feats), "--out-truth", str(truth),
    ) == 0
    assert feats.exists() and truth.exists()
    assert (tmp_path / "f.config.json").exists()

    graph = tmp_path / "g.gxg"
    assert run("build-graph", "--features", str(feats), "--k", "8",
               "--out", str(graph)) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=80 edges=")
    assert "degree_min=" in out and "degree_max=" in out

    nodes, classes = load_labels_csv(truth)
    seeds = tmp_path / "seeds.csv"
    pick = np.concatenate([nodes[classes == k][:2] for k in (0, 1)])
    write_labels_csv(seeds, pick, np.repeat([0, 1], 2))

    scores, trace = tmp_path / "scores.csv", tmp_path / "trace.json"
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(scores), "--out-trace", str(trace)) == 0
    assert scores.exists()
    doc = json.loads(trace.read_text())
    assert isinstance(doc, list) and doc  # one record per outer step
    assert {"ratios", "inner_iters", "gap"} <= set(doc[0])

    report = tmp_path / "report.json"
    assert run("eval", "--scores", str(scores), "--truth", str(truth),
               "--labels", str(seeds), "--report", str(report)) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("accuracy=") and "average_auc=" in line
    rep = json.loads(report.read_text())
    assert rep["accuracy"] >= 0.9  # easy instance; sanity only
    assert set(rep) >= {"accuracy", "average_auc", "per_class_auc", "n_eval"}


def test_solve_sidecar_expands_defaults_and_replays_identically(
    tmp_path, sbm_files
):
    graph, truth, seeds = sbm_files
    scores = tmp_path / "scores.csv"
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(scores)) == 0

    sidecar = tmp_path / "scores.config.json"
    rc = RunConfig.load(sidecar)
    assert rc.command == "solve"
    assert rc.parameters["inner_max"] == 2000  # defaults were expanded
    assert "classes" not in rc.parameters  # the seed file fixes the count
    assert sidecar.read_text() == canonical(sidecar.read_text())

    replay = tmp_path / "replay.csv"
    assert run("solve", "--config", str(sidecar), "--out-scores",
               str(replay)) == 0
    assert replay.read_bytes() == scores.read_bytes()
    # the replay's own sidecar agrees on everything but the output path
    rc2 = RunConfig.load(tmp_path / "replay.config.json")
    assert rc2.parameters == rc.parameters
    assert rc2.inputs == rc.inputs


def test_solve_replays_sidecar_saved_with_a_byte_order_mark(tmp_path, sbm_files):
    graph, truth, seeds = sbm_files
    scores = tmp_path / "scores.csv"
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(scores)) == 0
    marked = tmp_path / "marked.config.json"
    text = (tmp_path / "scores.config.json").read_text(encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    replay = tmp_path / "replay.csv"
    assert run("solve", "--config", str(marked), "--out-scores", str(replay)) == 0
    assert replay.read_bytes() == scores.read_bytes()


@pytest.mark.parametrize(
    "key, old_value, flag",
    [
        ("seed", 0, "--seed"),
        ("step_rule", "heuristic", "--step-rule"),
        ("classes", 2, "--classes"),
        ("sigma0", 1.9, "--sigma0"),
        ("tau0", 1.9, "--tau0"),
        ("outer_tol", 1e-6, "--outer-tol"),
        ("dt", 1.0, "--dt"),
        ("outer_max", 100, "--outer-max"),
    ],
)
def test_solve_replays_sidecar_written_with_removed_option(
    tmp_path, sbm_files, capsys, key, old_value, flag
):
    # sidecars of earlier versions still carry removed parameters; replay
    # reads only declared options, so the old key is ignored
    graph, truth, seeds = sbm_files
    scores = tmp_path / "scores.csv"
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(scores)) == 0
    rc = RunConfig.load(tmp_path / "scores.config.json")
    assert key not in rc.parameters
    rc.parameters[key] = old_value
    old = tmp_path / "old.config.json"
    rc.write(old)
    replay = tmp_path / "replay.csv"
    assert run("solve", "--config", str(old), "--out-scores", str(replay)) == 0
    assert replay.read_bytes() == scores.read_bytes()
    # the flag itself is gone: argparse rejects it
    with pytest.raises(SystemExit) as info:
        run("solve", "--graph", str(graph), "--labels", str(seeds),
            "--out-scores", str(scores), flag, str(old_value))
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_flags_override_config_values(tmp_path, sbm_files, capsys):
    graph, truth, seeds = sbm_files
    feats = tmp_path / "f.csv"
    run("synth", "two-moons", "--n", "40", "--noise", "0.05",
        "--out-features", str(feats), "--out-truth", str(tmp_path / "t.csv"))
    g1 = tmp_path / "g1.gxg"
    run("build-graph", "--features", str(feats), "--k", "9", "--out", str(g1))
    capsys.readouterr()
    g2 = tmp_path / "g2.gxg"
    assert run("build-graph", "--config", str(tmp_path / "g1.config.json"),
               "--k", "4", "--out", str(g2)) == 0
    rc = RunConfig.load(tmp_path / "g2.config.json")
    assert rc.parameters["k"] == 4
    assert rc.parameters["metric"] == "euclidean"  # still from defaults


def test_experiment_graph_route(tmp_path, sbm_files):
    graph, truth, _ = sbm_files
    report, csv = tmp_path / "rep.json", tmp_path / "rep.csv"
    assert run(
        "experiment", "--graph", str(graph), "--truth", str(truth),
        "--fractions", "0.1,0.2", "--seeds", "0,1",
        "--report", str(report), "--report-csv", str(csv),
    ) == 0
    doc = json.loads(report.read_text())
    assert len(doc["cells"]) == 4
    assert set(doc["summary"]) == {"0.1", "0.2"}
    assert csv.read_text().startswith("fraction,seed,")
    assert (tmp_path / "rep.config.json").exists()


def test_experiment_requires_graph(tmp_path, sbm_files, capsys):
    graph, truth, _ = sbm_files
    feats = tmp_path / "f.csv"
    feats.write_text("0.0,0.0\n1.0,1.0\n")
    base = ["experiment", "--truth", str(truth), "--fractions", "0.1",
            "--seeds", "0", "--report", str(tmp_path / "r.json")]
    assert run(*base) == 2
    assert "--graph is required" in capsys.readouterr().err
    assert not (tmp_path / "r.config.json").exists()  # a failed run writes none
    # the graph comes from build-graph: the features route and its kernel
    # flags are gone, and argparse rejects them
    for extra in (["--features", str(feats)], ["--k", "5"], ["--sigma", "auto"]):
        with pytest.raises(SystemExit) as info:
            run(*base, "--graph", str(graph), *extra)
        assert info.value.code == 2
        assert extra[0] in capsys.readouterr().err


_REMOVED_EXPERIMENT_PARAMETERS = {
    "k": 10, "metric": "euclidean", "kernel": "gaussian", "sigma": "auto",
    "symmetrize": "mean",
}


def test_experiment_replays_sidecar_of_graph_route(tmp_path, sbm_files):
    # sidecars of earlier versions carry the removed features input and
    # kernel parameters; a --graph run's sidecar still replays exactly
    graph, truth, _ = sbm_files
    report = tmp_path / "rep.json"
    assert run("experiment", "--graph", str(graph), "--truth", str(truth),
               "--fractions", "0.1,0.2", "--seeds", "0",
               "--report", str(report)) == 0
    rc = RunConfig.load(tmp_path / "rep.config.json")
    assert "features" not in rc.inputs
    assert not set(_REMOVED_EXPERIMENT_PARAMETERS) & set(rc.parameters)
    rc.inputs["features"] = None
    rc.parameters.update(_REMOVED_EXPERIMENT_PARAMETERS)
    old = tmp_path / "old.config.json"
    rc.write(old)
    replay = tmp_path / "replay.json"
    assert run("experiment", "--config", str(old), "--report", str(replay)) == 0
    assert replay.read_bytes() == report.read_bytes()
    again = RunConfig.load(tmp_path / "replay.config.json")
    assert again.parameters == RunConfig.load(tmp_path / "rep.config.json").parameters


def test_experiment_sidecar_of_features_route_exits_2(tmp_path, sbm_files, capsys):
    _, truth, _ = sbm_files
    old = tmp_path / "old.config.json"
    RunConfig(
        command="experiment",
        parameters={"fractions": [0.1], "seeds": [0],
                    **_REMOVED_EXPERIMENT_PARAMETERS},
        inputs={"features": str(tmp_path / "f.csv"), "graph": None,
                "truth": str(truth)},
        outputs={"report": str(tmp_path / "rep.json"), "report_csv": None},
    ).write(old)
    assert run("experiment", "--config", str(old)) == 2
    assert "--graph is required" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize(
    "command, key, old_value",
    [
        ("experiment", "classes", 2),
        ("eval", "epsilon", 0.7),
        ("experiment", "sigma0", 1.9),
        ("experiment", "tau0", 1.9),
        ("experiment", "outer_tol", 1e-6),
        ("experiment", "dt", 1.0),
        ("experiment", "jobs", 2),
        ("experiment", "outer_max", 100),
        ("build-graph", "symmetrize", "mean"),
        ("build-graph", "symmetrize", "max"),
    ],
)
def test_replays_sidecar_written_with_removed_option(
    tmp_path, sbm_files, capsys, command, key, old_value
):
    # experiment's class count comes from the truth file, eval never reads
    # the seed margin, the inner loop's first steps follow from the graph,
    # the outer loop stops on inner_tol, the proximal step is fixed at 1, the
    # worker count follows from the machine, the outer loop's cap is fixed at
    # 100, and k-NN graphs are always mean-symmetrized: old sidecars that
    # carry any of these still replay
    graph, truth, seeds = sbm_files
    out_flag = "--report"
    if command == "experiment":
        argv = ["experiment", "--graph", str(graph), "--truth", str(truth),
                "--fractions", "0.1,0.2", "--seeds", "0"]
    elif command == "build-graph":
        feats = tmp_path / "f.csv"
        assert run("synth", "two-moons", "--n", "40", "--out-features", str(feats),
                   "--out-truth", str(tmp_path / "t.csv")) == 0
        argv = ["build-graph", "--features", str(feats), "--k", "5"]
        out_flag = "--out"
    else:
        scores = tmp_path / "scores.csv"
        assert run("solve", "--graph", str(graph), "--labels", str(seeds),
                   "--out-scores", str(scores)) == 0
        argv = ["eval", "--scores", str(scores), "--truth", str(truth),
                "--labels", str(seeds)]
    report = tmp_path / "rep.out"
    assert run(*argv, out_flag, str(report)) == 0
    rc = RunConfig.load(tmp_path / "rep.config.json")
    assert key not in rc.parameters
    rc.parameters[key] = old_value
    old = tmp_path / "old.config.json"
    rc.write(old)
    replay = tmp_path / "replay.out"
    assert run(command, "--config", str(old), out_flag, str(replay)) == 0
    assert replay.read_bytes() == report.read_bytes()
    capsys.readouterr()
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as info:
        run(*argv, out_flag, str(report), flag, str(old_value))
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


# the value of each required flag that names neither a file nor a choice
_REQUIRED_PARAMETERS = {
    "sizes": "6,6", "p_in": "0.9", "p_out": "0.2", "k": "3",
    "fractions": "0.2", "seeds": "0",
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_run_config_lands_beside_first_output(tmp_path, sbm_files, command):
    graph, truth, seeds = sbm_files
    inputs = {"graph": graph, "truth": truth, "labels": seeds,
              "features": tmp_path / "f.csv", "scores": tmp_path / "s.csv"}
    assert run("synth", "two-moons", "--n", "20", "--out-features",
               str(inputs["features"]), "--out-truth", str(tmp_path / "t.csv")) == 0
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(inputs["scores"])) == 0
    argv, outs = command.split(), []
    for opt in _COMMANDS[command].opts:
        if opt.kind == "in":
            argv += [opt.flag, str(inputs[opt.dest])]
        elif opt.kind == "out":
            outs.append(opt.dest)
            argv += [opt.flag, str(tmp_path / f"{opt.dest}.out")]
        elif opt.dest in _REQUIRED_PARAMETERS:
            argv += [opt.flag, _REQUIRED_PARAMETERS[opt.dest]]
    assert run(*argv) == 0
    for out in outs:
        assert (tmp_path / f"{out}.out").exists()
        assert (tmp_path / f"{out}.config.json").exists() == (out == outs[0])
    assert RunConfig.load(tmp_path / f"{outs[0]}.config.json").command == command


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_exits_0_for_every_command(command, capsys):
    with pytest.raises(SystemExit) as info:
        run(*command.split(), "--help")
    assert info.value.code == 0
    assert "--config" in capsys.readouterr().out


# --------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(tmp_path, sbm_files, capsys):
    graph, truth, seeds = sbm_files

    # k >= n
    feats = tmp_path / "f.csv"
    run("synth", "two-moons", "--n", "30", "--out-features", str(feats),
        "--out-truth", str(tmp_path / "t.csv"))
    capsys.readouterr()
    assert run("build-graph", "--features", str(feats), "--k", "200",
               "--out", str(tmp_path / "g.gxg")) == 2
    assert "k must be < n" in capsys.readouterr().err

    # a class below the largest seed class with no seed rows
    gap = tmp_path / "gap.csv"
    write_labels_csv(gap, np.array([0, 5, 12, 17]), np.array([0, 0, 2, 2]))
    assert run("solve", "--graph", str(graph), "--labels", str(gap),
               "--out-scores", str(tmp_path / "s.csv")) == 2
    assert "class 1 has no seeds" in capsys.readouterr().err

    # missing required flag
    assert run("solve", "--graph", str(graph), "--labels", str(seeds)) == 2
    assert "--out-scores is required" in capsys.readouterr().err

    # missing input file
    assert run("solve", "--graph", str(tmp_path / "nope.gxg"), "--labels",
               str(seeds), "--out-scores", str(tmp_path / "s.csv")) == 2

    # invalid generator parameter
    assert run("synth", "sbm", "--sizes", "5,5", "--p-in", "0.5", "--p-out",
               "1.5", "--seed", "0", "--out-graph", str(tmp_path / "g2.gxg"),
               "--out-truth", str(tmp_path / "t2.csv")) == 2
    assert "p_out" in capsys.readouterr().err

    # NaN slips through a check written as `value < bound`
    assert run("synth", "two-moons", "--n", "20", "--noise", "nan",
               "--out-features", str(tmp_path / "f2.csv"),
               "--out-truth", str(tmp_path / "t3.csv")) == 2
    assert "noise" in capsys.readouterr().err
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(tmp_path / "s.csv"), "--inner-tol", "nan") == 2
    assert "inner_tol must be positive" in capsys.readouterr().err


def test_corrupt_graph_header_exits_2(tmp_path, sbm_files, capsys):
    _, _, seeds = sbm_files
    bad = tmp_path / "bad.gxg"
    bad.write_bytes(b"GXG1" + np.array([2**62, 0], dtype="<u8").tobytes())
    assert run("solve", "--graph", str(bad), "--labels", str(seeds),
               "--out-scores", str(tmp_path / "s.csv")) == 2
    assert "implies" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_eval_truth_class_beyond_scores_exits_2(tmp_path, sbm_files, capsys):
    graph, truth, seeds = sbm_files
    scores = tmp_path / "s.csv"
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(scores)) == 0
    nodes, classes = load_labels_csv(truth)
    three = tmp_path / "truth3.csv"
    write_labels_csv(three, nodes, np.where(nodes == 23, 2, classes))
    assert run("eval", "--scores", str(scores), "--truth", str(three),
               "--labels", str(seeds), "--report", str(tmp_path / "r.json")) == 2
    assert "truth contains a class id out of range" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_isolated_node_build_exits_2_and_explains(tmp_path, capsys):
    # centred two-moons under cosine: the auto bandwidth is so small that one
    # node's gaussian weights all underflow to zero
    feats = tmp_path / "f.csv"
    run("synth", "two-moons", "--n", "500", "--seed", "2",
        "--out-features", str(feats), "--out-truth", str(tmp_path / "t.csv"))
    capsys.readouterr()
    build = ("build-graph", "--features", str(feats), "--k", "10",
             "--metric", "cosine", "--out", str(tmp_path / "g.gxg"))
    assert run(*build) == 2
    err = capsys.readouterr().err
    assert re.search(r"node \d+ is isolated", err)
    assert "metric cosine" in err and "sigma=" in err
    assert "nearest-neighbor distance" in err
    assert "--sigma" in err and "--kernel binary" in err
    assert run(*build, "--kernel", "binary") == 0


def test_wrong_command_config_exits_2(tmp_path, sbm_files, capsys):
    graph, truth, seeds = sbm_files
    scores = tmp_path / "s.csv"
    run("solve", "--graph", str(graph), "--labels", str(seeds),
        "--out-scores", str(scores))
    assert run("eval", "--config", str(tmp_path / "s.config.json"),
               "--scores", str(scores), "--truth", str(truth),
               "--labels", str(seeds), "--report", str(tmp_path / "r.json")) == 2
    assert "--config is for 'solve', not 'eval'" in capsys.readouterr().err


def test_corrupt_config_exits_2(tmp_path, sbm_files, capsys):
    graph, truth, seeds = sbm_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "solve", "parameters": {}, "inputs": {}, '
                   '"outputs": {}, "extra": 1}\n')
    assert run("solve", "--config", str(bad), "--graph", str(graph),
               "--labels", str(seeds),
               "--out-scores", str(tmp_path / "s.csv")) == 2
    assert "unknown run-config keys" in capsys.readouterr().err


def test_budget_exhaustion_exits_3_but_writes_outputs(
    tmp_path, sbm_files, caplog, monkeypatch
):
    graph, truth, seeds = sbm_files
    scores = tmp_path / "s.csv"
    caplog.set_level(logging.INFO, logger="graphtv.cli")
    monkeypatch.setattr(graphtv.solver, "OUTER_MAX", 1)
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(scores)) == 3
    messages = [r.getMessage() for r in caplog.records]
    (line,) = [m for m in messages if "solve finished" in m]
    assert "1 outer steps, converged=False, stop=budget" in line
    assert scores.exists()
    assert (tmp_path / "s.config.json").exists()


@pytest.mark.parametrize(
    "inner_max, kept, caps", [("2000", 3, 0), ("10", 3, 3)], ids=["2000", "10"]
)
def test_tol_stop_exits_0(tmp_path, caplog, inner_max, kept, caps):
    # the outer stop holds a step whose inner loop hit --inner-max to the
    # same bound as a converged one, although its gap certifies less: at
    # --inner-max 10 every step is capped and the run still ends on tol
    graph = tmp_path / "g.gxg"
    save_graph(triangles_bridge(), graph)
    seeds = tmp_path / "seeds.csv"
    write_labels_csv(seeds, np.array([0, 3]), np.array([0, 1]))
    trace = tmp_path / "trace.json"
    caplog.set_level(logging.INFO, logger="graphtv.cli")
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--inner-max", inner_max, "--out-trace", str(trace),
               "--out-scores", str(tmp_path / "s.csv")) == 0
    messages = [r.getMessage() for r in caplog.records]
    (line,) = [m for m in messages if "solve finished" in m]
    assert f"{kept} outer steps, converged=True, stop=tol" in line
    assert f"and {caps} inner cap hits" in line
    records = json.loads(trace.read_text())
    assert sum(r["hit_cap"] for r in records) == caps
    # after the first step (the file has no initial ratios), only the last
    # kept step lowers the sum by at most inner_tol times the sum before it
    inner_tol = RunConfig.load(tmp_path / "s.config.json").parameters["inner_tol"]
    sums = [r["sum_ratios"] for r in records]
    decreases = [a - b for a, b in zip(sums, sums[1:])]
    assert all(d > inner_tol * a for d, a in zip(decreases[:-1], sums))
    assert decreases[-1] <= inner_tol * sums[-2]


def test_experiment_with_every_cell_failed_exits_3(tmp_path, capsys):
    graph, truth = tmp_path / "g.gxg", tmp_path / "truth.csv"
    assert run("synth", "sbm", "--sizes", "6,6,6", "--p-in", "0.8", "--p-out",
               "0.1", "--seed", "0", "--out-graph", str(graph),
               "--out-truth", str(truth)) == 0
    # classes {0, 2}: class 1 has no members, so no cell can be seeded
    nodes, classes = load_labels_csv(truth)
    write_labels_csv(truth, nodes, np.where(classes == 1, 0, classes))
    report = tmp_path / "rep.json"
    assert run("experiment", "--graph", str(graph), "--truth", str(truth),
               "--fractions", "0.5", "--seeds", "0,1",
               "--report", str(report)) == 3
    assert "every cell of the grid failed" in capsys.readouterr().err
    doc = json.loads(report.read_text())
    assert all("class 1 has no members" in c["error"] for c in doc["cells"])
    assert doc["summary"] == {"0.5": {"n_cells": 0}}
    assert (tmp_path / "rep.config.json").exists()


def test_fully_seeded_reports_are_strict_json(tmp_path, capsys):
    # a fully seeded cell or eval has no heldout node: its accuracy and
    # average AUC are undefined, written as null and skipped by the means
    graph, truth = tmp_path / "g.gxg", tmp_path / "truth.csv"
    assert run("synth", "sbm", "--sizes", "20,20", "--p-in", "0.5", "--p-out",
               "0.05", "--out-graph", str(graph), "--out-truth", str(truth)) == 0
    report = tmp_path / "rep.json"
    with pytest.warns(DegenerateClassWarning, match="every node is seeded"):
        assert run("experiment", "--graph", str(graph), "--truth", str(truth),
                   "--fractions", "1.0,0.1", "--seeds", "0",
                   "--report", str(report)) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(report.read_text(), parse_constant=reject)
    full = next(c for c in doc["cells"] if c["fraction"] == 1.0)
    assert full["accuracy"] is None and full["auc_mean"] is None
    assert doc["summary"]["1.0"] == {"n_cells": 0}
    assert doc["summary"]["0.1"]["n_cells"] == 1

    scores, eval_report = tmp_path / "s.csv", tmp_path / "eval.json"
    assert run("solve", "--graph", str(graph), "--labels", str(truth),
               "--out-scores", str(scores)) == 0
    capsys.readouterr()
    with pytest.warns(DegenerateClassWarning, match="every node is seeded"):
        assert run("eval", "--scores", str(scores), "--truth", str(truth),
                   "--labels", str(truth), "--report", str(eval_report)) == 0
    assert capsys.readouterr().out == "accuracy=nan average_auc=nan\n"
    doc = json.loads(eval_report.read_text(), parse_constant=reject)
    assert doc["accuracy"] is None and doc["average_auc"] is None


def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch):
    # certified steps keep every iterate of a finite start finite, so the
    # failure is injected
    def diverge(anchor, operator, constraints, config, coeff, dual=None):
        raise NonFiniteError("inner iterate is not finite", iteration=1)

    monkeypatch.setattr(graphtv.solver, "_inner_loop", diverge)
    graph = tmp_path / "g.gxg"
    save_graph(triangles_bridge(), graph)
    seeds = tmp_path / "seeds.csv"
    write_labels_csv(seeds, np.array([0, 3]), np.array([0, 1]))
    code = run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--out-scores", str(tmp_path / "s.csv"))
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("inner_max", ["2000", "20"])
def test_solve_info_line_counts_rolled_back_inner_work(
    tmp_path, caplog, monkeypatch, inner_max
):
    # the step that is rolled back ran a full inner loop too; the info line
    # counts its iterations and cap hit with those of the kept steps.  On
    # this instance the first step raises the ratio sum at either cap, so it
    # is really rolled back rather than cut off by the outer stop
    graph = tmp_path / "g.gxg"
    save_graph(cliques_graph([(0, 1, 2), (3, 4, 5, 6)], [(2, 3, 0.1)]), graph)
    seeds = tmp_path / "seeds.csv"
    write_labels_csv(seeds, np.array([0, 3]), np.array([0, 1]))
    steps = []
    real_step = graphtv.solver.outer_step

    def spy(*args, **kwargs):
        out = real_step(*args, **kwargs)
        steps.append(out[1])
        return out

    monkeypatch.setattr(graphtv.solver, "outer_step", spy)
    caplog.set_level(logging.INFO, logger="graphtv.cli")
    with pytest.warns(NoProgressWarning):
        code = run("solve", "--graph", str(graph), "--labels", str(seeds),
                   "--inner-max", inner_max, "--out-scores", str(tmp_path / "s.csv"))
    assert code == 0
    messages = [r.getMessage() for r in caplog.records]
    (line,) = [m for m in messages if "solve finished" in m]
    assert "stop=no_decrease" in line  # so one step was rolled back
    iters = sum(r.inner_iters for r in steps)
    caps = sum(r.hit_cap for r in steps)
    assert (caps > 0) == (inner_max == "20")
    assert f"{iters} inner iterations and {caps} inner cap hits" in line
    assert f"{len(steps) - 1} outer steps" in line


def test_invalid_log_level_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GRAPHX_LOG", "loud")
    assert run("synth", "two-moons", "--out-features", "f.csv",
               "--out-truth", "t.csv") == 2
    assert "GRAPHX_LOG" in capsys.readouterr().err


def test_argparse_rejects_unknown_flags_and_bad_choices(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("solve", "--bogus", "1")
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run("build-graph", "--features", "f.csv", "--k", "5",
            "--kernel", "quartic", "--out", "g.gxg")
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run("build-graph", "--features", "f.csv", "--k", "5",
            "--sigma", "wide", "--out", "g.gxg")
    assert info.value.code == 2


def test_solver_flag_defaults_are_solver_config_defaults():
    # the CLI (and so every benchmark run) must solve with the library's
    # defaults; a second copy of them drifted once.  Every config field is a
    # flag, so no solver option can exist that the CLI cannot set
    fields = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    opts = {opt.dest: opt for opt in _SOLVER_OPTS}
    assert set(opts) == set(fields) | {"epsilon"}  # epsilon: the seed margin
    margin = {f.name: f.default for f in dataclasses.fields(LabelConstraints)}
    assert opts["epsilon"].default == margin["epsilon"]
    for name, default in fields.items():
        assert opts[name].default == default, name
        assert opts[name].type is type(default), name


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
