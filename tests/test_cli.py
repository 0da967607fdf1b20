"""End-to-end CLI runs (in-process), run-config replay, exit codes."""

import json
import re
import warnings

import numpy as np
import pytest

from graphtv.cli import RunConfig, main
from graphtv.datasets import load_labels_csv, write_labels_csv
from graphtv.errors import ParseError
from graphtv.graph import save_graph
from oracles import triangles_bridge


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
    text = rc.to_json()
    assert text == canonical(text)
    assert text.endswith("\n")
    again = RunConfig.from_json(text)
    assert again == rc
    assert again.to_json() == text


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
    assert {"ratios", "inner_iters", "residual"} <= set(doc[0])

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
    assert rc.parameters["sigma0"] == 1.9  # defaults were expanded
    assert rc.parameters["step_rule"] == "heuristic"
    assert rc.parameters["classes"] == 2  # inferred value is recorded
    assert sidecar.read_text() == canonical(sidecar.read_text())

    replay = tmp_path / "replay.csv"
    assert run("solve", "--config", str(sidecar), "--out-scores",
               str(replay)) == 0
    assert replay.read_bytes() == scores.read_bytes()
    # the replay's own sidecar agrees on everything but the output path
    rc2 = RunConfig.load(tmp_path / "replay.config.json")
    assert rc2.parameters == rc.parameters
    assert rc2.inputs == rc.inputs


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


def test_experiment_requires_exactly_one_source(tmp_path, sbm_files, capsys):
    graph, truth, _ = sbm_files
    feats = tmp_path / "f.csv"
    feats.write_text("0.0,0.0\n1.0,1.0\n")
    base = ["experiment", "--truth", str(truth), "--fractions", "0.1",
            "--seeds", "0", "--report", str(tmp_path / "r.json")]
    assert run(*base) == 2
    assert "exactly one of --features / --graph" in capsys.readouterr().err
    assert run(*base, "--graph", str(graph), "--features", str(feats)) == 2


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

    # a declared class with no seed rows
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--classes", "3", "--out-scores", str(tmp_path / "s.csv")) == 2
    assert "class 2 has no seeds" in capsys.readouterr().err

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


def test_budget_exhaustion_exits_3_but_writes_outputs(tmp_path, sbm_files, capsys):
    graph, truth, seeds = sbm_files
    scores = tmp_path / "s.csv"
    assert run("solve", "--graph", str(graph), "--labels", str(seeds),
               "--outer-max", "1", "--outer-tol", "1e-300",
               "--out-scores", str(scores)) == 3
    assert scores.exists()
    assert (tmp_path / "s.config.json").exists()


def test_numerical_failure_exits_4(tmp_path, capsys):
    graph = tmp_path / "g.gxg"
    save_graph(triangles_bridge(), graph)
    seeds = tmp_path / "seeds.csv"
    write_labels_csv(seeds, np.array([0, 3]), np.array([0, 1]))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run("solve", "--graph", str(graph), "--labels", str(seeds),
                   "--dt", "1e308", "--out-scores", str(tmp_path / "s.csv"))
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


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


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
