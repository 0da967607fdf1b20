"""Smoke runs of the example scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "run_two_moons.py",
            ["--n", "60", "--fraction", "0.1"],
            "\ngraphtv:   accuracy=",
        ),
        (
            "run_stability.py",
            ["--n", "60", "--fractions", "0.1,0.2", "--seeds", "0,1"],
            " fraction  acc mean   acc std  auc mean  cells\n",
        ),
    ],
    ids=["two-moons", "stability"],
)
def test_script_runs_and_prints_its_table(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert header in done.stdout
