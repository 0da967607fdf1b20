"""The package's public names and its documented API example."""

import re
from pathlib import Path

import graphtv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in graphtv.__all__ if not hasattr(graphtv, name)]
    assert missing == []
    assert len(set(graphtv.__all__)) == len(graphtv.__all__)


def test_star_import():
    namespace = {}
    exec("from graphtv import *", namespace)
    assert set(graphtv.__all__) <= set(namespace)


def test_readme_python_example_runs(capsys):
    # the README's API example must run against the code as it stands
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    accuracy, auc, stop_reason = capsys.readouterr().out.split()
    assert 0.0 <= float(accuracy) <= 1.0 and 0.0 <= float(auc) <= 1.0
    assert stop_reason in ("tol", "no_decrease", "budget")
