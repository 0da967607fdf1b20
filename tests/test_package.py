"""The package's public names and its documented API example."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import graphtv

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src"


def readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)


def names_imported_from_graphtv(source):
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "graphtv"
        and node.level == 0
        for alias in node.names
    }


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in graphtv.__all__ if not hasattr(graphtv, name)]
    assert missing == []
    assert len(set(graphtv.__all__)) == len(graphtv.__all__)


def test_public_names_are_the_ones_scripts_gates_and_readme_use():
    # the top level holds what the example scripts, the acceptance gates and
    # the README example import, and nothing else: tests of other names
    # import them from their modules
    sources = [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text())
    sources.extend(readme_python_blocks())
    used = set().union(*map(names_imported_from_graphtv, sources))
    assert set(graphtv.__all__) == used | {"errors", "__version__"}


def test_star_import():
    namespace = {}
    exec("from graphtv import *", namespace)
    assert set(graphtv.__all__) <= set(namespace)


def test_readme_python_example_runs(capsys):
    # the README's API example must run against the code as it stands
    blocks = readme_python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    accuracy, auc, stop_reason = capsys.readouterr().out.split()
    assert 0.0 <= float(accuracy) <= 1.0 and 0.0 <= float(auc) <= 1.0
    assert stop_reason in ("tol", "no_decrease", "budget")


def absolute_imports(source, package):
    """(module, name) for each import from ``package`` in ``source``; name
    None for a plain ``import <package>.<mod>``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names
                        if a.name.split(".")[0] == package)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == package):
            yield from ((node.module, a.name) for a in node.names)


def test_benchmark_imports_resolve_against_src():
    # the benchmark imports these at module top on every run, traced or
    # not, so deleting one of them fails every workload; the names it only
    # wraps when tracing may go missing and are reported as absent there
    imports = {
        (path.name, module, name)
        for path in sorted((ROOT / "bench").glob("*.py"))
        for module, name in absolute_imports(path.read_text(), "graphtv")
    }
    assert ("workloads.py", "graphtv.cli", None) in imports  # the parse found them
    unresolved = []
    for path, module, name in sorted(imports, key=str):
        mod = importlib.import_module(module)
        assert Path(mod.__file__).resolve().is_relative_to(SRC)
        if name is not None and not hasattr(mod, name):
            unresolved.append(f"{path}: from {module} import {name}")
    assert unresolved == []


def module_level_names(tree):
    """Names a module assigns at its top level, outside any def or class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def names_read(tree):
    """Names a module reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_module_level_name_is_read_in_src():
    # a constant or knob that no code reaches any more goes with that code
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "graphtv").glob("*.py"))}
    read = set().union(*(names_read(tree) for tree in trees.values()))
    unread = [f"{name}: {target}" for name, tree in trees.items()
              for target in module_level_names(tree)
              if target != "__all__" and target not in read]
    assert unread == []


def test_src_imports_no_private_scipy_module():
    # scipy may move or drop its underscored modules in any release
    private = [f"{path.name}: {module} {name}"
               for path in sorted((SRC / "graphtv").glob("*.py"))
               for module, name in absolute_imports(path.read_text(), "scipy")
               if any(part.startswith("_") for part in [*module.split("."), name or ""])]
    assert private == []


def test_cli_process_does_not_load_scipy_stats():
    # every command runs in a process of its own, and importing scipy.stats
    # took about half of one; the CLI needs none of it
    code = ("import sys, graphtv.cli; print(*sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'stats']))")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
