"""The package promises a stdlib-only runtime: every absolute import in
src/valuesets names a standard-library module.  Its public surface is
`valuesets.__all__`, and every name listed there resolves.  Importing the
CLI loads no process-pool module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valuesets

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "valuesets"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = {
        name
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_all_names_resolve():
    missing = [name for name in valuesets.__all__ if not hasattr(valuesets, name)]
    assert not missing
    assert len(set(valuesets.__all__)) == len(valuesets.__all__)


def test_cli_import_leaves_out_the_process_pool():
    # only a run with workers > 1 starts a pool; the rest never pay its import
    code = (
        "import sys, valuesets.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
