"""The package promises a stdlib-only runtime: every absolute import in
src/valuesets names a standard-library module.  Its public surface is
`valuesets.__all__`, and every name listed there resolves.  Each import
loads only what it uses, checked in a fresh interpreter: `import valuesets`
loads no submodule, the config parser six, the CLI no process pool module
(its workers are forked) and nothing loads `dataclasses` or `inspect`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valuesets

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "valuesets"


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


def _loaded(code):
    """The modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sorted(sys.modules))"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.splitlines()[-1].split())


def _ours(modules):
    return {m for m in modules if m.startswith("valuesets.")}


def _pool(modules):
    return {m for m in modules if m.split(".")[0] in ("concurrent", "multiprocessing")}


def _introspection(modules):
    return modules & {"dataclasses", "inspect"}


def test_cli_import_leaves_out_the_process_pool():
    # only a run with workers > 1 starts a pool; the rest never pay its import
    loaded = _loaded("import valuesets.cli")
    assert not _pool(loaded)
    assert not _introspection(loaded)


def test_package_import_loads_no_submodule():
    assert not _ours(_loaded("import valuesets"))


def test_parse_config_loads_only_the_parser():
    loaded = _loaded(
        "from pathlib import Path\n"
        "from valuesets.config import parse_config\n"
        "for path in sorted(Path('configs').glob('*.cfg')):\n"
        "    parse_config(path.read_text(encoding='utf-8'))"
    )
    assert _ours(loaded) == {
        f"valuesets.{name}" for name in ("config", "errors", "exprs", "families", "ffield", "multipoly")
    }
    assert not loaded & {"fractions", "decimal"}
    assert not _introspection(loaded)


def _run_loads(*flags):
    # the run prints its summary first; the module list is the last line
    return _loaded(
        "from valuesets.cli import main\n"
        f"assert main(['run', 'configs/linear_q11_d4.cfg', *{list(flags)!r}]) == 0"
    )


def test_a_run_loads_no_unipoly_and_no_pool():
    loaded = _run_loads()
    assert "valuesets.unipoly" not in loaded
    assert not _pool(loaded)
    assert not _introspection(loaded)


def test_a_two_worker_run_loads_no_pool_module():
    loaded = _run_loads("--workers", "2")
    assert not _pool(loaded)
    assert not _introspection(loaded)


def test_names_resolve_on_first_use():
    code = (
        "import valuesets\n"
        "assert callable(valuesets.engine.scan_family)\n"
        "for name in valuesets.__all__:\n"
        "    getattr(valuesets, name)\n"
        "assert valuesets.scan_family is valuesets.engine.scan_family\n"
        "assert set(valuesets.__all__) <= set(dir(valuesets))\n"
        "assert not hasattr(valuesets, 'no_such_name')"
    )
    assert "valuesets.unipoly" in _loaded(code)
