"""Tests of the benchmark itself: generator, checker and tracing.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout.  The families here are tiny so the
tests take seconds; the workloads themselves are exercised by run.py.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checker import check_run  # noqa: E402
from run import Run  # noqa: E402
from tracing import layer_metrics, traced_run  # noqa: E402
from workloads import WORKLOADS, _family, generate  # noqa: E402


def _tiny_families():
    return [
        _family("lin-q5", "tiny linear", 5, "linear", 3, 1, ["A2 + 1"], []),
        _family("budget0-q5", "tiny linear, oracles refused", 5, "linear", 4, 1,
                ["2*A3 + 1"], ["oracle_budget = 0"]),
        _family("workers2-q5", "tiny linear in two workers", 5, "linear", 4, 1,
                ["A3 - 1"], ["oracle_budget = 0", "workers = 2"]),
    ]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    """One untraced CLI iteration over the tiny families."""
    run = Run(_tiny_families(), tmp_path_factory.mktemp("untraced"))
    _, _, _, csvs = run.iteration(0)
    assert run.problems == []
    return run, csvs


def test_generator_is_deterministic_per_seed():
    for name in WORKLOADS:
        first = [f.text for f in generate(name, 7)]
        assert first == [f.text for f in generate(name, 7)]
        assert any(a != b for a, b in zip(first, (f.text for f in generate(name, 8))))


def _with_changed_s2(csv_text):
    rows = list(csv.reader(io.StringIO(csv_text)))
    col = rows[0].index("S_2")
    rows[1][col] = str(int(rows[1][col]) + 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_checker_rejects_one_changed_s_r(untraced):
    run, csvs = untraced
    fam = run.families[0]
    assert check_run(0, "", csvs[0], fam) == []
    problems = check_run(0, "", _with_changed_s2(csvs[0]), fam)
    assert any("alternating" in p for p in problems)


def test_checker_rejects_exit_code_3(untraced):
    run, csvs = untraced
    assert check_run(3, "", csvs[0], run.families[0]) == ["exit code 3"]


def test_tracing_leaves_output_bytes_unchanged(untraced, tmp_path):
    run, csvs = untraced
    rec, traced = traced_run(run.families, run.paths, tmp_path)
    assert traced == csvs
    assert any("/w" in span[5] for span in rec.spans)  # worker spans came back


def test_layer_counts_repeat_across_traced_runs(untraced, tmp_path):
    run, _ = untraced
    keys = ("families.enumerations", "incidence.dfs_nodes", "oracle.refused")
    first = layer_metrics(traced_run(run.families, run.paths, tmp_path / "a")[0])
    second = layer_metrics(traced_run(run.families, run.paths, tmp_path / "b")[0])
    assert [first[k] for k in keys] == [second[k] for k in keys]
    assert first["oracle.refused"] == 12  # 6 per budget-0 family
