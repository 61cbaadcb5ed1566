import os
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from itertools import combinations
from pathlib import Path
from textwrap import dedent

import pytest

from valuesets import cli, engine, incidence
from valuesets.bounds import average_error_bound
from valuesets.cli import main, run_experiment
from valuesets.config import DEFAULT_ORACLE_BUDGET, build_family, parse_config
from valuesets.engine import ScanResult, scan_family
from valuesets.errors import EmptyFamily, IdentityViolation, UnknownVariable
from valuesets.exprs import coeff_variables, parse_poly_expr
from valuesets.families import filter_family, linear_family, partition_ranges
from valuesets.ffield import field_new
from valuesets.incidence import hermite_profile
from valuesets.report import format_magnitude

LINEAR_Q11 = dedent(
    """\
    [field]
    p = 11

    [family]
    kind = linear
    d = 4
    m = 1
    forms = A3

    [run]
    r_max = 4
    oracle_budget = 200000
    """
)

SMALL_Q7 = dedent(
    """\
    [field]
    p = 7

    [family]
    kind = linear
    d = 3
    m = 1
    forms = A2

    [run]
    r_max = 3
    oracle_budget = 100000
    diag_extensions = 1,2
    """
)


def test_reference_linear_run_row():
    report = run_experiment(parse_config(LINEAR_Q11))
    row = report.row
    assert row["family_size"] == "121"
    assert row["S_1"] == "1331"  # S_1 = |A| * q
    assert row["avg_value_set"] == "7.11570247934"
    assert row["bound_satisfied"] == "true"
    assert row["gamma_identity_4"] == "ok"
    assert "regularity=pass-necessary-conditions" in row["diagnostics"]
    # identical reruns render byte-identical CSV
    again = run_experiment(parse_config(LINEAR_Q11))
    assert again.to_csv() == report.to_csv()


def test_r_max_one_narrows_columns():
    head = [
        "q", "p", "s", "d", "m", "family_id", "family_size",
        "avg_value_set_num", "avg_value_set_den", "avg_value_set",
        "mu_d_q_num", "mu_d_q_den", "mu_d_q",
        "deviation_num", "deviation_den", "deviation",
        "error_over_sqrt_q", "main_bound", "bound_satisfied",
    ]
    per_r = {
        1: ["S_1", "gamma_identity_1"],
        2: ["S_1", "S_2", "gamma_identity_1", "gamma_identity_2"],
    }
    for r_max, block in per_r.items():
        cfg = parse_config(SMALL_Q7.replace("r_max = 3", f"r_max = {r_max}"))
        report = run_experiment(cfg)
        assert list(report.row) == head + block + ["diagnostics"]
        assert report.to_csv().split("\n")[0] == ",".join(report.row)
        assert report.row["S_1"] == str(7 * 7)


def test_golden_csv_file():
    report = run_experiment(parse_config(SMALL_Q7))
    golden = Path(__file__).parent / "data" / "golden_linear_q7_d3.csv"
    assert report.to_csv() == golden.read_bytes().decode("utf-8")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_sample_configs_match_recorded_output(name):
    # CSV and summary of each shipped config, byte for byte; the summary
    # carries every diagnostic's evidence and witness
    text = (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
    report = run_experiment(parse_config(text))
    recorded = Path(__file__).parent / "data" / "configs"
    assert report.to_csv().encode("utf-8") == (recorded / f"{name}.csv").read_bytes()
    assert report.to_summary().encode("utf-8") == (recorded / f"{name}.txt").read_bytes()


def test_worker_counts_agree():
    base = parse_config(SMALL_Q7.replace("oracle_budget = 100000", "oracle_budget = 0"))
    serial = run_experiment(base)
    fanned = parse_config(SMALL_Q7.replace("oracle_budget = 100000", "oracle_budget = 0"))
    fanned.workers = 8
    parallel = run_experiment(fanned)
    assert serial.to_csv() == parallel.to_csv()
    assert serial.to_summary() == parallel.to_summary()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and the jobs it
    is given, maps in-process."""

    def __init__(self, sizes, max_workers, jobs=None):
        sizes.append(max_workers)
        self.jobs = jobs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        if self.jobs is not None:
            self.jobs.extend(jobs)
        return map(fn, jobs)


@pytest.mark.parametrize("cpus, want", [(3, 3), (None, 1), (128, 64)])
def test_worker_pool_capped_at_cpu_count(monkeypatch, cpus, want):
    # 64 workers on the 121 members start one process per CPU, at most 64,
    # and one CPU builds no pool
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", partial(_InlinePool, sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    text = LINEAR_Q11.replace("oracle_budget = 200000", "oracle_budget = 0")
    serial = run_experiment(parse_config(text))
    fanned = parse_config(text)
    fanned.workers = 64
    parallel = run_experiment(fanned)
    assert sizes == ([want] if want > 1 else [])
    assert parallel.to_summary() == serial.to_summary()
    assert parallel.to_csv() == serial.to_csv()


PINNED_Q13 = dedent(
    """\
    [field]
    p = 13

    [family]
    kind = linear
    d = 5
    m = 1
    forms = A4 - 3

    [run]
    r_max = 2
    oracle_budget = 0
    diag_extensions = 1
    """
)


def test_gather_cuts_at_most_one_slice_per_index(monkeypatch):
    # 25 members: 10 000 workers cut one slice per process, 8 on 8 CPUs,
    # and on 64 CPUs 25 slices of one member each, not 64 with 39 empty
    f5 = field_new(5)
    spec = linear_family(f5, 4, 1, [parse_poly_expr("A3", f5, 3, coeff_variables(4))])
    assert spec.space_size() == 25
    for cpus, want in ((8, 8), (64, 25)):
        sizes, jobs = [], []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", partial(_InlinePool, sizes, jobs=jobs))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._gather(spec, 10_000) == scan_family(spec)
        assert sizes == [want]
        assert len(jobs) == want


def _job_and_pid(job):
    return job, os.getpid()


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_pool_returns_results_in_job_order():
    # three processes: the caller runs jobs 0, 3, 6, 9, each child its share
    with cli.ProcessPoolExecutor(max_workers=3) as pool:
        results = pool.map(_job_and_pid, iter(range(10)))
    assert [job for job, _ in results] == list(range(10))
    pids = [pid for _, pid in results]
    assert [job for job, pid in results if pid == os.getpid()] == [0, 3, 6, 9]
    for first in (1, 2):
        assert len(set(pids[first::3])) == 1 and pids[first] != os.getpid()
    assert len(set(pids)) == 3
    assert _no_children_left()


def test_pool_raises_a_childs_exception_as_itself():
    def job(n):
        if n == 4:  # job 4 runs in the first child
            raise UnknownVariable("job 4 failed", line=7)
        return n

    with pytest.raises(UnknownVariable, match="line 7: job 4 failed"):
        cli.ProcessPoolExecutor(max_workers=3).map(job, range(6))
    assert _no_children_left()


def test_pool_kills_its_children_when_the_caller_fails():
    def job(n):
        if n == 0:  # the caller's first job
            raise KeyError(n)
        time.sleep(60)
        return n

    start = time.perf_counter()
    with pytest.raises(KeyError):
        cli.ProcessPoolExecutor(max_workers=3).map(job, range(3))
    assert time.perf_counter() - start < 30
    assert _no_children_left()


def test_pool_runs_every_job_in_the_caller_without_fork(monkeypatch):
    monkeypatch.delattr(cli.os, "fork")
    results = cli.ProcessPoolExecutor(max_workers=4).map(_job_and_pid, range(5))
    assert results == [(job, os.getpid()) for job in range(5)]


def test_pinned_family_workers_balanced_and_identical():
    # A4 = 3 puts every member in one third of the candidate index space;
    # slices of the member index space stay balanced.
    runs = []
    for workers in (1, 2, 3):
        cfg = parse_config(PINNED_Q13)
        cfg.workers = workers
        report = run_experiment(cfg)
        runs.append((report.to_csv(), report.to_summary()))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    spec = build_family(parse_config(PINNED_Q13))
    assert spec.space_size() == 13**3
    for workers in (2, 3):
        counts = [
            scan_family(spec, rng).member_count
            for rng in partition_ranges(spec.space_size(), workers)
        ]
        assert sum(counts) == 13**3
        assert max(counts) - min(counts) <= 1


LATE_WITNESS_F4 = dedent(
    """\
    [field]
    p = 2
    s = 2

    [family]
    kind = custom
    d = 3
    m = 1
    forms = A2^2 + A2 + 1

    [run]
    r_max = 3
    oracle_budget = 0
    diag_extensions = 1
    """
)


def test_loci_witness_past_first_slice_workers_identical():
    # members have a2 in {2, 3}, the upper half of the 16 candidates, and
    # every member has a repeated-root shift: the first worker slice holds
    # no witness, and at workers 3 both later slices hold one
    spec = build_family(parse_config(LATE_WITNESS_F4))
    first = scan_family(spec, partition_ranges(spec.space_size(), 2)[0])
    assert first.witnesses == [None, None]
    summaries = []
    for workers in (1, 2, 3):
        cfg = parse_config(LATE_WITNESS_F4)
        cfg.workers = workers
        summaries.append(run_experiment(cfg).to_summary())
    assert "[discriminant-loci] fail" in summaries[0]
    assert "    witness = (2, 0, 0)" in summaries[0]
    assert summaries[1] == summaries[0]
    assert summaries[2] == summaries[0]


def test_tampered_counts_abort_loudly():
    cfg = parse_config(SMALL_Q7)

    def bump(scan):
        profile = list(scan.profile)
        profile[1] += 1
        return ScanResult(scan.d, scan.member_count, scan.sum_values, profile,
                          scan.patterns, scan.loci, scan.witnesses)

    with pytest.raises(IdentityViolation):
        run_experiment(cfg, tamper_hook=bump)


def _bump_double_root_pattern(scan):
    # one more pair with a lone double root: the hermite and coincident
    # counts move at r = 2 only, the histogram not at all
    patterns = Counter(scan.patterns)
    patterns[(2,)] += 1
    return ScanResult(scan.d, scan.member_count, scan.sum_values, scan.profile,
                      patterns, scan.loci, scan.witnesses)


def test_dfs_oracle_refused_at_budget_zero(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hermite_profile called over budget")

    monkeypatch.setattr(cli, "hermite_profile", refuse)
    zero_budget = SMALL_Q7.replace("oracle_budget = 100000", "oracle_budget = 0")
    # at r_max = 1 the DFS tries no children, but still q start nodes per member
    for r_max in (3, 1):
        cfg = parse_config(zero_budget.replace("r_max = 3", f"r_max = {r_max}"))
        report = run_experiment(cfg)
        assert report.row[f"gamma_identity_{r_max}"] == "ok"


def test_dfs_oracle_runs_within_budget(monkeypatch):
    cfg = parse_config(SMALL_Q7)
    spec = build_family(cfg)
    scan = scan_family(spec)
    # the q*|A| = star_1 start nodes and the children the DFS tries
    price = scan.hermite_count(1) + spec.field.q * sum(map(scan.hermite_count, (1, 2)))
    calls = []

    def traced(*args, **kwargs):
        calls.append((args, kwargs))
        return hermite_profile(*args, **kwargs)

    monkeypatch.setattr(cli, "hermite_profile", traced)
    for budget, ran in ((price - 1, False), (price, True)):
        calls.clear()
        cfg.oracle_budget = budget
        run_experiment(cfg)
        assert bool(calls) == ran, budget
    # positional (spec, r_max), as the benchmark's tracer expects
    ((args, kwargs),) = calls
    assert args[1:] == (3,) and kwargs == {}


def test_dfs_oracle_catches_tampered_patterns():
    cfg = parse_config(SMALL_Q7)
    with pytest.raises(IdentityViolation, match="prefix DFS oracle disagrees at r=2"):
        run_experiment(cfg, tamper_hook=_bump_double_root_pattern)
    # the histogram identities alone cannot see it
    cfg.oracle_budget = 0
    run_experiment(cfg, tamper_hook=_bump_double_root_pattern)


def test_main_exits_3_on_tampered_patterns(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "scan_family", lambda *a: _bump_double_root_pattern(scan_family(*a))
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_Q7, encoding="utf-8")
    assert main(["run", str(cfg_path), "--workers", "1"]) == 3
    err = capsys.readouterr().err
    assert "prefix DFS oracle disagrees at r=2" in err
    assert "Traceback" not in err
    # the seed check compares the same counts with the DFS
    assert main(["--seed-check"]) == 3


def test_seed_check_runs_the_literal_oracles(monkeypatch, capsys):
    true_count = cli.count_distinct_tuples_oracle
    monkeypatch.setattr(
        cli, "count_distinct_tuples_oracle", lambda *args: true_count(*args) + 1
    )
    assert main(["--seed-check"]) == 3
    assert "distinct tuple oracle disagrees at r=1" in capsys.readouterr().err


def test_seed_check_sees_a_deflated_literal_oracle(monkeypatch, capsys):
    # an S_r oracle that evaluates f(x)/x in place of f(x), as a literal
    # kernel that drops its last multiplication by x would
    def deflated(spec, r, *args):
        field = spec.field

        def value(member, x):
            acc = 1
            for coef in member:
                acc = field.add(field.mul(acc, x), coef)
            return acc

        return sum(
            all(field.add(value(member, x), a0) == 0 for x in subset)
            for subset in combinations(field.indices(), r)
            for member in filter_family(spec)
            for a0 in field.indices()
        )

    monkeypatch.setattr(cli, "count_interpolating_sets_direct", deflated)
    assert main(["--seed-check"]) == 3
    assert "direct subset oracle disagrees at r=2" in capsys.readouterr().err


def _weights_off_by_one(monkeypatch):
    true_weigher = engine.orbit_weigher

    def off_by_one(spec):
        weigh = true_weigher(spec)
        assert weigh is not None
        return lambda a: weigh(a) and weigh(a) + 1

    monkeypatch.setattr(engine, "orbit_weigher", off_by_one)


def test_seed_check_catches_an_orbit_weight_off_by_one(monkeypatch, capsys):
    # the built-in family A2^2 - A1 over F_5 is weighted homogeneous, so its
    # scan visits one member per scaling orbit
    _weights_off_by_one(monkeypatch)
    assert main(["--seed-check"]) == 3
    assert "seed check failed" in capsys.readouterr().err


def test_member_count_catches_an_orbit_weight_at_budget_zero(tmp_path, monkeypatch, capsys):
    # no oracle runs at budget 0; the direct walk's q^(free) members do
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(PINNED_Q13.replace("A4 - 3", "A4"), encoding="utf-8")
    _weights_off_by_one(monkeypatch)
    assert main(["run", str(cfg_path), "--workers", "1"]) == 3
    err = capsys.readouterr().err
    assert "the scan counts 2399 members, the direct walk has 2197" in err


def test_oracles_catch_an_orbit_weight_on_the_filter(monkeypatch):
    # A2^2 - A3*A1 is weighted homogeneous and has no clean term, so it is
    # enumerated by the filter and no member count is known in advance
    cfg = parse_config(FROBENIUS_F9.replace("p = 3\ns = 2", "p = 5")
                       .replace("A2 + A3^2 + 1", "A2^2 - A3*A1"))
    assert not build_family(cfg).direct
    _weights_off_by_one(monkeypatch)
    with pytest.raises(IdentityViolation, match="oracle disagrees"):
        run_experiment(cfg)


FROBENIUS_F9 = dedent(
    """\
    [field]
    p = 3
    s = 2

    [family]
    kind = custom
    d = 4
    m = 1
    forms = A2 + A3^2 + 1

    [run]
    r_max = 4
    """
)

SCALING_F7 = dedent(
    """\
    [field]
    p = 7

    [family]
    kind = custom
    d = 5
    m = 1
    forms = A4^2 - 3*A3

    [run]
    r_max = 5
    """
)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("text", [FROBENIUS_F9, SCALING_F7], ids=["frobenius-q9", "scaling-q7"])
def test_orbit_family_checked_by_every_oracle(text, workers, monkeypatch):
    # F_p coefficients over F_9, and a weighted-homogeneous graph over F_7:
    # the scan visits one member per orbit, and at the default budget the
    # DFS and all six literal oracles check it; the output equals that of
    # the plain scan of every member
    cfg = parse_config(text)
    cfg.workers = workers
    assert engine.orbit_weigher(build_family(cfg)) is not None
    dfs_runs = []

    def traced(*args):
        dfs_runs.append(args)
        return hermite_profile(*args)

    monkeypatch.setattr(cli, "hermite_profile", traced)
    report = run_experiment(cfg)
    assert len(dfs_runs) == 1
    assert report.to_summary().count(" agreed (") == 6
    monkeypatch.setattr(engine, "orbit_weigher", lambda spec: None)
    plain = run_experiment(parse_config(text))
    assert plain.to_csv() == report.to_csv()
    assert plain.to_summary() == report.to_summary()


def test_empty_family_raises():
    cfg = parse_config(
        dedent(
            """\
            [field]
            p = 7

            [family]
            kind = custom
            d = 4
            m = 1
            forms = A3^2 + 1
            """
        )
    )
    with pytest.raises(EmptyFamily):
        run_experiment(cfg)


def test_symmetric_allowance_needs_tame_characteristic():
    # p = 2 divides d(d-1) = 30, so the symmetric allowance's hypothesis
    # fails over F_8 and the run falls back to the general allowance.
    cfg = parse_config(
        dedent(
            """\
            [field]
            p = 2
            s = 3

            [family]
            kind = symmetric
            d = 6
            m = 1
            s_count = 1
            S = Y1

            [run]
            r_max = 2
            oracle_budget = 0
            diag_extensions = 1
            """
        )
    )
    report = run_experiment(cfg)
    assert report.row["family_size"] == "4096"
    spec = build_family(cfg)
    general = average_error_bound(6, 1, spec.degrees, 8)
    assert report.row["main_bound"] == format_magnitude(general)
    assert "allowance (general): " in report.to_summary()
    assert "allowance (symmetric)" not in report.to_summary()


@pytest.mark.parametrize(
    "oracle, message",
    [
        ("count_interpolating_sets_direct", "direct subset oracle disagrees at r=1"),
        ("count_distinct_tuples_oracle", "distinct tuple oracle disagrees at r=1"),
        ("count_hermite_tuples_oracle", "division oracle disagrees at r=1"),
    ],
)
def test_literal_oracle_disagreement_aborts(monkeypatch, oracle, message):
    true_count = getattr(cli, oracle)
    monkeypatch.setattr(cli, oracle, lambda *args: true_count(*args) + 1)
    with pytest.raises(IdentityViolation, match=message):
        run_experiment(parse_config(SMALL_Q7))


def test_zero_budget_skips_oracles_with_note():
    cfg = parse_config(SMALL_Q7.replace("oracle_budget = 100000", "oracle_budget = 0"))
    text = run_experiment(cfg).to_summary()
    assert "skipped" in text
    assert "oracle S_1" in text


def test_main_end_to_end(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_Q7, encoding="utf-8")
    csv_path = tmp_path / "row.csv"
    summary_path = tmp_path / "run.txt"
    rc = main(
        [
            "run",
            str(cfg_path),
            "--csv",
            str(csv_path),
            "--summary",
            str(summary_path),
            "--oracle-budget",
            "0",
            "--workers",
            "2",
        ]
    )
    assert rc == 0
    csv_text = csv_path.read_text(encoding="utf-8")
    assert csv_text.startswith("q,p,s,d,m,family_id")
    summary = summary_path.read_text(encoding="utf-8")
    assert summary.startswith("experiment linear-d3-m1-A2")
    assert "skipped" in summary


def test_main_rejects_invalid_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(
        SMALL_Q7.replace("p = 7", "p = 3").replace("d = 3", "d = 4"),
        encoding="utf-8",
    )
    rc = main(["run", str(cfg_path)])
    assert rc == 2
    assert "q > d required" in capsys.readouterr().err


def test_main_rejects_empty_diag_extensions(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(
        SMALL_Q7.replace("diag_extensions = 1,2", "diag_extensions ="), encoding="utf-8"
    )
    assert main(["run", str(cfg_path)]) == 2
    assert "diag_extensions must name at least one" in capsys.readouterr().err


@pytest.mark.parametrize("degrees", ["1,5000", "1,19"])
def test_main_rejects_unreachable_extension_degrees(tmp_path, capsys, degrees):
    # F_(q^k) has at least 2^k points, so above k = 18 every diagnostic walk
    # is over POINT_BUDGET; k = 5000 once ended in a traceback
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(
        SMALL_Q7.replace("diag_extensions = 1,2", f"diag_extensions = {degrees}"),
        encoding="utf-8",
    )
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: diag_extensions must be at most 18")


def test_main_runs_the_largest_extension_degree(tmp_path, capsys):
    cfg_path = tmp_path / "k18.cfg"
    cfg_path.write_text(
        SMALL_Q7.replace("diag_extensions = 1,2", "diag_extensions = 1,18"), encoding="utf-8"
    )
    assert main(["run", str(cfg_path)]) == 0
    assert "k18.skipped" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key, old, prefix",
    [
        ("run.diag_extensions", "diag_extensions = 1,2", "diag_extensions = 1,"),
        ("field.p", "p = 7", "p = "),
    ],
    ids=["diag_extensions", "p"],
)
def test_main_rejects_a_huge_integer_in_one_short_line(tmp_path, capsys, key, old, prefix):
    # int(text, 0) refuses decimal strings over 4 300 digits; the error once
    # called that a non-integer and echoed all 5 000 digits
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(SMALL_Q7.replace(old, prefix + "9" * 5000), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0].encode()) <= 200
    assert err[0].startswith("config error: line ") and f"key {key} " in err[0]
    assert "5000 digits" in err[0]


LONG = "abcdefghijklmnop" + "x" * 4984  # 5 000 characters


@pytest.mark.parametrize(
    "old, new",
    [
        ("p = 7", f"p = {LONG}"),
        ("kind = linear", f"kind = {LONG}"),
        ("[run]", f"[{LONG}]"),
        ("r_max = 3", f"{LONG} = 3"),
        ("forms = A2", f"forms = A2 + {LONG}"),
        ("forms = A2", f"forms = A2 + 1{LONG}"),
    ],
    ids=["p", "kind", "section", "key", "unknown-variable", "trailing"],
)
def test_main_quotes_a_long_value_in_one_short_line(tmp_path, capsys, old, new):
    # each of these once echoed all 5 000 characters in its one error line
    cfg_path = tmp_path / "long.cfg"
    cfg_path.write_text(SMALL_Q7.replace(old, new), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0].encode()) <= 200
    assert err[0].startswith("config error: ")
    assert "abcdefghijkl... (5000 characters)" in err[0]


@pytest.mark.parametrize("s", ["0", "-1"])
def test_main_rejects_an_extension_degree_below_one(tmp_path, capsys, s):
    # q = p^s was read first: s = -1 reported q=0.09090909090909091
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(SMALL_Q7.replace("p = 7", f"p = 7\ns = {s}"), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: s >= 1 required (s={s})\n"


@pytest.mark.parametrize("s_count", ["-1", "0", "99999999"])
def test_main_rejects_an_s_count_out_of_range_at_once(tmp_path, capsys, s_count):
    # the range was checked only after the shape variables Y1..Ys were
    # named: 99999999 ran on with its memory growing, and -1 and 0 were
    # reported as an unknown variable 'Y1'
    text = (CONFIGS / "symmetric_q7_d6.cfg").read_text(encoding="utf-8")
    assert "s_count = 1\n" in text
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text.replace("s_count = 1\n", f"s_count = {s_count}\n"),
                        encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", str(cfg_path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "config error: family.s_count must satisfy m <= s_count <= d-m-4 "
        f"(m=1, s_count={s_count}, d=6)\n"
    )


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"p = 11": "p = 31", "d = 4": "d = 20", "forms = A3": "forms = A19 - 1"},
         "least walk (p=31, s=1, d-1-m=18)"),
        ({"p = 11": "p = 31", "d = 4": "d = 14", "kind = linear": "kind = custom",
          "forms = A3": "forms = A13^2 + A12^2 + 1"},
         "the walk over q^13 indices exceeds sys.maxsize"),
        ({"p = 11": "p = 2305843009213693951"}, "(p=2305843009213693951, s=1, d-1-m=2)"),
        ({"p = 11": "p = 2\ns = 64"}, "(p=2, s=64, d-1-m=2)"),
        ({"p = 11": "p = 1000000007", "d = 4": "d = 99999999", "r_max = 4": "r_max = 2"},
         "(p=1000000007, s=1, d-1-m=99999997)"),
        ({"p = 11": "p = 11\ns = 99999999"}, "(p=11, s=99999999, d-1-m=2)"),
    ],
    ids=["linear-d20", "unsolved-d14", "p-2^61-1", "s64", "d-99999999", "s-99999999"],
)
def test_main_refuses_a_walk_past_sys_maxsize(tmp_path, capsys, edits, message):
    # the first two ended in islice's ValueError traceback; the others hung
    # in is_prime, the modulus search, coeff_variables and ExperimentConfig.q
    text = LINEAR_Q11
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg_path = tmp_path / "walk.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", str(cfg_path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0].encode()) < 300
    assert err[0].startswith("config error: ") and message in err[0]


@pytest.mark.parametrize(
    "field, message",
    [
        ("p = 11\nmodulus = 3, 2", "field.modulus must be monic"),
        ("p = 11\nmodulus = 1, 2, 3", "field.modulus has 3 coefficients, expected s+1 = 2"),
        ("p = 3\ns = 2\nmodulus = 1, 2, 3, 1",
         "field.modulus has 4 coefficients, expected s+1 = 3"),
    ],
    ids=["not-monic", "three-coefficients", "four-at-s2"],
)
def test_main_rejects_a_bad_modulus_at_every_s(tmp_path, capsys, field, message):
    # at s = 1 the modulus was never read, so a bad one was ignored with exit 0
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(LINEAR_Q11.replace("p = 11", field), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("budget, listings", [(None, 1), (0, 0)])
def test_run_lists_the_candidate_filter_once(monkeypatch, budget, listings):
    # six oracle calls share one listing, made after the first budget check
    # that passes; at budget 0 every oracle refuses before it lists a member
    calls = []

    def counted(spec):
        calls.append(spec)
        return filter_family(spec)

    monkeypatch.setattr(incidence, "filter_family", counted)
    config = parse_config(SMALL_Q7)
    config.oracle_budget = DEFAULT_ORACLE_BUDGET if budget is None else budget
    notes = [line for line in run_experiment(config).summary_lines
             if line.startswith("oracle ")]
    assert len(notes) == 6
    assert sum("agreed" in line for line in notes) == 6 * listings
    assert len(calls) == listings


def test_main_builds_the_family_twice(tmp_path, monkeypatch, capsys):
    # once when the config is parsed, once when the run starts; checking the
    # flags builds nothing
    builds = []

    def counted(config):
        builds.append(config.family_id())
        return build_family(config)

    monkeypatch.setattr("valuesets.config.build_family", counted)
    monkeypatch.setattr(cli, "build_family", counted)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_Q7, encoding="utf-8")
    assert main(["run", str(cfg_path), "--workers", "2", "--oracle-budget", "0"]) == 0
    assert builds == ["linear-d3-m1-A2"] * 2


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("forms = A2", "forms = A2^2", "is not linear"),
        ("p = 7", "p = 4", "p = 4 is not prime"),
        ("p = 7", "p = 3\ns = 2\nmodulus = 2, 0, 1", "factors over F_3"),
    ],
    ids=["nonlinear-form", "composite-p", "reducible-modulus"],
)
def test_main_family_build_errors_exit_2(tmp_path, capsys, old, new, message):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(SMALL_Q7.replace(old, new), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err


def test_main_runs_a_form_of_huge_degree(tmp_path, capsys):
    # the degree enters the evidence squared: 8 000-digit constants once
    # ended the run in a ValueError from str() past Python's digit limit
    cfg_path = tmp_path / "huge-degree.cfg"
    cfg_path.write_text(
        LINEAR_Q11.replace("kind = linear", "kind = custom")
        .replace("forms = A3", "forms = A3^" + "9" * 4000),
        encoding="utf-8",
    )
    assert main(["run", str(cfg_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "    constant = log10=8000.0000" in out.splitlines()


@pytest.mark.parametrize("flag", ["--csv", "--summary"])
def test_main_unwritable_output_exit_2(tmp_path, capsys, flag):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_Q7, encoding="utf-8")
    target = tmp_path / "missing-dir" / "out.txt"
    rc = main(["run", str(cfg_path), "--oracle-budget", "0", flag, str(target)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("I/O error: ")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--workers", "0", "workers >= 1 required (workers=0)"),
        ("--oracle-budget", "-1", "oracle_budget must be nonnegative"),
    ],
)
def test_main_invalid_flag_exit_2(tmp_path, capsys, flag, value, message):
    # a flag passes the same validation as the key it overrides
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_Q7, encoding="utf-8")
    assert main(["run", str(cfg_path), flag, value]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_flags_give_the_output_of_the_keys_they_override(tmp_path, capsys):
    flagged = tmp_path / "flagged.cfg"
    flagged.write_text(SMALL_Q7, encoding="utf-8")
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(
        SMALL_Q7.replace("oracle_budget = 100000", "oracle_budget = 0\nworkers = 2")
        + f"\n[output]\ncsv = {tmp_path / 'keyed.csv'}\n"
        f"summary = {tmp_path / 'keyed.txt'}\n",
        encoding="utf-8",
    )
    assert main([
        "run", str(flagged), "--workers", "2", "--oracle-budget", "0",
        "--csv", str(tmp_path / "flagged.csv"), "--summary", str(tmp_path / "flagged.txt"),
    ]) == 0
    flagged_out = capsys.readouterr().out
    assert main(["run", str(keyed)]) == 0
    assert capsys.readouterr().out == flagged_out
    for ext in ("csv", "txt"):
        got = (tmp_path / f"flagged.{ext}").read_bytes()
        assert got == (tmp_path / f"keyed.{ext}").read_bytes()
    assert "oracle S_1: skipped" in flagged_out


def test_main_missing_file_and_help(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 2
    capsys.readouterr()
    assert main([]) == 2


def test_main_seed_check(capsys):
    assert main(["--seed-check"]) == 0
    assert "identities hold" in capsys.readouterr().out


@pytest.mark.parametrize("before_run", [True, False])
def test_main_seed_check_with_run(tmp_path, capsys, before_run):
    # the flag runs the check once whether it comes before or after `run`
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_Q7.replace("oracle_budget = 100000", "oracle_budget = 0"))
    run = ["run", str(cfg_path)]
    argv = ["--seed-check", *run] if before_run else [*run, "--seed-check"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("seed check: identities hold") == 1
    assert "experiment " in out


@pytest.mark.parametrize("seed_check", [False, True])
def test_closed_stdout_is_an_io_error(tmp_path, seed_check):
    # the read end of the pipe is closed before the CLI writes to it
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_Q7.replace("oracle_budget = 100000", "oracle_budget = 0"))
    argv = ["--seed-check"] if seed_check else ["run", str(cfg_path)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "valuesets.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("I/O error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_expression_entry_point_examples():
    f7 = field_new(7)
    g = parse_poly_expr("(A4+A3)*(A4-A3)", f7, 4, coeff_variables(5))
    assert g.terms == {(2, 0, 0, 0): 1, (0, 2, 0, 0): 6}
    with pytest.raises(UnknownVariable):
        parse_poly_expr("A9", f7, 3, coeff_variables(4))
