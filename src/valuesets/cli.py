"""Config-driven experiment runner.

Pipeline per run: build the configured field and family, scan the family
for the root-count histogram, the multiplicity patterns and the
repeated-root loci (optionally partitioned across worker processes), take
the hermite and coincident tuple counts from the scan, check every exact
cross-identity (these are theorems, so a mismatch aborts the run), run the
oracles that fit in the configured budget (the exact-quotient prefix DFS
among them), evaluate the headline allowance, attach diagnostics (the
loci check reads the scan), and emit a CSV row plus a human-readable
summary.  The oracles all come from `incidence`.  `--seed-check` is one
run of this pipeline on a built-in graph family over F_5 at the default
oracle budget, so the DFS and every literal oracle check it.

Worker processes only return partial sums, and the caller adds them up
(`ScanResult.add`); the sum does not depend on the order, so results are
identical for any worker count.  `workers` caps the processes, at most one
per CPU and one per index the enumerator walks; the caller runs one slice
of the index space and forks a process for each other slice
(`ProcessPoolExecutor`).  A family walked directly has q^(free) members,
and the run checks the scan's member count against it.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

from .bounds import (
    average_bound_applicable,
    average_error_bound,
    interp_count_error_bound,
)
from .config import _KEYS, ExperimentConfig, build_family, parse_config, validate_config
from .diagnostics import run_all
from .engine import ScanResult, generic_density, scan_family
from .errors import BudgetExceeded, EmptyFamily, IdentityViolation
from .families import partition_ranges
from .incidence import (
    check_identities,
    check_pattern_counts,
    count_distinct_tuples_oracle,
    count_hermite_tuples_oracle,
    count_interpolating_sets_direct,
    hermite_profile,
)
from .report import (
    ExperimentReport,
    error_over_sqrt_q,
    format_count,
    format_magnitude,
    format_rational,
)


class ProcessPoolExecutor:
    """Forked workers for `map`, in job order.

    With P = max_workers, the caller runs jobs 0, P, 2P, ...; P - 1 forked
    children run the others, child i the jobs i, i + P, ..., and each sends
    its results back pickled through a pipe.  A child's exception is raised
    again in the caller.  Every child is waited for, and killed if the
    caller fails; children leave with `os._exit`.  Without `os.fork` every
    job runs in the caller.
    """

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        procs = min(self.max_workers, len(jobs)) if hasattr(os, "fork") else 1
        if procs <= 1:
            return [fn(job) for job in jobs]
        import pickle

        results = [None] * len(jobs)
        children = []  # (pid, read end of its pipe, its first job)
        try:
            for first in range(1, procs):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:  # pragma: no cover - runs in the child
                    os.close(read)
                    try:
                        try:
                            out = True, [fn(job) for job in jobs[first::procs]]
                        except BaseException as exc:
                            out = False, exc
                        try:
                            data = pickle.dumps(out)
                        except Exception as exc:
                            data = pickle.dumps((False, RuntimeError(f"unpicklable result: {exc!r}")))
                        with os.fdopen(write, "wb") as pipe:
                            pipe.write(data)
                    finally:
                        os._exit(0)
                os.close(write)
                children.append((pid, read, first))
            results[0::procs] = [fn(job) for job in jobs[0::procs]]
            for pid, read, first in children:
                with os.fdopen(read, "rb", closefd=False) as pipe:
                    data = pipe.read()
                if not data:
                    raise RuntimeError(f"worker {pid} exited without a result")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results[first::procs] = value
        except BaseException:
            import signal

            # a child that has exited stays a zombie until it is waited
            # for below, so its pid is still its own
            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, read, _ in children:
                os.close(read)
                os.waitpid(pid, 0)
        return results


def _scan_slice(args):
    """Worker body: the family scan of one index slice."""
    spec, index_range = args
    return scan_family(spec, index_range)


def _gather(spec, workers):
    processes = min(workers, spec.space_size(), os.cpu_count() or 1)
    if processes <= 1:
        return scan_family(spec)
    jobs = [(spec, rng) for rng in partition_ranges(spec.space_size(), processes)]
    scan = ScanResult.empty(spec.d)
    with ProcessPoolExecutor(max_workers=processes) as pool:
        for part in pool.map(_scan_slice, jobs):
            scan.add(part)
    return scan


def _oracle_stages(spec, scan, r_max, budget):
    """Independent computations, skipped over budget.

    Each oracle checks its cost against the budget before it enumerates
    anything: the prefix DFS from the scan's hermite counts (star_1 = q*|A|
    start nodes, and q children at each node of depth below r_max), the
    literal enumerations from the scan's member count.  The DFS adds no
    summary line, whether it runs or not; each literal enumeration adds one
    note.
    """
    dfs_cost = scan.hermite_count(1) + spec.field.q * sum(map(scan.hermite_count, range(1, r_max)))
    if dfs_cost <= budget:
        dfs_star, dfs_coinc = hermite_profile(spec, r_max)
        check_pattern_counts(scan, dfs_star, dfs_coinc)
    notes = []
    members = scan.member_count
    for r in range(1, min(r_max, 2) + 1):
        # the oracles are looked up at call time, so wrappers installed on
        # this module see every call
        for tag, oracle, name, method, expected in (
            ("S", count_interpolating_sets_direct, "direct subset",
             "direct subset enumeration", scan.interpolating_count(r)),
            ("tuples", count_distinct_tuples_oracle, "distinct tuple",
             "raw enumeration", scan.distinct_tuple_count(r)),
            ("prefix", count_hermite_tuples_oracle, "division",
             "divisibility enumeration", scan.hermite_count(r)),
        ):
            try:
                got = oracle(spec, r, budget, members)
            except BudgetExceeded as exc:
                notes.append(f"oracle {tag}_{r}: skipped, {exc}")
                continue
            if got != expected:
                raise IdentityViolation(
                    f"{name} oracle disagrees at r={r}: {got} != {expected}"
                )
            notes.append(f"oracle {tag}_{r}: {method} agreed ({got})")
    return notes


def run_experiment(config: ExperimentConfig, tamper_hook=None) -> ExperimentReport:
    """Execute the full pipeline for one config; see the module docstring.

    tamper_hook is a test seam: it receives the summed scan and may return a
    replacement, letting tests prove that a corrupted count aborts the run.
    """
    spec = build_family(config)
    r_max = config.effective_r_max
    d, m, q = config.d, config.m, config.q
    family_id = config.family_id()
    scan = _gather(spec, config.workers)
    if spec.direct and scan.member_count != spec.space_size():
        # the walk's index space is the family: this checks the orbit
        # weights at every budget
        raise IdentityViolation(
            f"family {family_id}: the scan counts {scan.member_count} members,"
            f" the direct walk has {spec.space_size()}"
        )
    if tamper_hook is not None:
        scan = tamper_hook(scan) or scan
    if scan.member_count == 0:
        raise EmptyFamily(f"family {family_id} has no members over F_{q}")
    check_identities(scan, r_max, family_id)
    average = Fraction(scan.sum_values, scan.member_count)
    notes = _oracle_stages(spec, scan, r_max, config.oracle_budget)

    mu = generic_density(d)
    mu_q = mu * q
    deviation = abs(average - mu_q)
    degrees = spec.degrees
    # one formula for every kind: the linear allowance is the general one at
    # unit degrees, bit for bit; the linear and symmetric labels need p to
    # not divide d(d-1)
    bound = average_error_bound(d, m, degrees, q)
    tame = (d * (d - 1)) % config.p != 0
    bound_kind = config.kind if tame and config.kind != "custom" else "general"
    satisfied = bound.covers(deviation)
    applicable = average_bound_applicable(d, m, degrees, q)

    diagnostics = run_all(spec, scan, tuple(config.diag_extensions))

    row = {
        "q": str(q),
        "p": str(config.p),
        "s": str(config.s),
        "d": str(d),
        "m": str(m),
        "family_id": family_id,
        "family_size": str(scan.member_count),
        "avg_value_set_num": str(average.numerator),
        "avg_value_set_den": str(average.denominator),
        "avg_value_set": format_rational(average),
        "mu_d_q_num": str(mu_q.numerator),
        "mu_d_q_den": str(mu_q.denominator),
        "mu_d_q": format_rational(mu_q),
        "deviation_num": str(deviation.numerator),
        "deviation_den": str(deviation.denominator),
        "deviation": format_rational(deviation),
        "error_over_sqrt_q": error_over_sqrt_q(deviation, q),
        "main_bound": format_magnitude(bound),
        "bound_satisfied": "true" if satisfied else "false",
    }
    for r in range(1, r_max + 1):
        row[f"S_{r}"] = format_count(scan.interpolating_count(r))
    for r in range(1, r_max + 1):
        row[f"gamma_identity_{r}"] = "ok"
    row["diagnostics"] = ";".join(f"{rep.check}={rep.status}" for rep in diagnostics)

    lines = [
        f"experiment {family_id}",
        f"field: q={q} (p={config.p}, s={config.s})",
        f"family: kind={config.kind} d={d} m={m} members={scan.member_count}",
    ]
    lines.append("constraints: " + "; ".join(config.exprs))
    lines.append(
        f"average value set: {average.numerator}/{average.denominator}"
        f" = {format_rational(average)}"
    )
    lines.append(
        f"reference density: mu_{d}*q = {mu_q.numerator}/{mu_q.denominator}"
        f" = {format_rational(mu_q)}"
    )
    lines.append(
        f"deviation: {format_rational(deviation)}, error/sqrt(q) = "
        f"{error_over_sqrt_q(deviation, q)}"
    )
    lines.append(
        f"allowance ({bound_kind}): {format_magnitude(bound)}, satisfied: "
        f"{'yes' if satisfied else 'no'}, q-threshold applicable: "
        f"{'yes' if applicable else 'no'}"
    )
    for r in range(1, r_max + 1):
        s_r = scan.interpolating_count(r)
        target = Fraction(q ** (d - m), factorial(r))
        gap = abs(Fraction(s_r) - target)
        allowance = interp_count_error_bound(d, m, degrees, r, q)
        status = "ok" if gap <= allowance else "exceeded"
        lines.append(
            f"S_{r} = {s_r}: |S_{r} - q^{d - m}/{r}!| = {format_rational(gap)}"
            f" vs allowance {format_rational(allowance)}: {status}"
        )
    for r in range(1, r_max + 1):
        lines.append(
            f"tuples r={r}: distinct={scan.distinct_tuple_count(r)} "
            f"prefix={scan.hermite_count(r)} coincident={scan.coincident_count(r)}, identity ok"
        )
    lines.extend(notes)
    for rep in diagnostics:
        lines.extend(rep.render().splitlines())

    report = ExperimentReport(row, lines)
    if config.csv_path:
        Path(config.csv_path).write_text(report.to_csv(), encoding="utf-8", newline="")
    if config.summary_path:
        Path(config.summary_path).write_text(
            report.to_summary(), encoding="utf-8", newline=""
        )
    return report


def seed_check() -> int:
    """Built-in identity suite: the density table, then a full run of a
    tiny graph family with every oracle; 0 on success."""
    try:
        if [generic_density(k) for k in range(1, 5)] != [
            Fraction(1),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(5, 8),
        ]:
            raise IdentityViolation("generic density table is wrong")
        # f = T^3 + a_2 T^2 + a_2^2 T, whose S_2 tells f(x) from f(x)/x; the
        # constraint is weighted homogeneous, so the oracles, which list every
        # member, also check the scan's scaling-orbit weights
        run_experiment(
            ExperimentConfig(p=5, kind="custom", d=3, m=1, forms=("A2^2 - A1",))
        )
    except IdentityViolation as exc:
        print(f"seed check failed: {exc}", file=sys.stderr)
        return 3
    return _emit("seed check: identities hold on the built-in family\n")


def _emit(text) -> int:
    """Write text to stdout now: 0, or 2 with one `I/O error:` line when
    stdout is closed or fails.  stdout is then pointed at devnull, as the
    `signal` module docs advise, so the flush at exit cannot fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="valuesets",
        description="average value-set experiments over small finite fields",
    )
    parser.add_argument(
        "--seed-check",
        action="store_true",
        help="run the built-in identity suite (also available before `run`)",
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("config_path", help="path to a sectioned key-value config")
    # each override's dest is the ExperimentConfig field its key sets
    runp.add_argument("--workers", type=int, help="override run.workers")
    runp.add_argument("--csv", dest="csv_path", metavar="CSV", help="override output.csv")
    runp.add_argument(
        "--summary", dest="summary_path", metavar="SUMMARY", help="override output.summary"
    )
    runp.add_argument("--oracle-budget", type=int, help="override run.oracle_budget")
    # SUPPRESS keeps the subparser from resetting a flag given before `run`
    runp.add_argument(
        "--seed-check", action="store_true", dest="seed_check", default=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.command is None:
        if args.seed_check:
            return seed_check()
        parser.print_help()
        return 2

    if args.seed_check:
        rc = seed_check()
        if rc:
            return rc
    try:
        config = parse_config(Path(args.config_path).read_text(encoding="utf-8"))
        fields = {name for name, _, _ in _KEYS.values()}
        for name, value in vars(args).items():
            if name in fields and value is not None:
                setattr(config, name, value)
        validate_config(config)
    except ValueError as exc:
        # ParseError, ValidationError, and the field and family errors
        # (CompositeP, ReducibleModulus, ParameterRange, ...) raised while
        # building the family are all config problems.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except IdentityViolation as exc:
        print(f"IDENTITY VIOLATION (implementation bug): {exc}", file=sys.stderr)
        return 3
    except EmptyFamily as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    return _emit(report.to_summary())


if __name__ == "__main__":
    sys.exit(main())
