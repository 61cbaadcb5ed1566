"""Traced in-process runs: spans and counters around the pipeline's layers.

Nothing under `src/` is changed.  `install` replaces, for the duration of a
`with` block, the module attributes through which the pipeline reaches each
layer, and restores them afterwards:

- `valuesets.cli`: build_family, scan_family, hermite_profile, the three
  oracles, _gather, the report formatters, and ProcessPoolExecutor (so
  worker-side spans come back to the parent);
- `enumerate_family` as imported by engine, incidence and diagnostics;
- the three `diagnostics.check_*` functions;
- `ExperimentReport.to_csv` / `to_summary`;
- with `count_ops`, `add`/`mul`/`neg`/`inv` of both field classes, counted
  only (a separate pass, so the counting cost stays out of span times).

Worker processes are forked (Python 3.11 on Linux), so the wrappers are live
in them too; each worker task writes its spans and counters to a file in the
dump directory, and the parent merges those files after the run.

A span is (id, name, start, end, parent id, run id, outcome).  The run id is
the family label, or label/w<pid>.<n> for a worker task, so per-slice numbers
can be grouped.  Self time is duration minus the union of child intervals.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Recorder of the innermost `install` block; forked workers inherit it.
_ACTIVE = None

ENUM = "families.enumerate_family"
ORACLES = (
    "count_interpolating_sets_direct",
    "count_distinct_tuples_oracle",
    "count_hermite_tuples_oracle",
)
REPORT_FORMATTERS = (
    "report_columns",
    "format_rational",
    "format_count",
    "format_magnitude",
    "error_over_sqrt_q",
)
FIELD_OPS = ("add", "mul", "neg", "inv")


class Recorder:
    """Spans, counters and field-op calls of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (run id, name) -> count
        self.ops = [0]
        self.run = None
        self._stack = []
        self._seq = 0
        self._pid = os.getpid()

    def _new_id(self):
        self._seq += 1
        return f"{self._pid}.{self._seq}"

    def begin(self, name):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return [sid, name, perf_counter(), None, parent, self.run, "ok"]

    def end(self, span, outcome="ok"):
        span[3] = perf_counter()
        span[6] = outcome
        self._stack.pop()
        self.spans.append(tuple(span))

    def leaf(self, name, start, end):
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._new_id(), name, start, end, parent, self.run, "ok"))

    def count(self, name, n=1):
        self.counts[(self.run, name)] += n

    def start_worker_task(self, parent):
        """Forget the state copied from the parent; keep the wrappers."""
        self._pid = os.getpid()
        self._seq += 1
        self.run = f"{self.run.split('/')[0]}/w{self._pid}.{self._seq}"
        self.spans = []
        self.counts = Counter()
        self.ops[0] = 0
        self._stack = [parent]

    def dump(self, path):
        data = {
            "spans": self.spans,
            "counts": [[run, name, n] for (run, name), n in self.counts.items()],
            "ops": self.ops[0],
        }
        Path(path).write_text(json.dumps(data), encoding="utf-8")

    def merge_dumps(self, dump_dir):
        for path in sorted(Path(dump_dir).glob("worker-*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            self.spans.extend(tuple(s) for s in data["spans"])
            for run, name, n in data["counts"]:
                self.counts[(run, name)] += n
            self.ops[0] += data["ops"]
            path.unlink()


def _span_wrapper(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            rec.end(span, type(exc).__name__)
            raise
        rec.end(span)
        if after is not None:
            after(rec, args, out)
        return out

    return wrapper


def _enumerate_wrapper(rec, fn):
    @functools.wraps(fn)
    def enumerate_family(spec, *args, **kwargs):
        partition = kwargs.get("partition", args[0] if args else None)
        lo, hi = partition if partition is not None else (0, spec.space_size())
        rec.count("families.enumerations")
        rec.count("families.candidates", hi - lo)
        gen = fn(spec, *args, **kwargs)
        while True:
            start = perf_counter()
            try:
                member = next(gen)
            except StopIteration:
                rec.leaf(ENUM, start, perf_counter())
                return
            rec.leaf(ENUM, start, perf_counter())
            rec.count("families.members")
            yield member

    return enumerate_family


def _after_scan(rec, args, scan):
    rec.count("engine.members_scanned", scan.member_count)


def _after_hermite(rec, args, out):
    star = out[0]
    q = args[0].field.q
    rec.count("incidence.dfs_nodes", sum(star))
    rec.count("incidence.dfs_accepted_below_1", sum(star[1:]))
    rec.count("incidence.dfs_children_tried", q * sum(star[:-1]))


def _after_regularity(rec, args, report):
    for key, value in report.evidence.items():
        if key.endswith(".points"):
            rec.count("diagnostics.points", value)
        elif key.endswith(".skipped"):
            rec.count("diagnostics.k_skipped")


def _in_worker(fn, dump_dir, parent, args):
    """Worker side of a pool task: run it under a fresh recorder, dump, return."""
    rec = _ACTIVE
    rec.start_worker_task(parent)
    span = rec.begin("cli._scan_slice")
    out = fn(args)
    rec.end(span)
    rec.dump(Path(dump_dir) / f"worker-{rec._pid}-{rec._seq}.json")
    return out


class _TracedPool(ProcessPoolExecutor):
    def __init__(self, *args, dump_dir, recorder, **kwargs):
        super().__init__(*args, **kwargs)
        self._hook = (str(dump_dir), recorder._stack[-1] if recorder._stack else None)

    def map(self, fn, *iterables, **kwargs):
        task = functools.partial(_in_worker, fn, *self._hook)
        return super().map(task, *iterables, **kwargs)


def _counted(fn, cell):
    @functools.wraps(fn)
    def counted(self, *args):
        cell[0] += 1
        return fn(self, *args)

    return counted


def _targets(rec, dump_dir, count_ops):
    """(owner, attribute, wrapper factory) for every layer entry point."""
    from valuesets import cli, diagnostics, engine, ffield, incidence, report

    def span(name, after=None):
        return lambda fn: _span_wrapper(rec, name, fn, after)

    out = [
        (cli, "build_family", span("config.build_family")),
        (cli, "scan_family", span("engine.scan_family", _after_scan)),
        (cli, "hermite_profile", span("incidence.hermite_profile", _after_hermite)),
        (cli, "_gather", span("cli._gather")),
        (cli, "ProcessPoolExecutor",
         lambda _: functools.partial(_TracedPool, dump_dir=dump_dir, recorder=rec)),
        (diagnostics, "check_regularity",
         span("diagnostics.regularity", _after_regularity)),
        (diagnostics, "check_regularity_at_infinity",
         span("diagnostics.regularity_at_infinity", _after_regularity)),
        (diagnostics, "check_discriminant_loci", span("diagnostics.discriminant_loci")),
    ]
    out += [(cli, name, span(f"oracle.{name}")) for name in ORACLES]
    out += [(cli, name, span("report.render")) for name in REPORT_FORMATTERS]
    out += [(report.ExperimentReport, name, span("report.render"))
            for name in ("to_csv", "to_summary")]
    out += [(mod, "enumerate_family", lambda fn: _enumerate_wrapper(rec, fn))
            for mod in (engine, incidence, diagnostics)]
    if count_ops:
        out += [(cls, name, lambda fn: _counted(fn, rec.ops))
                for cls in (ffield.PrimeField, ffield.ExtensionField)
                for name in FIELD_OPS]
    return out


@contextmanager
def install(rec, dump_dir, count_ops=False):
    """Wrap the pipeline's layer entry points for the duration of the block.

    An entry point the package no longer defines is left alone, so a layer
    that was renamed or removed reports zeros instead of breaking the run.
    """
    global _ACTIVE
    saved = [
        (obj, name, vars(obj)[name], make)
        for obj, name, make in _targets(rec, dump_dir, count_ops)
        if name in vars(obj)
    ]
    previous = _ACTIVE
    try:
        for obj, name, original, make in saved:
            setattr(obj, name, make(original))
        _ACTIVE = rec
        yield rec
    finally:
        _ACTIVE = previous
        for obj, name, original, _ in reversed(saved):
            setattr(obj, name, original)


def traced_run(families, config_paths, out_dir, count_ops=False):
    """Run `run_experiment` in-process on each config under the wrappers.

    Returns the recorder and, per family in order, its CSV text or the
    exception the pipeline raised (reported as a failed run by the caller).
    """
    from valuesets import cli
    from valuesets.config import parse_config

    rec = Recorder()
    dump_dir = Path(out_dir) / "dumps"
    dump_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    with install(rec, dump_dir, count_ops):
        for fam, path in zip(families, config_paths):
            rec.run = fam.label
            csv_path = Path(out_dir) / f"{fam.label}.csv"
            top = rec.begin("cli.run")
            try:
                span = rec.begin("config.parse_config")
                config = parse_config(Path(path).read_text(encoding="utf-8"))
                rec.end(span)
                config.csv_path = str(csv_path)
                report = cli.run_experiment(config)
                report.to_summary()  # the CLI prints the summary after the run
            except Exception as exc:  # a failing pipeline is a failed run, not a crash
                del rec._stack[1:]
                rec.end(top, type(exc).__name__)
                outputs.append(exc)
                continue
            rec.end(top)
            outputs.append(csv_path.read_text(encoding="utf-8"))
    rec.merge_dumps(dump_dir)
    return rec, outputs


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(rec):
    """Per-layer metric name -> value, summed over every family of the run."""
    counts = Counter()
    for (_, name), n in rec.counts.items():
        counts[name] += n
    own = self_times(rec.spans)
    dur = Counter()
    self_s = Counter()
    calls = Counter()
    for sid, name, start, end, _, _, outcome in rec.spans:
        key = name
        if name.startswith("oracle."):
            key = "oracle.refused" if outcome == "BudgetExceeded" else "oracle.ran"
        dur[key] += end - start
        self_s[key] += own[sid]
        calls[key] += 1

    # One slice per run id holding a scan: a worker task, or the parent itself
    # when the scan ran in-process (workers = 1).
    slice_members = Counter()
    slice_s = Counter()
    for (run, name), n in rec.counts.items():
        if name == "engine.members_scanned":
            slice_members[run] += n
    for _, name, start, end, _, run, _ in rec.spans:
        if name in ("engine.scan_family", "incidence.hermite_profile"):
            slice_s[run] += end - start
    family_members = Counter()
    for run, n in slice_members.items():
        family_members[run.split("/")[0]] += n
    share_max = max(
        (n / family_members[run.split("/")[0]] for run, n in slice_members.items() if n),
        default=0.0,
    )

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "config.parse_s": dur["config.parse_config"],
        "families.enumerations": counts["families.enumerations"],
        "families.candidates": counts["families.candidates"],
        "families.members": counts["families.members"],
        "families.accept_ratio": ratio(counts["families.members"],
                                       counts["families.candidates"]),
        "families.enumerate_s": dur[ENUM],
        "engine.scan_self_s": self_s["engine.scan_family"],
        "incidence.hermite_self_s": self_s["incidence.hermite_profile"],
        "incidence.dfs_nodes": counts["incidence.dfs_nodes"],
        "incidence.dfs_accept_ratio": ratio(counts["incidence.dfs_accepted_below_1"],
                                            counts["incidence.dfs_children_tried"]),
        "oracle.ran": calls["oracle.ran"],
        "oracle.refused": calls["oracle.refused"],
        # Total and refused time, rather than ran and refused: at oracle
        # budget 0 no oracle runs, and a time that reads 0 on every run is
        # not a measurement.
        "oracle.s": dur["oracle.ran"] + dur["oracle.refused"],
        "oracle.refused_s": dur["oracle.refused"],
        "diagnostics.regularity_s": dur["diagnostics.regularity"],
        "diagnostics.regularity_at_infinity_s": dur["diagnostics.regularity_at_infinity"],
        "diagnostics.discriminant_loci_s": dur["diagnostics.discriminant_loci"],
        "diagnostics.points": counts["diagnostics.points"],
        "diagnostics.k_skipped": counts["diagnostics.k_skipped"],
        "cli.slice_member_share_max": share_max,
        "cli.slice_s_max": max(slice_s.values(), default=0.0),
        "report.render_s": self_s["report.render"],
        "trace.wall_s": dur["cli.run"],
    }
