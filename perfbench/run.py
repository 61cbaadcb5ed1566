"""Benchmark of `valuesets run`: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed draws the workload's
config files (perfbench/workloads.py); the program sees only those files.

--trace 0 measures end to end: `setup_s` from SETUP_REPEATS fresh
interpreters that import the package and parse every config, then whole
workload iterations, each running the real CLI once per config as a
subprocess: at least MIN_ITERATIONS, and another only while it is expected
to end within S seconds.  Every run is checked (perfbench/checker.py).  The
medians over the iterations are reported.

--trace 1 runs one untraced iteration, then the same configs in-process
under the layer wrappers of perfbench/tracing.py, then once more counting
field operations only, and reports the per-layer metrics.  The traced CSVs
must equal the untraced ones byte for byte.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checker import check_run
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 7
MIN_ITERATIONS = 2
SETUP_CODE = (
    "import sys\n"
    "import valuesets\n"
    "from valuesets.config import parse_config\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_config(fh.read())\n"
)
REFERENCE = HERE / "reference.json"


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def _timed_subprocess(argv, work, tag):
    """Run argv to completion; wall seconds, exit code, rusage, stderr text."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_env(), cwd=ROOT, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage, err_path.read_text(encoding="utf-8", errors="replace")


def _reference(workload, seed):
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed), {})


class Run:
    """Config files of one set of families, plus pass/fail tallies."""

    def __init__(self, families, work, reference=None):
        self.families = families
        self.reference = reference or {}
        self.work = Path(work)
        self.paths = []
        for fam in families:
            path = self.work / f"{fam.label}.cfg"
            path.write_text(fam.text, encoding="utf-8")
            self.paths.append(path)
        self.attempted = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))

    @property
    def failed(self):
        return len(self.problems)

    def setup_seconds(self):
        """Median wall time of fresh interpreters importing and parsing all configs."""
        argv = [sys.executable, "-c", SETUP_CODE, *map(str, self.paths)]
        _timed_subprocess(argv, self.work, "setup-warm")  # fills __pycache__
        times = []
        for i in range(SETUP_REPEATS):
            wall, rc, _, err = _timed_subprocess(argv, self.work, f"setup-{i}")
            self.record("setup", [] if rc == 0 else [f"exit code {rc}: {err.strip()[-200:]}"])
            times.append(wall)
        return statistics.median(times)

    def iteration(self, n):
        """Run the CLI once per config; wall, cpu, peak RSS (MB), CSV texts."""
        wall = cpu = rss = 0.0
        csvs = []
        for fam, path in zip(self.families, self.paths):
            csv_path = self.work / f"{fam.label}.{n}.csv"
            argv = [sys.executable, "-m", "valuesets.cli", "run", str(path),
                    "--csv", str(csv_path)]
            w, rc, usage, err = _timed_subprocess(argv, self.work, f"{fam.label}.{n}")
            wall += w
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)
            csv_text = csv_path.read_text(encoding="utf-8") if csv_path.is_file() else None
            self.record(fam.label, check_run(rc, err, csv_text, fam,
                                             self.reference.get(fam.label)))
            csvs.append(csv_text)
        return wall, cpu, rss, csvs


def _summary_line(name, values, unit):
    qs = statistics.quantiles(values, n=4)
    return (f"{name}: median {statistics.median(values):.4f} {unit}, quartiles "
            f"{qs[0]:.4f}..{qs[2]:.4f}, min {min(values):.4f}, max {max(values):.4f}, "
            f"n={len(values)}")


def end_to_end(run, seconds):
    setup = run.setup_seconds()
    pairs = sum(f.members * f.q for f in run.families)
    walls, cpus, rsss = [], [], []
    start = time.perf_counter()
    # At least MIN_ITERATIONS; past that, start another iteration only if it
    # is expected to end within `seconds`.
    while len(walls) < MIN_ITERATIONS or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        wall, cpu, rss, _ = run.iteration(len(walls))
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
    rates = [pairs / w for w in walls]
    print(_summary_line("run_s", walls, "s"))
    print(_summary_line("cpu_s", cpus, "s"))
    print(f"pairs per iteration: {pairs}")
    return {
        "run_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (setup, "s"),
        "pairs_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
    }


def _compare(run, suffix, expected, outputs):
    for fam, want, got in zip(run.families, expected, outputs):
        if isinstance(got, Exception):
            problems = [f"raised {got!r}"]
        else:
            problems = [] if got == want else ["CSV differs from the untraced run"]
        run.record(f"{fam.label} {suffix}", problems)


def traced(run, workload, seed):
    import tracing

    wall, _, _, untraced = run.iteration(0)
    rec, outputs = tracing.traced_run(run.families, run.paths, run.work / "traced")
    _compare(run, "traced", untraced, outputs)
    counted, outputs = tracing.traced_run(run.families, run.paths, run.work / "counted",
                                          count_ops=True)
    _compare(run, "op-counted", untraced, outputs)
    layers = tracing.layer_metrics(rec)
    layers["ffield.op_calls"] = counted.ops[0]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps({"machine": machine_info(), "spans": rec.spans}),
                          encoding="utf-8")
    print(f"spans: {len(rec.spans)} written to {spans_path.relative_to(ROOT)}")
    return {name: (value, _layer_unit(name)) for name, value in layers.items()}


def _layer_unit(name):
    if name.endswith(("_s", ".s", "_s_max")):
        return "s"
    if name.endswith(("_ratio", "_share_max")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "valuesets" / "cli.py").is_file():
        print(f"perfbench: no valuesets sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        run = Run(generate(args.workload, args.seed), work,
                  _reference(args.workload, args.seed))
        print(f"machine: {json.dumps(machine_info())}")
        print(f"workload {args.workload}, seed {args.seed}: "
              + ", ".join(f"{f.label} (|A|={f.members}, q={f.q})" for f in run.families))
        if args.trace:
            metrics = traced(run, args.workload, args.seed)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"failed_frac {run.failed / run.attempted:.4f}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
