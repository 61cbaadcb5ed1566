"""Store the CSV rows of the CLI for recorded seeds in reference.json.

    python3 perfbench/record_reference.py SEED [SEED ...]

Run from the root of a source checkout at the commit whose output is the
reference.  Rows that fail the checker are not stored.  Existing entries for
other seeds are kept.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import REFERENCE, ROOT, Run
from workloads import WORKLOADS, generate


def main(argv):
    seeds = [int(s) for s in argv] or [1]
    data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for seed in seeds:
            work = tempfile.mkdtemp(prefix="reference-", dir=work_root)
            try:
                run = Run(generate(name, seed), work)
                _, _, _, csvs = run.iteration(0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if run.problems:
                print(f"{name} seed {seed}: not stored: {run.problems}", file=sys.stderr)
                return 1
            data.setdefault(name, {})[str(seed)] = {
                fam.label: text for fam, text in zip(run.families, csvs)
            }
            print(f"{name} seed {seed}: stored {len(csvs)} rows", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
