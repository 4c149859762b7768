"""Record ``reference.json``: the fit slopes and intercepts, inequality
max_ratios and sample rows of every catalog experiment at its default config
and the catalog's own seed.

    python3 perfbench/make_reference.py

Rerun it only for a change that is meant to move these values, and state the
largest relative change it made.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import bench
from workloads import DEFAULT_SEED, THREADS, WORKLOADS


def main() -> int:
    work_dir = os.path.join(bench.ROOT, ".perfbench", "reference")
    shutil.rmtree(work_dir, ignore_errors=True)
    values = {}
    for name, experiment_ids in WORKLOADS.items():
        paths, _ = bench.setup(experiment_ids, DEFAULT_SEED, os.path.join(work_dir, name))
        out_dir = os.path.join(work_dir, "reports")
        _, outcomes = bench.run_pass(paths, THREADS, out_dir)
        for exp_id, outcome in outcomes.items():
            if outcome != 0:
                print(f"{exp_id}: exit {outcome!r}", file=sys.stderr)
                return 1
            with open(os.path.join(out_dir, f"{exp_id}.json"), encoding="utf-8") as fh:
                values[exp_id] = bench.report_values(json.load(fh))
    shutil.rmtree(work_dir)
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "experiments": values}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {bench.REFERENCE}: {len(values)} experiments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
