"""Workload process of the decaylab benchmark; ``run.py`` starts it.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
    python3 perfbench/bench.py --workload NAME --seed N --dir DIR --setup-only

Set-up imports ``decaylab`` from ``src/`` of this checkout, builds the
catalog, and writes and loads one seeded default config per experiment of
the workload.  A pass then runs every experiment once through
``decaylab.cli.main(["run", "--config", ..., "--out", ...])``; passes repeat
until ``--seconds`` have elapsed.  Before the first pass and after each pass
the process times the set-up of fresh processes (``--setup-only``), one at a
time while it waits.  With ``--trace 1`` the process runs one untraced pass
and one traced pass instead, and no set-up probes.  After each pass every report is
checked: exit code 0, a PASS verdict, and the fit slopes and intercepts,
inequality max_ratios and sample rows of ``reference.json``.  The last stdout line is a JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, REFERENCE_ABS_TOL, REFERENCE_REL_TOL, SEEDED, THREADS, WORKLOADS  # noqa: E402

# Set-up probes run before the first pass and after every pass, so that the
# median set-up time samples the whole run rather than one stretch of it.
PROBES_PER_GAP = 8


def seeded_config(experiments, exp_id: str, seed: int) -> str:
    """The catalog's default config of ``exp_id`` with ``experiment.seed`` replaced."""
    text = experiments.emit_config(experiments.default_config(exp_id))
    text, n = re.subn(r"(?m)^seed = .*$", f"seed = {seed}", text)
    if n != 1:
        raise RuntimeError(f"{exp_id}: expected one seed key in the default config, found {n}")
    return text


def setup(experiment_ids, seed: int, config_dir: str):
    """Import decaylab, build the catalog, write and load the configs; return paths and seconds."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import decaylab
    from decaylab import experiments

    if not os.path.abspath(decaylab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"decaylab was imported from {decaylab.__file__}, not from {SRC}")
    experiments.catalog()
    os.makedirs(config_dir, exist_ok=True)
    paths = []
    for exp_id in experiment_ids:
        path = os.path.join(config_dir, f"{exp_id}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(seeded_config(experiments, exp_id, seed))
        config = experiments.load_config(path)
        if config.experiment != exp_id or config.get("experiment", "seed") != seed:
            raise RuntimeError(f"{path}: generated config does not load back as {exp_id} at seed {seed}")
        paths.append((exp_id, path))
    return paths, time.perf_counter() - start


def run_pass(paths, threads: int, out_dir: str):
    """Run every experiment once through the CLI; return (wall seconds, {id: exit code or error})."""
    from decaylab import cli

    outcomes = {}
    sink = io.StringIO()
    start = time.perf_counter()
    for exp_id, path in paths:
        argv = ["run", "--config", path, "--out", out_dir, "--threads", str(threads)]
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                outcomes[exp_id] = cli.main(argv)
        except Exception as err:  # an experiment that crashes counts as failed; the others still run
            outcomes[exp_id] = f"{type(err).__name__}: {err}"
    return time.perf_counter() - start, outcomes


def _close(value, ref) -> bool:
    """Numbers agree within the reference tolerance; anything else must be equal."""
    if isinstance(ref, float) and isinstance(value, float):
        return abs(value - ref) <= REFERENCE_REL_TOL * abs(ref) + REFERENCE_ABS_TOL
    return type(value) is type(ref) and value == ref


def report_values(report: dict) -> dict:
    """The values checked against the reference: every fit's slope and
    intercept, every inequality's max_ratio, and the sample rows."""
    return {
        "fits": {f["name"]: {"slope": f["slope"], "intercept": f["intercept"]} for f in report["fits"]},
        "inequalities": {q["name"]: q["max_ratio"] for q in report["inequalities"]},
        "samples": report["samples"],
    }


def compare(exp_id: str, got: dict, ref: dict) -> list:
    """Problems where report values differ from the reference ones."""
    problems = []
    for kind in ("fits", "inequalities"):
        if set(got[kind]) != set(ref[kind]):
            problems.append(f"{exp_id}: {kind} {sorted(got[kind])} != reference {sorted(ref[kind])}")
            continue
        for name, value in got[kind].items():
            pairs = value.items() if kind == "fits" else (("max_ratio", value),)
            for what, v in pairs:
                r = ref[kind][name][what] if kind == "fits" else ref[kind][name]
                if not _close(v, r):
                    problems.append(f"{exp_id}: {name} {what} {v!r} != reference {r!r}")
    rows, ref_rows = got["samples"], ref["samples"]
    if len(rows) != len(ref_rows):
        problems.append(f"{exp_id}: {len(rows)} sample rows != reference {len(ref_rows)}")
        return problems
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row) or not all(map(_close, row, ref_row)):
            problems.append(f"{exp_id}: sample row {i} {row!r} != reference {ref_row!r}")
            break
    return problems


def check_report(exp_id: str, outcome, out_dir: str, seed: int, reference: dict) -> list:
    """Problems with one experiment's outcome and report; empty when it is correct."""
    if outcome != 0:
        return [f"{exp_id}: exit {outcome!r}"]
    with open(os.path.join(out_dir, f"{exp_id}.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    problems = [] if report["passed"] else [f"{exp_id}: verdict FAIL"]
    if exp_id in SEEDED and seed != DEFAULT_SEED:
        return problems
    return problems + compare(exp_id, report_values(report), reference[exp_id])


def setup_probe(args) -> float:
    """Set-up seconds of a fresh process of this workload; it runs while this one waits."""
    probe_dir = os.path.join(args.dir, "probe")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
         "--dir", probe_dir, "--setup-only"],
        capture_output=True,
        text=True,
        check=True,
    )
    shutil.rmtree(probe_dir)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "seed": seed,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, help="working directory for configs, reports and spans")
    parser.add_argument("--setup-only", action="store_true", help="time set-up alone and exit")
    args = parser.parse_args(argv)

    paths, setup_s = setup(WORKLOADS[args.workload], args.seed, os.path.join(args.dir, "configs"))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["experiments"]
    out_dir = os.path.join(args.dir, "reports")
    walls, problems = [], []
    counts = {"attempted": 0, "failed": 0}

    def measured_pass():
        wall, outcomes = run_pass(paths, THREADS, out_dir)
        for exp_id, outcome in outcomes.items():
            found = check_report(exp_id, outcome, out_dir, args.seed, reference)
            counts["attempted"] += 1
            counts["failed"] += bool(found)
            problems.extend(found)
        walls.append(wall)
        return wall

    result = {"environment": environment(args.workload, args.seed)}
    if args.trace:
        from tracing import Tracer, layer_metrics

        untraced = measured_pass()
        tracer = Tracer()
        with tracer.installed():
            start = time.perf_counter()
            traced = measured_pass()
            end = time.perf_counter()
        tracer.write(os.path.join(args.dir, "spans.json"))
        result["layers"] = layer_metrics(tracer, traced, untraced, (start, end))
    else:
        probes = result["setup_probes_s"] = []
        setup_probe(args)  # warm-up, not recorded
        start = time.perf_counter()
        probes += [setup_probe(args) for _ in range(PROBES_PER_GAP)]
        while not walls or time.perf_counter() - start < args.seconds:
            measured_pass()
            probes += [setup_probe(args) for _ in range(PROBES_PER_GAP)]
    result.update(
        walls=walls,
        problems=problems[:20],
        **counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
