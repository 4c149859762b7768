"""Benchmark of decaylab: catalog workloads end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload transport-sup --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run it from the root of a decaylab checkout; it imports the package from
``src/`` there and needs no build.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json: the median wall time of a pass over the
workload's experiments, the median set-up time of fresh processes timed
between the passes, and the workload process's peak RSS.  ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics.  ``--workload all`` runs
every workload untraced and prints one table.  Every experiment's exit code,
verdict and reference values are checked; a result line is printed with
``correct`` false when any check fails.  Results and spans are kept under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(HERE, "bench.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0  # a run must end within 180 s
# BLAS/OpenMP pools stay at one thread, so --threads is the only parallelism
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def source_stamp() -> dict:
    """Git sha when the checkout is a git work tree, and a digest of ``src/`` always."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def child(argv: list, deadline: float) -> dict:
    """Run bench.py in a fresh process and return its JSON result line."""
    env = dict(os.environ, **PINNED_ENV)
    # its own process group, so that a timeout also stops the set-up probe it may be waiting on
    with subprocess.Popen(
        [sys.executable, BENCH, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    run_dir = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", name, "--seed", str(seed)]
    work = os.path.join(run_dir, "work")
    out = child(common + ["--seconds", str(seconds), "--trace", str(trace), "--dir", work], deadline)
    for sub in ("configs", "reports"):
        shutil.rmtree(os.path.join(work, sub), ignore_errors=True)
    if trace:
        metrics = out["layers"]
    else:
        metrics = {
            "wall_s": statistics.median(out["walls"]),
            "setup_s": statistics.median(out["setup_probes_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    result = {
        "workload": name,
        "experiments": list(WORKLOADS[name]),
        "environment": dict(out["environment"], **source_stamp()),
        "metrics": metrics,
        "pass_walls_s": out["walls"],
        "setup_probes_s": out.get("setup_probes_s", []),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "problems": out["problems"],
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result


def declared_units(trace: int) -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "decaylab", "__init__.py")):
        print(f"no decaylab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced")
    units = declared_units(args.trace)

    deadline = time.monotonic() + TIME_LIMIT_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + TIME_LIMIT_S
        result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        if set(result["metrics"]) != set(units):
            raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(units)}")
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: {', '.join(result['experiments'])}")
        print(f"  environment {json.dumps(result['environment'], sort_keys=True)}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:<40} {value:>16.6g} {units[metric]}")
        print(f"  {'fail_frac':<40} {result['failed'] / result['attempted']:>16.6g} "
              f"({result['failed']} of {result['attempted']} experiment runs)")
        for problem in result["problems"]:
            print(f"  FAILED {problem}")
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics.update(
            {prefix + m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()}
        )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
