"""Command-line entry point.

Exit codes:

0  ``list`` or ``validate`` succeeded, or ``run`` finished and every check passed.
1  ``run`` finished and an inequality, fit target or oracle check failed; the
   report is written. An unexpected exception also exits 1, with a traceback.
2  bad input: a bad command line, or a config that cannot be read or parsed,
   names an unknown section or key, or holds an out-of-range value (found at
   load time or by the runner); no report is written.
3  numerical contamination: wrap-around excluded every sample of a check, or
   left a decay fit fewer than 5 samples; no report is written.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ConfigError,
    OUTPUT_DIR_ENV,
    emit_config,
    list_catalog,
    load_config,
    run,
)
from .harness import ContaminationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaylab",
        description="Desk-scale verification of dispersive decay estimates.",
        epilog=f"Default report directory comes from ${OUTPUT_DIR_ENV} when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to an INI experiment config")
    p_run.add_argument("--out", default=None, help="report output directory")
    p_run.add_argument("--threads", type=int, default=1, help="worker threads for independent samples")

    sub.add_parser("list", help="list the experiment catalog")

    p_val = sub.add_parser("validate", help="validate a config file and echo the resolved form")
    p_val.add_argument("--config", required=True, help="path to an INI experiment config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        rows = list_catalog()
        width = max(len(r["id"]) for r in rows)
        for r in rows:
            print(f"{r['id']:<{width}}  {r['anchor']}")
            print(f"{'':<{width}}  {r['description']}")
        return 0

    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.command == "validate":
        sys.stdout.write(emit_config(config))
        return 0

    try:
        report = run(config, out_dir=args.out, threads=args.threads)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ContaminationError as err:
        print(f"numerical contamination: {err}", file=sys.stderr)
        return 3
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.experiment}: {status} ({report.wall_clock_s:.2f} s, {len(report.rows)} sample rows)")
    for note in report.notes:
        print(f"  {note}")
    for fit in report.fits:
        print(f"  fit {fit['name']}: slope {fit['slope']:+.4f} over {fit['window']}")
    for ineq in report.inequalities:
        print(
            f"  {ineq['name']}: max ratio {ineq['max_ratio']:.4g} vs bound {ineq['bound']:.4g} "
            f"-> {'ok' if ineq['passed'] else 'VIOLATED'}"
        )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
