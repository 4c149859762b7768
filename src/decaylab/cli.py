"""Command-line entry point.

Exit codes:

0  ``list`` or ``validate`` succeeded, or ``run`` finished and every check passed.
1  ``run`` finished and a fit, inequality or check record failed; the report
   is written. An unexpected exception also exits 1, with a traceback.
2  bad input: a bad command line, or a config that cannot be read (a missing
   file, or one that is not UTF-8 text) or parsed, names an unknown section
   or key, or holds an out-of-range value (found at load time, so by
   ``validate`` too; no runner raises ``ConfigError``, and one
   that did would also exit 2), or whose grid box is too small for its datum
   (found at load time, so by ``validate`` too; a ``SupportOverflowError``
   from a runner also maps here), or whose grid spacing is above half the
   ``feature_scale()`` of a sampled datum, so the grid does not resolve it
   (found at load time; indicator data have no feature scale and are not
   checked); no report is written.
3  numerical contamination: wrap-around excluded every sample of a check,
   left a decay fit fewer than 5 samples, left a boost-norm drift of
   ``schrodinger-ks`` fewer than 2 clean times, or reached the field that
   ``schrodinger-xnorm`` cross-checks at ``times.cross_check_t``; no report is written.
-  a closed stdout, as when a reader such as ``head`` stops early, changes none
   of the codes above, nor the 0 of ``--help`` at any level: the output it does
   not take is dropped, with no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    ConfigError,
    OUTPUT_DIR_ENV,
    emit_config,
    list_catalog,
    load_config,
    run,
)
from .fields import SupportOverflowError
from .harness import ContaminationError, _exclusion_note


def _thread_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _verdict(record) -> str:
    return "ok" if record.passed else "VIOLATED"


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
    p_run.add_argument(
        "--threads", type=_thread_count, default=1, help="worker threads (at least 1) that spread conservation's"
        " five cases; every other entry runs its work in one batch at any thread count"
    )

    sub.add_parser("list", help="list the experiment catalog")

    p_val = sub.add_parser("validate", help="validate a config file and echo the resolved form")
    p_val.add_argument("--config", required=True, help="path to an INI experiment config")
    return parser


def main(argv=None) -> int:
    out = ""
    try:
        code, out = _command(_build_parser().parse_args(argv))
    finally:  # also when argparse exits after writing its help
        try:
            sys.stdout.write(out)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed its end: point stdout at the null device, so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _command(args) -> tuple:
    """(exit code, stdout text) of a parsed command line; an error is printed to stderr as it is met."""
    if args.command == "list":
        rows = list_catalog()
        width = max(len(r["id"]) for r in rows)
        return 0, "".join(f"{r['id']:<{width}}  {r['anchor']}\n{'':<{width}}  {r['description']}\n" for r in rows)

    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2, ""

    if args.command == "validate":
        return 0, emit_config(config)

    try:
        report = run(config, out_dir=args.out, threads=args.threads)
    except (ConfigError, SupportOverflowError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2, ""
    except ContaminationError as err:
        print(f"numerical contamination: {err}", file=sys.stderr)
        return 3, ""
    status = "PASS" if report.passed else "FAIL"
    lines = [f"{report.experiment}: {status} ({report.wall_clock_s:.2f} s, {len(report.rows)} sample rows)"]
    lines += [f"  {note}" for note in report.notes]
    for fit in report.fits:
        lines.append(f"  fit {fit.name}: slope {fit.fit.slope:+.4f} over {list(fit.fit.window)} -> {_verdict(fit)}")
        if summary := _exclusion_note(fit.fit.excluded):
            lines.append(f"    {summary}")
    for ineq in report.inequalities:
        dim = dict(ineq.detail).get("dim")  # tells apart the reports of one estimate in several dimensions
        name = ineq.name if dim is None else f"{ineq.name} (dim {dim})"
        lines.append(f"  {name}: max ratio {ineq.max_ratio:.4g} vs bound {ineq.bound:.4g} -> {_verdict(ineq)}")
        if summary := _exclusion_note(ineq.excluded):
            lines.append(f"    {summary}")
    for check in report.checks:
        lines.append(f"  check {check.name}: {check.value:.4g} {check.relation} {check.bound:.4g} -> {_verdict(check)}")
    return (0 if report.passed else 1), "".join(f"{line}\n" for line in lines)


if __name__ == "__main__":
    sys.exit(main())
