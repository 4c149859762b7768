"""Every catalog report equals its recording, byte for byte.

For each config below, ``tests/reports`` holds the two files that
``decaylab run --out`` writes: ``<name>.json``, with ``wall_clock_s`` set to
0, and ``<name>_samples.tsv``. These recordings are the only pin on the
numbers of the reports: every fit, inequality ratio, check value, note and
sample row. The recorded JSON must also pass the benchmark's own check
against ``perfbench/reference.json``.

A change that is meant to move numbers re-records every file with

    PYTHONPATH=src python tests/test_recorded_reports.py

which prints, for each entry, the largest relative move of any number in
each file. Name every re-recorded entry with its largest moves in
CHANGES.md.
"""

import functools
import importlib.util
import json
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from decaylab.experiments import OUTPUT_DIR_ENV, list_catalog, parse_config, run

ROOT = Path(__file__).resolve().parents[1]
REPORTS = ROOT / "tests" / "reports"

# name -> config text: each catalog entry at its defaults, and the relativistic map of transport-degenerate
CONFIGS = {
    **{row["id"]: f"[experiment]\nid = {row['id']}\n" for row in list_catalog()},
    "transport-degenerate-relativistic": "[experiment]\nid = transport-degenerate\n[datum]\nmap = relativistic\n",
}
FILES = (".json", "_samples.tsv")


@functools.cache
def _files(name: str) -> dict:
    """file name -> text of the two files ``run --out`` writes for the named config."""
    report = replace(run(parse_config(CONFIGS[name])), wall_clock_s=0.0)
    return {f"{name}.json": report.to_json(), f"{name}_samples.tsv": report.samples_table()}


def _numbers(text: str) -> list:
    """Every number of a recorded file, in order."""
    numbers = []
    for token in re.split(r'[\s,:\[\]{}"]+', text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


def _move(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    move = abs(new - old) / abs(old) if old else math.inf
    return math.inf if math.isnan(move) else move  # a number that became or stopped being nan or inf


def _largest_move(recorded: str, text: str) -> float:
    """The largest relative move of any number between two versions of a file (inf when their counts differ)."""
    old, new = _numbers(recorded), _numbers(text)
    if len(old) != len(new):
        return math.inf
    return max(map(_move, old, new), default=0.0)


def _difference(file: str, recorded: str, text: str) -> str:
    end = ["<end of file>"]
    old, new = recorded.splitlines() + end, text.splitlines() + end
    line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), len(old) - 1)
    return (
        f"{file} differs from its recording from line {line + 1}: recorded {old[line]!r}, now {new[line]!r}; "
        f"largest relative move of any number {_largest_move(recorded, text):.3g}"
    )


@pytest.mark.parametrize("name, file", [(name, name + suffix) for name in CONFIGS for suffix in FILES])
def test_report_equals_its_recording(name, file, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    recorded, text = (REPORTS / file).read_text(), _files(name)[file]
    if text != recorded:
        pytest.fail(_difference(file, recorded, text))


def test_every_catalog_entry_has_a_recording():
    assert sorted(p.name for p in REPORTS.iterdir()) == sorted(name + suffix for name in CONFIGS for suffix in FILES)


def test_no_recorded_table_cell_holds_a_numpy_repr():
    # a cell such as np.float64(0.5) is numpy 2's repr of its own float, not the number the table is to hold
    for path in sorted(REPORTS.glob("*_samples.tsv")):
        cells = [cell for line in path.read_text().splitlines() for cell in line.split("\t")]
        assert not [cell for cell in cells if "np." in cell], path.name


def test_recorded_reports_pass_the_benchmark_check(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # bench.py puts perfbench/ on the path
    spec = importlib.util.spec_from_file_location("bench", ROOT / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["experiments"]
    for exp_id, ref in reference.items():
        report = json.loads((REPORTS / f"{exp_id}.json").read_text())
        assert bench.compare(exp_id, bench.report_values(report), ref) == []


if __name__ == "__main__":
    os.environ.pop(OUTPUT_DIR_ENV, None)
    for name in CONFIGS:
        moves = []
        for file, text in _files(name).items():
            path = REPORTS / file
            moves.append(f"{file} {_largest_move(path.read_text(), text):.3g}" if path.exists() else f"{file} new")
            path.write_text(text)
        print(f"{name}: largest relative move {', '.join(moves)}")
