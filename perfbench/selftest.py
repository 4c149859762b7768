"""Self-tests of the benchmark: thread determinism and tracing that changes nothing.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these slow tests (about a minute) out of the package's
own test collection.  ``vlasov-decay`` and ``transport-degenerate`` run at
``--threads 1`` and ``--threads 2``, and once more at one thread under the
tracer; every run must write byte-identical ``_samples.tsv`` files.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

EXPERIMENTS = ("vlasov-decay", "transport-degenerate")


def _tables(out_dir: str) -> dict:
    tables = {}
    for exp_id in EXPERIMENTS:
        with open(os.path.join(out_dir, f"{exp_id}_samples.tsv"), "rb") as fh:
            tables[exp_id] = fh.read()
    return tables


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("selftest")
    paths, _ = bench.setup(EXPERIMENTS, DEFAULT_SEED, str(root / "configs"))
    out = {}
    for label, threads in (("threads1", 1), ("threads2", 2), ("traced", 1)):
        out_dir = str(root / label)
        tracer = Tracer()
        if label == "traced":
            with tracer.installed():
                _, outcomes = bench.run_pass(paths, threads, out_dir)
        else:
            _, outcomes = bench.run_pass(paths, threads, out_dir)
        out[label] = (outcomes, _tables(out_dir), tracer)
    return out


def test_every_run_passes(runs):
    for label, (outcomes, _, _) in runs.items():
        assert outcomes == {exp_id: 0 for exp_id in EXPERIMENTS}, label


def test_tables_identical_at_one_and_two_threads(runs):
    assert runs["threads1"][1] == runs["threads2"][1]


def test_traced_tables_identical_to_untraced(runs):
    assert runs["traced"][1] == runs["threads1"][1]
    spans = runs["traced"][2].summary()
    assert spans["transport.sup_velocity_average"]["calls"] > 0
    assert spans["fields.value"]["calls"] > 0


def test_tracer_restores_every_binding():
    sys.path.insert(0, bench.SRC)
    import decaylab.cli  # noqa: F401  (every module whose bindings the tracer rebinds)
    import numpy.fft

    modules = [m for name, m in sys.modules.items() if name.startswith("decaylab")] + [numpy.fft]
    before = {id(m): dict(vars(m)) for m in modules}
    from decaylab import fields

    value = fields.Gaussian.value
    with Tracer().installed():
        assert fields.Gaussian.value is not value
    assert fields.Gaussian.value is value
    for m in modules:
        after = vars(m)
        assert all(after.get(k) is v for k, v in before[id(m)].items()), m.__name__


def test_reference_catches_a_scaled_datum():
    ref = {
        "fits": {"decay": {"slope": -0.5, "intercept": 0.25}},
        "inequalities": {"bound": 0.75},
        "samples": [["mass", 0.0, 3.0, 1e-16], ["mass", 1.0, 3.0, 2e-16]],
    }
    assert bench.compare("e", ref, ref) == []
    rounded = dict(ref, samples=[["mass", 0.0, 3.0 * (1 + 1e-9), 3e-16], ["mass", 1.0, 3.0, 0.0]])
    assert bench.compare("e", rounded, ref) == []
    doubled = dict(ref, samples=[["mass", 0.0, 6.0, 1e-16], ["mass", 1.0, 6.0, 2e-16]])
    assert len(bench.compare("e", doubled, ref)) == 1
    shifted = dict(ref, fits={"decay": {"slope": -0.5, "intercept": 0.25 + 0.693}})
    assert len(bench.compare("e", shifted, ref)) == 1
    relabelled = dict(ref, samples=[["energy", 0.0, 3.0, 1e-16], ref["samples"][1]])
    assert len(bench.compare("e", relabelled, ref)) == 1


def test_covered_seconds_merges_overlaps():
    from tracing import Span

    tracer = Tracer()
    tracer.spans.extend(
        [
            Span("a", 0.0, 2.0, 1, 0, None, 2.0),
            Span("b", 1.0, 3.0, 2, 1, None, 2.0),
            Span("c", 5.0, 6.0, 1, 2, None, 1.0),
        ]
    )
    assert tracer.covered_seconds(0.0, 10.0) == pytest.approx(4.0)
    assert tracer.covered_seconds(2.5, 5.5) == pytest.approx(1.0)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
