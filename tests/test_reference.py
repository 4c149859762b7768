"""Catalog experiments reproduce the recorded benchmark reference.

``counterexample``, ``cube-translation`` and ``schrodinger-decay`` take well
under a second at their default configs and between them go through the pair
quadrature, the gradient oracles, the translated X norm and ``sample``. The
fits, inequality ratios and sample rows of these three must equal
``perfbench/reference.json`` bit for bit, and so must those of
``schrodinger-xnorm`` and ``lp-decay``, the dispersive-sup and L^p checks.

``local-mass``, ``airy-pointwise``, ``airy-local-energy``, ``airy-decay`` and
``monomial-2k`` are compared within the same 1e-13 relative as
``schrodinger-ks`` below. The per-time spectral kernels were rewritten after
the reference was recorded, and moved their rows in the last bits: the
degree-4 phase is mirrored across +-xi (``monomial-2k``), real fields are
evolved and differentiated through ``rfft``/``irfft`` (the Airy entries), and
each dyadic norm is read from one matrix-vector product (``local-mass``). The
largest move is 1.5e-14 relative (``airy-pointwise``; ``monomial-2k`` 9.3e-15).

``schrodinger-ks`` is compared within 1e-13 relative. Four changes since the
reference was recorded move its rows in the last bits. The multiplier is
applied as one factor exp(t sigma_j(xi_j)) per axis, not as the exponential
of the summed full-grid phase (at t = 16 the 2-d phase reached about 2e3 rad).
Its boost norms come from Parseval sums of one transform of the chirped field,
not from a chain of spectral-derivative boosts; at every default time that
transform is resolved, so no boost walk runs. Its 2-d datum, the square of a
1-d Gaussian on a square grid, is evolved as that 1-d factor: the sup, the
wrap-around guard and the boost norms of the square are read from the
factor's, node by node, and no 2-d field is formed. Together they move rows
and ratios by up to 1e-15 relative. Last, the d1 check forms its own
boost-norm table to order 1 at t = 1, which is also a drift time, where it
once read the drift's table to order 2: the other column count rounds the
sums differently, and moved the t = 1 rhs by 1.1e-15 relative, and its ratio
and the stability bound by 9.3e-16.

``vlasov-decay`` and ``transport-degenerate`` (under a second each) guard the
adaptive sup search. Its refinement finds each sup to about 1e-12, so their
numbers moved by up to 2e-9 relative from the recorded ones, which came
from an older, coarser search; they are compared within the benchmark's own
gate.

``commutation-suite`` at the catalog seed is compared within the same gate.
Its rows are rounding-level residuals (1e-14 to 1e-12): since its residuals
are formed on the Fourier side, without a round trip of each derivative
through physical space, they moved by up to 1.4e-13 absolute, inside the
gate's 1e-12. The file is only read here.
"""

import json
from pathlib import Path

import pytest

from decaylab import operators
from decaylab.experiments import OUTPUT_DIR_ENV, default_config, run

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# The benchmark's correctness gate, |value - ref| <= 1e-6 * |ref| + 1e-12,
# restated from perfbench/workloads.py (REFERENCE_REL_TOL, REFERENCE_ABS_TOL).
GATE_REL, GATE_ABS = 1e-6, 1e-12
# schrodinger-ks: rounding of the per-axis multiplier and of the Parseval sums, with room above the 1e-15 seen;
# the rewritten per-time kernels of five more entries, with room above the 1.5e-14 seen
KS_REL = 1e-13


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["experiments"]


def _numbers(report):
    fits = {f["name"]: {"slope": f["slope"], "intercept": f["intercept"]} for f in report["fits"]}
    return report["samples"], fits, {q["name"]: q["max_ratio"] for q in report["inequalities"]}


def _report(exp_id, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    return json.loads(run(default_config(exp_id)).to_json())


@pytest.mark.parametrize(
    "exp_id", ["counterexample", "cube-translation", "schrodinger-decay", "schrodinger-xnorm", "lp-decay"]
)
def test_rows_equal_reference(exp_id, reference, monkeypatch):
    ref = reference[exp_id]
    assert _numbers(_report(exp_id, monkeypatch)) == (ref["samples"], ref["fits"], ref["inequalities"])


def _within(got, ref, rel, abs_):
    if isinstance(ref, dict):
        return got.keys() == ref.keys() and all(_within(got[k], ref[k], rel, abs_) for k in ref)
    if isinstance(ref, (list, tuple)):
        return len(got) == len(ref) and all(_within(g, r, rel, abs_) for g, r in zip(got, ref))
    if isinstance(ref, float):
        return abs(got - ref) <= rel * abs(ref) + abs_
    return got == ref


def test_schrodinger_ks_rows_within_rounding(reference, monkeypatch):
    def walk(*args):
        raise AssertionError("the default schrodinger-ks run fell back to the boost walk")

    monkeypatch.setattr(operators, "_boost_walk", walk)
    ref = reference["schrodinger-ks"]
    got = _numbers(_report("schrodinger-ks", monkeypatch))
    assert _within(got, (ref["samples"], ref["fits"], ref["inequalities"]), KS_REL, 0.0)


@pytest.mark.parametrize("exp_id", ["local-mass", "airy-pointwise", "airy-local-energy", "airy-decay", "monomial-2k"])
def test_spectral_rows_within_rounding(exp_id, reference, monkeypatch):
    ref = reference[exp_id]
    got = _numbers(_report(exp_id, monkeypatch))
    assert _within(got, (ref["samples"], ref["fits"], ref["inequalities"]), KS_REL, 0.0)


@pytest.mark.parametrize("exp_id", ["vlasov-decay", "transport-degenerate"])
def test_transport_rows_within_gate(exp_id, reference, monkeypatch):
    ref = reference[exp_id]
    got = _numbers(_report(exp_id, monkeypatch))
    assert _within(got, (ref["samples"], ref["fits"], ref["inequalities"]), GATE_REL, GATE_ABS)


def test_commutation_suite_rows_within_gate(reference, monkeypatch):
    ref = reference["commutation-suite"]
    report = _report("commutation-suite", monkeypatch)
    assert report["config"]["experiment"]["seed"] == 20260811  # the seed reference.json was recorded with
    assert _within(_numbers(report), (ref["samples"], ref["fits"], ref["inequalities"]), GATE_REL, GATE_ABS)
