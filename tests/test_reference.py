"""Catalog experiments reproduce the recorded benchmark reference exactly.

``counterexample``, ``cube-translation`` and ``schrodinger-decay`` take well
under a second at their default configs and between them go through the pair
quadrature, the gradient oracles, the translated X norm and ``sample``.
``schrodinger-ks`` takes about 3 s; it is here because its boost norms come
from the depth-first walk of ``boost_norms``, which claims the same bits as
applying each W^alpha as a plain chain of boosts. Their fits, inequality
ratios and sample rows must equal ``perfbench/reference.json`` bit for bit
(the file is only read here).
"""

import json
from pathlib import Path

import pytest

from decaylab.experiments import OUTPUT_DIR_ENV, default_config, run

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["experiments"]


@pytest.mark.parametrize("exp_id", ["counterexample", "cube-translation", "schrodinger-decay", "schrodinger-ks"])
def test_rows_equal_reference(exp_id, reference, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    report = json.loads(run(default_config(exp_id)).to_json())
    ref = reference[exp_id]
    assert report["samples"] == ref["samples"]
    assert {f["name"]: {"slope": f["slope"], "intercept": f["intercept"]} for f in report["fits"]} == ref["fits"]
    assert {q["name"]: q["max_ratio"] for q in report["inequalities"]} == ref["inequalities"]
