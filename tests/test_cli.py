"""Config parsing and the command line: round trips, rejections, exit codes, thread-stable tables."""

import dataclasses
import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decaylab import cli, experiments
from decaylab.experiments import ConfigError, default_config, emit_config, list_catalog, parse_config
from decaylab.harness import DecayFit, InequalityReport

IDS = [row["id"] for row in list_catalog()]


def _write(tmp_path, text):
    path = tmp_path / "experiment.ini"
    path.write_text(text)
    return str(path)


def _run(tmp_path, text, *extra):
    return cli.main(["run", "--config", _write(tmp_path, text), "--out", str(tmp_path / "out"), *extra])


def _one_key(exp_id, section, key, value):
    """Config text that sets one key of an entry."""
    head = f"[experiment]\nid = {exp_id}\n"
    return head + (f"{key} = {value}\n" if section == "experiment" else f"[{section}]\n{key} = {value}\n")


def _report(tmp_path, exp_id):
    return json.loads((tmp_path / "out" / f"{exp_id}.json").read_text())


def _patch_runner(monkeypatch, exp_id, runner):
    entries = experiments.catalog()
    monkeypatch.setitem(entries, exp_id, dataclasses.replace(entries[exp_id], runner=runner))


@pytest.mark.parametrize("exp_id", IDS)
def test_default_config_round_trips(exp_id):
    config = default_config(exp_id)
    text = emit_config(config)
    again = parse_config(text)
    assert again == config
    assert emit_config(again) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("[experiment]\nid = vlasov-decay\n[grid]\npoints = 64\n", "unknown section 'grid'"),
        ("[experiment]\nid = vlasov-decay\n[datum]\ncolour = 1.0\n", "unknown key datum.colour"),
    ],
)
def test_unknown_names_rejected(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


# values that reached a runner when no parse-time rule covered them: the datum ones
# crashed it (exit 1, traceback), the probe and time ones gave a PASS on no evidence
# (or a FAIL with nothing checked)
ENTRY_RANGE_CASES = [
    ("conservation", "datum", "lam", "0.5"),  # BumpLambda needs lam >= 1
    ("counterexample", "datum", "lams", "0.5, 4.0"),
    ("airy-local-energy", "datum", "eps", "0.0"),
    ("local-mass", "datum", "sigmas", "0.0, 0.5"),  # sigma < d/2 on the 1-d grid
    ("vlasov-decay", "datum", "dimension", "0"),
    # beyond the 1500 half-width box: the probes would snap to the edge nodes and PASS
    ("airy-pointwise", "datum", "probe_half_width", "5000"),
    # the check skips t < 0: a PASS on no sample rows
    ("airy-pointwise", "times", "checkpoints", "-2.0, -1.0"),
    # one time gives a drift of 0, a pass on no evidence
    ("conservation", "times", "checkpoints", "0.0"),
    ("conservation", "times", "checkpoints", "2.0, 2.0"),
    ("commutation-suite", "experiment", "seed", "-3"),  # numpy's rng refuses it
    ("commutation-suite", "datum", "n_data", "0"),  # FAIL with nothing checked
    # one lam: vacuous spread and growth checks; decreasing lams: a FAIL of the growth check
    ("counterexample", "datum", "lams", "4.0"),
    ("counterexample", "datum", "lams", "16.0, 4.0"),
    ("cube-translation", "datum", "centers", "10.0"),  # "spread x1.000" from one center
    # a cube that fits in the hole of the dyadic window at k_min = -4: a ZeroDivisionError, a false FAIL
    ("cube-translation", "datum", "side", "0.07"),
    ("cube-translation", "datum", "side", "0.1"),
    ("transport-degenerate", "datum", "map", "cubic"),  # only run refused it, validate echoed it
]


@pytest.mark.parametrize(
    "exp_id, section, key, value",
    [
        ("vlasov-decay", "datum", "width", "-1"),
        ("schrodinger-ks", "datum", "width_2d", "0"),
        ("airy-decay", "grid", "half_width", "-5"),
        ("monomial-2k", "grid", "points_k2", "4"),
        ("vlasov-decay", "times", "t_min", "-1"),
        ("lp-decay", "times", "ratio", "1.0"),
        ("airy-pointwise", "times", "fit_t_max", "1.0"),  # below fit_t_min = 2
        # a fit window of one time, or none, in each entry that fits a decay rate
        ("vlasov-decay", "times", "t_max", "10.0"),
        ("transport-degenerate", "times", "t_max", "10.0"),
        ("schrodinger-decay", "times", "t_max", "5.0"),
        ("lp-decay", "times", "t_max", "5.0"),
        ("airy-decay", "times", "t_max", "2.0"),
        ("airy-pointwise", "times", "fit_t_max", "2.0"),
        ("airy-local-energy", "times", "fit_t_min", "50.0"),
    ]
    + ENTRY_RANGE_CASES,
)
def test_out_of_range_values_rejected(exp_id, section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_config(_one_key(exp_id, section, key, value))


def test_geometric_times_is_the_cumulative_product_up_to_near_the_cap():
    ratio = 1.001
    times = experiments.geometric_times(1.0, ratio**9000.5, ratio)
    assert len(times) == 9001 < experiments.MAX_TIMES
    assert times[0] == 1.0 and all(b == a * ratio for a, b in zip(times, times[1:]))


@pytest.mark.parametrize(
    "t_min, t_max, ratio",
    [(1.0, 1.001 ** (experiments.MAX_TIMES + 1), 1.001), (1.0, 1e12, 1.0000000001)],
    ids=["just-over-the-cap", "far-over-the-cap"],
)
def test_geometric_times_refuses_a_range_of_more_than_max_times(t_min, t_max, ratio):
    with pytest.raises(ConfigError, match=f"number more than {experiments.MAX_TIMES}"):
        experiments.geometric_times(t_min, t_max, ratio)


class TestExitCodes:
    def test_0_when_every_check_passes(self, tmp_path, capsys):
        assert _run(tmp_path, "[experiment]\nid = schrodinger-decay\n") == 0
        assert "schrodinger-decay: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("exp_id, t_max", [("vlasov-decay", "1e8"), ("transport-degenerate", "1e7")])
    def test_0_for_the_transport_entries_far_past_their_default_times(self, tmp_path, capsys, exp_id, t_max):
        # the transport sup stays resolved at any t: test_transport.py checks it against the closed form
        # (identity map) and a dense q-scan of the fold caustic (square map) up to t = 1e9
        assert _run(tmp_path, f"[experiment]\nid = {exp_id}\n[times]\nt_max = {t_max}\n") == 0
        assert f"{exp_id}: PASS" in capsys.readouterr().out

    def test_0_for_validate_echoes_the_resolved_config(self, tmp_path, capsys):
        path = _write(tmp_path, "[experiment]\nid = airy-decay\n")
        assert cli.main(["validate", "--config", path]) == 0
        assert capsys.readouterr().out == emit_config(default_config("airy-decay"))

    def test_1_when_a_fit_target_fails(self, tmp_path, capsys):
        text = "[experiment]\nid = schrodinger-decay\n[tolerances]\nslope = 1e-6\n"
        assert _run(tmp_path, text) == 1
        assert "schrodinger-decay: FAIL" in capsys.readouterr().out
        assert _report(tmp_path, "schrodinger-decay")["passed"] is False

    @pytest.mark.parametrize(
        "exp_id, section, key, value", [("vlasov-decay", "datum", "width", "-1")] + ENTRY_RANGE_CASES
    )
    def test_2_for_an_out_of_range_value_in_validate_and_run(self, tmp_path, capsys, exp_id, section, key, value):
        path = _write(tmp_path, _one_key(exp_id, section, key, value))
        assert cli.main(["validate", "--config", path]) == 2
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: {section}.{key}") == 2 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_2_for_a_config_error_raised_by_the_runner(self, tmp_path, capsys, monkeypatch):
        # no runner raises ConfigError today; the CLI still maps one to exit 2 without a report
        def refuse(cfg, threads):
            raise ConfigError("datum.lams refused by the runner")

        _patch_runner(monkeypatch, "counterexample", refuse)
        assert _run(tmp_path, "[experiment]\nid = counterexample\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: datum.lams refused") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, keys",
        [
            (  # times 5, 7.07, 10
                "[experiment]\nid = schrodinger-decay\n[times]\nt_max = 10.0\n",
                "times.t_min, times.t_max, times.ratio",
            ),
            (  # of the times 1 .. 45.25 only 45.25 reaches fit_t_min
                "[experiment]\nid = airy-local-energy\n[times]\nfit_t_min = 40.0\n",
                "times.t_min, times.t_max, times.ratio, times.fit_t_min",
            ),
            (  # times 10, 14.1, 20
                "[experiment]\nid = vlasov-decay\n[times]\nt_max = 20.0\n",
                "times.t_min, times.t_max, times.ratio",
            ),
        ],
    )
    def test_2_when_the_time_keys_leave_a_fit_too_few_times(self, tmp_path, capsys, text, keys):
        assert cli.main(["validate", "--config", _write(tmp_path, text)]) == 2
        assert _run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.count("config error: ") == 2 and err.count(keys) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, keys",
        [
            # validate never returned: the time list grew without end
            ("[experiment]\nid = airy-decay\n[times]\nt_max = inf\n", "times.t_max: cannot parse value 'inf'"),
            (
                "[experiment]\nid = airy-decay\n[times]\nt_max = 1e12\nratio = 1.0000000001\n",
                "times.t_min, times.t_max, times.ratio: times from t_min to t_max at this ratio number more than",
            ),
            # a NaN time made a drift of NaN, and a FAIL of max-drift
            (
                "[experiment]\nid = conservation\n[times]\ncheckpoints = 0.0, nan, 2.0\n",
                "times.checkpoints: cannot parse value '0.0, nan, 2.0'",
            ),
            ("[experiment]\nid = vlasov-decay\n[datum]\nwidth = abc\n", "datum.width: cannot parse value 'abc'"),
        ],
    )
    def test_2_for_a_value_that_does_not_parse_or_lists_too_many_times(self, tmp_path, capsys, text, keys):
        assert cli.main(["validate", "--config", _write(tmp_path, text)]) == 2
        assert _run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: {keys}") == 2 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            # configparser's % interpolation raised a traceback (exit 1) on these
            ("[experiment]\nid = schrodinger-decay\n[datum]\nwidth = 50%\n", "datum.width: cannot parse value '50%'"),
            ("[experiment]\nid = schrodinger-decay\n[datum]\nwidth = %(x)s\n", "datum.width: cannot parse value"),
            ("[experiment]\nid = vlasov%\n", "experiment.id 'vlasov%' is not in the catalog"),
            # [DEFAULT] named no section, and its keys reached every section
            ("[DEFAULT]\nwidth = 2.0\n[experiment]\nid = schrodinger-decay\n", "unknown section 'DEFAULT'"),
            ("[DEFAULT]\nid = vlasov-decay\n[experiment]\n", "missing required key experiment.id"),
        ],
    )
    def test_2_for_a_config_value_taken_as_written(self, tmp_path, capsys, text, message):
        path = _write(tmp_path, text)
        assert cli.main(["validate", "--config", path]) == 2
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert err.count(f"config error: {message}") == 2 and "Traceback" not in err
        assert out == "" and not (tmp_path / "out").exists()

    def test_2_when_the_box_is_too_small_for_the_datum(self, tmp_path, capsys):
        # the 2-d datum reaches |x| = 8.8 at the 1e-10 mass tail; the box stops at 6
        text = "[experiment]\nid = schrodinger-ks\n[grid]\nhalf_width_2d = 6.0\npoints_2d = 64\n"
        assert _run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: datum support") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, wanted",
        [
            (  # the test above: the 2-d datum reaches |x| = 8.8, the box stops at 6
                "[experiment]\nid = schrodinger-ks\n[grid]\nhalf_width_2d = 6.0\npoints_2d = 64\n",
                "datum support",
            ),
            (  # the second cube covers [69.5, 70.5]; the box stops at 64
                "[experiment]\nid = cube-translation\n[datum]\ncenters = 0.0, 70.0\n",
                "; widen grid.half_width",
            ),
            (  # the k = 2 datum of width 2 reaches |x| = 13.6
                "[experiment]\nid = monomial-2k\n[grid]\nhalf_width_k2 = 10.0\n",
                "; widen grid.half_width_k2",
            ),
            (  # the datum is built at parse time, so its own checks give exit 2 too
                "[experiment]\nid = cube-translation\n[datum]\nside = -1.0\n",
                "datum: cube side must be positive",
            ),
            (  # the widest random packet, Gaussian(-5, 4), reaches |x| = 32; the box stops at 12
                "[experiment]\nid = commutation-suite\n[grid]\nhalf_width = 12.0\npoints = 256\n",
                "; widen grid.half_width",
            ),
        ],
    )
    def test_2_from_validate_when_the_box_cannot_hold_the_datum(self, tmp_path, capsys, text, wanted):
        assert cli.main(["validate", "--config", _write(tmp_path, text)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: ") and wanted in err and "Traceback" not in err
        assert out == ""  # no resolved config is echoed

    @pytest.mark.parametrize("exp_id", ["lp-decay", "schrodinger-xnorm", "local-mass", "cube-translation"])
    def test_2_when_the_grid_cannot_resolve_the_dyadic_annuli(self, tmp_path, capsys, exp_id):
        path = _write(tmp_path, f"[experiment]\nid = {exp_id}\n[grid]\npoints = 64\n")
        assert cli.main(["validate", "--config", path]) == 2
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: ") == 2 and "grid.points, grid.k_min" in err
        assert "cannot resolve annuli" in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "exp_id, key, points",
        [
            ("schrodinger-decay", "points", 64),
            ("airy-pointwise", "points", 64),
            ("airy-local-energy", "points", 64),
            ("airy-decay", "points", 64),
            ("monomial-2k", "points_k1", 64),
            ("monomial-2k", "points_k2", 64),
            ("commutation-suite", "points", 64),
            # spacing 2: resolves the widest packets (width 4), not the narrowest (width 3)
            ("commutation-suite", "points", 1200),
            ("schrodinger-ks", "points_1d", 64),
        ],
    )
    def test_2_when_the_grid_cannot_resolve_the_datum(self, tmp_path, capsys, exp_id, key, points):
        # 64 points leave a spacing of 10 to 150, where the data vary over 0.7 to 4
        path = _write(tmp_path, f"[experiment]\nid = {exp_id}\n[grid]\n{key} = {points}\n")
        assert cli.main(["validate", "--config", path]) == 2
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: grid spacing ") == 2 and f"raise grid.{key}" in err
        assert "does not resolve the datum's feature scale" in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_2_for_a_thread_count_that_is_not_a_positive_integer(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exit_info:
            _run(tmp_path, "[experiment]\nid = vlasov-decay\n", "--threads", threads)
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err and not (tmp_path / "out").exists()

    def test_2_for_a_missing_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent.ini")]) == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_2_for_a_file_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[experiment]\nid = airy-decay\n# \xff\n")
        assert cli.main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: {path}: not UTF-8 text") and out == ""

    def test_3_when_contamination_leaves_no_sample(self, tmp_path, capsys):
        text = "[experiment]\nid = local-mass\n[times]\nt_min = 100000.0\nt_max = 1000000.0\n"
        assert _run(tmp_path, text) == 3
        assert "numerical contamination" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_0_when_contamination_leaves_two_clean_drift_times(self, tmp_path, capsys):
        # the 2-d packet wraps around this box by t = 8; the drift reads t = 1 and 4
        text = "[experiment]\nid = schrodinger-ks\n[grid]\nhalf_width_2d = 40.0\npoints_2d = 256\n"
        assert _run(tmp_path, text) == 0
        assert "d2 drift time t=16 excluded: wrap-around" in capsys.readouterr().out
        (_, rep2) = _report(tmp_path, "schrodinger-ks")["inequalities"]
        assert [t for t, _ in rep2["excluded"]] == [8.0, 16.0]

    def test_3_when_every_drift_time_is_contaminated(self, tmp_path, capsys):
        # the checkpoints stay clean, every drift time 1, 4, 16 has wrapped around
        text = (
            "[experiment]\nid = schrodinger-ks\n[grid]\nhalf_width_2d = 4.0\npoints_2d = 64\n"
            "[datum]\nwidth_2d = 0.5\n[times]\ncheckpoints_2d = 0.05, 0.1\n"
        )
        assert _run(tmp_path, text) == 3
        assert "0 clean boost-norm drift times in d2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_3_when_the_cross_check_time_is_contaminated(self, tmp_path, capsys):
        # the packet has wrapped around the box by t = 2000 (edge mass 5e-2), while
        # every time of the inequality stays clean: the cross-check is not a violation
        text = "[experiment]\nid = schrodinger-xnorm\n[times]\ncross_check_t = 2000.0\n"
        assert _run(tmp_path, text) == 3
        out, err = capsys.readouterr()
        assert err.startswith("numerical contamination: times.cross_check_t = 2000: wrap-around edge mass")
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("buffering", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args, text, code",
        [
            (["--help"], None, 0),
            (["run", "--help"], None, 0),
            (["list"], None, 0),
            (["validate"], "[experiment]\nid = cube-translation\n", 0),
            (["run"], "[experiment]\nid = cube-translation\n", 0),
            # the three cubes' constants spread by more than a factor 1
            (["run"], "[experiment]\nid = cube-translation\n[tolerances]\nshared_constant_spread = 1.0\n", 1),
        ],
        ids=["help", "run-help", "list", "validate", "run-pass", "run-fail"],
    )
    def test_a_closed_stdout_keeps_the_code_and_prints_no_traceback(self, tmp_path, args, text, code, buffering):
        # the read end of the child's stdout pipe is closed before the child starts: its first write fails, or,
        # with stdout block-buffered (PYTHONUNBUFFERED unset), the flush of what it wrote
        if text is not None:
            args = [*args, "--config", _write(tmp_path, text)]
            if args[0] == "run":
                args += ["--out", str(tmp_path / "out")]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **buffering)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            cmd = [sys.executable, "-m", "decaylab.cli", *args]
            child = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (code, "")
        if "--out" in args:
            assert _report(tmp_path, "cube-translation")["passed"] is (code == 0)


def _verdict_report(value, slope, report):
    """A runner report whose own check (``value`` <= 1), one fitted slope and one inequality report
    pass or fail as given."""
    fit = DecayFit(slope=-1.0 if slope else -2.0, intercept=0.0, max_abs_residual=0.0, window=(1.0, 16.0), n_samples=5)
    ratio = 0.5 if report else 2.0
    rep = InequalityReport("bound", ((1.0, ratio, 1.0),), ratio, 1.0, 0.0)
    check = experiments._Check("own", value, "<=", 1.0)
    return experiments.Report(("t",), ((1.0,),), (experiments._Slope("decay", fit, -1.0, 0.1),), (rep,), (check,))


@pytest.mark.parametrize(
    "value, slope, report, code",
    [
        (0.5, True, True, 0),
        (2.0, True, True, 1),  # the runner's own check
        (math.nan, True, True, 1),  # a NaN value fails its check
        (0.5, False, True, 1),  # one fitted slope: -2 against -1 +- 0.1
        (0.5, True, False, 1),  # one inequality report
    ],
)
def test_run_passes_when_the_runner_check_every_slope_and_every_report_pass(
    tmp_path, capsys, monkeypatch, value, slope, report, code
):
    _patch_runner(monkeypatch, "counterexample", lambda cfg, threads: _verdict_report(value, slope, report))
    assert _run(tmp_path, "[experiment]\nid = counterexample\n") == code
    out = capsys.readouterr().out
    assert f"counterexample: {'PASS' if code == 0 else 'FAIL'}" in out
    result = _report(tmp_path, "counterexample")
    assert result["passed"] is (code == 0)
    assert [q["passed"] for q in result["inequalities"]] == [report]
    (fit,) = result["fits"]
    assert (fit["target_slope"], fit["slope_tolerance"], fit["passed"]) == (-1.0, 0.1, slope)
    assert f"  fit decay: slope {fit['slope']:+.4f} over [1.0, 16.0] -> {'ok' if slope else 'VIOLATED'}" in out
    (check,) = result["checks"]
    own_passed = value <= 1.0
    assert (check["name"], check["relation"], check["bound"], check["passed"]) == ("own", "<=", 1.0, own_passed)
    assert check["value"] == value or math.isnan(check["value"]) and math.isnan(value)
    assert f"  check own: {value:.4g} <= 1 -> {'ok' if own_passed else 'VIOLATED'}" in out


_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@pytest.mark.parametrize("relation", sorted(_RELATIONS))
def test_a_check_passes_on_its_relation_and_never_on_nan(relation):
    for value in (0.5, 1.0, 2.0):
        assert experiments._Check("c", value, relation, 1.0).passed is _RELATIONS[relation](value, 1.0)
    assert experiments._Check("c", math.nan, relation, 1.0).passed is False


def _check_passes(check):
    """A check's verdict from its JSON alone."""
    return _RELATIONS[check["relation"]](check["value"], check["bound"])


def _inequality_passes(ineq):
    """An inequality report's verdict from its JSON alone."""
    return ineq["max_ratio"] <= ineq["bound"] + ineq["tolerance"]


def _fit_passes(fit):
    """A fit's verdict from its JSON alone: slope <= upper when one-sided, else slope within tolerance of target."""
    if fit["upper"] is not None:
        return fit["slope"] <= fit["upper"]
    return abs(fit["slope"] - fit["target_slope"]) <= fit["slope_tolerance"]


@pytest.mark.parametrize(
    "exp_id, slope, upper",
    [
        ("airy-local-energy", -1.25, -0.9),  # gated on tolerances.energy_slope, reported against -1 +- 0.1
        ("transport-degenerate", -1.49, -0.95),  # the mixed map's bound is one-sided: slope <= -1 + 0.05
        ("vlasov-decay", -1.0, None),  # two-sided, the control: |slope + 1| <= 0.02
    ],
)
def test_one_sided_fits_pass_outside_their_reported_tolerance(tmp_path, exp_id, slope, upper):
    assert _run(tmp_path, f"[experiment]\nid = {exp_id}\n") == 0
    report = _report(tmp_path, exp_id)
    (fit,) = report["fits"]
    assert fit["slope"] == pytest.approx(slope, abs=0.01)
    assert fit["upper"] == upper
    assert (abs(fit["slope"] - fit["target_slope"]) > fit["slope_tolerance"]) is (upper is not None)
    assert _fit_passes(fit) is report["passed"] is True


def test_airy_local_energy_fails_above_its_energy_slope(tmp_path, capsys):
    text = "[experiment]\nid = airy-local-energy\n[tolerances]\nenergy_slope = -1.3\n"
    assert _run(tmp_path, text) == 1
    report = _report(tmp_path, "airy-local-energy")
    (fit,) = report["fits"]
    assert report["passed"] is fit["passed"] is _fit_passes(fit) is False
    out = capsys.readouterr().out
    assert "airy-local-energy: FAIL" in out
    assert f"  fit weighted-energy-decay: slope {fit['slope']:+.4f} over {fit['window']} -> VIOLATED" in out


@functools.cache
def _default_run(exp_id):
    """The report of the entry's default config, run once for every test that reads it."""
    return experiments.run(default_config(exp_id))


@pytest.mark.parametrize("exp_id", IDS)
def test_every_verdict_of_a_default_report_recomputes_from_its_json(exp_id, monkeypatch):
    monkeypatch.delenv(experiments.OUTPUT_DIR_ENV, raising=False)
    report = json.loads(_default_run(exp_id).to_json())
    assert report["schema_version"] == 4
    verdicts = []
    for fit in report["fits"]:
        assert _fit_passes(fit) is fit["passed"]
        verdicts.append(_fit_passes(fit))
    for ineq in report["inequalities"]:
        assert _inequality_passes(ineq) is ineq["passed"]
        verdicts.append(_inequality_passes(ineq))
    for check in report["checks"]:
        assert set(check) == {"name", "value", "relation", "bound", "passed"}
        assert _check_passes(check) is check["passed"]
        verdicts.append(_check_passes(check))
    assert verdicts and report["passed"] is all(verdicts) is True


@pytest.mark.parametrize("exp_id", IDS)
def test_a_run_samples_exactly_the_data_that_validate_checks(exp_id, monkeypatch):
    # the (datum, grid) pairs the parse-time box checks read, against those the runner samples
    monkeypatch.delenv(experiments.OUTPUT_DIR_ENV, raising=False)
    checked, sampled = [], []
    for name, calls in (("_check_support", checked), ("sample", sampled)):
        wrapped = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda d, g, _w=wrapped, _c=calls: _c.append((d, g)) or _w(d, g))
    config = parse_config(f"[experiment]\nid = {exp_id}\n")
    assert experiments.run(config).passed
    if exp_id == "commutation-suite":  # the stand-ins bound its random packets, which it draws instead
        assert (len(checked), sampled) == (3, [])
    else:
        assert sampled == checked and bool(sampled) == ("grid" in config.as_dict())


GRID_RTOL = 1e-4  # relative move of a max ratio, and absolute move of a slope, on doubling every points* key

SPECTRAL_IDS = [exp_id for exp_id in IDS if "grid" in default_config(exp_id).as_dict()]
SNAPPED_PROBES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the 41 probes snap to other grid nodes on the refined grid: the max ratio moves "
    "by 1.5e-3 relative and the half-line slope by 3.9e-4",
)


@pytest.mark.parametrize(
    "exp_id", [pytest.param(e, marks=SNAPPED_PROBES if e == "airy-pointwise" else ()) for e in SPECTRAL_IDS]
)
def test_default_report_is_converged_in_the_grid(exp_id, monkeypatch):
    monkeypatch.delenv(experiments.OUTPUT_DIR_ENV, raising=False)
    grid = default_config(exp_id).as_dict()["grid"]
    doubled = "".join(f"{key} = {2 * value}\n" for key, value in grid.items() if key.startswith("points"))
    fine = experiments.run(parse_config(f"[experiment]\nid = {exp_id}\n[grid]\n{doubled}"))
    coarse = _default_run(exp_id)
    assert fine.passed
    assert [q.name for q in fine.inequalities] == [q.name for q in coarse.inequalities]
    for q_fine, q in zip(fine.inequalities, coarse.inequalities):
        assert q_fine.max_ratio == pytest.approx(q.max_ratio, rel=GRID_RTOL, abs=0.0), q.name
    assert [f.name for f in fine.fits] == [f.name for f in coarse.fits]
    for f_fine, f in zip(fine.fits, coarse.fits):
        assert f_fine.fit.slope == pytest.approx(f.fit.slope, rel=0.0, abs=GRID_RTOL), f.name


def test_cube_translation_gates_the_center_farthest_from_the_origin(tmp_path):
    assert _run(tmp_path, "[experiment]\nid = cube-translation\n[datum]\ncenters = -10.0, 0.0, 3.0\n") == 0
    checks = {c["name"]: c for c in _report(tmp_path, "cube-translation")["checks"]}
    gain = checks["untranslated-gain-c=-10"]
    assert (gain["relation"], gain["bound"], gain["passed"]) == (">=", 2.0, True)
    assert set(checks) == {"shared-constant-spread", "untranslated-gain-c=-10"}


def _sweep_value(section, key):
    """The small value the sweep gives a key, or None for a key it leaves alone."""
    if section == "grid" and key.startswith("points"):
        return "64"
    if section == "datum" and key.startswith("width"):
        return "0.5"
    if (section, key) == ("times", "t_min"):
        return "0.5"
    return None


SWEEP = [
    (exp_id, section, key, _sweep_value(section, key))
    for exp_id in IDS
    for section, items in default_config(exp_id).sections
    for key, _ in items
    if _sweep_value(section, key) is not None
]


@pytest.mark.parametrize(
    "exp_id, section, key, value", SWEEP, ids=[f"{e}-{s}.{k}" for e, s, k, _ in SWEEP]
)
def test_a_small_value_exits_with_a_verdict_not_a_traceback(tmp_path, capsys, exp_id, section, key, value):
    # one key at a time; an uncaught exception would propagate out of main and fail the test
    code = _run(tmp_path, f"[experiment]\nid = {exp_id}\n[{section}]\n{key} = {value}\n", "--threads", "1")
    out = capsys.readouterr().out
    assert code in (0, 2, 3) or (code == 1 and f"{exp_id}: FAIL" in out)


def test_run_tells_the_weighted_sup_reports_of_schrodinger_ks_apart_by_dimension(tmp_path, capsys):
    assert _run(tmp_path, "[experiment]\nid = schrodinger-ks\n") == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "schrodinger-weighted-sup" in line]
    names = [line.split(":")[0].strip() for line in lines]
    assert names == ["schrodinger-weighted-sup (dim 1)", "schrodinger-weighted-sup (dim 2)"]
    reports = _report(tmp_path, "schrodinger-ks")["inequalities"]
    assert [q["name"] for q in reports] == ["schrodinger-weighted-sup"] * 2  # the names reference.json keys on
    assert [dict(map(tuple, q["detail"]))["dim"] for q in reports] == [1, 2]


@pytest.mark.parametrize("t_max, excluded", [(80.0, 0), (25600.0, 16)])
def test_run_prints_the_samples_each_fit_and_inequality_left_out(tmp_path, capsys, t_max, excluded):
    # at t_max = 25600, 16 of the 25 times wrap around the box: the PASS stands on the other 9
    assert _run(tmp_path, f"[experiment]\nid = lp-decay\n[times]\nt_max = {t_max}\n") == 0
    lines = capsys.readouterr().out.splitlines()
    notes = [i for i, line in enumerate(lines) if " excluded at t = " in line]
    assert len(notes) == (3 if excluded else 0)  # the L4 fit and both inequalities, each under its own line
    assert [lines[i - 1].split(":")[0] for i in notes] == (
        ["  fit L4-decay", "  schrodinger-L4-decay", "  schrodinger-mass-conservation"] if excluded else []
    )
    for i in notes:
        assert lines[i].startswith(f"    {excluded} excluded at t = 113.137, 160, 226.274, ")
        assert lines[i].endswith(", 20480; largest wrap-around edge mass 5.01e-02")


@pytest.mark.parametrize("text", ["[times]\nt_min = 0.05\n", "[datum]\nwidth_2d = 1.625\n"])
def test_schrodinger_ks_passes_on_its_sobolev_constants_where_the_stability_bound_failed(tmp_path, text):
    # the stability bound, twice the smallest sampled ratio, read 0.3989 against 0.0794 in dim 1 at
    # t_min = 0.05 and 0.04891 against 0.0359 in dim 2 at width_2d = 1.625
    assert _run(tmp_path, f"[experiment]\nid = schrodinger-ks\n{text}") == 0
    reports = _report(tmp_path, "schrodinger-ks")["inequalities"]
    assert [(q["bound"], dict(map(tuple, q["detail"]))["bound_style"]) for q in reports] == [
        (0.5, "sobolev"),
        (0.25, "sobolev"),
    ]


def test_schrodinger_ks_drift_does_not_need_the_checkpoints(tmp_path):
    # the drift times 1, 4, 16 are evolved even when checkpoints_2d omits them
    default, other = tmp_path / "default", tmp_path / "other"
    default.mkdir()
    other.mkdir()
    assert _run(default, "[experiment]\nid = schrodinger-ks\n") == 0
    assert _run(other, "[experiment]\nid = schrodinger-ks\n[times]\ncheckpoints_2d = 2.0, 8.0\n") == 0
    (drift,) = _report(default, "schrodinger-ks")["checks"]
    assert (drift["name"], drift["relation"], drift["bound"]) == ("max-boost-norm-drift", "<=", 1e-9)
    assert _report(other, "schrodinger-ks")["checks"] == [drift]


def test_schrodinger_decay_fits_its_clean_window_only(tmp_path):
    # by t = 5000 the packet has wrapped around the box; those times leave the fit
    code = _run(tmp_path, "[experiment]\nid = schrodinger-decay\n[times]\nt_max = 5000.0\n")
    assert code in (0, 3)
    if code == 0:
        (fit,) = _report(tmp_path, "schrodinger-decay")["fits"]
        assert fit["excluded"]
        assert all(t > fit["window"][1] for t, _ in fit["excluded"])


@pytest.mark.parametrize("width", [0.5, 1.25, 2.0])
def test_schrodinger_decay_reads_its_oracle_at_the_datum_width(tmp_path, width):
    # |u(t, 0)| = w (w^4 + 4t^2)^(-1/4); the oracle of width 1 read errors of 0.5, 0.25 and 1.0 here
    assert _run(tmp_path, f"[experiment]\nid = schrodinger-decay\n[datum]\nwidth = {width}\n") == 0
    check = next(c for c in _report(tmp_path, "schrodinger-decay")["checks"] if c["name"] == "max-oracle-error")
    assert check["passed"] and check["value"] <= check["bound"] == 1e-8


@pytest.mark.parametrize("t_star", [0.0, 0.5, 1.0])
def test_schrodinger_xnorm_cross_check_reads_its_oracle_at_the_node_of_the_max(tmp_path, t_star):
    # the node nearest the centre 2.2 misses it by up to half a cell; against the continuous
    # maximum these times read 4.6e-3, 1.8e-5 and 4.5e-6, VIOLATED at the 1e-6 tolerance
    assert _run(tmp_path, f"[experiment]\nid = schrodinger-xnorm\n[times]\ncross_check_t = {t_star}\n") == 0
    (check,) = _report(tmp_path, "schrodinger-xnorm")["checks"]
    assert check["passed"] and check["value"] <= 1e-14


def test_airy_decay_rows_are_the_clean_samples(tmp_path):
    assert _run(tmp_path, "[experiment]\nid = airy-decay\n[times]\nt_max = 2000.0\n") == 0
    report = _report(tmp_path, "airy-decay")
    (fit,) = report["fits"]
    assert len(report["samples"]) == fit["n_samples"]
    assert fit["excluded"]
    assert report["samples"][-1][0] < min(t for t, _ in fit["excluded"])


@pytest.mark.parametrize(
    "exp_id, text, thread_counts",
    [
        # the transport-sup entries run their work in one batch at any thread count
        ("vlasov-decay", "[experiment]\nid = vlasov-decay\n[times]\nt_max = 100.0\n", (1, 2, 3)),
        ("counterexample", "[experiment]\nid = counterexample\n", (1, 2)),
        ("transport-degenerate", "[experiment]\nid = transport-degenerate\n[times]\nt_max = 100.0\n", (1, 2, 3)),
        # the five cases run on a thread pool at 2 threads
        ("conservation", "[experiment]\nid = conservation\n", (1, 2)),
        # a spectral entry, pinned before --threads reaches the spectral runners
        (
            "schrodinger-ks",
            "[experiment]\nid = schrodinger-ks\n[grid]\nhalf_width_2d = 40.0\npoints_2d = 256\n",
            (1, 2),
        ),
    ],
)
def test_samples_table_identical_at_one_and_two_threads(tmp_path, exp_id, text, thread_counts):
    path = _write(tmp_path, text)
    tables = []
    for threads in thread_counts:
        out = tmp_path / f"threads{threads}"
        assert cli.main(["run", "--config", path, "--out", str(out), "--threads", str(threads)]) == 0
        tables.append((out / f"{exp_id}_samples.tsv").read_bytes())
    assert all(table == tables[0] for table in tables[1:])


def test_commutation_suite_makes_72_transforms_for_its_residuals(tmp_path, monkeypatch):
    # three calls per degree over its 20 packets, 8 at a time, the first with the two perturbed rows:
    # 10, 8 and 4 rows. Each call makes 2 forward transforms and 2 inverse ones at each of the 3 times,
    # so 3 degrees x 3 calls x 8 one-axis transforms
    calls, scoring, rows = [], [], []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
        transform = getattr(np.fft, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            if scoring:
                calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    residual = experiments.commutation_residual

    def scored(*args):
        scoring.append(True)
        rows.append(len(args[2]))
        try:
            return residual(*args)
        finally:
            scoring.pop()

    monkeypatch.setattr(experiments, "commutation_residual", scored)
    assert _run(tmp_path, "[experiment]\nid = commutation-suite\n") == 0
    assert rows == [10, 8, 4] * 3
    assert calls == (["fft", "fft"] + ["ifft", "ifft"] * 3) * 9
    assert len(calls) == 72


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("exp_id, calls", [("vlasov-decay", 7), ("transport-degenerate", 14)])
def test_sup_search_scores_all_times_in_seven_profile_calls_per_pair(tmp_path, monkeypatch, exp_id, calls, threads):
    # per pair, the coarse scan (ranked, then its shortlist scored), the 4 refinement rounds and the report
    # quadrature each score every time in one call, at any thread count
    from decaylab import transport

    made, profile = [], transport._pair_profile

    def counted(*args, **kwargs):
        made.append(True)
        return profile(*args, **kwargs)

    monkeypatch.setattr(transport, "_pair_profile", counted)
    assert _run(tmp_path, f"[experiment]\nid = {exp_id}\n", "--threads", threads) == 0
    assert len(made) == calls


@pytest.mark.parametrize("exp_id", ["vlasov-decay", "transport-degenerate", "counterexample"])
def test_the_transport_sup_entries_start_no_thread_pool_at_two_threads(tmp_path, monkeypatch, exp_id):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", refuse)
    assert _run(tmp_path, f"[experiment]\nid = {exp_id}\n", "--threads", "2") == 0


def test_commutation_suite_report_does_not_depend_on_how_many_packets_one_call_scores(tmp_path, monkeypatch):
    # 5 packets per degree in one call, then 2 at a time over three calls; the default 20 in one call, then
    # 8 at a time over three: the same rows, checks and notes, and byte-equal sample tables
    for n_data, sizes in ((5, (32, 2)), (20, (32, 8))):
        reports = []
        for per_call in sizes:
            monkeypatch.setattr(experiments, "_PACKETS_PER_CALL", per_call)
            run_dir = tmp_path / f"{n_data}-{per_call}"
            run_dir.mkdir()
            assert _run(run_dir, f"[experiment]\nid = commutation-suite\n[datum]\nn_data = {n_data}\n") == 0
            report = _report(run_dir, "commutation-suite")
            table = (run_dir / "out" / "commutation-suite_samples.tsv").read_bytes()
            reports.append((table, report["checks"], report["notes"]))
        assert reports[0] == reports[1]
        assert len(reports[0][0].splitlines()) == 1 + 3 * n_data * 3  # header, then 3 degrees x n_data x 3 times
        assert len(reports[0][1]) == 10  # worst residual and perturbed a/b per degree, and the 2-d commutator


# The src functions and lambdas that ``list`` and ``validate`` and ``run --threads 1`` of every default
# config and of ``_REACH_EXTRA_CONFIGS`` never execute, each with the reason it stays. A function that
# leaves the catalog's reach either gets a reason here or is deleted; one that the catalog comes to reach
# leaves this list.
CATALOG_UNREACHED = {
    "operators.py _power_walk": "the boost-norm fallback; only the guard that measures the field can choose it",
    "operators.py _boost_walk": "the same fallback for mixed boosts; no default field needs it",
    "operators.py _boost_walk.<locals>.walk": "the recursion of _boost_walk",
}

# non-default configs the reach test runs as well: the relativistic map reaches its branch inverse, and
# wrap-around at t_max = 5000 excludes samples, which reaches the sort key of ``_exclusion_note``
_REACH_EXTRA_CONFIGS = (
    "[experiment]\nid = transport-degenerate\n[datum]\nmap = relativistic\n",
    "[experiment]\nid = schrodinger-decay\n[times]\nt_max = 5000.0\n",
)

# run in a child process, so that module and class bodies execute under the tracer too
_REACH_SCRIPT = r"""
import contextlib, importlib.util, inspect, io, os, sys, tempfile, threading, types

src = importlib.util.find_spec("decaylab").submodule_search_locations[0]
called = set()


def on_call(frame, event, arg):
    if frame.f_code.co_filename.startswith(src):
        called.add(frame.f_code)


def functions(code, prefix=""):
    # (qualified name, code) of every function and class body nested in code; co_qualname is new in 3.11
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            yield name, const
            yield from functions(const, name + (".<locals>." if const.co_flags & inspect.CO_OPTIMIZED else "."))


sys.settrace(on_call)
threading.settrace(on_call)
from decaylab import cli
from decaylab.experiments import OUTPUT_DIR_ENV, list_catalog

os.environ.pop(OUTPUT_DIR_ENV, None)
texts = ["[experiment]\nid = " + row["id"] + "\n" for row in list_catalog()] + sys.argv[1:]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["list"]) == 0
    for i, text in enumerate(texts):
        path = os.path.join(tmp, f"{i}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        assert cli.main(["validate", "--config", path]) == 0
        assert cli.main(["run", "--config", path, "--out", tmp, "--threads", "1"]) == 0
sys.settrace(None)
threading.settrace(None)
for name in sorted(os.listdir(src)):
    if name.endswith(".py"):
        path = os.path.join(src, name)
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        for qualname, code in functions(module):  # comprehensions (<listcomp>, <genexpr>, ...) are left out
            if code in called or (code.co_name.startswith("<") and code.co_name != "<lambda>"):
                continue
            # lambdas share one name, so theirs carries the line
            print(name, qualname + (f" line {code.co_firstlineno}" if code.co_name == "<lambda>" else ""))
"""


def test_the_catalog_reaches_every_src_function_but_the_named_ones():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cmd = [sys.executable, "-c", _REACH_SCRIPT, *_REACH_EXTRA_CONFIGS]
    child = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert sorted(child.stdout.splitlines()) == sorted(CATALOG_UNREACHED)
