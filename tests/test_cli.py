"""Config parsing and the command line: round trips, rejections, exit codes, thread-stable tables."""

import json

import pytest

from decaylab import cli
from decaylab.experiments import ConfigError, default_config, emit_config, list_catalog, parse_config

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
    # one time gives a drift of 0, a pass on no evidence
    ("conservation", "times", "checkpoints", "0.0"),
    ("conservation", "times", "checkpoints", "2.0, 2.0"),
    ("commutation-suite", "experiment", "seed", "-3"),  # numpy's rng refuses it
    ("commutation-suite", "datum", "n_data", "0"),  # FAIL with nothing checked
    # one lam: vacuous spread and growth checks; decreasing lams: a FAIL of the growth check
    ("counterexample", "datum", "lams", "4.0"),
    ("counterexample", "datum", "lams", "16.0, 4.0"),
    ("cube-translation", "datum", "centers", "10.0"),  # "spread x1.000" from one center
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


class TestExitCodes:
    def test_0_when_every_check_passes(self, tmp_path, capsys):
        assert _run(tmp_path, "[experiment]\nid = schrodinger-decay\n") == 0
        assert "schrodinger-decay: PASS" in capsys.readouterr().out

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

    def test_2_for_a_config_error_raised_by_the_runner(self, tmp_path, capsys):
        assert _run(tmp_path, "[experiment]\nid = transport-degenerate\n[datum]\nmap = cubic\n") == 2
        assert "datum.map" in capsys.readouterr().err

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


def test_schrodinger_ks_drift_does_not_need_the_checkpoints(tmp_path):
    # the drift times 1, 4, 16 are evolved even when checkpoints_2d omits them
    default, other = tmp_path / "default", tmp_path / "other"
    default.mkdir()
    other.mkdir()
    assert _run(default, "[experiment]\nid = schrodinger-ks\n") == 0
    assert _run(other, "[experiment]\nid = schrodinger-ks\n[times]\ncheckpoints_2d = 2.0, 8.0\n") == 0
    note = _report(default, "schrodinger-ks")["notes"][0]
    assert note.startswith("max conserved boost-norm drift")
    assert _report(other, "schrodinger-ks")["notes"][0] == note


def test_schrodinger_decay_fits_its_clean_window_only(tmp_path):
    # by t = 5000 the packet has wrapped around the box; those times leave the fit
    code = _run(tmp_path, "[experiment]\nid = schrodinger-decay\n[times]\nt_max = 5000.0\n")
    assert code in (0, 3)
    if code == 0:
        (fit,) = _report(tmp_path, "schrodinger-decay")["fits"]
        assert fit["excluded"]
        assert all(t > fit["window"][1] for t, _ in fit["excluded"])


def test_airy_decay_rows_are_the_clean_samples(tmp_path):
    assert _run(tmp_path, "[experiment]\nid = airy-decay\n[times]\nt_max = 2000.0\n") == 0
    report = _report(tmp_path, "airy-decay")
    (fit,) = report["fits"]
    assert len(report["samples"]) == fit["n_samples"]
    assert fit["excluded"]
    assert report["samples"][-1][0] < min(t for t, _ in fit["excluded"])


@pytest.mark.parametrize(
    "exp_id, text",
    [
        ("vlasov-decay", "[experiment]\nid = vlasov-decay\n[times]\nt_max = 100.0\n"),
        ("counterexample", "[experiment]\nid = counterexample\n"),
        # a spectral entry, pinned before --threads reaches the spectral runners
        ("schrodinger-ks", "[experiment]\nid = schrodinger-ks\n[grid]\nhalf_width_2d = 40.0\npoints_2d = 256\n"),
    ],
)
def test_samples_table_identical_at_one_and_two_threads(tmp_path, exp_id, text):
    path = _write(tmp_path, text)
    tables = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert cli.main(["run", "--config", path, "--out", str(out), "--threads", str(threads)]) == 0
        tables.append((out / f"{exp_id}_samples.tsv").read_bytes())
    assert tables[0] == tables[1]
