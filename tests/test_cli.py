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
    ],
)
def test_out_of_range_values_rejected(exp_id, section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_config(f"[experiment]\nid = {exp_id}\n[{section}]\n{key} = {value}\n")


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

    def test_2_for_an_out_of_range_value_in_validate_and_run(self, tmp_path, capsys):
        path = _write(tmp_path, "[experiment]\nid = vlasov-decay\n[datum]\nwidth = -1\n")
        assert cli.main(["validate", "--config", path]) == 2
        assert cli.main(["run", "--config", path]) == 2
        assert "datum.width" in capsys.readouterr().err

    def test_2_for_a_config_error_raised_by_the_runner(self, tmp_path, capsys):
        assert _run(tmp_path, "[experiment]\nid = transport-degenerate\n[datum]\nmap = cubic\n") == 2
        assert "datum.map" in capsys.readouterr().err

    def test_2_for_a_missing_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_3_when_contamination_leaves_no_sample(self, tmp_path, capsys):
        text = "[experiment]\nid = local-mass\n[times]\nt_min = 100000.0\nt_max = 1000000.0\n"
        assert _run(tmp_path, text) == 3
        assert "numerical contamination" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
