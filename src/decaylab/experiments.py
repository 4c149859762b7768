"""Experiment catalog, configuration parsing, and bit-stable report emission.

Configs are flat INI text with sections per concern (experiment, grid,
datum, times, tolerances, output); unknown keys and out-of-range values
are rejected with their path. Reports are JSON trees plus flat
tab-separated sample tables whose floats are written with ``repr``, so
re-running a config reproduces the samples table byte-identically at any
thread count (threads only spread independent samples; reductions happen
in fixed time order).
"""

from __future__ import annotations

import configparser
import io
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import transport as tr
from .fields import BUMP_PROFILE_ID, BumpLambda, CubeIndicator, Gaussian, GridSpec, product_gaussian_phase
from .fields import l2_norm, linf_norm, sample
from .harness import (
    ContaminationError,
    DecayFit,
    InequalityReport,
    _propagation_series,
    check_airy_local_energy,
    check_airy_pointwise,
    check_dispersive_schrodinger,
    check_ks_schrodinger,
    check_local_mass,
    check_lp_decay,
    check_monomial_estimate,
    airy_decay_experiment,
    fit_decay,
)
from .norms import PARTITION_PROFILE_ID, build_dyadic_partition, hs_norm, translated_xnorm_inf, x_norm
from .operators import (
    commutation_residual,
    commutator_norm,
    conserved_operator_norm,
    derive_commuting_operator,
    monomial_boost,
    random_wave_packets,
    schrodinger_boost,
)
from .propagators import Evolution, airy, even_order, schrodinger

__all__ = [
    "SCHEMA_VERSION",
    "OUTPUT_DIR_ENV",
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "catalog",
    "list_catalog",
    "default_config",
    "parse_config",
    "emit_config",
    "load_config",
    "run",
]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "DECAYLAB_REPORT_DIR"
ROOT2 = math.sqrt(2.0)
GAUSS_W = 1.0 / ROOT2  # width of exp(-x^2)-style data per axis


class ConfigError(Exception):
    """Invalid experiment configuration; message names the offending key path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment configuration: sections of plain key/value pairs."""

    experiment: str
    sections: tuple  # ((section, ((key, value), ...)), ...) for hashable equality

    def get(self, section: str, key: str):
        for name, items in self.sections:
            if name == section:
                for k, v in items:
                    if k == key:
                        return v
        raise KeyError(f"{section}.{key}")

    def as_dict(self) -> dict:
        return {name: dict(items) for name, items in self.sections}


def _freeze_sections(raw: dict) -> tuple:
    return tuple(
        (name, tuple(sorted(items.items()))) for name, items in sorted(raw.items())
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _parse_value(text: str, template):
    text = text.strip()
    try:
        if isinstance(template, bool):
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if isinstance(template, int):
            return int(text)
        if isinstance(template, float):
            return float(text)
        if isinstance(template, tuple):
            return tuple(float(v) for v in text.split(","))
        return text
    except ValueError as err:
        raise ConfigError(f"cannot parse value {text!r}: {err}") from err


def emit_config(config: ExperimentConfig) -> str:
    out = io.StringIO()
    for name, items in config.sections:
        out.write(f"[{name}]\n")
        for key, value in items:
            out.write(f"{key} = {_format_value(value)}\n")
        out.write("\n")
    return out.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate INI text against the named experiment's defaults."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    if not parser.has_section("experiment") or not parser.has_option("experiment", "id"):
        raise ConfigError("missing required key experiment.id")
    exp_id = parser.get("experiment", "id").strip()
    entries = catalog()
    if exp_id not in entries:
        raise ConfigError(
            f"experiment.id {exp_id!r} is not in the catalog ({', '.join(entries)})"
        )
    defaults = entries[exp_id].defaults
    resolved = {name: dict(items) for name, items in _freeze_sections(defaults)}
    for section in parser.sections():
        if section not in resolved:
            raise ConfigError(f"unknown section {section!r}")
        for key, value in parser.items(section):
            if key not in resolved[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            resolved[section][key] = _parse_value(value, resolved[section][key])
    if resolved["experiment"]["id"] != exp_id:
        raise ConfigError("experiment.id mismatch")
    _check_ranges(resolved)
    return ExperimentConfig(exp_id, _freeze_sections(resolved))


def _check_ranges(sections: dict) -> None:
    """Reject, with the key path, values that no runner can use."""
    for name, items in sections.items():
        for key, value in items.items():
            if key.startswith(("width", "half_width")) and not value > 0.0:
                raise ConfigError(f"{name}.{key} must be positive, got {value!r}")
            if key.startswith("points") and value < 8:
                raise ConfigError(f"{name}.{key} must be at least 8, got {value!r}")
        for prefix in ("", "fit_"):
            if f"{prefix}t_min" in items and f"{prefix}t_max" in items:
                try:
                    geometric_times(items[f"{prefix}t_min"], items[f"{prefix}t_max"], items["ratio"])
                except ConfigError as err:
                    keys = f"{name}.{prefix}t_min, {name}.{prefix}t_max, {name}.ratio"
                    raise ConfigError(f"{keys}: {err}") from None


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def default_config(exp_id: str) -> ExperimentConfig:
    entries = catalog()
    if exp_id not in entries:
        raise ConfigError(f"experiment.id {exp_id!r} is not in the catalog")
    return ExperimentConfig(exp_id, _freeze_sections(entries[exp_id].defaults))


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    """Self-describing result tree plus a flat samples table."""

    experiment: str
    config: dict
    columns: tuple
    rows: tuple
    fits: tuple = ()
    inequalities: tuple = ()
    notes: tuple = ()
    passed: bool = True
    wall_clock_s: float = 0.0
    schema_version: int = SCHEMA_VERSION
    profile: dict = field(
        default_factory=lambda: {
            "bump_profile": BUMP_PROFILE_ID,
            "partition_profile": PARTITION_PROFILE_ID,
        }
    )

    def samples_table(self) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(_format_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "config": self.config,
            "columns": list(self.columns),
            "samples": [list(r) for r in self.rows],
            "fits": [dict(f) for f in self.fits],
            "inequalities": [dict(q) for q in self.inequalities],
            "notes": list(self.notes),
            "passed": self.passed,
            "profile": self.profile,
            "wall_clock_s": self.wall_clock_s,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, out_dir: str) -> tuple:
        os.makedirs(out_dir, exist_ok=True)
        json_path = os.path.join(out_dir, f"{self.experiment}.json")
        tsv_path = os.path.join(out_dir, f"{self.experiment}_samples.tsv")
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        with open(tsv_path, "w", encoding="utf-8") as fh:
            fh.write(self.samples_table())
        return json_path, tsv_path


def _fit_dict(name: str, fit: DecayFit, target: float, tol: float) -> dict:
    out = {"name": name, **asdict(fit), "window": list(fit.window)}  # the CLI prints it as [t0, t1]
    return {**out, "target_slope": target, "slope_tolerance": tol}


@dataclass(frozen=True)
class _Outcome:
    """What a runner hands back to ``run``."""

    columns: tuple
    rows: tuple
    passed: bool
    fits: tuple = ()
    inequalities: tuple = ()
    notes: tuple = ()


def _ordered_map(fn: Callable, items, threads: int = 1) -> list:
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def geometric_times(t_min: float, t_max: float, ratio: float = ROOT2) -> list:
    if t_min <= 0 or t_max < t_min or ratio <= 1.0:
        raise ConfigError("times need 0 < t_min <= t_max and ratio > 1")
    out = [t_min]
    while out[-1] * ratio <= t_max * (1.0 + 1e-12):
        out.append(out[-1] * ratio)
    return out


def _times(cfg: ExperimentConfig, prefix: str = "") -> list:
    """Geometric times from ``times.{prefix}t_min``, ``times.{prefix}t_max`` and ``times.ratio``."""
    return geometric_times(
        cfg.get("times", f"{prefix}t_min"), cfg.get("times", f"{prefix}t_max"), cfg.get("times", "ratio")
    )


def _ratio_rows(rep: InequalityReport, *label) -> tuple:
    """One (label..., t, lhs, rhs, lhs/rhs) row per sample of an inequality report."""
    return tuple((*label, t, l, r, l / r) for (t, l, r) in rep.samples)


def _complexify(f):
    return f.with_values(f.values.astype(np.complex128), "complex")


# ---------------------------------------------------------------------------
# runners


def _run_vlasov_decay(cfg: ExperimentConfig, threads: int):
    d = cfg.get("datum", "dimension")
    width = cfg.get("datum", "width")
    times = _times(cfg)
    datum = Gaussian((0.0,) * 2 * d, (width,) * 2 * d)
    sol = tr.TransportSolution(datum, tr.identity_map(d))
    values = _ordered_map(lambda t: tr.sup_velocity_average(sol, t), times, threads)
    fit = fit_decay(times, values)
    tol = cfg.get("tolerances", "slope")
    passed = abs(fit.slope - (-float(d))) <= tol
    rows = tuple((t, v) for t, v in zip(times, values))
    fits = (_fit_dict("sup-decay", fit, -float(d), tol),)
    return _Outcome(("t", "sup_velocity_average"), rows, passed, fits=fits)


def _run_transport_degenerate(cfg: ExperimentConfig, threads: int):
    tag = cfg.get("datum", "map")
    width = cfg.get("datum", "width")
    times = _times(cfg)
    if tag == "relativistic":
        dispersion = tr.relativistic_map(1)
        datum = Gaussian((0.0, 0.0), (width, width))
        target, tol, one_sided = -1.0, cfg.get("tolerances", "slope"), False
    elif tag == "mixed":
        dispersion = tr.mixed_map()
        datum = product_gaussian_phase(width, width, 2)
        target, tol, one_sided = -1.0, cfg.get("tolerances", "slope"), True
    else:
        raise ConfigError(f"datum.map must be 'relativistic' or 'mixed', got {tag!r}")
    sol = tr.TransportSolution(datum, dispersion)
    values = _ordered_map(lambda t: tr.sup_velocity_average(sol, t), times, threads)
    fit = fit_decay(times, values)
    passed = fit.slope <= target + tol if one_sided else abs(fit.slope - target) <= tol
    rows = tuple((t, v) for t, v in zip(times, values))
    notes = (f"map={tag}", "one-sided bound" if one_sided else "two-sided fit")
    fits = (_fit_dict("sup-decay", fit, target, tol),)
    return _Outcome(("t", "sup_velocity_average"), rows, passed, fits=fits, notes=notes)


def _run_counterexample(cfg: ExperimentConfig, threads: int):
    lams = cfg.get("datum", "lams")
    floor = cfg.get("tolerances", "floor")
    profiles = _ordered_map(lambda lam: tr.counterexample_profile(lam, lam), lams, threads)
    rows, notes = [], []
    growth = []
    for p in profiles:
        growth.append(p.nu_bar_at_origin * (1.0 + p.lam**2) ** 0.05)
        rows.append((p.lam, p.nu_bar_at_origin, p.lower_bound, p.w11_norm_bound, p.l1_norm, growth[-1]))
    w11 = [p.w11_norm_bound for p in profiles]
    spread = max(w11) / min(w11) - 1.0
    passed = (
        all(p.nu_bar_at_origin >= floor for p in profiles)
        and all(p.nu_bar_at_origin >= p.lower_bound - 1e-6 for p in profiles)
        and spread < 0.10
        and all(b > a for a, b in zip(growth, growth[1:]))
    )
    notes.append(f"w11 spread across lams: {spread:.3e}")
    notes.append("growth column nu * <lam>^0.1 must increase")
    cols = ("lam", "nu_bar_at_origin", "lower_bound", "w11_norm_bound", "l1_norm", "growth")
    return _Outcome(cols, tuple(rows), passed, notes=tuple(notes))


_CONSERVATION_CASES = {  # name -> (datum, dispersion map) for a width and a bump scale
    "identity-d1-gaussian": lambda w, lam: (Gaussian((0.0, 0.0), (w, w)), tr.identity_map(1)),
    "relativistic-d1-gaussian": lambda w, lam: (Gaussian((0.0, 0.0), (w, w)), tr.relativistic_map(1)),
    "square-d1-bump": lambda w, lam: (BumpLambda(lam), tr.square_map()),
    "identity-d2-product": lambda w, lam: (product_gaussian_phase(w, w, 2), tr.identity_map(2)),
    "mixed-d2-product": lambda w, lam: (product_gaussian_phase(w, w, 2), tr.mixed_map()),
}


def _conservation_case(name: str, width: float, lam: float):
    sol = tr.TransportSolution(*_CONSERVATION_CASES[name](width, lam))
    d = sol.dim
    lo, hi = sol.datum.support_bounds(1e-14)
    pbox = float(max(abs(lo[d:]).max(), abs(hi[d:]).max())) * 1.05
    spacing = sol.datum.feature_scale() / 3.0
    n = max(16, int(math.ceil(2 * pbox / spacing)))
    if d == 2:
        n = min(n, 72)
    pgrid = GridSpec.centered(pbox, n, dim=d)
    return sol, pgrid


_FUNCTIONALS = {
    "mass": lambda p, v: v,
    "l2": lambda p, v: v * v,
    "kinetic": lambda p, v: np.sum(p * p, axis=-1) * v,
}


def _run_conservation(cfg: ExperimentConfig, threads: int):
    times = cfg.get("times", "checkpoints")
    width = cfg.get("datum", "width")
    lam = cfg.get("datum", "lam")
    tol = cfg.get("tolerances", "drift")
    tasks = []
    for name in _CONSERVATION_CASES:
        sol, pgrid = _conservation_case(name, width, lam)
        for fname, F in _FUNCTIONALS.items():
            tasks.append((name, sol, pgrid, fname, F))

    def one(task):
        name, sol, pgrid, fname, F = task
        return [tr.conserved_functional(sol, F, t, pgrid) for t in times]

    series = _ordered_map(one, tasks, threads)
    rows, passed = [], True
    for (name, _, _, fname, _), vals in zip(tasks, series):
        ref = vals[0]
        drift = (max(vals) - min(vals)) / abs(ref)
        passed = passed and drift <= tol
        for t, v in zip(times, vals):
            rows.append((name, fname, t, v, drift))
    cols = ("case", "functional", "t", "value", "relative_drift")
    return _Outcome(cols, tuple(rows), passed, notes=(f"drift tolerance {tol:g}",))


def _run_schrodinger_decay(cfg: ExperimentConfig, threads: int):
    half = cfg.get("grid", "half_width")
    points = cfg.get("grid", "points")
    width = cfg.get("datum", "width")
    grid = GridSpec.centered(half, points, dim=1)
    u0 = _complexify(sample(Gaussian(0.0, width), grid))
    x0 = int(np.argmin(np.abs(grid.axis(0))))
    checkpoints, times = cfg.get("times", "checkpoints"), _times(cfg)
    # one guarded series serves the oracle rows, the conservation drift and the fit
    series_times = sorted(set(checkpoints) | set(times))
    clean, excluded = _propagation_series(Evolution(u0, schrodinger()), series_times)
    at = dict(clean)
    base = {s: hs_norm(u0, s).value for s in (0.25, 0.5, 1.0)}
    mass0 = l2_norm(u0)
    rows, passed, worst = [], True, 0.0
    for t in (t for t in checkpoints if t in at):
        ut = at[t]
        value = abs(ut.values[x0])
        oracle = (1.0 + 4.0 * t * t) ** -0.25
        err = abs(value / oracle - 1.0)
        passed = passed and err <= cfg.get("tolerances", "oracle")
        rows.append((t, value, oracle, err))
        worst = max(worst, abs(l2_norm(ut) / mass0 - 1.0))
        for s, ref in base.items():
            worst = max(worst, abs(hs_norm(ut, s).value / ref - 1.0))
    if not rows:
        raise ContaminationError("schrodinger-decay: every checkpoint was excluded")
    passed = passed and worst <= cfg.get("tolerances", "conservation")
    notes = (f"max unitarity/Sobolev drift {worst:.3e}",) + tuple(
        f"checkpoint t={t:g} excluded: {why}" for t, why in excluded if t in checkpoints
    )
    sup = [(t, linf_norm(at[t])) for t in times if t in at]
    fit_excluded = tuple((t, why) for t, why in excluded if t in times)
    fit = fit_decay([t for t, _ in sup], [v for _, v in sup], excluded=fit_excluded)
    tol = cfg.get("tolerances", "slope")
    passed = passed and abs(fit.slope + 0.5) <= tol
    cols = ("t", "amplitude_at_origin", "oracle", "relative_error")
    fits = (_fit_dict("sup-decay", fit, -0.5, tol),)
    return _Outcome(cols, tuple(rows), passed, fits=fits, notes=notes)


def _run_schrodinger_ks(cfg: ExperimentConfig, threads: int):
    grid1 = GridSpec.centered(cfg.get("grid", "half_width_1d"), cfg.get("grid", "points_1d"), dim=1)
    u1 = _complexify(sample(Gaussian(0.0, cfg.get("datum", "width_1d")), grid1))
    rep1 = check_ks_schrodinger(u1, _times(cfg))
    grid2 = GridSpec.centered(cfg.get("grid", "half_width_2d"), cfg.get("grid", "points_2d"), dim=2)
    w2 = cfg.get("datum", "width_2d")
    u2 = _complexify(sample(Gaussian((0.0, 0.0), (w2, w2)), grid2))
    rep2 = check_ks_schrodinger(u2, cfg.get("times", "checkpoints_2d"))
    tol = cfg.get("tolerances", "norm_drift")
    drift = 0.0
    for alpha in (0, 1, 2):
        series = conserved_operator_norm(
            u1, [(schrodinger_boost(0), alpha)], schrodinger(), (1.0, 10.0, 100.0)
        )
        drift = max(drift, float((series.max() - series.min()) / series[0]))
    for spec in ([(schrodinger_boost(0), 1)], [(schrodinger_boost(0), 1), (schrodinger_boost(1), 1)], [(schrodinger_boost(1), 2)]):
        series = conserved_operator_norm(u2, spec, schrodinger(), (1.0, 4.0, 16.0))
        drift = max(drift, float((series.max() - series.min()) / series[0]))
    passed = rep1.passed and rep2.passed and drift <= tol
    rows = _ratio_rows(rep1, "d1") + _ratio_rows(rep2, "d2")
    notes = (f"max conserved boost-norm drift {drift:.3e} (tolerance {tol:g})",)
    cols = ("suite", "t", "lhs", "rhs", "ratio")
    return _Outcome(cols, rows, passed, inequalities=(asdict(rep1), asdict(rep2)), notes=notes)


def _shell_setup(cfg: ExperimentConfig):
    grid = GridSpec.centered(cfg.get("grid", "half_width"), cfg.get("grid", "points"), dim=1)
    part = build_dyadic_partition(grid, cfg.get("grid", "k_min"), cfg.get("grid", "k_max"))
    u0 = _complexify(sample(Gaussian(cfg.get("datum", "center"), cfg.get("datum", "width")), grid))
    return grid, part, u0


def _run_schrodinger_xnorm(cfg: ExperimentConfig, threads: int):
    grid, part, u0 = _shell_setup(cfg)
    times = _times(cfg)
    rep = check_dispersive_schrodinger(u0, times, part)
    # closed-form amplitude cross-check at one interior time
    w, c = cfg.get("datum", "width"), cfg.get("datum", "center")
    t_star = cfg.get("times", "cross_check_t")
    sup = linf_norm(Evolution(u0, schrodinger()).at(t_star))
    oracle = w * (w**4 + 4.0 * t_star**2) ** -0.25
    err = abs(sup / oracle - 1.0)
    passed = rep.passed and err <= cfg.get("tolerances", "oracle")
    rows = _ratio_rows(rep)
    notes = (f"amplitude cross-check at t={t_star:g}: rel err {err:.3e}",)
    return _Outcome(("t", "lhs", "rhs", "ratio"), rows, passed, inequalities=(asdict(rep),), notes=notes)


def _run_lp_decay(cfg: ExperimentConfig, threads: int):
    grid, part, u0 = _shell_setup(cfg)
    times = _times(cfg)
    rep_half = check_lp_decay(u0, 0.5, times, part)
    rep_zero = check_lp_decay(u0, 0.0, times)
    l4 = [l / t**0.25 for (t, l, _) in rep_half.samples]
    fit = fit_decay([s[0] for s in rep_half.samples], l4)
    tol = cfg.get("tolerances", "slope")
    passed = rep_half.passed and rep_zero.passed and abs(fit.slope + 0.25) <= tol
    rows = _ratio_rows(rep_half, "theta=1/2") + _ratio_rows(rep_zero, "theta=0")
    cols = ("series", "t", "lhs", "rhs", "ratio")
    fits = (_fit_dict("L4-decay", fit, -0.25, tol),)
    return _Outcome(cols, rows, passed, fits=fits, inequalities=(asdict(rep_half), asdict(rep_zero)))


def _run_local_mass(cfg: ExperimentConfig, threads: int):
    grid, part, u0 = _shell_setup(cfg)
    times = _times(cfg)
    reports = [check_local_mass(u0, sigma, times, part) for sigma in cfg.get("datum", "sigmas")]
    passed = all(r.passed for r in reports)
    rows = sum((_ratio_rows(rep, rep.name) for rep in reports), ())
    cols = ("series", "t", "lhs", "rhs", "ratio")
    return _Outcome(cols, rows, passed, inequalities=tuple(asdict(r) for r in reports))


def _run_cube_translation(cfg: ExperimentConfig, threads: int):
    grid = GridSpec.centered(cfg.get("grid", "half_width"), cfg.get("grid", "points"), dim=1)
    part = build_dyadic_partition(grid, cfg.get("grid", "k_min"), cfg.get("grid", "k_max"))
    centers = cfg.get("datum", "centers")
    side = cfg.get("datum", "side")
    rows, ratios = [], []
    untranslated_ratio = None
    for c in centers:
        cube = CubeIndicator(c, side)
        opt = translated_xnorm_inf(cube, 0.5, 1, part)
        plain = x_norm(sample(cube, grid, allow_overflow=True), 0.5, 1, part).value
        l1 = cube.mass()
        ratios.append(opt.value / l1)
        rows.append((c, opt.value, plain, l1, opt.value / l1))
        if c == max(centers):
            untranslated_ratio = plain / opt.value
    spread = max(ratios) / min(ratios)
    passed = spread <= cfg.get("tolerances", "shared_constant_spread") and untranslated_ratio >= cfg.get(
        "tolerances", "untranslated_gain"
    )
    notes = (
        f"shared constant C = {max(ratios):.6f} (spread x{spread:.3f})",
        f"untranslated/translated at c={max(centers):g}: x{untranslated_ratio:.3f}",
    )
    cols = ("center", "translated_xnorm", "untranslated_xnorm", "l1", "ratio_to_l1")
    return _Outcome(cols, tuple(rows), passed, notes=notes)


def _airy_field(cfg: ExperimentConfig):
    grid = GridSpec.centered(cfg.get("grid", "half_width"), cfg.get("grid", "points"), dim=1)
    return sample(Gaussian(0.0, cfg.get("datum", "width")), grid)


def _run_airy_pointwise(cfg: ExperimentConfig, threads: int):
    u0 = _airy_field(cfg)
    wanted = np.linspace(-cfg.get("datum", "probe_half_width"), cfg.get("datum", "probe_half_width"), 41)
    # The estimate holds at every x, so grid nodes are as valid a sample as any;
    # probing the nodes nearest the evenly spaced points keeps the report's rows.
    x = u0.grid.axis(0)
    probes = x[[int(np.argmin(np.abs(x - p))) for p in wanted]]
    rep = check_airy_pointwise(u0, cfg.get("times", "checkpoints"), probes)
    du_fit = airy_decay_experiment(
        u0,
        _times(cfg, "fit_"),
        derivative=True,
        half_line_from=0.0,
    )
    tol = cfg.get("tolerances", "slope")
    passed = rep.passed and abs(du_fit.slope + 0.5) <= tol
    rows = _ratio_rows(rep)
    fits = (_fit_dict("dx-half-line-decay", du_fit, -0.5, tol),)
    return _Outcome(("t", "lhs", "rhs", "ratio"), rows, passed, fits=fits, inequalities=(asdict(rep),))


def _run_airy_local_energy(cfg: ExperimentConfig, threads: int):
    u0 = _airy_field(cfg)
    times = _times(cfg)
    rep = check_airy_local_energy(u0, cfg.get("datum", "eps"), times)
    energies = [(t, l / t) for (t, l, _) in rep.samples if t >= cfg.get("times", "fit_t_min")]
    fit = fit_decay([t for t, _ in energies], [v for _, v in energies])
    passed = rep.passed and fit.slope <= cfg.get("tolerances", "energy_slope")
    rows = _ratio_rows(rep)
    fits = (_fit_dict("weighted-energy-decay", fit, -1.0, 0.1),)
    return _Outcome(("t", "lhs", "rhs", "ratio"), rows, passed, fits=fits, inequalities=(asdict(rep),))


def _run_airy_decay(cfg: ExperimentConfig, threads: int):
    u0 = _airy_field(cfg)
    clean, excluded = _propagation_series(Evolution(u0, airy()), _times(cfg))
    rows = tuple((t, linf_norm(ut)) for t, ut in clean)
    sup_fit = fit_decay([t for t, _ in rows], [v for _, v in rows], excluded=tuple(excluded))
    tol = cfg.get("tolerances", "slope")
    passed = abs(sup_fit.slope + 1.0 / 3.0) <= tol
    fits = (_fit_dict("sup-decay", sup_fit, -1.0 / 3.0, tol),)
    return _Outcome(("t", "sup_amplitude"), rows, passed, fits=fits)


def _run_monomial_2k(cfg: ExperimentConfig, threads: int):
    reports, rows = [], []
    for k, half, points, width in (
        (1, cfg.get("grid", "half_width_k1"), cfg.get("grid", "points_k1"), cfg.get("datum", "width_k1")),
        (2, cfg.get("grid", "half_width_k2"), cfg.get("grid", "points_k2"), cfg.get("datum", "width_k2")),
    ):
        grid = GridSpec.centered(half, points, dim=1)
        u0 = _complexify(sample(Gaussian(0.0, width), grid))
        times = _times(cfg)
        rep = check_monomial_estimate(k, u0, times)
        reports.append(rep)
        rows.extend(_ratio_rows(rep, f"k={k}"))
    passed = all(r.passed for r in reports)
    cols = ("series", "t", "lhs", "rhs", "ratio")
    return _Outcome(cols, tuple(rows), passed, inequalities=tuple(asdict(r) for r in reports))


def _run_commutation_suite(cfg: ExperimentConfig, threads: int):
    seed = cfg.get("experiment", "seed")
    grid = GridSpec.centered(cfg.get("grid", "half_width"), cfg.get("grid", "points"), dim=1)
    n_data = cfg.get("datum", "n_data")
    times = cfg.get("times", "checkpoints")
    tol = cfg.get("tolerances", "residual")
    detect = cfg.get("tolerances", "perturbed_floor")
    rows, passed, notes = [], True, []
    for m, disp in ((2, schrodinger()), (3, airy()), (4, even_order(2))):
        op = derive_commuting_operator(disp)
        rng = np.random.default_rng(seed + m)
        worst = 0.0
        perturbed_best = {"a": 0.0, "b": 0.0}
        for i in range(n_data):
            u0 = random_wave_packets(grid, rng)
            for t in times:
                r, _ = commutation_residual(op, disp, u0, t)
                worst = max(worst, r)
                rows.append((m, i, t, r))
            if i == 0:
                for which in ("a", "b"):
                    bad = monomial_boost(
                        op.degree,
                        op.a * 1.1 if which == "a" else op.a,
                        op.b if which == "a" else op.b * 1.1,
                    )
                    perturbed_best[which] = max(
                        commutation_residual(bad, disp, u0, t)[0] for t in times
                    )
        ok = worst <= tol and all(v >= detect for v in perturbed_best.values())
        passed = passed and ok
        notes.append(
            f"m={m}: worst residual {worst:.3e}, perturbed a/b max residual "
            f"{perturbed_best['a']:.3e}/{perturbed_best['b']:.3e}"
        )
    # pairwise boost commutation in two dimensions
    grid2 = GridSpec.centered(60.0, 256, dim=2)
    rng = np.random.default_rng(seed)
    u2 = random_wave_packets(grid2, rng)
    comm = commutator_norm(schrodinger_boost(0), schrodinger_boost(1), u2, 1.7) / l2_norm(u2)
    passed = passed and comm <= 1e-12
    notes.append(f"2d boost commutator relative norm {comm:.3e}")
    cols = ("degree", "sample", "t", "residual")
    return _Outcome(cols, tuple(rows), passed, notes=tuple(notes))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    anchor: str
    description: str
    defaults: dict
    runner: Callable


def _base_sections(exp_id: str, extra: dict) -> dict:
    out = {
        "experiment": {"id": exp_id, "seed": 20260811},
        "output": {"dir": ""},
    }
    out.update(extra)
    return out


_CATALOG = None


def catalog() -> dict:
    global _CATALOG
    if _CATALOG is not None:
        return _CATALOG
    entries = [
        CatalogEntry(
            "vlasov-decay",
            "free transport: sup of the velocity average decays like <t>^-d",
            "fit the decay exponent of sup_q of the velocity average for the identity map",
            _base_sections(
                "vlasov-decay",
                {
                    "datum": {"dimension": 1, "width": GAUSS_W},
                    "times": {"t_min": 10.0, "t_max": 10000.0, "ratio": ROOT2},
                    "tolerances": {"slope": 0.02},
                },
            ),
            _run_vlasov_decay,
        ),
        CatalogEntry(
            "transport-degenerate",
            "transport decay persists for dispersion maps of partial rank",
            "decay exponents for the relativistic and mixed (p1, p2^2) maps",
            _base_sections(
                "transport-degenerate",
                {
                    "datum": {"map": "mixed", "width": GAUSS_W},
                    "times": {"t_min": 10.0, "t_max": 1000.0, "ratio": ROOT2},
                    "tolerances": {"slope": 0.05},
                },
            ),
            _run_transport_degenerate,
        ),
        CatalogEntry(
            "counterexample",
            "square-map concentration: no uniform <t>^-eps decay with bounded W^{1,1} data",
            "velocity average at the origin stays above its closed-form floor along t = lam",
            _base_sections(
                "counterexample",
                {
                    "datum": {"lams": (4.0, 16.0, 64.0)},
                    "tolerances": {"floor": 0.78},
                },
            ),
            _run_counterexample,
        ),
        CatalogEntry(
            "conservation",
            "integrals of F(p, nu) are constant in time for transport solutions",
            "mass, squared-density and kinetic functionals across the built-in data",
            _base_sections(
                "conservation",
                {
                    "datum": {"width": GAUSS_W, "lam": 4.0},
                    "times": {"checkpoints": (0.0, 1.0, 2.0, 5.0, 10.0)},
                    "tolerances": {"drift": 1e-8},
                },
            ),
            _run_conservation,
        ),
        CatalogEntry(
            "schrodinger-decay",
            "Schrodinger amplitude decay: |u(t,0)| = (1+4t^2)^(-1/4) for Gaussian data",
            "closed-form amplitude oracle, unitarity, Sobolev conservation, sup-norm slope",
            _base_sections(
                "schrodinger-decay",
                {
                    "grid": {"half_width": 800.0, "points": 8192},
                    "datum": {"width": 1.0},
                    "times": {
                        "checkpoints": (1.0, 5.0, 25.0),
                        "t_min": 5.0,
                        "t_max": 50.0,
                        "ratio": ROOT2,
                    },
                    "tolerances": {"oracle": 1e-8, "conservation": 1e-12, "slope": 0.03},
                },
            ),
            _run_schrodinger_decay,
        ),
        CatalogEntry(
            "schrodinger-ks",
            "weighted sup bound: |t|^d ||u||_inf^2 controlled by boost-norm products",
            "stability of the empirical constant plus conservation of boost norms",
            _base_sections(
                "schrodinger-ks",
                {
                    "grid": {
                        "half_width_1d": 2500.0,
                        "points_1d": 32768,
                        "half_width_2d": 200.0,
                        "points_2d": 1024,
                    },
                    "datum": {"width_1d": 1.0, "width_2d": 1.3},
                    "times": {
                        "t_min": 1.0,
                        "t_max": 100.0,
                        "ratio": ROOT2,
                        "checkpoints_2d": (1.0, 2.0, 4.0, 8.0, 16.0),
                    },
                    "tolerances": {"norm_drift": 1e-9},
                },
            ),
            _run_schrodinger_ks,
        ),
        CatalogEntry(
            "schrodinger-xnorm",
            "dispersive bound |t|^{d/2} sup|u| <= C ||u0||_{X^{d/2,1}}",
            "empirical constant for shell-supported data, with a closed-form cross-check",
            _base_sections(
                "schrodinger-xnorm",
                {
                    "grid": {"half_width": 6200.0, "points": 131072, "k_min": 0, "k_max": 2},
                    "datum": {"center": 2.2, "width": 0.25},
                    "times": {"t_min": 1.0, "t_max": 100.0, "ratio": ROOT2, "cross_check_t": 25.0},
                    "tolerances": {"oracle": 1e-6},
                },
            ),
            _run_schrodinger_xnorm,
        ),
        CatalogEntry(
            "lp-decay",
            "interpolated decay |t|^{theta d/2} ||u||_{L^{2/(1-theta)}} <= C ||u0||_{X,2}",
            "theta = 1/2 gives the L4 rate -1/4; theta = 0 degenerates to mass conservation",
            _base_sections(
                "lp-decay",
                {
                    "grid": {"half_width": 3100.0, "points": 65536, "k_min": 0, "k_max": 2},
                    "datum": {"center": 2.2, "width": 0.25},
                    "times": {"t_min": 5.0, "t_max": 50.0, "ratio": ROOT2},
                    "tolerances": {"slope": 0.05},
                },
            ),
            _run_lp_decay,
        ),
        CatalogEntry(
            "local-mass",
            "local mass decay |t|^sigma ||u(t)||_{X^{-sigma,2}} <= C ||u0||_{X^{sigma,2}}",
            "sigma = 0 sits inside the overlap sandwich; sigma = 1/4 has a stable constant",
            _base_sections(
                "local-mass",
                {
                    "grid": {"half_width": 2300.0, "points": 16384, "k_min": 1, "k_max": 10},
                    "datum": {"center": 8.0, "width": 0.8, "sigmas": (0.0, 0.25)},
                    "times": {"t_min": 1.0, "t_max": 100.0, "ratio": ROOT2},
                    "tolerances": {},
                },
            ),
            _run_local_mass,
        ),
        CatalogEntry(
            "cube-translation",
            "translation-optimized dyadic norm of cube data is controlled by the L1 norm",
            "centering a cube minimizes its X norm; off-center cubes pay a factor >= 2",
            _base_sections(
                "cube-translation",
                {
                    "grid": {"half_width": 64.0, "points": 8192, "k_min": -4, "k_max": 5},
                    "datum": {"centers": (0.0, 3.0, 10.0), "side": 1.0},
                    "tolerances": {"shared_constant_spread": 1.25, "untranslated_gain": 2.0},
                },
            ),
            _run_cube_translation,
        ),
        CatalogEntry(
            "airy-pointwise",
            "Airy weighted bound 3t(du)^2 + x u^2 <= 2||du0|| ||x u0|| + ||u0||^2",
            "pointwise bound at probe points plus the half-line derivative decay rate",
            _base_sections(
                "airy-pointwise",
                {
                    "grid": {"half_width": 1500.0, "points": 32768},
                    "datum": {"width": GAUSS_W, "probe_half_width": 50.0},
                    "times": {
                        "checkpoints": (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0),
                        "fit_t_min": 2.0,
                        "fit_t_max": 20.0,
                        "ratio": 2.0**0.25,
                    },
                    "tolerances": {"slope": 0.1},
                },
            ),
            _run_airy_pointwise,
        ),
        CatalogEntry(
            "airy-local-energy",
            "Airy local energy decay: |t| ||<x>^(-1/2-eps) dx u||^2 bounded by data",
            "weighted derivative energy stays below its initial-data constant",
            _base_sections(
                "airy-local-energy",
                {
                    "grid": {"half_width": 4800.0, "points": 32768},
                    "datum": {"width": GAUSS_W, "eps": 0.5},
                    "times": {"t_min": 1.0, "t_max": 50.0, "ratio": ROOT2, "fit_t_min": 2.0},
                    "tolerances": {"energy_slope": -0.9},
                },
            ),
            _run_airy_local_energy,
        ),
        CatalogEntry(
            "airy-decay",
            "Airy sup-norm decay |t|^{1/3} sup|u| bounded (slope -1/3)",
            "sup-amplitude decay fit on wrap-around-clean samples",
            _base_sections(
                "airy-decay",
                {
                    "grid": {"half_width": 1500.0, "points": 32768},
                    "datum": {"width": GAUSS_W},
                    "times": {"t_min": 2.0, "t_max": 20.0, "ratio": 2.0**0.25},
                    "tolerances": {"slope": 0.1},
                },
            ),
            _run_airy_decay,
        ),
        CatalogEntry(
            "monomial-2k",
            "even-order evolutions: t |d^{2k-2} u|^2 controlled by conserved products",
            "k = 1 mirrors the Schrodinger structure; k = 2 is the genuinely higher-order case",
            _base_sections(
                "monomial-2k",
                {
                    "grid": {
                        "half_width_k1": 320.0,
                        "points_k1": 4096,
                        "half_width_k2": 4300.0,
                        "points_k2": 16384,
                    },
                    "datum": {"width_k1": 1.0, "width_k2": 2.0},
                    "times": {"t_min": 1.0, "t_max": 20.0, "ratio": ROOT2},
                    "tolerances": {},
                },
            ),
            _run_monomial_2k,
        ),
        CatalogEntry(
            "commutation-suite",
            "derived boosts commute with their evolutions; perturbed ones do not",
            "residual suite over random band-limited packets for degrees 2, 3, 4",
            _base_sections(
                "commutation-suite",
                {
                    "grid": {"half_width": 1200.0, "points": 4096},
                    "datum": {"n_data": 20},
                    "times": {"checkpoints": (0.1, 1.0, 10.0)},
                    "tolerances": {"residual": 1e-9, "perturbed_floor": 1e-3},
                },
            ),
            _run_commutation_suite,
        ),
    ]
    _CATALOG = {e.id: e for e in entries}
    if len(_CATALOG) != len(entries):
        raise RuntimeError("catalog ids must be unique")
    return _CATALOG


def list_catalog() -> list:
    """Static table of (id, anchor, description) rows."""
    return [
        {"id": e.id, "anchor": e.anchor, "description": e.description}
        for e in catalog().values()
    ]


def run(config: ExperimentConfig, out_dir: Optional[str] = None, threads: int = 1) -> Report:
    """Dispatch to the configured experiment, write report files, return the report."""
    entry = catalog()[config.experiment]
    start = time.perf_counter()
    out = entry.runner(config, threads)
    elapsed = time.perf_counter() - start
    report = Report(
        experiment=config.experiment,
        config=config.as_dict(),
        columns=out.columns,
        rows=out.rows,
        fits=out.fits,
        inequalities=out.inequalities,
        notes=out.notes + (f"anchor: {entry.anchor}",),
        passed=bool(out.passed),
        wall_clock_s=elapsed,
    )
    target = out_dir or config.get("output", "dir") or os.environ.get(OUTPUT_DIR_ENV)
    if target:
        report.write(target)
    return report
