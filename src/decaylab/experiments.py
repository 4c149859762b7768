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
from .fields import OracleUnavailable, SupportOverflowError, _check_support, l2_norm, linf_norm
from .fields import sample, spectral_derivative
from .harness import (
    ContaminationError,
    DecayFit,
    InequalityReport,
    MIN_FIT_SAMPLES,
    Series,
    _ratio,
    check_airy_local_energy,
    check_airy_pointwise,
    check_dispersive_schrodinger,
    check_ks_schrodinger,
    check_local_mass,
    check_lp_decay,
    check_monomial_estimate,
    fit_decay,
)
from .norms import PARTITION_PROFILE_ID, _check_window, build_dyadic_partition, hs_norm
from .norms import translated_xnorm_inf, x_norm
from .operators import (
    boost_norms,
    commutation_residual,
    commutator_norm,
    derive_commuting_operator,
    monomial_boost,
    random_wave_packets,
    schrodinger_boost,
)
from .propagators import airy, even_order, schrodinger

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
    _check_ranges(exp_id, resolved)
    config = ExperimentConfig(exp_id, _freeze_sections(resolved))
    _check_boxes(config)
    if exp_id in _FITTING:
        _fit_times(config)  # refuse here a fit window the runner would refuse
    return config


# (section, key, test of (value, sections), requirement) per experiment, for the
# ranges that the generic rules of ``_check_ranges`` do not cover
_ENTRY_RANGES = {
    "vlasov-decay": (("datum", "dimension", lambda v, s: v >= 1, "must be at least 1"),),
    "counterexample": (  # the spread and growth checks compare consecutive lams
        ("datum", "lams", lambda v, s: min(v) >= 1.0, "must all be >= 1"),
        ("datum", "lams", lambda v, s: len(v) > 1 and list(v) == sorted(set(v)), "must increase over 2 or more values"),
    ),
    "conservation": (
        ("datum", "lam", lambda v, s: v >= 1.0, "must be >= 1"),
        # a drift over one time is 0 whatever the quadrature does
        ("times", "checkpoints", lambda v, s: len(set(v)) >= 2, "must hold at least 2 distinct times"),
    ),
    # the grid is one-dimensional, so 0 <= sigma < d/2 = 1/2
    "local-mass": (("datum", "sigmas", lambda v, s: all(0.0 <= x < 0.5 for x in v), "must lie in [0, 1/2)"),),
    "airy-local-energy": (("datum", "eps", lambda v, s: v > 0.0, "must be positive"),),
    "commutation-suite": (
        ("experiment", "seed", lambda v, s: v >= 0, "must be at least 0"),
        ("datum", "n_data", lambda v, s: v >= 1, "must be at least 1"),
    ),
    # one center makes the shared-constant spread 1 whatever the norms are
    "cube-translation": (("datum", "centers", lambda v, s: len(set(v)) > 1, "must hold 2 or more distinct values"),),
    # a probe outside the box would be snapped to an edge node
    "airy-pointwise": (
        (
            "datum",
            "probe_half_width",
            lambda v, s: 0.0 <= v <= s["grid"]["half_width"],
            "must lie in [0, grid.half_width]",
        ),
    ),
}


def _check_ranges(exp_id: str, sections: dict) -> None:
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
    for name, key, test, requirement in _ENTRY_RANGES.get(exp_id, ()):
        if not test(sections[name][key], sections):
            raise ConfigError(f"{name}.{key} {requirement}, got {_format_value(sections[name][key])}")


def _check_boxes(config: ExperimentConfig) -> None:
    """The grid checks of ``sample`` and ``build_dyadic_partition`` at parse time,
    so ``validate`` refuses what ``run`` would, and one more: a grid spacing
    above half a sampled datum's ``feature_scale()`` does not resolve it, and
    the samples would report a sampling artefact as a violated estimate.
    Indicator data have no feature scale and are not checked for it."""
    grid = config.as_dict().get("grid", {})
    if "k_min" in grid:
        try:
            _check_window(_grid(config), grid["k_min"], grid["k_max"])
        except ValueError as err:
            raise ConfigError(f"grid.half_width, grid.points, grid.k_min, grid.k_max: {err}") from None
    try:
        data = catalog()[config.experiment].sampled(config)
    except ValueError as err:
        raise ConfigError(f"datum: {err}") from None
    for suffix, datum in data:
        spec = _grid(config, suffix, datum.ndim)
        try:
            _check_support(datum, spec)
        except SupportOverflowError as err:
            raise ConfigError(f"{err}; widen grid.half_width{suffix}") from None
        try:
            scale = datum.feature_scale()
        except OracleUnavailable:
            continue
        spacing = max(spec.spacing)
        if scale < 2.0 * spacing:
            raise ConfigError(
                f"grid spacing {spacing:.6g} does not resolve the datum's feature scale {scale:.6g} "
                f"(needs spacing <= {0.5 * scale:.6g}); raise grid.points{suffix} or narrow grid.half_width{suffix}"
            )


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


# the entries that fit a decay rate, and the (prefix, after) of the ``times`` keys that
# ``_fit_times`` reads where they are not ("", None)
_FIT_KEYS = {"airy-pointwise": ("fit_", None), "airy-local-energy": ("", "fit_t_min")}
_FITTING = ("vlasov-decay", "transport-degenerate", "schrodinger-decay", "lp-decay", "airy-decay", *_FIT_KEYS)


def _fit_times(cfg: ExperimentConfig) -> list:
    """Decay-fit times: ``_times``, from ``times.{after}`` on; too few is an error of those keys."""
    prefix, after = _FIT_KEYS.get(cfg.experiment, ("", None))
    times = _times(cfg, prefix)
    keys = [f"times.{prefix}t_min", f"times.{prefix}t_max", "times.ratio"]
    if after is not None:
        times = [t for t in times if t >= cfg.get("times", after)]
        keys.append(f"times.{after}")
    if len(times) < MIN_FIT_SAMPLES:
        raise ConfigError(
            f"{', '.join(keys)} give {len(times)} decay-fit times; a fit needs at least {MIN_FIT_SAMPLES}"
        )
    return times


def _ratio_rows(rep: InequalityReport, *label) -> tuple:
    """One (label..., t, lhs, rhs, ratio) row per sample of an inequality report, ratio as the check reads it."""
    return tuple((*label, t, l, r, _ratio(l, r)) for (t, l, r) in rep.samples)


def _complexify(f):
    return f.with_values(f.values.astype(np.complex128), "complex")


# ---------------------------------------------------------------------------
# sampled data: each function lists (grid key suffix, datum) for every datum a
# runner samples on a [grid] box; the runner and ``_check_boxes`` both read it


def _grid(cfg: ExperimentConfig, suffix: str = "", dim: int = 1) -> GridSpec:
    return GridSpec.centered(cfg.get("grid", "half_width" + suffix), cfg.get("grid", "points" + suffix), dim=dim)


def _centered_gaussian(cfg: ExperimentConfig) -> tuple:
    return (("", Gaussian(0.0, cfg.get("datum", "width"))),)


def _shell_gaussian(cfg: ExperimentConfig) -> tuple:
    return (("", Gaussian(cfg.get("datum", "center"), cfg.get("datum", "width"))),)


def _ks_gaussians(cfg: ExperimentConfig) -> tuple:
    w2 = cfg.get("datum", "width_2d")
    return (("_1d", Gaussian(0.0, cfg.get("datum", "width_1d"))), ("_2d", Gaussian((0.0, 0.0), (w2, w2))))


def _cubes(cfg: ExperimentConfig) -> tuple:
    return tuple(("", CubeIndicator(c, cfg.get("datum", "side"))) for c in cfg.get("datum", "centers"))


def _monomial_gaussians(cfg: ExperimentConfig) -> tuple:
    return tuple((f"_k{k}", Gaussian(0.0, cfg.get("datum", f"width_k{k}"))) for k in (1, 2))


# ---------------------------------------------------------------------------
# runners


def _run_vlasov_decay(cfg: ExperimentConfig, threads: int):
    d = cfg.get("datum", "dimension")
    width = cfg.get("datum", "width")
    times = _fit_times(cfg)
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
    times = _fit_times(cfg)
    if tag == "relativistic":
        dispersion = tr.relativistic_map()
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
    "relativistic-d1-gaussian": lambda w, lam: (Gaussian((0.0, 0.0), (w, w)), tr.relativistic_map()),
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

    def one(name):
        # one nu window per time serves every functional: one row per time, one column per functional
        sol, pgrid = _conservation_case(name, width, lam)
        return [tr.conserved_functional(sol, tuple(_FUNCTIONALS.values()), t, pgrid) for t in times]

    tables = _ordered_map(one, _CONSERVATION_CASES, threads)
    rows, passed = [], True
    for name, table in zip(_CONSERVATION_CASES, tables):
        for fname, vals in zip(_FUNCTIONALS, zip(*table)):
            drift = (max(vals) - min(vals)) / abs(vals[0])
            passed = passed and drift <= tol
            for t, v in zip(times, vals):
                rows.append((name, fname, t, v, drift))
    cols = ("case", "functional", "t", "value", "relative_drift")
    return _Outcome(cols, tuple(rows), passed, notes=(f"drift tolerance {tol:g}",))


def _run_schrodinger_decay(cfg: ExperimentConfig, threads: int):
    ((_, datum),) = _centered_gaussian(cfg)
    grid = _grid(cfg)
    u0 = _complexify(sample(datum, grid))
    x0 = int(np.argmin(np.abs(grid.axis(0))))
    checkpoints, times = cfg.get("times", "checkpoints"), _fit_times(cfg)
    # one guarded series serves the oracle rows, the conservation drift and the fit
    series = Series.evolve(u0, schrodinger(), (*checkpoints, *times))
    checked, fitted = series.restrict(checkpoints), series.restrict(times)
    base = {s: hs_norm(u0, s) for s in (0.25, 0.5, 1.0)}
    mass0 = l2_norm(u0)
    rows, passed, worst = [], True, 0.0
    for t, ut in checked.clean:
        value = abs(ut.values[x0])
        oracle = (1.0 + 4.0 * t * t) ** -0.25
        err = abs(value / oracle - 1.0)
        passed = passed and err <= cfg.get("tolerances", "oracle")
        rows.append((t, value, oracle, err))
        worst = max(worst, abs(l2_norm(ut) / mass0 - 1.0))
        for s, ref in base.items():
            worst = max(worst, abs(hs_norm(ut, s) / ref - 1.0))
    if not rows:
        raise ContaminationError("schrodinger-decay: every checkpoint was excluded")
    passed = passed and worst <= cfg.get("tolerances", "conservation")
    notes = (f"max unitarity/Sobolev drift {worst:.3e}",) + tuple(
        f"checkpoint t={t:g} excluded: {why}" for t, why in checked.excluded
    )
    sup = [linf_norm(ut) for _, ut in fitted.clean]
    fit = fit_decay([t for t, _ in fitted.clean], sup, excluded=fitted.excluded)
    tol = cfg.get("tolerances", "slope")
    passed = passed and abs(fit.slope + 0.5) <= tol
    cols = ("t", "amplitude_at_origin", "oracle", "relative_error")
    fits = (_fit_dict("sup-decay", fit, -0.5, tol),)
    return _Outcome(cols, tuple(rows), passed, fits=fits, notes=notes)


def _ks_dimension(u0, check_times, drift_times, drift_alphas, label):
    """Weighted sup report, boost-norm drift and notes of one datum.

    One guarded series over the check and drift times feeds both. It reads
    the sup and the boost-norm table once at each clean time, to order d at
    check times and to the drift's order at drift times, so only one evolved
    field is alive at a time. The drift is read at clean drift times only,
    and fewer than two of them raise.
    """
    d = u0.grid.dim
    drift_order = max(d, *(sum(alpha) for alpha in drift_alphas))

    def read(t, ut):
        return linf_norm(ut), boost_norms(ut, t, drift_order if t in drift_times else d)

    series = Series.evolve(u0, schrodinger(), (*check_times, *drift_times), read)
    report = check_ks_schrodinger(series.restrict(check_times))
    drifted = series.restrict(drift_times)
    notes = tuple(f"{label} drift time t={t:g} excluded: {why}" for t, why in drifted.excluded)
    if len(drifted.clean) < 2:
        raise ContaminationError(
            f"schrodinger-ks: {len(drifted.clean)} clean boost-norm drift times in {label}; the drift needs 2"
        )
    drift = 0.0
    for alpha in drift_alphas:
        values = np.array([norms[alpha] for _, (_, norms) in drifted.clean])
        drift = max(drift, float((values.max() - values.min()) / values[0]))
    return report, drift, notes


def _run_schrodinger_ks(cfg: ExperimentConfig, threads: int):
    (_, g1), (_, g2) = _ks_gaussians(cfg)
    u1 = _complexify(sample(g1, _grid(cfg, "_1d")))
    rep1, drift1, notes1 = _ks_dimension(u1, _times(cfg), (1.0, 10.0, 100.0), ((0,), (1,), (2,)), "d1")
    u2 = _complexify(sample(g2, _grid(cfg, "_2d", 2)))
    rep2, drift2, notes2 = _ks_dimension(
        u2, cfg.get("times", "checkpoints_2d"), (1.0, 4.0, 16.0), ((1, 0), (1, 1), (0, 2)), "d2"
    )
    tol = cfg.get("tolerances", "norm_drift")
    drift = max(drift1, drift2)
    passed = rep1.passed and rep2.passed and drift <= tol
    rows = _ratio_rows(rep1, "d1") + _ratio_rows(rep2, "d2")
    notes = (f"max conserved boost-norm drift {drift:.3e} (tolerance {tol:g})",) + notes1 + notes2
    cols = ("suite", "t", "lhs", "rhs", "ratio")
    return _Outcome(cols, rows, passed, inequalities=(asdict(rep1), asdict(rep2)), notes=notes)


def _shell_setup(cfg: ExperimentConfig):
    ((_, datum),) = _shell_gaussian(cfg)
    grid = _grid(cfg)
    part = build_dyadic_partition(grid, cfg.get("grid", "k_min"), cfg.get("grid", "k_max"))
    return grid, part, _complexify(sample(datum, grid))


def _run_schrodinger_xnorm(cfg: ExperimentConfig, threads: int):
    grid, part, u0 = _shell_setup(cfg)
    series = Series.evolve(u0, schrodinger(), _times(cfg))
    rep = check_dispersive_schrodinger(series, part)
    # closed-form amplitude cross-check at one interior time
    w, c = cfg.get("datum", "width"), cfg.get("datum", "center")
    t_star = cfg.get("times", "cross_check_t")
    sup = linf_norm(series.evolution.at(t_star))
    oracle = w * (w**4 + 4.0 * t_star**2) ** -0.25
    err = abs(sup / oracle - 1.0)
    passed = rep.passed and err <= cfg.get("tolerances", "oracle")
    rows = _ratio_rows(rep)
    notes = (f"amplitude cross-check at t={t_star:g}: rel err {err:.3e}",)
    return _Outcome(("t", "lhs", "rhs", "ratio"), rows, passed, inequalities=(asdict(rep),), notes=notes)


def _run_lp_decay(cfg: ExperimentConfig, threads: int):
    grid, part, u0 = _shell_setup(cfg)
    series = Series.evolve(u0, schrodinger(), _fit_times(cfg))
    rep_half = check_lp_decay(series, 0.5, part)
    rep_zero = check_lp_decay(series, 0.0)
    l4 = [l / t**0.25 for (t, l, _) in rep_half.samples]
    fit = fit_decay([s[0] for s in rep_half.samples], l4, excluded=rep_half.excluded)
    tol = cfg.get("tolerances", "slope")
    passed = rep_half.passed and rep_zero.passed and abs(fit.slope + 0.25) <= tol
    rows = _ratio_rows(rep_half, "theta=1/2") + _ratio_rows(rep_zero, "theta=0")
    cols = ("series", "t", "lhs", "rhs", "ratio")
    fits = (_fit_dict("L4-decay", fit, -0.25, tol),)
    return _Outcome(cols, rows, passed, fits=fits, inequalities=(asdict(rep_half), asdict(rep_zero)))


def _run_local_mass(cfg: ExperimentConfig, threads: int):
    grid, part, u0 = _shell_setup(cfg)
    series = Series.evolve(u0, schrodinger(), _times(cfg))
    reports = [check_local_mass(series, sigma, part) for sigma in cfg.get("datum", "sigmas")]
    passed = all(r.passed for r in reports)
    rows = sum((_ratio_rows(rep, rep.name) for rep in reports), ())
    cols = ("series", "t", "lhs", "rhs", "ratio")
    return _Outcome(cols, rows, passed, inequalities=tuple(asdict(r) for r in reports))


def _run_cube_translation(cfg: ExperimentConfig, threads: int):
    grid = _grid(cfg)
    part = build_dyadic_partition(grid, cfg.get("grid", "k_min"), cfg.get("grid", "k_max"))
    rows = []
    for c, (_, cube) in zip(cfg.get("datum", "centers"), _cubes(cfg)):
        opt = translated_xnorm_inf(cube, 0.5, 1, part)
        rows.append((c, opt, x_norm(sample(cube, grid), 0.5, 1, part), cube.mass(), opt / cube.mass()))
    ratios = [row[-1] for row in rows]
    c_max, opt, plain = max(rows)[:3]  # the row of the largest center
    untranslated_ratio = plain / opt
    spread = max(ratios) / min(ratios)
    passed = spread <= cfg.get("tolerances", "shared_constant_spread") and untranslated_ratio >= cfg.get(
        "tolerances", "untranslated_gain"
    )
    notes = (
        f"shared constant C = {max(ratios):.6f} (spread x{spread:.3f})",
        f"untranslated/translated at c={c_max:g}: x{untranslated_ratio:.3f}",
    )
    cols = ("center", "translated_xnorm", "untranslated_xnorm", "l1", "ratio_to_l1")
    return _Outcome(cols, tuple(rows), passed, notes=notes)


def _airy_field(cfg: ExperimentConfig):
    ((_, datum),) = _centered_gaussian(cfg)
    return sample(datum, _grid(cfg))


def _run_airy_pointwise(cfg: ExperimentConfig, threads: int):
    u0 = _airy_field(cfg)
    wanted = np.linspace(-cfg.get("datum", "probe_half_width"), cfg.get("datum", "probe_half_width"), 41)
    # The estimate holds at every x, so grid nodes are as valid a sample as any;
    # probing the nodes nearest the evenly spaced points keeps the report's rows.
    x = u0.grid.axis(0)
    probes = x[[int(np.argmin(np.abs(x - p))) for p in wanted]]
    checkpoints, fit_times = cfg.get("times", "checkpoints"), _fit_times(cfg)
    series = Series.evolve(u0, airy(), (*checkpoints, *fit_times))
    rep = check_airy_pointwise(series.restrict(checkpoints), probes)
    # the decay of d_x u(t) on the half line x >= 0
    fitted = series.restrict(fit_times)
    half_line = x >= 0.0
    du_max = [float(np.max(np.abs(spectral_derivative(ut, 1).values[half_line]))) for _, ut in fitted.clean]
    du_fit = fit_decay([t for t, _ in fitted.clean], du_max, excluded=fitted.excluded)
    tol = cfg.get("tolerances", "slope")
    passed = rep.passed and abs(du_fit.slope + 0.5) <= tol
    rows = _ratio_rows(rep)
    fits = (_fit_dict("dx-half-line-decay", du_fit, -0.5, tol),)
    return _Outcome(("t", "lhs", "rhs", "ratio"), rows, passed, fits=fits, inequalities=(asdict(rep),))


def _run_airy_local_energy(cfg: ExperimentConfig, threads: int):
    u0 = _airy_field(cfg)
    fit_times = _fit_times(cfg)
    series = Series.evolve(u0, airy(), _times(cfg))
    rep = check_airy_local_energy(series, cfg.get("datum", "eps"))
    fitted, lhs = series.restrict(fit_times), {t: l for t, l, _ in rep.samples}
    energies = [lhs[t] / t for t, _ in fitted.clean]
    fit = fit_decay([t for t, _ in fitted.clean], energies, excluded=fitted.excluded)
    passed = rep.passed and fit.slope <= cfg.get("tolerances", "energy_slope")
    rows = _ratio_rows(rep)
    fits = (_fit_dict("weighted-energy-decay", fit, -1.0, 0.1),)
    return _Outcome(("t", "lhs", "rhs", "ratio"), rows, passed, fits=fits, inequalities=(asdict(rep),))


def _run_airy_decay(cfg: ExperimentConfig, threads: int):
    u0 = _airy_field(cfg)
    series = Series.evolve(u0, airy(), _fit_times(cfg))
    rows = tuple((t, linf_norm(ut)) for t, ut in series.clean)
    sup_fit = fit_decay([t for t, _ in rows], [v for _, v in rows], excluded=series.excluded)
    tol = cfg.get("tolerances", "slope")
    passed = abs(sup_fit.slope + 1.0 / 3.0) <= tol
    fits = (_fit_dict("sup-decay", sup_fit, -1.0 / 3.0, tol),)
    return _Outcome(("t", "sup_amplitude"), rows, passed, fits=fits)


def _run_monomial_2k(cfg: ExperimentConfig, threads: int):
    reports, rows = [], []
    for k, (suffix, datum) in enumerate(_monomial_gaussians(cfg), start=1):
        u0 = _complexify(sample(datum, _grid(cfg, suffix)))
        rep = check_monomial_estimate(k, Series.evolve(u0, even_order(k), _times(cfg)))
        reports.append(rep)
        rows.extend(_ratio_rows(rep, f"k={k}"))
    passed = all(r.passed for r in reports)
    cols = ("series", "t", "lhs", "rhs", "ratio")
    return _Outcome(cols, tuple(rows), passed, inequalities=tuple(asdict(r) for r in reports))


def _run_commutation_suite(cfg: ExperimentConfig, threads: int):
    seed = cfg.get("experiment", "seed")
    grid = _grid(cfg)
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
            residuals = commutation_residual(op, disp, u0, times).tolist()
            worst = max(worst, *residuals)
            rows.extend((m, i, t, r) for t, r in zip(times, residuals))
            if i == 0:
                for which in ("a", "b"):
                    bad = monomial_boost(
                        op.degree,
                        op.a * 1.1 if which == "a" else op.a,
                        op.b if which == "a" else op.b * 1.1,
                    )
                    perturbed_best[which] = float(commutation_residual(bad, disp, u0, times).max())
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
    sampled: Callable = lambda cfg: ()  # (grid key suffix, datum) pairs; see _check_boxes


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
            _centered_gaussian,
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
            _ks_gaussians,
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
            _shell_gaussian,
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
            _shell_gaussian,
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
            _shell_gaussian,
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
            _cubes,
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
            _centered_gaussian,
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
            _centered_gaussian,
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
            _centered_gaussian,
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
            _monomial_gaussians,
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
            # the extreme packets ``random_wave_packets`` draws (centres in [-5, 5], widths in
            # [3, 4]): the widest two bound the support, the narrowest sets the feature scale
            lambda cfg: (("", Gaussian(-5.0, 4.0)), ("", Gaussian(5.0, 4.0)), ("", Gaussian(0.0, 3.0))),
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
