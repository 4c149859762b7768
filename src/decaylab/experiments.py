"""Experiment catalog, configuration parsing, and bit-stable report emission.

Configs are flat INI text with sections per concern (experiment, grid,
datum, times, tolerances, output), read as written (no ``%`` interpolation,
no ``[DEFAULT]``); unknown names and out-of-range values are rejected with
their path. Reports are JSON trees plus flat tab-separated sample tables
whose floats are written with ``repr``, so re-running a config reproduces
the samples table byte-identically at any thread count (threads only spread
``conservation``'s five independent cases, and every other entry runs its
work in one batch however many threads it is given).

Each catalog entry carries its defaults, its value rules and the ``times``
keys of its decay fit. A runner returns a ``Report`` whose verdicts are all
records: fitted slopes, inequality reports and the runner's own checks of
single values. ``run`` adds the experiment, its config, the anchor note and
the wall time; the report passes exactly when every record passes.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import transport as tr
from .fields import BUMP_PROFILE_ID, BumpLambda, CubeIndicator, Gaussian, GridSpec
from .fields import SupportOverflowError, _check_support, l2_norm, linf_norm
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
    CommutingOperator,
    boost_norms,
    commutation_residual,
    commutator_norm,
    derive_commuting_operator,
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

SCHEMA_VERSION = 4
OUTPUT_DIR_ENV = "DECAYLAB_REPORT_DIR"
ROOT2 = math.sqrt(2.0)
MAX_TIMES = 10_000  # the most times ``geometric_times`` lists; a range that gives more is refused
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
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 writes np.float64(...) into the repr of its own floats
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _parse_value(text: str, template):
    """The value of ``text`` in the type of ``template``; floats must be finite. ValueError if not."""
    if isinstance(template, int):
        return int(text)
    if not isinstance(template, (float, tuple)):
        return text
    values = tuple(float(v) for v in (text.split(",") if isinstance(template, tuple) else (text,)))
    if not all(map(math.isfinite, values)):
        raise ValueError("not a finite number")
    return values if isinstance(template, tuple) else values[0]


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
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    if not parser.has_section("experiment") or not parser.has_option("experiment", "id"):
        raise ConfigError("missing required key experiment.id")
    exp_id = parser.get("experiment", "id").strip()
    resolved = default_config(exp_id).as_dict()  # refuses an id not in the catalog
    entry = catalog()[exp_id]
    for section in parser.sections():
        if section not in resolved:
            raise ConfigError(f"unknown section {section!r}")
        for key, value in parser.items(section):
            if key not in resolved[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                resolved[section][key] = _parse_value(value.strip(), resolved[section][key])
            except ValueError as err:
                raise ConfigError(f"{section}.{key}: cannot parse value {value.strip()!r}: {err}") from None
    _check_ranges(entry, resolved)
    config = ExperimentConfig(exp_id, _freeze_sections(resolved))
    _check_boxes(config)
    if entry.fit is not None:
        _fit_times(config)  # refuse here a fit window the runner would refuse
    return config


def _check_ranges(entry: CatalogEntry, sections: dict) -> None:
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
    for name, key, test, requirement in entry.ranges:
        if not test(sections[name][key], sections):
            raise ConfigError(f"{name}.{key} {requirement}, got {_format_value(sections[name][key])}")


def _check_boxes(config: ExperimentConfig) -> None:
    """The grid checks of ``sample`` and ``build_dyadic_partition`` at parse time,
    so ``validate`` refuses what ``run`` would, and one more: a grid spacing
    above half a sampled datum's ``feature_scale()`` does not resolve it, and
    the samples would report a sampling artefact as a violated estimate.
    Indicator data have no feature scale and are not checked for it."""
    boxes = _boxes(config)
    grid = config.as_dict().get("grid", {})
    if "k_min" in grid:  # the partition is built on the box of the entry's first datum
        try:
            _check_window(boxes[0][2], grid["k_min"], grid["k_max"])
        except ValueError as err:
            raise ConfigError(f"grid.half_width, grid.points, grid.k_min, grid.k_max: {err}") from None
    for suffix, datum, spec in boxes:
        try:
            _check_support(datum, spec)
        except SupportOverflowError as err:
            raise ConfigError(f"{err}; widen grid.half_width{suffix}") from None
        scale = datum.feature_scale()
        if scale is None:
            continue
        spacing = max(spec.spacing)
        if scale < 2.0 * spacing:
            raise ConfigError(
                f"grid spacing {spacing:.6g} does not resolve the datum's feature scale {scale:.6g} "
                f"(needs spacing <= {0.5 * scale:.6g}); raise grid.points{suffix} or narrow grid.half_width{suffix}"
            )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text: {err}") from None
    return parse_config(text)


def default_config(exp_id: str) -> ExperimentConfig:
    entries = catalog()
    if exp_id not in entries:
        raise ConfigError(f"experiment.id {exp_id!r} is not in the catalog ({', '.join(entries)})")
    return ExperimentConfig(exp_id, _freeze_sections(entries[exp_id].defaults))


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    """Self-describing result tree plus a flat samples table.

    A runner fills in what it owns: the table, its ``_Slope`` fits,
    ``InequalityReport``s, ``_Check``s and notes; ``run`` adds the rest.
    ``passed`` is derived (every record passes); ``to_json`` adds the schema and profile ids.
    """

    columns: tuple
    rows: tuple
    fits: tuple = ()
    inequalities: tuple = ()
    checks: tuple = ()
    notes: tuple = ()
    experiment: str = ""
    config: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(record.passed for record in (*self.fits, *self.inequalities, *self.checks))

    def samples_table(self) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(_format_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "columns": list(self.columns),
            "samples": [list(r) for r in self.rows],
            "fits": [f.as_dict() for f in self.fits],
            "inequalities": [q.as_dict() for q in self.inequalities],
            "checks": [c.as_dict() for c in self.checks],
            "notes": list(self.notes),
            "passed": self.passed,
            "profile": {"bump_profile": BUMP_PROFILE_ID, "partition_profile": PARTITION_PROFILE_ID},
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


@dataclass(frozen=True)
class _Slope:
    """A fitted decay rate against its target: it passes on |slope - target| <= tol, or,
    when ``upper`` is set, on slope <= upper (a one-sided bound; null in the JSON if not)."""

    name: str
    fit: DecayFit
    target: float
    tol: float
    upper: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.upper is not None:
            return self.fit.slope <= self.upper
        return abs(self.fit.slope - self.target) <= self.tol

    def as_dict(self) -> dict:
        out = {"name": self.name, **asdict(self.fit), "window": list(self.fit.window)}  # the CLI prints [t0, t1]
        out.update(target_slope=self.target, slope_tolerance=self.tol, upper=self.upper)
        return {**out, "passed": self.passed}


_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class _Check:
    """A runner's own test of one value: it passes on ``value relation bound``,
    ``relation`` one of <=, <, >=, >; a NaN value fails every relation."""

    name: str
    value: float
    relation: str
    bound: float

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _ordered_map(fn: Callable, items, threads: int = 1) -> list:
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def geometric_times(t_min: float, t_max: float, ratio: float = ROOT2) -> list:
    if t_min <= 0 or t_max < t_min or ratio <= 1.0:
        raise ConfigError("times need 0 < t_min <= t_max and ratio > 1")
    if math.log(t_max) - math.log(t_min) > (MAX_TIMES - 1) * math.log(ratio):
        raise ConfigError(f"times from t_min to t_max at this ratio number more than {MAX_TIMES}")
    out = [t_min]
    while out[-1] * ratio <= t_max * (1.0 + 1e-12):
        out.append(out[-1] * ratio)
    return out


def _times(cfg: ExperimentConfig, prefix: str = "") -> list:
    """Geometric times from ``times.{prefix}t_min``, ``times.{prefix}t_max`` and ``times.ratio``."""
    return geometric_times(
        cfg.get("times", f"{prefix}t_min"), cfg.get("times", f"{prefix}t_max"), cfg.get("times", "ratio")
    )


def _fit_times(cfg: ExperimentConfig) -> list:
    """Decay-fit times: ``_times`` from ``times.{after}`` on, with the entry's ``fit`` (prefix, after);
    too few is an error of those keys."""
    prefix, after = catalog()[cfg.experiment].fit
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


# ---------------------------------------------------------------------------
# sampled data: each function lists (grid key suffix, datum) for every datum a runner samples on
# a [grid] box; ``_boxes`` puts each on its box, which ``_check_boxes`` checks and ``_fields`` samples


def _boxes(cfg: ExperimentConfig) -> tuple:
    """(grid key suffix, datum, grid) for each datum of the entry's ``sampled`` list, in its order."""
    try:
        data = catalog()[cfg.experiment].sampled(cfg)
    except ValueError as err:
        raise ConfigError(f"datum: {err}") from None
    return tuple(
        (s, datum, GridSpec.centered(cfg.get("grid", "half_width" + s), cfg.get("grid", "points" + s), dim=datum.ndim))
        for s, datum in data
    )


def _fields(cfg: ExperimentConfig) -> tuple:
    return tuple((datum, sample(datum, grid)) for _, datum, grid in _boxes(cfg))


def _gaussian_amplitude(datum: Gaussian, t: float, x: float) -> float:
    """|u(t, x)| = w s^(-1/4) exp(-(x - c)^2 w^2 / (2 s)), s = w^4 + 4 t^2, of a free Schrodinger Gaussian."""
    (c,), (w,) = datum.center, datum.width
    s = w**4 + 4.0 * t**2
    return w * s**-0.25 * math.exp(-((x - c) ** 2) * w**2 / (2.0 * s))


def _centered_gaussian(cfg: ExperimentConfig) -> tuple:
    return (("", Gaussian(0.0, cfg.get("datum", "width"))),)


def _shell_gaussian(cfg: ExperimentConfig) -> tuple:
    return (("", Gaussian(cfg.get("datum", "center"), cfg.get("datum", "width"))),)


def _ks_gaussians(cfg: ExperimentConfig) -> tuple:
    # the 2-d datum Gaussian((0, 0), (w, w)) is the square of its 1-d factor at every node of the square grid
    return tuple((f"_{d}d", Gaussian(0.0, cfg.get("datum", f"width_{d}d"))) for d in (1, 2))


def _cubes(cfg: ExperimentConfig) -> tuple:
    return tuple(("", CubeIndicator(c, cfg.get("datum", "side"))) for c in cfg.get("datum", "centers"))


def _monomial_gaussians(cfg: ExperimentConfig) -> tuple:
    return tuple((f"_k{k}", Gaussian(0.0, cfg.get("datum", f"width_k{k}"))) for k in (1, 2))


# ---------------------------------------------------------------------------
# runners


def _sup_decay(cfg: ExperimentConfig, smaps: tuple, target: float, one_sided: bool = False, notes: tuple = ()):
    """The ``sup-decay`` fit of the velocity-average sup of the (width, width) Gaussian pair on each axis
    map, every fit time in one ``tr.sup_velocity_average`` call; one sided, it passes on slope <= target + tol."""
    width, tol = cfg.get("datum", "width"), cfg.get("tolerances", "slope")
    times = _fit_times(cfg)
    values = tr.sup_velocity_average([(Gaussian((0.0, 0.0), (width, width)), smap) for smap in smaps], times)
    slope = _Slope("sup-decay", fit_decay(times, values), target, tol, upper=target + tol if one_sided else None)
    return Report(("t", "sup_velocity_average"), tuple(zip(times, values)), fits=(slope,), notes=notes)


def _run_vlasov_decay(cfg: ExperimentConfig, threads: int):
    d = cfg.get("datum", "dimension")
    return _sup_decay(cfg, tr.identity_map(d), -float(d))


def _run_transport_degenerate(cfg: ExperimentConfig, threads: int):
    tag = cfg.get("datum", "map")
    one_sided = tag == "mixed"
    notes = (f"map={tag}", "one-sided bound" if one_sided else "two-sided fit")
    return _sup_decay(cfg, tr.mixed_map() if one_sided else tr.relativistic_map(), -1.0, one_sided, notes)


def _run_counterexample(cfg: ExperimentConfig, threads: int):
    profiles = [tr.counterexample_profile(lam) for lam in cfg.get("datum", "lams")]
    growth = [p.nu_bar_at_origin * (1.0 + p.lam**2) ** 0.05 for p in profiles]  # nu * <lam>^0.1 must increase
    rows = tuple(
        (p.lam, p.nu_bar_at_origin, p.lower_bound, p.w11_norm_bound, p.l1_norm, g) for p, g in zip(profiles, growth)
    )
    nu = np.array([p.nu_bar_at_origin for p in profiles])
    w11 = np.array([p.w11_norm_bound for p in profiles])
    checks = (
        _Check("floor", float(nu.min()), ">=", cfg.get("tolerances", "floor")),
        _Check("lower-bound-margin", float(np.min(nu - [p.lower_bound for p in profiles])), ">=", -1e-6),
        _Check("w11-spread", float(w11.max() / w11.min() - 1.0), "<", 0.10),
        _Check("growth-step", float(np.diff(growth).min()), ">", 0.0),
    )
    cols = ("lam", "nu_bar_at_origin", "lower_bound", "w11_norm_bound", "l1_norm", "growth")
    return Report(cols, rows, checks=checks)


_CONSERVATION_CASES = {  # name -> (pair datum, axis maps) for a width and a bump scale: the pair on every axis
    "identity-d1-gaussian": lambda w, lam: (Gaussian((0.0, 0.0), (w, w)), tr.identity_map(1)),
    "relativistic-d1-gaussian": lambda w, lam: (Gaussian((0.0, 0.0), (w, w)), tr.relativistic_map()),
    "square-d1-bump": lambda w, lam: (BumpLambda(lam), tr.square_map()),
    "identity-d2-product": lambda w, lam: (Gaussian((0.0, 0.0), (w, w)), tr.identity_map(2)),
    "mixed-d2-product": lambda w, lam: (Gaussian((0.0, 0.0), (w, w)), tr.mixed_map()),
}


_FUNCTIONALS = ("mass", "l2", "kinetic")  # the order of ``tr.conserved_functional``


def _run_conservation(cfg: ExperimentConfig, threads: int):
    times = cfg.get("times", "checkpoints")
    width = cfg.get("datum", "width")
    lam = cfg.get("datum", "lam")

    def one(name):
        # one row per time, one column per functional
        pair, smaps = _CONSERVATION_CASES[name](width, lam)
        return [tr.conserved_functional([(pair, smap) for smap in smaps], t) for t in times]

    tables = _ordered_map(one, _CONSERVATION_CASES, threads)
    rows, drifts = [], []
    for name, table in zip(_CONSERVATION_CASES, tables):
        for fname, vals in zip(_FUNCTIONALS, zip(*table)):
            drifts.append((max(vals) - min(vals)) / abs(vals[0]))
            rows.extend((name, fname, t, v, drifts[-1]) for t, v in zip(times, vals))
    cols = ("case", "functional", "t", "value", "relative_drift")
    check = _Check("max-drift", float(np.max(drifts)), "<=", cfg.get("tolerances", "drift"))
    return Report(cols, tuple(rows), checks=(check,))


def _run_schrodinger_decay(cfg: ExperimentConfig, threads: int):
    ((datum, u0),) = _fields(cfg)
    x = u0.grid.axis(0)
    x0 = int(np.argmin(np.abs(x)))
    checkpoints, times = cfg.get("times", "checkpoints"), _fit_times(cfg)
    base = {s: hs_norm(u0, s) for s in (0.25, 0.5, 1.0)}
    mass0 = l2_norm(u0)

    def conserved(t, ut):
        return abs(ut.values[x0]), l2_norm(ut), *(hs_norm(ut, s) for s in base)

    # |u(t, 0)| and the conserved norms at checkpoints for the oracle rows and the drift, the sup for the fit
    checked, fitted = Series.evolve(u0, schrodinger(), (checkpoints, conserved), (times, lambda t, ut: linf_norm(ut)))
    rows, drifts = [], []
    for t, (value, mass, *sobolev) in checked.clean:
        oracle = _gaussian_amplitude(datum, t, x[x0])
        rows.append((t, value, oracle, abs(value / oracle - 1.0)))
        drifts.append(abs(mass / mass0 - 1.0))
        drifts.extend(abs(norm / ref - 1.0) for norm, ref in zip(sobolev, base.values()))
    if not rows:
        raise ContaminationError("schrodinger-decay: every checkpoint was excluded")
    checks = (
        _Check("max-oracle-error", float(np.max([row[-1] for row in rows])), "<=", cfg.get("tolerances", "oracle")),
        _Check("max-unitarity-sobolev-drift", float(np.max(drifts)), "<=", cfg.get("tolerances", "conservation")),
    )
    notes = tuple(f"checkpoint t={t:g} excluded: {why}" for t, why in checked.excluded)
    fit = fit_decay([t for t, _ in fitted.clean], [s for _, s in fitted.clean], excluded=fitted.excluded)
    cols = ("t", "amplitude_at_origin", "oracle", "relative_error")
    fits = (_Slope("sup-decay", fit, -0.5, cfg.get("tolerances", "slope")),)
    return Report(cols, tuple(rows), fits=fits, checks=checks, notes=notes)


def _ks_dimension(u0, check_times, drift_times, drift_alphas, label, power=1):
    """Weighted sup report, boost-norm drifts and notes of one datum.

    One evolution feeds both: the check reads its boost-norm table to order d
    at the check times, the drift its own to the drift's order at the drift
    times. The drift is read at clean drift times only, and fewer than two of
    them raise. With ``power`` = k > 1 the datum is the k-fold tensor power of
    the 1-d ``u0``, read from the factor.
    """
    d = u0.grid.dim * power
    drift_order = max(d, *(sum(alpha) for alpha in drift_alphas))
    check_read, check_report = check_ks_schrodinger(d, power)
    checked, drifted = Series.evolve(
        u0,
        schrodinger(),
        (check_times, check_read),
        (drift_times, lambda t, ut: boost_norms(ut, t, drift_order, power)),
        power=power,
    )
    report = check_report(checked)
    notes = tuple(f"{label} drift time t={t:g} excluded: {why}" for t, why in drifted.excluded)
    if len(drifted.clean) < 2:
        raise ContaminationError(
            f"schrodinger-ks: {len(drifted.clean)} clean boost-norm drift times in {label}; the drift needs 2"
        )
    drifts = []
    for alpha in drift_alphas:
        values = np.array([norms[alpha] for _, norms in drifted.clean])
        drifts.append(float((values.max() - values.min()) / values[0]))
    return report, drifts, notes


def _run_schrodinger_ks(cfg: ExperimentConfig, threads: int):
    (_, u1), (_, factor) = _fields(cfg)
    rep1, drift1, notes1 = _ks_dimension(u1, _times(cfg), (1.0, 10.0, 100.0), ((0,), (1,), (2,)), "d1")
    rep2, drift2, notes2 = _ks_dimension(
        factor, cfg.get("times", "checkpoints_2d"), (1.0, 4.0, 16.0), ((1, 0), (1, 1), (0, 2)), "d2", power=2
    )
    check = _Check("max-boost-norm-drift", float(np.max(drift1 + drift2)), "<=", cfg.get("tolerances", "norm_drift"))
    rows = _ratio_rows(rep1, "d1") + _ratio_rows(rep2, "d2")
    cols = ("suite", "t", "lhs", "rhs", "ratio")
    return Report(cols, rows, inequalities=(rep1, rep2), checks=(check,), notes=notes1 + notes2)


def _shell_setup(cfg: ExperimentConfig):
    ((datum, u0),) = _fields(cfg)
    return datum, build_dyadic_partition(u0.grid, cfg.get("grid", "k_min"), cfg.get("grid", "k_max")), u0


def _run_schrodinger_xnorm(cfg: ExperimentConfig, threads: int):
    datum, part, u0 = _shell_setup(cfg)
    times, t_star = _times(cfg), cfg.get("times", "cross_check_t")
    read, report = check_dispersive_schrodinger(u0, part)
    # read(t, u) is sup |u(t)|: the check's, and the closed-form amplitude cross-check's at one more time
    checked, cross = Series.evolve(u0, schrodinger(), (times, read), ([t_star], read))
    rep = report(checked)
    if cross.excluded:
        raise ContaminationError(f"times.cross_check_t = {t_star:g}: {cross.excluded[0][1]}")
    ((_, sup),) = cross.clean
    # |u(t, x)| peaks at the centre c: the node max, and so the oracle, is read at the node nearest c
    x = u0.grid.axis(0)
    oracle = _gaussian_amplitude(datum, t_star, x[int(np.argmin(np.abs(x - datum.center[0])))])
    check = _Check(f"amplitude-error-t={t_star:g}", abs(sup / oracle - 1.0), "<=", cfg.get("tolerances", "oracle"))
    return Report(("t", "lhs", "rhs", "ratio"), _ratio_rows(rep), inequalities=(rep,), checks=(check,))


def _run_lp_decay(cfg: ExperimentConfig, threads: int):
    _, part, u0 = _shell_setup(cfg)
    (read_half, report_half), (read_zero, report_zero) = check_lp_decay(u0, 0.5, part), check_lp_decay(u0, 0.0)
    times = _fit_times(cfg)
    half, zero = Series.evolve(u0, schrodinger(), (times, read_half), (times, read_zero))
    rep_half, rep_zero = report_half(half), report_zero(zero)
    l4 = [l / t**0.25 for (t, l, _) in rep_half.samples]
    fit = fit_decay([s[0] for s in rep_half.samples], l4, excluded=rep_half.excluded)
    rows = _ratio_rows(rep_half, "theta=1/2") + _ratio_rows(rep_zero, "theta=0")
    cols = ("series", "t", "lhs", "rhs", "ratio")
    fits = (_Slope("L4-decay", fit, -0.25, cfg.get("tolerances", "slope")),)
    return Report(cols, rows, fits=fits, inequalities=(rep_half, rep_zero))


def _run_local_mass(cfg: ExperimentConfig, threads: int):
    _, part, u0 = _shell_setup(cfg)
    checks = [check_local_mass(u0, sigma, part) for sigma in cfg.get("datum", "sigmas")]
    times = _times(cfg)
    series = Series.evolve(u0, schrodinger(), *((times, read) for read, _ in checks))
    reports = tuple(report(one) for (_, report), one in zip(checks, series))
    rows = sum((_ratio_rows(rep, rep.name) for rep in reports), ())
    return Report(("series", "t", "lhs", "rhs", "ratio"), rows, inequalities=reports)


def _run_cube_translation(cfg: ExperimentConfig, threads: int):
    cubes = _fields(cfg)
    part = build_dyadic_partition(cubes[0][1].grid, cfg.get("grid", "k_min"), cfg.get("grid", "k_max"))
    rows = []
    for cube, u0 in cubes:
        opt = translated_xnorm_inf(cube, 0.5, 1, part)
        rows.append((*cube.center, opt, x_norm(u0, 0.5, 1, part), cube.mass(), opt / cube.mass()))
    ratios = [row[-1] for row in rows]
    c_far, opt, plain = max(rows, key=lambda row: abs(row[0]))[:3]  # the center farthest from the origin
    spread = max(ratios) / min(ratios)
    checks = (
        _Check("shared-constant-spread", spread, "<=", cfg.get("tolerances", "shared_constant_spread")),
        _Check(f"untranslated-gain-c={c_far:g}", plain / opt, ">=", cfg.get("tolerances", "untranslated_gain")),
    )
    cols = ("center", "translated_xnorm", "untranslated_xnorm", "l1", "ratio_to_l1")
    return Report(cols, tuple(rows), checks=checks, notes=(f"shared constant C = {max(ratios):.6f}",))


def _run_airy_pointwise(cfg: ExperimentConfig, threads: int):
    ((_, u0),) = _fields(cfg)
    wanted = np.linspace(-cfg.get("datum", "probe_half_width"), cfg.get("datum", "probe_half_width"), 41)
    # The estimate holds at every x, so grid nodes are as valid a sample as any;
    # the check reads u(t) at nodes, the ones nearest the evenly spaced points.
    x = u0.grid.axis(0)
    probes = x[[int(np.argmin(np.abs(x - p))) for p in wanted]]
    (pointwise, report), half_line = check_airy_pointwise(u0, probes), x >= 0.0
    checkpoints = cfg.get("times", "checkpoints")
    # a fit time within 1e-12 of a checkpoint (2 * 2^(k/4) rounds off 4, 8 and 16) reads that checkpoint's field
    fit_times = [next((c for c in checkpoints if math.isclose(t, c, rel_tol=1e-12)), t) for t in _fit_times(cfg)]

    def du_max(t, ut):
        return float(np.max(np.abs(spectral_derivative(ut, 1).values[half_line])))

    # the check at checkpoints, and the decay of d_x u(t) on the half line x >= 0 at fit times
    checked, fitted = Series.evolve(u0, airy(), (checkpoints, pointwise), (fit_times, du_max))
    rep = report(checked)
    du_fit = fit_decay([t for t, _ in fitted.clean], [du for _, du in fitted.clean], excluded=fitted.excluded)
    fits = (_Slope("dx-half-line-decay", du_fit, -0.5, cfg.get("tolerances", "slope")),)
    return Report(("t", "lhs", "rhs", "ratio"), _ratio_rows(rep), fits=fits, inequalities=(rep,))


def _run_airy_local_energy(cfg: ExperimentConfig, threads: int):
    ((_, u0),) = _fields(cfg)
    read, report = check_airy_local_energy(u0, cfg.get("datum", "eps"))
    (series,) = Series.evolve(u0, airy(), (_times(cfg), read))
    rep = report(series)
    fit_times = set(_fit_times(cfg))
    fitted = [(t, lhs / t) for t, lhs, _ in rep.samples if t in fit_times]
    excluded = tuple(e for e in rep.excluded if e[0] in fit_times)
    fit = fit_decay([t for t, _ in fitted], [e for _, e in fitted], excluded=excluded)
    # reported against the rate -1 +- 0.1, gated one-sided on tolerances.energy_slope
    fits = (_Slope("weighted-energy-decay", fit, -1.0, 0.1, upper=cfg.get("tolerances", "energy_slope")),)
    return Report(("t", "lhs", "rhs", "ratio"), _ratio_rows(rep), fits=fits, inequalities=(rep,))


def _run_airy_decay(cfg: ExperimentConfig, threads: int):
    ((_, u0),) = _fields(cfg)
    (series,) = Series.evolve(u0, airy(), (_fit_times(cfg), lambda t, ut: linf_norm(ut)))
    rows = series.clean
    sup_fit = fit_decay([t for t, _ in rows], [v for _, v in rows], excluded=series.excluded)
    fits = (_Slope("sup-decay", sup_fit, -1.0 / 3.0, cfg.get("tolerances", "slope")),)
    return Report(("t", "sup_amplitude"), rows, fits=fits)


def _run_monomial_2k(cfg: ExperimentConfig, threads: int):
    reports = []
    for k, (_, u0) in enumerate(_fields(cfg), start=1):
        read, report = check_monomial_estimate(u0, k)
        (series,) = Series.evolve(u0, even_order(k), (_times(cfg), read))
        reports.append(report(series))
    rows = sum((_ratio_rows(rep, f"k={k}") for k, rep in enumerate(reports, start=1)), ())
    return Report(("series", "t", "lhs", "rhs", "ratio"), rows, inequalities=tuple(reports))


# Packets scored by one ``commutation_residual`` call. It holds six (rows x points) complex
# arrays, 384 KiB per 4096-point datum, so peak memory stays bounded at any ``datum.n_data``. At 8,
# a degree's first call holds 10 rows with the perturbed two: 3.9 MB of arrays (8.6 MB for 22 rows
# at 32), each small enough to come from the heap, not a fresh mmap. A warm commutation-suite run
# took 6,840 minor faults at 32 packets a call, 5,541 at 16, 204 at 8, and 68 at 4 in twice the calls.
_PACKETS_PER_CALL = 8


def _run_commutation_suite(cfg: ExperimentConfig, threads: int):
    seed = cfg.get("experiment", "seed")
    (_, _, grid), *_ = _boxes(cfg)  # the packets are drawn on the box of their stand-ins
    n_data = cfg.get("datum", "n_data")
    times = cfg.get("times", "checkpoints")
    tol = cfg.get("tolerances", "residual")
    detect = cfg.get("tolerances", "perturbed_floor")
    rows, checks = [], []
    for m, disp in ((2, schrodinger()), (3, airy()), (4, even_order(2))):
        op = derive_commuting_operator(disp)
        # each coefficient 10% off: the first datum alone shows that the boost no longer commutes
        perturbed = [CommutingOperator(m, op.a * 1.1, op.b), CommutingOperator(m, op.a, op.b * 1.1)]
        rng = np.random.default_rng(seed + m)
        tables = []
        for start in range(0, n_data, _PACKETS_PER_CALL):
            data = [random_wave_packets(grid, rng) for _ in range(min(_PACKETS_PER_CALL, n_data - start))]
            ops = [op] * len(data)
            if start == 0:  # the first batch scores its first datum again under the perturbed boosts
                data, ops = data + data[:1] * 2, ops + perturbed
            tables.append(commutation_residual(ops, disp, data, times))
        best_a, best_b = tables[0][-2:].max(axis=1).tolist()
        tables[0] = tables[0][:-2]
        residuals = np.concatenate(tables)
        rows.extend((m, i, t, r) for i, row in enumerate(residuals.tolist()) for t, r in zip(times, row))
        checks += [
            _Check(f"m={m}-worst-residual", float(residuals.max()), "<=", tol),
            _Check(f"m={m}-perturbed-a-max-residual", best_a, ">=", detect),
            _Check(f"m={m}-perturbed-b-max-residual", best_b, ">=", detect),
        ]
    # pairwise boost commutation in two dimensions
    grid2 = GridSpec.centered(60.0, 256, dim=2)
    rng = np.random.default_rng(seed)
    u2 = random_wave_packets(grid2, rng)
    comm = commutator_norm(schrodinger_boost(0), schrodinger_boost(1), u2, 1.7) / l2_norm(u2)
    checks.append(_Check("2d-boost-commutator-relative-norm", comm, "<=", 1e-12))
    cols = ("degree", "sample", "t", "residual")
    return Report(cols, tuple(rows), checks=tuple(checks))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    anchor: str
    description: str
    sections: dict  # the entry's own sections; ``defaults`` adds experiment and output
    runner: Callable
    sampled: Callable = lambda cfg: ()  # (grid key suffix, datum) pairs; see _boxes
    # (section, key, test of (value, sections), requirement): the value rules beyond the
    # generic ones of ``_check_ranges``
    ranges: tuple = ()
    # the (prefix, after) of the ``times`` keys ``_fit_times`` reads, or None for an entry
    # that fits no decay rate
    fit: Optional[tuple] = None

    @property
    def defaults(self) -> dict:
        return {"experiment": {"id": self.id, "seed": 20260811}, "output": {"dir": ""}, **self.sections}


def _by_id(*entries: CatalogEntry) -> dict:
    out = {e.id: e for e in entries}
    if len(out) != len(entries):
        raise RuntimeError("catalog ids must be unique")
    return out


_ENTRIES = _by_id(
    CatalogEntry(
        "vlasov-decay",
        "free transport: sup of the velocity average decays like <t>^-d",
        "fit the decay exponent of sup_q of the velocity average for the identity map",
        {
            "datum": {"dimension": 1, "width": GAUSS_W},
            "times": {"t_min": 10.0, "t_max": 10000.0, "ratio": ROOT2},
            "tolerances": {"slope": 0.02},
        },
        _run_vlasov_decay,
        ranges=(("datum", "dimension", lambda v, s: v >= 1, "must be at least 1"),),
        fit=("", None),
    ),
    CatalogEntry(
        "transport-degenerate",
        "transport decay persists for dispersion maps of partial rank",
        "decay exponents for the relativistic and mixed (p1, p2^2) maps",
        {
            "datum": {"map": "mixed", "width": GAUSS_W},
            "times": {"t_min": 10.0, "t_max": 1000.0, "ratio": ROOT2},
            "tolerances": {"slope": 0.05},
        },
        _run_transport_degenerate,
        ranges=(("datum", "map", lambda v, s: v in ("relativistic", "mixed"), "must be 'relativistic' or 'mixed'"),),
        fit=("", None),
    ),
    CatalogEntry(
        "counterexample",
        "square-map concentration: no uniform <t>^-eps decay with bounded W^{1,1} data",
        "velocity average at the origin stays above its closed-form floor along t = lam",
        {
            "datum": {"lams": (4.0, 16.0, 64.0)},
            "tolerances": {"floor": 0.78},
        },
        _run_counterexample,
        ranges=(  # the spread and growth checks compare consecutive lams
            ("datum", "lams", lambda v, s: min(v) >= 1.0, "must all be >= 1"),
            ("datum", "lams", lambda v, s: len(v) > 1 and list(v) == sorted(set(v)), "must increase over 2 or more values"),
        ),
    ),
    CatalogEntry(
        "conservation",
        "the mass, L2 and kinetic functionals of transport solutions are constant in time",
        "mass, squared-density and kinetic functionals across the built-in data",
        {
            "datum": {"width": GAUSS_W, "lam": 4.0},
            "times": {"checkpoints": (0.0, 1.0, 2.0, 5.0, 10.0)},
            "tolerances": {"drift": 1e-8},
        },
        _run_conservation,
        ranges=(
            ("datum", "lam", lambda v, s: v >= 1.0, "must be >= 1"),
            # a drift over one time is 0 whatever the quadrature does
            ("times", "checkpoints", lambda v, s: len(set(v)) >= 2, "must hold at least 2 distinct times"),
        ),
    ),
    CatalogEntry(
        "schrodinger-decay",
        "Schrodinger amplitude decay: |u(t,0)| = w (w^4+4t^2)^(-1/4) for Gaussian data of width w",
        "closed-form amplitude oracle, unitarity, Sobolev conservation, sup-norm slope",
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
        _run_schrodinger_decay,
        _centered_gaussian,
        fit=("", None),
    ),
    CatalogEntry(
        "schrodinger-ks",
        "weighted sup bound: |t|^d ||u||_inf^2 controlled by boost-norm products",
        "the Sobolev constant 2^-d in d = 1, 2 plus conservation of boost norms",
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
        _run_schrodinger_ks,
        _ks_gaussians,
    ),
    CatalogEntry(
        "schrodinger-xnorm",
        "dispersive bound |t|^{d/2} sup|u| <= C ||u0||_{X^{d/2,1}}",
        "empirical constant for shell-supported data, with a closed-form cross-check",
        {
            "grid": {"half_width": 6200.0, "points": 131072, "k_min": 0, "k_max": 2},
            "datum": {"center": 2.2, "width": 0.25},
            "times": {"t_min": 1.0, "t_max": 100.0, "ratio": ROOT2, "cross_check_t": 25.0},
            "tolerances": {"oracle": 1e-6},
        },
        _run_schrodinger_xnorm,
        _shell_gaussian,
    ),
    CatalogEntry(
        "lp-decay",
        "interpolated decay |t|^{theta d/2} ||u||_{L^{2/(1-theta)}} <= C ||u0||_{X,2}",
        "theta = 1/2 gives the L4 rate -1/4; theta = 0 degenerates to mass conservation",
        {
            "grid": {"half_width": 3100.0, "points": 65536, "k_min": 0, "k_max": 2},
            "datum": {"center": 2.2, "width": 0.25},
            "times": {"t_min": 5.0, "t_max": 50.0, "ratio": ROOT2},
            "tolerances": {"slope": 0.05},
        },
        _run_lp_decay,
        _shell_gaussian,
        fit=("", None),
    ),
    CatalogEntry(
        "local-mass",
        "local mass decay |t|^sigma ||u(t)||_{X^{-sigma,2}} <= C ||u0||_{X^{sigma,2}}",
        "sigma = 0 sits inside the overlap sandwich; sigma = 1/4 has a stable constant",
        {
            "grid": {"half_width": 2300.0, "points": 16384, "k_min": 1, "k_max": 10},
            "datum": {"center": 8.0, "width": 0.8, "sigmas": (0.0, 0.25)},
            "times": {"t_min": 1.0, "t_max": 100.0, "ratio": ROOT2},
            "tolerances": {},
        },
        _run_local_mass,
        _shell_gaussian,
        # the grid is one-dimensional, so 0 <= sigma < d/2 = 1/2
        ranges=(("datum", "sigmas", lambda v, s: all(0.0 <= x < 0.5 for x in v), "must lie in [0, 1/2)"),),
    ),
    CatalogEntry(
        "cube-translation",
        "translation-optimized dyadic norm of cube data is controlled by the L1 norm",
        "centering a cube minimizes its X norm; off-center cubes pay a factor >= 2",
        {
            "grid": {"half_width": 64.0, "points": 8192, "k_min": -4, "k_max": 5},
            "datum": {"centers": (0.0, 3.0, 10.0), "side": 1.0},
            "tolerances": {"shared_constant_spread": 1.25, "untranslated_gain": 2.0},
        },
        _run_cube_translation,
        _cubes,
        ranges=(
            # one center makes the shared-constant spread 1 whatever the norms are
            ("datum", "centers", lambda v, s: len(set(v)) > 1, "must hold 2 or more distinct values"),
            # every dyadic bump is 0 on |x| <= 2^(k_min - 1), where the shift search can hide a smaller cube:
            # a norm of 0 (side 0.0625 at k_min = -4 divides by zero) or a window-truncated one (side 0.1
            # reads a spread of 1.414, a false FAIL); a side <= 0 is left to the cube's own error
            (
                "datum",
                "side",
                lambda v, s: v <= 0.0 or v >= 2.0 ** (s["grid"]["k_min"] + 1),
                "must be at least 2^(grid.k_min + 1)",
            ),
        ),
    ),
    CatalogEntry(
        "airy-pointwise",
        "Airy weighted bound 3t(du)^2 + x u^2 <= 2||du0|| ||x u0|| + ||u0||^2",
        "pointwise bound at probe points plus the half-line derivative decay rate",
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
        _run_airy_pointwise,
        _centered_gaussian,
        # a probe outside the box would be snapped to an edge node
        ranges=(
            (
                "datum",
                "probe_half_width",
                lambda v, s: 0.0 <= v <= s["grid"]["half_width"],
                "must lie in [0, grid.half_width]",
            ),
            # the estimate holds for t >= 0 only, and the check skips earlier times
            ("times", "checkpoints", lambda v, s: max(v) >= 0.0, "must hold a time >= 0"),
        ),
        fit=("fit_", None),
    ),
    CatalogEntry(
        "airy-local-energy",
        "Airy local energy decay: |t| ||<x>^(-1/2-eps) dx u||^2 bounded by data",
        "weighted derivative energy stays below its initial-data constant",
        {
            "grid": {"half_width": 4800.0, "points": 32768},
            "datum": {"width": GAUSS_W, "eps": 0.5},
            "times": {"t_min": 1.0, "t_max": 50.0, "ratio": ROOT2, "fit_t_min": 2.0},
            "tolerances": {"energy_slope": -0.9},
        },
        _run_airy_local_energy,
        _centered_gaussian,
        ranges=(("datum", "eps", lambda v, s: v > 0.0, "must be positive"),),
        fit=("", "fit_t_min"),
    ),
    CatalogEntry(
        "airy-decay",
        "Airy sup-norm decay |t|^{1/3} sup|u| bounded (slope -1/3)",
        "sup-amplitude decay fit on wrap-around-clean samples",
        {
            "grid": {"half_width": 1500.0, "points": 32768},
            "datum": {"width": GAUSS_W},
            "times": {"t_min": 2.0, "t_max": 20.0, "ratio": 2.0**0.25},
            "tolerances": {"slope": 0.1},
        },
        _run_airy_decay,
        _centered_gaussian,
        fit=("", None),
    ),
    CatalogEntry(
        "monomial-2k",
        "even-order evolutions: t |d^{2k-2} u|^2 controlled by conserved products",
        "k = 1 mirrors the Schrodinger structure; k = 2 is the genuinely higher-order case",
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
        _run_monomial_2k,
        _monomial_gaussians,
    ),
    CatalogEntry(
        "commutation-suite",
        "derived boosts commute with their evolutions; perturbed ones do not",
        "residual suite over random band-limited packets for degrees 2, 3, 4",
        {
            "grid": {"half_width": 1200.0, "points": 4096},
            "datum": {"n_data": 20},
            "times": {"checkpoints": (0.1, 1.0, 10.0)},
            "tolerances": {"residual": 1e-9, "perturbed_floor": 1e-3},
        },
        _run_commutation_suite,
        # the extreme packets ``random_wave_packets`` draws (centres in [-5, 5], widths in
        # [3, 4]): the widest two bound the support, the narrowest sets the feature scale
        lambda cfg: (("", Gaussian(-5.0, 4.0)), ("", Gaussian(5.0, 4.0)), ("", Gaussian(0.0, 3.0))),
        ranges=(
            ("experiment", "seed", lambda v, s: v >= 0, "must be at least 0"),
            ("datum", "n_data", lambda v, s: v >= 1, "must be at least 1"),
        ),
    ),
)


def catalog() -> dict:
    """The catalog: experiment id -> ``CatalogEntry``."""
    return _ENTRIES


def list_catalog() -> list:
    """Static table of (id, anchor, description) rows."""
    return [
        {"id": e.id, "anchor": e.anchor, "description": e.description}
        for e in catalog().values()
    ]


def run(config: ExperimentConfig, out_dir: Optional[str] = None, threads: int = 1) -> Report:
    """Dispatch to the configured experiment, write report files, return the report.

    The runner's report gains the experiment, its config, the anchor note and
    the wall time; it passes when every fit, inequality and check passes.
    """
    entry = catalog()[config.experiment]
    start = time.perf_counter()
    out = entry.runner(config, threads)
    report = replace(
        out,
        experiment=config.experiment,
        config=config.as_dict(),
        notes=out.notes + (f"anchor: {entry.anchor}",),
        wall_clock_s=time.perf_counter() - start,
    )
    target = out_dir or config.get("output", "dir") or os.environ.get(OUTPUT_DIR_ENV)
    if target:
        report.write(target)
    return report
