"""Decay-rate fitting and the inequality verification suites.

Every check samples both sides of one estimate at geometric times, records
(t, lhs, rhs) rows, and reports the largest ratio. Estimates that hold with
constant exactly 1 (the transport sup bound, the Airy pointwise bound and
its local-energy corollary, mass conservation) declare that bound; the
others only assert stability of the empirical constant, with the bound set
to twice the smallest sampled ratio. Wrap-around contaminated samples are
excluded from fits and recorded with a reason.

A check never passes on no evidence: when every sample of a check was
excluded, or a decay fit is left with fewer than five samples after
exclusions, it raises ``ContaminationError`` instead of reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as _iter_product
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import SampledField, l2_norm, linf_norm, spectral_derivative
from .norms import DyadicPartition, NormValue, hs_norm, lp_norm, weighted_l2, x_norm
from .operators import apply_operator, derive_commuting_operator, schrodinger_boost
from .propagators import Evolution, airy, edge_mass_fraction, even_order, schrodinger

__all__ = [
    "ContaminationError",
    "DecayFit",
    "InequalityReport",
    "fit_decay",
    "check_dispersive_schrodinger",
    "check_ks_schrodinger",
    "check_lp_decay",
    "check_local_mass",
    "check_airy_pointwise",
    "check_airy_local_energy",
    "check_monomial_estimate",
    "airy_decay_experiment",
    "CONTAMINATION_THRESHOLD",
    "INEQUALITY_SLACK",
    "STABILITY_FACTOR",
]

CONTAMINATION_THRESHOLD = 1e-6  # edge-mass fraction beyond which a sample is dropped
INEQUALITY_SLACK = 1e-6  # absolute slack on constant-free inequalities
STABILITY_FACTOR = 2.0  # admissible wobble of empirical constants
_PROBE_CHUNK = 32  # probes per phase block: 32 x 16k modes is 8.5 MB of phases


class ContaminationError(ValueError):
    """Wrap-around contamination left a check or a fit too few clean samples."""


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit in log-log coordinates."""

    slope: float
    intercept: float
    max_abs_residual: float
    window: tuple
    n_samples: int
    excluded: tuple = ()


@dataclass(frozen=True)
class InequalityReport:
    """Sampled lhs/rhs pairs for one estimate, with the worst ratio."""

    name: str
    samples: tuple  # ((t, lhs, rhs), ...)
    max_ratio: float
    bound: float
    tolerance: float
    passed: bool
    detail: tuple = ()
    excluded: tuple = ()


def fit_decay(times, values, window=None, excluded: tuple = ()) -> DecayFit:
    """Fit log(value) = intercept + slope * log(t) over the time window.

    ``excluded`` lists the (t, reason) samples already dropped; if any were
    and fewer than 5 samples remain, the error is a ``ContaminationError``.
    """
    times = np.asarray(list(times), dtype=float)
    values = np.asarray(list(values), dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching length")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, values = times[keep], values[keep]
    if times.size < 5:
        msg = f"need at least 5 samples in the fit window, got {times.size}"
        if excluded:
            raise ContaminationError(f"insufficient uncontaminated window: {msg}, {len(excluded)} excluded")
        raise ValueError(msg)
    if np.any(values <= 0.0):
        raise ValueError("all values in the fit window must be positive")
    lt, lv = np.log(times), np.log(values)
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = np.max(np.abs(lv - (slope * lt + intercept)))
    return DecayFit(
        slope=float(slope),
        intercept=float(intercept),
        max_abs_residual=float(resid),
        window=(float(times[0]), float(times[-1])),
        n_samples=int(times.size),
        excluded=tuple(excluded),
    )


def _report(name, samples, bound=None, tolerance=INEQUALITY_SLACK, detail=(), excluded=()):
    if excluded and not samples:
        t, reason = excluded[0]
        raise ContaminationError(
            f"{name}: all {len(excluded)} samples excluded, the first at t = {t:g} ({reason})"
        )
    ratios = [lhs / rhs for (_, lhs, rhs) in samples if rhs > 0.0]
    max_ratio = max(ratios) if ratios else 0.0
    if bound is None:  # stability-style bound: constant may wobble by x2
        bound = STABILITY_FACTOR * min(ratios) if ratios else 0.0
        detail = detail + (("bound_style", "stability"),)
    passed = max_ratio <= bound + tolerance
    return InequalityReport(
        name=name,
        samples=tuple(samples),
        max_ratio=float(max_ratio),
        bound=float(bound),
        tolerance=float(tolerance),
        passed=bool(passed),
        detail=tuple(detail),
        excluded=tuple(excluded),
    )


def _propagation_series(evolution: Evolution, times):
    """Evolve to each time, splitting clean samples from contaminated ones."""
    clean, excluded = [], []
    for t in times:
        ut = evolution.at(float(t))
        frac = edge_mass_fraction(ut)
        if frac > CONTAMINATION_THRESHOLD:
            excluded.append((float(t), f"wrap-around edge mass {frac:.2e}"))
        else:
            clean.append((float(t), ut))
    return clean, excluded


def check_dispersive_schrodinger(
    u0: SampledField, times: Sequence[float], partition: DyadicPartition
) -> InequalityReport:
    """|t|^(d/2) sup |u(t)| against the dyadic X^{d/2,1} norm of the datum."""
    d = u0.grid.dim
    rhs = x_norm(u0, d / 2.0, 1, partition).value
    clean, excluded = _propagation_series(Evolution(u0, schrodinger()), times)
    samples = [(t, abs(t) ** (d / 2.0) * linf_norm(ut), rhs) for t, ut in clean]
    return _report("schrodinger-dispersive-sup", samples, excluded=excluded)


def _multiindices(axes: int, total: int):
    return [alpha for alpha in _iter_product(range(total + 1), repeat=axes) if sum(alpha) <= total]


def check_ks_schrodinger(u0: SampledField, times: Sequence[float]) -> InequalityReport:
    """Weighted sup bound: |t|^d ||u||_inf^2 vs boost-norm products.

    rhs(t) sums ||W^a u(t)|| ||W^b u(t)|| over multi-index pairs with
    |a| + |b| = d, all norms evaluated honestly at time t.
    """
    d = u0.grid.dim
    boosts = [schrodinger_boost(axis) for axis in range(d)]
    clean, excluded = _propagation_series(Evolution(u0, schrodinger()), times)
    alphas = _multiindices(d, d)
    samples = []
    for t, ut in clean:
        norms = {}
        for alpha in alphas:
            v = ut
            for axis, power in enumerate(alpha):
                for _ in range(power):
                    v = apply_operator(boosts[axis], v, t)
            norms[alpha] = l2_norm(v)
        rhs = sum(
            norms[a] * norms[b]
            for a in alphas
            for b in alphas
            if sum(a) + sum(b) == d
        )
        lhs = abs(t) ** d * linf_norm(ut) ** 2
        samples.append((t, lhs, rhs))
    return _report("schrodinger-weighted-sup", samples, excluded=excluded)


def check_lp_decay(
    u0: SampledField, theta: float, times: Sequence[float], partition: Optional[DyadicPartition] = None
) -> InequalityReport:
    """|t|^(theta d/2) L^p decay, p = 2/(1-theta), against dyadic/Sobolev data norms.

    theta = 0 degenerates to mass conservation with ratio identically 1.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    d = u0.grid.dim
    p = 2.0 / (1.0 - theta)
    clean, excluded = _propagation_series(Evolution(u0, schrodinger()), times)
    if theta == 0.0:
        rhs = lp_norm(u0, 2).value
        samples = [(t, lp_norm(ut, 2).value, rhs) for t, ut in clean]
        return _report(
            "schrodinger-mass-conservation", samples, bound=1.0, tolerance=1e-12, excluded=excluded
        )
    s = theta * d / 2.0
    if partition is None:
        raise ValueError("theta > 0 needs a dyadic partition for the data norm")
    rhs_large_t = x_norm(u0, s, 2, partition).value
    rhs_all_t = weighted_l2(u0, s, "abs").value + hs_norm(u0, s).value
    samples, detail_rows = [], []
    for t, ut in clean:
        lpv = lp_norm(ut, p).value
        samples.append((t, abs(t) ** s * lpv, rhs_large_t))
        detail_rows.append(((1.0 + t * t) ** (s / 2.0) * lpv) / rhs_all_t)
    detail = (("truncated_ratio_max", max(detail_rows) if detail_rows else 0.0),)
    return _report(f"schrodinger-L{p:g}-decay", samples, detail=detail, excluded=excluded)


def check_local_mass(
    u0: SampledField, sigma: float, times: Sequence[float], partition: DyadicPartition
) -> InequalityReport:
    """|t|^sigma ||u(t)||_{X^{-sigma,2}} against ||u0||_{X^{sigma,2}}.

    The estimate is one-sided: it bounds the left side from above and no
    lower bound is promised. ``window_truncated`` in ``detail`` means that
    mass of some u(t) has left the dyadic shell; the clipped norm is then
    smaller, so truncation cannot produce a false violation.
    """
    d = u0.grid.dim
    if not 0.0 <= sigma < d / 2.0:
        raise ValueError("sigma must lie in [0, d/2)")
    rhs = x_norm(u0, sigma, 2, partition).value
    clean, excluded = _propagation_series(Evolution(u0, schrodinger()), times)
    samples = []
    truncated = False
    for t, ut in clean:
        nv = x_norm(ut, -sigma, 2, partition)
        truncated = truncated or nv.truncated
        samples.append((t, abs(t) ** sigma * nv.value, rhs))
    bound = math.sqrt(2.0) if sigma == 0.0 else None  # overlap sandwich at sigma = 0
    detail = (("window_truncated", truncated),)
    return _report(f"schrodinger-local-mass-{sigma:g}", samples, bound=bound, detail=detail, excluded=excluded)


def _airy_data_constant(u0: SampledField) -> float:
    du0 = spectral_derivative(u0, 1)
    x = u0.grid.axis(0)
    xu0 = SampledField(u0.grid, x * u0.values, u0.kind)
    return 2.0 * l2_norm(du0) * l2_norm(xu0) + l2_norm(u0) ** 2


def _interpolate_real(grid, spectra: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Trigonometric interpolants of real 1-d grid data, evaluated at probes.

    ``spectra`` holds ``rfft`` spectra as columns, shape (n//2 + 1, m); the
    result has shape (len(probes), m). The interpolant is the band-limited
    function that ``spectral_derivative`` differentiates, with the Nyquist
    mode taken as a cosine so that real data stay real; at a node it equals
    the grid value. The phase of mode j at x = x0 + (m + r) dx is
    2 pi (j m mod n)/n + j r 2 pi/n: the first part is read from a table of
    roots of unity and the second has |j r 2 pi/n| <= pi/2, so no phase loses
    digits to a large argument. Writing j = a*size + b makes each phase block
    the outer product of two small tables.
    """
    n, dx, x0 = grid.points[0], grid.spacing[0], grid.origin[0]
    modes = spectra.shape[0]
    scale = np.full(modes, 2.0 / n)  # modes 0 < j < n/2 stand for themselves and -j
    scale[0] = 1.0 / n
    if n % 2 == 0:
        scale[-1] = 1.0 / n
    size = math.isqrt(modes - 1) + 1
    low = np.arange(size)
    high = size * np.arange(-(-modes // size))
    padded = np.zeros((high.size * size, spectra.shape[1]), dtype=complex)
    padded[:modes] = scale[:, None] * spectra
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    out = np.empty((probes.size, spectra.shape[1]))
    for start in range(0, probes.size, _PROBE_CHUNK):
        p = probes[start : start + _PROBE_CHUNK]
        m = np.rint((p - x0) / dx).astype(np.int64)
        r = (p - (x0 + dx * m)) / dx  # exactly 0 at a node
        lo = roots[np.outer(m, low) % n] * np.exp(2j * np.pi / n * np.outer(r, low))
        hi = roots[np.outer(m, high) % n] * np.exp(2j * np.pi / n * np.outer(r, high))
        block = (hi[:, :, None] * lo[:, None, :]).reshape(p.size, -1)
        out[start : start + _PROBE_CHUNK] = (block @ padded).real
    return out


def check_airy_pointwise(
    u0: SampledField, times: Sequence[float], probes: Sequence[float]
) -> InequalityReport:
    """3t (d_x u)^2 + x u^2 <= 2 ||d_x u0|| ||x u0|| + ||u0||^2 at every probe.

    The right side is built from the initial data only (its factors are
    conserved); the estimate holds with constant exactly 1. u(t) and d_x u(t)
    are evaluated at the probes through the trigonometric interpolant of the
    grid values, which is exact at nodes; probes must lie inside the grid.
    """
    if u0.kind != "real":
        raise ValueError("the Airy pointwise bound is for real data")
    probes = np.asarray(probes, dtype=float)
    lo, hi = u0.grid.bounds()
    if np.any(probes < lo[0]) or np.any(probes > hi[0]):
        raise ValueError("probes must lie inside the grid")
    rhs = _airy_data_constant(u0)
    evolution = Evolution(u0, airy())
    clean, excluded = _propagation_series(evolution, [t for t in times if t >= 0.0])
    if not clean:
        return _report("airy-pointwise-weighted", [], bound=1.0, excluded=excluded)
    (k,) = evolution.wavenumbers
    spectra = []
    for t, _ in clean:
        s = evolution.spectrum(t)
        spectra += [s, 1j * k * s]
    values = _interpolate_real(u0.grid, np.stack(spectra, axis=1), probes)
    samples = []
    for i, (t, _) in enumerate(clean):
        u, du = values[:, 2 * i], values[:, 2 * i + 1]
        lhs_all = 3.0 * t * du**2 + probes * u**2
        samples.append((t, float(np.max(lhs_all)), rhs))
    return _report("airy-pointwise-weighted", samples, bound=1.0, excluded=excluded)


def check_airy_local_energy(
    u0: SampledField, eps: float, times: Sequence[float]
) -> InequalityReport:
    """|t| * || <x>^(-1/2-eps) d_x u(t) ||^2 against the initial-data constant.

    Integrating the pointwise bound against <x>^(-1-2eps) gives
    3 t E(t) <= I_eps * C0 + ||u0||^2 with I_eps the weight mass and
    C0 = 2 ||d_x u0|| ||x u0|| + ||u0||^2, so the declared bound is 1.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    rhs0 = _airy_data_constant(u0)
    x = u0.grid.axis(0)
    weight = (1.0 + x**2) ** (-0.5 - eps)
    i_eps = float(weight.sum() * u0.grid.cell_volume)
    rhs = (i_eps * rhs0 + l2_norm(u0) ** 2) / 3.0
    clean, excluded = _propagation_series(Evolution(u0, airy()), times)
    samples = []
    for t, ut in clean:
        du = spectral_derivative(ut, 1)
        energy = float(np.sum(weight * du.values**2) * u0.grid.cell_volume)
        samples.append((t, abs(t) * energy, rhs))
    return _report(f"airy-local-energy-eps{eps:g}", samples, bound=1.0, excluded=excluded)


def check_monomial_estimate(k: int, u0: SampledField, times: Sequence[float]) -> InequalityReport:
    """t |d^(2k-2) u(t, x)|^2 at the spatial max against conserved products.

    Uses the even-order evolution i d_t u + d^(2k) u = 0 with its derived
    boost; k = 1 reproduces the Schrodinger-type structure.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    disp = even_order(k)
    x = u0.grid.axis(0)
    xu0 = SampledField(u0.grid, x * u0.as_complex(), "complex")
    xnorm0 = l2_norm(xu0)
    clean, excluded = _propagation_series(Evolution(u0, disp), times)
    samples = []
    for t, ut in clean:
        dm = spectral_derivative(ut, 2 * k - 2)
        lhs = t * linf_norm(dm) ** 2
        rhs = l2_norm(dm) * xnorm0
        samples.append((t, lhs, rhs))
    return _report(f"even-order-2k-pointwise-k{k}", samples, excluded=excluded)


def airy_decay_experiment(
    u0: SampledField,
    times: Sequence[float],
    derivative: bool = False,
    half_line_from: Optional[float] = None,
) -> DecayFit:
    """Decay fit of the Airy sup norm, or of |d_x u| on a half line x >= x0."""
    clean, excluded = _propagation_series(Evolution(u0, airy()), times)
    if derivative:
        x = u0.grid.axis(0)
        mask = np.ones(x.shape, dtype=bool) if half_line_from is None else x >= half_line_from
    ts, vals = [], []
    for t, ut in clean:
        if derivative:
            du = spectral_derivative(ut, 1)
            vals.append(float(np.max(np.abs(du.values[mask]))))
        else:
            vals.append(linf_norm(ut))
        ts.append(t)
    return fit_decay(ts, vals, excluded=tuple(excluded))
