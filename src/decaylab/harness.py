"""Decay-rate fitting and the inequality verification suites.

A runner evolves each datum once: its ``Series`` forms u(t) = U(t) u0 once
at every time its checks and fits read, and guards each time once for
wrap-around, carrying a contaminated time as (t, reason) instead of a
sample. A clean time holds u(t), or only what the runner's ``read(t, u)``
takes from it; a runner that reads keeps one evolved field alive at a time.
Each check and fit takes the series restricted to its own times.

Every check records (t, lhs, rhs) rows and reports the largest ratio.
Estimates that hold with constant exactly 1 (the transport sup bound, the
Airy pointwise bound and its local-energy corollary, mass conservation)
declare that bound; the others only assert stability of the empirical
constant, with the bound set to twice the smallest sampled ratio. A sample
with lhs > 0 = rhs has ratio inf and fails; 0 = 0 is no evidence, skipped.

A check never passes on no evidence: when every sample of a check was
excluded, or a decay fit is left with fewer than five samples after
exclusions, it raises ``ContaminationError`` instead of reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product as _iter_product
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import SampledField, l2_norm, linf_norm, spectral_derivative
from .norms import DyadicPartition, hs_norm, lp_norm, weighted_l2, x_norm
from .propagators import DispersionPolynomial, Evolution, edge_mass_fraction

__all__ = [
    "ContaminationError",
    "DecayFit",
    "InequalityReport",
    "Series",
    "fit_decay",
    "check_dispersive_schrodinger",
    "check_ks_schrodinger",
    "check_lp_decay",
    "check_local_mass",
    "check_airy_pointwise",
    "check_airy_local_energy",
    "check_monomial_estimate",
    "CONTAMINATION_THRESHOLD",
    "INEQUALITY_SLACK",
    "MIN_FIT_SAMPLES",
    "STABILITY_FACTOR",
]

CONTAMINATION_THRESHOLD = 1e-6  # edge-mass fraction beyond which a sample is dropped
INEQUALITY_SLACK = 1e-6  # absolute slack on constant-free inequalities
STABILITY_FACTOR = 2.0  # admissible wobble of empirical constants
MIN_FIT_SAMPLES = 5  # fewest samples a decay fit accepts
_PROBE_CHUNK = 32  # probes per phase block: 32 x 16k modes is 8.5 MB of phases


class ContaminationError(ValueError):
    """Wrap-around contamination left a check or a fit too few clean samples."""


@dataclass(frozen=True)
class Series:
    """u(t) = U(t) u0 at a set of times, evolved and guarded once.

    ``clean`` holds the (t, u(t)) entries in time order, or (t, read(t, u(t)))
    when ``evolve`` was given ``read``; each field is then freed before the
    next is formed. ``excluded`` holds the (t, reason) entries whose edge mass
    exceeds ``CONTAMINATION_THRESHOLD``. ``evolution`` gives u and its
    spectrum at any other time.
    """

    u0: SampledField
    evolution: Evolution
    clean: tuple
    excluded: tuple

    @classmethod
    def evolve(
        cls, u0: SampledField, disp: DispersionPolynomial, times: Sequence[float], read: Optional[Callable] = None
    ) -> "Series":
        """Transform u0 once, then form and guard u(t) once at each distinct time."""
        evolution = Evolution(u0, disp)
        clean, excluded = [], []
        for t in sorted({float(t) for t in times}):
            ut = evolution.at(t)
            frac = edge_mass_fraction(ut)
            if frac > CONTAMINATION_THRESHOLD:
                excluded.append((t, f"wrap-around edge mass {frac:.2e}"))
            else:
                clean.append((t, ut if read is None else read(t, ut)))
            del ut  # the next field is formed with this one freed
        return cls(u0, evolution, tuple(clean), tuple(excluded))

    def restrict(self, times) -> "Series":
        """The sub-series at ``times``, each of which must be a time of this series."""
        keep = {float(t) for t in times}
        missing = keep.difference(t for t, _ in self.clean + self.excluded)
        if missing:
            raise ValueError(f"times {sorted(missing)} are not in the series")
        clean, excluded = (tuple(e for e in part if e[0] in keep) for part in (self.clean, self.excluded))
        return replace(self, clean=clean, excluded=excluded)


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


def fit_decay(times, values, excluded: tuple = ()) -> DecayFit:
    """Fit log(value) = intercept + slope * log(t) over all the given samples.

    ``excluded`` lists the (t, reason) samples already dropped; if any were
    and fewer than ``MIN_FIT_SAMPLES`` remain, the error is a
    ``ContaminationError``.
    """
    times = np.asarray(list(times), dtype=float)
    values = np.asarray(list(values), dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching length")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if times.size < MIN_FIT_SAMPLES:
        msg = f"need at least {MIN_FIT_SAMPLES} samples in the fit window, got {times.size}"
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


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs; inf (a violation) when lhs > 0 = rhs, nan (no evidence) when both are 0."""
    if rhs > 0.0:
        return lhs / rhs
    return math.inf if lhs > 0.0 else math.nan


def _report(name, samples, bound=None, tolerance=INEQUALITY_SLACK, detail=(), excluded=()):
    if excluded and not samples:
        t, reason = excluded[0]
        raise ContaminationError(
            f"{name}: all {len(excluded)} samples excluded, the first at t = {t:g} ({reason})"
        )
    ratios = [r for r in (_ratio(lhs, rhs) for (_, lhs, rhs) in samples) if not math.isnan(r)]
    max_ratio = max(ratios) if ratios else 0.0
    if bound is None:  # stability-style bound: constant may wobble by x2
        bound = STABILITY_FACTOR * min((r for r in ratios if r < math.inf), default=0.0)
        detail = detail + (("bound_style", "stability"),)
    passed = max_ratio <= bound + tolerance  # every bound is finite, so an inf ratio fails
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


def check_dispersive_schrodinger(series: Series, partition: DyadicPartition) -> InequalityReport:
    """|t|^(d/2) sup |u(t)| against the dyadic X^{d/2,1} norm of the datum."""
    d = series.u0.grid.dim
    rhs = x_norm(series.u0, d / 2.0, 1, partition)
    samples = [(t, abs(t) ** (d / 2.0) * linf_norm(ut), rhs) for t, ut in series.clean]
    return _report("schrodinger-dispersive-sup", samples, excluded=series.excluded)


def check_ks_schrodinger(series: Series) -> InequalityReport:
    """Weighted sup bound: |t|^d ||u||_inf^2 vs boost-norm products.

    rhs(t) sums ||W^a u(t)|| ||W^b u(t)|| over multi-index pairs with
    |a| + |b| = d, all norms evaluated honestly at time t. The series is read
    with ``(linf_norm(u), boost_norms(u, t, order))``, order >= d, at each
    clean time, so a runner that needs the same norms elsewhere boosts only
    once and holds no field.
    """
    d = series.u0.grid.dim
    alphas = [alpha for alpha in _iter_product(range(d + 1), repeat=d) if sum(alpha) <= d]
    samples = []
    for t, (sup, norms) in series.clean:
        rhs = sum(norms[a] * norms[b] for a in alphas for b in alphas if sum(a) + sum(b) == d)
        samples.append((t, abs(t) ** d * sup**2, rhs))
    return _report("schrodinger-weighted-sup", samples, excluded=series.excluded)


def check_lp_decay(
    series: Series, theta: float, partition: Optional[DyadicPartition] = None
) -> InequalityReport:
    """|t|^(theta d/2) L^p decay, p = 2/(1-theta), against dyadic/Sobolev data norms.

    theta = 0 degenerates to mass conservation with ratio identically 1.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    u0 = series.u0
    d = u0.grid.dim
    p = 2.0 / (1.0 - theta)
    if theta == 0.0:
        rhs = lp_norm(u0, 2)
        samples = [(t, lp_norm(ut, 2), rhs) for t, ut in series.clean]
        return _report(
            "schrodinger-mass-conservation", samples, bound=1.0, tolerance=1e-12, excluded=series.excluded
        )
    s = theta * d / 2.0
    if partition is None:
        raise ValueError("theta > 0 needs a dyadic partition for the data norm")
    rhs_large_t = x_norm(u0, s, 2, partition)
    rhs_all_t = weighted_l2(u0, s) + hs_norm(u0, s)
    samples, detail_rows = [], []
    for t, ut in series.clean:
        lpv = lp_norm(ut, p)
        samples.append((t, abs(t) ** s * lpv, rhs_large_t))
        detail_rows.append(((1.0 + t * t) ** (s / 2.0) * lpv) / rhs_all_t)
    detail = (("truncated_ratio_max", max(detail_rows) if detail_rows else 0.0),)
    return _report(f"schrodinger-L{p:g}-decay", samples, detail=detail, excluded=series.excluded)


def check_local_mass(series: Series, sigma: float, partition: DyadicPartition) -> InequalityReport:
    """|t|^sigma ||u(t)||_{X^{-sigma,2}} against ||u0||_{X^{sigma,2}}.

    Both sides are float ``x_norm``s. The estimate is one-sided: it bounds the
    left side from above and no lower bound is promised. Truncation is measured
    here: ``window_truncated`` in ``detail`` means that more than 1e-10 of some
    u(t) lies off the dyadic shell (``DyadicPartition.off_shell_fraction``); the
    clipped norm is then smaller, so truncation cannot produce a false violation.
    """
    d = series.u0.grid.dim
    if not 0.0 <= sigma < d / 2.0:
        raise ValueError("sigma must lie in [0, d/2)")
    rhs = x_norm(series.u0, sigma, 2, partition)
    samples = []
    truncated = False
    for t, ut in series.clean:
        truncated = truncated or partition.off_shell_fraction(ut) > 1e-10
        samples.append((t, abs(t) ** sigma * x_norm(ut, -sigma, 2, partition), rhs))
    bound = math.sqrt(2.0) if sigma == 0.0 else None  # overlap sandwich at sigma = 0
    detail = (("window_truncated", truncated),)
    name = f"schrodinger-local-mass-{sigma:g}"
    return _report(name, samples, bound=bound, detail=detail, excluded=series.excluded)


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


def check_airy_pointwise(series: Series, probes: Sequence[float]) -> InequalityReport:
    """3t (d_x u)^2 + x u^2 <= 2 ||d_x u0|| ||x u0|| + ||u0||^2 at every probe.

    The right side is built from the initial data only (its factors are
    conserved); the estimate holds with constant exactly 1 and for t >= 0
    only, so earlier times of the series are skipped. u(t) and d_x u(t)
    are evaluated at the probes through the trigonometric interpolant of the
    grid values, which is exact at nodes; probes must lie inside the grid.
    """
    u0 = series.u0
    if u0.kind != "real":
        raise ValueError("the Airy pointwise bound is for real data")
    probes = np.asarray(probes, dtype=float)
    lo, hi = u0.grid.bounds()
    if np.any(probes < lo[0]) or np.any(probes > hi[0]):
        raise ValueError("probes must lie inside the grid")
    rhs = _airy_data_constant(u0)
    series = series.restrict(t for t, _ in series.clean + series.excluded if t >= 0.0)
    if not series.clean:
        return _report("airy-pointwise-weighted", [], bound=1.0, excluded=series.excluded)
    (k,) = series.evolution.wavenumbers
    spectra = []
    for t, _ in series.clean:
        s = series.evolution.spectrum(t)
        spectra += [s, 1j * k * s]
    values = _interpolate_real(u0.grid, np.stack(spectra, axis=1), probes)
    samples = []
    for i, (t, _) in enumerate(series.clean):
        u, du = values[:, 2 * i], values[:, 2 * i + 1]
        lhs_all = 3.0 * t * du**2 + probes * u**2
        samples.append((t, float(np.max(lhs_all)), rhs))
    return _report("airy-pointwise-weighted", samples, bound=1.0, excluded=series.excluded)


def check_airy_local_energy(series: Series, eps: float) -> InequalityReport:
    """|t| * || <x>^(-1/2-eps) d_x u(t) ||^2 against the initial-data constant.

    Integrating the pointwise bound against <x>^(-1-2eps) gives
    3 t E(t) <= I_eps * C0 + ||u0||^2 with I_eps the weight mass and
    C0 = 2 ||d_x u0|| ||x u0|| + ||u0||^2, so the declared bound is 1.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    u0 = series.u0
    rhs0 = _airy_data_constant(u0)
    x = u0.grid.axis(0)
    weight = (1.0 + x**2) ** (-0.5 - eps)
    i_eps = float(weight.sum() * u0.grid.cell_volume)
    rhs = (i_eps * rhs0 + l2_norm(u0) ** 2) / 3.0
    samples = []
    for t, ut in series.clean:
        du = spectral_derivative(ut, 1)
        energy = float(np.sum(weight * du.values**2) * u0.grid.cell_volume)
        samples.append((t, abs(t) * energy, rhs))
    return _report(f"airy-local-energy-eps{eps:g}", samples, bound=1.0, excluded=series.excluded)


def check_monomial_estimate(k: int, series: Series) -> InequalityReport:
    """t |d^(2k-2) u(t, x)|^2 at the spatial max against conserved products.

    The series evolves i d_t u + d^(2k) u = 0 (``even_order(k)``); k = 1
    reproduces the Schrodinger-type structure.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    u0 = series.u0
    x = u0.grid.axis(0)
    xu0 = SampledField(u0.grid, x * u0.as_complex(), "complex")
    xnorm0 = l2_norm(xu0)
    samples = []
    for t, ut in series.clean:
        dm = spectral_derivative(ut, 2 * k - 2)
        lhs = t * linf_norm(dm) ** 2
        rhs = l2_norm(dm) * xnorm0
        samples.append((t, lhs, rhs))
    return _report(f"even-order-2k-pointwise-k{k}", samples, excluded=series.excluded)
