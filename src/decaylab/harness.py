"""Decay-rate fitting and the inequality verification suites.

A runner evolves each datum once: ``Series.evolve`` forms u(t) = U(t) u0
once at every time its checks and fits read, and guards each time once for
wrap-around, carrying a contaminated time as (t, reason) instead of a
sample. A clean time holds only the per-time numbers a ``read(t, u)`` takes
from u(t), never the field: every u(t) of a datum is formed in one buffer
(``Evolution.stream``), so one evolved field is alive at a time, and a read
that keeps one is an error.

Each estimate is one function of the data side: ``check_*(u0, ...)``
computes its constants once, from the datum and its own parameters, and
returns a pair (read, report). ``read(t, u)`` takes the estimate's
per-time numbers from u(t); ``report(series)`` makes the
``InequalityReport`` of a series read with it. A runner that feeds several
checks or a fit from one datum hands ``Series.evolve`` one (times, read)
part for each, and gets one series per part, read at that part's times only.

Every check records (t, lhs, rhs) rows and reports the largest ratio.
Estimates with an explicit constant declare it as the bound: 1 for the Airy
pointwise bound, its local-energy corollary and mass conservation, sqrt(2)
for local mass at sigma = 0 (the overlap sandwich), and the paper's 1-d
Sobolev step |f|^2 <= ||f|| ||f'|| once per axis: 2^-d for the weighted sup
bound in d dimensions, 1/2 for the even-order estimate at k = 1. The others
only assert stability of the empirical constant, with the bound set to twice
the smallest sampled ratio r with 0 < r < inf: a sample with lhs = 0, as at
t = 0, says nothing about the constant. A sample with lhs > 0 = rhs has
ratio inf and fails; 0 = 0 is no evidence, skipped.

A check never passes on no evidence: when every sample of a check was
excluded, or a decay fit is left with fewer than five samples after
exclusions, it raises ``ContaminationError`` instead of reporting.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product as _iter_product
from typing import Optional, Sequence

import numpy as np

from .fields import SampledField, l2_norm, linf_norm, spectral_derivative
from .norms import DyadicPartition, lp_norm, x_norm
from .operators import boost_norms
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


class ContaminationError(ValueError):
    """Wrap-around contamination left a check or a fit too few clean samples."""


@dataclass(frozen=True)
class Series:
    """One read of u(t) = U(t) u0 at its own times, each evolved and guarded once.

    ``clean`` holds the (t, read(t, u(t))) entries in time order: the
    per-time numbers a runner takes from u(t), never the field, whose
    buffer the next time overwrites. ``excluded`` holds the (t, reason)
    entries whose edge mass exceeds ``CONTAMINATION_THRESHOLD``.
    """

    clean: tuple
    excluded: tuple

    @classmethod
    def evolve(cls, u0: SampledField, disp: DispersionPolynomial, *parts, power: int = 1) -> tuple:
        """One series per (times, read) part: u0 is transformed once, and u(t) formed and guarded once
        at each distinct time of all the parts, then read by every part that holds t.

        The fields come from ``Evolution.stream``: a read must keep neither
        the field nor a view of its values, or the next time raises.

        With ``power`` = k > 1 the series stand for the k-fold tensor power
        u0 (x) ... (x) u0, which the Schrodinger evolution keeps a product:
        a read gets the factor's u(t), and no product field is formed. The
        power is guarded as the formed field would be: the interior of the
        product grid's edge strips is the product of the factors' interiors,
        so its edge-mass fraction is 1 - (1 - f)^power, f the factor's, node
        by node.
        """
        wanted = [{float(t) for t in times} for times, _ in parts]
        entries = [([], []) for _ in parts]
        for t, ut in Evolution(u0, disp).stream(sorted(set().union(*wanted))):
            frac = _edge_mass(ut, power)
            for own, (_, read), (clean, excluded) in zip(wanted, parts, entries):
                if t not in own:
                    continue
                if frac > CONTAMINATION_THRESHOLD:
                    excluded.append((t, f"wrap-around edge mass {frac:.2e}"))
                else:
                    clean.append((t, read(t, ut)))
            del ut  # the stream forms the next field in this one's buffer
        return tuple(cls(tuple(clean), tuple(excluded)) for clean, excluded in entries)


def _exclusion_note(excluded: tuple) -> str:
    """The count, times and largest edge mass of excluded (t, reason) samples, "" for none; every
    reason ``Series.evolve`` gives ends in its edge mass."""
    if not excluded:
        return ""
    worst = max(excluded, key=lambda entry: float(entry[1].rsplit(" ", 1)[-1]))[1]
    return f"{len(excluded)} excluded at t = {', '.join(f'{t:g}' for t, _ in excluded)}; largest {worst}"


def _edge_mass(u: SampledField, power: int) -> float:
    """``edge_mass_fraction`` of the ``power``-fold tensor power of u, 1 - (1 - f)^power
    taken through log1p and expm1 so that a small fraction keeps its digits."""
    frac = edge_mass_fraction(u)
    return frac if power == 1 else -math.expm1(power * math.log1p(-frac))


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
    """Sampled lhs/rhs pairs for one estimate, with the worst ratio.

    It passes on max_ratio <= bound + tolerance; every bound is finite, so an
    inf ratio fails.
    """

    name: str
    samples: tuple  # ((t, lhs, rhs), ...)
    max_ratio: float
    bound: float
    tolerance: float
    detail: tuple = ()
    excluded: tuple = ()

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.bound + self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


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
        bound = STABILITY_FACTOR * min((r for r in ratios if 0.0 < r < math.inf), default=0.0)
        detail = detail + (("bound_style", "stability"),)
    return InequalityReport(
        name=name,
        samples=tuple(samples),
        max_ratio=float(max_ratio),
        bound=float(bound),
        tolerance=float(tolerance),
        detail=tuple(detail),
        excluded=tuple(excluded),
    )


def check_dispersive_schrodinger(u0: SampledField, partition: DyadicPartition) -> tuple:
    """|t|^(d/2) sup |u(t)| against the dyadic X^{d/2,1} norm of the datum.

    Returns (read, report); read(t, u) is sup |u(t)|.
    """
    s = u0.grid.dim / 2.0
    rhs = x_norm(u0, s, 1, partition)

    def report(series: Series) -> InequalityReport:
        samples = [(t, abs(t) ** s * sup, rhs) for t, sup in series.clean]
        return _report("schrodinger-dispersive-sup", samples, excluded=series.excluded)

    return (lambda t, u: linf_norm(u)), report


def check_ks_schrodinger(d: int, power: int = 1) -> tuple:
    """Weighted sup bound in d dimensions: |t|^d ||u||_inf^2 vs boost-norm products, bound 2^-d.

    rhs(t) sums ||W^a u(t)|| ||W^b u(t)|| over multi-index pairs with
    |a| + |b| = d, all norms evaluated honestly at time t. With
    W = conj(M) t d M, |M| = 1, the Sobolev step on each axis bounds the
    lhs by 2^-d of the pairs with a + b = (1, ..., 1). Returns (read,
    report); read(t, u) is (sup |u| ** power, the boost-norm table of u(t) to
    order d). On a ``power``-fold tensor power u is the factor, whose sup to
    the power is the sup of the product.
    """
    alphas = [alpha for alpha in _iter_product(range(d + 1), repeat=d) if sum(alpha) <= d]
    pairs = [(a, b) for a in alphas for b in alphas if sum(a) + sum(b) == d]

    def read(t, u):
        return linf_norm(u) ** power, boost_norms(u, t, d, power)

    def report(series: Series) -> InequalityReport:
        samples = [
            (t, abs(t) ** d * sup**2, sum(norms[a] * norms[b] for a, b in pairs)) for t, (sup, norms) in series.clean
        ]
        detail = (("dim", d), ("bound_style", "sobolev"))
        return _report("schrodinger-weighted-sup", samples, bound=0.5**d, detail=detail, excluded=series.excluded)

    return read, report


def check_lp_decay(u0: SampledField, theta: float, partition: Optional[DyadicPartition] = None) -> tuple:
    """|t|^s ||u(t)||_p, p = 2/(1-theta), against the dyadic X^{s,2} norm of the datum, s = theta d/2.

    Returns (read, report); read(t, u) is ||u(t)||_p. theta = 0 degenerates to
    mass conservation with ratio identically 1, and needs no partition.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    p, s = 2.0 / (1.0 - theta), theta * u0.grid.dim / 2.0
    if theta == 0.0:
        name, rhs, bound, tolerance = "schrodinger-mass-conservation", lp_norm(u0, 2), 1.0, 1e-12
    elif partition is None:
        raise ValueError("theta > 0 needs a dyadic partition for the data norm")
    else:
        name, rhs, bound, tolerance = f"schrodinger-L{p:g}-decay", x_norm(u0, s, 2, partition), None, INEQUALITY_SLACK

    def report(series: Series) -> InequalityReport:
        samples = [(t, abs(t) ** s * norm, rhs) for t, norm in series.clean]
        return _report(name, samples, bound=bound, tolerance=tolerance, excluded=series.excluded)

    return (lambda t, u: lp_norm(u, p)), report


def check_local_mass(u0: SampledField, sigma: float, partition: DyadicPartition) -> tuple:
    """|t|^sigma ||u(t)||_{X^{-sigma,2}} against ||u0||_{X^{sigma,2}}.

    Returns (read, report); read(t, u) is (the off-shell share of u(t), its
    X^{-sigma,2} norm). Both sides are float ``x_norm``s. The estimate is
    one-sided: it bounds the left side from above and no lower bound is
    promised. Truncation is measured here: ``window_truncated`` in ``detail``
    means that more than 1e-10 of some u(t) lies off the dyadic shell
    (``DyadicPartition.off_shell_fraction``); the clipped norm is then
    smaller, so truncation cannot produce a false violation.
    """
    if not 0.0 <= sigma < u0.grid.dim / 2.0:
        raise ValueError("sigma must lie in [0, d/2)")
    rhs = x_norm(u0, sigma, 2, partition)
    bound = math.sqrt(2.0) if sigma == 0.0 else None  # overlap sandwich at sigma = 0

    def report(series: Series) -> InequalityReport:
        samples = [(t, abs(t) ** sigma * norm, rhs) for t, (_, norm) in series.clean]
        detail = (("window_truncated", any(off > 1e-10 for _, (off, _) in series.clean)),)
        name = f"schrodinger-local-mass-{sigma:g}"
        return _report(name, samples, bound=bound, detail=detail, excluded=series.excluded)

    return (lambda t, u: (partition.off_shell_fraction(u), x_norm(u, -sigma, 2, partition))), report


def _airy_data_constant(u0: SampledField) -> float:
    """C0 = 2 ||d_x u0|| ||x u0|| + ||u0||^2, the conserved right side of the Airy pointwise bound."""
    xu0 = SampledField(u0.grid, u0.grid.axis(0) * u0.values)
    return 2.0 * l2_norm(spectral_derivative(u0, 1)) * l2_norm(xu0) + l2_norm(u0) ** 2


def check_airy_pointwise(u0: SampledField, probes: Sequence[float]) -> tuple:
    """3t (d_x u)^2 + x u^2 <= 2 ||d_x u0|| ||x u0|| + ||u0||^2 at every probe.

    The right side is built from the initial data only (its factors are
    conserved); the estimate holds with constant exactly 1 and for t >= 0
    only, so earlier times of the series are skipped. The probes must be
    nodes of the 1-d grid, or the error is a ``ValueError``. Returns (read,
    report); read(t, u) is (u(t), d_x u(t)) at the probes.
    """
    if u0.kind != "real":
        raise ValueError("the Airy pointwise bound is for real data")
    probes, x = np.asarray(probes, dtype=float), u0.grid.axis(0)
    lo, hi = u0.grid.bounds()
    if np.any(probes < lo[0]) or np.any(probes > hi[0]):
        raise ValueError("probes must lie inside the grid")
    nodes = np.minimum(np.searchsorted(x, probes), x.size - 1)
    if np.any(x[nodes] != probes):
        raise ValueError("probes must be grid nodes")
    rhs = _airy_data_constant(u0)

    def read(t, u):
        return u.values[nodes], spectral_derivative(u, 1).values[nodes]

    def report(series: Series) -> InequalityReport:
        samples = [
            (t, float(np.max(3.0 * t * du**2 + probes * u**2)), rhs) for t, (u, du) in series.clean if t >= 0.0
        ]
        excluded = tuple(e for e in series.excluded if e[0] >= 0.0)
        return _report("airy-pointwise-weighted", samples, bound=1.0, excluded=excluded)

    return read, report


def check_airy_local_energy(u0: SampledField, eps: float) -> tuple:
    """|t| * || <x>^(-1/2-eps) d_x u(t) ||^2 against the initial-data constant.

    Integrating the pointwise bound against <x>^(-1-2eps) gives
    3 t E(t) <= I_eps * C0 + ||u0||^2 with I_eps the weight mass and
    C0 = 2 ||d_x u0|| ||x u0|| + ||u0||^2, so the declared bound is 1.
    Returns (read, report); read(t, u) is E(t).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    weight, cell = (1.0 + u0.grid.axis(0) ** 2) ** (-0.5 - eps), u0.grid.cell_volume
    rhs = (float(weight.sum() * cell) * _airy_data_constant(u0) + l2_norm(u0) ** 2) / 3.0

    def report(series: Series) -> InequalityReport:
        samples = [(t, abs(t) * energy, rhs) for t, energy in series.clean]
        return _report(f"airy-local-energy-eps{eps:g}", samples, bound=1.0, excluded=series.excluded)

    return (lambda t, u: float(np.sum(weight * spectral_derivative(u, 1).values ** 2) * cell)), report


def check_monomial_estimate(u0: SampledField, k: int) -> tuple:
    """t |d^(2k-2) u(t, x)|^2 at the spatial max against conserved products.

    The series evolves i d_t u + d^(2k) u = 0 (``even_order(k)``); k = 1
    reproduces the Schrodinger-type structure and its Sobolev bound 1/2; k = 2
    keeps the stability bound. Returns (read, report); read(t, u) is
    (sup |v|, ||v||_2), v = d^(2k-2) u(t).
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    xnorm0 = l2_norm(SampledField(u0.grid, u0.grid.axis(0) * u0.as_complex()))
    bound, detail = (0.5, (("bound_style", "sobolev"),)) if k == 1 else (None, ())

    def read(t, u):
        v = spectral_derivative(u, 2 * k - 2)
        return linf_norm(v), l2_norm(v)

    def report(series: Series) -> InequalityReport:
        samples = [(t, t * sup**2, norm * xnorm0) for t, (sup, norm) in series.clean]
        return _report(f"even-order-2k-pointwise-k{k}", samples, bound=bound, detail=detail, excluded=series.excluded)

    return read, report
