"""Decay-rate fitting and the inequality verification suites.

A runner evolves each datum once: its ``Series`` forms u(t) = U(t) u0 once
at every time its checks and fits read, and guards each time once for
wrap-around, carrying a contaminated time as (t, reason) instead of a
sample. A clean time holds only the per-time numbers the runner's
``read(t, u)`` takes from u(t), never the field: every u(t) of a series is
formed in one buffer (``Evolution.stream``), so one evolved field is alive
at a time, and a read that keeps one is an error. Each check consumes the
read that the ``*_read`` factory beside it makes from the check's own
parameters; a runner that feeds several checks or a fit reads for all of
them in one pass and hands each its part (``Series.map``), restricted to
its own times.

Every check records (t, lhs, rhs) rows and reports the largest ratio.
Estimates with an explicit constant declare it as the bound: 1 for the Airy
pointwise bound, its local-energy corollary and mass conservation, sqrt(2)
for local mass at sigma = 0 (the overlap sandwich). The others only assert
stability of the empirical constant, with the bound set to twice the
smallest sampled ratio. A sample with lhs > 0 = rhs has ratio inf and
fails; 0 = 0 is no evidence, skipped.

A check never passes on no evidence: when every sample of a check was
excluded, or a decay fit is left with fewer than five samples after
exclusions, it raises ``ContaminationError`` instead of reporting.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import product as _iter_product
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import GridSpec, SampledField, l2_norm, linf_norm, spectral_derivative
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
    "sup_read",
    "ks_read",
    "lp_read",
    "local_mass_read",
    "airy_pointwise_read",
    "local_energy_read",
    "monomial_read",
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
    """u(t) = U(t) u0 at a set of times, evolved, guarded and read once.

    ``clean`` holds the (t, read(t, u(t))) entries in time order: the
    per-time numbers a runner takes from u(t), never the field, whose
    buffer the next time overwrites. ``excluded`` holds the (t, reason)
    entries whose edge mass exceeds ``CONTAMINATION_THRESHOLD``. u(t) is
    formed only at the series' own times, so a runner that needs one more
    time, such as a cross-check, puts it in the series and ``restrict``s each
    use to its times.

    With ``power`` = k > 1 the series stands for the k-fold tensor power
    u0 (x) ... (x) u0 in ``dim`` dimensions, which the Schrodinger evolution
    keeps a product: every field read is the factor's, and no product field
    is formed.
    """

    u0: SampledField
    clean: tuple
    excluded: tuple
    power: int = 1

    @property
    def dim(self) -> int:
        return self.u0.grid.dim * self.power

    @classmethod
    def evolve(
        cls,
        u0: SampledField,
        disp: DispersionPolynomial,
        times: Sequence[float],
        read: Callable,
        power: int = 1,
    ) -> "Series":
        """Transform u0 once, then form, guard and read u(t) once at each distinct time.

        The fields come from ``Evolution.stream``: ``read`` must keep neither
        the field nor a view of its values, or the next time raises.

        A tensor power is guarded as the formed field would be: the interior
        of the product grid's edge strips is the product of the factors'
        interiors, so its edge-mass fraction is 1 - (1 - f)^power, f the
        factor's, node by node.
        """
        clean, excluded = [], []
        for t, ut in Evolution(u0, disp).stream(sorted({float(t) for t in times})):
            frac = _edge_mass(ut, power)
            if frac > CONTAMINATION_THRESHOLD:
                excluded.append((t, f"wrap-around edge mass {frac:.2e}"))
            else:
                clean.append((t, read(t, ut)))
            del ut  # the stream forms the next field in this one's buffer
        return cls(u0, tuple(clean), tuple(excluded), power)

    def restrict(self, times) -> "Series":
        """The sub-series at ``times``, each of which must be a time of this series."""
        keep = {float(t) for t in times}
        missing = keep.difference(t for t, _ in self.clean + self.excluded)
        if missing:
            raise ValueError(f"times {sorted(missing)} are not in the series")
        clean, excluded = (tuple(e for e in part if e[0] in keep) for part in (self.clean, self.excluded))
        return replace(self, clean=clean, excluded=excluded)

    def map(self, fn: Callable) -> "Series":
        """The series with each clean read r replaced by fn(r): one check's part of a joint read."""
        return replace(self, clean=tuple((t, fn(r)) for t, r in self.clean))


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
        bound = STABILITY_FACTOR * min((r for r in ratios if r < math.inf), default=0.0)
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


def sup_read() -> Callable:
    """The read ``check_dispersive_schrodinger`` takes: t, u -> sup |u(t)|."""
    return lambda t, u: linf_norm(u)


def check_dispersive_schrodinger(series: Series, partition: DyadicPartition) -> InequalityReport:
    """|t|^(d/2) sup |u(t)| against the dyadic X^{d/2,1} norm of the datum.

    The series is read with ``sup_read()``.
    """
    d = series.u0.grid.dim
    rhs = x_norm(series.u0, d / 2.0, 1, partition)
    samples = [(t, abs(t) ** (d / 2.0) * sup, rhs) for t, sup in series.clean]
    return _report("schrodinger-dispersive-sup", samples, excluded=series.excluded)


def ks_read(order: int, power: int = 1) -> Callable:
    """The read ``check_ks_schrodinger`` takes: t, u -> (sup |u| ** power, boost-norm table to ``order``).

    On a tensor power u is the factor, whose sup to the power is the sup of
    the product.
    """
    return lambda t, u: (linf_norm(u) ** power, boost_norms(u, t, order, power))


def check_ks_schrodinger(series: Series) -> InequalityReport:
    """Weighted sup bound: |t|^d ||u||_inf^2 vs boost-norm products.

    rhs(t) sums ||W^a u(t)|| ||W^b u(t)|| over multi-index pairs with
    |a| + |b| = d, all norms evaluated honestly at time t, and d is the
    series' ``dim``. The series is read with ``ks_read(order, power)``,
    order >= d, at each clean time, so a runner that needs the same norms
    elsewhere boosts only once and holds no field.
    """
    d = series.dim
    alphas = [alpha for alpha in _iter_product(range(d + 1), repeat=d) if sum(alpha) <= d]
    samples = []
    for t, (sup, norms) in series.clean:
        rhs = sum(norms[a] * norms[b] for a in alphas for b in alphas if sum(a) + sum(b) == d)
        samples.append((t, abs(t) ** d * sup**2, rhs))
    return _report("schrodinger-weighted-sup", samples, detail=(("dim", d),), excluded=series.excluded)


def lp_read(theta: float) -> Callable:
    """The read ``check_lp_decay`` takes at ``theta``: t, u -> ||u(t)||_p, p = 2/(1-theta)."""
    p = 2.0 / (1.0 - theta)
    return lambda t, u: lp_norm(u, p)


def check_lp_decay(
    series: Series, theta: float, partition: Optional[DyadicPartition] = None
) -> InequalityReport:
    """|t|^s ||u(t)||_p, p = 2/(1-theta), against the dyadic X^{s,2} norm of the datum, s = theta d/2.

    The series is read with ``lp_read(theta)``. theta = 0 degenerates to mass
    conservation with ratio identically 1, and needs no partition.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    u0 = series.u0
    d = u0.grid.dim
    p = 2.0 / (1.0 - theta)
    if theta == 0.0:
        rhs = lp_norm(u0, 2)
        samples = [(t, lpv, rhs) for t, lpv in series.clean]
        return _report(
            "schrodinger-mass-conservation", samples, bound=1.0, tolerance=1e-12, excluded=series.excluded
        )
    s = theta * d / 2.0
    if partition is None:
        raise ValueError("theta > 0 needs a dyadic partition for the data norm")
    rhs = x_norm(u0, s, 2, partition)
    samples = [(t, abs(t) ** s * lpv, rhs) for t, lpv in series.clean]
    return _report(f"schrodinger-L{p:g}-decay", samples, excluded=series.excluded)


def local_mass_read(sigma: float, partition: DyadicPartition) -> Callable:
    """The read ``check_local_mass`` takes: t, u -> (the off-shell share of u(t), its X^{-sigma,2} norm)."""
    return lambda t, u: (partition.off_shell_fraction(u), x_norm(u, -sigma, 2, partition))


def check_local_mass(series: Series, sigma: float, partition: DyadicPartition) -> InequalityReport:
    """|t|^sigma ||u(t)||_{X^{-sigma,2}} against ||u0||_{X^{sigma,2}}.

    The series is read with ``local_mass_read(sigma, partition)``. Both sides
    are float ``x_norm``s. The estimate is one-sided: it bounds the left side
    from above and no lower bound is promised. Truncation is measured here:
    ``window_truncated`` in ``detail`` means that more than 1e-10 of some u(t)
    lies off the dyadic shell (``DyadicPartition.off_shell_fraction``); the
    clipped norm is then smaller, so truncation cannot produce a false
    violation.
    """
    d = series.u0.grid.dim
    if not 0.0 <= sigma < d / 2.0:
        raise ValueError("sigma must lie in [0, d/2)")
    rhs = x_norm(series.u0, sigma, 2, partition)
    samples = [(t, abs(t) ** sigma * norm, rhs) for t, (_, norm) in series.clean]
    bound = math.sqrt(2.0) if sigma == 0.0 else None  # overlap sandwich at sigma = 0
    detail = (("window_truncated", any(off > 1e-10 for _, (off, _) in series.clean)),)
    name = f"schrodinger-local-mass-{sigma:g}"
    return _report(name, samples, bound=bound, detail=detail, excluded=series.excluded)


def _airy_data_constant(u0: SampledField) -> float:
    du0 = spectral_derivative(u0, 1)
    x = u0.grid.axis(0)
    xu0 = SampledField(u0.grid, x * u0.values)
    return 2.0 * l2_norm(du0) * l2_norm(xu0) + l2_norm(u0) ** 2


def _probe_nodes(grid: GridSpec, probes: Sequence[float]) -> np.ndarray:
    """The indices of the 1-d grid nodes at ``probes``; a probe outside the grid
    or off its nodes is a ``ValueError``."""
    probes = np.asarray(probes, dtype=float)
    lo, hi = grid.bounds()
    if np.any(probes < lo[0]) or np.any(probes > hi[0]):
        raise ValueError("probes must lie inside the grid")
    x = grid.axis(0)
    nodes = np.minimum(np.searchsorted(x, probes), x.size - 1)
    if np.any(x[nodes] != probes):
        raise ValueError("probes must be grid nodes")
    return nodes


def airy_pointwise_read(grid: GridSpec, probes: Sequence[float]) -> Callable:
    """The read ``check_airy_pointwise`` takes: t, u -> (u(t), d_x u(t)) at the probes.

    The probes must be nodes of the 1-d grid, as the check requires. A caller
    that has formed d_x u(t) passes it as a third argument, and it is not
    formed again.
    """
    nodes = _probe_nodes(grid, probes)
    return lambda t, u, du=None: (u.values[nodes], (spectral_derivative(u, 1) if du is None else du).values[nodes])


def check_airy_pointwise(series: Series, probes: Sequence[float]) -> InequalityReport:
    """3t (d_x u)^2 + x u^2 <= 2 ||d_x u0|| ||x u0|| + ||u0||^2 at every probe.

    The right side is built from the initial data only (its factors are
    conserved); the estimate holds with constant exactly 1 and for t >= 0
    only, so earlier times of the series are skipped. The probes must be
    nodes of the grid, and the series is read there, with
    ``airy_pointwise_read(u0.grid, probes)``.
    """
    u0 = series.u0
    if u0.kind != "real":
        raise ValueError("the Airy pointwise bound is for real data")
    probes = u0.grid.axis(0)[_probe_nodes(u0.grid, probes)]
    rhs = _airy_data_constant(u0)
    samples = [
        (t, float(np.max(3.0 * t * du**2 + probes * u**2)), rhs) for t, (u, du) in series.clean if t >= 0.0
    ]
    excluded = tuple(e for e in series.excluded if e[0] >= 0.0)
    return _report("airy-pointwise-weighted", samples, bound=1.0, excluded=excluded)


def _energy_weight(grid: GridSpec, eps: float) -> np.ndarray:
    return (1.0 + grid.axis(0) ** 2) ** (-0.5 - eps)


def local_energy_read(grid: GridSpec, eps: float) -> Callable:
    """The read ``check_airy_local_energy`` takes: t, u -> ||<x>^(-1/2-eps) d_x u||^2."""
    weight, cell = _energy_weight(grid, eps), grid.cell_volume
    return lambda t, u: float(np.sum(weight * spectral_derivative(u, 1).values ** 2) * cell)


def check_airy_local_energy(series: Series, eps: float) -> InequalityReport:
    """|t| * || <x>^(-1/2-eps) d_x u(t) ||^2 against the initial-data constant.

    Integrating the pointwise bound against <x>^(-1-2eps) gives
    3 t E(t) <= I_eps * C0 + ||u0||^2 with I_eps the weight mass and
    C0 = 2 ||d_x u0|| ||x u0|| + ||u0||^2, so the declared bound is 1. The
    series is read with ``local_energy_read(u0.grid, eps)``, which gives E(t).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    u0 = series.u0
    rhs0 = _airy_data_constant(u0)
    i_eps = float(_energy_weight(u0.grid, eps).sum() * u0.grid.cell_volume)
    rhs = (i_eps * rhs0 + l2_norm(u0) ** 2) / 3.0
    samples = [(t, abs(t) * energy, rhs) for t, energy in series.clean]
    return _report(f"airy-local-energy-eps{eps:g}", samples, bound=1.0, excluded=series.excluded)


def monomial_read(k: int) -> Callable:
    """The read ``check_monomial_estimate`` takes at ``k``: t, u -> (sup |v|, ||v||_2), v = d^(2k-2) u(t)."""
    order = 2 * k - 2

    def read(t, u):
        v = spectral_derivative(u, order)
        return linf_norm(v), l2_norm(v)

    return read


def check_monomial_estimate(k: int, series: Series) -> InequalityReport:
    """t |d^(2k-2) u(t, x)|^2 at the spatial max against conserved products.

    The series evolves i d_t u + d^(2k) u = 0 (``even_order(k)``); k = 1
    reproduces the Schrodinger-type structure. It is read with
    ``monomial_read(k)``.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    u0 = series.u0
    x = u0.grid.axis(0)
    xu0 = SampledField(u0.grid, x * u0.as_complex())
    xnorm0 = l2_norm(xu0)
    samples = [(t, t * sup**2, norm * xnorm0) for t, (sup, norm) in series.clean]
    return _report(f"even-order-2k-pointwise-k{k}", samples, excluded=series.excluded)
