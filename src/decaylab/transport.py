"""Exact phase-space transport via characteristics.

The transport equation d_t nu + w(p) . d_q nu = 0 is solved exactly by
nu(t, q, p) = nu0(q - t w(p), p), so this module never time-steps: it
evaluates the characteristics formula on analytic data and quadratures it.
Velocity averages at large times concentrate on p-scales ~ 1/t, so the sup
and conservation routines integrate over preimage windows of the datum
support (resolved by bisection on monotone pieces of the dispersion map)
instead of a fixed p-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import (
    AnalyticField,
    BumpLambda,
    GridSpec,
    SupportOverflowError,
)

__all__ = [
    "ScalarDispersion",
    "DispersionMap",
    "identity_map",
    "relativistic_map",
    "square_map",
    "mixed_map",
    "TransportSolution",
    "velocity_average",
    "sup_velocity_average",
    "conserved_functional",
    "apply_transport_boost",
    "ks_vlasov_check",
    "CounterexampleProfile",
    "counterexample_profile",
    "transport_decay_experiment",
]


@dataclass(frozen=True)
class ScalarDispersion:
    """One-dimensional dispersion component u = w(p) with derivative oracle."""

    name: str
    w: Callable
    dw: Callable


@dataclass(frozen=True)
class DispersionMap:
    """Velocity map w: R^d -> R^d.

    ``axis_maps`` lists per-axis scalar components when the map acts
    separately on each momentum coordinate; it enables the fast adaptive
    quadrature paths.
    """

    tag: str
    dim: int
    w: Callable
    axis_maps: Optional[tuple] = None


_IDENTITY = ScalarDispersion(
    "identity", lambda p: np.asarray(p, float), lambda p: np.ones_like(np.asarray(p, float))
)
_SQUARE = ScalarDispersion(
    "square", lambda p: np.asarray(p, float) ** 2, lambda p: 2.0 * np.asarray(p, float)
)


def identity_map(dim: int = 1) -> DispersionMap:
    return DispersionMap("identity", dim, _IDENTITY.w, (_IDENTITY,) * dim)


def relativistic_map(dim: int = 1) -> DispersionMap:
    def w(p):
        p = np.asarray(p, dtype=float)
        gamma = np.sqrt(1.0 + np.sum(p**2, axis=-1, keepdims=True))
        return p / gamma

    axis_maps = None
    if dim == 1:
        axis = ScalarDispersion(
            "relativistic",
            lambda p: np.asarray(p, float) / np.sqrt(1.0 + np.asarray(p, float) ** 2),
            lambda p: (1.0 + np.asarray(p, float) ** 2) ** -1.5,
        )
        axis_maps = (axis,)
    return DispersionMap("relativistic", dim, w, axis_maps)


def square_map() -> DispersionMap:
    return DispersionMap("square", 1, _SQUARE.w, (_SQUARE,))


def mixed_map() -> DispersionMap:
    """d=2 map (p1, p2^2): full rank in the first axis, degenerate second."""

    def w(p):
        p = np.asarray(p, dtype=float)
        out = p.copy()
        out[..., 1] = p[..., 1] ** 2
        return out

    return DispersionMap("mixed", 2, w, (_IDENTITY, _SQUARE))


@dataclass(frozen=True)
class TransportSolution:
    """Datum transported along characteristics of a dispersion map."""

    datum: AnalyticField
    dispersion: DispersionMap

    def __post_init__(self):
        if self.datum.ndim != 2 * self.dispersion.dim:
            raise ValueError(
                f"datum lives on R^{self.datum.ndim} but the map needs phase space R^{2 * self.dispersion.dim}"
            )
        if self.datum.kind != "real":
            raise ValueError("transport densities must be real")

    @property
    def dim(self) -> int:
        return self.dispersion.dim

    def _qp_bounds(self, tol: float = 1e-12):
        lo, hi = self.datum.support_bounds(tol)
        d = self.dim
        return (lo[:d], hi[:d]), (lo[d:], hi[d:])

    def _foot(self, t: float, q, p) -> np.ndarray:
        """Phase-space points (q - t w(p), p) where the characteristics start."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if self.dim == 1 and q.shape[-1:] != (1,):
            q = q[..., np.newaxis]
        if self.dim == 1 and p.shape[-1:] != (1,):
            p = p[..., np.newaxis]
        return np.concatenate(np.broadcast_arrays(q - t * self.dispersion.w(p), p), axis=-1)

    def evaluate(self, t: float, q, p) -> np.ndarray:
        """nu(t,q,p) = nu0(q - t w(p), p), exact up to round-off."""
        return self.datum.value(self._foot(t, q, p))


def _check_p_coverage(sol: TransportSolution, pgrid: GridSpec):
    if pgrid.dim != sol.dim:
        raise ValueError("momentum grid dimension mismatch")
    (_, _), (plo, phi) = sol._qp_bounds(1e-10)
    if not pgrid.contains_box(plo, phi):
        raise SupportOverflowError(
            f"momentum support [{plo}, {phi}] not inside p-grid box {pgrid.bounds()}"
        )


def _check_q_coverage(sol: TransportSolution, qgrid: GridSpec, t: float, qlo, qhi, momenta):
    """The q-grid must hold the q-support carried to time t at every sampled momentum."""
    travel = t * sol.dispersion.w(momenta)
    lo_req, hi_req = qlo + travel.min(axis=0), qhi + travel.max(axis=0)
    if not qgrid.contains_box(lo_req, hi_req):
        raise SupportOverflowError(
            f"q-grid {qgrid.bounds()} does not cover the transported support [{lo_req}, {hi_req}] at t={t}"
        )


def velocity_average(sol: TransportSolution, t: float, q, pgrid: GridSpec):
    """Quadrature of nu(t, q, .) over the momentum grid.

    ``q`` is one point of R^d, giving a float, or an array of points with a
    trailing axis of length d, giving an array of averages (chunked over q).
    """
    _check_p_coverage(sol, pgrid)
    q = np.asarray(q, dtype=float)
    qpoints = q.reshape(-1, sol.dim)
    pmesh = pgrid.nodes().reshape(-1, sol.dim)
    out = np.empty(qpoints.shape[0])
    rows = max(1, (1 << 22) // pmesh.shape[0])
    for start in range(0, qpoints.shape[0], rows):
        qc = qpoints[start : start + rows]
        vals = sol.evaluate(t, qc[:, None, :], pmesh[None, :, :])
        out[start : start + rows] = vals.sum(axis=1) * pgrid.cell_volume
    return float(out[0]) if q.ndim <= 1 else out.reshape(q.shape[:-1])


# ---------------------------------------------------------------------------
# adaptive quadrature over preimage windows


def _monotone_pieces(smap: ScalarDispersion, lo: float, hi: float, samples: int = 8193):
    """Split [lo, hi] into intervals where the scalar map is monotone."""
    if hi <= lo:
        return []
    p = np.linspace(lo, hi, samples)
    sign = np.sign(smap.dw(p))
    sign[sign == 0.0] = 1.0
    breaks = [lo]
    flips = np.nonzero(np.diff(sign) != 0)[0]
    for i in flips:
        a, b = p[i], p[i + 1]
        for _ in range(60):  # bisect dw sign change
            m = 0.5 * (a + b)
            if np.sign(smap.dw(np.array([m])))[0] == sign[i]:
                a = m
            else:
                b = m
        breaks.append(0.5 * (a + b))
    breaks.append(hi)
    return [(breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1) if breaks[i + 1] > breaks[i]]


def _invert_monotone(smap: ScalarDispersion, a: float, b: float, targets: np.ndarray) -> np.ndarray:
    """Vectorised bisection of w(p) = target on a monotone piece [a, b]."""
    wa = float(smap.w(np.array([a]))[0])
    wb = float(smap.w(np.array([b]))[0])
    increasing = wb >= wa
    lo = np.full(targets.shape, a)
    hi = np.full(targets.shape, b)
    t = np.clip(targets, min(wa, wb), max(wa, wb))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        wm = smap.w(mid)
        take_hi = (wm < t) if increasing else (wm > t)
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return 0.5 * (lo + hi)


def _pair_profile(
    datum: AnalyticField,
    smap: ScalarDispersion,
    t: float,
    qnodes: np.ndarray,
    nloc: int = 513,
) -> np.ndarray:
    """Velocity average of a 2-dim (q, p) datum, axis by axis.

    For t != 0 the p-integral at each q runs over the preimage of the datum's
    q-support under p -> q - t w(p), one monotone piece at a time, on a local
    uniform grid. This keeps the quadrature resolved at any t (the integrand
    concentrates on p-scales ~ 1/t).
    """
    qnodes = np.atleast_1d(np.asarray(qnodes, dtype=float))
    lo, hi = datum.support_bounds(1e-14)
    qlo, qhi, plo, phi = lo[0], hi[0], lo[1], hi[1]
    if qhi <= qlo or phi <= plo:
        return np.zeros(qnodes.shape)
    if t == 0.0:
        p = np.linspace(plo, phi, 4097)
        pts = np.stack(np.broadcast_arrays(qnodes[:, None], p[None, :]), axis=-1)
        return datum.value(pts).sum(axis=1) * (p[1] - p[0])

    out = np.zeros(qnodes.shape)
    # targets: w(p) must lie in [(q - qhi)/t, (q - qlo)/t] (t > 0; swapped if t < 0)
    u1 = (qnodes - qhi) / t
    u2 = (qnodes - qlo) / t
    ulo = np.minimum(u1, u2)
    uhi = np.maximum(u1, u2)
    for a, b in _monotone_pieces(smap, plo, phi):
        wa = float(smap.w(np.array([a]))[0])
        wb = float(smap.w(np.array([b]))[0])
        wmin, wmax = min(wa, wb), max(wa, wb)
        active = (uhi >= wmin) & (ulo <= wmax)
        if not np.any(active):
            continue
        p_at_lo = _invert_monotone(smap, a, b, ulo[active])
        p_at_hi = _invert_monotone(smap, a, b, uhi[active])
        pa = np.minimum(p_at_lo, p_at_hi)
        pb = np.maximum(p_at_lo, p_at_hi)
        margin = 0.02 * (pb - pa) + 1e-3 * (b - a) / nloc
        pa = np.maximum(pa - margin, a)
        pb = np.minimum(pb + margin, b)
        s = np.linspace(0.0, 1.0, nloc)
        pnodes = pa[:, None] + (pb - pa)[:, None] * s[None, :]
        shifted = qnodes[active][:, None] - t * smap.w(pnodes)
        pts = np.stack([shifted, pnodes], axis=-1)
        vals = datum.value(pts)
        h = (pb - pa) / (nloc - 1)
        contrib = (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1])) * h
        out[active] += contrib
    return out


def _pair_sup(datum: AnalyticField, smap: ScalarDispersion, t: float, refine: int = 2):
    """Sup over q of the pair velocity average; candidate nodes plus refinement."""
    lo, hi = datum.support_bounds(1e-14)
    qlo, qhi, plo, phi = lo[0], hi[0], lo[1], hi[1]
    pdense = np.linspace(plo, phi, 513)
    images = t * smap.w(pdense)
    offsets = np.linspace(qlo, qhi, 9)
    cand = (images[:, None] + offsets[None, :]).ravel()
    cand = np.unique(np.concatenate([cand, np.linspace(qlo, qhi, 65)]))
    vals = _pair_profile(datum, smap, t, cand)
    best = int(np.argmax(vals))
    sup, qat = float(vals[best]), float(cand[best])
    span = max(
        cand[min(best + 1, cand.size - 1)] - cand[max(best - 1, 0)],
        1e-9 * (1.0 + abs(qat)),
    )
    for _ in range(refine):
        local = np.linspace(qat - span, qat + span, 129)
        lv = _pair_profile(datum, smap, t, local)
        i = int(np.argmax(lv))
        if lv[i] > sup:
            sup, qat = float(lv[i]), float(local[i])
        span /= 32.0
    return sup, qat


def _separable_parts(sol: TransportSolution):
    if sol.dispersion.axis_maps is None:
        return None
    pairs = sol.datum.phase_pair_factors(sol.dim)
    if pairs is None:
        return None
    return list(zip(pairs, sol.dispersion.axis_maps))


def sup_velocity_average(
    sol: TransportSolution,
    t: float,
    qgrid: Optional[GridSpec] = None,
    pgrid: Optional[GridSpec] = None,
) -> float:
    """Max over position of the velocity average at time t.

    With explicit grids this is a plain max over the q-grid nodes of
    p-grid quadratures (the q-grid must cover the transported support).
    Without grids, an adaptive preimage-window quadrature is used: it
    is accurate uniformly in t and places its own candidate q nodes.
    """
    if qgrid is not None and pgrid is not None:
        (qlo, qhi), (plo, phi) = sol._qp_bounds(1e-10)
        psample = np.stack(
            np.meshgrid(*[np.linspace(plo[i], phi[i], 65) for i in range(sol.dim)], indexing="ij"),
            axis=-1,
        ).reshape(-1, sol.dim)
        _check_q_coverage(sol, qgrid, t, qlo, qhi, psample)
        return float(velocity_average(sol, t, qgrid.nodes().reshape(-1, sol.dim), pgrid).max())

    parts = _separable_parts(sol)
    if parts is None:
        raise ValueError(
            "adaptive sup needs a separable (datum, map) pair; pass explicit grids instead"
        )
    total = 1.0
    for pair_datum, smap in parts:
        sup, _ = _pair_sup(pair_datum, smap, t)
        total *= sup
    return total


# ---------------------------------------------------------------------------
# conserved functionals


def conserved_functional(
    sol: TransportSolution,
    F: Callable,
    t: float,
    pgrid: GridSpec,
    qgrid: Optional[GridSpec] = None,
) -> float:
    """Phase-space quadrature of F(p, nu(t, q, p)).

    With ``qgrid`` the integral runs over the product grid (which must cover
    the transported support). Without it, the q-integration uses per-p
    windows on a global lattice centred at the characteristic position
    t*w(p); this requires F(p, 0) = 0 so the empty region contributes
    nothing, and stays cheap however far the support has travelled.
    """
    _check_p_coverage(sol, pgrid)
    d = sol.dim
    (qlo, qhi), _ = sol._qp_bounds(1e-14)
    pmesh = pgrid.nodes().reshape(-1, d)

    if qgrid is not None:
        _check_q_coverage(sol, qgrid, t, qlo, qhi, pmesh)
        qmesh = qgrid.nodes().reshape(-1, d)
        total = 0.0
        rows = max(1, (1 << 22) // max(1, pmesh.shape[0]))
        for start in range(0, qmesh.shape[0], rows):
            qc = qmesh[start : start + rows]
            nu = sol.evaluate(t, qc[:, None, :], pmesh[None, :, :])
            total += float(np.asarray(F(pmesh[None, :, :], nu)).sum())
        return total * qgrid.cell_volume * pgrid.cell_volume

    probe = np.zeros((1, d))
    if abs(float(np.asarray(F(probe, np.zeros(1))).ravel()[0])) > 0.0:
        raise ValueError("windowed quadrature needs F(p, 0) = 0; pass an explicit qgrid")

    h = sol.datum.feature_scale() / 3.0
    pad = 4.0 * h
    counts = [int(math.ceil((qhi[i] - qlo[i] + 2 * pad) / h)) + 2 for i in range(d)]
    centers = t * sol.dispersion.w(pmesh)  # (M, d)
    total = 0.0
    rows = max(1, (1 << 21) // max(1, int(np.prod(counts))))
    offsets = [np.arange(counts[i]) * h for i in range(d)]
    for start in range(0, pmesh.shape[0], rows):
        pc = pmesh[start : start + rows]
        cc = centers[start : start + rows]
        # lattice-aligned window start per p node and axis
        y_axes = []
        for i in range(d):
            base = np.ceil((cc[:, i] + qlo[i] - pad) / h) * h
            y_axes.append(base[:, None] - cc[:, i][:, None] + offsets[i][None, :])
        if d == 1:
            y = y_axes[0][..., np.newaxis]
            pexp = pc[:, None, :]
            shape = (pc.shape[0], counts[0])
        else:
            y = np.stack(
                [
                    np.broadcast_to(y_axes[0][:, :, None], (pc.shape[0], counts[0], counts[1])),
                    np.broadcast_to(y_axes[1][:, None, :], (pc.shape[0], counts[0], counts[1])),
                ],
                axis=-1,
            )
            pexp = pc[:, None, None, :]
            shape = (pc.shape[0], counts[0], counts[1])
        pts = np.concatenate([y, np.broadcast_to(pexp, shape + (d,))], axis=-1)
        nu = sol.datum.value(pts)
        total += float(np.asarray(F(pexp, nu)).sum())
    return total * (h**d) * pgrid.cell_volume


# ---------------------------------------------------------------------------
# boosts and inequality material


def apply_transport_boost(sol: TransportSolution, t: float, axis: int, q, p) -> np.ndarray:
    """Boost field W_i = d_{p_i} + t * sum_j (d_{p_i} w^j) d_{q_j} applied to nu.

    On the exact solution this collapses, by the chain rule, to the datum's
    p_i-derivative transported along characteristics.
    """
    d = sol.dim
    if axis < 0 or axis >= d:
        raise ValueError("axis out of range")
    return sol.datum.gradient(sol._foot(t, q, p))[..., d + axis]


def _pair_abs_p_derivative_integral(pair: AnalyticField, t: float) -> float:
    """Integral of |d_p nu0|(q - t p, p) dq dp for one (q, p) pair factor.

    Quadratured honestly at time t: windows ride the characteristics of the
    identity axis map on a global lattice, so the value is t-dependent
    through quadrature only.
    """
    lo, hi = pair.support_bounds(1e-14)
    qlo, qhi, plo, phi = lo[0], hi[0], lo[1], hi[1]
    hq = pair.feature_scale() / 3.0
    pad = 4.0 * hq
    count = int(math.ceil((qhi - qlo + 2 * pad) / hq)) + 2
    p = np.linspace(plo, phi, 2049)
    hp = p[1] - p[0]
    base = np.ceil((t * p + qlo - pad) / hq) * hq
    y = base[:, None] + np.arange(count)[None, :] * hq - (t * p)[:, None]
    pts = np.stack(np.broadcast_arrays(y, p[:, None]), axis=-1)
    grad = pair.gradient(pts)[..., 1]
    return float(np.abs(grad).sum() * hq * hp)


def ks_vlasov_check(sol: TransportSolution, t: float) -> tuple:
    """Weighted sup bound for free transport: returns (lhs, rhs).

    lhs = |t|^d * sup_q velocity average; rhs = phase-space L1 norm of the
    fully boosted density W_1...W_d nu at time t. The estimate asserts
    lhs <= rhs.
    """
    if sol.dispersion.tag != "identity":
        raise ValueError("the weighted sup bound is for the identity dispersion map")
    parts = _separable_parts(sol)
    if parts is None:
        raise ValueError("needs a datum with (q_i, p_i) pair factors")
    d = sol.dim
    lhs = abs(t) ** d * sup_velocity_average(sol, t)
    rhs = 1.0
    for pair, _ in parts:
        rhs *= _pair_abs_p_derivative_integral(pair, t)
    return lhs, rhs


@dataclass(frozen=True)
class CounterexampleProfile:
    """One row of the concentration counterexample for the square map."""

    lam: float
    t: float
    nu_bar_at_origin: float
    lower_bound: float
    w11_norm_bound: float  # gradient L1 seminorm; scale-invariant part
    l1_norm: float         # mass term, decays like 1/lam


def counterexample_profile(lam: float, t: float) -> CounterexampleProfile:
    """Velocity average at the origin for the square map with a concentrating bump.

    The closed-form lower bound comes from the plateau of the bump: the set
    {p : t^2 p^4 + p^2 < lam^-2} has measure 2*sqrt(s0) with
    s0 = (sqrt(4 t^2/lam^2 + 1) - 1) / (2 t^2); the reported bound keeps only
    half of it (one sign of p) and is therefore safe.
    """
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    datum = BumpLambda(lam)
    sol = TransportSolution(datum, square_map())
    smap = sol.dispersion.axis_maps[0]
    nu0 = float(_pair_profile(datum, smap, t, np.array([0.0]))[0])
    if t == 0.0:
        lower = 2.0  # plateau of radius 1/lam contributes exactly 2
    else:
        lower = lam * math.sqrt((math.sqrt(4.0 * t**2 / lam**2 + 1.0) - 1.0) / (2.0 * t**2))
    # quadrature on a lam-refined grid; the integrand has lam-scale features
    h = 0.05 / lam
    edge = 2.0 / lam + 4 * h
    x = np.arange(-edge, edge + h, h)
    q, p = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([q, p], axis=-1)
    grad = datum.gradient(pts)
    grad_l1 = float(np.sqrt((grad**2).sum(axis=-1)).sum() * h * h)
    mass_l1 = float(np.abs(datum.value(pts)).sum() * h * h)
    return CounterexampleProfile(lam, t, nu0, lower, grad_l1, mass_l1)


def transport_decay_experiment(
    dispersion: DispersionMap,
    datum: AnalyticField,
    times: Sequence[float],
):
    """Fit the decay exponent of sup_q velocity average over geometric times."""
    from .harness import fit_decay

    sol = TransportSolution(datum, dispersion)
    times = np.asarray(list(times), dtype=float)
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be positive and strictly increasing")
    values = np.array([sup_velocity_average(sol, t) for t in times])
    return fit_decay(times, values)
