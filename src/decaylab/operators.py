"""Commuting operators for the dispersive propagators.

One operator shape covers everything this package needs: the monomial
boost  u -> a t d_j^(m-1) u + b x_j u  along axis j for a degree-m
evolution. The Schrodinger boost per axis j,  u -> t d_j u + (i/2) x_j u,
is its case m = 2, (a, b) = (1, i/2); other degrees act in one dimension.

``derive_commuting_operator`` does not look coefficients up in a table: it
solves the linear symbol-side condition  a (i xi)^(m-1) + i b sigma'(xi) = 0
(with the normalization a = m) and verifies that the residual vanishes
identically in xi, which pins the sign conventions of the propagators.

The Schrodinger boost is t d_j conjugated by the chirp M = exp(i |x|^2 / (4t)):
d_j (M u) = M (d_j u + (i x_j / (2t)) u), so W_j = conj(M) t d_j M and
|| W^alpha u || = t^|alpha| || d^alpha (M u) ||. ``boost_norms`` reads every
such norm by Parseval from one transform of M u. The sampled identity needs
M u resolved by the grid: M u(t) is band-limited to |xi| <~ R/(2t) for data
of radius R, so ``boost_norms`` checks that the transform of M u has
negligible mass outside the inner three-quarter band |xi_j| <= 3 pi/(4 h_j),
and boosts by spectral derivatives where it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import Gaussian, SampledField, l2_norm, spectral_derivative
from .propagators import DispersionPolynomial, Evolution

__all__ = [
    "NoCommutingOperatorError",
    "CommutingOperator",
    "schrodinger_boost",
    "monomial_boost",
    "derive_commuting_operator",
    "apply_operator",
    "boost_norms",
    "commutation_residual",
    "commutator_norm",
]


class NoCommutingOperatorError(Exception):
    """The symbol-side commutation condition has no solution (normalization bug)."""


@dataclass(frozen=True)
class CommutingOperator:
    """The monomial boost u -> a t d_j^(degree-1) u + b x_j u along axis j = ``axis``."""

    degree: int
    a: complex
    b: complex
    axis: int = 0


def schrodinger_boost(axis: int = 0) -> CommutingOperator:
    """W_j = t d_j + (i/2) x_j: the degree-2 monomial boost with (a, b) = (1, i/2)."""
    return CommutingOperator(2, 1.0 + 0.0j, 0.5j, axis)


def monomial_boost(degree: int, a: complex, b: complex) -> CommutingOperator:
    return CommutingOperator(degree, complex(a), complex(b))


def derive_commuting_operator(disp: DispersionPolynomial) -> CommutingOperator:
    """Solve for (a, b) such that a t d^(m-1) + b x commutes with the evolution.

    On the Fourier side the operator reads a t (i xi)^(m-1) + i b d_xi, and
    commutation with exp(t sigma(xi)) demands
        a (i xi)^(m-1) + i b sigma'(xi) = 0   for all xi.
    Both sides are multiples of xi^(m-1), so with a = m this is a single
    linear equation for b; the residual is then checked on a xi-grid and a
    nonzero value signals an inconsistent normalization.
    """
    m = disp.degree
    s = disp.monomial_coefficient
    xi0 = 1.0
    lhs_a = (1j * xi0) ** (m - 1)
    lhs_b = 1j * m * s * xi0 ** (m - 1)  # i * sigma'(xi0)
    a = complex(m)
    if lhs_b == 0:
        raise NoCommutingOperatorError("degenerate symbol derivative")
    b = -a * lhs_a / lhs_b
    xi = np.linspace(0.25, 4.0, 257)
    residual = np.abs(a * (1j * xi) ** (m - 1) + 1j * b * m * s * xi ** (m - 1))
    scale = np.abs(a * xi ** (m - 1)).max()
    if residual.max() > 1e-12 * scale:
        raise NoCommutingOperatorError(
            f"symbol condition inconsistent for degree {m}: residual {residual.max():.3e}"
        )
    return monomial_boost(m, a, b)


def _coordinate(u: SampledField, axis: int) -> np.ndarray:
    x = u.grid.axis(axis)
    shape = [1] * u.grid.dim
    shape[axis] = x.size
    return x.reshape(shape)


def apply_operator(op: CommutingOperator, u: SampledField, t: float) -> SampledField:
    """Linear action via spectral derivatives and coordinate multiplication.

    A complex ``u`` is used as it is; a real one is first taken to complex.
    """
    if op.degree != 2 and u.grid.dim != 1:
        raise ValueError("monomial boosts of degree other than 2 act on one-dimensional fields")
    v = u if u.kind == "complex" else SampledField(u.grid, u.as_complex(), "complex")
    # the sum is formed in place, so a boost of a large field keeps two fewer full-size temporaries alive
    vals = op.a * t * spectral_derivative(v, op.degree - 1, axis=op.axis).values
    vals += op.b * _coordinate(u, op.axis) * v.values
    return SampledField(u.grid, vals, "complex")


# Share of the transformed chirped field's mass allowed outside the inner 3/4 band
# before ``boost_norms`` treats the sampled chirp as aliased.
_ALIASED_SHARE = 1e-10


def boost_norms(u: SampledField, t: float, order: int) -> dict:
    """|| W^alpha u ||_2 for every multi-index |alpha| <= order, keyed by alpha.

    W_j = t d_j + (i/2) x_j is the Schrodinger boost along axis j at time t,
    and W^alpha applies W_j alpha_j times along every axis j (the boosts
    commute). With the chirp M = exp(i |x|^2 / (4t)),
        d_j (M u) = M (d_j u + (i x_j / (2t)) u),   so   W_j = conj(M) t d_j M,
    and since |M| = 1,
        || W^alpha u ||^2 = t^(2|alpha|) || d^alpha (M u) ||^2
                          = (dV/N) sum_xi |(M u)^(xi)|^2 prod_j (t xi_j)^(2 alpha_j)
    by Parseval: one forward transform of M u gives every norm, summed by
    one contraction per axis.

    The identity holds for the samples only while M u is resolved by the
    grid. M u(t) is band-limited to |xi| <~ R/(2t) for data of radius R, so
    at small t or on a coarse grid the sampled chirp aliases. When more than
    ``_ALIASED_SHARE`` of sum |(M u)^|^2 lies outside the inner three-quarter
    band (|xi_j| <= 3 pi/(4 h_j) on every axis), the norms come from
    ``_boost_walk``, one spectral-derivative boost per multi-index. At t = 0
    the chirp is undefined and the walk runs too; there W_j = (i/2) x_j.
    """
    if t == 0.0:
        return _boost_walk(u, t, order)  # the chirp would divide by t
    grid = u.grid
    # one chirp factor exp(i x_j^2 / (4t)) per axis, as Evolution.spectrum applies its phase
    chirps = [np.exp(1j * _coordinate(u, j) ** 2 / (4.0 * t)) for j in range(grid.dim)]
    h = u.as_complex() * chirps[0]
    for chirp in chirps[1:]:
        h *= chirp
    np.fft.fftn(h, out=h)
    # squared in place, so |h|^2 needs no full-size temporary beyond p itself
    np.square(h.real, out=h.real)
    np.square(h.imag, out=h.imag)
    p = np.add(h.real, h.imag)
    weights = []
    for j in range(grid.dim):
        xi = grid.wavenumbers(j)
        inner = np.abs(xi) <= 0.75 * np.pi / grid.spacing[j]
        weights.append(np.column_stack([_powers((t * xi) ** 2, order), inner]))
    table = _weighted_sums(p, weights)
    total, resolved = table[(0,) * grid.dim], table[(order + 1,) * grid.dim]
    if total - resolved > _ALIASED_SHARE * total:
        return _boost_walk(u, t, order)
    scale = grid.cell_volume / math.prod(grid.points)
    alphas = (alpha for alpha in np.ndindex(*(order + 1,) * grid.dim) if sum(alpha) <= order)
    return {alpha: math.sqrt(scale * table[alpha]) for alpha in alphas}


def _powers(s: np.ndarray, order: int) -> np.ndarray:
    """Columns s^0, s^1, ..., s^order."""
    return np.column_stack([s**k for k in range(order + 1)])


def _weighted_sums(p: np.ndarray, weights: list) -> np.ndarray:
    """sum_x p(x) prod_j weights[j][x_j, k_j] for every (k_0, ..., k_(d-1)).

    One matrix product per axis, last axis first: ``p @ w_y``, then ``w_x``.
    """
    table = p
    for w in reversed(weights):
        table = np.moveaxis(table @ w, -1, 0)
    return table


def _boost_walk(u: SampledField, t: float, order: int) -> dict:
    """``boost_norms`` by spectral-derivative boosts of the samples, at any resolution.

    W^alpha applies W_0 alpha_0 times first, then W_1, and so on. The
    multi-indices are walked depth first: W^alpha u is one boost W_j of its
    parent W^(alpha - e_j) u, with j the last axis where alpha_j > 0, so each
    boosted field is made once and only the current path stays alive.
    """
    boosts = [schrodinger_boost(axis) for axis in range(u.grid.dim)]
    norms = {}

    def walk(alpha: tuple, v: SampledField, first_axis: int) -> None:
        norms[alpha] = l2_norm(v)
        if sum(alpha) < order:
            for j in range(first_axis, len(alpha)):
                child = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]
                walk(child, apply_operator(boosts[j], v, t), j)

    walk((0,) * u.grid.dim, u, 0)
    return norms


def commutation_residual(
    op: CommutingOperator, disp: DispersionPolynomial, u0: SampledField, times: Sequence[float]
) -> np.ndarray:
    """|| A(t) U(t) u0 - U(t) A(0) u0 ||_2 at each time, relative to || A(0) u0 ||_2.

    One residual per time; when || A(0) u0 ||_2 = 0 the residuals are absolute.
    """
    a0 = apply_operator(op, u0, 0.0)
    evolution, boosted = Evolution(u0, disp), Evolution(a0, disp)
    diffs = (apply_operator(op, evolution.at(t), t).values - boosted.at(t).as_complex() for t in times)
    nums = np.array([l2_norm(SampledField(u0.grid, d, "complex")) for d in diffs])
    denom = l2_norm(a0)
    return nums / denom if denom else nums


def commutator_norm(
    op1: CommutingOperator, op2: CommutingOperator, u: SampledField, t: float
) -> float:
    """|| [W_1, W_2] u ||_2 evaluated on the grid."""
    ab = apply_operator(op1, apply_operator(op2, u, t), t)
    ba = apply_operator(op2, apply_operator(op1, u, t), t)
    return l2_norm(ab.with_values(ab.values - ba.values))


def random_wave_packets(grid, rng) -> SampledField:
    """Random localized band-limited data for the commutation suites.

    A sum of five complex Gaussian wave packets with widths in [3, 4], centers in
    [-5, 5] and modulations |k0| <= 0.5: effectively band-limited (spectral
    tails below 1e-10) while staying far from the box boundary, so the
    coordinate-multiplication operators see no periodic sawtooth.
    """
    nodes = grid.meshgrid()
    vals = np.zeros(grid.points, dtype=complex)
    for _ in range(5):
        g = Gaussian(
            tuple(rng.uniform(-5.0, 5.0, grid.dim)),
            tuple(rng.uniform(3.0, 4.0, grid.dim)),
            tuple(rng.uniform(-0.5, 0.5, grid.dim)),
        )
        vals += (rng.normal() + 1j * rng.normal()) * g.value(*nodes)
    return SampledField(grid, vals, "complex")
