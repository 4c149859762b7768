"""Commuting operators for the dispersive propagators.

One operator shape covers everything this package needs: the monomial
boost  u -> a t d_j^(m-1) u + b x_j u  along axis j for a degree-m
evolution. The Schrodinger boost per axis j,  u -> t d_j u + (i/2) x_j u,
is its case m = 2, (a, b) = (1, i/2); other degrees act in one dimension.

``derive_commuting_operator`` does not look coefficients up in a table: it
solves the linear symbol-side condition  a (i xi)^(m-1) + i b sigma'(xi) = 0
(with the normalization a = m) from the symbol of the propagator. What pins
the sign conventions is the commutation suite: its physical-space residuals
of the derived boosts, and its checks that boosts with a perturbed
coefficient leave a visible residual. ``commutation_residual`` takes one
operator per datum, so the suite scores a degree's packets under the
derived boost and its first packet under both perturbed boosts in one
call: two forward transforms and two inverse ones per time, into buffers
that every time reuses.

The Schrodinger boost is t d_j conjugated by the chirp M = exp(i |x|^2 / (4t)):
d_j (M u) = M (d_j u + (i x_j / (2t)) u), so W_j = conj(M) t d_j M and
|| W^alpha u || = t^|alpha| || d^alpha (M u) ||. ``boost_norms`` reads every
such norm by Parseval from one transform of M u. The sampled identity needs
M u resolved by the grid: M u(t) is band-limited to |xi| <~ R/(2t) for data
of radius R, so ``boost_norms`` checks that the transform of M u has
negligible mass outside the inner three-quarter band |xi_j| <= 3 pi/(4 h_j),
and boosts by spectral derivatives where it does not.

For a tensor power u_1 (x) ... (x) u_1 the chirped transform, its Parseval
sums and every boosted field are products of the factor's, node by node, so
``boost_norms(u_1, t, order, power)`` reads the power's norms from u_1 alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import Gaussian, SampledField, l2_norm, spectral_derivative
from .propagators import DispersionPolynomial, _phase

__all__ = [
    "CommutingOperator",
    "schrodinger_boost",
    "derive_commuting_operator",
    "apply_operator",
    "boost_norms",
    "commutation_residual",
    "commutator_norm",
]


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


def derive_commuting_operator(disp: DispersionPolynomial) -> CommutingOperator:
    """Solve for (a, b) such that a t d^(m-1) + b x commutes with the evolution.

    On the Fourier side the operator reads a t (i xi)^(m-1) + i b d_xi, and
    commutation with exp(t sigma(xi)) demands
        a (i xi)^(m-1) + i b sigma'(xi) = 0   for all xi.
    Both sides are multiples of xi^(m-1), so with a = m this is a single
    linear equation for b, solved at xi = 1. The commutation suite checks
    the result against the evolution in physical space.
    """
    m = disp.degree
    s = disp.monomial_coefficient
    xi0 = 1.0
    lhs_a = (1j * xi0) ** (m - 1)
    lhs_b = 1j * m * s * xi0 ** (m - 1)  # i * sigma'(xi0)
    a = complex(m)
    b = -a * lhs_a / lhs_b
    return CommutingOperator(m, a, b)


def apply_operator(op: CommutingOperator, u: SampledField, t: float) -> SampledField:
    """Linear action via spectral derivatives and coordinate multiplication.

    A complex ``u`` is used as it is; a real one is first taken to complex.
    """
    if op.degree != 2 and u.grid.dim != 1:
        raise ValueError("monomial boosts of degree other than 2 act on one-dimensional fields")
    v = u.with_values(u.as_complex())  # shares the values of a complex u
    # the sum is formed in place, so a boost of a large field keeps two fewer full-size temporaries alive
    vals = op.a * t * spectral_derivative(v, op.degree - 1, axis=op.axis).values
    vals += op.b * u.grid.along(op.axis, u.grid.axis(op.axis)) * v.values
    return SampledField(u.grid, vals)


# Share of the transformed chirped field's mass allowed outside the inner 3/4 band
# before ``boost_norms`` treats the sampled chirp as aliased.
_ALIASED_SHARE = 1e-10


def boost_norms(u: SampledField, t: float, order: int, power: int = 1) -> dict:
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

    With ``power`` = k > 1 the norms are those of the k-fold tensor power
    u (x) ... (x) u, which is not formed: the chirp factors per axis, so the
    table of weighted sums (the power columns and the inner-band column) is
    the k-fold outer product of the table of u, and a boost of the power is
    the tensor product of boosts of u.

    The identity holds for the samples only while M u is resolved by the
    grid. M u(t) is band-limited to |xi| <~ R/(2t) for data of radius R, so
    at small t or on a coarse grid the sampled chirp aliases. When more than
    ``_ALIASED_SHARE`` of sum |(M u)^|^2 lies outside the inner three-quarter
    band (|xi_j| <= 3 pi/(4 h_j) on every axis), the norms come from
    ``_boost_walk``, one spectral-derivative boost per multi-index. At t = 0
    the chirp is undefined and the walk runs too; there W_j = (i/2) x_j.
    The share is read from the table of the tensor power, so a power is
    decided as the formed field would be.
    """
    if t == 0.0:
        return _power_walk(u, t, order, power)  # the chirp would divide by t
    grid = u.grid
    # one chirp factor exp(i x_j^2 / (4t)) per axis, taken as Evolution.spectrum takes its phase: cos
    # and sin of the real angle (1 / (4t)) x_j^2, the angle np.exp(1j * x_j**2 / (4t)) forms by complex
    # division, so the bits are the same; a factor of h's shape is formed in h itself
    h = np.empty(grid.points, complex)
    chirps = []
    for j in range(grid.dim):
        x = grid.along(j, grid.axis(j))
        chirp = h if x.shape == h.shape else np.empty(x.shape, complex)
        chirps.append(_phase(1.0 / (4.0 * t), np.square(x, out=chirp.real), chirp))
    np.multiply(u.as_complex(), chirps[0], out=h)
    for chirp in chirps[1:]:
        h *= chirp
    np.fft.fftn(h, out=h)
    # squared in place, so |h|^2 needs no full-size temporary beyond p itself
    np.square(h.real, out=h.real)
    np.square(h.imag, out=h.imag)
    p = np.add(h.real, h.imag)
    weights = []
    for j in range(grid.dim):
        # the Parseval weights (t xi)^(2k), k = 0..order, then the inner-band indicator, one column each
        xi = grid.wavenumbers(j)
        s = (t * xi) ** 2
        w = np.empty((xi.size, order + 2))
        for k in range(order + 1):
            w[:, k] = s**k
        w[:, -1] = np.abs(xi) <= 0.75 * np.pi / grid.spacing[j]
        weights.append(w)
    table = functools.reduce(np.multiply.outer, [_weighted_sums(p, weights)] * power)
    dim = grid.dim * power
    total, resolved = table[(0,) * dim], table[(order + 1,) * dim]
    if total - resolved > _ALIASED_SHARE * total:
        return _power_walk(u, t, order, power)
    scale = (grid.cell_volume / math.prod(grid.points)) ** power
    alphas = (alpha for alpha in np.ndindex(*(order + 1,) * dim) if sum(alpha) <= order)
    return {alpha: math.sqrt(scale * table[alpha]) for alpha in alphas}


def _power_walk(u: SampledField, t: float, order: int, power: int) -> dict:
    """``_boost_walk`` norms of the ``power``-fold tensor power of u, from one walk of u.

    W^alpha of the power is the tensor product of the factor's boosts by the
    slices of alpha, one slice per factor, so its norm is their product.
    """
    norms = _boost_walk(u, t, order)
    if power == 1:
        return norms
    slices = itertools.product(norms, repeat=power)
    return {sum(s, ()): math.prod(norms[a] for a in s) for s in slices if sum(map(sum, s)) <= order}


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
    ops: Sequence[CommutingOperator],
    disp: DispersionPolynomial,
    data: Sequence[SampledField],
    times: Sequence[float],
) -> np.ndarray:
    """|| A(t) U(t) u0 - U(t) A(0) u0 ||_2 relative to || A(0) u0 ||_2, per datum u0 and time t.

    ``ops[i]`` is the operator A scored on ``data[i]``, one per datum and all
    of one degree, so one call scores a datum under several operators (the
    derived boost and perturbed ones). ``data`` are one-dimensional fields on
    one grid, and the result has shape (len(data), len(times)): row i holds
    the residuals of A_i on data[i], and does not depend on the other rows.
    With A(t) = a t d^(m-1) + b x and U(t) the multiplier exp(t sigma(xi)),
        A(t) U(t) u0 - U(t) A(0) u0
            = F^-1[e^(t sigma) (t a (i xi)^(m-1) u0^ - F(b x u0))] + b x u(t),
    where u(t) = F^-1[e^(t sigma) u0^]. The data are stacked, so a call
    makes two forward transforms (of u0 and of b x u0) and two inverse ones
    per time, whatever the number of data. The x-multiplications stay in
    physical space, so an (a, b) that does not commute leaves a visible
    residual. A row whose || A(0) u0 ||_2 is 0 holds absolute residuals.

    Per time the multiplier is cos + i sin of the real angle t Im sigma(xi),
    formed in one vector as ``Evolution`` forms it, the two products go into
    two (data x points) buffers reused at every time, transformed back in
    place, and each row's squared norm is a dot product of its float view.
    """
    if not data or len(ops) != len(data):
        raise ValueError(f"commutation residuals take one operator per datum, got {len(ops)} for {len(data)}")
    degree = ops[0].degree
    if any(op.degree != degree for op in ops):
        raise ValueError("commutation residuals take operators of one degree")
    grid = data[0].grid
    if grid.dim != 1 or any(u.grid != grid for u in data):
        raise ValueError("commutation residuals take one-dimensional fields on one grid")
    bx = np.multiply.outer([op.b for op in ops], grid.axis(0))
    hat = np.stack([u.as_complex() for u in data])
    a0_hat = bx * hat  # A(0) u0: the derivative term carries the factor t = 0

    def norms(v: np.ndarray) -> np.ndarray:
        """The grid L2 norm of each row, from the dot product of its float view with itself."""
        f = v.view(np.float64)
        return np.sqrt(np.einsum("ij,ij->i", f, f) * grid.cell_volume)

    denom = norms(a0_hat)
    np.fft.fft(hat, out=hat)
    np.fft.fft(a0_hat, out=a0_hat)
    xi = grid.wavenumbers(0)
    # a (i xi)^(m-1) u0^ per datum, and the real angle Im sigma(xi) of the unit-modulus multiplier
    derived = np.multiply.outer([op.a for op in ops], (1j * xi) ** (degree - 1))
    derived *= hat
    angle = disp.monomial_coefficient.imag * xi**disp.degree
    phase = np.empty(xi.shape, complex)
    evolved, diff = np.empty_like(hat), np.empty_like(hat)
    out = np.empty((len(data), len(times)))
    for j, t in enumerate(times):
        _phase(t, angle, phase, mirrored=disp.degree % 2 == 0)
        np.multiply(derived, t, out=diff)
        diff -= a0_hat
        diff *= phase
        np.fft.ifft(diff, out=diff)
        np.multiply(hat, phase, out=evolved)
        np.fft.ifft(evolved, out=evolved)
        evolved *= bx
        diff += evolved
        out[:, j] = norms(diff)
    return out / np.where(denom == 0.0, 1.0, denom)[:, None]


def commutator_norm(
    op1: CommutingOperator, op2: CommutingOperator, u: SampledField, t: float
) -> float:
    """|| [W_1, W_2] u ||_2 evaluated on the grid."""
    ab = apply_operator(op1, apply_operator(op2, u, t), t)
    ba = apply_operator(op2, apply_operator(op1, u, t), t)
    return l2_norm(ab.with_values(ab.values - ba.values))


# Widths from its center beyond which a packet of ``random_wave_packets`` is exactly 0.
_PACKET_REACH = 40.0


def _packet_factors(x: np.ndarray, centers: np.ndarray, widths: np.ndarray, waves: np.ndarray) -> np.ndarray:
    """``Gaussian(c, w).value(x)`` exp(i k x) on one axis, one row per packet.

    The modulation is cos + i sin of the real angle k x, the bits ``np.exp(1j * k x)`` gives.
    """
    envelope = np.array([Gaussian(c, w).value(x) for c, w in zip(centers, widths)])
    return envelope * _phase(1.0, np.multiply.outer(waves, x))


def random_wave_packets(grid, rng) -> SampledField:
    """Random localized band-limited data for the commutation suites.

    A sum of five complex Gaussian wave packets with widths in [3, 4], centers in
    [-5, 5] and modulations |k0| <= 0.5: effectively band-limited (spectral
    tails below 1e-10) while staying far from the box boundary, so the
    coordinate-multiplication operators see no periodic sawtooth. The rng
    draws (center, width, modulation, then the coefficient, packet by packet)
    keep their order.

    In one dimension the five packets are evaluated in one pass over their
    common window, the nodes within ``_PACKET_REACH`` = 40 widths of some
    center, and added in packet order. Beyond 38.6 widths exp(-z^2/2)
    underflows to exactly 0, so every node left out, and every node of the
    window outside a packet's own reach, adds an exact zero: the samples are
    the bytes an evaluation of each packet at every node gives. In two
    dimensions each packet is the outer product of its two per-axis factors,
    and the field is one matrix product of the coefficient-weighted factors
    of axis 0 with those of axis 1, so no full-grid exponential is formed;
    it differs from the every-node evaluation by rounding.
    """
    draws = [
        (rng.uniform(-5.0, 5.0, grid.dim), rng.uniform(3.0, 4.0, grid.dim), rng.uniform(-0.5, 0.5, grid.dim),
         rng.normal() + 1j * rng.normal())
        for _ in range(5)
    ]
    centers, widths, waves, coefficients = (np.array(column) for column in zip(*draws))
    if grid.dim == 2:
        axes = [_packet_factors(x, centers[:, j], widths[:, j], waves[:, j]) for j, x in enumerate(grid.axes())]
        return SampledField(grid, (coefficients[:, None] * axes[0]).T @ axes[1])
    # the window stays, though every node is shorter to write: each packet at every node read commutation-suite
    # at 104 ms per run against the window's 82 (medians, 13 alternating processes, BLAS pinned, 2-vCPU Xeon)
    x, (c, w, k) = grid.axis(0), (centers[:, 0], widths[:, 0], waves[:, 0])
    lo, hi = (c - _PACKET_REACH * w).min(), (c + _PACKET_REACH * w).max()
    window = slice(np.searchsorted(x, lo), np.searchsorted(x, hi, "right"))
    vals = np.zeros(grid.points, dtype=complex)
    for coefficient, packet in zip(coefficients, _packet_factors(x[window], c, w, k)):
        vals[window] += coefficient * packet
    return SampledField(grid, vals)
