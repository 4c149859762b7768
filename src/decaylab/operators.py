"""Commuting operators for the dispersive propagators.

Two operator shapes cover everything this package needs:

* the Schrodinger boost per axis j,  u -> t d_j u + (i/2) x_j u, and
* the monomial boost  u -> a t d^(m-1) u + b x u  for a degree-m evolution.

``derive_commuting_operator`` does not look coefficients up in a table: it
solves the linear symbol-side condition  a (i xi)^(m-1) + i b sigma'(xi) = 0
(with the normalization a = m) and verifies that the residual vanishes
identically in xi, which pins the sign conventions of the propagators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
    "commutation_residual",
    "conserved_operator_norm",
    "commutator_norm",
]


class NoCommutingOperatorError(Exception):
    """The symbol-side commutation condition has no solution (normalization bug)."""


@dataclass(frozen=True)
class CommutingOperator:
    """Structured coefficients of a first-order-in-t commuting operator."""

    kind: str  # "schrodinger_boost" | "monomial_boost"
    axis: int = 0
    degree: int = 2
    a: complex = 0.0
    b: complex = 0.0


def schrodinger_boost(axis: int = 0) -> CommutingOperator:
    return CommutingOperator("schrodinger_boost", axis=axis)


def monomial_boost(degree: int, a: complex, b: complex) -> CommutingOperator:
    return CommutingOperator("monomial_boost", degree=degree, a=complex(a), b=complex(b))


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
    """Linear action via spectral derivatives and coordinate multiplication."""
    if op.kind == "schrodinger_boost":
        du = spectral_derivative(SampledField(u.grid, u.as_complex(), "complex"), 1, axis=op.axis)
        vals = t * du.values + 0.5j * _coordinate(u, op.axis) * u.as_complex()
        return SampledField(u.grid, vals, "complex")
    if op.kind == "monomial_boost":
        if u.grid.dim != 1:
            raise ValueError("monomial boosts act on one-dimensional fields")
        du = spectral_derivative(SampledField(u.grid, u.as_complex(), "complex"), op.degree - 1)
        vals = op.a * t * du.values + op.b * _coordinate(u, 0) * u.as_complex()
        return SampledField(u.grid, vals, "complex")
    raise ValueError(f"unknown operator kind {op.kind!r}")


def commutation_residual(
    op: CommutingOperator, disp: DispersionPolynomial, u0: SampledField, t: float
) -> Tuple[float, bool]:
    """|| A(t) U(t) u0 - U(t) A(0) u0 ||_2, relative to || A(0) u0 ||_2.

    Returns (residual, relative). When the denominator vanishes the absolute
    residual is returned with relative=False.
    """
    a0 = apply_operator(op, u0, 0.0)
    left = apply_operator(op, Evolution(u0, disp).at(t), t)
    right = Evolution(a0, disp).at(t)
    diff = left.as_complex() - right.as_complex()
    num = math.sqrt(float(np.sum(np.abs(diff) ** 2)) * u0.grid.cell_volume)
    denom = l2_norm(a0)
    if denom == 0.0:
        return num, False
    return num / denom, True


def conserved_operator_norm(
    u0: SampledField,
    ops: Sequence[Tuple[CommutingOperator, int]],
    disp: DispersionPolynomial,
    times: Sequence[float],
) -> np.ndarray:
    """|| W^alpha u(t) ||_2 over times; constant for commuting operators.

    ``ops`` pairs each operator with its multiplicity, realizing the
    multi-index power W^alpha = W_1^a1 ... W_d^ad applied at time t.
    """
    evolution = Evolution(u0, disp)
    out = []
    for t in times:
        u = evolution.at(float(t))
        for op, power in ops:
            for _ in range(int(power)):
                u = apply_operator(op, u, float(t))
        out.append(l2_norm(u))
    return np.array(out)


def commutator_norm(
    op1: CommutingOperator, op2: CommutingOperator, u: SampledField, t: float
) -> float:
    """|| [W_1, W_2] u ||_2 evaluated on the grid."""
    ab = apply_operator(op1, apply_operator(op2, u, t), t)
    ba = apply_operator(op2, apply_operator(op1, u, t), t)
    diff = ab.as_complex() - ba.as_complex()
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * u.grid.cell_volume)


def random_wave_packets(grid, rng, packets: int = 5) -> SampledField:
    """Random localized band-limited data for the commutation suites.

    A sum of complex Gaussian wave packets with widths in [3, 4], centers in
    [-5, 5] and modulations |k0| <= 0.5: effectively band-limited (spectral
    tails below 1e-10) while staying far from the box boundary, so the
    coordinate-multiplication operators see no periodic sawtooth.
    """
    nodes = grid.nodes()
    vals = np.zeros(grid.points, dtype=complex)
    for _ in range(packets):
        g = Gaussian(
            tuple(rng.uniform(-5.0, 5.0, grid.dim)),
            tuple(rng.uniform(3.0, 4.0, grid.dim)),
            tuple(rng.uniform(-0.5, 0.5, grid.dim)),
        )
        vals += (rng.normal() + 1j * rng.normal()) * g.value(nodes)
    return SampledField(grid, vals, "complex")
