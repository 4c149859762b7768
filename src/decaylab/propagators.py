"""Exact-in-time Fourier multiplier propagators on periodic grids.

Sign conventions (with the transform u^(xi) = int u(x) exp(-i xi x) dx):

* free Schrodinger, d_t u + i Lap u = 0     -> multiplier exp(+i t |xi|^2)
* Airy,            d_t u - d_xxx u = 0      -> multiplier exp(-i t xi^3)
* even order 2k,   i d_t u + d^{2k} u = 0   -> multiplier exp(i (-1)^k t xi^2k)

All multipliers have unit modulus, so mass and every Fourier-side norm are
conserved exactly; the only numerical error sources are spatial truncation
and wrap-around, which the guard below monitors. The commutation tests in
the operators module pin these conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import SampledField, l2_norm

__all__ = [
    "DispersionPolynomial",
    "schrodinger",
    "airy",
    "even_order",
    "Evolution",
    "group_property_check",
    "edge_mass_fraction",
]


@dataclass(frozen=True)
class DispersionPolynomial:
    """Constant-coefficient evolution fixed by a named normalization."""

    normalization: str  # "schrodinger" | "airy" | "even_order"
    degree: int

    def __post_init__(self):
        if self.normalization == "schrodinger" and self.degree != 2:
            raise ValueError("the Schrodinger normalization has degree 2")
        if self.normalization == "airy" and self.degree != 3:
            raise ValueError("the Airy normalization has degree 3")
        if self.normalization == "even_order" and (self.degree < 2 or self.degree % 2):
            raise ValueError("the even-order family needs degree 2k >= 2")
        if self.degree < 2:
            raise ValueError("dispersion degree must be >= 2")

    @property
    def monomial_coefficient(self) -> complex:
        """s such that the 1-d evolution symbol is sigma(xi) = s * xi^degree."""
        if self.normalization == "schrodinger":
            return 1j
        if self.normalization == "airy":
            return -1j
        k = self.degree // 2
        return 1j * (-1.0) ** k

    def symbol_1d(self, xi: np.ndarray) -> np.ndarray:
        return self.monomial_coefficient * xi**self.degree


def schrodinger() -> DispersionPolynomial:
    return DispersionPolynomial("schrodinger", 2)


def airy() -> DispersionPolynomial:
    return DispersionPolynomial("airy", 3)


def even_order(k: int) -> DispersionPolynomial:
    return DispersionPolynomial("even_order", 2 * int(k))


class Evolution:
    """u(t) = U(t) u0 through the unit-modulus multiplier, from one transform of u0.

    Real Airy data keep the half spectrum of ``rfft``: sigma(-xi) is the
    conjugate of sigma(xi), so u(t) stays real. All other data keep the full
    ``fftn`` spectrum. ``wavenumbers`` holds one array per axis, shaped to
    broadcast against ``spectrum(t)``.
    """

    def __init__(self, u0: SampledField, disp: DispersionPolynomial):
        grid = self.grid = u0.grid
        if grid.dim > 1 and disp.normalization != "schrodinger":
            raise ValueError(f"{disp.normalization} propagation is one-dimensional only")
        self.real = disp.normalization == "airy" and u0.kind == "real"
        if self.real:
            self.wavenumbers = (2.0 * np.pi * np.fft.rfftfreq(grid.points[0], d=grid.spacing[0]),)
            self._hat = np.fft.rfft(u0.values)
        else:
            axes = (grid.wavenumbers(i) for i in range(grid.dim))
            self.wavenumbers = np.meshgrid(*axes, indexing="ij", sparse=True)
            self._hat = np.fft.fftn(u0.as_complex())
        self._symbol = sum(disp.symbol_1d(k) for k in self.wavenumbers)  # separable symbol

    def spectrum(self, t: float) -> np.ndarray:
        """The transform of u(t), laid out as ``rfft`` or ``fftn`` lays it out."""
        # np.multiply fixes the operand order: numpy may evaluate ``hat * tmp``
        # as ``tmp * hat`` in place, and the two round differently
        out = np.multiply(self._hat, np.exp(t * self._symbol))
        if self.real and self.grid.points[0] % 2 == 0:
            out[-1] = out[-1].real  # real data have a real Nyquist mode; irfft reads only that
        return out

    def at(self, t: float) -> SampledField:
        spec = self.spectrum(t)
        if self.real:
            return SampledField(self.grid, np.fft.irfft(spec, n=self.grid.points[0]), "real")
        return SampledField(self.grid, np.fft.ifftn(spec), "complex")


def group_property_check(u0: SampledField, disp: DispersionPolynomial, s: float, t: float) -> float:
    """|| U(s+t) u0 - U(t) U(s) u0 ||_2 / || u0 ||_2."""
    evolution = Evolution(u0, disp)
    direct = evolution.at(s + t)
    stepped = Evolution(evolution.at(s), disp).at(t)
    diff = direct.as_complex() - stepped.as_complex()
    denom = l2_norm(u0)
    if denom == 0.0:
        return 0.0
    num = math.sqrt(float(np.sum(np.abs(diff) ** 2)) * u0.grid.cell_volume)
    return num / denom


def edge_mass_fraction(field: SampledField, band: float = 0.05) -> float:
    """Fraction of L2 mass within ``band`` of the periodic box boundary.

    An experiment flags a propagated sample as wrap-around contaminated when
    this exceeds 1e-6 and excludes it from fits.
    """
    w = np.abs(field.values) ** 2
    total = float(w.sum())
    if total == 0.0:
        return 0.0
    mask = np.zeros(field.values.shape, dtype=bool)
    for ax in range(field.grid.dim):
        n = field.grid.points[ax]
        edge = max(1, int(round(0.5 * band * n)))
        idx = [slice(None)] * field.grid.dim
        idx[ax] = slice(0, edge)
        mask[tuple(idx)] = True
        idx[ax] = slice(n - edge, n)
        mask[tuple(idx)] = True
    return float(w[mask].sum()) / total

