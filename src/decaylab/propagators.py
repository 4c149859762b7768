"""Exact-in-time Fourier multiplier propagators on periodic grids.

Sign conventions (with the transform u^(xi) = int u(x) exp(-i xi x) dx):

* free Schrodinger, d_t u + i Lap u = 0     -> multiplier exp(+i t |xi|^2)
* Airy,            d_t u - d_xxx u = 0      -> multiplier exp(-i t xi^3)
* even order 2k,   i d_t u + d^{2k} u = 0   -> multiplier exp(i (-1)^k t xi^2k)

A ``DispersionPolynomial`` is the symbol sigma(xi) = s xi^m itself: its
monomial coefficient s, nonzero and purely imaginary, and its degree m >= 2.
So every multiplier exp(t sigma) has unit modulus, mass and every
Fourier-side norm are conserved exactly, and the only numerical error
sources are spatial truncation and wrap-around, which the guard below
monitors. The commutation suite (``commutation-suite``) pins these
conventions through its physical-space residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SampledField

__all__ = [
    "DispersionPolynomial",
    "schrodinger",
    "airy",
    "even_order",
    "Evolution",
    "edge_mass_fraction",
]


@dataclass(frozen=True)
class DispersionPolynomial:
    """The 1-d evolution symbol sigma(xi) = monomial_coefficient * xi^degree."""

    monomial_coefficient: complex
    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("dispersion degree must be >= 2")
        s = complex(self.monomial_coefficient)
        if s.real != 0.0 or s.imag == 0.0:
            raise ValueError("the monomial coefficient must be nonzero and purely imaginary")

    def symbol_1d(self, xi: np.ndarray) -> np.ndarray:
        return self.monomial_coefficient * xi**self.degree


def schrodinger() -> DispersionPolynomial:
    return DispersionPolynomial(1j, 2)


def airy() -> DispersionPolynomial:
    return DispersionPolynomial(-1j, 3)


def even_order(k: int) -> DispersionPolynomial:
    return DispersionPolynomial(1j * (-1.0) ** int(k), 2 * int(k))


class Evolution:
    """u(t) = U(t) u0 through the unit-modulus multiplier, from one transform of u0.

    Real data under an odd degree keep the half spectrum of ``rfft``:
    sigma(-xi) is the conjugate of sigma(xi), so u(t) stays real. All other
    data keep the full ``fftn`` spectrum. Only ``schrodinger()`` evolves
    fields of more than one dimension. ``wavenumbers`` holds one array per
    axis, shaped to broadcast against ``spectrum(t)``.
    """

    def __init__(self, u0: SampledField, disp: DispersionPolynomial):
        grid = self.grid = u0.grid
        if grid.dim > 1 and disp != schrodinger():
            raise ValueError("propagation other than schrodinger() is one-dimensional only")
        self.real = disp.degree % 2 == 1 and u0.kind == "real"
        if self.real:
            self.wavenumbers = (2.0 * np.pi * np.fft.rfftfreq(grid.points[0], d=grid.spacing[0]),)
            self._hat = np.fft.rfft(u0.values)
        else:
            axes = (grid.wavenumbers(i) for i in range(grid.dim))
            self.wavenumbers = np.meshgrid(*axes, indexing="ij", sparse=True)
            self._hat = np.fft.fftn(u0.as_complex())
        # the symbol is separable, sigma(xi) = sum_j sigma_j(xi_j): one 1-d symbol per axis
        self._symbols = [disp.symbol_1d(k) for k in self.wavenumbers]

    def spectrum(self, t: float) -> np.ndarray:
        """The transform of u(t), laid out as ``rfft`` or ``fftn`` lays it out.

        The multiplier is applied as one factor exp(t sigma_j(xi_j)) per axis,
        so no exponential of a full-grid phase is taken.
        """
        # np.multiply fixes the operand order: numpy may evaluate ``hat * tmp``
        # as ``tmp * hat`` in place, and the two round differently
        out = np.multiply(self._hat, np.exp(t * self._symbols[0]))
        for symbol in self._symbols[1:]:
            out *= np.exp(t * symbol)
        if self.real and self.grid.points[0] % 2 == 0:
            out[-1] = out[-1].real  # real data have a real Nyquist mode; irfft reads only that
        return out

    def at(self, t: float) -> SampledField:
        spec = self.spectrum(t)
        if self.real:
            return SampledField(self.grid, np.fft.irfft(spec, n=self.grid.points[0]))
        return SampledField(self.grid, np.fft.ifftn(spec, out=spec))


def edge_mass_fraction(field: SampledField) -> float:
    """Fraction of L2 mass within 2.5% of the box length of the periodic boundary.

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
        edge = max(1, int(round(0.025 * n)))
        idx = [slice(None)] * field.grid.dim
        idx[ax] = slice(0, edge)
        mask[tuple(idx)] = True
        idx[ax] = slice(n - edge, n)
        mask[tuple(idx)] = True
    return float(w[mask].sum()) / total

