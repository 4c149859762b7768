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
conventions through its physical-space residuals. ``Evolution`` takes each
multiplier as cos + i sin of the real angle Im(t sigma), mirrored at an
even degree, and ``Evolution.stream`` forms u(t) at many times in one buffer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .fields import SampledField, _mass_outside, _squared_sum

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
    fields of more than one dimension.

    The symbol is separable and purely imaginary, sigma(xi) = i sum_j
    theta_j(xi_j): one real angle theta_j per axis, shaped to broadcast
    against the spectrum, gives each factor exp(t sigma_j) as cos(t theta_j)
    + i sin(t theta_j), the bits ``np.exp`` gives. At an even degree theta_j
    is even, so it is evaluated on the first n//2 + 1 entries and mirrored.
    """

    def __init__(self, u0: SampledField, disp: DispersionPolynomial):
        grid = self.grid = u0.grid
        if grid.dim > 1 and disp != schrodinger():
            raise ValueError("propagation other than schrodinger() is one-dimensional only")
        self.real = disp.degree % 2 == 1 and u0.kind == "real"
        self._mirrored = disp.degree % 2 == 0
        self._hat = np.fft.rfft(u0.values) if self.real else np.fft.fftn(u0.as_complex())
        # theta_j = Im sigma_j(xi_j) = Im(s) xi_j^m, without a complex array
        s, m = disp.monomial_coefficient.imag, disp.degree
        self._angles = [s * grid.along(j, grid.wavenumbers(j, half=self.real)) ** m for j in range(grid.dim)]

    def spectrum(self, t: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The transform of u(t), laid out as ``rfft`` or ``fftn`` lays it out, in ``out`` if given.

        The multiplier is applied as one factor exp(t sigma_j(xi_j)) per axis;
        in one dimension that factor is formed in ``out`` itself.
        """
        out = np.empty_like(self._hat) if out is None else out
        phases = [_phase(t, theta, out if self.grid.dim == 1 else None, self._mirrored) for theta in self._angles]
        # np.multiply fixes the operand order: numpy may evaluate ``hat * phase``
        # as ``phase * hat`` in place, and the two round differently
        np.multiply(self._hat, phases[0], out=out)
        for phase in phases[1:]:
            out *= phase
        if self.real and self.grid.points[0] % 2 == 0:
            out[-1] = out[-1].real  # real data have a real Nyquist mode; irfft reads only that
        return out

    def stream(self, times: Iterable[float]) -> Iterator[tuple]:
        """(t, u(t)) at each of ``times``, every u(t) a view of one buffer that the next time overwrites.

        The buffer is the spectrum's for complex data, one real array for real
        data. A reader that kept the field or a view of its values is caught by
        the buffer's reference count: a ``RuntimeError`` naming the field's t.
        """
        spec = np.empty_like(self._hat)
        buffer = np.empty(self.grid.points) if self.real else spec
        baseline, formed = sys.getrefcount(buffer), None
        for t in times:
            if sys.getrefcount(buffer) != baseline:
                raise RuntimeError(f"u(t) at t = {formed:g} is still referenced: a read kept its field or a view of it")
            self.spectrum(t, out=spec)
            if self.real:
                np.fft.irfft(spec, n=self.grid.points[0], out=buffer)
            else:
                np.fft.ifftn(spec, out=spec)
            formed = t
            yield t, SampledField(self.grid, buffer.view())


def _phase(t: float, theta: np.ndarray, out: Optional[np.ndarray] = None, mirrored: bool = False) -> np.ndarray:
    """exp(i t theta) as cos + i sin of t theta, shaped as theta, in ``out`` (theta may be ``out.real``).

    ``mirrored``: theta is even on the ``fft`` layout, whose entry n - i holds -xi_i, so only the
    first n//2 + 1 entries are evaluated."""
    out = np.empty(theta.shape, complex) if out is None else out
    flat, angle = out.reshape(-1), theta.reshape(-1)
    n = angle.size
    m = n // 2 + 1 if mirrored else n
    head = flat[:m]
    np.multiply(t, angle[:m], out=head.real)
    np.sin(head.real, out=head.imag)
    np.cos(head.real, out=head.real)
    flat[m:] = flat[n - m : 0 : -1]
    return out


def edge_mass_fraction(field: SampledField) -> float:
    """Fraction of L2 mass within 2.5% of the box length of the periodic boundary.

    An experiment flags a propagated sample as wrap-around contaminated when
    this exceeds 1e-6 and excludes it from fits. The total and each edge
    strip are dot products of their own samples, so no mask is formed.
    """
    total = _squared_sum(field.values)
    if total == 0.0:
        return 0.0
    edges = (max(1, int(round(0.025 * n))) for n in field.grid.points)
    interior = tuple(slice(e, n - e) for e, n in zip(edges, field.grid.points))
    return _mass_outside(field.values, interior) / total
