"""Spectral test helpers: complex and modulated samples, u(t) at one time, and the symbol oracle.

The library keeps analytic data real and forms u(t) only inside a stream, so
the tests build what they need from those parts here: complex data as a
sampled datum held as complex or multiplied by exp(i k.x), one u(t) as a
one-time ``Evolution.stream``, and sigma(xi) = s xi^m written out.
"""

import numpy as np

from decaylab.fields import sample


def complex_sample(datum, grid):
    """The datum sampled on the grid, held as a complex field."""
    f = sample(datum, grid)
    return f.with_values(f.values.astype(np.complex128))


def modulation(wavevector, *x):
    """exp(i k.x) on one coordinate array per axis, the phase summed left to right."""
    return np.exp(1j * sum(k * xi for k, xi in zip(wavevector, x, strict=True)))


def modulated_sample(datum, grid, wavevector):
    """The datum sampled on the grid times exp(i k.x): a complex wave packet, one k per axis."""
    f = sample(datum, grid)
    return f.with_values(f.values * modulation(wavevector, *grid.meshgrid()))


def field_at(evolution, t):
    """u(t), a fresh field at every call: the field of a one-time stream."""
    ((_, ut),) = evolution.stream([t])
    return ut


def symbol(disp, xi):
    """sigma(xi) = s xi^m of a ``DispersionPolynomial``, complex, as the multiplier exp(t sigma) takes it."""
    return disp.monomial_coefficient * xi**disp.degree
