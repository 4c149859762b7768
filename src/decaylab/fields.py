"""Periodic grids, sampled fields, and closed-form initial data.

Everything downstream (transport quadratures, Fourier propagators, dyadic
norms) consumes the containers defined here: ``GridSpec`` describes a
uniform periodic grid in one or two dimensions, ``SampledField`` holds
samples on such a grid, complex or real as their values are, and
``AnalyticField`` subclasses are initial data that carry their own
closed-form value oracle, so transported solutions never need
interpolation. ``BumpLambda`` alone also carries a gradient oracle, for the
gradient norm of the concentration counterexample.

``GridSpec.axis``, ``along`` and ``wavenumbers(i, half)`` are the one source
of per-axis arrays. An analytic datum is evaluated one way: ``value(*x)``
(and ``BumpLambda.gradient(q, p)``) take one coordinate array per axis, the
arrays broadcasting together, so a caller passes ``grid.meshgrid()`` or
``grid.along(i, grid.axis(i))`` and never stacks points. ``gradient`` returns
one array per axis. Sums over axes run left to right, the order ``np.sum``
uses over a short last axis.

All objects are immutable after construction and every operation is a pure
function; fields may be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupportOverflowError",
    "GridSpec",
    "SampledField",
    "AnalyticField",
    "Gaussian",
    "BumpLambda",
    "CubeIndicator",
    "sample",
    "spectral_derivative",
    "l2_norm",
    "linf_norm",
]


class SupportOverflowError(Exception):
    """A datum's essential support is not covered by the requested grid."""


def _as_tuple(value, dim: int, cast=float) -> tuple:
    if np.isscalar(value):
        return (cast(value),) * dim
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} components, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: nodes origin + i*spacing, i = 0..points-1.

    ``axis(i)``, ``along(i, v)`` (a 1-d v shaped to broadcast along axis i) and ``wavenumbers(i, half)`` (2 pi
    fftfreq, laid out as ``rfft`` lays it out when ``half``) are the one source of per-axis arrays."""

    dim: int
    origin: tuple
    extent: tuple
    points: tuple

    def __init__(self, dim, origin, extent, points):
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "origin", _as_tuple(origin, self.dim))
        object.__setattr__(self, "extent", _as_tuple(extent, self.dim))
        object.__setattr__(self, "points", _as_tuple(points, self.dim, int))
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        for ext, n in zip(self.extent, self.points):
            if ext <= 0.0:
                raise ValueError("grid extent must be positive")
            if n < 8:
                raise ValueError("need at least 8 points per axis")

    @classmethod
    def centered(cls, half_width, points, dim: int = 1) -> "GridSpec":
        half = _as_tuple(half_width, dim)
        return cls(dim, tuple(-h for h in half), tuple(2 * h for h in half), points)

    @property
    def spacing(self) -> tuple:
        return tuple(e / n for e, n in zip(self.extent, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, i: int) -> np.ndarray:
        return self.origin[i] + self.spacing[i] * np.arange(self.points[i])

    def axes(self) -> list:
        return [self.axis(i) for i in range(self.dim)]

    def meshgrid(self) -> tuple:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def along(self, i: int, v: np.ndarray) -> np.ndarray:
        return v.reshape([-1 if j == i else 1 for j in range(self.dim)])

    def wavenumbers(self, i: int, half: bool = False) -> np.ndarray:
        return 2.0 * np.pi * (np.fft.rfftfreq if half else np.fft.fftfreq)(self.points[i], d=self.spacing[i])

    def bounds(self) -> tuple:
        lo = np.array(self.origin)
        hi = lo + np.array(self.extent)
        return lo, hi

    def contains_box(self, lo, hi, slack: float = 1e-12) -> bool:
        glo, ghi = self.bounds()
        lo = np.atleast_1d(np.asarray(lo, float))
        hi = np.atleast_1d(np.asarray(hi, float))
        pad = slack * (ghi - glo)
        return bool(np.all(lo >= glo - pad) and np.all(hi <= ghi + pad))


@dataclass(frozen=True)
class SampledField:
    """Samples on a periodic grid, complex or real as their values are.

    The field takes the ``values`` array it is given and freezes it: complex
    input as complex128, any other as float64. An array that is already
    C-contiguous of that dtype is kept as it is, shared and made read-only,
    so a caller must not write to it afterwards; any other input is copied
    once. ``kind`` reads the dtype back: "complex" or "real".
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != tuple(self.grid.points):
            raise ValueError(
                f"value shape {vals.shape} does not match grid points {self.grid.points}"
            )
        vals = np.ascontiguousarray(vals, np.complex128 if np.iscomplexobj(vals) else np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def kind(self) -> str:
        return "complex" if np.iscomplexobj(self.values) else "real"

    def with_values(self, values) -> "SampledField":
        return SampledField(self.grid, values)

    def as_complex(self) -> np.ndarray:
        """The samples as complex128: the frozen ``values`` themselves for a
        complex field, a fresh writable copy for a real one."""
        if self.kind == "complex":
            return self.values
        return self.values.astype(np.complex128)


def _check_support(datum: "AnalyticField", grid: GridSpec) -> None:
    """Raise ``SupportOverflowError`` when the datum's essential support
    (mass fraction below 1e-10 outside) pokes out of the grid box."""
    bounds = datum.support_bounds(1e-10)
    if bounds is not None and not grid.contains_box(*bounds):
        raise SupportOverflowError(f"datum support {bounds} not inside grid box {grid.bounds()}")


def sample(datum: "AnalyticField", grid: GridSpec) -> SampledField:
    """Evaluate an analytic datum at every grid node; ``_check_support`` guards the box."""
    if datum.ndim != grid.dim:
        raise ValueError(f"datum dimension {datum.ndim} != grid dimension {grid.dim}")
    _check_support(datum, grid)
    return SampledField(grid, datum.value(*grid.meshgrid()))


def l2_norm(field: SampledField) -> float:
    return float(math.sqrt(np.sum(np.abs(field.values) ** 2) * field.grid.cell_volume))


def linf_norm(field: SampledField) -> float:
    return float(np.max(np.abs(field.values)))


def _squared_sum(values: np.ndarray) -> float:
    """sum |values|^2 by one dot product, with no |values|^2 array formed."""
    return float(np.vdot(values, values).real)


def _mass_outside(values: np.ndarray, box: tuple) -> float:
    """sum |values|^2 outside ``box`` (one index slice per axis), summed from the complement's
    own slices, never as total - inside, so a small outside mass keeps its digits."""
    mass, inner = 0.0, values
    for ax, inside in enumerate(box):
        head = (slice(None),) * ax
        mass += _squared_sum(inner[(*head, slice(None, inside.start))])
        mass += _squared_sum(inner[(*head, slice(inside.stop, None))])
        inner = inner[(*head, inside)]
    return mass


def spectral_derivative(field: SampledField, order: int, axis: int = 0) -> SampledField:
    """Differentiate along one axis by multiplying with (i*wavenumber)^order.

    A real field goes through ``rfft`` and ``irfft``, so half the spectrum is
    formed and the derivative is real by construction.
    """
    if order < 0 or order > 6:
        raise ValueError("derivative order must lie in 0..6")
    if order == 0:
        return field
    if axis < 0 or axis >= field.grid.dim:
        raise ValueError("axis out of range")
    grid, real = field.grid, field.kind == "real"
    spec = (np.fft.rfft if real else np.fft.fft)(field.values, axis=axis)
    spec *= (1j * grid.along(axis, grid.wavenumbers(axis, half=real))) ** order
    if real:
        return field.with_values(np.fft.irfft(spec, n=grid.points[axis], axis=axis))
    return field.with_values(np.fft.ifft(spec, axis=axis, out=spec))


# ---------------------------------------------------------------------------
# analytic initial data


class AnalyticField:
    """Base of the closed-form data. Each subclass defines ``value(*x)``, on one
    coordinate array per axis, the arrays broadcasting together; ``support_bounds(tol)``,
    the per-axis (lo, hi) box holding all but ~tol of the datum; and ``feature_scale()``,
    the smallest length over which it varies, or None if it jumps and no length
    resolves it. Data that ``sample`` puts on a grid also define ``ndim``, their axis count.
    """


def _scaled_square(x, c: float, w: float, out=None):
    """((x - c) / w)^2 formed in place, in ``out`` if given; x - 0 is x exactly, so a zero c is not subtracted."""
    if c == 0.0:
        term = np.divide(x, w, out=out)
    else:
        term = np.subtract(x, c, out=out)
        term /= w
    term *= term
    return term


@dataclass(frozen=True)
class Gaussian(AnalyticField):
    """exp(-sum (x_i-c_i)^2 / (2 w_i^2)), a real datum."""

    center: tuple
    width: tuple

    def __init__(self, center, width):
        center = (center,) if np.isscalar(center) else tuple(float(c) for c in center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", _as_tuple(width, len(center)))
        if any(w <= 0 for w in self.width):
            raise ValueError("Gaussian widths must be positive")

    @property
    def ndim(self) -> int:
        return len(self.center)

    def value(self, *x):
        # The first axis term is formed in the output array, each later one in one
        # temporary of its own shape and added in place, left to right: the sum
        # rounds as a chained sum would, with no zero fill.
        out = np.empty(np.broadcast(*x).shape)
        _scaled_square(x[0], self.center[0], self.width[0], out)
        for xi, c, w in zip(x[1:], self.center[1:], self.width[1:], strict=True):
            out += _scaled_square(xi, c, w)
        out *= -0.5
        np.exp(out, out=out)
        return out

    def support_bounds(self, tol: float = 1e-12):
        c = np.array(self.center)
        r = np.array(self.width) * math.sqrt(2.0 * math.log(1.0 / tol))
        return c - r, c + r

    def feature_scale(self) -> float:
        return min(self.width)


# Bump profile: identically 1 on the unit disc, 0 outside radius 2, with an
# infinitely smooth monotone transition built from exp(-1/theta).

BUMP_PROFILE_ID = "exp-smoothstep-r1-r2-v1"


def _smoothstep_exp(theta: np.ndarray) -> np.ndarray:
    a = np.exp(-1.0 / theta)
    b = np.exp(-1.0 / (1.0 - theta))
    return a / (a + b)


def _smoothstep_exp_deriv(theta: np.ndarray) -> np.ndarray:
    a = np.exp(-1.0 / theta)
    b = np.exp(-1.0 / (1.0 - theta))
    return a * b * (theta**-2 + (1.0 - theta) ** -2) / (a + b) ** 2


def bump_profile(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    out[mid] = _smoothstep_exp(2.0 - r[mid])
    return out


def bump_profile_deriv(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    mid = (r > 1.0) & (r < 2.0)
    out[mid] = -_smoothstep_exp_deriv(2.0 - r[mid])
    return out


@dataclass(frozen=True)
class BumpLambda(AnalyticField):
    """Concentrating phase-space bump lam * phi(lam*q, lam*p) on R^2.

    phi is the fixed radial profile above: 1 on the unit disc, 0 outside
    radius 2. Larger ``lam`` concentrates the datum while its gradient L1
    norm stays constant by scaling.
    """

    lam: float

    def __post_init__(self):
        if self.lam < 1.0:
            raise ValueError("bump scale must satisfy lam >= 1")

    def value(self, q, p):
        r = self.lam * np.sqrt(q**2 + p**2)
        return self.lam * bump_profile(r)

    def gradient(self, q, p):
        rho = np.sqrt(q**2 + p**2)
        radial = self.lam**2 * bump_profile_deriv(self.lam * rho)
        safe = np.where(rho > 0.0, rho, 1.0)
        return radial * (q / safe), radial * (p / safe)

    def support_bounds(self, tol: float = 1e-12):
        r = 2.0 / self.lam
        return np.array([-r, -r]), np.array([r, r])

    def feature_scale(self) -> float:
        # transition occupies r in (1,2)/lam with peak slope ~2*lam; the
        # exp smoothstep needs a few extra nodes for 1e-8 quadratures
        return 0.075 / self.lam


@dataclass(frozen=True)
class CubeIndicator(AnalyticField):
    """Characteristic function of the cube of side ``side`` around ``center``."""

    center: tuple
    side: float

    def __init__(self, center, side):
        center = (center,) if np.isscalar(center) else tuple(float(c) for c in center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "side", float(side))
        if self.side <= 0:
            raise ValueError("cube side must be positive")

    @property
    def ndim(self) -> int:
        return len(self.center)

    def value(self, *x):
        inside = [np.abs(xi - c) <= 0.5 * self.side for xi, c in zip(x, self.center, strict=True)]
        return functools.reduce(np.logical_and, inside).astype(float)

    def support_bounds(self, tol: float = 1e-12):
        c = np.array(self.center)
        h = 0.5 * self.side
        return c - h, c + h

    def feature_scale(self) -> None:
        return None  # it jumps; no length resolves it

    def mass(self) -> float:
        return self.side**self.ndim
