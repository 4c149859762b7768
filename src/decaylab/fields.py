"""Periodic grids, sampled fields, and closed-form initial data.

Everything downstream (transport solutions, Fourier propagators, dyadic
norms) consumes the containers defined here: ``GridSpec`` describes a
uniform periodic grid in one or two dimensions, ``SampledField`` holds
complex or real samples on such a grid, and ``AnalyticField`` subclasses
are initial data that carry their own value/gradient/moment oracles so
transported solutions never need interpolation.

An analytic datum is evaluated one way: ``value(*x)`` and ``gradient(*x)``
take one coordinate array per axis, and the arrays broadcast together, so a
caller passes ``grid.meshgrid()``, or axes shaped to broadcast, and never
stacks points. ``gradient`` returns one array per axis. Sums over axes run
left to right, the order ``np.sum`` uses over a short last axis.

All objects are immutable after construction and every operation is a pure
function; fields may be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SupportOverflowError",
    "OracleUnavailable",
    "GridSpec",
    "SampledField",
    "AnalyticField",
    "Gaussian",
    "BumpLambda",
    "CubeIndicator",
    "product_gaussian_phase",
    "sample",
    "spectral_derivative",
    "l2_norm",
    "linf_norm",
]


class SupportOverflowError(Exception):
    """A datum's essential support is not covered by the requested grid."""


class OracleUnavailable(Exception):
    """The analytic family does not admit the requested closed-form oracle."""


def _as_tuple(value, dim: int, cast=float) -> tuple:
    if np.isscalar(value):
        return (cast(value),) * dim
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} components, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: nodes origin + i*spacing, i = 0..points-1."""

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

    def nodes(self) -> np.ndarray:
        """All grid nodes stacked along a trailing coordinate axis."""
        return np.stack(self.meshgrid(), axis=-1)

    def wavenumbers(self, i: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points[i], d=self.spacing[i])

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
    """Complex or real samples on a periodic grid.

    The field takes the ``values`` array it is given and freezes it: an
    array that is already C-contiguous of the kind's dtype (float64 or
    complex128) is kept as it is, shared and made read-only, so a caller must
    not write to it afterwards; any other input is copied once.
    """

    grid: GridSpec
    values: np.ndarray
    kind: str  # "real" or "complex"

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != tuple(self.grid.points):
            raise ValueError(
                f"value shape {vals.shape} does not match grid points {self.grid.points}"
            )
        if self.kind == "real":
            if np.iscomplexobj(vals):
                if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, np.max(np.abs(vals.real))):
                    raise ValueError("real-kind field has a non-negligible imaginary part")
                vals = vals.real
            dtype = np.float64
        elif self.kind == "complex":
            dtype = np.complex128
        else:
            raise ValueError("kind must be 'real' or 'complex'")
        vals = np.ascontiguousarray(vals, dtype)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values, kind: Optional[str] = None) -> "SampledField":
        return SampledField(self.grid, values, self.kind if kind is None else kind)

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
    return SampledField(grid, datum.value(*grid.meshgrid()), datum.kind)


def l2_norm(field: SampledField) -> float:
    return float(math.sqrt(np.sum(np.abs(field.values) ** 2) * field.grid.cell_volume))


def linf_norm(field: SampledField) -> float:
    return float(np.max(np.abs(field.values)))


def spectral_derivative(field: SampledField, order: int, axis: int = 0) -> SampledField:
    """Differentiate along one axis by multiplying with (i*wavenumber)^order."""
    if order < 0 or order > 6:
        raise ValueError("derivative order must lie in 0..6")
    if order == 0:
        return field
    if axis < 0 or axis >= field.grid.dim:
        raise ValueError("axis out of range")
    k = field.grid.wavenumbers(axis)
    shape = [1] * field.grid.dim
    shape[axis] = k.size
    mult = (1j * k.reshape(shape)) ** order
    spec = np.fft.fft(field.as_complex(), axis=axis)
    spec *= mult
    out = np.fft.ifft(spec, axis=axis, out=spec)
    if field.kind == "real":
        return field.with_values(out.real)
    return field.with_values(out)


# ---------------------------------------------------------------------------
# analytic initial data


class AnalyticField:
    """Closed-form datum with value/gradient oracles.

    ``value(*x)`` and ``gradient(*x)`` take ``ndim`` coordinate arrays, one
    per axis, that broadcast together; the value has their broadcast shape
    and ``gradient`` returns a tuple of ``ndim`` such arrays, the partial
    derivatives in axis order.
    """

    ndim: int = 1
    kind: str = "real"

    def value(self, *x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, *x) -> tuple:
        raise OracleUnavailable(f"{type(self).__name__} has no gradient oracle")

    def support_bounds(self, tol: float = 1e-12):
        """Per-axis (lo, hi) box containing all but ~tol of the datum."""
        raise NotImplementedError

    def feature_scale(self) -> float:
        """Smallest length scale over which the datum varies appreciably."""
        raise NotImplementedError

    def phase_pair_factors(self, d: int):
        """Factorisation into (q_i, p_i) pair fields, or None."""
        return None

    def mass(self):
        raise OracleUnavailable(f"{type(self).__name__} has no mass oracle")


@dataclass(frozen=True)
class Gaussian(AnalyticField):
    """amplitude * exp(-sum (x_i-c_i)^2 / (2 w_i^2)) * exp(i k.x).

    The wavevector modulates the datum (making it complex); with the default
    None the field is real. ``amplitude=0`` gives the zero field.
    """

    center: tuple
    width: tuple
    wavevector: Optional[tuple] = None
    amplitude: float = 1.0

    def __init__(self, center, width, wavevector=None, amplitude=1.0):
        center = (center,) if np.isscalar(center) else tuple(float(c) for c in center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", _as_tuple(width, len(center)))
        if wavevector is not None:
            wavevector = _as_tuple(wavevector, len(center))
            if not any(wavevector):
                wavevector = None
        object.__setattr__(self, "wavevector", wavevector)
        object.__setattr__(self, "amplitude", float(amplitude))
        if any(w <= 0 for w in self.width):
            raise ValueError("Gaussian widths must be positive")

    @property
    def ndim(self) -> int:
        return len(self.center)

    @property
    def kind(self) -> str:
        return "complex" if self.wavevector is not None else "real"

    def value(self, *x):
        # One array of the broadcast shape takes the axis terms in place, left
        # to right, so the sum rounds as a chained sum would, without temporaries.
        out = np.zeros(np.broadcast_shapes(*(np.shape(xi) for xi in x)))
        for xi, c, w in zip(x, self.center, self.width, strict=True):
            out += ((xi - c) / w) ** 2
        out *= -0.5
        np.exp(out, out=out)
        out *= self.amplitude
        if self.wavevector is not None:
            out = out * np.exp(1j * sum(k * xi for k, xi in zip(self.wavevector, x)))
        return out

    def gradient(self, *x):
        v = self.value(*x)
        out = []
        for i, (xi, c, w) in enumerate(zip(x, self.center, self.width)):
            factor = -(xi - c) / w**2
            if self.wavevector is not None:
                factor = factor + 1j * self.wavevector[i]
            out.append(v * factor)
        return tuple(out)

    def support_bounds(self, tol: float = 1e-12):
        c = np.array(self.center)
        if self.amplitude == 0.0:
            return c, c
        r = np.array(self.width) * math.sqrt(2.0 * math.log(1.0 / tol))
        return c - r, c + r

    def feature_scale(self) -> float:
        return min(self.width)

    def mass(self):
        out = self.amplitude * np.prod([w * math.sqrt(2 * math.pi) for w in self.width])
        if self.wavevector is not None:
            k = np.array(self.wavevector)
            w = np.array(self.width)
            c = np.array(self.center)
            out = out * np.exp(-0.5 * np.sum(k**2 * w**2)) * np.exp(1j * np.sum(k * c))
            return complex(out)
        return float(out)

    def subfield(self, axes: Sequence[int], amplitude: Optional[float] = None) -> "Gaussian":
        k = None
        if self.wavevector is not None:
            k = tuple(self.wavevector[a] for a in axes)
        return Gaussian(
            tuple(self.center[a] for a in axes),
            tuple(self.width[a] for a in axes),
            k,
            self.amplitude if amplitude is None else amplitude,
        )

    def phase_pair_factors(self, d: int):
        if self.ndim != 2 * d:
            return None
        factors = [self.subfield((i, d + i), amplitude=1.0) for i in range(d)]
        factors[0] = self.subfield((0, d), amplitude=self.amplitude)
        return factors


def product_gaussian_phase(q_width: float, p_width: float, d: int = 1) -> Gaussian:
    """Phase-space product Gaussian exp(-|q|^2/2qw^2 - |p|^2/2pw^2) over R^{2d}."""
    return Gaussian((0.0,) * (2 * d), (q_width,) * d + (p_width,) * d)


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

    @property
    def ndim(self) -> int:
        return 2

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

    def phase_pair_factors(self, d: int):
        return [self] if d == 1 else None


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

    def feature_scale(self) -> float:
        raise OracleUnavailable("cube indicator is discontinuous")

    def mass(self) -> float:
        return self.side**self.ndim
