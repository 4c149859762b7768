"""Dyadic annulus norms and the classical norms they are compared against.

The dyadic partition is built from a fixed C^2 quintic smoothstep of the
radial coordinate in log2 scale (profile id below); every reported constant
depends on this choice, so reports carry the id. The partition bumps
telescope, which makes the partition-of-unity identity exact on the shell.
Every norm is a plain float. An X norm clips f to the dyadic shell; the share
it clips is ``DyadicPartition.off_shell_fraction``, read by ``check_local_mass``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AnalyticField, GridSpec, SampledField, l2_norm

__all__ = [
    "PARTITION_PROFILE_ID",
    "DyadicPartition",
    "build_dyadic_partition",
    "x_norm",
    "lp_norm",
    "hs_norm",
    "weighted_l2",
    "translated_xnorm_inf",
]

PARTITION_PROFILE_ID = "quintic-smoothstep-log2-v1"


def _quintic_smoothstep(theta: np.ndarray) -> np.ndarray:
    theta = np.clip(theta, 0.0, 1.0)
    return theta**3 * (10.0 - 15.0 * theta + 6.0 * theta**2)


def _radial_cutoff(r: np.ndarray) -> np.ndarray:
    """1 for r <= 1, 0 for r >= 2, C^2 smoothstep of log2 r in between."""
    out = np.ones(r.shape)
    out[r >= 2.0] = 0.0
    mid = (r > 1.0) & (r < 2.0)
    out[mid] = _quintic_smoothstep(1.0 - np.log2(r[mid]))
    return out


@dataclass(frozen=True)
class DyadicPartition:
    """Annular bumps phi_k supported in 2^(k-1) <= |x| <= 2^(k+1)."""

    grid: GridSpec
    k_min: int
    k_max: int
    bumps: np.ndarray  # (k_max - k_min + 1, *grid.points)

    @property
    def k_range(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def off_shell_fraction(self, f: SampledField) -> float:
        """||(1 - sum_k phi_k) f||_2 / ||f||_2, the share of f an X norm clips; 0 for f = 0."""
        total = l2_norm(f)
        return l2_norm(f.with_values((1.0 - self.bumps.sum(axis=0)) * f.values)) / total if total else 0.0


def _check_window(grid: GridSpec, k_min: int, k_max: int) -> None:
    """Raise ``ValueError`` unless the grid resolves and holds the annuli k_min..k_max."""
    if k_max < k_min:
        raise ValueError("empty dyadic window")
    if 2.0**k_min < 4.0 * max(grid.spacing):
        raise ValueError(
            f"grid spacing {max(grid.spacing):.3g} cannot resolve annuli at k_min={k_min}"
        )
    lo, hi = grid.bounds()
    half_extent = float(min(np.minimum(np.abs(lo), np.abs(hi))))
    if 2.0 ** (k_max + 1) > half_extent * (1 + 1e-12):
        raise ValueError(f"annulus k_max={k_max} does not fit in half-extent {half_extent:.3g}")


def build_dyadic_partition(grid: GridSpec, k_min: int, k_max: int) -> DyadicPartition:
    """Bumps phi_k = cutoff(|x|/2^k) - cutoff(|x|/2^(k-1)) for k in [k_min, k_max].

    The telescoping construction sums to exactly 1 on the shell
    2^k_min <= |x| <= 2^k_max, each bump is smooth, nonnegative, supported in
    its dyadic annulus, and only consecutive bumps overlap.
    """
    _check_window(grid, k_min, k_max)
    r = np.sqrt(sum(x**2 for x in grid.meshgrid()))
    bumps = np.stack(
        [_radial_cutoff(r / 2.0**k) - _radial_cutoff(r / 2.0 ** (k - 1)) for k in range(k_min, k_max + 1)]
    )
    return DyadicPartition(grid, k_min, k_max, bumps)


def x_norm(f: SampledField, theta: float, q: float, partition: DyadicPartition) -> float:
    """Dyadic norm: l^q over k of 2^(theta k) ||phi_k f||_L2, for 1 <= q <= inf.

    Mass of f off the partition shell is not counted; the value is then a
    clipped-window norm (see ``DyadicPartition.off_shell_fraction``).
    """
    if f.grid != partition.grid:
        raise ValueError("field and partition live on different grids")
    pieces = np.array([l2_norm(f.with_values(bump * f.values)) for bump in partition.bumps])
    weights = 2.0 ** (theta * np.array(partition.k_range))
    seq = weights * pieces
    if q == math.inf:
        return float(seq.max()) if seq.size else 0.0
    q = float(q)
    if q < 1.0:
        raise ValueError("sequence exponent must satisfy q >= 1")
    return float(np.sum(seq**q) ** (1.0 / q))


def lp_norm(f: SampledField, p: float) -> float:
    """L^p norm by grid quadrature for finite p >= 1; ``linf_norm`` is the sup."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError("p must satisfy 1 <= p < inf")
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p))


def hs_norm(f: SampledField, s: float) -> float:
    """Sobolev norm via the weighted Fourier-side quadrature.

    Normalized so that s = 0 reproduces the grid L2 norm exactly.
    """
    fhat = np.fft.fftn(f.as_complex())
    ksq = np.zeros(f.values.shape)
    for ax in range(f.grid.dim):
        k = f.grid.wavenumbers(ax)
        shape = [1] * f.grid.dim
        shape[ax] = k.size
        ksq = ksq + k.reshape(shape) ** 2
    weight = (1.0 + ksq) ** s
    n_total = float(np.prod(f.grid.points))
    return math.sqrt(float(np.sum(weight * np.abs(fhat) ** 2)) * f.grid.cell_volume / n_total)


def weighted_l2(f: SampledField, power: float) -> float:
    """|| |x|^power f ||_L2.

    For power < 0 the weight is singular at x = 0, and a grid node there is
    treated by this rule:

    - nodes where f = 0 contribute 0;
    - for -d/2 < power < 0 the origin node carries the mean of |x|^(2 power)
      over the ball with the cell's volume, d/(d + 2 power) R^(2 power);
    - for power <= -d/2 the weight is not locally integrable, so if f(0) != 0
      the value is inf.
    """
    rsq = sum(x**2 for x in f.grid.meshgrid())
    if power >= 0.0:
        w = rsq ** (power / 2.0)
    else:
        d = f.grid.dim
        origin = rsq == 0.0
        if power <= -d / 2.0 and np.any(f.values[origin] != 0):
            return math.inf
        w = np.zeros(rsq.shape)
        w[~origin] = rsq[~origin] ** (power / 2.0)
        if power > -d / 2.0:
            radius = (f.grid.cell_volume * math.gamma(d / 2.0 + 1.0) / math.pi ** (d / 2.0)) ** (1.0 / d)
            w[origin] = math.sqrt(d / (d + 2.0 * power)) * radius**power
    return l2_norm(f.with_values(w * np.abs(f.values), "real"))


def translated_xnorm_inf(datum: AnalyticField, theta: float, q: float, partition: DyadicPartition) -> float:
    """Upper bound on inf over shifts y of the X norm of x -> datum(x + y).

    Coarse-to-fine grid search: 3 levels of 17 shifts per axis, each level
    around the best shift so far, on a box of half-width |support centre| + 2
    that shrinks by 8 per level. Each trial shift evaluates the analytic datum
    at the shifted nodes, so translation is exact. Shifts that push the
    support outside the partition grid are skipped.
    """
    grid = partition.grid
    if datum.ndim != grid.dim:
        raise ValueError(f"datum dimension {datum.ndim} != grid dimension {grid.dim}")
    lo, hi = datum.support_bounds(1e-10)
    center = 0.5 * (lo + hi)
    glo, ghi = grid.bounds()
    nodes = grid.meshgrid()

    best_val, best_shift = math.inf, None
    centers = center.copy()
    width = float(np.max(np.abs(center))) + 2.0
    dim = datum.ndim
    coarse = 17
    for _ in range(3):
        axes = [np.linspace(c - width, c + width, coarse) for c in centers]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        for y in mesh:
            if np.any(lo - y < glo) or np.any(hi - y > ghi):
                continue
            fy = SampledField(grid, datum.value(*(x + yi for x, yi in zip(nodes, y))), datum.kind)
            val = x_norm(fy, theta, q, partition)
            if val < best_val:
                best_val, best_shift = val, y.copy()
        if best_shift is None:
            break
        centers = best_shift
        width = 2.0 * width / (coarse - 1)
    if best_shift is None:
        raise ValueError("no admissible shift keeps the support inside the shell")
    return best_val

