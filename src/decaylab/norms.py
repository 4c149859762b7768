"""Dyadic annulus norms and the classical norms they are compared against.

The dyadic partition is built from a fixed C^2 quintic smoothstep of the
radial coordinate in log2 scale (profile id below); every reported constant
depends on this choice, so reports carry the id. The partition bumps
telescope, which makes the partition-of-unity identity exact on the shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import AnalyticField, GridSpec, SampledField

__all__ = [
    "PARTITION_PROFILE_ID",
    "DyadicPartition",
    "build_dyadic_partition",
    "NormValue",
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
    profile_id: str = PARTITION_PROFILE_ID

    @property
    def k_range(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def shell_sum(self) -> np.ndarray:
        return self.bumps.sum(axis=0)


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


@dataclass(frozen=True)
class NormValue:
    """A computed norm with the metadata needed to reproduce it."""

    kind: str
    value: float
    k_range: Optional[tuple] = None
    truncated: bool = False
    detail: tuple = ()


def _grid_l2(values: np.ndarray, grid: GridSpec) -> float:
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume)


def x_norm(f: SampledField, theta: float, q, partition: DyadicPartition) -> NormValue:
    """Dyadic norm: l^q over k of 2^(theta k) ||phi_k f||_L2.

    Sets the truncation flag when more than 1e-10 of the L2 mass of f sits
    outside the partition shell (the value is then a clipped-window norm).
    """
    if f.grid != partition.grid:
        raise ValueError("field and partition live on different grids")
    pieces = np.array(
        [_grid_l2(bump * f.values, f.grid) for bump in partition.bumps]
    )
    weights = 2.0 ** (theta * np.arange(partition.k_min, partition.k_max + 1))
    seq = weights * pieces
    if q == math.inf or q == "inf":
        value = float(seq.max()) if seq.size else 0.0
    else:
        q = float(q)
        if q < 1.0:
            raise ValueError("sequence exponent must satisfy q >= 1")
        value = float(np.sum(seq**q) ** (1.0 / q))
    total = _grid_l2(f.values, f.grid)
    off_shell = _grid_l2((1.0 - partition.shell_sum()) * f.values, f.grid)
    truncated = total > 0 and off_shell / total > 1e-10
    return NormValue(
        kind=f"X({theta},{q})",
        value=value,
        k_range=(partition.k_min, partition.k_max),
        truncated=truncated,
        detail=(("off_shell_fraction", off_shell / total if total else 0.0),),
    )


def lp_norm(f: SampledField, p) -> NormValue:
    """L^p norm by grid quadrature; p = inf is the max over nodes."""
    if p == math.inf or p == "inf":
        return NormValue("Linf", float(np.max(np.abs(f.values))))
    p = float(p)
    if p < 1.0:
        raise ValueError("p must satisfy p >= 1")
    value = float((np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p))
    return NormValue(f"L{p:g}", value)


def hs_norm(f: SampledField, s: float) -> NormValue:
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
    value = math.sqrt(float(np.sum(weight * np.abs(fhat) ** 2)) * f.grid.cell_volume / n_total)
    return NormValue(f"H{s:g}", value)


def weighted_l2(f: SampledField, power: float) -> NormValue:
    """|| |x|^power f ||_L2.

    For power < 0 the weight is singular at x = 0, and a grid node there is
    treated by this rule:

    - nodes where f = 0 contribute 0;
    - for -d/2 < power < 0 the origin node carries the mean of |x|^(2 power)
      over the ball with the cell's volume, d/(d + 2 power) R^(2 power);
    - for power <= -d/2 the weight is not locally integrable, so if f(0) != 0
      the value is inf, with ("singular_weight", "non-integrable") in
      ``detail``.
    """
    kind = f"wabs^{power:g}-L2"
    rsq = sum(x**2 for x in f.grid.meshgrid())
    if power >= 0.0:
        w = rsq ** (power / 2.0)
    else:
        d = f.grid.dim
        origin = rsq == 0.0
        if power <= -d / 2.0 and np.any(f.values[origin] != 0):
            return NormValue(kind, math.inf, detail=(("singular_weight", "non-integrable"),))
        w = np.zeros(rsq.shape)
        w[~origin] = rsq[~origin] ** (power / 2.0)
        if power > -d / 2.0:
            radius = (f.grid.cell_volume * math.gamma(d / 2.0 + 1.0) / math.pi ** (d / 2.0)) ** (1.0 / d)
            w[origin] = math.sqrt(d / (d + 2.0 * power)) * radius**power
    return NormValue(kind, _grid_l2(w * np.abs(f.values), f.grid))


def translated_xnorm_inf(datum: AnalyticField, theta: float, q, partition: DyadicPartition) -> NormValue:
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
            val = x_norm(fy, theta, q, partition).value
            if val < best_val:
                best_val, best_shift = val, y.copy()
        if best_shift is None:
            break
        centers = best_shift
        width = 2.0 * width / (coarse - 1)
    if best_shift is None:
        raise ValueError("no admissible shift keeps the support inside the shell")
    return NormValue(
        kind=f"inf_y X({theta},{q})",
        value=best_val,
        k_range=(partition.k_min, partition.k_max),
        detail=(("best_shift", tuple(float(v) for v in best_shift)),),
    )

