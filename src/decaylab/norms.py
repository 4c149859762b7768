"""Dyadic annulus norms and the classical norms they are compared against.

The dyadic partition is built from a fixed C^2 quintic smoothstep of the
radial coordinate in log2 scale (profile id below); every reported constant
depends on this choice, so reports carry the id. The partition bumps
telescope, which makes the partition-of-unity identity exact on the shell.
A partition holds only its box, the bounding box of the bumps' support, and
its rows there. Every norm is a plain float. An X norm clips f to the dyadic
shell; the share it clips is ``off_shell_fraction``, read by ``check_local_mass``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AnalyticField, GridSpec, SampledField, _mass_outside, _squared_sum

__all__ = [
    "PARTITION_PROFILE_ID",
    "DyadicPartition",
    "build_dyadic_partition",
    "x_norm",
    "lp_norm",
    "hs_norm",
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
    """Annular bumps phi_k supported in 2^(k-1) <= |x| <= 2^(k+1), held on their box only.

    ``box`` is the smallest grid box outside which every bump is 0, one index
    slice per axis; ``rows`` are phi_k^2 for each k, then (1 - sum_k phi_k)^2,
    each on the box and flattened. ``x_norm`` and ``off_shell_fraction`` read
    f through one |f|^2 there and one matrix-vector product; the mass off the
    box is summed from its own slices, never as the total minus the box's.
    """

    grid: GridSpec
    k_min: int
    k_max: int
    box: tuple  # one slice per axis
    rows: np.ndarray  # (k_max - k_min + 2, box size)

    @property
    def k_range(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def _masses(self, f: SampledField) -> np.ndarray:
        """sum phi_k^2 |f|^2 for each k, then sum (1 - sum_k phi_k)^2 |f|^2, over the whole grid."""
        if f.grid != self.grid:
            raise ValueError("field and partition live on different grids")
        density = np.abs(f.values[self.box]).reshape(-1)
        masses = self.rows @ np.square(density, out=density)
        masses[-1] += _mass_outside(f.values, self.box)
        return masses

    def off_shell_fraction(self, f: SampledField) -> float:
        """||(1 - sum_k phi_k) f||_2 / ||f||_2, the share of f an X norm clips; 0 for f = 0."""
        total = _squared_sum(f.values)
        return math.sqrt(self._masses(f)[-1] / total) if total else 0.0


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
    bumps = np.empty((k_max - k_min + 1, *r.shape))
    inner = _radial_cutoff(r / 2.0 ** (k_min - 1))  # each of the K + 1 cutoffs is evaluated once
    for bump, k in zip(bumps, range(k_min, k_max + 1)):
        outer = _radial_cutoff(r / 2.0**k)
        np.subtract(outer, inner, out=bump)
        inner = outer
    # Built on the full grid, then cropped and freed: the free lifts glibc's mmap threshold, so the 2 MiB
    # FFT buffers that follow come from the heap. Cutoffs taken near the box only took a warm
    # schrodinger-xnorm run from 1.3k-2.8k to 17k-18k minor faults.
    box = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(bumps.any(axis=0)))
    bumps = bumps[(slice(None), *box)].reshape(len(bumps), -1)
    return DyadicPartition(grid, k_min, k_max, box, np.vstack([bumps**2, (1.0 - bumps.sum(axis=0)) ** 2]))


def x_norm(f: SampledField, theta: float, q: float, partition: DyadicPartition) -> float:
    """Dyadic norm: l^q over k of 2^(theta k) ||phi_k f||_L2, for 1 <= q <= inf.

    Mass of f off the partition shell is not counted; the value is then a
    clipped-window norm (see ``DyadicPartition.off_shell_fraction``).
    """
    pieces = np.sqrt(partition._masses(f)[:-1] * f.grid.cell_volume)
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
    fhat, grid = np.fft.fftn(f.as_complex()), f.grid
    ksq = sum(grid.along(ax, grid.wavenumbers(ax)) ** 2 for ax in range(grid.dim))
    weight = (1.0 + ksq) ** s
    n_total = float(np.prod(f.grid.points))
    return math.sqrt(float(np.sum(weight * np.abs(fhat) ** 2)) * f.grid.cell_volume / n_total)


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
            fy = SampledField(grid, datum.value(*(x + yi for x, yi in zip(nodes, y))))
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

