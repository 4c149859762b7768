"""Brute-force transport oracles that the tests compare the library's quadratures against.

Each one evaluates nu(t, q, p) = nu0(q - t w(p), p) on explicit grids, with no
preimage windows and no search, so it is slow but hard to get wrong. The grids
must hold the support they integrate over: every oracle checks that and raises
``SupportOverflowError`` when they do not.
"""

import numpy as np

from decaylab import transport as tr
from decaylab.fields import GridSpec, SupportOverflowError


def check_q_coverage(sol: tr.TransportSolution, qgrid: GridSpec, t: float, qlo, qhi, momenta):
    """The q-grid must hold the q-support carried to time t at every sampled momentum.

    ``momenta`` holds the sampled momenta of each axis, one array per axis.
    """
    travel = [t * smap.w(p) for smap, p in zip(sol.dispersion.axis_maps, momenta, strict=True)]
    lo_req = qlo + np.array([x.min() for x in travel])
    hi_req = qhi + np.array([x.max() for x in travel])
    if not qgrid.contains_box(lo_req, hi_req):
        raise SupportOverflowError(
            f"q-grid {qgrid.bounds()} does not cover the transported support [{lo_req}, {hi_req}] at t={t}"
        )


def check_p_coverage(sol: tr.TransportSolution, pgrid: GridSpec):
    if pgrid.dim != sol.dim:
        raise ValueError("momentum grid dimension mismatch")
    lo, hi = sol.datum.support_bounds(1e-10)
    plo, phi = lo[sol.dim :], hi[sol.dim :]
    if not pgrid.contains_box(plo, phi):
        raise SupportOverflowError(
            f"momentum support [{plo}, {phi}] not inside p-grid box {pgrid.bounds()}"
        )


def velocity_average(sol: tr.TransportSolution, t: float, q, pgrid: GridSpec):
    """Quadrature of nu(t, q, .) over the momentum grid.

    ``q`` holds d per-axis coordinate arrays (or numbers) that broadcast
    together. The result has their broadcast shape, a float for numbers, and
    is summed in chunks of positions.
    """
    check_p_coverage(sol, pgrid)
    qaxes = np.broadcast_arrays(*(np.asarray(qi, dtype=float) for qi in q))
    shape = qaxes[0].shape
    qaxes = [qi.ravel() for qi in qaxes]
    paxes = [pi.ravel()[None, :] for pi in pgrid.meshgrid()]
    out = np.empty(qaxes[0].size)
    rows = max(1, (1 << 22) // paxes[0].size)
    for start in range(0, out.size, rows):
        qc = [qi[start : start + rows, None] for qi in qaxes]
        vals = sol.evaluate(t, qc, paxes)
        out[start : start + rows] = vals.sum(axis=1) * pgrid.cell_volume
    return float(out[0]) if shape == () else out.reshape(shape)


def grid_sup(sol: tr.TransportSolution, t: float, qgrid: GridSpec, pgrid: GridSpec) -> float:
    """Max over the q-grid nodes of the p-grid velocity average.

    The q-grid must cover the support carried to time t at 65 momenta per
    axis across the p-support.
    """
    lo, hi = sol.datum.support_bounds(1e-10)
    d = sol.dim
    qlo, qhi, plo, phi = lo[:d], hi[:d], lo[d:], hi[d:]
    psample = [np.linspace(plo[i], phi[i], 65) for i in range(d)]
    check_q_coverage(sol, qgrid, t, qlo, qhi, psample)
    return float(velocity_average(sol, t, qgrid.meshgrid(), pgrid).max())


def apply_transport_boost(sol: tr.TransportSolution, t: float, axis: int, q, p) -> np.ndarray:
    """Boost field W_i = d_{p_i} + t * sum_j (d_{p_i} w^j) d_{q_j} applied to nu.

    On the exact solution this collapses, by the chain rule, to the datum's
    p_i-derivative transported along characteristics.
    """
    d = sol.dim
    if axis < 0 or axis >= d:
        raise ValueError("axis out of range")
    feet = [qi - t * smap.w(pi) for qi, pi, smap in zip(q, p, sol.dispersion.axis_maps, strict=True)]
    return sol.datum.gradient(*feet, *p)[d + axis]
