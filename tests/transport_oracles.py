"""Brute-force transport oracles that the tests compare the library's quadratures against.

Each one evaluates nu(t, q, p) = nu0(q - t w(p), p) on explicit grids, with no
preimage windows and no search, so it is slow but hard to get wrong. The grids
must hold the support they integrate over: every oracle checks that and raises
``SupportOverflowError`` when they do not.
"""

import numpy as np

from decaylab import transport as tr
from decaylab.fields import GridSpec, SupportOverflowError

# scalar dispersion map -> its derivative dw/dp, written out from its w
DW = {
    tr.identity_map()[0]: lambda p: np.ones_like(np.asarray(p, float)),
    tr.square_map()[0]: lambda p: 2.0 * np.asarray(p, float),
    tr.relativistic_map()[0]: lambda p: (1.0 + np.asarray(p, float) ** 2) ** -1.5,
}


def _feet(sol: tr.TransportSolution, t: float, q, p) -> list:
    """The feet q_i - t w_i(p_i) of the characteristics, each formed with its axis's scalar map."""
    return [qi - t * smap.w(pi) for qi, pi, smap in zip(q, p, sol.axis_maps, strict=True)]


def evaluate(sol: tr.TransportSolution, t: float, q, p) -> np.ndarray:
    """nu(t,q,p) = nu0(q - t w(p), p), exact up to round-off.

    ``q`` and ``p`` each hold d per-axis coordinate arrays that broadcast
    together, as ``value(*x)`` takes them.
    """
    return sol.datum.value(*_feet(sol, t, q, p), *p)


def check_q_coverage(sol: tr.TransportSolution, qgrid: GridSpec, t: float, qlo, qhi, momenta):
    """The q-grid must hold the q-support carried to time t at every sampled momentum.

    ``momenta`` holds the sampled momenta of each axis, one array per axis.
    """
    travel = [t * smap.w(p) for smap, p in zip(sol.axis_maps, momenta, strict=True)]
    lo_req = qlo + np.array([x.min() for x in travel])
    hi_req = qhi + np.array([x.max() for x in travel])
    if not qgrid.contains_box(lo_req, hi_req):
        raise SupportOverflowError(
            f"q-grid {qgrid.bounds()} does not cover the transported support [{lo_req}, {hi_req}] at t={t}"
        )


def check_p_coverage(sol: tr.TransportSolution, pgrid: GridSpec):
    d = len(sol.axis_maps)
    if pgrid.dim != d:
        raise ValueError("momentum grid dimension mismatch")
    lo, hi = sol.datum.support_bounds(1e-10)
    plo, phi = lo[d:], hi[d:]
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
        vals = evaluate(sol, t, qc, paxes)
        out[start : start + rows] = vals.sum(axis=1) * pgrid.cell_volume
    return float(out[0]) if shape == () else out.reshape(shape)


def grid_sup(sol: tr.TransportSolution, t: float, qgrid: GridSpec, pgrid: GridSpec) -> float:
    """Max over the q-grid nodes of the p-grid velocity average.

    The q-grid must cover the support carried to time t at 65 momenta per
    axis across the p-support.
    """
    lo, hi = sol.datum.support_bounds(1e-10)
    d = len(sol.axis_maps)
    qlo, qhi, plo, phi = lo[:d], hi[:d], lo[d:], hi[d:]
    psample = [np.linspace(plo[i], phi[i], 65) for i in range(d)]
    check_q_coverage(sol, qgrid, t, qlo, qhi, psample)
    return float(velocity_average(sol, t, qgrid.meshgrid(), pgrid).max())


def apply_transport_boost(sol: tr.TransportSolution, t: float, axis: int, q, p) -> np.ndarray:
    """Boost field W_i = d_{p_i} + t * sum_j (d_{p_i} w^j) d_{q_j} applied to nu.

    On the exact solution this collapses, by the chain rule, to the datum's
    p_i-derivative transported along characteristics.
    """
    d = len(sol.axis_maps)
    if axis < 0 or axis >= d:
        raise ValueError("axis out of range")
    return sol.datum.gradient(*_feet(sol, t, q, p), *p)[d + axis]
