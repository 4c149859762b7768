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
    """The q-grid must hold the q-support carried to time t at every sampled momentum."""
    travel = t * sol.dispersion.w(momenta)
    lo_req, hi_req = qlo + travel.min(axis=0), qhi + travel.max(axis=0)
    if not qgrid.contains_box(lo_req, hi_req):
        raise SupportOverflowError(
            f"q-grid {qgrid.bounds()} does not cover the transported support [{lo_req}, {hi_req}] at t={t}"
        )


def velocity_average(sol: tr.TransportSolution, t: float, q, pgrid: GridSpec):
    """Quadrature of nu(t, q, .) over the momentum grid.

    ``q`` is one point of R^d, giving a float, or an array of points with a
    trailing axis of length d, giving an array of averages (chunked over q).
    """
    tr._check_p_coverage(sol, pgrid)
    q = np.asarray(q, dtype=float)
    qpoints = q.reshape(-1, sol.dim)
    pmesh = pgrid.nodes().reshape(-1, sol.dim)
    out = np.empty(qpoints.shape[0])
    rows = max(1, (1 << 22) // pmesh.shape[0])
    for start in range(0, qpoints.shape[0], rows):
        qc = qpoints[start : start + rows]
        vals = sol.evaluate(t, qc[:, None, :], pmesh[None, :, :])
        out[start : start + rows] = vals.sum(axis=1) * pgrid.cell_volume
    return float(out[0]) if q.ndim <= 1 else out.reshape(q.shape[:-1])


def grid_sup(sol: tr.TransportSolution, t: float, qgrid: GridSpec, pgrid: GridSpec) -> float:
    """Max over the q-grid nodes of the p-grid velocity average.

    The q-grid must cover the support carried to time t at 65 momenta per
    axis across the p-support.
    """
    (qlo, qhi), (plo, phi) = sol._qp_bounds(1e-10)
    psample = np.stack(
        np.meshgrid(*[np.linspace(plo[i], phi[i], 65) for i in range(sol.dim)], indexing="ij"),
        axis=-1,
    ).reshape(-1, sol.dim)
    check_q_coverage(sol, qgrid, t, qlo, qhi, psample)
    return float(velocity_average(sol, t, qgrid.nodes().reshape(-1, sol.dim), pgrid).max())


def apply_transport_boost(sol: tr.TransportSolution, t: float, axis: int, q, p) -> np.ndarray:
    """Boost field W_i = d_{p_i} + t * sum_j (d_{p_i} w^j) d_{q_j} applied to nu.

    On the exact solution this collapses, by the chain rule, to the datum's
    p_i-derivative transported along characteristics.
    """
    d = sol.dim
    if axis < 0 or axis >= d:
        raise ValueError("axis out of range")
    return sol.datum.gradient(*sol._foot(t, q, p))[d + axis]
