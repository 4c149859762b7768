"""Brute-force transport oracles that the tests compare the library's quadratures against.

Each one evaluates nu(t, q, p) = nu0(q - t w(p), p) on explicit grids, with no
preimage windows and no search, so it is slow but hard to get wrong. The grids
must hold the support they integrate over: every oracle checks that and raises
``SupportOverflowError`` when they do not. A datum is the transport module's:
one (pair datum, scalar map) tuple per axis, nu0 = prod_i g_i(q_i, p_i).
"""

import math

import numpy as np

from decaylab import transport as tr
from decaylab.fields import GridSpec, SupportOverflowError

# scalar dispersion map -> its derivative dw/dp, written out from its w
DW = {
    tr.identity_map()[0]: lambda p: np.ones_like(np.asarray(p, float)),
    tr.square_map()[0]: lambda p: 2.0 * np.asarray(p, float),
    tr.relativistic_map()[0]: lambda p: (1.0 + np.asarray(p, float) ** 2) ** -1.5,
}


def _pair_values(pairs: list, t: float, q, p) -> list:
    """g_i(q_i - t w_i(p_i), p_i) per axis: each pair at the feet of its axis's characteristics."""
    return [pair.value(qi - t * smap.w(pi), pi) for qi, pi, (pair, smap) in zip(q, p, pairs, strict=True)]


def evaluate(pairs: list, t: float, q, p) -> np.ndarray:
    """nu(t,q,p) = nu0(q - t w(p), p), exact up to round-off.

    ``q`` and ``p`` each hold d per-axis coordinate arrays that broadcast
    together, as ``value(*x)`` takes them.
    """
    return math.prod(_pair_values(pairs, t, q, p))


def _bounds(pairs: list, tol: float) -> tuple:
    """(qlo, qhi, plo, phi) of the datum's support box at ``tol``, one entry per axis each."""
    (qlo, plo), (qhi, phi) = np.array([pair.support_bounds(tol) for pair, _ in pairs]).transpose(1, 2, 0)
    return qlo, qhi, plo, phi


def check_q_coverage(pairs: list, qgrid: GridSpec, t: float, qlo, qhi, momenta):
    """The q-grid must hold the q-support carried to time t at every sampled momentum.

    ``momenta`` holds the sampled momenta of each axis, one array per axis.
    """
    travel = [t * smap.w(p) for (_, smap), p in zip(pairs, momenta, strict=True)]
    lo_req = qlo + np.array([x.min() for x in travel])
    hi_req = qhi + np.array([x.max() for x in travel])
    if not qgrid.contains_box(lo_req, hi_req):
        raise SupportOverflowError(
            f"q-grid {qgrid.bounds()} does not cover the transported support [{lo_req}, {hi_req}] at t={t}"
        )


def check_p_coverage(pairs: list, pgrid: GridSpec):
    if pgrid.dim != len(pairs):
        raise ValueError("momentum grid dimension mismatch")
    _, _, plo, phi = _bounds(pairs, 1e-10)
    if not pgrid.contains_box(plo, phi):
        raise SupportOverflowError(
            f"momentum support [{plo}, {phi}] not inside p-grid box {pgrid.bounds()}"
        )


def velocity_average(pairs: list, t: float, q, pgrid: GridSpec):
    """Quadrature of nu(t, q, .) over the momentum grid.

    ``q`` holds d per-axis coordinate arrays (or numbers) that broadcast
    together. The result has their broadcast shape, a float for numbers, and
    is summed in chunks of positions.
    """
    check_p_coverage(pairs, pgrid)
    qaxes = np.broadcast_arrays(*(np.asarray(qi, dtype=float) for qi in q))
    shape = qaxes[0].shape
    qaxes = [qi.ravel() for qi in qaxes]
    paxes = [pi.ravel()[None, :] for pi in pgrid.meshgrid()]
    out = np.empty(qaxes[0].size)
    rows = max(1, (1 << 22) // paxes[0].size)
    for start in range(0, out.size, rows):
        qc = [qi[start : start + rows, None] for qi in qaxes]
        vals = evaluate(pairs, t, qc, paxes)
        out[start : start + rows] = vals.sum(axis=1) * pgrid.cell_volume
    return float(out[0]) if shape == () else out.reshape(shape)


def grid_sup(pairs: list, t: float, qgrid: GridSpec, pgrid: GridSpec) -> float:
    """Max over the q-grid nodes of the p-grid velocity average.

    The q-grid must cover the support carried to time t at 65 momenta per
    axis across the p-support.
    """
    qlo, qhi, plo, phi = _bounds(pairs, 1e-10)
    psample = [np.linspace(a, b, 65) for a, b in zip(plo, phi)]
    check_q_coverage(pairs, qgrid, t, qlo, qhi, psample)
    return float(velocity_average(pairs, t, qgrid.meshgrid(), pgrid).max())


def apply_transport_boost(pairs: list, t: float, axis: int, q, p) -> np.ndarray:
    """Boost field W_i = d_{p_i} + t * sum_j (d_{p_i} w^j) d_{q_j} applied to nu.

    On the exact solution this collapses, by the chain rule, to the datum's
    p_i-derivative transported along characteristics: the p-derivative of
    pair i times the other pairs, all at their feet.
    """
    if axis < 0 or axis >= len(pairs):
        raise ValueError("axis out of range")
    values = _pair_values(pairs, t, q, p)
    pair, smap = pairs[axis]
    values[axis] = pair.gradient(q[axis] - t * smap.w(p[axis]), p[axis])[1]
    return math.prod(values)
