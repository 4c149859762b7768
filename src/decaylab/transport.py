"""Exact phase-space transport via characteristics.

The transport equation d_t nu + w(p) . d_q nu = 0 is solved exactly by
nu(t, q, p) = nu0(q - t w(p), p), so this module never time-steps: it
evaluates the characteristics formula on analytic data and quadratures it.
Every dispersion map acts separately on each momentum axis, through one
scalar map per axis. A datum is its list of (pair g_i, ``ScalarDispersion``)
tuples, one per axis, nu0 = prod_i g_i(q_i, p_i): the sup and the conserved
functionals compose 1-d quadratures of the pairs. Velocity averages at large
times concentrate on p-scales ~ 1/t, so the sup integrates over preimage
windows of the datum support instead of a fixed p-grid; the conserved
functionals sum over q-windows that ride the characteristics on one global
lattice (``_foot_window``). A dispersion map is the tuple of its per-axis
``ScalarDispersion``s, w(p)_i = map[i].w(p_i). Each scalar map declares its
monotone branches with their closed-form inverses, so a window's ends are
read off directly.

The sup search, ``_pair_sup``, runs a sequence of times in lockstep: each
of its ``_pair_profile`` calls scores the q-nodes of every time, one (t, q)
pair per row. Its docstring gives the steps, their node counts and the
errors measured. Each preimage window is widened by a margin relative to
its own width, so the quadrature stays resolved at any t: the identity-map
sup matches its closed form to 4.4e-16, a few ulp, at 107 times from
t = 10 to 1e9. A window quadrature takes its rows in blocks of at most 8192
samples (64 KiB, below glibc's 128 KiB mmap threshold) through p-node and
foot arrays that the call allocates once, so a sup search maps no fresh
pages. Each row does its own elementwise arithmetic and sums as it would
over the whole table, so neither the blocks nor the other times of a batch
move a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import AnalyticField, BumpLambda

__all__ = [
    "ScalarDispersion",
    "identity_map",
    "relativistic_map",
    "square_map",
    "mixed_map",
    "sup_velocity_average",
    "conserved_functional",
    "CounterexampleProfile",
    "counterexample_profile",
]


@dataclass(frozen=True)
class ScalarDispersion:
    """One-dimensional dispersion component u = w(p).

    ``branches`` covers R with the maximal intervals on which w is strictly
    monotone, in increasing order, as ``(start, end, inverse)`` triples:
    ``inverse`` maps w((start, end)) back onto (start, end) in closed form.
    Adjacent branches share their end, a critical point of w.
    """

    w: Callable
    branches: tuple


_IDENTITY = ScalarDispersion(lambda p: np.asarray(p, float), ((-math.inf, math.inf, lambda u: np.asarray(u, float)),))
_SQUARE = ScalarDispersion(
    lambda p: np.asarray(p, float) ** 2, ((-math.inf, 0.0, lambda u: -np.sqrt(u)), (0.0, math.inf, np.sqrt))
)
# w(p) = p / sqrt(1 + p^2) maps R onto (-1, 1); (1 - u)(1 + u) keeps 1 - u^2 accurate near |u| = 1
_RELATIVISTIC = ScalarDispersion(
    lambda p: np.asarray(p, float) / np.sqrt(1.0 + np.asarray(p, float) ** 2),
    ((-math.inf, math.inf, lambda u: u / np.sqrt((1.0 - u) * (1.0 + u))),),
)


def identity_map(dim: int = 1) -> tuple:
    return (_IDENTITY,) * dim


def relativistic_map() -> tuple:
    """d=1 map p / sqrt(1 + p^2)."""
    return (_RELATIVISTIC,)


def square_map() -> tuple:
    return (_SQUARE,)


def mixed_map() -> tuple:
    """d=2 map (p1, p2^2): full rank in the first axis, degenerate second."""
    return (_IDENTITY, _SQUARE)


# ---------------------------------------------------------------------------
# adaptive quadrature over preimage windows


def _monotone_pieces(smap: ScalarDispersion, lo: float, hi: float):
    """[lo, hi] cut by the branches of the scalar map: (a, b, inverse) per piece."""
    pieces = []
    for start, end, inverse in smap.branches:
        a, b = max(lo, start), min(hi, end)
        if b > a:
            pieces.append((a, b, inverse))
    return pieces


def _pair_windows(datum: AnalyticField, smap: ScalarDispersion) -> tuple:
    """(lo, hi, pieces) of a (q, p) pair: its support box at 1e-14, and (a, b, inverse, w(a), w(b))
    for each monotone piece of the scalar map over the box's p-range."""
    lo, hi = datum.support_bounds(1e-14)
    pieces = tuple((a, b, inverse, *smap.w(np.array([a, b]))) for a, b, inverse in _monotone_pieces(smap, lo[1], hi[1]))
    return lo, hi, pieces


# uniform p-nodes per preimage window: the reported quadrature, the one the sup
# search scores its nodes with, and the one it ranks its coarse candidates with
# before scoring the ``_SHORTLIST`` best of each time (the steps: ``_pair_sup``).
# At 65 nodes the relativistic profile at t = 5 misses by 8.8e-5 of its max, too
# far to score with but close enough to rank: over 202 times from 1 to 1e9 a
# shortlist of 4 already gave the sups of the full 129-node ranking on the
# identity, square and relativistic maps. Ranking at 33 nodes left the
# relativistic sup 5.4% low at t = 5.2 (7.5e-5 low at t = 13.2 with 16
# shortlisted). One count of 257 everywhere would move the counterexample rows
# by 4.5e-15.
_REPORT_NODES = 513
_SEARCH_NODES = 129
_RANK_NODES = 65
_SHORTLIST = 8

# Samples per row block of ``_pair_profile`` (why 8192: see its docstring).
_BLOCK = 8192


def _pair_profile(
    datum: AnalyticField,
    smap: ScalarDispersion,
    t: float | np.ndarray,
    qnodes: np.ndarray,
    nloc: int = _REPORT_NODES,
    windows: tuple | None = None,
) -> np.ndarray:
    """Velocity average of a 2-dim (q, p) datum, axis by axis, at each (t, q), shaped as ``qnodes``.

    ``t`` broadcasts against ``qnodes``: a row is one q-node and its time,
    so one call scores the candidates of many times. No time may be 0
    (ValueError): every catalog time is positive. The p-integral at q runs
    over the preimage of the datum's q-support under p -> q - t w(p), one
    monotone piece at a time, on a local uniform grid of ``nloc`` nodes
    whose ends the piece's branch inverse gives, widened on each side by
    0.02 of the window's own width. This keeps the quadrature
    resolved at any t (the integrand concentrates on p-scales ~ 1/t).
    ``windows`` is the pair's ``_pair_windows``, computed here when not
    given.

    The rows go through in blocks of at most ``_BLOCK`` = 8192 samples: 64 KiB
    of float64, half of glibc's default 128 KiB mmap threshold, so every array
    of a block comes from the heap and reuses its pages, where a whole
    (q-nodes x p-nodes) table was mapped and page-faulted in afresh at each
    call. The p-node and foot arrays are allocated once per call and reused by
    every block; no call shares them, so threads may call concurrently. Each
    row does its own elementwise arithmetic and trapezoid sum, so no bit
    depends on the block size or on which rows share a call.
    """
    shape = np.shape(qnodes) or (1,)
    qnodes = np.asarray(qnodes, dtype=float).ravel()
    t = np.broadcast_to(np.asarray(t, dtype=float), shape).ravel()
    if not t.all():
        raise ValueError("the window quadrature needs t != 0")
    lo, hi, pieces = _pair_windows(datum, smap) if windows is None else windows
    qlo, qhi = lo[0], hi[0]
    prof = np.zeros(qnodes.shape)
    # targets: w(p) must lie in [(q - qhi)/t, (q - qlo)/t] (t > 0; swapped if t < 0)
    u1 = (qnodes - qhi) / t
    u2 = (qnodes - qlo) / t
    ulo = np.minimum(u1, u2)
    uhi = np.maximum(u1, u2)
    s = np.linspace(0.0, 1.0, nloc)
    # the p-nodes and feet of one row block, reused by every block of every piece
    block = max(1, _BLOCK // nloc)
    pnodes = np.empty((min(block, qnodes.size), nloc))
    feet = np.empty_like(pnodes)
    for a, b, inverse, wa, wb in pieces:
        wlo, whi = min(wa, wb), max(wa, wb)
        (active,) = ((uhi >= wlo) & (ulo <= whi)).nonzero()
        if not active.size:
            continue
        # the p in [a, b] with w(p) = target, the targets clipped to w([a, b]) first (np.maximum
        # then np.minimum clip as np.clip does, with less overhead on these short arrays)
        targets = np.minimum(np.maximum(np.stack([ulo[active], uhi[active]]), wlo), whi)
        ends = np.minimum(np.maximum(inverse(targets), a), b)
        pa, pb = np.minimum(*ends), np.maximum(*ends)
        margin = 0.02 * (pb - pa)
        pa = np.maximum(pa - margin, a)
        pb = np.minimum(pb + margin, b)
        dp = pb - pa
        q, tq = qnodes[active], t[active]
        # per row: the sum of its samples and of its two end samples, for the trapezoid rule below
        sums, edges = np.empty(active.size), np.empty(active.size)
        for start in range(0, active.size, block):
            j = slice(start, start + block)
            p, f = pnodes[: q[j].size], feet[: q[j].size]
            np.multiply(dp[j, None], s, out=p)
            p += pa[j, None]
            np.multiply(smap.w(p), tq[j, None], out=f)
            np.subtract(q[j, None], f, out=f)
            vals = datum.value(f, p)
            np.add.reduce(vals, axis=1, out=sums[j])
            np.add(vals[:, 0], vals[:, -1], out=edges[j])
        prof[active] += (sums - 0.5 * edges) * (dp / (nloc - 1))
    return prof.reshape(shape)


def _shortlist(datum: AnalyticField, smap: ScalarDispersion, times: np.ndarray, nodes: list, windows: tuple) -> tuple:
    """Per time, its ``_SHORTLIST`` q-nodes of highest ``_RANK_NODES`` average, scored at ``_SEARCH_NODES``.

    ``nodes`` holds one array of q-nodes per time. Returns (picks, values):
    per time, the indices of its shortlisted nodes in increasing order, and
    their ``_SEARCH_NODES`` averages. Ties at the cut go to the lower index.
    Two ``_pair_profile`` calls score every time.
    """
    sizes = [n.size for n in nodes]
    ranks = _pair_profile(datum, smap, np.repeat(times, sizes), np.concatenate(nodes), _RANK_NODES, windows)
    picks = [np.sort(np.argsort(-r, kind="stable")[:_SHORTLIST]) for r in np.split(ranks, np.cumsum(sizes)[:-1])]
    counts = [p.size for p in picks]
    shortlisted = np.concatenate([n[p] for n, p in zip(nodes, picks)])
    vals = _pair_profile(datum, smap, np.repeat(times, counts), shortlisted, _SEARCH_NODES, windows)
    return picks, np.split(vals, np.cumsum(counts)[:-1])


def _pair_sup(datum: AnalyticField, smap: ScalarDispersion, times: Sequence[float]) -> tuple:
    """Sup over q of the pair velocity average at each time, and the q where each is taken.

    Per time, three steps:

    - candidates: a coarse scan of 257 nodes over [min t w + q_lo,
      max t w + q_hi], the q-range the transported support can reach, and
      t w(e) + 33 offsets across [q_lo, q_hi] for every inner endpoint e of
      the monotone pieces of w (289 candidates on the square map). These
      endpoints are the critical points of w; their images are the fold
      caustics, where the pushforward of the p-marginal is singular and the
      average peaks on a q-scale of the datum's q-width however large t is,
      so a coarse scan alone misses the peak (1.65e-7 low at t = 640 on the
      square map). The outer endpoints bound the datum's p-support at
      1e-14, where the average is about 0, and force nothing;
    - ``_shortlist`` ranks the candidates with the ``_RANK_NODES`` = 65
      quadrature of ``_pair_profile`` and scores the ``_SHORTLIST`` = 8 best
      with the ``_SEARCH_NODES`` = 129 one. The best of those is the first
      best node (ties go to the lowest candidate);
    - 4 rounds of 33-node refinement, scored at 129 nodes. Each round
      brackets the best node so far: round 1 by the wider candidate gap
      beside it, each later round by a sixteenth of the bracket before. A
      node replaces the best only when it is higher (ties go to the lowest
      node).

    Every choice reads 129-node values only. So wherever the 129-node best
    candidate lies among the 8 best at 65 nodes, the sups and their
    positions are the bits that scoring every candidate at 129 gives.

    The times run in lockstep: each step, and the final report quadrature,
    scores the nodes of every time in one ``_pair_profile`` call with a
    time per row (two for the shortlisted candidates), so a batch makes 7
    calls whatever its length. The choices stay per time, and a row's value
    does not depend on the other rows of its call, so no bit depends on
    which times share a batch. Per time, 257 candidates (289 on the square
    map) are ranked at 65 nodes, 8 + 4 x 33 nodes scored at 129 and the
    winner at 513: 74,716 datum points for the square axis at t = 640.

    The returned sup is the ``_REPORT_NODES`` quadrature at the winner q.
    Two errors separate it from the local maximum of F_513 (F_n the n-node
    average):

    - the quadrature: it differs from the best 513-node value over the
      scored q by at most 2 max |F_129 - F_513| over those q. Dense
      2001-node q-scans put that below 5.0e-13 of the sup for t in
      [10, 10^4] on the identity, square and relativistic maps; below
      t = 10 the relativistic map reaches 2.2e-11 near t = 5.75. A wider
      datum parts them further: at width 10 and t = 10^(9/8) the 129-node
      relativistic average peaks 0.08 from the 513-node one;
    - the refinement gap: round 4's nodes are h = 1/16^4 of a candidate gap
      apart, so the best scored q may lie h/2 from the local maximum and
      the sup fall short of it by up to (h/2)^2 |F''| / (2F) relative.

    Dense scans ranked at 129 nodes, then nested scans of F_513, measure
    both together. On the square map the sup falls short by up to 3.7e-12
    for t in [10, 10^4] (t = 761), and by 2.8e-12 for t from 1e4 to 1e9
    (``test_square_axis_sup_is_not_beaten_by_a_dense_scan``). On the
    relativistic map (``test_relativistic_sup_is_not_beaten_by_a_dense_scan``)
    it falls short by up to 2.0e-13 for t in [10, 10^4], and by up to
    3.3e-17 t at t = 1e4, 1e6 and 1e8, where the foot q - t w(p) rounds at
    about 1e-16 t. At width 10 it falls short by 1.8e-5 at t = 10^(9/8)
    and 7.1e-5 at t = 28.3.
    """
    windows = _pair_windows(datum, smap)
    lo, hi, pieces = windows
    qlo, qhi = lo[0], hi[0]
    times = np.asarray(times, dtype=float)
    # w is monotone on each piece, so the outer piece ends carry its extremes and the inner ones its
    # critical points; an inner end shared by two pieces gives one image twice, and np.unique drops
    # the repeated candidates
    ends = np.array([w for *_, wa, wb in pieces for w in (wa, wb)])
    offsets = np.linspace(qlo, qhi, 33)
    cands = []
    for t in times:
        images = t * ends
        coarse = np.linspace(images.min() + qlo, images.max() + qhi, 257)
        cands.append(np.unique(np.concatenate([coarse, (images[1:-1, None] + offsets[None, :]).ravel()])))
    best, qat, span = [], [], []
    for cand, pick, v in zip(cands, *_shortlist(datum, smap, times, cands, windows)):
        i = pick[v.argmax()]  # ties go to the lowest candidate
        gaps = np.diff(cand, prepend=cand[0], append=cand[-1])  # gaps[i], gaps[i + 1]: both sides of cand[i]
        best.append(v.max())
        qat.append(cand[i])
        span.append(max(gaps[i], gaps[i + 1], 1e-9 * (1.0 + abs(cand[i]))))
    best, qat, span = np.array(best), np.array(qat), np.array(span)
    rows, s = np.arange(times.size), np.linspace(-1.0, 1.0, 33)
    for _ in range(4):
        nodes = qat[:, None] + span[:, None] * s
        lv = _pair_profile(datum, smap, times[:, None], nodes, _SEARCH_NODES, windows)
        k = lv.argmax(axis=1)  # ties go to the lowest node
        better = lv[rows, k] > best
        best = np.where(better, lv[rows, k], best)
        qat = np.where(better, nodes[rows, k], qat)
        span /= 16.0
    return _pair_profile(datum, smap, times, qat, windows=windows), qat


def sup_velocity_average(pairs: Sequence[tuple], times: Sequence[float]) -> list:
    """Max over position of the velocity average, one float per (nonzero) time of ``times``.

    ``pairs`` is the datum, one (pair datum, ``ScalarDispersion``) tuple per
    axis, and each sup is the product of the pair sups that ``_pair_sup``
    finds; its docstring gives the search and its measured errors. No
    time's sup depends on the others.
    """
    total = np.ones(len(times))
    for pair_datum, smap in pairs:
        sups, _ = _pair_sup(pair_datum, smap, times)
        total *= sups
    return total.tolist()


# ---------------------------------------------------------------------------
# conserved functionals


def _foot_window(qlo: float, qhi: float, h: float, c: np.ndarray) -> np.ndarray:
    """Feet q - c of lattice-aligned q-windows, one row per characteristic position c.

    Row i holds the nodes of the global lattice hZ on [c_i + qlo - 4h, c_i + qhi + 4h]
    minus c_i: where the characteristic through c_i starts, for a pair whose
    q-support is [qlo, qhi]. Every row has the same number of nodes.
    """
    pad = 4.0 * h
    count = int(math.ceil((qhi - qlo + 2 * pad) / h)) + 2
    base = np.ceil((c + qlo - pad) / h) * h
    return base[:, None] - c[:, None] + np.arange(count)[None, :] * h


def _pair_moments(pair: AnalyticField, smap: ScalarDispersion, t: float) -> tuple:
    """(int g, int g^2, int p^2 g) over the (q, p) plane for one pair g at time t.

    With h = ``feature_scale()/3``, the p-integral sums over a centred lattice
    of spacing at most h, at least 16 nodes, on 1.05 times the pair's momentum
    support at 1e-14; the q-integral sums over ``_foot_window`` rows centred at
    t*w(p). One evaluation of the pair serves all three moments.
    """
    lo, hi = pair.support_bounds(1e-14)
    h = pair.feature_scale() / 3.0
    pbox = float(max(abs(lo[1]), abs(hi[1]))) * 1.05
    n = max(16, int(math.ceil(2 * pbox / h)))
    hp = 2 * pbox / n
    p = -pbox + hp * np.arange(n)
    g = pair.value(_foot_window(lo[0], hi[0], h, t * smap.w(p)), p[:, None])
    return tuple(float(f.sum()) * h * hp for f in (g, g * g, p[:, None] ** 2 * g))


def conserved_functional(pairs: Sequence[tuple], t: float) -> tuple:
    """(mass, l2, kinetic): the integrals of nu, nu^2 and |p|^2 nu over phase space at time t.

    For the datum ``pairs``, nu = prod_i g_i(q_i, p_i) with g_i under its own
    axis map, these are prod_i int g_i, prod_i int g_i^2 and
    sum_i int p_i^2 g_i * prod_{j != i} int g_j, from the ``_pair_moments`` of
    each pair.
    """
    moments = [_pair_moments(pair, smap, t) for pair, smap in pairs]
    masses = [m[0] for m in moments]
    kinetic = sum(m[2] * math.prod(masses[:i] + masses[i + 1 :]) for i, m in enumerate(moments))
    return math.prod(masses), math.prod(m[1] for m in moments), kinetic


@dataclass(frozen=True)
class CounterexampleProfile:
    """One row of the concentration counterexample for the square map."""

    lam: float
    nu_bar_at_origin: float
    lower_bound: float
    w11_norm_bound: float  # gradient L1 seminorm; scale-invariant part
    l1_norm: float         # mass term, decays like 1/lam


def counterexample_profile(lam: float) -> CounterexampleProfile:
    """Velocity average at the origin for the square map with a concentrating bump, at t = lam.

    t = lam is the paper's diagonal. The closed-form lower bound comes from
    the plateau of the bump: the set {p : lam^2 p^4 + p^2 < lam^-2} has
    measure 2*sqrt(s0) with s0 = (sqrt(5) - 1) / (2 lam^2); the reported
    bound keeps only half of it (one sign of p) and is therefore safe.
    """
    datum = BumpLambda(lam)
    nu0 = float(_pair_profile(datum, _SQUARE, lam, np.array([0.0]))[0])
    lower = lam * math.sqrt((math.sqrt(5.0) - 1.0) / (2.0 * lam**2))
    # quadrature on a lam-refined grid; the integrand has lam-scale features
    h = 0.05 / lam
    edge = 2.0 / lam + 4 * h
    x = np.arange(-edge, edge + h, h)
    q, p = x[:, None], x[None, :]
    gq, gp = datum.gradient(q, p)
    grad_l1 = float(np.sqrt(gq**2 + gp**2).sum() * h * h)
    mass_l1 = float(np.abs(datum.value(q, p)).sum() * h * h)
    return CounterexampleProfile(lam, nu0, lower, grad_l1, mass_l1)

