"""Transport: characteristics, averages, conservation, boosts."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from decaylab.fields import BumpLambda, Gaussian, GridSpec, SupportOverflowError
from decaylab import transport as tr
from decaylab.harness import fit_decay

import transport_oracles as oracle

W = 1.0 / math.sqrt(2.0)  # width so the datum is exp(-q^2 - p^2)
GAUSSIAN_PAIR = Gaussian((0.0, 0.0), (W, W))


def pairs_of(pair, dmap) -> list:
    """The transport datum with ``pair`` on every axis of the map ``dmap``."""
    return [(pair, smap) for smap in dmap]


@pytest.fixture(scope="module")
def gaussian_datum():
    return pairs_of(GAUSSIAN_PAIR, tr.identity_map(1))


class TestEvaluateDensity:
    def test_time_zero_is_datum(self, gaussian_datum):
        rng = np.random.default_rng(0)
        q, p = rng.normal(size=8), rng.normal(size=8)
        got = oracle.evaluate(gaussian_datum, 0.0, [q], [p])
        np.testing.assert_allclose(got, np.exp(-(q**2) - p**2), rtol=1e-14)

    def test_characteristics_value(self, gaussian_datum):
        # (t,q,p) = (1,0,1): exp(-(0-1)^2 - 1) = e^-2
        got = oracle.evaluate(gaussian_datum, 1.0, [0.0], [1.0])
        assert got == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_square_map_bump_plateau(self):
        lam = 3.0
        sol = pairs_of(BumpLambda(lam), tr.square_map())
        # pick (t,q,p) with (q - t p^2, p) inside the plateau disc of radius 1/lam
        t, p = 2.0, 0.1
        q = t * p**2 + 0.05
        assert oracle.evaluate(sol, t, [q], [p]) == pytest.approx(lam, abs=0)

    def test_exactness_against_independent_reevaluation(self, gaussian_datum):
        # round-off in the exponent grows with its magnitude, hence the scaled rel tol
        rng = np.random.default_rng(3)
        for _ in range(16):
            t, q, p = rng.uniform(-5, 5, 3)
            expo = (q - t * p) ** 2 + p**2
            assert oracle.evaluate(gaussian_datum, t, [q], [p]) == pytest.approx(
                math.exp(-expo), rel=1e-14 * (10.0 + expo), abs=1e-300
            )


class TestVelocityAverage:
    def test_closed_form_at_origin(self, gaussian_datum):
        pg = GridSpec.centered(8.0, 128, dim=1)
        assert oracle.velocity_average(gaussian_datum, 0.0, [0.0], pg) == pytest.approx(
            math.sqrt(math.pi), abs=1e-12
        )
        assert oracle.velocity_average(gaussian_datum, 1.0, [0.0], pg) == pytest.approx(
            math.sqrt(math.pi / 2.0), abs=1e-12
        )

    def test_momentum_coverage_guard(self, gaussian_datum):
        small = GridSpec.centered(1.0, 16, dim=1)
        with pytest.raises(SupportOverflowError):
            oracle.velocity_average(gaussian_datum, 1.0, [0.0], small)


class TestSupVelocityAverage:
    def test_gaussian_closed_form(self, gaussian_datum):
        # sup_q of the average is sqrt(pi / (1 + t^2))
        (at3,) = tr.sup_velocity_average(gaussian_datum, [3.0])
        assert at3 == pytest.approx(math.sqrt(math.pi / 10.0), abs=1e-8)

    def test_explicit_grids_agree_with_adaptive(self, gaussian_datum):
        t = 2.0
        qg = GridSpec.centered(20.0, 4096, dim=1)
        pg = GridSpec.centered(8.0, 512, dim=1)
        explicit = oracle.grid_sup(gaussian_datum, t, qg, pg)
        (adaptive,) = tr.sup_velocity_average(gaussian_datum, [t])
        assert explicit == pytest.approx(adaptive, rel=1e-5)

    def test_qgrid_coverage_guard(self, gaussian_datum):
        qg = GridSpec.centered(3.0, 64, dim=1)  # too small for t = 10 travel
        pg = GridSpec.centered(8.0, 128, dim=1)
        with pytest.raises(SupportOverflowError):
            oracle.grid_sup(gaussian_datum, 10.0, qg, pg)

    def test_relativistic_peak_off_origin(self):
        # characteristics pile up near |q| = t w(1/sqrt(2)); the sup must see it
        sol = pairs_of(GAUSSIAN_PAIR, tr.relativistic_map())
        t = 50.0
        (sup,) = tr.sup_velocity_average(sol, [t])
        pg = GridSpec.centered(8.0, 4096, dim=1)
        at_peak = oracle.velocity_average(sol, t, [t * (1 / math.sqrt(3))], pg)
        assert sup >= at_peak - 1e-10

    @pytest.mark.parametrize("t", [1000.0, 1e4, 1e6, 1e7, 1e9])
    def test_identity_sup_equals_closed_form(self, gaussian_datum, t):
        # the coarse scan plus refinement finds the peak sqrt(pi / (1 + t^2)) at q = 0; at large t the
        # window margin must scale with the preimage window, of p-width ~ 1/t, or the sup reads high
        assert tr.sup_velocity_average(gaussian_datum, [t]) == pytest.approx(
            [math.sqrt(math.pi / (1.0 + t * t))], rel=1e-12
        )

    @pytest.mark.parametrize(
        "t, dense_sup",
        # sup of the square-axis pair factor from the dense search the refined one
        # replaced (513 images t w(p) x 9 offsets, 2 rounds of 129-node refinement)
        [(640.0, 0.08500794170991989), (1000.0, 0.06802702352639521)],
    )
    def test_square_axis_sup_sees_the_fold_caustic(self, t, dense_sup):
        # the average peaks within the datum's q-width of the caustic t w(0) = 0;
        # without the candidates forced there the sup comes out 1.65e-7 low at t = 640
        (sup,), _ = tr._pair_sup(GAUSSIAN_PAIR, tr.mixed_map()[1], [t])
        assert sup == pytest.approx(dense_sup, rel=1e-8)


SCALAR_MAPS = {
    "identity": tr.identity_map(1)[0],
    "square": tr.square_map()[0],
    "relativistic": tr.relativistic_map()[0],
}
BRANCHES = [(name, i) for name, smap in SCALAR_MAPS.items() for i in range(len(smap.branches))]
# the (pair, scalar map) of each axis the catalog's transport entries search: the three scalar maps, and
# the two axes of the mixed map
SEARCHED_PAIRS = pairs_of(GAUSSIAN_PAIR, SCALAR_MAPS.values()) + pairs_of(GAUSSIAN_PAIR, tr.mixed_map())
SEARCHED_PAIR_IDS = [*SCALAR_MAPS, "mixed-axis0", "mixed-axis1"]
# |p| at which the (W, W) Gaussian pair drops below the 1e-14 support tolerance
P_MAX = W * math.sqrt(2.0 * math.log(1e14))


def branch_nodes(start, end, n):
    """n nodes strictly inside the branch, its infinite ends cut at |p| = 8."""
    return np.linspace(max(start, -8.0), min(end, 8.0), n + 2)[1:-1]


class CountingGaussian(Gaussian):
    """A Gaussian that counts the points it is evaluated at."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "points", [0])

    def value(self, *x):
        out = super().value(*x)
        self.points[0] += out.size
        return out


class TestPairSupSearch:
    """The search ranks candidates with the coarse window quadrature and reports the fine one."""

    @pytest.mark.parametrize("t", [10.0, 640.0])
    @pytest.mark.parametrize("name", SCALAR_MAPS)
    def test_sup_is_the_report_quadrature_at_its_position(self, name, t):
        pair = Gaussian((0.0, 0.0), (W, W))
        (sup,), qat = tr._pair_sup(pair, SCALAR_MAPS[name], [t])
        # qat's sign is not pinned: the relativistic average has two mirror peaks
        assert sup == tr._pair_profile(pair, SCALAR_MAPS[name], t, qat)[0]

    @pytest.mark.parametrize("t", [10.0, 100.0, 640.0, 1000.0, 1e4])
    @pytest.mark.parametrize("name", SCALAR_MAPS)
    def test_no_report_quadrature_near_the_peak_beats_the_sup(self, name, t):
        smap = SCALAR_MAPS[name]
        pair = Gaussian((0.0, 0.0), (W, W))
        (sup,), (qat,) = tr._pair_sup(pair, smap, [t])
        lo, hi = pair.support_bounds(1e-14)
        ends = np.array([e for a, b, _ in tr._monotone_pieces(smap, lo[1], hi[1]) for e in (a, b)])
        images = t * smap.w(ends)
        spacing = (images.max() + hi[0] - images.min() - lo[0]) / 256  # of the coarse scan
        scan = tr._pair_profile(pair, smap, t, qat + np.linspace(-spacing, spacing, 257))
        assert scan.max() <= sup * (1.0 + 1e-12)

    def test_square_axis_sup_evaluates_fewer_than_76k_datum_points(self):
        # 74,716 points; with round 1 refining 3 brackets it was 81,136, with every node scored at 129 nodes
        # 126,672, refining 3 brackets in every round and forcing candidates at the outer piece ends too
        # 186,012, and scoring at 513 nodes 735,642
        pair = CountingGaussian((0.0, 0.0), (W, W))
        tr._pair_sup(pair, SCALAR_MAPS["square"], [640.0])
        assert pair.points[0] <= 76_000

    def test_identity_search_scores_the_coarse_scan_then_one_bracket_per_round(self, monkeypatch):
        # w(p) = p has no critical point, so no candidate is forced: 257 coarse candidates per time ranked
        # at 65 nodes and the 8 best scored at 129, one bracket of 33 nodes scored at 129 in each of the 4
        # rounds, and the report quadrature at the winner
        times, calls, profile = [10.0, 640.0, 1e4], [], tr._pair_profile

        def recorded(datum, smap, t, qnodes, nloc=tr._REPORT_NODES, *args, **kwargs):
            calls.append((np.size(qnodes) // len(times), nloc))  # (nodes per time, p-nodes per window)
            return profile(datum, smap, t, qnodes, nloc, *args, **kwargs)

        monkeypatch.setattr(tr, "_pair_profile", recorded)
        tr._pair_sup(GAUSSIAN_PAIR, SCALAR_MAPS["identity"], times)
        assert calls == [(257, 65), (8, 129)] + [(33, 129)] * 4 + [(1, 513)]

    @pytest.mark.parametrize("pair, smap", SEARCHED_PAIRS, ids=SEARCHED_PAIR_IDS)
    def test_shortlisted_search_equals_the_full_129_node_ranking(self, monkeypatch, pair, smap):
        # every choice of the search reads 129-node values only, so while the 8 best nodes at 65 hold each
        # choice, it returns the bits of the search that scores every node at 129
        times = [10.0, 100.0, 640.0, 1000.0, 1e4]
        shortlisted = repr([part.tolist() for part in tr._pair_sup(pair, smap, times)])  # (sups, positions)
        monkeypatch.setattr(tr, "_RANK_NODES", tr._SEARCH_NODES)
        monkeypatch.setattr(tr, "_SHORTLIST", 10**9)  # more than any step's candidates
        assert repr([part.tolist() for part in tr._pair_sup(pair, smap, times)]) == shortlisted

    def test_square_axis_sup_is_not_beaten_by_a_dense_scan(self):
        # the fold caustic t w(0) = 0 keeps the peak within the datum's q-width of q = 0 at any t. A
        # 20001-node scan of q in [-6, 6] finds it, ranked at the search's 129 nodes, and three nested
        # 201-node scans of the report quadrature, each a hundredth as wide, close in on it. The search's
        # last refinement leaves a gap to it of at most 2.8e-12 (t = 1e6)
        smap, times = SCALAR_MAPS["square"], np.array([1e4, 1e6, 1e7, 1e8, 1e9])
        sups, _ = tr._pair_sup(GAUSSIAN_PAIR, smap, times)
        q = np.linspace(-6.0, 6.0, 20001)
        scan = tr._pair_profile(GAUSSIAN_PAIR, smap, times[:, None], np.broadcast_to(q, (times.size, q.size)), 129)
        best = q[scan.argmax(axis=1)]
        for width in (q[1] - q[0]) * np.array([1.0, 1e-2, 1e-4]):
            nodes = best[:, None] + width * np.linspace(-1.0, 1.0, 201)
            scan = tr._pair_profile(GAUSSIAN_PAIR, smap, times[:, None], nodes)
            best = nodes[np.arange(times.size), scan.argmax(axis=1)]
        np.testing.assert_array_less(scan.max(axis=1), sups * (1.0 + 1e-11))

    @pytest.mark.parametrize(
        "width, times, rel",
        [
            # the foot q - t w(p) rounds to about 1e-16 t of the datum's q-width, so the scan's best rounded
            # value may beat the sup by that much: measured 3.3e-17 t at most
            (W, [1e4, 1e6, 1e8], [1e-12, 1e-10, 1e-8]),
            # here the 129-node average peaks 0.08 left of the 513-node one; refining 3 brackets in round 1
            # left the sup 4.1e-4 short, one bracket in every round 1.8e-5
            (10.0, [10 ** (9 / 8)], [1e-4]),
        ],
        ids=["catalog-width", "width-10"],
    )
    def test_relativistic_sup_is_not_beaten_by_a_dense_scan(self, width, times, rel):
        # the mirror peaks sit at +-q, so a 2001-node scan of q in [0, t max w + q_hi], ranked at the search's
        # 129 nodes, finds one, and four nested 201-node scans of the report quadrature close in on it: the
        # first 16 scan spacings wide, each next a hundredth of that
        pair, smap, times = Gaussian((0.0, 0.0), (width, width)), SCALAR_MAPS["relativistic"], np.array(times)
        sups, _ = tr._pair_sup(pair, smap, times)
        lo, hi = pair.support_bounds(1e-14)
        q = np.linspace(0.0, 1.0, 2001) * (times[:, None] * smap.w(hi[1]) + hi[0])
        scan = tr._pair_profile(pair, smap, times[:, None], q, 129)
        rows = np.arange(times.size)
        best = q[rows, scan.argmax(axis=1)]
        for span in np.array([16.0, 0.16, 1.6e-3, 1.6e-5])[:, None] * (q[:, 1] - q[:, 0]):
            nodes = best[:, None] + span[:, None] * np.linspace(-1.0, 1.0, 201)
            scan = tr._pair_profile(pair, smap, times[:, None], nodes)
            best = nodes[rows, scan.argmax(axis=1)]
        np.testing.assert_array_less(scan.max(axis=1), sups * (1.0 + np.array(rel)))


class TestRowBlocks:
    """``_pair_profile`` sums every row as one trapezoid, so its row block size moves no bit."""

    @staticmethod
    def results():
        sups = [tr._pair_sup(GAUSSIAN_PAIR, smap, [10.0, 640.0]) for smap in SCALAR_MAPS.values()]
        profiles = [tr.counterexample_profile(lam) for lam in (4.0, 16.0, 64.0)]
        return repr((sups, profiles))  # a float's repr round-trips, so equal reprs are equal bits

    def test_sups_and_counterexample_rows_do_not_depend_on_the_block_size(self, monkeypatch):
        default = self.results()
        for block in (1, 10**9):  # one row per block; one block per call
            monkeypatch.setattr(tr, "_BLOCK", block)
            assert self.results() == default

    @pytest.mark.parametrize("pair, smap", SEARCHED_PAIRS, ids=SEARCHED_PAIR_IDS)
    def test_sups_of_one_batch_equal_those_of_single_time_batches(self, pair, smap):
        # a row of a _pair_profile call does its own arithmetic, so no sup depends on the other times
        times = (10.0, 640.0, 3000.0)
        alone = [np.concatenate(part).tolist() for part in zip(*(tr._pair_sup(pair, smap, [t]) for t in times))]
        batch = [part.tolist() for part in tr._pair_sup(pair, smap, times)]  # (sups, positions)
        assert repr(batch) == repr(alone)


def chained_gaussian(datum, *x):
    """``Gaussian.value`` written out: exp(-0.5 * chained sum)."""
    terms = zip(x, datum.center, datum.width, strict=True)
    return np.exp(-0.5 * sum(((xi - c) / w) ** 2 for xi, c, w in terms))


_AXES = np.random.default_rng(13).uniform(-2.0, 2.0, (4, 5, 6))
GAUSSIAN_VALUE_CASES = {
    "scalar": (Gaussian((0.1, -0.3), (0.7, 1.2)), (0.4, -0.2)),
    "broadcast-2d-axes": (Gaussian((0.1, -0.3), (0.7, 1.2)), (_AXES[0, :, :1], _AXES[1, :1, :])),
    "product-gaussian-phase-4-axes": (Gaussian((0.0,) * 4, (0.5, 0.5, 1.5, 1.5)), tuple(_AXES)),
    "one-axis": (Gaussian(0.2, 0.9), (_AXES[0],)),
    "broadcast-3d-axes": (Gaussian((0.1, -0.3, 0.5), (0.7, 1.2, 0.4)), (_AXES[0, :, :1], _AXES[1, :1, :], _AXES[2])),
}


@pytest.mark.parametrize("case", GAUSSIAN_VALUE_CASES)
def test_gaussian_value_is_the_chained_formula_bit_for_bit(case):
    datum, x = GAUSSIAN_VALUE_CASES[case]
    got, expected = np.asarray(datum.value(*x)), np.asarray(chained_gaussian(datum, *x))
    assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
    assert got.tobytes() == expected.tobytes()


class TestDispersionBranches:
    @pytest.mark.parametrize("name", SCALAR_MAPS)
    def test_branches_tile_the_line(self, name):
        branches = SCALAR_MAPS[name].branches
        assert branches[0][0] == -math.inf and branches[-1][1] == math.inf
        assert all(left[1] == right[0] for left, right in zip(branches, branches[1:]))

    @pytest.mark.parametrize("name, i", BRANCHES)
    def test_inverse_round_trips_within_a_few_ulp(self, name, i):
        smap = SCALAR_MAPS[name]
        start, end, inverse = smap.branches[i]
        p = np.concatenate([branch_nodes(start, end, 1001), [-P_MAX, P_MAX, start, end]])
        p = p[np.isfinite(p) & (p >= start) & (p <= end)]
        u = smap.w(p)  # relativistic targets reach +-w(P_MAX) = +-0.985
        np.testing.assert_array_less(np.abs(smap.w(inverse(u)) - u), 4.0 * np.spacing(np.abs(u)) + 1e-300)

    @pytest.mark.parametrize("name, i", BRANCHES)
    def test_dw_keeps_one_sign_inside_each_branch(self, name, i):
        smap = SCALAR_MAPS[name]
        start, end, _ = smap.branches[i]
        signs = np.sign(oracle.DW[smap](branch_nodes(start, end, 1001)))
        assert signs[0] != 0.0 and np.all(signs == signs[0])

    def test_square_pieces_split_at_the_critical_point(self):
        pieces = tr._monotone_pieces(SCALAR_MAPS["square"], -3.0, 2.0)
        assert [(a, b) for a, b, _ in pieces] == [(-3.0, 0.0), (0.0, 2.0)]

    @pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (-2.0, -0.5), (-2.0, 0.0)])
    def test_a_range_on_one_side_of_zero_is_one_piece(self, lo, hi):
        pieces = tr._monotone_pieces(SCALAR_MAPS["square"], lo, hi)
        assert [(a, b) for a, b, _ in pieces] == [(lo, hi)]


# _pair_profile of the (W, W) Gaussian pair at q = t w(p) + 0.25 for p = -1.1, 0, 0.6, as
# computed when the window ends were found by bisection in place of the branch inverses
PINNED_PROFILES = {
    ("identity", 0.5): [1.4751994002537303, 1.5080134177638942, 1.2445738314581585],
    ("identity", 10.0): [0.05616966234208306, 0.1762566464974216, 0.11979746650385083],
    ("identity", 640.0): [0.0008265565022822954, 0.0027694553387742804, 0.0019312796268547727],
    ("relativistic", 0.5): [1.6496115266868574, 1.5808646617188287, 1.3304034095286608],
    ("relativistic", 10.0): [0.1720040073624755, 0.17774150632752156, 0.19532793776162427],
    ("relativistic", 640.0): [0.0027156400004080083, 0.002769461043674605, 0.0030647140308744892],
    ("square", 0.5): [1.125036454034149, 1.6319017407220255, 1.557885933698811],
    ("square", 10.0): [0.046654794207447954, 0.6237627370227885, 0.1989155303699301],
    ("square", 640.0): [0.0007503550973091133, 0.08116195458638197, 0.0032173261687764077],
}


@pytest.mark.parametrize("name, t", PINNED_PROFILES)
def test_pair_profile_matches_the_pinned_quadrature(name, t):
    smap = SCALAR_MAPS[name]
    q = t * smap.w(np.array([-1.1, 0.0, 0.6])) + 0.25
    got = tr._pair_profile(Gaussian((0.0, 0.0), (W, W)), smap, t, q)
    np.testing.assert_allclose(got, PINNED_PROFILES[name, t], rtol=1e-13, atol=0.0)


# closed-form (mass, l2, kinetic) of exp(-|q|^2 - |p|^2) under each map: per axis int exp(-x^2) = sqrt(pi),
# int exp(-2x^2) = sqrt(pi/2) and int x^2 exp(-x^2) = sqrt(pi)/2
CONSERVED_CASES = {
    "identity-d1": (tr.identity_map(1), (math.pi, math.pi / 2, math.pi / 2)),
    "relativistic-d1": (tr.relativistic_map(), (math.pi, math.pi / 2, math.pi / 2)),
    "identity-d2": (tr.identity_map(2), (math.pi**2, math.pi**2 / 4, math.pi**2)),
    "mixed-d2": (tr.mixed_map(), (math.pi**2, math.pi**2 / 4, math.pi**2)),
}


class TestConservedFunctional:
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 10.0])
    @pytest.mark.parametrize("case", list(CONSERVED_CASES))
    def test_matches_the_closed_forms(self, case, t):
        dmap, closed = CONSERVED_CASES[case]
        got = tr.conserved_functional(pairs_of(GAUSSIAN_PAIR, dmap), t)
        np.testing.assert_allclose(got, closed, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_datum_evaluation_per_pair(self, monkeypatch, d):
        sol = pairs_of(GAUSSIAN_PAIR, tr.identity_map(d))
        calls = []
        value = Gaussian.value

        def counted(self, *x):
            calls.append(1)
            return value(self, *x)

        monkeypatch.setattr(Gaussian, "value", counted)
        tr.conserved_functional(sol, 5.0)
        assert len(calls) == d


class TestTransportBoost:
    """The boost on the transported bump, whose datum carries the gradient oracle."""

    def test_time_zero_is_momentum_derivative(self):
        # d_p of lam S(2 - lam rho), rho = |(q, p)|, on the transition 1 < lam rho < 2, with
        # S(a) = e^(-1/a) / (e^(-1/a) + e^(-1/(1 - a))) written out
        lam, q, p = 2.0, 0.45, -0.45
        sol = pairs_of(BumpLambda(lam), tr.identity_map(1))
        rho = math.hypot(q, p)
        a = 2.0 - lam * rho
        ea, eb = math.exp(-1.0 / a), math.exp(-1.0 / (1.0 - a))
        slope = ea * eb * (a**-2 + (1.0 - a) ** -2) / (ea + eb) ** 2
        got = oracle.apply_transport_boost(sol, 0.0, 0, [q], [p])
        assert got == pytest.approx(-(lam**2) * slope * p / rho, rel=1e-12)

    def test_odd_symmetry_zero(self):
        # the bump is even in p, so its p-derivative vanishes at p = 0 wherever the foot lands
        sol = pairs_of(BumpLambda(2.0), tr.identity_map(1))
        assert oracle.apply_transport_boost(sol, 2.0, 0, [0.75], [0.0]) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "dmap", [tr.identity_map(1), tr.relativistic_map(), tr.square_map()], ids=["identity", "relativistic", "square"]
    )
    def test_matches_finite_differences_of_density(self, dmap):
        # W_i = d_p + t (dw/dp) d_q applied through centered stencils on nu, at points whose
        # feet lie on the bump's transition annulus, where its gradient is nonzero
        sol = pairs_of(BumpLambda(1.0), dmap)
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(8):
            t, rho, angle = rng.uniform(0.2, 3.0), rng.uniform(1.1, 1.9), rng.uniform(0.0, 2.0 * math.pi)
            p = rho * math.sin(angle)
            q = rho * math.cos(angle) + t * float(dmap[0].w(p))
            dnu_dp = (
                oracle.evaluate(sol, t, [q], [p + h]) - oracle.evaluate(sol, t, [q], [p - h])
            ) / (2 * h)
            dnu_dq = (
                oracle.evaluate(sol, t, [q + h], [p]) - oracle.evaluate(sol, t, [q - h], [p])
            ) / (2 * h)
            dw = float(oracle.DW[dmap[0]](p))
            stencil = dnu_dp + t * dw * dnu_dq
            boost = oracle.apply_transport_boost(sol, t, 0, [q], [p])
            assert abs(boost) > 1e-3
            assert boost == pytest.approx(float(stencil), rel=1e-5, abs=1e-8)


class TestCounterexample:
    def test_lower_bound_along_diagonal(self):
        # at t = lam the closed-form floor is sqrt((sqrt(5)-1)/2)
        r = tr.counterexample_profile(4.0)
        assert r.lower_bound == pytest.approx(math.sqrt((math.sqrt(5.0) - 1.0) / 2.0), rel=1e-12)
        assert r.lower_bound == pytest.approx(0.78615, abs=5e-6)
        assert r.nu_bar_at_origin >= r.lower_bound - 1e-6

    def test_quadrature_against_independent_oracle(self):
        # independent 1-d quadrature of lam * profile(lam*sqrt(t^2 p^4 + p^2))
        from decaylab.fields import bump_profile

        lam, t = 4.0, 4.0
        oracle = quad(
            lambda p: lam * bump_profile(lam * math.sqrt(t**2 * p**4 + p**2)),
            -0.6,
            0.6,
            limit=200,
            epsabs=1e-12,
        )[0]
        r = tr.counterexample_profile(lam)
        assert r.nu_bar_at_origin == pytest.approx(oracle, rel=1e-8)

    def test_w11_bound_uniform_in_lam(self):
        rows = [tr.counterexample_profile(lam) for lam in (4.0, 16.0, 64.0)]
        w11 = [r.w11_norm_bound for r in rows]
        assert max(w11) / min(w11) - 1.0 < 0.10
        # the mass term decays like 1/lam and is reported separately
        assert rows[0].l1_norm > rows[-1].l1_norm


class TestDecayExperiment:
    def test_identity_slope_short_window(self, gaussian_datum):
        times = [10.0 * 2 ** (0.5 * k) for k in range(11)]
        values = tr.sup_velocity_average(gaussian_datum, times)
        fit = fit_decay(times, values)
        assert fit.slope == pytest.approx(-1.0, abs=0.02)

    def test_no_decay_along_counterexample_diagonal(self):
        vals = [tr.counterexample_profile(lam).nu_bar_at_origin for lam in (4.0, 8.0, 16.0, 32.0, 64.0)]
        assert min(vals) >= 0.78
        spread = max(vals) / min(vals)
        assert spread < 1.001  # constant along the diagonal


def test_velocity_average_against_scipy_quadrature(gaussian_datum):
    t, q = 1.7, 0.4
    pg = GridSpec.centered(8.0, 256, dim=1)
    ours = oracle.velocity_average(gaussian_datum, t, [q], pg)
    ref = quad(lambda p: math.exp(-((q - t * p) ** 2) - p * p), -8, 8, epsabs=1e-13)[0]
    assert ours == pytest.approx(ref, rel=1e-10)


def test_mixed_map_feet_are_formed_axis_by_axis():
    # each axis reads its own scalar map: the feet are (q1 - t p1, q2 - t p2^2)
    g1, g2 = Gaussian((0.1, 0.3), (1.0, 0.8)), Gaussian((-0.2, -0.4), (1.5, 1.2))
    sol = list(zip((g1, g2), tr.mixed_map()))
    rng = np.random.default_rng(11)
    q1, q2, p1, p2 = rng.normal(size=(4, 7)) * 3.0
    for t in (0.0, 0.7, 4.0):
        expected = g1.value(q1 - t * p1, p1) * g2.value(q2 - t * p2**2, p2)
        np.testing.assert_array_equal(oracle.evaluate(sol, t, (q1, q2), (p1, p2)), expected)


def test_the_window_quadrature_refuses_time_zero(gaussian_datum):
    # every catalog time is positive; t = 0 has no preimage window
    with pytest.raises(ValueError, match="t != 0"):
        tr.sup_velocity_average(gaussian_datum, [1.0, 0.0])
    with pytest.raises(ValueError, match="t != 0"):
        tr._pair_profile(GAUSSIAN_PAIR, SCALAR_MAPS["identity"], np.array([1.0, 0.0]), np.zeros(2))
