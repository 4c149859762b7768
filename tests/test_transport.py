"""Transport solutions: characteristics, averages, conservation, boosts."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from decaylab.fields import BumpLambda, CubeIndicator, Gaussian, GridSpec, SupportOverflowError, product_gaussian_phase
from decaylab import transport as tr
from decaylab.experiments import OUTPUT_DIR_ENV, default_config, emit_config, parse_config, run
from decaylab.harness import fit_decay

import transport_oracles as oracle

W = 1.0 / math.sqrt(2.0)  # width so the datum is exp(-q^2 - p^2)


@pytest.fixture(scope="module")
def gaussian_solution():
    return tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.identity_map(1))


class TestEvaluateDensity:
    def test_time_zero_is_datum(self, gaussian_solution):
        rng = np.random.default_rng(0)
        q, p = rng.normal(size=8), rng.normal(size=8)
        got = gaussian_solution.evaluate(0.0, q, p)
        np.testing.assert_allclose(got, np.exp(-(q**2) - p**2), rtol=1e-14)

    def test_characteristics_value(self, gaussian_solution):
        # (t,q,p) = (1,0,1): exp(-(0-1)^2 - 1) = e^-2
        got = gaussian_solution.evaluate(1.0, [0.0], [1.0])
        assert got == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_square_map_bump_plateau(self):
        lam = 3.0
        sol = tr.TransportSolution(BumpLambda(lam), tr.square_map())
        # pick (t,q,p) with (q - t p^2, p) inside the plateau disc of radius 1/lam
        t, p = 2.0, 0.1
        q = t * p**2 + 0.05
        assert sol.evaluate(t, [q], [p]) == pytest.approx(lam, abs=0)

    def test_exactness_against_independent_reevaluation(self, gaussian_solution):
        # round-off in the exponent grows with its magnitude, hence the scaled rel tol
        rng = np.random.default_rng(3)
        for _ in range(16):
            t, q, p = rng.uniform(-5, 5, 3)
            expo = (q - t * p) ** 2 + p**2
            assert gaussian_solution.evaluate(t, [q], [p]) == pytest.approx(
                math.exp(-expo), rel=1e-14 * (10.0 + expo), abs=1e-300
            )


class TestVelocityAverage:
    def test_zero_datum(self):
        sol = tr.TransportSolution(Gaussian((0.0, 0.0), (W, W), amplitude=0.0), tr.identity_map(1))
        pg = GridSpec.centered(8.0, 64, dim=1)
        assert oracle.velocity_average(sol, 1.0, [0.0], pg) == 0.0

    def test_closed_form_at_origin(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 128, dim=1)
        assert oracle.velocity_average(gaussian_solution, 0.0, [0.0], pg) == pytest.approx(
            math.sqrt(math.pi), abs=1e-12
        )
        assert oracle.velocity_average(gaussian_solution, 1.0, [0.0], pg) == pytest.approx(
            math.sqrt(math.pi / 2.0), abs=1e-12
        )

    def test_momentum_coverage_guard(self, gaussian_solution):
        small = GridSpec.centered(1.0, 16, dim=1)
        with pytest.raises(SupportOverflowError):
            oracle.velocity_average(gaussian_solution, 1.0, [0.0], small)


class TestSupVelocityAverage:
    def test_gaussian_closed_form(self, gaussian_solution):
        # sup_q of the average is sqrt(pi / (1 + t^2))
        assert tr.sup_velocity_average(gaussian_solution, 3.0) == pytest.approx(
            math.sqrt(math.pi / 10.0), abs=1e-8
        )
        assert tr.sup_velocity_average(gaussian_solution, 0.0) == pytest.approx(
            math.sqrt(math.pi), abs=1e-10
        )

    def test_zero_datum(self):
        sol = tr.TransportSolution(Gaussian((0.0, 0.0), (W, W), amplitude=0.0), tr.identity_map(1))
        assert tr.sup_velocity_average(sol, 2.0) == 0.0

    def test_explicit_grids_agree_with_adaptive(self, gaussian_solution):
        t = 2.0
        qg = GridSpec.centered(20.0, 4096, dim=1)
        pg = GridSpec.centered(8.0, 512, dim=1)
        explicit = oracle.grid_sup(gaussian_solution, t, qg, pg)
        adaptive = tr.sup_velocity_average(gaussian_solution, t)
        assert explicit == pytest.approx(adaptive, rel=1e-5)

    def test_qgrid_coverage_guard(self, gaussian_solution):
        qg = GridSpec.centered(3.0, 64, dim=1)  # too small for t = 10 travel
        pg = GridSpec.centered(8.0, 128, dim=1)
        with pytest.raises(SupportOverflowError):
            oracle.grid_sup(gaussian_solution, 10.0, qg, pg)

    def test_relativistic_peak_off_origin(self):
        # characteristics pile up near |q| = t w(1/sqrt(2)); the sup must see it
        sol = tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.relativistic_map())
        t = 50.0
        sup = tr.sup_velocity_average(sol, t)
        pg = GridSpec.centered(8.0, 4096, dim=1)
        at_peak = oracle.velocity_average(sol, t, [t * (1 / math.sqrt(3))], pg)
        assert sup >= at_peak - 1e-10

    @pytest.mark.parametrize("t", [1000.0, 1e4])
    def test_identity_sup_equals_closed_form(self, gaussian_solution, t):
        # the coarse scan plus refinement finds the peak sqrt(pi / (1 + t^2)) at q = 0
        assert tr.sup_velocity_average(gaussian_solution, t) == pytest.approx(
            math.sqrt(math.pi / (1.0 + t * t)), rel=1e-10
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
        pair = product_gaussian_phase(W, W, 2).phase_pair_factors(2)[1]
        sup, _ = tr._pair_sup(pair, tr.mixed_map().axis_maps[1], t)
        assert sup == pytest.approx(dense_sup, rel=1e-8)


SCALAR_MAPS = {
    "identity": tr.identity_map(1).axis_maps[0],
    "square": tr.square_map().axis_maps[0],
    "relativistic": tr.relativistic_map().axis_maps[0],
}
BRANCHES = [(name, i) for name, smap in SCALAR_MAPS.items() for i in range(len(smap.branches))]
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
        sup, qat = tr._pair_sup(pair, SCALAR_MAPS[name], t)
        # qat's sign is not pinned: the relativistic average has two mirror peaks
        assert sup == tr._pair_profile(pair, SCALAR_MAPS[name], t, [qat])[0]

    @pytest.mark.parametrize("t", [10.0, 640.0])
    @pytest.mark.parametrize("name", SCALAR_MAPS)
    def test_no_report_quadrature_near_the_peak_beats_the_sup(self, name, t):
        smap = SCALAR_MAPS[name]
        pair = Gaussian((0.0, 0.0), (W, W))
        sup, qat = tr._pair_sup(pair, smap, t)
        lo, hi = pair.support_bounds(1e-14)
        ends = np.array([e for a, b, _ in tr._monotone_pieces(smap, lo[1], hi[1]) for e in (a, b)])
        images = t * smap.w(ends)
        spacing = (images.max() + hi[0] - images.min() - lo[0]) / 256  # of the coarse scan
        scan = tr._pair_profile(pair, smap, t, qat + np.linspace(-spacing, spacing, 257))
        assert scan.max() <= sup * (1.0 + 1e-12)

    def test_square_axis_sup_evaluates_a_quarter_of_the_report_points(self):
        # 186,012 points; with every candidate scored at 513 nodes it was 735,642
        pair = CountingGaussian((0.0, 0.0), (W, W))
        tr._pair_sup(pair, SCALAR_MAPS["square"], 640.0)
        assert pair.points[0] <= 190_000


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
        signs = np.sign(smap.dw(branch_nodes(start, end, 1001)))
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


def product_solution_d2():
    return tr.TransportSolution(product_gaussian_phase(1.0, 1.0, 2), tr.identity_map(2))


class TestConservedFunctional:
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_mass_matches_oracle(self, gaussian_solution, t):
        pg = GridSpec.centered(8.0, 96, dim=1)
        (val,) = tr.conserved_functional(gaussian_solution, [lambda p, v: v], t, pg)
        assert val == pytest.approx(math.pi, rel=1e-10)

    def test_squared_density_constant(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 96, dim=1)
        vals = [
            tr.conserved_functional(gaussian_solution, [lambda p, v: v * v], t, pg)[0]
            for t in (0.0, 1.0, 5.0)
        ]
        assert max(vals) - min(vals) <= 1e-8 * abs(vals[0])

    def test_kinetic_constant(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 96, dim=1)
        kin = lambda p, v: np.sum(p * p, axis=-1) * v
        vals = [tr.conserved_functional(gaussian_solution, [kin], t, pg)[0] for t in (0.0, 5.0)]
        assert vals[1] == pytest.approx(vals[0], rel=1e-8)

    @pytest.mark.parametrize("case", ["windowed-d1", "windowed-d2"])
    def test_sequence_equals_single_calls(self, gaussian_solution, case):
        sol, pg = gaussian_solution, GridSpec.centered(8.0, 96, dim=1)
        if case == "windowed-d2":  # its p-grid spans three nu chunks
            sol, pg = product_solution_d2(), GridSpec.centered(8.0, 40, dim=2)
        functionals = [lambda p, v: v, lambda p, v: v * v, lambda p, v: np.sum(p * p, axis=-1) * v]
        for t in (0.0, 5.0):
            single = [tr.conserved_functional(sol, [F], t, pg)[0] for F in functionals]
            assert tr.conserved_functional(sol, functionals, t, pg) == single

    def test_one_window_evaluation_serves_every_functional(self, monkeypatch):
        sol, pg = product_solution_d2(), GridSpec.centered(8.0, 40, dim=2)
        calls = []
        value = Gaussian.value

        def counted(self, *x):
            calls.append(1)
            return value(self, *x)

        monkeypatch.setattr(Gaussian, "value", counted)
        tr.conserved_functional(sol, [lambda p, v: v], 5.0, pg)
        chunks = len(calls)
        tr.conserved_functional(sol, [lambda p, v: v, lambda p, v: v * v, lambda p, v: v**3], 5.0, pg)
        assert chunks == 3 and len(calls) == 2 * chunks

    def test_windowed_needs_vanishing_functional(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 64, dim=1)
        with pytest.raises(ValueError):
            tr.conserved_functional(gaussian_solution, [lambda p, v: v + 1.0], 1.0, pg)


class TestTransportBoost:
    def test_time_zero_is_momentum_derivative(self, gaussian_solution):
        q, p = 0.4, -0.3
        got = oracle.apply_transport_boost(gaussian_solution, 0.0, 0, [q], [p])
        exact = -2.0 * p * math.exp(-(q**2) - p**2)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_odd_symmetry_zero(self, gaussian_solution):
        assert oracle.apply_transport_boost(gaussian_solution, 2.0, 0, [0.0], [0.0]) == pytest.approx(
            0.0, abs=1e-14
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.identity_map(1)),
            lambda: tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.relativistic_map()),
            lambda: tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.square_map()),
        ],
    )
    def test_matches_finite_differences_of_density(self, make):
        # W_i = d_p + t (dw/dp) d_q applied through centered stencils on nu
        sol = make()
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(8):
            t = rng.uniform(0.2, 3.0)
            q, p = rng.uniform(-1.0, 1.0, 2)
            dnu_dp = (
                sol.evaluate(t, [q], [p + h]) - sol.evaluate(t, [q], [p - h])
            ) / (2 * h)
            dnu_dq = (
                sol.evaluate(t, [q + h], [p]) - sol.evaluate(t, [q - h], [p])
            ) / (2 * h)
            dw = float(sol.dispersion.axis_maps[0].dw(p))
            stencil = dnu_dp + t * dw * dnu_dq
            boost = oracle.apply_transport_boost(sol, t, 0, [q], [p])
            assert boost == pytest.approx(float(stencil), rel=1e-5, abs=1e-8)


class TestKsVlasov:
    def test_rhs_matches_gaussian_moment(self, gaussian_solution):
        # int |d_p exp(-q^2-p^2)| dq dp = 2 sqrt(pi), independent of t
        for t in (0.5, 4.0):
            lhs, rhs = tr.ks_vlasov_check(gaussian_solution, t)
            assert rhs == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-4)
            assert lhs <= rhs + 1e-9

    def test_t_zero_lhs_vanishes(self, gaussian_solution):
        lhs, rhs = tr.ks_vlasov_check(gaussian_solution, 0.0)
        assert lhs == 0.0 and rhs > 0.0

    def test_zero_datum(self):
        sol = tr.TransportSolution(Gaussian((0.0, 0.0), (W, W), amplitude=0.0), tr.identity_map(1))
        lhs, rhs = tr.ks_vlasov_check(sol, 1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_holds_across_times(self, gaussian_solution):
        for t in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
            lhs, rhs = tr.ks_vlasov_check(gaussian_solution, t)
            assert lhs <= rhs + 1e-9

    def test_holds_in_two_dimensions(self):
        sol = tr.TransportSolution(product_gaussian_phase(W, W, 2), tr.identity_map(2))
        for t in (1.0, 5.0):
            lhs, rhs = tr.ks_vlasov_check(sol, t)
            assert rhs == pytest.approx(4.0 * math.pi, rel=1e-3)
            assert lhs <= rhs + 1e-9

    def test_rejects_other_maps(self):
        sol = tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.square_map())
        with pytest.raises(ValueError):
            tr.ks_vlasov_check(sol, 1.0)


class TestCounterexample:
    def test_lower_bound_along_diagonal(self):
        # at t = lam the closed-form floor is sqrt((sqrt(5)-1)/2)
        r = tr.counterexample_profile(4.0, 4.0)
        assert r.lower_bound == pytest.approx(math.sqrt((math.sqrt(5.0) - 1.0) / 2.0), rel=1e-12)
        assert r.lower_bound == pytest.approx(0.78615, abs=5e-6)
        assert r.nu_bar_at_origin >= r.lower_bound - 1e-6

    def test_time_zero_plateau(self):
        r = tr.counterexample_profile(4.0, 0.0)
        assert r.nu_bar_at_origin >= 2.0 - 1e-9
        assert r.lower_bound == 2.0

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
        r = tr.counterexample_profile(lam, t)
        assert r.nu_bar_at_origin == pytest.approx(oracle, rel=1e-8)

    def test_w11_bound_uniform_in_lam(self):
        rows = [tr.counterexample_profile(lam, lam) for lam in (4.0, 16.0, 64.0)]
        w11 = [r.w11_norm_bound for r in rows]
        assert max(w11) / min(w11) - 1.0 < 0.10
        # the mass term decays like 1/lam and is reported separately
        assert rows[0].l1_norm > rows[-1].l1_norm


class TestDecayExperiment:
    def test_identity_slope_short_window(self, gaussian_solution):
        times = [10.0 * 2 ** (0.5 * k) for k in range(11)]
        values = [tr.sup_velocity_average(gaussian_solution, t) for t in times]
        fit = fit_decay(times, values)
        assert fit.slope == pytest.approx(-1.0, abs=0.02)

    def test_no_decay_along_counterexample_diagonal(self):
        vals = [tr.counterexample_profile(lam, lam).nu_bar_at_origin for lam in (4.0, 8.0, 16.0, 32.0, 64.0)]
        assert min(vals) >= 0.78
        spread = max(vals) / min(vals)
        assert spread < 1.001  # constant along the diagonal


def test_datum_dimension_guard():
    with pytest.raises(ValueError):
        tr.TransportSolution(Gaussian(0.0, 1.0), tr.identity_map(1))


def test_velocity_average_against_scipy_quadrature(gaussian_solution):
    t, q = 1.7, 0.4
    pg = GridSpec.centered(8.0, 256, dim=1)
    ours = oracle.velocity_average(gaussian_solution, t, [q], pg)
    ref = quad(lambda p: math.exp(-((q - t * p) ** 2) - p * p), -8, 8, epsabs=1e-13)[0]
    assert ours == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize(
    "dmap, closed_form",
    [
        (tr.relativistic_map(), lambda p: p / np.sqrt(1.0 + p**2)),
        (tr.mixed_map(), lambda p: np.stack([p[..., 0], p[..., 1] ** 2], axis=-1)),
        (tr.identity_map(2), lambda p: p),
    ],
)
def test_map_velocity_is_read_axis_by_axis(dmap, closed_form):
    p = np.random.default_rng(11).normal(size=(7, dmap.dim)) * 3.0
    np.testing.assert_array_equal(dmap.w(p), closed_form(p))


def test_sup_needs_a_pair_factored_datum():
    sol = tr.TransportSolution(CubeIndicator((0.0, 0.0), 1.0), tr.identity_map(1))
    with pytest.raises(ValueError, match="pair factors"):
        tr.sup_velocity_average(sol, 1.0)


REPORTS = Path(__file__).resolve().parent / "reports"


@pytest.mark.parametrize(
    "name, exp_id, edit",
    [
        ("conservation", "conservation", None),
        ("transport-degenerate-relativistic", "transport-degenerate", ("map = mixed", "map = relativistic")),
    ],
    ids=["conservation", "transport-degenerate-relativistic"],
)
def test_transport_reports_equal_the_recorded_tables(name, exp_id, edit, monkeypatch):
    # recorded from the default configs before the explicit-grid and non-separable-map paths were removed
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    config = default_config(exp_id)
    if edit is not None:
        config = parse_config(emit_config(config).replace(*edit))
    assert run(config).samples_table() == (REPORTS / f"{name}.tsv").read_text()
