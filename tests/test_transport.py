"""Transport solutions: characteristics, averages, conservation, boosts."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from decaylab.fields import BumpLambda, Gaussian, GridSpec, SupportOverflowError, product_gaussian_phase
from decaylab import transport as tr

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
        assert tr.velocity_average(sol, 1.0, [0.0], pg) == 0.0

    def test_closed_form_at_origin(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 128, dim=1)
        assert tr.velocity_average(gaussian_solution, 0.0, [0.0], pg) == pytest.approx(
            math.sqrt(math.pi), abs=1e-12
        )
        assert tr.velocity_average(gaussian_solution, 1.0, [0.0], pg) == pytest.approx(
            math.sqrt(math.pi / 2.0), abs=1e-12
        )

    def test_momentum_coverage_guard(self, gaussian_solution):
        small = GridSpec.centered(1.0, 16, dim=1)
        with pytest.raises(SupportOverflowError):
            tr.velocity_average(gaussian_solution, 1.0, [0.0], small)


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
        explicit = tr.sup_velocity_average(gaussian_solution, t, qg, pg)
        adaptive = tr.sup_velocity_average(gaussian_solution, t)
        assert explicit == pytest.approx(adaptive, rel=1e-5)

    def test_qgrid_coverage_guard(self, gaussian_solution):
        qg = GridSpec.centered(3.0, 64, dim=1)  # too small for t = 10 travel
        pg = GridSpec.centered(8.0, 128, dim=1)
        with pytest.raises(SupportOverflowError):
            tr.sup_velocity_average(gaussian_solution, 10.0, qg, pg)

    def test_relativistic_peak_off_origin(self):
        # characteristics pile up near |q| = t w(1/sqrt(2)); the sup must see it
        sol = tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.relativistic_map(1))
        t = 50.0
        sup = tr.sup_velocity_average(sol, t)
        pg = GridSpec.centered(8.0, 4096, dim=1)
        at_peak = tr.velocity_average(sol, t, [t * (1 / math.sqrt(3))], pg)
        assert sup >= at_peak - 1e-10


class TestConservedFunctional:
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_mass_matches_oracle(self, gaussian_solution, t):
        pg = GridSpec.centered(8.0, 96, dim=1)
        val = tr.conserved_functional(gaussian_solution, lambda p, v: v, t, pg)
        assert val == pytest.approx(math.pi, rel=1e-10)

    def test_squared_density_constant(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 96, dim=1)
        vals = [
            tr.conserved_functional(gaussian_solution, lambda p, v: v * v, t, pg)
            for t in (0.0, 1.0, 5.0)
        ]
        assert max(vals) - min(vals) <= 1e-8 * abs(vals[0])

    def test_kinetic_constant(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 96, dim=1)
        kin = lambda p, v: np.sum(p * p, axis=-1) * v
        vals = [tr.conserved_functional(gaussian_solution, kin, t, pg) for t in (0.0, 5.0)]
        assert vals[1] == pytest.approx(vals[0], rel=1e-8)

    def test_explicit_qgrid_path(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 128, dim=1)
        qg = GridSpec.centered(50.0, 1024, dim=1)
        a = tr.conserved_functional(gaussian_solution, lambda p, v: v, 5.0, pg, qgrid=qg)
        assert a == pytest.approx(math.pi, rel=1e-9)

    def test_windowed_needs_vanishing_functional(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 64, dim=1)
        with pytest.raises(ValueError):
            tr.conserved_functional(gaussian_solution, lambda p, v: v + 1.0, 1.0, pg)

    def test_explicit_qgrid_coverage_guard(self, gaussian_solution):
        pg = GridSpec.centered(8.0, 64, dim=1)
        qg = GridSpec.centered(10.0, 64, dim=1)
        with pytest.raises(SupportOverflowError):
            tr.conserved_functional(gaussian_solution, lambda p, v: v, 5.0, pg, qgrid=qg)


class TestTransportBoost:
    def test_time_zero_is_momentum_derivative(self, gaussian_solution):
        q, p = 0.4, -0.3
        got = tr.apply_transport_boost(gaussian_solution, 0.0, 0, [q], [p])
        exact = -2.0 * p * math.exp(-(q**2) - p**2)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_odd_symmetry_zero(self, gaussian_solution):
        assert tr.apply_transport_boost(gaussian_solution, 2.0, 0, [0.0], [0.0]) == pytest.approx(
            0.0, abs=1e-14
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.identity_map(1)),
            lambda: tr.TransportSolution(Gaussian((0.0, 0.0), (W, W)), tr.relativistic_map(1)),
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
            boost = tr.apply_transport_boost(sol, t, 0, [q], [p])
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
    def test_identity_slope_short_window(self):
        times = [10.0 * 2 ** (0.5 * k) for k in range(11)]
        fit = tr.transport_decay_experiment(tr.identity_map(1), Gaussian((0.0, 0.0), (W, W)), times)
        assert fit.slope == pytest.approx(-1.0, abs=0.02)

    def test_requires_increasing_positive_times(self):
        with pytest.raises(ValueError):
            tr.transport_decay_experiment(
                tr.identity_map(1), Gaussian((0.0, 0.0), (W, W)), [1.0, 0.5, 2.0]
            )

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
    ours = tr.velocity_average(gaussian_solution, t, [q], pg)
    ref = quad(lambda p: math.exp(-((q - t * p) ** 2) - p * p), -8, 8, epsabs=1e-13)[0]
    assert ours == pytest.approx(ref, rel=1e-10)
