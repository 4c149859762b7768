"""Decay fitting and the inequality check suites on small grids."""

import math

import numpy as np
import pytest

from decaylab.fields import Gaussian, GridSpec, sample, spectral_derivative
from decaylab.norms import build_dyadic_partition, x_norm
from decaylab.propagators import Evolution, airy, schrodinger
from decaylab import harness as hz


def complex_sample(datum, grid):
    f = sample(datum, grid)
    return f.with_values(f.values.astype(np.complex128), "complex")


class TestFitDecay:
    @pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, 1.0, 2.0])
    def test_exact_power_law(self, a):
        t = np.geomspace(1.0, 100.0, 12)
        fit = hz.fit_decay(t, t**-a)
        assert fit.slope == pytest.approx(-a, abs=1e-12)
        assert fit.max_abs_residual <= 1e-12

    def test_window_filter(self):
        t = np.geomspace(1.0, 100.0, 20)
        v = t**-1.0
        fit = hz.fit_decay(t, v, window=(5.0, 50.0))
        assert fit.window[0] >= 5.0 and fit.window[1] <= 50.0

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            hz.fit_decay([1.0, 2.0, 4.0, 8.0, 16.0], [1.0, 0.5, 0.0, 0.1, 0.1])

    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            hz.fit_decay([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])

    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            hz.fit_decay([1.0, 3.0, 2.0, 4.0, 5.0], [1.0] * 5)

    def test_short_window_after_exclusions_is_contamination(self):
        with pytest.raises(hz.ContaminationError, match="insufficient"):
            hz.fit_decay([1.0, 2.0, 4.0], [1.0, 0.5, 0.25], excluded=((8.0, "wrap-around"),))
        with pytest.raises(ValueError) as info:
            hz.fit_decay([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])
        assert not isinstance(info.value, hz.ContaminationError)


@pytest.fixture(scope="module")
def shell_setup():
    grid = GridSpec.centered(1600.0, 32768, dim=1)
    part = build_dyadic_partition(grid, 0, 2)
    u0 = complex_sample(Gaussian(2.2, 0.25), grid)
    return grid, part, u0


class TestDispersiveCheck:
    def test_zero_datum_passes(self, shell_setup):
        grid, part, _ = shell_setup
        zero = complex_sample(Gaussian(2.2, 0.25, amplitude=0.0), grid)
        rep = hz.check_dispersive_schrodinger(zero, [1.0, 2.0], part)
        assert rep.passed and rep.max_ratio == 0.0

    def test_ratio_stable(self, shell_setup):
        _, part, u0 = shell_setup
        times = [1.0, 2.0, 4.0, 8.0, 16.0]
        rep = hz.check_dispersive_schrodinger(u0, times, part)
        ratios = [l / r for (_, l, r) in rep.samples]
        assert rep.passed
        assert max(ratios) <= 2.0 * min(ratios)

    def test_oracle_cross_check(self, shell_setup):
        # lhs at t matches sqrt(t) * w (w^4 + 4 t^2)^(-1/4) for the shifted Gaussian
        _, part, u0 = shell_setup
        t, w = 16.0, 0.25
        rep = hz.check_dispersive_schrodinger(u0, [t], part)
        lhs = rep.samples[0][1]
        assert lhs == pytest.approx(math.sqrt(t) * w * (w**4 + 4 * t * t) ** -0.25, rel=1e-6)


class TestKsCheck:
    def test_ratio_level(self):
        grid = GridSpec.centered(800.0, 8192, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        rep = hz.check_ks_schrodinger(u0, [1.0, 4.0, 16.0])
        assert rep.passed
        # rhs = 2 ||u|| ||W u|| = sqrt(pi/2); lhs -> 1/2 sup^2 scaling
        t, lhs, rhs = rep.samples[-1]
        assert rhs == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-8)
        assert lhs == pytest.approx(t * (1 + 4 * t * t) ** -0.5, rel=1e-8)

    def test_product_structure_in_2d(self):
        # the 2-d ratio is predicted by the 1-d boost-norm structure
        grid2 = GridSpec.centered(120.0, 512, dim=2)
        u2 = complex_sample(Gaussian((0.0, 0.0), (1.3, 1.3)), grid2)
        rep2 = hz.check_ks_schrodinger(u2, [2.0])
        t, lhs2, rhs2 = rep2.samples[0]

        grid1 = GridSpec.centered(120.0, 1024, dim=1)
        u1 = complex_sample(Gaussian(0.0, 1.3), grid1)
        rep1 = hz.check_ks_schrodinger(u1, [2.0])
        _, lhs1, rhs1 = rep1.samples[0]
        from decaylab.operators import conserved_operator_norm, schrodinger_boost
        from decaylab.propagators import schrodinger

        n = [
            float(conserved_operator_norm(u1, [(schrodinger_boost(0), k)], schrodinger(), [2.0])[0])
            for k in (0, 1, 2)
        ]
        predicted_rhs2 = 4 * n[0] ** 3 * n[2] + 6 * n[0] ** 2 * n[1] ** 2
        assert lhs2 == pytest.approx(lhs1**2, rel=1e-6)
        assert rhs2 == pytest.approx(predicted_rhs2, rel=1e-6)
        assert (lhs2 / rhs2) == pytest.approx(lhs1**2 / predicted_rhs2, rel=0.10)


class TestLpAndLocalMass:
    def test_theta_zero_is_mass_conservation(self, shell_setup):
        _, _, u0 = shell_setup
        rep = hz.check_lp_decay(u0, 0.0, [1.0, 3.0, 9.0])
        assert rep.passed
        for _, lhs, rhs in rep.samples:
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_theta_half_rate(self, shell_setup):
        _, part, u0 = shell_setup
        times = [5.0 * 2 ** (0.5 * k) for k in range(8)]
        rep = hz.check_lp_decay(u0, 0.5, times, part)
        assert rep.passed
        l4 = [l / t**0.25 for (t, l, _) in rep.samples]
        fit = hz.fit_decay([s[0] for s in rep.samples], l4)
        assert fit.slope == pytest.approx(-0.25, abs=0.05)

    def test_theta_guard(self, shell_setup):
        _, part, u0 = shell_setup
        with pytest.raises(ValueError):
            hz.check_lp_decay(u0, 1.0, [1.0], part)

    def test_local_mass_sigma_zero_sandwich(self, shell_setup):
        _, part, u0 = shell_setup
        # The estimate is an upper bound. From sum phi_k^2 >= (sum phi_k)^2 / 2,
        # ||u(t)|| = ||u0|| and X(u0) <= ||u0||, the ratio is at least
        # 2^(-1/2) (1 - ofs(t)), ofs the mass fraction that has left the shell.
        rep = hz.check_local_mass(u0, 0.0, [1.0, 4.0, 16.0], part)
        assert rep.passed
        assert dict(rep.detail)["window_truncated"]
        for t, lhs, rhs in rep.samples:
            ut = Evolution(u0, schrodinger()).at(t)
            ofs = dict(x_norm(ut, 0.0, 2, part).detail)["off_shell_fraction"]
            assert 2**-0.5 * (1.0 - ofs) - 1e-9 <= lhs / rhs <= 2**0.5 + 1e-9

    def test_check_with_every_sample_excluded_raises(self):
        # a small box: by t = 100 every sample has wrapped, so nothing supports a verdict
        grid = GridSpec.centered(40.0, 1024, dim=1)
        part = build_dyadic_partition(grid, 0, 2)
        u0 = complex_sample(Gaussian(2.2, 0.25), grid)
        with pytest.raises(hz.ContaminationError, match="all 2 samples excluded"):
            hz.check_local_mass(u0, 0.25, [100.0, 200.0], part)

    def test_local_mass_sigma_guard(self, shell_setup):
        _, part, u0 = shell_setup
        with pytest.raises(ValueError):
            hz.check_local_mass(u0, 0.6, [1.0], part)


AIRY_GRID = GridSpec.centered(1500.0, 32768, dim=1)


class TestAiryChecks:
    @pytest.fixture(scope="class")
    def airy_u0(self):
        return sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), AIRY_GRID)  # exp(-x^2)

    def test_pointwise_constant_free_bound(self, airy_u0):
        rep = hz.check_airy_pointwise(airy_u0, [0.0, 1.0, 4.0, 16.0], np.linspace(-50, 50, 21))
        assert rep.passed and rep.bound == 1.0
        # rhs = 2 sqrt(pi/2) from the Gaussian moments
        assert rep.samples[0][2] == pytest.approx(2.0 * math.sqrt(math.pi / 2.0), rel=1e-8)

    def test_pointwise_t_zero_from_calculus(self, airy_u0):
        # max of x exp(-2 x^2) sits at x = 1/2
        rep = hz.check_airy_pointwise(airy_u0, [0.0], np.linspace(-50, 50, 2001))
        lhs0 = rep.samples[0][1]
        assert lhs0 == pytest.approx(0.5 * math.exp(-0.5), rel=1e-4)

    def test_pointwise_node_probes_match_node_values(self, airy_u0):
        # at grid nodes the interpolant reproduces the node values
        x = AIRY_GRID.axis(0)
        idx = np.abs(x[:, None] - np.linspace(-50, 50, 41)).argmin(axis=0)
        times = [0.0, 1.0, 4.0, 20.0]
        rep = hz.check_airy_pointwise(airy_u0, times, x[idx])
        for t, (ts, lhs, _) in zip(times, rep.samples):
            ut = Evolution(airy_u0, airy()).at(t)
            du = spectral_derivative(ut, 1)
            node = np.max(3.0 * t * du.values[idx] ** 2 + x[idx] * ut.values[idx] ** 2)
            assert ts == t
            assert lhs == pytest.approx(node, rel=1e-12)

    def test_local_energy_bound(self, airy_u0):
        rep = hz.check_airy_local_energy(airy_u0, 0.5, [1.0, 4.0, 16.0])
        assert rep.passed and rep.bound == 1.0

    def test_sup_decay_rate(self, airy_u0):
        times = [2.0 * 2 ** (0.25 * k) for k in range(14)]
        fit = hz.airy_decay_experiment(airy_u0, times)
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=0.1)

    def test_contamination_excludes_and_still_passes(self):
        # a deliberately small box wraps for late times; those samples are
        # dropped with a reason and the surviving report still passes
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        rep = hz.check_airy_pointwise(u0, [0.5, 1.0, 2.0, 30.0, 60.0], np.linspace(-20, 20, 11))
        assert len(rep.excluded) >= 1
        assert rep.passed

    def test_probes_outside_grid_rejected(self):
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        with pytest.raises(ValueError, match="inside the grid"):
            hz.check_airy_pointwise(u0, [0.0], [0.0, 151.0])

    def test_insufficient_window_raises(self):
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        with pytest.raises(ValueError, match="insufficient"):
            hz.airy_decay_experiment(u0, [20.0, 40.0, 80.0, 160.0, 320.0])


class TestMonomialCheck:
    def test_k1_matches_schrodinger_structure(self):
        grid = GridSpec.centered(320.0, 4096, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        rep = hz.check_monomial_estimate(1, u0, [1.0, 2.0, 4.0, 8.0])
        assert rep.passed

    def test_k2_band_limited_bump(self):
        grid = GridSpec.centered(4300.0, 16384, dim=1)
        u0 = complex_sample(Gaussian(0.0, 2.0), grid)
        rep = hz.check_monomial_estimate(2, u0, [1.0, 2.0, 4.0, 8.0, 16.0])
        assert rep.passed

    def test_k_guard(self):
        grid = GridSpec.centered(320.0, 4096, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        with pytest.raises(ValueError):
            hz.check_monomial_estimate(3, u0, [1.0])
