"""Decay fitting and the inequality check suites on small grids."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from decaylab.experiments import parse_config, run
from decaylab.fields import Gaussian, GridSpec, linf_norm, sample, spectral_derivative
from decaylab.norms import build_dyadic_partition
from decaylab.operators import boost_norms
from decaylab.propagators import Evolution, airy, even_order, schrodinger
from decaylab import harness as hz


def complex_sample(datum, grid):
    f = sample(datum, grid)
    return f.with_values(f.values.astype(np.complex128), "complex")


def schrodinger_series(u0, times, read=None):
    return hz.Series.evolve(u0, schrodinger(), times, read)


def airy_series(u0, times):
    return hz.Series.evolve(u0, airy(), times)


def ks_read(d):
    """The (sup, boost-norm table) reader ``check_ks_schrodinger`` takes, to order d."""
    return lambda t, u: (linf_norm(u), boost_norms(u, t, d))


def ks_check(u0, times):
    return hz.check_ks_schrodinger(schrodinger_series(u0, times, ks_read(u0.grid.dim)))


class TestFitDecay:
    @pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, 1.0, 2.0])
    def test_exact_power_law(self, a):
        t = np.geomspace(1.0, 100.0, 12)
        fit = hz.fit_decay(t, t**-a)
        assert fit.slope == pytest.approx(-a, abs=1e-12)
        assert fit.max_abs_residual <= 1e-12

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


class TestSeries:
    def test_restrict_splits_clean_and_excluded_times(self):
        # a small box: by t = 100 the packet has wrapped around, at t <= 1 it has not
        grid = GridSpec.centered(40.0, 1024, dim=1)
        u0 = complex_sample(Gaussian(2.2, 0.25), grid)
        series = schrodinger_series(u0, [100.0, 1.0, 0.5, 1.0])
        assert [t for t, _ in series.clean] == [0.5, 1.0]
        assert [t for t, _ in series.excluded] == [100.0]
        assert series.excluded[0][1].startswith("wrap-around edge mass")
        sub = series.restrict([1.0, 100.0])
        assert [t for t, _ in sub.clean] == [1.0] and sub.excluded == series.excluded
        assert sub.clean[0][1] is series.clean[1][1] and sub.evolution is series.evolution
        with pytest.raises(ValueError, match="not in the series"):
            series.restrict([2.0])


class TestRatioRule:
    def test_lhs_above_a_zero_rhs_fails(self):
        # the datum samples to the one node x = 0, so ||x u0|| = 0 while d^2 u(t) is not 0
        grid = GridSpec.centered(4300.0, 64, dim=1)
        u0 = complex_sample(Gaussian(0.0, 2.0), grid)
        rep = hz.check_monomial_estimate(2, hz.Series.evolve(u0, even_order(2), [1.0, 2.0]))
        assert all(lhs > 0.0 == rhs for _, lhs, rhs in rep.samples)
        assert rep.max_ratio == math.inf and rep.bound == 0.0 and not rep.passed


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
        rep = hz.check_dispersive_schrodinger(schrodinger_series(zero, [1.0, 2.0]), part)
        assert rep.passed and rep.max_ratio == 0.0

    def test_ratio_stable(self, shell_setup):
        _, part, u0 = shell_setup
        times = [1.0, 2.0, 4.0, 8.0, 16.0]
        rep = hz.check_dispersive_schrodinger(schrodinger_series(u0, times), part)
        ratios = [l / r for (_, l, r) in rep.samples]
        assert rep.passed
        assert max(ratios) <= 2.0 * min(ratios)

    def test_oracle_cross_check(self, shell_setup):
        # lhs at t matches sqrt(t) * w (w^4 + 4 t^2)^(-1/4) for the shifted Gaussian
        _, part, u0 = shell_setup
        t, w = 16.0, 0.25
        rep = hz.check_dispersive_schrodinger(schrodinger_series(u0, [t]), part)
        lhs = rep.samples[0][1]
        assert lhs == pytest.approx(math.sqrt(t) * w * (w**4 + 4 * t * t) ** -0.25, rel=1e-6)


class TestKsCheck:
    def test_ratio_level(self):
        grid = GridSpec.centered(800.0, 8192, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        rep = ks_check(u0, [1.0, 4.0, 16.0])
        assert rep.passed
        # rhs = 2 ||u|| ||W u|| = sqrt(pi/2); lhs -> 1/2 sup^2 scaling
        t, lhs, rhs = rep.samples[-1]
        assert rhs == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-8)
        assert lhs == pytest.approx(t * (1 + 4 * t * t) ** -0.5, rel=1e-8)

    def test_product_structure_in_2d(self):
        # the 2-d ratio is predicted by the 1-d boost-norm structure
        grid2 = GridSpec.centered(120.0, 512, dim=2)
        u2 = complex_sample(Gaussian((0.0, 0.0), (1.3, 1.3)), grid2)
        rep2 = ks_check(u2, [2.0])
        t, lhs2, rhs2 = rep2.samples[0]

        grid1 = GridSpec.centered(120.0, 1024, dim=1)
        u1 = complex_sample(Gaussian(0.0, 1.3), grid1)
        rep1 = ks_check(u1, [2.0])
        _, lhs1, rhs1 = rep1.samples[0]
        norms = boost_norms(Evolution(u1, schrodinger()).at(2.0), 2.0, 2)
        n = [norms[(k,)] for k in (0, 1, 2)]
        predicted_rhs2 = 4 * n[0] ** 3 * n[2] + 6 * n[0] ** 2 * n[1] ** 2
        assert lhs2 == pytest.approx(lhs1**2, rel=1e-6)
        assert rhs2 == pytest.approx(predicted_rhs2, rel=1e-6)
        assert (lhs2 / rhs2) == pytest.approx(lhs1**2 / predicted_rhs2, rel=0.10)


class TestSeriesRead:
    def test_read_keeps_the_guard_and_the_ks_report(self):
        # the 2-d packet wraps around this box by t = 16, as in the schrodinger-ks contamination test
        u0 = complex_sample(Gaussian((0.0, 0.0), (1.3, 1.3)), GridSpec.centered(40.0, 256, dim=2))
        read = ks_read(2)
        fields = schrodinger_series(u0, [1.0, 4.0, 16.0])
        reads = schrodinger_series(u0, [1.0, 4.0, 16.0], read)
        assert [t for t, _ in reads.clean] == [t for t, _ in fields.clean] == [1.0, 4.0]
        assert reads.excluded == fields.excluded
        assert [t for t, _ in reads.excluded] == [16.0]
        # the same report, bit for bit, as reading the held fields after the fact
        held = replace(fields, clean=tuple((t, read(t, ut)) for t, ut in fields.clean))
        assert hz.check_ks_schrodinger(reads) == hz.check_ks_schrodinger(held)

    def test_schrodinger_ks_keeps_one_evolved_field_alive(self, tmp_path, monkeypatch):
        # every field Evolution.at forms is watched; once it is formed, no earlier one of its datum remains
        watched, alive = {}, []
        at = Evolution.at

        def watched_at(evolution, t):
            field = at(evolution, t)
            refs = watched.setdefault(evolution, [])
            refs.append(weakref.ref(field.values))
            alive.append(sum(ref() is not None for ref in refs))
            return field

        monkeypatch.setattr(Evolution, "at", watched_at)
        text = "[experiment]\nid = schrodinger-ks\n[grid]\nhalf_width_2d = 40.0\npoints_2d = 256\n"
        run(parse_config(text), out_dir=str(tmp_path))
        assert len(watched) == 2 and len(alive) == 16 + 5  # d1: 14 checkpoints, drift 10 and 100; d2: 5
        assert max(alive) == 1


class TestLpAndLocalMass:
    def test_theta_zero_is_mass_conservation(self, shell_setup):
        _, _, u0 = shell_setup
        rep = hz.check_lp_decay(schrodinger_series(u0, [1.0, 3.0, 9.0]), 0.0)
        assert rep.passed
        for _, lhs, rhs in rep.samples:
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_theta_half_rate(self, shell_setup):
        _, part, u0 = shell_setup
        times = [5.0 * 2 ** (0.5 * k) for k in range(8)]
        rep = hz.check_lp_decay(schrodinger_series(u0, times), 0.5, part)
        assert rep.passed
        l4 = [l / t**0.25 for (t, l, _) in rep.samples]
        fit = hz.fit_decay([s[0] for s in rep.samples], l4)
        assert fit.slope == pytest.approx(-0.25, abs=0.05)

    def test_theta_guard(self, shell_setup):
        _, part, u0 = shell_setup
        with pytest.raises(ValueError):
            hz.check_lp_decay(schrodinger_series(u0, [1.0]), 1.0, part)

    def test_local_mass_sigma_zero_sandwich(self, shell_setup):
        _, part, u0 = shell_setup
        # The estimate is an upper bound. From sum phi_k^2 >= (sum phi_k)^2 / 2,
        # ||u(t)|| = ||u0|| and X(u0) <= ||u0||, the ratio is at least
        # 2^(-1/2) (1 - ofs(t)), ofs the mass fraction that has left the shell.
        rep = hz.check_local_mass(schrodinger_series(u0, [1.0, 4.0, 16.0]), 0.0, part)
        assert rep.passed
        assert dict(rep.detail)["window_truncated"]
        for t, lhs, rhs in rep.samples:
            ut = Evolution(u0, schrodinger()).at(t)
            ofs = part.off_shell_fraction(ut)
            assert 2**-0.5 * (1.0 - ofs) - 1e-9 <= lhs / rhs <= 2**0.5 + 1e-9

    def test_check_with_every_sample_excluded_raises(self):
        # a small box: by t = 100 every sample has wrapped, so nothing supports a verdict
        grid = GridSpec.centered(40.0, 1024, dim=1)
        part = build_dyadic_partition(grid, 0, 2)
        u0 = complex_sample(Gaussian(2.2, 0.25), grid)
        with pytest.raises(hz.ContaminationError, match="all 2 samples excluded"):
            hz.check_local_mass(schrodinger_series(u0, [100.0, 200.0]), 0.25, part)

    def test_local_mass_sigma_guard(self, shell_setup):
        _, part, u0 = shell_setup
        with pytest.raises(ValueError):
            hz.check_local_mass(schrodinger_series(u0, [1.0]), 0.6, part)


AIRY_GRID = GridSpec.centered(1500.0, 32768, dim=1)


class TestAiryChecks:
    @pytest.fixture(scope="class")
    def airy_u0(self):
        return sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), AIRY_GRID)  # exp(-x^2)

    def test_pointwise_constant_free_bound(self, airy_u0):
        rep = hz.check_airy_pointwise(airy_series(airy_u0, [0.0, 1.0, 4.0, 16.0]), np.linspace(-50, 50, 21))
        assert rep.passed and rep.bound == 1.0
        # rhs = 2 sqrt(pi/2) from the Gaussian moments
        assert rep.samples[0][2] == pytest.approx(2.0 * math.sqrt(math.pi / 2.0), rel=1e-8)

    def test_pointwise_t_zero_from_calculus(self, airy_u0):
        # max of x exp(-2 x^2) sits at x = 1/2
        rep = hz.check_airy_pointwise(airy_series(airy_u0, [0.0]), np.linspace(-50, 50, 2001))
        lhs0 = rep.samples[0][1]
        assert lhs0 == pytest.approx(0.5 * math.exp(-0.5), rel=1e-4)

    def test_pointwise_node_probes_match_node_values(self, airy_u0):
        # at grid nodes the interpolant reproduces the node values
        x = AIRY_GRID.axis(0)
        idx = np.abs(x[:, None] - np.linspace(-50, 50, 41)).argmin(axis=0)
        times = [0.0, 1.0, 4.0, 20.0]
        rep = hz.check_airy_pointwise(airy_series(airy_u0, times), x[idx])
        for t, (ts, lhs, _) in zip(times, rep.samples):
            ut = Evolution(airy_u0, airy()).at(t)
            du = spectral_derivative(ut, 1)
            node = np.max(3.0 * t * du.values[idx] ** 2 + x[idx] * ut.values[idx] ** 2)
            assert ts == t
            assert lhs == pytest.approx(node, rel=1e-12)

    def test_local_energy_bound(self, airy_u0):
        rep = hz.check_airy_local_energy(airy_series(airy_u0, [1.0, 4.0, 16.0]), 0.5)
        assert rep.passed and rep.bound == 1.0

    def test_sup_decay_rate(self, airy_u0):
        series = airy_series(airy_u0, [2.0 * 2 ** (0.25 * k) for k in range(14)])
        fit = hz.fit_decay([t for t, _ in series.clean], [linf_norm(ut) for _, ut in series.clean])
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=0.1)

    def test_contamination_excludes_and_still_passes(self):
        # a deliberately small box wraps for late times; those samples are
        # dropped with a reason and the surviving report still passes
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        rep = hz.check_airy_pointwise(airy_series(u0, [0.5, 1.0, 2.0, 30.0, 60.0]), np.linspace(-20, 20, 11))
        assert len(rep.excluded) >= 1
        assert rep.passed

    def test_probes_outside_grid_rejected(self):
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        with pytest.raises(ValueError, match="inside the grid"):
            hz.check_airy_pointwise(airy_series(u0, [0.0]), [0.0, 151.0])

    def test_insufficient_window_raises(self):
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        series = airy_series(u0, [20.0, 40.0, 80.0, 160.0, 320.0])
        with pytest.raises(ValueError, match="insufficient"):
            hz.fit_decay(
                [t for t, _ in series.clean], [linf_norm(ut) for _, ut in series.clean], excluded=series.excluded
            )


class TestMonomialCheck:
    def test_k1_matches_schrodinger_structure(self):
        grid = GridSpec.centered(320.0, 4096, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        rep = hz.check_monomial_estimate(1, hz.Series.evolve(u0, even_order(1), [1.0, 2.0, 4.0, 8.0]))
        assert rep.passed

    def test_k2_band_limited_bump(self):
        grid = GridSpec.centered(4300.0, 16384, dim=1)
        u0 = complex_sample(Gaussian(0.0, 2.0), grid)
        rep = hz.check_monomial_estimate(2, hz.Series.evolve(u0, even_order(2), [1.0, 2.0, 4.0, 8.0, 16.0]))
        assert rep.passed

    def test_k_guard(self):
        grid = GridSpec.centered(320.0, 4096, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        with pytest.raises(ValueError):
            hz.check_monomial_estimate(3, hz.Series.evolve(u0, even_order(2), [1.0]))
