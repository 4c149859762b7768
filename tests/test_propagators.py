"""Fourier-multiplier propagators: oracles, unitarity, wrap-around guard."""

import math

import numpy as np
import pytest

from decaylab.fields import Gaussian, GridSpec, SampledField, l2_norm, sample
from decaylab.norms import hs_norm
from decaylab import propagators as pr


def complex_sample(datum, grid):
    f = sample(datum, grid)
    return f.with_values(f.values.astype(np.complex128), "complex")


@pytest.fixture(scope="module")
def schrodinger_gaussian():
    grid = GridSpec.centered(400.0, 4096, dim=1)
    return complex_sample(Gaussian(0.0, 1.0), grid)


class TestPropagate:
    def test_time_zero_is_identity(self, schrodinger_gaussian):
        out = pr.Evolution(schrodinger_gaussian, pr.schrodinger()).at(0.0)
        np.testing.assert_allclose(out.values, schrodinger_gaussian.values, atol=1e-14)

    @pytest.mark.parametrize("t", [1.0, 5.0, 25.0])
    def test_gaussian_amplitude_oracle(self, schrodinger_gaussian, t):
        # |u(t,x)| = (1+4t^2)^(-1/4) exp(-x^2/(2(1+4t^2))) for exp(-x^2/2) data
        ut = pr.Evolution(schrodinger_gaussian, pr.schrodinger()).at(t)
        x = schrodinger_gaussian.grid.axis(0)
        i0 = int(np.argmin(np.abs(x)))
        assert abs(ut.values[i0]) == pytest.approx((1 + 4 * t * t) ** -0.25, rel=1e-8)
        probe = np.abs(x) < 20.0
        oracle = (1 + 4 * t * t) ** -0.25 * np.exp(-(x[probe] ** 2) / (2 * (1 + 4 * t * t)))
        np.testing.assert_allclose(np.abs(ut.values[probe]), oracle, rtol=1e-8, atol=1e-13)

    def test_airy_matches_quadrature_oracle(self):
        # independent oracle: direct trapezoid of the inverse-Fourier integral
        # with a 10x oversampled, wide frequency band
        datum = Gaussian(0.0, 1.0)
        # the spectrum is below 1e-12 beyond |xi| = 7.5; that band travels at
        # most 3 * 7.5^2 ~ 170 by t = 1, inside the box, and Nyquist is 16
        grid = GridSpec.centered(200.0, 2048, dim=1)
        u0 = sample(datum, grid)
        ut = pr.Evolution(u0, pr.airy()).at(1.0)
        xi = np.linspace(-40.0, 40.0, 80001)
        dxi = xi[1] - xi[0]
        hat = math.sqrt(2 * math.pi) * np.exp(-(xi**2) / 2.0)
        x = grid.axis(0)
        idx = np.nonzero(np.abs(x) <= 25.0)[0][::32]
        oracle = np.array(
            [np.sum(hat * np.exp(1j * (x[i] * xi - xi**3))) * dxi / (2 * math.pi) for i in idx]
        )
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(ut.values[idx] - oracle.real)) <= 1e-7 * scale

    def test_airy_keeps_real_data_real(self):
        grid = GridSpec.centered(300.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0), grid)
        ut = pr.Evolution(u0, pr.airy()).at(2.0)
        assert ut.kind == "real"

    def test_airy_needs_one_dimension(self):
        grid = GridSpec.centered(30.0, 64, dim=2)
        u0 = complex_sample(Gaussian((0.0, 0.0), (1.0, 1.0)), grid)
        with pytest.raises(ValueError):
            pr.Evolution(u0, pr.airy())


class TestEvolution:
    def test_spectrum_is_the_transform_of_u_t(self, schrodinger_gaussian):
        ev = pr.Evolution(schrodinger_gaussian, pr.schrodinger())
        np.testing.assert_allclose(ev.spectrum(3.0), np.fft.fft(ev.at(3.0).values), atol=1e-12)
        grid = GridSpec.centered(300.0, 4096, dim=1)
        airy_ev = pr.Evolution(sample(Gaussian(0.0, 1.0), grid), pr.airy())
        np.testing.assert_allclose(airy_ev.spectrum(2.0), np.fft.rfft(airy_ev.at(2.0).values), atol=1e-12)

    def test_real_airy_datum_is_transformed_once(self, monkeypatch):
        grid = GridSpec.centered(300.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0), grid)
        forward = []

        def counted(name, transform):
            def call(*args, **kwargs):
                forward.append(name)
                return transform(*args, **kwargs)

            return call

        for name in ("fft", "fftn", "rfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        ev = pr.Evolution(u0, pr.airy())
        for t in (0.5, 1.0, 2.0):
            ev.at(t)
            ev.spectrum(t)
        assert forward == ["rfft"]

    def test_one_dimensional_spectrum_is_hat_times_the_multiplier(self, schrodinger_gaussian):
        sigma = pr.schrodinger().symbol_1d(schrodinger_gaussian.grid.wavenumbers(0))
        hat = np.fft.fftn(schrodinger_gaussian.values)
        spectrum = pr.Evolution(schrodinger_gaussian, pr.schrodinger()).spectrum(16.0)
        assert np.array_equal(spectrum, hat * np.exp(16.0 * sigma))

    def test_two_dimensional_spectrum_matches_the_summed_phase(self):
        # the schrodinger-ks spacing: at t = 16 the summed phase t(k0^2 + k1^2) reaches 2e3 rad,
        # and the per-axis factors must agree with its exponential to rounding
        grid = GridSpec.centered(50.0, 256, dim=2)
        u0 = complex_sample(Gaussian((0.0, 0.0), (1.3, 1.3)), grid)
        k0, k1 = np.meshgrid(grid.wavenumbers(0), grid.wavenumbers(1), indexing="ij", sparse=True)
        sigma = pr.schrodinger().symbol_1d(k0) + pr.schrodinger().symbol_1d(k1)
        assert 16.0 * np.abs(sigma).max() > 2e3
        expected = np.fft.fftn(u0.values) * np.exp(16.0 * sigma)
        spectrum = pr.Evolution(u0, pr.schrodinger()).spectrum(16.0)
        np.testing.assert_allclose(spectrum, expected, rtol=1e-12, atol=0.0)

    def test_two_dimensional_schrodinger_is_separable(self):
        # exp(-|x|^2/2) evolves as the product of two one-dimensional solutions
        grid1 = GridSpec.centered(40.0, 256, dim=1)
        grid2 = GridSpec.centered(40.0, 256, dim=2)
        u1 = pr.Evolution(complex_sample(Gaussian(0.0, 1.0), grid1), pr.schrodinger()).at(2.0).values
        u2 = pr.Evolution(complex_sample(Gaussian((0.0, 0.0), (1.0, 1.0)), grid2), pr.schrodinger()).at(2.0)
        np.testing.assert_allclose(u2.values, np.outer(u1, u1), atol=1e-13)


def group_defect(u0, disp, s, t):
    """|| U(s+t) u0 - U(t) U(s) u0 ||_2 / || u0 ||_2 from two composed evolutions."""
    evolution = pr.Evolution(u0, disp)
    direct = evolution.at(s + t).as_complex()
    stepped = pr.Evolution(evolution.at(s), disp).at(t).as_complex()
    return math.sqrt(float(np.sum(np.abs(direct - stepped) ** 2)) * u0.grid.cell_volume) / l2_norm(u0)


class TestGroupProperty:
    def test_zero_times(self, schrodinger_gaussian):
        res = group_defect(schrodinger_gaussian, pr.schrodinger(), 0.0, 0.0)
        assert res <= 1e-14  # two FFT round trips of round-off

    def test_composition(self, schrodinger_gaussian):
        res = group_defect(schrodinger_gaussian, pr.schrodinger(), 0.3, 0.7)
        assert res <= 1e-12

    def test_time_reversibility(self, schrodinger_gaussian):
        res = group_defect(schrodinger_gaussian, pr.schrodinger(), 1.0, -1.0)
        assert res <= 1e-12


class TestConservation:
    @pytest.mark.parametrize("t", [0.5, 3.0, 17.0])
    def test_unitarity(self, schrodinger_gaussian, t):
        ut = pr.Evolution(schrodinger_gaussian, pr.schrodinger()).at(t)
        assert l2_norm(ut) == pytest.approx(l2_norm(schrodinger_gaussian), rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
    def test_sobolev_norms_constant(self, schrodinger_gaussian, s):
        ref = hs_norm(schrodinger_gaussian, s)
        for t in (1.0, 5.0, 20.0):
            ut = pr.Evolution(schrodinger_gaussian, pr.schrodinger()).at(t)
            assert hs_norm(ut, s) == pytest.approx(ref, rel=1e-12)


class TestWrapGuard:
    def test_clean_field_has_tiny_edge_mass(self, schrodinger_gaussian):
        assert pr.edge_mass_fraction(schrodinger_gaussian) < 1e-12

    def test_wrapped_field_is_flagged(self):
        grid = GridSpec.centered(20.0, 512, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        ut = pr.Evolution(u0, pr.schrodinger()).at(10.0)  # travel >> box
        assert pr.edge_mass_fraction(ut) > 1e-6


def test_even_order_symbol_signs():
    # degree 2k symbol is i(-1)^k xi^(2k)
    assert pr.even_order(1).monomial_coefficient == -1j
    assert pr.even_order(2).monomial_coefficient == 1j
    with pytest.raises(ValueError):
        pr.DispersionPolynomial("even_order", 3)


def test_normalization_guards():
    with pytest.raises(ValueError):
        pr.DispersionPolynomial("schrodinger", 3)
    with pytest.raises(ValueError):
        pr.DispersionPolynomial("airy", 2)
