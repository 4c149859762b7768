"""Commuting-operator derivation, application, and conserved norms."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from decaylab.fields import Gaussian, GridSpec, SampledField, l2_norm, sample
from decaylab import operators as ops
from decaylab import propagators as pr


def complex_sample(datum, grid):
    f = sample(datum, grid)
    return f.with_values(f.values.astype(np.complex128), "complex")


@pytest.fixture(scope="module")
def packet_grid():
    return GridSpec.centered(1200.0, 4096, dim=1)


@pytest.fixture(scope="module")
def fine_grid():
    # resolves width-1 Gaussian data (band ~7.4) with room for t = 100 travel
    return GridSpec.centered(2500.0, 32768, dim=1)


class TestDerivation:
    def test_schrodinger_boost_coefficients(self):
        # 2t d_x + i x, up to overall scale
        op = ops.derive_commuting_operator(pr.schrodinger())
        assert op.degree == 2
        assert op.b / op.a == pytest.approx(1j / 2.0)

    def test_airy_operator(self):
        # 3t d_xx + x
        op = ops.derive_commuting_operator(pr.airy())
        assert (op.a, op.b) == (3.0 + 0.0j, 1.0 + 0.0j)

    @pytest.mark.parametrize("k,expected_b", [(1, -1j), (2, -1j)])
    def test_even_order_sign_is_derived(self, k, expected_b):
        op = ops.derive_commuting_operator(pr.even_order(k))
        assert op.a == 2.0 * k
        assert op.b == pytest.approx(expected_b)

    def test_inconsistent_symbol_raises(self):
        @dataclass
        class Broken:
            degree: int = 3
            monomial_coefficient: complex = 0.0

        with pytest.raises(ops.NoCommutingOperatorError):
            ops.derive_commuting_operator(Broken())


class TestApplyOperator:
    def test_airy_boost_at_time_zero_multiplies_by_x(self):
        grid = GridSpec.centered(30.0, 256, dim=1)
        u = complex_sample(Gaussian(0.0, 1.0), grid)
        w = ops.derive_commuting_operator(pr.airy())
        out = ops.apply_operator(w, u, 0.0)
        np.testing.assert_allclose(out.values, grid.axis(0) * u.values, atol=1e-14)

    def test_schrodinger_boost_at_time_zero(self):
        grid = GridSpec.centered(30.0, 256, dim=1)
        u = complex_sample(Gaussian(0.0, 1.0), grid)
        out = ops.apply_operator(ops.schrodinger_boost(0), u, 0.0)
        x = grid.axis(0)
        np.testing.assert_allclose(out.values, 0.5j * x * np.exp(-(x**2) / 2), atol=1e-14)

    def test_boosts_commute_pairwise_in_2d(self):
        grid = GridSpec.centered(60.0, 128, dim=2)
        rng = np.random.default_rng(2)
        u = ops.random_wave_packets(grid, rng)
        comm = ops.commutator_norm(ops.schrodinger_boost(0), ops.schrodinger_boost(1), u, 1.3)
        assert comm <= 1e-12 * l2_norm(u)


class TestCommutationResidual:
    def test_time_zero_is_exact(self, packet_grid):
        rng = np.random.default_rng(4)
        u0 = ops.random_wave_packets(packet_grid, rng)
        op = ops.derive_commuting_operator(pr.schrodinger())
        (res,) = ops.commutation_residual(op, pr.schrodinger(), u0, [0.0])
        assert res <= 1e-12

    def test_gaussian_residual_small(self, fine_grid):
        u0 = complex_sample(Gaussian(0.0, 1.0), fine_grid)
        op = ops.derive_commuting_operator(pr.schrodinger())
        (res,) = ops.commutation_residual(op, pr.schrodinger(), u0, [1.0])
        assert res <= 1e-10

    def test_wrong_operator_detected(self, fine_grid):
        # 2t d_x + 2i x does not commute: the residual must be visible
        u0 = complex_sample(Gaussian(0.0, 1.0), fine_grid)
        bad = ops.monomial_boost(2, 2.0, 2.0j)
        (res,) = ops.commutation_residual(bad, pr.schrodinger(), u0, [1.0])
        assert res >= 0.1

    def test_zero_denominator_gives_the_absolute_residual(self, packet_grid):
        zero = SampledField(packet_grid, np.zeros(packet_grid.points[0], dtype=complex), "complex")
        op = ops.derive_commuting_operator(pr.airy())
        (res,) = ops.commutation_residual(op, pr.airy(), zero, [1.0])
        assert res == 0.0

    @pytest.mark.parametrize("disp", [pr.schrodinger(), pr.airy(), pr.even_order(2)])
    def test_random_suite_small(self, packet_grid, disp):
        rng = np.random.default_rng(17)
        op = ops.derive_commuting_operator(disp)
        for _ in range(3):
            u0 = ops.random_wave_packets(packet_grid, rng)
            res = ops.commutation_residual(op, disp, u0, (0.1, 1.0, 10.0))
            assert res.shape == (3,) and res.max() <= 1e-9


def packets(dim, points):
    """Random wave packets on the L = 40 box, edge-clean at every time used below."""
    return ops.random_wave_packets(GridSpec.centered(40.0, points, dim=dim), np.random.default_rng(5))


def chain_norms(u, t, order):
    """|| W^alpha u || from a plain chain of ``apply_operator`` boosts, W_0 first."""
    out = {}
    for alpha in np.ndindex(*(order + 1,) * u.grid.dim):
        if sum(alpha) <= order:
            v = u
            for axis, power in enumerate(alpha):
                for _ in range(power):
                    v = ops.apply_operator(ops.schrodinger_boost(axis), v, t)
            out[alpha] = l2_norm(v)
    return out


def forbidden(*args, **kwargs):
    raise AssertionError("a path the test rules out was taken")


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


# (seed, dim, points, t) of random packets on the L = 40 box that the half-band guard sent to
# the walk and the 3/4-band guard admits, from a sweep over seeds 3, 5, 7, 11
NEWLY_ADMITTED = [(seed, *case) for seed in (3, 5, 7, 11) for case in ((1, 256, 1.7), (2, 128, 5.0), (2, 256, 1.7))]
NEWLY_ADMITTED += [(3, 1, 512, 1.0), (7, 2, 128, 3.0)]


class TestBoostNorms:
    @pytest.mark.parametrize("dim, points", [(1, 4096), (2, 256)])
    @pytest.mark.parametrize("t", [1.7, 3.0, 5.0])
    def test_fast_path_equals_plain_chain(self, dim, points, t, monkeypatch):
        u = packets(dim, points)
        chain = chain_norms(u, t, 2)
        monkeypatch.setattr(ops, "_boost_walk", forbidden)
        norms = ops.boost_norms(u, t, 2)
        assert norms.keys() == chain.keys()
        for alpha, value in chain.items():
            assert norms[alpha] == pytest.approx(value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed, dim, points, t", NEWLY_ADMITTED)
    def test_three_quarter_band_admits_resolved_chirps(self, seed, dim, points, t, monkeypatch):
        # 1e-9 to 5e-5 of sum |h|^2 lies outside the half band here, at most 1e-10 outside the 3/4 band
        u = ops.random_wave_packets(GridSpec.centered(40.0, points, dim=dim), np.random.default_rng(seed))
        walk = ops._boost_walk(u, t, 2)
        monkeypatch.setattr(ops, "_boost_walk", forbidden)
        norms = ops.boost_norms(u, t, 2)
        assert norms.keys() == walk.keys()
        for alpha, value in walk.items():
            assert norms[alpha] == pytest.approx(value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("dim, points, t", [(1, 4096, 1.7), (2, 256, 3.0)])
    def test_fast_path_work(self, dim, points, t, monkeypatch):
        # one forward transform, no inverse, no boost: counted at numpy and at apply_operator
        u = packets(dim, points)
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(calls, name, getattr(np.fft, name)))
        monkeypatch.setattr(ops, "apply_operator", counting(calls, "apply_operator", ops.apply_operator))
        monkeypatch.setattr(ops, "_boost_walk", forbidden)
        ops.boost_norms(u, t, 2)
        assert calls == ["fftn"]

    @pytest.mark.parametrize("dim, points, t", [(1, 256, 0.3), (2, 64, 1.7)])
    def test_under_resolved_chirp_falls_back_to_the_walk(self, dim, points, t, monkeypatch):
        # the sampled chirp aliases here: 0.03 (1-d) and 0.30 (2-d) of sum |h|^2 lie outside
        # the 3/4 band, and the Parseval sums are off by 0.23 and 0.25
        u = packets(dim, points)
        chain = chain_norms(u, t, 2)
        calls = []
        monkeypatch.setattr(ops, "_boost_walk", counting(calls, "walk", ops._boost_walk))
        monkeypatch.setattr(ops, "apply_operator", counting(calls, "boost", ops.apply_operator))
        assert ops.boost_norms(u, t, 2) == chain
        assert calls.count("walk") == 1
        assert calls.count("boost") == len(chain) - 1  # one boost per nonzero multi-index
        monkeypatch.setattr(ops, "_ALIASED_SHARE", 1.0)
        monkeypatch.setattr(ops, "_boost_walk", forbidden)
        aliased = ops.boost_norms(u, t, 2)
        assert max(abs(aliased[a] / chain[a] - 1.0) for a in chain) > 0.1

    @pytest.mark.parametrize("dim, points", [(1, 256), (2, 64)])
    def test_time_zero_is_coordinate_weight(self, dim, points, monkeypatch):
        # W_j = (i/2) x_j at t = 0: the walk runs (the chirp would divide by t)
        # and gives || W^alpha u || = || (x/2)^alpha u ||
        u = packets(dim, points)
        alphas = chain_norms(u, 0.0, 2).keys()
        calls = []
        monkeypatch.setattr(ops, "_boost_walk", counting(calls, "walk", ops._boost_walk))
        monkeypatch.setattr(np.fft, "fftn", forbidden)
        norms = ops.boost_norms(u, 0.0, 2)
        assert calls == ["walk"]
        assert norms.keys() == alphas
        for alpha in alphas:
            weight = np.ones(u.grid.points)
            for j, power in enumerate(alpha):
                weight = weight * (ops._coordinate(u, j) / 2.0) ** power
            expected = l2_norm(SampledField(u.grid, weight * u.values, "complex"))
            assert norms[alpha] == pytest.approx(expected, rel=1e-13, abs=0.0)


def schrodinger_boost_series(u0, power, times):
    """|| W_0^power u(t) ||_2 at each time, read from ``boost_norms``."""
    evolution = pr.Evolution(u0, pr.schrodinger())
    return np.array([ops.boost_norms(evolution.at(t), t, power)[(power,)] for t in times])


class TestConservedOperatorNorm:
    def test_order_zero_is_mass(self, fine_grid):
        u0 = complex_sample(Gaussian(0.0, 1.0), fine_grid)
        series = schrodinger_boost_series(u0, 0, [0.0, 1.0, 5.0])
        np.testing.assert_allclose(series, l2_norm(u0), rtol=1e-12)

    def test_boost_norm_value_and_constancy(self, fine_grid):
        # || (i/2) x exp(-x^2/2) || = (1/2) (sqrt(pi)/2)^(1/2)
        u0 = complex_sample(Gaussian(0.0, 1.0), fine_grid)
        series = schrodinger_boost_series(u0, 1, [0.0, 1.0, 5.0, 20.0])
        expected = 0.5 * (math.sqrt(math.pi) / 2.0) ** 0.5
        assert series[0] == pytest.approx(expected, rel=1e-10)
        assert (series.max() - series.min()) / series[0] <= 1e-9

    def test_airy_boost_norm_equals_weighted_data_norm(self, fine_grid):
        # Airy group speeds reach 3 * band^2, so stop before the box edge
        u0 = complex_sample(Gaussian(0.0, 1.0), fine_grid)
        w = ops.derive_commuting_operator(pr.airy())
        evolution = pr.Evolution(u0, pr.airy())
        series = np.array([l2_norm(ops.apply_operator(w, evolution.at(t), t)) for t in (0.0, 1.0, 5.0, 10.0)])
        x = fine_grid.axis(0)
        xu0 = SampledField(fine_grid, x * u0.values, "complex")
        assert series[0] == pytest.approx(l2_norm(xu0), rel=1e-12)
        assert (series.max() - series.min()) / series[0] <= 1e-9

    def test_second_order_powers_constant(self, fine_grid):
        u0 = complex_sample(Gaussian(0.0, 1.0), fine_grid)
        series = schrodinger_boost_series(u0, 2, [1.0, 10.0, 100.0])
        assert (series.max() - series.min()) / series[0] <= 1e-9


def test_monomial_boost_needs_1d():
    grid = GridSpec.centered(30.0, 64, dim=2)
    u = complex_sample(Gaussian((0.0, 0.0), (1.0, 1.0)), grid)
    with pytest.raises(ValueError):
        ops.apply_operator(ops.monomial_boost(3, 3.0, 1.0), u, 0.5)
