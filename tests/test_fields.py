"""Grid, sampling, quadrature and analytic-datum oracle tests."""

import math

import numpy as np
import pytest

from decaylab.fields import (
    BumpLambda,
    CubeIndicator,
    Gaussian,
    GridSpec,
    OracleUnavailable,
    SampledField,
    SupportOverflowError,
    l2_norm,
    product_gaussian_phase,
    sample,
    spectral_derivative,
)


class TestGridSpec:
    def test_spacing_positive(self):
        g = GridSpec(1, -20.0, 40.0, 256)
        assert g.spacing == (40.0 / 256,)
        assert g.cell_volume > 0

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(1, 0.0, 1.0, 4)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            GridSpec(1, 0.0, -1.0, 64)

    def test_axes_and_nodes(self):
        g = GridSpec.centered(2.0, 16, dim=2)
        assert g.nodes().shape == (16, 16, 2)
        assert g.axis(0)[0] == -2.0


class TestSample:
    def test_gaussian_values_at_nodes(self):
        g = GridSpec.centered(20.0, 256, dim=1)
        f = sample(Gaussian(0.0, 1.0), g)
        x = g.axis(0)
        np.testing.assert_allclose(f.values, np.exp(-x**2 / 2), rtol=0, atol=0)

    def test_support_overflow_raises(self):
        g = GridSpec(1, 1.0, 2.0, 64)  # box [1, 3] misses [-1/2, 1/2]
        with pytest.raises(SupportOverflowError):
            sample(CubeIndicator(0.0, 1.0), g)

    def test_bump_max_is_lam_at_origin(self):
        g = GridSpec.centered(2.0, 128, dim=2)
        f = sample(BumpLambda(4.0), g)
        assert f.values.max() == pytest.approx(4.0, abs=0)


class TestSampledField:
    def test_as_complex_shares_complex_values_and_copies_real_ones(self):
        g = GridSpec.centered(5.0, 16, dim=1)
        z = SampledField(g, np.arange(16) + 1j, "complex")
        shared = z.as_complex()
        assert shared is z.values and not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0
        r = SampledField(g, np.arange(16.0), "real")
        fresh = r.as_complex()
        assert fresh.dtype == np.complex128 and fresh.flags.writeable
        fresh[0] = 5.0
        assert r.values[0] == 0.0 and r.as_complex()[0] == 0.0

    def test_takes_a_contiguous_array_of_its_dtype_and_freezes_it(self):
        g = GridSpec.centered(5.0, 16, dim=1)
        vals = np.exp(1j * g.axis(0))
        z = SampledField(g, vals, "complex")
        assert np.shares_memory(z.values, vals) and not vals.flags.writeable

    @pytest.mark.parametrize(
        "dim, vals, kind",
        [
            (1, (np.arange(32) + 1j)[::2], "complex"),  # strided
            (2, np.arange(256.0).reshape(16, 16).T + 0j, "complex"),  # Fortran order
            (1, np.arange(16.0) + 0j, "real"),  # real part of a complex array
            (1, np.arange(16, dtype=np.float32), "real"),  # another dtype
        ],
    )
    def test_copies_other_input_into_a_contiguous_array(self, dim, vals, kind):
        f = SampledField(GridSpec.centered(5.0, 16, dim=dim), vals, kind)
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        assert f.values.dtype == (np.complex128 if kind == "complex" else np.float64)
        assert not np.shares_memory(f.values, vals) and vals.flags.writeable
        np.testing.assert_array_equal(f.values, vals if kind == "complex" else vals.real)


class TestSpectralDerivative:
    def test_fourier_eigenfunction(self):
        g = GridSpec.centered(math.pi, 64, dim=1)
        k0 = g.wavenumbers(0)[3]
        x = g.axis(0)
        f = SampledField(g, np.exp(1j * k0 * x), "complex")
        df = spectral_derivative(f, 1)
        np.testing.assert_allclose(df.values, 1j * k0 * f.values, rtol=1e-12, atol=1e-12)

    def test_order_zero_is_identity(self):
        g = GridSpec.centered(8.0, 64, dim=1)
        f = sample(Gaussian(0.0, 1.0), g)
        assert spectral_derivative(f, 0) is f

    def test_gaussian_second_derivative(self):
        g = GridSpec.centered(20.0, 512, dim=1)
        f = sample(Gaussian(0.0, 1.0), g)
        d2 = spectral_derivative(f, 2)
        x = g.axis(0)
        mask = np.abs(x) <= 10.0
        exact = (x**2 - 1.0) * np.exp(-x**2 / 2)
        err = np.max(np.abs(d2.values[mask] - exact[mask])) / np.max(np.abs(exact))
        assert err < 1e-8

    def test_order_guard(self):
        g = GridSpec.centered(8.0, 64, dim=1)
        f = sample(Gaussian(0.0, 1.0), g)
        with pytest.raises(ValueError):
            spectral_derivative(f, 7)

    def test_composition(self):
        g = GridSpec.centered(15.0, 256, dim=1)
        f = sample(Gaussian(0.0, 1.5), g)
        once_twice = spectral_derivative(spectral_derivative(f, 1), 1)
        direct = spectral_derivative(f, 2)
        np.testing.assert_allclose(once_twice.values, direct.values, atol=1e-12)


def test_parseval():
    g = GridSpec.centered(15.0, 256, dim=1)
    f = sample(Gaussian(0.3, 1.2), g)
    phys = l2_norm(f)
    fhat = np.fft.fft(f.values)
    spec = math.sqrt(float(np.sum(np.abs(fhat) ** 2)) * g.cell_volume / 256)
    assert abs(phys - spec) <= 1e-12 * phys


def test_sample_then_integrate_matches_mass_oracle():
    datum = Gaussian(0.5, 1.3)
    g = GridSpec.centered(25.0, 512, dim=1)
    f = sample(datum, g)
    # the periodic trapezoid (= rectangle) quadrature of the samples
    assert float(f.values.sum()) * g.cell_volume == pytest.approx(datum.mass(), rel=1e-9)


@pytest.mark.parametrize(
    "datum",
    [
        Gaussian(0.2, 0.8),
        Gaussian((0.1, -0.3), (1.0, 0.7)),
        Gaussian(0.0, 1.0, wavevector=(1.5,)),
        BumpLambda(2.0),
        product_gaussian_phase(0.9, 1.1, d=1),
    ],
)
def test_gradient_matches_finite_differences(datum):
    rng = np.random.default_rng(11)
    lo, hi = datum.support_bounds(1e-6)
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    x = [rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a), size=64) for a, b in zip(lo, hi)]
    try:
        scale = datum.feature_scale()
    except OracleUnavailable:
        scale = 1.0
    step = 1e-5 * scale
    grad = datum.gradient(*x)
    assert len(grad) == datum.ndim and all(g.shape == (64,) for g in grad)
    ref_scale = max(np.max(np.abs(g)) for g in grad)
    for ax in range(datum.ndim):
        plus = [xi + step if i == ax else xi for i, xi in enumerate(x)]
        minus = [xi - step if i == ax else xi for i, xi in enumerate(x)]
        fd = (datum.value(*plus) - datum.value(*minus)) / (2 * step)
        np.testing.assert_allclose(grad[ax], fd, atol=1e-6 * max(ref_scale, 1.0))


@pytest.mark.parametrize(
    "datum",
    [
        Gaussian((0.1, -0.3), (1.0, 0.7)),
        Gaussian((0.1, -0.3), (1.0, 0.7), wavevector=(1.5, -0.4)),
        BumpLambda(2.0),
        CubeIndicator((0.2, -0.1), 1.3),
    ],
)
def test_broadcast_axes_equal_dense_mesh(datum):
    # axes shaped (n, 1) and (1, m) give, bit for bit, the values on the dense mesh
    x, y = np.linspace(-1.5, 1.5, 37), np.linspace(-1.2, 1.4, 29)
    q, p = np.meshgrid(x, y, indexing="ij")
    dense = datum.value(q, p)
    assert dense.shape == (37, 29)
    assert np.array_equal(datum.value(x[:, None], y[None, :]), dense)
    if not isinstance(datum, CubeIndicator):
        for broadcast, full in zip(datum.gradient(x[:, None], y[None, :]), datum.gradient(q, p)):
            assert np.array_equal(broadcast, full)


@pytest.mark.parametrize("wavevector", [None, (1.5, -0.4, 0.0, 2.0)])
def test_gaussian_value_equals_chained_sum(wavevector):
    # the in-place sum rounds as amplitude * exp(-0.5 * sum(...)) does; the first
    # axis array does not carry the full broadcast shape, nor does any other
    datum = Gaussian((0.1, -0.3, 0.0, 0.4), (1.0, 0.7, 0.3, 2.2), wavevector, amplitude=1.7)
    rng = np.random.default_rng(11)
    x = (
        rng.uniform(-2, 2, (9, 1, 1)),
        rng.uniform(-2, 2, (1, 7, 1)),
        rng.uniform(-2, 2, (6,)),
        rng.uniform(-2, 2, (9, 1, 6)),
    )
    terms = zip(x, datum.center, datum.width)
    chained = datum.amplitude * np.exp(-0.5 * sum(((xi - c) / w) ** 2 for xi, c, w in terms))
    if wavevector is not None:
        chained = chained * np.exp(1j * sum(k * xi for k, xi in zip(wavevector, x)))
    got = datum.value(*x)
    assert got.shape == (9, 7, 6)
    assert np.array_equal(got, chained)


def test_value_needs_one_array_per_axis():
    with pytest.raises(ValueError):
        Gaussian((0.0, 0.0), (1.0, 1.0)).value(np.zeros(3))
    with pytest.raises(ValueError):
        CubeIndicator(0.0, 1.0).value(np.zeros(3), np.zeros(3))


def test_bump_is_scaled_profile():
    lam = 3.0
    bump = BumpLambda(lam)
    unit = BumpLambda(1.0)
    rng = np.random.default_rng(5)
    q, p = rng.uniform(-2.5 / lam, 2.5 / lam, size=(2, 128))
    np.testing.assert_allclose(bump.value(q, p), lam * unit.value(lam * q, lam * p), atol=1e-14)


def test_bump_plateau_and_support():
    bump = BumpLambda(2.0)
    assert bump.value(0.2, 0.3) == 2.0  # inside radius 1/lam
    assert bump.value(1.1, 0.0) == 0.0  # outside radius 2/lam


def test_cube_has_no_gradient_oracle():
    with pytest.raises(OracleUnavailable):
        CubeIndicator(0.0, 1.0).gradient(np.zeros(1))


def test_product_gaussian_phase_factors():
    datum = product_gaussian_phase(0.5, 1.5, d=2)
    assert datum.ndim == 4
    pairs = datum.phase_pair_factors(2)
    assert len(pairs) == 2 and all(p.ndim == 2 for p in pairs)
    q1, q2, p1, p2 = 0.3, -0.2, 0.7, 0.1
    split = pairs[0].value(q1, p1) * pairs[1].value(q2, p2)
    assert split == pytest.approx(float(datum.value(q1, q2, p1, p2)), rel=1e-14)


def test_real_kind_rejects_complex_values():
    g = GridSpec.centered(5.0, 64, dim=1)
    with pytest.raises(ValueError):
        SampledField(g, np.full(64, 1.0 + 1.0j), "real")


def test_field_values_immutable():
    g = GridSpec.centered(8.0, 64, dim=1)
    f = sample(Gaussian(0.0, 1.0), g)
    with pytest.raises(ValueError):
        f.values[0] = 3.0
