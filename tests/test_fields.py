"""Grid, sampling, quadrature and analytic-datum oracle tests."""

import math

import numpy as np
import pytest

from decaylab.fields import (
    BumpLambda,
    CubeIndicator,
    Gaussian,
    GridSpec,
    SampledField,
    SupportOverflowError,
    l2_norm,
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

    def test_axes(self):
        g = GridSpec.centered(2.0, 16, dim=2)
        assert g.axis(0)[0] == -2.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_along_gives_the_sparse_meshgrid_of_the_wavenumbers(self, dim):
        g = GridSpec(dim, (-3.0, -1.0)[:dim], (6.0, 5.0)[:dim], (16, 10)[:dim])
        sparse = np.meshgrid(*(g.wavenumbers(i) for i in range(dim)), indexing="ij", sparse=True)
        for i in range(dim):
            along = g.along(i, g.wavenumbers(i))
            assert along.shape == sparse[i].shape
            assert np.array_equal(along, sparse[i])

    @pytest.mark.parametrize("n", [16, 17])
    def test_half_wavenumbers_are_the_rfft_layout(self, n):
        g = GridSpec(1, 0.0, 3.0, n)
        assert np.array_equal(g.wavenumbers(0, half=True), 2.0 * np.pi * np.fft.rfftfreq(n, d=3.0 / n))
        assert np.array_equal(g.wavenumbers(0), 2.0 * np.pi * np.fft.fftfreq(n, d=3.0 / n))


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
        assert BumpLambda(4.0).value(*g.meshgrid()).max() == pytest.approx(4.0, abs=0)


class TestSampledField:
    def test_as_complex_shares_complex_values_and_copies_real_ones(self):
        g = GridSpec.centered(5.0, 16, dim=1)
        z = SampledField(g, np.arange(16) + 1j)
        shared = z.as_complex()
        assert shared is z.values and not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0
        r = SampledField(g, np.arange(16.0))
        fresh = r.as_complex()
        assert fresh.dtype == np.complex128 and fresh.flags.writeable
        fresh[0] = 5.0
        assert r.values[0] == 0.0 and r.as_complex()[0] == 0.0

    def test_takes_a_contiguous_array_of_its_dtype_and_freezes_it(self):
        g = GridSpec.centered(5.0, 16, dim=1)
        vals = np.exp(1j * g.axis(0))
        z = SampledField(g, vals)
        assert np.shares_memory(z.values, vals) and not vals.flags.writeable

    @pytest.mark.parametrize(
        "dim, vals",
        [
            (1, (np.arange(32) + 1j)[::2]),  # strided
            (2, np.arange(256.0).reshape(16, 16).T + 0j),  # Fortran order
            (1, np.arange(16, dtype=np.complex64)),  # another complex dtype
            (1, np.arange(16, dtype=np.float32)),  # another real dtype
        ],
    )
    def test_copies_other_input_into_a_contiguous_array(self, dim, vals):
        f = SampledField(GridSpec.centered(5.0, 16, dim=dim), vals)
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        assert not np.shares_memory(f.values, vals) and vals.flags.writeable
        np.testing.assert_array_equal(f.values, vals)

    @pytest.mark.parametrize(
        "vals, kind, dtype",
        [
            (np.arange(16.0), "real", np.float64),
            (np.arange(16), "real", np.float64),
            (np.arange(16) % 2 == 0, "real", np.float64),
            (np.arange(16) + 0j, "complex", np.complex128),
        ],
    )
    def test_kind_and_dtype_follow_the_values(self, vals, kind, dtype):
        f = SampledField(GridSpec.centered(5.0, 16, dim=1), vals)
        assert (f.kind, f.values.dtype) == (kind, dtype)

    @pytest.mark.parametrize(
        "datum, dim",
        [
            (Gaussian(0.2, 0.8), 1),
            (CubeIndicator((0.2, -0.1), 1.3), 2),
            (Gaussian((0.0, 0.0), (0.9, 1.1)), 2),
        ],
    )
    def test_every_analytic_datum_samples_real(self, datum, dim):
        f = sample(datum, GridSpec.centered(8.0, 64, dim=dim))
        assert (f.kind, f.values.dtype) == ("real", np.float64)


class TestSpectralDerivative:
    def test_fourier_eigenfunction(self):
        g = GridSpec.centered(math.pi, 64, dim=1)
        k0 = g.wavenumbers(0)[3]
        x = g.axis(0)
        f = SampledField(g, np.exp(1j * k0 * x))
        df = spectral_derivative(f, 1)
        np.testing.assert_allclose(df.values, 1j * k0 * f.values, rtol=1e-12, atol=1e-12)

    def test_complex_eigenfunction_along_axis_1(self):
        g = GridSpec.centered((2.0, math.pi), (16, 64), dim=2)
        k0 = g.wavenumbers(1)[5]
        x1 = g.meshgrid()[1]
        f = SampledField(g, np.exp(1j * k0 * x1))
        df = spectral_derivative(f, 1, axis=1)
        np.testing.assert_allclose(df.values, 1j * k0 * f.values, rtol=1e-12, atol=1e-12)

    def test_real_cosine_along_axis_1_goes_through_rfft(self, monkeypatch):
        g = GridSpec.centered((2.0, math.pi), (16, 64), dim=2)
        k0 = g.wavenumbers(1)[5]
        x1 = g.meshgrid()[1]
        f = SampledField(g, np.cos(k0 * x1))
        forward, axes = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft", lambda a, axis: axes.append(axis) or forward(a, axis=axis))
        df = spectral_derivative(f, 1, axis=1)
        assert axes == [1] and df.kind == "real"
        np.testing.assert_allclose(df.values, -k0 * np.sin(k0 * x1), rtol=1e-12, atol=1e-12)

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
    # the periodic trapezoid (= rectangle) quadrature of the samples; the mass is w sqrt(2 pi)
    assert float(f.values.sum()) * g.cell_volume == pytest.approx(1.3 * math.sqrt(2.0 * math.pi), rel=1e-9)


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 5.0, 10.0])
def test_gradient_matches_finite_differences(lam):
    datum = BumpLambda(lam)
    rng = np.random.default_rng(11)
    lo, hi = datum.support_bounds(1e-6)
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    x = [rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a), size=64) for a, b in zip(lo, hi)]
    step = 1e-5 * datum.feature_scale()
    grad = datum.gradient(*x)
    assert len(grad) == 2 and all(g.shape == (64,) for g in grad)
    ref_scale = max(np.max(np.abs(g)) for g in grad)
    for ax in range(2):
        plus = [xi + step if i == ax else xi for i, xi in enumerate(x)]
        minus = [xi - step if i == ax else xi for i, xi in enumerate(x)]
        fd = (datum.value(*plus) - datum.value(*minus)) / (2 * step)
        np.testing.assert_allclose(grad[ax], fd, atol=1e-6 * max(ref_scale, 1.0))


@pytest.mark.parametrize(
    "datum",
    [
        Gaussian((0.1, -0.3), (1.0, 0.7)),
        BumpLambda(2.0),
        CubeIndicator((0.2, -0.1), 1.3),
        Gaussian((0.0, 0.0), (0.9, 1.1)),
    ],
)
def test_broadcast_axes_equal_dense_mesh(datum):
    # axes shaped (n, 1) and (1, m) give, bit for bit, the values on the dense mesh
    x, y = np.linspace(-1.5, 1.5, 37), np.linspace(-1.2, 1.4, 29)
    q, p = np.meshgrid(x, y, indexing="ij")
    dense = datum.value(q, p)
    assert dense.shape == (37, 29)
    assert np.array_equal(datum.value(x[:, None], y[None, :]), dense)
    if isinstance(datum, BumpLambda):
        for broadcast, full in zip(datum.gradient(x[:, None], y[None, :]), datum.gradient(q, p)):
            assert np.array_equal(broadcast, full)


@pytest.mark.parametrize(
    "center, width",
    [((0.1, -0.3, 0.0, 0.4), (1.0, 0.7, 0.3, 2.2)), ((1.5, -0.3, 0.0, -1.2), (0.2, 0.7, 3.0, 0.05))],
    ids=["moderate", "narrow-and-wide"],
)
def test_gaussian_value_equals_chained_sum(center, width):
    # the in-place sum rounds as exp(-0.5 * sum(...)) does; the first
    # axis array does not carry the full broadcast shape, nor does any other
    datum = Gaussian(center, width)
    rng = np.random.default_rng(11)
    x = (
        rng.uniform(-2, 2, (9, 1, 1)),
        rng.uniform(-2, 2, (1, 7, 1)),
        rng.uniform(-2, 2, (6,)),
        rng.uniform(-2, 2, (9, 1, 6)),
    )
    terms = zip(x, datum.center, datum.width)
    chained = np.exp(-0.5 * sum(((xi - c) / w) ** 2 for xi, c, w in terms))
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


def test_field_values_immutable():
    g = GridSpec.centered(8.0, 64, dim=1)
    f = sample(Gaussian(0.0, 1.0), g)
    with pytest.raises(ValueError):
        f.values[0] = 3.0
