"""Decay fitting and the inequality check suites on small grids."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from decaylab.experiments import parse_config, run
from decaylab.fields import Gaussian, GridSpec, SampledField, l2_norm, linf_norm, sample, spectral_derivative
from decaylab.norms import build_dyadic_partition
from decaylab.operators import boost_norms
from decaylab.propagators import Evolution, airy, edge_mass_fraction, even_order, schrodinger
from decaylab import harness as hz
from decaylab import operators as ops

from spectral_oracles import complex_sample, field_at


def schrodinger_series(u0, times, read):
    (series,) = hz.Series.evolve(u0, schrodinger(), (times, read))
    return series


def airy_series(u0, times, read):
    (series,) = hz.Series.evolve(u0, airy(), (times, read))
    return series


def sup(t, u):
    return linf_norm(u)


def reported(check, u0, times, disp=schrodinger()):
    """The report of a check's (read, report) pair on the series of u0 under ``disp``, read with its read."""
    read, report = check
    (series,) = hz.Series.evolve(u0, disp, (times, read))
    return report(series)


def monomial_check(k, u0, times):
    return reported(hz.check_monomial_estimate(u0, k), u0, times, even_order(k))


def ks_check(u0, times):
    return reported(hz.check_ks_schrodinger(u0.grid.dim), u0, times)


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
    def test_parts_share_each_formed_time_and_read_their_own(self, monkeypatch):
        # a small box: by t = 100 the packet has wrapped around, at t <= 1 it has not
        grid = GridSpec.centered(40.0, 1024, dim=1)
        u0 = complex_sample(Gaussian(2.2, 0.25), grid)
        formed, read_at, stream = [], {"first": [], "second": []}, Evolution.stream

        def counted(evolution, times):
            for t, field in stream(evolution, times):
                formed.append(t)
                yield t, field
                del field  # the stream checks, before it reuses its buffer, that nothing holds the field

        def reader(name):
            def read(t, u):
                read_at[name].append(t)
                return linf_norm(u)

            return read

        monkeypatch.setattr(Evolution, "stream", counted)
        first, second = hz.Series.evolve(
            u0, schrodinger(), ([100.0, 1.0, 0.5, 1.0], reader("first")), ([0.25, 1.0, 100.0], reader("second"))
        )
        # one field per distinct time of all the parts; t = 1 is formed once and read by both
        assert formed == [0.25, 0.5, 1.0, 100.0]
        assert read_at == {"first": [0.5, 1.0], "second": [0.25, 1.0]}
        # each part lists its own clean times once, and the wrap-around time in each part that holds it
        assert [t for t, _ in first.clean] == [0.5, 1.0] and [t for t, _ in second.clean] == [0.25, 1.0]
        assert first.clean[1] == second.clean[1]
        assert first.excluded == second.excluded and [t for t, _ in first.excluded] == [100.0]
        assert first.excluded[0][1].startswith("wrap-around edge mass")


class TestRatioRule:
    def test_lhs_above_a_zero_rhs_fails(self):
        # the datum samples to the one node x = 0, so ||x u0|| = 0 while d^2 u(t) is not 0
        grid = GridSpec.centered(4300.0, 64, dim=1)
        u0 = complex_sample(Gaussian(0.0, 2.0), grid)
        rep = monomial_check(2, u0, [1.0, 2.0])
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
        zero = SampledField(grid, np.zeros(grid.points, complex))
        rep = reported(hz.check_dispersive_schrodinger(zero, part), zero, [1.0, 2.0])
        assert rep.passed and rep.max_ratio == 0.0

    def test_ratio_stable(self, shell_setup):
        _, part, u0 = shell_setup
        times = [1.0, 2.0, 4.0, 8.0, 16.0]
        rep = reported(hz.check_dispersive_schrodinger(u0, part), u0, times)
        ratios = [l / r for (_, l, r) in rep.samples]
        assert rep.passed
        assert max(ratios) <= 2.0 * min(ratios)

    def test_oracle_cross_check(self, shell_setup):
        # lhs at t matches sqrt(t) * w (w^4 + 4 t^2)^(-1/4) for the shifted Gaussian
        _, part, u0 = shell_setup
        t, w = 16.0, 0.25
        rep = reported(hz.check_dispersive_schrodinger(u0, part), u0, [t])
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

    @pytest.mark.parametrize("d, points", [(1, 8192), (2, 512)])
    def test_the_bound_is_the_sobolev_constant_2_to_the_minus_d(self, d, points):
        # |f|^2 <= ||f|| ||f'|| once per axis: a datum-free bound, which the t = 0 sample does not move
        grid = GridSpec.centered(120.0 if d == 2 else 800.0, points, dim=d)
        rep = ks_check(complex_sample(Gaussian((0.0,) * d, (1.3,) * d), grid), [0.0, 1.0, 4.0])
        assert rep.bound == 0.5**d and dict(rep.detail) == {"dim": d, "bound_style": "sobolev"}
        assert rep.samples[0][1] == 0.0 and 0.0 < rep.max_ratio < rep.bound and rep.passed

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
        norms = boost_norms(field_at(Evolution(u1, schrodinger()), 2.0), 2.0, 2)
        n = [norms[(k,)] for k in (0, 1, 2)]
        predicted_rhs2 = 4 * n[0] ** 3 * n[2] + 6 * n[0] ** 2 * n[1] ** 2
        assert lhs2 == pytest.approx(lhs1**2, rel=1e-6)
        assert rhs2 == pytest.approx(predicted_rhs2, rel=1e-6)
        assert (lhs2 / rhs2) == pytest.approx(lhs1**2 / predicted_rhs2, rel=0.10)


# the catalog runners that evolve a datum through a ``Series``
SERIES_RUNNERS = [
    "schrodinger-decay",
    "schrodinger-ks",
    "schrodinger-xnorm",
    "lp-decay",
    "local-mass",
    "airy-pointwise",
    "airy-local-energy",
    "airy-decay",
    "monomial-2k",
]


def _holds_field(read, shape):
    if isinstance(read, SampledField):
        return True
    if isinstance(read, np.ndarray):
        return read.shape == shape
    if isinstance(read, dict):
        return any(_holds_field(v, shape) for v in read.values())
    if isinstance(read, (tuple, list)):
        return any(_holds_field(v, shape) for v in read)
    return False


class TestSeriesRead:
    def test_read_keeps_the_guard_and_the_ks_report(self):
        # the 2-d packet wraps around this box by t = 16, as in the schrodinger-ks contamination test
        u0 = complex_sample(Gaussian((0.0, 0.0), (1.3, 1.3)), GridSpec.centered(40.0, 256, dim=2))
        read, report = hz.check_ks_schrodinger(2)
        reads = schrodinger_series(u0, [1.0, 4.0, 16.0], read)
        evolution = Evolution(u0, schrodinger())
        fields = {t: field_at(evolution, t) for t in (1.0, 4.0, 16.0)}
        fractions = {t: edge_mass_fraction(ut) for t, ut in fields.items()}
        assert [t for t, _ in reads.clean] == [t for t, f in fractions.items() if f <= hz.CONTAMINATION_THRESHOLD]
        assert reads.excluded == ((16.0, f"wrap-around edge mass {fractions[16.0]:.2e}"),)
        # the same report, bit for bit, as reading fields formed apart from the series
        held = replace(reads, clean=tuple((t, read(t, fields[t])) for t in (1.0, 4.0)))
        assert report(reads) == report(held)

    @pytest.mark.parametrize("exp_id", SERIES_RUNNERS)
    def test_runner_keeps_one_evolved_field_alive(self, exp_id, tmp_path, monkeypatch):
        # every field Evolution.stream yields is watched; once it is yielded, no earlier one of its datum remains
        watched, alive, built = {}, [], []
        stream, evolve = Evolution.stream, hz.Series.evolve.__func__

        def watched_stream(evolution, times):
            refs = watched.setdefault(evolution, [])
            for t, field in stream(evolution, times):
                refs.append(weakref.ref(field.values))
                alive.append(sum(ref() is not None for ref in refs))
                yield t, field
                del field  # the stream checks, before it reuses its buffer, that nothing holds the field

        def recorded_evolve(cls, u0, disp, *parts, **kwargs):
            before = len(alive)
            series = evolve(cls, u0, disp, *parts, **kwargs)
            distinct = len({float(t) for times, _ in parts for t in times})
            built.append((u0.values.shape, series, len(alive) - before, distinct))
            return series

        monkeypatch.setattr(Evolution, "stream", watched_stream)
        monkeypatch.setattr(hz.Series, "evolve", classmethod(recorded_evolve))
        text = f"[experiment]\nid = {exp_id}\n"
        if exp_id == "schrodinger-ks":
            text += "[grid]\nhalf_width_2d = 40.0\npoints_2d = 256\n"
        run(parse_config(text), out_dir=str(tmp_path))
        assert built and len(watched) >= len(built)
        assert max(alive) == 1
        # one field per distinct time over all the parts of a datum
        assert [formed for _, _, formed, _ in built] == [distinct for _, _, _, distinct in built]
        # a series holds per-time numbers: no field, and no array of a field's shape
        for shape, parts, _, _ in built:
            for series in parts:
                for _, read in series.clean:
                    assert not _holds_field(read, shape), (exp_id, read)
        if exp_id == "schrodinger-ks":
            assert [formed for _, _, formed, _ in built] == [16, 5]  # d1: 14 checkpoints, drift 10 and 100; d2: 5
        if exp_id == "airy-pointwise":
            # 9 checkpoints and 14 fit times 2 * 2^(k/4), of which 2, 4, 8 and 16 are read at checkpoints
            assert [formed for _, _, formed, _ in built] == [19]


class TestStream:
    @pytest.mark.parametrize("disp", [schrodinger(), airy()], ids=["complex-buffer", "real-buffer"])
    @pytest.mark.parametrize("keep", [lambda t, u: u, lambda t, u: u.values[2:6]], ids=["field", "slice"])
    def test_a_read_that_keeps_its_field_or_a_view_raises(self, disp, keep):
        u0 = sample(Gaussian(0.0, 1.0), GridSpec.centered(30.0, 256))
        with pytest.raises(RuntimeError, match=r"u\(t\) at t = 0.5 is still referenced"):
            hz.Series.evolve(u0, disp, ([0.5, 1.0, 2.0], keep))

    @pytest.mark.parametrize("disp", [schrodinger(), airy()], ids=["complex-buffer", "real-buffer"])
    def test_streamed_fields_are_the_fields_of_one_time_streams(self, disp):
        u0 = sample(Gaussian(0.0, 1.0), GridSpec.centered(30.0, 256))
        evolution = Evolution(u0, disp)
        times, formed = [0.5, 1.0, 2.0], []
        for t, ut in evolution.stream(times):
            alone = field_at(evolution, t)
            formed.append(np.array_equal(ut.values, alone.values) and ut.kind == alone.kind)
            del ut, alone
        assert formed == [True] * len(times)
        # a read that copies what it keeps passes
        (series,) = hz.Series.evolve(u0, disp, (times, lambda t, u: u.values.copy()))
        for t, values in series.clean:
            assert np.array_equal(values, field_at(evolution, t).values)

    def test_two_streams_return_independent_fields(self):
        # each stream owns its buffer: a field of one stream survives the next stream's writes
        evolution = Evolution(complex_sample(Gaussian(0.0, 1.0), GridSpec.centered(30.0, 256)), schrodinger())
        first, second = field_at(evolution, 1.0), field_at(evolution, 1.0)
        assert not np.shares_memory(first.values, second.values)
        kept = first.values.copy()
        field_at(evolution, 2.0)
        assert np.array_equal(first.values, kept) and np.array_equal(second.values, kept)


def square_and_factor(half_width, points):
    """The 2-d schrodinger-ks datum on a square grid, and its 1-d factor on one axis of that grid."""
    square = complex_sample(Gaussian((0.0, 0.0), (1.3, 1.3)), GridSpec.centered(half_width, points, dim=2))
    return square, complex_sample(Gaussian(0.0, 1.3), GridSpec.centered(half_width, points))


class TestTensorPower:
    def test_square_of_the_factor_reads_as_the_formed_field(self):
        # the datum wraps around this box by t = 8, as in the schrodinger-ks contamination test
        square, factor = square_and_factor(40.0, 256)
        times = [1.0, 2.0, 4.0, 8.0, 16.0]
        (read, report), (read2, report2) = hz.check_ks_schrodinger(2, power=2), hz.check_ks_schrodinger(2)
        formed = schrodinger_series(square, times, read2)
        (product,) = hz.Series.evolve(factor, schrodinger(), (times, read), power=2)
        assert [t for t, _ in product.clean] == [t for t, _ in formed.clean] == [1.0, 2.0, 4.0]
        assert product.excluded == formed.excluded  # the same times, reason strings and all
        assert [t for t, _ in product.excluded] == [8.0, 16.0]
        for (_, (sup, norms)), (_, (sup2, norms2)) in zip(product.clean, formed.clean):
            assert sup == pytest.approx(sup2, rel=1e-13, abs=0.0)
            assert norms.keys() == norms2.keys()
            for alpha, value in norms2.items():
                assert norms[alpha] == pytest.approx(value, rel=1e-13, abs=0.0)
        rep, rep2 = report(product), report2(formed)
        assert dict(rep.detail)["dim"] == dict(rep2.detail)["dim"] == 2
        assert rep.excluded == rep2.excluded
        assert rep.max_ratio == pytest.approx(rep2.max_ratio, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_aliased_chirp_walks_on_both_paths(self, t, monkeypatch):
        # on 128 points the sampled chirp aliases at t = 0.5, and t = 0 always walks
        u2, u1 = (field_at(Evolution(u0, schrodinger()), t) for u0 in square_and_factor(40.0, 128))
        calls = []
        walk = ops._boost_walk
        monkeypatch.setattr(ops, "_boost_walk", lambda u, *args: calls.append(u.grid.dim) or walk(u, *args))
        formed, product = ops.boost_norms(u2, t, 2), ops.boost_norms(u1, t, 2, power=2)
        assert calls == [2, 1]
        assert product.keys() == formed.keys()
        for alpha, value in formed.items():
            assert product[alpha] == pytest.approx(value, rel=1e-13, abs=0.0)

    def test_edge_mass_of_the_square_at_the_excluded_times(self):
        # 1 - (1 - f)^2 of the factor's fraction f is the fraction of the outer-product field
        square, factor = square_and_factor(40.0, 256)
        evolution = Evolution(factor, schrodinger())
        fractions = []
        for t in (8.0, 16.0):
            u1 = field_at(evolution, t)
            outer = SampledField(square.grid, np.multiply.outer(u1.values, u1.values))
            fractions.append(edge_mass_fraction(outer))
            assert hz._edge_mass(u1, 2) == pytest.approx(fractions[-1], rel=1e-12, abs=0.0)
        assert fractions == pytest.approx([2.33e-05, 1.98e-02], rel=1e-2)

    def test_default_schrodinger_ks_makes_no_2d_transform(self, tmp_path, monkeypatch):
        shapes = []
        for name in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn"):

            def counted(a, *args, fn=getattr(np.fft, name), **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        run(parse_config("[experiment]\nid = schrodinger-ks\n"), out_dir=str(tmp_path))
        assert shapes and all(len(shape) == 1 for shape in shapes)
        assert sorted(set(shapes)) == [(1024,), (32768,)]


class TestLpAndLocalMass:
    def test_theta_zero_is_mass_conservation(self, shell_setup):
        _, _, u0 = shell_setup
        rep = reported(hz.check_lp_decay(u0, 0.0), u0, [1.0, 3.0, 9.0])
        assert rep.passed
        for _, lhs, rhs in rep.samples:
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_theta_half_rate(self, shell_setup):
        _, part, u0 = shell_setup
        times = [5.0 * 2 ** (0.5 * k) for k in range(8)]
        rep = reported(hz.check_lp_decay(u0, 0.5, part), u0, times)
        assert rep.passed
        l4 = [l / t**0.25 for (t, l, _) in rep.samples]
        fit = hz.fit_decay([s[0] for s in rep.samples], l4)
        assert fit.slope == pytest.approx(-0.25, abs=0.05)

    def test_theta_guard(self, shell_setup):
        _, part, u0 = shell_setup
        with pytest.raises(ValueError):
            hz.check_lp_decay(u0, 1.0, part)

    def test_local_mass_sigma_zero_sandwich(self, shell_setup):
        _, part, u0 = shell_setup
        # The estimate is an upper bound. From sum phi_k^2 >= (sum phi_k)^2 / 2,
        # ||u(t)|| = ||u0|| and X(u0) <= ||u0||, the ratio is at least
        # 2^(-1/2) (1 - ofs(t)), ofs the mass fraction that has left the shell.
        rep = reported(hz.check_local_mass(u0, 0.0, part), u0, [1.0, 4.0, 16.0])
        assert rep.passed
        assert dict(rep.detail)["window_truncated"]
        for t, lhs, rhs in rep.samples:
            ut = field_at(Evolution(u0, schrodinger()), t)
            ofs = part.off_shell_fraction(ut)
            assert 2**-0.5 * (1.0 - ofs) - 1e-9 <= lhs / rhs <= 2**0.5 + 1e-9

    def test_check_with_every_sample_excluded_raises(self):
        # a small box: by t = 100 every sample has wrapped, so nothing supports a verdict
        grid = GridSpec.centered(40.0, 1024, dim=1)
        part = build_dyadic_partition(grid, 0, 2)
        u0 = complex_sample(Gaussian(2.2, 0.25), grid)
        with pytest.raises(hz.ContaminationError, match="all 2 samples excluded"):
            reported(hz.check_local_mass(u0, 0.25, part), u0, [100.0, 200.0])

    def test_local_mass_sigma_guard(self, shell_setup):
        _, part, u0 = shell_setup
        with pytest.raises(ValueError):
            hz.check_local_mass(u0, 0.6, part)


AIRY_GRID = GridSpec.centered(1500.0, 32768, dim=1)


def _nodes(grid, wanted):
    """The grid nodes nearest the wanted probe points; on a tie the lower node, as argmin picks."""
    x, wanted = grid.axis(0), np.asarray(wanted)
    above = np.clip(np.searchsorted(x, wanted), 1, x.size - 1)
    below = above - 1
    return x[np.where(np.abs(x[below] - wanted) <= np.abs(x[above] - wanted), below, above)]


def airy_checked(u0, times, probes):
    """``check_airy_pointwise`` of the Airy series of u0, read at the probes."""
    return reported(hz.check_airy_pointwise(u0, probes), u0, times, airy())


class TestAiryChecks:
    @pytest.fixture(scope="class")
    def airy_u0(self):
        return sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), AIRY_GRID)  # exp(-x^2)

    def test_pointwise_constant_free_bound(self, airy_u0):
        probes = _nodes(AIRY_GRID, np.linspace(-50, 50, 21))
        rep = airy_checked(airy_u0, [0.0, 1.0, 4.0, 16.0], probes)
        assert rep.passed and rep.bound == 1.0
        # rhs = 2 sqrt(pi/2) from the Gaussian moments
        assert rep.samples[0][2] == pytest.approx(2.0 * math.sqrt(math.pi / 2.0), rel=1e-8)

    def test_pointwise_t_zero_from_calculus(self, airy_u0):
        # at t = 0 the left side is x u0(x)^2 = x exp(-2 x^2), largest at the probed nodes nearest x = 1/2
        probes = _nodes(AIRY_GRID, np.linspace(-50, 50, 2001))
        rep = airy_checked(airy_u0, [0.0], probes)
        lhs0 = rep.samples[0][1]
        assert lhs0 == pytest.approx(np.max(probes * np.exp(-2.0 * probes**2)), rel=1e-12)

    def test_pointwise_node_probes_match_node_values(self, airy_u0):
        # the check reads u(t) and its spectral derivative at the probed nodes
        x = AIRY_GRID.axis(0)
        idx = np.abs(x[:, None] - np.linspace(-50, 50, 41)).argmin(axis=0)
        times = [0.0, 1.0, 4.0, 20.0]
        rep = airy_checked(airy_u0, times, x[idx])
        for t, (ts, lhs, _) in zip(times, rep.samples):
            ut = field_at(Evolution(airy_u0, airy()), t)
            du = spectral_derivative(ut, 1)
            node = np.max(3.0 * t * du.values[idx] ** 2 + x[idx] * ut.values[idx] ** 2)
            assert ts == t
            assert lhs == pytest.approx(node, rel=1e-12)

    def test_local_energy_bound(self, airy_u0):
        rep = reported(hz.check_airy_local_energy(airy_u0, 0.5), airy_u0, [1.0, 4.0, 16.0], airy())
        assert rep.passed and rep.bound == 1.0

    def test_sup_decay_rate(self, airy_u0):
        series = airy_series(airy_u0, [2.0 * 2 ** (0.25 * k) for k in range(14)], sup)
        fit = hz.fit_decay([t for t, _ in series.clean], [sup for _, sup in series.clean])
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=0.1)

    def test_contamination_excludes_and_still_passes(self):
        # a deliberately small box wraps for late times; those samples are
        # dropped with a reason and the surviving report still passes
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        probes = _nodes(grid, np.linspace(-20, 20, 11))
        rep = airy_checked(u0, [0.5, 1.0, 2.0, 30.0, 60.0], probes)
        assert len(rep.excluded) >= 1
        assert rep.passed

    def test_probes_outside_grid_rejected(self):
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        with pytest.raises(ValueError, match="inside the grid"):
            airy_checked(u0, [0.0], [0.0, 151.0])

    @pytest.mark.parametrize("probe", [0.01, 150.0])  # between two nodes, and the right end of the box
    def test_probes_off_the_nodes_rejected(self, probe):
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        with pytest.raises(ValueError, match="probes must be grid nodes"):
            airy_checked(u0, [0.0], [0.0, probe])

    def test_insufficient_window_raises(self):
        grid = GridSpec.centered(150.0, 4096, dim=1)
        u0 = sample(Gaussian(0.0, 1.0 / math.sqrt(2.0)), grid)
        series = airy_series(u0, [20.0, 40.0, 80.0, 160.0, 320.0], sup)
        with pytest.raises(ValueError, match="insufficient"):
            hz.fit_decay([t for t, _ in series.clean], [sup for _, sup in series.clean], excluded=series.excluded)


class TestMonomialCheck:
    def test_k1_matches_schrodinger_structure(self):
        # and so its Sobolev bound 1/2, which the datum and the early time 0.05 do not move
        grid = GridSpec.centered(320.0, 4096, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        rep = monomial_check(1, u0, [0.05, 1.0, 2.0, 4.0, 8.0])
        assert rep.bound == 0.5 and dict(rep.detail) == {"bound_style": "sobolev"}
        assert 0.0 < rep.max_ratio < rep.bound and rep.passed

    def test_k2_band_limited_bump(self):
        grid = GridSpec.centered(4300.0, 16384, dim=1)
        u0 = complex_sample(Gaussian(0.0, 2.0), grid)
        rep = monomial_check(2, u0, [1.0, 2.0, 4.0, 8.0, 16.0])
        assert rep.passed

    def test_a_zero_ratio_at_t_zero_leaves_the_stability_bound_to_the_positive_ones(self):
        # t sup^2 is 0 at t = 0: that ratio says nothing of the constant, so it sets no bound
        grid = GridSpec.centered(4300.0, 16384, dim=1)
        rep = monomial_check(2, complex_sample(Gaussian(0.0, 2.0), grid), [0.0, 1.0, 4.0, 16.0])
        ratios = [lhs / rhs for _, lhs, rhs in rep.samples]
        assert ratios[0] == 0.0 and min(ratios[1:]) > 0.0
        assert rep.bound == 2.0 * min(ratios[1:]) and dict(rep.detail) == {"bound_style": "stability"}
        assert rep.passed

    @pytest.mark.parametrize("k", [1, 2])
    def test_samples_read_the_derivative_of_order_2k_minus_2(self, k):
        grid = GridSpec.centered(320.0, 4096, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        times = [1.0, 2.0]
        rep = monomial_check(k, u0, times)
        xnorm0 = l2_norm(u0.with_values(grid.axis(0) * u0.values))
        for t, (ts, lhs, rhs) in zip(times, rep.samples):
            v = spectral_derivative(field_at(Evolution(u0, even_order(k)), t), 2 * k - 2)
            assert (ts, lhs, rhs) == (t, t * linf_norm(v) ** 2, l2_norm(v) * xnorm0)

    def test_k_guard(self):
        grid = GridSpec.centered(320.0, 4096, dim=1)
        u0 = complex_sample(Gaussian(0.0, 1.0), grid)
        with pytest.raises(ValueError):
            hz.check_monomial_estimate(u0, 3)
