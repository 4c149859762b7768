"""Dyadic partition, X norms, classical norms, translation optimization."""

import math
from pathlib import Path

import numpy as np
import pytest

from decaylab.experiments import OUTPUT_DIR_ENV, Report, default_config, run
from decaylab.fields import CubeIndicator, Gaussian, GridSpec, SampledField, l2_norm, linf_norm, sample
from decaylab import norms as nm


@pytest.fixture(scope="module")
def grid():
    return GridSpec.centered(64.0, 4096, dim=1)


@pytest.fixture(scope="module")
def partition(grid):
    return nm.build_dyadic_partition(grid, -2, 4)


@pytest.fixture(scope="module")
def shell_bump(grid):
    return sample(Gaussian(2.0, 0.25), grid)


class TestPartition:
    def test_bump_count_and_unity(self, grid, partition):
        assert partition.bumps.shape[0] == 7
        r = np.abs(grid.axis(0))
        shell = (r >= 2.0**-2) & (r <= 2.0**4)
        assert np.max(np.abs(partition.bumps.sum(axis=0)[shell] - 1.0)) <= 1e-12

    def test_annulus_support(self, grid, partition):
        r = np.abs(grid.axis(0))
        for k, bump in zip(partition.k_range, partition.bumps):
            outside = (r < 2.0 ** (k - 1) - 1e-9) | (r > 2.0 ** (k + 1) + 1e-9)
            assert np.max(np.abs(bump[outside])) == 0.0
            assert np.all(bump >= 0.0)

    def test_at_most_two_overlap(self, partition):
        overlap = (partition.bumps > 0).sum(axis=0)
        assert overlap.max() <= 2

    def test_unresolvable_window_rejected(self, grid):
        with pytest.raises(ValueError):
            nm.build_dyadic_partition(grid, -8, 2)  # 2^-8 < 4 * spacing

    def test_oversized_window_rejected(self, grid):
        with pytest.raises(ValueError):
            nm.build_dyadic_partition(grid, 0, 7)  # 2^8 > half-extent

    def test_single_annulus(self, grid):
        part = nm.build_dyadic_partition(grid, 0, 0)
        assert part.bumps.shape[0] == 1


class TestXNorm:
    def test_zero_field(self, grid, partition):
        f = SampledField(grid, np.zeros(grid.points[0]), "real")
        assert nm.x_norm(f, 0.5, 1, partition) == 0.0
        assert partition.off_shell_fraction(f) == 0.0

    def test_overlap_sandwich(self, partition, shell_bump):
        val = nm.x_norm(shell_bump, 0.0, 2, partition)
        ref = l2_norm(shell_bump)
        assert 2**-0.5 * ref <= val <= ref
        assert partition.off_shell_fraction(shell_bump) <= 1e-10

    def test_sequence_norm_nesting(self, partition, shell_bump):
        vinf = nm.x_norm(shell_bump, 0.25, math.inf, partition)
        v2 = nm.x_norm(shell_bump, 0.25, 2, partition)
        v1 = nm.x_norm(shell_bump, 0.25, 1, partition)
        assert vinf <= v2 <= v1

    def test_single_annulus_weighting(self, grid, partition):
        # data in annulus k0: the theta-weighted value sits within the dyadic bracket
        k0 = 3
        f = sample(Gaussian(3.0 * 2.0**k0 / 2.5, 0.3), grid)
        val = nm.x_norm(f, 1.0, 1, partition)
        ref = l2_norm(f)
        assert 2.0 ** (k0 - 1) * ref * 0.5 <= val <= 3.0 * 2.0 ** (k0 + 1) * ref

    def test_comparable_to_weighted_l2(self, grid, partition, shell_bump):
        # X^{theta,2} matches || |x|^theta f || within the fixed dyadic factor
        # for data that vanish off the shell; shell_bump is 1e-14 at x = 0,
        # where |x|^(-1/2) is not square integrable in one dimension
        cube = sample(CubeIndicator(2.0, 1.0), grid)
        for f, theta in ((shell_bump, 0.5), (shell_bump, 1.0), (cube, -0.5)):
            xv = nm.x_norm(f, theta, 2, partition)
            wv = nm.weighted_l2(f, theta)
            factor = 2.0 ** (abs(theta) + 0.5)
            assert wv / factor <= xv <= wv * factor
        assert nm.weighted_l2(shell_bump, -0.5) == math.inf  # |x|^(-1) is not integrable at 0

    def test_truncation_metadata(self, grid, partition):
        centered = sample(Gaussian(0.0, 0.5), grid)  # mass inside the shell hole
        assert partition.off_shell_fraction(centered) > 1e-10

    def test_piece_bound_with_measure_constant(self, grid, partition, shell_bump):
        # || phi_k f || <= sqrt(3) 2^(k/2) ||f||_inf in one dimension
        sup = float(np.max(np.abs(shell_bump.values)))
        for k, bump in zip(partition.k_range, partition.bumps):
            piece = math.sqrt(
                float(np.sum((bump * shell_bump.values) ** 2)) * grid.cell_volume
            )
            assert piece <= math.sqrt(3.0) * 2 ** (k / 2.0) * sup + 1e-12


class TestClassicalNorms:
    def test_gaussian_l2(self, grid):
        f = sample(Gaussian(0.0, 1.0), grid)
        assert nm.lp_norm(f, 2) == pytest.approx(math.pi**0.25, abs=1e-10)

    def test_constant_linf(self, grid):
        f = SampledField(grid, np.full(grid.points[0], 2.5), "real")
        assert linf_norm(f) == 2.5  # the sup; lp_norm takes finite p only
        with pytest.raises(ValueError):
            nm.lp_norm(f, math.inf)

    def test_hs_zero_is_l2(self, shell_bump):
        assert nm.hs_norm(shell_bump, 0.0) == pytest.approx(l2_norm(shell_bump), rel=1e-12)

    def test_hs_increases_with_s(self, shell_bump):
        assert nm.hs_norm(shell_bump, 1.0) > nm.hs_norm(shell_bump, 0.5)

    def test_weighted_l2_oracle(self, grid):
        # || |x| exp(-x^2/2) ||_2 = (sqrt(pi)/2)^(1/2)
        f = sample(Gaussian(0.0, 1.0), grid)
        assert nm.weighted_l2(f, 1.0) == pytest.approx(
            (math.sqrt(math.pi) / 2.0) ** 0.5, rel=1e-10
        )

    def test_weighted_l2_singular_node_rule(self, grid):
        zero = SampledField(grid, np.zeros(grid.points[0]), "real")
        assert nm.weighted_l2(zero, -0.5) == 0.0
        # an integrable weight: the origin node carries the mean of |x|^(-1/2)
        # over the cell [-h/2, h/2], 2 (h/2)^(-1/2)
        h = grid.spacing[0]
        spike = np.zeros(grid.points[0])
        spike[np.argmin(np.abs(grid.axis(0)))] = 1.0
        val = nm.weighted_l2(SampledField(grid, spike, "real"), -0.25)
        assert val == pytest.approx(math.sqrt(2.0 * (h / 2.0) ** -0.5 * h), rel=1e-12)

    def test_l4_by_quadrature(self, grid):
        f = sample(Gaussian(0.0, 1.0), grid)
        # (int exp(-2x^2))^(1/4) = (sqrt(pi/2))^(1/4)
        assert nm.lp_norm(f, 4) == pytest.approx((math.pi / 2.0) ** 0.125, rel=1e-10)


class TestTranslatedXNorm:
    def test_even_centered_data(self, grid, partition, shell_bump):
        datum = Gaussian(2.0, 0.25)
        opt = nm.translated_xnorm_inf(datum, 0.5, 1, partition)
        at_zero = nm.x_norm(shell_bump, 0.5, 1, partition)
        assert opt <= at_zero + 1e-12

    def test_cube_translation_gain(self, grid, partition):
        cube = CubeIndicator(3.0, 1.0)
        opt = nm.translated_xnorm_inf(cube, 0.5, 1, partition)
        plain = nm.x_norm(sample(cube, grid), 0.5, 1, partition)
        assert opt <= plain
        assert opt <= 2.0 * cube.mass()  # single shared constant across centers

    def test_zero_amplitude(self, grid, partition):
        datum = Gaussian(0.5, 0.2, amplitude=0.0)
        assert nm.translated_xnorm_inf(datum, 0.5, 1, partition) == 0.0


def test_partition_profile_id_recorded():
    assert Report("any", {}, (), ()).profile["partition_profile"] == nm.PARTITION_PROFILE_ID


def test_norms_require_matching_grid(partition):
    other = GridSpec.centered(32.0, 2048, dim=1)
    f = sample(Gaussian(2.0, 0.25), other)
    with pytest.raises(ValueError):
        nm.x_norm(f, 0.5, 2, partition)


@pytest.mark.parametrize("exp_id", ["schrodinger-xnorm", "lp-decay", "local-mass"])
def test_norm_reports_equal_the_recorded_tables(exp_id, monkeypatch):
    # recorded from the default configs while the norms still returned records and
    # every x_norm measured its own off-shell share
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    reports = Path(__file__).resolve().parent / "reports"
    assert run(default_config(exp_id)).samples_table() == (reports / f"{exp_id}.tsv").read_text()
