"""Dyadic partition, X norms, classical norms, translation optimization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from decaylab import experiments
from decaylab.experiments import Report
from decaylab.fields import (
    CubeIndicator,
    Gaussian,
    GridSpec,
    SampledField,
    l2_norm,
    linf_norm,
    sample,
    spectral_derivative,
)
from decaylab import harness as hz
from decaylab import norms as nm

from spectral_oracles import modulated_sample

# x_norm and off_shell_fraction against the per-bump formulas, with room above the 3e-16 seen
KERNEL_REL = 1e-14


@pytest.fixture(scope="module")
def grid():
    return GridSpec.centered(64.0, 4096, dim=1)


@pytest.fixture(scope="module")
def partition(grid):
    return nm.build_dyadic_partition(grid, -2, 4)


def _stack(grid, part):
    """The full-grid bumps phi_k = cutoff(|x|/2^k) - cutoff(|x|/2^(k-1)) of ``part``, one per k."""
    r = np.sqrt(sum(x**2 for x in grid.meshgrid()))
    cutoff = nm._radial_cutoff
    return np.stack([cutoff(r / 2.0**k) - cutoff(r / 2.0 ** (k - 1)) for k in part.k_range])


@pytest.fixture(scope="module")
def bumps(grid, partition):
    return _stack(grid, partition)


@pytest.fixture(scope="module")
def shell_bump(grid):
    return sample(Gaussian(2.0, 0.25), grid)


class TestPartition:
    def test_bump_count_and_unity(self, grid, partition, bumps):
        assert bumps.shape[0] == 7
        assert partition.rows.shape[0] == 7 + 1  # phi_k^2 per k, then (1 - sum_k phi_k)^2
        r = np.abs(grid.axis(0))
        shell = (r >= 2.0**-2) & (r <= 2.0**4)
        assert np.max(np.abs(bumps.sum(axis=0)[shell] - 1.0)) <= 1e-12

    def test_annulus_support(self, grid, partition, bumps):
        r = np.abs(grid.axis(0))
        for k, bump in zip(partition.k_range, bumps):
            outside = (r < 2.0 ** (k - 1) - 1e-9) | (r > 2.0 ** (k + 1) + 1e-9)
            assert np.max(np.abs(bump[outside])) == 0.0
            assert np.all(bump >= 0.0)

    def test_at_most_two_overlap(self, bumps):
        overlap = (bumps > 0).sum(axis=0)
        assert overlap.max() <= 2

    def test_unresolvable_window_rejected(self, grid):
        with pytest.raises(ValueError):
            nm.build_dyadic_partition(grid, -8, 2)  # 2^-8 < 4 * spacing

    def test_oversized_window_rejected(self, grid):
        with pytest.raises(ValueError):
            nm.build_dyadic_partition(grid, 0, 7)  # 2^8 > half-extent

    def test_single_annulus(self, grid):
        part = nm.build_dyadic_partition(grid, 0, 0)
        assert _stack(grid, part).shape[0] == 1
        assert part.rows.shape[0] == 2

    def test_holds_no_full_grid_array_on_the_xnorm_grid(self):
        # on schrodinger-xnorm's 131,072-node grid the partition keeps only its box's rows
        _, part, u0 = experiments._shell_setup(experiments.default_config("schrodinger-xnorm"))
        assert u0.values.size == 131072
        arrays = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
        assert [f.name for f in dataclasses.fields(part)] == ["grid", "k_min", "k_max", "box", "rows"]
        assert arrays and all(a.size < u0.values.size for a in arrays)

    @pytest.mark.parametrize("dim, k_min, k_max", [(1, -2, 4), (2, 0, 3)])
    def test_kernels_equal_their_per_bump_formulas(self, dim, k_min, k_max):
        # the box and rows built from K + 1 cutoffs are the per-bump formula's stack, cropped to the
        # bounding box of its nonzeros and squared, bit for bit; x_norm and off_shell_fraction, read
        # from one |f|^2 and one matrix-vector product on that box, are the per-bump formulas within
        # KERNEL_REL (3e-16 measured, in 2-d)
        grid = GridSpec.centered(32.0, 4096 if dim == 1 else 256, dim=dim)
        part = nm.build_dyadic_partition(grid, k_min, k_max)
        bumps = _stack(grid, part)
        box = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(bumps.any(axis=0)))
        cropped = bumps[(slice(None), *box)].reshape(len(bumps), -1)
        assert part.box == box
        assert np.array_equal(part.rows, np.vstack([cropped**2, (1.0 - cropped.sum(axis=0)) ** 2]))
        f = modulated_sample(Gaussian((3.0,) * dim, (0.5,) * dim), grid, (1.5,) * dim)
        centred = sample(Gaussian((0.0,) * dim, (0.5,) * dim), grid)  # most of its mass in the shell's hole
        assert f.kind == "complex"
        for field in (f, f.with_values(f.values.real), centred):
            pieces = np.array([l2_norm(field.with_values(bump * field.values)) for bump in bumps])
            seq = 2.0 ** (0.5 * np.array(part.k_range)) * pieces
            assert nm.x_norm(field, 0.5, 2, part) == pytest.approx(float(np.sum(seq**2.0) ** 0.5), rel=KERNEL_REL)
            assert nm.x_norm(field, 0.5, math.inf, part) == pytest.approx(float(seq.max()), rel=KERNEL_REL)
            clipped = l2_norm(field.with_values((1.0 - bumps.sum(axis=0)) * field.values))
            assert part.off_shell_fraction(field) == pytest.approx(clipped / l2_norm(field), rel=KERNEL_REL)

    @pytest.mark.parametrize("where", [0.0, 48.0], ids=["in-the-hole", "off-the-box"])
    @pytest.mark.parametrize("share, truncated", [(1e-12, True), (1e-24, False)])
    def test_a_small_off_shell_mass_keeps_its_window_truncated_verdict(
        self, grid, partition, bumps, where, share, truncated
    ):
        # ``share`` of the mass lies off the shell, in its hole or beyond the box the partition's
        # rows cover. A share taken as total - inside would keep only its digits above the
        # total's rounding, about 1e-16 of the mass: four of them at 1e-12 and none at 1e-24.
        shell, piece = sample(Gaussian(4.0, 0.25), grid), sample(Gaussian(where, 0.05), grid)
        f = shell.with_values(shell.values + math.sqrt(share) * l2_norm(shell) / l2_norm(piece) * piece.values)
        clipped = l2_norm(f.with_values((1.0 - bumps.sum(axis=0)) * f.values)) / l2_norm(f)
        assert partition.off_shell_fraction(f) == pytest.approx(clipped, rel=KERNEL_REL)
        read, report = hz.check_local_mass(f, 0.25, partition)
        assert dict(report(hz.Series(((1.0, read(1.0, f)),), ())).detail)["window_truncated"] is truncated


class TestXNorm:
    def test_zero_field(self, grid, partition):
        f = SampledField(grid, np.zeros(grid.points[0]))
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
        # for data that vanish off the shell; the weighted norm is summed over
        # the nodes where f != 0, none of which is x = 0 when theta < 0
        cube = sample(CubeIndicator(2.0, 1.0), grid)
        for f, theta in ((shell_bump, 0.5), (shell_bump, 1.0), (cube, -0.5)):
            xv = nm.x_norm(f, theta, 2, partition)
            on = f.values != 0
            wv = math.sqrt(np.sum((np.abs(grid.axis(0)[on]) ** theta * f.values[on]) ** 2) * grid.cell_volume)
            factor = 2.0 ** (abs(theta) + 0.5)
            assert wv / factor <= xv <= wv * factor

    def test_truncation_metadata(self, grid, partition):
        centered = sample(Gaussian(0.0, 0.5), grid)  # mass inside the shell hole
        assert partition.off_shell_fraction(centered) > 1e-10

    def test_piece_bound_with_measure_constant(self, grid, partition, bumps, shell_bump):
        # || phi_k f || <= sqrt(3) 2^(k/2) ||f||_inf in one dimension
        sup = float(np.max(np.abs(shell_bump.values)))
        for k, bump in zip(partition.k_range, bumps):
            piece = math.sqrt(
                float(np.sum((bump * shell_bump.values) ** 2)) * grid.cell_volume
            )
            assert piece <= math.sqrt(3.0) * 2 ** (k / 2.0) * sup + 1e-12


class TestClassicalNorms:
    def test_gaussian_l2(self, grid):
        f = sample(Gaussian(0.0, 1.0), grid)
        assert nm.lp_norm(f, 2) == pytest.approx(math.pi**0.25, abs=1e-10)

    def test_constant_linf(self, grid):
        f = SampledField(grid, np.full(grid.points[0], 2.5))
        assert linf_norm(f) == 2.5  # the sup; lp_norm takes finite p only
        with pytest.raises(ValueError):
            nm.lp_norm(f, math.inf)

    def test_hs_zero_is_l2(self, shell_bump):
        assert nm.hs_norm(shell_bump, 0.0) == pytest.approx(l2_norm(shell_bump), rel=1e-12)

    def test_hs_one_of_a_2d_field_is_parseval_over_both_axes(self):
        f = sample(Gaussian((0.5, -0.3), (1.0, 0.7)), GridSpec.centered((10.0, 8.0), (128, 96), dim=2))
        grads = [l2_norm(spectral_derivative(f, 1, axis=ax)) ** 2 for ax in (0, 1)]
        assert nm.hs_norm(f, 1.0) ** 2 == pytest.approx(l2_norm(f) ** 2 + sum(grads), rel=1e-12)

    def test_hs_increases_with_s(self, shell_bump):
        assert nm.hs_norm(shell_bump, 1.0) > nm.hs_norm(shell_bump, 0.5)

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


def test_partition_profile_id_recorded():
    profile = json.loads(Report(("t",), ((1.0,),)).to_json())["profile"]
    assert profile["partition_profile"] == nm.PARTITION_PROFILE_ID


def test_norms_require_matching_grid(partition):
    other = GridSpec.centered(32.0, 2048, dim=1)
    f = sample(Gaussian(2.0, 0.25), other)
    with pytest.raises(ValueError):
        nm.x_norm(f, 0.5, 2, partition)
