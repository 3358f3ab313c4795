"""Spectral core: transforms, multipliers, norms, dealiasing, resampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqgdiag.spectral import (
    Grid,
    RIESZ_KERNEL_CONSTANT,
    ScalarField,
    SpectralField,
    dealias,
    dealias_mask,
    evaluate_on_lattice,
    forward_transform,
    fractional_laplacian,
    gradient,
    half_spectrum,
    inverse_transform,
    l2_norm,
    random_band_limited,
    riesz_transform,
    riesz_velocity,
    shift_field,
    sobolev_norm,
    spectral_divergence_max,
)


@pytest.fixture
def grid():
    return Grid(64)


@pytest.fixture
def coords(grid):
    return grid.coordinates()


def random_field(grid, seed=0, k_max=8, amplitude=1.0):
    return random_band_limited(grid, k_max, [seed, 0, 0], amplitude)


class TestGrid:
    def test_spacing(self, grid):
        assert grid.spacing == grid.side_length / grid.n

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid(48)
        with pytest.raises(ValueError):
            Grid(0)

    def test_wavevectors_are_integer_multiples(self):
        g = Grid(16, 4.0)
        k1, _ = g.wavevectors()
        unit = 2 * np.pi / 4.0
        assert np.allclose(k1 / unit, np.round(k1 / unit))

    def test_displacement_minimal_image(self):
        g = Grid(16, 2 * np.pi)
        d1, d2 = g.displacement((0.0, 0.0))
        assert d1.max() < np.pi + 1e-12
        assert d1.min() >= -np.pi - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([16, 64, 256]),
        side=st.sampled_from([2 * np.pi, 4 * np.pi, 20.0, 80.0]),
        c1=st.floats(-100.0, 100.0),
        c2=st.floats(-100.0, 100.0),
    )
    def test_displacement_matches_meshgrid_formula(self, n, side, c1, c2):
        # the separable views are bit-identical to the 2-D formula
        g = Grid(n, side)
        x1, x2 = g.coordinates()
        L = g.side_length
        d1, d2 = g.displacement((c1, c2))
        assert d1.shape == d2.shape == (n, n)
        assert np.array_equal(d1, (x1 - c1 + 0.5 * L) % L - 0.5 * L)
        assert np.array_equal(d2, (x2 - c2 + 0.5 * L) % L - 0.5 * L)
        assert not d1.flags.writeable and not d2.flags.writeable
        with pytest.raises(ValueError):
            d1[0, 0] = 1.0


class TestTransforms:
    def test_constant_field_zero_mode(self, grid):
        c = 2.7
        spec = forward_transform(ScalarField(grid, np.full(grid.shape, c)))
        coeff = spec.coefficients.copy()
        assert abs(coeff[0, 0] - c * grid.n**2) < 1e-9
        coeff[0, 0] = 0.0
        assert np.max(np.abs(coeff)) < 1e-9

    def test_single_harmonic_two_modes(self, grid, coords):
        x1, _ = coords
        spec = forward_transform(ScalarField(grid, np.sin(x1)))
        mag = np.abs(spec.coefficients)
        nonzero = np.argwhere(mag > 1e-8 * mag.max())
        assert len(nonzero) == 2
        assert {tuple(p) for p in nonzero} == {(1, 0), (grid.n - 1, 0)}

    def test_round_trip_identity(self, grid):
        f = random_field(grid, seed=1)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_non_finite_rejected(self, grid):
        values = np.zeros(grid.shape)
        values[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid, values)

    def test_hermitian_symmetry(self, grid):
        spec = forward_transform(random_field(grid, seed=2))
        assert spec.hermitian_defect() < 1e-9


class TestFractionalLaplacian:
    def test_unit_wavevector_fixed_point(self, grid, coords):
        x1, _ = coords
        f = ScalarField(grid, np.cos(x1))
        for order in (0.3, 0.9, 1.0, 1.7):
            out = fractional_laplacian(f, order)
            assert np.allclose(out.values, np.cos(x1), atol=1e-12)

    def test_constant_maps_to_zero(self, grid):
        out = fractional_laplacian(ScalarField(grid, np.full(grid.shape, 3.3)), 0.5)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_single_mode_multiplier(self, grid, coords):
        x1, _ = coords
        out = fractional_laplacian(ScalarField(grid, np.cos(2 * x1)), 0.5)
        assert np.allclose(out.values, np.sqrt(2.0) * np.cos(2 * x1), atol=1e-12)

    def test_order_validated(self, grid):
        f = ScalarField(grid, np.zeros(grid.shape))
        for bad in (0.0, -0.3, 2.0, 2.5):
            with pytest.raises(ValueError):
                fractional_laplacian(f, bad)

    def test_linearity(self, grid):
        f = random_field(grid, seed=3)
        g = random_field(grid, seed=4)
        a, b = 1.7, -0.4
        combo = ScalarField(grid, a * f.values + b * g.values)
        lhs = fractional_laplacian(combo, 0.8).values
        rhs = a * fractional_laplacian(f, 0.8).values + b * fractional_laplacian(g, 0.8).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_semigroup(self, grid):
        f = random_field(grid, seed=5)
        once = fractional_laplacian(fractional_laplacian(f, 0.6), 0.9)
        direct = fractional_laplacian(f, 1.5)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(once.values - direct.values)) <= 1e-10 * scale

    def test_translation_equivariance(self, grid):
        f = random_field(grid, seed=6)
        shift = 7
        rolled = ScalarField(grid, np.roll(f.values, shift, axis=0))
        lhs = fractional_laplacian(rolled, 0.7).values
        rhs = np.roll(fractional_laplacian(f, 0.7).values, shift, axis=0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestRiesz:
    def test_single_mode_orientation(self, grid, coords):
        x1, _ = coords
        w = riesz_velocity(ScalarField(grid, np.sin(x1)))
        assert np.max(np.abs(w.u)) < 1e-12
        assert np.allclose(w.v, np.cos(x1), atol=1e-12)

    def test_zero_field(self, grid):
        w = riesz_velocity(ScalarField(grid, np.zeros(grid.shape)))
        assert w.max_speed() == 0.0

    def test_divergence_free(self, grid):
        w = riesz_velocity(random_field(grid, seed=7))
        assert spectral_divergence_max(w) <= 1e-13 * max(1.0, w.max_speed())

    def test_mean_zero_required(self, grid):
        with pytest.raises(ValueError):
            riesz_velocity(ScalarField(grid, np.full(grid.shape, 0.1)))

    def test_riesz_identity(self, grid):
        f = random_field(grid, seed=8)
        out = riesz_transform(riesz_transform(f, 1), 1).values
        out += riesz_transform(riesz_transform(f, 2), 2).values
        assert np.max(np.abs(out + f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_kernel_quadrature_pins_sign(self):
        # truncated principal-value quadrature of the singular kernel
        # c (y - x)^perp / |y - x|^3 with c = 1/(2 pi) must reproduce the
        # multiplier convention: R^perp sin(x1) = (0, cos x1).  Domain
        # truncation leaves a O(10%) amplitude error; the orientation and
        # sign are unambiguous.
        g = Grid(512)
        x1, _ = g.coordinates()
        th = np.sin(x1)
        h = g.spacing
        samples = []
        for p1 in (0.0, 1.0, 3.0, 5.0):
            i = int(round(p1 / h))
            node = (i * h, 0.0)
            d1, d2 = g.displacement(node)
            r2 = d1 * d1 + d2 * d2
            r3 = np.where(r2 > 0, r2, 1.0) ** 1.5
            mask = r2 > 1e-12
            u = RIESZ_KERNEL_CONSTANT * np.sum(np.where(mask, -d2 * th / r3, 0.0)) * h * h
            v = RIESZ_KERNEL_CONSTANT * np.sum(np.where(mask, d1 * th / r3, 0.0)) * h * h
            samples.append((u, v, np.cos(node[0])))
        for u, v, expected in samples:
            assert abs(u) < 0.02
            if abs(expected) > 0.2:
                assert 0.8 <= v / expected <= 1.2  # same sign, right scale


class TestSobolevNorm:
    def test_l2_of_sine_against_quadrature(self, grid, coords):
        x1, _ = coords
        f = ScalarField(grid, np.sin(x1))
        direct = np.sqrt(np.sum(f.values**2) * grid.spacing**2)
        assert abs(sobolev_norm(f, 0.0) - direct) < 1e-12
        assert abs(sobolev_norm(f, 0.0) - np.sqrt(2 * np.pi**2)) < 1e-10

    def test_unit_wavevector_order_independent(self, grid, coords):
        x1, _ = coords
        f = ScalarField(grid, np.sin(x1))
        base = sobolev_norm(f, 0.0)
        for order in (0.25, 0.5, 1.0, 1.9):
            assert abs(sobolev_norm(f, order) - base) < 1e-10

    def test_zero_field(self, grid):
        assert sobolev_norm(ScalarField(grid, np.zeros(grid.shape)), 0.7) == 0.0


class TestHalfSpectrum:
    def test_one_cached_operator_per_grid(self):
        op = half_spectrum(Grid(32))
        assert half_spectrum(Grid(32)) is op
        assert half_spectrum(Grid(32, 5.0)) is not op
        assert half_spectrum(Grid(64)) is not op

    def test_arrays_are_read_only(self):
        op = half_spectrum(Grid(16))
        arrays = vars(op)
        assert set(arrays) == {
            "k1", "k2", "magnitude", "radii", "radius_index", "dealias",
            "riesz_u", "riesz_v", "dx1", "dx2",
        }
        for name, array in arrays.items():
            assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            op.magnitude[0, 0] = 1.0

    @pytest.mark.parametrize("n,side", [(16, 2 * np.pi), (32, 5.0), (64, 4 * np.pi)])
    def test_symbols_match_full_spectrum(self, n, side):
        g = Grid(n, side)
        op = half_spectrum(g)
        half = slice(0, n // 2 + 1)
        k1, k2 = g.wavevectors()
        mag = g.wavenumber_magnitude()[:, half]
        assert op.magnitude.shape == (n, n // 2 + 1)
        assert np.array_equal(op.magnitude, mag)
        assert np.array_equal(op.radii[op.radius_index], op.magnitude)
        assert op.radii[0] == 0.0 and np.all(np.diff(op.radii) > 0)
        assert np.array_equal(op.k1, k1[:, 0])
        # the rfft2 layout carries the Nyquist column at +n/2
        assert np.array_equal(op.k2[:-1], k2[0, : n // 2])
        assert op.k2[-1] == -k2[0, n // 2] > 0
        assert np.array_equal(op.dealias, dealias_mask(g)[:, half])
        K1, K2 = np.meshgrid(op.k1, op.k2, indexing="ij")
        nz = mag > 0
        assert np.allclose(op.riesz_u[nz], -1j * K2[nz] / mag[nz], rtol=1e-15, atol=0)
        assert np.allclose(op.riesz_v[nz], 1j * K1[nz] / mag[nz], rtol=1e-15, atol=0)
        assert op.riesz_u[0, 0] == 0.0 and op.riesz_v[0, 0] == 0.0
        assert np.array_equal(np.broadcast_to(op.dx1, mag.shape), 1j * K1)
        assert np.array_equal(np.broadcast_to(op.dx2, mag.shape), 1j * K2)


class TestDealias:
    def test_idempotent(self, grid):
        spec = forward_transform(random_field(grid, seed=9, k_max=30))
        once = dealias(spec)
        twice = dealias(once)
        assert np.array_equal(once.coefficients, twice.coefficients)

    def test_index_set_oracle(self, grid):
        spec = forward_transform(random_field(grid, seed=10, k_max=31))
        out = dealias(spec).coefficients
        k1, k2 = grid.wavevectors()
        cutoff = (2.0 / 3.0) * np.pi * grid.n / grid.side_length
        killed = (np.abs(k1) > cutoff) | (np.abs(k2) > cutoff)
        assert np.all(out[killed] == 0.0)
        assert np.array_equal(out[~killed], spec.coefficients[~killed])

    def test_zero_field(self, grid):
        spec = SpectralField(grid, np.zeros(grid.shape, complex))
        assert np.all(dealias(spec).coefficients == 0.0)

    def test_hermitian_preserved(self, grid):
        spec = dealias(forward_transform(random_field(grid, seed=11, k_max=30)))
        assert spec.hermitian_defect() < 1e-9


class TestResampling:
    def test_lattice_evaluation_reproduces_grid(self, grid):
        f = random_field(grid, seed=12)
        out = evaluate_on_lattice(
            f, (0.0, 0.0), (grid.spacing, grid.spacing), grid.shape
        )
        assert np.max(np.abs(out - f.values)) < 1e-12

    def test_lattice_evaluation_off_grid(self, grid, coords):
        x1, _ = coords
        f = ScalarField(grid, np.sin(3 * x1))
        pts = 0.17 + 0.013 * np.arange(7)
        out = evaluate_on_lattice(f, (0.17, 1.0), (0.013, 0.1), (7, 3))
        assert np.max(np.abs(out - np.sin(3 * pts)[:, None])) < 1e-12

    def test_shift_field_exact(self, grid, coords):
        x1, _ = coords
        f = ScalarField(grid, np.sin(x1))
        out = shift_field(f, (0.37, -1.2))
        assert np.max(np.abs(out.values - np.sin(x1 + 0.37))) < 1e-12

    def test_gradient_single_mode(self, grid, coords):
        x1, x2 = coords
        g1, g2 = gradient(ScalarField(grid, np.sin(x1) + np.cos(2 * x2)))
        assert np.max(np.abs(g1 - np.cos(x1))) < 1e-11
        assert np.max(np.abs(g2 + 2 * np.sin(2 * x2))) < 1e-11


def test_random_band_limited_deterministic():
    g = Grid(32)
    a = random_band_limited(g, 4, [5, 0, 0])
    b = random_band_limited(g, 4, [5, 0, 0])
    assert np.array_equal(a.values, b.values)
    assert abs(a.mean()) < 1e-14
    assert abs(np.max(np.abs(a.values)) - 1.0) < 1e-12
