"""Spectral core: the half-spectrum operator, multipliers, norms, resampling."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import irfft2, next_fast_len, rfft2

import full_spectrum as fs
from oracles import zoom_line_zoomfft
import sqgdiag
from sqgdiag import spectral
from sqgdiag.spectral import (
    Grid,
    RIESZ_KERNEL_CONSTANT,
    ScalarField,
    evaluate_on_lattice,
    fractional_laplacian,
    half_spectrum,
    parseval_sum,
    random_band_limited,
    riesz_velocity,
    sobolev_norm,
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

    def test_center_is_a_node_at_zero_displacement(self):
        g = Grid(16, 3.0)
        assert g.center == (1.5, 1.5)
        d1, d2 = g.displacement(g.center)
        assert np.count_nonzero((d1 == 0.0) & (d2 == 0.0)) == 1

    def test_band_limit_below_one_rejected(self):
        # k_max_index 0 or below would leave only the removed zero mode
        for k in (0, -3):
            with pytest.raises(ValueError, match="k_max_index"):
                random_band_limited(Grid(16), k, 0)

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
        # the separable views are bit-identical to the 2-D formula, with an
        # offset rounded to (just below) +L/2 taken as -L/2
        g = Grid(n, side)
        x1, x2 = g.coordinates()
        L = g.side_length

        def formula(x, c):
            d = (x - c + 0.5 * L) % L - 0.5 * L
            return np.where(d > 0.5 * L - 1e-9 * g.spacing, -0.5 * L, d)

        d1, d2 = g.displacement((c1, c2))
        assert d1.shape == d2.shape == (n, n)
        assert np.array_equal(d1, formula(x1, c1))
        assert np.array_equal(d2, formula(x2, c2))
        assert np.all((d1 >= -0.5 * L) & (d1 < 0.5 * L))
        assert not d1.flags.writeable and not d2.flags.writeable
        with pytest.raises(ValueError):
            d1[0, 0] = 1.0


class TestTransforms:
    """The rfft2 layout the half-spectrum operator is written for."""

    def test_constant_field_zero_mode(self, grid):
        c = 2.7
        f = ScalarField(grid, np.full(grid.shape, c))
        coeff = rfft2(f.values)
        assert abs(coeff[0, 0] - c * grid.n**2) < 1e-9
        coeff[0, 0] = 0.0
        assert np.max(np.abs(coeff)) < 1e-9
        # the L2 norm keeps the zero mode, the seminorms drop it
        assert sobolev_norm(f, 0.0) == pytest.approx(c * grid.side_length, rel=1e-14)
        assert sobolev_norm(f, 0.5) < 1e-9

    def test_single_harmonic_two_modes(self, grid, coords):
        x1, _ = coords
        spec = rfft2(np.sin(x1))
        mag = np.abs(spec)
        nonzero = np.argwhere(mag > 1e-8 * mag.max())
        assert {tuple(p) for p in nonzero} == {(1, 0), (grid.n - 1, 0)}
        op = half_spectrum(grid)
        assert op.dx1[1, 0] == 1j and op.dx1[grid.n - 1, 0] == -1j and op.dx2[0, 0] == 0.0

    def test_round_trip_identity(self, grid):
        f = random_field(grid, seed=1)
        identity = half_spectrum(grid).radial_power(0.0)
        back = irfft2(identity * rfft2(f.values), s=grid.shape)
        assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_non_finite_rejected(self, grid):
        values = np.zeros(grid.shape)
        values[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid, values)

    def test_hermitian_symmetry(self, grid):
        # columns 0 and n/2 are their own conjugate partners, which is why
        # the Parseval weight counts them once
        spec = rfft2(fs.white_noise(grid, seed=2))
        flipped = np.roll(spec[::-1], 1, axis=0)  # row -k1
        for col in (0, grid.n // 2):
            assert np.max(np.abs(flipped[:, col] - np.conj(spec[:, col]))) < 1e-9


class TestTransformPair:
    """spectral.rfft2/irfft2 against scipy.fft, and the package's imports."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([32, 64, 128, 256, 512]), seed=st.integers(0, 2**16))
    def test_bit_identical_to_scipy(self, n, seed):
        x = fs.white_noise(Grid(n), seed)
        spec = rfft2(x)
        assert np.array_equal(spectral.rfft2(x), spec)
        assert np.array_equal(spectral.irfft2(spec.copy()), irfft2(spec))

    def test_out_is_returned(self, grid):
        x = fs.white_noise(grid, seed=3)
        spec_out = np.empty((grid.n, grid.n // 2 + 1), dtype=np.complex128)
        assert spectral.rfft2(x, out=spec_out) is spec_out
        values_out = np.empty(grid.shape)
        assert spectral.irfft2(spec_out.copy(), out=values_out) is values_out
        assert np.array_equal(values_out, irfft2(spec_out))

    def test_no_module_imports_scipy_fft(self):
        # every half-spectrum transform goes through the spectral pair
        offenders = []
        for path in sorted(Path(sqgdiag.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                    names += [f"{node.module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(n == "scipy.fft" or n.startswith("scipy.fft.") for n in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


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
        assert np.all(w.u == 0.0) and np.all(w.v == 0.0)

    def test_divergence_free(self, grid):
        w = riesz_velocity(random_field(grid, seed=7))
        du, _ = fs.gradient(w.u, grid)
        _, dv = fs.gradient(w.v, grid)
        assert np.max(np.abs(du + dv)) <= 1e-13 * max(1.0, np.max(np.hypot(w.u, w.v)))

    def test_mean_zero_required(self, grid):
        with pytest.raises(ValueError):
            riesz_velocity(ScalarField(grid, np.full(grid.shape, 0.1)))

    def test_riesz_identity(self, grid):
        # R1^2 + R2^2 = -I off the zero mode and the Nyquist lines, where
        # the odd symbols are zeroed; R1 = riesz_v and R2 = -riesz_u
        f = random_field(grid, seed=8)
        op = half_spectrum(grid)
        out = irfft2((op.riesz_v**2 + op.riesz_u**2) * rfft2(f.values), s=grid.shape)
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
            "magnitude", "radii", "radius_index", "dealias",
            "riesz_u", "riesz_v", "dx1", "dx2", "parseval", "gradient_weight",
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
        nyq = n // 2
        k1, k2 = fs.wavevectors(g)
        mag = fs.magnitude(g)[:, half]
        assert op.magnitude.shape == (n, n // 2 + 1)
        assert np.array_equal(op.magnitude, mag)
        assert np.array_equal(op.radii[op.radius_index], op.magnitude)
        assert op.radii[0] == 0.0 and np.all(np.diff(op.radii) > 0)
        assert np.array_equal(op.dealias, fs.dealias_mask(g)[:, half])
        # the rfft2 layout carries the Nyquist column at +n/2
        K1, K2 = k1[:, half], k2[:, half].copy()
        K2[:, nyq] *= -1.0
        # odd symbols: the full-spectrum formula off their Nyquist line,
        # zero on it (k1-Nyquist row for i k1, k2-Nyquist column for i k2)
        row = np.zeros(mag.shape, bool)
        row[nyq] = True
        col = np.zeros(mag.shape, bool)
        col[:, nyq] = True
        keep_u = (mag > 0) & ~col
        keep_v = (mag > 0) & ~row
        u_full = -1j * K2[keep_u] / mag[keep_u]
        v_full = 1j * K1[keep_v] / mag[keep_v]
        assert np.allclose(op.riesz_u[keep_u], u_full, rtol=1e-15, atol=0)
        assert np.allclose(op.riesz_v[keep_v], v_full, rtol=1e-15, atol=0)
        assert np.all(op.riesz_u[col] == 0.0) and np.all(op.riesz_v[row] == 0.0)
        assert op.riesz_u[0, 0] == 0.0 and op.riesz_v[0, 0] == 0.0
        dx1 = np.broadcast_to(op.dx1, mag.shape)
        dx2 = np.broadcast_to(op.dx2, mag.shape)
        assert np.array_equal(dx1[~row], (1j * K1)[~row]) and np.all(dx1[row] == 0.0)
        assert np.array_equal(dx2[~col], (1j * K2)[~col]) and np.all(dx2[col] == 0.0)
        assert op.parseval.shape == (n // 2 + 1,)
        assert op.parseval[0] == op.parseval[-1] == 1.0 and np.all(op.parseval[1:-1] == 2.0)

    @pytest.mark.parametrize("n", [16, 64])
    def test_radial_power_zero_mode(self, n):
        op = half_spectrum(Grid(n, 5.0))
        assert np.all(op.radial_power(0.0) == 1.0)
        for p in (0.9, -1.0):
            table = op.radial_power(p)
            assert table[0, 0] == 0.0
            nz = op.magnitude > 0
            assert np.array_equal(table[nz], op.magnitude[nz] ** p)


class TestFullSpectrumOracle:
    """Multipliers and norms on the half spectrum against the fft2 formulas."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        side=st.sampled_from([2 * np.pi, 5.0]),
        seed=st.integers(0, 2**32 - 1),
        order=st.floats(0.05, 1.95),
    )
    def test_operators_match_full_spectrum(self, n, side, seed, order):
        g = Grid(n, side)
        values = fs.white_noise(g, seed)
        f = ScalarField(g, values)

        def close(got, expected):
            return np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

        lap = fractional_laplacian(f, order).values
        assert close(lap, fs.fractional_laplacian(values, g, order))
        w = riesz_velocity(f)
        assert close(w.u, -fs.riesz(values, g, 2))
        assert close(w.v, fs.riesz(values, g, 1))
        op = half_spectrum(g)
        expected1, expected2 = fs.gradient(values, g)
        assert close(irfft2(op.dx1 * rfft2(values), s=g.shape), expected1)
        assert close(irfft2(op.dx2 * rfft2(values), s=g.shape), expected2)
        for s_order in (0.0, order / 2.0, order, 1.0):
            assert sobolev_norm(f, s_order) == pytest.approx(
                fs.sobolev_norm(values, g, s_order), rel=1e-13
            )
        other = fs.white_noise(g, seed + 1)
        direct = np.sum(values * other) * g.spacing**2
        scale = np.sqrt(np.sum(values**2) * np.sum(other**2)) * g.spacing**2
        assert abs(parseval_sum(g, rfft2(values), rfft2(other)) - direct) <= 1e-13 * scale


class TestDealias:
    """The operator's 2/3-rule mask, applied on the half spectrum."""

    @staticmethod
    def dealiased(grid, values):
        return irfft2(half_spectrum(grid).dealias * rfft2(values), s=grid.shape)

    def test_idempotent(self, grid):
        once = self.dealiased(grid, random_field(grid, seed=9, k_max=30).values)
        twice = self.dealiased(grid, once)
        assert np.max(np.abs(twice - once)) <= 1e-13 * np.max(np.abs(once))

    def test_index_set_oracle(self, grid):
        spec = rfft2(random_field(grid, seed=10, k_max=31).values)
        out = half_spectrum(grid).dealias * spec
        K1, K2 = (k[:, : grid.n // 2 + 1] for k in fs.wavevectors(grid))
        cutoff = (2.0 / 3.0) * np.pi * grid.n / grid.side_length
        killed = (np.abs(K1) > cutoff) | (np.abs(K2) > cutoff)
        assert killed.any() and not killed.all()
        assert np.all(out[killed] == 0.0)
        assert np.array_equal(out[~killed], spec[~killed])

    def test_zero_field(self, grid):
        assert np.all(self.dealiased(grid, np.zeros(grid.shape)) == 0.0)
        # a field inside the retained band passes unchanged
        f = random_field(grid, seed=12, k_max=8).values
        assert np.max(np.abs(self.dealiased(grid, f) - f)) <= 1e-13

    def test_hermitian_preserved(self, grid):
        # the masked full spectrum stays Hermitian, so its inverse is real
        # and equals the half-spectrum result
        values = random_field(grid, seed=11, k_max=30).values
        full = np.fft.ifft2(fs.dealias_mask(grid) * np.fft.fft2(values))
        assert np.max(np.abs(full.imag)) < 1e-13
        assert np.max(np.abs(full.real - self.dealiased(grid, values))) < 1e-13


def direct_lattice_sum(grid, values, origin, step, shape):
    """The trigonometric interpolant summed term by term at every lattice
    point; a Nyquist mode enters as cos(k x), its real band-limited form."""
    n = grid.n
    c = np.fft.fft2(values) / n**2
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)

    def basis(x):
        e = np.exp(1j * np.multiply.outer(x, k))
        e[..., n // 2] = np.cos(x * k[n // 2])
        return e

    x1 = origin[0] + step[0] * np.arange(shape[0])
    x2 = origin[1] + step[1] * np.arange(shape[1])
    return (basis(x1) @ c @ basis(x2).T).real


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

    def test_lattice_shift_exact(self, grid, coords):
        # the grid lattice moved by an off-grid offset is the cyclic shift
        # f(x) -> f(x + offset) of the trigonometric interpolant
        x1, _ = coords
        f = ScalarField(grid, np.sin(x1))
        h = grid.spacing
        out = evaluate_on_lattice(f, (0.37, -1.2), (h, h), grid.shape)
        assert np.max(np.abs(out - np.sin(x1 + 0.37))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([8, 16]),
        side=st.sampled_from([2 * np.pi, 5.0]),
        seed=st.integers(0, 2**32 - 1),
        origin=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        step=st.tuples(st.floats(1e-3, 2.0), st.floats(1e-3, 2.0)),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    )
    def test_lattice_evaluation_matches_direct_sum(self, n, side, seed, origin, step, shape):
        g = Grid(n, side)
        values = fs.white_noise(g, seed)
        direct = direct_lattice_sum(g, values, origin, step, shape)
        out = evaluate_on_lattice(ScalarField(g, values), origin, step, shape)
        assert out.shape == shape
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("n", [256, 512])
    def test_zoom_lattice_matches_direct_sum_at_production_size(self, n):
        # the oscillation zoom: spacing h/16 on an n x n lattice about the
        # domain centre.  Both Nyquist lines and every mode are populated,
        # so chirp rounding shows here as it cannot at n <= 16 (a plain
        # czt chirp on the half spectrum gives ~5e-13)
        g = Grid(n, 4.0 * np.pi)
        values = fs.white_noise(g, n)
        c1, c2 = g.center
        origin = (c1 * (1.0 - 1.0 / 16.0) + 0.013, c2 * (1.0 - 1.0 / 16.0) - 0.021)
        step = (g.spacing / 16.0, g.spacing / 16.0)
        direct = direct_lattice_sum(g, values, origin, step, g.shape)
        out = evaluate_on_lattice(ScalarField(g, values), origin, step, g.shape)
        assert np.max(np.abs(out - direct)) <= 2e-13 * np.max(np.abs(values))

    def test_gradient_single_mode(self, grid, coords):
        # the derivative symbols the advection term applies
        x1, x2 = coords
        op = half_spectrum(grid)
        spec = rfft2(np.sin(x1) + np.cos(2 * x2))
        g1 = irfft2(op.dx1 * spec, s=grid.shape)
        g2 = irfft2(op.dx2 * spec, s=grid.shape)
        assert np.max(np.abs(g1 - np.cos(x1))) < 1e-11
        assert np.max(np.abs(g2 + 2 * np.sin(2 * x2))) < 1e-11


class TestChirpZPort:
    """The package's chirp-z is ``scipy.signal.ZoomFFT``, bit for bit."""

    def test_fast_length_is_next_fast_len(self):
        lengths = range(1, 20001)
        assert [spectral._fast_length(n) for n in lengths] == [next_fast_len(n) for n in lengths]

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(8, 512),
        other=st.integers(1, 5),
        first=st.sampled_from([0, -1]),
        side=st.sampled_from([2 * np.pi, 4 * np.pi, 5.0]),
        start=st.floats(-10.0, 10.0),
        step=st.floats(1e-4, 2.0),
        count=st.integers(1, 520),
        axis=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**16),
    )
    def test_zoom_line_is_zoomfft(self, length, other, first, side, start, step, count, axis, seed):
        rng = np.random.default_rng(seed)
        shape = (length, other) if axis == 0 else (other, length)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        args = (Grid(8, side), first * (length // 2), start, step, count, axis)
        assert np.array_equal(spectral._zoom_line(c, *args), zoom_line_zoomfft(c, *args))

    @pytest.mark.parametrize(
        "n, side, shape, divisor",
        [(16, 2 * np.pi, (16, 16), 1), (64, 5.0, (37, 9), 3), (256, 4 * np.pi, (256, 256), 16),
         (512, 4 * np.pi, (512, 512), 16), (256, 4 * np.pi, (129, 300), 16)],
    )
    def test_lattice_evaluation_is_the_zoomfft_route(self, monkeypatch, n, side, shape, divisor):
        # n = 256 and 512 at spacing h/16 about the centre is the oscillation zoom
        g = Grid(n, side)
        f = ScalarField(g, fs.white_noise(g, n))
        origin = (g.center[0] - 0.37, g.center[1] + 0.011)
        step = (g.spacing / divisor, g.spacing / divisor)
        out = evaluate_on_lattice(f, origin, step, shape)
        monkeypatch.setattr(spectral, "_zoom_line", zoom_line_zoomfft)
        assert np.array_equal(out, evaluate_on_lattice(f, origin, step, shape))


def test_random_band_limited_deterministic():
    g = Grid(32)
    a = random_band_limited(g, 4, [5, 0, 0])
    b = random_band_limited(g, 4, [5, 0, 0])
    assert np.array_equal(a.values, b.values)
    assert abs(a.mean()) < 1e-14
    assert abs(np.max(np.abs(a.values)) - 1.0) < 1e-12
