"""Weighted half-space extension and its Neumann trace."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from scipy.fft import irfft2, rfft2

import full_spectrum as fs
from oracles import dtn_constant_analytic, extension_profile_ode
from sqgdiag.degiorgi import LOCAL_ENERGY_CONSTANT, extension_cutoff, local_energy_check
from sqgdiag.extension import (
    EXP_UNDERFLOW,
    ExtensionField,
    _bessel_k,
    _profile_table,
    _z_derivative,
    calibrate_dtn_constant,
    cutoff_box,
    extend,
    extension_profile,
    grid_k_max,
    neumann_trace,
    trace_ladder,
    weighted_dirichlet_energy,
    weighted_z_integral,
)
from sqgdiag.spectral import (
    Grid,
    ScalarField,
    fractional_laplacian,
    l2_norm,
    half_spectrum,
    random_band_limited,
    riesz_velocity,
    sobolev_norm,
)


@pytest.fixture
def grid():
    return Grid(64)


@pytest.fixture
def amplified_table(monkeypatch):
    """extend's profile table with its last level raised to 1.5."""

    def amplified(*key):
        table = _profile_table(*key).copy()
        table[-1] = 1.5
        return table

    monkeypatch.setattr("sqgdiag.extension._profile_table", amplified)


def extension_oracle(theta, z_levels, eps):
    """Full-spectrum per-mode extension: one profile evaluation per mode."""
    spec = np.fft.fft2(theta.values)
    mag = fs.magnitude(theta.grid)
    return np.stack(
        [np.fft.ifft2(spec * extension_profile(mag * z, eps)).real for z in z_levels]
    )


def dirichlet_oracle(ext, cutoff):
    """weighted_dirichlet_energy's value by full-spectrum derivatives."""
    grid = ext.base_grid
    prod = ext.values * cutoff
    k1, k2 = fs.wavevectors(grid)
    dz = _z_derivative(prod, ext.z_levels)
    g = []
    for j in range(len(ext.z_levels)):
        spec = np.fft.fft2(prod[j])
        gx = np.fft.ifft2(1j * k1 * spec).real
        gy = np.fft.ifft2(1j * k2 * spec).real
        g.append(np.sum(gx * gx + gy * gy + dz[j] ** 2) * grid.spacing**2)
    return weighted_z_integral(ext.z_levels, np.array(g), ext.weight_exponent)


def rel_error(got, expected):
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


class TestProfile:
    def test_poisson_limit(self):
        s = np.linspace(0.0, 10.0, 101)
        assert np.max(np.abs(extension_profile(s, 0.0) - np.exp(-s))) < 1e-12

    def test_boundary_value(self):
        for eps in (0.0, 0.1, 0.5):
            assert extension_profile(np.array([0.0]), eps)[0] == 1.0

    def test_bessel_and_ode_routes_agree(self):
        # the contract requires the two independent evaluations to agree
        # to 1e-8; the ODE route starts from large-s asymptotics and is
        # normalized by Richardson extrapolation at the origin
        s = np.array([0.25, 0.5, 1.0, 2.0, 5.0])
        for eps in (0.0, 0.05, 0.1, 0.3):
            a = extension_profile(s, eps)
            b = extension_profile_ode(s, eps)
            assert np.max(np.abs(a - b)) <= 1e-8

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.3])
    def test_strictly_decreasing(self, eps):
        s = np.linspace(0.0, 12.0, 400)
        phi = extension_profile(s, eps)
        assert np.all(np.diff(phi) < 0.0)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            extension_profile(np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            extension_profile(np.array([1.0]), -0.1)


def besselk_mpmath(nu, x):
    with mpmath.workdps(40):
        return float(mpmath.besselk(nu, x))


def bessel_k(nu, x):
    with np.errstate(under="ignore"):
        return _bessel_k(nu, np.asarray(x, dtype=float))


# arguments on both sides of 6.25, where the trapezoid step
# min(0.2, 0.5 / sqrt(x)) leaves its cap, and of 2, 20 and 30 across the range
BOUNDARIES = [
    v
    for b in (2.0, 6.25, 20.0, 30.0)
    for v in (np.nextafter(b, 0.0), b, np.nextafter(b, 1e3))
]
# tiny and subnormal arguments, where the integrand's cliff lies far out in t
TINY = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-100, 1e-30]
ARGUMENTS = st.one_of(
    st.floats(-10.0, math.log10(690.0)).map(lambda e: 10.0**e),
    st.floats(1.5, 2.5),
    st.floats(17.0, 33.0),
    st.sampled_from(BOUNDARIES),
)
ORDERS = st.floats(0.005, 0.5)


class TestBesselKernel:
    """The in-package K_nu against mpmath and scipy."""

    @settings(max_examples=200, deadline=None)
    @given(nu=ORDERS, xs=st.lists(ARGUMENTS, min_size=1, max_size=8))
    @example(nu=0.5, xs=BOUNDARIES)
    @example(nu=0.005, xs=BOUNDARIES + [1e-10, 690.0])
    @example(nu=0.45, xs=TINY)
    @example(nu=0.005, xs=TINY)
    def test_matches_mpmath(self, nu, xs):
        got = bessel_k(nu, xs)
        expected = np.array([besselk_mpmath(nu, x) for x in xs])
        assert np.max(np.abs(got / expected - 1.0)) <= 2e-14

    @pytest.mark.parametrize("nu", [0.005, 0.05, 0.25, 0.4, 0.45, 0.475, 0.5])
    def test_matches_mpmath_on_a_sweep(self, nu):
        # one batch from subnormal to 690, so elements leave the trapezoid
        # loop at different iterations
        x = np.concatenate([np.geomspace(1e-10, 690.0, 300), BOUNDARIES, TINY])
        expected = np.array([besselk_mpmath(nu, v) for v in x])
        assert np.max(np.abs(bessel_k(nu, x) / expected - 1.0)) <= 2e-14

    @settings(max_examples=200, deadline=None)
    @given(nu=ORDERS, xs=st.lists(ARGUMENTS, min_size=1, max_size=8))
    @example(nu=0.11147311044863929, xs=[1.9999999999999998])
    def test_matches_scipy_where_normal(self, nu, xs):
        # scipy.special.kv is itself up to 2.3e-13 off mpmath near x = 2 for
        # nu near 0.11 (at the explicit example), so where the two part by
        # more than 2e-13 mpmath decides, and the package must hold 2e-14
        expected = scipy.special.kv(nu, np.array(xs))
        normal = np.isfinite(expected) & (expected >= np.finfo(float).tiny)
        got = bessel_k(nu, xs)
        apart = normal & ~(np.abs(got / np.where(normal, expected, 1.0) - 1.0) <= 2e-13)
        for x, value in zip(np.array(xs)[apart], got[apart]):
            assert abs(value / besselk_mpmath(nu, x) - 1.0) <= 2e-14

    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(2.0**-54, 0.5))
    def test_math_gamma_matches_scipy(self, nu):
        # nu = (1 - eps) / 2 >= 2^-54 for every eps in [0, 1)
        assert math.gamma(nu) == pytest.approx(scipy.special.gamma(nu), rel=2e-15)

    def test_half_order_is_the_closed_form(self):
        # nu = 1/2 is sqrt(pi / (2 x)) exp(-x) bit for bit, down to subnormal results
        x = np.concatenate([np.geomspace(5e-324, 745.0, 4000), np.linspace(700.0, 745.0, 451)])
        with np.errstate(under="ignore"):
            expected = math.sqrt(0.5 * math.pi) / np.sqrt(x) * np.exp(-x)
        assert np.any((expected > 0.0) & (expected < np.finfo(float).tiny))
        assert np.array_equal(bessel_k(0.5, x), expected)

    def test_poisson_limit_is_exp(self):
        # at nu = 1/2 the kernel is its closed form and phi_0(s) = exp(-s)
        s = np.concatenate([np.geomspace(1e-12, 740.0, 20_000), np.linspace(0.0, 40.0, 4001)])
        phi = extension_profile(s, 0.0)
        expected = np.exp(-s)
        assert np.max(np.abs(phi - expected)) <= 1e-15
        normal = expected >= np.finfo(float).tiny
        assert np.max(np.abs(phi[normal] / expected[normal] - 1.0)) <= 1e-15

    def test_zero_past_exp_underflow(self):
        s = np.array([EXP_UNDERFLOW, 1e3, 1e300, np.finfo(float).max, np.inf])
        for eps in (0.0, 0.05, 0.5, 0.99):
            assert np.array_equal(extension_profile(s, eps), np.zeros_like(s))

    @settings(max_examples=100, deadline=None)
    @given(
        eps=st.floats(0.0, 1.0, exclude_max=True),
        s=st.lists(st.floats(0.0, allow_nan=False), min_size=1, max_size=16),
    )
    def test_profile_finite_everywhere(self, eps, s):
        # subnormal, huge and infinite arguments alike
        phi = extension_profile(np.array(s), eps)
        assert np.all(np.isfinite(phi))
        assert np.all((phi >= 0.0) & (phi <= 1.0 + 1e-13))

    def test_largest_table_builds_in_bounded_memory(self):
        # the degiorgi_extension benchmark's N=256 table: 45 levels at eps = 0.05
        # (2.4 MiB of results); the kernel's working set rides on top of it
        grid = Grid(256, 4.0 * np.pi)
        z = np.unique(np.concatenate([trace_ladder(grid), np.linspace(0, 2.0, 41)]))
        half_spectrum(grid)  # the grid's operator, cached before tracing
        _profile_table.cache_clear()
        tracemalloc.start()
        try:
            _profile_table(grid, tuple(z.tolist()), 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _profile_table.cache_clear()  # no later test sees this table warm
        assert len(z) == 45
        assert peak < 35 * 2**20


class TestExtend:
    def test_boundary_level_is_input(self, grid):
        theta = random_band_limited(grid, 5, [31, 0, 0])
        ext = extend(theta, trace_ladder(grid), 0.1)
        assert np.max(np.abs(ext.values[0] - theta.values)) < 1e-12

    def test_single_mode_profile_value(self, grid):
        # extension of sin(x1) sampled at z = 1 is phi_eps(1) sin(x1),
        # cross-checked against the independent ODE integration
        x1, _ = grid.coordinates()
        theta = ScalarField(grid, np.sin(x1))
        eps = 0.1
        z = np.array([0.0, 0.5, 1.0])
        ext = extend(theta, z, eps)
        phi1_ode = extension_profile_ode(np.array([1.0]), eps)[0]
        assert np.max(np.abs(ext.values[2] - phi1_ode * np.sin(x1))) <= 1e-8

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.3])
    def test_maximum_principle(self, grid, eps):
        theta = random_band_limited(grid, 8, [32, 0, 0])
        z = np.unique(np.concatenate([trace_ladder(grid), np.linspace(0, 2, 21)]))
        ext = extend(theta, z, eps)
        sup_z = [np.max(np.abs(ext.level(j))) for j in range(len(z))]
        assert max(sup_z) - sup_z[0] <= 1e-10

    def test_maximum_principle_violation_raises(self, grid, amplified_table):
        # negative control: a profile table above 1 at one level lifts that
        # level past sup|theta|, and the field must refuse to build it
        theta = random_band_limited(grid, 4, [35, 0, 0])
        ext = extend(theta, np.linspace(0.0, 1.0, 5), 0.1)
        with pytest.raises(AssertionError, match="maximum principle violated"):
            ext.values

    def test_maximum_principle_violation_raises_in_local_energy_check(self, grid, amplified_table):
        # the same control through a reader that builds one level at a time
        z = np.linspace(0.0, 1.0, 5)
        theta = random_band_limited(grid, 4, [35, 0, 0])
        history = [ScalarField(grid, theta.values, t) for t in (0.0, 0.1)]
        exts = [extend(f, z, 0.1) for f in history]
        vels = [riesz_velocity(f) for f in history]
        cutoff = extension_cutoff(grid, z)
        with pytest.raises(AssertionError, match="maximum principle violated"):
            local_energy_check(exts, vels, cutoff, 0.0, 0.0, 0.1, LOCAL_ENERGY_CONSTANT)

    def test_epsilon_range(self, grid):
        theta = random_band_limited(grid, 4, [33, 0, 0])
        with pytest.raises(ValueError):
            extend(theta, trace_ladder(grid), 1.0)

    def test_z_levels_validated(self, grid):
        theta = random_band_limited(grid, 4, [34, 0, 0])
        with pytest.raises(ValueError):
            extend(theta, np.array([0.1, 0.2]), 0.0)  # must start at 0

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        side=st.sampled_from([2 * np.pi, 5.0]),
        eps=st.floats(0.0, 0.5, exclude_max=True),
        steps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_mode_oracle(self, n, side, eps, steps, seed):
        # white noise: every mode, the Nyquist lines included, is excited
        g = Grid(n, side)
        theta = ScalarField(g, np.random.default_rng(seed).standard_normal(g.shape))
        z = np.concatenate([[0.0], np.cumsum(steps)])
        ext = extend(theta, z, eps)
        assert rel_error(ext.values, extension_oracle(theta, z, eps)) <= 1e-13

    def test_profile_cache_keyed_on_grid_and_epsilon(self):
        # same n and z-levels, different side length or weight: each call
        # must reproduce its own oracle, whatever was cached before it
        z = np.linspace(0.0, 1.0, 5)
        cases = [(Grid(32, 2 * np.pi), 0.1), (Grid(32, 5.0), 0.1), (Grid(32, 5.0), 0.3)]
        oracles = []
        for g, eps in cases:
            theta = random_band_limited(g, 6, [38, 0, 0])
            oracles.append(extension_oracle(theta, z, eps))
        for a in range(len(oracles)):
            for b in range(a):
                assert rel_error(oracles[a], oracles[b]) > 1e-3
        for _ in range(2):
            for (g, eps), expected in zip(cases, oracles):
                theta = random_band_limited(g, 6, [38, 0, 0])
                assert rel_error(extend(theta, z, eps).values, expected) <= 1e-13


    def test_profile_scattered_by_the_operator_radius_index(self):
        # one profile value per distinct radius of the shared operator,
        # scattered onto the modes by its radius index
        g = Grid(32, 5.0)
        z = np.linspace(0.0, 1.0, 4)
        op = half_spectrum(g)
        table = _profile_table(g, tuple(z), 0.1)
        assert table.shape == (len(z), len(op.radii))
        assert not table.flags.writeable
        theta = random_band_limited(g, 8, [39, 0, 0])
        spec = rfft2(theta.values)
        expected = [irfft2(spec * row[op.radius_index], s=g.shape) for row in table]
        ext = extend(theta, z, 0.1)
        for j, row in enumerate(expected):
            assert np.array_equal(ext.level(j), row)
        assert np.array_equal(ext.values, np.stack(expected))


class TestNeumannTrace:
    def test_poisson_trace_of_sine(self, grid):
        # classical Dirichlet-to-Neumann of order one: the calibrated
        # constant is -1 and the trace of the extension of sin is -sin
        x1, _ = grid.coordinates()
        theta = ScalarField(grid, np.sin(x1))
        ext = extend(theta, trace_ladder(grid), 0.0)
        trace = neumann_trace(ext)
        d0 = calibrate_dtn_constant(grid, 0.0)
        assert d0 == pytest.approx(-1.0, abs=1e-9)
        assert np.max(np.abs(trace.values + np.sin(x1))) < 1e-8

    def test_constant_mode_trace_vanishes(self, grid):
        theta = ScalarField(grid, np.full(grid.shape, 0.4))
        ext = extend(theta, trace_ladder(grid), 0.05)
        trace = neumann_trace(ext)
        assert np.max(np.abs(trace.values)) < 1e-12

    def test_random_field_matches_spectral_operator(self, grid):
        eps = 0.05
        theta = random_band_limited(grid, 6, [35, 0, 0])
        ext = extend(theta, trace_ladder(grid), eps)
        d = calibrate_dtn_constant(grid, eps)
        target = fractional_laplacian(theta, 1.0 - eps)
        rel = l2_norm(
            ScalarField(grid, neumann_trace(ext).values / d - target.values)
        ) / l2_norm(target)
        assert rel <= 0.01

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_mode_independence(self, grid, eps):
        ds = [calibrate_dtn_constant(grid, eps, wavenumber=k) for k in (1, 2, 4, 8)]
        spread = (max(ds) - min(ds)) / abs(np.mean(ds))
        assert spread <= 0.005

    def test_continuity_at_zero_weight(self, grid):
        d0 = calibrate_dtn_constant(grid, 0.0)
        d_small = calibrate_dtn_constant(grid, 0.01)
        assert abs(d_small - d0) / abs(d0) <= 0.02

    def test_analytic_constant_agrees(self, grid):
        for eps in (0.0, 0.05, 0.1):
            measured = calibrate_dtn_constant(grid, eps)
            assert measured == pytest.approx(dtn_constant_analytic(eps), rel=1e-6)

    def test_insufficient_ladder_rejected(self, grid):
        theta = random_band_limited(grid, 4, [36, 0, 0])
        top = 0.1 / grid_k_max(grid)
        ext = extend(theta, np.array([0.0, top / 2, top]), 0.05)
        with pytest.raises(ValueError, match="insufficient") as exc:
            neumann_trace(ext)
        assert str([top / 8, top / 4]) in str(exc.value)

    def test_finer_levels_among_the_ladder_leave_the_trace(self, grid):
        # the trace reads trace_ladder's four levels wherever they sit in
        # z_levels; finer levels between them change nothing
        theta = random_band_limited(grid, 4, [36, 0, 0])
        ladder = trace_ladder(grid)
        fine = np.unique(np.concatenate([ladder, np.linspace(0, 0.01, 101)]))
        assert fine.size > ladder.size + 90 and fine[1] < ladder[1]
        plain = neumann_trace(extend(theta, ladder, 0.05)).values
        assert np.array_equal(neumann_trace(extend(theta, fine, 0.05)).values, plain)


class TestDirichletEnergy:
    def test_zero_field(self, grid):
        z = np.linspace(0, 2, 17)
        ext = ExtensionField(grid, z, np.zeros((17,) + grid.shape), 0.0)
        value, _ = weighted_dirichlet_energy(ext)
        assert value == 0.0

    def test_single_mode_half_sobolev(self, grid):
        # for eps = 0 the full-space Dirichlet energy of the harmonic
        # extension is the Hdot^(1/2) seminorm squared
        x1, _ = grid.coordinates()
        theta = ScalarField(grid, np.sin(x1))
        z = np.unique(np.concatenate([trace_ladder(grid), np.linspace(0, 5, 81)]))
        ext = extend(theta, z, 0.0)
        value, estimate = weighted_dirichlet_energy(ext)
        expected = sobolev_norm(theta, 0.5) ** 2
        assert value == pytest.approx(expected, rel=0.02)

    def test_quadratic_scaling(self, grid):
        theta = random_band_limited(grid, 4, [37, 0, 0])
        z = np.linspace(0, 3, 31)
        ext1 = extend(theta, z, 0.1)
        ext2 = ExtensionField(grid, z, 2.0 * ext1.values, 0.1)
        v1, _ = weighted_dirichlet_energy(ext1)
        v2, _ = weighted_dirichlet_energy(ext2)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_matches_full_spectrum_formula_on_clipped_field(self, eps):
        # the clipped field is not band-limited, so its Nyquist lines carry
        # power; the real part of the full-spectrum derivative drops them
        g = Grid(64, 4.0 * np.pi)
        theta = random_band_limited(g, 12, [39, 0, 0])
        z = np.unique(np.concatenate([trace_ladder(g), np.linspace(0, 2.0, 21)]))
        ext = extend(theta, z, eps)
        clipped = ExtensionField(g, z, np.maximum(ext.values - 0.2, 0.0), eps)
        cut = extension_cutoff(g, z)
        nyquist = np.fft.fft2(clipped.values[0] * cut[0])[g.n // 2]
        assert np.max(np.abs(nyquist)) > 1e-4 * np.max(np.abs(clipped.values[0]))
        value, _ = weighted_dirichlet_energy(clipped, cut)
        assert value == pytest.approx(dirichlet_oracle(clipped, cut), rel=1e-13)
        full, _ = weighted_dirichlet_energy(clipped)
        assert full == pytest.approx(dirichlet_oracle(clipped, 1.0), rel=1e-13)


    def test_cutoff_box_is_the_padded_support(self):
        g = Grid(64, 4.0 * np.pi)
        z = np.linspace(0, 2.0, 9)
        cut = extension_cutoff(g, z)
        levels, box = cutoff_box(cut, cut.shape)
        assert levels.shape == cut.shape
        for axis, line in zip((1, 2), box):
            other = tuple(a for a in (0, 1, 2) if a != axis)
            hit = np.flatnonzero(np.any(cut != 0, axis=other))
            assert line == slice(hit[0] - 2, hit[-1] + 3)
            assert line.stop - line.start < g.n // 2

    def test_cutoff_box_falls_back_to_the_whole_grid(self):
        g = Grid(64, 4.0 * np.pi)
        z = np.linspace(0, 2.0, 9)
        cut = extension_cutoff(g, z)
        whole = (slice(0, 64), slice(0, 64))
        # the padded support leaves the grid; it wraps across the edge;
        # it is empty; no cutoff at all
        assert cutoff_box(extension_cutoff(Grid(64, 4.0), z), cut.shape)[1] == whole
        assert cutoff_box(np.roll(cut, 32, axis=2), cut.shape)[1] == whole
        assert cutoff_box(np.zeros(cut.shape), cut.shape)[1] == whole
        ones, box = cutoff_box(None, cut.shape)
        assert box == whole and np.all(ones == 1.0) and ones.shape == (1,) + g.shape

    def test_cutoff_of_another_shape_rejected(self, grid):
        z = np.linspace(0, 2, 5)
        ext = ExtensionField(grid, z, np.zeros((5,) + grid.shape), 0.0)
        for shape in ((4, 64, 64), (64, 64), (1, 64, 64), (64, 32), (1, 64, 64, 1), (64,)):
            with pytest.raises(ValueError, match="cutoff shape"):
                weighted_dirichlet_energy(ext, np.ones(shape))

    @settings(max_examples=20, deadline=None)
    @given(
        lo=st.tuples(st.integers(0, 31), st.integers(0, 31)),
        size=st.tuples(st.integers(1, 32), st.integers(1, 32)),
        seed=st.integers(0, 2**16),
    )
    def test_box_matches_full_lattice_formula(self, lo, size, seed):
        # a cutoff supported on an arbitrary (possibly wrapping) rectangle
        g = Grid(32, 2.0 * np.pi)
        z = np.linspace(0.0, 1.0, 7)
        rng = np.random.default_rng(seed)
        ext = ExtensionField(g, z, rng.standard_normal((7,) + g.shape), 0.1)
        rows = (lo[0] + np.arange(size[0])) % g.n
        cols = (lo[1] + np.arange(size[1])) % g.n
        cut = np.zeros(ext.values.shape)
        cut[np.ix_(range(7), rows, cols)] = rng.uniform(0.5, 1.0, (7, size[0], size[1]))
        value, _ = weighted_dirichlet_energy(ext, cut)
        assert value == pytest.approx(dirichlet_oracle(ext, cut), rel=1e-13)


class TestWeightedZIntegral:
    def test_linear_function_exact(self):
        # int_0^1 z^eps (a + b z) dz has a closed form; piecewise-linear
        # quadrature must reproduce it exactly
        z = np.linspace(0, 1, 9)
        a, b, eps = 0.7, -0.3, 0.35
        got = weighted_z_integral(z, a + b * z, eps)
        expected = a / (1 + eps) + b / (2 + eps)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_weight_at_origin_not_lost(self):
        # naive trapezoid of z^eps * g underestimates the first panel
        z = np.linspace(0, 1, 5)
        eps = 0.5
        got = weighted_z_integral(z, np.ones_like(z), eps)
        assert got == pytest.approx(1.0 / (1 + eps), rel=1e-12)
