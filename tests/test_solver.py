"""Solver: exact dissipation, advection, energy bookkeeping, checkpoints."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.fft import irfft2, rfft2
from scipy.ndimage import maximum_filter1d

import full_spectrum as fs
import sqgdiag.solver as solver_mod
from sqgdiag.solver import (
    CheckpointError,
    SolverConfig,
    SqgSolver,
    StabilityError,
    _phi_coefficients,
    audit_energy,
    check_l2_monotone,
    check_linf_decay,
    read_checkpoint,
    level_terms,
    run,
    truncate_level,
    write_checkpoint,
)
from sqgdiag.spectral import (
    Grid,
    ScalarField,
    half_spectrum,
    l2_norm,
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


def single_mode(grid):
    x1, _ = grid.coordinates()
    return ScalarField(grid, np.sin(x1))


class TestConfig:
    def test_epsilon_complement(self):
        cfg = SolverConfig(alpha=0.93, dt=1e-3, t_end=1.0)
        assert cfg.epsilon == 1.0 - 0.93

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.2, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.9, dt=-1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.9, dt=1e-3, t_end=1.0, integrator="rk4")


def advection(theta):
    """w . grad theta in physical space, from the solver's spectral tendency."""
    solver = SqgSolver(theta.grid, SolverConfig(alpha=1.0, dt=1.0, t_end=1.0))
    return -irfft2(solver.nonlinear_spectral(rfft2(theta.values)), s=theta.grid.shape)


class TestNonlinearTerm:
    def test_single_mode_vanishes(self, grid):
        # w is perpendicular to grad theta for any single Fourier mode
        assert np.max(np.abs(advection(single_mode(grid)))) < 1e-13

    def test_zero_field(self, grid):
        assert np.max(np.abs(advection(ScalarField(grid, np.zeros(grid.shape))))) == 0.0

    def test_skew_symmetry(self, grid):
        theta = random_band_limited(grid, 8, [21, 0, 0])
        integral = np.sum(theta.values * advection(theta)) * grid.spacing**2
        assert abs(integral) <= 1e-10


class TestStep:
    def test_single_mode_exact_decay(self, grid, coords):
        x1, _ = coords
        cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=1.0)
        state = single_mode(grid)
        result = run(state, cfg)
        exact = np.exp(-1.0) * np.sin(x1)
        rel = l2_norm(ScalarField(grid, result.final.values - exact)) / l2_norm(
            ScalarField(grid, exact)
        )
        assert rel <= 1e-8

    @pytest.mark.parametrize("alpha", [0.9, 0.95, 1.0])
    def test_etd_rk4_single_mode_exact_decay(self, grid, coords, alpha):
        # a single mode is a steady state of the advection term, so
        # ETD-RK4 must reproduce exp(-|k|^alpha t) up to rounding
        x1, x2 = coords
        mode = np.sin(2 * x1 + x2)
        cfg = SolverConfig(alpha=alpha, dt=1e-2, t_end=0.5, integrator="etd_rk4")
        result = run(ScalarField(grid, mode), cfg)
        exact = np.exp(-(5.0 ** (alpha / 2.0)) * 0.5) * mode
        assert np.max(np.abs(result.final.values - exact)) <= 1e-12

    def test_zero_stays_zero(self, grid):
        cfg = SolverConfig(alpha=0.9, dt=1e-2, t_end=0.1)
        out = run(ScalarField(grid, np.zeros(grid.shape)), cfg)
        assert np.max(np.abs(out.final.values)) == 0.0

    def test_mean_conserved_to_machine(self, grid):
        # the zero-mode tendency is forced to zero; the only drift is ifft
        # round-off when the mean is read back from physical values
        theta = random_band_limited(grid, 6, [22, 0, 0])
        cfg = SolverConfig(alpha=0.95, dt=5e-3, t_end=0.2)
        out = run(theta, cfg)
        assert abs(out.final.mean() - theta.mean()) <= 1e-15

    def test_mean_zero_required(self, grid):
        cfg = SolverConfig(alpha=0.95, dt=5e-3, t_end=0.1)
        with pytest.raises(ValueError):
            run(ScalarField(grid, np.full(grid.shape, 0.2)), cfg)

    @pytest.mark.parametrize(
        "integrator,dts,order",
        [
            ("etd_rk2", (1e-3, 5e-4, 2.5e-4), 2.0),
            ("etd_rk4", (2e-2, 1e-2, 5e-3), 4.0),
        ],
    )
    def test_self_convergence_order(self, grid, coords, integrator, dts, order):
        # Richardson triple: order from successive dt halvings.  The rk4
        # case needs larger steps than the rk2 one so the differences stay
        # above roundoff.
        x1, x2 = coords
        theta0 = ScalarField(grid, np.sin(x1) + np.cos(2 * x2))
        finals = []
        for dt in dts:
            cfg = SolverConfig(alpha=0.9, dt=dt, t_end=0.5, integrator=integrator)
            finals.append(run(theta0, cfg).final.values)
        e1 = np.sqrt(np.mean((finals[0] - finals[1]) ** 2))
        e2 = np.sqrt(np.mean((finals[1] - finals[2]) ** 2))
        measured = np.log2(e1 / e2)
        assert abs(measured - order) <= 0.3

    def test_conservation_without_dissipation(self, grid):
        # pure advection: the solver with its dissipation rate zeroed
        theta = random_band_limited(grid, 4, [23, 0, 0])
        solver = SqgSolver(grid, SolverConfig(alpha=1.0, dt=2e-3, t_end=1.0))
        solver.rate = np.zeros_like(solver.rate)
        that = rfft2(theta.values)
        for _ in range(500):
            that = solver.step_spectral(that, 2e-3)
        final = ScalarField(grid, irfft2(that, s=grid.shape))
        drift = abs(l2_norm(final) - l2_norm(theta)) / l2_norm(theta)
        assert drift <= 1e-8

    def test_cfl_violation_raises(self, grid):
        theta = random_band_limited(grid, 6, [24, 0, 0], amplitude=1.0)
        w = riesz_velocity(theta)
        bound = solver_mod.CFL_SAFETY * grid.spacing / np.max(np.hypot(w.u, w.v))
        cfg = SolverConfig(alpha=0.95, dt=50.0 * bound, t_end=200.0 * bound)
        with pytest.raises(StabilityError):
            run(theta, cfg)

    def test_blowup_guard(self, grid, monkeypatch):
        # tighten the guard so that ordinary bounded evolution trips it;
        # this exercises the abort path without needing a real blow-up
        monkeypatch.setattr(solver_mod, "BLOWUP_FACTOR", 0.01)
        theta = random_band_limited(grid, 4, [25, 0, 0])
        cfg = SolverConfig(alpha=0.95, dt=5e-3, t_end=0.1)
        with pytest.raises(solver_mod.BlowUpError):
            run(theta, cfg)


class TestOperatorPath:
    """The solver on the shared half-spectrum operator against per-mode oracles."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        side=st.sampled_from([2 * np.pi, 5.0]),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        dt=st.floats(1e-4, 0.5),
    )
    def test_phi_tables_match_per_mode_contour(self, n, side, alpha, dt):
        # the tables are built on the distinct radii and scattered; the
        # oracle runs the same series and closed forms on every mode
        g = Grid(n, side)
        mag = half_spectrum(g).magnitude
        linear = np.zeros_like(mag)
        linear[mag > 0] = -(mag[mag > 0] ** alpha)
        expected = {
            k: v.reshape(mag.shape)
            for k, v in _phi_coefficients(linear.ravel() * dt, dt).items()
        }
        expected["exp_full"] = np.exp(linear * dt)
        expected["exp_half"] = np.exp(linear * dt / 2.0)
        got = SqgSolver(g, SolverConfig(alpha=alpha, dt=dt, t_end=1.0))._coefficients(dt)
        assert sorted(got) == sorted(expected)
        for name, table in got.items():
            assert table.dtype == np.float64 and table.shape == mag.shape
            rel = np.abs(table - expected[name]) / np.abs(expected[name])
            assert np.max(rel) <= 1e-14, name

    # the six tables' closed forms in z = rate * dt, per unit dt
    EXACT_PHI = {
        "phi1_half": lambda z: mpmath.expm1(z / 2) / z,
        "f1": lambda z: (-4 - z + mpmath.exp(z) * (4 - 3 * z + z * z)) / z**3,
        "f2": lambda z: (2 + z + mpmath.exp(z) * (z - 2)) / z**3,
        "f3": lambda z: (-4 - 3 * z - z * z + mpmath.exp(z) * (4 - z)) / z**3,
        "phi1": lambda z: mpmath.expm1(z) / z,
        "phi2": lambda z: (mpmath.expm1(z) - z) / z**2,
    }
    # their limits at z = 0
    PHI_AT_ZERO = {"phi1_half": 0.5, "f1": 1 / 6, "f2": 1 / 6, "f3": 1 / 6, "phi1": 1.0, "phi2": 0.5}

    @pytest.mark.parametrize("dt", [1.0, 3e-3])
    def test_phi_tables_match_mpmath(self, dt):
        # Bound: relative error <= 1e-14 of dt times the exact value, except
        # within 0.05 of f1's root z = -2.688, where f1 crosses zero and the
        # bound is an absolute error <= 1e-16 per unit dt.  The points: z = 0,
        # a geometric sweep over -[1e-14, 100] (the solver's z are <= 0), the
        # series/closed-form seam |z| = 2 with its neighbours on both sides,
        # z = -1.01 and a few points next to f1's root.
        with mpmath.workdps(120):
            root = float(mpmath.findroot(self.EXACT_PHI["f1"], -2.688))
            seam = [s * np.nextafter(2.0, t) for s in (1.0, -1.0) for t in (0.0, 4.0)]
            z = np.concatenate((
                [0.0, -1.01, 2.0, -2.0], seam, -np.geomspace(1e-14, 100.0, 400),
                root + np.linspace(-0.04, 0.04, 9),
            ))
            worst = (0.0, None, None)
            for name, table in _phi_coefficients(z, dt).items():
                for zi, got in zip(z, table):
                    exact = (self.EXACT_PHI[name](mpmath.mpf(zi)) if zi
                             else mpmath.mpf(self.PHI_AT_ZERO[name]))
                    err = abs(mpmath.mpf(got) - dt * exact)
                    if name == "f1" and abs(zi - root) < 0.05:
                        ratio = err / (1e-16 * dt)
                    else:
                        ratio = err / (1e-14 * abs(dt * exact))
                    worst = max(worst, (float(ratio), name, zi), key=lambda w: w[0])
        assert worst[0] <= 1.0, worst

    def test_nonlinear_matches_unfused_formula(self):
        # four separate inverse transforms with symbols built from the
        # wavevector meshgrid, as the tendency was first written
        g = Grid(64, 5.0)
        that = rfft2(random_band_limited(g, 20, [26, 0, 0]).values)
        k1 = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.spacing)
        k2 = 2.0 * np.pi * np.fft.rfftfreq(g.n, d=g.spacing)
        K1, K2 = np.meshgrid(k1, k2, indexing="ij")
        mag = np.sqrt(K1 * K1 + K2 * K2)
        inv = np.zeros_like(mag)
        inv[mag > 0] = 1.0 / mag[mag > 0]
        u = irfft2(-1j * K2 * inv * that, s=g.shape)
        v = irfft2(1j * K1 * inv * that, s=g.shape)
        tx = irfft2(1j * K1 * that, s=g.shape)
        ty = irfft2(1j * K2 * that, s=g.shape)
        cutoff = (2.0 / 3.0) * np.pi * g.n / g.side_length
        adv = rfft2(u * tx + v * ty) * ((np.abs(K1) <= cutoff) & (np.abs(K2) <= cutoff))
        adv[0, 0] = 0.0
        cfg = SolverConfig(alpha=0.9, dt=1e-3, t_end=1.0)
        got = SqgSolver(g, cfg).nonlinear_spectral(that)
        assert np.max(np.abs(got + adv)) <= 1e-14 * np.max(np.abs(adv))

    @pytest.mark.parametrize("integrator", ["etd_rk2", "etd_rk4"])
    def test_cfl_bound_reads_last_stage(self, grid, integrator, monkeypatch):
        cfg = SolverConfig(alpha=0.95, dt=2e-2, t_end=1.0, integrator=integrator)
        solver = SqgSolver(grid, cfg)
        stages = []
        original = SqgSolver.nonlinear_spectral

        def recording(self, that, **kwargs):
            stages.append(that.copy())
            return original(self, that, **kwargs)

        monkeypatch.setattr(SqgSolver, "nonlinear_spectral", recording)
        that = rfft2(random_band_limited(grid, 8, [27, 0, 0], amplitude=2.0).values)
        solver.step_spectral(that, cfg.dt)
        assert len(stages) == (2 if integrator == "etd_rk2" else 4)
        op = half_spectrum(grid)

        def cfl(stage):
            u = irfft2(op.riesz_u * stage, s=grid.shape)
            v = irfft2(op.riesz_v * stage, s=grid.shape)
            return 0.5 * grid.spacing / np.max(np.sqrt(u * u + v * v))

        assert solver.cfl_bound() == pytest.approx(cfl(stages[-1]), rel=1e-14)
        assert abs(cfl(stages[0]) / cfl(stages[-1]) - 1.0) > 1e-6

    def test_solver_uses_the_shared_operator(self, grid):
        solver = SqgSolver(grid, SolverConfig(alpha=0.9, dt=1e-3, t_end=1.0))
        assert solver.op is half_spectrum(grid)
        assert solver.rate.shape == half_spectrum(grid).radii.shape

    def test_snapshots_are_the_last_substep_fields(self, grid):
        # each snapshot is the inverse transform of the state after the
        # last sub-step of its gap, and its L-infinity norm is the one
        # recorded for that step
        theta = random_band_limited(grid, 6, [28, 0, 0])
        cfg = SolverConfig(alpha=0.95, dt=1e-2, t_end=0.1)
        out = run(theta, cfg, snapshot_times=[0.0, 0.05, 0.1])
        solver = SqgSolver(grid, cfg)
        that = rfft2(theta.values)
        for _ in range(5):
            that = solver.step_spectral(that, 0.05 / 5)
        assert np.array_equal(out.history[1].values, irfft2(that, s=grid.shape))
        assert out.linf_norms[5] == np.max(np.abs(out.history[1].values))
        assert out.final is out.history[-1]

    @pytest.mark.parametrize("times,bad", [([0.05, 0.5], "0.5"), ([-1.0, 0.05], "-1.0")])
    def test_snapshot_times_outside_the_run_rejected(self, grid, times, bad):
        # a time past t_end would integrate past it; one before the start
        # would be dropped
        theta = random_band_limited(grid, 4, [30, 0, 0])
        cfg = SolverConfig(alpha=1.0, dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError, match=f"snapshot time {bad} lies outside"):
            run(theta, cfg, snapshot_times=times)
        late = ScalarField(grid, theta.values, time_stamp=0.2)
        with pytest.raises(ValueError, match="snapshot time 0.1 lies outside"):
            run(late, cfg)

    def test_empty_snapshot_request_rejected(self, grid):
        # it would integrate nothing and return the initial field as final
        theta = random_band_limited(grid, 4, [30, 0, 0])
        with pytest.raises(ValueError, match="no snapshot time"):
            run(theta, SolverConfig(alpha=1.0, dt=1e-2, t_end=0.1), snapshot_times=[])

    def test_time_within_rounding_below_the_start_is_the_start(self, grid):
        # it stores the initial field, as the start itself does
        theta = random_band_limited(grid, 4, [30, 0, 0])
        cfg = SolverConfig(alpha=1.0, dt=1e-2, t_end=0.1)
        below = run(theta, cfg, snapshot_times=[-1e-10, 0.05])
        exact = run(theta, cfg, snapshot_times=[0.0, 0.05])
        assert len(below.history) == len(exact.history) == 3
        assert np.array_equal(below.history[0].values, theta.values)
        for a, b in zip(below.history, exact.history):
            assert a.time_stamp == b.time_stamp
            assert np.array_equal(a.values, b.values)
        assert below.final is below.history[-1]


class TestWorkspace:
    """The work arrays a solver allocates once and reuses on every step."""

    @staticmethod
    def work_arrays(solver):
        return [solver._scratch, solver._u, solver._v, solver._tx, solver._ty,
                *solver._stage.values(), *solver._tables.values()]

    def test_warm_steps_allocate_only_the_new_state(self):
        g = Grid(256)
        solver = SqgSolver(g, SolverConfig(alpha=0.95, dt=4e-3, t_end=1.0))
        that = rfft2(random_band_limited(g, 8, [29, 0, 0]).values)
        that = solver.step_spectral(that, 4e-3)  # builds the phi tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                that = solver.step_spectral(that, 4e-3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * that.nbytes

    @pytest.mark.parametrize("integrator", ["etd_rk2", "etd_rk4"])
    def test_step_outputs_share_no_memory(self, grid, integrator):
        cfg = SolverConfig(alpha=0.95, dt=1e-2, t_end=1.0, integrator=integrator)
        solver = SqgSolver(grid, cfg)
        that = rfft2(random_band_limited(grid, 6, [30, 0, 0]).values)
        first = solver.step_spectral(that, cfg.dt)
        second = solver.step_spectral(first, cfg.dt)
        assert not np.shares_memory(first, second)
        for out in (first, second):
            assert not np.shares_memory(out, that)
            assert not any(np.shares_memory(out, w) for w in self.work_arrays(solver))

    def test_run_snapshots_share_no_memory(self, grid):
        theta = random_band_limited(grid, 6, [31, 0, 0])
        cfg = SolverConfig(alpha=0.95, dt=1e-2, t_end=0.1)
        history = run(theta, cfg, snapshot_times=np.linspace(0.0, 0.1, 6)).history
        assert len(history) == 6
        for i, a in enumerate(history):
            assert not np.shares_memory(a.values, theta.values)
            for b in history[i + 1 :]:
                assert not np.shares_memory(a.values, b.values)


class TestPhiCache:
    """At most PHI_CACHE_SIZE phi-table sets, least recently used evicted."""

    @staticmethod
    def cycling_run(monkeypatch, widths, repeats):
        # gaps that cycle through dyadic widths, one sub-step each, so every
        # step size recurs exactly after all the others were used
        made = []

        class Recording(SqgSolver):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(solver_mod, "SqgSolver", Recording)
        times = np.cumsum(list(widths) * repeats)
        g = Grid(32)
        theta = random_band_limited(g, 4, [31, 0, 0], amplitude=0.5)
        cfg = SolverConfig(alpha=0.95, dt=1 / 64, t_end=float(times[-1]))
        res = run(theta, cfg, snapshot_times=times)
        (solver,) = made
        return res, solver

    def test_cycling_schedule_keeps_the_bound_and_the_history(self, monkeypatch):
        widths = [k / 1024 for k in range(1, solver_mod.PHI_CACHE_SIZE + 3)]
        bounded, solver = self.cycling_run(monkeypatch, widths, 3)
        assert len(solver._coeff_cache) == solver_mod.PHI_CACHE_SIZE
        # a cycle longer than the cache misses on every step
        assert bounded.phi_builds == bounded.steps == 3 * len(widths)

        monkeypatch.setattr(solver_mod, "PHI_CACHE_SIZE", 10**6)
        unbounded, solver = self.cycling_run(monkeypatch, widths, 3)
        assert unbounded.phi_builds == len(solver._coeff_cache) == len(widths)
        assert len(bounded.history) == len(unbounded.history) == 3 * len(widths)
        for a, b in zip(bounded.history, unbounded.history):
            assert a.time_stamp == b.time_stamp
            assert np.array_equal(a.values, b.values)

    def test_rebuilt_table_equals_its_first_build(self, grid):
        # the cache holds per-radius tables; _coefficients returns the
        # solver's per-mode work set, refilled when the step size changes
        solver = SqgSolver(grid, SolverConfig(alpha=0.95, dt=0.1, t_end=1.0))
        first = {k: v.copy() for k, v in solver._coefficients(1e-3).items()}
        first_entry = solver._coeff_cache[1e-3]
        for k in range(solver_mod.PHI_CACHE_SIZE):
            solver._coefficients(2e-3 + k * 1e-4)
        assert 1e-3 not in solver._coeff_cache
        again = solver._coefficients(1e-3)
        again_entry = solver._coeff_cache[1e-3]
        assert again_entry is not first_entry
        assert solver.phi_builds == solver_mod.PHI_CACHE_SIZE + 2
        assert sorted(again_entry) == sorted(first_entry) == sorted(again) == sorted(first)
        for name, table in first_entry.items():
            assert np.array_equal(again_entry[name], table), name
        for name, table in first.items():
            assert np.array_equal(again[name], table), name
        # a cache hit on another step size refills the work set too
        solver._coefficients(2e-3 + 7e-4)
        hit = solver._coefficients(1e-3)
        assert solver.phi_builds == solver_mod.PHI_CACHE_SIZE + 2
        for name, table in first.items():
            assert np.array_equal(hit[name], table), name

    def test_held_tables_are_per_radius(self):
        # PHI_CACHE_SIZE sets of 8 tables on the 6801 distinct radii of a
        # 256^2 grid are 3.3 MiB; on all 33 024 modes they would be 16.1 MiB
        solver = SqgSolver(Grid(256), SolverConfig(alpha=0.95, dt=0.1, t_end=1.0))
        tracemalloc.start()
        try:
            for k in range(solver_mod.PHI_CACHE_SIZE + 2):
                solver._coefficients(1e-3 * (k + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(solver._coeff_cache) == solver_mod.PHI_CACHE_SIZE
        assert peak < 6 * 2**20

    def test_use_refreshes_a_table(self, grid):
        solver = SqgSolver(grid, SolverConfig(alpha=0.95, dt=0.1, t_end=1.0))
        sizes = [1e-3 * (k + 1) for k in range(solver_mod.PHI_CACHE_SIZE)]
        for dt in sizes:
            solver._coefficients(dt)
        solver._coefficients(sizes[0])  # now the most recently used
        solver._coefficients(1.0)  # evicts sizes[1], the least recently used
        assert sizes[0] in solver._coeff_cache and sizes[1] not in solver._coeff_cache
        assert solver.phi_builds == solver_mod.PHI_CACHE_SIZE + 1


class TestTruncateLevel:
    def test_below_min(self, grid):
        theta = single_mode(grid)
        out = truncate_level(theta, -2.0)
        assert np.allclose(out.values, theta.values + 2.0)

    def test_above_max(self, grid):
        out = truncate_level(single_mode(grid), 2.0)
        assert np.all(out.values == 0.0)

    def test_positive_part_quadrature(self, grid):
        # || (sin x1)_+ ||_L2^2 is half of || sin x1 ||_L2^2
        theta = single_mode(grid)
        pos = truncate_level(theta, 0.0)
        h2 = grid.spacing**2
        assert np.sum(pos.values**2) * h2 == pytest.approx(
            0.5 * np.sum(theta.values**2) * h2, rel=1e-12
        )


class TestAuditEnergy:
    def test_single_mode_energy_identity(self, grid):
        # pure dissipation: the L2 balance closes against the pairing
        # integral, formed by the full-spectrum oracle and integrated by the
        # trapezoid over the snapshot gaps; at alpha = 1 and level 0 the
        # Hdot^1 seminorm of the positive part coincides with the pairing,
        # so the stated equality holds in both readings (kink aliasing
        # budgeted at 1%).
        cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=0.5)
        res = run(single_mode(grid), cfg, snapshot_times=np.linspace(0, 0.5, 26))
        audit = audit_energy(res.history, [0.0], 1.0)
        assert audit.passed
        h2 = grid.spacing**2
        e_start = np.sum(np.maximum(res.history[0].values, 0) ** 2) * h2
        e_end = np.sum(np.maximum(res.history[-1].values, 0) ** 2) * h2
        pairing = np.array(
            [fs.audit_terms(f.values, grid, [0.0], 1.0)[2, 0] for f in res.history]
        )
        gaps = np.diff([f.time_stamp for f in res.history])
        lhs = e_end + 2.0 * np.sum(0.5 * (pairing[1:] + pairing[:-1]) * gaps)
        assert lhs == pytest.approx(e_start, rel=1e-3)
        # at alpha = 1, level 0 the dissipation pairing of the single mode
        # equals pi^2 = || (sin)_+ ||^2_{Hdot^1}; the sampled positive part
        # carries kink aliasing, so the seminorm matches within a declared
        # resolution budget on the finer grid
        fine = Grid(256)
        x1f, _ = fine.coordinates()
        pos = truncate_level(ScalarField(fine, np.sin(x1f)), 0.0)
        assert sobolev_norm(pos, 1.0) ** 2 == pytest.approx(np.pi**2, rel=1e-2)

    def test_level_above_max_trivial(self, grid):
        cfg = SolverConfig(alpha=0.95, dt=2e-3, t_end=0.2)
        res = run(single_mode(grid), cfg, snapshot_times=np.linspace(0, 0.2, 5))
        audit = audit_energy(res.history, [5.0], 0.95)
        assert audit.passed
        assert np.all(audit.hdot_alpha_accumulated == 0.0)

    def test_random_field_multiple_levels(self, grid):
        theta = random_band_limited(grid, 6, [26, 0, 0])
        cfg = SolverConfig(alpha=0.95, dt=5e-3, t_end=1.0)
        res = run(theta, cfg, snapshot_times=np.linspace(0, 1.0, 21))
        audit = audit_energy(res.history, [0.0, 0.1, 0.5], 0.95)
        assert audit.passed, audit.violations[:5]

    def test_sixteen_level_grid(self, grid):
        theta = random_band_limited(grid, 5, [27, 0, 0])
        cfg = SolverConfig(alpha=0.9, dt=5e-3, t_end=0.5)
        res = run(theta, cfg, snapshot_times=np.linspace(0, 0.5, 11))
        levels = np.linspace(theta.values.min(), theta.values.max(), 16)
        audit = audit_energy(res.history, levels, 0.9)
        assert audit.passed, audit.violations[:5]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        side=st.sampled_from([2 * np.pi, 5.0]),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.05, 1.0),
        fractions=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=5),
    )
    def test_level_terms_match_full_spectrum(self, n, side, seed, alpha, fractions):
        # energy and Hdot^(alpha/2) seminorm (by Parseval on the half
        # spectrum) against the fft2 formulas, on white noise (Nyquist lines
        # included) and levels below, inside and above its range
        g = Grid(n, side)
        values = fs.white_noise(g, seed)
        lo, hi = values.min(), values.max()
        levels = [lo + f * (hi - lo) for f in fractions]
        got = level_terms(ScalarField(g, values), levels, alpha)
        expected = fs.audit_terms(values, g, levels, alpha)
        assert got.shape == (2, len(levels))
        assert np.array_equal(got[0], expected[0])  # the same physical sum
        scale = np.max(np.abs(expected[1]))
        assert np.max(np.abs(got[1] - expected[1])) <= 1e-13 * scale

    def test_level_set_bump_fails(self, grid, coords):
        # negative control: a bump added to one interior snapshot raises the
        # level-set energy there above what the earlier snapshots allow
        theta = random_band_limited(grid, 5, [27, 0, 0])
        cfg = SolverConfig(alpha=0.9, dt=5e-3, t_end=0.5)
        res = run(theta, cfg, snapshot_times=np.linspace(0, 0.5, 11))
        levels = np.linspace(theta.values.min(), theta.values.max(), 16)
        x1, x2 = coords
        c = grid.center
        bump = 0.5 * np.exp(-((x1 - c[0]) ** 2 + (x2 - c[1]) ** 2))
        history = list(res.history)
        bumped = history[5]
        history[5] = ScalarField(grid, bumped.values + bump, bumped.time_stamp)
        audit = audit_energy(history, levels, 0.9)
        assert not audit.passed
        assert bumped.time_stamp in {t2 for _, _, t2, _ in audit.violations}

    def test_no_levels_audits_nothing(self, grid):
        # one row per level and one column per snapshot, so no level gives
        # empty arrays and a vacuous pass
        theta = random_band_limited(grid, 5, [27, 0, 0])
        cfg = SolverConfig(alpha=0.9, dt=5e-3, t_end=0.2)
        res = run(theta, cfg, snapshot_times=np.linspace(0, 0.2, 5))
        bare = audit_energy(res.history, [], 0.9)
        full = audit_energy(res.history, [0.0, 0.2], 0.9)
        assert bare.passed and bare.violations == []
        for name in ("hdot_alpha_accumulated", "quad_allowance"):
            assert getattr(bare, name).shape == (0, 5)
            assert getattr(full, name).shape == (2, 5)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            audit_energy([], [0.0], 0.9)

    def test_nonuniform_history_rejected(self, grid):
        # a frozen field on gaps of 0.1 and 0.25 keeps its energy while the
        # dissipation integral grows: each pair fails on its own panel widths
        f = single_mode(grid)
        hist = [
            ScalarField(grid, f.values, 0.0),
            ScalarField(grid, f.values, 0.1),
            ScalarField(grid, f.values, 0.35),
        ]
        audit = audit_energy(hist, [0.0], 0.9)
        assert not audit.passed
        assert [(t1, t2) for _, t1, t2, _ in audit.violations] == [
            (0.0, 0.1), (0.0, 0.35), (0.1, 0.35)
        ]

    def test_exact_mode_on_nonuniform_snapshots_passes(self, grid):
        # e^-t sin(x1) solves the equation for every alpha (|k| = 1), sampled
        # on gaps from 0.02 to 0.3 with a short last gap, as simulate writes
        x1, _ = grid.coordinates()
        times = [0.0, 0.02, 0.1, 0.2, 0.5, 0.8, 0.85]
        hist = [ScalarField(grid, np.exp(-t) * np.sin(x1), t) for t in times]
        audit = audit_energy(hist, [0.0, 0.3, 0.6], 0.9)
        assert audit.passed, audit.violations[:5]
        # the trapezoid takes each panel at its own width: one panel's
        # integral is half the sum of its end values times its gap
        hdot = audit.hdot_alpha_accumulated[0]
        g = [level_terms(f, [0.0], 0.9)[1, 0] for f in hist[-2:]]
        assert hdot[-1] - hdot[-2] == pytest.approx(0.5 * (g[0] + g[1]) * 0.05, rel=1e-12)

    def test_no_model_floor_past_the_last_crossing(self):
        # negative control: the level 0.5 is crossed for the last time
        # between t = 1 and t = 2, so g = 0 on the panels after it, where the
        # trapezoid is exact.  The t = 0 energy cannot cover the dissipation
        # already spent by then, and no model floor hides (0, 3) and (0, 4)
        g = Grid(32)
        x1, x2 = g.coordinates()
        amplitudes = [1.0, 1.0, 0.2, 0.1, 0.05]
        hist = [ScalarField(g, a * np.sin(x1) * np.cos(2 * x2), float(t))
                for t, a in enumerate(amplitudes)]
        audit = audit_energy(hist, [0.5], 0.9)
        pairs = {(t1, t2) for _, t1, t2, _ in audit.violations}
        assert {(0.0, 3.0), (0.0, 4.0)} <= pairs
        # 1.2 here; the model floor on the zero panels made it 1.2e299
        assert np.max(audit.quad_allowance) < 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=1, max_size=39
        )
    )
    def test_max_within_two_is_maximum_filter1d(self, values):
        values = np.array(values)
        expected = maximum_filter1d(values, size=5, mode="constant")
        assert np.array_equal(solver_mod._max_within_two(values), expected)

    def test_reversed_history_rejected_by_every_decay_check(self, grid):
        # one time rule: the audit and both decay checks need strictly
        # increasing snapshot times
        cfg = SolverConfig(alpha=1.0, dt=2e-3, t_end=2.0)
        res = run(single_mode(grid), cfg, snapshot_times=np.linspace(0, 2.0, 21))
        reversed_history = res.history[::-1]
        for check in (
            lambda h: audit_energy(h, [0.0], 1.0),
            check_l2_monotone,
            lambda h: check_linf_decay(h, 1.0),
        ):
            check(res.history)
            with pytest.raises(ValueError, match="strictly increasing"):
                check(reversed_history)
            with pytest.raises(ValueError, match="empty history"):
                check([])


class TestDecayChecks:
    def test_l2_monotone_single_mode(self, grid):
        cfg = SolverConfig(alpha=1.0, dt=2e-3, t_end=0.5)
        res = run(single_mode(grid), cfg, snapshot_times=np.linspace(0, 0.5, 6))
        assert check_l2_monotone(res.history)
        assert np.all(np.diff(res.l2_norms) < 0)

    def test_l2_monotone_fails_on_raised_norm(self, grid):
        # negative control on a real run: one snapshot scaled 1e-6 relative
        # above its predecessor fails; within the 1e-8 slack it passes
        cfg = SolverConfig(alpha=1.0, dt=2e-3, t_end=0.5)
        res = run(single_mode(grid), cfg, snapshot_times=np.linspace(0, 0.5, 6))
        for rise, expected in ((1e-6, False), (1e-9, True)):
            history = list(res.history)
            prev, cur = history[2], history[3]
            history[3] = ScalarField(grid, prev.values * (1.0 + rise), cur.time_stamp)
            assert check_l2_monotone(history) is expected

    def test_l2_monotone_zero(self, grid):
        zero = np.zeros(grid.shape)
        assert check_l2_monotone([ScalarField(grid, zero, 0.0), ScalarField(grid, zero, 1.0)])

    def test_linf_decay_single_mode(self, grid):
        cfg = SolverConfig(alpha=1.0, dt=2e-3, t_end=3.0)
        res = run(single_mode(grid), cfg, snapshot_times=np.linspace(0, 3.0, 31))
        l2i = l2_norm(single_mode(grid))
        fit = check_linf_decay(res.history, 1.0)
        assert fit.passed
        assert fit.slope <= -1.0 / 1.0 + 0.2
        ratio = res.linf_norms * res.times / l2i
        sel = res.times >= solver_mod.LINF_FIT_START
        assert np.max(ratio[sel]) <= fit.constant + 1e-12
        # the check reads the run's own norms at the snapshots, and
        # normalises by the first snapshot's L2 norm
        at_snapshots = np.isin(res.times, [f.time_stamp for f in res.history])
        assert fit.constant == np.max(ratio[sel & at_snapshots])
        # the exponential e^{-t} t is maximized at t = 1, so the envelope
        # constant over a history that starts at t = 0.3 is read off at
        # t = 1, relative to the L2 norm at 0.3
        later = res.history[3:]
        fit2 = check_linf_decay(later, 1.0)
        times = np.array([f.time_stamp for f in later])
        j = int(np.argmin(np.abs(times - 1.0)))
        assert fit2.constant == pytest.approx(
            np.max(np.abs(later[j].values)) * times[j] / l2_norm(later[0]), rel=1e-6
        )

    def test_linf_decay_fails_without_dissipation(self, monkeypatch):
        # negative control: the run whose linf_decay passes in
        # test_full_toggles_pass, with the dissipation rate zeroed, keeps
        # its maximum
        original = SqgSolver.__init__

        def inviscid(self, grid, config):
            original(self, grid, config)
            self.rate = np.zeros_like(self.rate)

        monkeypatch.setattr(SqgSolver, "__init__", inviscid)
        grid = Grid(64)
        theta = random_band_limited(grid, 6, [5, 0, 0])
        cfg = SolverConfig(alpha=1.0, dt=2e-3, t_end=2.0)
        res = run(theta, cfg, snapshot_times=np.linspace(0, 2.0, 21))
        fit = check_linf_decay(res.history, 1.0)
        assert not fit.passed
        assert fit.slope > -1.0 + solver_mod.LINF_SLOPE_SLACK

    def test_linf_decay_zero_field_vacuous(self, grid):
        zero = np.zeros(grid.shape)
        history = [ScalarField(grid, zero, t) for t in np.linspace(0.01, 2.0, 50)]
        fit = check_linf_decay(history, 1.0)
        assert fit.passed and fit.constant == 0.0

    def test_window_too_short(self, grid):
        # the window runs from LINF_FIT_START to the last snapshot, 0.3
        cfg = SolverConfig(alpha=1.0, dt=2e-3, t_end=0.3)
        res = run(single_mode(grid), cfg, snapshot_times=np.linspace(0, 0.3, 7))
        with pytest.raises(ValueError, match="decade"):
            check_linf_decay(res.history, 1.0)


class TestCheckpoint:
    def test_round_trip(self, grid, tmp_path):
        theta = ScalarField(grid, random_band_limited(grid, 5, [28, 0, 0]).values, 1.25)
        path = tmp_path / "snap.sqgd"
        write_checkpoint(path, theta, alpha=0.93)
        field, alpha = read_checkpoint(path)
        assert alpha == 0.93
        assert field.time_stamp == 1.25
        assert np.array_equal(field.values, theta.values)

    def test_truncated_payload(self, grid, tmp_path):
        theta = random_band_limited(grid, 5, [29, 0, 0])
        path = tmp_path / "snap.sqgd"
        write_checkpoint(path, theta, alpha=0.9)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="missing 16"):
            read_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sqgd"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.sqgd"
        path.write_bytes(b"SQ")
        with pytest.raises(CheckpointError, match="header"):
            read_checkpoint(path)

    @staticmethod
    def small_checkpoint(path):
        theta = ScalarField(Grid(8), random_band_limited(Grid(8), 2, [30, 0, 0]).values, 0.5)
        write_checkpoint(path, theta, alpha=0.9)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "offset,packed,where",
        [
            (8, (0).to_bytes(4, "little"), "byte 8"),
            (8, (3).to_bytes(4, "little"), "byte 8"),
            (12, np.array([np.nan]).astype("<f8").tobytes(), "byte 12"),
            (12, np.array([1.5]).astype("<f8").tobytes(), "byte 12"),
            (12, np.array([0.0]).astype("<f8").tobytes(), "byte 12"),
            (20, np.array([np.inf]).astype("<f8").tobytes(), "byte 20"),
        ],
    )
    def test_bad_header_field_names_its_byte(self, tmp_path, offset, packed, where):
        path = tmp_path / "snap.sqgd"
        raw = bytearray(self.small_checkpoint(path))
        raw[offset : offset + len(packed)] = packed
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=where):
            read_checkpoint(path)

    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(cut=st.integers(1, 28 + 8 * 64 - 1))
    def test_truncated_anywhere(self, tmp_path, cut):
        path = tmp_path / "snap.sqgd"
        raw = self.small_checkpoint(path)
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(position=st.integers(0, 28 + 8 * 64 - 1), byte=st.integers(0, 255))
    def test_corrupted_byte_raises_only_checkpoint_error(self, tmp_path, position, byte):
        path = tmp_path / "snap.sqgd"
        raw = bytearray(self.small_checkpoint(path))
        raw[position] = byte
        path.write_bytes(bytes(raw))
        try:
            field, alpha = read_checkpoint(path)
        except CheckpointError:
            return
        assert np.all(np.isfinite(field.values)) and 0.0 < alpha <= 1.0
        assert np.isfinite(field.time_stamp)

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(index=st.integers(0, 63), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_payload_names_its_offset(self, tmp_path, index, bad):
        path = tmp_path / "snap.sqgd"
        raw = bytearray(self.small_checkpoint(path))
        offset = 28 + 8 * index
        raw[offset : offset + 8] = np.array([bad]).astype("<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"non-finite payload value at byte {offset}$"):
            read_checkpoint(path)

    def test_golden_fixture_layout(self, tmp_path):
        # byte layout frozen by hand: header 28 bytes, little-endian fields
        g = Grid(4)
        values = np.arange(16, dtype=float).reshape(4, 4)
        path = tmp_path / "golden.sqgd"
        write_checkpoint(path, ScalarField(g, values, 0.5), alpha=0.75)
        raw = path.read_bytes()
        assert raw[:4] == b"SQGD"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 4
        assert np.frombuffer(raw[12:20], "<f8")[0] == 0.75
        assert np.frombuffer(raw[20:28], "<f8")[0] == 0.5
        assert np.array_equal(np.frombuffer(raw[28:], "<f8"), np.arange(16.0))
