"""Tails, cylinders, velocity splits, flow recentering, the iteration."""

import dataclasses
import importlib
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import admissible_field, calibrate_split_bound_constant, calibrate_tail_constant
from sqgdiag.constants import choose_delta
from sqgdiag.oscillation import (
    IterationConfig,
    ParabolicCylinder,
    RecenterPath,
    SPLIT_BOUND_CONSTANT,
    TAIL_CONSTANT,
    VelocitySplit,
    _bound_sample_points,
    iteration_snapshot_times,
    normalize_window,
    oscillation,
    recenter_flow,
    rescale_recenter,
    run_iteration_suite,
    tail_integral,
    tail_series,
    tail_truncation_radius,
)
from sqgdiag.solver import SolverConfig, run
from sqgdiag.spectral import Grid, ScalarField, l2_norm, random_band_limited, riesz_velocity

# the package re-exports the function ``oscillation`` under the module's name
oscillation_module = importlib.import_module("sqgdiag.oscillation")


class TestTailIntegral:
    def test_supported_inside_unit_ball(self):
        g = Grid(256, 16.0)
        d1, d2 = g.displacement(g.center)
        r2 = d1**2 + d2**2
        vals = np.zeros(g.shape)
        inside = r2 < 0.64
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside] / 0.64))
        assert tail_integral(ScalarField(g, vals)) == 0.0

    def test_annulus_closed_form(self):
        # theta = 1 on 1 < |x| < 4: integral of 1/|x|^2 is 2 pi log 4
        g = Grid(512, 16.0)
        d1, d2 = g.displacement(g.center)
        r = np.hypot(d1, d2)
        vals = ((r > 1.0) & (r < 4.0)).astype(float)
        got = tail_integral(ScalarField(g, vals))
        assert got == pytest.approx(2 * np.pi * np.log(4.0), rel=0.01)

    def test_domain_too_small_rejected(self):
        g = Grid(32, 2.0)
        with pytest.raises(ValueError):
            tail_integral(ScalarField(g, np.ones(g.shape)))

    def test_truncation_radius_reported(self):
        assert tail_truncation_radius(Grid(64, 12.0)) == 6.0

    def test_series_bounds_on_decaying_run(self):
        g = Grid(128, 4 * np.pi)
        theta0 = random_band_limited(g, 5, [41, 0, 0])
        cfg = SolverConfig(alpha=0.95, dt=5e-3, t_end=1.5)
        res = run(theta0, cfg, snapshot_times=np.linspace(0.0, 1.5, 16))
        series = tail_series(res.history, TAIL_CONSTANT, 0.95)
        assert all(e.passed for e in series)
        assert any(np.isfinite(e.bound_improved) for e in series)
        # the bounds scale with the first snapshot's L2 norm
        assert series[0].bound_basic == TAIL_CONSTANT * l2_norm(theta0)

    def test_frozen_constant_rederived_on_its_family(self):
        # the declared family: seeds 200-219, disjoint from the acceptance
        # seeds 100-119, each run to the calibration time t = 0.1
        grid = Grid(256)
        histories = []
        for s in range(200, 220):
            theta0 = random_band_limited(grid, 8, [s, 0, 0])
            cfg = SolverConfig(alpha=(0.9, 0.95, 1.0)[s % 3], dt=4e-3, t_end=0.1)
            histories.append(run(theta0, cfg, snapshot_times=[0.0, 0.1]).history)
        calibrated = calibrate_tail_constant(histories)
        assert calibrated == pytest.approx(2.4640220359057112, rel=1e-12)
        assert calibrated <= TAIL_CONSTANT < calibrated + 0.01

    def test_series_fails_when_mass_leaves_the_unit_ball(self):
        # a faint ring outside B_1 sets the constant at t = 0.1, while a
        # bump inside B_1 adds nothing; once the bump moves out past
        # |x| = 1 the tail exceeds 4 times its calibrated value
        g = Grid(256, 16.0)
        d1, d2 = g.displacement(g.center)
        r = np.hypot(d1, d2)
        ring = 0.005 * ((r > 1.5) & (r < 2.5))

        def snapshot(t, shift):
            b1, b2 = g.displacement((g.center[0] + shift, g.center[1]))
            q = (b1**2 + b2**2) / 0.64
            q = np.where(q < 1.0, q, np.nan)  # the bump's support is |x - shift| < 0.8
            bump = np.nan_to_num(np.exp(1.0 - 1.0 / (1.0 - q)))
            return ScalarField(g, ring + bump, t)

        times = np.linspace(0.1, 1.5, 8)
        for moves in (False, True):
            hist = [snapshot(t, 3.0 * (t - 0.1) / 1.4 if moves else 0.0) for t in times]
            constant = calibrate_tail_constant([hist])
            passed = [e.passed for e in tail_series(hist, constant, 0.95)]
            assert passed[:2] == [True, True]
            assert all(passed) != moves


class TestOscillation:
    def setup_method(self):
        self.grid = Grid(256, 4 * np.pi)
        self.center = (2 * np.pi, 2 * np.pi)
        x1, _ = self.grid.coordinates()
        self.history = [
            ScalarField(self.grid, np.sin(x1 - self.center[0]), t)
            for t in np.linspace(0.0, 1.0, 9)
        ]

    def test_constant_field(self):
        hist = [ScalarField(self.grid, np.full(self.grid.shape, 2.2), t)
                for t in np.linspace(0, 1, 5)]
        cyl = ParabolicCylinder(1.0, 0.95)
        assert oscillation(hist, cyl) == 0.0

    def test_frozen_sine_monotone_extremes(self):
        # sin is increasing on [-1, 1]: oscillation over B_1 is 2 sin(1)
        # up to node placement within one spacing of the ball boundary
        cyl = ParabolicCylinder(1.0, 0.95)
        got = oscillation(self.history, cyl)
        expected = 2 * np.sin(1.0)
        assert got <= expected + 1e-12
        assert got >= expected - 2 * np.cos(1.0) * self.grid.spacing * 1.5

    def test_nested_monotone(self):
        cyl = ParabolicCylinder(1.0, 0.95)
        half = ParabolicCylinder(0.5, 0.95)
        assert oscillation(self.history, half) <= oscillation(self.history, cyl)

    def test_history_must_cover_interval(self):
        cyl = ParabolicCylinder(1.0, 0.95)  # needs t in (0, 1]
        with pytest.raises(ValueError, match="cover"):
            oscillation(self.history[1:], cyl)
        with pytest.raises(ValueError, match="cover"):
            oscillation(self.history[:-1], cyl)

    def test_resolution_precondition(self):
        cyl = ParabolicCylinder(0.1, 0.95)
        with pytest.raises(ValueError, match="resolve"):
            oscillation(self.history, cyl)

    def test_window_keeps_the_start_slice_the_oscillation_drops(self):
        # Q_1 = B_1 x (0, 1]: the window holds the t = 0 slice, but a spike
        # there does not enter the oscillation
        cyl = ParabolicCylinder(1.0, 0.95)
        assert [f.time_stamp for f in cyl.window(self.history)] == list(np.linspace(0, 1, 9))
        spiked = [ScalarField(self.grid, np.full(self.grid.shape, 5.0), 0.0)] + self.history[1:]
        assert oscillation(spiked, cyl) == oscillation(self.history, cyl)


class TestVelocitySplit:
    def test_compact_support_in_inner_ball(self):
        g = Grid(256, 16 * np.pi)
        c = (8 * np.pi, 8 * np.pi)
        d1, d2 = g.displacement(c)
        r2 = d1**2 + d2**2
        vals = np.zeros(g.shape)
        inside = r2 < 1.9**2
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside] / 1.9**2))
        sp = VelocitySplit(ScalarField(g, vals), 1.0 / 8.0)
        h = g.spacing
        node = (round((c[0] + 0.5) / h) * h, round(c[1] / h) * h)
        assert np.allclose(sp.w2(node), 0.0)
        assert np.allclose(sp.w3(node), 0.0)
        assert np.allclose(sp.w_bar, 0.0)

    def test_sum_matches_spectral_oracle(self):
        # theta supported in 2.5 < |x| < 6 on a large torus: the near field
        # over B_2 vanishes at B_1 nodes, periodization images are small,
        # and the slow pieces plus w_bar reassemble the spectral velocity
        L, N = 16 * np.pi, 512
        g = Grid(N, L)
        d1, d2 = g.displacement(g.center)
        r = np.hypot(d1, d2)
        mid, half = 4.25, 1.75
        env = np.zeros(g.shape)
        m = np.abs(r - mid) < half
        env[m] = np.exp(1.0 - 1.0 / (1.0 - ((r[m] - mid) / half) ** 2))
        vals = env * np.sin(1.5 * d1) * np.cos(2.2 * d2)
        vals -= vals.mean()
        theta = ScalarField(g, vals)
        w = riesz_velocity(theta)
        h = g.spacing
        ii, jj = np.where(r <= 1.0)
        sel = slice(0, len(ii), max(1, len(ii) // 40))
        # rho = 1/8: theta lies in the annulus; rho = 1/2: B_4 cuts it into
        # annulus and far parts
        for rho in (1.0 / 8.0, 0.5):
            sp = VelocitySplit(theta, rho)
            errs, norms = [], []
            for i, j in zip(ii[sel], jj[sel]):
                p = (i * h, j * h)
                s = sp.w2(p) + sp.w3(p)
                target = np.array([w.u[i, j], w.v[i, j]]) - sp.w_bar
                errs.append(np.hypot(*(s - target)))
                norms.append(np.hypot(*target))
            rel = np.sqrt(np.mean(np.square(errs))) / np.sqrt(np.mean(np.square(norms)))
            assert rel <= 0.02, rho

    def test_rho_validated(self):
        g = Grid(64, 16.0)
        theta = random_band_limited(g, 4, [43, 0, 0])
        with pytest.raises(ValueError):
            VelocitySplit(theta, 1.5)

    def test_truncation_flagged(self):
        g = Grid(64, 16.0)
        theta = random_band_limited(g, 4, [44, 0, 0])
        sp = VelocitySplit(theta, 1.0 / 16.0)  # B_32 overflows
        assert sp.truncated

    def test_admissible_family_bounds_with_frozen_constant(self):
        # reduced sweep of the calibration family: the frozen constant
        # bounds sup|w2| / (-log rho) and sup|w3| / rho.  rho = 1/16 is the
        # iteration's rho; its domain is wide enough (half-side 40 > 32)
        # that B_{2/rho} fits and the far region, hence w3, is non-empty
        for grid, rho in ((Grid(512, 20.0), 0.25), (Grid(1024, 80.0), 1.0 / 16.0)):
            pts = _bound_sample_points(grid, 3)
            for i in range(3):
                theta = admissible_field(grid, 0.1, [77, 3, i])
                sp = VelocitySplit(theta, rho)
                assert not sp.far_empty and not sp.truncated
                s2, s3 = sp.sup_slow_components(pts)
                assert s2 <= SPLIT_BOUND_CONSTANT * (-np.log(rho))
                assert 0.0 < s3 <= SPLIT_BOUND_CONSTANT * rho

    def test_frozen_constant_covers_calibration(self):
        # the full calibration sweep, re-derived: it gives the value the
        # constant was frozen from, and the frozen constant still bounds it
        calibrated = calibrate_split_bound_constant()
        assert calibrated == pytest.approx(0.09888352624503059, rel=1e-12)
        assert calibrated <= SPLIT_BOUND_CONSTANT

    def test_sample_nodes_are_indices_near_the_rings(self):
        # the centre node and PER_RING_SAMPLES nodes per ring, each within
        # half a diagonal spacing of its ring point
        g = Grid(256, 4 * np.pi)
        nodes = _bound_sample_points(g, 3)
        assert nodes == sorted(set(nodes))
        assert all(isinstance(i, int) and 0 <= i < g.n for ij in nodes for i in ij)
        assert len(nodes) == 1 + 3 * oscillation_module.PER_RING_SAMPLES
        h = g.spacing
        r = [np.hypot(i * h - g.center[0], j * h - g.center[1]) for i, j in nodes]
        assert min(r) <= h
        for q in (1, 2, 3):
            near = [x for x in r if abs(x - q / 4) <= h]
            assert len(near) == oscillation_module.PER_RING_SAMPLES

    @settings(max_examples=12, deadline=None)
    @given(
        case=st.sampled_from(
            [
                (128, 4 * np.pi, None),
                (128, 4 * np.pi, 0.25),  # B_8 overflows, corners are far
                (256, 80.0, 1.0 / 16.0),  # B_32 fits: far region non-empty
                (128, 16 * np.pi, 1.0 / 16.0),
            ]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_node_sups_match_direct_sums(self, case, seed):
        # the correlation route at nodes equals the direct kernel sums
        n, side, rho = case
        g = Grid(n, side)
        theta = random_band_limited(g, 8, [seed, 0, 0])
        sp = VelocitySplit(theta, rho)
        nodes = _bound_sample_points(g, 3)
        h = g.spacing
        direct = np.array(
            [[np.hypot(*sp.w2((i * h, j * h))), np.hypot(*sp.w3((i * h, j * h)))]
             for i, j in nodes]
        )
        scale = direct.max(axis=0)
        assert sp.sup_slow_components(nodes) == pytest.approx(tuple(scale), rel=1e-12)
        for ij, want in zip(nodes, direct):
            got = np.array(sp.sup_slow_components([ij]))
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert (scale[1] == 0.0) == sp.far_empty

    def test_node_sums_at_rounded_antipodes(self):
        # on a 4 pi grid, the raw minimal-image formula rounds the antipodal
        # offset of some nodes to +L/2; offsets puts every antipode at -L/2
        # (up to the last bit), where the kernel spectrum holds it, so the
        # correlation route and the direct sum agree at those nodes
        g = Grid(128, 4 * np.pi)
        h, n, L = g.spacing, g.n, g.side_length
        raw = [(np.arange(n) * h - q * h + 0.5 * L) % L - 0.5 * L for q in range(n)]
        flipped = [q for q in range(n) if raw[q][(q + n // 2) % n] > 0]
        assert flipped
        antipodes = np.array([g.offsets(q * h)[(q + n // 2) % n] for q in range(n)])
        assert np.all(antipodes[flipped] == -0.5 * L)
        assert np.all(np.abs(antipodes + 0.5 * L) <= 1e-9 * h)
        theta = random_band_limited(g, 8, [46, 0, 0])
        sp = VelocitySplit(theta, None)
        for i, j in [(flipped[0], flipped[-1]), (flipped[0], 0), (0, flipped[-1])]:
            want = np.hypot(*sp.w2((i * h, j * h)))
            assert sp.sup_slow_components([(i, j)])[0] == pytest.approx(want, rel=1e-12)

    def test_far_piece_recentred_by_w_bar(self):
        # w3 vanishes at the domain centre and w_bar is the far sum there
        g = Grid(256, 80.0)
        theta = random_band_limited(g, 8, [47, 0, 0])
        sp = VelocitySplit(theta, 1.0 / 16.0)
        assert not sp.far_empty and np.all(sp.w_bar != 0.0)
        assert np.max(np.abs(sp.w3(g.center))) <= 1e-15 * np.max(np.abs(sp.w_bar))


class TestRecenterFlow:
    def test_zero_velocity(self):
        path = recenter_flow(lambda v, t: np.zeros(2), 1.0, t_start=0.9, steps=64)
        assert path.max_abs == 0.0

    def test_needs_a_step(self):
        with pytest.raises(ValueError, match="steps"):
            recenter_flow(lambda v, t: np.zeros(2), 1.0, t_start=0.9, steps=0)

    def test_constant_velocity_exact(self):
        path = recenter_flow(lambda v, t: np.array([0.7, 0.0]), 2.0, t_start=0.5, steps=64)
        for t in (0.5, 0.75, 1.0):
            assert path.at(t)[0] == pytest.approx(2.0 * 0.7 * (t - 1.0), abs=1e-14)
        assert path.max_abs == pytest.approx(0.7, rel=1e-12)

    def test_step_halving_self_convergence(self):
        # slow-component scale of the actual suite: |w| = O(0.05); compare
        # at the shared sample times so path interpolation does not enter
        def w(v, t):
            return np.array(
                [0.05 * np.sin(t + v[1]), 0.04 * np.cos(2 * t) * v[0] - 0.02]
            )

        a = recenter_flow(w, 1.0, t_start=0.5, steps=64)
        b = recenter_flow(w, 1.0, t_start=0.5, steps=128)
        diff = max(np.max(np.abs(a.at(t) - b.at(t))) for t in a.times)
        assert diff < 1e-8

    def test_flow_bound_from_slow_components(self):
        # |V| <= M (sup|w2| + sup|w3|) rho^alpha: the displacement bound
        # that feeds the containment constraint
        rho, alpha, M = 1.0 / 16.0, 0.95, 1.3

        def w(v, t):
            return np.array([0.04 * np.cos(t), -0.03])

        path = recenter_flow(w, M, t_start=1 - rho**alpha, steps=64)
        assert path.max_abs <= M * 0.05 * rho**alpha * 1.001


class TestRescaleRecenter:
    def setup_method(self):
        self.L = 4 * np.pi
        self.grid = Grid(256, self.L)
        self.center = (self.L / 2, self.L / 2)
        self.rho = 1.0 / 16.0
        self.alpha = 0.95
        self.cyl = ParabolicCylinder(self.rho, self.alpha)
        w = self.rho**self.alpha
        self.path = RecenterPath(
            times=np.array([1 - w, 1.0]), points=np.zeros((2, 2))
        )
        self.times = np.linspace(1 - w, 1.0, 6)

    def test_constant_field_maps_to_zero(self):
        hist = [ScalarField(self.grid, np.full(self.grid.shape, 0.42), t) for t in self.times]
        new, out = rescale_recenter(hist, self.cyl, self.path, 0.42, 0.1, 1.0)
        assert max(np.max(np.abs(f.values)) for f in new) < 1e-12
        assert out.hypothesis_ok and out.outside_ok

    def test_natural_scaling_keeps_M(self):
        hist = [ScalarField(self.grid, np.full(self.grid.shape, 0.1), t) for t in self.times]
        _, out = rescale_recenter(hist, self.cyl, self.path, 0.1, 0.05, 1.7)
        assert out.M_next == pytest.approx(1.7, rel=1e-14)
        assert out.M_monotone

    def test_extremal_oscillation_attains_bound(self):
        # cosine with half-period 32 cells: extremes sit on nodes inside
        # B_rho, so osc(Q_rho) = 2 rho^delta exactly and the produced field
        # attains |theta_next| = 1
        delta = 0.1
        x1, _ = self.grid.coordinates()
        k = 2 * np.pi * 128 / self.L
        vals = self.rho**delta * np.cos(k * (x1 - self.center[0]))
        hist = [ScalarField(self.grid, vals, t) for t in self.times]
        new, out = rescale_recenter(hist, self.cyl, self.path, 0.0, delta, 1.0)
        assert out.hypothesis_ok
        lo, hi = out.inside_range
        assert max(hi, -lo) == pytest.approx(1.0, abs=1e-9)

    def test_time_relabeling(self):
        hist = [ScalarField(self.grid, np.zeros(self.grid.shape), t) for t in self.times]
        new, _ = rescale_recenter(hist, self.cyl, self.path, 0.0, 0.1, 1.0)
        got = np.array([f.time_stamp for f in new])
        expected = 1.0 - (1.0 - self.times) / self.rho**self.alpha
        assert np.allclose(got, expected, atol=1e-12)

    def test_one_shot_generator_matches_list(self):
        # a snapshot before the window as well, which is read and dropped
        x1, x2 = self.grid.coordinates()
        times = np.concatenate([[0.5], self.times])

        def snapshot(t):
            return ScalarField(self.grid, 0.3 * np.sin(x1 + t) * np.cos(x2 - 2 * t), t)

        args = (self.cyl, self.path, 0.01, 0.1, 1.0)
        from_list, out_list = rescale_recenter([snapshot(t) for t in times], *args)
        handed_out = []

        def one_shot():
            for t in times:
                # only the snapshot being rescaled may outlive its turn
                assert all(r() is None for r in handed_out[:-1])
                f = snapshot(t)
                handed_out.append(weakref.ref(f))
                yield f

        from_gen, out_gen = rescale_recenter(one_shot(), *args)
        assert len(handed_out) == len(times)
        assert all(r() is None for r in handed_out)
        assert out_gen == out_list
        assert len(from_gen) == len(from_list) == len(self.times)
        for a, b in zip(from_gen, from_list):
            assert a.time_stamp == b.time_stamp
            assert np.array_equal(a.values, b.values)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty history"):
            rescale_recenter(iter([]), self.cyl, self.path, 0.0, 0.1, 1.0)
        early = [ScalarField(self.grid, np.zeros(self.grid.shape), 0.5)]
        with pytest.raises(ValueError, match="no snapshots"):
            rescale_recenter(iter(early), self.cyl, self.path, 0.0, 0.1, 1.0)


def decaying_mode_history():
    """The analytically decaying mode sin(x1 - L/2) e^-t on the nested
    three-step schedule at alpha = 0.95, normalized; returns (history, M)."""
    L = 4 * np.pi
    g = Grid(256, L)
    x1, _ = g.coordinates()
    times = iteration_snapshot_times(1.0, 1 / 16, 0.95, steps=3, per_window=10)
    times = np.concatenate([[0.0], times[times > 0]])
    raw = [ScalarField(g, np.exp(-t) * np.sin(x1 - L / 2), t) for t in times]
    return normalize_window(raw, t_end=1.0)


def pin_delta(monkeypatch, delta):
    """Make the suite's step-1 choice of delta return ``delta``."""
    monkeypatch.setattr(oscillation_module, "choose_delta", lambda rho, eta: delta)


class TestIterationSuite:
    def test_zero_field_degenerate_success(self):
        g = Grid(256, 4 * np.pi)
        hist = [ScalarField(g, np.zeros(g.shape), t) for t in np.linspace(0, 1, 13)]
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=1.0, alpha=0.95, steps=3))
        assert res.completed_steps == 0
        assert "degenerate success" in res.failure
        assert res.passed is False

    def test_no_steps_rejected(self):
        # with no step the verdict would hold vacuously
        with pytest.raises(ValueError, match="steps"):
            IterationConfig(rho=1 / 16, M=1.0, alpha=0.95, steps=0)

    def test_stops_at_false_M_monotone(self, monkeypatch):
        # delta = 0.01 < eps = 0.05: M_next = rho^(delta - eps) M_k grows,
        # while the other three bounds hold at step 1
        pin_delta(monkeypatch, 0.01)
        hist, M = decaying_mode_history()
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=3))
        assert res.completed_steps == 1
        assert "M monotone" in res.failure and "step 1" in res.failure
        assert res.passed is False
        assert not res.records[-1].bounds.M_monotone

    def test_M_monotone_fails_beyond_the_slight_supercriticality(self):
        # physical negative control: the iteration_256 seed-42 data at
        # alpha = 0.8.  At rho = 1/16 the oscillation floor 2/3 caps delta
        # at 0.1462, below eps = 0.2, so M_next = rho^(delta - eps) M_k
        # grows while the other three bounds hold: the paper's "slightly
        # supercritical" quantifier, seen failing
        alpha, rho, t_end = 0.8, 1 / 16, 1.25
        grid = Grid(256, 4 * np.pi)
        theta0 = random_band_limited(grid, 6, [42, 0, 0], amplitude=2.0)
        sched = iteration_snapshot_times(t_end, rho, alpha, steps=1, per_window=12)
        sched = np.concatenate([[t_end - 1.0], sched[sched > t_end - 1.0]])
        cfg = SolverConfig(alpha=alpha, dt=4e-3, t_end=t_end)
        hist, M = normalize_window(run(theta0, cfg, snapshot_times=sched).history, t_end)
        res = run_iteration_suite(
            hist,
            IterationConfig(
                rho=rho, M=M, alpha=alpha, steps=1, ode_step_divisor=16, bound_sample_rings=2
            ),
        )
        assert res.failure == "M monotone failed at step 1"
        assert 0.0 < res.delta < 1.0 - alpha
        (rec,) = res.records
        assert rec.bounds.hypothesis_ok and rec.containment_ok and rec.bounds.outside_ok
        assert rec.bounds.M_next > rec.M_k

    def test_stops_at_false_split_bound(self, monkeypatch):
        # on Grid(1024, 64) B_{2/rho} = B_32 fits and the corners hold far
        # nodes.  theta = x1 exp(-|x|^2 / 2) / 2, frozen in time, is zoomed
        # with delta = 1 into theta_2 ~ x1 exp(-|x|^2 / 512) / 2: at most 1/2
        # on B_1 but growing like x1 out to |x| ~ 16, so sup|w2| at step 2
        # is about 4.4, far above C log 16 = 0.42, while hypothesis,
        # containment and outer bound hold at both steps
        g = Grid(1024, 64.0)
        d1, d2 = g.displacement(g.center)
        theta = 0.5 * d1 * np.exp(-(d1**2 + d2**2) / 2)
        times = iteration_snapshot_times(1.0, 1 / 16, 0.95, steps=2, per_window=4)
        hist = [ScalarField(g, theta, t) for t in np.concatenate([[0.0], times[times > 0]])]
        pin_delta(monkeypatch, 1.0)
        res = run_iteration_suite(
            hist, IterationConfig(rho=1 / 16, M=1.0, alpha=0.95, steps=2, ode_step_divisor=2)
        )
        assert res.failure.startswith("split bound") and res.failure.endswith("step 2")
        assert res.passed is False
        first, second = res.records
        assert first.split_bound_ok is None and second.split_bound_ok is False
        assert not second.truncated_split and not second.far_empty
        assert second.containment_ok and second.bounds.hypothesis_ok and second.bounds.outside_ok
        assert second.w2_sup > 5 * SPLIT_BOUND_CONSTANT * np.log(16)

    def test_stops_at_false_containment(self):
        # M = 1e3 drives the recentering shift past 1/2 - rho at step 2
        hist, _ = decaying_mode_history()
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=1e3, alpha=0.95, steps=3))
        assert res.completed_steps == 2
        assert "containment" in res.failure and "step 2" in res.failure
        assert res.passed is False
        assert res.records[0].containment_ok and not res.records[1].containment_ok

    def test_stops_at_false_hypothesis(self, monkeypatch):
        # a frozen bump of height 1 at the centre: the midrange over Q_1/2
        # is near 1/2, so |theta - m| ~ 1/2 > rho^delta = 1/4 on Q_rho
        g = Grid(256, 4 * np.pi)
        d1, d2 = g.displacement(g.center)
        bump = np.exp(-(d1**2 + d2**2) / (2 * 0.15**2))
        raw = [ScalarField(g, bump, t) for t in np.linspace(0, 1, 13)]
        hist, M = normalize_window(raw, t_end=1.0)
        pin_delta(monkeypatch, 0.5)
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=3))
        assert res.completed_steps == 1
        assert "decay hypothesis" in res.failure and "step 1" in res.failure
        assert res.passed is False

    def test_stops_at_false_outer_bound(self, monkeypatch):
        # only the flag is flipped: at step 1, |theta| <= 1 and
        # rho^-delta <= 3/2 keep the outer ratio below 1 on any input
        rescale = oscillation_module.rescale_recenter

        def outer_bound_fails(*args):
            new_history, outcome = rescale(*args)
            return new_history, dataclasses.replace(outcome, outside_ok=False)

        monkeypatch.setattr(oscillation_module, "rescale_recenter", outer_bound_fails)
        hist, M = decaying_mode_history()
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=3))
        assert res.completed_steps == 1
        assert "outer bound" in res.failure and "step 1" in res.failure
        assert res.passed is False

    def test_each_generation_is_freed_once_its_successor_exists(self, monkeypatch):
        rescale = oscillation_module.rescale_recenter
        generations, alive = [], []

        def recording(*args):
            new_history, outcome = rescale(*args)
            if generations:
                alive.append(sum(r() is not None for r in generations[-1]))
            generations.append([weakref.ref(f) for f in new_history])
            return new_history, outcome

        monkeypatch.setattr(oscillation_module, "rescale_recenter", recording)
        hist, M = decaying_mode_history()
        given_snapshots = list(hist)
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=3))
        assert res.passed, res.failure
        assert len(generations) == 3 and all(generations)
        # the iterates of steps 1 and 2, as the rescales of steps 2 and 3 return
        assert alive == [0, 0]
        assert len(hist) == len(given_snapshots)
        assert all(a is b for a, b in zip(hist, given_snapshots))

    def test_recorded_oscillation_is_the_produced_range_on_B1(self, monkeypatch):
        # recomputed here over every produced slice, t' = 0 included
        rescale = oscillation_module.rescale_recenter
        produced = []

        def recording(*args):
            new_history, outcome = rescale(*args)
            g = new_history[0].grid
            d1, d2 = g.displacement(g.center)
            inside = d1 * d1 + d2 * d2 < 1.0
            values = np.stack([f.values[inside] for f in new_history])
            produced.append(float(values.max() - values.min()))
            return new_history, outcome

        monkeypatch.setattr(oscillation_module, "rescale_recenter", recording)
        hist, M = decaying_mode_history()
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=3))
        assert res.passed, res.failure
        assert [rec.oscillation for rec in res.records] == produced
        assert len(produced) == 3 and all(osc > 0.0 for osc in produced)

    def test_uncovered_frame_is_a_structured_failure(self):
        # a first stamp past the coverage slack of 1e-9: Q_1 cannot be
        # measured, and the suite reports so instead of raising
        g = Grid(256, 4 * np.pi)
        x1, _ = g.coordinates()
        raw = [ScalarField(g, np.sin(x1 - 2 * np.pi), t) for t in np.linspace(0, 1, 13)]
        hist, M = normalize_window(raw, t_end=1.0)
        hist[0] = ScalarField(g, hist[0].values, 2e-9)
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=3))
        assert res.completed_steps == 0
        assert "does not cover" in res.failure and "step 1" in res.failure
        assert res.passed is False

    def test_no_improvement_at_step_1_is_a_structured_failure(self, monkeypatch):
        # equal oscillations on Q_1 and Q_1/2 give eta = 0: choose_delta
        # finds no exponent, and the suite ends before any record
        monkeypatch.setattr(oscillation_module, "oscillation", lambda history, cyl: 0.5)
        hist, M = decaying_mode_history()
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=3))
        assert res.completed_steps == 0
        assert np.isnan(res.delta)
        assert "no oscillation improvement" in res.failure and "step 1" in res.failure
        assert res.passed is False

    def test_normalization_preconditions_enforced(self):
        g = Grid(256, 4 * np.pi)
        hist = [ScalarField(g, np.full(g.shape, 1.5), t) for t in np.linspace(0, 1, 13)]
        with pytest.raises(ValueError, match="normalized"):
            run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=1.0, alpha=0.95))

    def test_frozen_decaying_mode_geometric_decay(self):
        # analytically decaying single mode pushed through the pipeline:
        # every bookkeeping bound holds and the fitted exponent is positive
        alpha = 0.95
        hist, M = decaying_mode_history()
        res = run_iteration_suite(
            hist, IterationConfig(rho=1 / 16, M=M, alpha=alpha, steps=3)
        )
        assert res.completed_steps == 3, res.failure
        assert res.passed
        assert res.fitted_decay_exponent > 0
        # delta is the ledger's choice from the step-1 improvement
        assert res.delta == choose_delta(1 / 16, res.records[0].eta)
        rho_a = (1 / 16) ** alpha
        for rec in res.records:
            assert rec.containment_ok
            assert rec.bounds.hypothesis_ok
            assert rec.bounds.outside_ok
            assert rec.split_bound_ok is (None if rec.step_index == 1 else True)
            assert rec.bounds.M_monotone
            # the flow displacement obeys the measured slow-component bound
            # M (sup|w2| + sup|w3|) rho^alpha that feeds the containment
            # constraint -C rho^alpha log rho + C rho^(1+alpha) + rho <= 1/2
            assert rec.max_shift <= rec.M_k * (rec.w2_sup + rec.w3_sup) * rho_a * 1.01
        oscs = [rec.raw_oscillation for rec in res.records]
        assert all(a > b for a, b in zip(oscs, oscs[1:]))

    def test_report_lines_are_json(self):
        g = Grid(256, 4 * np.pi)
        x1, _ = g.coordinates()
        times = np.linspace(0, 1, 13)
        raw = [ScalarField(g, np.exp(-t) * np.sin(x1 - 2 * np.pi), t) for t in times]
        hist, M = normalize_window(raw, t_end=1.0)
        res = run_iteration_suite(hist, IterationConfig(rho=1 / 16, M=M, alpha=0.95, steps=1))
        assert res.completed_steps == 1 and res.passed
        for line in res.report_lines():
            blob = json.loads(line)
            assert {"k", "r_k", "osc", "max_V", "M_k", "far_empty", "split_bound_ok"} <= set(blob)

    def test_far_empty_reported_apart_from_truncation(self, monkeypatch):
        # rho = 1/4 on a 4 pi torus: from step 2 on, B_8 overflows the
        # half-side 2 pi (truncated) but the corners, out to 2 pi sqrt(2),
        # still hold far nodes; step 1's two-piece split has no far piece.
        # rho exceeds the ledger's cap, where choose_delta has no value, so
        # delta is pinned
        L, rho, alpha = 4 * np.pi, 0.25, 0.95
        g = Grid(256, L)
        x1, _ = g.coordinates()
        times = iteration_snapshot_times(1.0, rho, alpha, steps=2, per_window=8)
        times = np.concatenate([[0.0], times[times > 0]])
        raw = [ScalarField(g, np.exp(-t) * np.sin(x1 - L / 2), t) for t in times]
        hist, M = normalize_window(raw, t_end=1.0)
        pin_delta(monkeypatch, 0.1)
        res = run_iteration_suite(
            hist, IterationConfig(rho=rho, M=M, alpha=alpha, steps=2, ode_step_divisor=8)
        )
        assert res.completed_steps == 2, res.failure
        assert res.passed
        first, second = [json.loads(line) for line in res.report_lines()]
        assert first["far_empty"] and not first["truncated_split"]
        assert not second["far_empty"] and second["truncated_split"]
        assert second["w3_sup"] > 0.0


class TestNaturalScalingCovariance:
    def test_evolve_then_scale_equals_scale_then_evolve(self):
        # lambda = 2 keeps the scaled field on the same torus (mode lattice
        # doubles), so the covariance is exact up to integrator error
        g = Grid(256, 2 * np.pi)
        alpha = 0.95
        eps = 1 - alpha
        theta0 = random_band_limited(g, 6, [3, 0, 0], amplitude=1.0)
        lam, T = 2.0, 0.2

        def decimate(f):
            idx = (np.arange(f.grid.n) * 2) % f.grid.n
            return f.values[np.ix_(idx, idx)]

        cfg_a = SolverConfig(alpha=alpha, dt=1e-3, t_end=lam**alpha * T)
        path_a = lam ** (-eps) * decimate(run(theta0, cfg_a).final)
        scaled0 = ScalarField(g, lam ** (-eps) * decimate(theta0))
        cfg_b = SolverConfig(alpha=alpha, dt=1e-3, t_end=T)
        path_b = run(scaled0, cfg_b).final.values
        rel = np.sqrt(np.mean((path_a - path_b) ** 2)) / np.sqrt(np.mean(path_b**2))
        assert rel <= 1e-8
