"""Constant-selection system: rho, delta, the closing polynomial bound."""

import numpy as np
import pytest
from scipy.optimize import brentq

from sqgdiag.constants import (
    InfeasibleConstants,
    RHO_CAP,
    RHO_FLOOR,
    build_ledger,
    choose_delta,
    choose_rho,
    rho_feasible,
)


class TestChooseRho:
    def test_unconstrained_returns_cap(self):
        assert choose_rho(0.0, 0.0, 1.0) == RHO_CAP

    def test_first_constraint_binding_at_cap(self):
        # 7 rho + rho = 1/2 solves to rho = 1/16 exactly: both the linear
        # constraint and the cap bind simultaneously
        assert choose_rho(7.0, 0.0, 1.0) == RHO_CAP

    def test_bisection_against_root_finder(self):
        L, C, alpha = 0.0, 5.0, 0.95
        rho = choose_rho(L, C, alpha)
        root = brentq(
            lambda x: -C * x**alpha * np.log(x) + C * x ** (1 + alpha) + x - 0.5,
            1e-10,
            RHO_CAP,
        )
        assert rho == pytest.approx(root, abs=1e-11)

    def test_output_satisfies_constraints_by_substitution(self):
        for L, C, alpha in [(0.5, 1.0, 0.95), (3.0, 2.0, 0.9), (0.0, 8.0, 1.0)]:
            rho = choose_rho(L, C, alpha)
            assert rho_feasible(rho, L, C, alpha)

    def test_monotone_in_inputs(self):
        alpha = 0.95
        rhos_L = [choose_rho(L, 1.0, alpha) for L in (0.0, 1.0, 5.0, 20.0)]
        assert all(a >= b for a, b in zip(rhos_L, rhos_L[1:]))
        rhos_C = [choose_rho(1.0, C, alpha) for C in (0.0, 1.0, 5.0, 20.0)]
        assert all(a >= b for a, b in zip(rhos_C, rhos_C[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            choose_rho(-1.0, 0.0, 0.9)
        with pytest.raises(ValueError):
            choose_rho(0.0, 0.0, 1.5)

    @pytest.mark.parametrize("L,C", [(1e15, 0.0), (0.0, 1e15)])
    def test_huge_constant_infeasible(self, L, C):
        # even rho = RHO_FLOOR breaks a containment bound
        assert not rho_feasible(RHO_FLOOR, L, C, 0.95)
        with pytest.raises(InfeasibleConstants, match="no feasible rho"):
            choose_rho(L, C, 0.95)


class TestChooseDelta:
    def test_closed_form(self):
        delta = choose_delta(1.0 / 16.0, 0.1)
        assert delta == pytest.approx(np.log(0.9) / np.log(1.0 / 16.0), rel=1e-12)

    def test_floor_binds_for_large_eta(self):
        delta = choose_delta(1.0 / 16.0, 0.999)
        assert delta == pytest.approx(np.log(2.0 / 3.0) / np.log(1.0 / 16.0), rel=1e-12)

    def test_eta_above_one_rejected(self):
        # a measured eta = 1 - osc(Q_1/2)/osc(Q_1) is at most 1; eta = 1
        # (zero oscillation on Q_1/2) still builds a ledger
        floor = np.log(2.0 / 3.0) / np.log(1.0 / 16.0)
        assert choose_delta(1.0 / 16.0, 1.0) == pytest.approx(floor, rel=1e-12)
        led = build_ledger(L=0.7, C=1.2, alpha=0.95, eta=1.0, M=1.0)
        assert led.delta == pytest.approx(floor, rel=1e-12)
        for eta in (1.0 + 1e-12, 1.5, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="at most 1"):
                choose_delta(1.0 / 16.0, eta)

    def test_no_improvement_infeasible(self):
        # below eta ~ 5.5e-17, 1 - eta rounds to 1: no positive exponent
        for eta in (-0.1, 0.0, 1e-17, 5e-17):
            with pytest.raises(InfeasibleConstants, match="no oscillation improvement"):
                choose_delta(1.0 / 16.0, eta)

    @pytest.mark.parametrize("eta", [1.2e-16, 1e-9, 2e-8])
    def test_tiny_improvement_builds_a_ledger(self, eta):
        led = build_ledger(L=0.7, C=1.2, alpha=0.95, eta=eta, M=1.0)
        assert led.delta > 0.0
        assert led.rho**led.delta < 1.0

    def test_amplitude_cap_automatic(self):
        for eta in (0.05, 0.3, 0.9):
            for rho in (1.0 / 16.0, 1.0 / 64.0):
                delta = choose_delta(rho, eta)
                assert rho ** (-delta) <= 2.0 + 1e-12

    def test_monotone_in_improvement(self):
        deltas = [choose_delta(1.0 / 16.0, eta) for eta in (0.05, 0.1, 0.2, 0.33)]
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))


class TestClosingInequality:
    def test_sweep_majorant_below_one(self):
        # the two facts of the module's proof: 4 rho <= sqrt(rho) gives
        # (4 rho)^delta <= x = rho^(delta/2), and the polynomial
        # x (3/2 - x^2/2) on (0, 1) stays below its maximum value 1 at x = 1
        rhos = np.linspace(1e-6, 1.0 / 16.0, 100)
        deltas = np.linspace(1e-6, 10.0, 100)
        R, D = np.meshgrid(rhos, deltas)
        X = R ** (D / 2.0)
        assert np.all((4.0 * R) ** D <= X * (1.0 + 1e-15))
        majorant = X * (1.5 - 0.5 * X**2)
        assert np.all(majorant < 1.0)
        assert np.all(X * (1.5 - 0.5 * X * X) <= X.max() * 1.5)


class TestLedger:
    def test_build_order_and_feasibility(self):
        led = build_ledger(L=0.7, C=1.2, alpha=0.95, eta=0.2, M=1.0)
        assert led.rho == RHO_CAP
        assert rho_feasible(led.rho, led.L, led.C_step, led.alpha)
        assert led.delta == choose_delta(RHO_CAP, 0.2)
        assert led.alpha + led.epsilon == pytest.approx(1.0)

    def test_feasibility_by_direct_substitution(self):
        led = build_ledger(L=2.0, C=3.0, alpha=0.9, eta=0.4, M=2.0)
        rho, delta = led.rho, led.delta
        assert led.L * rho**led.alpha + rho <= 0.5
        assert -led.C_step * rho**led.alpha * np.log(rho) + led.C_step * rho ** (
            1 + led.alpha
        ) + rho <= 0.5
        assert rho <= 1.0 / 16.0
        assert rho**delta >= max(1.0 - led.eta, 2.0 / 3.0) - 1e-12
        assert rho ** (-delta) <= 2.0

    def test_json_round_trip(self):
        import json

        led = build_ledger(L=0.5, C=0.5, alpha=1.0, eta=0.3, M=1.0)
        blob = json.loads(led.to_json())
        assert blob["rho"] == led.rho
        assert set(blob) == {"epsilon", "alpha", "L", "C_step", "M", "eta", "rho", "delta"}

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_ledger(L=np.inf, C=0.0, alpha=0.9, eta=0.1, M=1.0)
