"""Acceptance suite: every exit criterion, one printed line each.

Criteria 2-5 share one 20-run ensemble (random band-limited data at
alpha in {0.9, 0.95, 1.0}, N = 256, t_end = 2) built once per session.
"""

import time

import numpy as np
import pytest

from sqgdiag.constants import build_ledger, choose_delta, choose_rho, rho_feasible
from sqgdiag.degiorgi import (
    ISOPERIMETRIC_CONSTANT,
    LOCAL_ENERGY_CONSTANT,
    WeightedRegion,
    extension_cutoff,
    linear_reference_profile,
    local_energy_check,
    weighted_measure,
)
from sqgdiag.extension import calibrate_dtn_constant, extend, neumann_trace, trace_ladder
from sqgdiag.harness import isoperimetric_report
from sqgdiag.oscillation import (
    SPLIT_BOUND_CONSTANT,
    TAIL_CONSTANT,
    IterationConfig,
    iteration_snapshot_times,
    normalize_window,
    run_iteration_suite,
    tail_series,
)
from sqgdiag.solver import SolverConfig, audit_energy, check_linf_decay, run
from sqgdiag.spectral import (
    Grid,
    ScalarField,
    fractional_laplacian,
    l2_norm,
    random_band_limited,
    riesz_velocity,
)

SEGMENT_AREA = np.pi / 3 - np.sqrt(3) / 4


def report(number, passed, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {number}: {text}"


ENSEMBLE_ALPHAS = (0.9,) * 7 + (0.95,) * 7 + (1.0,) * 6  # 20 runs


@pytest.fixture(scope="module")
def ensemble():
    grid = Grid(256)
    runs = []
    for i, alpha in enumerate(ENSEMBLE_ALPHAS):
        theta0 = random_band_limited(grid, 8, [100 + i, 0, 0], amplitude=1.0)
        cfg = SolverConfig(alpha=alpha, dt=4e-3, t_end=2.0)
        result = run(theta0, cfg, snapshot_times=np.linspace(0.0, 2.0, 21))
        levels = np.linspace(theta0.values.min(), theta0.values.max(), 16)
        audit = audit_energy(result.history, levels, alpha)
        runs.append(
            {
                "alpha": alpha,
                "theta0": theta0,
                "result": result,
                "levels": levels,
                "audit": audit,
            }
        )
    return runs


def test_criterion_1_exact_solution_fidelity():
    grid = Grid(64)
    x1, _ = grid.coordinates()
    theta0 = ScalarField(grid, np.sin(x1))
    start = time.perf_counter()
    result = run(theta0, SolverConfig(alpha=1.0, dt=1e-3, t_end=1.0))
    elapsed = time.perf_counter() - start
    exact = np.exp(-1.0) * np.sin(x1)
    rel = l2_norm(ScalarField(grid, result.final.values - exact)) / l2_norm(
        ScalarField(grid, exact)
    )
    report(
        1,
        rel <= 1e-6 and elapsed < 10.0,
        f"single-mode rel L2 error {rel:.2e} (<= 1e-6), runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_l2_monotonicity(ensemble):
    worst = 0.0
    for entry in ensemble:
        l2 = entry["result"].l2_norms
        growth = np.max(l2[1:] / l2[:-1]) - 1.0
        worst = max(worst, growth)
    report(
        2,
        worst <= 1e-8,
        f"20 runs, worst per-step L2 growth {worst:.2e} (slack 1e-8)",
    )


def test_criterion_3_level_set_energy_inequality(ensemble):
    violations = sum(len(entry["audit"].violations) for entry in ensemble)
    pairs = sum(
        len(entry["levels"]) * (len(entry["result"].history) * 20 // 2)
        for entry in ensemble
    )
    report(
        3,
        violations == 0,
        f"level-set energy inequality: {violations} violations over 16-level grids "
        f"on all 20 runs (~{pairs} pairs)",
    )


def test_criterion_4_linf_decay(ensemble):
    ok = True
    notes = []
    for alpha in sorted(set(ENSEMBLE_ALPHAS)):
        members = [e for e in ensemble if e["alpha"] == alpha]
        constants = []
        slopes = []
        for e in members:
            fit = check_linf_decay(e["result"].history, alpha)
            constants.append(fit.constant)
            slopes.append(fit.slope)
            ok = ok and fit.passed
        c_alpha = max(constants)
        ok = ok and np.isfinite(c_alpha)
        ok = ok and all(s <= -1.0 / alpha + 0.2 for s in slopes)
        notes.append(f"alpha={alpha}: C={c_alpha:.3f}, worst slope {max(slopes):.2f}")
    report(4, ok, "; ".join(notes) + " (need slope <= -1/alpha + 0.2)")


def test_criterion_5_tail_lemma(ensemble):
    constant = TAIL_CONSTANT  # frozen on seeds 200-219, disjoint from these
    ok = True
    worst_basic = 0.0
    worst_improved = 0.0
    for e in ensemble:
        series = tail_series(e["result"].history, constant, e["alpha"])
        for est in series:
            ok = ok and est.passed
            worst_basic = max(worst_basic, est.tail_value / est.bound_basic)
            if np.isfinite(est.bound_improved):
                worst_improved = max(
                    worst_improved, est.tail_value / est.bound_improved
                )
    report(
        5,
        ok,
        f"tail bounds with frozen C={constant:.2f}: worst basic ratio "
        f"{worst_basic:.2f}, worst improved ratio (t > 1) {worst_improved:.2f}",
    )


def test_criterion_6_dtn_verification():
    start = time.perf_counter()
    grid = Grid(64)
    ok = True
    notes = []
    for eps in (0.0, 0.05, 0.1):
        ds = [calibrate_dtn_constant(grid, eps, wavenumber=k) for k in (1, 2, 4, 8)]
        spread = (max(ds) - min(ds)) / abs(np.mean(ds))
        theta = random_band_limited(grid, 6, [7, 0, 0])
        trace = neumann_trace(extend(theta, trace_ladder(grid), eps))
        target = fractional_laplacian(theta, 1.0 - eps)
        rel = l2_norm(
            ScalarField(grid, trace.values / ds[0] - target.values)
        ) / l2_norm(target)
        ok = ok and rel <= 0.01 and spread <= 0.005
        notes.append(f"eps={eps}: rel {rel:.1e}, spread {spread:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(6, ok, "; ".join(notes) + f"; runtime {elapsed:.1f}s (< 30s)")


def test_criterion_7_isoperimetric_lemma():
    sweep = isoperimetric_report(count=100, seed=2025, samples=200_000)
    worst_margin = min(s["worst_margin"] for s in sweep.sections)
    # closed-form geometry at one million samples
    ext = linear_reference_profile(0.0)
    mc6 = WeightedRegion(sample_count=10**6, seed=31)
    m_low, se_low = weighted_measure(ext, "le_zero", 0.0, mc6)
    m_high, se_high = weighted_measure(ext, "ge_one", 0.0, mc6)
    m_strip, se_strip = weighted_measure(ext, "between", 0.0, mc6)
    strip = np.pi / 2 - SEGMENT_AREA
    geo_ok = (
        abs(m_low - np.pi / 2) <= 3 * se_low
        and abs(m_high - SEGMENT_AREA) <= 3 * se_high
        and abs(m_strip - strip) <= 3 * se_strip
    )
    report(
        7,
        sweep.passed and geo_ok,
        f"101-member family x two weights with frozen C={ISOPERIMETRIC_CONSTANT} "
        f"(worst 3-sigma margin {worst_margin:.3f}); closed forms within 3 SE at 1e6 samples",
    )


def _local_energy_case(n):
    L = 4 * np.pi
    grid = Grid(n, L)
    x1, _ = grid.coordinates()
    theta0 = ScalarField(grid, np.sin(x1))
    cfg = SolverConfig(alpha=0.95, dt=5e-3, t_end=0.5)
    res = run(theta0, cfg, snapshot_times=np.linspace(0, 0.5, 11))
    z = np.unique(np.concatenate([trace_ladder(grid), np.linspace(0, 2.0, 41)]))
    exts = [extend(f, z, cfg.epsilon) for f in res.history]
    vels = [riesz_velocity(f) for f in res.history]
    cutoff = extension_cutoff(grid, z)
    return local_energy_check(
        exts, vels, cutoff, 0.0, 0.0, 0.5, LOCAL_ENERGY_CONSTANT
    )


def test_criterion_8_local_energy_inequality():
    coarse = _local_energy_case(128)
    fine = _local_energy_case(256)
    report(
        8,
        coarse.passed and fine.passed,
        f"local energy inequality with frozen C1={LOCAL_ENERGY_CONSTANT} at N=128 "
        f"and one refinement N=256 (margins {coarse.margin:.4g} and {fine.margin:.4g})",
    )


def test_criterion_9_constants_ledger():
    ok = True
    for L, C, alpha, eta in [
        (0.0, 0.0, 1.0, 0.3),
        (0.7, 1.2, 0.95, 0.2),
        (3.0, 2.0, 0.9, 0.45),
        (0.0, 5.0, 0.95, 0.6),
    ]:
        led = build_ledger(L, C, alpha, eta, M=1.0)
        rho, delta = led.rho, led.delta
        ok = ok and rho_feasible(rho, L, C, alpha)
        ok = ok and rho**delta >= max(1 - eta, 2.0 / 3.0) - 1e-12
        ok = ok and rho ** (-delta) <= 2.0 + 1e-12
    rhos = np.linspace(1e-6, 1.0 / 16.0, 100)
    deltas = np.linspace(1e-6, 10.0, 100)
    R, D = np.meshgrid(rhos, deltas)
    X = R ** (D / 2.0)
    majorant = X * (1.5 - 0.5 * X * X)
    sweep_ok = bool(np.all(majorant < 1.0))
    report(
        9,
        ok and sweep_ok,
        f"ledger invariants by substitution; closing-inequality sweep majorant "
        f"stays below one by {1 - majorant.max():.2e} over a 10^4 grid",
    )


def test_criterion_10_iteration_suite():
    start = time.perf_counter()
    L = 4 * np.pi
    grid = Grid(512, L)
    theta0 = random_band_limited(grid, 6, [42, 0, 0], amplitude=2.0)
    alpha, rho, steps = 0.95, 1.0 / 16.0, 4
    t_end = 1.25
    sched = iteration_snapshot_times(t_end, rho, alpha, steps=steps, per_window=12)
    res = run(
        theta0, SolverConfig(alpha=alpha, dt=4e-3, t_end=t_end), snapshot_times=sched
    )
    window, M = normalize_window(res.history, t_end=t_end)
    del res  # the iteration reads only the normalized copy
    outcome = run_iteration_suite(
        window, IterationConfig(rho=rho, M=M, alpha=alpha, steps=steps)
    )
    elapsed = time.perf_counter() - start

    ok = outcome.passed and outcome.fitted_decay_exponent > 0.0
    ok = ok and elapsed < 300.0
    # the measured constants keep the ledger's rho choice consistent
    w2_step1 = outcome.records[0].w2_sup * M
    c_eff = max(
        max(r.w2_sup for r in outcome.records[1:]) * M / (-np.log(rho)),
        max(r.w3_sup for r in outcome.records[1:]) * M / rho,
    )
    ok = ok and choose_rho(w2_step1, c_eff, alpha) == rho
    # the split bound is judged from step 2 on
    split_ratio = max(r.w2_sup for r in outcome.records[1:]) / (
        SPLIT_BOUND_CONSTANT * -np.log(rho)
    )
    report(
        10,
        ok,
        f"{outcome.completed_steps}/4 steps, "
        f"verdict {'passed' if outcome.passed else repr(outcome.failure)}, "
        f"worst w2_sup / (C log(1/rho)) = {split_ratio:.4f}, "
        f"delta'={outcome.fitted_decay_exponent:.3f} > 0, eta_min={outcome.eta_min:.3f}, "
        f"runtime {elapsed:.0f}s (< 300s)",
    )
