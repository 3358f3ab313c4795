"""The flow-following oscillation iteration, end to end.

Simulates a random field, normalizes a unit time window (sup |theta| <= 1
and unit tail), then runs the zoom-recenter iteration: velocity split,
slow-component bounds, the recentering ODE, containment, rescaling, and
the bookkeeping bounds, emitting one JSON record per step.  The negative
log-slope of the raw oscillation against the cylinder radius is the
measured Hoelder exponent.  The script exits with status 1 unless the
iteration passes: every step ran and every bookkeeping bound held.
"""

import sys

import numpy as np

from sqgdiag import Grid, SolverConfig, random_band_limited, run
from sqgdiag.constants import build_ledger
from sqgdiag.oscillation import (
    IterationConfig,
    iteration_snapshot_times,
    normalize_window,
    run_iteration_suite,
)

side = 4 * np.pi
grid = Grid(256, side)
alpha, rho, steps = 0.95, 1.0 / 16.0, 3
t_end = 1.25

theta0 = random_band_limited(grid, 6, [42, 0, 0], amplitude=2.0)
schedule = iteration_snapshot_times(t_end, rho, alpha, steps=steps, per_window=12)
print(f"simulating to t = {t_end} with {len(schedule)} nested snapshots ...")
result = run(theta0, SolverConfig(alpha=alpha, dt=6e-3, t_end=t_end),
             snapshot_times=schedule)

window, M = normalize_window(result.history, t_end=t_end)
del result  # the iteration reads only the normalized copy
print(f"normalization scale M = {M:.3f}\n")

outcome = run_iteration_suite(window, IterationConfig(rho=rho, M=M, alpha=alpha, steps=steps))
for line in outcome.report_lines():
    print(line)

print(f"\ncompleted {outcome.completed_steps}/{steps} steps")
print("verdict: " + ("PASS" if outcome.passed else f"FAIL ({outcome.failure})"))
print(f"measured eta_min = {outcome.eta_min:.3f}, chosen delta = {outcome.delta:.4f}")
print(f"fitted oscillation-decay exponent delta' = {outcome.fitted_decay_exponent:.3f}")

# feed the measured constants back into the selection system
rec = outcome.records
L_eff = rec[0].w2_sup * M
C_eff = max(
    max(r.w2_sup for r in rec[1:]) * M / (-np.log(rho)),
    max(r.w3_sup for r in rec[1:]) * M / rho,
) if len(rec) > 1 else 0.0
ledger = build_ledger(L_eff, C_eff, alpha, outcome.eta_min, M)
print("\nconstants ledger from the measured run:")
print(ledger.to_json())

# the iteration's verdict is the demo's exit status
sys.exit(0 if outcome.passed else 1)
