"""Simulate the dissipative SQG equation and audit its energy structure.

Runs a random band-limited initial condition at alpha = 0.95, then checks
the three decay diagnostics: monotone L2 norm, the L-infinity decay fit
against t^(-1/alpha), and the level-set energy inequality on a 16-level
grid.
"""

import numpy as np

from sqgdiag import (
    Grid,
    SolverConfig,
    audit_energy,
    check_l2_monotone,
    check_linf_decay,
    random_band_limited,
    run,
)

grid = Grid(128)
theta0 = random_band_limited(grid, k_max_index=8, seed=[2024, 0, 0], amplitude=1.0)
config = SolverConfig(alpha=0.95, dt=5e-3, t_end=2.0)

print(f"grid {grid.n}^2, alpha = {config.alpha}, dt = {config.dt}, t_end = {config.t_end}")
result = run(theta0, config, snapshot_times=np.linspace(0.0, 2.0, 21))
print(f"L2:   {result.l2_norms[0]:.4f} -> {result.l2_norms[-1]:.4f}")
print(f"Linf: {result.linf_norms[0]:.4f} -> {result.linf_norms[-1]:.4f}")

levels = np.linspace(theta0.values.min(), theta0.values.max(), 16)
audit = audit_energy(result.history, levels, config.alpha)
print(f"\nlevel-set energy inequality over {len(levels)} levels and "
      f"{len(result.history)} snapshots: "
      f"{'PASS' if audit.passed else f'{len(audit.violations)} violations'}")

print("monotone L2:", "PASS" if check_l2_monotone(result.history) else "FAIL")

fit = check_linf_decay(result.history, config.alpha)
print(f"Linf decay fit on [0.1, 2]: envelope constant {fit.constant:.3f}, "
      f"log-log slope {fit.slope:.2f} (pass needs <= {-1/config.alpha + 0.2:.2f}): "
      f"{'PASS' if fit.passed else 'FAIL'}")

# the accumulated dissipation per level, at the final time
acc = audit.hdot_alpha_accumulated[:, -1]
print("\nper-level accumulated dissipation (first/middle/last level):")
for i in (0, len(levels) // 2, len(levels) - 1):
    print(f"  lambda = {levels[i]:+.3f}: 2 * int ||theta_l||^2 dt = {2 * acc[i]:.4f}")
