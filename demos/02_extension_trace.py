"""Weighted half-space extension and its Dirichlet-to-Neumann trace.

Extends a field to z > 0 solving div(z^eps grad theta) = 0, estimates the
weighted Neumann trace lim z^eps d_z theta by Richardson extrapolation,
and shows that one calibrated constant d_eps turns the trace into the
spectral fractional Laplacian of order 1 - eps, independently of the mode.
"""

import numpy as np

from sqgdiag import Grid, ScalarField, sobolev_norm
from sqgdiag.extension import extend, extension_profile, trace_ladder, weighted_dirichlet_energy
from sqgdiag.harness import extension_report

grid = Grid(64)

print("profile phi_eps(s) at s = 1 (phi_0 = e^-1 = %.6f):" % np.exp(-1.0))
for eps in (0.0, 0.05, 0.1, 0.3):
    print(f"  eps = {eps}: phi({eps}) = {extension_profile(np.array([1.0]), eps)[0]:.6f}")

print("\nd_eps per eps, its spread over |k| in (1, 2, 4, 8), and trace / d_eps")
print("against the spectral fractional Laplacian on a random field:")
for section in extension_report(seed=7).sections:
    print(f"  {section['name']}: d_eps = {section['d_eps']:+.6f}, "
          f"spread {section['mode_spread']:.2e}, rel L2 error {section['trace_rel_error']:.2e}")

# Dirichlet energy of the classical (eps = 0) extension of one mode
x1, _ = grid.coordinates()
mode = ScalarField(grid, np.sin(x1))
z = np.unique(np.concatenate([trace_ladder(grid), np.linspace(0, 5, 81)]))
value, estimate = weighted_dirichlet_energy(extend(mode, z, 0.0))
print(f"\nDirichlet energy of the harmonic extension of sin(x1): {value:.5f}")
print(f"Hdot^(1/2) seminorm squared of the trace:               {sobolev_norm(mode, 0.5)**2:.5f}")
print(f"(declared quadrature estimate {estimate:.1e})")
