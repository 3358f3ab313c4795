"""The explicit constant-selection system behind the iteration.

rho solves three inequalities (near-field containment, flow containment,
the hard cap 1/16), and delta then comes from the measured oscillation
improvement eta.  The closing polynomial bound holds for every such pair;
the sweep at the end shows its majorant staying below one.
"""

import numpy as np

from sqgdiag.constants import build_ledger, choose_delta, choose_rho

print("rho against increasingly strong velocity constants (alpha = 0.95):")
for L, C in [(0.0, 0.0), (1.0, 0.5), (3.0, 2.0), (0.0, 5.0), (10.0, 10.0)]:
    print(f"  L = {L:5.1f}, C = {C:5.1f}  ->  rho = {choose_rho(L, C, 0.95):.6f}")

print("\ndelta from the measured improvement eta (rho = 1/16):")
for eta in (0.05, 0.1, 0.2, 0.5, 0.9):
    d = choose_delta(1 / 16, eta)
    print(f"  eta = {eta:4.2f}  ->  delta = {d:.4f}  (rho^delta = {(1/16)**d:.4f})")

print("\nfull ledger for one measured parameter set:")
print(build_ledger(L=0.7, C=1.2, alpha=0.95, eta=0.25, M=1.3).to_json())

# the majorant x (3/2 - x^2/2) approaches its maximum 1 only as x -> 1
rhos = np.linspace(1e-6, 1 / 16, 200)
deltas = np.linspace(1e-6, 10.0, 200)
R, D = np.meshgrid(rhos, deltas)
X = R ** (D / 2)
maj = X * (1.5 - 0.5 * X * X)
print(f"\nsweep over {maj.size} (rho, delta) pairs: max majorant = 1 - {1 - maj.max():.2e}")
