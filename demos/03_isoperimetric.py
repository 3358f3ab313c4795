"""Weighted De Giorgi isoperimetric bound on the half-ball B_1^*.

The linear profile w(X) = 2 X_1 has closed-form set measures (half disk,
circular segment, strip), which Monte Carlo reproduces within its standard
error; the frozen constant then covers both the closed-form case and a
family of random band-limited extensions.
"""

import numpy as np

from sqgdiag.degiorgi import (
    ISOPERIMETRIC_CONSTANT,
    WeightedRegion,
    isoperimetric_check,
    isoperimetric_family,
    linear_reference_profile,
    weighted_measure,
)

segment = np.pi / 3 - np.sqrt(3) / 4

ext = linear_reference_profile(0.0)
mc = WeightedRegion(sample_count=10**6, seed=11)
print("closed-form case w = 2 X_1 at eps = 0, one million samples:")
for name, predicate, exact in [
    ("{w <= 0}  (half disk)        ", "le_zero", np.pi / 2),
    ("{w >= 1}  (circular segment) ", "ge_one", segment),
    ("{0<w<1}   (strip)            ", "between", np.pi / 2 - segment),
]:
    est, se = weighted_measure(ext, predicate, 0.0, mc)
    print(f"  {name} mc = {est:.5f}  exact = {exact:.5f}  ({abs(est-exact)/se:.1f} se)")

res = isoperimetric_check([ext], ISOPERIMETRIC_CONSTANT, mc)[0]
print(f"\nisoperimetric bound with frozen C = {ISOPERIMETRIC_CONSTANT}:")
print(f"  lhs = {res.lhs:.4f} vs C * strip^(1/2) * energy^(1/2) = {res.rhs:.4f}"
      f"  -> {'PASS' if res.passed else 'FAIL'}")

print("\nrandom family (first five members, eps = 0.1):")
mcf = WeightedRegion(sample_count=200_000, seed=11)
family = isoperimetric_family(5, 0.1, seed=2025)
for i, r in enumerate(isoperimetric_check(family, ISOPERIMETRIC_CONSTANT, mcf)):
    print(f"  member {i}: lhs = {r.lhs:.5f}, rhs = {r.rhs:.5f} "
          f"-> {'PASS' if r.passed else 'FAIL'}")
