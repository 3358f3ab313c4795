"""Selection of the iteration constants.

The oscillation-decay iteration needs a cylinder contraction ratio rho and a
Hoelder exponent delta chosen against three measured inputs: L (supremum of
the slow velocity component in the first step), C_step (the universal
constant bounding the annulus and far-field velocity pieces in later steps)
and eta (the measured per-step oscillation improvement).  rho must satisfy

    L rho^alpha + rho <= 1/2
    -C rho^alpha log(rho) + C rho^(1+alpha) + rho <= 1/2
    rho <= 1/16

and delta is then the largest exponent with rho^delta >= max(1 - eta, 2/3)
(which forces rho^(-delta) <= 3/2 <= 2).  The closing bound of the outer-
region bookkeeping is (4 rho)^delta (3/2 - rho^delta / 2) < 1, which holds
for every rho <= 1/16 and delta > 0 because with x = rho^(delta/2) in (0, 1)
the majorant is x (3/2 - x^2 / 2), increasing on [0, 1] with maximum 1 at
x = 1, and 4 rho <= sqrt(rho) gives (4 rho)^delta <= x.  This proof is why
the ledger records no verdict: every pair that choose_rho and choose_delta
return satisfies all of the above by construction.

There is no circular dependence: the build order is (L, C) -> rho -> eta
(measured by the oscillation suite) -> delta, and build_ledger enforces it.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

RHO_CAP = 1.0 / 16.0
RHO_FLOOR = 1e-12
BISECTION_RESOLUTION = 1e-12
OSC_FLOOR = 2.0 / 3.0  # floor on rho^delta from the annulus bookkeeping


class InfeasibleConstants(ValueError):
    """No admissible constant exists for the given inputs."""


def rho_feasible(rho, L, C, alpha):
    g1 = L * rho**alpha + rho
    g2 = -C * rho**alpha * np.log(rho) + C * rho ** (1.0 + alpha) + rho
    return bool(g1 <= 0.5 and g2 <= 0.5 and rho <= RHO_CAP)


def choose_rho(L, C, alpha):
    """Largest rho on a dyadic-bisection grid satisfying all three bounds.

    Monotone: increasing L or C never increases the result.  When even
    rho = RHO_FLOOR violates a bound, which takes a large L or C (at
    alpha = 0.95, L or C = 1e15), no rho is feasible and
    InfeasibleConstants is raised.
    """
    if L < 0 or C < 0:
        raise ValueError("L and C must be non-negative")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if rho_feasible(RHO_CAP, L, C, alpha):
        return RHO_CAP
    lo, hi = RHO_FLOOR, RHO_CAP
    if not rho_feasible(lo, L, C, alpha):
        raise InfeasibleConstants(
            f"no feasible rho above {RHO_FLOOR} for L={L}, C={C}, alpha={alpha}"
        )
    while hi - lo > BISECTION_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if rho_feasible(mid, L, C, alpha):
            lo = mid
        else:
            hi = mid
    return lo  # feasible: lo moves only onto feasible midpoints


def choose_delta(rho, eta):
    """Largest delta with rho^delta >= max(1 - eta, 2/3).

    This function owns the rule "no contraction was measured": when
    max(1 - eta, 2/3) is not below 1 in floating point, which covers
    eta <= 0 and every eta below about 5.5e-17, no positive exponent
    exists and InfeasibleConstants is raised.  A measured
    eta = 1 - osc(Q_1/2)/osc(Q_1) is at most 1, so a larger or non-finite
    eta is a ValueError.  The returned value also satisfies
    rho^(-delta) <= 3/2.
    """
    if not (0.0 < rho <= RHO_CAP):
        raise ValueError(f"rho must lie in (0, {RHO_CAP}]")
    if not (np.isfinite(eta) and eta <= 1.0):
        raise ValueError(f"eta must be a number at most 1, got {eta}")
    target = max(1.0 - eta, OSC_FLOOR)
    if target >= 1.0:
        raise InfeasibleConstants(f"no oscillation improvement (eta = {eta:.3g})")
    return float(np.log(target) / np.log(rho))


@dataclass
class ConstantLedger:
    """The measured inputs and the rho and delta chosen from them.

    It carries no verdict: build_ledger returns a ledger only when
    choose_rho and choose_delta both succeed, and the module docstring
    proves that such a pair closes the iteration.
    """

    epsilon: float
    alpha: float
    L: float
    C_step: float
    M: float
    eta: float
    rho: float
    delta: float

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


def build_ledger(L, C, alpha, eta, M):
    """Assemble the full ledger in dependency order: (L, C) -> rho -> delta.

    eta must come from a measurement (the oscillation suite); it is consumed
    only after rho exists, which makes the no-circularity ordering explicit.
    """
    for name, v in (("L", L), ("C", C), ("M", M)):
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and non-negative")
    rho = choose_rho(L, C, alpha)
    delta = choose_delta(rho, eta)
    return ConstantLedger(
        epsilon=1.0 - alpha,
        alpha=alpha,
        L=float(L),
        C_step=float(C),
        M=float(M),
        eta=float(eta),
        rho=float(rho),
        delta=float(delta),
    )
