"""Independent references and the calibrations behind the frozen constants.

Nothing in the package calls these.  The extension profile has a second,
independent evaluation (a stiff ODE integration) and a closed-form
Dirichlet-to-Neumann constant, against which the suite pins the Bessel
closed form and the measured trace.  The tail and split-bound constants are
frozen in ``sqgdiag.oscillation``; the calibrations here re-derive them on
their declared families, as ``test_degiorgi.py`` does for the
isoperimetric and local-energy constants.  ``zoom_line_zoomfft`` is the
``scipy.signal.ZoomFFT`` route that the package's own chirp-z reproduces
bit for bit.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.signal import ZoomFFT
from scipy.special import gamma as gamma_fn

from sqgdiag.oscillation import VelocitySplit, _bound_sample_points, tail_integral
from sqgdiag.spectral import Grid, ScalarField, l2_norm, random_band_limited

TAIL_CALIBRATION_TIME = 0.1  # snapshot time at which the tail constant is calibrated
TAIL_SAFETY = 4.0  # headroom of the tail constant over the calibrated ratio


def zoom_line_zoomfft(c, grid, first, start, step, count, axis):
    """``spectral._zoom_line`` through ``scipy.signal.ZoomFFT``."""
    base = 2.0 * np.pi / grid.side_length
    theta = base * step
    shape = [1, 1]
    shape[axis] = c.shape[axis]
    m = first + np.arange(c.shape[axis])
    c = c * np.exp(1j * base * m * start).reshape(shape)
    # ZoomFFT(x)_p = sum_j x_j exp(-2 pi i f_p j) with f_p = -theta p / (2 pi)
    zoom = ZoomFFT(c.shape[axis], [0.0, -theta * count / (2.0 * np.pi)], count, fs=1)
    shape[axis] = count
    return zoom(c, axis=axis) * np.exp(1j * first * theta * np.arange(count)).reshape(shape)


def extension_profile_ode(s_values, epsilon, s_far=40.0):
    """Independent profile evaluation by stiff ODE integration.

    Integrates v = phi * exp(s) inward from the large-s asymptotics
    v ~ s^(-eps/2) (1 + a/s), a = (eps/2)(eps/2 - 1)/2, then normalizes by
    the s -> 0 limit of v obtained by Richardson extrapolation (the local
    expansion is 1 + O(s^(1-eps)) + O(s^2)).
    """
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    s_values = np.asarray(s_values, dtype=float)
    if np.any(s_values >= s_far):
        raise ValueError("requested s beyond the asymptotic start")
    beta = epsilon / 2.0
    a = beta * (beta - 1.0) / 2.0

    def rhs(s, y):
        v, dv = y
        return [dv, 2.0 * dv - (epsilon / s) * dv + (epsilon / s) * v]

    v0 = s_far ** (-beta) * (1.0 + a / s_far)
    dv0 = -beta * s_far ** (-beta - 1.0) * (1.0 + a / s_far) - a * s_far ** (
        -beta - 2.0
    )
    s_lo = 1e-5
    eval_pts = np.unique(
        np.concatenate([s_values[s_values > 0], [s_lo, 2 * s_lo]])
    )[::-1]
    sol = solve_ivp(
        rhs,
        (s_far, s_lo),
        [v0, dv0],
        method="Radau",
        t_eval=eval_pts,
        rtol=1e-12,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"profile ODE integration failed: {sol.message}")
    v_of = dict(zip(sol.t, sol.y[0]))
    phi_unnorm = {s: v_of[s] * np.exp(-s) for s in sol.t}
    # phi(0) by Richardson across (s_lo, 2 s_lo); the local expansion of the
    # unnormalized profile is A (1 + B s^(1-eps) + O(s^2)), so eliminating
    # the 1-eps exponent leaves an O(s_lo^2) normalization error.
    p = 1.0 - epsilon
    r = 2.0**p
    phi_origin = (r * phi_unnorm[s_lo] - phi_unnorm[2 * s_lo]) / (r - 1.0)
    out = np.ones_like(s_values)
    for i, s in enumerate(s_values):
        if s > 0:
            out[i] = phi_unnorm[s] / phi_origin
    return out


def dtn_constant_analytic(epsilon):
    """Series coefficient giving lim z^eps d_z phi(kz) = d * k^(1-eps)."""
    nu = (1.0 - epsilon) / 2.0
    B = gamma_fn(-nu) / (gamma_fn(nu) * 4.0**nu)
    return (1.0 - epsilon) * B


def calibrate_tail_constant(histories):
    """TAIL_SAFETY * worst ratio tail / ||theta_0||_L2 at the calibration time.

    histories: iterable of snapshot lists (each a run, theta_0 its first
    snapshot); the snapshot closest to TAIL_CALIBRATION_TIME is used per
    run.  TAIL_CONSTANT freezes this number on its declared family.
    """
    worst = 0.0
    for hist in histories:
        times = np.array([f.time_stamp for f in hist])
        j = int(np.argmin(np.abs(times - TAIL_CALIBRATION_TIME)))
        worst = max(worst, tail_integral(hist[j]) / l2_norm(hist[0]))
    return TAIL_SAFETY * worst


def admissible_field(grid, delta, seed):
    """A member of the split-bound calibration family.

    Random band-limited field (band limit 12) clipped by the step-k growth
    envelope about the domain centre: |theta| <= 1 inside B_1 and
    |theta| <= 2 |x|^(2 delta) outside.
    """
    d1, d2 = grid.displacement(grid.center)
    r = np.hypot(d1, d2)
    envelope = np.minimum(1.0, 2.0 * np.maximum(r, 1e-9) ** (2.0 * delta))
    envelope[r <= 1.0] = 1.0
    base = random_band_limited(grid, 12, seed, amplitude=1.0)
    return ScalarField(grid, base.values * envelope)


def calibrate_split_bound_constant():
    """Largest of sup|w2| / (-log rho) and sup|w3| / rho over the family.

    The declared family: 8 admissible fields (delta = 0.1, seeds
    [77, 3, i]) on Grid(1024, 40), split at the domain centre with
    rho = 1/4 and 1/8.  SPLIT_BOUND_CONSTANT freezes this number (with
    headroom); the suite re-derives it and also checks the frozen value at
    the iteration's rho = 1/16 on a domain where the far region is
    non-empty.
    """
    grid = Grid(1024, 40.0)
    pts = _bound_sample_points(grid, 3)
    worst = 0.0
    for rho in (0.25, 0.125):
        for i in range(8):
            theta = admissible_field(grid, 0.1, [77, 3, i])
            sp = VelocitySplit(theta, rho)
            s2, s3 = sp.sup_slow_components(pts)
            worst = max(worst, s2 / (-np.log(rho)), s3 / rho)
    return worst
