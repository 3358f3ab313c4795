"""Oscillation-decay machinery: tails, velocity splits, flow recentering.

This module implements the quantitative steps of the eventual-regularization
argument as measurable diagnostics on simulation output:

* tail integrals of |theta| / |x|^2 outside the unit ball, with the decay
  bounds they must satisfy along a run;
* parabolic cylinders Q_r = B_r x [0, r) x (1 - r^alpha, 1] and the
  oscillation of a field history over them (z = 0 slice; the solver evolves
  the boundary trace);
* the slow pieces of the truncated-kernel velocity split (annulus from
  B_2 to B_{2/rho}, recentred far field) plus the constant far-field drift
  w_bar; the near field over B_2 is not evaluated;
* the flow-following recentering ODE V' = M w_slow(V, t) integrated
  backward from V(t_end) = 0;
* the zoom-recenter-renormalize step producing the next iterate
  theta_{k+1} = (theta(. + V) - m) / rho^delta on the rescaled cylinder,
  with all bookkeeping bounds re-checked rather than assumed; it reads its
  snapshots one at a time, so it may be fed an iterator;
* the driver that runs the whole iteration, measuring the per-step
  oscillation improvement eta, taking delta from step 1's eta
  (``constants.choose_delta``) and fitting an empirical decay exponent; it
  stops at the first bookkeeping bound that fails (the measured slow
  velocity against SPLIT_BOUND_CONSTANT among them), and
  ``IterationResult.passed`` is its one verdict.  Each step reads only
  the previous iterate, whose snapshots are freed one by one as their
  rescaled successors are made, so besides the caller's history (the
  only copy: normalize_window's views divide on each read) the iteration
  holds at most one generation of iterates.

Every step is zoomed and recentred into one frame: balls about the domain
centre (``Grid.center``) and time windows that end at t = 1, where
normalize_window puts the end of the run.  All plane integrals are
truncated at the boundary of the fundamental domain about that centre; the
truncation radius is recorded.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import InfeasibleConstants, choose_delta
from .spectral import (
    RIESZ_KERNEL_CONSTANT,
    ScalarField,
    evaluate_on_lattice,
    irfft2,
    l2_norm,
    rfft2,
)

EDGE_MARGIN = 0.9  # fraction of the half-side inside which bounds are checked
PER_RING_SAMPLES = 8  # grid nodes per ring at which the slow velocity is bounded
TIME_TOL = 1e-12  # slack of the time-window rule, for relabelled stamps

# The constant of the tail bounds that tail_series attaches (the harness's
# tail section).  Frozen output of calibrate_tail_constant in
# tests/oracles.py (2.4640220359057112, rounded up) on the declared family,
# whose seeds are disjoint from the acceptance seeds 100-119:
# random_band_limited(Grid(256), 8, [s, 0, 0]) for s in 200..219, run at
# alpha (0.9, 0.95, 1.0)[s % 3] with dt = 4e-3.
TAIL_CONSTANT = 2.47

# The single constant C with sup_B1 |w2| <= -C log(rho) and
# sup_B1 |w3| <= C rho, which run_iteration_suite judges at steps k >= 2
# (the "split bound" stop flag).  Frozen, with headroom, from
# calibrate_split_bound_constant in tests/oracles.py (0.09888352624503059)
# on the declared admissible family (|theta| <= 1 on B_1, growth envelope
# 2 |x|^(2 delta) outside it).
SPLIT_BOUND_CONSTANT = 0.15


def tail_truncation_radius(grid):
    """Radius at which plane tail integrals are truncated (half side)."""
    return 0.5 * grid.side_length


def tail_integral(theta):
    """Quadrature of |theta(x)| / |x|^2 outside the unit ball.

    x is measured from the domain centre (minimal-image metric), so the
    integral is truncated at tail_truncation_radius.
    """
    grid = theta.grid
    if tail_truncation_radius(grid) < 1.25:
        raise ValueError(
            "unit ball does not fit well inside the fundamental domain "
            f"(truncation radius {tail_truncation_radius(grid):.3f} < 1.25)"
        )
    d1, d2 = grid.displacement(grid.center)
    r2 = d1 * d1 + d2 * d2
    outside = r2 >= 1.0
    integrand = np.where(outside, np.abs(theta.values) / np.where(outside, r2, 1.0), 0.0)
    return float(np.sum(integrand) * grid.spacing**2)


@dataclass
class TailEstimate:
    tail_value: float
    bound_basic: float
    bound_improved: float  # inf when not applicable (t <= 1)

    @property
    def passed(self):
        ok = self.tail_value <= self.bound_basic
        if np.isfinite(self.bound_improved):
            ok = ok and self.tail_value <= self.bound_improved
        return bool(ok)


def tail_series(history, constant, alpha):
    """TailEstimate per snapshot with both lemma bounds attached.

    With theta_0 the first snapshot, bound_basic = C ||theta_0||_L2 for all
    t; for t > 1 additionally bound_improved = C (1 + log t) t^(-alpha)
    ||theta_0||_L2.
    """
    l2_0 = l2_norm(history[0])
    out = []
    for f in history:
        t = f.time_stamp
        improved = constant * (1.0 + np.log(t)) * t ** (-alpha) * l2_0 if t > 1.0 else np.inf
        out.append(TailEstimate(tail_integral(f), constant * l2_0, improved))
    return out


@dataclass(frozen=True)
class ParabolicCylinder:
    """Q_r = B_r x [0, r) x (1 - r^alpha, 1], B_r about the domain centre.

    The iteration zooms and recentres every step into this one frame, so
    the radius and the dissipation order fix the cylinder.
    """

    radius: float
    alpha: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def t_start(self):
        return 1.0 - self.radius**self.alpha

    def in_window(self, t):
        """Whether t_start <= t <= 1, up to TIME_TOL."""
        return self.t_start - TIME_TOL < t <= 1.0 + TIME_TOL

    def window(self, history):
        """The snapshots with t_start <= t <= 1, up to TIME_TOL."""
        return [f for f in history if self.in_window(f.time_stamp)]

    def space_mask(self, grid, shift=(0.0, 0.0)):
        c = grid.center
        d1, d2 = grid.displacement((c[0] + shift[0], c[1] + shift[1]))
        return d1 * d1 + d2 * d2 < self.radius**2


def _extremes(arrays):
    """(min, max) over the entries of a sequence of arrays."""
    lo, hi = np.inf, -np.inf
    for a in arrays:
        lo = min(lo, float(a.min()))
        hi = max(hi, float(a.max()))
    return lo, hi


def oscillation(history, cyl):
    """max - min of theta over grid nodes and snapshots inside the cylinder.

    The extension direction enters only through the z = 0 slice: the solver
    evolves the boundary trace, and the extension attains its extremes
    there.
    """
    if not history:
        raise ValueError("empty history")
    grid = history[0].grid
    if cyl.radius / grid.spacing < 8.0:
        raise ValueError(
            f"grid does not resolve the cylinder radius: {cyl.radius / grid.spacing:.1f} "
            "points across (need >= 8)"
        )
    if history[0].time_stamp > cyl.t_start + 1e-9 or history[-1].time_stamp < 1.0 - 1e-9:
        raise ValueError("history does not cover the cylinder's time interval")
    # Q_r is open at t_start: of the window's snapshots, drop the start slice
    inside = [f for f in cyl.window(history) if f.time_stamp > cyl.t_start + TIME_TOL]
    if not inside:
        raise ValueError("no snapshots inside the cylinder's time interval")
    mask = cyl.space_mask(grid)
    vmin, vmax = _extremes(f.values[mask] for f in inside)
    return vmax - vmin


# --- velocity split ---


def _kernel_sum(theta_vals, d1, d2, region_mask, h):
    """c * sum over region of theta(y) (y - x)^perp / |y - x|^3 * h^2.

    d1, d2 are displacements y - x; the perp convention is
    u^perp = (-u_2, u_1).
    """
    r2 = d1 * d1 + d2 * d2
    ok = region_mask & (r2 > 1e-12 * h * h)
    inv_r3 = np.where(ok, 1.0 / np.where(ok, r2, 1.0) ** 1.5, 0.0)
    w1 = RIESZ_KERNEL_CONSTANT * np.sum(-d2 * theta_vals * inv_r3) * h * h
    w2 = RIESZ_KERNEL_CONSTANT * np.sum(d1 * theta_vals * inv_r3) * h * h
    return np.array([w1, w2])


@lru_cache(maxsize=4)
def _kernel_spectrum(grid):
    """Half-spectra (rfft2) of the two components of the lattice kernel.

    c h^2 u^perp / |u|^3 at the minimal-image node offsets u = m h,
    m in [-n/2, n/2) in FFT order, zero at u = 0: the weights _kernel_sum
    applies at grid-node targets.  The grid fixes the kernel, so it keys
    the cache.
    """
    h = grid.spacing
    u = np.fft.fftfreq(grid.n, 1.0 / grid.n) * h
    u1, u2 = u[:, None], u[None, :]
    r2 = u1 * u1 + u2 * u2
    r2[0, 0] = 1.0
    weight = RIESZ_KERNEL_CONSTANT * h * h / r2**1.5
    weight[0, 0] = 0.0
    return rfft2(-u2 * weight), rfft2(u1 * weight)


@dataclass
class VelocitySplit:
    """Truncated-kernel decomposition of the velocity about the domain centre.

    Only the slow pieces are evaluated; the near field over B_2 is not.
    rho = None selects the first-step split (w2 over everything outside
    B_2, no far recentred piece).  For rho < 1, the pieces are: w2 over the
    annulus B_{2/rho} minus B_2, w3 over the complement of B_{2/rho} with
    the kernel recentred by its value at the centre, and the constant
    w_bar.  The balls are about ``Grid.center`` and truncated at the
    fundamental-domain boundary; ``truncated`` flags whether B_{2/rho}
    overflowed the domain, ``far_empty`` whether the far region holds no
    node (then w3 and w_bar vanish identically).

    Off the grid, w2 and w3 are direct kernel sums.  At grid nodes the sum
    over a region fixed about the centre is the circular cross-correlation
    of theta * 1_region with the lattice kernel, so sup_slow_components
    gets every node from one FFT correlation per region.
    """

    theta: ScalarField
    rho: float = None

    def __post_init__(self):
        if self.rho is not None and not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        grid = self.theta.grid
        # read once: a normalized view divides on every read of ``values``
        self._values = self.theta.values
        d1c, d2c = grid.displacement(grid.center)
        r2 = d1c**2 + d2c**2
        outside_b2 = r2 >= 4.0
        half = 0.5 * grid.side_length
        if self.rho is None:
            self._annulus = outside_b2
            self._far = np.zeros_like(outside_b2)
            self.truncated = half < 4.0
        else:
            r_far = 2.0 / self.rho
            self._annulus = outside_b2 & (r2 < r_far**2)
            self._far = r2 >= r_far**2
            self.truncated = r_far > half
        self.far_empty = not self._far.any()
        self.w_bar = np.zeros(2)
        if not self.far_empty:
            self.w_bar = _kernel_sum(self._values, d1c, d2c, self._far, grid.spacing)

    def w2(self, point):
        grid = self.theta.grid
        d1, d2 = grid.displacement(point)
        return _kernel_sum(self._values, d1, d2, self._annulus, grid.spacing)

    def w3(self, point):
        """Far piece with the kernel recentred at the domain centre."""
        if self.far_empty:
            return np.zeros(2)
        grid = self.theta.grid
        d1, d2 = grid.displacement(point)
        return _kernel_sum(self._values, d1, d2, self._far, grid.spacing) - self.w_bar

    def slow(self, point):
        """w2 + w3: the continuous-in-x components driving the flow ODE."""
        return self.w2(point) + self.w3(point)

    def _node_sums(self, region, nodes):
        """_kernel_sum over ``region`` at each (i, j) grid node, shape (k, 2).

        One rfft2 of theta * 1_region and two irfft2 against the cached
        kernel spectrum give the sum at every node; the kernel holds the
        antipodal offset at -L/2, as ``Grid.offsets`` does.
        """
        spec = rfft2(np.where(region, self._values, 0.0))
        k1, k2 = _kernel_spectrum(self.theta.grid)
        c1 = irfft2(spec * np.conj(k1))
        c2 = irfft2(spec * np.conj(k2))
        return np.array([(c1[ij], c2[ij]) for ij in nodes])

    def sup_slow_components(self, nodes):
        """(sup |w2|, sup |w3|) over the grid nodes given as (i, j) indices.

        Node (i, j) is the point (i h, j h); off-grid values come from w2/w3.
        """
        s2 = float(np.max(np.hypot(*self._node_sums(self._annulus, nodes).T)))
        if self.far_empty:
            return s2, 0.0
        w3 = self._node_sums(self._far, nodes) - self.w_bar
        return s2, float(np.max(np.hypot(*w3.T)))


# --- flow-following recentering ---


@dataclass
class RecenterPath:
    times: np.ndarray  # ascending
    points: np.ndarray  # shape (len(times), 2)

    @property
    def max_abs(self):
        return float(np.max(np.hypot(self.points[:, 0], self.points[:, 1])))

    def at(self, t):
        x = np.interp(t, self.times, self.points[:, 0])
        y = np.interp(t, self.times, self.points[:, 1])
        return np.array([x, y])


def recenter_flow(w_slow, M, t_start, steps):
    """Integrate V' = M w_slow(V, t) backward from V(1) = 0.

    The window ends at t = 1 (normalize_window maps it there), so the path
    ends at the cylinder centre.  Classical fourth-order one-step method
    with ``steps`` uniform steps.  Returns the sampled path on the
    integration grid, ascending in time.
    """
    span = 1.0 - t_start
    if span <= 0:
        raise ValueError("t_start must precede 1")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    dt = -span / steps
    ts = [1.0]
    vs = [np.zeros(2)]
    t, v = 1.0, np.zeros(2)
    for _ in range(steps):
        k1 = M * np.asarray(w_slow(v, t))
        k2 = M * np.asarray(w_slow(v + 0.5 * dt * k1, t + 0.5 * dt))
        k3 = M * np.asarray(w_slow(v + 0.5 * dt * k2, t + 0.5 * dt))
        k4 = M * np.asarray(w_slow(v + dt * k3, t + dt))
        v = v + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        t = t + dt
        ts.append(t)
        vs.append(v.copy())
    return RecenterPath(times=np.array(ts[::-1]), points=np.array(vs[::-1]))


# --- rescale / recenter bookkeeping ---


@dataclass
class RescaleOutcome:
    hypothesis_ok: bool  # |theta_tilde - m| <= rho^delta on Q_rho
    outside_ok: bool  # |theta_{k+1}| <= 2 |x|^(2 delta) for 1 < |x| <= margin
    inside_range: tuple  # (min, max) of theta_{k+1} over B_1, every produced slice
    worst_outside_ratio: float  # sup over 1 < |x| of |theta_{k+1}| / (2 |x|^(2 delta))
    M_next: float
    M_monotone: bool


def rescale_recenter(history, cyl, path, m, delta, M_k):
    """Produce the next iterate on the same grid layout.

    With rho = cyl.radius and C the domain centre,
    theta_next(x', t') = rho^(-delta) (theta(rho (x' - C) + C + V(tau), tau)
    - m) with tau = 1 - rho^alpha (1 - t').  Snapshots outside cyl's time
    window are dropped; the remaining stamps are relabeled affinely to
    (0, 1].  ``history`` is read once, in order, and no snapshot is kept
    past its turn, so an iterator that hands out snapshots it no longer
    holds lets each be freed once its successor exists.  The
    decay-hypothesis precondition and both outer bookkeeping bounds are
    measured on the produced fields (never assumed); violations are
    reported as flags, not exceptions.  One scan of B_1 gives the produced
    range ``inside_range``, from which the hypothesis reads sup |theta_next|
    and the driver the oscillation.  The outer bound is checked up to
    EDGE_MARGIN of the window half-side: the zoomed patch is re-declared
    periodic, so the outermost rim carries interpolation mismatch and is
    excluded.  M shrinks by rho^(delta - epsilon), epsilon = 1 - alpha.
    """
    rho = cyl.radius
    rho_a = rho**cyl.alpha
    scale = rho ** (-delta)

    grid = None
    new_history = []
    for f in history:
        grid = f.grid
        tau = f.time_stamp
        if not cyl.in_window(tau):
            continue
        C = grid.center
        t_new = 1.0 - (1.0 - tau) / rho_a
        v = path.at(tau)
        offset = (
            C[0] + v[0] - rho * C[0],
            C[1] + v[1] - rho * C[1],
        )
        vals = evaluate_on_lattice(
            f, offset, (rho * grid.spacing, rho * grid.spacing), grid.shape
        )
        new_history.append(ScalarField(grid, scale * (vals - m), t_new))
    if grid is None:
        raise ValueError("empty history")
    if not new_history:
        raise ValueError("no snapshots fall inside the rescale window")

    d1, d2 = grid.displacement(grid.center)
    r = np.sqrt(d1 * d1 + d2 * d2)
    inside = r < 1.0
    check_radius = EDGE_MARGIN * 0.5 * grid.side_length
    outer = (r > 1.0) & (r <= check_radius)
    lo, hi = _extremes(f.values[inside] for f in new_history)
    envelope = 2.0 * r[outer] ** (2.0 * delta)
    worst_ratio = max(float(np.max(np.abs(f.values[outer]) / envelope)) for f in new_history)

    M_next = rho ** (delta - (1.0 - cyl.alpha)) * M_k
    outcome = RescaleOutcome(
        hypothesis_ok=bool(max(hi, -lo) <= 1.0 + 1e-9),
        outside_ok=bool(worst_ratio <= 1.0 + 1e-9),
        inside_range=(lo, hi),
        worst_outside_ratio=worst_ratio,
        M_next=float(M_next),
        M_monotone=bool(M_next <= M_k * (1.0 + 1e-12)),
    )
    return new_history, outcome


# --- the iteration driver ---


@dataclass
class OscillationRecord:
    step_index: int
    radius: float  # rho^k, the original-frame radius of the produced iterate
    oscillation: float  # osc of the produced iterate over Q_1
    raw_oscillation: float  # oscillation of the original field at this scale
    midrange: float
    M_k: float
    eta: float  # measured per-step improvement 1 - osc(Q_1/2)/osc(Q_1)
    w2_sup: float
    w3_sup: float
    max_shift: float
    containment_ok: bool
    split_bound_ok: bool  # None at step 1, whose two-piece split C does not cover
    bounds: RescaleOutcome
    truncated_split: bool  # B_{2/rho} overflowed the domain half-side
    far_empty: bool  # no split of the step had a far node: w3 == 0 identically

    def to_json(self):
        d = {
            "k": self.step_index,
            "r_k": self.radius,
            "osc": self.oscillation,
            "raw_osc": self.raw_oscillation,
            "max_V": self.max_shift,
            "m": self.midrange,
            "M_k": self.M_k,
            "eta": self.eta,
            "w2_sup": self.w2_sup,
            "w3_sup": self.w3_sup,
            "containment_ok": self.containment_ok,
            "hypothesis_ok": self.bounds.hypothesis_ok,
            "outside_ok": self.bounds.outside_ok,
            "outside_ratio": self.bounds.worst_outside_ratio,
            "split_bound_ok": self.split_bound_ok,
            "M_monotone": self.bounds.M_monotone,
            "truncated_split": self.truncated_split,
            "far_empty": self.far_empty,
        }
        return json.dumps(d)


@dataclass
class IterationConfig:
    rho: float
    M: float
    alpha: float
    steps: int = 4
    ode_step_divisor: int = 64
    bound_sample_rings: int = 3

    def __post_init__(self):
        # with no step, the verdict would hold vacuously
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


@dataclass
class IterationResult:
    records: list
    delta: float
    eta_min: float
    fitted_decay_exponent: float
    completed_steps: int
    # the measured velocity constants in original units, as build_ledger takes them
    L: float  # M sup|w2| at step 1; NaN when no step ran
    C_step: float  # M max(sup|w2| / log(1/rho), sup|w3| / rho) over steps >= 2; 0 below two
    failure: str = ""  # the first failure; every early stop sets it

    @property
    def passed(self):
        """The iteration's verdict: every step ran and every bound held."""
        return self.failure == ""

    def report_lines(self):
        return [r.to_json() for r in self.records]


def iteration_snapshot_times(t_end, rho, alpha, steps, per_window=12):
    """Nested snapshot schedule resolving every rescaled window.

    Level k covers (t_end - rho^((k-1) alpha), t_end] with per_window
    uniform samples, so that after k - 1 rescalings the current frame still
    holds per_window snapshots.
    """
    times = {t_end}
    for k in range(steps + 1):
        width = rho ** (k * alpha)
        for i in range(per_window):
            times.add(t_end - width * (1.0 - i / per_window))
    return np.array(sorted(times))


def _bound_sample_points(grid, rings):
    """Grid nodes near concentric rings in B_1 about the domain centre.

    PER_RING_SAMPLES nodes per ring, plus the node nearest the centre, as
    sorted unique (i, j) indices.
    """
    h = grid.spacing
    center = grid.center
    pts = [center]
    for q in range(1, rings + 1):
        rad = q / (rings + 1)
        for a in range(PER_RING_SAMPLES):
            ang = 2 * np.pi * a / PER_RING_SAMPLES
            pts.append((center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)))
    return sorted({(round(p[0] / h) % grid.n, round(p[1] / h) % grid.n) for p in pts})


def _slow_evaluator(window, rho):
    """One VelocitySplit per window snapshot, and the slow velocity.

    The slow velocity is linear in time between snapshots; the returned
    callable takes the displacement from the domain centre (the recentering
    ODE's unknown), not an absolute position.
    """
    splits = [VelocitySplit(f, rho) for f in window]
    times = np.array([f.time_stamp for f in window])
    center = window[0].grid.center

    def w_slow(v, t):
        x = (center[0] + v[0], center[1] + v[1])
        j = int(np.clip(np.searchsorted(times, t) - 1, 0, len(splits) - 2))
        t0, t1 = times[j], times[j + 1]
        lam = 0.0 if t1 == t0 else np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        a = splits[j].slow(x)
        b = splits[j + 1].slow(x)
        return (1 - lam) * a + lam * b

    return w_slow, splits


def _drain(snapshots):
    """Hand out the entries of a list in order, removing each as it goes.

    The list keeps no entry it has handed out, so the consumer decides how
    long each one lives.
    """
    snapshots.reverse()
    while snapshots:
        yield snapshots.pop()


def run_iteration_suite(history, config):
    """Execute Step 1 and Steps k >= 2 of the oscillation iteration.

    Preconditions (checked): sup |theta| <= 1 over the history and tail
    integral <= 1 at the window start; times must be normalized to span
    (0, 1] (use normalize_window).  Each step measures the oscillation of
    the current iterate on Q_1 and Q_{1/2}, splits the velocity, bounds the
    slow components, solves the recentering ODE, verifies cylinder
    containment, and rescales.  Step 1's improvement eta fixes delta =
    choose_delta(rho, eta) for the run; when choose_delta finds no
    improvement, the run ends with its message as the failure.
    A record's oscillation is the produced iterate's range over B_1, every
    produced slice included, as ``rescale_recenter`` measures it.  Each
    step's bookkeeping bounds are judged in order: decay hypothesis,
    cylinder containment, outer bound, split bound, M monotone.  The split
    bound compares the measured sup|w2| and sup|w3| with
    SPLIT_BOUND_CONSTANT times log(1/rho) and rho.  It is
    judged from step 2 on, where the iterate has passed the hypothesis and
    the outer bound and so lies in the admissible class the constant was
    calibrated on; step 1 uses the two-piece split, outside that class, and
    records None.  On a domain where B_{2/rho} overflows, it judges the
    truncated sums (``truncated_split``).  The first bound that fails ends
    the suite with ``failure = "<bound> failed at step k"``, after the
    step's record.  A frame that no longer covers its cylinder also ends
    it, with a structured failure rather than an exception.  ``passed`` on
    the result is the verdict.  The caller's ``history`` is left as it is;
    each later iterate is released as its successor is made.
    """
    if not history:
        raise ValueError("empty history")
    grid = history[0].grid
    sup_all = max(float(np.max(np.abs(f.values))) for f in history)
    if sup_all > 1.0 + 1e-9:
        raise ValueError(f"history is not normalized: sup|theta| = {sup_all:.3f} > 1")
    tail0 = tail_integral(history[0])
    if tail0 > 1.0 + 1e-9:
        raise ValueError(f"tail at window start = {tail0:.3f} > 1")

    rho, alpha, M = config.rho, config.alpha, config.M
    sample_pts = _bound_sample_points(grid, config.bound_sample_rings)
    q1 = ParabolicCylinder(1.0, alpha)
    q_half = ParabolicCylinder(0.5, alpha)
    flow_cyl = ParabolicCylinder(rho, alpha)

    records = []
    current = list(history)  # the suite's own list: it drains it, not the caller's
    M_k = M
    delta = None
    eta_min = np.inf
    amplitude = 1.0  # accumulated rho^(delta * (k-1)) factor, original units
    failure = ""

    for k in range(1, config.steps + 1):
        try:
            osc_full = oscillation(current, q1)
            osc_half = oscillation(current, q_half)
        except ValueError as exc:
            failure = f"{exc} at step {k}"
            break
        if osc_full <= 1e-13:
            failure = f"degenerate success: zero oscillation at step {k}"
            break
        eta_k = 1.0 - osc_half / osc_full
        eta_min = min(eta_min, eta_k)
        if k == 1:
            try:
                delta = choose_delta(rho, eta_k)
            except InfeasibleConstants as exc:
                failure = f"{exc} at step {k}"
                break

        # velocity split over the flow window; step 1 uses the two-piece split
        window = flow_cyl.window(current)
        if not window:
            failure = f"no snapshots in the flow window at step {k}"
            break
        w_slow, split_list = _slow_evaluator(window, None if k == 1 else rho)
        sups = [sp.sup_slow_components(sample_pts) for sp in split_list]
        w2_sup = max([0.0] + [s2 for s2, _ in sups])
        w3_sup = max([0.0] + [s3 for _, s3 in sups])

        split_bound_ok = None
        if k >= 2:
            split_bound_ok = bool(
                w2_sup <= SPLIT_BOUND_CONSTANT * -np.log(rho)
                and w3_sup <= SPLIT_BOUND_CONSTANT * rho
            )

        path = recenter_flow(w_slow, M_k, flow_cyl.t_start, config.ode_step_divisor)
        containment_ok = path.max_abs + rho <= 0.5 + 1e-9

        # midrange over the recentered Q_{1/2}
        vmin, vmax = _extremes(
            f.values[q_half.space_mask(grid, tuple(path.at(f.time_stamp)))] for f in window
        )
        m = 0.5 * (vmax + vmin)
        m = float(np.clip(m, -1.0 + rho**delta, 1.0 - rho**delta))
        truncated_split = any(sp.truncated for sp in split_list)
        far_empty = all(sp.far_empty for sp in split_list)

        # the next iterate reads nothing older than this one: drop every
        # other reference to this generation, so that each snapshot is freed
        # as soon as its rescaled successor exists
        del window, split_list, w_slow
        new_history, outcome = rescale_recenter(
            _drain(current), flow_cyl, path, m, delta, M_k
        )
        # over every produced slice, t' = 0 included
        new_min, new_max = outcome.inside_range
        produced_osc = new_max - new_min
        amplitude *= rho**delta
        records.append(
            OscillationRecord(
                step_index=k,
                radius=rho**k,
                oscillation=produced_osc,
                raw_oscillation=produced_osc * amplitude,
                midrange=m,
                M_k=M_k,
                eta=eta_k,
                w2_sup=w2_sup,
                w3_sup=w3_sup,
                max_shift=path.max_abs,
                containment_ok=containment_ok,
                split_bound_ok=split_bound_ok,
                bounds=outcome,
                truncated_split=truncated_split,
                far_empty=far_empty,
            )
        )
        flags = (
            ("decay hypothesis |theta - m| <= rho^delta", outcome.hypothesis_ok),
            ("cylinder containment", containment_ok),
            ("outer bound |theta| <= 2 |x|^(2 delta)", outcome.outside_ok),
            ("split bound |w2| <= C log(1/rho), |w3| <= C rho", split_bound_ok),
            ("M monotone", outcome.M_monotone),
        )
        failed = [name for name, ok in flags if ok is not None and not ok]
        if failed:
            failure = f"{failed[0]} failed at step {k}"
            break
        current = new_history
        M_k = outcome.M_next

    slope = np.nan
    C_step = 0.0
    if len(records) >= 2:
        ks = np.array([r.step_index for r in records], dtype=float)
        raws = np.array([max(r.raw_oscillation, 1e-300) for r in records])
        slope = np.polyfit(ks * np.log(rho), np.log(raws), 1)[0]
        C_step = max(
            max(r.w2_sup for r in records[1:]) * M / (-np.log(rho)),
            max(r.w3_sup for r in records[1:]) * M / rho,
        )
    return IterationResult(
        records=records,
        delta=float(delta) if delta is not None else np.nan,
        eta_min=float(eta_min) if np.isfinite(eta_min) else np.nan,
        fitted_decay_exponent=float(slope),
        completed_steps=len(records),
        L=records[0].w2_sup * M if records else np.nan,
        C_step=C_step,
        failure=failure,
    )


class _Normalized:
    """A raw snapshot, relabelled in time, whose ``values`` reads a fresh
    ``raw.values / scale``: no divided copy is held, and the raw field's
    finiteness scan is not run again."""

    def __init__(self, raw, scale, time_stamp):
        self.raw, self.scale, self.time_stamp = raw, scale, time_stamp
        self.grid = raw.grid

    @property
    def values(self):
        return self.raw.values / self.scale


def normalize_window(history, t_end):
    """Rescale a raw history to the normalized iteration setup.

    Selects snapshots in (t_end - 1, t_end], relabels times to (0, 1], and
    divides values by s = max(sup |theta|, tail at window start), so that
    both normalization preconditions hold; returns (new history, M = s).
    The new history is views that hold the raw snapshots.
    """
    if not history:
        raise ValueError("empty history")
    window = [f for f in history if t_end - 1.0 - 1e-9 <= f.time_stamp <= t_end + 1e-9]
    if not window:
        raise ValueError("no snapshots in the unit window")
    sup = max(float(np.max(np.abs(f.values))) for f in window)
    tail0 = tail_integral(window[0])
    s = max(sup, tail0, 1e-300)
    out = [_Normalized(f, s, f.time_stamp - (t_end - 1.0)) for f in window]
    return out, float(s)
