"""Time integration of the dissipative SQG equation and energy bookkeeping.

The equation is d_t theta + w . grad theta + Lambda^alpha theta = 0 with
w = (-R_2 theta, R_1 theta).  The stiff dissipation is treated exactly by an
integrating factor exp(-|k|^alpha dt); the nonlinearity is advanced with an
exponential integrator (ETD-RK2 or ETD-RK4 of Cox & Matthews, J. Comput.
Phys. 176, 2002).  Their phi-function tables are real functions of
z = -|k|^alpha dt: Horner sums of their Taylor series for |z| <= 2 and
their closed forms beyond, tested to 1e-14 relative against 120-digit
values (next to f1's root z = -2.688, to 1e-16 dt absolute).  The mean of
theta is conserved exactly; initial data must be mean-zero.

The integrator works on the rfft2 half spectrum through the grid's shared
``spectral.half_spectrum`` operator (symbols, dealias mask, distinct radii)
and the ``spectral.rfft2``/``irfft2`` pair.  The dissipation symbol is
radial, so the phi-function tables of a step size are evaluated and kept
once per distinct |k| (6801 radii for the 33 024 modes of a 256^2 grid).
A solver keeps the tables of its PHI_CACHE_SIZE most recently used step
sizes; a table rebuilt after its eviction equals its first build.  When
the step size changes, the solver scatters that size's tables onto the
modes, into one per-mode set it owns.  Each solver allocates its work
arrays once; a warm ETD-RK4 step then allocates only the new state, so its
transforms take no page faults.

Energy bookkeeping follows the level-set truncations theta_lambda =
(theta - lambda)_+.  The audit checks, for every level and every ordered
snapshot pair,

    ||theta_l(t2)||_L2^2 + 2 * int_t1^t2 ||theta_l||_{Hdot^(alpha/2)}^2 dt
        <= ||theta_l(t1)||_L2^2 + tolerance.

The dissipation seminorm has order alpha/2, i.e. half the order of the
dissipation operator: the exact rate of L^2 decay is the pairing
int theta_l * Lambda^alpha theta dx, which dominates the Hdot^(alpha/2)
seminorm squared of theta_l but not the Hdot^alpha one (the order-alpha
variant is violated already by theta = sin(2 x1) at level 0).  The audit
records the pairing as well, since for smooth solutions the L^2 balance
closes exactly against it.  The seminorm and the pairing are Parseval sums
on the half spectrum (one rfft2 per snapshot and one per level); the energy
is the physical sum.  The time integrals are trapezoid sums over the
snapshot gaps, which may differ; the L2 and L-infinity decay checks read
their norms from the snapshots alone.
"""

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import (
    Grid,
    ScalarField,
    half_spectrum,
    irfft2,
    l2_norm,
    parseval_sum,
    require_mean_zero,
    rfft2,
)

CFL_SAFETY = 0.5
BLOWUP_FACTOR = 10.0
# Taylor coefficients of the ETD tables per unit dt, row j for z^j (j < 30);
# the first omitted term is below 1e-23 of each table at |z| = 2
PHI_NAMES = ("phi1_half", "f1", "f2", "f3", "phi1", "phi2")
PHI_SERIES = np.array([
    [1 / (2 ** (j + 1) * math.factorial(j + 1)), (j + 1) ** 2 / math.factorial(j + 3),
     (j + 1) / math.factorial(j + 3), (1 - j) / math.factorial(j + 3),
     1 / math.factorial(j + 1), 1 / math.factorial(j + 2)]
    for j in range(30)
])
AUDIT_REL_TOLERANCE = 1e-6  # per-pair slack of the energy audit, relative to ||theta_l(t1)||^2
LINF_SLOPE_SLACK = 0.2  # allowed excess of the fitted L-infinity slope over -1/alpha
L2_MONOTONE_SLACK = 1e-8  # allowed relative growth of the L2 norm between snapshots
LINF_FIT_START = 0.1  # first time of the L-infinity decay fit
# Phi-table sets a solver keeps, the least recently used evicted first.  A
# set is 8 tables on the distinct radii (0.4 MiB at 256^2; the per-mode set
# the solver steps with is 2.1 MiB, held once).  Sizes recur: t accumulates
# rounding, so equal gaps give sub-steps that differ in their last bits.  20
# uniform gaps use sizes 0..9, 8, 10..13 (14 builds, 1 recurrence), the
# iteration schedule 22 builds and 24 recurrences, two runs over 10 gaps 16
# and 4; a one-slot cache would build 15, 46 and 20 sets.
PHI_CACHE_SIZE = 8


class BlowUpError(RuntimeError):
    """Raised when max|theta| grows more than BLOWUP_FACTOR in one step."""


class StabilityError(RuntimeError):
    """Raised when the configured dt exceeds the CFL bound."""


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one integration.

    alpha is the dissipation order in (0, 1]; epsilon = 1 - alpha is stored
    for consumers that work in extension variables.  The advection term is
    always dealiased by the 2/3 rule.  ``integrator`` selects ETD-RK4 (the
    production scheme) or ETD-RK2 (its second-order reference).
    """

    alpha: float
    dt: float
    t_end: float
    integrator: str = "etd_rk4"

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0 < self.dt < np.inf and 0 <= self.t_end < np.inf):
            raise ValueError("dt must be positive and t_end non-negative, both finite")
        if self.integrator not in ("etd_rk2", "etd_rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")

    @property
    def epsilon(self):
        return 1.0 - self.alpha


def truncate_level(theta, level):
    """Level-set truncation (theta - level)_+."""
    return ScalarField(
        theta.grid, np.maximum(theta.values - level, 0.0), theta.time_stamp
    )


def _phi_coefficients(z_flat, dt):
    """ETD coefficients at the real z = rate * dt, times dt.

    Horner sums of the Taylor series for |z| <= 2, where the closed forms
    cancel, and the closed forms beyond (expm1 for phi1, phi1_half, phi2).
    """
    acc = np.zeros((len(PHI_NAMES), len(z_flat)))
    for coefficients in PHI_SERIES[::-1]:  # Horner, highest power first
        acc *= z_flat
        acc += coefficients[:, None]
    tables = dict(zip(PHI_NAMES, acc))
    far = np.abs(z_flat) > 2.0
    z = z_flat[far]
    ez, em1, z3 = np.exp(z), np.expm1(z), z**3
    tables["phi1_half"][far] = np.expm1(z / 2.0) / z
    tables["f1"][far] = (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3
    tables["f2"][far] = (2.0 + z + ez * (z - 2.0)) / z3
    tables["f3"][far] = (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3
    tables["phi1"][far] = em1 / z
    tables["phi2"][far] = (em1 - z) / (z * z)
    return {k: dt * v for k, v in tables.items()}


class SqgSolver:
    """Pseudo-spectral SQG integrator on a fixed grid.

    Works internally on the rfft2 half-spectrum of the real state (the
    Hermitian-redundant modes are never stored).  ``steps`` and
    ``phi_builds`` count the steps taken and the phi-table sets built.  The
    solver owns its work arrays: one complex scratch for the transforms,
    the physical fields of the nonlinear term, the ETD-RK4 stage arrays and
    the 8 per-mode phi tables, all allocated once and reused, so one solver
    steps one state at a time.  The tables ``_coefficients`` returns are
    that per-mode set: they change when it is called with another step
    size.  The evolving field is not among the work arrays: stepping takes
    a coefficient array and returns a fresh one, so snapshots can be
    audited concurrently with further stepping.
    """

    def __init__(self, grid, config):
        self.grid = grid
        self.config = config
        self.op = half_spectrum(grid)
        # -|k|^alpha on the distinct radii (radii[0] = 0); the tables built
        # from it are scattered onto the modes by op.radius_index
        radii = self.op.radii
        self.rate = -(radii**config.alpha)
        self._coeff_cache = OrderedDict()
        self.steps = 0
        self.phi_builds = 0
        self._last_max_speed = 0.0
        half = self.op.magnitude.shape
        self._scratch = np.empty(half, dtype=np.complex128)
        self._u, self._v, self._tx, self._ty = (np.empty(grid.shape) for _ in range(4))
        self._stage = {
            name: np.empty(half, dtype=np.complex128)
            for name in ("n0", "na", "nb", "nc", "e_that", "a", "b", "cc")
        }
        self._tables = {name: np.empty(half) for name in PHI_NAMES + ("exp_full", "exp_half")}
        self._tables_key = None

    def _coefficients(self, dt):
        """The 8 per-mode tables of step size dt: the solver's own work set,
        refilled from the per-radius cache when the step size changes."""
        cache = self._coeff_cache
        key = float(dt)
        if key in cache:
            cache.move_to_end(key)
        else:
            z = self.rate * dt
            cache[key] = tables = _phi_coefficients(z, dt)
            tables["exp_full"] = np.exp(z)
            tables["exp_half"] = np.exp(z / 2.0)
            if len(cache) > PHI_CACHE_SIZE:
                cache.popitem(last=False)
            self.phi_builds += 1
        if key != self._tables_key:
            for name, table in cache[key].items():
                np.take(table, self.op.radius_index, out=self._tables[name])
            self._tables_key = key
        return self._tables

    def nonlinear_spectral(self, that, record_speed=False, out=None):
        """Spectral tendency of the advection term: -fft(w . grad theta).

        The result goes to ``out`` if given, else to a fresh array.  With
        ``record_speed`` the maximum speed max|w| is kept for ``cfl_bound``.
        """
        op = self.op
        scratch = self._scratch
        u, v, tx, ty = self._u, self._v, self._tx, self._ty
        irfft2(np.multiply(op.riesz_u, that, out=scratch), out=u)
        irfft2(np.multiply(op.riesz_v, that, out=scratch), out=v)
        irfft2(np.multiply(op.dx1, that, out=scratch), out=tx)
        irfft2(np.multiply(op.dx2, that, out=scratch), out=ty)
        tx *= u
        ty *= v
        tx += ty
        if record_speed:
            u *= u
            v *= v
            u += v
            self._last_max_speed = float(np.sqrt(u.max()))
        adv = rfft2(tx, out=out)
        adv *= op.dealias
        adv[0, 0] = 0.0  # exact mean conservation
        return np.negative(adv, out=adv)

    def step_spectral(self, that, dt):
        """One ETD step; the last stage records the speed for ``cfl_bound``.

        Returns a fresh array; ETD-RK4 allocates nothing else.
        """
        c = self._coefficients(dt)
        self.steps += 1
        if self.config.integrator == "etd_rk2":
            n0 = self.nonlinear_spectral(that)
            a = c["exp_full"] * that + c["phi1"] * n0
            na = self.nonlinear_spectral(a, record_speed=True)
            return a + c["phi2"] * (na - n0)
        # in place, in the operation order of a = E/2 that + P/2 n0,
        # b = E/2 that + P/2 na, cc = E/2 a + P/2 (2 nb - n0) and
        # E that + f1 n0 + 2 f2 (na + nb) + f3 nc
        w = self._stage
        n0 = self.nonlinear_spectral(that, out=w["n0"])
        e_that = np.multiply(c["exp_half"], that, out=w["e_that"])
        a = np.multiply(c["phi1_half"], n0, out=w["a"])
        a += e_that
        na = self.nonlinear_spectral(a, out=w["na"])
        b = np.multiply(c["phi1_half"], na, out=w["b"])
        b += e_that
        nb = self.nonlinear_spectral(b, out=w["nb"])
        cc = np.multiply(2.0, nb, out=w["cc"])
        cc -= n0
        cc *= c["phi1_half"]
        a *= c["exp_half"]
        cc += a
        nc = self.nonlinear_spectral(cc, record_speed=True, out=w["nc"])
        out = c["exp_full"] * that
        n0 *= c["f1"]
        out += n0
        na += nb
        na *= 2.0
        na *= c["f2"]
        out += na
        nc *= c["f3"]
        out += nc
        return out

    def cfl_bound(self):
        """CFL bound from the last stage of the most recent step."""
        if self._last_max_speed == 0.0:
            return np.inf
        return CFL_SAFETY * self.grid.spacing / self._last_max_speed


@dataclass
class SimulationResult:
    history: list  # ScalarField snapshots, ascending time
    final: ScalarField
    times: np.ndarray  # per-step times
    l2_norms: np.ndarray
    linf_norms: np.ndarray
    steps: int  # ETD steps taken
    phi_builds: int  # phi-table sets built, rebuilds after eviction included


def run(theta0, config, snapshot_times=None):
    """Integrate from theta0 to t_end, saving snapshots at requested times.

    Each gap is covered with uniform sub-steps no longer than config.dt.  A
    snapshot is stamped with the running sum of those sub-steps, not with
    the requested time: a snapshot requested at 0.1 is stamped
    0.09999999999999999.  Stamping the requested time moves the
    benchmark's reference scalars, so it waits for ROADMAP item 3.  A
    requested time outside [theta0.time_stamp, t_end], beyond
    1e-9 max(1, t_end) of rounding, is a ValueError, and so is an empty
    request; a time within that rounding below the start stores the initial
    field.  ``final`` is the last snapshot.  Per-step L2 and L-infinity
    norms are recorded for the decay diagnostics.  ``steps`` and
    ``phi_builds`` are the solver's counts.  Deterministic for fixed input.
    """
    require_mean_zero(theta0, "the solver")
    grid = theta0.grid
    solver = SqgSolver(grid, config)
    h2 = grid.spacing**2
    t = float(theta0.time_stamp)

    if snapshot_times is None:
        snapshot_times = [config.t_end]
    targets = sorted(set(float(s) for s in snapshot_times))
    if not targets:
        raise ValueError("no snapshot time requested")
    slack = 1e-9 * max(1.0, config.t_end)
    for target in targets:
        if not t - slack <= target <= config.t_end + slack:
            raise ValueError(
                f"snapshot time {target!r} lies outside the run [{t!r}, {config.t_end!r}]"
            )
    if targets[-1] < config.t_end:
        targets.append(config.t_end)

    that = rfft2(theta0.values)
    times = [t]
    l2s = [float(np.sqrt(np.sum(theta0.values**2) * h2))]
    linfs = [float(np.max(np.abs(theta0.values)))]
    history = []
    if targets[0] - t < 1e-12:
        # store the initial snapshot verbatim (no transform round trip)
        history.append(ScalarField(grid, theta0.values.copy(), t))
        targets = targets[1:]

    prev_max = max(linfs[0], 1e-300)
    vals = np.empty(grid.shape)
    for target in targets:
        gap = target - t
        if gap <= 1e-14:
            continue
        n_sub = max(1, int(np.ceil(gap / config.dt - 1e-12)))
        dt_sub = gap / n_sub
        for _ in range(n_sub):
            that = solver.step_spectral(that, dt_sub)
            if dt_sub > solver.cfl_bound():
                raise StabilityError(
                    f"dt={dt_sub:.3e} exceeds CFL bound {solver.cfl_bound():.3e}"
                    f" at t={t:.6f}"
                )
            t += dt_sub
            # irfft2 overwrites its input: invert a copy of the state
            np.copyto(solver._scratch, that)
            irfft2(solver._scratch, out=vals)
            cur_max = float(np.max(np.abs(vals)))
            if cur_max > BLOWUP_FACTOR * max(prev_max, 1e-12):
                raise BlowUpError(
                    f"max|theta| grew from {prev_max:.3e} to {cur_max:.3e} "
                    f"in one step at t={t:.6f}"
                )
            prev_max = max(cur_max, 1e-300)
            times.append(t)
            l2s.append(float(np.sqrt(np.sum(vals**2) * h2)))
            linfs.append(cur_max)
        history.append(ScalarField(grid, vals.copy(), t))

    return SimulationResult(
        history=history,
        final=history[-1],
        times=np.asarray(times),
        l2_norms=np.asarray(l2s),
        linf_norms=np.asarray(linfs),
        steps=solver.steps,
        phi_builds=solver.phi_builds,
    )


@dataclass
class EnergyAuditResult:
    """Accumulated dissipation per level and the audit's verdict.

    ``hdot_alpha_accumulated[i, j]`` is the trapezoidal time integral up to
    the j-th snapshot of the squared Hdot^(alpha/2) seminorm of
    (theta - levels[i])_+, the dissipation seminorm of the order-alpha
    equation.  ``pairing_accumulated`` integrates the exact dissipation
    pairing int (theta - level)_+ Lambda^alpha theta dx, against which the
    L^2 balance of smooth solutions closes as an identity.
    """

    hdot_alpha_accumulated: np.ndarray
    pairing_accumulated: np.ndarray
    quad_allowance: np.ndarray  # same layout as hdot_alpha_accumulated
    violations: list  # (level, t1, t2, excess)
    passed: bool


def _snapshot_times(history):
    """The snapshots' times; they must increase strictly."""
    if len(history) == 0:
        raise ValueError("empty history")
    times = np.array([f.time_stamp for f in history])
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshot times must be strictly increasing")
    return times


def _cumulative_trapezoid(values, widths):
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * widths)
    return out


def level_terms(field, levels, alpha):
    """Per-level terms of the energy audit at one snapshot.

    Returns a (3, len(levels)) array: for t = (field - level)_+ the energy
    sum_x t^2 h^2 (a physical sum), the squared Hdot^(alpha/2) seminorm of
    t and the pairing int t Lambda^alpha field dx, the last two by Parseval
    on the half spectrum from one rfft2 of the field and one per level.
    """
    grid = field.grid
    h2 = grid.spacing**2
    weight = half_spectrum(grid).radial_power(alpha)
    lap_hat = weight * rfft2(field.values)
    out = np.empty((3, len(levels)))
    for i, lam in enumerate(levels):
        trunc = truncate_level(field, lam).values
        t_hat = rfft2(trunc)
        out[0, i] = np.sum(trunc**2) * h2
        out[1, i] = parseval_sum(grid, t_hat, weight * t_hat)
        out[2, i] = parseval_sum(grid, t_hat, lap_hat)
    return out


def _max_within_two(values):
    """Largest entry within two places of each entry, zeros past the ends:
    ``scipy.ndimage.maximum_filter1d(values, 5, mode="constant")``."""
    return sliding_window_view(np.pad(values, 2), 5).max(axis=1)


def audit_energy(history, levels, alpha):
    """Check the level-set energy inequality on every snapshot pair.

    history must be sampled at strictly increasing times; each gap is one
    trapezoid panel of its own width.  The tolerance per pair is
    AUDIT_REL_TOLERANCE * ||theta_l(t1)||^2 plus a trapezoid-curvature
    allowance estimated from second differences of the dissipation
    integrand.  The result's arrays have one row per level and one column
    per snapshot.
    """
    times = _snapshot_times(history)
    dt = np.diff(times)  # panel widths
    levels = np.asarray(levels, dtype=float)

    n_lev, n_t = len(levels), len(times)
    energy = np.zeros((n_lev, n_t))
    hdot = np.zeros((n_lev, n_t))
    pairing = np.zeros((n_lev, n_t))
    for j, f in enumerate(history):
        energy[:, j], hdot[:, j], pairing[:, j] = level_terms(f, levels, alpha)

    hdot_acc = np.zeros((n_lev, n_t))
    pair_acc = np.zeros((n_lev, n_t))
    allowance = np.zeros((n_lev, n_t))
    # Trapezoid error over a panel of width dt is (dt^2/12) * int |g''| up
    # to higher order, and int_panel g'' telescopes to differences of g'; the
    # allowance estimates that variation two ways and takes the larger:
    #   (1) finite differences of g', with each panel seeing the largest
    #       variation within two panels (a level crossing max|theta| puts a
    #       kink in g that the centered stencils smear);
    #   (2) the completely-monotone model floor g'' >= g'^2 / g, exact for
    #       exponential decay, which a kink-adjacent sample set can mask
    #       from the finite differences entirely.
    # Both estimates vanish like dt^2 under snapshot refinement.
    QUAD_SAFETY = 3.0
    for i in range(n_lev):
        hdot_acc[i] = _cumulative_trapezoid(hdot[i], dt)
        pair_acc[i] = _cumulative_trapezoid(pairing[i], dt)
        if n_t > 2:
            g = hdot[i]
            gprime = np.gradient(g, times, edge_order=2)
            variation = np.abs(np.diff(gprime))
            smeared = _max_within_two(variation)
            g_panel = np.maximum(np.maximum(g[:-1], g[1:]), 1e-300)
            slope_panel = np.maximum(np.abs(gprime[:-1]), np.abs(gprime[1:]))
            model_floor = slope_panel**2 * dt / g_panel
            # g is 0 at both ends only past the level's last crossing, where
            # g vanishes on the whole panel and the trapezoid is exact
            model_floor[(g[:-1] == 0.0) & (g[1:] == 0.0)] = 0.0
            panel_err = QUAD_SAFETY * dt * dt / 12.0 * np.maximum(smeared, model_floor)
            allowance[i, 1:] = np.cumsum(panel_err)

    violations = []
    for i in range(n_lev):
        for a in range(n_t):
            lhs = energy[i, a + 1 :] + 2.0 * (hdot_acc[i, a + 1 :] - hdot_acc[i, a])
            tol = AUDIT_REL_TOLERANCE * energy[i, a] + 2.0 * (
                allowance[i, a + 1 :] - allowance[i, a]
            )
            rhs = energy[i, a] + tol
            bad = np.where(lhs > rhs)[0]
            for b in bad:
                violations.append(
                    (levels[i], times[a], times[a + 1 + b], float(lhs[b] - rhs[b]))
                )
    return EnergyAuditResult(
        hdot_alpha_accumulated=hdot_acc,
        pairing_accumulated=pair_acc,
        quad_allowance=allowance,
        violations=violations,
        passed=not violations,
    )


def check_l2_monotone(history):
    """Thm-style monotonicity of the L2 norm over the snapshots.

    Each snapshot's L2 norm may exceed its predecessor's by the relative
    slack L2_MONOTONE_SLACK.
    """
    _snapshot_times(history)
    l2 = np.array([l2_norm(f) for f in history])
    ok = l2[1:] <= l2[:-1] * (1.0 + L2_MONOTONE_SLACK)
    return bool(np.all(ok))


@dataclass
class LinfDecayFit:
    constant: float  # envelope constant sup_t ||theta||_inf t^(1/alpha) / l2(0)
    slope: float  # least-squares slope of log||theta||_inf vs log t
    passed: bool


def check_linf_decay(history, alpha):
    """Fit the L-infinity decay from LINF_FIT_START to the last snapshot.

    The reported constant is the envelope sup over the window of
    ||theta(t)||_inf * t^(1/alpha) / ||theta_0||_L2, with theta_0 the
    first snapshot, which bounds the ratio by construction; the pass
    criterion is that the fitted log-log slope of max|theta| is at most
    -1/alpha + LINF_SLOPE_SLACK (decay at least as fast as t^(-1/alpha);
    faster decay, e.g. the eventually exponential torus decay, passes).
    """
    t = _snapshot_times(history)
    linf_norms = np.array([float(np.max(np.abs(f.values))) for f in history])
    in_window = t >= LINF_FIT_START
    if not np.any(in_window):
        raise ValueError("empty fitting window")
    if np.all(linf_norms[in_window] == 0.0):
        # identically zero solution: the bound holds vacuously
        return LinfDecayFit(constant=0.0, slope=-np.inf, passed=True)
    sel = in_window & (linf_norms > 0)
    if sel.sum() < 8 or t[-1] / LINF_FIT_START < 10.0:
        raise ValueError("fitting window must span at least one decade")
    tt = t[sel]
    linf = linf_norms[sel]
    ratio = linf * tt ** (1.0 / alpha) / l2_norm(history[0])
    constant = float(np.max(ratio))
    slope = float(np.polyfit(np.log(tt), np.log(linf), 1)[0])
    passed = np.isfinite(constant) and slope <= -1.0 / alpha + LINF_SLOPE_SLACK
    return LinfDecayFit(constant=constant, slope=slope, passed=passed)


# --- checkpoint format (shared with the run harness) ---

CHECKPOINT_MAGIC = b"SQGD"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIdd")  # magic, version, n, alpha, time_stamp


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


def write_checkpoint(path, field, alpha):
    """Binary snapshot: SQGD magic, version, N, alpha, time, row-major f64."""
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, field.grid.n, float(alpha),
        float(field.time_stamp),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.values.astype("<f8").tobytes(order="C"))


def read_checkpoint(path, side_length=2.0 * np.pi):
    """Decode a checkpoint; raises CheckpointError with byte positions.

    The format does not carry the domain side length; pass the one the run
    used (default 2*pi).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointError(
            f"truncated header: need {_HEADER.size} bytes, found {len(raw)}"
        )
    magic, version, n, alpha, time_stamp = _HEADER.unpack_from(raw, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r} at byte 0")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported format version {version} at byte 4")
    if n <= 0 or n & (n - 1):
        raise CheckpointError(f"grid size N={n} at byte 8 is not a positive power of two")
    if not 0.0 < alpha <= 1.0:
        raise CheckpointError(f"alpha={alpha!r} at byte 12 is outside (0, 1]")
    if not np.isfinite(time_stamp):
        raise CheckpointError(f"non-finite time {time_stamp!r} at byte 20")
    expected = _HEADER.size + 8 * n * n
    if len(raw) != expected:
        raise CheckpointError(
            f"payload length mismatch: expected {expected} bytes for N={n}, "
            f"found {len(raw)} (missing {expected - len(raw)})"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise CheckpointError(
            f"non-finite payload value at byte {_HEADER.size + 8 * int(bad[0])}"
        )
    field = ScalarField(Grid(n, side_length), values.reshape(n, n).copy(), time_stamp)
    return field, alpha, version
