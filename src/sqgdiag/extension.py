"""Weighted extension of a scalar field to the upper half space z > 0.

The extension solves div(z^eps grad theta) = 0 with theta(x, 0) given, which
factorizes per Fourier mode: theta_hat(k, z) = theta_hat(k, 0) * phi(|k| z),
where phi is the unique bounded solution of

    phi'' + (eps / s) phi' - phi = 0,    phi(0) = 1,  phi(inf) = 0.

phi is evaluated by the modified-Bessel closed form
phi(s) = s^nu K_nu(s) / (2^(nu-1) Gamma(nu)) with nu = (1 - eps)/2
(Caffarelli & Silvestre, Comm. PDE 32, 2007), so 0 < nu <= 1/2.  Gamma
comes from ``math.gamma`` and K_nu from the package's own kernel
``_bessel_k``: at nu = 1/2 its closed form sqrt(pi / (2 s)) exp(-s), where
phi_0(s) = exp(-s), and otherwise the trapezoid rule on the integral
K_nu(s) = int_0^inf exp(-s cosh t) cosh(nu t) dt.  That integrand is
analytic in the strip |Im t| < pi/2, so the rule converges exponentially in
its step (Trefethen & Weideman, SIAM Rev. 56, 2014), and all its terms are
positive, so the error stays near rounding from subnormal s up; the step
rule and the form of the exponent are in ``_bessel_k``.  So importing the
package loads no scipy.  The test suite holds the kernel to 2e-14 relative
of ``mpmath.besselk`` at 40 digits and to ``scipy.special.kv``; phi's
independent oracle, a stiff ODE integration started from the large-s
asymptotics, lives in ``tests/oracles.py``, and the two must agree to 1e-8.

The multiplier is radial, so ``extend`` evaluates the closed form once per
distinct |k| of the rfft2 half spectrum (6801 values for the 33 024 modes
of a 256^2 grid) at every z-level and caches that table per (grid,
z-levels, eps).  The extension keeps one rfft2 of the trace and builds a
level only when it is read, by scattering that level's table row onto the
modes and one irfft2 (``ExtensionField``): on 45 levels at 256^2 it holds
0.5 MiB instead of a 22.5 MiB stack, and readers that go level by level
keep one level alive.

The weighted Neumann trace lim_{z->0} z^eps d_z theta is estimated by
Richardson extrapolation of one-sided difference quotients on a geometric
z-ladder.  It reproduces the spectral fractional Laplacian of order 1 - eps
up to one constant d_eps, which is calibrated numerically on a single mode
(for eps = 0 the classical Poisson-extension value is d_0 = -1) and must
then be independent of the mode, which is what certifies the trace.
"""

import math
from functools import lru_cache

import numpy as np

from .spectral import Grid, ScalarField, fractional_laplacian, half_spectrum, irfft2, rfft2

# exp(-s) is 0 in double precision from here on, and so are K_nu(s) and phi
EXP_UNDERFLOW = 746.0


def extension_profile(s, epsilon):
    """Bounded profile phi_eps(s), closed form via the K Bessel function.

    phi is 1 at s <= 0 and exactly 0 once exp(-s) underflows.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    s = np.asarray(s, dtype=float)
    nu = (1.0 - epsilon) / 2.0
    norm = 2.0 ** (nu - 1.0) * math.gamma(nu)
    out = np.where(s > 0, 0.0, 1.0)
    live = (s > 0) & (s < EXP_UNDERFLOW)
    with np.errstate(under="ignore"):
        out[live] = s[live] ** nu * _bessel_k(nu, s[live]) / norm
    return out


def _bessel_k(nu, x):
    """K_nu(x) for 0 < nu <= 1/2 on a 1-d array of finite x > 0.

    At nu = 1/2 the closed form sqrt(pi / (2 x)) exp(-x), so that
    phi_0(s) = exp(-s) exactly.  Otherwise the trapezoid rule with step h on

        K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,

    whose integrand is analytic in the strip |Im t| < pi/2, so the rule
    converges exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014).
    With x cosh t = x + 2 (sqrt(x) sinh(t/2))^2 it reads

        K_nu(x) = exp(-x) h (1/2 + sum_k exp(-2 (sqrt(x) sinh(k h / 2))^2) cosh(nu k h)),

    an exponent that stays finite down to x = 5e-324, where the integrand's
    cliff lies near t = 745 and sinh(t)^2 alone would overflow.  Every term
    is positive, so nothing cancels.  The step h = min(0.2, 0.5 / sqrt(x))
    follows the integrand's width, about 1 / sqrt(x) for large x; a coarser
    step, min(0.25, 0.7 / sqrt(x)), is 5e-14 off at x in [1, 10].  The
    integrand is unimodal in t, so up to its peak the k-th term is at least
    1/k of the sum, and an element leaves the loop once its term falls below
    a quarter ulp of its running sum, which happens only on the
    double-exponential tail.
    """
    if nu == 0.5:
        # sqrt(pi / (2 x)) in two roots, which stay finite at subnormal x
        return math.sqrt(0.5 * math.pi) / np.sqrt(x) * np.exp(-x)
    # the live elements' indices, roots, steps and sums, compacted whenever
    # some element finishes; a finished sum is scattered once
    r = np.sqrt(x)
    h = np.minimum(0.2, 0.5 / r)
    active, s, total = np.arange(x.size), np.full_like(x, 0.5), np.empty_like(x)
    k = 0
    while active.size:
        k += 1
        t = k * h
        term = np.exp(-2.0 * (r * np.sinh(0.5 * t)) ** 2) * np.cosh(nu * t)
        s += term
        live = term >= 0.25 * np.spacing(s)
        if not live.all():
            total[active[~live]] = s[~live]
            active, r, h, s = active[live], r[live], h[live], s[live]
    # the step again, not a full-size copy held through the loop
    return np.exp(-x) * np.minimum(0.2, 0.5 / np.sqrt(x)) * total


class ExtensionField:
    """theta(x, z) on grid x z_levels, carrying the weight exponent.

    ``level(j)`` is theta(., z_levels[j]) and ``values`` the (n_z, n, n)
    stack of all levels, for readers of the whole lattice.  A field made
    from a stack holds it, and ``level(j)`` is ``values[j]``.  A field
    returned by ``extend`` holds only the trace's rfft2 half spectrum and
    the shared profile table: every call of ``level(j)`` builds level j
    (one irfft2) and checks it against the maximum principle, and
    ``values`` builds every level.
    """

    def __init__(self, base_grid, z_levels, values, weight_exponent, time_stamp=0.0):
        self.base_grid = base_grid
        self.z_levels = np.asarray(z_levels, dtype=float)
        self.weight_exponent = weight_exponent
        self.time_stamp = time_stamp
        if self.z_levels[0] != 0.0 or np.any(np.diff(self.z_levels) <= 0):
            raise ValueError("z_levels must be strictly increasing and start at 0")
        self.shape = (len(self.z_levels),) + base_grid.shape
        if values is not None and values.shape != self.shape:
            raise ValueError("values shape does not match grid x z_levels")
        self._stack = values
        self._trace = None  # extend's (spectrum, table, radius index, sup|level 0|, tolerance)

    def level(self, j):
        """theta(., z_levels[j]), an (n, n) array."""
        if self._trace is None:
            return self._stack[j]
        spec, table, index, sup0, tol = self._trace
        out = irfft2(spec * table[j][index])
        defect = float(np.max(np.abs(out)) - sup0)
        if defect > tol:
            raise AssertionError(f"maximum principle violated by {defect:.3e}")
        return out

    @property
    def values(self):
        """The (n_z, n, n) stack; a field from ``extend`` builds it on every read."""
        if self._trace is None:
            return self._stack
        return _levels_on_box(self, (slice(None), slice(None)), np.empty(self.shape))


def _levels_on_box(ext, box, out):
    """Copy every level of ext, cut to box, into out, one level at a time."""
    for j in range(len(out)):
        out[j] = ext.level(j)[box]
    return out


@lru_cache(maxsize=8)
def _profile_table(grid, z_levels, epsilon):
    """phi(|k| z) on the distinct |k| of the half spectrum, per z-level.

    table[j, m] is the profile at z_levels[j] and the m-th distinct radius
    of ``half_spectrum(grid)``, so table[:, op.radius_index] is the
    multiplier on the rfft2 layout.  Read-only (it is shared by the cache).
    """
    table = extension_profile(np.multiply.outer(z_levels, half_spectrum(grid).radii), epsilon)
    table.flags.writeable = False
    return table


def extend(theta, z_levels, epsilon):
    """Per-mode weighted harmonic extension of a mean-zero field.

    The zero mode is constant in z.  eps = 0 reduces to the classical
    Poisson extension phi_0(s) = exp(-s).  The field keeps one rfft2 of
    the trace and builds a level when it is read (``ExtensionField``);
    only level 0 is built here, for the maximum-principle reference.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    if not np.all(np.isfinite(theta.values)):
        raise ValueError("non-finite input")
    z_levels = np.asarray(z_levels, dtype=float)
    grid = theta.grid
    table = _profile_table(grid, tuple(z_levels.tolist()), float(epsilon))
    index = half_spectrum(grid).radius_index
    spec = rfft2(theta.values)
    ext = ExtensionField(grid, z_levels, None, epsilon, theta.time_stamp)
    sup0 = np.max(np.abs(irfft2(spec * table[0][index])))
    tol = 1e-10 * max(1.0, float(np.max(np.abs(theta.values))))
    ext._trace = (spec, table, index, sup0, tol)
    return ext


def grid_k_max(grid):
    """Largest wavevector magnitude representable on the grid."""
    return float(np.sqrt(2.0) * np.pi * grid.n / grid.side_length)


def trace_ladder(grid):
    """z = 0 and the four-level ratio-2 ladder up to 0.1 / k_max.

    These are the levels ``neumann_trace`` reads; a caller that also needs
    coarser levels merges them in with ``np.unique``.
    """
    top = 0.1 / grid_k_max(grid)
    return np.concatenate([[0.0], top / 2.0 ** np.arange(3, -1, -1)])


def neumann_trace(ext):
    """Estimate lim_{z->0} z^eps d_z theta by Richardson extrapolation.

    Uses the four smallest positive z-levels, which must lie in
    (0, 0.1/k_max] and form a geometric ladder.  The difference quotient
    D(z) = (1-eps) (theta(., z) - theta(., 0)) / z^(1-eps) has error
    expansion with exponents (1+eps, 2, 3+eps), each eliminated in turn.
    Returns a field proportional to Lambda^(1-eps) theta; the constant is
    d_eps (see calibrate_dtn_constant).
    """
    eps = ext.weight_exponent
    top = 0.1 / grid_k_max(ext.base_grid)
    pos = ext.z_levels[(ext.z_levels > 0) & (ext.z_levels <= top * (1 + 1e-9))]
    if len(pos) < 4:
        raise ValueError(
            f"insufficient small-z resolution: need 4 levels in (0, {top:.3e}], "
            f"found {len(pos)}"
        )
    ladder = pos[:4]
    ratios = ladder[1:] / ladder[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-6 * ratios[0]:
        raise ValueError("trace levels must form a geometric ladder")
    r = float(ratios[0])

    idx = [int(np.where(ext.z_levels == z)[0][0]) for z in ladder]
    boundary = ext.level(0)
    estimates = [
        (1.0 - eps) * (ext.level(i) - boundary) / z ** (1.0 - eps)
        for i, z in zip(idx, ladder)
    ]
    for p in (1.0 + eps, 2.0, 3.0 + eps):
        rp = r**p
        estimates = [
            (rp * estimates[i] - estimates[i + 1]) / (rp - 1.0)
            for i in range(len(estimates) - 1)
        ]
    return ScalarField(ext.base_grid, estimates[0])


def calibrate_dtn_constant(grid, epsilon, wavenumber=1):
    """Trace-to-multiplier ratio d_eps measured on one Fourier mode.

    The calibration field is sin(wavenumber * x1); the returned constant is
    the L^2 projection of the trace onto Lambda^(1-eps) of the mode.  Mode
    independence of this number (checked in the suite over |k| = 1, 2, 4, 8)
    is what certifies that the trace realizes the fractional Laplacian.
    """
    x1, _ = grid.coordinates()
    theta = ScalarField(grid, np.sin(wavenumber * x1))
    ext = extend(theta, trace_ladder(grid), epsilon)
    trace = neumann_trace(ext)
    target = fractional_laplacian(theta, 1.0 - epsilon)
    num = float(np.sum(trace.values * target.values))
    den = float(np.sum(target.values**2))
    return num / den


def weighted_z_moments(z1, z2, epsilon):
    """Integrals of z^eps and z^(1+eps) over [z1, z2] (weighted trapezoid)."""
    m0 = (z2 ** (1.0 + epsilon) - z1 ** (1.0 + epsilon)) / (1.0 + epsilon)
    m1 = (z2 ** (2.0 + epsilon) - z1 ** (2.0 + epsilon)) / (2.0 + epsilon)
    return m0, m1


def weighted_z_integral(z, g, epsilon):
    """int z^eps g(z) dz for sampled g, exact for piecewise-linear g.

    Handles the weight's vanishing at z = 0 without quadrature loss (a
    plain trapezoid of z^eps * g underestimates the first panel).
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(g, dtype=float)
    total = 0.0
    for j in range(len(z) - 1):
        z1, z2 = z[j], z[j + 1]
        m0, m1 = weighted_z_moments(z1, z2, epsilon)
        slope = (g[j + 1] - g[j]) / (z2 - z1)
        total += g[j] * m0 + slope * (m1 - z1 * m0)
    return total


def _z_derivative(values, z):
    """d/dz by centered differences, one-sided at the ends."""
    out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])  # no stack-sized temporaries
    out[1:-1] /= (z[2:] - z[:-2])[:, None, None]
    out[0] = (values[1] - values[0]) / (z[1] - z[0])
    out[-1] = (values[-1] - values[-2]) / (z[-1] - z[-2])
    return out


def _gradient_weight(grid):
    """Parseval weight of |grad f|^2 on the rfft2 half spectrum.

    sum_x |grad f|^2 h^2 = h^2 sum_k weight[k] |rfft2(f)[k]|^2, from the
    operator's derivative symbols (zero on their Nyquist lines, as for the
    real part of the full-spectrum derivative) and its Parseval weight.
    """
    op = half_spectrum(grid)
    return (np.abs(op.dx1) ** 2 + np.abs(op.dx2) ** 2) * op.parseval / float(grid.n) ** 2


SUPPORT_PAD = 2  # nodes of zeros around a cutoff's support box


def cutoff_box(cutoff, shape):
    """A cutoff as (n_z or 1, n, n) levels and the horizontal box of its support.

    ``shape`` is (n_z, n, n) of the extension lattice; the cutoff must be
    (n, n) (broadcast over z) or exactly ``shape``, and None is 1.  The box
    is a pair of slices: the bounding box of ``cutoff != 0`` over all
    levels, padded by SUPPORT_PAD nodes, so that a product with the cutoff
    vanishes outside it and a centred difference of the cutoff that wraps
    inside the box sees zeros at its edges.  A padded box that does not fit
    inside the grid, or an empty support, is the whole grid, where the wrap
    is the grid's own periodicity.
    """
    n = shape[-1]
    whole = (slice(0, n), slice(0, n))
    if cutoff is None:
        return np.ones((1, n, n)), whole
    cut = np.asarray(cutoff, dtype=float)
    if cut.shape == shape[1:]:
        cut = cut[None, :, :]
    if cut.shape not in ((1,) + shape[1:], shape):
        raise ValueError(
            f"cutoff shape {np.shape(cutoff)} is neither {shape[1:]} nor {shape}"
        )
    nonzero = np.any(cut != 0.0, axis=0)
    box = []
    for other in (1, 0):
        hit = np.flatnonzero(np.any(nonzero, axis=other))
        if hit.size == 0 or hit[0] < SUPPORT_PAD or hit[-1] + SUPPORT_PAD >= n:
            return cut, whole
        box.append(slice(hit[0] - SUPPORT_PAD, hit[-1] + SUPPORT_PAD + 1))
    return cut, tuple(box)


def weighted_dirichlet_energy(ext, cutoff=None):
    """Quadrature of int z^eps |grad(cutoff * theta)|^2 dx dz.

    x-derivatives are spectral per level, summed over x by Parseval on the
    half spectrum; the z-derivative uses centered differences with
    one-sided stencils at the ends; the z-integral uses the weighted
    trapezoid above.  Returns (value, error_estimate), the estimate being
    the curvature term of the panel-wise linear model.

    cutoff may be None (full window), a 2-d array broadcast over z, or an
    array shaped like ext.values; it must be supported inside the grid
    window.  cutoff * theta and its z-derivative are formed only on the
    cutoff's support box (``cutoff_box``), into which the levels are read
    one at a time; each level of the product is embedded in a zeroed
    (n, n) array for its transform, so the sums are those of the whole
    lattice.
    """
    cut, box = cutoff_box(cutoff, ext.shape)
    eta = cut[:, box[0], box[1]]
    prod = _levels_on_box(ext, box, np.empty(ext.shape[:1] + eta.shape[1:]))
    prod *= eta
    return _box_dirichlet(prod, box, ext.base_grid, ext.z_levels, ext.weight_exponent)


def _box_dirichlet(prod, box, grid, z, eps):
    """``weighted_dirichlet_energy`` of a product that vanishes outside box.

    prod holds the product on the box, shaped (len(z), box rows, box
    columns); ``local_energy_check`` calls this on its truncations directly.
    """
    grad_weight = _gradient_weight(grid)
    level = np.zeros(grid.shape)
    spec = np.empty((grid.n, grid.n // 2 + 1), dtype=complex)
    g_levels = np.empty(len(z))
    h2 = grid.spacing**2
    dz_prod = _z_derivative(prod, z)
    for j in range(len(z)):
        level[box] = prod[j]
        rfft2(level, out=spec)
        power = spec.real**2 + spec.imag**2
        g_levels[j] = (np.sum(grad_weight * power) + np.sum(dz_prod[j] ** 2)) * h2

    value = weighted_z_integral(z, g_levels, eps)
    if len(z) > 2:
        # piecewise-linear model residual: (dz^2/12) |G''| per panel, with
        # |G''| dz^2 estimated by second differences and the weight bounded
        # by its panel maximum
        curv = np.abs(np.diff(g_levels, 2))
        dz = np.diff(z)
        weight = np.maximum(z[1:-1], z[2:]) ** eps if eps > 0 else np.ones(len(z) - 2)
        err = float(np.sum(curv * np.maximum(dz[:-1], dz[1:]) * weight) / 12.0)
    else:
        err = np.inf
    return float(value), err
