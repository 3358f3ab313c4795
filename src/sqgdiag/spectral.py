"""Periodic-grid Fourier infrastructure.

Everything downstream (solver, extension, diagnostics) is built on a square
doubly-periodic grid.  This module owns the grid bookkeeping, the forward and
inverse transforms, the cached per-grid half-spectrum operator that the
solver and the extension share (``half_spectrum``), Fourier-multiplier
operators (fractional Laplacian, Riesz transforms), homogeneous Sobolev
norms, 2/3-rule dealiasing, and band-limited evaluation of a gridded field
at arbitrary uniform lattices (chirp-z based), which the oscillation
diagnostics use for zooming and recentering.

The underlying model domain is the plane; the torus is a computational
substitute.  Plane-specific integrals elsewhere in the package are truncated
at the fundamental-domain boundary, centered at the point of interest.

Conventions
-----------
* values[i, j] = f(x1, x2) with x1 = i * spacing, x2 = j * spacing.
* Spectral coefficients use the raw ``numpy.fft.fft2`` layout (unnormalized
  forward transform, wavevectors in standard FFT order).
* The Riesz transform R_j has Fourier symbol ``+i k_j / |k|``.  With this
  choice the physical-space kernel is ``c (y - x)_j / |y - x|^3`` with
  c = 1 / (2 pi); the sign and constant are pinned by a quadrature oracle in
  the test suite.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import czt


@dataclass(frozen=True)
class Grid:
    """Square periodic grid with n points per side (n a power of two)."""

    n: int
    side_length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n <= 0 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a positive power of two, got {self.n}")
        if not (self.side_length > 0):
            raise ValueError("side_length must be positive")

    @property
    def spacing(self):
        return self.side_length / self.n

    @property
    def shape(self):
        return (self.n, self.n)

    def coordinates(self):
        """Meshgrid (X1, X2) of node coordinates in [0, side_length)."""
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, indexing="ij")

    def wavevectors(self):
        """Meshgrid (K1, K2) in standard FFT layout, units 2*pi/side_length."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        return np.meshgrid(k, k, indexing="ij")

    def wavenumber_magnitude(self):
        k1, k2 = self.wavevectors()
        return np.sqrt(k1 * k1 + k2 * k2)

    def offsets(self, coordinate):
        """Minimal-image offsets of the 1-D node line from ``coordinate``."""
        L = self.side_length
        return (np.arange(self.n) * self.spacing - coordinate + 0.5 * L) % L - 0.5 * L

    def displacement(self, center):
        """Minimal-image displacement (D1, D2) of every node from ``center``.

        Components lie in [-side_length/2, side_length/2); used by every
        plane-kernel quadrature that centers the fundamental domain at a
        point of interest.  The displacement is separable, so D1 and D2 are
        read-only (n, n) broadcast views of the two 1-D offset lines
        (D1[i, j] = offsets(center[0])[i]); copy them before writing.
        """
        d1 = self.offsets(center[0])[:, None]
        d2 = self.offsets(center[1])[None, :]
        return np.broadcast_to(d1, self.shape), np.broadcast_to(d2, self.shape)


class HalfSpectrum:
    """Read-only Fourier symbols of one Grid on the rfft2 half spectrum.

    Layout of ``scipy.fft.rfft2`` of an (n, n) real array: rows carry the
    line ``k1`` (FFT order), columns the line ``k2`` = 0 .. n/2.  Holds
    ``magnitude`` |k|; its distinct values ``radii`` (ascending, radii[0] =
    0) with ``radii[radius_index] == magnitude``, so radial multipliers are
    evaluated once per radius and scattered; the 2/3-rule mask ``dealias``;
    the velocity symbols ``riesz_u`` = -i k2/|k| and ``riesz_v`` = i k1/|k|
    (zero at k = 0); and the derivative symbols ``dx1`` = i k1 and ``dx2``
    = i k2 as a column and a row.  Use ``half_spectrum(grid)``.
    """

    def __init__(self, grid):
        k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
        k2 = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)
        K1, K2 = np.meshgrid(k1, k2, indexing="ij")
        mag = np.sqrt(K1 * K1 + K2 * K2)
        radii, index = np.unique(mag, return_inverse=True)
        inv_mag = np.zeros_like(mag)
        nz = mag > 0
        inv_mag[nz] = 1.0 / mag[nz]
        cutoff = (2.0 / 3.0) * np.pi * grid.n / grid.side_length
        self.k1 = k1
        self.k2 = k2
        self.magnitude = mag
        self.radii = radii
        self.radius_index = index.reshape(mag.shape)
        self.dealias = (np.abs(K1) <= cutoff) & (np.abs(K2) <= cutoff)
        self.riesz_u = -1j * K2 * inv_mag
        self.riesz_v = 1j * K1 * inv_mag
        self.dx1 = 1j * k1[:, None]
        self.dx2 = 1j * k2[None, :]
        for array in vars(self).values():
            array.flags.writeable = False


@lru_cache(maxsize=8)
def half_spectrum(grid):
    """The cached HalfSpectrum of ``grid`` (one shared instance per Grid)."""
    return HalfSpectrum(grid)


@dataclass
class ScalarField:
    """Real scalar field sampled on a Grid, tagged with a simulation time."""

    grid: Grid
    values: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def mean(self):
        return float(self.values.mean())


@dataclass
class SpectralField:
    """Complex Fourier coefficients of a ScalarField (fft2 layout)."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape != self.grid.shape:
            raise ValueError("coefficient shape does not match grid")

    def hermitian_defect(self):
        """Max |c(-k) - conj(c(k))|; zero for transforms of real fields."""
        c = self.coefficients
        flipped = np.roll(np.flip(c, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
        return float(np.max(np.abs(flipped - np.conj(c))))


@dataclass
class VelocityField:
    """Two-component velocity (u, v) = (w_1, w_2) on a Grid."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.shape != self.grid.shape or self.v.shape != self.grid.shape:
            raise ValueError("velocity component shape does not match grid")

    def max_speed(self):
        return float(np.sqrt(self.u * self.u + self.v * self.v).max())


# Kernel constant of the Riesz transform with symbol i k_j / |k|:
# c = Gamma(3/2) / pi^(3/2) = 1 / (2 pi) in two dimensions.  Recorded here
# because the physical-space quadratures (velocity splits, sign oracle)
# must use the same normalization as the spectral operator.
RIESZ_KERNEL_CONSTANT = 1.0 / (2.0 * np.pi)


def forward_transform(field):
    """FFT of a scalar field.  Rejects non-finite input."""
    if not np.all(np.isfinite(field.values)):
        raise ValueError("non-finite input")
    return SpectralField(field.grid, np.fft.fft2(field.values))


def inverse_transform(spec, time_stamp=0.0):
    values = np.fft.ifft2(spec.coefficients).real
    return ScalarField(spec.grid, values, time_stamp)


def fractional_laplacian(field, order):
    """Fractional Laplacian: multiplier |k|^order, zero mode mapped to 0."""
    if not (0.0 < order < 2.0):
        raise ValueError(f"order must lie in (0, 2), got {order}")
    spec = forward_transform(field)
    mag = field.grid.wavenumber_magnitude()
    mult = np.zeros_like(mag)
    nz = mag > 0
    mult[nz] = mag[nz] ** order
    return inverse_transform(
        SpectralField(field.grid, spec.coefficients * mult), field.time_stamp
    )


def riesz_transform(field, component):
    """R_j with symbol i k_j / |k| (j = 1 or 2). Annihilates the zero mode."""
    spec = forward_transform(field)
    k1, k2 = field.grid.wavevectors()
    kj = k1 if component == 1 else k2
    mag = np.sqrt(k1 * k1 + k2 * k2)
    symbol = np.zeros_like(mag, dtype=np.complex128)
    nz = mag > 0
    symbol[nz] = 1j * kj[nz] / mag[nz]
    return inverse_transform(
        SpectralField(field.grid, spec.coefficients * symbol), field.time_stamp
    )


def riesz_velocity(field, mean_tolerance=1e-10):
    """Velocity w = (-R_2 theta, R_1 theta) of a mean-zero scalar.

    The mean must vanish (relative to the field's L-infinity size) because
    the Riesz symbol is undefined at k = 0; the transforms annihilate the
    zero mode, so a nonzero mean would silently be dropped.
    """
    scale = max(float(np.max(np.abs(field.values))), 1.0)
    if abs(field.mean()) > mean_tolerance * scale:
        raise ValueError(
            f"riesz_velocity requires a mean-zero field "
            f"(relative mean {field.mean() / scale:.3e})"
        )
    u = -riesz_transform(field, 2).values
    v = riesz_transform(field, 1).values
    return VelocityField(field.grid, u, v)


def sobolev_norm(field, order):
    """Homogeneous Sobolev norm of given order.

    Parseval-normalized so that order 0 returns the L^2 norm on the torus:
    ||f||^2 = (L^2 / N^4) * sum_k |f_hat_k|^2 |k|^(2*order), zero mode
    excluded for order != 0.
    """
    spec = forward_transform(field)
    grid = field.grid
    mag = grid.wavenumber_magnitude()
    weight = np.zeros_like(mag)
    nz = mag > 0
    if order == 0.0:
        weight[:] = 1.0
    else:
        weight[nz] = mag[nz] ** (2.0 * order)
    total = np.sum(np.abs(spec.coefficients) ** 2 * weight)
    norm_sq = (grid.side_length**2 / grid.n**4) * total
    return float(np.sqrt(norm_sq))


def l2_norm(field):
    return sobolev_norm(field, 0.0)


def dealias_mask(grid):
    """Boolean mask keeping modes with both |k_i| <= (2/3) k_max."""
    k1, k2 = grid.wavevectors()
    k_max = np.pi * grid.n / grid.side_length  # largest |k component|
    cutoff = (2.0 / 3.0) * k_max
    return (np.abs(k1) <= cutoff) & (np.abs(k2) <= cutoff)


def dealias(spec):
    """2/3-rule truncation for quadratic nonlinearities; idempotent."""
    mask = dealias_mask(spec.grid)
    return SpectralField(spec.grid, spec.coefficients * mask)


def gradient(field):
    """Spectral gradient (d/dx1, d/dx2) of a scalar field."""
    spec = forward_transform(field)
    k1, k2 = field.grid.wavevectors()
    g1 = np.fft.ifft2(1j * k1 * spec.coefficients).real
    g2 = np.fft.ifft2(1j * k2 * spec.coefficients).real
    return g1, g2


def spectral_divergence_max(vel):
    """Max-norm of the spectral divergence of a velocity field."""
    k1, k2 = vel.grid.wavevectors()
    du = 1j * k1 * np.fft.fft2(vel.u)
    dv = 1j * k2 * np.fft.fft2(vel.v)
    div = np.fft.ifft2(du + dv).real
    return float(np.max(np.abs(div)))


def _signed_coefficients_1d(c, axis):
    """Reorder fft-layout coefficients along ``axis`` to signed frequencies.

    Returns an array with n+1 entries along that axis for frequencies
    -n/2 ... n/2, the Nyquist coefficient split evenly between -n/2 and
    +n/2 so the band-limited interpolant of a real field is real.
    """
    n = c.shape[axis]
    shifted = np.fft.fftshift(c, axes=axis)  # frequencies -n/2 .. n/2-1
    nyq = np.take(shifted, 0, axis=axis)
    parts = [
        0.5 * np.expand_dims(nyq, axis),
        np.take(shifted, range(1, n), axis=axis),
        0.5 * np.expand_dims(nyq, axis),
    ]
    return np.concatenate(parts, axis=axis)


def _czt_axis(c_signed, grid, start, step, count, axis):
    """Evaluate sum_m c_m exp(i k_m (start + p*step)) along one axis."""
    n = grid.n
    m = np.arange(-(n // 2), n // 2 + 1)
    base = 2.0 * np.pi / grid.side_length
    phase0 = np.exp(1j * base * m * start)
    shape = [1] * c_signed.ndim
    shape[axis] = len(m)
    c0 = c_signed * phase0.reshape(shape)
    q = np.exp(1j * base * step)
    # scipy czt: X_k = sum_n x_n a^(-n) w^(n k); w = q gives sum_n x_n q^(n k).
    out = czt(c0, m=count, w=q, a=1.0 + 0.0j, axis=axis)
    # czt computed sum over array index j = m + n/2; restore the m offset.
    p = np.arange(count)
    corr = q ** (-(n // 2) * p)
    shape = [1] * out.ndim
    shape[axis] = count
    return out * corr.reshape(shape)


def evaluate_on_lattice(field, origin, spacing, shape):
    """Band-limited evaluation of ``field`` on a uniform lattice.

    Points are x1 = origin[0] + i*spacing[0], x2 = origin[1] + j*spacing[1]
    for i in range(shape[0]), j in range(shape[1]).  The field is treated as
    its trigonometric interpolant (periodic), so evaluation is exact for
    band-limited data; cost is O(n^2 log n) via chirp-z transforms.
    """
    c = np.fft.fft2(field.values) / field.grid.n**2
    c = _signed_coefficients_1d(c, axis=0)
    c = _signed_coefficients_1d(c, axis=1)
    out = _czt_axis(c, field.grid, origin[0], spacing[0], shape[0], axis=0)
    out = _czt_axis(out, field.grid, origin[1], spacing[1], shape[1], axis=1)
    return out.real


def random_band_limited(grid, k_max_index, seed, amplitude=1.0, time_stamp=0.0):
    """Random real field with integer modes up to k_max_index per axis.

    Coefficients are complex Gaussian, Hermitian-symmetrized, zero mode
    removed, then scaled so max|theta| = amplitude.  ``seed`` may be an int
    or a numpy SeedSequence-compatible list (the package derives sub-streams
    as [root_seed, purpose, counter]).
    """
    rng = np.random.default_rng(seed)
    k1, k2 = grid.wavevectors()
    unit = 2.0 * np.pi / grid.side_length
    m1 = np.rint(k1 / unit)
    m2 = np.rint(k2 / unit)
    band = (np.abs(m1) <= k_max_index) & (np.abs(m2) <= k_max_index)
    band &= (m1 != 0) | (m2 != 0)
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(
        int(band.sum())
    )
    flipped = np.roll(np.flip(c, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
    c = 0.5 * (c + np.conj(flipped))
    values = np.fft.ifft2(c).real
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return ScalarField(grid, values, time_stamp)


def shift_field(field, offset):
    """Cyclic translation by a (possibly off-grid) offset: f(x) -> f(x + offset).

    Implemented as the exact phase shift of the trigonometric interpolant.
    """
    c = np.fft.fft2(field.values)
    k1, k2 = field.grid.wavevectors()
    # Real output requires the Nyquist rows to see a real multiplier; use the
    # cosine via symmetrized phase only when the offset is off-grid.
    phase = np.exp(1j * (k1 * offset[0] + k2 * offset[1]))
    n = field.grid.n
    base = 2.0 * np.pi / field.grid.side_length
    nyq = n // 2
    phase[nyq, :] = np.cos(base * nyq * offset[0]) * np.exp(1j * k2[nyq, :] * offset[1])
    phase[:, nyq] = np.exp(1j * k1[:, nyq] * offset[0]) * np.cos(base * nyq * offset[1])
    phase[nyq, nyq] = np.cos(base * nyq * offset[0]) * np.cos(base * nyq * offset[1])
    values = np.fft.ifft2(c * phase).real
    return ScalarField(field.grid, values, field.time_stamp)
