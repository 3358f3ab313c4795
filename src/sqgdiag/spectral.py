"""Periodic-grid Fourier infrastructure.

Everything downstream (solver, extension, diagnostics) is built on a square
doubly-periodic grid.  This module owns the grid bookkeeping, the
package's one half-spectrum transform pair (``rfft2``/``irfft2``), the
cached per-grid half-spectrum operator (``half_spectrum``) that holds every
Fourier symbol of the package (|k| and its distinct radii, the dealiasing
mask, the Riesz and derivative symbols, the Parseval column weight and the
gradient-energy weight), the multipliers and norms built on it
(fractional Laplacian, Riesz velocity, homogeneous Sobolev norms,
Parseval sums), and band-limited evaluation of a gridded field at
arbitrary uniform lattices (chirp-z on the half spectrum), which the
oscillation diagnostics use for zooming and recentering.  The chirp-z is
the package's own port of ``scipy.signal.ZoomFFT`` on ``numpy.fft``,
bit-identical to it (ZoomFFT is the test oracle), so importing the package
does not load ``scipy.signal``.

The underlying model domain is the plane; the torus is a computational
substitute.  Plane-specific integrals elsewhere in the package are truncated
at the boundary of the fundamental domain about the domain centre
(``Grid.center``).

Conventions
-----------
* values[i, j] = f(x1, x2) with x1 = i * spacing, x2 = j * spacing.
* Spectral coefficients are the raw ``spectral.rfft2`` half spectrum
  (unnormalized forward transform): row i carries k1 in FFT order (the
  k1-Nyquist row i = n/2 at k1 = -pi n / L), column j carries
  k2 = 2 pi j / L for j = 0 .. n/2.  Multipliers act as
  ``irfft2(symbol * rfft2(f))``.
* Odd symbols (i k_j and the Riesz symbols) are anti-Hermitian on their own
  Nyquist line, where a real field has no derivative to give; they are
  zeroed there: ``dx1`` and ``riesz_v`` on the k1-Nyquist row, ``dx2`` and
  ``riesz_u`` on the k2-Nyquist column.  This is what the real part of the
  full-spectrum ``ifft2(symbol * fft2(f))`` does; ``irfft2`` would drop the
  column by itself but keep the row.
* Parseval on the half spectrum: sum_x f g = (1/n^2) sum_k parseval[k2]
  Re(conj(f_hat) g_hat), where ``parseval`` is 1 on the self-conjugate
  columns 0 and n/2 and 2 between (those columns also stand for their
  conjugate partners).
* The Riesz transform R_j has Fourier symbol ``+i k_j / |k|``.  With this
  choice the physical-space kernel is ``c (y - x)_j / |y - x|^3`` with
  c = 1 / (2 pi); the sign and constant are pinned by a quadrature oracle in
  the test suite.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # numpy loads it lazily; loaded here, a tracer can wrap it before use

# relative size (against max(|f|, 1)) of the mean that Riesz velocities and
# the solver accept as zero
MEAN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Grid:
    """Square periodic grid with n points per side (n a power of two)."""

    n: int
    side_length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n <= 0 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a positive power of two, got {self.n}")
        if not (0 < self.side_length < np.inf):
            raise ValueError(f"side_length must be positive and finite, got {self.side_length!r}")

    @property
    def spacing(self):
        return self.side_length / self.n

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def center(self):
        """The domain centre: the base point of every local check."""
        return (0.5 * self.side_length, 0.5 * self.side_length)

    def coordinates(self):
        """Meshgrid (X1, X2) of node coordinates in [0, side_length)."""
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, indexing="ij")

    def offsets(self, coordinate):
        """Minimal-image offsets of the 1-D node line from ``coordinate``.

        Offsets lie in [-L/2, L/2).  At a node target the antipodal node is
        a tie that rounding leaves at +L/2 (or just below) for some targets;
        any offset within 1e-9 spacings below +L/2 is taken as exactly
        -L/2, so every target sees its antipodal line on the same side.
        """
        L = self.side_length
        d = (np.arange(self.n) * self.spacing - coordinate + 0.5 * L) % L - 0.5 * L
        d[d > 0.5 * L - 1e-9 * self.spacing] = -0.5 * L
        return d

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


def rfft2(values, out=None):
    """Half spectrum of an (n, n) real array: r2c along axis 1, then c2c
    along axis 0 in place.

    Bit-identical to ``scipy.fft.rfft2`` (numpy.fft runs the same pocketfft
    code).  With ``out`` (complex, (n, n // 2 + 1)) nothing is allocated
    and ``out`` is returned.
    """
    out = np.fft.rfft(values, axis=1, out=out)
    return np.fft.fft(out, axis=0, out=out)


def irfft2(spec, out=None):
    """Real (n, n) array of a half spectrum: c2c along axis 0, then c2r
    along axis 1.

    ``spec`` is the workspace of the complex pass and is overwritten; pass
    a copy (or a temporary such as ``symbol * spec``) to keep it.  With
    ``out`` (real, (n, n)) nothing is allocated and ``out`` is returned.
    Bit-identical to ``scipy.fft.irfft2(spec, s=(n, n))`` for n a power of
    two.
    """
    np.fft.ifft(spec, axis=0, out=spec)
    return np.fft.irfft(spec, spec.shape[0], axis=1, out=out)


class HalfSpectrum:
    """Read-only Fourier symbols of one Grid on the rfft2 half spectrum.

    Layout of ``rfft2`` of an (n, n) real array: rows carry k1 (FFT
    order), columns k2 = 0 .. n/2.  Holds ``magnitude`` |k|; its distinct
    values ``radii`` (ascending, radii[0] = 0) with ``radii[radius_index]
    == magnitude``, so radial multipliers are evaluated once per radius and
    scattered; the 2/3-rule mask ``dealias``;
    the velocity symbols ``riesz_u`` = -i k2/|k| and ``riesz_v`` = i k1/|k|
    (zero at k = 0); the derivative symbols ``dx1`` = i k1 and ``dx2``
    = i k2 as a column and a row; the column weight ``parseval``; and
    ``gradient_weight`` = (|dx1|^2 + |dx2|^2) parseval / n^2, with which
    sum_x |grad f|^2 h^2 = h^2 sum_k gradient_weight |rfft2(f)|^2.  The
    odd symbols are zeroed on their Nyquist line (see the module
    Conventions).  Use ``half_spectrum(grid)``.
    """

    def __init__(self, grid):
        n = grid.n
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
        k2 = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.spacing)
        K1, K2 = np.meshgrid(k1, k2, indexing="ij")
        mag = np.sqrt(K1 * K1 + K2 * K2)
        radii, index = np.unique(mag, return_inverse=True)
        inv_mag = np.zeros_like(mag)
        nz = mag > 0
        inv_mag[nz] = 1.0 / mag[nz]
        cutoff = (2.0 / 3.0) * np.pi * n / grid.side_length
        self.magnitude = mag
        self.radii = radii
        self.radius_index = index.reshape(mag.shape)
        self.dealias = (np.abs(K1) <= cutoff) & (np.abs(K2) <= cutoff)
        self.riesz_u = -1j * K2 * inv_mag
        self.riesz_u[:, n // 2] = 0.0
        self.riesz_v = 1j * K1 * inv_mag
        self.riesz_v[n // 2, :] = 0.0
        self.dx1 = 1j * k1[:, None]
        self.dx1[n // 2] = 0.0
        self.dx2 = 1j * k2[None, :]
        self.dx2[0, n // 2] = 0.0
        self.parseval = np.full(n // 2 + 1, 2.0)
        self.parseval[[0, n // 2]] = 1.0
        self.gradient_weight = (
            (np.abs(self.dx1) ** 2 + np.abs(self.dx2) ** 2) * self.parseval / float(n) ** 2
        )
        for array in vars(self).values():
            array.flags.writeable = False

    def radial_power(self, exponent):
        """|k|^exponent on the half spectrum, 0 at k = 0 unless exponent is 0."""
        with np.errstate(divide="ignore"):
            table = self.radii**exponent
        if exponent != 0:
            table[0] = 0.0
        return table[self.radius_index]


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
class VelocityField:
    """Two-component velocity (u, v) = (w_1, w_2) on a Grid, tagged with a time."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.shape != self.grid.shape or self.v.shape != self.grid.shape:
            raise ValueError("velocity component shape does not match grid")


# Kernel constant of the Riesz transform with symbol i k_j / |k|:
# c = Gamma(3/2) / pi^(3/2) = 1 / (2 pi) in two dimensions.  Recorded here
# because the physical-space quadratures (velocity splits, sign oracle)
# must use the same normalization as the spectral operator.
RIESZ_KERNEL_CONSTANT = 1.0 / (2.0 * np.pi)


def require_mean_zero(field, what):
    """Raise unless the mean of ``field`` vanishes relative to max(|f|, 1).

    The Riesz symbol is undefined at k = 0 and every multiplier here
    annihilates the zero mode, so a nonzero mean would silently be dropped.
    """
    scale = max(float(np.max(np.abs(field.values))), 1.0)
    if abs(field.mean()) > MEAN_TOLERANCE * scale:
        raise ValueError(
            f"{what} requires a mean-zero field "
            f"(relative mean {field.mean() / scale:.3e})"
        )


def parseval_sum(grid, a_hat, b_hat):
    """sum_x a(x) b(x) h^2 from the rfft2 half spectra of a and b.

    Either spectrum may carry a real multiplier, which then acts on that
    factor: parseval_sum(grid, a_hat, m * b_hat) = sum_x a (M b) h^2.
    """
    product = a_hat.real * b_hat.real
    product += a_hat.imag * b_hat.imag
    product *= half_spectrum(grid).parseval
    return float((grid.spacing / grid.n) ** 2 * np.sum(product))


def fractional_laplacian(field, order):
    """Fractional Laplacian: multiplier |k|^order, zero mode mapped to 0."""
    if not (0.0 < order < 2.0):
        raise ValueError(f"order must lie in (0, 2), got {order}")
    grid = field.grid
    symbol = half_spectrum(grid).radial_power(order)
    values = irfft2(symbol * rfft2(field.values))
    return ScalarField(grid, values, field.time_stamp)


def riesz_velocity(field):
    """Velocity w = (-R_2 theta, R_1 theta) of a mean-zero scalar."""
    require_mean_zero(field, "riesz_velocity")
    grid = field.grid
    op = half_spectrum(grid)
    spec = rfft2(field.values)
    u = irfft2(op.riesz_u * spec)
    v = irfft2(op.riesz_v * spec)
    return VelocityField(grid, u, v, field.time_stamp)


def sobolev_norm(field, order):
    """Homogeneous Sobolev norm of given order.

    Parseval-normalized so that order 0 returns the L^2 norm on the torus:
    ||f||^2 = (L^2 / N^4) * sum_k |f_hat_k|^2 |k|^(2*order) over the full
    spectrum, zero mode excluded for order != 0.
    """
    spec = rfft2(field.values)
    weight = half_spectrum(field.grid).radial_power(2.0 * order)
    return float(np.sqrt(parseval_sum(field.grid, spec, weight * spec)))


def l2_norm(field):
    """L^2 norm on the torus as the physical sum sqrt(sum f^2 h^2)."""
    return float(np.sqrt(np.sum(field.values**2) * field.grid.spacing**2))


def _fast_length(n):
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n: the FFT length that
    ``scipy.fft.next_fast_len`` gives complex input."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _zoom_line(c, grid, first, start, step, count, axis):
    """Evaluate sum_m c_m exp(i k_m (start + p*step)) along ``axis``.

    k_m = (first + m) 2 pi / L for the m-th entry of ``c`` along ``axis``,
    p = 0 .. count-1.  With theta = 2 pi step / L, the sum over
    j = m - first is Bluestein's chirp-z (Bluestein 1968; Rabiner, Schafer
    & Rader 1969): j p = (j^2 + p^2 - (p - j)^2) / 2 makes it a convolution
    with the chirp exp(i theta k^2 / 2), done by FFTs of length
    ``_fast_length(n + count - 1)`` for n entries along ``axis``.  This is
    ``scipy.signal.ZoomFFT`` with f1 = 0, ported with its chirps, FFT length
    and operation order, so the result is bit-identical to it; ZoomFFT is
    the test oracle.  Its chirps come from exact phases; ``czt``'s ``w**(k^2/2)`` drifts off the unit
    circle, and on the half spectrum that error lands in the kept real part
    (an order of magnitude more rounding at n = 256 and 512).
    """
    n = c.shape[axis]
    base = 2.0 * np.pi / grid.side_length
    theta = base * step
    m = first + np.arange(n)
    # the transform axis last and contiguous: numpy.fft is 2-3x slower on
    # strided lines
    x = np.multiply(np.moveaxis(c, axis, -1), np.exp(1j * base * m * start), order="C")
    # ZoomFFT's frequency span f2 at fs = 1: it sums x_j exp(-2 pi i f2 j p /
    # count) = x_j exp(i theta j p).  The chirp is written as ZoomFFT writes
    # it, so every rounding matches.
    f2 = -theta * count / (2.0 * np.pi)
    k = np.arange(max(count, n), dtype=np.min_scalar_type(-max(count, n) ** 2))
    chirp = np.exp(-(1j * np.pi * f2 * k**2) / count)
    nfft = _fast_length(n + count - 1)
    kernel = np.fft.fft(1 / np.hstack((chirp[n - 1 : 0 : -1], chirp[:count])), nfft)
    y = np.fft.ifft(kernel * np.fft.fft(x * chirp[:n], nfft))
    y = y[..., n - 1 : n + count - 1] * chirp[:count]
    # the zoom sums over the index j = m - first; restore the offset
    y = y * np.exp(1j * first * theta * np.arange(count))
    return np.moveaxis(y, -1, axis)


def evaluate_on_lattice(field, origin, spacing, shape):
    """Band-limited evaluation of ``field`` on a uniform lattice.

    Points are x1 = origin[0] + i*spacing[0], x2 = origin[1] + j*spacing[1]
    for i in range(shape[0]), j in range(shape[1]).  The field is treated as
    its trigonometric interpolant (periodic), so evaluation is exact for
    band-limited data; cost is O(n^2 log n) via chirp-z transforms on the
    half spectrum: the doubled columns stand for their conjugate partners
    and the real part is kept.  The k1-Nyquist row is split evenly between
    -n/2 and +n/2; the k2-Nyquist column (weight 1) then gives its
    cos(n/2 x2) term, the real band-limited form of both Nyquist lines.
    """
    grid = field.grid
    n = grid.n
    c = rfft2(field.values) * (half_spectrum(grid).parseval / n**2)
    c = np.fft.fftshift(c, axes=0)  # rows k1 = -n/2 .. n/2-1
    c = np.concatenate([0.5 * c[:1], c[1:], 0.5 * c[:1]])
    out = _zoom_line(c, grid, -(n // 2), origin[0], spacing[0], shape[0], axis=0)
    return _zoom_line(out, grid, 0, origin[1], spacing[1], shape[1], axis=1).real


def random_band_limited(grid, k_max_index, seed, amplitude=1.0):
    """Random real field with integer modes up to k_max_index per axis.

    Coefficients are complex Gaussian, Hermitian-symmetrized, zero mode
    removed, then scaled so max|theta| = amplitude.  ``seed`` may be an int
    or a numpy SeedSequence-compatible list (the package derives sub-streams
    as [root_seed, purpose, counter]).
    """
    if k_max_index < 1:
        raise ValueError(f"k_max_index must be at least 1, got {k_max_index}")
    rng = np.random.default_rng(seed)
    m = np.fft.fftfreq(grid.n, 1.0 / grid.n)  # integer mode indices, FFT order
    m1, m2 = m[:, None], m[None, :]
    band = (np.abs(m1) <= k_max_index) & (np.abs(m2) <= k_max_index)
    band &= (m1 != 0) | (m2 != 0)
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(
        int(band.sum())
    )
    flipped = np.roll(np.flip(c, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
    c = 0.5 * (c + np.conj(flipped))
    values = irfft2(c[:, : grid.n // 2 + 1])  # c is Hermitian: its half spectrum is the field
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return ScalarField(grid, values)
