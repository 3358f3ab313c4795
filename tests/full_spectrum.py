"""Full-spectrum ``numpy.fft`` formulas used as oracles for the half spectrum.

Each formula is the complex ``fft2``/``ifft2`` version that the package's
half-spectrum operator replaced: multipliers are applied as
``ifft2(symbol * fft2(f)).real`` on meshgrid symbols in FFT order, norms
and sums are taken over the whole spectrum.
"""

import numpy as np


def wavevectors(grid):
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    return np.meshgrid(k, k, indexing="ij")


def magnitude(grid):
    k1, k2 = wavevectors(grid)
    return np.sqrt(k1 * k1 + k2 * k2)


def radial_power(grid, exponent):
    """|k|^exponent with the zero mode mapped to 0 (to 1 for exponent 0)."""
    mag = magnitude(grid)
    if exponent == 0:
        return np.ones_like(mag)
    out = np.zeros_like(mag)
    nz = mag > 0
    out[nz] = mag[nz] ** exponent
    return out


def apply(values, symbol):
    return np.fft.ifft2(symbol * np.fft.fft2(values)).real


def fractional_laplacian(values, grid, order):
    return apply(values, radial_power(grid, order))


def riesz(values, grid, component):
    """R_j with symbol i k_j / |k|, zero at k = 0."""
    k1, k2 = wavevectors(grid)
    kj = k1 if component == 1 else k2
    return apply(values, 1j * kj * radial_power(grid, -1.0))


def gradient(values, grid):
    k1, k2 = wavevectors(grid)
    return apply(values, 1j * k1), apply(values, 1j * k2)


def sobolev_norm(values, grid, order):
    total = np.sum(np.abs(np.fft.fft2(values)) ** 2 * radial_power(grid, 2.0 * order))
    return float(np.sqrt(grid.side_length**2 / grid.n**4 * total))


def dealias_mask(grid):
    k1, k2 = wavevectors(grid)
    cutoff = (2.0 / 3.0) * np.pi * grid.n / grid.side_length
    return (np.abs(k1) <= cutoff) & (np.abs(k2) <= cutoff)


def audit_terms(values, grid, levels, alpha):
    """(energy, squared Hdot^(alpha/2) seminorm, pairing) per level."""
    h2 = grid.spacing**2
    lap = fractional_laplacian(values, grid, alpha)
    out = np.zeros((3, len(levels)))
    for i, lam in enumerate(levels):
        trunc = np.maximum(values - lam, 0.0)
        out[0, i] = np.sum(trunc**2) * h2
        out[1, i] = sobolev_norm(trunc, grid, alpha / 2.0) ** 2
        out[2, i] = np.sum(trunc * lap) * h2
    return out


def white_noise(grid, seed):
    """Mean-zero white noise: every mode, the Nyquist lines included."""
    values = np.random.default_rng(seed).standard_normal(grid.shape)
    return values - values.mean()
