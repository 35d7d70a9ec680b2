"""Reproducible test-field generators shared by the bench and the harness."""

from __future__ import annotations

import numpy as np

from .spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    forward_transform,
    hermitize,
    values_of,
)


def random_smooth(grid: GridSpec, seed: int, slope: float = 2.0,
                  components: int = 1, band_limit: bool = True) -> SpectralField:
    """Random real field with |fhat(k)| ~ |k|^-slope, zero mean, unit L2."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if components == 1 else (components, *grid.shape)
    raw = forward_transform(RealField(grid, rng.standard_normal(shape)))
    k2 = grid.k_squared()
    amp = np.where(k2 > 0, (k2 + 1.0) ** (-slope / 2.0), 0.0)
    coeffs = raw.coeffs * amp
    if band_limit:
        coeffs = coeffs * grid.dealias_mask()
    F = hermitize(SpectralField(grid, coeffs))
    norm = np.sqrt(grid.volume * np.sum(np.abs(F.coeffs) ** 2))
    if norm > 0:
        F.coeffs /= norm
    return F


def gaussian_bump(grid: GridSpec, width: float, center=None, mass: float = 1.0) -> SpectralField:
    """Periodized Gaussian of the requested total mass (exact on the grid)."""
    if width <= 0 or mass <= 0:
        raise ContractViolation("bump width and mass must be positive")
    if center is None:
        center = (np.pi,) * grid.dim
    mesh = grid.coordinate_mesh()
    vals = np.ones(grid.shape)
    for a in range(grid.dim):
        d = mesh[a] - center[a]
        acc = np.zeros(grid.shape)
        for image in (-2, -1, 0, 1, 2):  # nearest periodic images
            acc += np.exp(-((d + 2 * np.pi * image) ** 2) / (2 * width ** 2))
        vals = vals * acc
    F = forward_transform(RealField(grid, vals))
    total = F.coeffs[(0,) * grid.dim].real * grid.volume
    F.coeffs *= mass / total
    return F


def positive_density(grid: GridSpec, seed: int, mass: float,
                     slope: float = 2.0, contrast: float = 1.0) -> SpectralField:
    """Strictly positive random density with the requested mass."""
    g = random_smooth(grid, seed, slope=slope)
    vals = values_of(g)
    vals = np.exp(contrast * vals / max(np.max(np.abs(vals)), 1e-300))
    F = forward_transform(RealField(grid, vals))
    total = F.coeffs[(0,) * grid.dim].real * grid.volume
    F.coeffs *= mass / total
    return F


def fluctuation_only(F: SpectralField) -> SpectralField:
    """Strip every k1 = 0 coefficient (pure non-zero-mode data)."""
    out = F.coeffs.copy()
    index = (slice(None),) * (out.ndim - F.grid.dim) + (0,)
    out[index] = 0.0
    return SpectralField(F.grid, out)


def solenoidal_zero_mode(grid: GridSpec, seed: int, slope: float = 3.0) -> SpectralField:
    """Divergence-free x-independent (u2, u3) pair from a random streamfunction.

    Returns a 3-component field on the full 3D grid with u1 = 0.
    """
    if grid.dim != 3:
        raise ContractViolation("solenoidal zero mode needs a 3D grid")
    cross = grid.cross_section()
    psi = random_smooth(cross, seed, slope=slope)
    ky, kz = cross.k_mesh()
    u2 = 1j * np.broadcast_to(kz, cross.shape) * psi.coeffs
    u3 = -1j * np.broadcast_to(ky, cross.shape) * psi.coeffs
    out = np.zeros((3, *grid.shape), dtype=np.complex128)
    out[1, 0] = u2
    out[2, 0] = u3
    return SpectralField(grid, out)
