"""Reproducible test-field generators shared by the bench and the harness;
``random_smooth`` completes its own half spectrum, so it is real by
construction."""

from __future__ import annotations

import numpy as np

from .modes import fluctuation_only  # noqa: F401  (re-exported for test-field builders)
from .spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    band_of,
    complete_half,
    fill,
    forward_transform,
    halve,
    l2_norm,
    place,
    rfft_band,
    total_mass,
    values_of,
)


def random_smooth(grid: GridSpec, seed: int, slope: float = 2.0,
                  components: int = 1) -> SpectralField:
    """Random real field inside the 2/3-rule band with |fhat(k)| ~ |k|^-slope,
    zero mean and unit L2."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if components == 1 else (components, *grid.shape)
    box = rfft_band(rng.standard_normal(shape), grid)
    k2 = band_of(halve(grid.k_squared(), grid), grid)
    box *= np.where(k2 > 0, (k2 + 1.0) ** (-slope / 2.0), 0.0)
    F = SpectralField(grid, fill(complete_half(place(box, grid), grid), grid))
    norm = l2_norm(F)
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
    F.coeffs *= mass / total_mass(F)
    return F


def positive_density(grid: GridSpec, seed: int, mass: float,
                     slope: float = 2.0, contrast: float = 1.0) -> SpectralField:
    """Strictly positive random density with the requested mass."""
    g = random_smooth(grid, seed, slope=slope)
    vals = values_of(g)
    vals = np.exp(contrast * vals / max(np.max(np.abs(vals)), 1e-300))
    F = forward_transform(RealField(grid, vals))
    F.coeffs *= mass / total_mass(F)
    return F


def solenoidal_zero_mode(grid: GridSpec, seed: int, slope: float = 3.0) -> SpectralField:
    """Divergence-free x-independent (u2, u3) pair from a random streamfunction.

    Returns a 3-component field on the full 3D grid with u1 = 0.
    """
    if grid.dim != 3:
        raise ContractViolation("solenoidal zero mode needs a 3D grid")
    cross = grid.cross_section()
    psi = random_smooth(cross, seed, slope=slope)
    ky, kz = cross.k_mesh()
    out = np.zeros((3, *grid.shape), dtype=np.complex128)
    out[1, 0] = 1j * kz * psi.coeffs
    out[2, 0] = -1j * ky * psi.coeffs
    return SpectralField(grid, out)
