"""Pseudo-spectral Keller-Segel / Navier-Stokes bench with Couette shear."""

from .spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    derivative,
    forward_transform,
    laplacian,
    leray_project,
    solve_chemo,
)
from .shear import ShearFrame, integrating_factor

__all__ = [
    "ContractViolation",
    "GridSpec",
    "RealField",
    "SpectralField",
    "ShearFrame",
    "derivative",
    "forward_transform",
    "integrating_factor",
    "laplacian",
    "leray_project",
    "solve_chemo",
]
