"""Mode decompositions along the shear direction.

A field on the torus splits into its x-average (zero mode, a field on the
(d-1)-dimensional cross-section) and the complementary fluctuation (non-zero
mode); a zero mode further splits into its full spatial average (a constant)
and the mean-free remainder.
"""

from __future__ import annotations

from .spectral import ContractViolation, SpectralField


def zero_mode(F: SpectralField) -> SpectralField:
    """The x-average of F on the cross-section grid: a view of its k1 = 0
    plane, so reading it copies nothing."""
    if F.grid.dim < 2:
        raise ContractViolation("a zero mode needs a grid with dim >= 2")
    take = (slice(None),) * (F.coeffs.ndim - F.grid.dim) + (0,)
    return SpectralField(F.grid.cross_section(), F.coeffs[take])


def split_x(F: SpectralField) -> tuple[SpectralField, SpectralField]:
    """(zero mode on the cross-section grid, fluctuation on the full torus).

    Exact in spectral space: the zero mode collects the k1 = 0 plane, the
    fluctuation everything else.
    """
    zero = zero_mode(F).copy()
    fluct = F.coeffs.copy()
    fluct[(slice(None),) * (F.coeffs.ndim - F.grid.dim) + (0,)] = 0.0
    return zero, SpectralField(F.grid, fluct)


def split_bar_tilde(f0: SpectralField) -> tuple[float, SpectralField]:
    """(spatial average, mean-free remainder) of a scalar zero mode."""
    if f0.components != 1:
        raise ContractViolation("split_bar_tilde expects a scalar field")
    origin = (0,) * f0.grid.dim
    bar = float(f0.coeffs[origin].real)
    tilde = f0.coeffs.copy()
    tilde[origin] = 0.0
    return bar, SpectralField(f0.grid, tilde)
