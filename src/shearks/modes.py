"""Mode decompositions along the shear direction.

A field on the torus splits into its x-average (zero mode, a field on the
(d-1)-dimensional cross-section) and the complementary fluctuation (non-zero
mode).
"""

from __future__ import annotations

from .spectral import ContractViolation, SpectralField, halve


def zero_mode(F: SpectralField) -> SpectralField:
    """The x-average of F on the cross-section grid: a view of the k2 >= 0
    half of its k1 = 0 plane, so reading it copies nothing."""
    if F.grid.dim < 2:
        raise ContractViolation("a zero mode needs a grid with dim >= 2")
    cross = F.grid.cross_section()
    plane = F.half[(slice(None),) * (F.half.ndim - F.grid.dim) + (0,)]
    return SpectralField.from_half(cross, halve(plane, cross))


def fluctuation_only(F: SpectralField) -> SpectralField:
    """The non-zero mode of F: a copy with every k1 = 0 coefficient zeroed."""
    out = F.half.copy()
    out[(slice(None),) * (out.ndim - F.grid.dim) + (0,)] = 0.0
    return SpectralField.from_half(F.grid, out)


def split_x(F: SpectralField) -> tuple[SpectralField, SpectralField]:
    """(zero mode on the cross-section grid, fluctuation on the full torus).

    Exact in spectral space: the zero mode collects the k1 = 0 plane, the
    fluctuation everything else.
    """
    return zero_mode(F).copy(), fluctuation_only(F)
