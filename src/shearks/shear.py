"""Shear-frame kinematics of d/dt + y d/dx - (1/A) lap.

Couette advection turns every Fourier mode into a travelling wave whose
wall-normal wavenumber drifts linearly in time: a mode stored at integer
index k represents the physical wavevector (k1, k2 - k1*drift, k3).  In this
frame advection is exact bookkeeping and diffusion reduces to a closed-form
integrating factor per mode.  This module holds the frame, the effective
wavevector and that factor.  The propagator that applies it, and relabels
the coefficients (Rogallo remap) once |drift| reaches REMAP_THRESHOLD, is
``solver._step_operator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import ContractViolation, GridSpec

REMAP_THRESHOLD = 1.0


@dataclass(frozen=True)
class ShearFrame:
    """Drift bookkeeping: elapsed shear since the last remap."""

    t_last_remap: float = 0.0
    drift: float = 0.0

    def __post_init__(self):
        if abs(self.drift) > REMAP_THRESHOLD + 1e-12:
            raise ContractViolation(f"drift {self.drift} beyond remap threshold")


def effective_wavevector(k, drift: float):
    """Physical wavevector of a mode stored at integer index k.

    Only the second component is sheared: (k1, k2 - k1*drift, k3, ...).
    Accepts scalars or arrays per component.
    """
    k = [np.asarray(c, dtype=float) for c in k]
    if len(k) >= 2:
        k[1] = k[1] - k[0] * drift
    return k


def effective_k_mesh(grid: GridSpec, drift: float) -> list[np.ndarray]:
    """Broadcastable effective wavevector components for a whole grid."""
    return effective_wavevector(grid.k_mesh(), drift)


def _shear_exponent(k1, k2, dt: float, drift0: float):
    """integral over [0, dt] of (k2 - k1*(drift0 + s))^2 ds, closed form."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    b = k2 - k1 * drift0
    safe = np.where(k1 != 0.0, k1, 1.0)
    cubic = (b ** 3 - (b - safe * dt) ** 3) / (3.0 * safe)
    return np.where(k1 != 0.0, cubic, k2 ** 2 * dt)


def dissipation_exponent(k, dt: float, drift0: float):
    """integral of |k_eff(s)|^2 over an interval of length dt (drift-aware)."""
    k = [np.asarray(c, dtype=float) for c in k]
    steady = np.zeros(np.broadcast_shapes(*[c.shape for c in k]))
    steady = steady + k[0] ** 2 * dt
    for c in k[2:]:
        steady = steady + c ** 2 * dt
    if len(k) >= 2:
        return steady + _shear_exponent(k[0], k[1], dt, drift0)
    return steady


def integrating_factor(k, t0: float, t1: float, drift0: float, A: float):
    """exp of -(1/A) * integral of |k_eff(s)|^2 over [t0, t1].

    The drift evolves as drift0 + (s - t0); the wall-normal contribution is
    the exact cubic antiderivative of (k2 - k1*s)^2.
    """
    if t1 < t0:
        raise ContractViolation("integrating_factor needs t1 >= t0")
    return np.exp(-dissipation_exponent(k, t1 - t0, drift0) / A)
