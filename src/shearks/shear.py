"""Shear-frame kinematics of d/dt + y d/dx - (1/A) lap.

Couette advection turns every Fourier mode into a travelling wave whose
wall-normal wavenumber drifts linearly in time: a mode stored at integer
index k represents the physical wavevector (k1, k2 - k1*drift, k3).  In this
frame advection is exact bookkeeping and diffusion reduces to a closed-form
integrating factor per mode.  Only k1 and k2 enter the sheared part, so the
factor separates into a (k1, k2) plane and, in 3D, a k3 line.  This module
holds the frame, the frame's wavevectors and that factor.  The propagator
that applies it, and relabels the coefficients (Rogallo remap) once |drift|
reaches REMAP_THRESHOLD, is ``solver._step_operator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import ContractViolation

REMAP_THRESHOLD = 1.0


@dataclass(frozen=True)
class ShearFrame:
    """Drift bookkeeping: elapsed shear since the last remap."""

    t_last_remap: float = 0.0
    drift: float = 0.0

    def __post_init__(self):
        if abs(self.drift) > REMAP_THRESHOLD + 1e-12:
            raise ContractViolation(f"drift {self.drift} beyond remap threshold")


def frame_k_mesh(params, drift: float) -> list[np.ndarray]:
    """Wavevectors of a run's fields at this drift, broadcastable over its grid.

    With ``params.enable_shear`` a mode stored at integer index k is the
    physical (k1, k2 - k1*drift, k3): only the second component is sheared.
    Otherwise they are the grid's integer lattice.
    """
    k = params.grid.k_mesh()
    if params.enable_shear:
        k[1] = k[1] - k[0] * drift
    return k


def _shear_exponent(k1, k2, dt: float, drift0: float):
    """integral over [0, dt] of (k2 - k1*(drift0 + s))^2 ds, closed form.

    With b = k2 - k1*drift0 and c = k1*dt this is dt*(b^2 - b*c + c^2/3),
    evaluated as dt*(b*(b - c) + c*c/3): no power, no division by k1, and
    k2^2 dt at k1 = 0 by itself.  Flipping the sign of (k1, k2) flips b, c
    and b - c exactly, so the result is bitwise even in k.
    """
    b = k2 - k1 * drift0
    c = k1 * dt
    return dt * (b * (b - c) + c * c / 3.0)


def integrating_factor(k, t0: float, t1: float, drift0: float, A: float):
    """exp of -(1/A) * integral of |k_eff(s)|^2 over [t0, t1], k = (k1, k2[, k3]).

    The drift evolves as drift0 + (s - t0).  The factor separates: one exp
    over the broadcast (k1, k2) plane, with the steady k1^2 part folded into
    the closed-form wall-normal integral, times the line exp(-k3^2 dt / A)
    in 3D.
    """
    if t1 < t0:
        raise ContractViolation("integrating_factor needs t1 >= t0")
    dt = t1 - t0
    k1 = k[0]
    factor = np.exp((k1 * k1 * dt + _shear_exponent(k1, k[1], dt, drift0)) / -A)
    for c in k[2:]:
        factor = factor * np.exp(-c * c * dt / A)
    return factor
