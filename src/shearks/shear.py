"""Shear-frame kinematics of d/dt + y d/dx - (1/A) lap.

Couette advection turns every Fourier mode into a travelling wave whose
wall-normal wavenumber drifts linearly in time: a mode stored at integer
index k represents the physical wavevector (k1, k2 - k1*drift, k3).  In this
frame advection is exact bookkeeping and diffusion reduces to a closed-form
integrating factor per mode.  Only k1 and k2 enter the sheared part, so the
factor separates into a (k1, k2) plane and, in 3D, a k3 line.  This module
holds the drift (``ShearFrame``), each frame's cached wavevector operators
(``frame``, which ``solver.tendency`` takes), that factor and the one exact
linear step (``linear_step``), which applies it and relabels the
coefficients (Rogallo remap) once |drift| reaches REMAP_THRESHOLD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (ContractViolation, GridSpec, _mesh_k2, band_of, k2_guard, over_slabs,
                       parseval_sum, slab)

REMAP_THRESHOLD = 1.0


@dataclass(frozen=True)
class ShearFrame:
    """Drift bookkeeping: elapsed shear since the last remap."""

    t_last_remap: float = 0.0
    drift: float = 0.0

    def __post_init__(self):
        if abs(self.drift) > REMAP_THRESHOLD + 1e-12:
            raise ContractViolation(f"drift {self.drift} beyond remap threshold")


@dataclass(frozen=True, eq=False)
class Frame:
    """A frame's wavevector operators (``frame``), every array read-only."""

    mesh: tuple       # the k1 >= 0 half's: the lattice, k2 sheared on the (k1, k2) plane
    box_mesh: tuple   # the mesh on the 2/3-rule band box (``band_of``)
    ik: tuple         # i k on the box
    box_guard: tuple  # the box's inverse-Laplacian guard (``k2_guard``)


@lru_cache(maxsize=4)
def frame(grid: GridSpec, drift: float, sheared: bool) -> Frame:
    """A grid's frame at this drift, built once per key for the run's stages
    and samples and the tracker: with sheared set, index k is the physical
    (k1, k2 - k1*drift, k3), else the mesh is the lattice.  Being cached, it
    holds no |k|^2 of the half: at 48^3 a few of those raise peak memory."""
    mesh = grid.k_mesh()
    if sheared:
        mesh[1] = mesh[1] - mesh[0] * drift
    box_mesh = [band_of(m, grid) for m in mesh]
    ik = [1j * m for m in box_mesh]
    box_guard = k2_guard(_mesh_k2(box_mesh))
    for arr in (mesh[1], *box_mesh, *ik, *box_guard):
        arr.flags.writeable = False
    return Frame(tuple(mesh), tuple(box_mesh), tuple(ik), box_guard)


@lru_cache(maxsize=4)
def _heat_factor(grid: GridSpec, dt: float, A: float) -> np.ndarray:
    """exp(-|k|^2 dt / A) on the half, built once per (grid, dt, A), read-only."""
    factor = np.exp(-grid.k_squared() * dt / A)
    factor.flags.writeable = False
    return factor


def _shear_exponent(k1, k2, dt: float, drift0: float) -> np.ndarray:
    """integral over [0, dt] of (k2 - k1*(drift0 + s))^2 ds, closed form, as
    a fresh float array (0-d for scalar k).

    With b = k2 - k1*drift0 and c = k1*dt this is dt*(b^2 - b*c + c^2/3),
    evaluated as dt*(b*(b - c) + c*c/3): no power, no division by k1, and
    k2^2 dt at k1 = 0 by itself.  It is built in place in the array of b.
    Flipping the sign of (k1, k2) flips b, c and b - c exactly, so the result
    is bitwise even in k.
    """
    c = k1 * dt
    e = np.asarray(k2 - k1 * drift0, dtype=float)  # b
    e *= e - c
    e += c * c / 3.0
    e *= dt
    return e


def integrating_factor(k, t0: float, t1: float, drift0: float, A: float) -> np.ndarray:
    """exp of -(1/A) * integral of |k_eff(s)|^2 over [t0, t1], k = (k1, k2[, k3]).

    The drift evolves as drift0 + (s - t0).  The factor separates: one exp
    over the broadcast (k1, k2) plane, with the steady k1^2 part folded into
    the closed-form wall-normal integral and built in place in the array of
    ``_shear_exponent``, times the line exp(-k3^2 dt / A) in 3D.
    """
    if t1 < t0:
        raise ContractViolation("integrating_factor needs t1 >= t0")
    dt = t1 - t0
    k1 = k[0]
    factor = _shear_exponent(k1, k[1], dt, drift0)
    factor += k1 * k1 * dt
    factor /= -A
    np.exp(factor, out=factor)
    for c in k[2:]:
        factor = factor * np.exp(-c * c * dt / A)
    return factor


def linear_step(grid: GridSpec, A: float, frame: ShearFrame, t: float, dt: float,
                sheared: bool):
    """The exact shear + diffusion propagator over [t, t+dt], and the new frame;
    without shear, the heat factor exp(-|k|^2 dt / A) and no drift.

    Returns ``apply(base, rhs=None, h=0.0, after=None, lost=True) -> (half,
    dropped energy)``: the propagator of base + h*rhs, plus h*after, for k1 >=
    0 half spectra with leading component axes, formed on k1 slabs
    (``over_slabs``).  Once the drift reaches REMAP_THRESHOLD index k2
    moves to k2 - k1*shift with shift = rint(drift), which keeps the physical
    wavevector, and modes moved beyond |k2| <= n2/2 - 1 are dropped.  The
    dropped energy is their ``parseval_sum`` on the half, that of the whole
    spectrum; with lost cleared it reads 0.0.
    """
    if sheared:
        factor = integrating_factor(grid.k_mesh(), 0.0, dt, frame.drift, A)
        drift = frame.drift + dt
        shift = int(np.rint(drift)) if abs(drift) >= REMAP_THRESHOLD else 0
    else:
        factor = _heat_factor(grid, dt, A)
        drift, shift = frame.drift, 0
    if shift == 0:
        new_frame = ShearFrame(frame.t_last_remap, drift)
    else:
        new_frame = ShearFrame(t_last_remap=t + dt, drift=drift - shift)
        flat_src, flat_dst, lost_modes = _remap_gather(grid, shift)

    def apply(base, rhs=None, h=0.0, after=None, lost=True):
        out = (np.empty if shift == 0 else np.zeros)(base.shape, dtype=np.complex128)
        scaled = None if shift == 0 else np.empty(base.shape, dtype=np.complex128)

        def propagate(s):  # on k1 planes s; a remap moves modes within their row
            o = slab(out, s, grid)  # stays zero where a remap's gather writes nothing
            x = o if shift == 0 else slab(scaled, s, grid)  # the slab, formed in place
            src = slab(base, s, grid)
            if rhs is not None:
                np.multiply(h, slab(rhs, s, grid), out=x)
                src = np.add(src, x, out=x)
            np.multiply(src, slab(factor, s, grid), out=x)
            if shift != 0:
                _remap_rows(out, scaled, s, flat_src, flat_dst, grid)
            if after is not None:
                o += h * slab(after, s, grid)
        over_slabs(propagate, base.shape[base.ndim - grid.dim], grid)
        return out, parseval_sum(scaled, grid, lost_modes) if lost and shift else 0.0
    return apply, new_frame


@lru_cache(maxsize=32)
def _remap_gather(grid: GridSpec, shift: int) -> tuple:
    """The remap by shift as a gather, built once per (grid, shift) and
    read-only: (src, dst, lost).  Half-spectrum mode (i1, i2) moves to (i1,
    k2_new % n2) with k2_new = k2 - k1*shift; src and dst hold both as flat
    (k1, k2) indices i1*n2 + i2, ascending in src, of the modes kept, those
    with |k2_new| <= n2/2 - 1.  lost is the half's other modes as a 0/1
    multiplier that broadcasts against the half."""
    n2 = grid.shape[1]
    k1, k2 = (m.ravel().astype(int) for m in grid.k_mesh()[:2])
    k2_new = k2[None, :] - k1[:, None] * shift
    keep = np.abs(k2_new) <= n2 // 2 - 1  # the lone -n2/2 row stays empty: Hermitian band
    i1, i2 = np.nonzero(keep)
    lost = (~keep).astype(float).reshape(keep.shape + (1,) * (grid.dim - 2))
    gather = (i1 * n2 + i2, i1 * n2 + k2_new[i1, i2] % n2, lost)
    for arr in gather:
        arr.flags.writeable = False
    return gather


def _remap_rows(out: np.ndarray, scaled: np.ndarray, s: slice, src, dst, grid: GridSpec):
    """The remap of k1 planes s: the modes of those planes that
    ``_remap_gather`` keeps (src, dst), read from the half scaled and written
    to their new k2 in the half out, one gather through flat (k1, k2) indices
    of the halves, each a view with those two axes merged (copy=False raises
    where it cannot be)."""
    p, q = np.searchsorted(src, (s.start * grid.shape[1], s.stop * grid.shape[1]))
    lead = out.ndim - grid.dim
    flat, at = out.shape[:lead] + (-1,) + out.shape[lead + 2:], (slice(None),) * lead
    out.reshape(flat, copy=False)[at + (dst[p:q],)] = \
        scaled.reshape(flat, copy=False)[at + (src[p:q],)]
