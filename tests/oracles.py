"""Test oracles: independent references the solver is graded against.

Nothing here is called by ``shearks`` itself.  ``exact_passive_scalar`` is
the closed-form passive-scalar semigroup; it writes its own exponent and its
own relabelling, so it shares neither the integrating factor nor the
propagator of the solver it checks.  ``from_values`` builds a spectral
field from closed-form collocation values; ``inverse_transform`` is the
full complex inverse transform, the reference of ``spectral.values_of``,
which reads only the k1 >= 0 half.  The collocation-grid norms are
the references the solver's sample rows and Parseval are checked against;
``pad_to`` re-samples a band-limited field on a finer grid, and
``free_energy_monotone`` grades a run's free-energy column.
``full_spectrum_step`` is the coupled Heun step taken on whole spectra, the
bit-for-bit reference of ``solver.step``, which works on k1 >= 0 halves.
``PerFieldTracker`` advances G1, B1 and B2 one field at a time on whole
cross-section spectra, the bit-for-bit reference of
``diagnostics.DecompositionTracker``, which advances them as one stack of
k_y >= 0 halves.  ``complex_forward_transform`` is the full complex FFT,
the reference of ``spectral.forward_transform``, which takes one real
transform.  ``full_band_hermitian`` is a real field over every stored mode,
outside the 2/3 band too, which ``sampling.random_smooth`` never makes.
``read_series`` reads a run's ``series.csv`` back.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shearks import solver
from shearks.diagnostics import compute_omega2
from shearks.modes import zero_mode
from shearks.seriesio import CheckpointError
from shearks.shear import REMAP_THRESHOLD, ShearFrame, effective_k_mesh, frame_k_mesh, \
    integrating_factor
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    fill,
    forward_transform,
    halve,
    hermitize,
    irfft_x,
    l2_norm,
    leray_project,
    rfft_x,
    values_of,
)


def exact_passive_scalar(F: SpectralField, t: float, A: float, drift0: float = 0.0):
    """Exact solution of df/dt + y df/dx = (1/A) lap f after time t, mode by mode.

    F is a scalar field stored in a shear frame of drift drift0: index k holds
    the physical wavevector (k1, b, k3) with b = k2 - k1*drift0.  Each
    coefficient is damped by exp(-(1/A) int_0^t |k_eff(s)|^2 ds), where the
    wall-normal part int_0^t (b - k1 s)^2 ds = b^2 t - b k1 t^2 + k1^2 t^3 / 3,
    and is then relabelled once, to k2 - k1*m with m = round(drift0 + t).
    Modes relabelled beyond |k2| <= n2/2 - 1 are dropped.  Returns the field,
    its drift drift0 + t - m and the dropped spectral energy.
    """
    grid = F.grid
    if F.components != 1:
        raise ContractViolation("exact_passive_scalar takes a scalar field")
    k = [np.broadcast_to(c, grid.shape).astype(float) for c in grid.k_mesh()]
    k1, k2 = k[0], k[1]
    b = k2 - k1 * drift0
    exponent = (k1 * k1 + sum(c * c for c in k[2:])) * t \
        + b * b * t - b * k1 * t * t + k1 * k1 * t ** 3 / 3.0
    damped = F.coeffs * np.exp(-exponent / A)

    m = round(drift0 + t)
    kmax = grid.shape[1] // 2 - 1
    out = np.zeros_like(damped)
    dropped = 0.0
    for i1, k1_row in enumerate(grid.wavenumbers(0).astype(int)):
        inside = np.abs(grid.wavenumbers(1) - k1_row * m) <= kmax
        inside = inside.reshape((-1,) + (1,) * (grid.dim - 2))
        dropped += float(np.sum(np.abs(np.where(inside, 0.0, damped[i1])) ** 2))
        out[i1] = np.roll(np.where(inside, damped[i1], 0.0), -k1_row * m, axis=0)
    return SpectralField(grid, out), drift0 + t - m, dropped * grid.volume


def from_values(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """Spectral field of real collocation values."""
    return forward_transform(RealField(grid, np.asarray(values, dtype=float)))


def complex_forward_transform(f: RealField) -> SpectralField:
    """Fourier coefficients by a full complex transform over every spatial
    axis; leading axes are kept."""
    axes = tuple(range(f.values.ndim - f.grid.dim, f.values.ndim))
    return SpectralField(f.grid, np.fft.fftn(f.values, axes=axes) / f.grid.size)


def full_band_hermitian(grid, seed, components=1, slope=None):
    """White spectrum over every stored mode, the x-Nyquist plane and the
    lone -n/2 rows included, made Hermitian by hermitize.  With a slope it
    is weighted like ``sampling.random_smooth``: |fhat(k)| ~ |k|^-slope,
    zero mean and unit L2."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if components == 1 else (components, *grid.shape)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if slope is not None:
        k2 = grid.k_squared()
        coeffs *= np.where(k2 > 0, (k2 + 1.0) ** (-slope / 2.0), 0.0)
    F = hermitize(SpectralField(grid, coeffs))
    if slope is not None:
        F.coeffs /= l2_norm(F)
    return F


def read_series(path) -> list[dict]:
    """The rows of a series file, floats parsed and status kept as text;
    raises CheckpointError when the header is not ``solver.SERIES_COLUMNS``."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    if header != list(solver.SERIES_COLUMNS):
        raise CheckpointError(f"unexpected series header in {path}")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, raw in zip(solver.SERIES_COLUMNS, line.split(",")):
            row[key] = raw if key == "status" else float(raw)
        rows.append(row)
    return rows


def inverse_transform(F: SpectralField) -> RealField:
    """Collocation values by a full complex inverse transform of the whole
    spectrum, imaginary part discarded."""
    axes = tuple(range(F.coeffs.ndim - F.grid.dim, F.coeffs.ndim))
    return RealField(F.grid, np.fft.ifftn(F.coeffs, axes=axes).real * F.grid.size)


def l2_norm_values(f: RealField) -> float:
    """Grid-quadrature L2 norm (trapezoid on the periodic grid)."""
    return float(np.sqrt(np.sum(f.values ** 2) * f.grid.cell_volume))


def linf_norm(F: SpectralField) -> float:
    """Largest pointwise magnitude on the collocation grid."""
    vals = values_of(F)
    if F.components > 1:
        vals = np.sqrt(np.sum(vals ** 2, axis=0))
    return float(np.max(np.abs(vals)))


def min_value(F: SpectralField) -> float:
    """Smallest collocation value of a scalar field."""
    if F.components != 1:
        raise ContractViolation("min_value expects a scalar field")
    return float(np.min(values_of(F)))


def pad_to(F: SpectralField, grid: GridSpec) -> SpectralField:
    """Represent the same band-limited function on a finer grid."""
    if grid.dim != F.grid.dim:
        raise ContractViolation("pad_to needs grids of equal dimension")
    lead = F.coeffs.shape[: F.coeffs.ndim - F.grid.dim]
    src = [np.arange(n) for n in lead]
    dst = [np.arange(n) for n in lead]
    for n_old, n_new in zip(F.grid.shape, grid.shape):
        if n_new < n_old:
            raise ContractViolation("pad_to only refines")
        src.append(np.r_[0: n_old // 2, n_old - n_old // 2: n_old])
        dst.append(np.r_[0: n_old // 2, n_new - n_old // 2: n_new])
    out = np.zeros((*lead, *grid.shape), dtype=np.complex128)
    out[np.ix_(*dst)] = F.coeffs[np.ix_(*src)]
    return SpectralField(grid, out)


def free_energy_monotone(rows: list, slack_frac: float = 1e-6) -> bool:
    """The finite free-energy values of a series never rise beyond slack."""
    series = [row["free_energy"] for row in rows if math.isfinite(row["free_energy"])]
    if len(series) < 2:
        return False
    scale = max(abs(v) for v in series)
    return all(b <= a + slack_frac * scale for a, b in zip(series, series[1:]))


def min_principle_check(rows: list, nbar: float, A: float,
                        delta: float | None = None, slack_frac: float = 1e-3) -> bool:
    """min n(t) >= delta * exp(-nbar t / A) - slack for every sampled t."""
    if not rows:
        return False
    if delta is None:
        delta = rows[0]["n_min"]
    if delta <= 0:
        raise ContractViolation("minimum principle needs positive initial data")
    slack = slack_frac * delta
    for row in rows:
        bound = delta * math.exp(-nbar * row["t"] / A)
        if row["n_min"] < bound - slack:
            return False
    return True


def residual_omega2(state_before, state_after, params) -> float:
    """L2 residual of the omega2 evolution equation across one step.

    The stored-coefficient finite difference absorbs d/dt + y d/dx exactly
    (both states must share a remap epoch); the remaining terms are assembled
    from midpoint fields at the midpoint drift.
    """
    sb, sa = state_before, state_after
    if sb.n.grid.shape != sa.n.grid.shape:
        raise ContractViolation("states live on different grids")
    if sb.frame.t_last_remap != sa.frame.t_last_remap:
        raise ContractViolation("states straddle a remap; residual undefined")
    dt = sa.t - sb.t
    if dt <= 0:
        raise ContractViolation("states must be ordered in time")
    grid = params.grid
    A = params.A
    drift_mid = 0.5 * (sb.frame.drift + sa.frame.drift)
    mesh = effective_k_mesh(grid, drift_mid) if params.enable_shear else grid.k_mesh()

    u_mid = SpectralField(grid, 0.5 * (sb.u.coeffs + sa.u.coeffs))
    n_mid = SpectralField(grid, 0.5 * (sb.n.coeffs + sa.n.coeffs))
    w_before = compute_omega2(sb.u, k_mesh=effective_k_mesh(grid, sb.frame.drift)
                              if params.enable_shear else None)
    w_after = compute_omega2(sa.u, k_mesh=effective_k_mesh(grid, sa.frame.drift)
                             if params.enable_shear else None)
    fd = (w_after.coeffs - w_before.coeffs) / dt

    k2 = np.zeros(grid.shape)
    for comp in mesh:
        k2 = k2 + np.broadcast_to(comp ** 2, grid.shape)
    w_mid = compute_omega2(u_mid, k_mesh=mesh)

    # u . grad u1 and u . grad u3, pseudo-spectral at the midpoint
    dmask = grid.dealias_mask()
    u_phys = irfft_x(halve(u_mid.coeffs * dmask, grid), grid)
    adv = []
    for comp in (0, 2):
        acc = np.zeros(grid.shape)
        for j in range(3):
            dj = irfft_x(halve((1j * mesh[j] * u_mid.coeffs[comp]) * dmask, grid), grid)
            acc += u_phys[j] * dj
        adv.append(fill(rfft_x(acc, grid), grid) * dmask)
    adv_u1, adv_u3 = adv

    rhs = (
        -1j * mesh[2] * u_mid.coeffs[1]
        - (1.0 / A) * k2 * w_mid.coeffs
        - (1.0 / A) * 1j * mesh[2] * adv_u1
        + (1.0 / A) * 1j * mesh[0] * adv_u3
        + (1.0 / A) * 1j * mesh[2] * n_mid.coeffs
    )
    resid = fd - rhs
    return float(np.sqrt(grid.volume * np.sum(np.abs(resid) ** 2)))


def full_spectrum_operator(params, frame: ShearFrame, t: float, dt: float):
    """``solver._step_operator`` on whole spectra: ``apply(coeffs)`` damps
    every mode of both halves and gathers each remapped k1 row in full."""
    grid, A = params.grid, params.A
    if not params.enable_shear:
        factor = np.exp(-grid.k_squared() * dt / A)
        return (lambda coeffs: (coeffs * factor, 0.0)), frame
    factor = integrating_factor(grid.k_mesh(), 0.0, dt, frame.drift, A)
    new_drift = frame.drift + dt
    shift = int(np.rint(new_drift)) if abs(new_drift) >= REMAP_THRESHOLD else 0
    if shift == 0:
        return (lambda coeffs: (coeffs * factor, 0.0)), ShearFrame(frame.t_last_remap, new_drift)
    n2 = grid.shape[1]
    k2_new = (grid.wavenumbers(1).astype(int)[None, :]
              - grid.wavenumbers(0).astype(int)[:, None] * shift)
    keep = np.abs(k2_new) <= n2 // 2 - 1
    i1, i2 = np.nonzero(keep)
    dst = k2_new[keep] % n2
    lost = np.nonzero(~keep)

    def apply(coeffs):
        scaled = coeffs * factor
        lead = (slice(None),) * (scaled.ndim - grid.dim)
        out = np.zeros_like(scaled)
        out[lead + (i1, dst)] = scaled[lead + (i1, i2)]
        return out, float(np.sum(np.abs(scaled[lead + lost]) ** 2)) * grid.volume
    return apply, ShearFrame(t_last_remap=t + dt, drift=new_drift - shift)


def full_spectrum_step(state, params, t_stop=None, tracker=None):
    """One ``solver.step`` taken on whole spectra.

    Each tendency is filled to a full spectrum, the propagator runs over
    both halves, and each output is symmetrized by ``hermitize`` over the
    whole grid, the velocity then projected by ``leray_project``.  The
    tendency kernel itself is shared: it is graded on its own in
    ``test_tendency.py``.
    """
    grid = params.grid
    t_remaining = (t_stop - state.t) if t_stop is not None else math.inf
    need_aux = tracker is not None

    def evaluate(n, u, drift):
        ev = solver._evaluate(halve(n, grid), None if u is None else halve(u, grid), params,
                              drift, need_aux)
        ev.rhs_n = fill(ev.rhs_n, grid)
        ev.rhs_u = None if u is None else fill(ev.rhs_u, grid)
        return ev

    passive = state.u is None and not params.enable_chemotaxis
    n, u = state.n.coeffs, None if state.u is None else state.u.coeffs
    ev1 = None if passive else evaluate(n, u, state.frame.drift)
    dt = solver.choose_dt(params, ev1, t_remaining)
    apply_op, new_frame = full_spectrum_operator(params, state.frame, state.t, dt)
    if passive:
        n_new, dropped_n = apply_op(n)
        return (solver.State(t=state.t + dt, n=SpectralField(grid, n_new), u=None,
                             frame=new_frame), solver.StepInfo(dt=dt, dropped_n=dropped_n))
    n_pred, _ = apply_op(n + dt * ev1.rhs_n)
    u_pred = None if u is None else apply_op(u + dt * ev1.rhs_u)[0]
    ev2 = evaluate(n_pred, u_pred, new_frame.drift)
    n_new, dropped_n = apply_op(n + 0.5 * dt * ev1.rhs_n)
    n_field = hermitize(SpectralField(grid, n_new + 0.5 * dt * ev2.rhs_n))
    u_field, dropped_u = None, 0.0
    if u is not None:
        u_new, dropped_u = apply_op(u + 0.5 * dt * ev1.rhs_u)
        u_field = leray_project(hermitize(SpectralField(grid, u_new + 0.5 * dt * ev2.rhs_u)),
                                k_mesh=frame_k_mesh(params, new_frame.drift))
        if tracker is not None:
            tracker.advance(params, dt, ev1, ev2)
    return (solver.State(t=state.t + dt, n=n_field, u=u_field, frame=new_frame),
            solver.StepInfo(dt=dt, dropped_n=dropped_n, dropped_u=dropped_u))


@dataclass
class PerFieldTracker:
    """The decomposition tracker with one advection, one Heun line and one
    ``hermitize`` per field, on whole cross-section spectra: G1, B1 and B2
    each take an inverse transform and a forward transform of their two
    fluxes per stage, and the stage's k_y >= 0 aux halves are read through
    ``fill``."""

    G1: SpectralField
    B1: SpectralField
    B2: SpectralField

    @classmethod
    def start(cls, params, state) -> "PerFieldTracker":
        g1 = zero_mode(state.u.component(0)).copy()
        cross = g1.grid
        zero = lambda: SpectralField(cross, np.zeros(cross.shape, dtype=np.complex128))
        return cls(G1=g1, B1=zero(), B2=zero())

    def _stage_rhs(self, params, ev):
        cross = self.G1.grid
        A = params.A
        mask = cross.dealias_mask()
        mesh = cross.k_mesh()
        u2v, u3v = ev.u_zero_vals[1], ev.u_zero_vals[2]

        def advect(Xc):
            xv = irfft_x(halve(Xc * mask, cross), cross)
            fy, fz = fill(rfft_x(np.stack([u2v * xv, u3v * xv]), cross), cross)
            return (1j * mesh[0] * fy + 1j * mesh[1] * fz) * mask

        q_neq = fill(ev.q_neq_hat, cross)
        neq = (1j * mesh[0] * q_neq[0] + 1j * mesh[1] * q_neq[1]) * mask
        r_g1 = -(advect(self.G1.coeffs) + neq) / A
        r_b1 = -advect(self.B1.coeffs) / A + fill(ev.n_zero, cross) / A
        r_b2 = -advect(self.B2.coeffs) / A - fill(ev.u_zero[1], cross)
        return r_g1, r_b1, r_b2

    def advance(self, params, dt, ev1, ev2):
        cross = self.G1.grid
        heat = np.exp(-cross.k_squared() * dt / params.A)
        r1 = self._stage_rhs(params, ev1)
        pred = PerFieldTracker(
            G1=SpectralField(cross, heat * (self.G1.coeffs + dt * r1[0])),
            B1=SpectralField(cross, heat * (self.B1.coeffs + dt * r1[1])),
            B2=SpectralField(cross, heat * (self.B2.coeffs + dt * r1[2])),
        )
        r2 = pred._stage_rhs(params, ev2)
        self.G1 = hermitize(SpectralField(cross, heat * (self.G1.coeffs + 0.5 * dt * r1[0])
                                          + 0.5 * dt * r2[0]))
        self.B1 = hermitize(SpectralField(cross, heat * (self.B1.coeffs + 0.5 * dt * r1[1])
                                          + 0.5 * dt * r2[1]))
        self.B2 = hermitize(SpectralField(cross, heat * (self.B2.coeffs + 0.5 * dt * r1[2])
                                          + 0.5 * dt * r2[2]))
