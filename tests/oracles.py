"""Test oracles: independent references the solver is graded against.

Nothing here is called by ``shearks`` itself.  ``exact_passive_scalar`` is
the closed-form passive-scalar semigroup; it writes its own exponent and its
own relabelling, so it shares neither the integrating factor nor the
propagator of the solver it checks.  ``from_values`` builds a spectral
field from closed-form collocation values; ``inverse_transform`` is the
full complex inverse transform, the reference of ``spectral.values_of``,
which reads only the k1 >= 0 half.  The collocation-grid norms are
the references the solver's sample rows and Parseval are checked against;
``pad_to`` re-samples a band-limited field on a finer grid,
``split_bar_tilde`` splits a zero mode into its average and the mean-free
rest, and ``free_energy_monotone`` grades a run's free-energy column.
``full_spectrum_step`` is the coupled Heun step taken on whole spectra, the
bit-for-bit reference of ``solver.step``, which works on k1 >= 0 halves.
``PerFieldTracker`` advances G1, B1 and B2 one field at a time on whole
cross-section spectra, forming its zero-mode inputs from the stage's whole
n and u, the bit-for-bit reference of ``diagnostics.DecompositionTracker``,
which advances them as one stack of k_y >= 0 halves.
``complex_forward_transform`` is the full complex FFT, the reference of
``spectral.forward_transform``, which takes one real transform.
``hermitian`` is the Hermitian part of a whole spectrum, which the
whole-spectrum references symmetrize with (``spectral.hermitize`` sees a
field's k1 >= 0 half alone).  ``full_band_hermitian`` is a real field over
every stored mode, outside the 2/3 band too, which
``sampling.random_smooth`` never makes.
``read_series`` reads a run's ``series.csv`` back.  ``dealias_mask`` is
the 2/3-rule band as a full-spectrum mask, which the masked references
multiply by; ``solver`` never forms it.  ``compute_omega2`` is
the wall-normal vorticity of a full spectrum, which ``residual_omega2``
uses, and ``full_divergence`` the divergence of one, the reference of
``spectral.divergence`` on halves.  ``full_spectrum_ledger`` is the energy
ledger summed over whole spectra, the reference of
``diagnostics.ledger_update``, which sums Parseval-weighted k1 >= 0 halves.
``masked_tendency`` is the tendency assembled on whole k1 >= 0 halves with
every dealiased product multiplied by the 2/3-rule mask, the bit-for-bit
reference (up to the sign of exact zeros) of ``solver.tendency``, which
transforms and assembles the band box alone.  ``two_step_projection`` is a
sheared stage's velocity projection as Leray's projection followed by the
pressure response grad lap^-1 dx u2, the reference of the one projection
onto k.u = k1 u2 (``spectral.leray_coeffs``).
``full_k_mesh``, ``full_k_squared`` and ``full_frame_k_mesh`` are the
whole spectrum's lattice, |k|^2 and sheared frame, on which every
whole-spectrum reference works; the program's lattice is the k1 >= 0
half's (``GridSpec.k_mesh``).  ``checkpoint_bytes`` is a checkpoint's
bytes as ``seriesio.write_checkpoint`` writes them.
``expression_factor`` is the integrating factor written as one expression
of fresh arrays, the bit-for-bit reference of ``shear.integrating_factor``,
which builds it in place, and ``fancy_remap_rows`` the remap as a gather by
(k1, k2) index pairs, the bit-for-bit reference of ``shear._remap_rows``,
which gathers through flat indices.
``run_params`` is no oracle: it is how every test builds a run's parameters
on a test grid, through ``config.params_of`` like the program itself.
"""

import math
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from shearks import shear, solver
from shearks.config import RunConfig, params_of
from shearks.diagnostics import kappa_values
from shearks.modes import fluctuation_only, zero_mode
from shearks.seriesio import CheckpointError, write_checkpoint
from shearks.shear import REMAP_THRESHOLD, ShearFrame, integrating_factor
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    _mesh_k2,
    band_of,
    conj_reverse,
    fill,
    forward_transform,
    halve,
    irfft_x,
    l2_norm,
    leray_coeffs,
    over_k2,
    place,
    rfft_x,
    slab,
    values_of,
)


def run_params(grid: GridSpec, **kw) -> RunConfig:
    """``params_of`` of a RunConfig on grid's shape with the keys kw; the
    fluid is on in 3D and off in 2D, and the tracker off, unless kw says."""
    cfg = RunConfig(dim=grid.dim, **dict(zip(("nx", "ny", "nz"), grid.shape)),
                    enable_velocity=grid.dim == 3, track_decomposition=False)
    return params_of(replace(cfg, **kw))


def full_k_mesh(grid: GridSpec) -> list[np.ndarray]:
    """The whole spectrum's integer wavevectors, one broadcastable array per
    axis in FFT storage order; ``halve`` of each is ``grid.k_mesh()``."""
    return list(np.ix_(*[grid.wavenumbers(a) for a in range(grid.dim)]))


def full_k_squared(grid: GridSpec) -> np.ndarray:
    """|k|^2 over the whole spectrum."""
    return _mesh_k2(full_k_mesh(grid))


def full_frame_k_mesh(params, drift: float) -> list[np.ndarray]:
    """``shear.frame``'s mesh over the whole spectrum: (k1, k2 - k1*drift,
    k3) with shear on, the whole lattice otherwise."""
    k = full_k_mesh(params.grid)
    if params.enable_shear:
        k[1] = k[1] - k[0] * drift
    return k


def expression_factor(k, t0: float, t1: float, drift0: float, A: float):
    """exp of -(1/A) * integral of |k_eff(s)|^2 over [t0, t1] as one
    expression, each operation into a fresh array, in the order that
    ``shear.integrating_factor`` takes in place."""
    dt = t1 - t0
    k1, k2 = k[0], k[1]
    b = k2 - k1 * drift0
    c = k1 * dt
    factor = np.exp((k1 * k1 * dt + dt * (b * (b - c) + c * c / 3.0)) / -A)
    for k3 in k[2:]:
        factor = factor * np.exp(-k3 * k3 * dt / A)
    return factor


def fancy_remap_rows(out: np.ndarray, scaled: np.ndarray, s: slice, grid: GridSpec,
                     shift: int):
    """The remap by shift of k1 planes s: each kept mode (i1, i2) of the half
    scaled written to (i1, (k2 - k1*shift) % n2) of the half out, by one
    fancy index of (k1, k2) pairs on the slabs; modes moved beyond |k2| <=
    n2/2 - 1 are not written."""
    n2 = grid.shape[1]
    k1, k2 = (m.ravel().astype(int) for m in grid.k_mesh()[:2])
    k2_new = k2[None, :] - k1[:, None] * shift
    i1, i2 = np.nonzero(np.abs(k2_new) <= n2 // 2 - 1)
    dst = k2_new[i1, i2] % n2
    p, q = np.searchsorted(i1, (s.start, s.stop))
    rows = i1[p:q] - s.start
    lead = (slice(None),) * (out.ndim - grid.dim)
    slab(out, s, grid)[lead + (rows, dst[p:q])] = slab(scaled, s, grid)[lead + (rows, i2[p:q])]


def checkpoint_bytes(state, A: float) -> bytes:
    """The bytes ``seriesio.write_checkpoint`` writes for state, through a
    temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.pksn"
        write_checkpoint(path, state, A)
        return path.read_bytes()


@lru_cache(maxsize=32)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """The 2/3-rule band as a full-spectrum mask: |k_a| <= dealias_cutoff(a)
    on every axis."""
    mask = np.ones(grid.shape, dtype=bool)
    for axis, comp in enumerate(full_k_mesh(grid)):
        mask &= np.abs(comp) <= grid.dealias_cutoff(axis)
    return mask


def serial_drain(tasks, grid: GridSpec):
    """``spectral._drain`` with every task run on the caller, in order: the
    serial reference of the two-thread work queue."""
    for fn, *args in tasks:
        fn(*args)


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
    k = [np.broadcast_to(c, grid.shape).astype(float) for c in full_k_mesh(grid)]
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


def hermitian(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The Hermitian part of a whole spectrum (leading axes kept): the
    average of coeffs and its mirror image, exactly Hermitian."""
    return 0.5 * (coeffs + conj_reverse(coeffs, grid.dim))


def full_band_hermitian(grid, seed, components=1, slope=None):
    """White spectrum over every stored mode, the x-Nyquist plane and the
    lone -n/2 rows included, made Hermitian by ``hermitian``.  With a slope it
    is weighted like ``sampling.random_smooth``: |fhat(k)| ~ |k|^-slope,
    zero mean and unit L2."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if components == 1 else (components, *grid.shape)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if slope is not None:
        k2 = full_k_squared(grid)
        coeffs *= np.where(k2 > 0, (k2 + 1.0) ** (-slope / 2.0), 0.0)
    F = SpectralField(grid, hermitian(coeffs, grid))
    if slope is not None:
        F.half /= l2_norm(F)
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


def split_bar_tilde(f0: SpectralField) -> tuple[float, SpectralField]:
    """(spatial average, mean-free remainder) of a scalar zero mode."""
    if f0.components != 1:
        raise ContractViolation("split_bar_tilde expects a scalar field")
    origin = (0,) * f0.grid.dim
    tilde = f0.coeffs.copy()
    tilde[origin] = 0.0
    return float(f0.coeffs[origin].real), SpectralField(f0.grid, tilde)


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


def full_divergence(u: SpectralField, k_mesh) -> SpectralField:
    """div u over the whole spectrum on the wavevectors k_mesh (whole-grid
    components), the reference of ``spectral.divergence``, which takes and
    returns k1 >= 0 halves."""
    out = np.zeros(u.grid.shape, dtype=np.complex128)
    for a in range(u.grid.dim):
        out += 1j * k_mesh[a] * u.coeffs[a]
    return SpectralField(u.grid, out)


def compute_omega2(u: SpectralField, k_mesh=None) -> SpectralField:
    """Wall-normal vorticity dz(u1) - dx(u3)."""
    if u.grid.dim != 3 or u.components != 3:
        raise ContractViolation("omega2 needs a 3-component 3D velocity")
    mesh = full_k_mesh(u.grid) if k_mesh is None else list(k_mesh)
    w = 1j * mesh[2] * u.coeffs[0] - 1j * mesh[0] * u.coeffs[2]
    return SpectralField(u.grid, w)


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
    mesh = full_frame_k_mesh(params, drift_mid)

    u_mid = SpectralField(grid, 0.5 * (sb.u.coeffs + sa.u.coeffs))
    n_mid = SpectralField(grid, 0.5 * (sb.n.coeffs + sa.n.coeffs))
    w_before = compute_omega2(sb.u, k_mesh=full_frame_k_mesh(params, sb.frame.drift))
    w_after = compute_omega2(sa.u, k_mesh=full_frame_k_mesh(params, sa.frame.drift))
    fd = (w_after.coeffs - w_before.coeffs) / dt

    k2 = np.zeros(grid.shape)
    for comp in mesh:
        k2 = k2 + np.broadcast_to(comp ** 2, grid.shape)
    w_mid = compute_omega2(u_mid, k_mesh=mesh)

    # u . grad u1 and u . grad u3, pseudo-spectral at the midpoint
    dmask = dealias_mask(grid)
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
        factor = np.exp(-full_k_squared(grid) * dt / A)
        return (lambda coeffs: (coeffs * factor, 0.0)), frame
    factor = integrating_factor(full_k_mesh(grid), 0.0, dt, frame.drift, A)
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
    both halves, and each output is symmetrized by ``hermitian`` over the
    whole grid; the velocity is not projected.  The tendency kernel itself
    is shared: it is graded on its own in ``test_tendency.py``.
    """
    grid = params.grid
    t_remaining = (t_stop - state.t) if t_stop is not None else math.inf

    def evaluate(n, u, drift):
        ev = solver._evaluate(halve(n, grid), None if u is None else halve(u, grid), params,
                              drift)
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
    n_field = SpectralField(grid, hermitian(n_new + 0.5 * dt * ev2.rhs_n, grid))
    u_field, dropped_u = None, 0.0
    if u is not None:
        u_new, dropped_u = apply_op(u + 0.5 * dt * ev1.rhs_u)
        u_field = SpectralField(grid, hermitian(u_new + 0.5 * dt * ev2.rhs_u, grid))
        if tracker is not None:
            tracker.advance(params, dt, (n, u, ev1), (n_pred, u_pred, ev2))
    return (solver.State(t=state.t + dt, n=n_field, u=u_field, frame=new_frame),
            solver.StepInfo(dt=dt, dropped_n=dropped_n, dropped_u=dropped_u))


def masked_tendency(n_h: np.ndarray, u_h: np.ndarray | None, grid: GridSpec, A: float, k_mesh,
                    chemotaxis: bool = True, tilt: bool = False) -> solver.StageEval:
    """``solver.tendency`` as the full masked assembly: every dealiased
    product is transformed over the whole k1 >= 0 half and multiplied by the
    2/3-rule mask, where the solver transforms the band box alone.

    Explicit tendencies:
    rhs_n = -(1/A) div(n u + n grad c) and rhs_u the projection of r =
    -u2 e1 + (n/A) e1 - (1/A) div(u x u) onto k.rhs_u = k1 u2 when tilt is
    set, onto k.rhs_u = 0 otherwise (``leray_coeffs``).  Products are
    dealiased, forcing terms raw; rhs_n conserves mass to round-off.
    n_h, u_h and both tendencies are k1 >= 0 half
    spectra, and k_mesh is the half mesh (``shear.frame``'s).  A passive
    scalar has no tendency and raises ContractViolation.
    """
    if u_h is None and not chemotaxis:
        raise ContractViolation("a passive scalar has no explicit tendency")
    mesh = k_mesh
    k2 = _mesh_k2(mesh)
    dmask = halve(dealias_mask(grid), grid)
    n_u = 0 if u_h is None else grid.dim
    n_phys = irfft_x(n_h * dmask, grid)
    # u and grad c go through one inverse transform, u_i u_j (i <= j) and the
    # flux through one forward transform each; every stack is filled in place
    # and holds at most six fields: 7- and 9-field stacks at 48^3 raised the
    # process's peak RSS by 4-6 MB through the allocator's retained heap
    spec = np.empty((n_u + (grid.dim if chemotaxis else 0), *n_h.shape), dtype=np.complex128)
    if u_h is not None:
        np.multiply(u_h, dmask, out=spec[:n_u])
    if chemotaxis:
        c_h = over_k2(n_h, k2)  # lap c = -(n - mean n)
        for a in range(grid.dim):
            np.multiply(1j * mesh[a] * c_h, dmask, out=spec[n_u + a])
    phys = irfft_x(spec, grid)
    del spec
    u_phys, grad_c = phys[:n_u], phys[n_u:]
    max_u = float(np.max(np.abs(u_phys))) if n_u else 0.0
    max_chemo = float(np.max(np.abs(grad_c))) if chemotaxis else 0.0
    pairs = [(i, j) for i in range(n_u) for j in range(i, n_u)]
    slot = {p: s for s, (i, j) in enumerate(pairs) for p in ((i, j), (j, i))}
    if pairs:
        prods = np.empty((len(pairs), *grid.shape))
        for s, (i, j) in enumerate(pairs):
            np.multiply(u_phys[i], u_phys[j], out=prods[s])
        uu = rfft_x(prods, grid)
        del prods
    if n_u and chemotaxis:
        flux = u_phys + grad_c
        flux *= n_phys
    else:
        flux = (u_phys if n_u else grad_c) * n_phys
    del phys, u_phys, grad_c, n_phys
    flux_hat = rfft_x(flux, grid)
    del flux
    rhs_u = None
    if u_h is not None:
        rhs = np.stack([(-1.0 / A) * sum(1j * mesh[j] * uu[slot[j, i]] for j in range(grid.dim))
                        * dmask for i in range(grid.dim)])
        rhs[0] += n_h / A - u_h[1]
        rhs_u = leray_coeffs(rhs, mesh, mesh[0] * u_h[1] if tilt else None)
    rhs_n = (-1.0 / A) * sum(1j * mesh[a] * flux_hat[a] for a in range(grid.dim)) * dmask

    uu_zero = None
    if u_h is not None:
        # the k1 = 0 plane of a half spectrum is complete
        cross = grid.cross_section()
        uu_zero = band_of(halve(uu[[slot[1, 0], slot[2, 0]], 0], cross), cross)
    return solver.StageEval(rhs_n=rhs_n, rhs_u=rhs_u, max_u=max_u, max_chemo=max_chemo,
                            uu_zero=uu_zero)


def masked_evaluate(n_h, u_h, params, drift: float) -> solver.StageEval:
    """``solver._evaluate`` on ``masked_tendency``."""
    return masked_tendency(n_h, u_h, params.grid, params.A,
                           shear.frame(params.grid, drift, params.enable_shear).mesh,
                           params.enable_chemotaxis, tilt=params.enable_shear)


def two_step_projection(rhs: np.ndarray, u2: np.ndarray, mesh) -> np.ndarray:
    """A sheared stage's velocity projection in the two steps that
    ``spectral.leray_coeffs`` with target k1 u2 folds into one: Leray's
    projection of rhs, then the tilting frame's pressure response
    grad lap^-1 dx u2, its inverse Laplacian a division by -|k|^2 that is 0
    at k = 0.  mesh holds the wavevectors of rhs; a new array."""
    out = leray_coeffs(rhs.copy(), mesh)
    k2 = _mesh_k2(mesh)
    pos = k2 > 0.0
    base = np.where(pos, (1j * mesh[0]) * u2 / np.where(pos, -k2, 1.0), 0.0)  # lap^-1 dx u2
    return out + np.stack([1j * m * base for m in mesh])


def _norm_weights(grid: GridSpec, mesh) -> tuple[np.ndarray, np.ndarray]:
    """|k|^2 and the pressure weight k1^2/|k|^2 (zero at k = 0) on the grid."""
    k2 = _mesh_k2(mesh)
    return k2, over_k2(np.broadcast_to(np.asarray(mesh[0]) ** 2, grid.shape), k2)


def _norm_pieces(coeffs: np.ndarray, grid: GridSpec, weights) -> tuple[float, float, float]:
    """(|f|^2, |grad f|^2, |grad lap^-1 dx f|^2) integrals from the spectrum;
    weights are the grid's ``_norm_weights``."""
    e = np.abs(coeffs) ** 2
    if coeffs.ndim > grid.dim:
        e = np.sum(e, axis=tuple(range(coeffs.ndim - grid.dim)))
    k2, pres = weights
    vol = grid.volume
    return (float(vol * np.sum(e)), float(vol * np.sum(k2 * e)),
            float(vol * np.sum(pres * e)))


def _h2_norm(coeffs: np.ndarray, grid: GridSpec) -> float:
    """H^2 norm, Bessel weights (1 + |k|^2)^2, summed over the whole spectrum."""
    e = (1.0 + full_k_squared(grid)) ** 2 * np.abs(coeffs) ** 2
    return float(np.sqrt(grid.volume * np.sum(e)))


def _observe_field(ledger, name: str, weight: float, t: float,
                   coeffs: np.ndarray, grid: GridSpec, weights):
    ledger.track(name, weight).observe(t, *_norm_pieces(coeffs, grid, weights))


def full_spectrum_ledger(ledger, state, params, tracker):
    """``diagnostics.ledger_update`` on whole spectra, into the same
    ``EnergyLedger``: each norm is summed over the full grid from a full
    complex spectrum of its field, max|n| is read from the collocation values
    (``linf_norm``), the Y0 tracks observe the pressure piece too, and the
    bad part is formed twice."""
    t = state.t
    grid = params.grid
    n = state.n
    mesh = full_frame_k_mesh(params, state.frame.drift)

    ledger.track("n_linf").observe(t, linf_norm(n))
    weights = _norm_weights(grid, mesh)

    # (i k1)^2 is exactly zero on the k1 = 0 plane: this is the fluctuation alone
    dxx = (1j * mesh[0]) ** 2
    _observe_field(ledger, "dxx_n_neq", ledger.wb, t, dxx * n.coeffs, grid, weights)

    if state.u is None:
        return
    u = state.u
    cross = grid.cross_section()
    cmesh = full_k_mesh(cross)
    cweights = _norm_weights(cross, cmesh)

    # Y0 group: zero-mode velocities and their derivatives
    ck2 = full_k_squared(cross)
    for name, f0 in (("u2_0", zero_mode(u.component(1))), ("u3_0", zero_mode(u.component(2)))):
        _observe_field(ledger, name, 0.0, t, f0.coeffs, cross, cweights)
        grad = np.stack([1j * cmesh[a] * f0.coeffs for a in range(2)])
        _observe_field(ledger, "grad_" + name, 0.0, t, grad, cross, cweights)
        lap = -ck2 * f0.coeffs
        if name == "u2_0":
            _observe_field(ledger, "lap_u2_0", 0.0, t, lap, cross, cweights)
        else:
            wmin = min(math.sqrt(params.A ** (-2.0 / 3.0) + t / params.A), 1.0)
            _observe_field(ledger, "wmin_lap_u3_0", 0.0, t, wmin * lap, cross, cweights)

    # X_a group: vorticity pair
    u_neq = fluctuation_only(u)
    w2 = compute_omega2(u_neq, k_mesh=mesh)
    k2 = weights[0]
    _observe_field(ledger, "lap_u2_neq", ledger.wa, t, -k2 * u_neq.coeffs[1], grid, weights)
    for axis, name in ((0, "dx_w2_neq"), (1, "dy_w2_neq"), (2, "dz_w2_neq")):
        _observe_field(ledger, name, ledger.wa, t, 1j * mesh[axis] * w2.coeffs, grid, weights)

    # X_b group: streamwise-second-derivative fluctuations
    _observe_field(ledger, "dxx_u2_neq", ledger.wb, t, dxx * u_neq.coeffs[1], grid, weights)
    _observe_field(ledger, "dxx_u3_neq", ledger.wb, t, dxx * u_neq.coeffs[2], grid, weights)
    _observe_field(ledger, "lap_u3_neq", ledger.wb, t, -k2 * u_neq.coeffs[2], grid, weights)

    # good derivatives (dz - kappa dy) u2, u3 and W = u2 + kappa u3 in the
    # quasi-linear frame; without a frame kappa is zero
    kappa = None
    if tracker is not None:
        try:
            kappa = kappa_values(tracker.bad_part(), params.A)
        except ContractViolation:
            pass
    good = 1j * mesh[2] * u_neq.coeffs[1:]
    w_coeffs = u_neq.coeffs[1]
    if kappa is not None:
        # kappa dy u2, kappa dy u3 and kappa u3 through one transform pair; the
        # stack is built on the k1 >= 0 half and scaled in place, because a
        # stack of full spectra would be the largest transient of a 3D sample
        half = halve(u_neq.coeffs, grid)
        dy = 1j * halve(mesh[1], grid)
        phys = irfft_x(np.stack([dy * half[1], dy * half[2], half[2]]), grid)
        phys *= kappa
        prods = rfft_x(phys, grid)
        del phys
        prods = fill(prods, grid)
        prods *= dealias_mask(grid)
        good -= prods[:2]
        w_coeffs = w_coeffs + prods[2]
        del prods

    dx1 = 1j * mesh[0]
    _observe_field(ledger, "dx_good_u2", ledger.wb, t, dx1 * good[0], grid, weights)
    _observe_field(ledger, "dx_good_u3", ledger.wb, t, dx1 * good[1], grid, weights)
    grad_w = np.stack([1j * mesh[a] * w_coeffs for a in range(3)])
    _observe_field(ledger, "dx_grad_W", ledger.wb, t, dx1 * grad_w, grid, weights)

    # E_{1,2}: bad-part Sobolev budgets from the co-evolved fields; the
    # tracker's dU2/dt is a k_y >= 0 half, filled here
    if tracker is not None:
        U2 = tracker.bad_part()
        lap_u2_bad = -ck2 * U2.coeffs
        ledger.track("lapU2_h2_sup").observe(t, _h2_norm(lap_u2_bad, cross))
        grad_lap = np.stack([1j * cmesh[a] * lap_u2_bad for a in range(2)])
        ledger.track("gradlapU2_h2_int").observe(t, _h2_norm(grad_lap, cross) ** 2)
        dtu2 = fill(tracker.du2_dt(params, state), cross)
        ledger.track("dtU2_h2_sup").observe(t, _h2_norm(dtu2, cross))


@dataclass
class PerFieldTracker:
    """The decomposition tracker with one advection, one Heun line and one
    ``hermitian`` per field, on whole cross-section spectra: G1, B1 and B2
    each take an inverse transform and a forward transform of their two
    fluxes per stage.  A stage is (n, u, ev) with n and u whole spectra:
    the zero modes are their k1 = 0 planes, each mirrored from its k_y >= 0
    half as the tracker reads it (a predictor's plane is Hermitian only to
    round-off), and the fluctuation products are the stage's (u1 u2, u1 u3)
    rows (``ev.uu_zero``) less the product of the zero modes' masked
    values."""

    G1: SpectralField
    B1: SpectralField
    B2: SpectralField

    @classmethod
    def start(cls, params, state) -> "PerFieldTracker":
        g1 = zero_mode(state.u.component(0)).copy()
        cross = g1.grid
        zero = lambda: SpectralField(cross, np.zeros(cross.shape, dtype=np.complex128))
        return cls(G1=g1, B1=zero(), B2=zero())

    def _stage_rhs(self, params, n, u, ev):
        cross = self.G1.grid
        A = params.A
        mask = dealias_mask(cross)
        mesh = full_k_mesh(cross)
        n0, u0 = (fill(halve(f, cross), cross) for f in (n[0], u[:, 0]))
        u_vals = irfft_x(halve(u0 * mask, cross), cross)
        u2v, u3v = u_vals[1], u_vals[2]

        def advect(Xc):
            xv = irfft_x(halve(Xc * mask, cross), cross)
            fy, fz = fill(rfft_x(np.stack([u2v * xv, u3v * xv]), cross), cross)
            return (1j * mesh[0] * fy + 1j * mesh[1] * fz) * mask

        q_neq = (fill(place(ev.uu_zero, cross), cross)
                 - fill(rfft_x(u_vals[1:] * u_vals[0], cross), cross))
        neq = (1j * mesh[0] * q_neq[0] + 1j * mesh[1] * q_neq[1]) * mask
        r_g1 = -(advect(self.G1.coeffs) + neq) / A
        r_b1 = -advect(self.B1.coeffs) / A + n0 / A
        r_b2 = -advect(self.B2.coeffs) / A - u0[1]
        return r_g1, r_b1, r_b2

    def advance(self, params, dt, stage1, stage2):
        cross = self.G1.grid
        heat = np.exp(-full_k_squared(cross) * dt / params.A)
        r1 = self._stage_rhs(params, *stage1)
        pred = PerFieldTracker(
            G1=SpectralField(cross, heat * (self.G1.coeffs + dt * r1[0])),
            B1=SpectralField(cross, heat * (self.B1.coeffs + dt * r1[1])),
            B2=SpectralField(cross, heat * (self.B2.coeffs + dt * r1[2])),
        )
        r2 = pred._stage_rhs(params, *stage2)
        self.G1 = SpectralField(cross, hermitian(heat * (self.G1.coeffs + 0.5 * dt * r1[0])
                                                 + 0.5 * dt * r2[0], cross))
        self.B1 = SpectralField(cross, hermitian(heat * (self.B1.coeffs + 0.5 * dt * r1[1])
                                                 + 0.5 * dt * r2[1], cross))
        self.B2 = SpectralField(cross, hermitian(heat * (self.B2.coeffs + 0.5 * dt * r1[2])
                                                 + 0.5 * dt * r2[2], cross))
