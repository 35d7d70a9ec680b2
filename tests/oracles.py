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
``read_series`` reads a run's ``series.csv`` back.  ``compute_omega2`` is
the wall-normal vorticity of a full spectrum, which ``residual_omega2``
uses.  ``full_spectrum_ledger`` is the energy ledger summed over whole
spectra, the reference of ``diagnostics.ledger_update``, which sums
Parseval-weighted k1 >= 0 halves.  ``masked_tendency`` is the tendency
assembled on whole k1 >= 0 halves with every dealiased product multiplied by
the 2/3-rule mask, the bit-for-bit reference (up to the sign of exact zeros)
of ``solver.tendency``, which transforms and assembles the band box alone.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shearks import solver
from shearks.diagnostics import kappa_values
from shearks.modes import fluctuation_only, zero_mode
from shearks.seriesio import CheckpointError
from shearks.shear import REMAP_THRESHOLD, ShearFrame, effective_k_mesh, frame_k_mesh, \
    integrating_factor
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    _mesh_k2,
    fill,
    forward_transform,
    halve,
    hermitize,
    irfft_x,
    l2_norm,
    leray_coeffs,
    leray_project,
    over_k2,
    rfft_x,
    sobolev_norm,
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


def compute_omega2(u: SpectralField, k_mesh=None) -> SpectralField:
    """Wall-normal vorticity dz(u1) - dx(u3)."""
    if u.grid.dim != 3 or u.components != 3:
        raise ContractViolation("omega2 needs a 3-component 3D velocity")
    mesh = u.grid.k_mesh() if k_mesh is None else list(k_mesh)
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


def masked_tendency(n_h: np.ndarray, u_h: np.ndarray | None, grid: GridSpec, A: float, k_mesh,
                    chemotaxis: bool = True, tilt: bool = False,
                    need_aux: bool = False) -> solver.StageEval:
    """``solver.tendency`` as the full masked assembly: every dealiased
    product is transformed over the whole k1 >= 0 half and multiplied by the
    2/3-rule mask, where the solver transforms the band box alone.

    Explicit tendencies:
    rhs_n = -(1/A) div(n u + n grad c) and rhs_u = P[-u2 e1 + (n/A) e1 -
    (1/A) div(u x u)], plus grad lap^-1 dx u2 (pressure response to the
    tilting frame) when tilt is set.  Products are dealiased, forcing terms
    raw; rhs_n conserves mass to round-off and rhs_u is divergence-free for
    the given wavevectors.  n_h, u_h and both tendencies are k1 >= 0 half
    spectra (``halve``); k_mesh is the grid's whole mesh.  A passive scalar
    has no tendency and raises ContractViolation.
    """
    if u_h is None and not chemotaxis:
        raise ContractViolation("a passive scalar has no explicit tendency")
    mesh = [halve(m, grid) for m in k_mesh]
    k2 = _mesh_k2(mesh)
    dmask = halve(grid.dealias_mask(), grid)
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
        rhs_u = leray_coeffs(rhs, mesh)
        if tilt:
            base = over_k2((1j * mesh[0]) * u_h[1], k2, sign=-1.0)  # lap^-1 dx u2
            rhs_u += np.stack([1j * mesh[a] * base for a in range(grid.dim)])
    rhs_n = (-1.0 / A) * sum(1j * mesh[a] * flux_hat[a] for a in range(grid.dim)) * dmask

    aux = {}
    if need_aux and u_h is not None:
        # the k1 = 0 plane of a half spectrum is complete: the zero modes are views
        cross = grid.cross_section()
        u_zero = halve(u_h[:, 0], cross)
        u_zero_vals = irfft_x(u_zero * halve(cross.dealias_mask(), cross), cross)
        q_neq_hat = (halve(uu[[slot[1, 0], slot[2, 0]], 0], cross)
                     - rfft_x(u_zero_vals[1:] * u_zero_vals[0], cross))
        aux = {"n_zero": halve(n_h[0], cross), "u_zero": u_zero,
               "u_zero_vals": u_zero_vals, "q_neq_hat": q_neq_hat}
    return solver.StageEval(rhs_n=rhs_n, rhs_u=rhs_u, max_u=max_u, max_chemo=max_chemo, **aux)


def masked_evaluate(n_h, u_h, params, drift: float, need_aux: bool) -> solver.StageEval:
    """``solver._evaluate`` on ``masked_tendency``."""
    return masked_tendency(n_h, u_h, params.grid, params.A, frame_k_mesh(params, drift),
                           params.enable_chemotaxis, tilt=params.enable_shear,
                           need_aux=need_aux)


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


def _observe_field(ledger, name: str, weight: float, t: float,
                   coeffs: np.ndarray, grid: GridSpec, weights):
    ledger.track(name, weight).observe(t, *_norm_pieces(coeffs, grid, weights))


def full_spectrum_ledger(ledger, state, params, tracker, n_vals: np.ndarray):
    """``diagnostics.ledger_update`` on whole spectra, into the same
    ``EnergyLedger``: each norm is summed over the full grid from a full
    complex spectrum of its field, the Y0 tracks observe the pressure piece
    too, and the bad part is formed twice."""
    t = state.t
    grid = params.grid
    n = state.n
    mesh = frame_k_mesh(params, state.frame.drift)

    ledger.track("n_linf").observe(t, float(np.max(np.abs(n_vals))))
    weights = _norm_weights(grid, mesh)

    # (i k1)^2 is exactly zero on the k1 = 0 plane: this is the fluctuation alone
    dxx = (1j * mesh[0]) ** 2
    _observe_field(ledger, "dxx_n_neq", ledger.wb, t, dxx * n.coeffs, grid, weights)

    if state.u is None:
        return
    u = state.u
    cross = grid.cross_section()
    cmesh = cross.k_mesh()
    cweights = _norm_weights(cross, cmesh)

    # Y0 group: zero-mode velocities and their derivatives
    ck2 = cross.k_squared()
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
        prods *= grid.dealias_mask()
        good -= prods[:2]
        w_coeffs = w_coeffs + prods[2]
        del prods

    dx1 = 1j * mesh[0]
    _observe_field(ledger, "dx_good_u2", ledger.wb, t, dx1 * good[0], grid, weights)
    _observe_field(ledger, "dx_good_u3", ledger.wb, t, dx1 * good[1], grid, weights)
    grad_w = np.stack([1j * mesh[a] * w_coeffs for a in range(3)])
    _observe_field(ledger, "dx_grad_W", ledger.wb, t, dx1 * grad_w, grid, weights)

    # E_{1,2}: bad-part Sobolev budgets from the co-evolved fields
    if tracker is not None:
        U2 = tracker.bad_part()
        lap_u2_bad = SpectralField(cross, -ck2 * U2.coeffs)
        ledger.track("lapU2_h2_sup").observe(t, sobolev_norm(lap_u2_bad, 2))
        grad_lap = SpectralField(cross, np.stack([1j * cmesh[a] * lap_u2_bad.coeffs
                                                  for a in range(2)]))
        ledger.track("gradlapU2_h2_int").observe(t, sobolev_norm(grad_lap, 2) ** 2)
        dtu2 = tracker.du2_dt(params, state)
        ledger.track("dtU2_h2_sup").observe(t, sobolev_norm(dtu2, 2))


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
