"""Time integration of the rescaled chemotaxis-fluid system.

State variables are the cell density n and (in 3D) the velocity perturbation
u around the Couette background, both stored as full spectra in a common
shear frame; a step works on their k1 >= 0 halves and completes each once
(``_real_field``), the way initial states are completed too.  The
stiff anisotropic linear part (Couette advection + diffusion) is integrated
exactly by the per-mode integrating factor of the shear frame; every
nonlinear and coupling term is advanced explicitly with Heun's method, and
the overall order in dt is two.  A passive scalar (no velocity, no
chemotaxis) has no explicit term: its step is the exact propagator alone,
applied once, so the scheme is exact in that limit.

Rescaled system (diffusivity 1/A, Couette advection y d/dx):
    dn/dt + y dn/dx = (1/A) [lap n - div(n u) - div(n grad c)]
    lap c = -(n - mean n)
    du/dt + y du/dx = (1/A) lap u + P[-u2 e1 + (n/A) e1 - (1/A) div(u x u)]
                      + grad lap^-1 dx u2
    div u = 0
where P is the Leray projection and the trailing gradient term is the
pressure response that keeps u divergence-free while the frame tilts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diagnostics
from .inequalities import free_energy, is_positive
from .modes import zero_mode
from .shear import REMAP_THRESHOLD, ShearFrame, frame_k_mesh, integrating_factor
from .spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    _mesh_k2,
    band_of,
    complete_half,
    divergence,
    fill,
    halve,
    hermitize,  # noqa: F401  (pinned by benchmarks/tests/test_bench_spans.py, ROADMAP item 2)
    irfft_band,
    k2_guard,
    l2_norm,
    leray_coeffs,
    over_k2,
    parseval_weights,
    place,
    rfft_band,
    rfft_x,
    spectral_energy,
    total_mass,
    values_of,
)

SERIES_COLUMNS = (
    "t", "mass", "n_min", "n_linf", "n_l2", "u_l2", "div_l2",
    "E11", "E12", "E21", "E22", "E3", "E4", "E51", "E52",
    "free_energy", "dropped_energy", "dt", "status",
)

STATUS_RUNNING = "running"
STATUS_SUPPRESSED = "suppressed"
STATUS_BLOWUP = "blowup"
STATUS_UNRESOLVED = "unresolved"

CFL = 0.4        # explicit speeds may cross this fraction of a cell per step
DT_MIN = 1e-12   # a step below this aborts the run as unresolved


@dataclass
class Params:
    """Physical and numerical parameters of one run."""

    grid: GridSpec
    amplitude: float = 1.0          # Couette amplitude A; diffusivity is 1/A
    enable_shear: bool = True
    enable_chemotaxis: bool = True
    enable_velocity: bool = True
    t_end: float = 10.0
    dt_max: float = 0.05
    fixed_dt: float | None = None
    monitor_positivity: bool = True
    monitor_tail: bool = True
    drop_tol: float = 1e-6
    track_decomposition: bool = False
    track_energies: bool = True
    output_every: float = 0.5

    def __post_init__(self):
        if self.grid.dim not in (2, 3):
            raise ValueError("runs need a 2D or 3D grid")
        if self.amplitude < 1.0:
            raise ValueError("shear amplitude A must be >= 1")
        if self.grid.dim == 2 and self.enable_velocity:
            raise ValueError("2D mode drops the fluid; enable_velocity needs dim = 3")
        if self.t_end <= 0 or self.dt_max <= 0 or self.output_every <= 0:
            raise ValueError("t_end, dt_max and output_every must be positive")

    @property
    def A(self) -> float:
        return self.amplitude


@dataclass
class State:
    """Simulation state in the current shear frame."""

    t: float
    n: SpectralField
    u: SpectralField | None
    frame: ShearFrame


@dataclass
class BlowupMonitor:
    """Distinguishes suppressed / blow-up / under-resolved outcomes.

    The growth trigger only counts while the spectral-tail monitor is
    quiescent.  A collapsing aggregate always de-resolves the grid
    eventually; when the tail fires after confirmed Linf growth the run is
    labelled blow-up with the last resolved time, otherwise unresolved.
    """

    linf_factor: float = 100.0
    tail_ratio_max: float = 1e-4
    growth_confirm: float = 2.0
    positivity_tol: float = 1e-8    # n_min below -tol * peak Linf: positivity lost
    enabled: bool = True
    status: str = STATUS_RUNNING
    linf0: float = 0.0
    linf_prev: float = 0.0
    linf_max: float = 0.0
    t_event: float | None = None
    reason: str = ""

    def start(self, t: float, linf: float):
        self.linf0 = self.linf_prev = self.linf_max = linf

    def _fire(self, status: str, t: float, reason: str):
        if self.status == STATUS_RUNNING:
            self.status = status
            self.t_event = t
            self.reason = reason

    def abort(self, t: float, reason: str):
        self._fire(STATUS_UNRESOLVED, t, reason)

    def observe(self, t: float, t_prev: float, linf: float, n_min: float,
                tail_ratio: float, pos_floor: float):
        if self.status != STATUS_RUNNING:
            return
        if not math.isfinite(linf) or not math.isfinite(n_min):
            self._fire(STATUS_UNRESOLVED, t, "non-finite field")
            return
        self.linf_max = max(self.linf_max, linf)
        growing = self.linf_max >= self.growth_confirm * self.linf0 and linf > self.linf_prev
        if n_min < -pos_floor:
            # de-resolution signature; after confirmed growth it indicates the
            # collapse out-ran the grid, otherwise the run is just unresolved
            if growing:
                self._fire(STATUS_BLOWUP, t_prev,
                           f"density lost positivity during growth "
                           f"({self.linf_max / self.linf0:.1f}x); last resolved t = {t_prev:.4g}")
            else:
                self._fire(STATUS_UNRESOLVED, t, f"negative density {n_min:.3e}")
            return
        tail_quiet = (not self.enabled) or tail_ratio <= self.tail_ratio_max
        if tail_quiet:
            if linf >= self.linf_factor * self.linf0:
                self._fire(STATUS_BLOWUP, t, f"Linf reached {linf / self.linf0:.1f}x initial")
        elif growing:
            self._fire(STATUS_BLOWUP, t_prev,
                       f"tail fired during growth ({self.linf_max / self.linf0:.1f}x); "
                       f"last resolved t = {t_prev:.4g}")
        else:
            self._fire(STATUS_UNRESOLVED, t_prev, "spectral tail fired without growth")
        self.linf_prev = linf

    def finish(self, t: float):
        if self.status == STATUS_RUNNING:
            self.status = STATUS_SUPPRESSED
            self.t_event = t


@dataclass
class StageEval:
    """One explicit evaluation, rhs_n and rhs_u as k1 >= 0 half spectra.

    The aux fields feed the decomposition tracker, spectra as k_y >= 0
    halves on the cross-section: raw zero modes n_0 and u_0 for the forcing
    terms (k1 = 0 plane views; the tracker adds them unmasked), physical
    values of the dealiased zero-mode velocities for the advection products,
    one (3, ny, nz) stack, and the fluctuation-product spectra
    (u_j,neq u_1,neq)_0 for j = 2, 3.
    """

    rhs_n: np.ndarray
    rhs_u: np.ndarray | None
    max_u: float
    max_chemo: float
    n_zero: np.ndarray | None = None
    u_zero: np.ndarray | None = None
    u_zero_vals: np.ndarray | None = None
    q_neq_hat: np.ndarray | None = None


def tendency(n_h: np.ndarray, u_h: np.ndarray | None, grid: GridSpec, A: float, k_mesh,
             chemotaxis: bool = True, tilt: bool = False,
             need_aux: bool = False) -> StageEval:
    """Explicit tendencies, the one assembly behind every caller:
    rhs_n = -(1/A) div(n u + n grad c) and rhs_u = P[-u2 e1 + (n/A) e1 -
    (1/A) div(u x u)], plus grad lap^-1 dx u2 (pressure response to the
    tilting frame) when tilt is set.  Products are dealiased, forcing terms
    raw; rhs_n conserves mass to round-off and rhs_u is divergence-free for
    the given wavevectors.  n_h, u_h and both tendencies are k1 >= 0 half
    spectra (``halve``); k_mesh is the grid's whole mesh.  The dealiased
    parts (c, grad c, the u x u and flux divergences) are formed on the
    2/3-rule band box (``band_of``) and its transform pair, and placed into
    the half where the raw terms join them.  A passive scalar (no velocity,
    no chemotaxis) has no tendency: ``step`` takes the propagator alone, and
    asking for one raises ContractViolation.
    """
    if u_h is None and not chemotaxis:
        raise ContractViolation("a passive scalar has no explicit tendency")
    mesh = [halve(m, grid) for m in k_mesh]
    k2 = _mesh_k2(mesh)
    box_mesh = [band_of(m, grid) for m in mesh]
    n_u = 0 if u_h is None else grid.dim
    n_box = band_of(n_h, grid)
    n_phys = irfft_band(n_box, grid)
    # u and grad c go through one inverse transform, u_i u_j (i <= j) and the
    # flux through one forward transform each; every stack holds at most six
    # fields: 7- and 9-field stacks at 48^3 raised the process's peak RSS by
    # 4-6 MB through the allocator's retained heap
    spec = np.empty((n_u + (grid.dim if chemotaxis else 0), *n_box.shape), dtype=np.complex128)
    if u_h is not None:
        spec[:n_u] = band_of(u_h, grid)
    if chemotaxis:
        c_box = over_k2(n_box, band_of(k2, grid))  # lap c = -(n - mean n)
        for a in range(grid.dim):
            np.multiply(1j * box_mesh[a], c_box, out=spec[n_u + a])
    phys = irfft_band(spec, grid)
    del spec
    u_phys, grad_c = phys[:n_u], phys[n_u:]
    max_u = float(np.max(np.abs(u_phys))) if n_u else 0.0
    max_chemo = float(np.max(np.abs(grad_c))) if chemotaxis else 0.0
    if n_u and chemotaxis:
        flux = u_phys + grad_c
        flux *= n_phys
    else:
        flux = (u_phys if n_u else grad_c) * n_phys
    # u_i u_j (i <= j, u is 3D) take no new stack: the cross products
    # overwrite grad c (a copy of u without chemotaxis), then each u_i u_i
    # overwrites its u_i
    prods = None if u_h is None else phys if chemotaxis else np.concatenate([phys, phys])
    del phys, n_phys, u_phys, grad_c
    flux_box = rfft_band(flux, grid)
    del flux
    aux = need_aux and u_h is not None
    rhs_u = None
    if u_h is not None:
        slot = {}
        for s, (i, j) in zip((3, 4, 5, 0, 1, 2), ((0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2))):
            np.multiply(prods[i], prods[j], out=prods[s])
            slot[i, j] = slot[j, i] = s
        # the tracker reads the whole k1 = 0 plane of u_j u_1
        uu_plane0 = np.empty((6, *grid.shape[1:]), dtype=np.complex128) if aux else None
        uu = rfft_band(prods, grid, uu_plane0)
        del prods
        rhs = place(np.stack([(-1.0 / A) * sum(1j * box_mesh[j] * uu[slot[j, i]]
                                               for j in range(grid.dim))
                              for i in range(grid.dim)]), grid)
        rhs[0] += n_h / A - u_h[1]
        guard = k2_guard(k2)
        rhs_u = leray_coeffs(rhs, mesh, guard)
        if tilt:
            base = over_k2((1j * mesh[0]) * u_h[1], guard, sign=-1.0)  # lap^-1 dx u2
            for a in range(grid.dim):
                rhs_u[a] += 1j * mesh[a] * base
    rhs_n = place((-1.0 / A) * sum(1j * box_mesh[a] * flux_box[a] for a in range(grid.dim)),
                  grid)

    fields = {}
    if aux:
        # the k1 = 0 plane of a half spectrum is complete: the zero modes are views
        cross = grid.cross_section()
        u_zero = halve(u_h[:, 0], cross)
        u_zero_vals = irfft_band(band_of(u_zero, cross), cross)
        q_neq_hat = (halve(uu_plane0[[slot[1, 0], slot[2, 0]]], cross)
                     - rfft_x(u_zero_vals[1:] * u_zero_vals[0], cross))
        fields = {"n_zero": halve(n_h[0], cross), "u_zero": u_zero,
                  "u_zero_vals": u_zero_vals, "q_neq_hat": q_neq_hat}
    return StageEval(rhs_n=rhs_n, rhs_u=rhs_u, max_u=max_u, max_chemo=max_chemo, **fields)


def _evaluate(n_h: np.ndarray, u_h: np.ndarray | None, params: Params,
              drift: float, need_aux: bool) -> StageEval:
    return tendency(n_h, u_h, params.grid, params.A, frame_k_mesh(params, drift),
                    params.enable_chemotaxis, tilt=params.enable_shear, need_aux=need_aux)


def choose_dt(params: Params, ev: StageEval | None, t_remaining: float) -> float:
    """CFL-limited step from the explicit velocities; shear is exempt.

    ev is None when the step has no explicit term (zero speeds).  A
    non-finite speed, or a step below DT_MIN, raises ContractViolation
    before any step is taken.
    """
    max_u, max_chemo = (0.0, 0.0) if ev is None else (ev.max_u, ev.max_chemo)
    bad = [name for name, s in (("velocity", max_u), ("chemotactic", max_chemo))
           if not math.isfinite(s)]
    if bad:
        raise ContractViolation(f"non-finite {' and '.join(bad)} speed")
    if params.fixed_dt is not None:
        dt = min(params.fixed_dt, t_remaining)
    else:
        dt = params.dt_max
        speed = max(max_u, max_chemo) / params.A
        if speed > 0:
            dt = min(dt, CFL * min(params.grid.spacing) / speed)
        dt = min(dt, t_remaining)
    if dt < DT_MIN:
        raise ContractViolation(f"dt underflow: {dt:.3e}")
    return dt


@dataclass
class StepInfo:
    dt: float
    dropped_n: float = 0.0
    dropped_u: float = 0.0


def _step_operator(params: Params, frame: ShearFrame, t: float, dt: float):
    """The exact shear + diffusion propagator over [t, t+dt], and the new frame.

    Returns ``apply(half) -> (half, dropped energy)`` for the k1 >= 0 half
    spectrum (``halve``) of every field of the step, leading component axes
    included.  Each mode is damped by the closed-form integrating factor of
    its drifting wavevector.  Once the drift reaches REMAP_THRESHOLD the
    coefficients are relabelled (Rogallo remap): index k2 moves to
    k2 - k1*shift with shift = rint(drift), within its k1 row, which keeps
    the physical wavevector, and modes moved beyond |k2| <= n2/2 - 1 are
    dropped.  The dropped energy is that of the whole spectrum, summed over
    the whole grid's lost modes in their row-major order.
    """
    grid, A = params.grid, params.A
    if params.enable_shear:
        factor = integrating_factor([halve(m, grid) for m in grid.k_mesh()], 0.0, dt,
                                    frame.drift, A)
        drift = frame.drift + dt
        shift = int(np.rint(drift)) if abs(drift) >= REMAP_THRESHOLD else 0
    else:
        factor = np.exp(-halve(grid.k_squared(), grid) * dt / A)
        drift, shift = frame.drift, 0
    if shift == 0:
        def apply(coeffs):
            return coeffs * factor, 0.0
        return apply, ShearFrame(frame.t_last_remap, drift)

    new_frame = ShearFrame(t_last_remap=t + dt, drift=drift - shift)
    i1, i2, dst, lost = _remap_gather(grid, shift)

    def apply(coeffs):
        scaled = coeffs * factor
        lead = (slice(None),) * (scaled.ndim - grid.dim)
        out = np.zeros_like(scaled)
        out[lead + (i1, dst)] = scaled[lead + (i1, i2)]
        dropped = float(np.sum(fill(np.abs(scaled) ** 2, grid)[lead + lost]))
        return out, dropped * grid.volume
    return apply, new_frame


@lru_cache(maxsize=32)
def _remap_gather(grid: GridSpec, shift: int) -> tuple:
    """The remap by shift as a gather, built once per (grid, shift) and
    read-only: half-spectrum (i1, i2) -> (i1, dst), dst = k2_new % n2 with
    k2_new = k2 - k1*shift, and ``lost``, the whole grid's modes moved
    beyond |k2_new| <= n2/2 - 1, in row-major order."""
    n2 = grid.shape[1]
    k2_new = (grid.wavenumbers(1).astype(int)[None, :]
              - grid.wavenumbers(0).astype(int)[:, None] * shift)
    keep = np.abs(k2_new) <= n2 // 2 - 1  # the lone -n2/2 row stays empty: Hermitian band
    i1, i2 = np.nonzero(keep[: grid.shape[0] // 2 + 1])
    gather = (i1, i2, k2_new[i1, i2] % n2, np.nonzero(~keep))
    for arr in (*gather[:3], *gather[3]):
        arr.flags.writeable = False
    return gather


def _real_field(half: np.ndarray, grid: GridSpec, mesh=None) -> SpectralField:
    """The real field of a k1 >= 0 half spectrum, filled once: the half is
    completed in place (``complete_half``) and a velocity then Leray-projected
    on the half mesh, which keeps the completion.  Step outputs and initial
    states both end here."""
    complete_half(half, grid)
    if mesh is not None:
        half = leray_coeffs(half, mesh)
    return SpectralField(grid, fill(half, grid))


def step(state: State, params: Params, t_stop: float | None = None,
         tracker: "diagnostics.DecompositionTracker | None" = None) -> tuple[State, StepInfo]:
    """Advance one Heun step composed with the exact shear propagator.

    Runs on the k1 >= 0 halves of n and u and fills each output once
    (``_real_field``); without t_stop the step is not clipped.
    A passive scalar has a zero tendency, so its step is the propagator
    alone, applied once and not symmetrized: the propagator keeps a
    Hermitian spectrum Hermitian bit for bit (its factor is even in k, its
    remap gather mirror symmetric, and the lone -n/2 rows stay empty).
    """
    grid = params.grid
    t_remaining = (t_stop - state.t) if t_stop is not None else math.inf
    passive = state.u is None and not params.enable_chemotaxis
    n_h = halve(state.n.coeffs, grid)
    u_h = None if state.u is None else halve(state.u.coeffs, grid)
    ev1 = None if passive else _evaluate(n_h, u_h, params, state.frame.drift, tracker is not None)
    dt = choose_dt(params, ev1, t_remaining)
    apply_op, new_frame = _step_operator(params, state.frame, state.t, dt)
    if passive:
        n_new, dropped_n = apply_op(n_h)
        return (State(t=state.t + dt, n=SpectralField(grid, fill(n_new, grid)), u=None,
                      frame=new_frame), StepInfo(dt=dt, dropped_n=dropped_n))

    n_pred, _ = apply_op(n_h + dt * ev1.rhs_n)
    u_pred = None if u_h is None else apply_op(u_h + dt * ev1.rhs_u)[0]
    ev2 = _evaluate(n_pred, u_pred, params, new_frame.drift, tracker is not None)
    if tracker is not None and u_h is not None:
        tracker.advance(params, dt, ev1, ev2)

    n_new, dropped_n = apply_op(n_h + 0.5 * dt * ev1.rhs_n)
    n_new += 0.5 * dt * ev2.rhs_n
    u_field, dropped_u = None, 0.0
    if u_h is not None:
        u_new, dropped_u = apply_op(u_h + 0.5 * dt * ev1.rhs_u)
        u_new += 0.5 * dt * ev2.rhs_u
        mesh = [halve(m, grid) for m in frame_k_mesh(params, new_frame.drift)]
        u_field = _real_field(u_new, grid, mesh)

    new_state = State(t=state.t + dt, n=_real_field(n_new, grid), u=u_field, frame=new_frame)
    return new_state, StepInfo(dt=dt, dropped_n=dropped_n, dropped_u=dropped_u)


def tail_ratio(n: SpectralField, params: Params, drift: float) -> float:
    """Fraction of fluctuation energy at |k_eff| in the top third of the band,
    summed over the k1 >= 0 half with its Parseval weights."""
    grid = params.grid
    k2 = _mesh_k2([halve(m, grid) for m in frame_k_mesh(params, drift)])
    kcut = min(grid.dealias_cutoff(a) for a in range(grid.dim))
    e = parseval_weights(grid) * np.abs(halve(n.coeffs, grid)) ** 2
    e[(0,) * grid.dim] = 0.0
    total = float(np.sum(e))
    if total == 0.0:
        return 0.0
    return float(np.sum(e[k2 >= (2.0 * kcut / 3.0) ** 2]) / total)


@dataclass
class RunResult:
    status: str
    rows: list
    final_state: State
    params: Params
    monitor: BlowupMonitor
    ledger: "diagnostics.EnergyLedger | None" = None
    tracker: "diagnostics.DecompositionTracker | None" = None
    dropped_energy: float = 0.0
    dropped_u: float = 0.0          # velocity energy dropped at remaps (absolute)


def _row(state: State, params: Params, dt: float, status: str,
         dropped_frac: float, ledger, n_vals: np.ndarray) -> dict:
    """One series row; n_vals are the collocation values of state.n."""
    n, u = state.n, state.u
    row = {
        "t": state.t,
        "mass": total_mass(n),
        "n_min": float(np.min(n_vals)),
        "n_linf": float(np.max(np.abs(n_vals))),
        "n_l2": l2_norm(n),
        "u_l2": l2_norm(u) if u is not None else 0.0,
        "div_l2": (l2_norm(divergence(u, k_mesh=frame_k_mesh(params, state.frame.drift)))
                   if u is not None else 0.0),
        "dropped_energy": dropped_frac,
        "dt": dt,
        "status": status,
    }
    energies = diagnostics.energy_report(ledger) if ledger is not None else {}
    for key in ("E11", "E12", "E21", "E22", "E3", "E4", "E51", "E52"):
        row[key] = energies.get(key, 0.0)
    n0 = zero_mode(n) if params.grid.dim == 3 else n
    n0_vals = values_of(n0) if params.grid.dim == 3 else n_vals
    row["free_energy"] = free_energy(n0, n0_vals) if is_positive(n0_vals) else float("nan")
    return row


def _non_finite(state: State) -> str:
    """Why the state cannot be advanced or sampled; empty when it can."""
    bad = [name for name, f in (("density", state.n), ("velocity", state.u))
           if f is not None and not np.all(np.isfinite(f.coeffs.view(float)))]
    return f"non-finite {' and '.join(bad)} coefficients" if bad else ""


def run(params: Params, init: State, on_sample=None) -> RunResult:
    """Integrate to t_end or until the blow-up monitor fires.

    on_sample, when given, is called with (state, row) at every emitted
    sample; the harness uses it for checkpoints.  A non-finite initial
    state, and a ContractViolation or FloatingPointError (numpy's error
    state set to raise) in a step or a sample, end the run unresolved with
    the reason, never with a traceback.
    """
    state = init
    monitor = BlowupMonitor(enabled=params.monitor_tail)
    reason = _non_finite(state)
    if reason:
        monitor.abort(state.t, reason)
        return RunResult(status=monitor.status, rows=[], final_state=state, params=params,
                         monitor=monitor)
    mass0 = total_mass(state.n)
    fluct0 = spectral_energy(state.n) - state.n.grid.volume * (mass0 / state.n.grid.volume) ** 2
    fluct0 = max(fluct0, 1e-300)

    ledger = None
    if params.track_energies:
        ledger = diagnostics.EnergyLedger(A=params.A)
    tracker = None
    if params.track_decomposition and state.u is not None:
        tracker = diagnostics.DecompositionTracker.start(params, state)

    dropped_total = 0.0
    dropped_u = 0.0
    rows: list[dict] = []
    t_prev_sample = state.t
    last_dt = 0.0

    def emit(dt, n_vals):
        if ledger is not None:
            diagnostics.ledger_update(ledger, state, params, tracker, n_vals)
        row = _row(state, params, dt, monitor.status, dropped_total / fluct0, ledger, n_vals)
        rows.append(row)
        if on_sample is not None:
            on_sample(state, row)

    try:
        n_vals = values_of(state.n)
        monitor.start(state.t, float(np.max(np.abs(n_vals))))
        emit(0.0, n_vals)
    except (ContractViolation, FloatingPointError) as err:
        monitor.abort(state.t, str(err))
    next_sample = state.t + params.output_every
    eps = 1e-9 * params.output_every

    while monitor.status == STATUS_RUNNING and state.t < params.t_end - eps:
        target = min(next_sample, params.t_end)
        try:
            state, info = step(state, params, t_stop=target, tracker=tracker)
        except (ContractViolation, FloatingPointError) as err:
            monitor.abort(state.t, str(err))
            break
        last_dt = info.dt
        dropped_total += info.dropped_n
        dropped_u += info.dropped_u
        reason = _non_finite(state)
        if reason:
            monitor.abort(state.t, reason)
            break
        if dropped_total / fluct0 > params.drop_tol:
            monitor.abort(state.t, f"dropped energy fraction {dropped_total / fluct0:.2e}")
            break
        if state.t >= target - eps:
            try:
                n_vals = values_of(state.n)
                if params.enable_chemotaxis:
                    pos_floor = math.inf if not params.monitor_positivity else \
                        monitor.positivity_tol * max(monitor.linf_max, monitor.linf0)
                    monitor.observe(
                        t=state.t, t_prev=t_prev_sample,
                        linf=float(np.max(np.abs(n_vals))), n_min=float(np.min(n_vals)),
                        tail_ratio=tail_ratio(state.n, params, state.frame.drift),
                        pos_floor=pos_floor,
                    )
                # relative mass drift is a hard invariant on every accepted run
                if abs(total_mass(state.n) - mass0) > 1e-8 * max(abs(mass0), 1.0):
                    monitor.abort(state.t, "mass conservation violated")
                t_prev_sample = state.t
                emit(last_dt, n_vals)
            except (ContractViolation, FloatingPointError) as err:
                monitor.abort(state.t, str(err))
                break
            next_sample += params.output_every

    if monitor.status == STATUS_RUNNING and state.t >= params.t_end - eps:
        monitor.finish(state.t)
    if rows:
        rows[-1]["status"] = monitor.status
    return RunResult(status=monitor.status, rows=rows, final_state=state, params=params,
                     monitor=monitor, ledger=ledger, tracker=tracker,
                     dropped_energy=dropped_total / fluct0, dropped_u=dropped_u)

