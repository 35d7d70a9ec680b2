"""Time integration of the rescaled chemotaxis-fluid system.

State variables are the cell density n and (in 3D) the velocity perturbation
u around the Couette background, both stored as k1 >= 0 half spectra in a
common shear frame; a step works on the halves and completes each output
in place (``spectral.real_field``).  The stiff anisotropic linear part
(Couette advection + diffusion) is integrated exactly by the shear frame's
linear step (``shear.linear_step``); every nonlinear and coupling term is
advanced explicitly with Heun's method, whose ``tendency`` takes the
frame's cached operators (``shear.frame``), and the overall order in dt is
two.  A passive scalar (no velocity, no chemotaxis) has no explicit term:
its step is the exact propagator alone, applied once, exact in that limit.

Rescaled system (diffusivity 1/A, Couette advection y d/dx):
    dn/dt + y dn/dx = (1/A) [lap n - div(n u) - div(n grad c)]
    lap c = -(n - mean n)
    du/dt + y du/dx = (1/A) lap u - u2 e1 + (n/A) e1 - (1/A) div(u x u) - grad p
    div u = 0
The frame tilts each mode's k = (k1, k2 - k1 drift, k3), so grad p is one
projection per stage onto k.rhs_u = k1 u2 (``spectral.leray_coeffs``).
Heun's corrector u_new = IF (u + h rhs1) + h rhs2 (IF the propagator's
factor, h = dt/2) then has k_new.u_new = IF k1 u2 (2h - dt) = 0 where
k.u = 0, and a remap keeps each mode's wavevector: u stays solenoidal and a
step's output is not projected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, shear, spectral
from .config import RunConfig
from .inequalities import free_energy, is_positive
from .modes import zero_mode
from .shear import ShearFrame, linear_step
from .spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    _mesh_k2,
    _put,
    _take,
    band_shape,
    divergence,
    hermitize,  # noqa: F401  (pinned by benchmarks/tests/test_bench_spans.py, ROADMAP item 2)
    irfft_band,
    l2_norm,
    leray_coeffs,
    over_k2,
    over_slabs,
    parseval_sum,
    real_field,
    rfft_band,
    rfft_bands,
    slab,
    spectral_energy,
    total_mass,
    values_range,
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
LINF_FACTOR = 100.0     # Linf at this multiple of its initial value is blow-up
GROWTH_CONFIRM = 2.0    # a peak Linf at this multiple of the initial confirms growth
TAIL_RATIO_MAX = 1e-4   # the spectral tail fires above this share of fluctuation energy
POSITIVITY_TOL = 1e-8   # n_min below -tol * peak Linf: positivity lost


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

    tail: bool = True
    positivity: bool = True
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

    def observe(self, t: float, t_prev: float, linf: float, n_min: float, tail_ratio: float):
        if self.status != STATUS_RUNNING:
            return
        if not math.isfinite(linf) or not math.isfinite(n_min):
            self._fire(STATUS_UNRESOLVED, t, "non-finite field")
            return
        # the floor scales with the peak Linf before this sample
        pos_floor = POSITIVITY_TOL * self.linf_max if self.positivity else math.inf
        self.linf_max = max(self.linf_max, linf)
        growing = self.linf_max >= GROWTH_CONFIRM * self.linf0 and linf > self.linf_prev
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
        tail_quiet = (not self.tail) or tail_ratio <= TAIL_RATIO_MAX
        if tail_quiet:
            if linf >= LINF_FACTOR * self.linf0:
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

    With a velocity, uu_zero holds the (u1 u2, u1 u3) products' k1 = 0 rows
    on the cross-section's band box (``band_of``), a copy: the one input of
    the decomposition tracker that the stage's n and u halves do not give.
    """

    rhs_n: np.ndarray
    rhs_u: np.ndarray | None
    max_u: float
    max_chemo: float
    uu_zero: np.ndarray | None = None


def _put_divergence(out: np.ndarray, terms, ik, A: float, grid: GridSpec):
    """-(1/A) sum_j i k_j terms[j] on the band box, placed into the half out;
    ik holds i k_j on the box."""
    _put((-1.0 / A) * sum(ik[j] * terms[j] for j in range(grid.dim)), out, grid)


# u_i u_j (i <= j) in their stack order; the cross products (slots 3-5) are
# formed first, for they overwrite grad c, then the squares overwrite u
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SLOT = {(i, j): t for t, (a, b) in enumerate(_PAIRS) for i, j in ((a, b), (b, a))}


def tendency(n_h: np.ndarray, u_h: np.ndarray | None, grid: GridSpec, A: float,
             frame: shear.Frame, chemotaxis: bool = True, tilt: bool = False) -> StageEval:
    """Explicit tendencies, the one assembly behind every caller:
    rhs_n = -(1/A) div(n u + n grad c) and rhs_u the projection of r =
    -u2 e1 + (n/A) e1 - (1/A) div(u x u) onto k.rhs_u = k1 u2 when tilt is
    set (the tilting frame's pressure response), onto k.rhs_u = 0 otherwise
    (``leray_coeffs``).  Products are dealiased, forcing terms raw; rhs_n
    conserves mass to round-off.  n_h, u_h and both tendencies are k1 >= 0 half
    spectra, and frame holds the half mesh and, on the 2/3-rule band box, i k
    and the inverse Laplacian's guard (``shear.frame``).  The dealiased parts
    (c, grad c, the u x u and flux divergences) are formed on that box and
    its transform pair, and placed into the half where the raw terms join
    them.  On 3D grids the products run on x slabs, the box divergences one
    task per output field and the raw terms on k1 slabs, all through
    spectral's work queue.  A passive scalar (no velocity, no chemotaxis)
    has no tendency: ``step`` takes the propagator alone, and asking for one
    raises ContractViolation.
    """
    if u_h is None and not chemotaxis:
        raise ContractViolation("a passive scalar has no explicit tendency")
    n_u = 0 if u_h is None else grid.dim
    # n, u and grad c go through one inverse transform, the flux and u_i u_j
    # (i <= j) through one forward transform
    spec = np.empty((1 + n_u + (grid.dim if chemotaxis else 0), *band_shape(grid)),
                    dtype=np.complex128)
    _take(n_h, spec[0], grid)
    if u_h is not None:
        _take(u_h, spec[1:1 + n_u], grid)
    if chemotaxis:
        c_box = over_k2(spec[0], frame.box_guard)  # lap c = -(n - mean n)
        for a in range(grid.dim):
            np.multiply(frame.ik[a], c_box, out=spec[1 + n_u + a])
    phys = irfft_band(spec, grid)
    del spec
    n_phys, u_phys, grad_c = phys[0], phys[1:1 + n_u], phys[1 + n_u:]
    flux = np.empty((grid.dim, *grid.shape))
    # with chemotaxis u_i u_j take no new stack: they overwrite u and grad c
    prods = None if u_h is None else phys[1:] if chemotaxis else np.empty((6, *grid.shape))
    maxima = []

    def products(s):  # on x planes s
        u, g, n = (slab(f, s, grid) for f in (u_phys, grad_c, n_phys))
        f = slab(flux, s, grid)
        maxima.append((max(u.max(), -u.min()) if n_u else 0.0,  # max|x|, no |x| temporary
                       max(g.max(), -g.min()) if chemotaxis else 0.0))
        if n_u and chemotaxis:
            np.add(u, g, out=f)
            f *= n
        else:
            np.multiply(u if n_u else g, n, out=f)
        if prods is not None:
            p = slab(prods, s, grid)
            for t in (3, 4, 5, 0, 1, 2):
                np.multiply(u[_PAIRS[t][0]], u[_PAIRS[t][1]], out=p[t])
    over_slabs(products, grid.shape[0], grid)
    max_u, max_chemo = (float(m) for m in np.max(np.array(maxima), axis=0))
    flux_box, uu = (rfft_band(flux, grid), None) if prods is None else \
        rfft_bands([flux, prods], grid)
    del phys, n_phys, u_phys, grad_c, flux, prods
    rhs_n = np.zeros(n_h.shape, dtype=np.complex128)
    rhs_u = None if u_h is None else np.zeros(u_h.shape, dtype=np.complex128)
    # the box divergences, one task per output field, then the raw terms and
    # the projection on k1 slabs of the half
    fluxes = [(rhs_n, [flux_box[a] for a in range(grid.dim)])]
    if u_h is not None:
        fluxes += [(rhs_u[i], [uu[_SLOT[j, i]] for j in range(grid.dim)])
                   for i in range(grid.dim)]
    spectral._drain([(_put_divergence, o, terms, frame.ik, A, grid) for o, terms in fluxes], grid)

    def raw(s):  # on k1 planes s
        m = [slab(c, s, grid) for c in frame.mesh]
        rhs, u2 = slab(rhs_u, s, grid), slab(u_h[1], s, grid)
        rhs[0] += slab(n_h, s, grid) / A - u2
        leray_coeffs(rhs, m, m[0] * u2 if tilt else None)  # k.rhs = k1 u2 on a tilting frame
    if u_h is not None:
        over_slabs(raw, n_h.shape[0], grid)

    # u1 u2 and u1 u3 (slots 3, 4) on the cross-section's band box: rows
    # k2 = 0..K2 of the k1 = 0 plane
    uu_zero = None if u_h is None else uu[3:5, 0, :grid.dealias_cutoff(1) + 1].copy()
    return StageEval(rhs_n=rhs_n, rhs_u=rhs_u, max_u=max_u, max_chemo=max_chemo,
                     uu_zero=uu_zero)


def _evaluate(n_h: np.ndarray, u_h: np.ndarray | None, params: RunConfig,
              drift: float) -> StageEval:
    return tendency(n_h, u_h, params.grid, params.A,
                    shear.frame(params.grid, drift, params.enable_shear),
                    params.enable_chemotaxis, tilt=params.enable_shear)


def choose_dt(params: RunConfig, ev: StageEval | None, t_remaining: float) -> float:
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


def _step_operator(params: RunConfig, frame: ShearFrame, t: float, dt: float):
    """The run's exact linear step over [t, t+dt] (``shear.linear_step``):
    (apply, new frame)."""
    return linear_step(params.grid, params.A, frame, t, dt, params.enable_shear)


def step(state: State, params: RunConfig, t_stop: float | None = None,
         tracker: "diagnostics.DecompositionTracker | None" = None) -> tuple[State, StepInfo]:
    """Advance one Heun step composed with the exact shear propagator.

    Runs on the k1 >= 0 halves of n and u and completes each output in
    place (``real_field``), the velocity solenoidal by construction and not
    projected; without t_stop the step is not clipped.  The remap's
    dropped energy is summed for the corrector alone.
    A passive scalar has a zero tendency, so its step is the propagator
    alone, applied once and not symmetrized: the propagator keeps a
    Hermitian spectrum Hermitian bit for bit (its factor is even in k, its
    remap gather mirror symmetric, and the lone -n/2 rows stay empty).
    """
    grid = params.grid
    t_remaining = (t_stop - state.t) if t_stop is not None else math.inf
    passive = state.u is None and not params.enable_chemotaxis
    n_h = state.n.half
    u_h = None if state.u is None else state.u.half
    ev1 = None if passive else _evaluate(n_h, u_h, params, state.frame.drift)
    dt = choose_dt(params, ev1, t_remaining)
    apply_op, new_frame = _step_operator(params, state.frame, state.t, dt)
    if passive:
        n_new, dropped_n = apply_op(n_h)
        return (State(t=state.t + dt, n=SpectralField.from_half(grid, n_new), u=None,
                      frame=new_frame), StepInfo(dt=dt, dropped_n=dropped_n))

    n_pred, _ = apply_op(n_h, ev1.rhs_n, dt, lost=False)
    u_pred = None if u_h is None else apply_op(u_h, ev1.rhs_u, dt, lost=False)[0]
    ev2 = _evaluate(n_pred, u_pred, params, new_frame.drift)
    if tracker is not None and u_h is not None:
        tracker.advance(params, dt, (n_h, u_h, ev1), (n_pred, u_pred, ev2))

    h = 0.5 * dt
    n_new, dropped_n = apply_op(n_h, ev1.rhs_n, h, ev2.rhs_n)
    u_field, dropped_u = None, 0.0
    if u_h is not None:
        u_new, dropped_u = apply_op(u_h, ev1.rhs_u, h, ev2.rhs_u)
        u_field = real_field(u_new, grid)

    new_state = State(t=state.t + dt, n=real_field(n_new, grid), u=u_field, frame=new_frame)
    return new_state, StepInfo(dt=dt, dropped_n=dropped_n, dropped_u=dropped_u)


def tail_ratio(n: SpectralField, params: RunConfig, drift: float) -> float:
    """Fraction of fluctuation energy at |k_eff| in the top third of the band."""
    grid = params.grid
    # unsheared, the frame's mesh is the lattice, whose |k|^2 is cached
    k2 = _mesh_k2(shear.frame(grid, drift, params.enable_shear).mesh) if params.enable_shear \
        else grid.k_squared()
    kcut = min(grid.dealias_cutoff(a) for a in range(grid.dim))
    # both masked sums from one pass of squares
    total, top = parseval_sum(n.half, grid, 1.0,
                              np.stack([k2 > 0.0, k2 >= (2.0 * kcut / 3.0) ** 2]))
    return top / total if total > 0.0 else 0.0


@dataclass
class RunResult:
    """A run's loop state, which ``run`` builds once, updates and returns;
    final_state is the current state while the run steps."""

    params: RunConfig
    final_state: State
    monitor: BlowupMonitor
    rows: list = field(default_factory=list)
    ledger: "diagnostics.EnergyLedger | None" = None
    tracker: "diagnostics.DecompositionTracker | None" = None
    mass0: float = 0.0
    fluct0: float = 1.0      # the initial fluctuation energy, once start-up has measured it
    dropped_n: float = 0.0   # density energy dropped at remaps (absolute)
    dropped_u: float = 0.0   # velocity energy dropped at remaps (absolute)
    dt: float = 0.0          # the step that reached the last row
    t_prev_sample: float = 0.0
    next_sample: float = 0.0

    @property
    def status(self) -> str:
        return self.monitor.status

    @property
    def dropped_energy(self) -> float:  # a fraction of fluct0
        return self.dropped_n / self.fluct0


def _row(res: RunResult, n_vals: np.ndarray, low: float, high: float) -> dict:
    """The row of res's current state: its density's values n_vals, from low to high."""
    state, params, ledger = res.final_state, res.params, res.ledger
    n, u, grid = state.n, state.u, params.grid
    div_l2 = 0.0
    if u is not None:  # on the frame's wavevectors
        mesh = shear.frame(grid, state.frame.drift, params.enable_shear).mesh
        div_l2 = math.sqrt(parseval_sum(divergence(u.half, mesh), grid))
    row = {
        "t": state.t,
        "mass": total_mass(n),
        "n_min": low,
        "n_linf": max(high, -low),
        "n_l2": l2_norm(n),
        "u_l2": l2_norm(u) if u is not None else 0.0,
        "div_l2": div_l2,
        "dropped_energy": res.dropped_energy,
        "dt": res.dt,
        "status": res.status,
    }
    energies = diagnostics.energy_report(ledger) if ledger is not None else {}
    for key in ("E11", "E12", "E21", "E22", "E3", "E4", "E51", "E52"):
        row[key] = energies.get(key, 0.0)
    n0, n0_vals, ext = n, n_vals, (low, high)
    if grid.dim == 3:
        n0 = zero_mode(n)
        n0_vals, *ext = values_range(n0)
    row["free_energy"] = free_energy(n0, n0_vals, ext) if is_positive(*ext) else float("nan")
    return row


def _require_finite(state: State):
    """Raise ContractViolation naming the non-finite fields of state."""
    bad_n = not np.isfinite(state.n.half.view(float)).all()
    bad_u = state.u is not None and not np.isfinite(state.u.half.view(float)).all()
    if bad_n or bad_u:
        names = " and ".join(name for name, bad in (("density", bad_n), ("velocity", bad_u)) if bad)
        raise ContractViolation(f"non-finite {names} coefficients")


def run(params: RunConfig, init: State, on_sample=None) -> RunResult:
    """Integrate to t_end or until the blow-up monitor fires.

    The run's state is one RunResult, built here and returned.  on_sample,
    when given, is called with it at every emitted sample, once the row is
    appended; the harness uses it for checkpoints.  The run has one error
    contract: any ContractViolation or FloatingPointError (numpy's error
    state set to raise) from start-up, a step or a sample ends the run
    unresolved, with its reason, at the state's own time, never with a
    traceback.  A non-finite state, at the start or after a step, and a
    band-exit fraction above drop_tol are such violations.  The run drops
    its reference to init once it has stepped.  The spectral tail is
    measured only when the monitor reads it (``monitor_tail``).
    """
    res = RunResult(params=params, final_state=init, monitor=BlowupMonitor(
        tail=params.monitor_tail, positivity=params.monitor_positivity))
    state = init
    del init
    eps = 1e-9 * min(params.output_every, params.t_end)

    def emit(n_vals, low, high):
        if res.ledger is not None:
            diagnostics.ledger_update(res.ledger, res.final_state, params, res.tracker,
                                      max(high, -low))
        res.rows.append(_row(res, n_vals, low, high))
        if on_sample is not None:
            on_sample(res)

    try:
        _require_finite(state)
        res.mass0 = total_mass(state.n)
        volume = state.n.grid.volume
        res.fluct0 = max(spectral_energy(state.n) - volume * (res.mass0 / volume) ** 2, 1e-300)
        if params.track_energies:
            res.ledger = diagnostics.EnergyLedger(A=params.A)
        if params.track_decomposition and state.u is not None:
            res.tracker = diagnostics.DecompositionTracker.start(params, state)
        n_vals, low, high = values_range(state.n)  # max|n| = max(high, -low)
        res.monitor.start(state.t, max(high, -low))
        res.t_prev_sample, res.next_sample = state.t, state.t + params.output_every
        emit(n_vals, low, high)

        while res.status == STATUS_RUNNING and state.t < params.t_end - eps:
            target = min(res.next_sample, params.t_end)
            state, info = step(state, params, t_stop=target, tracker=res.tracker)
            res.final_state, res.dt = state, info.dt
            res.dropped_n += info.dropped_n
            res.dropped_u += info.dropped_u
            _require_finite(state)
            if res.dropped_energy > params.drop_tol:
                raise ContractViolation(f"dropped energy fraction {res.dropped_energy:.2e}")
            if state.t < target - eps:
                continue
            n_vals, low, high = values_range(state.n)
            if params.enable_chemotaxis:
                res.monitor.observe(
                    t=state.t, t_prev=res.t_prev_sample, linf=max(high, -low), n_min=low,
                    tail_ratio=(tail_ratio(state.n, params, state.frame.drift)
                                if res.monitor.tail else 0.0),
                )
            # relative mass drift is a hard invariant on every accepted run
            if abs(total_mass(state.n) - res.mass0) > 1e-8 * max(abs(res.mass0), 1.0):
                res.monitor.abort(state.t, "mass conservation violated")
            res.t_prev_sample = state.t
            res.next_sample += params.output_every
            emit(n_vals, low, high)
    except (ContractViolation, FloatingPointError) as err:
        res.monitor.abort(res.final_state.t, str(err))

    if res.status == STATUS_RUNNING and res.final_state.t >= params.t_end - eps:
        res.monitor.finish(res.final_state.t)
    if res.rows:
        res.rows[-1]["status"] = res.status
    return res
