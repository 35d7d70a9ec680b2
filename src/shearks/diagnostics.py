"""Everything the suppression analysis measures during a run.

Live diagnostics for the solver: the wall-normal vorticity and lap(u2),
weighted space-time norm accumulators and the energy functionals built from
them, the good/bad splitting of the streamwise zero-mode velocity via
co-evolved cross-section PDEs, and the quasi-linear frame quantities kappa,
rho1, rho2, W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modes import split_bar_tilde, zero_mode
from .shear import frame_k_mesh
from .spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    _mesh_k2,
    derivative,
    fill,
    halve,
    hermitize,
    irfft_x,
    rfft_x,
    sobolev_norm,
    values_of,
)


# ---------------------------------------------------------------------------
# vorticity diagnostics

def compute_omega2(u: SpectralField, k_mesh=None) -> SpectralField:
    """Wall-normal vorticity dz(u1) - dx(u3)."""
    if u.grid.dim != 3 or u.components != 3:
        raise ContractViolation("omega2 needs a 3-component 3D velocity")
    mesh = u.grid.k_mesh() if k_mesh is None else list(k_mesh)
    w = 1j * mesh[2] * u.coeffs[0] - 1j * mesh[0] * u.coeffs[2]
    return SpectralField(u.grid, w)


# ---------------------------------------------------------------------------
# quasi-linear frame quantities

@dataclass
class KappaRho:
    """Collocation values of the frame quantities."""

    kappa_values: np.ndarray
    dy_kappa: np.ndarray
    dz_kappa: np.ndarray
    vy_values: np.ndarray
    vz_values: np.ndarray
    rho1_values: np.ndarray
    rho2_values: np.ndarray


def _frame_slopes(U2: SpectralField, A: float) -> tuple[np.ndarray, np.ndarray]:
    """Values of dy(V), dz(V) for V = y + U2/A; aborts when min dy(V) < 1/2."""
    if U2.grid.dim != 2 or U2.components != 1:
        raise ContractViolation("U2 must be a scalar cross-section field")
    vy = 1.0 + values_of(derivative(U2, 0)) / A
    vz = values_of(derivative(U2, 1)) / A
    if float(np.min(vy)) < 0.5:
        raise ContractViolation("dy(V) dropped below 1/2; quasi-linear frame invalid")
    return vy, vz


def kappa_values(U2: SpectralField, A: float) -> np.ndarray:
    """Values of kappa = dz(V)/dy(V) alone, for the run's ledger."""
    vy, vz = _frame_slopes(U2, A)
    return vz / vy


def compute_kappa_rho(U2: SpectralField, A: float) -> KappaRho:
    """Quasi-linear frame V = y + U2/A: kappa = dz(V)/dy(V) and the
    coefficients rho1, rho2 splitting grad(kappa).grad into a grad(V) part
    and a good-derivative part.

    Aborts when min dy(V) < 1/2 (outside the quasi-linear regime).
    """
    vy, vz = _frame_slopes(U2, A)
    kv = vz / vy
    kappa = SpectralField(U2.grid, fill(rfft_x(kv, U2.grid), U2.grid))
    dyk = values_of(derivative(kappa, 0))
    dzk = values_of(derivative(kappa, 1))
    denom = 1.0 + kv ** 2
    r1 = (dyk + kv * dzk) / (vy * denom)
    r2 = (dzk - kv * dyk) / denom
    return KappaRho(kappa_values=kv, dy_kappa=dyk, dz_kappa=dzk, vy_values=vy, vz_values=vz,
                    rho1_values=r1, rho2_values=r2)


def kappa_identity_residual(kr: KappaRho, u3: SpectralField, k_mesh=None) -> float:
    """Max-norm residual of
    grad(kappa).grad(f) = rho1 grad(V).grad(f) + rho2 (dz - kappa dy) f,
    relative to the scale of the left-hand side.
    """
    grid = u3.grid
    mesh = grid.k_mesh() if k_mesh is None else list(k_mesh)
    dy, dz = irfft_x(halve(np.stack([1j * mesh[grid.dim - 2] * u3.coeffs,
                                     1j * mesh[grid.dim - 1] * u3.coeffs]), grid), grid)
    lhs = kr.dy_kappa * dy + kr.dz_kappa * dz
    rhs = (kr.rho1_values * (kr.vy_values * dy + kr.vz_values * dz)
           + kr.rho2_values * (dz - kr.kappa_values * dy))
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# co-evolved decomposition of the streamwise zero-mode velocity

@dataclass
class DecompositionTracker:
    """Splits u1_0 = G1 + B1 + B2 by integrating the three cross-section
    PDEs alongside the solver with the same scheme, stages and dealiasing:
    G1 carries the initial data and the non-zero-mode feedback, B1 the
    density forcing n0/A, B2 the lift-up source -u2_0.
    """

    G1: SpectralField
    B1: SpectralField
    B2: SpectralField

    @classmethod
    def start(cls, params, state) -> "DecompositionTracker":
        g1 = zero_mode(state.u.component(0)).copy()
        cross = g1.grid
        zero = lambda: SpectralField(cross, np.zeros(cross.shape, dtype=np.complex128))
        return cls(G1=g1, B1=zero(), B2=zero())

    @property
    def cross(self) -> GridSpec:
        return self.G1.grid

    def bad_part(self) -> SpectralField:
        """U2 = tilde(B2) + bar(B2) + bar(B1)."""
        bar1, _ = split_bar_tilde(self.B1)
        out = self.B2.coeffs.copy()
        out[(0,) * self.cross.dim] += bar1
        return SpectralField(self.cross, out)

    def _stage_rhs(self, params, ev):
        """Per-stage tendencies (G1, B1, B2) from the solver's aux fields."""
        cross = self.cross
        A = params.A
        mask = cross.dealias_mask()
        mesh = cross.k_mesh()
        u2v, u3v = ev.u_zero_vals[1], ev.u_zero_vals[2]

        def advect(Xc):
            xv = irfft_x(halve(Xc * mask, cross), cross)
            fy, fz = fill(rfft_x(np.stack([u2v * xv, u3v * xv]), cross), cross)
            return (1j * mesh[0] * fy + 1j * mesh[1] * fz) * mask

        neq = (1j * mesh[0] * ev.q_neq_hat[0] + 1j * mesh[1] * ev.q_neq_hat[1]) * mask
        r_g1 = -(advect(self.G1.coeffs) + neq) / A
        r_b1 = -advect(self.B1.coeffs) / A + ev.n_zero.coeffs / A
        r_b2 = -advect(self.B2.coeffs) / A - ev.u_zero[1].coeffs
        return r_g1, r_b1, r_b2

    def advance(self, params, dt, ev1, ev2):
        """One Heun step mirroring the solver's stages exactly.

        Cross-section fields see no shear: the heat factor below equals the
        k1 = 0 plane of the solver's propagator.
        """
        cross = self.cross
        heat = np.exp(-cross.k_squared() * dt / params.A)
        r1 = self._stage_rhs(params, ev1)
        pred = DecompositionTracker(
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

    def du2_dt(self, params, state) -> SpectralField:
        """Time derivative of the bad part, assembled from the equations'
        right-hand sides rather than finite differences."""
        cross = self.cross
        A = params.A
        mask = cross.dealias_mask()
        mesh = cross.k_mesh()
        u2_0, u3_0 = zero_mode(state.u.component(1)), zero_mode(state.u.component(2))
        n_0 = zero_mode(state.n)
        u2v, u3v, b2v = irfft_x(halve(np.stack([u2_0.coeffs, u3_0.coeffs, self.B2.coeffs])
                                      * mask, cross), cross)
        fy, fz = fill(rfft_x(np.stack([u2v * b2v, u3v * b2v]), cross), cross)
        adv = (1j * mesh[0] * fy + 1j * mesh[1] * fz) * mask
        k2 = cross.k_squared()
        out = (-k2 * self.B2.coeffs) / A - u2_0.coeffs - adv / A
        out[(0,) * cross.dim] += n_0.coeffs[(0,) * cross.dim].real / A
        return SpectralField(cross, out)


# ---------------------------------------------------------------------------
# weighted space-time norm accumulators and energy functionals

@dataclass
class TrackedNorm:
    """Accumulators realizing one ||.||_{X_w} / ||.||_{Y_0} budget."""

    weight: float
    sup_sq: float = 0.0
    int_l2: float = 0.0
    int_grad: float = 0.0
    int_pres: float = 0.0
    prev: tuple | None = None

    def observe(self, t: float, l2_sq: float, grad_sq: float, pres_sq: float):
        w = math.exp(2.0 * self.weight * t)
        vals = (w * l2_sq, w * grad_sq, w * pres_sq)
        self.sup_sq = max(self.sup_sq, vals[0])
        if self.prev is not None:
            t0, p = self.prev
            h = 0.5 * (t - t0)
            self.int_l2 += h * (p[0] + vals[0])
            self.int_grad += h * (p[1] + vals[1])
            self.int_pres += h * (p[2] + vals[2])
        self.prev = (t, vals)

    def x_norm(self, A: float) -> float:
        return math.sqrt(self.sup_sq + self.int_pres
                         + self.int_l2 / A ** (1.0 / 3.0) + self.int_grad / A)

    def y0_norm(self, A: float) -> float:
        return math.sqrt(self.sup_sq + self.int_grad / A)


@dataclass
class ScalarTrack:
    sup: float = 0.0
    integral: float = 0.0
    prev: tuple | None = None

    def observe(self, t: float, value: float):
        self.sup = max(self.sup, value)
        if self.prev is not None:
            t0, v0 = self.prev
            self.integral += 0.5 * (t - t0) * (v0 + value)
        self.prev = (t, value)


@dataclass
class EnergyLedger:
    """Running realization of the weighted norms behind the functionals.

    Weights: 0 for the Y0 group (zero-mode velocities), a*A^{-1/3} for the
    X_a group, b*A^{-1/3} for the X_b group, with the one admissible pair
    0 < a < b < 2a the functionals use.  Time integrals use the trapezoid
    rule over emitted samples, sups are maxima over samples.
    """

    A_WEIGHT = 0.05
    B_WEIGHT = 0.08

    A: float
    norms: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)

    def norm_track(self, name: str, weight: float) -> TrackedNorm:
        if name not in self.norms:
            self.norms[name] = TrackedNorm(weight=weight)
        return self.norms[name]

    def scalar_track(self, name: str) -> ScalarTrack:
        if name not in self.scalars:
            self.scalars[name] = ScalarTrack()
        return self.scalars[name]

    @property
    def wa(self) -> float:
        return self.A_WEIGHT * self.A ** (-1.0 / 3.0)

    @property
    def wb(self) -> float:
        return self.B_WEIGHT * self.A ** (-1.0 / 3.0)


def _norm_weights(grid: GridSpec, mesh) -> tuple[np.ndarray, np.ndarray]:
    """|k|^2 and the pressure weight k1^2/|k|^2 (zero at k = 0) on the grid."""
    k2 = _mesh_k2(mesh)
    k1sq = np.broadcast_to(np.asarray(mesh[0]) ** 2, grid.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        pres = np.where(k2 > 0, k1sq / np.where(k2 > 0, k2, 1.0), 0.0)
    return k2, pres


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


def _observe_field(ledger: EnergyLedger, name: str, weight: float, t: float,
                   coeffs: np.ndarray, grid: GridSpec, weights):
    ledger.norm_track(name, weight).observe(t, *_norm_pieces(coeffs, grid, weights))


def ledger_update(ledger: EnergyLedger, state, params, tracker, n_vals: np.ndarray):
    """Advance every accumulator with the current sample; n_vals are the
    collocation values of state.n."""
    t = state.t
    grid = params.grid
    n = state.n
    mesh = frame_k_mesh(params, state.frame.drift)

    ledger.scalar_track("n_linf").observe(t, float(np.max(np.abs(n_vals))))
    weights = _norm_weights(grid, mesh)

    # (i k1)^2 is exactly zero on the k1 = 0 plane: this is the fluctuation alone
    dxx_n = (1j * np.asarray(mesh[0])) ** 2 * n.coeffs
    _observe_field(ledger, "dxx_n_neq", ledger.wb, t, dxx_n, grid, weights)

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
        grad = np.stack([1j * np.broadcast_to(cmesh[a], cross.shape) * f0.coeffs
                         for a in range(2)])
        _observe_field(ledger, "grad_" + name, 0.0, t, grad, cross, cweights)
        lap = -ck2 * f0.coeffs
        if name == "u2_0":
            _observe_field(ledger, "lap_u2_0", 0.0, t, lap, cross, cweights)
        else:
            wmin = min(math.sqrt(params.A ** (-2.0 / 3.0) + t / params.A), 1.0)
            _observe_field(ledger, "wmin_lap_u3_0", 0.0, t, wmin * lap, cross, cweights)

    # X_a group: vorticity pair
    u_neq = SpectralField(grid, u.coeffs.copy())
    u_neq.coeffs[:, 0] = 0.0
    w2 = compute_omega2(u_neq, k_mesh=mesh)
    k2 = weights[0]
    _observe_field(ledger, "lap_u2_neq", ledger.wa, t, -k2 * u_neq.coeffs[1], grid, weights)
    for axis, name in ((0, "dx_w2_neq"), (1, "dy_w2_neq"), (2, "dz_w2_neq")):
        d = 1j * np.broadcast_to(mesh[axis], grid.shape) * w2.coeffs
        _observe_field(ledger, name, ledger.wa, t, d, grid, weights)

    # X_b group: streamwise-second-derivative fluctuations
    dxx = (1j * np.asarray(mesh[0])) ** 2
    _observe_field(ledger, "dxx_u2_neq", ledger.wb, t, dxx * u_neq.coeffs[1], grid, weights)
    _observe_field(ledger, "dxx_u3_neq", ledger.wb, t, dxx * u_neq.coeffs[2], grid, weights)
    _observe_field(ledger, "lap_u3_neq", ledger.wb, t, -k2 * u_neq.coeffs[2], grid, weights)

    # good-derivative and W quantities need the quasi-linear frame
    kappa_vals = 0.0
    if tracker is not None:
        try:
            kappa_vals = kappa_values(tracker.bad_part(), params.A)
        except ContractViolation:
            kappa_vals = 0.0
    def good_derivative(comp_coeffs):
        dz = 1j * np.broadcast_to(mesh[2], grid.shape) * comp_coeffs
        dy = 1j * np.broadcast_to(mesh[1], grid.shape) * comp_coeffs
        if np.isscalar(kappa_vals) and kappa_vals == 0.0:
            return dz
        dy_phys = irfft_x(halve(dy, grid), grid)
        prod = fill(rfft_x(kappa_vals[None, :, :] * dy_phys, grid), grid)
        return dz - prod * grid.dealias_mask()

    dx1 = 1j * np.asarray(mesh[0])
    _observe_field(ledger, "dx_good_u2", ledger.wb, t,
                   dx1 * good_derivative(u_neq.coeffs[1]), grid, weights)
    _observe_field(ledger, "dx_good_u3", ledger.wb, t,
                   dx1 * good_derivative(u_neq.coeffs[2]), grid, weights)

    if np.isscalar(kappa_vals) and kappa_vals == 0.0:
        w_coeffs = u_neq.coeffs[1]
    else:
        u3_phys = irfft_x(halve(u_neq.coeffs[2], grid), grid)
        prod = fill(rfft_x(kappa_vals[None, :, :] * u3_phys, grid), grid)
        w_coeffs = u_neq.coeffs[1] + prod * grid.dealias_mask()
    grad_w = np.stack([1j * np.broadcast_to(mesh[a], grid.shape) * w_coeffs
                       for a in range(3)])
    _observe_field(ledger, "dx_grad_W", ledger.wb, t, dx1 * grad_w, grid, weights)

    # E_{1,2}: bad-part Sobolev budgets from the co-evolved fields
    if tracker is not None:
        U2 = tracker.bad_part()
        ck2 = cross.k_squared()
        lap_u2_bad = SpectralField(cross, -ck2 * U2.coeffs)
        ledger.scalar_track("lapU2_h2_sup").observe(t, sobolev_norm(lap_u2_bad, 2))
        grad_lap = np.stack([1j * np.broadcast_to(cmesh[a], cross.shape) * lap_u2_bad.coeffs
                             for a in range(2)])
        gl = SpectralField(cross, grad_lap)
        ledger.scalar_track("gradlapU2_h2_int").observe(t, sobolev_norm(gl, 2) ** 2)
        dtu2 = tracker.du2_dt(params, state)
        ledger.scalar_track("dtU2_h2_sup").observe(t, sobolev_norm(dtu2, 2))


def energy_report(ledger: EnergyLedger) -> dict:
    """Reassemble the tracked functionals; absent quantities report zero."""
    A = ledger.A

    def xnorm(name):
        tr = ledger.norms.get(name)
        return tr.x_norm(A) if tr else 0.0

    def ynorm(name):
        tr = ledger.norms.get(name)
        return tr.y0_norm(A) if tr else 0.0

    def ssup(name):
        tr = ledger.scalars.get(name)
        return tr.sup if tr else 0.0

    def sint(name):
        tr = ledger.scalars.get(name)
        return tr.integral if tr else 0.0

    e11 = (ynorm("u2_0") + ynorm("u3_0") + ynorm("grad_u2_0") + ynorm("grad_u3_0")
           + ynorm("lap_u2_0") + ynorm("wmin_lap_u3_0"))
    e12 = (ssup("lapU2_h2_sup") + math.sqrt(sint("gradlapU2_h2_int")) / math.sqrt(A)) / A \
        + ssup("dtU2_h2_sup")
    e21 = xnorm("dxx_n_neq")
    e22 = (xnorm("lap_u2_neq") + xnorm("dx_w2_neq")
           + (xnorm("dy_w2_neq") + xnorm("dz_w2_neq")) / A ** (1.0 / 3.0))
    e3 = ssup("n_linf")
    e4 = xnorm("dxx_u2_neq") + xnorm("dxx_u3_neq")
    e51 = xnorm("lap_u3_neq") / A ** (2.0 / 3.0)
    e52 = (xnorm("dxx_u2_neq") + xnorm("dx_good_u2")
           + xnorm("dxx_u3_neq") + xnorm("dx_good_u3") + xnorm("dx_grad_W"))
    return {"E11": e11, "E12": e12, "E21": e21, "E22": e22,
            "E3": e3, "E4": e4, "E51": e51, "E52": e52}
