"""Everything the suppression analysis measures during a run.

Live diagnostics for the solver: the wall-normal vorticity and lap(u2),
weighted space-time norm accumulators and the energy functionals built from
them, the good/bad splitting of the streamwise zero-mode velocity via
co-evolved cross-section PDEs, and the quasi-linear frame quantities kappa,
rho1, rho2, W.  Both work on stacks: the tracker advances its three parts
as one (3, ny, nz) spectrum, and the ledger sends its three kappa products
through one 3D transform pair.  The tracker's stages run on k_y >= 0
halves, completed once per step like a solver step's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modes import fluctuation_only, split_bar_tilde, zero_mode
from .shear import frame_k_mesh
from .spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    _mesh_k2,
    complete_half,
    fill,
    halve,
    irfft_x,
    over_k2,
    rfft_x,
    sobolev_norm,
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


def _yz_gradient_values(half: np.ndarray, grid: GridSpec, k_mesh=None) -> np.ndarray:
    """Values of (dy f, dz f), the derivatives along the grid's last two axes,
    by one inverse transform of the k1 >= 0 half of f's spectrum; raises
    ContractViolation on non-finite values."""
    mesh = [halve(m, grid) for m in (grid.k_mesh() if k_mesh is None else k_mesh)]
    vals = irfft_x(np.stack([1j * mesh[-2] * half, 1j * mesh[-1] * half]), grid)
    if not np.all(np.isfinite(vals)):
        raise ContractViolation("RealField values must be finite")
    return vals


def _frame_slopes(U2: SpectralField, A: float) -> tuple[np.ndarray, np.ndarray]:
    """Values of dy(V), dz(V) for V = y + U2/A; aborts when min dy(V) < 1/2."""
    if U2.grid.dim != 2 or U2.components != 1:
        raise ContractViolation("U2 must be a scalar cross-section field")
    dy, dz = _yz_gradient_values(halve(U2.coeffs, U2.grid), U2.grid)
    vy = 1.0 + dy / A
    vz = dz / A
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
    dyk, dzk = _yz_gradient_values(rfft_x(kv, U2.grid), U2.grid)
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
    dy, dz = _yz_gradient_values(halve(u3.coeffs, u3.grid), u3.grid, k_mesh)
    lhs = kr.dy_kappa * dy + kr.dz_kappa * dz
    rhs = (kr.rho1_values * (kr.vy_values * dy + kr.vz_values * dz)
           + kr.rho2_values * (dz - kr.kappa_values * dy))
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# co-evolved decomposition of the streamwise zero-mode velocity

def _advect(uv, xv: np.ndarray, cross: GridSpec) -> np.ndarray:
    """Dealiased k_y >= 0 half spectrum of div((u2, u3) X) on the cross-section,
    from the values uv = (u2, u3) and xv of X, one field or a stack of them."""
    mesh = [halve(m, cross) for m in cross.k_mesh()]
    fy, fz = rfft_x(np.stack([uv[0] * xv, uv[1] * xv]), cross)
    return (1j * mesh[0] * fy + 1j * mesh[1] * fz) * halve(cross.dealias_mask(), cross)


@dataclass
class DecompositionTracker:
    """Splits u1_0 = G1 + B1 + B2 by integrating the three cross-section
    PDEs alongside the solver with the same scheme, stages and dealiasing:
    G1 carries the initial data and the non-zero-mode feedback, B1 the
    density forcing n0/A, B2 the lift-up source -u2_0.

    The three are one (3, ny, nz) spectrum, ``parts``, advanced by one Heun
    step on its k_y >= 0 half with one advection per stage, then completed
    once; ``G1``, ``B1`` and ``B2`` are full-spectrum views of its rows.
    """

    parts: SpectralField

    @classmethod
    def start(cls, params, state) -> "DecompositionTracker":
        u1_0 = zero_mode(state.u.component(0))
        parts = np.zeros((3, *u1_0.grid.shape), dtype=np.complex128)
        parts[0] = u1_0.coeffs
        return cls(SpectralField(u1_0.grid, parts))

    G1 = property(lambda self: self.parts.component(0))
    B1 = property(lambda self: self.parts.component(1))
    B2 = property(lambda self: self.parts.component(2))

    @property
    def cross(self) -> GridSpec:
        return self.parts.grid

    def bad_part(self) -> SpectralField:
        """U2 = tilde(B2) + bar(B2) + bar(B1)."""
        out = self.B2.coeffs.copy()
        out[(0,) * self.cross.dim] += split_bar_tilde(self.B1)[0]
        return SpectralField(self.cross, out)

    def _stage_rhs(self, parts: np.ndarray, A: float, ev) -> np.ndarray:
        """Tendencies of a (G1, B1, B2) half stack from one stage's aux fields."""
        cross = self.cross
        mask = halve(cross.dealias_mask(), cross)
        mesh = [halve(m, cross) for m in cross.k_mesh()]
        rhs = _advect(ev.u_zero_vals[1:], irfft_x(parts * mask, cross), cross)
        rhs[0] += (1j * mesh[0] * ev.q_neq_hat[0] + 1j * mesh[1] * ev.q_neq_hat[1]) * mask
        rhs = -rhs / A
        rhs[1] += ev.n_zero / A
        rhs[2] -= ev.u_zero[1]
        return rhs

    def advance(self, params, dt, ev1, ev2):
        """One Heun step mirroring the solver's stages exactly.

        Cross-section fields see no shear: the heat factor below equals the
        k1 = 0 plane of the solver's propagator.
        """
        cross = self.cross
        heat = np.exp(-halve(cross.k_squared(), cross) * dt / params.A)
        parts = halve(self.parts.coeffs, cross)
        r1 = self._stage_rhs(parts, params.A, ev1)
        r2 = self._stage_rhs(heat * (parts + dt * r1), params.A, ev2)
        new = heat * (parts + 0.5 * dt * r1) + 0.5 * dt * r2
        self.parts = SpectralField(cross, fill(complete_half(new, cross), cross))

    def du2_dt(self, params, state) -> SpectralField:
        """Time derivative of the bad part, assembled from the equations'
        right-hand sides rather than finite differences."""
        cross = self.cross
        A = params.A
        u_0 = halve(zero_mode(state.u).coeffs, cross)
        b2 = halve(self.B2.coeffs, cross)
        u2v, u3v, b2v = irfft_x(np.stack([u_0[1], u_0[2], b2])
                                * halve(cross.dealias_mask(), cross), cross)
        adv = _advect((u2v, u3v), b2v, cross)
        out = (-halve(cross.k_squared(), cross) * b2) / A - u_0[1] - adv / A
        out[(0,) * cross.dim] += state.n.coeffs[(0,) * params.grid.dim].real / A
        return SpectralField(cross, fill(out, cross))


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
        ledger.scalar_track("lapU2_h2_sup").observe(t, sobolev_norm(lap_u2_bad, 2))
        grad_lap = SpectralField(cross, np.stack([1j * cmesh[a] * lap_u2_bad.coeffs
                                                  for a in range(2)]))
        ledger.scalar_track("gradlapU2_h2_int").observe(t, sobolev_norm(grad_lap, 2) ** 2)
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
