"""Everything the suppression analysis measures during a run.

Live diagnostics for the solver: weighted space-time norm tracks and the
energy functionals built from them, the good/bad splitting of the
streamwise zero-mode velocity via co-evolved cross-section PDEs, and the
quasi-linear frame quantities kappa, rho1, rho2, W.  Neither builds a full
spectrum.  The tracker advances its three parts as one (3, ny, nz) stack,
its stages on k_y >= 0 halves, completed once per step like a solver
step's.  The ledger sums each norm over the k1 >= 0 half of the field it
measures, weighted by the half's multiplicities in the full spectrum
(``spectral.parseval_weights``), and sends its three kappa products through
one 3D inverse transform and one band forward transform (``rfft_band``).
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
    band_of,
    complete_half,
    fill,
    halve,
    irfft_band,
    irfft_x,
    over_k2,
    parseval_weights,
    place,
    rfft_band,
    rfft_x,
    sobolev_norm,
)


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

def _box_mesh(cross: GridSpec) -> list[np.ndarray]:
    """The cross-section's wavevectors on its band box (``band_of``)."""
    return [band_of(halve(m, cross), cross) for m in cross.k_mesh()]


def _advect(uv, xv: np.ndarray, cross: GridSpec) -> np.ndarray:
    """Band box of div((u2, u3) X) on the cross-section, the dealiased
    product, from the values uv = (u2, u3) and xv of X, one field or a stack
    of them."""
    mesh = _box_mesh(cross)
    fy, fz = rfft_band(np.stack([uv[0] * xv, uv[1] * xv]), cross)
    return 1j * mesh[0] * fy + 1j * mesh[1] * fz


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
        mesh = _box_mesh(cross)
        adv = _advect(ev.u_zero_vals[1:], irfft_band(band_of(parts, cross), cross), cross)
        q = band_of(ev.q_neq_hat, cross)
        adv[0] += 1j * mesh[0] * q[0] + 1j * mesh[1] * q[1]
        rhs = -place(adv, cross) / A
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
        u2v, u3v, b2v = irfft_band(band_of(np.stack([u_0[1], u_0[2], b2]), cross), cross)
        adv = place(_advect((u2v, u3v), b2v, cross), cross)
        out = (-halve(cross.k_squared(), cross) * b2) / A - u_0[1] - adv / A
        out[(0,) * cross.dim] += state.n.coeffs[(0,) * params.grid.dim].real / A
        return SpectralField(cross, fill(out, cross))


# ---------------------------------------------------------------------------
# weighted space-time norm accumulators and energy functionals

@dataclass
class Track:
    """One weighted space-time budget: every value observed at t is scaled
    by exp(2 weight t); the track keeps the sup over samples of the first
    scaled value and the trapezoid time integral of each.  A norm track
    observes (|f|^2, |grad f|^2[, |grad lap^-1 dx f|^2]) integrals, a scalar
    track one value at weight 0."""

    weight: float = 0.0
    sup: float = 0.0
    ints: list = field(default_factory=list)
    prev: tuple | None = None

    def observe(self, t: float, *values: float):
        w = math.exp(2.0 * self.weight * t)
        vals = tuple(w * v for v in values)
        self.sup = max(self.sup, vals[0])
        if self.prev is None:
            self.ints = [0.0] * len(vals)
        else:
            t0, p = self.prev
            h = 0.5 * (t - t0)
            self.ints = [i + h * (a + b) for i, a, b in zip(self.ints, p, vals)]
        self.prev = (t, vals)

    def x_norm(self, A: float) -> float:
        int_l2, int_grad, int_pres = self.ints
        return math.sqrt(self.sup + int_pres + int_l2 / A ** (1.0 / 3.0) + int_grad / A)

    def y0_norm(self, A: float) -> float:
        return math.sqrt(self.sup + self.ints[1] / A)


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
    tracks: dict = field(default_factory=dict)

    def track(self, name: str, weight: float = 0.0) -> Track:
        if name not in self.tracks:
            self.tracks[name] = Track(weight=weight)
        return self.tracks[name]

    @property
    def wa(self) -> float:
        return self.A_WEIGHT * self.A ** (-1.0 / 3.0)

    @property
    def wb(self) -> float:
        return self.B_WEIGHT * self.A ** (-1.0 / 3.0)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def ledger_update(ledger: EnergyLedger, state, params, tracker, n_vals: np.ndarray):
    """Advance every track with the current sample; n_vals are the
    collocation values of state.n.

    Every norm is a sum over the k1 >= 0 half, weighted by ``parseval_weights``,
    of |multiplier|^2 |f|^2 for one of a few base fields f: n, u2 and u3
    fluctuations, the omega2 fluctuation, the two good derivatives and W,
    and on the cross-section u2_0 and u3_0.
    """
    t = state.t
    grid = params.grid
    vol = grid.volume
    ledger.track("n_linf").observe(t, float(np.max(np.abs(n_vals))))

    mesh = [halve(m, grid) for m in frame_k_mesh(params, state.frame.drift)]
    k1 = mesh[0]
    k2 = _mesh_k2(mesh)
    pres = over_k2(k1 ** 2, k2)  # |grad lap^-1 dx f|^2 = k1^2 / |k|^2 |f|^2
    # the fluctuation is the half off its k1 = 0 plane
    w_neq = np.where(k1 != 0.0, parseval_weights(grid), 0.0)

    def observe_x(name, weight, e):
        """e: Parseval-weighted |f|^2 of the tracked field on the half."""
        ledger.track(name, weight).observe(t, vol * float(np.sum(e)),
                                           vol * float(np.sum(k2 * e)),
                                           vol * float(np.sum(pres * e)))

    dxx2 = k1 ** 4
    observe_x("dxx_n_neq", ledger.wb, dxx2 * w_neq * _abs2(halve(state.n.coeffs, grid)))

    if state.u is None:
        return
    u_h = halve(state.u.coeffs, grid)
    ky, kz = mesh[1], mesh[2]
    cross = grid.cross_section()
    U2 = tracker.bad_part() if tracker is not None else None

    # good derivatives (dz - kappa dy) u2, u3 and W = u2 + kappa u3 in the
    # quasi-linear frame; without a frame kappa is zero.  kappa dy u2,
    # kappa dy u3 and kappa u3 go through one transform pair
    good = 1j * kz * u_h[1:]
    w_h = u_h[1]
    kappa = None
    if U2 is not None:
        try:
            kappa = kappa_values(U2, params.A)
        except ContractViolation:
            pass
    if kappa is not None:
        flucts = np.stack([1j * ky * u_h[1], 1j * ky * u_h[2], u_h[2]])
        flucts[:, 0] = 0.0
        phys = irfft_x(flucts, grid)
        del flucts
        phys *= kappa
        prods = rfft_band(phys, grid)
        del phys
        prods = place(prods, grid)
        good -= prods[:2]
        w_h = w_h + prods[2]
        del prods
    dx2 = k1 ** 2
    observe_x("dx_good_u2", ledger.wb, dx2 * w_neq * _abs2(good[0]))
    observe_x("dx_good_u3", ledger.wb, dx2 * w_neq * _abs2(good[1]))
    observe_x("dx_grad_W", ledger.wb, dx2 * k2 * w_neq * _abs2(w_h))

    # X_a group: vorticity pair; X_b group: streamwise-second-derivative
    # fluctuations
    k4 = k2 ** 2
    e_u2 = w_neq * _abs2(u_h[1])
    observe_x("lap_u2_neq", ledger.wa, k4 * e_u2)
    observe_x("dxx_u2_neq", ledger.wb, dxx2 * e_u2)
    e_u3 = w_neq * _abs2(u_h[2])
    observe_x("dxx_u3_neq", ledger.wb, dxx2 * e_u3)
    observe_x("lap_u3_neq", ledger.wb, k4 * e_u3)
    e_w2 = w_neq * _abs2(1j * kz * u_h[0] - 1j * k1 * u_h[2])
    for k, name in ((k1, "dx_w2_neq"), (ky, "dy_w2_neq"), (kz, "dz_w2_neq")):
        observe_x(name, ledger.wa, k ** 2 * e_w2)

    # Y0 group: zero-mode velocities and their derivatives, |k|^2p |f|^2
    # moments on the cross-section's k_y >= 0 half
    ck2 = halve(cross.k_squared(), cross)
    e_0 = parseval_weights(cross) * _abs2(halve(u_h[1:, 0], cross))
    wmin2 = min(params.A ** (-2.0 / 3.0) + t / params.A, 1.0)
    for name, lap, e, scale in (("u2_0", "lap_u2_0", e_0[0], 1.0),
                                ("u3_0", "wmin_lap_u3_0", e_0[1], wmin2)):
        m = [cross.volume * float(np.sum(ck2 ** p * e)) for p in range(4)]
        ledger.track(name).observe(t, m[0], m[1])
        ledger.track("grad_" + name).observe(t, m[1], m[2])
        ledger.track(lap).observe(t, scale * m[2], scale * m[3])

    # E_{1,2}: bad-part Sobolev budgets from the co-evolved fields
    if U2 is not None:
        cmesh = cross.k_mesh()
        lap_u2_bad = SpectralField(cross, -cross.k_squared() * U2.coeffs)
        ledger.track("lapU2_h2_sup").observe(t, sobolev_norm(lap_u2_bad, 2))
        grad_lap = SpectralField(cross, np.stack([1j * cmesh[a] * lap_u2_bad.coeffs
                                                  for a in range(2)]))
        ledger.track("gradlapU2_h2_int").observe(t, sobolev_norm(grad_lap, 2) ** 2)
        dtu2 = tracker.du2_dt(params, state)
        ledger.track("dtU2_h2_sup").observe(t, sobolev_norm(dtu2, 2))


def energy_report(ledger: EnergyLedger) -> dict:
    """Reassemble the tracked functionals; absent quantities report zero."""
    A = ledger.A
    tracks = ledger.tracks

    def xnorm(name):
        return tracks[name].x_norm(A) if name in tracks else 0.0

    def ynorm(name):
        return tracks[name].y0_norm(A) if name in tracks else 0.0

    def sup(name):
        return tracks[name].sup if name in tracks else 0.0

    def integral(name):
        return tracks[name].ints[0] if name in tracks else 0.0

    e11 = (ynorm("u2_0") + ynorm("u3_0") + ynorm("grad_u2_0") + ynorm("grad_u3_0")
           + ynorm("lap_u2_0") + ynorm("wmin_lap_u3_0"))
    e12 = (sup("lapU2_h2_sup") + math.sqrt(integral("gradlapU2_h2_int")) / math.sqrt(A)) / A \
        + sup("dtU2_h2_sup")
    e21 = xnorm("dxx_n_neq")
    e22 = (xnorm("lap_u2_neq") + xnorm("dx_w2_neq")
           + (xnorm("dy_w2_neq") + xnorm("dz_w2_neq")) / A ** (1.0 / 3.0))
    e3 = sup("n_linf")
    e4 = xnorm("dxx_u2_neq") + xnorm("dxx_u3_neq")
    e51 = xnorm("lap_u3_neq") / A ** (2.0 / 3.0)
    e52 = (xnorm("dxx_u2_neq") + xnorm("dx_good_u2")
           + xnorm("dxx_u3_neq") + xnorm("dx_good_u3") + xnorm("dx_grad_W"))
    return {"E11": e11, "E12": e12, "E21": e21, "E22": e22,
            "E3": e3, "E4": e4, "E51": e51, "E52": e52}
