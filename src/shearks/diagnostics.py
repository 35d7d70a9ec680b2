"""Everything the suppression analysis measures during a run.

Live diagnostics for the solver: weighted space-time norm tracks and the
energy functionals built from them, the good/bad splitting of the
streamwise zero-mode velocity via co-evolved cross-section PDEs, and the
quasi-linear frame quantities kappa, rho1, rho2, W.  Neither builds a full
spectrum.  The tracker advances its three parts as one k_y >= 0 half stack
by the solver's own linear step and completion.  The ledger reduces every
norm, one row of a table per track, by ``spectral.parseval_sum`` over the
k1 >= 0 half of the field it measures, and sends its three kappa products
through one 3D inverse transform and one band forward transform
(``rfft_band``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modes import zero_mode
from .shear import ShearFrame, frame, linear_step
from .spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    _mesh_k2,
    band_of,
    halve,
    irfft_band,
    irfft_x,
    over_k2,
    parseval_sum,
    place,
    real_field,
    rfft_band,
    rfft_x,
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


def _yz_gradient_values(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Values of (dy f, dz f), the derivatives along the grid's last two axes,
    by one inverse transform of the k1 >= 0 half of f's spectrum; raises
    ContractViolation on non-finite values."""
    mesh = grid.k_mesh()
    vals = irfft_x(np.stack([1j * mesh[-2] * half, 1j * mesh[-1] * half]), grid)
    if not np.all(np.isfinite(vals)):
        raise ContractViolation("RealField values must be finite")
    return vals


def _frame_slopes(U2: SpectralField, A: float) -> tuple[np.ndarray, np.ndarray]:
    """Values of dy(V), dz(V) for V = y + U2/A; aborts when min dy(V) < 1/2."""
    if U2.grid.dim != 2 or U2.components != 1:
        raise ContractViolation("U2 must be a scalar cross-section field")
    dy, dz = _yz_gradient_values(U2.half, U2.grid)
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


def kappa_identity_residual(kr: KappaRho, u3: SpectralField) -> float:
    """Max-norm residual of
    grad(kappa).grad(f) = rho1 grad(V).grad(f) + rho2 (dz - kappa dy) f,
    relative to the scale of the left-hand side.
    """
    dy, dz = _yz_gradient_values(u3.half, u3.grid)
    lhs = kr.dy_kappa * dy + kr.dz_kappa * dz
    rhs = (kr.rho1_values * (kr.vy_values * dy + kr.vz_values * dz)
           + kr.rho2_values * (dz - kr.kappa_values * dy))
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# co-evolved decomposition of the streamwise zero-mode velocity

def _advect(uv, xv: np.ndarray, cross: GridSpec) -> np.ndarray:
    """Band box of div((u2, u3) X) on the cross-section, the dealiased
    product, from the values uv = (u2, u3) and xv of X, one field or a stack
    of them."""
    ik = frame(cross, 0.0, False).ik
    fy, fz = rfft_band(np.stack([uv[0] * xv, uv[1] * xv]), cross)
    return ik[0] * fy + ik[1] * fz


@dataclass
class DecompositionTracker:
    """Splits u1_0 = G1 + B1 + B2 by integrating the three cross-section
    PDEs alongside the solver with the same scheme, stages and dealiasing:
    G1 carries the initial data and the non-zero-mode feedback, B1 the
    density forcing n0/A, B2 the lift-up source -u2_0.

    The three are one field of three components on the cross-section,
    ``parts``, a k_y >= 0 half stack advanced by one Heun step with one
    advection per stage; ``G1``, ``B1`` and ``B2`` are views of its rows.
    """

    parts: SpectralField

    @classmethod
    def start(cls, params, state) -> "DecompositionTracker":
        u1_0 = zero_mode(state.u.component(0))
        parts = np.zeros((3, *u1_0.grid.half_shape), dtype=np.complex128)
        parts[0] = u1_0.half
        return cls(SpectralField.from_half(u1_0.grid, parts))

    G1 = property(lambda self: self.parts.component(0))
    B1 = property(lambda self: self.parts.component(1))
    B2 = property(lambda self: self.parts.component(2))

    @property
    def cross(self) -> GridSpec:
        return self.parts.grid

    def bad_part(self) -> SpectralField:
        """U2 = tilde(B2) + bar(B2) + bar(B1)."""
        origin = (0,) * self.cross.dim
        out = self.B2.half.copy()
        out[origin] += self.B1.half[origin].real
        return SpectralField.from_half(self.cross, out)

    def _stage_rhs(self, parts: np.ndarray, A: float, n_h, u_h, ev) -> np.ndarray:
        """Tendencies of a (G1, B1, B2) half stack from one solver stage: its
        n and u halves, whose k1 = 0 planes are the zero modes whole, and
        ``ev.uu_zero``, from which the zero modes' own product leaves
        (u_j,neq u_1,neq)_0 for j = 2, 3 on the band box."""
        cross = self.cross
        ik = frame(cross, 0.0, False).ik
        u_zero = halve(u_h[:, 0], cross)
        u_vals = irfft_band(band_of(u_zero, cross), cross)
        q = ev.uu_zero - rfft_band(u_vals[1:] * u_vals[0], cross)
        adv = _advect(u_vals[1:], irfft_band(band_of(parts, cross), cross), cross)
        adv[0] += ik[0] * q[0] + ik[1] * q[1]
        rhs = -place(adv, cross) / A
        rhs[1] += halve(n_h[0], cross) / A
        rhs[2] -= u_zero[1]
        return rhs

    def advance(self, params, dt, stage1, stage2):
        """One Heun step mirroring the solver's; a stage is the (n, u) halves
        a solver stage evaluated and their StageEval.  The parts take the
        cross-section's unsheared linear step (``linear_step``), the heat
        flow of the k1 = 0 plane, and the solver's completion."""
        cross, A = self.cross, params.A
        apply, _ = linear_step(cross, A, ShearFrame(), 0.0, dt, sheared=False)
        parts = self.parts.half
        r1 = self._stage_rhs(parts, A, *stage1)
        r2 = self._stage_rhs(apply(parts, r1, dt)[0], A, *stage2)
        self.parts = real_field(apply(parts, r1, 0.5 * dt, r2)[0], cross)

    def du2_dt(self, params, state) -> np.ndarray:
        """k_y >= 0 half of the time derivative of the bad part, assembled
        from the equations' right-hand sides rather than finite differences."""
        cross = self.cross
        A = params.A
        u_0 = zero_mode(state.u).half
        b2 = self.B2.half
        u2v, u3v, b2v = irfft_band(band_of(np.stack([u_0[1], u_0[2], b2]), cross), cross)
        adv = place(_advect((u2v, u3v), b2v, cross), cross)
        out = (-cross.k_squared() * b2) / A - u_0[1] - adv / A
        out[(0,) * cross.dim] += state.n.half[(0,) * params.grid.dim].real / A
        return out


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


def ledger_update(ledger: EnergyLedger, state, params, tracker, n_linf: float):
    """Advance every track with the current sample; n_linf is the largest
    |value| of state.n on the collocation grid.

    Every norm is one ``parseval_sum`` over the k1 >= 0 half of a base field:
    n, u2 and u3 fluctuations, the omega2 fluctuation, the two good
    derivatives and W, and on the cross-section u2_0, u3_0 and the bad part.
    A table row (track, weight, grid, field, m, moments) observes the sums
    of m |field|^2 against each of the moments."""
    t = state.t
    grid = params.grid
    ledger.track("n_linf").observe(t, n_linf)

    mesh = frame(grid, state.frame.drift, params.enable_shear).mesh
    k1 = mesh[0]
    k2 = _mesh_k2(mesh)
    # an X track observes its fluctuation's (|f|^2, |grad f|^2,
    # |grad lap^-1 dx f|^2): the moments 1, |k|^2 and k1^2 / |k|^2 off k1 = 0
    x_moments = (k1 != 0.0) * np.stack(np.broadcast_arrays(1.0, k2, over_k2(k1 ** 2, k2)))
    wa, wb = ledger.wa, ledger.wb
    table = [("dxx_n_neq", wb, grid, state.n.half, k1 ** 4, x_moments)]

    if state.u is not None:
        u_h = state.u.half
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
        w2 = 1j * kz * u_h[0] - 1j * k1 * u_h[2]

        # Y0 group: the g, grad g and lap g tracks of a zero-mode velocity g
        # observe the moments |k|^2p and |k|^2p+2 on the k_y >= 0 half
        ck2 = cross.k_squared()
        y_moments = [np.stack([ck2 ** p, ck2 ** (p + 1)]) for p in range(3)]
        u2_0, u3_0 = halve(u_h[1:, 0], cross)
        wmin2 = min(params.A ** (-2.0 / 3.0) + t / params.A, 1.0)
        table += [
            # good derivatives and W, then the X_a group (vorticity pair) and
            # the X_b group (streamwise-second-derivative fluctuations)
            ("dx_good_u2", wb, grid, good[0], k1 ** 2, x_moments),
            ("dx_good_u3", wb, grid, good[1], k1 ** 2, x_moments),
            ("dx_grad_W", wb, grid, w_h, k1 ** 2 * k2, x_moments),
            ("lap_u2_neq", wa, grid, u_h[1], k2 ** 2, x_moments),
            ("dxx_u2_neq", wb, grid, u_h[1], k1 ** 4, x_moments),
            ("dxx_u3_neq", wb, grid, u_h[2], k1 ** 4, x_moments),
            ("lap_u3_neq", wb, grid, u_h[2], k2 ** 2, x_moments),
            ("dx_w2_neq", wa, grid, w2, k1 ** 2, x_moments),
            ("dy_w2_neq", wa, grid, w2, ky ** 2, x_moments),
            ("dz_w2_neq", wa, grid, w2, kz ** 2, x_moments),
            ("u2_0", 0.0, cross, u2_0, 1.0, y_moments[0]),
            ("grad_u2_0", 0.0, cross, u2_0, 1.0, y_moments[1]),
            ("lap_u2_0", 0.0, cross, u2_0, 1.0, y_moments[2]),
            ("u3_0", 0.0, cross, u3_0, 1.0, y_moments[0]),
            ("grad_u3_0", 0.0, cross, u3_0, 1.0, y_moments[1]),
            ("wmin_lap_u3_0", 0.0, cross, u3_0, wmin2, y_moments[2]),
        ]
        # E_{1,2}: H^2 norms of lap U2, grad lap U2 and dU2/dt, the bad part's
        if U2 is not None:
            h2 = (1.0 + ck2) ** 2
            lap_sq, grad_lap_sq = parseval_sum(U2.half, cross, h2,
                                               np.stack([ck2 ** 2, ck2 ** 3]))
            ledger.track("lapU2_h2_sup").observe(t, math.sqrt(lap_sq))
            ledger.track("gradlapU2_h2_int").observe(t, grad_lap_sq)
            dtu2 = parseval_sum(tracker.du2_dt(params, state), cross, h2)
            ledger.track("dtU2_h2_sup").observe(t, math.sqrt(dtu2))
    for name, weight, g, f, m, moments in table:
        ledger.track(name, weight).observe(t, *parseval_sum(f, g, m, moments))


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
