"""The half-spectrum tendency kernel against an independent full-complex oracle,
and its band-box assembly against the masked assembly of tests/oracles.py.

The oracle below is the tendency assembly written directly on full complex
spectra with complex FFTs: every product has all d^2 components and every
transform sees the whole spectrum.  The solver's kernel takes and returns
k1 >= 0 half spectra and works on them with real transforms; filling its
k1 < 0 half by conjugate symmetry (``fill``), the two agree to round-off on
every mode off the lone Nyquist rows (|k_a| = n_a/2).  On those rows, all outside the 2/3 band, they
legitimately differ: there the effective wavevector is not odd in k, and the
oracle leaves a non-Hermitian residue that the kernel does not produce.

The kernel forms its dealiased parts on the 2/3-rule band box; the masked
assembly (``oracles.masked_tendency``) forms them on whole halves and
multiplies by the band mask.  The two agree with == on every mode and bit
for bit on band modes: off the band the mask leaves zeros of either sign.
"""

from pathlib import Path

import numpy as np
import pytest

from shearks import shear, solver
from shearks.config import params_of, parse_config
from shearks.diagnostics import DecompositionTracker
from shearks.initial import build_initial_state
from shearks.solver import _evaluate, step
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    conj_reverse,
    fill,
    halve,
    leray_coeffs,
    leray_project,
    place,
)

from oracles import (dealias_mask, full_band_hermitian, full_frame_k_mesh, full_k_mesh,
                     masked_evaluate, run_params, two_step_projection)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GRID2 = GridSpec((32, 24))
GRID3 = GridSpec((16, 12, 20))


def _phys(grid, coeffs):
    return np.fft.ifftn(coeffs, axes=tuple(range(-grid.dim, 0))).real * grid.size


def _spec(grid, values):
    return np.fft.fftn(values, axes=tuple(range(-grid.dim, 0))) / grid.size


def oracle(n, u, params, drift):
    """(rhs_n, rhs_u, max_u, max_chemo, uu_zero) on full complex spectra; uu_zero
    is the k1 = 0 plane of (u1 u2, u1 u3)."""
    grid = params.grid
    mesh = full_frame_k_mesh(params, drift)
    mesh = [np.broadcast_to(m, grid.shape) for m in mesh]
    dmask = dealias_mask(grid)
    A = params.A
    k2 = sum(m ** 2 for m in mesh)
    safe_k2 = np.where(k2 > 0, k2, 1.0)

    max_u = max_chemo = 0.0
    rhs_u = uu_zero = None
    flux = np.zeros((grid.dim, *grid.shape))
    if u is not None:
        u_phys = _phys(grid, u.coeffs * dmask)
        max_u = float(np.max(np.abs(u_phys)))
        uu_hat = _spec(grid, np.einsum("i...,j...->ij...", u_phys, u_phys))
        rhs = np.zeros_like(u.coeffs)
        for i in range(grid.dim):
            acc = sum(1j * mesh[j] * uu_hat[j, i] for j in range(grid.dim))
            rhs[i] = (-1.0 / A) * acc * dmask
        rhs[0] += n.coeffs / A - u.coeffs[1]
        rhs_u = leray_coeffs(rhs, mesh)
        if params.enable_shear:
            base = np.where(k2 > 0, 1j * mesh[0] * u.coeffs[1] / -safe_k2, 0.0)
            rhs_u = rhs_u + np.stack([1j * mesh[a] * base for a in range(grid.dim)])
        flux += _phys(grid, u.coeffs * dmask)
        uu_zero = [uu_hat[j, 0][0] for j in (1, 2)]
    if params.enable_chemotaxis:
        c = np.where(k2 > 0, n.coeffs / safe_k2, 0.0)
        grad_c = np.stack([_phys(grid, 1j * mesh[a] * c * dmask) for a in range(grid.dim)])
        max_chemo = float(np.max(np.abs(grad_c)))
        flux += grad_c
    flux_hat = _spec(grid, flux * _phys(grid, n.coeffs * dmask))
    rhs_n = sum(1j * mesh[a] * flux_hat[a] for a in range(grid.dim)) * (-1.0 / A) * dmask
    return rhs_n, rhs_u, max_u, max_chemo, uu_zero


def evaluate(n, u, params, drift):
    """The solver's kernel on the halves of full fields; tendencies filled."""
    grid = params.grid
    ev = _evaluate(halve(n.coeffs, grid), None if u is None else halve(u.coeffs, grid),
                   params, drift)
    ev.rhs_n = fill(ev.rhs_n, grid)
    ev.rhs_u = None if ev.rhs_u is None else fill(ev.rhs_u, grid)
    return ev


def random_state(grid, seed):
    """Hermitian density around 1 and a solenoidal velocity, full band."""
    n = full_band_hermitian(grid, seed, slope=2.0)
    n.half[(0,) * grid.dim] = 1.0
    if grid.dim == 2:
        return n, None
    u = leray_project(full_band_hermitian(grid, seed + 1, components=3, slope=2.0))
    u.half *= 0.3
    return n, u


def off_nyquist(grid):
    mask = np.ones(grid.shape, dtype=bool)
    for a, k in enumerate(full_k_mesh(grid)):
        mask &= np.abs(k) != grid.shape[a] // 2
    return mask


def assert_close(got, want, mask, rel=1e-12):
    scale = np.max(np.abs(want * mask))
    err = np.max(np.abs((got - want) * mask))
    if scale == 0.0:
        assert err == 0.0
    else:
        assert err <= rel * scale, f"relative error {err / scale:.3e}"


def assert_mirror_exact(coeffs, grid):
    """coeff(-k) = conj(coeff(k)) bit for bit on every plane 0 < |k1| < n1/2."""
    lead = (slice(None),) * (coeffs.ndim - grid.dim)
    planes = lead + (np.r_[1: grid.shape[0] // 2, grid.shape[0] // 2 + 1: grid.shape[0]],)
    assert np.array_equal(coeffs[planes], conj_reverse(coeffs, grid.dim)[planes])


CASES = [(grid, shear, chemo, drift)
         for grid in (GRID2, GRID3) for shear in (False, True)
         for chemo in (False, True) for drift in (0.0, 0.37, -0.8)
         if shear or drift == 0.0]


@pytest.mark.parametrize("grid,shear,chemo,drift", CASES)
def test_kernel_matches_full_complex_oracle(grid, shear, chemo, drift):
    params = run_params(grid, A=7.0, enable_shear=shear, enable_chemotaxis=chemo)
    n, u = random_state(grid, seed=17)
    if u is None and not chemo:
        # a passive scalar has no tendency: the solver steps it exactly
        with pytest.raises(ContractViolation, match="passive"):
            evaluate(n, u, params, drift)
        return
    ev = evaluate(n, u, params, drift)
    rhs_n, rhs_u, max_u, max_chemo, uu_zero = oracle(n, u, params, drift)
    mask = off_nyquist(grid)

    assert_close(ev.rhs_n, rhs_n, mask)
    assert_mirror_exact(ev.rhs_n, grid)
    assert ev.max_u == pytest.approx(max_u, rel=1e-12, abs=0.0)
    assert ev.max_chemo == pytest.approx(max_chemo, rel=1e-12, abs=0.0)
    if u is None:
        assert ev.rhs_u is None and ev.uu_zero is None
        return
    assert_close(ev.rhs_u, rhs_u, mask)
    assert_mirror_exact(ev.rhs_u, grid)
    cross = grid.cross_section()
    # the tracker's input is the band box: its dealiased advection reads no other mode
    for got, want in zip(fill(place(ev.uu_zero, cross), cross), uu_zero):
        assert_close(got, want * dealias_mask(cross), off_nyquist(cross))


@pytest.mark.parametrize("grid", [GRID2, GRID3])
def test_k1_zero_plane_hermitian_in_band(grid):
    params = run_params(grid, A=3.0)
    n, u = random_state(grid, seed=5)
    ev = evaluate(n, u, params, 0.37)
    mask = dealias_mask(grid)
    for out in (ev.rhs_n,) if u is None else (ev.rhs_n, ev.rhs_u):
        scale = np.max(np.abs(out * mask))
        defect = np.max(np.abs((out - conj_reverse(out, grid.dim)) * mask))
        assert defect <= 1e-13 * scale


def same_bits(got, want):
    """Bit for bit: equal values and equal sign bits (no NaN here)."""
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got.real), np.signbit(want.real))
            and np.array_equal(np.signbit(got.imag), np.signbit(want.imag)))


# sides 24 (divisible by 3) and 32 (not); 2D chemotaxis, 3D coupled with the
# tilt at three drifts, and 3D chemotaxis alone
MASKED_CASES = [(side, dim, velocity, drift) for side in (24, 32)
                for dim, velocity, drift in ((2, False, 0.37), (3, True, 0.0), (3, True, 0.37),
                                             (3, True, -0.8), (3, False, 0.37))]


@pytest.mark.parametrize("side,dim,velocity,drift", MASKED_CASES)
def test_band_box_equals_masked_assembly(side, dim, velocity, drift):
    grid = GridSpec((side,) * dim)
    params = run_params(grid, A=7.0, enable_velocity=velocity)
    n, u = random_state(grid, seed=23)
    n_h = halve(n.coeffs, grid)
    u_h = halve(u.coeffs, grid) if velocity else None
    ev = _evaluate(n_h, u_h, params, drift)
    ref = masked_evaluate(n_h, u_h, params, drift)
    band = halve(dealias_mask(grid), grid)
    for name in ("rhs_n", "rhs_u"):
        got, want = getattr(ev, name), getattr(ref, name)
        if want is None:
            assert got is None and not velocity
            continue
        assert np.array_equal(got, want)
        assert same_bits(got[..., band], want[..., band])
    assert (ev.max_u, ev.max_chemo) == (ref.max_u, ref.max_chemo)
    assert (ev.uu_zero is None) == (ref.uu_zero is None) == (not velocity)
    if velocity:
        assert same_bits(ev.uu_zero, ref.uu_zero)


def test_tracked_coupled_run_equals_masked_assembly(monkeypatch):
    cfg = parse_config((CONFIGS / "suppression_3d.conf").read_text()
                       + "\nnx = 16\nny = 16\nnz = 16\n")
    params = params_of(cfg)

    def twenty_steps():
        state = build_initial_state(cfg)
        tracker = DecompositionTracker.start(params, state)
        out = []
        for _ in range(20):
            state, info = step(state, params, tracker=tracker)
            out.append((state, vars(info), tracker.parts.coeffs))
        return out

    ours = twenty_steps()
    monkeypatch.setattr(solver, "_evaluate", masked_evaluate)
    for (state, info, parts), (ref, ref_info, ref_parts) in zip(ours, twenty_steps()):
        assert info == ref_info
        assert (state.t, state.frame) == (ref.t, ref.frame)
        assert np.array_equal(state.n.coeffs, ref.n.coeffs)
        assert np.array_equal(state.u.coeffs, ref.u.coeffs)
        assert np.array_equal(parts, ref_parts)


@pytest.mark.parametrize("grid", [GRID3, GridSpec((24, 24, 24))], ids=["16x12x20", "24^3"])
@pytest.mark.parametrize("drift", [0.0, 0.37, -0.8])
def test_one_projection_equals_the_two_step_form(grid, drift):
    # onto k.u = k1 u2 on a sheared frame's half mesh: Leray's projection
    # plus grad lap^-1 dx u2, to round-off, and the target met
    mesh = shear.frame(grid, drift, True).mesh
    rng = np.random.default_rng(29)
    rhs, u2 = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
               for s in ((3, *grid.half_shape), grid.half_shape))
    got = leray_coeffs(rhs.copy(), mesh, mesh[0] * u2)
    want = two_step_projection(rhs, u2, mesh)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    excess = sum(m * g for m, g in zip(mesh, got)) - mesh[0] * u2
    assert np.max(np.abs(excess)) <= 1e-14 * np.max(np.abs(mesh[0] * u2))
