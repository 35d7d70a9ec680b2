"""Shear-frame kinematics, the propagator and remap, and the exact scalar oracle."""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from shearks import shear
from shearks.modes import split_x
from shearks.shear import ShearFrame, _shear_exponent, integrating_factor, linear_step
from shearks.solver import _step_operator
from shearks.spectral import GridSpec, SpectralField, fill, halve, l2_norm, values_of

from oracles import (dealias_mask, exact_passive_scalar, expression_factor,
                     fancy_remap_rows, from_values, full_k_mesh,
                     full_k_squared, run_params)
from test_spectral import random_real_field

GRID2 = GridSpec((64, 64))
GRID3 = GridSpec((48, 48, 48))
GRID128 = GridSpec((128, 128))


passive_params = partial(run_params, enable_shear=True, enable_chemotaxis=False,
                         enable_velocity=False)


def test_frame_rejects_unremapped_drift():
    from shearks.spectral import ContractViolation

    with pytest.raises(ContractViolation, match="drift"):
        ShearFrame(drift=1.5)


class TestEffectiveWavevector:
    @staticmethod
    def at(k, drift):
        """The sheared frame mesh of a 16^3 grid at integer index k of its
        k1 >= 0 half."""
        grid = GridSpec((16, 16, 16))
        mesh = shear.frame(grid, drift, True).mesh
        return tuple(float(np.broadcast_to(m, grid.half_shape)[k]) for m in mesh)

    def test_zero_mode_unaffected(self):
        assert self.at((0, 1, 0), drift=7.3)[1] == 1.0

    def test_definition(self):
        assert self.at((1, 0, 0), drift=0.5) == (1.0, -0.5, 0.0)
        assert self.at((2, 1, 0), drift=1.0) == (2.0, -1.0, 0.0)


class TestIntegratingFactor:
    def test_no_drift_for_zero_streamwise(self):
        A, dt = 3.0, 0.7
        f = integrating_factor([0, 2, 1], 0.0, dt, drift0=0.4, A=A)
        assert f == pytest.approx(np.exp(-(4 + 1) * dt / A))

    def test_closed_form_cubic(self):
        # k=(1,0,0), drift0=0, A=1, dt=1: exponent = int_0^1 (1 + s^2) ds = 4/3
        f = integrating_factor([1, 0, 0], 0.0, 1.0, drift0=0.0, A=1.0)
        assert f == pytest.approx(np.exp(-4.0 / 3.0), rel=1e-12)

    def test_matches_quadrature(self):
        # independent oracle: numerical quadrature of |k_eff(s)|^2
        k, drift0, A, dt = (3, -2, 1), 0.35, 7.0, 2.19
        s = np.linspace(0.0, dt, 20001)
        keff2 = k[0] ** 2 + (k[1] - k[0] * (drift0 + s)) ** 2 + k[2] ** 2
        expected = np.exp(-np.trapezoid(keff2, s) / A)
        f = integrating_factor(k, 5.0, 5.0 + dt, drift0=drift0, A=A)
        assert f == pytest.approx(expected, rel=1e-9)

    def test_mesh_factor_with_k3_matches_quadrature(self):
        # the 48^3 factor is a (k1, k2) plane times a k3 line; grade modes
        # with k3 != 0 against quadrature of |k_eff(s)|^2
        drift0, A, dt = -0.65, 40.0, 0.4
        factor = np.broadcast_to(integrating_factor(full_k_mesh(GRID3), 1.0, 1.0 + dt, drift0,
                                                    A), GRID3.shape)
        rng = np.random.default_rng(7)
        idx = rng.integers(0, 48, size=(3, 64))
        idx[2] = np.where(idx[2] == 0, 47, idx[2])
        idx[:, :4] = [[1, 47, 23, 25], [47, 1, 25, 23], [1, 47, 24, 23]]
        k = [GRID3.wavenumbers(a)[idx[a]][:, None] for a in range(3)]
        assert np.all(k[2] != 0)
        s = np.linspace(0.0, dt, 40001)
        keff2 = k[0] ** 2 + (k[1] - k[0] * (drift0 + s)) ** 2 + k[2] ** 2
        expected = np.exp(-np.trapezoid(keff2, s, axis=1) / A)
        got = factor[tuple(idx)]
        assert np.max(np.abs(got / expected - 1.0)) <= 1e-9

    @pytest.mark.parametrize("dt, drift0", [(1e-3, 0.99), (0.0464, -0.9)])
    def test_shear_exponent_exact_on_grid(self, dt, drift0):
        # exact rational arithmetic on the float inputs, every mode of 128^2
        k1s, k2s = GRID128.wavenumbers(0), GRID128.wavenumbers(1)
        got = np.broadcast_to(_shear_exponent(k1s[:, None], k2s[None, :], dt, drift0),
                              GRID128.shape)
        fdt, fdrift = Fraction(dt), Fraction(drift0)
        worst = 0.0
        for i1, k1 in enumerate(k1s):
            fk1 = Fraction(int(k1))
            for i2, k2 in enumerate(k2s):
                b = int(k2) - fk1 * fdrift
                exact = fdt * (b * b - b * fk1 * fdt + fk1 * fk1 * fdt * fdt / 3)
                if exact == 0:
                    assert got[i1, i2] == 0.0
                    continue
                worst = max(worst, abs(float((Fraction(float(got[i1, i2])) - exact) / exact)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("grid", [GRID128, GRID3], ids=["128^2", "48^3"])
    def test_factor_even_in_k_bitwise(self, grid):
        # f(-k) == f(k) exactly, so the propagator keeps Hermitian symmetry;
        # the lone -n/2 rows have no mirror on the grid
        factor = np.broadcast_to(integrating_factor(full_k_mesh(grid), 0.0, 0.0464, -0.9, 50.0),
                                 grid.shape)
        mirror = factor[np.ix_(*[(-np.arange(n)) % n for n in grid.shape])]
        inner = np.ix_(*[np.flatnonzero(np.arange(n) != n // 2) for n in grid.shape])
        assert np.array_equal(factor[inner], mirror[inner])

    @pytest.mark.parametrize("dt, drift0, A", [(1e-3, 0.99, 1e2), (0.0464, -0.9, 50.0),
                                               (0.25, 0.0, 1e5), (0.37, -0.41, 7.0)])
    @pytest.mark.parametrize("grid", [GRID128, GRID3], ids=["128^2", "48^3"])
    def test_in_place_factor_is_the_expression_bitwise(self, grid, dt, drift0, A):
        for t0 in (0.0, 1.3):
            got = integrating_factor(grid.k_mesh(), t0, t0 + dt, drift0, A)
            want = expression_factor(grid.k_mesh(), t0, t0 + dt, drift0, A)
            assert got.shape == want.shape == grid.half_shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [(0, 2, 1), (1, 0, 0), (3, -2, 1), (-5, 7), (2.0, -3.0, 4.0)],
                             ids=str)
    def test_in_place_factor_takes_scalar_k(self, k):
        for dt, drift0, A in ((0.7, 0.4, 3.0), (2.19, 0.35, 7.0), (1e-3, -0.99, 1e4)):
            got = integrating_factor(k, 5.0, 5.0 + dt, drift0, A)
            want = expression_factor(k, 5.0, 5.0 + dt, drift0, A)
            assert np.ndim(got) == 0
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_shear_exponent_leaves_its_inputs(self):
        k = GRID3.k_mesh()
        before = [m.copy() for m in k]
        e = _shear_exponent(k[0], k[1], 0.3, -0.6)
        assert e.shape == GRID3.half_shape[:2] + (1,)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(k, before))


class TestRemap:
    """solver._step_operator, the one propagator, across a remap.  It takes and
    returns k1 >= 0 half spectra; ``fill`` restores the k1 < 0 half."""

    def test_identity_at_zero_drift(self):
        F = random_real_field(GRID2, seed=0)
        params = passive_params(GRID2, A=30.0)
        apply, frame = _step_operator(params, ShearFrame(), 0.0, 0.3)
        out, dropped = apply(halve(F.coeffs, GRID2))
        factor = integrating_factor(GRID2.k_mesh(), 0.0, 0.3, 0.0, 30.0)
        assert frame == ShearFrame(drift=0.3)
        assert np.array_equal(out, halve(F.coeffs, GRID2) * factor)
        assert dropped == 0.0

    def test_single_mode_relabelled(self):
        full = np.zeros(GRID2.shape, dtype=np.complex128)
        full[1, 0] = full[-1, 0] = 0.5
        F = SpectralField(GRID2, full)
        # A so large that the factor is exactly one: a pure relabelling
        apply, frame = _step_operator(passive_params(GRID2, A=1e30), ShearFrame(drift=0.5),
                                      2.0, 0.5)
        out, dropped = apply(halve(F.coeffs, GRID2))
        out = fill(out, GRID2)
        assert frame == ShearFrame(t_last_remap=2.5, drift=0.0)
        assert dropped == 0.0
        # the sheared wave e^{i(x - y)} is now stored at its physical index
        assert out[1, -1] == 0.5
        assert out[-1, 1] == 0.5
        assert abs(out[1, 0]) == 0.0

    def test_dropped_energy_logged(self):
        kmax = GRID2.shape[1] // 2 - 1
        full = np.zeros(GRID2.shape, dtype=np.complex128)
        full[2, -kmax] = full[-2, kmax] = 1.0
        F = SpectralField(GRID2, full)
        apply, _ = _step_operator(passive_params(GRID2, A=1e30), ShearFrame(drift=0.5),
                                  0.0, 0.5)
        out, dropped = apply(halve(F.coeffs, GRID2))  # shifts k2 to -(kmax + 2), off the band
        assert dropped == pytest.approx(2 * GRID2.volume)
        assert np.max(np.abs(out)) == 0.0

    def test_shift_two_matches_oracle(self):
        # drift 0.9 + dt 0.7 = 1.6 relabels by two rows in one step
        F = random_real_field(GRID2, seed=5)
        A = 20.0
        apply, frame = _step_operator(passive_params(GRID2, A=A), ShearFrame(drift=0.9), 0.0, 0.7)
        out, dropped = apply(halve(F.coeffs, GRID2))
        out = fill(out, GRID2)
        exact, drift, exact_dropped = exact_passive_scalar(F, 0.7, A, drift0=0.9)
        assert frame.drift == pytest.approx(-0.4, abs=1e-15)
        assert drift == pytest.approx(frame.drift, abs=1e-15)
        assert np.max(np.abs(out - exact.coeffs)) <= 1e-14 * np.max(np.abs(exact.coeffs))
        assert dropped > 0.0
        assert dropped == pytest.approx(exact_dropped, rel=1e-12)

    def test_vector_field_gathers_every_component(self):
        # a 3-component 48^3 field: the gather runs over the leading axis too
        U = random_real_field(GRID3, seed=6, components=3)
        A = 50.0
        apply, frame = _step_operator(passive_params(GRID3, A=A), ShearFrame(drift=0.8), 0.0, 0.4)
        out, dropped = apply(halve(U.coeffs, GRID3))
        out = fill(out, GRID3)
        total = 0.0
        for c in range(3):
            exact, drift, d = exact_passive_scalar(U.component(c), 0.4, A, drift0=0.8)
            assert drift == pytest.approx(frame.drift)
            assert np.max(np.abs(out[c] - exact.coeffs)) <= 1e-14 * np.max(np.abs(exact.coeffs))
            total += d
        assert dropped > 0.0
        assert dropped == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("grid", [GridSpec((16, 16)), GridSpec((16, 24, 12))], ids=str)
    def test_stages_with_rhs_and_after_across_a_remap(self, grid):
        # drift 0.9 + dt 0.2 = 1.1 relabels by one row; the Heun stages' rhs
        # and after must not leak into modes the gather leaves empty
        A, dt, h, shift = 10.0, 0.2, 0.1, 1
        rng = np.random.default_rng(4)
        shape = (grid.dim, *grid.half_shape)
        base, rhs, after = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                            for _ in range(3))
        apply, new_frame = linear_step(grid, A, ShearFrame(drift=0.9), 0.0, dt, sheared=True)
        assert new_frame.t_last_remap == dt
        got, _ = apply(base, rhs, h, after)

        x = (base + h * rhs) * integrating_factor(grid.k_mesh(), 0.0, dt, 0.9, A)
        want = np.zeros(shape, dtype=np.complex128)
        n2 = grid.shape[1]
        k1, k2 = grid.k_mesh()[0].ravel().astype(int), grid.wavenumbers(1).astype(int)
        for i in range(len(k1)):
            for j in range(n2):
                new = k2[j] - k1[i] * shift
                if abs(new) <= n2 // 2 - 1:
                    want[:, i, new % n2] = x[:, i, j]
        want += h * after
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pieces", [1, 4], ids=["one slab", "four slabs"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["scalar", "3 components"])
    @pytest.mark.parametrize("grid", [GridSpec((16, 16)), GridSpec((16, 24, 12))], ids=str)
    @pytest.mark.parametrize("shift", [1, -1])
    def test_flat_gather_is_the_fancy_index_bitwise(self, grid, lead, shift, pieces):
        rng = np.random.default_rng(9)
        shape = lead + grid.half_shape
        scaled = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got, want = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
        src, dst, _ = shear._remap_gather(grid, shift)
        n = grid.half_shape[0]
        edges = [n * i // pieces for i in range(pieces + 1)]
        for a, b in zip(edges, edges[1:]):
            s = slice(a, b)
            shear._remap_rows(got, scaled, s, src, dst, grid)
            fancy_remap_rows(want, scaled, s, grid, shift)
        assert got.tobytes() == want.tobytes()
        # every kept mode moved, each to its own place
        assert np.count_nonzero(got) == len(src) * int(np.prod(lead + grid.shape[2:]))


class TestLinearStep:
    """shear.linear_step without shear is the decomposition tracker's step:
    its predictor and corrector are the heat factor's inline Heun
    arithmetic bit for bit."""

    def test_unsheared_heun_stages(self):
        cross, A, dt = GridSpec((16, 12)), 1e4, 0.05
        rng = np.random.default_rng(8)
        shape = (3, 9, 12)
        p, r1, r2 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                     for _ in range(3))
        apply, frame = linear_step(cross, A, ShearFrame(drift=0.4), 0.0, dt, sheared=False)
        assert frame == ShearFrame(drift=0.4)
        heat = np.exp(-cross.k_squared() * dt / A)
        pred, lost = apply(p, r1, dt)
        assert pred.tobytes() == (heat * (p + dt * r1)).tobytes() and lost == 0.0
        new, lost = apply(p, r1, 0.5 * dt, r2)
        want = heat * (p + 0.5 * dt * r1) + 0.5 * dt * r2
        assert new.tobytes() == want.tobytes() and lost == 0.0


class TestExactScalarEvolve:
    def test_heat_decay_of_zero_mode(self):
        _, y = GRID2.coordinate_mesh()
        F = from_values(GRID2, np.cos(y) + np.zeros(GRID2.shape))
        out, _, _ = exact_passive_scalar(F, t=100.0, A=100.0)
        assert np.max(np.abs(values_of(out) - np.cos(y) * np.e ** -1)) < 1e-12

    def test_constant_invariant(self):
        F = from_values(GRID2, np.full(GRID2.shape, 2.5))
        out, _, _ = exact_passive_scalar(F, t=17.0, A=10.0)
        assert np.max(np.abs(out.coeffs - F.coeffs)) < 1e-14

    def test_cos_x_norm_decay(self):
        x, _ = GRID2.coordinate_mesh()
        F = from_values(GRID2, np.cos(x) + np.zeros(GRID2.shape))
        A, t = 50.0, 3.0
        out, _, _ = exact_passive_scalar(F, t=t, A=A)
        expected = l2_norm(F) * np.exp(-(t + t ** 3 / 3.0) / A)
        assert l2_norm(out) == pytest.approx(expected, abs=1e-10 * l2_norm(F))

    def test_semigroup_across_remap(self):
        F = random_real_field(GRID2, seed=3)
        A = 40.0
        one, drift1, d1 = exact_passive_scalar(F, t=0.8, A=A)
        two, drift2, d2 = exact_passive_scalar(one, t=0.9, A=A, drift0=drift1)
        direct, drift3, d3 = exact_passive_scalar(F, t=1.7, A=A)
        assert drift2 == pytest.approx(drift3)
        assert np.max(np.abs(two.coeffs - direct.coeffs)) < 1e-11

    def test_nonzero_mode_norm_nonincreasing(self):
        F = random_real_field(GRID2, seed=4)
        _, fneq = split_x(F)
        last = l2_norm(fneq)
        drift = 0.0
        cur = fneq
        for _ in range(6):
            cur, drift, _ = exact_passive_scalar(cur, t=0.5, A=30.0, drift0=drift)
            now = l2_norm(cur)
            assert now <= last + 1e-12
            last = now

    def test_tilde_zero_mode_exact_unit_rate(self):
        # single k2^2 + k3^2 = 1 mode decays at exactly e^{-t/A} <= e^{-t/(2A)}
        _, y = GRID2.coordinate_mesh()
        F = from_values(GRID2, np.sin(y) + np.zeros(GRID2.shape))
        A = 25.0
        out, _, _ = exact_passive_scalar(F, t=5.0, A=A)
        ratio = l2_norm(out) / l2_norm(F)
        assert ratio == pytest.approx(np.exp(-5.0 / A), rel=1e-12)
        assert ratio <= np.exp(-5.0 / (2 * A))


def measured_efold_rate(A, grid):
    """e-folding rate of the non-zero-mode L2 norm for broadband data."""
    rng = np.random.default_rng(99)
    raw = rng.standard_normal(grid.shape)
    F = from_values(grid, raw)
    k2 = full_k_squared(grid)
    coeffs = F.coeffs * np.where(k2 > 0, (1.0 + k2) ** -1.0, 0.0)
    kx = full_k_mesh(grid)[0]
    coeffs = np.where(np.abs(kx) > 0, coeffs, 0.0)  # strip the zero mode
    coeffs *= dealias_mask(grid)
    from shearks.spectral import hermitize

    F = hermitize(SpectralField(grid, coeffs))
    n0 = l2_norm(F)
    params = passive_params(grid, A=A)
    frame = ShearFrame()
    t, dt = 0.0, 0.05 * A ** (1 / 3)
    cur = halve(F.coeffs, grid)
    prev_t, prev_norm = 0.0, n0
    for _ in range(2000):
        apply, frame = _step_operator(params, frame, t, dt)
        cur, _ = apply(cur)
        t += dt
        norm = l2_norm(SpectralField(grid, fill(cur, grid)))
        if norm <= n0 / np.e:
            # log-linear interpolation of the crossing
            w = (np.log(n0 / np.e) - np.log(prev_norm)) / (np.log(norm) - np.log(prev_norm))
            return 1.0 / (prev_t + w * (t - prev_t))
        prev_t, prev_norm = t, norm
    raise AssertionError("no e-folding within horizon")


def test_enhanced_dissipation_scaling():
    grid = GridSpec((64, 64))
    As = np.array([1e2, 1e3, 1e4, 1e5])
    rates = np.array([measured_efold_rate(A, grid) for A in As])
    slope = np.polyfit(np.log(As), np.log(rates), 1)[0]
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.1)
