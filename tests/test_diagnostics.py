"""Vorticity diagnostics, energy ledger, decomposition tracker, kappa/rho."""

import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from shearks import diagnostics
from shearks.config import params_of, parse_config
from shearks.diagnostics import (
    DecompositionTracker,
    EnergyLedger,
    compute_kappa_rho,
    energy_report,
    kappa_identity_residual,
    kappa_values,
    ledger_update,
)
from shearks.initial import build_initial_state
from shearks.modes import split_x
from shearks.sampling import gaussian_bump, random_smooth
from shearks.shear import ShearFrame
from shearks.solver import State, run, step
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    l2_norm,
    leray_project,
    values_of,
    zeros,
)

from oracles import (compute_omega2, from_values, full_spectrum_ledger, linf_norm,
                     residual_omega2, run_params, split_bar_tilde)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GRID3 = GridSpec((16, 16, 16))
CROSS = GridSpec((32, 32))


def vec_field(grid, fx=None, fy=None, fz=None):
    u = zeros(grid, components=3)
    mesh = grid.coordinate_mesh()
    for i, f in enumerate((fx, fy, fz)):
        if f is not None:
            u.half[i] = from_values(grid, f(*mesh) + np.zeros(grid.shape)).half
    return u


class TestVorticity:
    def test_dz_u1(self):
        u = vec_field(GRID3, fx=lambda x, y, z: np.sin(z))
        w = compute_omega2(u)
        _, _, z = GRID3.coordinate_mesh()
        assert np.max(np.abs(values_of(w) - np.cos(z))) < 1e-13

    def test_u2_only_has_no_omega2(self):
        u = vec_field(GRID3, fy=lambda x, y, z: np.sin(y))
        assert np.max(np.abs(compute_omega2(u).coeffs)) < 1e-15

    def test_dx_u3_sign(self):
        u = vec_field(GRID3, fz=lambda x, y, z: np.sin(x))
        x, _, _ = GRID3.coordinate_mesh()
        assert np.max(np.abs(values_of(compute_omega2(u)) + np.cos(x))) < 1e-13

    def test_dim_guard(self):
        with pytest.raises(ContractViolation):
            compute_omega2(zeros(GridSpec((16, 16)), components=2))


# 16^3 is too coarse for the spectral-tail gate; these tests target
# decomposition and residual fidelity, not blow-up detection
sheared_3d_params = partial(run_params, grid=GRID3, A=8.0, enable_shear=True, t_end=1.0,
                            dt_max=0.01, output_every=0.2, track_energies=False,
                            monitor_tail=False)


def smooth_3d_state(seed=0, u_scale=0.05, grid=GRID3):
    n = gaussian_bump(grid, width=0.9, mass=8.0)
    u = leray_project(random_smooth(grid, seed=seed, components=3))
    u.half *= u_scale
    return State(t=0.0, n=n, u=u, frame=ShearFrame())


class TestResidualOmega2:
    def test_equilibrium_zero_residual(self):
        params = sheared_3d_params(fixed_dt=1e-3)
        n = from_values(GRID3, np.full(GRID3.shape, 1.0))
        state = State(t=0.0, n=n, u=zeros(GRID3, components=3), frame=ShearFrame())
        after, _ = step(state, params)
        assert residual_omega2(state, after, params) < 1e-12

    def test_second_order_in_dt(self):
        resids = []
        for dt in (4e-3, 2e-3, 1e-3):
            params = sheared_3d_params(fixed_dt=dt)
            state = smooth_3d_state()
            after, _ = step(state, params)
            resids.append(residual_omega2(state, after, params))
        orders = [np.log2(resids[i] / resids[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_grid_mismatch_rejected(self):
        params = sheared_3d_params(fixed_dt=1e-3)
        state = smooth_3d_state()
        other = State(t=0.1, n=zeros(GridSpec((8, 8, 8))),
                      u=zeros(GridSpec((8, 8, 8)), components=3), frame=ShearFrame())
        with pytest.raises(ContractViolation):
            residual_omega2(state, other, params)


class TestKappaRho:
    def test_zero_bad_part(self):
        kr = compute_kappa_rho(zeros(CROSS), A=10.0)
        assert np.max(np.abs(kr.kappa_values)) == 0.0
        assert np.max(np.abs(kr.rho1_values)) == 0.0
        assert np.max(np.abs(kr.rho2_values)) == 0.0

    def test_hand_computed_sine(self):
        # U2/A = eps sin z: kappa = eps cos z / 1, rho from dyk = 0, dzk = -eps sin z
        eps, A = 0.05, 20.0
        _, z = CROSS.coordinate_mesh()
        U2 = from_values(CROSS, A * eps * np.sin(z) + np.zeros(CROSS.shape))
        kr = compute_kappa_rho(U2, A)
        kv = eps * np.cos(z) + np.zeros(CROSS.shape)
        assert np.max(np.abs(kr.kappa_values - kv)) < 1e-10
        rho1 = -eps ** 2 * np.sin(z) * np.cos(z) / (1 + kv ** 2)
        rho2 = -eps * np.sin(z) / (1 + kv ** 2)
        assert np.max(np.abs(kr.rho1_values - rho1)) < 1e-10
        assert np.max(np.abs(kr.rho2_values - rho2)) < 1e-10

    def test_denominator_guard(self):
        _, _ = CROSS.coordinate_mesh()
        y, _ = CROSS.coordinate_mesh()
        U2 = from_values(CROSS, -2.0 * np.sin(y) + np.zeros(CROSS.shape))
        with pytest.raises(ContractViolation, match="1/2"):
            compute_kappa_rho(U2, A=1.0)
        with pytest.raises(ContractViolation, match="1/2"):
            kappa_values(U2, A=1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_residual_random(self, seed):
        A = 30.0
        U2 = random_smooth(CROSS, seed=seed, slope=3.0)
        grad_max = max(np.max(np.abs(values_of(SpectralField(CROSS, c))))
                       for c in (U2.coeffs,))
        U2.half *= 0.1 * A / max(grad_max, 1e-30)
        kr = compute_kappa_rho(U2, A)
        assert np.array_equal(kappa_values(U2, A), kr.kappa_values)  # the ledger's path
        grid3 = GridSpec((16, 32, 32))
        u3 = split_x(random_smooth(grid3, seed=seed + 100))[1]
        assert kappa_identity_residual(kr, u3) < 1e-10


class TestDecompositionTracker:
    def test_sum_matches_u1_zero_mode(self):
        params = sheared_3d_params(track_decomposition=True, track_energies=False,
                                   fixed_dt=5e-3, t_end=0.5, output_every=0.1)
        state = smooth_3d_state(seed=2, u_scale=0.05)
        result = run(params, state)
        assert result.status == "suppressed"
        tracker = result.tracker
        u1_0 = split_x(result.final_state.u.component(0))[0]
        diff = l2_norm(SpectralField(tracker.cross,
                                     tracker.G1.coeffs + tracker.B1.coeffs
                                     + tracker.B2.coeffs - u1_0.coeffs))
        assert diff <= 1e-6 * max(l2_norm(u1_0), 1e-30)
        # round-off level in practice
        assert diff <= 1e-11 * max(l2_norm(u1_0), 1e-30)

    def test_bar_b1_exact_linear_growth(self):
        params = sheared_3d_params(track_decomposition=True, fixed_dt=5e-3,
                                   t_end=0.5, output_every=0.1)
        state = smooth_3d_state(seed=3)
        nbar = state.n.coeffs[0, 0, 0].real
        result = run(params, state)
        expected = nbar * result.final_state.t / params.A
        assert split_bar_tilde(result.tracker.B1)[0] == pytest.approx(expected, rel=1e-12)

    def test_bar_b2_tracks_mean_u2(self):
        params = sheared_3d_params(track_decomposition=True, fixed_dt=5e-3,
                                   t_end=0.4, output_every=0.1)
        state = smooth_3d_state(seed=4)
        ubar2 = 0.02
        state.u.half[1, 0, 0, 0] = ubar2  # constant mean of u2
        result = run(params, state)
        t = result.final_state.t
        # mean of u2 is conserved, so bar(B2) = -ubar2 * t exactly
        assert result.final_state.u.coeffs[1, 0, 0, 0].real == pytest.approx(ubar2, rel=1e-10)
        assert split_bar_tilde(result.tracker.B2)[0] == pytest.approx(-ubar2 * t, rel=1e-10)

    def test_pure_forcing_case(self):
        # n constant, u = 0: B1 = (nbar/A) t exactly, G1 = B2 = 0
        params = sheared_3d_params(track_decomposition=True, fixed_dt=2e-3,
                                   t_end=0.2, output_every=0.05)
        n = from_values(GRID3, np.full(GRID3.shape, 2.0))
        state = State(t=0.0, n=n, u=zeros(GRID3, components=3), frame=ShearFrame())
        result = run(params, state)
        t = result.final_state.t
        tr = result.tracker
        assert split_bar_tilde(tr.B1)[0] == pytest.approx(2.0 * t / params.A, rel=1e-12)
        assert np.max(np.abs(tr.G1.coeffs)) < 1e-14
        assert np.max(np.abs(tr.B2.coeffs)) < 1e-14

    def test_g1_is_heat_flow_of_initial_streamwise_mode(self):
        # n constant and only a u1 zero mode present: G1 undergoes pure heat decay
        params = sheared_3d_params(track_decomposition=True, fixed_dt=2e-3,
                                   t_end=0.2, output_every=0.05)
        n = from_values(GRID3, np.full(GRID3.shape, 1.0))
        _, y, _ = GRID3.coordinate_mesh()
        u = zeros(GRID3, components=3)
        u.half[0] = from_values(GRID3, 0.1 * np.sin(y) + np.zeros(GRID3.shape)).half
        result = run(params, State(t=0.0, n=n, u=u, frame=ShearFrame()))
        t = result.final_state.t
        tr = result.tracker
        cross = tr.cross
        expect = 0.1 * np.exp(-t / params.A)  # |k| = 1 heat factor
        amplitude = -2.0 * tr.G1.coeffs[1, 0].imag  # sin y coefficient is -i/2 amp
        assert amplitude == pytest.approx(expect, rel=1e-10)


class TestEnergyLedger:
    def test_weights_admissible(self):
        # the functionals need one weight pair with 0 < a < b < 2a
        a, b = EnergyLedger.A_WEIGHT, EnergyLedger.B_WEIGHT
        assert 0.0 < a < b < 2.0 * a

    def test_zero_fields_report_zero(self):
        ledger = EnergyLedger(A=100.0)
        report = energy_report(ledger)
        assert set(report) == {"E11", "E12", "E21", "E22", "E3", "E4", "E51", "E52"}
        assert all(v == 0.0 for v in report.values())

    def test_static_unweighted_accumulators(self):
        # constant field, weight 0: sup stays fixed, time integral grows linearly
        ledger = EnergyLedger(A=1.0)
        tr = ledger.track("q", weight=0.0)
        l2sq = 2 * np.pi ** 2  # ||sin x||^2
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            tr.observe(t, l2sq, l2sq, 0.0)
        assert tr.sup == pytest.approx(l2sq)
        assert tr.ints[0] == pytest.approx(2.0 * l2sq, rel=1e-12)

    def test_weighted_cancellation(self):
        # field decaying exactly like e^{-wt}: weighted sup accumulator constant
        ledger = EnergyLedger(A=1000.0)
        w = ledger.wa
        tr = ledger.track("q", weight=w)
        base = 3.7
        sups = []
        for t in np.linspace(0.0, 5.0, 11):
            val = base * np.exp(-2.0 * w * t)
            tr.observe(t, val, 0.0, 0.0)
            sups.append(tr.sup)
        assert max(sups) - min(sups) <= 1e-8 * base

    def test_lap_u2_term_hand_value(self):
        # u2 = sin(x + z) has |k|^2 = 2, so ||lap u2||^2 = 4 ||u2||^2 = 16 pi^3
        params = sheared_3d_params(enable_shear=False, track_energies=True)
        n = from_values(GRID3, np.full(GRID3.shape, 1.0))
        u = vec_field(GRID3, fy=lambda x, y, z: np.sin(x + z))
        state = State(t=0.0, n=n, u=u, frame=ShearFrame())
        ledger = EnergyLedger(A=params.A)
        ledger_update(ledger, state, params, None, linf_norm(n))
        assert ledger.tracks["lap_u2_neq"].sup == pytest.approx(16 * np.pi ** 3, rel=1e-12)

    def test_zero_bad_part_matches_no_tracker(self):
        # a fresh tracker's bad part is zero, so kappa = 0 takes the frame's
        # transform path; it must report what the path without a frame does
        params = sheared_3d_params(track_energies=True, track_decomposition=True)
        state = smooth_3d_state(seed=6)
        tracker = DecompositionTracker.start(params, state)
        assert not np.any(tracker.bad_part().coeffs)
        reports = []
        for tr in (tracker, None):
            ledger = EnergyLedger(A=params.A)
            for t in (0.0, 0.5):
                ledger_update(ledger, replace(state, t=t), params, tr, linf_norm(state.n))
            reports.append(energy_report(ledger))
        for key in ("E21", "E22", "E3", "E4", "E51", "E52"):
            assert reports[0][key] == reports[1][key], key
        assert reports[0]["E52"] > 0.0

    def test_monotone_accumulators_on_run(self):
        params = sheared_3d_params(track_energies=True, track_decomposition=True,
                                   fixed_dt=5e-3, t_end=0.4, output_every=0.05)
        state = smooth_3d_state(seed=5)
        rows = run(params, state).rows
        for key in ("E3", "E21", "E11"):
            vals = [row[key] for row in rows]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert rows[-1]["E3"] > 0.0
        assert rows[-1]["E22"] > 0.0
        assert rows[-1]["E52"] > 0.0

    @pytest.mark.parametrize("shape", [(16, 16, 16), (16, 24, 12)], ids=["16^3", "16x24x12"])
    def test_half_ledger_matches_full_spectrum_oracle(self, shape, monkeypatch):
        # a coupled run with the tracker, remapped once near t = 1
        grid = GridSpec(shape)
        params = sheared_3d_params(grid=grid, track_energies=True, track_decomposition=True,
                                   t_end=1.6, output_every=0.1)
        ref = EnergyLedger(A=params.A)
        reports, epochs = [], set()

        def both(ledger, state, params, tracker, n_linf):
            ledger_update(ledger, state, params, tracker, n_linf)
            full_spectrum_ledger(ref, state, params, tracker)
            reports.append((energy_report(ledger), energy_report(ref)))
            epochs.add(state.frame.t_last_remap)
        monkeypatch.setattr(diagnostics, "ledger_update", both)
        state = smooth_3d_state(seed=7, u_scale=0.3, grid=grid)
        result = run(params, state)
        assert result.status == "suppressed" and len(reports) == 17 and len(epochs) == 2
        for new, old in reports:
            assert new["E3"] == old["E3"]
            for key, value in old.items():
                assert abs(new[key] - value) <= 1e-13 * abs(value), key
        assert all(value > 0.0 for value in reports[-1][1].values())
        # the tracker on this grid: G1 + B1 + B2 = u1_0 and bar(B1) = mean(n) t / A
        tracker, final = result.tracker, result.final_state
        u1_0 = split_x(final.u.component(0))[0]
        parts = tracker.G1.coeffs + tracker.B1.coeffs + tracker.B2.coeffs
        assert l2_norm(SpectralField(tracker.cross, parts - u1_0.coeffs)) \
            <= 1e-13 * l2_norm(u1_0)
        nbar = state.n.coeffs[(0, 0, 0)].real
        assert split_bar_tilde(tracker.B1)[0] == pytest.approx(nbar * final.t / params.A,
                                                               rel=1e-13)

    def test_ledger_transient_below_twelve_full_fields(self):
        # tracemalloc peak of one sample above live memory, 24^3 coupled state
        cfg = parse_config((CONFIGS / "suppression_3d.conf").read_text()
                           + "\nnx = 24\nny = 24\nnz = 24\n")
        params = params_of(cfg)
        state = build_initial_state(cfg)
        tracker = DecompositionTracker.start(params, state)
        for _ in range(3):
            state, _ = step(state, params, tracker=tracker)
        ledger = EnergyLedger(A=params.A)
        n_linf = linf_norm(state.n)
        ledger_update(ledger, state, params, tracker, n_linf)  # caches and transform threads
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            ledger_update(ledger, state, params, tracker, n_linf)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak < 12 * 16 * params.grid.size
