"""Solver tendencies, stepping, conservation and run outcomes."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shearks import diagnostics, inequalities, solver, spectral
from shearks.config import params_of, parse_config
from shearks.inequalities import free_energy
from shearks.initial import build_initial_state
from shearks.sampling import fluctuation_only, gaussian_bump, random_smooth
from shearks.scenarios import run_simulate
from shearks.shear import ShearFrame, frame_k_mesh
from shearks.solver import (
    BlowupMonitor,
    Params,
    StageEval,
    State,
    choose_dt,
    run,
    step,
    tendency,
)
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    divergence,
    fill,
    halve,
    l2_norm,
    leray_project,
    values_of,
    zeros,
)

from oracles import (
    PerFieldTracker,
    exact_passive_scalar,
    from_values,
    full_band_hermitian,
    full_spectrum_step,
    linf_norm,
    min_principle_check,
    min_value,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GRID2 = GridSpec((32, 32))
GRID3 = GridSpec((16, 16, 16))


def make_params(grid, **kw):
    defaults = dict(
        amplitude=1.0, enable_shear=False, enable_chemotaxis=True,
        enable_velocity=(grid.dim == 3), t_end=1.0, dt_max=0.01,
        output_every=0.25, track_energies=False,
    )
    defaults.update(kw)
    return Params(grid=grid, **defaults)


def make_state(grid, n, u=None):
    return State(t=0.0, n=n, u=u, frame=ShearFrame())


def rhs(n, u, A, **kw):
    """tendency of full fields on the integer lattice; its tendencies are
    k1 >= 0 half spectra."""
    grid = n.grid
    return tendency(halve(n.coeffs, grid), None if u is None else halve(u.coeffs, grid), grid,
                    A, grid.k_mesh(), **kw)


class TestParamsValidation:
    def test_amplitude_constraint(self):
        with pytest.raises(ValueError, match="A must be >= 1"):
            make_params(GRID2, amplitude=0.5)

    def test_2d_has_no_fluid(self):
        with pytest.raises(ValueError, match="2D"):
            make_params(GRID2, enable_velocity=True)


class TestRhsDensity:
    def test_constant_density_is_fixed_point(self):
        n = from_values(GRID2, np.full(GRID2.shape, 2.0))
        out = rhs(n, None, A=1.0).rhs_n
        assert np.max(np.abs(out)) < 1e-14

    def test_cos_y_hand_value(self):
        # n = 1 + cos y, u = 0: tendency is (cos y + cos 2y)/A
        _, y = GRID2.coordinate_mesh()
        n = from_values(GRID2, 1.0 + np.cos(y) + np.zeros(GRID2.shape))
        A = 3.0
        out = SpectralField(GRID2, fill(rhs(n, None, A=A).rhs_n, GRID2))
        expected = (np.cos(y) + np.cos(2 * y)) / A + np.zeros(GRID2.shape)
        assert np.max(np.abs(values_of(out) - expected)) < 1e-10

    def test_mean_preserved(self):
        n = random_smooth(GRID3, seed=1)
        n.coeffs[0, 0, 0] = 1.0
        u = leray_project(random_smooth(GRID3, seed=2, components=3))
        out = rhs(n, u, A=2.0).rhs_n
        assert abs(out[0, 0, 0]) < 1e-14


class TestRhsVelocity:
    def test_constant_density_zero_velocity(self):
        n = from_values(GRID3, np.full(GRID3.shape, 1.5))
        u = zeros(GRID3, components=3)
        A = 4.0
        out = rhs(n, u, A, chemotaxis=False).rhs_u
        # projected forcing (n/A) e1 keeps only its mean; mean u1 grows at nbar/A
        assert out[0][0, 0, 0] == pytest.approx(1.5 / A)
        off = out.copy()
        off[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    def test_shear_profile_is_equilibrium(self):
        _, y, _ = GRID3.coordinate_mesh()
        u = zeros(GRID3, components=3)
        u.coeffs[0] = from_values(GRID3, np.sin(y) + np.zeros(GRID3.shape)).coeffs
        n = zeros(GRID3)
        out = rhs(n, u, A=2.0, chemotaxis=False).rhs_u
        assert np.max(np.abs(out)) < 1e-13

    def test_divergence_free_output(self):
        n = random_smooth(GRID3, seed=3)
        u = leray_project(random_smooth(GRID3, seed=4, components=3))
        out = SpectralField(GRID3, fill(rhs(n, u, A=1.5, chemotaxis=False).rhs_u, GRID3))
        assert l2_norm(divergence(out)) <= 1e-12 * max(l2_norm(out), 1e-30)


class TestStep:
    def test_constant_state_invariant(self):
        params = make_params(GRID2, fixed_dt=1e-3)
        n = from_values(GRID2, np.full(GRID2.shape, 1.0))
        state = make_state(GRID2, n)
        new, info = step(state, params)
        assert np.max(np.abs(new.n.coeffs - n.coeffs)) < 1e-13

    def test_homogeneous_equilibrium_3d(self):
        params = make_params(GRID3, enable_shear=True, fixed_dt=1e-3, amplitude=10.0)
        n = from_values(GRID3, np.full(GRID3.shape, 1.0))
        u = zeros(GRID3, components=3)
        state = make_state(GRID3, n, u)
        for _ in range(5):
            state, _ = step(state, params)
        # density untouched; mean u1 undergoes the exact lift-up drift nbar t / A
        off = state.n.coeffs.copy()
        off[0, 0, 0] = 0
        assert np.max(np.abs(off)) < 1e-13
        assert state.u.coeffs[0][0, 0, 0].real == pytest.approx(state.t / 10.0, rel=1e-12)
        rest = state.u.coeffs.copy()
        rest[0, 0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-13

    def test_mass_conservation_many_steps(self):
        params = make_params(GRID2, fixed_dt=2e-3)
        n = gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)
        state = make_state(GRID2, n)
        m0 = state.n.coeffs[0, 0].real
        for _ in range(200):
            state, _ = step(state, params)
        assert abs(state.n.coeffs[0, 0].real - m0) <= 1e-10 * abs(m0)

    def test_divergence_free_every_step(self):
        params = make_params(GRID3, enable_shear=True, amplitude=5.0, fixed_dt=5e-3)
        n = gaussian_bump(GRID3, width=0.8, mass=10.0)
        u = leray_project(random_smooth(GRID3, seed=5, components=3))
        u.coeffs *= 0.1
        assert np.any(n.coeffs[lone_nyquist(GRID3)])  # the input carries Nyquist content
        state = make_state(GRID3, n, u)
        for _ in range(10):
            state, _ = step(state, params)
            mesh = frame_k_mesh(params, state.frame.drift)
            div = divergence(state.u, k_mesh=mesh)
            u_l2 = max(l2_norm(state.u), 1e-30)
            assert l2_norm(div) <= 1e-10 * u_l2
            # every mode, not only the sum: sqrt(|T|) |div_k| is that mode's L2 share
            assert np.sqrt(GRID3.volume) * np.max(np.abs(div.coeffs)) <= 1e-10 * u_l2
            assert_real_by_construction(state.n)
            assert_real_by_construction(state.u)


def lone_nyquist(grid):
    """The lone k_a = -n_a/2 rows of every axis."""
    mask = np.zeros(grid.shape, dtype=bool)
    for a, k in enumerate(grid.k_mesh()):
        mask |= k == -(grid.shape[a] // 2)
    return mask


def assert_real_by_construction(F):
    """Empty lone Nyquist rows and a Hermitian spectrum, bit for bit."""
    lead = (slice(None),) * (F.coeffs.ndim - F.grid.dim)
    assert not np.any(F.coeffs[lead + (lone_nyquist(F.grid),)])
    assert np.array_equal(F.coeffs, spectral.conj_reverse(F.coeffs, F.grid.dim))


class TestInitialStates:
    """Initial states are completed like step outputs: real by construction."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("init_kind", ["gaussian", "random"])
    def test_density(self, dim, init_kind):
        cfg = parse_config(f"dim = {dim}\nnx = 16\nny = 16\nnz = {16 if dim == 3 else 0}\n"
                           f"enable_velocity = false\nmass = 10\ninit_kind = {init_kind}\n"
                           "init_seed = 4\n")
        n = build_initial_state(cfg).n
        assert_real_by_construction(n)
        assert spectral.total_mass(n) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("u_kind", ["zero_mode", "random"])
    def test_velocity(self, u_kind):
        cfg = parse_config(f"dim = 3\nnx = 16\nny = 16\nnz = 16\nmass = 10\nu_kind = {u_kind}\n"
                           "u_eps = 0.01\nu_amplitude = 0.05\nu_seed = 5\n")
        u = build_initial_state(cfg).u
        assert_real_by_construction(u)
        assert l2_norm(divergence(u)) <= 1e-14 * l2_norm(u)
        assert np.any(u.coeffs[:, 0]) and np.any(u.coeffs[:, 1:]) == (u_kind == "random")


class TestHalfSpectrumStep:
    """solver.step works on k1 >= 0 halves; on the states a run starts from
    it equals the whole-spectrum step of tests/oracles.py bit for bit, and
    its stacked tracker equals the oracles' per-field tracker."""

    def compare(self, cfg, steps, track=False):
        params = params_of(cfg)
        ours = ref = build_initial_state(cfg)
        tr_ours = tr_ref = None
        if track:
            tr_ours = diagnostics.DecompositionTracker.start(params, ours)
            tr_ref = PerFieldTracker.start(params, ref)
        dropped = 0.0
        for _ in range(steps):
            ours, info = step(ours, params, tracker=tr_ours)
            ref, ref_info = full_spectrum_step(ref, params, tracker=tr_ref)
            assert vars(info) == vars(ref_info)
            assert (ours.t, ours.frame) == (ref.t, ref.frame)
            assert np.array_equal(ours.n.coeffs, ref.n.coeffs)
            assert_real_by_construction(ours.n)
            if ours.u is not None:
                assert np.array_equal(ours.u.coeffs, ref.u.coeffs)
                assert_real_by_construction(ours.u)
            if track:
                for name in ("G1", "B1", "B2"):
                    assert np.array_equal(getattr(tr_ours, name).coeffs,
                                          getattr(tr_ref, name).coeffs)
            dropped += info.dropped_n + info.dropped_u
        return ours, dropped

    def test_coupled_3d_with_tracker_across_a_remap(self):
        text = (CONFIGS / "suppression_3d.conf").read_text()
        cfg = parse_config(text + "\nnx = 16\nny = 16\nnz = 16\n")
        final, dropped = self.compare(cfg, steps=25, track=True)
        assert final.frame.t_last_remap > 0.0 and dropped > 0.0

    def test_chemotaxis_2d(self):
        text = (CONFIGS / "sweep_2d_critical_mass.conf").read_text()
        self.compare(parse_config(text + "\nscenario = simulate\nnx = 32\nny = 32\n"
                                         "mass = 37.7\n"), steps=30)

    def test_passive_across_remaps(self):
        text = (CONFIGS / "rate_fit.conf").read_text()
        cfg = parse_config(text + "\nscenario = simulate\nA = 100\nnx = 32\nny = 32\n"
                                  "mass = 1\ndt_max = 0.15\nenable_chemotaxis = false\n"
                                  "enable_velocity = false\nenable_shear = true\n")
        final, dropped = self.compare(cfg, steps=40)
        assert final.frame.t_last_remap >= 5.0 and dropped > 0.0


class TestPassiveScalarOracle:
    @pytest.mark.parametrize("A", [1.0, 100.0])
    def test_matches_exact_evolution(self, A):
        params = make_params(
            GRID2, enable_shear=True, enable_chemotaxis=False,
            amplitude=max(A, 1.0), fixed_dt=0.05, t_end=3.0,
        )
        f = fluctuation_only(random_smooth(GRID2, seed=7))
        state = make_state(GRID2, f)
        t_target = 3.0
        while state.t < t_target - 1e-12:
            state, _ = step(state, params, t_stop=t_target)
        exact, drift, _ = exact_passive_scalar(f, t=t_target, A=params.A)
        assert drift == pytest.approx(state.frame.drift)
        err = l2_norm(SpectralField(GRID2, state.n.coeffs - exact.coeffs))
        assert err <= 1e-12 * max(l2_norm(exact), 1e-30)


class TestPassiveStep:
    """A passive step is the exact propagator applied once."""

    def test_no_evaluation_and_no_symmetrization(self, monkeypatch):
        calls = {"_evaluate": 0, "complete_half": 0}
        for name in calls:
            def counting(*args, _name=name, _orig=getattr(solver, name), **kw):
                calls[_name] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(solver, name, counting)
        params = make_params(GRID2, enable_shear=True, enable_chemotaxis=False,
                             amplitude=50.0, fixed_dt=0.3, dt_max=0.3)
        state = make_state(GRID2, fluctuation_only(random_smooth(GRID2, seed=3)))
        for _ in range(4):  # crosses a remap at drift 1
            apply, frame = solver._step_operator(params, state.frame, state.t, 0.3)
            want, dropped = apply(halve(state.n.coeffs, GRID2))
            state, info = step(state, params)
            assert np.array_equal(state.n.coeffs, fill(want, GRID2)) and state.frame == frame
            assert info.dt == 0.3 and info.dropped_n == dropped
        assert calls == {"_evaluate": 0, "complete_half": 0}
        # the counters do see a chemotaxis step: two evaluations, one completion
        step(state, replace(params, enable_chemotaxis=True))
        assert calls == {"_evaluate": 2, "complete_half": 1}

    def test_fixed_dt_is_not_clipped_without_t_stop(self):
        params = make_params(GRID2, enable_shear=True, enable_chemotaxis=False,
                             amplitude=50.0, fixed_dt=0.3, dt_max=0.01)
        state = make_state(GRID2, fluctuation_only(random_smooth(GRID2, seed=3)))
        new, info = step(state, params)
        assert info.dt == 0.3 and new.t == 0.3

    def test_hermitian_bit_for_bit_across_remaps(self):
        grid = GridSpec((128, 128))
        params = make_params(grid, enable_shear=True, enable_chemotaxis=False,
                             amplitude=1e3, fixed_dt=0.05, dt_max=0.05, t_end=3.0)
        f = full_band_hermitian(grid, seed=11, slope=2.0)
        nyquist = (np.abs(grid.k_mesh()[0]) == 64) | (np.abs(grid.k_mesh()[1]) == 64)
        f.coeffs[nyquist] = 0.0
        assert np.array_equal(f.coeffs, spectral.conj_reverse(f.coeffs, 2))
        state, remaps = make_state(grid, f), 0
        for _ in range(60):
            state, _ = step(state, params)
            remaps += state.frame.t_last_remap == state.t
            assert np.array_equal(state.n.coeffs, spectral.conj_reverse(state.n.coeffs, 2))
            assert not np.any(state.n.coeffs[nyquist])
        assert remaps >= 2

    def test_cached_remap_gather_matches_full_spectrum_step(self):
        grid = GridSpec((128, 128))
        params = make_params(grid, enable_shear=True, enable_chemotaxis=False,
                             amplitude=1e3, fixed_dt=0.05, dt_max=0.05, t_end=4.0)
        solver._remap_gather.cache_clear()
        ours = ref = make_state(grid, random_smooth(grid, seed=12))
        remaps = 0
        for _ in range(70):
            ours, info = step(ours, params)
            ref, ref_info = full_spectrum_step(ref, params)
            remaps += ours.frame.t_last_remap == ours.t
            assert vars(info) == vars(ref_info) and (ours.t, ours.frame) == (ref.t, ref.frame)
            assert np.array_equal(ours.n.coeffs, ref.n.coeffs)
        assert remaps == 3
        built = solver._remap_gather.cache_info()
        assert (built.misses, built.hits) == (1, 2)  # one gather for the three remaps
        gather = solver._remap_gather(grid, 1)
        for arr in (*gather[:3], *gather[3]):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestSelfConvergence:
    def test_second_order_in_dt(self):
        grid = GridSpec((32, 32))
        n = gaussian_bump(grid, width=1.2, mass=2 * np.pi)

        def final_state(dt):
            params = make_params(grid, fixed_dt=dt, t_end=0.2, output_every=0.2)
            state = make_state(grid, n.copy())
            while state.t < 0.2 - 1e-12:
                state, _ = step(state, params, t_stop=0.2)
            return state.n.coeffs

        sols = [final_state(dt) for dt in (4e-3, 2e-3, 1e-3)]
        e1 = np.sqrt(np.sum(np.abs(sols[0] - sols[1]) ** 2))
        e2 = np.sqrt(np.sum(np.abs(sols[1] - sols[2]) ** 2))
        order = np.log2(e1 / e2)
        assert order >= 1.8


class TestRun:
    def test_subcritical_2d_suppressed(self):
        params = make_params(GRID2, t_end=0.5, output_every=0.1, dt_max=5e-3)
        n = gaussian_bump(GRID2, width=1.0, mass=0.5 * 8 * np.pi)
        result = run(params, make_state(GRID2, n))
        assert result.status == "suppressed"
        assert result.rows[-1]["t"] == pytest.approx(0.5, abs=1e-6)
        drift = abs(result.rows[-1]["mass"] - result.rows[0]["mass"])
        assert drift <= 1e-8 * result.rows[0]["mass"]

    def test_min_principle_on_subcritical_run(self):
        params = make_params(GRID2, t_end=0.5, output_every=0.1, dt_max=5e-3)
        n = gaussian_bump(GRID2, width=1.0, mass=0.5 * 8 * np.pi)
        n.coeffs[0, 0] += 0.2  # lift the floor well above round-off
        result = run(params, make_state(GRID2, n))
        nbar = result.rows[0]["mass"] / GRID2.volume
        assert min_principle_check(result.rows, nbar=nbar, A=params.A)

    def test_constant_density_true_for_all_t(self):
        rows = [{"t": float(t), "n_min": 1.0} for t in range(5)]
        assert min_principle_check(rows, nbar=1.0, A=2.0)

    def test_min_principle_detects_violation(self):
        rows = [{"t": 0.0, "n_min": 1.0}, {"t": 1.0, "n_min": 0.2}]
        assert not min_principle_check(rows, nbar=1.0, A=100.0)


class TestBlowupMonitor:
    def test_direct_growth_trigger(self):
        m = BlowupMonitor(linf_factor=10.0)
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=11.0, n_min=0.1, tail_ratio=0.0, pos_floor=1e-8)
        assert m.status == "blowup"

    def test_tail_with_growth_is_blowup(self):
        m = BlowupMonitor(linf_factor=100.0, growth_confirm=2.0, tail_ratio_max=1e-4)
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=3.0, n_min=0.1, tail_ratio=0.0, pos_floor=1e-8)
        m.observe(2.0, 1.0, linf=5.0, n_min=0.1, tail_ratio=1e-2, pos_floor=1e-8)
        assert m.status == "blowup"
        assert m.t_event == 1.0  # last resolved sample

    def test_tail_without_growth_is_unresolved(self):
        m = BlowupMonitor()
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=1.0, n_min=0.1, tail_ratio=1e-2, pos_floor=1e-8)
        assert m.status == "unresolved"

    def test_transitions_are_monotone(self):
        m = BlowupMonitor(linf_factor=2.0)
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=3.0, n_min=0.1, tail_ratio=0.0, pos_floor=1e-8)
        assert m.status == "blowup"
        m.observe(2.0, 1.0, linf=0.1, n_min=-1.0, tail_ratio=1.0, pos_floor=1e-8)
        assert m.status == "blowup"


class TestSamples:
    def test_one_density_transform_per_2d_sample(self, monkeypatch):
        calls = []

        def counting(F, _values_of=spectral.values_of):
            calls.append(F.grid.shape)
            return _values_of(F)
        for module in (spectral, solver, inequalities):
            monkeypatch.setattr(module, "values_of", counting)
        params = make_params(GRID2, t_end=0.5, output_every=0.05, dt_max=5e-3,
                             track_energies=True)
        n = gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)
        states = []
        result = run(params, make_state(GRID2, n), on_sample=lambda s, row: states.append(s))
        assert result.status == "suppressed" and len(result.rows) == 11
        assert len(calls) <= 2 * len(result.rows)  # n and c once per sample
        monkeypatch.undo()
        for state, row in zip(states, result.rows):
            assert row["n_min"] == min_value(state.n)
            assert row["n_linf"] == linf_norm(state.n)
            assert row["free_energy"] == free_energy(state.n)

    def test_velocity_band_exit_energy_reported(self, tmp_path):
        text = (CONFIGS / "suppression_3d.conf").read_text()
        cfg = parse_config(text + "\nnx = 16\nny = 16\nnz = 16\nt_end = 2.0\n")
        summary = run_simulate(replace(cfg, out_dir=str(tmp_path)))
        assert summary["status"] == "suppressed"
        assert summary["dropped_u"] > 0.0
        assert summary["result"].dropped_u == summary["dropped_u"]

    def test_non_finite_velocity_is_named(self):
        text = (CONFIGS / "suppression_3d.conf").read_text()
        cfg = parse_config(text + "\nnx = 16\nny = 16\nnz = 16\nt_end = 1.0\n")
        state = build_initial_state(cfg)
        state.u.coeffs[0, 1, 2, 3] = np.nan
        result = run(params_of(cfg), state)
        assert result.status == "unresolved"
        assert "velocity" in result.monitor.reason
        # caught before the first step, at the state's own time
        assert result.monitor.t_event == 0.0 and result.final_state.t == 0.0

    def test_non_finite_initial_density_is_named(self, tmp_path):
        text = (CONFIGS / "sweep_2d_critical_mass.conf").read_text()
        cfg = parse_config(text + f"\nscenario = simulate\nnx = 16\nny = 16\n"
                                  f"out_dir = {tmp_path}\n")
        state = build_initial_state(cfg)
        state.n.coeffs[1, 2] = np.nan
        summary = run_simulate(cfg, init=state)
        assert summary["status"] == "unresolved" and summary["rows"] == 0
        assert summary["reason"] == "non-finite density coefficients"
        assert summary["t_event"] == 0.0 and summary["t_final"] == 0.0

    def test_sample_contract_violation_is_classified(self, monkeypatch):
        ledger_update = diagnostics.ledger_update

        def failing_at_half(ledger, state, *args):
            if state.t >= 0.5:
                raise ContractViolation("ledger refused the sample")
            return ledger_update(ledger, state, *args)
        monkeypatch.setattr(diagnostics, "ledger_update", failing_at_half)
        params = make_params(GRID2, t_end=1.0, output_every=0.25, track_energies=True)
        n = gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)
        result = run(params, make_state(GRID2, n))
        assert result.status == "unresolved"
        assert result.monitor.reason == "ledger refused the sample"
        assert result.monitor.t_event == pytest.approx(0.5)
        assert [row["t"] for row in result.rows] == pytest.approx([0.0, 0.25])
        assert result.rows[-1]["status"] == "unresolved"

    def test_floating_point_error_in_a_3d_transform_is_classified(self):
        # finite coefficients whose values overflow: inf - inf inside the first
        # sample's transform, on a worker thread, raises under invalid="raise"
        n = gaussian_bump(GRID3, width=1.0, mass=4 * np.pi)
        for k, c in (((1, 2, 3), 1e308), ((2, 1, 3), -1e308)):
            n.coeffs[k] = n.coeffs[tuple(-i for i in k)] = c
        state = make_state(GRID3, n, zeros(GRID3, components=3))
        with np.errstate(over="ignore", invalid="raise"):
            result = run(make_params(GRID3), state)
        assert result.status == "unresolved" and result.rows == []
        assert "invalid value" in result.monitor.reason
        assert result.monitor.t_event == 0.0

    @pytest.mark.parametrize("fixed_dt", [None, 0.01])
    def test_choose_dt_rejects_non_finite_speed(self, fixed_dt):
        params = make_params(GRID2, fixed_dt=fixed_dt)
        for max_u, max_chemo in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0)):
            ev = StageEval(rhs_n=None, rhs_u=None, max_u=max_u, max_chemo=max_chemo)
            with pytest.raises(ContractViolation, match="non-finite"):
                choose_dt(params, ev, 1.0)
