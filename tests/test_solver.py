"""Solver tendencies, stepping, conservation and run outcomes."""

import gc
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from shearks import diagnostics, shear, solver, spectral
from shearks.config import params_of, parse_config
from shearks.inequalities import free_energy
from shearks.initial import build_initial_state
from shearks.sampling import fluctuation_only, gaussian_bump, random_smooth
from shearks.scenarios import run_simulate
from shearks.seriesio import format_row
from shearks.shear import ShearFrame
from shearks.solver import (
    BlowupMonitor,
    StageEval,
    State,
    choose_dt,
    run,
    step,
    tail_ratio,
    tendency,
)
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
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
    full_divergence,
    full_frame_k_mesh,
    full_k_mesh,
    full_spectrum_step,
    linf_norm,
    min_principle_check,
    min_value,
    run_params,
    serial_drain,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GRID2 = GridSpec((32, 32))
GRID3 = GridSpec((16, 16, 16))


# a short unsheared run without the ledger; each test names what else it sets
short_params = partial(run_params, enable_shear=False, t_end=1.0, dt_max=0.01,
                       output_every=0.25, track_energies=False)


def make_state(grid, n, u=None):
    return State(t=0.0, n=n, u=u, frame=ShearFrame())


def rhs(n, u, A, **kw):
    """tendency of full fields in the unsheared frame; its tendencies are
    k1 >= 0 half spectra."""
    grid = n.grid
    return tendency(halve(n.coeffs, grid), None if u is None else halve(u.coeffs, grid), grid,
                    A, shear.frame(grid, 0.0, False), **kw)


class TestParamsValidation:
    def test_amplitude_constraint(self):
        with pytest.raises(ValueError, match="A must be >= 1"):
            short_params(GRID2, A=0.5)

    def test_2d_has_no_fluid(self):
        with pytest.raises(ValueError, match="2D"):
            short_params(GRID2, enable_velocity=True)


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
        n.half[0, 0, 0] = 1.0
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
        u.half[0] = from_values(GRID3, np.sin(y) + np.zeros(GRID3.shape)).half
        n = zeros(GRID3)
        out = rhs(n, u, A=2.0, chemotaxis=False).rhs_u
        assert np.max(np.abs(out)) < 1e-13

    def test_divergence_free_output(self):
        n = random_smooth(GRID3, seed=3)
        u = leray_project(random_smooth(GRID3, seed=4, components=3))
        out = SpectralField(GRID3, fill(rhs(n, u, A=1.5, chemotaxis=False).rhs_u, GRID3))
        div = full_divergence(out, full_k_mesh(GRID3))
        assert l2_norm(div) <= 1e-12 * max(l2_norm(out), 1e-30)


class TestStep:
    def test_constant_state_invariant(self):
        params = short_params(GRID2, fixed_dt=1e-3)
        n = from_values(GRID2, np.full(GRID2.shape, 1.0))
        state = make_state(GRID2, n)
        new, info = step(state, params)
        assert np.max(np.abs(new.n.coeffs - n.coeffs)) < 1e-13

    def test_homogeneous_equilibrium_3d(self):
        params = short_params(GRID3, enable_shear=True, fixed_dt=1e-3, A=10.0)
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
        params = short_params(GRID2, fixed_dt=2e-3)
        n = gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)
        state = make_state(GRID2, n)
        m0 = state.n.coeffs[0, 0].real
        for _ in range(200):
            state, _ = step(state, params)
        assert abs(state.n.coeffs[0, 0].real - m0) <= 1e-10 * abs(m0)

    def test_divergence_free_every_step(self):
        params = short_params(GRID3, enable_shear=True, A=5.0, fixed_dt=5e-3)
        n = gaussian_bump(GRID3, width=0.8, mass=10.0)
        u = leray_project(random_smooth(GRID3, seed=5, components=3))
        u.half *= 0.1
        assert np.any(n.coeffs[lone_nyquist(GRID3)])  # the input carries Nyquist content
        state = make_state(GRID3, n, u)
        for _ in range(10):
            state, _ = step(state, params)
            mesh = full_frame_k_mesh(params, state.frame.drift)
            div = full_divergence(state.u, mesh)
            u_l2 = max(l2_norm(state.u), 1e-30)
            assert l2_norm(div) <= 1e-10 * u_l2
            # every mode, not only the sum: sqrt(|T|) |div_k| is that mode's L2 share
            assert np.sqrt(GRID3.volume) * np.max(np.abs(div.coeffs)) <= 1e-10 * u_l2
            assert_real_by_construction(state.n)
            assert_real_by_construction(state.u)


def assert_same_info(info, ref_info):
    """The step's dt exactly; its remap losses, summed over the k1 >= 0 half
    with Parseval weights, to round-off of the oracle's whole-spectrum sums."""
    assert info.dt == ref_info.dt
    for got, want in ((info.dropped_n, ref_info.dropped_n), (info.dropped_u, ref_info.dropped_u)):
        assert abs(got - want) <= 1e-13 * want and (got == 0.0) == (want == 0.0)


def lone_nyquist(grid):
    """The lone k_a = -n_a/2 rows of every axis."""
    mask = np.zeros(grid.shape, dtype=bool)
    for a, k in enumerate(full_k_mesh(grid)):
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

    @pytest.mark.parametrize("u_amplitude", [0.0, 0.05], ids=["zero_mode", "random"])
    def test_velocity(self, u_amplitude):
        cfg = parse_config("dim = 3\nnx = 16\nny = 16\nnz = 16\nmass = 10\n"
                           f"u_eps = 0.01\nu_amplitude = {u_amplitude}\nu_seed = 5\n")
        u = build_initial_state(cfg).u
        assert_real_by_construction(u)
        assert l2_norm(full_divergence(u, full_k_mesh(u.grid))) <= 1e-14 * l2_norm(u)
        assert np.any(u.coeffs[:, 0]) and np.any(u.coeffs[:, 1:]) == (u_amplitude > 0)


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
            assert_same_info(info, ref_info)
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


def suppression_cfg(shape):
    text = (CONFIGS / "suppression_3d.conf").read_text()
    return parse_config(text + "\nnx = {}\nny = {}\nnz = {}\n".format(*shape))


class TestHalfStorage:
    """A run keeps its fields as k1 >= 0 halves: no step, sample or ledger
    update builds a full spectrum."""

    def test_no_fill_in_a_tracked_run(self, monkeypatch):
        cfg = replace(suppression_cfg((16, 16, 16)), t_end=1.2, output_every=0.1)
        params = params_of(cfg)
        state = build_initial_state(cfg)
        fill_, calls = spectral.fill, []
        monkeypatch.setattr(spectral, "fill", lambda *args: calls.append(1) or fill_(*args))
        assert state.n.coeffs is not None and len(calls) == 1  # the count sees coeffs
        calls.clear()
        result = run(params, state)
        assert result.final_state.frame.t_last_remap > 0.0  # the run crossed a remap
        assert len(result.rows) == 13 and result.tracker is not None
        assert calls == []


@pytest.mark.usefixtures("threads_on_small_grids")
class TestDrainedStep:
    """A 3D step runs its transforms and its k1- and x-slab stages through
    spectral._drain on two threads; run with every task on the caller, the
    same steps give the same bytes."""

    @staticmethod
    def trajectory(shape, steps):
        cfg = suppression_cfg(shape)
        params = params_of(cfg)
        state = build_initial_state(cfg)
        tracker = diagnostics.DecompositionTracker.start(params, state)
        evaluate, seen = solver._evaluate, []

        def recording(*args, **kw):
            ev = evaluate(*args, **kw)
            seen.append([None if v is None else np.asarray(v).tobytes()
                         for v in vars(ev).values()])
            return ev
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_evaluate", recording)
            for _ in range(steps):
                state, info = step(state, params, tracker=tracker)
                seen.append([np.asarray(x).tobytes() for x in (
                    state.n.coeffs, state.u.coeffs, state.t, state.frame.drift,
                    state.frame.t_last_remap, info.dt, info.dropped_n, info.dropped_u)])
        seen.append([getattr(tracker, name).coeffs.tobytes() for name in ("G1", "B1", "B2")])
        return state, seen

    # 16x10x12 has 9 k1 planes and 16 x planes, which the slabs split unevenly
    @pytest.mark.parametrize("shape", [(16, 16, 16), (16, 10, 12)], ids=["16^3", "16x10x12"])
    def test_drained_equals_serial_bit_for_bit(self, shape, monkeypatch):
        final, drained = self.trajectory(shape, steps=25)
        assert final.frame.t_last_remap > 0.0  # the run crossed a remap
        monkeypatch.setattr(spectral, "_drain", serial_drain)
        _, serial = self.trajectory(shape, steps=25)
        assert len(drained) == len(serial) == 2 * 25 + 25 + 1
        for got, want in zip(drained, serial):
            assert got == want

    def test_only_the_corrector_sums_the_remap_loss(self, monkeypatch):
        # a remap step sums the lost modes of the corrector's n and u once
        # each, on their halves; the predictor sums nothing, and a step
        # without a remap sums no loss
        cfg = suppression_cfg((16, 16, 16))
        params = params_of(cfg)
        state = build_initial_state(cfg)
        sum_, calls = shear.parseval_sum, []
        monkeypatch.setattr(shear, "parseval_sum",
                            lambda half, grid, m: calls.append(half.shape) or sum_(half, grid, m))
        sums = {True: set(), False: set()}
        for _ in range(25):
            before, calls[:] = state.frame.t_last_remap, []
            state, info = step(state, params)
            remapped = state.frame.t_last_remap != before
            sums[remapped].add(len(calls))
            assert (info.dropped_n > 0.0) == remapped and (info.dropped_u > 0.0) == remapped
            assert calls in ([], [(9, 16, 16), (3, 9, 16, 16)])
        assert sums == {True: {2}, False: {0}}


class TestSolenoidalByConstruction:
    """A step's velocity is not projected: each stage's one projection
    targets k.rhs_u = k1 u2 on its frame, and Heun's corrector then keeps
    k.u = 0 on the new frame to round-off, across a remap too."""

    @staticmethod
    def worst_divergence(shape, steps=25):
        """The largest div_l2 / u_l2 over a sheared, coupled, tracked run's
        step outputs, on each output's frame."""
        cfg = suppression_cfg(shape)
        params = params_of(cfg)
        state = build_initial_state(cfg)
        tracker = diagnostics.DecompositionTracker.start(params, state)
        worst = 0.0
        for _ in range(steps):
            state, _ = step(state, params, tracker=tracker)
            div = full_divergence(state.u, full_frame_k_mesh(params, state.frame.drift))
            worst = max(worst, l2_norm(div) / l2_norm(state.u))
        assert state.frame.t_last_remap > 0.0  # the run crossed a remap
        return worst

    @pytest.mark.parametrize("shape", [(16, 16, 16), (16, 24, 12)], ids=["16^3", "16x24x12"])
    def test_every_step_output_is_divergence_free(self, shape):
        assert self.worst_divergence(shape) <= 1e-14

    @pytest.mark.parametrize("shape", [(16, 16, 16), (16, 24, 12)], ids=["16^3", "16x24x12"])
    def test_without_the_tilt_the_bound_fails(self, shape, monkeypatch):
        # the same stages projected onto k.rhs_u = 0: the frame's tilt
        # leaves k.u = -k1 u2 dt per step
        def untilted(n_h, u_h, params, drift):
            return tendency(n_h, u_h, params.grid, params.A,
                            shear.frame(params.grid, drift, params.enable_shear),
                            params.enable_chemotaxis, tilt=False)
        monkeypatch.setattr(solver, "_evaluate", untilted)
        assert self.worst_divergence(shape) > 1e-14


class TestPassiveScalarOracle:
    @pytest.mark.parametrize("A", [1.0, 100.0])
    def test_matches_exact_evolution(self, A):
        params = short_params(
            GRID2, enable_shear=True, enable_chemotaxis=False,
            A=max(A, 1.0), fixed_dt=0.05, t_end=3.0,
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
        calls = {"_evaluate": 0, "real_field": 0}
        for name in calls:
            def counting(*args, _name=name, _orig=getattr(solver, name), **kw):
                calls[_name] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(solver, name, counting)
        params = short_params(GRID2, enable_shear=True, enable_chemotaxis=False,
                              A=50.0, fixed_dt=0.3, dt_max=0.3)
        state = make_state(GRID2, fluctuation_only(random_smooth(GRID2, seed=3)))
        for _ in range(4):  # crosses a remap at drift 1
            apply, frame = solver._step_operator(params, state.frame, state.t, 0.3)
            want, dropped = apply(halve(state.n.coeffs, GRID2))
            state, info = step(state, params)
            assert np.array_equal(state.n.coeffs, fill(want, GRID2)) and state.frame == frame
            assert info.dt == 0.3 and info.dropped_n == dropped
        assert calls == {"_evaluate": 0, "real_field": 0}
        # the counters do see a chemotaxis step: two evaluations, one completion
        step(state, replace(params, enable_chemotaxis=True))
        assert calls == {"_evaluate": 2, "real_field": 1}

    def test_fixed_dt_is_not_clipped_without_t_stop(self):
        params = short_params(GRID2, enable_shear=True, enable_chemotaxis=False,
                              A=50.0, fixed_dt=0.3, dt_max=0.01)
        state = make_state(GRID2, fluctuation_only(random_smooth(GRID2, seed=3)))
        new, info = step(state, params)
        assert info.dt == 0.3 and new.t == 0.3

    def test_hermitian_bit_for_bit_across_remaps(self):
        grid = GridSpec((128, 128))
        params = short_params(grid, enable_shear=True, enable_chemotaxis=False,
                              A=1e3, fixed_dt=0.05, dt_max=0.05, t_end=3.0)
        full = full_band_hermitian(grid, seed=11, slope=2.0).coeffs.copy()
        k = full_k_mesh(grid)
        nyquist = (np.abs(k[0]) == 64) | (np.abs(k[1]) == 64)
        full[nyquist] = 0.0
        f = SpectralField(grid, full)
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
        params = short_params(grid, enable_shear=True, enable_chemotaxis=False,
                              A=1e3, fixed_dt=0.05, dt_max=0.05, t_end=4.0)
        shear._remap_gather.cache_clear()
        ours = ref = make_state(grid, random_smooth(grid, seed=12))
        remaps = 0
        for _ in range(70):
            ours, info = step(ours, params)
            ref, ref_info = full_spectrum_step(ref, params)
            remaps += ours.frame.t_last_remap == ours.t
            assert_same_info(info, ref_info)
            assert (ours.t, ours.frame) == (ref.t, ref.frame)
            assert np.array_equal(ours.n.coeffs, ref.n.coeffs)
        assert remaps == 3
        built = shear._remap_gather.cache_info()
        assert (built.misses, built.hits) == (1, 2)  # one gather for the three remaps
        for arr in shear._remap_gather(grid, 1):
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.xfail(strict=True, reason="the drift is summed step by step, so round-off decides "
                   "whether a remap lands on a sample time (ROADMAP item 1)")
def test_remaps_land_on_whole_times_for_every_dt_max():
    # a 16^2 passive scalar at A = 100 sheared to t = 3: the drift reaches 1
    # at t = 1 and 2, so every remap should happen there, whatever the step
    grid = GridSpec((16, 16))
    remaps = {}
    for dt_max in (0.0125, 0.05, 0.1):
        params = run_params(grid, A=100.0, enable_shear=True, enable_chemotaxis=False,
                            output_every=1.0, t_end=3.0, dt_max=dt_max, drop_tol=np.inf,
                            track_energies=False)
        frames = []
        run(params, make_state(grid, random_smooth(grid, seed=3)),
            on_sample=lambda res: frames.append(res.final_state.frame.t_last_remap))
        remaps[dt_max] = frames
    assert all(abs(t - round(t)) <= 1e-9 for frames in remaps.values() for t in frames), remaps


class TestSelfConvergence:
    def test_second_order_in_dt(self):
        grid = GridSpec((32, 32))
        n = gaussian_bump(grid, width=1.2, mass=2 * np.pi)

        def final_state(dt):
            params = short_params(grid, fixed_dt=dt, t_end=0.2, output_every=0.2)
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
        params = short_params(GRID2, t_end=0.5, output_every=0.1, dt_max=5e-3)
        n = gaussian_bump(GRID2, width=1.0, mass=0.5 * 8 * np.pi)
        result = run(params, make_state(GRID2, n))
        assert result.status == "suppressed"
        assert result.rows[-1]["t"] == pytest.approx(0.5, abs=1e-6)
        drift = abs(result.rows[-1]["mass"] - result.rows[0]["mass"])
        assert drift <= 1e-8 * result.rows[0]["mass"]

    def test_min_principle_on_subcritical_run(self):
        params = short_params(GRID2, t_end=0.5, output_every=0.1, dt_max=5e-3)
        n = gaussian_bump(GRID2, width=1.0, mass=0.5 * 8 * np.pi)
        n.half[0, 0] += 0.2  # lift the floor well above round-off
        result = run(params, make_state(GRID2, n))
        nbar = result.rows[0]["mass"] / GRID2.volume
        assert min_principle_check(result.rows, nbar=nbar, A=params.A)

    def test_no_tail_ratio_without_the_tail_gate(self, monkeypatch):
        # monitor_tail = false: the spectral tail is never measured, and the
        # series is that of a run that measured it and stayed below the gate
        def run_rows(**kw):
            params = short_params(GRID2, t_end=0.5, output_every=0.1, dt_max=5e-3, **kw)
            n = gaussian_bump(GRID2, width=1.0, mass=0.5 * 8 * np.pi)
            return [format_row(row) for row in run(params, make_state(GRID2, n)).rows]
        want = run_rows(monitor_tail=True)

        def refuse(*args):
            raise AssertionError("tail_ratio was called")
        monkeypatch.setattr(solver, "tail_ratio", refuse)
        assert run_rows(monitor_tail=False) == want and len(want) == 6
        assert want[-1].endswith(",suppressed")
        with pytest.raises(AssertionError, match="tail_ratio"):
            run_rows(monitor_tail=True)

    def test_the_initial_state_is_released_once_the_run_has_stepped(self):
        params = short_params(GRID2, t_end=0.3, output_every=0.1)
        first, alive = [], []

        def on_sample(res):
            if not first:
                first.append(weakref.ref(res.final_state))
            else:
                gc.collect()
                alive.append(first[0]() is not None)
        n = gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)
        run(params, make_state(GRID2, n), on_sample=on_sample)
        assert alive == [False] * 3

    def test_constant_density_true_for_all_t(self):
        rows = [{"t": float(t), "n_min": 1.0} for t in range(5)]
        assert min_principle_check(rows, nbar=1.0, A=2.0)

    def test_min_principle_detects_violation(self):
        rows = [{"t": 0.0, "n_min": 1.0}, {"t": 1.0, "n_min": 0.2}]
        assert not min_principle_check(rows, nbar=1.0, A=100.0)

    def test_one_frame_per_unsheared_run_and_per_sheared_step(self, monkeypatch):
        steps = []

        def counting(*args, **kw):
            steps.append(None)
            return step(*args, **kw)
        monkeypatch.setattr(solver, "step", counting)

        # unsheared 32^2 chemotaxis, 20 steps: its one frame serves both
        # stages of every step, and the samples' tail monitor reads the
        # grid's cached |k|^2
        shear.frame.cache_clear()
        params = short_params(GRID2, fixed_dt=0.01, t_end=0.2, output_every=0.05)
        res = run(params, make_state(GRID2, gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)))
        assert res.status == solver.STATUS_SUPPRESSED and len(steps) == 20
        built = shear.frame.cache_info()
        assert built.misses == 1 and built.misses + built.hits == 2 * len(steps)

        # sheared, tracked 16^3: one frame per step, the start's, and one
        # cross-section frame
        shear.frame.cache_clear()
        steps.clear()
        params = short_params(GRID3, enable_shear=True, A=5.0, fixed_dt=5e-3, t_end=0.05,
                              output_every=0.025, monitor_tail=False,
                              track_decomposition=True, track_energies=True)
        u = leray_project(random_smooth(GRID3, seed=5, components=3))
        u.half *= 0.1
        res = run(params, make_state(GRID3, gaussian_bump(GRID3, width=0.8, mass=10.0), u))
        assert res.status == solver.STATUS_SUPPRESSED and res.tracker is not None
        assert len(steps) == 10 and shear.frame.cache_info().misses <= len(steps) + 2


class TestBlowupMonitor:
    def test_direct_growth_trigger(self):
        m = BlowupMonitor()
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=99.0, n_min=0.1, tail_ratio=0.0)
        assert m.status == "running"
        m.observe(2.0, 1.0, linf=101.0, n_min=0.1, tail_ratio=0.0)
        assert m.status == "blowup"

    def test_tail_with_growth_is_blowup(self):
        m = BlowupMonitor()
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=3.0, n_min=0.1, tail_ratio=0.0)
        m.observe(2.0, 1.0, linf=5.0, n_min=0.1, tail_ratio=1e-2)
        assert m.status == "blowup"
        assert m.t_event == 1.0  # last resolved sample

    def test_tail_without_growth_is_unresolved(self):
        m = BlowupMonitor()
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=1.0, n_min=0.1, tail_ratio=1e-2)
        assert m.status == "unresolved"

    def test_transitions_are_monotone(self):
        m = BlowupMonitor()
        m.start(0.0, 1.0)
        m.observe(1.0, 0.5, linf=101.0, n_min=0.1, tail_ratio=0.0)
        assert m.status == "blowup"
        m.observe(2.0, 1.0, linf=0.1, n_min=-1.0, tail_ratio=1.0)
        assert m.status == "blowup"


class TestSamples:
    def test_one_density_transform_per_2d_sample(self, monkeypatch):
        calls = []

        def counting(F, _values_range=spectral.values_range):
            calls.append(F.grid.shape)
            return _values_range(F)
        # the run's sample and, through spectral's values_of, free_energy's c
        for module in (spectral, solver):
            monkeypatch.setattr(module, "values_range", counting)
        params = short_params(GRID2, t_end=0.5, output_every=0.05, dt_max=5e-3,
                              track_energies=True)
        n = gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)
        states = []
        result = run(params, make_state(GRID2, n),
                     on_sample=lambda res: states.append(res.final_state))
        assert result.status == "suppressed" and len(result.rows) == 11
        assert len(calls) <= 2 * len(result.rows)  # n and c once per sample
        monkeypatch.undo()
        for state, row in zip(states, result.rows):
            assert row["n_min"] == min_value(state.n)
            assert row["n_linf"] == linf_norm(state.n)
            assert row["free_energy"] == free_energy(state.n)

    def test_tail_ratio_reads_the_half(self):
        # the full-spectrum sum over sheared states, across a remap
        params = short_params(GRID2, enable_shear=True, enable_chemotaxis=False,
                              A=10.0, dt_max=0.05)
        state = make_state(GRID2, random_smooth(GRID2, seed=5, slope=1.0))
        for _ in range(30):
            state, _ = step(state, params)
            e = np.abs(state.n.coeffs) ** 2
            e[0, 0] = 0.0
            k2 = spectral._mesh_k2(full_frame_k_mesh(params, state.frame.drift))
            full = np.sum(e[k2 >= (2.0 * GRID2.dealias_cutoff(0) / 3.0) ** 2]) / np.sum(e)
            assert tail_ratio(state.n, params, state.frame.drift) == pytest.approx(full, rel=1e-14)
        assert state.frame.t_last_remap > 0.0

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
        state.u.half[0, 1, 2, 3] = np.nan
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
        state.n.half[1, 2] = np.nan
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
        params = short_params(GRID2, t_end=1.0, output_every=0.25, track_energies=True)
        n = gaussian_bump(GRID2, width=1.0, mass=4 * np.pi)
        result = run(params, make_state(GRID2, n))
        assert result.status == "unresolved"
        assert result.monitor.reason == "ledger refused the sample"
        assert result.monitor.t_event == pytest.approx(0.5)
        assert [row["t"] for row in result.rows] == pytest.approx([0.0, 0.25])
        assert result.rows[-1]["status"] == "unresolved"

    def test_floating_point_error_in_a_3d_transform_is_classified(self):
        # finite coefficients whose values overflow: inf - inf inside the first
        # sample's transform, a bare field's on the caller, raises under
        # invalid="raise"
        full = gaussian_bump(GRID3, width=1.0, mass=4 * np.pi).coeffs.copy()
        for k, c in (((1, 2, 3), 1e308), ((2, 1, 3), -1e308)):
            full[k] = full[tuple(-i for i in k)] = c
        n = SpectralField(GRID3, full)
        state = make_state(GRID3, n, zeros(GRID3, components=3))
        with np.errstate(over="ignore", invalid="raise"):
            result = run(short_params(GRID3), state)
        assert result.status == "unresolved" and result.rows == []
        assert "invalid value" in result.monitor.reason
        assert result.monitor.t_event == 0.0

    @pytest.mark.usefixtures("threads_on_small_grids")
    def test_floating_point_error_in_a_drained_stage_is_classified(self):
        # u's values overflow inside the tendency's batched inverse transform,
        # whose field tasks either thread may run: the first step raises
        n = gaussian_bump(GRID3, width=1.0, mass=4 * np.pi)
        full = np.zeros((3, *GRID3.shape), dtype=np.complex128)
        for k, c in (((1, 2, 3), 1e308), ((2, 1, 3), -1e308)):
            full[0][k] = full[0][tuple(-i for i in k)] = c
        u = SpectralField(GRID3, full)
        with np.errstate(over="ignore", invalid="raise"):
            result = run(short_params(GRID3), make_state(GRID3, n, u))
        assert result.status == "unresolved" and len(result.rows) == 1
        assert "invalid value" in result.monitor.reason
        assert result.monitor.t_event == 0.0

    @pytest.mark.parametrize("passive", [False, True], ids=["chemotaxis", "passive"])
    def test_finite_half_whose_values_overflow_is_unresolved_at_start(self, passive):
        # finite coefficients whose collocation values overflow, under numpy's
        # default error state: the first sample finds a non-finite extreme
        grid = GridSpec((16, 16))
        half = gaussian_bump(grid, width=1.0, mass=4 * np.pi).half.copy()
        half[1, 2] = half[2, 1] = 1e308
        half[0, 3] = half[0, -3] = -1e308
        assert np.all(np.isfinite(half))
        params = short_params(grid, enable_chemotaxis=not passive)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run(params, make_state(grid, SpectralField.from_half(grid, half)))
        assert result.status == "unresolved" and result.rows == []
        assert result.monitor.reason == "RealField values must be finite"
        assert result.monitor.t_event == 0.0 and result.final_state.t == 0.0

    def test_floating_point_error_at_start_up_is_classified(self):
        # a finite state whose energy overflows: the start-up's fluctuation
        # energy raises before the ledger is built or a row is emitted
        grid = GridSpec((16, 16))
        n = gaussian_bump(grid, width=1.0, mass=4 * np.pi)
        big = SpectralField.from_half(grid, n.half * 1e160)
        assert np.all(np.isfinite(big.half))
        with np.errstate(all="raise"):
            result = run(short_params(grid, track_energies=True), make_state(grid, big))
        assert result.status == "unresolved" and result.rows == []
        assert "overflow" in result.monitor.reason
        assert result.monitor.t_event == 0.0 and result.ledger is None

    def test_band_exit_above_drop_tol_ends_the_run_at_its_step(self):
        # a sheared passive scalar sampled every step: the remap at t = 1
        # drops about 9e-4 of the fluctuation energy, and that step's row is
        # never emitted
        grid = GridSpec((16, 16))
        params = run_params(grid, A=100.0, enable_shear=True, enable_chemotaxis=False,
                            t_end=3.0, dt_max=0.05, output_every=0.05, drop_tol=1e-6,
                            track_energies=False)
        result = run(params, make_state(grid, random_smooth(grid, seed=3)))
        assert result.status == "unresolved"
        assert result.monitor.reason.startswith("dropped energy fraction")
        assert result.dropped_energy > params.drop_tol
        t_remap = result.final_state.frame.t_last_remap
        assert result.monitor.t_event == result.final_state.t == t_remap
        assert t_remap == pytest.approx(1.0)
        assert len(result.rows) == 20 and result.rows[-1]["t"] < t_remap
        assert all(row["dropped_energy"] == 0.0 for row in result.rows)
        assert result.rows[-1]["status"] == "unresolved"

    @pytest.mark.parametrize("fixed_dt", [None, 0.01])
    def test_choose_dt_rejects_non_finite_speed(self, fixed_dt):
        params = short_params(GRID2, fixed_dt=fixed_dt)
        for max_u, max_chemo in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0)):
            ev = StageEval(rhs_n=None, rhs_u=None, max_u=max_u, max_chemo=max_chemo)
            with pytest.raises(ContractViolation, match="non-finite"):
                choose_dt(params, ev, 1.0)
