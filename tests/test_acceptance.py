"""Acceptance criteria, one test per criterion, each printing a verdict line.

The expensive scenario runs (3D suppression pair, 2D mass sweep, rate fit)
are module-scoped fixtures shared by the criteria that grade them.
"""

import math
import time

import numpy as np
import pytest

from shearks.config import parse_config
from shearks.diagnostics import compute_kappa_rho, kappa_identity_residual
from shearks.inequalities import check_elliptic, check_poincare, loghls_scan
from shearks.modes import split_x
from shearks.sampling import fluctuation_only, gaussian_bump, random_smooth
from shearks.scenarios import run_rate_fit, run_resume, run_simulate, run_sweep_mass
from shearks.seriesio import state_from_bytes
from shearks.shear import ShearFrame
from shearks.solver import State, run, step
from shearks.spectral import (
    GridSpec,
    RealField,
    SpectralField,
    forward_transform,
    hermitize,
    l2_norm,
    laplacian,
    leray_project,
    solve_chemo,
)

from oracles import (
    checkpoint_bytes,
    exact_passive_scalar,
    free_energy_monotone,
    from_values,
    full_divergence,
    full_k_mesh,
    full_k_squared,
    inverse_transform,
    l2_norm_values,
    read_series,
    run_params,
    split_bar_tilde,
)

EIGHT_PI = 8.0 * np.pi
MASS_3D = 0.8 * 16.0 * np.pi ** 2


def verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def suppression_run(tmp_path_factory):
    """3D suppression run at 48^3, A = 1e4 (criteria 6b, 7, 8)."""
    out = tmp_path_factory.mktemp("supp_b")
    cfg = parse_config(f"""
        scenario = simulate
        dim = 3
        nx = 48
        ny = 48
        nz = 48
        A = 1e4
        mass = {MASS_3D}
        init_width = 0.5
        u_eps = 0.01
        u_amplitude = 0.05
        u_seed = 11
        t_end = 50.0
        dt_max = 0.05
        output_every = 1.0
        monitor_tail = false
        monitor_positivity = false
        drop_tol = 1e18
        track_energies = true
        track_decomposition = true
        out_dir = {out}
    """)
    return run_simulate(cfg)


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    """2D critical-mass sweep at 128^2 (criteria 5, 7)."""
    out = tmp_path_factory.mktemp("sweep")
    masses = ", ".join(str(f * EIGHT_PI) for f in (0.5, 0.75, 1.25, 1.5))
    cfg = parse_config(f"""
        scenario = sweep_mass
        dim = 2
        nx = 128
        ny = 128
        enable_shear = false
        masses = {masses}
        mass = 1.0
        init_width = 0.5
        t_end = 4.0
        dt_max = 0.005
        output_every = 0.05
        track_energies = false
        out_dir = {out}
    """)
    return run_sweep_mass(cfg)


@pytest.fixture(scope="module")
def passive_runs():
    """Solver vs exact oracle with feedback disabled (criteria 2, 7)."""
    grid = GridSpec((128, 128))
    rng = np.random.default_rng(5)
    raw = forward_transform(RealField(grid, rng.standard_normal(grid.shape)))
    mask = np.ones(grid.shape, dtype=bool)
    for axis, comp in enumerate(full_k_mesh(grid)):
        mask &= np.abs(comp) <= 5  # stays inside the band through t = 10
    k2 = full_k_squared(grid)
    amp = np.where(k2 > 0, (1.0 + k2) ** -1.0, 0.0)
    f0 = hermitize(SpectralField(grid, raw.coeffs * amp * mask))
    f0 = fluctuation_only(f0)
    f0.half /= l2_norm(f0)

    out = {}
    for A in (1.0, 1e2, 1e4):
        params = run_params(grid, A=A, enable_shear=True,
                            enable_chemotaxis=False, enable_velocity=False,
                            t_end=10.0, dt_max=0.25, output_every=2.5,
                            track_energies=False, monitor_tail=False)
        result = run(params, State(t=0.0, n=f0.copy(), u=None, frame=ShearFrame()))
        exact, drift, _ = exact_passive_scalar(f0, t=10.0, A=A)
        out[A] = (result, exact, drift)
    return out


# ---------------------------------------------------------------------------
# criteria

def test_c01_spectral_oracles():
    start = time.time()
    worst_chemo = worst_div = worst_parseval = 0.0
    for grid, seeds in ((GridSpec((64, 64)), range(6)), (GridSpec((24, 24, 24)), range(4))):
        for seed in seeds:
            n = random_smooth(grid, seed=seed)
            c = solve_chemo(n)
            resid = laplacian(c).coeffs + n.coeffs
            resid[(0,) * grid.dim] -= n.coeffs[(0,) * grid.dim]
            worst_chemo = max(worst_chemo,
                              l2_norm(SpectralField(grid, resid)) / l2_norm(n))
            u = random_smooth(grid, seed=seed + 50, components=grid.dim)
            p = leray_project(u)
            worst_div = max(worst_div, l2_norm(full_divergence(p, full_k_mesh(grid))) / l2_norm(u))
            quad = l2_norm_values(inverse_transform(n))
            worst_parseval = max(worst_parseval, abs(quad - l2_norm(n)) / l2_norm(n))
    elapsed = time.time() - start
    ok = worst_chemo <= 1e-12 and worst_div <= 1e-12 and \
        worst_parseval <= 1e-10 and elapsed < 10.0
    verdict(1, ok, f"chemo residual {worst_chemo:.2e}, leray div {worst_div:.2e}, "
                   f"parseval {worst_parseval:.2e}, {elapsed:.1f}s")


def test_c02_passive_scalar_exactness(passive_runs):
    start = time.time()
    worst = 0.0
    for A, (result, exact, drift) in passive_runs.items():
        state = result.final_state
        assert state.frame.drift == pytest.approx(drift, abs=1e-12)
        err = l2_norm(SpectralField(state.n.grid, state.n.coeffs - exact.coeffs))
        worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst <= 1e-6
    verdict(2, ok, f"max L2 deviation from the exact semigroup {worst:.2e} "
                   f"at t = 10 over A in (1, 1e2, 1e4)")


def test_c03_enhanced_dissipation_rate(tmp_path):
    start = time.time()
    cfg = parse_config(f"""
        scenario = rate_fit
        dim = 2
        nx = 128
        ny = 128
        a_values = 1e2, 1e3, 1e4, 1e5
        init_seed = 3
        init_slope = 2.0
        dt_max = 0.25
        out_dir = {tmp_path}
    """)
    res = run_rate_fit(cfg)
    elapsed = time.time() - start
    ok = abs(res["slope"] + 1.0 / 3.0) <= 0.1 and elapsed < 300.0
    verdict(3, ok, f"log-rate slope {res['slope']:.4f} (target -1/3 +- 0.1), "
                   f"{elapsed:.0f}s")


def test_c04_zero_mode_heat_decay():
    grid = GridSpec((64, 64))
    A, t_end = 50.0, 25.0
    _, y = grid.coordinate_mesh()
    f0 = from_values(grid, np.sin(y) + np.zeros(grid.shape))
    params = run_params(grid, A=A, enable_shear=True,
                        enable_chemotaxis=False, enable_velocity=False,
                        t_end=t_end, dt_max=0.25, output_every=5.0,
                        track_energies=False, monitor_tail=False)
    result = run(params, State(t=0.0, n=f0.copy(), u=None, frame=ShearFrame()))
    rows = result.rows
    rate = -math.log(rows[-1]["n_l2"] / rows[0]["n_l2"]) / rows[-1]["t"]
    bound_ok = all(row["n_l2"] <= rows[0]["n_l2"] * math.exp(-row["t"] / (2 * A)) + 1e-12
                   for row in rows)
    ok = abs(rate - 1.0 / A) <= 0.01 / A and bound_ok
    verdict(4, ok, f"measured rate {rate:.6f} vs 1/A = {1 / A:.6f} "
                   f"(within 1%), half-rate bound holds")


def test_c05_2d_critical_mass(sweep_result):
    rows = sweep_result["rows"]
    statuses = [r["status"] for r in rows]
    bracket = sweep_result["bracket"]
    ok = statuses == ["suppressed", "suppressed", "blowup", "blowup"] and \
        bracket is not None and bracket[0] < EIGHT_PI < bracket[1]
    verdict(5, ok, f"statuses {statuses}, bracket "
                   f"({bracket[0] / np.pi:.0f}pi, {bracket[1] / np.pi:.0f}pi) contains 8pi")


def test_c06_3d_suppression(suppression_run, tmp_path):
    # (a) no shear, no flow: indicator fires early
    cfg_a = parse_config(f"""
        scenario = simulate
        dim = 3
        nx = 48
        ny = 48
        nz = 48
        A = 1
        enable_shear = false
        enable_velocity = false
        mass = {MASS_3D}
        init_width = 0.5
        t_end = 20.0
        dt_max = 0.01
        output_every = 0.02
        track_energies = false
        out_dir = {tmp_path}/supp_a
    """)
    summary_a = run_simulate(cfg_a)
    a_ok = summary_a["status"] in ("blowup", "unresolved") and \
        summary_a["t_final"] <= 20.0

    # (b) strong shear, small zero-mode velocity: suppressed through t = 50
    rows = suppression_run["result"].rows
    linf0 = rows[0]["n_linf"]
    linf_max = max(row["n_linf"] for row in rows)
    b_ok = suppression_run["status"] == "suppressed" and \
        rows[-1]["t"] >= 50.0 - 1e-6 and linf_max <= 3.0 * linf0
    verdict(6, a_ok and b_ok,
            f"(a) {summary_a['status']} at t = {summary_a['t_event']:.3g}; "
            f"(b) {suppression_run['status']} through t = {rows[-1]['t']:.0f} "
            f"with Linf max {linf_max / linf0:.2f}x initial")


def test_c07_conservation(suppression_run, sweep_result, passive_runs):
    worst_mass = 0.0
    for result, _, _ in passive_runs.values():
        rows = result.rows
        worst_mass = max(worst_mass, abs(rows[-1]["mass"] - rows[0]["mass"])
                         / max(abs(rows[0]["mass"]), 1e-300))
    rows = suppression_run["result"].rows
    m0 = rows[0]["mass"]
    worst_mass = max(worst_mass, max(abs(r["mass"] - m0) for r in rows) / m0)
    worst_div = max(r["div_l2"] / max(r["u_l2"], 1e-300) for r in rows)
    for r in sweep_result["rows"]:
        series = read_series(r["series"])
        sm0 = series[0]["mass"]
        worst_mass = max(worst_mass, max(abs(s["mass"] - sm0) for s in series) / sm0)
    ok = worst_mass <= 1e-8 and worst_div <= 1e-10
    verdict(7, ok, f"relative mass drift {worst_mass:.2e}, "
                   f"relative divergence {worst_div:.2e}")


def test_c08_decomposition_fidelity(suppression_run):
    result = suppression_run["result"]
    tracker = result.tracker
    u1_0 = split_x(result.final_state.u.component(0))[0]
    diff = l2_norm(SpectralField(tracker.cross, tracker.G1.coeffs + tracker.B1.coeffs
                                 + tracker.B2.coeffs - u1_0.coeffs))
    rel = diff / max(l2_norm(u1_0), 1e-300)
    nbar = result.rows[0]["mass"] / result.params.grid.volume
    expected = nbar * result.final_state.t / result.params.A
    slope_rel = abs(split_bar_tilde(tracker.B1)[0] - expected) / expected
    ok = rel <= 1e-6 and slope_rel <= 1e-8
    verdict(8, ok, f"|G1+B1+B2 - u1_0| = {rel:.2e} relative, "
                   f"bar(B1) slope off by {slope_rel:.2e} relative")


def test_c09_kappa_rho_identity():
    cross = GridSpec((48, 48))
    grid3 = GridSpec((16, 48, 48))
    A = 100.0
    worst = 0.0
    for seed in range(100):
        U2 = random_smooth(cross, seed=seed, slope=3.0)
        from shearks.spectral import values_of
        gmax = float(np.max(np.abs(values_of(U2))))
        U2.half *= 0.1 * A / max(gmax, 1e-300)
        kr = compute_kappa_rho(U2, A)
        u3 = split_x(random_smooth(grid3, seed=seed + 10_000))[1]
        worst = max(worst, kappa_identity_residual(kr, u3))
    ok = worst <= 1e-10
    verdict(9, ok, f"max pointwise residual {worst:.2e} over 100 samples")


def test_c10_inequality_suites(tmp_path):
    grid = GridSpec((64, 64))
    elliptic_samples = [random_smooth(grid, seed=s) for s in range(100)]
    for f in elliptic_samples:
        f.half[0, 0] += 1.0
    rep_e = check_elliptic(elliptic_samples)
    poincare_samples = [fluctuation_only(random_smooth(grid, seed=s)) for s in range(100)]
    rep_p = check_poincare(poincare_samples)

    cfg = parse_config(f"""
        scenario = simulate
        dim = 2
        nx = 64
        ny = 64
        enable_shear = false
        mass = {0.5 * EIGHT_PI}
        init_width = 0.8
        t_end = 1.0
        dt_max = 0.002
        output_every = 0.05
        track_energies = false
        out_dir = {tmp_path}/fe
    """)
    fe_rows = run_simulate(cfg)["result"].rows
    fe_ok = free_energy_monotone(fe_rows)

    hls = loghls_scan(mass=4.0 * np.pi, grid=GridSpec((64, 64)))
    ok = rep_e["passed"] and rep_p["passed"] and fe_ok and hls["passed"]
    verdict(10, ok, f"elliptic max {rep_e['max_ratio']:.12f}, "
                    f"poincare max {rep_p['max_ratio']:.12f}, "
                    f"free energy monotone: {fe_ok}, "
                    f"log-HLS drop {hls['relative_drop']:.2e} <= 1%")


def test_c11_self_convergence():
    grid = GridSpec((64, 64))
    n = gaussian_bump(grid, width=1.0, mass=0.5 * EIGHT_PI)

    def final(dt):
        params = run_params(grid, A=1.0, enable_shear=False,
                            enable_velocity=False, t_end=0.2, fixed_dt=dt,
                            dt_max=dt, output_every=0.2, track_energies=False)
        state = State(t=0.0, n=n.copy(), u=None, frame=ShearFrame())
        while state.t < 0.2 - 1e-12:
            state, _ = step(state, params, t_stop=0.2)
        return state.n.coeffs

    sols = [final(dt) for dt in (4e-3, 2e-3, 1e-3)]
    e1 = float(np.sqrt(np.sum(np.abs(sols[0] - sols[1]) ** 2)))
    e2 = float(np.sqrt(np.sum(np.abs(sols[1] - sols[2]) ** 2)))
    order = math.log2(e1 / e2)
    ok = order >= 1.8
    verdict(11, ok, f"observed temporal order {order:.2f} over three dyadic dt levels")


def test_c12_determinism(tmp_path):
    base = f"""
        scenario = simulate
        dim = 2
        nx = 64
        ny = 64
        enable_shear = true
        A = 20
        mass = {0.5 * EIGHT_PI}
        init_width = 0.8
        t_end = 1.0
        dt_max = 0.005
        output_every = 0.1
        track_energies = false
    """
    full_cfg = parse_config(base + f"out_dir = {tmp_path}/full\ncheckpoint_every = 0.5")
    full = run_simulate(full_cfg)
    ckpt = sorted((tmp_path / "full").glob("checkpoint_*.pksn"))[0]
    resumed = run_resume(parse_config(base + f"out_dir = {tmp_path}/res"), ckpt)

    a = full["result"].final_state
    b = resumed["result"].final_state
    field_diff = float(np.max(np.abs(a.n.coeffs - b.n.coeffs)))

    raw = checkpoint_bytes(a, full_cfg.A)
    back, A = state_from_bytes(raw)
    roundtrip_ok = checkpoint_bytes(back, A) == raw
    ok = field_diff <= 1e-12 and roundtrip_ok
    verdict(12, ok, f"resume deviation {field_diff:.2e} per field, "
                    f"checkpoint round-trip byte-identical: {roundtrip_ok}")
