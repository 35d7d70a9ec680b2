"""Experiment drivers: single runs, mass sweeps, decay-rate fits, checks."""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, grid_of, params_of
from .diagnostics import compute_kappa_rho, kappa_identity_residual
from .inequalities import check_elliptic, check_poincare, gns_ratio, loghls_scan
from .initial import build_initial_state
from .modes import fluctuation_only
from .sampling import random_smooth
from .seriesio import read_checkpoint, write_checkpoint, write_series
from .shear import ShearFrame
from .solver import State, run
from .spectral import GridSpec, values_of


def run_simulate(cfg: RunConfig, init: State | None = None,
                 series_name: str = "series.csv") -> dict:
    """One run: series CSV, periodic checkpoints, final checkpoint."""
    params = params_of(cfg)
    state = init if init is not None else build_initial_state(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    next_ckpt = [state.t + cfg.checkpoint_every]

    def on_sample(s, row):
        if cfg.checkpoint_every > 0 and s.t >= next_ckpt[0] - 1e-9:
            write_checkpoint(out / f"checkpoint_t{s.t:010.4f}.pksn", s, params.A)
            next_ckpt[0] += cfg.checkpoint_every

    result = run(params, state, on_sample=on_sample)
    write_series(out / series_name, result.rows)
    write_checkpoint(out / "final.pksn", result.final_state, params.A)
    return {
        "status": result.status,
        "t_final": result.final_state.t,
        "t_event": result.monitor.t_event,
        "reason": result.monitor.reason,
        "n_linf_max": result.monitor.linf_max,
        "dropped_energy": result.dropped_energy,
        "dropped_u": result.dropped_u,
        "rows": len(result.rows),
        "series": str(out / series_name),
        "result": result,
    }


def run_resume(cfg: RunConfig, checkpoint_path) -> dict:
    state, A = read_checkpoint(checkpoint_path)
    if state.n.grid.shape != grid_of(cfg).shape:
        raise ConfigError("resume: checkpoint grid does not match config grid")
    if not math.isclose(A, cfg.A, rel_tol=1e-12):
        raise ConfigError(f"resume: checkpoint A = {A} differs from config A = {cfg.A}")
    return run_simulate(cfg, init=state, series_name="series_resume.csv")


def _sweep_single(args) -> dict:
    cfg, mass = args
    sub = replace(cfg, mass=mass, out_dir=str(Path(cfg.out_dir) / f"mass_{mass:.6g}"))
    summary = run_simulate(sub)
    summary.pop("result")
    summary["mass"] = mass
    return summary


def run_sweep_mass(cfg: RunConfig) -> dict:
    """Run each mass with an identical initial shape; bracket the threshold."""
    jobs = [(cfg, m) for m in cfg.masses]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_sweep_single, jobs))
    else:
        rows = [_sweep_single(job) for job in jobs]
    rows.sort(key=lambda r: r["mass"])

    suppressed = [r["mass"] for r in rows if r["status"] == "suppressed"]
    blown = [r["mass"] for r in rows if r["status"] == "blowup"]
    monotone = bool(suppressed and blown and max(suppressed) < min(blown)) or \
        bool(suppressed) != bool(blown)
    bracket = (max(suppressed), min(blown)) if suppressed and blown and monotone else None

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["mass,status,t_event,n_linf_max,dropped_energy"]
    for r in rows:
        lines.append(f"{r['mass']:.17g},{r['status']},{r['t_event']:.17g},"
                     f"{r['n_linf_max']:.17g},{r['dropped_energy']:.17g}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return {"rows": rows, "bracket": bracket, "monotone": monotone,
            "table": str(out / "sweep.csv")}


def efold_time(rows: list, column: str = "n_l2") -> float:
    """First time the column decays to 1/e of its initial value (log-interp)."""
    n0 = rows[0][column]
    target = n0 / math.e
    for prev, cur in zip(rows, rows[1:]):
        if cur[column] <= target:
            a, b = prev[column], cur[column]
            if b <= 0 or a <= 0:
                return cur["t"]
            w = (math.log(target) - math.log(a)) / (math.log(b) - math.log(a))
            return prev["t"] + w * (cur["t"] - prev["t"])
    raise ConfigError(f"no e-folding of {column} within the horizon")


def run_rate_fit(cfg: RunConfig) -> dict:
    """Passive-scalar decay rate per amplitude; least-squares slope of
    log(rate) against log(A).

    The runs are linear (no feedback), so the only resolution limit is the
    non-zero modes walking off the wall-normal band near their dissipation
    time; the dropped fraction is reported per amplitude and the tail gate
    is irrelevant for a passive transit.
    """
    grid = grid_of(cfg)
    per_a = []
    for A in cfg.a_values:
        horizon = max(cfg.t_end, 4.0 * A ** (1.0 / 3.0))
        sub = replace(
            cfg, A=A, enable_chemotaxis=False, enable_velocity=False,
            enable_shear=True, t_end=horizon, output_every=horizon / 400.0,
            monitor_tail=False, drop_tol=math.inf, track_energies=False,
            track_decomposition=False, dt_max=max(cfg.dt_max, horizon / 2000.0),
        )
        params = params_of(sub)
        init = fluctuation_only(random_smooth(grid, seed=cfg.init_seed,
                                              slope=cfg.init_slope))
        state = State(t=0.0, n=init, u=None, frame=ShearFrame())
        result = run(params, state)
        t_e = efold_time(result.rows)
        per_a.append({"A": A, "t_efold": t_e, "rate": 1.0 / t_e,
                      "dropped_energy": result.dropped_energy})
    slope, intercept = np.polyfit(np.log([r["A"] for r in per_a]),
                                  np.log([r["rate"] for r in per_a]), 1)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["A,rate,t_efold,dropped_energy"]
    for r in per_a:
        lines.append(f"{r['A']:.17g},{r['rate']:.17g},{r['t_efold']:.17g},"
                     f"{r['dropped_energy']:.17g}")
    (out / "rate.csv").write_text("\n".join(lines) + "\n")
    payload = {"slope": float(slope), "intercept": float(intercept), "per_A": per_a}
    (out / "rate.json").write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _check_identities(cfg: RunConfig) -> dict:
    """Pointwise residual of the good-derivative splitting on random frames."""
    cross = GridSpec((cfg.ny, cfg.nz if cfg.dim == 3 and cfg.nz else cfg.ny))
    grid3 = GridSpec((max(cfg.nx // 2, 8), *cross.shape))
    A = max(cfg.A, 10.0)
    worst = 0.0
    for seed in range(cfg.samples):
        U2 = random_smooth(cross, seed=seed, slope=3.0)
        grad_max = float(np.max(np.abs(values_of(U2))))
        U2.coeffs *= 0.1 * A / max(grad_max, 1e-300)
        kr = compute_kappa_rho(U2, A)
        u3 = fluctuation_only(random_smooth(grid3, seed=seed + 10_000))
        worst = max(worst, kappa_identity_residual(kr, u3))
    return {"max_residual": worst, "samples": cfg.samples, "passed": worst <= 1e-10}


def run_check(cfg: RunConfig) -> dict:
    """Inequality and identity suites with one pass/fail line per check."""
    grid2 = GridSpec((cfg.nx, cfg.ny))
    suites = (cfg.suite,) if cfg.suite != "all" else (
        "elliptic", "poincare", "loghls", "gns", "identities")
    reports = {}
    for suite in suites:
        if suite == "elliptic":
            samples = [random_smooth(grid2, seed=cfg.init_seed + i, slope=cfg.init_slope)
                       for i in range(cfg.samples)]
            for f in samples:
                f.coeffs[(0,) * grid2.dim] += 1.0
            rep = check_elliptic(samples)
            detail = f"max_ratio={rep['max_ratio']:.12f} over {cfg.samples} samples"
        elif suite == "poincare":
            samples = [fluctuation_only(random_smooth(grid2, seed=cfg.init_seed + i,
                                                      slope=cfg.init_slope))
                       for i in range(cfg.samples)]
            rep = check_poincare(samples)
            detail = f"max_ratio={rep['max_ratio']:.12f} over {cfg.samples} samples"
        elif suite == "loghls":
            ngrid = GridSpec((min(cfg.nx, 64), min(cfg.ny, 64)))
            rep = loghls_scan(4.0 * np.pi, grid=ngrid)
            detail = (f"minimum={rep['minimum']:.6f} "
                      f"relative_drop={rep['relative_drop']:.2e}")
        elif suite == "gns":
            samples = [random_smooth(grid2, seed=cfg.init_seed + i, slope=3.0)
                       for i in range(min(cfg.samples, 20))]
            rep = gns_ratio(3.0, 1.0, samples)
            detail = f"theta={rep['theta']:.4f} max_ratio={rep['max_ratio']:.6f}"
        elif suite == "identities":
            rep = _check_identities(cfg)
            detail = f"max_residual={rep['max_residual']:.3e}"
        else:
            raise ConfigError(f"suite: unknown suite {suite!r}")
        reports[suite] = rep
        print(f"check {suite}: {'PASS' if rep['passed'] else 'FAIL'} ({detail})")
    return {"reports": reports,
            "passed": all(r["passed"] for r in reports.values())}


def dispatch(cfg: RunConfig, resume_from=None) -> tuple[int, dict]:
    """Run the configured scenario; exit code per the CLI contract."""
    if resume_from is not None:
        summary = run_resume(cfg, resume_from)
        return (3 if summary["status"] == "unresolved" else 0), summary
    if cfg.scenario == "simulate":
        summary = run_simulate(cfg)
        return (3 if summary["status"] == "unresolved" else 0), summary
    if cfg.scenario == "sweep_mass":
        summary = run_sweep_mass(cfg)
        bad = any(r["status"] == "unresolved" for r in summary["rows"])
        return (3 if bad else 0), summary
    if cfg.scenario == "rate_fit":
        return 0, run_rate_fit(cfg)
    if cfg.scenario == "check":
        summary = run_check(cfg)
        return (0 if summary["passed"] else 3), summary
    raise ConfigError(f"scenario: unknown scenario {cfg.scenario!r}")
