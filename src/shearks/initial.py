"""Initial states for simulation runs, built from a RunConfig and completed
like step outputs (``solver._real_field``), so they are real by construction.
"""

from __future__ import annotations

from .config import ConfigError, RunConfig, params_of
from .modes import fluctuation_only, zero_mode
from .sampling import gaussian_bump, positive_density, random_smooth, solenoidal_zero_mode
from .shear import ShearFrame
from .solver import State, _real_field
from .spectral import GridSpec, SpectralField, halve, l2_norm, leray_project, sobolev_norm, zeros


def build_density(cfg: RunConfig, grid: GridSpec) -> SpectralField:
    if cfg.init_kind == "gaussian":
        n = gaussian_bump(grid, cfg.init_width, mass=cfg.mass)
    elif cfg.init_kind == "random":
        n = positive_density(grid, seed=cfg.init_seed, mass=cfg.mass, slope=cfg.init_slope)
    else:
        raise ConfigError(f"init_kind: unknown kind {cfg.init_kind!r}")
    return _real_field(halve(n.coeffs, grid), grid)


def build_velocity(cfg: RunConfig, grid: GridSpec) -> SpectralField:
    u = zeros(grid, components=3)
    if cfg.u_kind in ("zero_mode", "random") and cfg.u_eps > 0:
        # solenoidal x-independent (u2, u3) with ||u2_0||_H2 + ||u3_0||_H1 = u_eps
        u0 = solenoidal_zero_mode(grid, seed=cfg.u_seed, slope=3.0)
        size = (sobolev_norm(zero_mode(u0.component(1)), 2)
                + sobolev_norm(zero_mode(u0.component(2)), 1))
        if size > 0:
            u0.coeffs *= cfg.u_eps / size
        u.coeffs += u0.coeffs
    if cfg.u_kind == "random" and cfg.u_amplitude > 0:
        fluct = fluctuation_only(random_smooth(grid, seed=cfg.u_seed + 1000,
                                               slope=3.0, components=3))
        fluct = leray_project(fluct)
        norm = l2_norm(fluct)
        if norm > 0:
            u.coeffs += cfg.u_amplitude / norm * fluct.coeffs
    return _real_field(halve(u.coeffs, grid), grid, [halve(m, grid) for m in grid.k_mesh()])


def build_initial_state(cfg: RunConfig) -> State:
    params = params_of(cfg)
    n = build_density(cfg, params.grid)
    u = build_velocity(cfg, params.grid) if params.enable_velocity else None
    return State(t=0.0, n=n, u=u, frame=ShearFrame())
