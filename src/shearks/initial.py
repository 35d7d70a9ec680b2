"""Initial states for simulation runs, built from a RunConfig."""

from __future__ import annotations

import numpy as np

from .config import ConfigError, RunConfig, params_of
from .modes import fluctuation_only, zero_mode
from .sampling import gaussian_bump, positive_density, random_smooth, solenoidal_zero_mode
from .shear import ShearFrame
from .solver import State
from .spectral import GridSpec, SpectralField, hermitize, leray_project, sobolev_norm, zeros


def _strip_nyquist(F: SpectralField) -> SpectralField:
    """Zero the lone k = -n/2 rows; odd-in-k operators are undefined there."""
    out = F.coeffs.copy()
    lead = out.ndim - F.grid.dim
    for axis, n in enumerate(F.grid.shape):
        idx = [slice(None)] * out.ndim
        idx[lead + axis] = n // 2
        out[tuple(idx)] = 0.0
    return SpectralField(F.grid, out)


def build_density(cfg: RunConfig, grid: GridSpec) -> SpectralField:
    if cfg.init_kind == "gaussian":
        n = gaussian_bump(grid, cfg.init_width, mass=cfg.mass)
    elif cfg.init_kind == "random":
        n = positive_density(grid, seed=cfg.init_seed, mass=cfg.mass, slope=cfg.init_slope)
    else:
        raise ConfigError(f"init_kind: unknown kind {cfg.init_kind!r}")
    return _strip_nyquist(hermitize(n))


def scaled_zero_mode_velocity(grid: GridSpec, seed: int, eps: float) -> SpectralField:
    """Solenoidal x-independent (u2, u3) with ||u2_0||_H2 + ||u3_0||_H1 = eps."""
    u = solenoidal_zero_mode(grid, seed=seed, slope=3.0)
    size = sobolev_norm(zero_mode(u.component(1)), 2) + sobolev_norm(zero_mode(u.component(2)), 1)
    if size > 0 and eps > 0:
        u.coeffs *= eps / size
    elif eps == 0:
        u.coeffs *= 0.0
    return u


def build_velocity(cfg: RunConfig, grid: GridSpec) -> SpectralField:
    u = zeros(grid, components=3)
    if cfg.u_kind in ("zero_mode", "random") and cfg.u_eps > 0:
        u.coeffs += scaled_zero_mode_velocity(grid, cfg.u_seed, cfg.u_eps).coeffs
    if cfg.u_kind == "random" and cfg.u_amplitude > 0:
        fluct = fluctuation_only(random_smooth(grid, seed=cfg.u_seed + 1000,
                                               slope=3.0, components=3))
        fluct = leray_project(fluct)
        norm = np.sqrt(grid.volume * np.sum(np.abs(fluct.coeffs) ** 2))
        if norm > 0:
            u.coeffs += cfg.u_amplitude / norm * fluct.coeffs
    return _strip_nyquist(hermitize(leray_project(u)))


def build_initial_state(cfg: RunConfig) -> State:
    params = params_of(cfg)
    n = build_density(cfg, params.grid)
    u = build_velocity(cfg, params.grid) if params.enable_velocity else None
    return State(t=0.0, n=n, u=u, frame=ShearFrame())
