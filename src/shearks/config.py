"""Plain key = value run configuration.

One flat namespace, '#' comments, unknown keys rejected, later assignments
win (the CLI appends its overrides below the file's text).  Scenario-level
requirements are checked here; the physical and numerical parameters are
checked once, by the solver's ``Params``, which validation builds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .solver import Params
from .spectral import GridSpec

SCENARIOS = ("simulate", "sweep_mass", "rate_fit", "check")
CHECK_SUITES = ("elliptic", "poincare", "loghls", "gns", "identities", "all")


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the key."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(p) for p in s.replace(",", " ").split())


def _parse_optional_float(s: str):
    return None if s.strip().lower() in ("none", "") else float(s)


@dataclass
class RunConfig:
    scenario: str = "simulate"
    dim: int = 2
    nx: int = 64
    ny: int = 64
    nz: int = 0
    A: float = 1.0
    enable_shear: bool = True
    enable_chemotaxis: bool = True
    enable_velocity: bool | None = None   # defaults to (dim == 3)
    t_end: float = 10.0
    dt_max: float = 0.05
    fixed_dt: float | None = None
    monitor_positivity: bool = True
    monitor_tail: bool = True
    drop_tol: float = 1e-6
    track_decomposition: bool | None = None  # defaults to velocity runs
    track_energies: bool = True
    output_every: float = 0.5
    checkpoint_every: float = 0.0            # 0 disables periodic checkpoints
    out_dir: str = "out"

    # initial density
    init_kind: str = "gaussian"
    mass: float = 0.0
    init_width: float = 0.5
    init_seed: int = 0
    init_slope: float = 2.0

    # initial velocity
    u_kind: str = "none"
    u_eps: float = 0.0
    u_seed: int = 1
    u_amplitude: float = 0.0   # non-zero-mode scale

    # sweep / rate / check scenario knobs
    masses: tuple[float, ...] = ()
    a_values: tuple[float, ...] = ()
    workers: int = 1
    suite: str = "all"
    samples: int = 100


_CONVERTERS = {
    str: lambda s: s.strip(),
    int: int,
    float: float,
    bool: _parse_bool,
}


def _converter_for(f):
    if f.name in ("masses", "a_values"):
        return _parse_float_list
    if f.name in ("fixed_dt",):
        return _parse_optional_float
    if f.name in ("enable_velocity", "track_decomposition"):
        return _parse_bool
    return _CONVERTERS[f.type if isinstance(f.type, type) else type(f.default)]


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines into a validated RunConfig."""
    known = {f.name: f for f in fields(RunConfig)}
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _converter_for(known[key])(value))
        except (ValueError, TypeError) as err:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {err}") from err
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if cfg.dim not in (2, 3):
        raise ConfigError(f"dim must be 2 or 3, got {cfg.dim}")
    sizes = [("nx", cfg.nx), ("ny", cfg.ny)] + ([("nz", cfg.nz)] if cfg.dim == 3 else [])
    for name, n in sizes:
        if n < 8 or n % 2 != 0:
            raise ConfigError(f"{name}: n_modes must be even and >= 8, got {n}")
    if cfg.scenario == "simulate" and cfg.mass <= 0:
        raise ConfigError("mass: required positive for simulate runs")
    if cfg.scenario == "sweep_mass" and not cfg.masses:
        raise ConfigError("masses: sweep_mass needs a nonempty mass list")
    if cfg.scenario == "rate_fit" and not cfg.a_values:
        raise ConfigError("a_values: rate_fit needs a nonempty amplitude list")
    if cfg.scenario == "check" and cfg.suite not in CHECK_SUITES:
        raise ConfigError(f"suite: must be one of {CHECK_SUITES}, got {cfg.suite!r}")
    if cfg.init_kind not in ("gaussian", "random"):
        raise ConfigError(f"init_kind: unknown kind {cfg.init_kind!r}")
    if cfg.u_kind not in ("none", "zero_mode", "random"):
        raise ConfigError(f"u_kind: unknown kind {cfg.u_kind!r}")
    if cfg.workers < 1:
        raise ConfigError("workers: must be >= 1")
    params_of(cfg)  # the solver parameters carry the physical checks


def grid_of(cfg: RunConfig) -> GridSpec:
    shape = (cfg.nx, cfg.ny) if cfg.dim == 2 else (cfg.nx, cfg.ny, cfg.nz)
    return GridSpec(shape)


def params_of(cfg: RunConfig) -> Params:
    """Solver parameters: every Params field RunConfig shares by name, plus
    the grid, A as the amplitude and the two velocity-dependent defaults."""
    shared = {f.name for f in fields(RunConfig)}
    kw = {f.name: getattr(cfg, f.name) for f in fields(Params) if f.name in shared}
    velocity = cfg.enable_velocity if cfg.enable_velocity is not None else cfg.dim == 3
    track_dec = cfg.track_decomposition if cfg.track_decomposition is not None else velocity
    kw.update(grid=grid_of(cfg), amplitude=cfg.A, enable_velocity=velocity,
              track_decomposition=track_dec and velocity)
    try:
        return Params(**kw)
    except ValueError as err:
        raise ConfigError(str(err)) from err
