"""Plain key = value run configuration: the one run schema.

One flat namespace, '#' comments, unknown keys rejected, later assignments
win (the CLI appends its overrides below the file's text).  A ``RunConfig``
is also what the solver reads: ``params_of`` resolves its two
velocity-dependent defaults and makes the checks every run needs, and
``validate_config`` adds the scenario requirements and the ranges of the
other keys, so that no value reaches a run that would crash it or pass
vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

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


@dataclass
class RunConfig:
    """The one run schema: every key of a config file, and, as ``params_of``
    returns it, the parameters the solver reads."""

    scenario: str = "simulate"
    dim: int = 2
    nx: int = 64
    ny: int = 64
    nz: int = 0
    A: float = 1.0                       # Couette amplitude; diffusivity is 1/A
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

    # initial velocity: the zero-mode pair when u_eps > 0, the fluctuation
    # when u_amplitude > 0
    u_eps: float = 0.0
    u_seed: int = 1
    u_amplitude: float = 0.0   # non-zero-mode scale

    # sweep / rate / check scenario knobs
    masses: tuple[float, ...] = ()
    a_values: tuple[float, ...] = ()
    workers: int = 1
    suite: str = "all"
    samples: int = 100

    @property
    def grid(self) -> GridSpec:
        """The collocation grid of dim, nx, ny (and nz in 3D), one instance per shape."""
        return _grid(self.dim, self.nx, self.ny, self.nz)


@lru_cache(maxsize=32)
def _grid(dim: int, nx: int, ny: int, nz: int) -> GridSpec:
    return GridSpec((nx, ny) if dim == 2 else (nx, ny, nz))


# by field annotation: a new key of an existing type needs no new parser
_CONVERTERS = {
    "str": lambda s: s.strip(),
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "bool | None": _parse_bool,
    "float | None": lambda s: None if s.strip().lower() in ("none", "") else float(s),
    "tuple[float, ...]": lambda s: tuple(float(p) for p in s.replace(",", " ").split()),
}


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
            setattr(cfg, key, _CONVERTERS[known[key].type](value))
        except (ValueError, TypeError) as err:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {err}") from err
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    sizes = [("nx", cfg.nx), ("ny", cfg.ny)] + ([("nz", cfg.nz)] if cfg.dim == 3 else [])
    for name, n in sizes:
        if n < 8 or n % 2 != 0:
            raise ConfigError(f"{name}: n_modes must be even and >= 8, got {n}")
    # written as "not (x > bound)" so that a nan is rejected too
    if cfg.scenario == "simulate" and not cfg.mass > 0:
        raise ConfigError("mass: required positive for simulate runs")
    if cfg.scenario == "sweep_mass" and not cfg.masses:
        raise ConfigError("masses: sweep_mass needs a nonempty mass list")
    if cfg.scenario == "rate_fit" and not cfg.a_values:
        raise ConfigError("a_values: rate_fit needs a nonempty amplitude list")
    if cfg.scenario == "check" and cfg.suite not in CHECK_SUITES:
        raise ConfigError(f"suite: must be one of {CHECK_SUITES}, got {cfg.suite!r}")
    if cfg.init_kind not in ("gaussian", "random"):
        raise ConfigError(f"init_kind: unknown kind {cfg.init_kind!r}")
    if not cfg.init_width > 0:
        raise ConfigError(f"init_width: must be positive, got {cfg.init_width}")
    if not all(m > 0 for m in cfg.masses):
        raise ConfigError(f"masses: every mass must be positive, got {cfg.masses}")
    if not all(1 <= a < math.inf for a in cfg.a_values):
        raise ConfigError(f"a_values: every amplitude must be >= 1 and finite, got {cfg.a_values}")
    for key in ("u_eps", "u_amplitude", "checkpoint_every"):
        if not getattr(cfg, key) >= 0:
            raise ConfigError(f"{key}: must be >= 0, got {getattr(cfg, key)}")
    if cfg.workers < 1:
        raise ConfigError("workers: must be >= 1")
    if cfg.samples < 1:
        raise ConfigError(f"samples: must be >= 1, got {cfg.samples}")
    params_of(cfg)  # the checks every run makes


def grid_of(cfg: RunConfig) -> GridSpec:
    return cfg.grid


def params_of(cfg: RunConfig) -> RunConfig:
    """A run's parameters: cfg with enable_velocity (default dim == 3) and
    track_decomposition (default: velocity runs) resolved, once the values a
    run reads are checked; a bad one raises ConfigError naming its key."""
    velocity = cfg.enable_velocity if cfg.enable_velocity is not None else cfg.dim == 3
    track_dec = cfg.track_decomposition if cfg.track_decomposition is not None else velocity
    if cfg.dim not in (2, 3):
        raise ConfigError(f"dim: must be 2 or 3, got {cfg.dim}")
    if not 1.0 <= cfg.A < math.inf:
        raise ConfigError(f"A: shear amplitude A must be >= 1 and finite, got {cfg.A}")
    if cfg.dim == 2 and velocity:
        raise ConfigError("enable_velocity: 2D mode drops the fluid; the fluid needs dim = 3")
    if not 0 < cfg.t_end < math.inf:
        raise ConfigError(f"t_end: must be positive and finite, got {cfg.t_end}")
    for key in ("dt_max", "output_every"):
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key}: must be positive, got {getattr(cfg, key)}")
    if cfg.fixed_dt is not None and not cfg.fixed_dt > 0:
        raise ConfigError(f"fixed_dt: must be positive or none, got {cfg.fixed_dt}")
    if not cfg.drop_tol >= 0:
        raise ConfigError(f"drop_tol: must be >= 0, got {cfg.drop_tol}")
    return replace(cfg, enable_velocity=velocity, track_decomposition=track_dec and velocity)
