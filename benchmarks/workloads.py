"""The three benchmark workloads, each built from a shipped config.

``setup(name, root, seed, out)`` parses a workload's configs; ``build_states``
makes the initial states the workload's scenario drivers make.  A round runs
the scenarios and the checks of ``checks.py`` on what they wrote; every
scenario run and every check is one operation.
"""

from __future__ import annotations

import json
import math
import shutil
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from shearks import scenarios, solver
from shearks.config import grid_of, params_of, parse_config
from shearks.initial import build_initial_state
from shearks.sampling import fluctuation_only, random_smooth
from shearks.seriesio import read_checkpoint
from shearks.shear import ShearFrame
from shearks.spectral import SpectralField

DEFAULT_SEEDS = {"suppress3d": 11, "sweep2d": 0, "ratefit": 3}  # u_seed, none, init_seed
SINGLE_MODE = (1, 3)      # (k1, k2) of the closed-form passive check
SINGLE_MODE_T = 3.0       # integer drift: three remaps


@dataclass
class Op:
    name: str
    ok: bool
    detail: str
    expected_fault: str = ""


class Round:
    """Operations of one round, each with its verdict."""

    def __init__(self, tracer=None):
        self.ops: list[Op] = []
        self.tracer = tracer

    def run(self, name, fn, *args):
        """One scenario run; a raised error fails it and returns None."""
        try:
            result = fn(*args)
        except Exception as err:  # a crash is a failed operation, not a crashed bench
            self.ops.append(Op(name, False, "".join(
                traceback.format_exception_only(type(err), err)).strip()))
            return None
        self.ops.append(Op(name, True, "completed"))
        return result

    def check(self, name, fn, *args, expected_fault=""):
        index = self.tracer.begin("bench.check") if self.tracer else None
        try:
            ok, detail = fn(*args)
        except Exception as err:  # e.g. its scenario run failed and left no output
            ok, detail = False, f"{type(err).__name__}: {err}"
        finally:
            if self.tracer:
                self.tracer.end(index)
        self.ops.append(Op(name, bool(ok), detail, "" if ok else expected_fault))


def _config(root: Path, conf: str, out_dir: Path, **overrides):
    """A shipped config with key = value overrides, as the CLI applies them."""
    text = (root / "configs" / conf).read_text()
    lines = [text] + [f"{key} = {value}" for key, value in overrides.items()]
    return replace(parse_config("\n".join(lines)), out_dir=str(out_dir))


def setup(name: str, root: Path, seed: int, out: Path) -> dict:
    """Parsed configs for one workload; every output goes under out."""
    if name == "suppress3d":
        main = _config(root, "suppression_3d.conf", out / "main", t_end=2.0,
                       output_every=0.1, checkpoint_every=1.0, u_seed=seed)
        return {"main": main,
                "resume": replace(main, out_dir=str(out / "resume")),
                "collapse": _config(root, "collapse_3d.conf", out / "collapse")}
    if name == "sweep2d":
        return {"sweep": _config(root, "sweep_2d_critical_mass.conf", out / "sweep",
                                 workers=1)}
    if name == "ratefit":
        rate = _config(root, "rate_fit.conf", out / "rate", init_seed=seed)
        mode = replace(rate, scenario="simulate", A=rate.a_values[0],
                       enable_chemotaxis=False, enable_velocity=False, enable_shear=True,
                       t_end=SINGLE_MODE_T, output_every=0.5, monitor_tail=False,
                       drop_tol=math.inf, track_energies=False, track_decomposition=False)
        return {"rate": rate, "mode": mode, "seed": seed}
    raise KeyError(name)


def _single_mode_state(cfg, seed):
    """a0 e^{i k.x} + conj on the config grid; the phase of a0 comes from the seed."""
    grid = grid_of(cfg)
    a0 = 0.5 * np.exp(2j * math.pi * np.random.default_rng(seed).random())
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    k1, k2 = SINGLE_MODE
    coeffs[k1, k2] = a0
    coeffs[-k1, -k2] = np.conj(a0)
    return solver.State(t=0.0, n=SpectralField(grid, coeffs), u=None, frame=ShearFrame()), a0


def build_states(name: str, inputs: dict) -> list:
    """The initial states the workload's scenario drivers construct."""
    if name == "suppress3d":
        return [build_initial_state(inputs["main"]), build_initial_state(inputs["collapse"])]
    if name == "sweep2d":
        cfg = inputs["sweep"]
        return [build_initial_state(replace(cfg, mass=m)) for m in cfg.masses]
    rate = inputs["rate"]
    return [fluctuation_only(random_smooth(grid_of(rate), seed=rate.init_seed,
                                           slope=rate.init_slope)),
            _single_mode_state(inputs["mode"], inputs["seed"])[0]]


def _suppress3d(inputs, rnd: Round):
    cfg, cfg_collapse = inputs["main"], inputs["collapse"]
    main_dir, resume_dir = Path(cfg.out_dir), Path(inputs["resume"].out_dir)
    summary = rnd.run("simulate suppression_3d to t = 2", scenarios.run_simulate, cfg)
    result = summary["result"] if summary else None

    rows = None
    try:
        rows = checks.read_series(main_dir / "series.csv")
    except OSError:
        pass
    rnd.check("mass drift <= 1e-8 on every row", checks.mass_conserved, rows)
    rnd.check("div_l2 <= 1e-10 u_l2 on every row", checks.divergence_free, rows)
    rnd.check("suppressed with n_linf <= 3x initial", checks.stays_bounded,
              summary and summary["status"], rows)

    def decomposition():
        tracker, final = result.tracker, result.final_state
        return checks.decomposition_fidelity(
            tracker.G1.coeffs, tracker.B1.coeffs, tracker.B2.coeffs,
            final.u.coeffs[0][0], final.n.coeffs[0, 0, 0].real, final.t, cfg.A)
    rnd.check("G1+B1+B2 = u1_0 and bar(B1) = mean(n) t/A", decomposition)

    def roundtrip():
        path = main_dir / "final.pksn"
        state, A = read_checkpoint(path)
        final = result.final_state

        def fields(s, a):
            return {"n": s.n.coeffs, "u": s.u.coeffs, "t": s.t, "A": a,
                    "drift": s.frame.drift, "t_last_remap": s.frame.t_last_remap}
        return checks.checkpoint_roundtrip(path.read_bytes(), fields(state, A),
                                           fields(final, cfg.A))
    rnd.check("final.pksn reads back bit-identical, CRC valid", roundtrip)

    midrun = sorted(main_dir.glob("checkpoint_t*.pksn"))
    rnd.run(f"resume from {midrun[0].name if midrun else 'missing checkpoint'}",
            scenarios.run_resume, inputs["resume"], midrun[0] if midrun else None)
    rnd.check("series_resume.csv equals the uninterrupted series",
              lambda: checks.resume_equivalence(
                  rows, checks.read_series(resume_dir / "series_resume.csv")),
              expected_fault=checks.RESUME_FAULT)

    contrast = rnd.run("simulate collapse_3d (no shear)", scenarios.run_simulate, cfg_collapse)
    rnd.check("no-shear contrast collapses before t_end", checks.collapses,
              contrast and contrast["status"], contrast and contrast["t_final"],
              cfg_collapse.t_end)


def _sweep2d(inputs, rnd: Round):
    cfg = inputs["sweep"]
    summary = rnd.run("sweep_mass 4pi, 6pi, 10pi, 12pi", scenarios.run_sweep_mass, cfg)
    members = summary["rows"] if summary else []
    rnd.check("statuses bracket 8pi", checks.critical_mass_bracket,
              [(m["mass"], m["status"]) for m in members])

    def every_member_conserves():
        verdicts = [checks.mass_conserved(checks.read_series(m["series"])) for m in members]
        ok = bool(verdicts) and all(ok for ok, _ in verdicts)
        return ok, "; ".join(detail for _, detail in verdicts)
    rnd.check("mass drift <= 1e-8 in every member", every_member_conserves)
    rnd.check("free energy nonincreasing in every member",
              lambda: checks.free_energy_nonincreasing(
                  [[row["free_energy"] for row in checks.read_series(m["series"])]
                   for m in members]))


def _ratefit(inputs, rnd: Round):
    rate, mode = inputs["rate"], inputs["mode"]
    rnd.run("rate_fit A = 1e2 ... 1e5", scenarios.run_rate_fit, rate)
    fit = None
    try:
        fit = json.loads((Path(rate.out_dir) / "rate.json").read_text())
    except OSError:
        pass
    rnd.check("fitted slope -1/3 +- 0.1", lambda: checks.slope_near(fit["slope"]))
    rnd.check("per-A rates strictly decrease",
              lambda: checks.strictly_decreasing([r["rate"] for r in fit["per_A"]]))

    state, a0 = _single_mode_state(mode, inputs["seed"])
    result = rnd.run(f"passive mode {SINGLE_MODE} to t = {SINGLE_MODE_T:g}",
                     lambda: solver.run(params_of(mode), state))
    rnd.check("single mode matches the closed form to 1e-12",
              lambda: checks.single_mode(result.final_state.n.coeffs, SINGLE_MODE,
                                         SINGLE_MODE_T, mode.A, a0))


ROUNDS = {"suppress3d": _suppress3d, "sweep2d": _sweep2d, "ratefit": _ratefit}


def clear(out: Path):
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
