"""Which shearks functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/shearks``; ``modes``, ``sampling``,
``config`` and ``cli`` are not wrapped, so their time stays in the self time
of whatever called them.  Metric names are fixed: when the package renames a
wrapped function, only the target list below changes.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from shearks import (diagnostics, inequalities, initial, scenarios, seriesio, shear, solver,
                     spectral)

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "spectral.fft": ("spectral.fft_s", "spectral.fft_calls"),
    "spectral.leray": ("spectral.leray_s", None),
    "spectral.hermitize": ("spectral.hermitize_s", None),
    "spectral.chemo": ("spectral.chemo_s", None),
    "solver.tendency": ("solver.tendency_s", "solver.tendency_calls"),
    "solver.step": ("solver.step_s", "solver.steps"),
    "solver.row": ("solver.row_s", "solver.samples"),
    "solver.monitor": ("solver.monitor_s", None),
    "shear.factor": ("shear.factor_s", None),
    "shear.propagate": ("shear.propagate_s", None),
    "diagnostics.ledger": ("diagnostics.ledger_s", "diagnostics.ledger_calls"),
    "diagnostics.tracker": ("diagnostics.tracker_s", "diagnostics.tracker_calls"),
    "inequalities.free_energy": ("inequalities.free_energy_s", None),
    "seriesio.checkpoint_write": ("seriesio.checkpoint_write_s", None),
    "seriesio.checkpoint_read": ("seriesio.checkpoint_read_s", None),
    "seriesio.series_write": ("seriesio.series_write_s", None),
    "initial.build": ("initial.build_s", None),
    "scenarios": ("scenarios.self_s", None),
    "bench.check": ("bench.check_s", None),
    "bench.workload": ("bench.self_s", None),
}
COUNTERS = ("spectral.fft_points", "shear.remaps", "seriesio.checkpoint_bytes")
ROOT_SPAN = "bench.workload"


def _fft_points(tracer, args, result):
    """Complex values on the spectral side: the input of a c2r transform,
    the output otherwise (x16 B gives the bytes computed)."""
    size = result.size if np.iscomplexobj(result) else np.asarray(args[0]).size
    tracer.counts["spectral.fft_points"] += size
    return result


def _step_operator(tracer, args, result):
    """Count remaps and trace the propagator closure the operator returns."""
    params, frame, _, dt = args
    apply, new_frame = result
    if params.enable_shear and new_frame.drift != frame.drift + dt:
        tracer.counts["shear.remaps"] += 1
    return tracer.wrap(apply, "shear.propagate"), new_frame


def _remap(tracer, args, result):
    frame = args[1]
    drift = frame.drift if isinstance(frame, shear.ShearFrame) else float(frame)
    if result[1].drift != drift:
        tracer.counts["shear.remaps"] += 1
    return result


def _checkpoint_write(tracer, args, result):
    tracer.counts["seriesio.checkpoint_bytes"] += os.path.getsize(args[0])
    return result


def targets():
    """(owner, attribute, span name, after-hook) for every wrapped function."""
    out = [(np.fft, name, "spectral.fft", _fft_points) for name in FFT_FUNCTIONS]
    if "scipy.fft" in sys.modules:  # only when the package itself loaded it
        out += [(sys.modules["scipy.fft"], name, "spectral.fft", _fft_points)
                for name in FFT_FUNCTIONS]
    out += [
        (spectral, "leray_project", "spectral.leray", None),
        (spectral, "hermitize", "spectral.hermitize", None),
        (spectral, "solve_chemo", "spectral.chemo", None),
        (solver, "_evaluate", "solver.tendency", None),
        (solver, "step", "solver.step", None),
        (solver, "_row", "solver.row", None),
        (solver, "run", "solver.monitor", None),
        (solver, "tail_ratio", "solver.monitor", None),
        (shear, "integrating_factor", "shear.factor", None),
        (solver, "_step_operator", "shear.propagate", _step_operator),
        (shear, "propagate", "shear.propagate", None),
        (shear, "remap", "shear.propagate", _remap),
        (diagnostics, "ledger_update", "diagnostics.ledger", None),
        (diagnostics.DecompositionTracker, "advance", "diagnostics.tracker", None),
        (inequalities, "free_energy", "inequalities.free_energy", None),
        (seriesio, "write_checkpoint", "seriesio.checkpoint_write", _checkpoint_write),
        (seriesio, "read_checkpoint", "seriesio.checkpoint_read", None),
        (seriesio, "write_series", "seriesio.series_write", None),
        (initial, "build_initial_state", "initial.build", None),
    ]
    out += [(scenarios, name, "scenarios", None)
            for name in ("run_simulate", "run_resume", "run_sweep_mass", "_sweep_single",
                         "run_rate_fit", "efold_time")]
    return out


def install(tracer) -> list[str]:
    """Wrap every target; returns the names of targets that do not exist."""
    return [f"{owner.__name__}.{attr}" for owner, attr, name, after in targets()
            if not tracer.patch(owner, attr, name, after)]


def layer_metrics(totals: dict, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, zero for layers that did no work."""
    out = {}
    for span, (time_metric, count_metric) in SPAN_METRICS.items():
        ns, calls = totals.get(span, (0, 0))
        out[time_metric] = (ns / 1e9, "s")
        if count_metric:
            out[count_metric] = (calls, "count")
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
    return out
