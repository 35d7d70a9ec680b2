"""Reference trajectories: five short runs whose series the suite pins.

    PYTHONPATH=src python3 tests/make_reference.py

reruns every case in ``CASES`` and writes its series to
``tests/data/reference/<case>.csv`` in the format of
``seriesio.write_series``, with ``meta.json`` beside them (numpy version,
FFT backend, the cases' settings).  ``tests/test_reference.py`` reruns the
cases and compares every column against these files.  Regenerate them only
for a change that moves a column past its bound on purpose, and declare the
move with the largest change per column.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from shearks import scenarios, solver
from shearks.config import params_of, parse_config
from shearks.initial import build_initial_state
from shearks.seriesio import write_series

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
REFERENCE = Path(__file__).resolve().parent / "data" / "reference"

# case -> (config file or None, override lines); each runs in well under 2 s
CASES = {
    # the coupled run with ledger and tracker, remapped at t = 1
    "suppression_3d_16": ("suppression_3d.conf",
                          "nx = 16\nny = 16\nnz = 16\nt_end = 1.5\noutput_every = 0.1"),
    "collapse_3d": ("collapse_3d.conf", "t_end = 0.1"),
    # the 4 pi member of the 2D sweep
    "sweep_2d_4pi": ("sweep_2d_critical_mass.conf",
                     "scenario = simulate\nmass = 12.566\nt_end = 1.0"),
    # a passive scalar across three remaps
    "passive_2d": (None, "dim = 2\nnx = 32\nny = 32\nA = 100\nenable_chemotaxis = false\n"
                         "init_kind = random\ninit_seed = 3\nmass = 1.0\nt_end = 3.2\n"
                         "dt_max = 0.05\noutput_every = 0.2\ndrop_tol = 1e18\n"
                         "track_energies = false"),
    # the rate fit's run at A = 1e2
    "rate_1e2": ("rate_fit.conf", "a_values = 1e2"),
}


def config_of(case: str):
    name, overrides = CASES[case]
    text = (CONFIGS / name).read_text() if name else "scenario = simulate"
    return parse_config(text + "\n" + overrides)


def case_rows(case: str) -> list[dict]:
    """The series rows of one case, computed by the program as it stands."""
    cfg = config_of(case)
    if cfg.scenario == "simulate":
        return solver.run(params_of(cfg), build_initial_state(cfg)).rows
    rows, real_run = [], scenarios.run

    def keep(params, state, on_sample=None):  # the rate fit's own run
        result = real_run(params, state, on_sample)
        rows.extend(result.rows)
        return result

    scenarios.run = keep
    try:
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.RankWarning)  # a one-point fit
            scenarios.run_rate_fit(replace(cfg, out_dir=out))
    finally:
        scenarios.run = real_run
    return rows


def environment() -> dict:
    return {"numpy": np.__version__,
            "fft_backend": "+".join(m for m in ("numpy.fft", "scipy.fft", "pyfftw")
                                    if m in sys.modules),
            "python": sys.version.split()[0]}


def main():
    REFERENCE.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        write_series(REFERENCE / f"{case}.csv", case_rows(case))
    meta = {**environment(), "cases": {c: {"config": n, "overrides": o.splitlines()}
                                       for c, (n, o) in CASES.items()}}
    (REFERENCE / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    main()
