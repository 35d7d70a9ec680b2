"""Reference trajectories: five short runs whose series the suite pins.

    PYTHONPATH=src python3 tests/make_reference.py [--check]

reruns every case in ``CASES`` and writes its series to
``tests/data/reference/<case>.csv`` in the format of
``seriesio.write_series``, with ``meta.json`` beside them (numpy version,
FFT backend, the cases' settings).  ``tests/test_reference.py`` reruns the
cases and compares every column against these files.  Regenerate them only
for a change that moves a column past its bound on purpose, and declare the
move: before it overwrites a case's file, the script prints the largest
change per column against it beside the column's bound (``largest_moves``).
The bounds (``allowed``) are defined here, and ``test_reference.py`` holds
the runs to them: ``status``, ``t`` and the row count exactly, every other
column to SMOOTH_REL relative, except the round-off columns: ``div_l2``
absolutely (DIV_ABS), ``n_min`` relative to the row's ``n_linf``
(N_MIN_REL), and ``dropped_energy`` to SMOOTH_REL relative or DROPPED_ABS
absolute, whichever is larger, since a run that loses only round-off at its
remaps reads a value near 1e-36.

With ``--check`` it prints the same report, writes nothing, and exits 1
when any case's row count, ``t``, ``status`` or any other column differs
from its file at all (NaN equal to NaN), or a file is missing; 0 shows a
change byte-identical on every case.
"""

from __future__ import annotations

import argparse
import json
import math
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
from shearks.solver import SERIES_COLUMNS

from oracles import read_series

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


def _same(new, old) -> bool:
    return new == old or (isinstance(new, float) and math.isnan(new) and math.isnan(old))


def identical(rows: list[dict], refs: list[dict]) -> bool:
    """Whether rows equal a reference file's rows exactly, column by column."""
    return len(rows) == len(refs) and all(_same(row[c], ref[c]) for row, ref in zip(rows, refs)
                                          for c in SERIES_COLUMNS)


SMOOTH_REL = 1e-13
DIV_ABS = 1e-15
N_MIN_REL = 1e-13
DROPPED_ABS = 1e-30
EXACT = ("t", "status")


def terms(column: str, ref: dict) -> tuple[float, float, str]:
    """(scale, bound, name): a column's move |new - ref[column]| / scale may
    reach bound in the reference row ref; name says what the move is."""
    value = ref[column]
    if column == "div_l2":
        return 1.0, DIV_ABS, "abs"
    if column == "n_min":
        return abs(ref["n_linf"]), N_MIN_REL, "of n_linf"
    if column == "dropped_energy" and SMOOTH_REL * abs(value) < DROPPED_ABS:
        return 1.0, DROPPED_ABS, "abs"
    return abs(value), SMOOTH_REL, "rel"


def allowed(column: str, ref: dict) -> float:
    """The largest |new - ref| the column may show in the reference row ref."""
    scale, bound, _ = terms(column, ref)
    return bound * scale


def _move(new: float, ref: dict, column: str) -> tuple[float, float, str]:
    """(move, bound, name) of one value against its reference row, in the
    column's ``terms``: 0 where both are equal or both NaN, inf where only
    one is NaN or the scale is 0."""
    old = ref[column]
    scale, bound, name = terms(column, ref)
    if _same(new, old):
        return 0.0, bound, name
    if math.isnan(new) or math.isnan(old) or scale == 0.0:
        return math.inf, bound, name
    return abs(new - old) / scale, bound, name


def largest_moves(rows: list[dict], refs: list[dict]) -> str:
    """The largest change per column of rows against refs, a reference
    file's rows: the row count, t and status as equal or not, every other
    column as its largest move over the rows both hold, measured and shown
    as ``test_reference.py`` bounds it (``terms``), beside that bound."""
    parts = ["rows equal" if len(rows) == len(refs) else f"rows {len(refs)} -> {len(rows)}"]
    for column in SERIES_COLUMNS:
        if column in EXACT:
            same = all(row[column] == ref[column] for row, ref in zip(rows, refs))
            parts.append(f"{column} {'equal' if same else 'differs'}")
            continue
        moves = [_move(row[column], ref, column) for row, ref in zip(rows, refs)]
        move, bound, name = max(moves, key=lambda m: m[0] / m[1], default=(0.0, SMOOTH_REL, "rel"))
        parts.append(f"{column} {move:.2g} {name} (bound {bound:.0e})")
    return ", ".join(parts)


def environment() -> dict:
    return {"numpy": np.__version__,
            "fft_backend": "+".join(m for m in ("numpy.fft", "scipy.fft", "pyfftw")
                                    if m in sys.modules),
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the reference series.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the files and write nothing; exit 1 on any difference")
    check = parser.parse_args(argv).check
    REFERENCE.mkdir(parents=True, exist_ok=True)
    differs = False
    for case in CASES:
        rows, path = case_rows(case), REFERENCE / f"{case}.csv"
        refs = read_series(path) if path.exists() else None
        print(f"{case}: {'new' if refs is None else largest_moves(rows, refs)}")
        differs |= refs is None or not identical(rows, refs)
        if not check:
            write_series(path, rows)
    if check:
        return int(differs)
    meta = {**environment(), "cases": {c: {"config": n, "overrides": o.splitlines()}
                                       for c, (n, o) in CASES.items()}}
    (REFERENCE / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
