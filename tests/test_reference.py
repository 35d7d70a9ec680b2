"""Every column of five short runs against the references in tests/data/reference.

``status``, ``t`` and the row count must match exactly.  Every other column
is smooth and must agree to SMOOTH_REL relative, except the round-off
columns: ``div_l2`` is compared absolutely (DIV_ABS), ``n_min`` relative to
the row's ``n_linf`` (N_MIN_REL), and ``dropped_energy`` to SMOOTH_REL
relative or DROPPED_ABS absolute, whichever is larger, since a run that
loses only round-off at its remaps reads a value near 1e-36.
``tests/make_reference.py`` regenerates the references.
"""

import math

import pytest

from shearks.solver import SERIES_COLUMNS

from make_reference import CASES, REFERENCE, case_rows
from oracles import read_series

SMOOTH_REL = 1e-13
DIV_ABS = 1e-15
N_MIN_REL = 1e-13
DROPPED_ABS = 1e-30
EXACT = ("t", "status")


def allowed(column: str, ref: dict) -> float:
    """The largest |new - ref| the column may show in the reference row ref."""
    value = ref[column]
    if column == "div_l2":
        return DIV_ABS
    if column == "n_min":
        return N_MIN_REL * abs(ref["n_linf"])
    if column == "dropped_energy":
        return max(SMOOTH_REL * abs(value), DROPPED_ABS)
    return SMOOTH_REL * abs(value)


def departures(rows: list[dict], refs: list[dict]) -> list[str]:
    """Every (row, column) outside its bound, described."""
    out = []
    for i, (row, ref) in enumerate(zip(rows, refs)):
        for column in SERIES_COLUMNS:
            new, old = row[column], ref[column]
            if column in EXACT:
                ok = new == old
            elif math.isnan(old):
                ok = math.isnan(new)
            else:
                ok = abs(new - old) <= allowed(column, ref)
            if not ok:
                out.append(f"row {i} {column}: {new!r} against {old!r}")
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_series_matches_reference(case):
    refs = read_series(REFERENCE / f"{case}.csv")
    rows = case_rows(case)
    assert len(rows) == len(refs)
    assert departures(rows, refs) == []


def test_departures_are_caught():
    refs = read_series(REFERENCE / "suppression_3d_16.csv")
    rows = [dict(r) for r in refs]
    assert departures(rows, refs) == []
    rows[3]["E12"] *= 1.0 + 1e-12
    rows[4]["div_l2"] += 2 * DIV_ABS
    rows[5]["status"] = "blowup"
    assert [d.split(":")[0] for d in departures(rows, refs)] == \
        ["row 3 E12", "row 4 div_l2", "row 5 status"]
