"""Every column of five short runs against the references in tests/data/reference.

``status``, ``t`` and the row count must match exactly, and every other
column must stay within its bound (``make_reference.allowed``, which
defines them): smooth columns relative, the round-off columns ``div_l2``,
``n_min`` and ``dropped_energy`` in their own terms.
``tests/make_reference.py`` regenerates the references and reports moves
against the same bounds.
"""

import math

import pytest

from shearks.solver import SERIES_COLUMNS

from make_reference import (CASES, DIV_ABS, EXACT, REFERENCE, allowed, case_rows,
                            largest_moves)
from oracles import read_series


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


def test_moves_are_reported_in_the_bounds_terms():
    refs = read_series(REFERENCE / "suppression_3d_16.csv")
    rows = [dict(r) for r in refs]
    rows[4]["div_l2"] = refs[4]["div_l2"] + 0.25
    rows[2]["n_min"] = refs[2]["n_min"] + 0.5 * refs[2]["n_linf"]
    rows[3]["E12"] = 1.5 * refs[3]["E12"]
    report = largest_moves(rows, refs).split(", ")
    for part in ("rows equal", "t equal", "status equal", "div_l2 0.25 abs (bound 1e-15)",
                 "n_min 0.5 of n_linf (bound 1e-13)", "E12 0.5 rel (bound 1e-13)",
                 "u_l2 0 rel (bound 1e-13)", "dropped_energy 0 abs (bound 1e-30)"):
        assert part in report
