"""Correctness checks on shearks outputs.

Each check takes plain data (series rows, statuses, arrays, file bytes) and
returns ``(ok, detail)``.  Expected values are computed here, from the
method's invariants or closed forms, never by calling the package; none
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import struct
import zlib

import numpy as np

EIGHT_PI = 8.0 * math.pi
RESUME_FAULT = ("solver.run restarts the EnergyLedger, DecompositionTracker and "
                "BlowupMonitor on resume and resets mass0, fluct0 and dropped_total; "
                "its first resumed row reports dt = 0")


def read_series(path) -> list[dict]:
    """series.csv rows as dicts: floats everywhere except the status column."""
    with open(path, newline="") as fh:
        return [{key: (value if key == "status" else float(value))
                 for key, value in row.items()}
                for row in csv.DictReader(fh)]


def mass_conserved(rows, tol=1e-8):
    m0 = rows[0]["mass"]
    worst = max(abs(row["mass"] - m0) for row in rows) / max(abs(m0), 1e-300)
    return worst <= tol, f"max relative mass drift {worst!r} over {len(rows)} rows (tol {tol})"


def divergence_free(rows, rel=1e-10):
    worst = max(row["div_l2"] / row["u_l2"] if row["u_l2"] > 0 else row["div_l2"]
                for row in rows)
    return worst <= rel, f"max div_l2/u_l2 {worst!r} (tol {rel})"


def stays_bounded(status, rows, factor=3.0):
    growth = max(row["n_linf"] for row in rows) / rows[0]["n_linf"]
    ok = status == "suppressed" and growth <= factor
    return ok, f"status {status}, max n_linf {growth!r} x initial (limit {factor})"


def collapses(status, t_final, t_end):
    ok = status in ("blowup", "unresolved") and t_final < t_end
    return ok, f"status {status} at t = {t_final!r} (t_end {t_end})"


def decomposition_fidelity(g1, b1, b2, u1_zero, mean_n, t, A, tol_sum=1e-6, tol_bar=1e-8):
    """G1 + B1 + B2 = u1_0 on the cross-section, and bar(B1) = mean(n) t / A.

    Arguments are coefficient arrays in FFT storage order, so bar(B1) is the
    (0, 0) coefficient; the norm ratio does not depend on normalisation.
    """
    rel_sum = float(np.linalg.norm(g1 + b1 + b2 - u1_zero) / np.linalg.norm(u1_zero))
    expected = mean_n * t / A
    rel_bar = abs(float(b1[0, 0].real) - expected) / abs(expected)
    ok = rel_sum <= tol_sum and rel_bar <= tol_bar
    return ok, (f"|G1+B1+B2-u1_0|/|u1_0| = {rel_sum!r} (tol {tol_sum}), "
                f"bar(B1) off mean(n) t/A by {float(rel_bar)!r} (tol {tol_bar})")


def checkpoint_roundtrip(data: bytes, read_back: dict, in_memory: dict):
    """The trailing CRC32 covers the payload, and the read-back state equals
    the in-memory one bit for bit (arrays by bytes, scalars by value)."""
    (stored,) = struct.unpack("<I", data[-4:])
    crc_ok = zlib.crc32(data[:-4]) == stored
    differ = [key for key, value in in_memory.items()
              if (_bytes(value) != _bytes(read_back[key]) if isinstance(value, np.ndarray)
                  else value != read_back[key])]
    ok = crc_ok and not differ
    return ok, (f"crc {'valid' if crc_ok else 'INVALID'}, {len(data)} bytes, "
                f"differing: {differ or 'none'}")


def _bytes(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def resume_equivalence(full_rows, resumed_rows):
    """Every column of the resumed series equals the uninterrupted series
    from the checkpoint time on."""
    t0 = resumed_rows[0]["t"]
    start = next((i for i, row in enumerate(full_rows) if row["t"] == t0), None)
    if start is None:
        return False, f"no uninterrupted row at the checkpoint time {t0!r}"
    tail = full_rows[start:]
    if len(tail) != len(resumed_rows):
        return False, f"{len(resumed_rows)} resumed rows against {len(tail)} uninterrupted"
    differ = [key for key in full_rows[0]
              if not all(_same(a[key], b[key]) for a, b in zip(tail, resumed_rows))]
    if not differ:
        return True, f"{len(tail)} rows from t = {t0!r} equal in every column"
    return False, f"columns differ from t = {t0!r}: {','.join(differ)}"


def critical_mass_bracket(members, threshold=EIGHT_PI):
    """members: (mass, status) pairs; below threshold suppressed, above blowup."""
    below = [status for mass, status in members if mass < threshold]
    above = [status for mass, status in members if mass > threshold]
    ok = bool(below) and bool(above) and all(s == "suppressed" for s in below) \
        and all(s == "blowup" for s in above)
    listing = ", ".join(f"{mass / math.pi:.4g}pi {status}" for mass, status in members)
    return ok, f"{listing}; 8pi bracketed: {ok}"


def free_energy_nonincreasing(series, slack=1e-9):
    """Each member's finite free-energy values never rise by more than
    slack times the largest magnitude seen in that member."""
    worst = 0.0
    for values in series:
        finite = [v for v in values if math.isfinite(v)]
        if len(finite) < 2:
            return False, "fewer than two finite free-energy values in a member"
        scale = max(abs(v) for v in finite)
        rise = max(max(b - a for a, b in zip(finite, finite[1:])), 0.0) / scale
        worst = max(worst, rise)
    return worst <= slack, (f"largest relative rise {worst!r} over {len(series)} members "
                            f"(slack {slack})")


def slope_near(slope, target=-1.0 / 3.0, tol=0.1):
    return abs(slope - target) <= tol, f"fitted slope {slope!r} (target {target:.6f} +- {tol})"


def strictly_decreasing(values, label="rates"):
    ok = all(b < a for a, b in zip(values, values[1:]))
    return ok, f"{label} {list(values)!r}"


def passive_mode_amplitude(k1, k2, t, A) -> float:
    """exp(-(1/A) int_0^t (k1^2 + (k2 - k1 s)^2) ds), integral in closed form."""
    integral = k1 * k1 * t + (k2 ** 3 - (k2 - k1 * t) ** 3) / (3.0 * k1)
    return math.exp(-integral / A)


def single_mode(coeffs, k, t, A, a0, tol=1e-12):
    """A passive mode a0 e^{i k.x} (plus its conjugate) after an integer drift t
    sits at (k1, k2 - k1 t) with the closed-form amplitude; all else is zero."""
    k1, k2 = k
    k2_t = k2 - k1 * round(t)
    n1, n2 = coeffs.shape
    at, mirror = (k1 % n1, k2_t % n2), (-k1 % n1, -k2_t % n2)
    expected = a0 * passive_mode_amplitude(k1, k2, t, A)
    rel = abs(coeffs[at] - expected) / abs(expected)
    rest = coeffs.copy()
    rest[at] = rest[mirror] = 0.0
    stray = float(np.max(np.abs(rest)))
    ok = rel <= tol and stray == 0.0 and coeffs[mirror] == np.conj(coeffs[at])
    return ok, (f"mode at {at}: relative error {float(rel)!r} (tol {tol}), "
                f"largest other coefficient {stray!r}")
