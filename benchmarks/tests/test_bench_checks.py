"""Each benchmark check accepts a correct output and rejects a corrupted one."""

import math
import struct
import zlib

import numpy as np
import pytest

import checks
from shearks.config import parse_config
from shearks.scenarios import run_simulate


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    """A short 2D chemotaxis run written by the program itself."""
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(f"""
        dim = 2
        nx = 32
        ny = 32
        enable_shear = false
        mass = {4 * math.pi}
        init_width = 1.0
        t_end = 0.2
        dt_max = 0.01
        output_every = 0.02
        track_energies = false
        out_dir = {out}
    """)
    run_simulate(cfg)
    return out / "series.csv"


def test_mass_rejects_shifted_mass(series_path):
    rows = checks.read_series(series_path)
    assert len(rows) == 11 and checks.mass_conserved(rows)[0]
    rows[4]["mass"] *= 1.0 + 1e-7
    assert not checks.mass_conserved(rows)[0]


def test_resume_rejects_one_altered_column(series_path):
    rows = checks.read_series(series_path)
    resumed = [dict(row) for row in rows[5:]]
    assert checks.resume_equivalence(rows, resumed)[0]
    resumed[2]["n_l2"] = math.nextafter(resumed[2]["n_l2"], math.inf)
    ok, detail = checks.resume_equivalence(rows, resumed)
    assert not ok and detail.endswith(": n_l2")


def test_resume_rejects_missing_rows(series_path):
    rows = checks.read_series(series_path)
    assert not checks.resume_equivalence(rows, rows[5:-1])[0]


def test_divergence_rejects_compressible_row():
    rows = [{"u_l2": 2.0, "div_l2": 1e-17}, {"u_l2": 2.0, "div_l2": 3e-10}]
    assert checks.divergence_free(rows[:1])[0]
    assert not checks.divergence_free(rows)[0]


def test_bounded_rejects_swapped_status_and_growth():
    rows = [{"n_linf": 1.0}, {"n_linf": 2.9}]
    assert checks.stays_bounded("suppressed", rows)[0]
    assert not checks.stays_bounded("blowup", rows)[0]
    assert not checks.stays_bounded("suppressed", rows + [{"n_linf": 3.1}])[0]


def test_collapse_rejects_suppressed_contrast():
    assert checks.collapses("blowup", 0.02, 20.0)[0]
    assert checks.collapses("unresolved", 0.5, 20.0)[0]
    assert not checks.collapses("suppressed", 20.0, 20.0)[0]
    assert not checks.collapses("blowup", 20.0, 20.0)[0]


def test_bracket_rejects_swapped_status():
    members = [(4 * math.pi, "suppressed"), (6 * math.pi, "suppressed"),
               (10 * math.pi, "blowup"), (12 * math.pi, "blowup")]
    assert checks.critical_mass_bracket(members)[0]
    swapped = [members[0], (6 * math.pi, "blowup"), (10 * math.pi, "suppressed"), members[3]]
    assert not checks.critical_mass_bracket(swapped)[0]
    assert not checks.critical_mass_bracket(members[:2])[0]


def test_free_energy_rejects_a_rise():
    falling = [[3.0, 2.0, float("nan"), 1.0], [-1.0, -1.5]]
    assert checks.free_energy_nonincreasing(falling)[0]
    assert not checks.free_energy_nonincreasing(falling + [[1.0, 1.0 + 1e-6]])[0]


def test_rate_checks_reject_wrong_fit():
    assert checks.slope_near(-0.32)[0]
    assert not checks.slope_near(-0.5)[0]
    assert checks.strictly_decreasing([0.14, 0.07, 0.03])[0]
    assert not checks.strictly_decreasing([0.14, 0.07, 0.07])[0]


def _mode_field(n, k, t, A, a0, scale=1.0):
    coeffs = np.zeros((n, n), dtype=np.complex128)
    value = scale * a0 * checks.passive_mode_amplitude(*k, t, A)
    k2_t = k[1] - k[0] * round(t)
    coeffs[k[0], k2_t] = value
    coeffs[-k[0], -k2_t] = np.conj(value)
    return coeffs


def test_passive_mode_amplitude_matches_quadrature():
    k1, k2, t, A = 1, 3, 3.0, 100.0
    s = np.linspace(0.0, t, 200001)
    integrand = k1 ** 2 + (k2 - k1 * s) ** 2
    integral = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s)))
    assert checks.passive_mode_amplitude(k1, k2, t, A) == pytest.approx(
        math.exp(-integral / A), rel=1e-10)


def test_single_mode_rejects_wrong_amplitude_and_strays():
    a0 = 0.5 * np.exp(0.7j)
    args = ((1, 3), 3.0, 100.0, a0)
    assert checks.single_mode(_mode_field(32, (1, 3), 3.0, 100.0, a0), *args)[0]
    wrong = _mode_field(32, (1, 3), 3.0, 100.0, a0, scale=1.0 + 1e-10)
    assert not checks.single_mode(wrong, *args)[0]
    stray = _mode_field(32, (1, 3), 3.0, 100.0, a0)
    stray[2, 5] = 1e-30
    assert not checks.single_mode(stray, *args)[0]
    moved = np.roll(_mode_field(32, (1, 3), 3.0, 100.0, a0), 1, axis=1)
    assert not checks.single_mode(moved, *args)[0]


def test_decomposition_rejects_wrong_sum_and_slope():
    rng = np.random.default_rng(0)
    g1, b2 = rng.standard_normal((2, 8, 8)) + 0j
    b1 = np.zeros((8, 8), dtype=np.complex128)
    mean_n, t, A = 0.5, 2.0, 1e4
    b1[0, 0] = mean_n * t / A
    u1 = g1 + b1 + b2
    assert checks.decomposition_fidelity(g1, b1, b2, u1, mean_n, t, A)[0]
    assert not checks.decomposition_fidelity(g1, b1, b2, u1 * (1 + 1e-5), mean_n, t, A)[0]
    off = b1.copy()
    off[0, 0] *= 1 + 1e-7
    assert not checks.decomposition_fidelity(g1, off, b2, g1 + off + b2, mean_n, t, A)[0]


def test_checkpoint_rejects_bad_crc_and_changed_field():
    payload = b"PKSN" + bytes(range(64))
    data = payload + struct.pack("<I", zlib.crc32(payload))
    state = {"n": np.arange(4.0) + 1j, "t": 2.0}
    assert checks.checkpoint_roundtrip(data, dict(state), state)[0]
    flipped = data[:10] + bytes([data[10] ^ 1]) + data[11:]
    assert not checks.checkpoint_roundtrip(flipped, dict(state), state)[0]
    nudged = dict(state, n=state["n"].copy())
    nudged["n"][2] = np.nextafter(nudged["n"][2].real, 10.0) + 1j
    assert not checks.checkpoint_roundtrip(data, nudged, state)[0]
