"""Elliptic/Poincare ratio checks, free energy, log-HLS scan, GNS ratios."""

import math

import numpy as np
import pytest

from shearks.inequalities import (
    check_elliptic,
    check_poincare,
    free_energy,
    is_positive,
    gns_ratio,
    gns_theta,
    loghls_functional,
    loghls_scan,
)
from shearks.sampling import fluctuation_only, gaussian_bump, random_smooth
from shearks.spectral import ContractViolation, GridSpec

from oracles import free_energy_monotone, from_values, pad_to, run_params

GRID2 = GridSpec((32, 32))


class TestElliptic:
    def test_constant_zero_mode(self):
        n = from_values(GRID2, np.full(GRID2.shape, 2.0))
        report = check_elliptic([n])
        assert report["rows"][0]["zero_mode_ratio"] == 0.0
        assert report["passed"]

    def test_one_plus_cos_y(self):
        _, y = GRID2.coordinate_mesh()
        n = from_values(GRID2, 1.0 + np.cos(y) + np.zeros(GRID2.shape))
        report = check_elliptic([n])
        # Parseval: ||lap c0||^2 = ||n0||^2 - nbar^2 |T|^2
        expected = math.sqrt(0.5 / 1.5)
        assert report["rows"][0]["zero_mode_ratio"] == pytest.approx(expected, rel=1e-10)

    def test_hundred_random_samples(self):
        samples = [random_smooth(GRID2, seed=s) for s in range(100)]
        for f in samples:
            f.half[0, 0] += 1.0  # positive mean for the zero-mode case
        report = check_elliptic(samples)
        assert report["passed"]
        assert report["max_ratio"] <= 1.0 + 1e-10


class TestPoincare:
    def test_sin_x_extremizer(self):
        x, _ = GRID2.coordinate_mesh()
        f = from_values(GRID2, np.sin(x) + np.zeros(GRID2.shape))
        report = check_poincare([f])
        assert report["rows"][0]["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_sin_2x(self):
        x, _ = GRID2.coordinate_mesh()
        f = from_values(GRID2, np.sin(2 * x) + np.zeros(GRID2.shape))
        report = check_poincare([f])
        assert report["rows"][0]["ratio"] == pytest.approx(0.5, rel=1e-12)

    def test_random_batch(self):
        samples = [fluctuation_only(random_smooth(GRID2, seed=s)) for s in range(100)]
        report = check_poincare(samples)
        assert report["passed"]

    def test_nonzero_average_rejected(self):
        f = from_values(GRID2, np.ones(GRID2.shape))
        with pytest.raises(ContractViolation):
            check_poincare([f])


class TestFreeEnergy:
    def test_constant_density(self):
        nbar = 1.7
        n = from_values(GRID2, np.full(GRID2.shape, nbar))
        expected = GRID2.volume * nbar * math.log(nbar)
        assert free_energy(n) == pytest.approx(expected, rel=1e-12)

    def test_needs_positive_density(self):
        _, y = GRID2.coordinate_mesh()
        n = from_values(GRID2, np.cos(y) + np.zeros(GRID2.shape))  # has zeros
        with pytest.raises(ContractViolation):
            free_energy(n)

    def test_positive_up_to_round_off(self):
        assert is_positive(2.0, 2.0)
        assert is_positive(-1e-15, 2.0)  # a Gaussian's tail after a transform round trip
        assert not is_positive(-1e-9, 2.0)
        assert not is_positive(0.0, 0.0)

    def test_round_off_negative_value_adds_zero(self):
        n = from_values(GRID2, np.full(GRID2.shape, 1.7))
        vals = np.full(GRID2.shape, 1.7)
        vals[3, 4] = 0.0
        at_zero = free_energy(n, vals)
        vals[3, 4] = -1e-15
        assert math.isfinite(at_zero) and free_energy(n, vals) == at_zero

    def test_translation_and_axis_invariance(self):
        n = gaussian_bump(GRID2, width=0.8, mass=4 * np.pi, center=(2.0, 4.0))
        m = gaussian_bump(GRID2, width=0.8, mass=4 * np.pi, center=(4.0, 2.0))
        assert free_energy(n) == pytest.approx(free_energy(m), rel=1e-10)

    def test_monotone_on_subcritical_run(self):
        from shearks.shear import ShearFrame
        from shearks.solver import State, run

        grid = GridSpec((48, 48))
        params = run_params(grid, A=1.0, enable_shear=False,
                            enable_velocity=False, t_end=0.4, dt_max=2e-3,
                            output_every=0.05, track_energies=False)
        n = gaussian_bump(grid, width=0.8, mass=0.5 * 8 * np.pi)
        result = run(params, State(t=0.0, n=n, u=None, frame=ShearFrame()))
        assert result.status == "suppressed"
        assert free_energy_monotone(result.rows)


class TestLogHLS:
    def test_uniform_density_finite(self):
        grid = GridSpec((32, 32))
        m = 4 * np.pi
        f = from_values(grid, np.full(grid.shape, m / grid.volume))
        val = loghls_functional(f)
        assert math.isfinite(val)

    def test_translation_invariance(self):
        grid = GridSpec((32, 32))
        a = gaussian_bump(grid, width=0.5, mass=4 * np.pi, center=(3.0, 3.0))
        b = gaussian_bump(grid, width=0.5, mass=4 * np.pi, center=(1.0, 5.0))
        assert loghls_functional(a) == pytest.approx(loghls_functional(b), abs=1e-8)

    def test_grid_cap(self):
        big = GridSpec((128, 128))
        f = gaussian_bump(big, width=0.5, mass=1.0)
        with pytest.raises(ContractViolation, match="64"):
            loghls_functional(f)

    def test_scan_minimum_stabilizes(self):
        report = loghls_scan(mass=4 * np.pi, grid=GridSpec((64, 64)))
        assert report["passed"]
        assert report["relative_drop"] <= 0.01

    def test_two_seeds_agree(self):
        r1 = loghls_scan(mass=4 * np.pi, grid=GridSpec((48, 48)), seeds=(0,))
        r2 = loghls_scan(mass=4 * np.pi, grid=GridSpec((48, 48)), seeds=(1,))
        # bump family identical, random additions differ but stay above the minimum scale
        assert r1["passed"] and r2["passed"]
        bumps1 = {k: v for k, v in r1["values"].items() if k.startswith("bump")}
        bumps2 = {k: v for k, v in r2["values"].items() if k.startswith("bump")}
        assert bumps1 == bumps2


class TestGNS:
    def test_theta_formula(self):
        assert gns_theta(2, 3.0, 1.0) == pytest.approx(2.0 / 3.0)

    def test_exponent_constraints(self):
        with pytest.raises(ContractViolation):
            gns_theta(2, 1.0, 3.0)  # q < r

    def test_sin_y_finite_ratio(self):
        _, y = GRID2.coordinate_mesh()
        f = from_values(GRID2, np.sin(y) + np.zeros(GRID2.shape))
        report = gns_ratio(3.0, 1.0, [f])
        assert report["passed"]
        assert 0 < report["rows"][0]["ratio"] < 10.0

    def test_refinement_stability(self):
        # same band-limited functions evaluated on both grids
        coarse = GridSpec((64, 64))
        fine = GridSpec((128, 128))
        samples = [random_smooth(coarse, seed=s, slope=3.0) for s in range(5)]
        r64 = gns_ratio(3.0, 1.0, samples)["max_ratio"]
        r128 = gns_ratio(3.0, 1.0, [pad_to(f, fine) for f in samples])["max_ratio"]
        assert abs(r128 - r64) <= 0.05 * r64
