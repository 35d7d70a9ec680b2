"""Zero/non-zero mode splits, and the bar/tilde split of tests/oracles.py."""

import numpy as np
import pytest

from shearks.modes import split_x, zero_mode
from shearks.spectral import GridSpec, l2_norm, spectral_energy

from oracles import from_values, split_bar_tilde
from test_spectral import random_real_field

GRID2 = GridSpec((32, 32))
GRID3 = GridSpec((16, 16, 16))


def test_cos_x_is_pure_fluctuation():
    x, _ = GRID2.coordinate_mesh()
    f0, fneq = split_x(from_values(GRID2, np.cos(x) + np.zeros(GRID2.shape)))
    assert np.max(np.abs(f0.coeffs)) < 1e-15
    assert l2_norm(fneq) == pytest.approx(np.sqrt(2 * np.pi ** 2), abs=1e-10)


def test_cos_y_is_pure_zero_mode():
    _, y = GRID2.coordinate_mesh()
    f0, fneq = split_x(from_values(GRID2, np.cos(y) + np.zeros(GRID2.shape)))
    assert np.max(np.abs(fneq.coeffs)) < 1e-15
    assert f0.grid.shape == (32,)
    assert f0.coeffs[1] == pytest.approx(0.5)


def test_cos_x_cos_y_has_no_zero_mode():
    x, y = GRID2.coordinate_mesh()
    f0, _ = split_x(from_values(GRID2, np.cos(x) * np.cos(y)))
    assert np.max(np.abs(f0.coeffs)) < 1e-15


def test_bar_tilde_cases():
    grid = GridSpec((16, 16))
    bar, tilde = split_bar_tilde(from_values(grid, np.full(grid.shape, 3.0)))
    assert bar == pytest.approx(3.0)
    assert np.max(np.abs(tilde.coeffs)) < 1e-14

    _, z = grid.coordinate_mesh()
    bar, tilde = split_bar_tilde(from_values(grid, 2.0 + np.sin(z) + np.zeros(grid.shape)))
    assert bar == pytest.approx(2.0)
    assert np.max(np.abs(tilde.coeffs[0, 0])) == 0.0
    assert l2_norm(tilde) == pytest.approx(np.sqrt(2 * np.pi ** 2), abs=1e-10)


def test_reconstruction_and_orthogonality():
    F = random_real_field(GRID3, seed=4)
    f0, fneq = split_x(F)
    # the fluctuation leaves the k1 = 0 plane empty; the zero mode fills it back
    assert not np.any(fneq.coeffs[0])
    back = fneq.coeffs.copy()
    back[0] = f0.coeffs
    assert np.array_equal(back, F.coeffs)
    # energy splits with the 2 pi factor from integrating out x
    total = spectral_energy(F)
    parts = 2 * np.pi * spectral_energy(f0) + spectral_energy(fneq)
    assert parts == pytest.approx(total, rel=1e-10)
    # bar + tilde rebuild the zero mode
    bar, tilde = split_bar_tilde(f0)
    rebuilt = tilde.coeffs.copy()
    rebuilt[(0,) * tilde.grid.dim] += bar
    assert np.max(np.abs(rebuilt - f0.coeffs)) < 1e-12


def test_zero_mode_is_a_view_of_the_split_zero_mode():
    U = random_real_field(GRID3, seed=6, components=3)
    for F in (random_real_field(GRID3, seed=7), U, U.component(1)):
        z = zero_mode(F)
        assert z.grid == GRID3.cross_section()
        assert np.array_equal(z.coeffs, split_x(F)[0].coeffs)
        assert np.shares_memory(z.half, F.half)


def test_split_commutes_with_yz_derivative():
    from shearks.spectral import derivative

    F = random_real_field(GRID3, seed=5)
    for axis in (1, 2):
        d_then_split = split_x(derivative(F, axis))[0]
        split_then_d = derivative(split_x(F)[0], axis - 1)
        assert np.max(np.abs(d_then_split.coeffs - split_then_d.coeffs)) < 1e-13

