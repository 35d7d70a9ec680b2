"""Numerical exercise of the analytic toolbox on sampled fields.

Elliptic bounds for the chemoattractant, the streamwise Poincare inequality,
the 2D free energy and its dissipation, log-HLS lower-bound scans and
Gagliardo-Nirenberg ratio tests.  Everything here is sample-based: the
checks report extremal ratios over families of trigonometric/random fields
rather than asserting analytic constants.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import split_x
from .sampling import gaussian_bump, positive_density
from .spectral import (
    ContractViolation,
    GridSpec,
    SpectralField,
    derivative,
    l2_norm,
    laplacian,
    parseval_sum,
    solve_chemo,
    values_of,
)


# ---------------------------------------------------------------------------
# elliptic and Poincare checks

def check_elliptic(samples: list[SpectralField]) -> dict:
    """Ratios ||lap c_0|| / ||n_0|| and ||dx^j lap c_neq|| / ||dx^j n_neq||.

    Spectral facts on the torus: every ratio is at most one.
    """
    rows = []
    worst = 0.0
    for i, n in enumerate(samples):
        if n.grid.dim < 2:
            raise ContractViolation("elliptic check needs dim >= 2 samples")
        n0, nneq = split_x(n)
        c0 = solve_chemo(n0)
        r0 = l2_norm(laplacian(c0)) / max(l2_norm(n0), 1e-300)
        row = {"sample": i, "zero_mode_ratio": r0}
        cneq = solve_chemo(nneq)
        for j in range(3):
            dn, dc = nneq, cneq
            for _ in range(j):
                dn = derivative(dn, 0)
                dc = derivative(dc, 0)
            denom = l2_norm(dn)
            ratio = l2_norm(laplacian(dc)) / denom if denom > 0 else 0.0
            row[f"neq_ratio_dx{j}"] = ratio
            worst = max(worst, ratio)
        worst = max(worst, r0)
        rows.append(row)
    return {"rows": rows, "max_ratio": worst, "passed": worst <= 1.0 + 1e-10}


def check_poincare(samples: list[SpectralField]) -> dict:
    """||f_neq|| / ||dx f_neq|| over samples; at most one since |k1| >= 1."""
    rows = []
    worst = 0.0
    for i, f in enumerate(samples):
        zero, fneq = split_x(f)
        if l2_norm(zero) > 1e-12 * max(l2_norm(f), 1e-300):
            raise ContractViolation("poincare samples must have zero x-average")
        denom = l2_norm(derivative(fneq, 0))
        ratio = l2_norm(fneq) / denom if denom > 0 else 0.0
        rows.append({"sample": i, "ratio": ratio})
        worst = max(worst, ratio)
    return {"rows": rows, "max_ratio": worst, "passed": worst <= 1.0 + 1e-10}


# ---------------------------------------------------------------------------
# free energy

def is_positive(low: float, high: float) -> bool:
    """A density whose values run from low to high is positive up to transform
    round-off, which puts a Gaussian's far tail on either side of zero."""
    return bool(high > 0.0 and low >= -64 * np.finfo(float).eps * high)


def free_energy(n0: SpectralField, vals: np.ndarray | None = None, extremes=None) -> float:
    """2D Lyapunov functional: integral of n log n - (n - mean n) c / 2.

    The chemoattractant is the mean-zero solution of lap c = -(n - mean n).
    Positive densities only (``is_positive``): a value at or below zero adds
    0, the limit of n log n.  Given, vals are n0's values, extremes their (min, max).
    """
    if n0.grid.dim != 2 or n0.components != 1:
        raise ContractViolation("free energy is defined for scalar 2D densities")
    vals = values_of(n0) if vals is None else vals
    if not is_positive(*((vals.min(), vals.max()) if extremes is None else extremes)):
        raise ContractViolation("free energy needs a positive density")
    nbar = float(n0.half[0, 0].real)
    c_vals = values_of(solve_chemo(n0))
    pos = np.maximum(vals, 0.0)
    integrand = pos * np.log(np.where(pos > 0.0, pos, 1.0)) - 0.5 * (vals - nbar) * c_vals
    return float(np.sum(integrand) * n0.grid.cell_volume)


# ---------------------------------------------------------------------------
# logarithmic Hardy-Littlewood-Sobolev scan

def _log_distance_kernel(grid: GridSpec) -> np.ndarray:
    """log of the torus geodesic distance for every displacement; the zero
    displacement is excluded from the double sum (integrable singularity)."""
    seps = []
    for a in range(grid.dim):
        s = grid.axis_coordinate(a)
        seps.append(np.minimum(s, 2 * np.pi - s))
    d2 = np.zeros(grid.shape)
    mesh = np.ix_(*seps)
    for comp in mesh:
        d2 = d2 + comp ** 2
    with np.errstate(divide="ignore"):
        logd = 0.5 * np.log(d2)
    logd[(0,) * grid.dim] = 0.0
    return logd


def loghls_functional(f: SpectralField) -> float:
    """integral f log f + (2/m) double-integral f(x) f(y) log d(x, y).

    Direct O(N^4) displacement sum (the trustworthy brute-force oracle);
    grids above 64 per axis are rejected.
    """
    grid = f.grid
    if grid.dim != 2:
        raise ContractViolation("log-HLS scan is a 2D check")
    if max(grid.shape) > 64:
        raise ContractViolation("brute-force double sum restricted to <= 64^2 grids")
    vals = values_of(f)
    floor = -1e-13 * max(float(np.max(vals)), 1e-300)
    if np.min(vals) < floor:
        raise ContractViolation("log-HLS needs nonnegative densities")
    vals = np.maximum(vals, 0.0)  # transform round-off where the density underflowed
    h = grid.cell_volume
    m = float(np.sum(vals) * h)
    # n log n extends continuously by 0 where the density underflows to zero
    with np.errstate(divide="ignore", invalid="ignore"):
        nlogn = np.where(vals > 0.0, vals * np.log(np.where(vals > 0.0, vals, 1.0)), 0.0)
    entropy = float(np.sum(nlogn) * h)
    logd = _log_distance_kernel(grid)
    double = 0.0
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            w = logd[i, j]
            if w != 0.0:
                double += w * float(np.sum(vals * np.roll(vals, (i, j), axis=(0, 1))))
    double *= h * h
    return entropy + (2.0 / m) * double


def loghls_scan(mass: float, widths=(1.0, 0.5, 0.25, 0.125),
                grid: GridSpec | None = None, seeds=(0, 1)) -> dict:
    """Scan bump families of shrinking width plus random positive densities.

    Pass iff the running minimum does not decrease by more than 1% between
    the two finest width levels (the functional is bounded below).
    """
    if grid is None:
        grid = GridSpec((64, 64))
    values = {}
    for w in widths:
        values[f"bump_{w}"] = loghls_functional(gaussian_bump(grid, w, mass=mass))
    for s in seeds:
        values[f"random_{s}"] = loghls_functional(
            positive_density(grid, seed=s, mass=mass, contrast=2.0))
    fine, finest = sorted(widths)[1], sorted(widths)[0]
    running = {}
    seen = math.inf
    for w in sorted(widths, reverse=True):
        seen = min(seen, values[f"bump_{w}"])
        running[w] = seen
    scale = max(abs(v) for v in values.values()) or 1.0
    drop = (running[fine] - running[finest]) / scale
    return {
        "values": values,
        "running_min": running,
        "minimum": min(values.values()),
        "relative_drop": drop,
        "passed": drop <= 0.01,
    }


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg ratios

def gns_theta(n: int, q: float, r: float) -> float:
    """Interpolation exponent theta = (1/r - 1/q) / (1/n - 1/2 + 1/r)."""
    if not (q > r > 0 and math.isfinite(q)):
        raise ContractViolation("exponents must satisfy infinity > q > r > 0")
    denom = 1.0 / n - 0.5 + 1.0 / r
    if denom <= 0:
        raise ContractViolation("exponents violate 1/n - 1/2 + 1/r > 0")
    return (1.0 / r - 1.0 / q) / denom


def _lp_norm(vals: np.ndarray, p: float, cell: float) -> float:
    return float((np.sum(np.abs(vals) ** p) * cell) ** (1.0 / p))


def gns_ratio(q: float, r: float, samples: list[SpectralField]) -> dict:
    """max over samples of ||f||_q / (||grad f||_2^theta ||f||_r^(1-theta)).

    Samples are shifted to vanish somewhere (the inequality's hypothesis).
    """
    rows = []
    worst = 0.0
    for i, f in enumerate(samples):
        grid = f.grid
        theta = gns_theta(grid.dim, q, r)
        vals = values_of(f)
        vals = vals - np.min(vals)  # nonempty zero set
        cell = grid.cell_volume
        grad_sq = parseval_sum(f.half, grid, grid.k_squared())
        denom = grad_sq ** (theta / 2.0) * _lp_norm(vals, r, cell) ** (1.0 - theta)
        ratio = _lp_norm(vals, q, cell) / denom if denom > 0 else math.inf
        rows.append({"sample": i, "ratio": ratio})
        worst = max(worst, ratio)
    return {"rows": rows, "theta": gns_theta(samples[0].grid.dim, q, r),
            "max_ratio": worst, "passed": math.isfinite(worst)}
