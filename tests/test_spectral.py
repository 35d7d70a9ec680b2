"""Transforms, spectral calculus and norms on the torus."""

import multiprocessing
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from shearks import spectral
from shearks.sampling import random_smooth
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    band_of,
    band_shape,
    conj_reverse,
    derivative,
    divergence,
    forward_transform,
    halve,
    hermitize,
    irfft_band,
    irfft_x,
    l2_norm,
    laplacian,
    leray_project,
    parseval_weights,
    place,
    rfft_band,
    rfft_x,
    solve_chemo,
    spectral_energy,
    values_of,
    zeros,
)

from oracles import (
    complex_forward_transform,
    from_values,
    full_band_hermitian,
    inverse_transform,
    l2_norm_values,
    linf_norm,
)

GRID2 = GridSpec((32, 32))
GRID3 = GridSpec((16, 16, 16))


def random_real_field(grid, seed=0, components=1, slope=2.0):
    """Random smooth real field via a |k|^-slope spectrum."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if components == 1 else (components, *grid.shape)
    raw = rng.standard_normal(shape)
    F = forward_transform(RealField(grid, raw))
    k2 = grid.k_squared()
    amp = np.where(k2 > 0, (k2 + 1.0) ** (-slope / 2.0), 0.0)
    F = SpectralField(grid, F.coeffs * amp * grid.dealias_mask())
    return hermitize(F)


class TestGridSpec:
    def test_basic_properties(self):
        assert GRID2.dim == 2
        assert GRID2.volume == pytest.approx((2 * np.pi) ** 2)
        assert GRID2.dealias_cutoff(0) == 10

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError, match="even"):
            GridSpec((63, 64))
        with pytest.raises(ValueError, match="even"):
            GridSpec((4, 16))

    def test_wavenumbers_cover_band(self):
        k = GRID2.wavenumbers(0)
        assert k[0] == 0
        assert k.max() == 15
        assert k.min() == -16

    def test_cross_section(self):
        assert GRID3.cross_section().shape == (16, 16)

    def test_k_mesh_is_one_read_only_lattice(self):
        first, again = GRID3.k_mesh(), GridSpec((16, 16, 16)).k_mesh()
        assert all(a is b for a, b in zip(first, again))
        for axis, comp in enumerate(first):
            with pytest.raises(ValueError):
                comp[0] = 7.0
            with pytest.raises(ValueError):
                comp *= 2.0
            assert np.array_equal(comp.ravel(), GRID3.wavenumbers(axis))


class TestTransforms:
    def test_sin_x_single_mode_pair(self):
        x = GRID2.coordinate_mesh()[0]
        F = from_values(GRID2, np.sin(x) + 0 * GRID2.coordinate_mesh()[1])
        # f = sum fhat e^{ikx}: coefficients -i/2 at k=+1, +i/2 at k=-1
        assert F.coeffs[1, 0] == pytest.approx(-0.5j, abs=1e-13)
        assert F.coeffs[-1, 0] == pytest.approx(0.5j, abs=1e-13)
        rest = F.coeffs.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-13

    def test_constant_field(self):
        F = from_values(GRID2, np.ones(GRID2.shape))
        assert F.coeffs[0, 0] == pytest.approx(1.0)
        off = F.coeffs.copy()
        off[0, 0] = 0
        assert np.max(np.abs(off)) < 1e-14

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(GRID3.shape)
        back = inverse_transform(forward_transform(RealField(GRID3, vals)))
        assert np.max(np.abs(back.values - vals)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            RealField(GRID2, np.zeros((3, 5)))

    def test_hermitian_invariants(self):
        F = random_real_field(GRID3, seed=1)
        mirror = conj_reverse(F.coeffs, GRID3.dim)
        assert np.max(np.abs(F.coeffs - mirror)) < 1e-14 * np.max(np.abs(F.coeffs))
        assert abs(F.coeffs[0, 0, 0].imag) < 1e-14

    @pytest.mark.parametrize("grid", [GridSpec((16,)), GridSpec((32, 16)), GRID3],
                             ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("components", [1, 3])
    def test_random_smooth_real_by_construction(self, grid, components):
        F = random_smooth(grid, seed=49, components=components)
        assert np.array_equal(F.coeffs, conj_reverse(F.coeffs, grid.dim))
        assert l2_norm(F) == pytest.approx(1.0, rel=1e-14)
        assert not np.any(F.coeffs[..., ~grid.dealias_mask()])

    @pytest.mark.parametrize("grid", [GridSpec((16,)), GridSpec((32, 16)), GRID3,
                                      GridSpec((48, 48, 48))],
                             ids=["1d", "2d", "3d", "3d-threaded"])
    @pytest.mark.parametrize("lead", [(), (1,), (2,), (3,)],
                             ids=["field", "stack1", "stack2", "stack3"])
    def test_forward_matches_complex_oracle(self, grid, lead):
        # forward_transform is one real transform filled by conjugate symmetry
        values = np.random.default_rng(48).standard_normal(lead + grid.shape)
        got = forward_transform(RealField(grid, values)).coeffs
        want = complex_forward_transform(RealField(grid, values)).coeffs
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestValuesOf:
    """values_of reads the k1 >= 0 half with one real inverse transform."""

    @pytest.mark.parametrize("grid", [GridSpec((16,)), GridSpec((32, 16)), GRID3],
                             ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("components", [1, 3])
    def test_matches_full_complex_oracle(self, grid, components):
        full = full_band_hermitian(grid, seed=31, components=components)
        lead = (slice(None),) * (full.coeffs.ndim - grid.dim)
        for axis, n in enumerate(grid.shape):  # x-Nyquist plane and lone -n/2 rows
            assert np.any(full.coeffs[lead + (slice(None),) * axis + (n // 2,)])
        for F in (full, random_real_field(grid, seed=32, components=components)):
            want = inverse_transform(F).values
            got = values_of(F)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", [GridSpec((16,)), GridSpec((32, 16)), GRID3],
                             ids=["1d", "2d", "3d"])
    def test_non_finite_coefficient_raises(self, grid):
        for bad in (np.nan, np.inf):
            F = random_real_field(grid, seed=33)
            F.coeffs[(1,) * grid.dim] = bad
            with pytest.raises(ContractViolation, match="finite"), \
                    np.errstate(invalid="ignore"):
                values_of(F)


def serial_irfft_x(half, grid):
    """numpy's serial irfftn in irfft_x's axis order: y, z, then x."""
    lead = half.ndim - grid.dim
    axes = tuple(range(lead + 1, half.ndim)) + (lead,)
    return np.fft.irfftn(half, s=grid.shape[1:] + grid.shape[:1], axes=axes, norm="forward")


def serial_rfft_x(values, grid):
    lead = values.ndim - grid.dim
    axes = tuple(range(lead + 1, values.ndim)) + (lead,)
    return np.fft.rfftn(values, axes=axes, norm="forward")


def random_half(grid, lead, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (grid.shape[0] // 2 + 1, *grid.shape[1:])
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def transform_in_forked_child(shape):
    """Body of a forked child: one 3D transform, checked against numpy."""
    grid = GridSpec(shape)
    half = random_half(grid, (), seed=47)
    if not np.array_equal(irfft_x(half, grid), serial_irfft_x(half, grid)):
        sys.exit(3)


# 25 k1 planes at 48^3; 9 at (16, 10, 12), which the slabs split unevenly
THREAD_GRIDS = [GridSpec((48, 48, 48)), GridSpec((16, 10, 12))]


class TestThreadedTransforms:
    """3D rfft_x/irfft_x run on two threads and equal numpy's serial
    rfftn/irfftn bit for bit; 2D stays serial."""

    @pytest.mark.parametrize("grid", THREAD_GRIDS, ids=["48^3", "16x10x12"])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (6,), (7,), (9,), (2, 3)],
                             ids=["field", "stack1", "stack3", "stack6", "stack7", "stack9",
                                  "stack2x3"])
    def test_bit_identical_to_numpy(self, grid, lead):
        half = random_half(grid, lead, seed=41)
        values = np.random.default_rng(42).standard_normal(lead + grid.shape)
        assert np.array_equal(irfft_x(half, grid), serial_irfft_x(half, grid))
        assert np.array_equal(rfft_x(values, grid), serial_rfft_x(values, grid))

    @pytest.mark.parametrize("grid", THREAD_GRIDS, ids=["48^3", "16x10x12"])
    def test_non_contiguous_inputs(self, grid):
        full = full_band_hermitian(grid, seed=43, components=3).coeffs
        pairs = np.stack([full, full[::-1]], axis=1)
        halves = [halve(full, grid),                      # a view of three spectra
                  halve(pairs[:, 0], grid),               # a slice like u_h[:, 0]
                  halve(full[1:], grid),                  # an even stack
                  halve(np.asfortranarray(full[1]), grid)]
        values = np.random.default_rng(44).standard_normal((3, 2, *grid.shape))
        fields = [values[:, 0], values[1:, 1], values[0, 1, :, ::-1],
                  np.asfortranarray(values[1, 0])]
        for half in halves:
            assert not half.flags.c_contiguous
            assert np.array_equal(irfft_x(half, grid), serial_irfft_x(half, grid))
        for vals in fields:
            assert not vals.flags.c_contiguous
            assert np.array_equal(rfft_x(vals, grid), serial_rfft_x(vals, grid))

    @pytest.mark.parametrize("lead", [(), (3,), (2,)], ids=["field", "stack", "even_stack"])
    def test_workers_keep_the_callers_error_state(self, lead):
        # an inf coefficient makes inf - inf inside the transform; a quiet NaN
        # raises no floating-point flag in numpy's FFT, serial or threaded
        grid = THREAD_GRIDS[1]
        half = random_half(grid, lead, seed=45)
        half[..., 1, 2, 3] = np.inf
        values = np.random.default_rng(46).standard_normal(lead + grid.shape)
        values[..., 1, 2, 3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                assert not np.all(np.isfinite(irfft_x(half, grid)))
                assert not np.all(np.isfinite(rfft_x(values, grid)))
        with np.errstate(invalid="raise"):
            for transform, serial, arr in ((irfft_x, serial_irfft_x, half),
                                           (rfft_x, serial_rfft_x, values)):
                with pytest.raises(FloatingPointError, match="invalid"):
                    serial(arr, grid)
                with pytest.raises(FloatingPointError, match="invalid"):
                    transform(arr, grid)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
    def test_forked_child_transforms_after_the_parent(self):
        grid = THREAD_GRIDS[1]
        irfft_x(random_half(grid, (), seed=47), grid)  # the parent's threads now run
        child = multiprocessing.get_context("fork").Process(
            target=transform_in_forked_child, args=(grid.shape,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("a 3D transform in a forked child hung")
        assert child.exitcode == 0

    def test_threads_start_at_the_first_3d_transform(self):
        script = (
            "import threading\n"
            "import numpy as np\n"
            "from shearks.sampling import gaussian_bump\n"
            "from shearks.shear import ShearFrame\n"
            "from shearks.solver import Params, State, run\n"
            "from shearks.spectral import GridSpec, irfft_x, rfft_x, values_of\n"
            "counts = [threading.active_count()]\n"
            "grid = GridSpec((32, 32))\n"
            "n = gaussian_bump(grid, width=1.0, mass=4 * np.pi)\n"
            "run(Params(grid=grid, enable_velocity=False, t_end=0.1, dt_max=0.01,\n"
            "           output_every=0.05), State(t=0.0, n=n, u=None, frame=ShearFrame()))\n"
            "rfft_x(values_of(n), grid)\n"
            "counts.append(threading.active_count())\n"
            "irfft_x(np.zeros((9, 10, 12), dtype=complex), GridSpec((16, 10, 12)))\n"
            "counts.append(threading.active_count())\n"
            "print(*counts)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(spectral.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        at_import, after_2d, after_3d = map(int, done.stdout.split())
        assert at_import == after_2d == 1
        assert 2 <= after_3d <= 3

    def test_concurrent_callers_share_one_pool(self):
        grid = THREAD_GRIDS[1]
        halves = [random_half(grid, lead, seed=48) for lead in ((), (3,), (2,))]
        want = [serial_irfft_x(half, grid) for half in halves]
        old = spectral._pool
        spectral._forget_pool()
        if old is not None:
            old.shutdown()
        mismatches = []

        def call_many():
            for _ in range(20):
                for half, ref in zip(halves, want):
                    if not np.array_equal(irfft_x(half, grid), ref):
                        mismatches.append(half.shape)
        callers = [threading.Thread(target=call_many) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert mismatches == []
        workers = [t for t in threading.enumerate() if t.name.startswith("shearks-fft")]
        assert 1 <= len(workers) <= 2


# 48^3 and 16x10x12 run threaded, 24^3 has sides divisible by 3, 2D and 1D
# grids stay serial
BAND_GRIDS = THREAD_GRIDS + [GridSpec((24, 24, 24)), GridSpec((128, 128)), GridSpec((32, 24)),
                             GridSpec((16,))]
BAND_IDS = ["48^3", "16x10x12", "24^3", "128^2", "32x24", "16"]


def masked_half(grid, lead, seed):
    return random_half(grid, lead, seed) * halve(grid.dealias_mask(), grid)


class TestBandPair:
    """irfft_band/rfft_band transform the 2/3-rule band box alone: in the band
    they equal the full pair with the band mask applied bit for bit, and off
    it they are exactly zero."""

    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=BAND_IDS)
    @pytest.mark.parametrize("lead", [(), (3,), (6,)], ids=["field", "stack3", "stack6"])
    def test_equals_the_masked_full_pair(self, grid, lead):
        mask = halve(grid.dealias_mask(), grid)
        half = masked_half(grid, lead, seed=51)
        box = band_of(half, grid)
        assert box.shape == lead + band_shape(grid)
        assert np.array_equal(place(box, grid), half)
        got = irfft_band(box, grid)
        assert got.tobytes() == irfft_x(half, grid).tobytes()
        values = np.random.default_rng(52).standard_normal(lead + grid.shape)
        full = rfft_x(values, grid)
        box = rfft_band(values, grid)
        assert box.tobytes() == band_of(full, grid).tobytes()
        placed = place(box, grid)
        assert np.array_equal(placed, full * mask)
        assert not np.any(placed[..., ~mask])

    @pytest.mark.parametrize("grid", THREAD_GRIDS + [GridSpec((24, 24, 24))],
                             ids=["48^3", "16x10x12", "24^3"])
    @pytest.mark.parametrize("lead", [(), (3,), (6,)], ids=["field", "stack3", "stack6"])
    def test_whole_k1_zero_plane(self, grid, lead):
        values = np.random.default_rng(53).standard_normal(lead + grid.shape)
        plane0 = np.empty(lead + grid.shape[1:], dtype=complex)
        box = rfft_band(values, grid, plane0)
        full = rfft_x(values, grid)
        assert box.tobytes() == band_of(full, grid).tobytes()
        assert plane0.tobytes() == full[..., 0, :, :].tobytes()

    @pytest.mark.parametrize("grid", [THREAD_GRIDS[1], GridSpec((32, 24))], ids=["3d", "2d"])
    def test_non_contiguous_inputs(self, grid):
        mask = halve(grid.dealias_mask(), grid)
        halves = masked_half(grid, (3, 2), seed=54)
        boxes = band_of(halves, grid)
        for box in (boxes[:, 0], boxes[1:, 1], np.asfortranarray(boxes[2, 0]),
                    boxes[0, 1, ..., ::-1]):
            assert not box.flags.c_contiguous
            want = irfft_x(place(np.ascontiguousarray(box), grid), grid)
            assert irfft_band(box, grid).tobytes() == want.tobytes()
        values = np.random.default_rng(55).standard_normal((3, 2, *grid.shape))
        for vals in (values[:, 0], values[1:, 1], np.asfortranarray(values[1, 0]),
                     values[0, 1, ::-1]):
            assert not vals.flags.c_contiguous
            want = band_of(rfft_x(np.ascontiguousarray(vals), grid) * mask, grid)
            assert rfft_band(vals, grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,), (2,)], ids=["field", "stack", "even_stack"])
    def test_workers_keep_the_callers_error_state(self, lead):
        # an inf in the band makes inf - inf inside the transform
        grid = THREAD_GRIDS[1]
        box = band_of(masked_half(grid, lead, seed=56), grid)
        box[..., 1, 2, 3] = np.inf
        values = np.random.default_rng(57).standard_normal(lead + grid.shape)
        values[..., 1, 2, 3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                assert not np.all(np.isfinite(irfft_band(box, grid)))
                assert not np.all(np.isfinite(rfft_band(values, grid)))
        with np.errstate(invalid="raise"):
            for transform, arr in ((irfft_band, box), (rfft_band, values)):
                with pytest.raises(FloatingPointError, match="invalid"):
                    transform(arr, grid)

    def test_numpy_transforms_each_line_on_its_own(self):
        # the band pair and the two-thread split both rest on this: numpy's
        # 1-D FFT of some lines equals those lines of the whole batch, bit
        # for bit, whatever the batch's shape and strides
        rng = np.random.default_rng(58)
        z = rng.standard_normal((3, 17, 48, 48)) + 1j * rng.standard_normal((3, 17, 48, 48))
        x = rng.standard_normal((48, 48, 48))
        subsets = [np.s_[..., 0:9, :, :], np.s_[..., 5:17, :, 33:48], np.s_[1:, ::2, :, 3::5],
                   np.s_[2, 4, :, :]]
        for fn in (np.fft.fft, np.fft.ifft):
            whole = fn(z, axis=-2, norm="forward")
            for sub in subsets:
                assert fn(z[sub], axis=-2, norm="forward").tobytes() == whole[sub].tobytes()
        whole = np.fft.rfft(x, axis=0, norm="forward")
        back = np.fft.irfft(whole, 48, axis=0, norm="forward")
        for sub in (np.s_[:, 0:24, :], np.s_[:, ::3, 5:40], np.s_[:, 7, :]):
            assert np.fft.rfft(x[sub], axis=0, norm="forward").tobytes() == whole[sub].tobytes()
            assert (np.fft.irfft(whole[sub], 48, axis=0, norm="forward").tobytes()
                    == back[sub].tobytes())


class TestOperators:
    def test_dx_sin_is_cos(self):
        x, _ = GRID2.coordinate_mesh()
        F = from_values(GRID2, np.sin(x) + np.zeros(GRID2.shape))
        dF = derivative(F, 0)
        assert np.max(np.abs(values_of(dF) - np.cos(x))) < 1e-13

    def test_laplacian_cos_y(self):
        _, y = GRID2.coordinate_mesh()
        F = from_values(GRID2, np.cos(y) + np.zeros(GRID2.shape))
        LF = laplacian(F)
        assert np.max(np.abs(values_of(LF) + np.cos(y))) < 1e-13

    def test_axis_out_of_range(self):
        F = zeros(GRID2)
        with pytest.raises(ContractViolation, match="axis"):
            derivative(F, 2)

    def test_derivative_commutes_with_roundtrip(self):
        F = random_real_field(GRID2, seed=3)
        d1 = derivative(F, 1)
        d2 = derivative(forward_transform(inverse_transform(F)), 1)
        assert np.max(np.abs(d1.coeffs - d2.coeffs)) < 1e-13


class TestChemo:
    def test_constant_density_gives_zero(self):
        F = from_values(GRID2, np.full(GRID2.shape, 3.0))
        c = solve_chemo(F)
        assert np.max(np.abs(c.coeffs)) == 0.0

    def test_cos_y_solution(self):
        _, y = GRID2.coordinate_mesh()
        n = from_values(GRID2, 1.0 + np.cos(y) + np.zeros(GRID2.shape))
        c = solve_chemo(n)
        # lap c = -(n - mean n) checked pointwise: c = cos y
        assert np.max(np.abs(values_of(c) - np.cos(y))) < 1e-13
        resid = laplacian(c).coeffs + n.coeffs
        resid[0, 0] -= n.coeffs[0, 0]
        assert np.max(np.abs(resid)) < 1e-13

    def test_random_residual_and_gauge(self):
        n = random_real_field(GRID3, seed=11)
        c = solve_chemo(n)
        resid = laplacian(c).coeffs + n.coeffs
        resid[0, 0, 0] -= n.coeffs[0, 0, 0]
        assert l2_norm(SpectralField(GRID3, resid)) <= 1e-12 * max(l2_norm(n), 1e-300)
        assert abs(c.coeffs[0, 0, 0]) == 0.0

    def test_output_norm_bounded_by_input(self):
        n = random_real_field(GRID3, seed=12)
        c = solve_chemo(n)
        nofluct = n.coeffs.copy()
        nofluct[0, 0, 0] = 0.0
        assert l2_norm(c) <= l2_norm(SpectralField(GRID3, nofluct)) + 1e-15

    def test_linearity(self):
        a = random_real_field(GRID2, seed=13)
        b = random_real_field(GRID2, seed=14)
        combo = SpectralField(GRID2, 2.0 * a.coeffs - 0.5 * b.coeffs)
        lhs = solve_chemo(combo).coeffs
        rhs = 2.0 * solve_chemo(a).coeffs - 0.5 * solve_chemo(b).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestLeray:
    def test_pure_gradient_annihilated(self):
        x, y = GRID2.coordinate_mesh()
        phi = from_values(GRID2, np.sin(x + y))
        u = SpectralField(GRID2, np.stack([1j * k * phi.coeffs for k in GRID2.k_mesh()]))
        p = leray_project(u)
        off_mean = p.coeffs.copy()
        off_mean[:, 0, 0] = 0
        assert np.max(np.abs(off_mean)) < 1e-13

    def test_solenoidal_untouched(self):
        psi = random_real_field(GRID2, seed=5)
        u = np.stack([-derivative(psi, 1).coeffs, derivative(psi, 0).coeffs])
        u = SpectralField(GRID2, u)
        p = leray_project(u)
        assert np.max(np.abs(p.coeffs - u.coeffs)) < 1e-13

    def test_projector_properties(self):
        u = random_real_field(GRID3, seed=6, components=3)
        p = leray_project(u)
        assert l2_norm(divergence(p)) <= 1e-12 * l2_norm(u)
        pp = leray_project(p)
        assert np.max(np.abs(pp.coeffs - p.coeffs)) < 1e-13
        assert l2_norm(p) <= l2_norm(u) + 1e-14


class TestDealias:
    def test_low_modes_identity(self):
        F = random_real_field(GRID2, seed=8)  # already band-limited
        assert np.array_equal(F.coeffs * GRID2.dealias_mask(), F.coeffs)

    def test_high_mode_zeroed(self):
        F = zeros(GRID2)
        F.coeffs[GRID2.shape[0] // 2 - 1, 0] = 1.0
        assert np.max(np.abs(F.coeffs * GRID2.dealias_mask())) == 0.0

    def test_energy_nonincreasing(self):
        rng = np.random.default_rng(9)
        F = hermitize(forward_transform(RealField(GRID2, rng.standard_normal(GRID2.shape))))
        masked = SpectralField(GRID2, F.coeffs * GRID2.dealias_mask())
        assert spectral_energy(masked) <= spectral_energy(F)


class TestNorms:
    def test_l2_sin_x(self):
        x, _ = GRID2.coordinate_mesh()
        F = from_values(GRID2, np.sin(x) + np.zeros(GRID2.shape))
        # integral of sin^2 over T^2 is 2 pi^2
        assert l2_norm(F) == pytest.approx(np.sqrt(2 * np.pi ** 2), abs=1e-10)

    def test_linf_constant(self):
        F = from_values(GRID2, np.ones(GRID2.shape))
        assert linf_norm(F) == pytest.approx(1.0)

    def test_parseval(self):
        for grid, seed in ((GRID2, 21), (GRID3, 22)):
            F = random_real_field(grid, seed=seed)
            quad = l2_norm_values(inverse_transform(F))
            spec = l2_norm(F)
            assert abs(quad - spec) <= 1e-10 * spec


class TestParsevalWeights:
    @pytest.mark.parametrize("shape, components", [((16,), 1), ((16, 12), 1), ((8, 10, 12), 1),
                                                   ((16, 12), 3), ((8, 10, 12), 2)])
    def test_half_sums_equal_full_sums(self, shape, components):
        grid = GridSpec(shape)
        F = full_band_hermitian(grid, seed=sum(shape) + components, components=components)
        lead = (slice(None),) * (F.coeffs.ndim - grid.dim)
        assert np.all(F.coeffs[lead + (shape[0] // 2,)] != 0.0)  # the lone -n1/2 plane
        k2 = grid.k_squared()
        w = parseval_weights(grid)
        for m in (np.ones(shape), k2, grid.k_mesh()[0] ** 2 * k2):
            full = np.sum(m * np.abs(F.coeffs) ** 2)
            half = np.sum(w * halve(m, grid) * np.abs(halve(F.coeffs, grid)) ** 2)
            assert abs(half - full) <= 1e-14 * full

    def test_cached_and_read_only(self):
        w = parseval_weights(GridSpec((16, 12)))
        assert w is parseval_weights(GridSpec((16, 12)))
        assert w.ravel().tolist() == [1.0] + [2.0] * 7 + [1.0]
        with pytest.raises(ValueError):
            w[1] = 1.0


class TestSourceGuard:
    """The package keeps one real transform pair and one place that
    completes a real spectrum."""

    SOURCES = sorted(Path(spectral.__file__).parent.glob("*.py"))

    def test_no_complex_multidimensional_fft(self):
        call = re.compile(r"\b(?:fftn|ifftn|fft2|ifft2)\s*\(")
        hits = [f"{path.name}:{i}" for path in self.SOURCES
                for i, line in enumerate(path.read_text().splitlines(), 1) if call.search(line)]
        assert self.SOURCES and not hits

    def test_hermitize_is_called_only_in_spectral(self):
        call = re.compile(r"\bhermitize\(")
        hits = [f"{path.name}:{i}" for path in self.SOURCES if path.name != "spectral.py"
                for i, line in enumerate(path.read_text().splitlines(), 1) if call.search(line)]
        assert not hits
