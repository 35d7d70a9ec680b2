"""Transforms, spectral calculus and norms on the torus."""

import multiprocessing
import os
import pickle
import platform
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from shearks import spectral
from shearks.config import parse_config
from shearks.sampling import random_smooth
from shearks.scenarios import run_simulate
from shearks.shear import frame
from shearks.spectral import (
    ContractViolation,
    GridSpec,
    RealField,
    SpectralField,
    band_of,
    band_shape,
    complete_half,
    conj_reverse,
    derivative,
    divergence,
    forward_transform,
    halve,
    hermitize,
    fill,
    irfft_band,
    irfft_x,
    l2_norm,
    laplacian,
    leray_project,
    over_k2,
    over_slabs,
    parseval_sum,
    parseval_weights,
    place,
    real_field,
    rfft_band,
    rfft_bands,
    rfft_x,
    solve_chemo,
    spectral_energy,
    values_of,
    values_range,
    zeros,
)

from oracles import (
    complex_forward_transform,
    dealias_mask,
    from_values,
    full_band_hermitian,
    full_divergence,
    full_frame_k_mesh,
    full_k_mesh,
    full_k_squared,
    hermitian,
    inverse_transform,
    l2_norm_values,
    linf_norm,
    run_params,
    serial_drain,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GRID2 = GridSpec((32, 32))
GRID3 = GridSpec((16, 16, 16))


def random_real_field(grid, seed=0, components=1, slope=2.0):
    """Random smooth real field via a |k|^-slope spectrum."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if components == 1 else (components, *grid.shape)
    raw = rng.standard_normal(shape)
    F = forward_transform(RealField(grid, raw))
    k2 = full_k_squared(grid)
    amp = np.where(k2 > 0, (k2 + 1.0) ** (-slope / 2.0), 0.0)
    F = SpectralField(grid, F.coeffs * amp * dealias_mask(grid))
    return hermitize(F)


class TestGridSpec:
    def test_basic_properties(self):
        assert GRID2.dim == 2
        assert GRID2.volume == pytest.approx((2 * np.pi) ** 2)
        assert GRID2.dealias_cutoff(0) == 10

    @pytest.mark.parametrize("shape", [(16,), (16, 12), (16, 24, 12)], ids=str)
    def test_cached_properties_keep_the_value_and_the_key(self, shape):
        # dim, size and volume are computed once per grid; a grid that has
        # read them is still equal, hashed and pickled as a fresh one (the
        # lattice caches key on it)
        grid = GridSpec(shape)
        assert (grid.dim, grid.size, grid.volume) == (
            len(shape), int(np.prod(shape)), (2 * np.pi) ** len(shape))
        fresh = GridSpec(shape)
        assert grid == fresh and hash(grid) == hash(fresh)
        assert pickle.loads(pickle.dumps(grid)) == fresh
        assert grid.k_mesh()[0] is fresh.k_mesh()[0]

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

    @pytest.mark.parametrize("shape", [(16,), (16, 12), (16, 16, 16), (16, 24, 12)], ids=str)
    def test_k_mesh_is_the_half_of_the_full_lattice(self, shape):
        grid = GridSpec(shape)
        mesh = grid.k_mesh()
        assert np.broadcast_shapes(*[m.shape for m in mesh]) == grid.half_shape
        for comp, full in zip(mesh, full_k_mesh(grid)):
            want = halve(full, grid)
            assert comp.shape == want.shape and comp.tobytes() == want.tobytes()
        assert mesh[0].ravel()[-1] == -(shape[0] // 2)  # the lone -n1/2 plane last

    @pytest.mark.parametrize("shape", [(16,), (16, 12), (16, 16, 16), (16, 24, 12)], ids=str)
    def test_k_squared_is_the_read_only_mesh_sum(self, shape):
        grid = GridSpec(shape)
        k2 = grid.k_squared()
        assert k2 is grid.k_squared() and k2.shape == grid.half_shape
        assert k2.tobytes() == spectral._mesh_k2(grid.k_mesh()).tobytes()
        with pytest.raises(ValueError):
            k2[...] = 0.0

    @pytest.mark.parametrize("shape", [(16, 12), (16, 24, 12)], ids=str)
    def test_frame_k_mesh_shears_the_half(self, shape):
        grid, drift = GridSpec(shape), -0.37
        params = run_params(grid, enable_shear=True)
        mesh, k = frame(grid, drift, True).mesh, grid.k_mesh()
        assert mesh[1].tobytes() == (k[1] - k[0] * drift).tobytes()
        assert mesh[1].shape == grid.half_shape[:2] + (1,) * (grid.dim - 2)
        assert np.array_equal(mesh[1], halve(full_frame_k_mesh(params, drift)[1], grid))
        assert all(a is b for a, b in zip(mesh[::2], k[::2]))

    @pytest.mark.parametrize("drift", [0.0, 0.37, -0.8])
    @pytest.mark.parametrize("shape", [(16, 12), (16, 24, 12)], ids=str)
    def test_frame_is_one_read_only_set_of_operators(self, shape, drift):
        grid = GridSpec(shape)
        fr = frame(grid, drift, True)
        assert fr is frame(GridSpec(shape), drift, True)
        k = grid.k_mesh()
        mesh = [k[0], k[1] - k[0] * drift, *k[2:]]
        box = [band_of(m, grid) for m in mesh]
        want = {"mesh": mesh, "box_mesh": box, "ik": [1j * m for m in box],
                "box_guard": spectral.k2_guard(spectral._mesh_k2(box))}
        for name, arrays in want.items():
            got = getattr(fr, name)
            assert len(got) == len(arrays), name
            for a, b in zip(got, arrays):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
                with pytest.raises(ValueError):
                    a[...] = 0
        assert all(a is b for a, b in zip(frame(grid, drift, False).mesh, k))

    def test_k_mesh_is_one_read_only_lattice(self):
        first, again = GRID3.k_mesh(), GridSpec((16, 16, 16)).k_mesh()
        assert all(a is b for a, b in zip(first, again))
        for comp in first:
            with pytest.raises(ValueError):
                comp[0] = 7.0
            with pytest.raises(ValueError):
                comp *= 2.0


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
        assert not np.any(F.coeffs[..., ~dealias_mask(grid)])

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
            F.half[(1,) * grid.dim] = bad
            with pytest.raises(ContractViolation, match="finite"), \
                    np.errstate(invalid="ignore"):
                values_of(F)
            with pytest.raises(ContractViolation, match="RealField values must be finite"), \
                    np.errstate(invalid="ignore"):
                values_range(F)

    @pytest.mark.parametrize("grid", [GridSpec((16,)), GridSpec((32, 16)), GRID3],
                             ids=["1d", "2d", "3d"])
    def test_values_range_is_the_values_and_their_extremes(self, grid):
        F = random_real_field(grid, seed=34)
        values, low, high = values_range(F)
        want = values_of(F)
        assert values.tobytes() == want.tobytes()
        assert (low, high) == (want.min(), want.max())
        assert type(low) is float and type(high) is float

    @pytest.mark.parametrize("kind", ["nan", "+inf", "-inf"])
    def test_finite_half_whose_values_overflow_raises(self, kind):
        # finite coefficients whose values hold NaN (inf - inf), or +inf alone
        # with a finite min, or -inf alone with a finite max
        grid = GridSpec((16, 16))
        half = np.zeros(grid.half_shape, dtype=np.complex128)
        if kind == "nan":
            half[1, 2] = half[2, 1] = 1e308
            half[0, 3] = half[0, -3] = -1e308
        else:  # 1 + cos y, scaled to 1e308: 2e308 overflows at y = 0
            sign = 1.0 if kind == "+inf" else -1.0
            half[0, 0], half[0, 1], half[0, -1] = sign * 1e308, sign * 5e307, sign * 5e307
        with np.errstate(over="ignore", invalid="ignore"):
            low, high = np.min(irfft_x(half, grid)), np.max(irfft_x(half, grid))
            assert {"nan": np.isnan(low) and np.isnan(high),
                    "+inf": np.isfinite(low) and high == np.inf,
                    "-inf": low == -np.inf and np.isfinite(high)}[kind]
            with pytest.raises(ContractViolation, match="RealField values must be finite"):
                values_range(SpectralField.from_half(grid, half))


def serial_irfft_x(half, grid):
    """numpy's serial irfftn in irfft_x's axis order: y, z, then x."""
    lead = half.ndim - grid.dim
    axes = tuple(range(lead + 1, half.ndim)) + (lead,)
    return np.fft.irfftn(half, s=grid.shape[1:] + grid.shape[:1], axes=axes, norm="forward")


def serial_rfft_x(values, grid):
    lead = values.ndim - grid.dim
    axes = tuple(range(lead + 1, values.ndim)) + (lead,)
    return np.fft.rfftn(values, axes=axes, norm="forward")


def run_script(script: str) -> str:
    """stdout of a fresh interpreter that runs script with this package importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(spectral.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True).stdout


def random_half(grid, lead, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (grid.shape[0] // 2 + 1, *grid.shape[1:])
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def transform_in_forked_child(shape):
    """Body of a forked child: one 3D transform of a stack, checked against
    numpy."""
    grid = GridSpec(shape)
    half = random_half(grid, (3,), seed=47)
    if not np.array_equal(irfft_x(half, grid), serial_irfft_x(half, grid)):
        sys.exit(3)


# 25 k1 planes at 48^3; 9 at (16, 10, 12), which the slabs split unevenly;
# the classes that take THREAD_GRIDS run every 3D grid on two threads
THREAD_GRIDS = [GridSpec((48, 48, 48)), GridSpec((16, 10, 12))]
# 2D and 1D grids take the same pass pair on one thread
SERIAL_AND_THREAD_GRIDS = THREAD_GRIDS + [GridSpec((128, 128)), GridSpec((32, 24)),
                                          GridSpec((16,))]


@pytest.mark.usefixtures("threads_on_small_grids")
class TestThreadedTransforms:
    """3D rfft_x/irfft_x transform a stack's fields on two threads and equal
    numpy's serial rfftn/irfftn bit for bit; 2D and 1D stay serial and equal
    them too."""

    @pytest.mark.parametrize("grid", SERIAL_AND_THREAD_GRIDS,
                             ids=["48^3", "16x10x12", "128^2", "32x24", "16"])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (6,), (7,), (9,), (2, 3)],
                             ids=["field", "stack1", "stack3", "stack6", "stack7", "stack9",
                                  "stack2x3"])
    def test_bit_identical_to_numpy(self, grid, lead):
        half = random_half(grid, lead, seed=41)
        values = np.random.default_rng(42).standard_normal(lead + grid.shape)
        assert irfft_x(half, grid).tobytes() == serial_irfft_x(half, grid).tobytes()
        assert rfft_x(values, grid).tobytes() == serial_rfft_x(values, grid).tobytes()
        assert np.array_equal(half, random_half(grid, lead, seed=41))  # input untouched

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
        irfft_x(random_half(grid, (3,), seed=47), grid)  # the parent's pool thread now runs
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
            "from shearks.config import RunConfig, params_of\n"
            "from shearks.sampling import gaussian_bump\n"
            "from shearks.shear import ShearFrame\n"
            "from shearks.solver import State, run\n"
            "from shearks.spectral import GridSpec, irfft_x, rfft_x, values_of\n"
            "counts = [threading.active_count()]\n"
            "grid = GridSpec((32, 32))\n"
            "n = gaussian_bump(grid, width=1.0, mass=4 * np.pi)\n"
            "run(params_of(RunConfig(nx=32, ny=32, enable_velocity=False, t_end=0.1,\n"
            "                        dt_max=0.01, output_every=0.05)),\n"
            "    State(t=0.0, n=n, u=None, frame=ShearFrame()))\n"
            "rfft_x(values_of(n), grid)\n"
            "counts.append(threading.active_count())\n"
            "irfft_x(np.zeros((3, 17, 32, 32), dtype=complex), GridSpec((32, 32, 32)))\n"
            "counts.append(threading.active_count())\n"
            "irfft_x(np.zeros((19, 36, 36), dtype=complex), GridSpec((36, 36, 36)))\n"
            "counts.append(threading.active_count())\n"
            "irfft_x(np.zeros((3, 19, 36, 36), dtype=complex), GridSpec((36, 36, 36)))\n"
            "counts.append(threading.active_count())\n"
            "print(*counts)\n")
        at_import, after_2d, after_32, after_field, after_stack = map(
            int, run_script(script).split())
        # a stack on 32^3 points and a bare field run on the caller; a stack
        # on a larger 3D grid starts the one pool thread
        assert at_import == after_2d == after_32 == after_field == 1
        assert after_stack == 2

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
        assert len(workers) == 1


# the 3D grids run threaded here, 24^3 has sides divisible by 3, 2D and 1D
# grids stay serial
BAND_GRIDS = THREAD_GRIDS + [GridSpec((24, 24, 24)), GridSpec((128, 128)), GridSpec((32, 24)),
                             GridSpec((16,))]
BAND_IDS = ["48^3", "16x10x12", "24^3", "128^2", "32x24", "16"]


def masked_half(grid, lead, seed):
    return random_half(grid, lead, seed) * halve(dealias_mask(grid), grid)


@pytest.mark.usefixtures("threads_on_small_grids")
class TestBandPair:
    """irfft_band/rfft_band transform the 2/3-rule band box alone: in the band
    they equal the full pair with the band mask applied bit for bit, and off
    it they are exactly zero."""

    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=BAND_IDS)
    @pytest.mark.parametrize("lead", [(), (3,), (6,)], ids=["field", "stack3", "stack6"])
    def test_equals_the_masked_full_pair(self, grid, lead):
        mask = halve(dealias_mask(grid), grid)
        half = masked_half(grid, lead, seed=51)
        box = band_of(half, grid)
        assert box.shape == lead + band_shape(grid)
        assert np.array_equal(place(box, grid), half)
        got = irfft_band(box, grid)
        assert got.tobytes() == irfft_x(place(box, grid), grid).tobytes()
        values = np.random.default_rng(52).standard_normal(lead + grid.shape)
        full = rfft_x(values, grid)
        box = rfft_band(values, grid)
        assert box.tobytes() == band_of(full, grid).tobytes()
        placed = place(box, grid)
        assert np.array_equal(placed, full * mask)
        assert not np.any(placed[..., ~mask])

    @pytest.mark.parametrize("grid", [THREAD_GRIDS[1], GridSpec((32, 24))], ids=["3d", "2d"])
    def test_non_contiguous_inputs(self, grid):
        mask = halve(dealias_mask(grid), grid)
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

    @pytest.mark.parametrize("bad", [0, 2], ids=["first_stack", "last_stack"])
    def test_a_batch_keeps_the_callers_error_state(self, bad):
        grid = THREAD_GRIDS[1]
        rng = np.random.default_rng(57)
        values = [rng.standard_normal(lead + grid.shape) for lead in ((3,), (), (6,))]
        values[bad][..., 1, 2, 3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                assert not np.all(np.isfinite(rfft_bands(values, grid)[bad]))
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="invalid"):
                rfft_bands(values, grid)

    @pytest.mark.parametrize("grid", BAND_GRIDS[:2] + [GridSpec((32, 24))],
                             ids=["48^3", "16x10x12", "32x24"])
    def test_batch_equals_separate_serial_calls(self, grid, monkeypatch):
        # stacks of 1, 3, 6, 7 and 9 fields: the tendency sends 7 fields
        # through one inverse and a 3- and a 6-field stack through one forward
        leads = [(1,), (3,), (6,), (7,), (9,)]
        boxes = [band_of(masked_half(grid, lead, seed=60 + k), grid)
                 for k, lead in enumerate(leads)]
        rng = np.random.default_rng(61)
        values = [rng.standard_normal(lead + grid.shape) for lead in leads]
        got = [irfft_band(box, grid) for box in boxes] + rfft_bands(values, grid)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_drain", serial_drain)
            want = ([irfft_band(box, grid) for box in boxes]
                    + [rfft_band(vals, grid) for vals in values])
        for ours, serial in zip(got, want, strict=True):
            assert ours.shape == serial.shape and ours.tobytes() == serial.tobytes()

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


def on_pool_thread() -> bool:
    return threading.current_thread().name.startswith("shearks-fft")


class TestDrain:
    """spectral._drain: the caller and one pool thread take a 3D stage's
    tasks from one queue; errors reach the caller once both have stopped."""

    def test_grids_up_to_32_cubed_run_whole_on_the_caller(self):
        for grid, pieces in ((GridSpec((32, 32, 32)), 1), (GridSpec((32, 32, 34)), 4),
                             (GridSpec((128, 128)), 1)):
            seen = []
            over_slabs(lambda s: seen.append((s, threading.current_thread())), 17, grid)
            assert len(seen) == pieces
            if pieces == 1:
                assert seen == [(slice(0, 17), threading.current_thread())]

    @pytest.mark.usefixtures("threads_on_small_grids")
    def test_slabs_cover_the_range_once(self):
        for grid, n, pieces in ((GridSpec((48, 48, 48)), 25, 4), (THREAD_GRIDS[1], 9, 4),
                                (GridSpec((16, 10, 12)), 3, 3), (GRID2, 17, 1)):
            seen = []
            over_slabs(seen.append, n, grid)
            assert len(seen) == pieces
            assert sorted(i for s in seen for i in range(n)[s]) == list(range(n))

    @pytest.mark.usefixtures("threads_on_small_grids")
    def test_a_pool_thread_error_reaches_the_caller(self):
        # the caller holds its first slab until the pool thread has taken
        # one, which makes inf - inf under the caller's invalid="raise"
        taken, ran = threading.Event(), []

        def stage(s):
            if not on_pool_thread():
                assert taken.wait(timeout=60)
                return
            ran.append(s)
            taken.set()
            np.subtract(np.full(4, np.inf), np.inf)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="invalid"):
                over_slabs(stage, 9, THREAD_GRIDS[1])
        assert len(ran) == 1  # no task starts after the error

    @pytest.mark.usefixtures("threads_on_small_grids")
    def test_the_caller_raises_after_the_pool_thread_stops(self):
        started, finished = threading.Event(), []

        def stage(s):
            if on_pool_thread():
                started.set()
                time.sleep(0.2)
                finished.append(s)
            else:
                assert started.wait(timeout=60)
                raise ValueError("caller's slab")
        with pytest.raises(ValueError, match="caller's slab"):
            over_slabs(stage, 9, THREAD_GRIDS[1])
        assert len(finished) == 1

    @pytest.mark.usefixtures("threads_on_small_grids")
    def test_fill_equals_one_concatenation(self):
        # the k1 < 0 half in one piece: the mirror planes n1/2-1..1, reversed
        for grid in (GridSpec((48, 48, 48)), THREAD_GRIDS[1], GRID2, GridSpec((16,))):
            for lead in ((), (3,)):
                half = random_half(grid, lead, seed=62)
                axis = half.ndim - grid.dim
                mirror = half[(slice(None),) * axis + (slice(grid.shape[0] // 2 - 1, 0, -1),)]
                want = np.concatenate([half, conj_reverse(mirror, grid.dim - 1)], axis=axis)
                assert fill(half, grid).tobytes() == want.tobytes()


class TestRealField:
    """real_field completes a half in place and keeps it: its full spectrum
    is bit for bit fill(complete_half(half)); 3D runs on two threads."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("grid", [GRID2, GridSpec((32, 24)), THREAD_GRIDS[1]],
                             ids=["32^2", "32x24", "16x10x12"])
    def test_equals_fill_of_complete_half(self, grid, lead, threads_on_small_grids):
        half = random_half(grid, lead, seed=63)
        want = fill(complete_half(half.copy(), grid), grid)
        got = real_field(half, grid)
        assert got.grid == grid and got.half is half
        assert got.coeffs.tobytes() == want.tobytes()


class TestHalfStorage:
    """A SpectralField stores the k1 >= 0 half of its spectrum; ``coeffs`` is
    the full spectrum, filled on each read and read-only."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("grid", [GridSpec((16,)), GRID2, GridSpec((32, 24)), GRID3],
                             ids=["16", "32^2", "32x24", "16^3"])
    def test_a_hermitian_spectrum_round_trips_bit_for_bit(self, grid, lead):
        rng = np.random.default_rng(64)
        raw = rng.standard_normal(lead + grid.shape) + 1j * rng.standard_normal(lead + grid.shape)
        full = hermitian(raw, grid)
        F = SpectralField(grid, full)
        assert F.half.shape == lead + grid.half_shape and F.components == (lead or (1,))[0]
        assert not np.shares_memory(F.half, full)
        assert F.coeffs.tobytes() == full.tobytes()
        assert F.copy().coeffs.tobytes() == full.tobytes()

    def test_from_half_keeps_its_array(self):
        half = random_half(GRID3, (3,), seed=65)
        F = SpectralField.from_half(GRID3, half)
        assert F.half is half and F.component(1).half.base is half
        with pytest.raises(ContractViolation, match="inconsistent"):
            SpectralField.from_half(GRID3, fill(half, GRID3))

    def test_writing_to_coeffs_raises(self):
        F = random_real_field(GRID2, seed=66)
        before = F.half.copy()
        assert F.coeffs is not F.coeffs and not F.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            F.coeffs[1, 2] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            F.coeffs *= 2.0
        with pytest.raises(AttributeError):
            F.coeffs = np.zeros(GRID2.shape, dtype=np.complex128)
        assert np.array_equal(F.half, before)


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


class TestOverK2:
    @pytest.mark.parametrize("grid", [GridSpec((16, 16)), GridSpec((16, 24, 12))], ids=str)
    @pytest.mark.parametrize("where", ["half", "box"])
    @pytest.mark.parametrize("guarded", [False, True], ids=["k2", "guard"])
    def test_matches_the_where_form_bitwise(self, grid, where, guarded):
        # the division into a zeroed array is np.where's x / |k|^2
        # with 0 at k = 0, for complex x of the mesh's shape and with a
        # component axis, and for real x of a broadcast shape
        mesh = grid.k_mesh()
        if where == "box":
            mesh = [band_of(m, grid) for m in mesh]
        k2 = spectral._mesh_k2(mesh)
        pos, safe = spectral.k2_guard(k2)
        rng = np.random.default_rng(41)
        xs = [rng.standard_normal(k2.shape) + 1j * rng.standard_normal(k2.shape),
              rng.standard_normal((3, *k2.shape)) - 1j * rng.standard_normal((3, *k2.shape)),
              mesh[0] ** 2]
        for x in xs:
            want = np.where(pos, x / safe, 0.0)
            got = over_k2(x, (pos, safe) if guarded else k2)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert np.all(got[(...,) + (0,) * grid.dim] == 0.0)


class TestLeray:
    def test_pure_gradient_annihilated(self):
        x, y = GRID2.coordinate_mesh()
        phi = from_values(GRID2, np.sin(x + y))
        u = SpectralField(GRID2, np.stack([1j * k * phi.coeffs for k in full_k_mesh(GRID2)]))
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
        assert l2_norm(full_divergence(p, full_k_mesh(GRID3))) <= 1e-12 * l2_norm(u)
        pp = leray_project(p)
        assert np.max(np.abs(pp.coeffs - p.coeffs)) < 1e-13
        assert l2_norm(p) <= l2_norm(u) + 1e-14


class TestDivergence:
    @pytest.mark.parametrize("shape", [(16, 12), (8, 10, 12)])
    @pytest.mark.parametrize("drift", [0.0, 0.37])
    def test_half_equals_half_of_full_oracle(self, shape, drift):
        grid = GridSpec(shape)
        u = full_band_hermitian(grid, seed=3, components=grid.dim)
        mesh = full_k_mesh(grid)
        mesh[1] = mesh[1] - mesh[0] * drift  # a sheared frame's wavevectors
        div = divergence(halve(u.coeffs, grid), [halve(m, grid) for m in mesh])
        assert np.array_equal(div, halve(full_divergence(u, mesh).coeffs, grid))

    def test_needs_one_component_per_axis(self):
        grid = GridSpec((8, 10, 12))
        with pytest.raises(ContractViolation):
            divergence(np.zeros((2, 5, 10, 12), dtype=complex), grid.k_mesh())


class TestDealias:
    def test_low_modes_identity(self):
        F = random_real_field(GRID2, seed=8)  # already band-limited
        assert np.array_equal(F.coeffs * dealias_mask(GRID2), F.coeffs)

    def test_high_mode_zeroed(self):
        full = np.zeros(GRID2.shape, dtype=np.complex128)
        full[GRID2.shape[0] // 2 - 1, 0] = 1.0
        F = SpectralField(GRID2, full)
        assert np.max(np.abs(F.coeffs * dealias_mask(GRID2))) == 0.0

    def test_energy_nonincreasing(self):
        rng = np.random.default_rng(9)
        F = hermitize(forward_transform(RealField(GRID2, rng.standard_normal(GRID2.shape))))
        masked = SpectralField(GRID2, F.coeffs * dealias_mask(GRID2))
        assert spectral_energy(masked) <= spectral_energy(F)

    @pytest.mark.parametrize("n", [
        32, 64,
        pytest.param(48, marks=pytest.mark.xfail(
            strict=True, reason="K = n // 3 = 16 at n = 48, so 2K = 32 aliases to -K inside "
            "the band (ROADMAP item 9)")),
    ])
    def test_band_edge_product_leaves_the_band(self, n):
        # cos(K x)^2 = 1/2 + cos(2K x) / 2: the band box holds the mean alone
        # when 2K aliases outside the band
        grid = GridSpec((n, n))
        x, _ = grid.coordinate_mesh()
        box = rfft_band(np.cos(grid.dealias_cutoff(0) * x) ** 2 + np.zeros(grid.shape), grid)
        box[0, 0] = 0.0
        assert np.max(np.abs(box)) <= 1e-12


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
        k2 = full_k_squared(grid)
        w = parseval_weights(grid)
        for m in (np.ones(shape), k2, full_k_mesh(grid)[0] ** 2 * k2):
            full = np.sum(m * np.abs(F.coeffs) ** 2)
            half = np.sum(w * halve(m, grid) * np.abs(halve(F.coeffs, grid)) ** 2)
            assert abs(half - full) <= 1e-14 * full

    @pytest.mark.parametrize("shape, components", [((16,), 1), ((16, 12), 1), ((8, 10, 12), 1),
                                                   ((16, 12), 3), ((8, 10, 12), 2)])
    def test_parseval_sum_equals_full_sums(self, shape, components):
        # one multiplier gives a float, a stack of moments one sum each
        grid = GridSpec(shape)
        F = full_band_hermitian(grid, seed=sum(shape) + components, components=components)
        k2 = full_k_squared(grid)
        ms = [np.ones(shape), k2, full_k_mesh(grid)[0] ** 2 * k2]
        e = np.abs(F.coeffs) ** 2
        full = [grid.volume * np.sum(m * e) for m in ms]
        half = halve(F.coeffs, grid)
        assert parseval_sum(half, grid) == pytest.approx(full[0], rel=1e-14)
        assert parseval_sum(half, grid, halve(k2, grid)) == pytest.approx(full[1], rel=1e-14)
        sums = parseval_sum(half, grid, moments=np.stack([halve(m, grid) for m in ms]))
        assert sums.shape == (3,) and np.allclose(sums, full, rtol=1e-14, atol=0.0)
        # a multiplier and moments: one sum of their product per moment
        sums = parseval_sum(half, grid, halve(k2, grid), np.stack([halve(m, grid) for m in ms]))
        assert np.allclose(sums, [grid.volume * np.sum(k2 * m * e) for m in ms],
                           rtol=1e-14, atol=0.0)
        assert spectral_energy(F) == parseval_sum(half, grid)

    def test_cached_and_read_only(self):
        w = parseval_weights(GridSpec((16, 12)))
        assert w is parseval_weights(GridSpec((16, 12)))
        assert w.ravel().tolist() == [1.0] + [2.0] * 7 + [1.0]
        with pytest.raises(ValueError):
            w[1] = 1.0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc heap setting")
def test_freed_memory_is_kept_for_the_next_array():
    # a 16 MiB array freed and allocated again takes the same heap pages (0
    # fresh ones); with glibc's own thresholds the second faulted in 439-950
    faults = run_script(
        "import resource\n"
        "import numpy as np\n"
        "import shearks\n"
        "a = np.ones(2 ** 21)\n"
        "del a\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "a = np.ones(2 ** 21)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert int(faults) < 100


class TestSourceGuard:
    """The package keeps one real transform pair and one place that
    completes a real spectrum."""

    SOURCES = sorted(Path(spectral.__file__).parent.glob("*.py"))

    def test_no_complex_multidimensional_fft(self):
        call = re.compile(r"\b(?:fftn|ifftn|fft2|ifft2)\s*\(")
        hits = [f"{path.name}:{i}" for path in self.SOURCES
                for i, line in enumerate(path.read_text().splitlines(), 1) if call.search(line)]
        assert self.SOURCES and not hits

    def test_no_module_halves_the_lattice(self):
        # the grid's lattice is the k1 >= 0 half's: halving it again is a
        # second storage decision
        call = re.compile(r"\bhalve\(.*\b(?:frame_k_mesh|k_mesh|k_squared)\b")
        hits = [f"{path.name}:{i}" for path in self.SOURCES
                for i, line in enumerate(path.read_text().splitlines(), 1) if call.search(line)]
        assert self.SOURCES and not hits

    def test_hermitize_is_called_only_in_spectral(self):
        call = re.compile(r"\bhermitize\(")
        hits = [f"{path.name}:{i}" for path in self.SOURCES if path.name != "spectral.py"
                for i, line in enumerate(path.read_text().splitlines(), 1) if call.search(line)]
        assert not hits

    def test_package_imports_no_scipy(self):
        # scipy.fft is no backend here: importing it raises the peak RSS that
        # the benchmark gates; multiprocessing is loaded only by a sweep that
        # runs on worker processes, for its import time is every CLI call's
        loaded = run_script(
            "import importlib, pkgutil, sys\n"
            "import shearks\n"
            "names = [m.name for m in pkgutil.iter_modules(shearks.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('shearks.' + name)\n"
            "print(len(names), *sorted(m for m in sys.modules\n"
            "                          if m.split('.')[0] in ('scipy', 'multiprocessing')))\n")
        assert loaded.split() == [str(len(self.SOURCES) - 1)]  # every module but __init__

    @pytest.mark.parametrize("dim", [2, 3])
    def test_runs_make_no_n_dimensional_fft(self, monkeypatch, tmp_path, dim):
        # every transform is a pass pair of 1-D FFTs; a 3D run here has the
        # velocity, the tracker, the ledger and a checkpoint
        def refuse(*args, **kwargs):
            raise AssertionError("an n-dimensional FFT was called")

        for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        if dim == 2:
            text = ("dim = 2\nnx = 32\nny = 32\nmass = 6.0\ninit_width = 1.0\n"
                    "t_end = 0.1\ndt_max = 0.01\noutput_every = 0.05\n")
        else:
            text = (CONFIGS / "suppression_3d.conf").read_text() + (
                "\nnx = 16\nny = 16\nnz = 16\nt_end = 0.2\noutput_every = 0.1\n")
        summary = run_simulate(parse_config(text + f"out_dir = {tmp_path}\n"))
        assert summary["rows"] == 3
