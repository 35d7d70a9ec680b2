"""Fourier representation and calculus on the periodic torus [0, 2*pi)^d.

Fields are stored as full complex spectra with the normalization
f = sum_k fhat(k) e^{i k.x}, i.e. the forward transform divides by the
number of grid points so that fhat(k) = |T|^-d * integral f e^{-i k.x}.
Real transforms are halved along x (``rfft_x``, ``irfft_x``).  Products
are formed in physical space with 2/3-rule dealiasing (cutoff floor(n/3)
per axis) through the band pair (``irfft_band``, ``rfft_band``): the same
1-D transforms on only the lines that the band box reaches (k1 in 0..K1,
each further k_a in 0..K_a and n_a-K_a..n_a-1), bit for bit the full pair
with the band mask applied.  ``band_of`` cuts the box out of a half and
``place`` puts it back.  Every real field is made from the k1 >= 0 half
of its spectrum, which holds the whole k1 = 0 plane: ``complete_half``
makes the half that of a real field and ``fill`` writes the k1 < 0 half.
Collocation values are read from the half too (``values_of``), and so are
the energy ledger's and the tail monitor's spectral sums, each half mode
counted with its multiplicity in the full spectrum (``parseval_weights``).
The integer lattice of a grid is built once and shared read-only
(``GridSpec.k_mesh``).  On 3D grids the real transforms run on two threads,
bit-identical to numpy's serial ones.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


class ContractViolation(ValueError):
    """An operation was called outside its contract."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform collocation grid on the torus, period 2*pi per axis.

    shape holds the per-axis mode counts (n1, ..., nd); each must be even and
    at least 8 so the 2/3-rule band is nonempty.  dim 1 grids are allowed so
    that cross-sections of 2D grids remain representable.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.shape, tuple):
            object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if not 1 <= len(self.shape) <= 3:
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {len(self.shape)}")
        for n in self.shape:
            if n < 8 or n % 2 != 0:
                raise ValueError(f"n_modes must be even and >= 8 per axis, got {n}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def volume(self) -> float:
        return TWO_PI ** self.dim

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return self.volume / self.size

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(TWO_PI / n for n in self.shape)

    def dealias_cutoff(self, axis: int) -> int:
        return self.shape[axis] // 3

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Collocation points along one axis."""
        n = self.shape[axis]
        return np.arange(n) * (TWO_PI / n)

    def coordinate_mesh(self) -> list[np.ndarray]:
        """Broadcastable physical coordinates, one array per axis."""
        return list(np.ix_(*[self.axis_coordinate(a) for a in range(self.dim)]))

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer wavenumbers along one axis in FFT storage order."""
        n = self.shape[axis]
        return np.fft.fftfreq(n, d=1.0 / n)

    def k_mesh(self) -> list[np.ndarray]:
        """Broadcastable integer wavevector components, one array per axis.

        The arrays are the grid's cached lattice, shared by every caller and
        read-only: writing to one raises ValueError.
        """
        return list(_k_mesh(self))

    def k_squared(self) -> np.ndarray:
        return _k_squared(self)

    def dealias_mask(self) -> np.ndarray:
        return _dealias_mask(self)

    def cross_section(self) -> "GridSpec":
        """Grid of the (d-1)-dimensional cross-section normal to axis 0."""
        if self.dim < 2:
            raise ValueError("no cross-section of a 1D grid")
        return GridSpec(self.shape[1:])


@lru_cache(maxsize=32)
def _k_mesh(grid: GridSpec) -> tuple[np.ndarray, ...]:
    mesh = np.ix_(*[grid.wavenumbers(a) for a in range(grid.dim)])
    for comp in mesh:
        comp.flags.writeable = False
    return mesh


@lru_cache(maxsize=32)
def _k_squared(grid: GridSpec) -> np.ndarray:
    return _mesh_k2(grid.k_mesh())


@lru_cache(maxsize=32)
def _dealias_mask(grid: GridSpec) -> np.ndarray:
    mask = np.ones(grid.shape, dtype=bool)
    for axis, comp in enumerate(grid.k_mesh()):
        mask &= np.abs(comp) <= grid.dealias_cutoff(axis)
    return mask


@dataclass
class RealField:
    """Collocation values of a real field; leading axes index components."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        _check_shape(self.grid, self.values)
        if not np.all(np.isfinite(self.values)):
            raise ContractViolation("RealField values must be finite")

    @property
    def components(self) -> int:
        return _n_components(self.grid, self.values)


@dataclass
class SpectralField:
    """Complex Fourier coefficients of a real field on the torus.

    coeffs is indexed row-major by integer wavevector in FFT storage order;
    a leading axis, when present, indexes vector components.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        _check_shape(self.grid, self.coeffs)
        if not np.iscomplexobj(self.coeffs):
            self.coeffs = self.coeffs.astype(np.complex128)

    @property
    def components(self) -> int:
        return _n_components(self.grid, self.coeffs)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def component(self, i: int) -> "SpectralField":
        if self.coeffs.ndim == self.grid.dim:
            raise IndexError("scalar field has no components to index")
        return SpectralField(self.grid, self.coeffs[i])


def _check_shape(grid: GridSpec, arr: np.ndarray):
    if arr.ndim == grid.dim:
        ok = arr.shape == grid.shape
    elif arr.ndim == grid.dim + 1:
        ok = arr.shape[1:] == grid.shape and arr.shape[0] >= 1
    else:
        ok = False
    if not ok:
        raise ContractViolation(
            f"array shape {arr.shape} inconsistent with grid {grid.shape}"
        )


def _n_components(grid: GridSpec, arr: np.ndarray) -> int:
    return 1 if arr.ndim == grid.dim else arr.shape[0]


def zeros(grid: GridSpec, components: int = 1) -> SpectralField:
    shape = grid.shape if components == 1 else (components, *grid.shape)
    return SpectralField(grid, np.zeros(shape, dtype=np.complex128))


def conj_reverse(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """conj(coeffs) sampled at -k, the Hermitian mirror of the spectrum."""
    axes = tuple(range(coeffs.ndim - dim, coeffs.ndim))
    out = coeffs
    for ax in axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return np.conj(out)


def hermitize(F: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric (real-field) part."""
    sym = 0.5 * (F.coeffs + conj_reverse(F.coeffs, F.grid.dim))
    return SpectralField(F.grid, sym)


def complete_half(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Make a k1 >= 0 half spectrum that of a real field, in place: zero the
    lone -n/2 rows (odd-in-k operators are ill-defined there) and symmetrize
    the k1 = 0 plane, which the half holds whole.  ``fill`` completes it."""
    lead = half.ndim - grid.dim
    for axis, n in enumerate(grid.shape):
        half[(slice(None),) * (lead + axis) + (n // 2,)] = 0.0
    plane = (slice(None),) * lead + (0,)
    if grid.dim == 1:  # the plane is the mean alone
        half[plane] = half[plane].real
    else:
        half[plane] = hermitize(SpectralField(grid.cross_section(), half[plane])).coeffs
    return half


def total_mass(F: SpectralField) -> float:
    """Integral of a scalar field over the torus, from its k = 0 coefficient."""
    return float(F.coeffs[(0,) * F.grid.dim].real * F.grid.volume)


# ---------------------------------------------------------------------------
# transforms

def forward_transform(f: RealField) -> SpectralField:
    """Collocation values -> Fourier coefficients; ``values_of`` inverts it."""
    return SpectralField(f.grid, fill(rfft_x(f.values, f.grid), f.grid))


def halve(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The k1 >= 0 half of a full spectrum (a view); leading axes are kept."""
    lead = (slice(None),) * (coeffs.ndim - grid.dim)
    return coeffs[lead + (slice(0, grid.shape[0] // 2 + 1),)]


def _x_last(grid: GridSpec, ndim: int) -> tuple[int, ...]:
    """Spatial axes with x last: numpy's real FFTs halve their last axis."""
    lead = ndim - grid.dim
    return tuple(range(lead + 1, ndim)) + (lead,)


# On 3D grids the real transforms split each transform in two, one half per
# thread; numpy's FFTs release the GIL.  A stack with an even number of fields
# is split into two half stacks, each transformed whole.  A bare field, or an
# odd stack, is split in two slabs per pass: the y and z passes over halves of
# the k1 planes they run on, the x pass over halves of y.  At 48^3 half
# stacks beat slabs on 6-field stacks, and slabs beat a 2:1 field split on
# 3-field ones.  Every piece makes the 1-D calls of numpy's rfftn/irfftn in
# their axis order and writes with out= into arrays that the calling thread
# allocated, so each line is transformed exactly as the serial transform does
# it.  2D grids stay serial: at 128^2 two threads are slower.
#
# The band pair (irfft_band, rfft_band) makes the same calls on fewer lines.
# A field dealiased by the 2/3 rule is zero off its band box, so the inverse
# runs its y pass only on the lines with k1 <= K1 and k3 in the band and its
# z pass only on the planes k1 <= K1; the forward runs the x pass on every
# line, the z pass on the planes k1 <= K1 and the y pass on the band's z
# columns, and keeps the box.  numpy transforms each line on its own, so
# every band value is bit for bit that of the full pair with the band mask
# applied (FFT pruning).  The full pair is the case with no line left out.

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _fft_pool() -> ThreadPoolExecutor:
    """The transform threads, started by the first 3D transform."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # every split is two-way (_halves): one thread per half
            _pool = ThreadPoolExecutor(2, thread_name_prefix="shearks-fft")
        return _pool


def _forget_pool():
    """A forked child inherits the executor but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run(tasks) -> None:
    """Run every (fn, *args) on the pool and wait for all of them.

    Each task runs in a copy of the caller's context, which carries numpy's
    error state (np.errstate); the first task error is raised once every
    task has finished writing.
    """
    pool = _fft_pool()
    futures = [pool.submit(contextvars.copy_context().run, *task) for task in tasks]
    wait(futures)
    for future in futures:
        future.result()


def _halves(n: int) -> tuple[slice, slice]:
    """The two halves of an axis of length n."""
    return slice(0, (n + 1) // 2), slice((n + 1) // 2, n)


_EVERY_COLUMN = (slice(None),)  # the z columns of an unpruned y pass


def _inverse_yz(src: np.ndarray, tmp: np.ndarray, zruns):
    """y pass from src into tmp on the z columns zruns, then z pass in place."""
    for z in zruns:
        np.fft.ifft(src[..., z], tmp.shape[-2], axis=-2, norm="forward", out=tmp[..., z])
    np.fft.ifft(tmp, axis=-1, norm="forward", out=tmp)


def _inverse_x(tmp: np.ndarray, out: np.ndarray):
    np.fft.irfft(tmp, out.shape[-3], axis=-3, norm="forward", out=out)


def _inverse(src: np.ndarray, tmp: np.ndarray, out: np.ndarray, planes: slice, zruns):
    _inverse_yz(src[..., planes, :, :], tmp[..., planes, :, :], zruns)
    _inverse_x(tmp, out)


def _forward_x(src: np.ndarray, hat: np.ndarray):
    np.fft.rfft(src, axis=-3, norm="forward", out=hat)


def _forward_zy(hat: np.ndarray, zruns):
    """z pass in place, then y pass in place on the z columns zruns."""
    np.fft.fft(hat, axis=-1, norm="forward", out=hat)
    for z in zruns:
        np.fft.fft(hat[..., z], axis=-2, norm="forward", out=hat[..., z])


def _forward(src: np.ndarray, hat: np.ndarray, planes: slice, zruns):
    _forward_x(src, hat)
    _forward_zy(hat[..., planes, :, :], zruns)


def _even_stack(lead: tuple[int, ...]) -> bool:
    return len(lead) > 0 and lead[0] % 2 == 0


def _irfft3(src: np.ndarray, tmp: np.ndarray, grid: GridSpec, planes: slice,
            zruns) -> np.ndarray:
    """3D inverse: y pass on the z columns zruns and z pass, from src into tmp
    on the k1 planes ``planes`` (src may be tmp), then x over all of tmp."""
    lead = tmp.shape[:-3]
    out = np.empty(lead + grid.shape, dtype=np.result_type(tmp.real, 1.0))
    if _even_stack(lead):
        _run([(_inverse, src[k], tmp[k], out[k], planes, zruns) for k in _halves(lead[0])])
        return out
    _run([(_inverse_yz, src[..., k, :, :], tmp[..., k, :, :], zruns)
          for k in _halves(planes.stop)])
    _run([(_inverse_x, tmp[..., k, :], out[..., k, :]) for k in _halves(grid.shape[1])])
    return out


def _rfft3(values: np.ndarray, grid: GridSpec, planes: slice, zruns) -> np.ndarray:
    """3D forward: x on every line, z on the k1 planes 0..planes.stop-1 and y
    on their z columns zruns; the other modes hold partial transforms."""
    n1, n2, n3 = values.shape[-3:]
    lead = values.shape[:-3]
    hat = np.empty(lead + (n1 // 2 + 1, n2, n3), dtype=np.result_type(values, 1j))
    if _even_stack(lead):
        _run([(_forward, values[k], hat[k], planes, zruns) for k in _halves(lead[0])])
        return hat
    _run([(_forward_x, values[..., k, :], hat[..., k, :]) for k in _halves(n2)])
    _run([(_forward_zy, hat[..., k, :, :], zruns) for k in _halves(planes.stop)])
    return hat


def irfft_x(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Collocation values of the real field whose k1 >= 0 half is given."""
    if grid.dim < 3:
        shape = grid.shape[1:] + grid.shape[:1]
        return np.fft.irfftn(half, s=shape, axes=_x_last(grid, half.ndim), norm="forward")
    tmp = np.empty(half.shape[:-3] + half.shape[-3:-2] + grid.shape[1:],
                   dtype=np.result_type(half, 1j))
    return _irfft3(half, tmp, grid, slice(0, half.shape[-3]), _EVERY_COLUMN)


def rfft_x(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """k1 >= 0 half of the spectrum of real collocation values."""
    if grid.dim < 3:
        return np.fft.rfftn(values, axes=_x_last(grid, values.ndim), norm="forward")
    return _rfft3(values, grid, slice(0, grid.shape[0] // 2 + 1), _EVERY_COLUMN)


# ---------------------------------------------------------------------------
# the 2/3-rule band box

def band_shape(grid: GridSpec) -> tuple[int, ...]:
    """Shape of a band box: k1 in 0..K1 and every further k_a in its two
    wrap-around runs 0..K_a and n_a-K_a..n_a-1, K_a = dealias_cutoff(a)."""
    return ((grid.dealias_cutoff(0) + 1,)
            + tuple(2 * grid.dealias_cutoff(a) + 1 for a in range(1, grid.dim)))


def _runs(grid: GridSpec, axis: int) -> tuple[slice, slice]:
    """The band's two wrap-around runs along an axis past the first."""
    n, K = grid.shape[axis], grid.dealias_cutoff(axis)
    return slice(0, K + 1), slice(n - K, n)


def _box_pieces(grid: GridSpec, shape: tuple[int, ...]):
    """(half index, box index) pairs that copy a band box run by run, for
    spatial shape ``shape``; an axis of length 1 is copied whole."""
    per_axis = []
    for axis, n in enumerate(shape):
        K = grid.dealias_cutoff(axis)
        if n == 1:
            per_axis.append([(slice(None), slice(None))])
        elif axis == 0:
            per_axis.append([(slice(0, K + 1), slice(None))])
        else:
            lo, hi = _runs(grid, axis)
            per_axis.append([(lo, slice(0, K + 1)), (hi, slice(K + 1, 2 * K + 1))])
    for piece in itertools.product(*per_axis):
        yield (..., *(h for h, _ in piece)), (..., *(b for _, b in piece))


def band_of(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The band box of a k1 >= 0 half, a copy; leading axes are kept, and an
    axis of length 1 (a broadcast mesh component) stays of length 1."""
    lead, shape = arr.shape[:arr.ndim - grid.dim], arr.shape[arr.ndim - grid.dim:]
    box = np.empty(lead + tuple(1 if n == 1 else b for n, b in zip(shape, band_shape(grid))),
                   dtype=arr.dtype)
    for h, b in _box_pieces(grid, shape):
        box[b] = arr[h]
    return box


def place(box: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The k1 >= 0 half whose band box is box and whose other modes are 0."""
    shape = (grid.shape[0] // 2 + 1,) + grid.shape[1:]
    half = np.zeros(box.shape[:box.ndim - grid.dim] + shape, dtype=np.result_type(box, 1j))
    for h, b in _box_pieces(grid, shape):
        half[h] = box[b]
    return half


def irfft_band(box: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Collocation values of the real field whose k1 >= 0 half is
    ``place(box)``: ``irfft_x`` of that half bit for bit, on fewer lines."""
    half = place(box, grid)
    planes = slice(0, box.shape[box.ndim - grid.dim])
    if grid.dim == 3:
        return _irfft3(half, half, grid, planes, _runs(grid, 2))
    if grid.dim == 2:
        np.fft.ifft(half[..., planes, :], axis=-1, norm="forward", out=half[..., planes, :])
    return np.fft.irfft(half, grid.shape[0], axis=-grid.dim, norm="forward")


def rfft_band(values: np.ndarray, grid: GridSpec, plane0: np.ndarray | None = None) -> np.ndarray:
    """Band box of the spectrum of real collocation values: ``rfft_x(values)``
    on the box bit for bit, from fewer lines.  In 3D, plane0 (leading axes as
    values', then n2 x n3), when given, also receives the whole k1 = 0 plane."""
    planes = slice(0, grid.dealias_cutoff(0) + 1)
    if grid.dim == 3:
        lo, hi = _runs(grid, 2)
        hat = _rfft3(values, grid, planes, (lo, hi))
        if plane0 is not None:  # the y pass on the plane's other z columns
            rest = slice(lo.stop, hi.start)
            np.fft.fft(hat[..., 0, :, rest], axis=-2, norm="forward", out=hat[..., 0, :, rest])
            plane0[...] = hat[..., 0, :, :]
    else:
        hat = np.fft.rfft(values, axis=-grid.dim, norm="forward")
        if grid.dim == 2:
            np.fft.fft(hat[..., planes, :], axis=-1, norm="forward", out=hat[..., planes, :])
    return band_of(hat, grid)


def fill(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full spectrum from its k1 >= 0 half via coeff(-k) = conj(coeff(k))."""
    lead = half.ndim - grid.dim
    mirror = half[(slice(None),) * lead + (slice(grid.shape[0] // 2 - 1, 0, -1),)]
    return np.concatenate([half, conj_reverse(mirror, grid.dim - 1)], axis=lead)


@lru_cache(maxsize=32)
def parseval_weights(grid: GridSpec) -> np.ndarray:
    """Multiplicity of each k1 >= 0 half mode in the full spectrum: 1 on the
    k1 = 0 plane and on the lone -n1/2 plane, 2 elsewhere, shaped to
    broadcast against a half (leading axes too).  For a real field,
    sum(w m |half|^2) is the full spectrum's sum(m |coeffs|^2) for any m
    even in k.  Cached and read-only."""
    w = np.full(grid.shape[0] // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    w = w.reshape(w.shape + (1,) * (grid.dim - 1))
    w.flags.writeable = False
    return w


def values_of(F: SpectralField) -> np.ndarray:
    """Collocation values of a real field, by one real inverse transform of
    its k1 >= 0 half.

    The spectrum must be Hermitian, as every solver state is: the k1 < 0
    half is not read, and only the Hermitian parts of the k1 = 0 and
    k1 = n1/2 planes count.  Raises ContractViolation on non-finite values.
    """
    values = irfft_x(halve(F.coeffs, F.grid), F.grid)
    if not np.all(np.isfinite(values)):
        raise ContractViolation("RealField values must be finite")
    return values


# ---------------------------------------------------------------------------
# differential operators
#
# Every operator takes an optional k_mesh so that callers working in a
# sheared (drifting-wavevector) frame can supply effective wavevectors; the
# default is the grid's integer lattice.

def _mesh(F: SpectralField, k_mesh) -> list[np.ndarray]:
    return F.grid.k_mesh() if k_mesh is None else list(k_mesh)


def _mesh_k2(mesh) -> np.ndarray:
    """|k|^2 on the broadcast shape of the wavevector components, summed in
    axis order."""
    k2 = np.zeros(np.broadcast_shapes(*[m.shape for m in mesh]))
    for comp in mesh:
        k2 = k2 + comp ** 2
    return k2


def derivative(F: SpectralField, axis: int, k_mesh=None) -> SpectralField:
    """Spectral partial derivative along one axis."""
    if not 0 <= axis < F.grid.dim:
        raise ContractViolation(f"axis {axis} out of range for dim {F.grid.dim}")
    k = _mesh(F, k_mesh)[axis]
    return SpectralField(F.grid, 1j * k * F.coeffs)


def laplacian(F: SpectralField, k_mesh=None) -> SpectralField:
    k2 = _mesh_k2(_mesh(F, k_mesh))
    return SpectralField(F.grid, -k2 * F.coeffs)


def divergence(u: SpectralField, k_mesh=None) -> SpectralField:
    if u.components != u.grid.dim:
        raise ContractViolation("divergence expects a dim-component vector field")
    mesh = _mesh(u, k_mesh)
    out = np.zeros(u.grid.shape, dtype=np.complex128)
    for a in range(u.grid.dim):
        out += 1j * mesh[a] * u.coeffs[a]
    return SpectralField(u.grid, out)


def k2_guard(k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The guard of ``over_k2`` for one |k|^2, to build once and reuse:
    where |k|^2 > 0, and |k|^2 with 1 at k = 0."""
    pos = k2 > 0.0
    return pos, np.where(pos, k2, 1.0)


def over_k2(x, k2, sign: float = 1.0) -> np.ndarray:
    """x / (sign |k|^2) off k = 0 and 0 at k = 0, behind every inverse
    Laplacian: sign = -1 gives lap^-1 x, sign = 1 the mean-free c, -lap c = x.
    k2 is |k|^2 or its ``k2_guard``."""
    pos, safe = k2_guard(k2) if isinstance(k2, np.ndarray) else k2
    return np.where(pos, x / (safe if sign == 1.0 else sign * safe), 0.0)


def solve_chemo(n: SpectralField, k_mesh=None) -> SpectralField:
    """Chemoattractant c with lap(c) = -(n - mean n) and mean(c) = 0.

    Coefficient-wise c_hat(k) = n_hat(k)/|k|^2 for k != 0; the k = 0 gauge is
    fixed to zero mean.
    """
    if n.components != 1:
        raise ContractViolation("solve_chemo expects a scalar density")
    k2 = _mesh_k2(_mesh(n, k_mesh))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = over_k2(n.coeffs, k2)
    return SpectralField(n.grid, c)


def leray_project(u: SpectralField, k_mesh=None) -> SpectralField:
    """Orthogonal projection onto divergence-free fields; k = 0 unchanged."""
    if u.components != u.grid.dim:
        raise ContractViolation("leray_project expects a dim-component vector field")
    return SpectralField(u.grid, leray_coeffs(u.coeffs.copy(), _mesh(u, k_mesh)))


def leray_coeffs(coeffs: np.ndarray, mesh, k2=None) -> np.ndarray:
    """leray_project on a bare component array, e.g. a k1 >= 0 half spectrum,
    in place (coeffs is returned); k2 is the mesh's |k|^2 or its
    ``k2_guard``, built when not given."""
    kdotu = sum(mesh[a] * coeffs[a] for a in range(len(mesh)))
    with np.errstate(divide="ignore", invalid="ignore"):
        kdotu = over_k2(kdotu, _mesh_k2(mesh) if k2 is None else k2)
    for a in range(len(mesh)):
        coeffs[a] -= mesh[a] * kdotu
    return coeffs


# ---------------------------------------------------------------------------
# norms

def spectral_energy(F: SpectralField) -> float:
    """Integral of |f|^2 over the torus, from the coefficients (Parseval)."""
    return float(F.grid.volume * np.sum(np.abs(F.coeffs) ** 2))


def l2_norm(F: SpectralField) -> float:
    return float(np.sqrt(spectral_energy(F)))


def sobolev_norm(F: SpectralField, order: int, k_mesh=None) -> float:
    """H^s norm with Bessel weights (1 + |k|^2)^s."""
    k2 = _mesh_k2(_mesh(F, k_mesh))
    w = (1.0 + k2) ** order * np.abs(F.coeffs) ** 2
    return float(np.sqrt(F.grid.volume * np.sum(w)))
