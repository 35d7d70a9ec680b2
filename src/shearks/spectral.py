"""Fourier representation and calculus on the periodic torus [0, 2*pi)^d.

A real field is stored as the k1 >= 0 half of its complex spectrum
(``SpectralField.half``) with the normalization f = sum_k fhat(k) e^{i k.x},
i.e. the forward transform divides by the number of grid points so that
fhat(k) = |T|^-d * integral f e^{-i k.x}.
Real transforms are halved along x (``rfft_x``, ``irfft_x``).  Products
are formed in physical space with 2/3-rule dealiasing (cutoff floor(n/3)
per axis) through the band pair (``irfft_band``, ``rfft_band``): the same
1-D transforms on only the lines that the band box reaches (k1 in 0..K1,
each further k_a in 0..K_a and n_a-K_a..n_a-1), bit for bit the full pair
with the band mask applied.  ``band_of`` cuts the box out of a half and
``place`` puts it back.  Every real field is made from the k1 >= 0 half
of its spectrum, which holds the whole k1 = 0 plane: ``complete_half``
makes the half that of a real field and ``real_field`` completes a half and
keeps it.  ``fill`` writes the k1 < 0 half, for readers of a full spectrum
(``SpectralField.coeffs``) alone.
Collocation values are read from the half too (``values_of``, and with
their extremes ``values_range``), and every spectral sum is one reduction
over it (``parseval_sum``), each half mode counted with its multiplicity in
the full spectrum (``parseval_weights``): the norms, ``divergence``'s, the
tail monitor's, the ledger's and the remap loss.
The integer lattice of a grid is its k1 >= 0 half's, built once and shared
read-only (``GridSpec.k_mesh``).  In every dimension the real transforms
are one pair of passes of numpy's 1-D FFTs, bit-identical to numpy's
rfftn/irfftn.  On 3D grids of more than 32^3 points the fields of a stack,
the stacks of a batch (``rfft_bands``) and the k1 or x slabs of a
mode-local stage (``over_slabs``) are tasks of one work queue that the
caller and one pool thread drain (``_drain``), bit for bit the serial
result.  The operators act on halves through that lattice; ``divergence``
and ``leray_coeffs``, the one velocity projection, take the wavevectors
they work on, the lattice or a sheared frame's.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    # dim, volume and size are read on every step and sample: each is
    # computed once per grid
    @cached_property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def volume(self) -> float:
        return TWO_PI ** self.dim

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of a k1 >= 0 half spectrum: k1 in 0..n1/2, every further
        axis whole."""
        return (self.shape[0] // 2 + 1,) + self.shape[1:]

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
        """Integer wavevectors of the k1 >= 0 half, one array per axis that
        broadcasts against ``half_shape``: k1 as ``halve`` orders it, every
        further axis whole.  The arrays are the grid's cached lattice, shared
        by every caller and read-only: writing to one raises ValueError."""
        return list(_k_mesh(self))

    def k_squared(self) -> np.ndarray:
        """|k|^2 on ``k_mesh``, cached and read-only."""
        return _k_squared(self)

    def cross_section(self) -> "GridSpec":
        """Grid of the (d-1)-dimensional cross-section normal to axis 0."""
        if self.dim < 2:
            raise ValueError("no cross-section of a 1D grid")
        return GridSpec(self.shape[1:])


@lru_cache(maxsize=32)
def _k_mesh(grid: GridSpec) -> tuple[np.ndarray, ...]:
    mesh = np.ix_(*[grid.wavenumbers(a)[:n] for a, n in enumerate(grid.half_shape)])
    for comp in mesh:
        comp.flags.writeable = False
    return mesh


@lru_cache(maxsize=32)
def _k_squared(grid: GridSpec) -> np.ndarray:
    k2 = _mesh_k2(grid.k_mesh())
    k2.flags.writeable = False
    return k2


@dataclass
class RealField:
    """Collocation values of a real field; leading axes index components."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        _check_shape(self.grid, self.values, self.grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise ContractViolation("RealField values must be finite")

    @property
    def components(self) -> int:
        return _n_components(self.grid, self.values)


class SpectralField:
    """A real field on the torus by the k1 >= 0 half of its Fourier spectrum.

    ``half`` is the stored array, indexed row-major by integer wavevector in
    FFT storage order with k1 in 0..n1/2 (``halve``); a leading axis, when
    present, indexes vector components.  ``SpectralField(grid, coeffs)``
    keeps a copy of the half of a full Hermitian spectrum, ``from_half``
    keeps the half it is given.  ``coeffs`` is the full spectrum, filled on
    each read (``fill``) and read-only, for readers outside a run.
    """

    def __init__(self, grid: GridSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs)
        _check_shape(grid, coeffs, grid.shape)
        self.grid = grid
        self.half = np.array(halve(coeffs, grid), dtype=np.complex128, order="C")

    @classmethod
    def from_half(cls, grid: GridSpec, half: np.ndarray) -> "SpectralField":
        """The field whose k1 >= 0 half is half, a complex array it keeps
        without a copy."""
        _check_shape(grid, half, grid.half_shape)
        F = cls.__new__(cls)
        F.grid, F.half = grid, half
        return F

    @property
    def coeffs(self) -> np.ndarray:
        full = fill(self.half, self.grid)
        full.flags.writeable = False
        return full

    @property
    def components(self) -> int:
        return _n_components(self.grid, self.half)

    def copy(self) -> "SpectralField":
        return SpectralField.from_half(self.grid, self.half.copy())

    def component(self, i: int) -> "SpectralField":
        if self.half.ndim == self.grid.dim:
            raise IndexError("scalar field has no components to index")
        return SpectralField.from_half(self.grid, self.half[i])


def _check_shape(grid: GridSpec, arr: np.ndarray, shape: tuple[int, ...]):
    """arr is one field of spatial shape shape, or a stack of them."""
    if arr.ndim == grid.dim:
        ok = arr.shape == shape
    elif arr.ndim == grid.dim + 1:
        ok = arr.shape[1:] == shape and arr.shape[0] >= 1
    else:
        ok = False
    if not ok:
        raise ContractViolation(
            f"array shape {arr.shape} inconsistent with grid {grid.shape}"
        )


def _n_components(grid: GridSpec, arr: np.ndarray) -> int:
    return 1 if arr.ndim == grid.dim else arr.shape[0]


def zeros(grid: GridSpec, components: int = 1) -> SpectralField:
    lead = () if components == 1 else (components,)
    return SpectralField.from_half(grid, np.zeros(lead + grid.half_shape, dtype=np.complex128))


def conj_reverse(coeffs: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """conj(coeffs) sampled at -k, the Hermitian mirror of the spectrum over
    its last dim axes, written into out when given: index 0 of an axis stays,
    and 1..n-1 read n-1..1."""
    out = np.empty(coeffs.shape, dtype=coeffs.dtype) if out is None else out
    lead = (slice(None),) * (coeffs.ndim - dim)
    runs = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for piece in itertools.product(runs, repeat=dim):
        np.conj(coeffs[lead + tuple(src for _, src in piece) + (...,)],
                out=out[lead + tuple(dst for dst, _ in piece) + (...,)])
    return out


def _hermitian_part(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian part of a full spectrum over its last dim axes: the
    average of coeffs and its mirror image (``conj_reverse``)."""
    return 0.5 * (coeffs + conj_reverse(coeffs, dim))


def hermitize(F: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric (real-field) part.  Of a k1 >= 0
    half only the k1 = 0 and k1 = n1/2 planes, each its own mirror image,
    can break the symmetry: both are averaged with their mirror images."""
    half = F.half.copy()
    lead = (slice(None),) * (half.ndim - F.grid.dim)
    for k1 in {0, F.grid.shape[0] // 2}:
        half[lead + (k1,)] = _hermitian_part(half[lead + (k1,)], F.grid.dim - 1)
    return SpectralField.from_half(F.grid, half)


def complete_half(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Make a k1 >= 0 half spectrum that of a real field, in place: zero the
    lone -n/2 rows (odd-in-k operators are ill-defined there) and symmetrize
    the k1 = 0 plane, which the half holds whole.  ``fill`` completes it."""
    lead = half.ndim - grid.dim
    for axis, n in enumerate(grid.shape):
        half[(slice(None),) * (lead + axis) + (n // 2,)] = 0.0
    plane = (slice(None),) * lead + (0,)  # in 1D the mean alone, made real
    half[plane] = _hermitian_part(half[plane], grid.dim - 1)
    return half


def total_mass(F: SpectralField) -> float:
    """Integral of a scalar field over the torus, from its k = 0 coefficient."""
    return float(F.half[(0,) * F.grid.dim].real * F.grid.volume)


# ---------------------------------------------------------------------------
# transforms

def forward_transform(f: RealField) -> SpectralField:
    """Collocation values -> Fourier coefficients; ``values_of`` inverts it."""
    return SpectralField.from_half(f.grid, rfft_x(f.values, f.grid))


def halve(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The k1 >= 0 half of a full spectrum (a view); leading axes are kept."""
    lead = (slice(None),) * (coeffs.ndim - grid.dim)
    return coeffs[lead + (slice(0, grid.shape[0] // 2 + 1),)]


# Every real transform, in every dimension, is one pass pair of numpy's own
# 1-D FFTs in the axis order of numpy's rfftn/irfftn: the forward runs rfft
# along x, then fft along each further axis; the inverse runs ifft along each
# further axis into a fresh array, then irfft along x.
#
# The band pair (irfft_band, rfft_band) makes the same calls on fewer lines.
# A field dealiased by the 2/3 rule is zero off its band box, so the inverse
# runs its y pass only on the lines with k1 <= K1 and k3 in the band and its
# z pass only on the planes k1 <= K1; the forward runs the x pass on every
# line, the z pass on the planes k1 <= K1 and the y pass on the band's z
# columns, and keeps the box.  numpy transforms each line on its own, so
# every band value is bit for bit that of the full pair with the band mask
# applied (FFT pruning).  The full pair is the case with no line left out.
#
# Work on 3D grids of more than 32^3 points runs on two threads through one
# queue (``_drain``): a transform makes one task per field, that field's
# whole pass pair, and a mode-local stage (``over_slabs``) one task per slab
# of k1 or x planes.  The caller and one pool thread take the tasks in turn,
# so neither waits on a fixed share of the other's; numpy's FFTs and large
# ufuncs release the GIL.  A lone task, a bare field's transform for one,
# runs on the caller, and smaller 3D grids and every 2D and 1D grid run each
# stack and stage whole on the caller: there two threads are slower (at
# 128^2 too).  A task writes with out= into arrays that the caller
# allocated, or into its own temporaries, and numpy transforms each line and
# computes each element on its own, so every result is bit for bit the
# serial one.

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_SLABS = 4  # tasks of a slab stage on two threads
_SERIAL_UP_TO = 32 ** 3  # grid points up to which 3D work runs on the caller alone


def _helper() -> ThreadPoolExecutor:
    """The one pool thread, started by the first drain of two or more tasks."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(1, thread_name_prefix="shearks-fft")
        return _pool


def _forget_pool():
    """A forked child inherits the executor but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


# glibc hands freed heap back to the kernel by thresholds that it tunes from
# the sizes freed so far, and how often a step's grid-sized temporaries are
# then faulted in again follows the heap's layout (one 128^2 sweep2d round:
# 104k-581k pages over six checkout paths).  Keeping freed memory, arrays up
# to 32 MiB from the heap and up to 128 MiB of it free, makes each step
# reuse the last one's (35k pages on every path).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of glibc's malloc.h


def _keep_freed_memory():
    """Set glibc's heap to keep freed memory; other C libraries are left as
    they are."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 * 2 ** 20)
    mallopt(_M_TRIM_THRESHOLD, 128 * 2 ** 20)


_keep_freed_memory()


def _threaded(grid: GridSpec) -> bool:
    """Whether a grid's work runs on two threads: 3D grids of more than
    32^3 points.  On smaller grids the handoffs between the threads cost
    more than they save.  Median coupled, tracked steps on two threads
    against one, alternating in one process: 13.7 against 8.7 ms at 16^3,
    19.5 against 17.1 ms at 32^3, 23.0 against 23.9 ms at 36^3 and 41.1
    against 65.0 ms at 48^3."""
    return grid.dim == 3 and grid.size > _SERIAL_UP_TO


def _drain(tasks: list, grid: GridSpec) -> None:
    """Run every task (fn, *args) of ``tasks``.

    On a ``_threaded`` grid the caller and one pool thread take the tasks in
    turn from one shared iterator; the pool thread runs its tasks in a copy
    of the caller's context, which carries numpy's error state
    (np.errstate).  After an error no further task starts, and the first
    error (an interrupt or exit before it) is raised once both threads have
    stopped writing.  A lone task, and every task of another grid, runs on
    the caller in order.
    """
    if len(tasks) < 2 or not _threaded(grid):
        for fn, *args in tasks:
            fn(*args)
        return
    queue, lock, errors = iter(tasks), threading.Lock(), []

    def take():
        while True:
            with lock:
                task = None if errors else next(queue, None)
            if task is None:
                return
            try:
                task[0](*task[1:])
            except BaseException as err:  # raised on the caller below
                with lock:
                    errors.append(err)

    helper = _helper().submit(contextvars.copy_context().run, take)
    take()
    if not helper.cancel():  # the pool thread has started: wait for it
        wait([helper])
    if errors:  # an interrupt or exit outranks the first error
        raise next((err for err in errors if not isinstance(err, Exception)), errors[0])


def over_slabs(fn, n: int, grid: GridSpec) -> None:
    """fn(s) for slices s that cut range(n) into slabs: _SLABS slabs through
    one ``_drain`` on a ``_threaded`` grid, the whole range on the caller on
    others.  fn must touch only its own slab of every array it writes."""
    if not _threaded(grid):
        fn(slice(0, n))
        return
    pieces = min(_SLABS, n)
    edges = [n * i // pieces for i in range(pieces + 1)]
    _drain([(fn, slice(a, b)) for a, b in zip(edges, edges[1:])], grid)


def slab(arr: np.ndarray, s: slice, grid: GridSpec) -> np.ndarray:
    """The planes s along the first spatial axis of arr (k1 or x), a view with
    leading axes kept; a broadcast axis of length 1 is returned whole."""
    axis = arr.ndim - grid.dim
    return arr if arr.shape[axis] == 1 else arr[(slice(None),) * axis + (s,)]


def _shares(arr: np.ndarray, grid: GridSpec) -> list:
    """Index of each transform task's share of a stack: one field each on a
    ``_threaded`` grid, the whole stack on others."""
    return list(np.ndindex(*arr.shape[:arr.ndim - grid.dim])) if _threaded(grid) else [...]


def _half_shape(arr: np.ndarray, grid: GridSpec) -> tuple[int, ...]:
    """Shape of the k1 >= 0 half of a stack like arr, leading axes kept."""
    return arr.shape[:arr.ndim - grid.dim] + grid.half_shape


_EVERY_COLUMN = (slice(None),)  # the z columns of an unpruned y pass


def _inverse(src, out, grid: GridSpec, planes: slice, zruns, boxed: bool):
    """Inverse of one share into out: src is a k1 >= 0 half or, when boxed,
    a band box placed into a zeroed half first.  The passes past x run on
    the k1 planes ``planes`` (in 3D the y pass on the z columns zruns, then
    the z pass), then x over the whole half: numpy's irfft of the band
    planes alone, padded by its n, takes 1.4-1.8x as long."""
    if boxed:
        tmp = np.zeros(_half_shape(src, grid), dtype=np.result_type(src, 1j))
        _put(src, tmp, grid)
        src = tmp
    elif grid.dim > 1:
        tmp = np.empty(src.shape, dtype=np.result_type(src, 1j))
    else:  # a 1D inverse is the x pass alone
        tmp = src
    if grid.dim == 3:
        sub, part = src[..., planes, :, :], tmp[..., planes, :, :]
        for z in zruns:
            np.fft.ifft(sub[..., z], grid.shape[1], axis=-2, norm="forward", out=part[..., z])
        np.fft.ifft(part, axis=-1, norm="forward", out=part)
    elif grid.dim == 2:
        np.fft.ifft(src[..., planes, :], axis=-1, norm="forward", out=tmp[..., planes, :])
    np.fft.irfft(tmp, grid.shape[0], axis=-grid.dim, norm="forward", out=out)


def _forward(values, hat, box, grid: GridSpec, planes: slice, zruns):
    """Forward of one share into hat, a k1 >= 0 half: x on every line, then
    the passes past x on the k1 planes ``planes`` (in 3D the z pass, then the
    y pass on the z columns zruns).  When hat is None the half is a
    temporary and its band box is copied into box."""
    if hat is None:
        hat = np.empty(_half_shape(values, grid), dtype=np.result_type(values, 1j))
    np.fft.rfft(values, axis=-grid.dim, norm="forward", out=hat)
    if grid.dim == 3:
        part = hat[..., planes, :, :]
        np.fft.fft(part, axis=-1, norm="forward", out=part)
        for z in zruns:
            np.fft.fft(part[..., z], axis=-2, norm="forward", out=part[..., z])
    elif grid.dim == 2:
        np.fft.fft(hat[..., planes, :], axis=-1, norm="forward", out=hat[..., planes, :])
    if box is not None:
        _take(hat, box, grid)


def _irfft(src: np.ndarray, grid: GridSpec, zruns, boxed: bool) -> np.ndarray:
    """Inverse of a stack of halves, or of band boxes, share by share."""
    out = np.empty(src.shape[:src.ndim - grid.dim] + grid.shape,
                   dtype=np.result_type(src.real, 1.0))
    planes = slice(0, src.shape[src.ndim - grid.dim])
    _drain([(_inverse, src[i], out[i], grid, planes, zruns, boxed)
            for i in _shares(src, grid)], grid)
    return out


def irfft_x(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Collocation values of the real field whose k1 >= 0 half is given."""
    return _irfft(half, grid, _EVERY_COLUMN, False)


def rfft_x(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """k1 >= 0 half of the spectrum of real collocation values."""
    hat = np.empty(_half_shape(values, grid), dtype=np.result_type(values, 1j))
    planes = slice(0, grid.shape[0] // 2 + 1)
    _drain([(_forward, values[i], hat[i], None, grid, planes, _EVERY_COLUMN)
            for i in _shares(values, grid)], grid)
    return hat


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


@lru_cache(maxsize=32)
def _box_pieces(grid: GridSpec, shape: tuple[int, ...]) -> tuple:
    """(half index, box index) pairs that copy a band box run by run, for
    spatial shape ``shape``, built once; an axis of length 1 is copied whole."""
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
    return tuple(((..., *(h for h, _ in piece)), (..., *(b for _, b in piece)))
                 for piece in itertools.product(*per_axis))


def band_of(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The band box of a k1 >= 0 half, a copy; leading axes are kept, and an
    axis of length 1 (a broadcast mesh component) stays of length 1."""
    lead, shape = arr.shape[:arr.ndim - grid.dim], arr.shape[arr.ndim - grid.dim:]
    box = np.empty(lead + tuple(1 if n == 1 else b for n, b in zip(shape, band_shape(grid))),
                   dtype=arr.dtype)
    _take(arr, box, grid)
    return box


def _take(half: np.ndarray, box: np.ndarray, grid: GridSpec):
    """Copy the band of a k1 >= 0 half into a band box."""
    for h, b in _box_pieces(grid, half.shape[half.ndim - grid.dim:]):
        box[b] = half[h]


def _put(box: np.ndarray, half: np.ndarray, grid: GridSpec):
    """Copy a band box into the band of a k1 >= 0 half, or of planes of one."""
    for h, b in _box_pieces(grid, half.shape[half.ndim - grid.dim:]):
        half[h] = box[b]


def place(box: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The k1 >= 0 half whose band box is box and whose other modes are 0."""
    half = np.zeros(_half_shape(box, grid), dtype=np.result_type(box, 1j))
    _put(box, half, grid)
    return half


def rfft_bands(stacks, grid: GridSpec) -> list[np.ndarray]:
    """``rfft_band`` of every stack of a sequence, all in one drain."""
    planes = slice(0, grid.dealias_cutoff(0) + 1)
    zruns = _runs(grid, 2) if grid.dim == 3 else _EVERY_COLUMN
    boxes, tasks = [], []
    for values in stacks:
        lead = values.shape[:values.ndim - grid.dim]
        box = np.empty(lead + band_shape(grid), dtype=np.result_type(values, 1j))
        tasks += [(_forward, values[i], None, box[i], grid, planes, zruns)
                  for i in _shares(values, grid)]
        boxes.append(box)
    _drain(tasks, grid)
    return boxes


def irfft_band(box: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Collocation values of the real field whose k1 >= 0 half is
    ``place(box)``: ``irfft_x`` of that half bit for bit, on fewer lines."""
    return _irfft(box, grid, _runs(grid, 2) if grid.dim == 3 else _EVERY_COLUMN, True)


def rfft_band(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Band box of the spectrum of real collocation values: ``rfft_x(values)``
    on the box bit for bit, from fewer lines."""
    return rfft_bands([values], grid)[0]


def fill(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full spectrum from its k1 >= 0 half via coeff(-k) = conj(coeff(k)):
    the half's planes, then the mirror images of planes 1..n1/2-1 at -k1."""
    lead = (slice(None),) * (half.ndim - grid.dim)
    n1 = grid.shape[0]
    out = np.empty(half.shape[:half.ndim - grid.dim] + grid.shape, dtype=half.dtype)
    out[lead + (slice(0, n1 // 2 + 1),)] = half
    conj_reverse(half[lead + (slice(n1 // 2 - 1, 0, -1),)], grid.dim - 1,
                 out=out[lead + (slice(n1 // 2 + 1, n1),)])
    return out


def real_field(half: np.ndarray, grid: GridSpec) -> SpectralField:
    """The real field of a k1 >= 0 half spectrum, which it keeps: the half
    is completed in place (``complete_half``).  Step outputs, tracker parts,
    initial states and random test fields all end here; completion keeps a
    solenoidal velocity solenoidal."""
    complete_half(half, grid)
    return SpectralField.from_half(grid, half)


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


def values_range(F: SpectralField) -> tuple[np.ndarray, float, float]:
    """(values, min, max): the collocation values of a real field, by one
    real inverse transform of its k1 >= 0 half (only the Hermitian parts of
    the k1 = 0 and k1 = n1/2 planes count), and the least and the largest of
    them, over every component.  A NaN or an infinity among the values makes
    an extreme non-finite, on which it raises ContractViolation."""
    values = irfft_x(F.half, F.grid)
    low, high = float(values.min()), float(values.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ContractViolation("RealField values must be finite")
    return values, low, high


def values_of(F: SpectralField) -> np.ndarray:
    """Collocation values of a real field (``values_range``)."""
    return values_range(F)[0]


# ---------------------------------------------------------------------------
# differential operators
#
# The operators act on the grid's integer lattice, the k1 >= 0 half's.
# ``divergence`` takes a half and its wavevectors, the lattice's or a sheared
# (drifting) frame's effective mesh, and ``leray_coeffs`` takes any mesh.

def _mesh_k2(mesh) -> np.ndarray:
    """|k|^2 on the broadcast shape of the wavevector components, summed in
    axis order."""
    k2 = np.zeros(np.broadcast_shapes(*[m.shape for m in mesh]))
    for comp in mesh:
        k2 = k2 + comp ** 2
    return k2


def derivative(F: SpectralField, axis: int) -> SpectralField:
    """Spectral partial derivative along one axis."""
    if not 0 <= axis < F.grid.dim:
        raise ContractViolation(f"axis {axis} out of range for dim {F.grid.dim}")
    return SpectralField.from_half(F.grid, 1j * F.grid.k_mesh()[axis] * F.half)


def laplacian(F: SpectralField) -> SpectralField:
    return SpectralField.from_half(F.grid, -F.grid.k_squared() * F.half)


def divergence(u_h: np.ndarray, mesh) -> np.ndarray:
    """div u on the k1 >= 0 half u_h of a vector field, mesh its wavevectors
    on the half, the lattice's or a sheared frame's."""
    if u_h.shape[0] != len(mesh):
        raise ContractViolation("divergence expects one component per wavevector component")
    return sum(1j * mesh[a] * u_h[a] for a in range(len(mesh)))


def k2_guard(k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The guard of ``over_k2`` for one |k|^2, to build once and reuse:
    where |k|^2 > 0, and |k|^2 with 1 at k = 0."""
    pos = k2 > 0.0
    return pos, np.where(pos, k2, 1.0)


def over_k2(x, k2) -> np.ndarray:
    """x / |k|^2 off k = 0 and 0 at k = 0, behind every inverse Laplacian:
    the mean-free c with -lap c = x.  k2 is |k|^2 or its ``k2_guard``."""
    pos, safe = k2_guard(k2) if isinstance(k2, np.ndarray) else k2
    out = x / safe  # x itself at k = 0, where safe is 1
    np.copyto(out, 0.0, where=~pos)
    return out


def solve_chemo(n: SpectralField) -> SpectralField:
    """Chemoattractant c with lap(c) = -(n - mean n) and mean(c) = 0.

    Coefficient-wise c_hat(k) = n_hat(k)/|k|^2 for k != 0; the k = 0 gauge is
    fixed to zero mean.
    """
    if n.components != 1:
        raise ContractViolation("solve_chemo expects a scalar density")
    with np.errstate(divide="ignore", invalid="ignore"):
        c = over_k2(n.half, n.grid.k_squared())
    return SpectralField.from_half(n.grid, c)


def leray_project(u: SpectralField) -> SpectralField:
    """Orthogonal projection onto divergence-free fields; k = 0 unchanged."""
    if u.components != u.grid.dim:
        raise ContractViolation("leray_project expects a dim-component vector field")
    return SpectralField.from_half(u.grid, leray_coeffs(u.half.copy(), u.grid.k_mesh()))


def leray_coeffs(coeffs: np.ndarray, mesh, target=None) -> np.ndarray:
    """The one velocity projection, on a bare component array (e.g. a k1 >= 0
    half spectrum) with wavevectors mesh, in place (coeffs is returned): the
    orthogonal projection onto k.u = target, coeffs - k (k.coeffs - target)
    / |k|^2 off k = 0, k = 0 unchanged.  With target 0 (not given) it is
    ``leray_project``; a sheared stage's tendency targets k1 u2."""
    excess = sum(mesh[a] * coeffs[a] for a in range(len(mesh)))
    if target is not None:
        excess -= target
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = over_k2(excess, _mesh_k2(mesh))
    for a in range(len(mesh)):
        coeffs[a] -= mesh[a] * excess
    return coeffs


# ---------------------------------------------------------------------------
# norms: one Parseval sum over the k1 >= 0 half

def parseval_sum(half: np.ndarray, grid: GridSpec, m=1.0, moments=None):
    """grid.volume * sum(w m |half|^2) over a k1 >= 0 half, w its
    ``parseval_weights`` and its leading axes summed: the integral of |M f|^2
    for a real field f and any multiplier |M|^2 = m even in k (m broadcasts
    against the half).  Given a stack of such multipliers, ``moments``, one
    sum of w m moment |half|^2 per moment, an array.  The one spectral sum."""
    spatial = half.shape[half.ndim - grid.dim:]
    first, *rest = half.reshape((-1,) + spatial)
    e = np.square(first.real)
    e += np.square(first.imag)
    for comp in rest:
        e += np.square(comp.real)
        e += np.square(comp.imag)
    e *= parseval_weights(grid) * m
    if moments is None:
        return float(grid.volume * np.sum(e))
    return grid.volume * np.einsum("ki,i->k", moments.reshape(len(moments), -1), e.ravel())


def spectral_energy(F: SpectralField) -> float:
    """Integral of |f|^2 over the torus, from the k1 >= 0 half."""
    return parseval_sum(F.half, F.grid)


def l2_norm(F: SpectralField) -> float:
    return float(np.sqrt(spectral_energy(F)))


def sobolev_norm(F: SpectralField, order: int) -> float:
    """H^s norm with Bessel weights (1 + |k|^2)^s, as ``spectral_energy``."""
    m = (1.0 + F.grid.k_squared()) ** order
    return float(np.sqrt(parseval_sum(F.half, F.grid, m)))
