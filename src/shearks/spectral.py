"""Fourier representation and calculus on the periodic torus [0, 2*pi)^d.

Fields are stored as full complex spectra with the normalization
f = sum_k fhat(k) e^{i k.x}, i.e. the forward transform divides by the
number of grid points so that fhat(k) = |T|^-d * integral f e^{-i k.x}.
Products are formed in physical space with 2/3-rule dealiasing (cutoff
floor(n/3) per axis) through one real transform pair halved along x
(``rfft_x``, ``irfft_x``).  Every real field is made from the k1 >= 0 half
of its spectrum, which holds the whole k1 = 0 plane: ``complete_half``
makes the half that of a real field and ``fill`` writes the k1 < 0 half.
Collocation values are read from the half too (``values_of``).  The integer
lattice of a grid is built once and shared read-only (``GridSpec.k_mesh``).
On 3D grids the real transforms run on two threads, bit-identical to
numpy's serial ones.
"""

from __future__ import annotations

import contextvars
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


# On 3D grids rfft_x and irfft_x split each transform in two, one half per
# thread; numpy's FFTs release the GIL.  A stack with an even number of fields
# is split into two half stacks, each transformed whole.  A bare field, or an
# odd stack, is split in two slabs per pass: the y and z passes over halves of
# the k1 planes, the x pass over halves of y.  At 48^3 half stacks beat slabs
# on 6-field stacks, and slabs beat a 2:1 field split on 3-field ones.  Every
# piece makes the 1-D calls of numpy's rfftn/irfftn in their axis order and
# writes with out= into arrays that the calling thread allocated, so each line
# is transformed exactly as the serial transform does it.  2D grids stay
# serial: at 128^2 two threads are slower.

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


def _inverse_yz(src: np.ndarray, tmp: np.ndarray):
    np.fft.ifft(src, tmp.shape[-2], axis=-2, norm="forward", out=tmp)
    np.fft.ifft(tmp, axis=-1, norm="forward", out=tmp)


def _inverse_x(tmp: np.ndarray, out: np.ndarray):
    np.fft.irfft(tmp, out.shape[-3], axis=-3, norm="forward", out=out)


def _inverse(src: np.ndarray, tmp: np.ndarray, out: np.ndarray):
    _inverse_yz(src, tmp)
    _inverse_x(tmp, out)


def _forward_x(src: np.ndarray, hat: np.ndarray):
    np.fft.rfft(src, axis=-3, norm="forward", out=hat)


def _forward_zy(hat: np.ndarray):
    np.fft.fft(hat, axis=-1, norm="forward", out=hat)
    np.fft.fft(hat, axis=-2, norm="forward", out=hat)


def _forward(src: np.ndarray, hat: np.ndarray):
    _forward_x(src, hat)
    _forward_zy(hat)


def _even_stack(lead: tuple[int, ...]) -> bool:
    return len(lead) > 0 and lead[0] % 2 == 0


def irfft_x(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Collocation values of the real field whose k1 >= 0 half is given."""
    if grid.dim < 3:
        shape = grid.shape[1:] + grid.shape[:1]
        return np.fft.irfftn(half, s=shape, axes=_x_last(grid, half.ndim), norm="forward")
    lead = half.shape[:-3]
    tmp = np.empty(lead + half.shape[-3:-2] + grid.shape[1:], dtype=np.result_type(half, 1j))
    out = np.empty(lead + grid.shape, dtype=np.result_type(half.real, 1.0))
    if _even_stack(lead):
        _run([(_inverse, half[k], tmp[k], out[k]) for k in _halves(lead[0])])
        return out
    _run([(_inverse_yz, half[..., k, :, :], tmp[..., k, :, :]) for k in _halves(half.shape[-3])])
    _run([(_inverse_x, tmp[..., k, :], out[..., k, :]) for k in _halves(grid.shape[1])])
    return out


def rfft_x(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """k1 >= 0 half of the spectrum of real collocation values."""
    if grid.dim < 3:
        return np.fft.rfftn(values, axes=_x_last(grid, values.ndim), norm="forward")
    n1, n2, n3 = values.shape[-3:]
    lead = values.shape[:-3]
    hat = np.empty(lead + (n1 // 2 + 1, n2, n3), dtype=np.result_type(values, 1j))
    if _even_stack(lead):
        _run([(_forward, values[k], hat[k]) for k in _halves(lead[0])])
        return hat
    _run([(_forward_x, values[..., k, :], hat[..., k, :]) for k in _halves(n2)])
    _run([(_forward_zy, hat[..., k, :, :]) for k in _halves(n1 // 2 + 1)])
    return hat


def fill(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full spectrum from its k1 >= 0 half via coeff(-k) = conj(coeff(k))."""
    lead = half.ndim - grid.dim
    mirror = half[(slice(None),) * lead + (slice(grid.shape[0] // 2 - 1, 0, -1),)]
    return np.concatenate([half, conj_reverse(mirror, grid.dim - 1)], axis=lead)


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


def over_k2(x, k2: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """x / (sign |k|^2) off k = 0 and 0 at k = 0, behind every inverse
    Laplacian: sign = -1 gives lap^-1 x, sign = 1 the mean-free c, -lap c = x."""
    return np.where(k2 > 0.0, x / np.where(k2 > 0.0, sign * k2, 1.0), 0.0)


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
    return SpectralField(u.grid, leray_coeffs(u.coeffs, _mesh(u, k_mesh)))


def leray_coeffs(coeffs: np.ndarray, mesh) -> np.ndarray:
    """leray_project on a bare component array, e.g. a k1 >= 0 half spectrum."""
    k2 = _mesh_k2(mesh)
    kdotu = sum(mesh[a] * coeffs[a] for a in range(len(mesh)))
    with np.errstate(divide="ignore", invalid="ignore"):
        kdotu = over_k2(kdotu, k2)
    out = coeffs.copy()
    for a in range(len(mesh)):
        out[a] -= mesh[a] * kdotu
    return out


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
