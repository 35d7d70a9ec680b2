"""Time-series CSV output and binary checkpoint / resume.

The CSV column order is frozen so downstream tooling never guesses; floats
are written with 17 significant digits so a file round-trip is lossless.
Only checkpoints are read back here; a series is read by its consumers.

Checkpoint layout (little-endian):
    magic 'PKSN' | version u32 = 1 | dim u8 | n_modes u32[3]
    | t f64 | A f64 | drift f64 | t_last_remap f64 | mass f64
    | coefficient blocks: n, then each velocity component, each its full
      spectrum as (re, im) f64 pairs in row-major wavevector order
    | crc32 u32 of everything before it
Checkpoints are self-describing: reading needs no configuration.  The
writer streams the file, one block filled from its k1 >= 0 half at a time
under a running CRC; the reader keeps the halves of the blocks alone.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .shear import REMAP_THRESHOLD, ShearFrame
from .solver import SERIES_COLUMNS, State
from .spectral import GridSpec, SpectralField, fill, halve, total_mass

MAGIC = b"PKSN"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIB3I5d")


class CheckpointError(IOError):
    """Corrupt or inconsistent checkpoint data."""


def format_row(row: dict) -> str:
    parts = []
    for key in SERIES_COLUMNS:
        value = row[key]
        parts.append(value if isinstance(value, str) else f"{value:.17g}")
    return ",".join(parts)


def write_series(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(SERIES_COLUMNS)]
    lines.extend(format_row(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _payload(state: State, A: float):
    """The checkpoint before its CRC, piece by piece: the header, then each
    block, filled from its half."""
    grid = state.n.grid
    n_modes = list(grid.shape) + [0] * (3 - grid.dim)
    yield _HEADER.pack(
        MAGIC, FORMAT_VERSION, grid.dim, *n_modes,
        state.t, A, state.frame.drift, state.frame.t_last_remap, total_mass(state.n),
    )
    yield fill(state.n.half, grid)
    if state.u is not None:
        for half in state.u.half:
            yield fill(half, grid)


def write_checkpoint(path, state: State, A: float):
    """Stream the checkpoint to path, one block in memory at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    crc = 0
    with path.open("wb") as f:
        for piece in _payload(state, A):
            f.write(piece)
            crc = zlib.crc32(piece, crc)
        f.write(struct.pack("<I", crc))


def state_from_bytes(data: bytes) -> tuple[State, float]:
    """Decode a checkpoint.  The CRC, the header and the blocks are read
    through one memoryview of data; the k1 >= 0 halves of n and of the
    velocity stack are each copied once, so the decoded arrays are writable
    and share no memory with data."""
    view = memoryview(data)
    if len(view) < _HEADER.size + 4:
        raise CheckpointError("checkpoint truncated")
    payload = view[:-4]
    (expected,) = struct.unpack("<I", view[-4:])
    if zlib.crc32(payload) != expected:
        raise CheckpointError("checkpoint CRC mismatch")
    magic, version, dim, n1, n2, n3, t, A, drift, t_last, mass = _HEADER.unpack_from(payload)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if dim not in (2, 3):
        raise CheckpointError(f"unsupported grid dimension {dim}")
    if not all(math.isfinite(v) for v in (t, A, drift, t_last)):
        raise CheckpointError("non-finite t, A, drift or t_last_remap in header")
    if abs(drift) > REMAP_THRESHOLD:
        raise CheckpointError(f"drift {drift} beyond remap threshold")
    shape = (n1, n2, n3)[:dim]
    try:
        grid = GridSpec(shape)
    except ValueError as err:
        raise CheckpointError(f"bad grid in header: {err}") from err
    block = 16 * grid.size
    body = len(payload) - _HEADER.size
    if body % block != 0:
        raise CheckpointError("payload length inconsistent with header dims")
    n_blocks = body // block
    if n_blocks not in ((1,) if dim == 2 else (1, 4)):  # 2D runs carry no velocity
        raise CheckpointError(f"unexpected number of field blocks: {n_blocks}")
    coeffs = np.frombuffer(payload, dtype=np.complex128, offset=_HEADER.size)
    n = SpectralField.from_half(grid, halve(coeffs[:grid.size].reshape(shape), grid).copy())
    if not np.isclose(total_mass(n), mass, rtol=1e-12, atol=1e-12):
        raise CheckpointError("stored mass disagrees with coefficients")
    u = None
    if n_blocks > 1:
        u = SpectralField.from_half(
            grid, halve(coeffs[grid.size:].reshape((n_blocks - 1, *shape)), grid).copy())
    frame = ShearFrame(t_last_remap=t_last, drift=drift)
    return State(t=t, n=n, u=u, frame=frame), A


def read_checkpoint(path) -> tuple[State, float]:
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    return state_from_bytes(data)
