"""Time-series CSV output and binary checkpoint / resume.

The CSV column order is frozen so downstream tooling never guesses; floats
are written with 17 significant digits so a file round-trip is lossless.
Only checkpoints are read back here; a series is read by its consumers.

Checkpoint layout (little-endian):
    magic 'PKSN' | version u32 = 1 | dim u8 | n_modes u32[3]
    | t f64 | A f64 | drift f64 | t_last_remap f64 | mass f64
    | coefficient blocks: n, then each velocity component, each as
      (re, im) f64 pairs in row-major wavevector order
    | crc32 u32 of everything before it
Checkpoints are self-describing: reading needs no configuration.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .shear import ShearFrame
from .solver import SERIES_COLUMNS, State
from .spectral import GridSpec, SpectralField, total_mass

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


def checkpoint_bytes(state: State, A: float) -> bytes:
    grid = state.n.grid
    n_modes = list(grid.shape) + [0] * (3 - grid.dim)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, grid.dim, *n_modes,
        state.t, A, state.frame.drift, state.frame.t_last_remap, total_mass(state.n),
    )
    blocks = [np.ascontiguousarray(state.n.coeffs, dtype=np.complex128).tobytes()]
    if state.u is not None:
        for i in range(state.u.components):
            blocks.append(np.ascontiguousarray(state.u.coeffs[i],
                                               dtype=np.complex128).tobytes())
    payload = header + b"".join(blocks)
    return payload + struct.pack("<I", zlib.crc32(payload))


def write_checkpoint(path, state: State, A: float):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(checkpoint_bytes(state, A))


def state_from_bytes(data: bytes) -> tuple[State, float]:
    if len(data) < _HEADER.size + 4:
        raise CheckpointError("checkpoint truncated")
    payload, crc_raw = data[:-4], data[-4:]
    (expected,) = struct.unpack("<I", crc_raw)
    if zlib.crc32(payload) != expected:
        raise CheckpointError("checkpoint CRC mismatch")
    magic, version, dim, n1, n2, n3, t, A, drift, t_last, mass = _HEADER.unpack(
        payload[: _HEADER.size])
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if dim not in (2, 3):
        raise CheckpointError(f"unsupported grid dimension {dim}")
    shape = (n1, n2, n3)[:dim]
    try:
        grid = GridSpec(shape)
    except ValueError as err:
        raise CheckpointError(f"bad grid in header: {err}") from err
    block = 16 * grid.size
    body = payload[_HEADER.size:]
    if len(body) % block != 0:
        raise CheckpointError("payload length inconsistent with header dims")
    n_blocks = len(body) // block
    if n_blocks not in (1, 1 + dim):
        raise CheckpointError(f"unexpected number of field blocks: {n_blocks}")
    arrays = [np.frombuffer(body[i * block:(i + 1) * block], dtype=np.complex128)
              .reshape(shape).copy() for i in range(n_blocks)]
    n = SpectralField(grid, arrays[0])
    if not np.isclose(total_mass(n), mass, rtol=1e-12, atol=1e-12):
        raise CheckpointError("stored mass disagrees with coefficients")
    u = None
    if n_blocks > 1:
        u = SpectralField(grid, np.stack(arrays[1:]))
    frame = ShearFrame(t_last_remap=t_last, drift=drift)
    return State(t=t, n=n, u=u, frame=frame), A


def read_checkpoint(path) -> tuple[State, float]:
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    return state_from_bytes(data)
