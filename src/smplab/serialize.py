"""File formats for matrices.

Matrices travel in a small versioned binary container (magic, version, dim,
then row-major (re, im) float64 pairs) or are read from a human-readable text
form: a ``qmat v1 dim=<d>`` header, then one line per row of ``re,im`` pairs.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

__all__ = [
    "matrix_to_bytes",
    "matrix_from_bytes",
    "save_matrix",
    "load_matrix",
    "matrix_from_text",
]

_MAGIC = b"QMAT"
_VERSION = 1


def matrix_to_bytes(a: np.ndarray) -> bytes:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    dim = a.shape[0]
    header = _MAGIC + struct.pack("<II", _VERSION, dim)
    flat = np.empty(2 * dim * dim, dtype=np.float64)
    flat[0::2] = a.real.ravel()
    flat[1::2] = a.imag.ravel()
    return header + flat.tobytes()


def matrix_from_bytes(data: bytes) -> np.ndarray:
    if data[:4] != _MAGIC:
        raise ValueError("not a matrix container (bad magic)")
    if len(data) < 12:
        raise ValueError(f"truncated matrix container header ({len(data)} of 12 bytes)")
    version, dim = struct.unpack("<II", data[4:12])
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    flat = np.frombuffer(data[12:], dtype=np.float64)
    if flat.size != 2 * dim * dim:
        raise ValueError("truncated matrix container")
    return (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim)


def save_matrix(path: str | Path, a: np.ndarray) -> None:
    Path(path).write_bytes(matrix_to_bytes(a))


def load_matrix(path: str | Path) -> np.ndarray:
    return matrix_from_bytes(Path(path).read_bytes())


def matrix_from_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty text matrix")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "qmat" or not head[2].startswith("dim="):
        raise ValueError("bad text matrix header")
    dim = int(head[2][4:])
    if len(lines) != dim + 1:
        raise ValueError(f"expected {dim} rows, found {len(lines) - 1}")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, ln in enumerate(lines[1:]):
        cells = ln.split()
        if len(cells) != dim:
            raise ValueError(f"row {i} has {len(cells)} entries, expected {dim}")
        for j, cell in enumerate(cells):
            re, im = cell.split(",")
            out[i, j] = complex(float(re), float(im))
    return out
