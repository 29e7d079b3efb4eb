"""Binary linear codes with brute-force distance verification.

Codewords are generator @ x over GF(2) and carry a declared grid shape
(rows x cols) so that a codeword can be viewed as a Boolean matrix: one party
can send a random column, the other a random row, and a referee compares the
intersection bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smp import check_message

__all__ = [
    "LinearCode",
    "hadamard_code",
    "cyclic_mask_code",
    "encode",
    "min_distance_bruteforce",
]

_BRUTE_FORCE_N_CAP = 12


def int_to_bits(x: int, width: int) -> np.ndarray:
    """Little-endian bit vector: bit j of the result is (x >> j) & 1."""
    return np.array([(x >> j) & 1 for j in range(width)], dtype=np.uint8)


def _balanced_grid(m: int) -> tuple[int, int]:
    """Most balanced factorization rows*cols = m with rows <= cols."""
    rows = 1
    for d in range(1, int(np.sqrt(m)) + 1):
        if m % d == 0:
            rows = d
    return rows, m // rows


@dataclass(frozen=True)
class LinearCode:
    """Generator-matrix code {0,1}^n -> {0,1}^m with a grid view of codewords."""

    generator: np.ndarray  # m x n over GF(2)
    grid_rows: int
    grid_cols: int

    def __post_init__(self):
        g = np.array(self.generator, dtype=np.uint8) & 1
        if g.ndim != 2:
            raise ValueError("generator must be a matrix")
        if self.grid_rows * self.grid_cols != g.shape[0]:
            raise ValueError(
                f"grid {self.grid_rows}x{self.grid_cols} does not tile {g.shape[0]} codeword bits"
            )
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def m(self) -> int:
        return self.generator.shape[0]


def hadamard_code(n: int) -> LinearCode:
    """All-masks code: codeword bit s is the parity <x, s> over s in {0,1}^n.

    Length 2**n, minimum distance exactly 2**(n-1).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    gen = np.array([int_to_bits(s, n) for s in range(2**n)], dtype=np.uint8)
    rows, cols = _balanced_grid(2**n)
    return LinearCode(gen, rows, cols)


def cyclic_mask_code(k: int, m: int) -> LinearCode:
    """Length-m code whose rows cycle through the nonzero parity masks on k bits.

    For small k this gives relative distance well above 1/2 - 1/2**k; used to
    spread a k-bit value over m Boolean coordinates.
    """
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    masks = [s for s in range(1, 2**k)]
    gen = np.array([int_to_bits(masks[i % len(masks)], k) for i in range(m)], dtype=np.uint8)
    return LinearCode(gen, *_balanced_grid(m))


def encode(code: LinearCode, x: int) -> np.ndarray:
    """Codeword of the n-bit message ``x`` over GF(2)."""
    check_message(int(x) if isinstance(x, (int, np.integer)) else x, code.n)
    return (code.generator @ int_to_bits(int(x), code.n)) % 2


def min_distance_bruteforce(code: LinearCode) -> int:
    """Minimum weight over all nonzero messages; linearity makes this the distance."""
    if code.n > _BRUTE_FORCE_N_CAP:
        raise ValueError(f"brute force capped at n <= {_BRUTE_FORCE_N_CAP}")
    best = code.m
    for x in range(1, 2**code.n):
        best = min(best, int(encode(code, x).sum()))
    return best
