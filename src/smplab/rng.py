"""Splittable counter-based random number generation.

Every sampled quantity in the library is drawn from a Philox generator keyed
by ``(seed, index)``.  Trials and sub-runs are therefore independent of
execution order: evaluating trial 7 alone gives the same draws as evaluating
trials 0..9 in sequence or in parallel.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one trial, keyed by (seed, trial index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Generators for trials 0 .. count-1 of ``seed``, each drawing as ``trial_rng``.

    One Philox is re-keyed in place per trial (key (seed, index), counter 0,
    empty buffer), which is the state a fresh ``trial_rng(seed, index)``
    starts in, without building a generator per trial.  The same Generator
    object is yielded every time, so each one is valid only until the next
    is requested.
    """
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    # a fresh Philox's state: counter 0, buffer_pos 4 (empty), has_uint32 0;
    # setting it copies it in, so only the key ever changes here
    fresh = bits.state
    key = fresh["state"]["key"]
    key[0] = seed & _MASK64
    for index in range(count):
        key[1] = index & _MASK64
        bits.state = fresh
        yield gen


def derive_seed(seed: int, index: int) -> int:
    """Stable 63-bit sub-seed for run ``index`` of a sweep or batch.

    Uses a keyed hash rather than Python's ``hash`` so results do not depend
    on interpreter hash randomization.
    """
    digest = hashlib.blake2b(
        f"{seed}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1
