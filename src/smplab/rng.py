"""Splittable counter-based random number generation.

Every sampled quantity in the library is drawn from a Philox generator keyed
by ``(seed, index)``.  Trials and sub-runs are therefore independent of
execution order: evaluating trial 7 alone gives the same draws as evaluating
trials 0..9 in sequence or in parallel.  :class:`TrialDraws` replays the
draws of a block of trials as arrays, one row per trial, from the same
streams.
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


def _rekeyed(seed: int):
    """One Philox and a function that puts it in the state a fresh
    ``trial_rng(seed, index)`` starts in (key (seed, index), counter 0, empty
    buffer) and returns it."""
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    # a fresh Philox's state: counter 0, buffer_pos 4 (empty), has_uint32 0;
    # setting it copies it in, so only the key ever changes here
    fresh = bits.state
    key = fresh["state"]["key"]
    key[0] = seed & _MASK64

    def at(index: int) -> np.random.Philox:
        key[1] = index & _MASK64
        bits.state = fresh
        return bits

    return bits, at


def trial_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Generators for trials 0 .. count-1 of ``seed``, each drawing as ``trial_rng``.

    One Philox is re-keyed in place per trial, without building a generator
    per trial.  The same Generator object is yielded every time, so each one
    is valid only until the next is requested.
    """
    bits, at = _rekeyed(seed)
    gen = np.random.Generator(bits)
    for index in range(count):
        at(index)
        yield gen


# raw 64-bit words first fetched per trial of a TrialDraws; a row that runs
# out is fetched again at twice the width
_ROW_WORDS = 32
_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
_DOUBLE_SHIFT = np.uint64(11)
# numpy's choice without replacement shuffles the tail of the whole
# population, not Floyd's picks, when it has more than this many members and
# more than 1/_TAIL_FRACTION of them are drawn; ``TrialDraws.choice`` refuses
# those shapes
_FLOYD_POPULATION = 10_000
_TAIL_FRACTION = 50


class TrialDraws:
    """The draws of trials ``start .. start + count - 1`` of ``seed``, as arrays.

    Row t replays the stream of ``trial_rng(seed, start + t)``, rebuilding
    each draw from the raw words of the Philox :func:`trial_rngs` re-keys
    (``random_raw``) as numpy's ``Generator`` builds it: a 32-bit draw is a
    word's low half, and the high half is kept for the next one; ``random()``
    is a word's top 53 bits times 2^-53; ``integers(0, b)`` is Lemire's
    method on 32 bits, drawing nothing when b is 1; ``choice(n, k,
    replace=False)`` is Floyd's method followed by a shuffle of the k picks,
    or, past 10,000 members when more than one in 50 is drawn, a shuffle of
    the population's last k places.

    Each method draws once for each trial in ``rows`` (distinct trial
    positions; every trial when None) and returns the values in that order,
    so a sequence of calls gives each trial what the same calls on its own
    ``Generator`` give.  A row is read only below the words fetched for it;
    one that runs out is fetched again at twice the width, which repeats its
    words, since a stream is a function of its key and position alone.
    """

    def __init__(self, seed: int, start: int, count: int):
        self.start, self.count = start, count
        self.rows = np.arange(count)
        self._at = _rekeyed(seed)[1]
        self._words = np.empty((count, _ROW_WORDS), dtype=np.uint64)
        self._fetched = np.zeros(count, dtype=np.intp)  # words held per row
        self._pos = np.zeros(count, dtype=np.intp)  # each row's next word
        self._has_high = np.zeros(count, dtype=bool)  # a kept high half
        self._high = np.zeros(count, dtype=np.uint64)
        self._fetch(self.rows, _ROW_WORDS)

    def _fetch(self, rows: np.ndarray, width: int) -> None:
        if width > self._words.shape[1]:
            wider = np.empty((self.count, width), dtype=np.uint64)
            wider[:, : self._words.shape[1]] = self._words
            self._words = wider
        for r in rows.tolist():
            self._words[r, :width] = self._at(self.start + r).random_raw(width)
        self._fetched[rows] = width

    def _take(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next raw word."""
        pos = self._pos[rows]
        short = pos >= self._fetched[rows]
        if short.any():
            self._fetch(rows[short], 2 * self._words.shape[1])
        self._pos[rows] = pos + 1
        return self._words[rows, pos]

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next 32-bit draw, as uint64."""
        has = self._has_high[rows]
        out = np.empty(len(rows), dtype=np.uint64)
        held = rows[has]
        out[has] = self._high[held]
        fresh = rows[~has]
        words = self._take(fresh)
        out[~has] = words & _LOW32
        self._high[fresh] = words >> _HALF
        self._has_high[rows] = ~has
        return out

    def _bounded(self, top: int, rows: np.ndarray) -> np.ndarray:
        """Each row's draw in [0, top] (top < 2^32), by Lemire's method on 32 bits."""
        out = np.zeros(len(rows), dtype=np.uint64)
        if top == 0:
            return out
        span = np.uint64(top + 1)
        threshold = np.uint64((1 << 32) % (top + 1))
        at = np.arange(len(rows))
        while len(rows):
            m = self._uint32(rows) * span
            ok = (m & _LOW32) >= threshold
            out[at[ok]] = m[ok] >> _HALF
            rows, at = rows[~ok], at[~ok]
        return out

    def random(self, rows: np.ndarray | None = None) -> np.ndarray:
        """``Generator.random()`` per row."""
        rows = self.rows if rows is None else rows
        return (self._take(rows) >> _DOUBLE_SHIFT).astype(np.float64) * 2.0**-53

    def integers(self, bound: int, rows: np.ndarray | None = None) -> np.ndarray:
        """``Generator.integers(0, bound)`` per row, for 1 <= bound <= 2^32."""
        if not 1 <= bound <= 1 << 32:
            raise ValueError(f"need 1 <= bound <= 2^32, got {bound}")
        rows = self.rows if rows is None else rows
        return self._bounded(bound - 1, rows).astype(np.int64)

    def choice(self, n: int, k: int, rows: np.ndarray | None = None) -> np.ndarray:
        """``Generator.choice(n, size=k, replace=False)`` per row, as [row, k] int64.

        Only the shapes numpy draws by Floyd's method are drawn: more than
        1/``_TAIL_FRACTION`` of a population of more than
        ``_FLOYD_POPULATION`` members raises ValueError.
        """
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n = {n}, got k = {k}")
        if n > _FLOYD_POPULATION and k > n // _TAIL_FRACTION:
            raise ValueError(
                f"k = {k} of n = {n} is a tail shuffle in numpy; need n <= "
                f"{_FLOYD_POPULATION} or k <= n // {_TAIL_FRACTION} = {n // _TAIL_FRACTION}"
            )
        rows = self.rows if rows is None else rows
        picks = np.empty((len(rows), k), dtype=np.int64)
        member = np.zeros((len(rows), n), dtype=bool)
        at = np.arange(len(rows))
        for t, j in enumerate(range(n - k, n)):
            val = self._bounded(j, rows).astype(np.int64)
            pick = np.where(member[at, val], j, val)
            member[at, pick] = True
            picks[:, t] = pick
        for i in range(k - 1, 0, -1):  # shuffle: swap column i with each row's j
            j = self._bounded(i, rows)
            picks[:, i], picks[at, j] = picks[at, j], picks[:, i].copy()
        return picks


def derive_seed(seed: int, index: int) -> int:
    """Stable 63-bit sub-seed for run ``index`` of a sweep or batch.

    Uses a keyed hash rather than Python's ``hash`` so results do not depend
    on interpreter hash randomization.  Raises TypeError for a seed that is
    not an int (a bool, a float or a string included), whose text would
    otherwise hash to some run's sub-seed.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an int, got {type(seed).__name__} {seed!r}")
    digest = hashlib.blake2b(
        f"{seed}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1
