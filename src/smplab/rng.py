"""Splittable counter-based random number generation.

Every sampled quantity in the library is drawn from a Philox generator keyed
by ``(seed, index)``.  Trials and sub-runs are therefore independent of
execution order: evaluating trial 7 alone gives the same draws as evaluating
trials 0..9 in sequence or in parallel.  :class:`TrialDraws` replays the
draws of a block of trials as arrays, one row per trial, from the same
streams; its ``subset`` draws a block's random subsets as one array of
Lemire draws, and a trial where a draw is rejected draws again column by
column.
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


# a block of TrialDraws.blocks holds at most _TRIAL_BLOCK trials and
# _BLOCK_CELLS cells of trials times the caller's width, which bounds the
# caller's arrays' memory at every width
_TRIAL_BLOCK = 512
_BLOCK_CELLS = 1 << 18

# raw 64-bit words first fetched per trial of a TrialDraws; a row that runs
# out is fetched again at twice the width, or at the width one subset needs
_ROW_WORDS = 32
_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
_2_32 = np.uint64(1 << 32)
_DOUBLE_SHIFT = np.uint64(11)
# ``TrialDraws.subset`` decodes and tests its about 2k draws per row in
# chunks of at most _DRAW_CELLS cells of rows times columns (and at least one
# column), so that its arrays stay below the [row, n] mask's size
_DRAW_CELLS = 1 << 15
# numpy's choice without replacement shuffles the tail of the whole
# population, not Floyd's picks, when it has more than this many members and
# more than 1/_TAIL_FRACTION of them are drawn; ``TrialDraws.subset`` refuses
# those shapes
_FLOYD_POPULATION = 10_000
_TAIL_FRACTION = 50


class TrialDraws:
    """The draws of trials ``start .. start + count - 1`` of ``seed``, as arrays.

    Row t replays the stream of ``trial_rng(seed, start + t)``, rebuilding
    each draw from the raw words (``random_raw``) of one Philox re-keyed per
    trial, as numpy's ``Generator`` builds it: a 32-bit draw is a
    word's low half, and the high half is kept for the next one; ``random()``
    is a word's top 53 bits times 2^-53; ``integers(0, b)`` is Lemire's
    method on 32 bits, drawing nothing when b is 1; ``subset(n, k)`` is the
    set of ``choice(n, k, replace=False)``'s picks, drawn as Floyd's method
    and a shuffle of the picks draw them; the shapes numpy draws by
    shuffling the population's tail instead (past 10,000 members, more than
    one in 50 drawn) raise ValueError.

    Each method draws once for each trial in ``rows`` (distinct trial
    positions; every trial when None) and returns the values in that order,
    so a sequence of calls gives each trial what the same calls on its own
    ``Generator`` give.  A row is read only below the words fetched for it;
    one that runs out is fetched again at a wider width, which repeats its
    words, since a stream is a function of its key and position alone.  The
    re-key sets a fresh state held as plain ints, which the ``Philox.state``
    setter reads faster than the numpy arrays that ``Philox.state`` returns.
    """

    def __init__(self, seed: int, start: int, count: int):
        self.start, self.count = start, count
        self.rows = np.arange(count)
        self._bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        # a fresh Philox's state: counter 0, buffer_pos 4 (empty), has_uint32
        # 0; setting it copies it in, so only the key's trial index changes
        self._key = [seed & _MASK64, 0]
        self._fresh = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        # little-endian, so the 32-bit view holds each word's low half first
        self._words = np.empty((count, _ROW_WORDS), dtype="<u8")
        self._fetched = np.zeros(count, dtype=np.intp)  # words held per row
        self._pos = np.zeros(count, dtype=np.intp)  # each row's next word
        self._has_high = np.zeros(count, dtype=bool)  # a kept high half
        self._high = np.zeros(count, dtype=np.uint64)
        self._fetch(self.rows, _ROW_WORDS)

    @classmethod
    def blocks(cls, seed: int, count: int, width: int) -> Iterator[TrialDraws]:
        """The draws of trials 0 .. count-1 of ``seed``, in order, one block at
        a time: at most ``_TRIAL_BLOCK`` trials and ``_BLOCK_CELLS`` cells of
        trials times ``width``, and at least one trial.  A ``width`` below 1 or
        a negative ``count`` raises ValueError."""
        if width < 1 or count < 0:
            raise ValueError(f"need width >= 1 and count >= 0, got width = {width}, count = {count}")
        block = max(1, min(_TRIAL_BLOCK, _BLOCK_CELLS // width))
        for start in range(0, count, block):
            yield cls(seed, start, min(block, count - start))

    def _fetch(self, rows: np.ndarray, width: int) -> None:
        if width > self._words.shape[1]:
            wider = np.empty((self.count, width), dtype="<u8")
            wider[:, : self._words.shape[1]] = self._words
            self._words = wider
        for r in rows.tolist():
            self._key[1] = (self.start + r) & _MASK64
            self._bits.state = self._fresh
            self._words[r, :width] = self._bits.random_raw(width)
        self._fetched[rows] = width

    def _take(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next raw word."""
        pos = self._pos[rows]
        short = pos >= self._fetched[rows]
        if short.any():
            self._fetch(rows[short], 2 * self._words.shape[1])
        self._pos[rows] = pos + 1
        return self._words[rows, pos]

    def _ahead(self, rows: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
        """Fetch the words of each row's next ``count`` >= 1 32-bit draws, moving no row;
        return its kept-half flag, first draw's index in ``view("<u4")`` and next word."""
        pos, has = self._pos[rows], self._has_high[rows]
        end = pos + (count - has + 1) // 2
        short = end > self._fetched[rows]
        if short.any():
            self._fetch(rows[short], max(2 * self._words.shape[1], int(end.max())))
        return has, 2 * pos - has, end

    def _skip(self, rows: np.ndarray, count: int, end: np.ndarray) -> None:
        """Move ``rows`` past the ``count`` draws that ``_ahead`` fetched."""
        self._has_high[rows] = (count - self._has_high[rows]) % 2 == 1
        self._pos[rows] = end
        self._high[rows] = self._words[rows, end - 1] >> _HALF

    def _draws(self, rows: np.ndarray, count: int) -> np.ndarray:
        """Each row's next ``count`` >= 1 32-bit draws, as a [row, count] array."""
        has, start, end = self._ahead(rows, count)
        u = self._words.view("<u4")[rows[:, None], start[:, None] + np.arange(count)]
        u[has, 0] = self._high[rows[has]]
        self._skip(rows, count, end)
        return u

    def _bounded(self, top: int, rows: np.ndarray) -> np.ndarray:
        """Each row's draw in [0, top] (top < 2^32), by Lemire's method on 32 bits."""
        out = np.zeros(len(rows), dtype=np.uint64)
        if top == 0:
            return out
        span = np.uint64(top + 1)
        threshold = _2_32 % span
        at = np.arange(len(rows))
        while len(rows):
            m = self._draws(rows, 1)[:, 0] * span
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

    def bits(self, k: int, rows: np.ndarray | None = None) -> np.ndarray:
        """``Generator.integers(0, 2, size=k)`` per row as a [row, k] array, in one
        read: bound 2 never rejects, so bit i tops the row's i-th next 32-bit draw."""
        rows = self.rows if rows is None else rows
        if not k:
            return np.zeros((len(rows), 0), dtype=np.int64)
        return (self._draws(rows, k) >> 31).astype(np.int64)

    def subset(self, n: int, k: int, rows: np.ndarray | None = None) -> np.ndarray:
        """The picks of ``Generator.choice(n, size=k, replace=False)`` per row,
        as a [row, n] bool membership mask.

        It draws what ``choice`` draws: Floyd's k bounded draws, with tops
        n - k .. n - 1 (a top of 0 draws nothing), then the k - 1 of its
        shuffle of the picks, with tops k - 1 .. 1.  No mask shows the
        shuffle's order, so those draws are only consumed.  Every row's
        32-bit draws are read and tested by Lemire's method at once, in
        chunks of columns; a row whose draw is rejected, so that its
        ``Generator`` draws again, keeps its state from before the call and
        draws column by column instead.

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
        mask = np.zeros((len(rows), n), dtype=bool)
        at = np.arange(len(rows))
        first = max(n - k, 1)  # Floyd's first top that draws
        if k and n == k:
            mask[:, 0] = True  # Floyd's top 0 picks 0
        tops = np.concatenate([np.arange(first, n), np.arange(k - 1, 0, -1)])
        if not (len(tops) and len(rows)):
            return mask
        has, start, end = self._ahead(rows, len(tops))
        halves = self._words.view("<u4")
        rejected = np.zeros(len(rows), dtype=bool)
        step = max(1, _DRAW_CELLS // len(rows))
        for a in range(0, len(tops), step):
            span = (tops[a : a + step] + 1).astype(np.uint64)
            u = halves[rows[:, None], start[:, None] + np.arange(a, a + len(span))]
            if a == 0:
                u[has, 0] = self._high[rows[has]]
            m = u * span
            rejected |= ((m & _LOW32) < _2_32 % span).any(axis=1)
            picks = (m[:, : max(0, n - first - a)] >> _HALF).astype(np.intp)
            for t in range(picks.shape[1]):
                _floyd_step(mask, at, picks[:, t], first + a + t)
        kept = ~rejected
        self._skip(rows[kept], len(tops), end[kept])
        if rejected.any():
            redo, at = rows[rejected], at[rejected]
            mask[at] = False
            for j in range(n - k, n):
                _floyd_step(mask, at, self._bounded(j, redo).astype(np.intp), j)
            for i in range(k - 1, 0, -1):
                self._bounded(i, redo)
        return mask


def _floyd_step(mask: np.ndarray, at: np.ndarray, picks: np.ndarray, top: int) -> None:
    """Floyd's step on rows ``at`` of ``mask``: each row's pick in [0, top]
    joins its subset, or ``top`` does when the pick is already in it."""
    mask[at, np.where(mask[at, picks], top, picks)] = True


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
