"""``TrialDraws`` against numpy's ``Generator`` on the same trial streams, and
the typed checks of seeds."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smplab import rng
from smplab.rng import TrialDraws, derive_seed, trial_rng

_WIDE = (1 << 31) + 1  # Lemire rejects about half of the 32-bit draws at this bound


def _generator_draw(g: np.random.Generator, op: tuple):
    kind, arg = op
    if kind == "random":
        return g.random()
    if kind == "integers":
        return int(g.integers(0, arg))
    if kind == "bits":
        return g.integers(0, 2, size=arg).tolist()
    n, k = arg
    return sorted(g.choice(n, size=k, replace=False).tolist())


def _replica_draw(draws: TrialDraws, op: tuple, rows: np.ndarray) -> list:
    kind, arg = op
    if kind == "random":
        return draws.random(rows).tolist()
    if kind == "integers":
        return draws.integers(arg, rows).tolist()
    if kind == "bits":
        return draws.bits(arg, rows).tolist()
    return [np.flatnonzero(member).tolist() for member in draws.subset(*arg, rows)]


def _assert_replays(seed: int, start: int, count: int, width: int, ops: list) -> None:
    """Each op draws for the trials its selector keeps; each trial's values
    equal what its own ``trial_rng`` gives for the same calls, with ``width``
    words first fetched per trial."""
    with mock.patch.object(rng, "_ROW_WORDS", width):
        draws = TrialDraws(seed, start, count)
    gens = [trial_rng(seed, start + t) for t in range(count)]
    for op, skip in ops:
        rows = np.array([t for t in range(count) if skip == 0 or t % 3 != skip - 1], dtype=np.intp)
        got = _replica_draw(draws, op, rows)
        assert got == [_generator_draw(gens[t], op) for t in rows.tolist()], op


_op = st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("integers"),
              st.one_of(st.sampled_from([1, 2, 3, _WIDE, 1 << 32]), st.integers(1, 1 << 32))),
    st.tuples(st.just("subset"),
              st.integers(0, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))),
    st.tuples(st.just("bits"), st.integers(0, 90)),
)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(-(1 << 70), 1 << 70),
    start=st.integers(0, (1 << 64) + 3),
    count=st.integers(1, 5),
    width=st.integers(1, 40),
    ops=st.lists(st.tuples(_op, st.integers(0, 3)), max_size=10),
)
@example(seed=7, start=0, count=4, width=1,
         ops=[(("integers", _WIDE), 0)] * 6 + [(("random", None), 1), (("integers", 2), 0)])
@example(seed=-4, start=5, count=3, width=2,
         ops=[(("integers", 1), 0), (("subset", (16, 16)), 0), (("integers", 1), 2),
              (("subset", (9, 0)), 0), (("subset", (9, 1)), 3), (("random", None), 0)])
# a subset after an odd number of 32-bit draws, so some rows hold a high half
@example(seed=3, start=(1 << 64) - 2, count=4, width=1,
         ops=[(("integers", 3), 1), (("subset", (40, 7)), 0), (("integers", 5), 0),
              (("subset", (12, 12)), 2), (("random", None), 0)])
# k = n: Floyd's first top is 0 and draws nothing; n = k = 1 draws nothing at all
@example(seed=-9, start=1, count=3, width=3,
         ops=[(("integers", 2), 0), (("subset", (5, 5)), 0), (("subset", (1, 1)), 1),
              (("integers", _WIDE), 0), (("subset", (2, 2)), 3), (("random", None), 0)])
# bits after an odd number of 32-bit draws on some rows and a random() on
# all, so those rows' kept high half is not their last word's; 24 and then
# 90 bits run every row out of its one fetched word
@example(seed=2026, start=9, count=4, width=1,
         ops=[(("integers", 3), 1), (("random", None), 0), (("bits", 24), 0),
              (("bits", 0), 2), (("bits", 1), 3), (("bits", 90), 0), (("integers", _WIDE), 0)])
def test_draws_replay_each_trials_generator(seed, start, count, width, ops):
    _assert_replays(seed, start, count, width, ops)


@pytest.mark.parametrize("n, k", [
    (20_000, 400),  # Floyd's method: k <= n // 50
    (20_000, 401),  # tail shuffle of the population: refused
    (10_000, 400),  # Floyd's method at any k up to 10,000 members
    (10_001, 400),  # tail shuffle: refused
    (10_001, 10_001),  # tail shuffle, k = n: refused
    (10_001, 1),
    (10_001, 0),
    (64, 64),  # Floyd's method, k = n
])
def test_subset_takes_numpys_branch(n, k):
    # the replica draws numpy's Floyd branch and refuses its tail shuffle, so
    # no caller gets a subset that differs from the Generator's
    if n > 10_000 and k > n // 50:
        with pytest.raises(ValueError, match=f"k = {k} of n = {n} is a tail shuffle"):
            TrialDraws(2**70, 3, 2).subset(n, k)
        return
    ops = [(("random", None), 0), (("subset", (n, k)), 0), (("integers", _WIDE), 1),
           (("random", None), 0)]
    _assert_replays(2**70, 3, 2, 4, ops)


@pytest.mark.parametrize("cells", [1, 8, 64])
def test_subset_reads_its_draws_in_chunks_of_columns(cells):
    # 4 rows: chunks of 1, 2 and 16 of the 40 + 39 draw columns, the last
    # size putting Floyd's last draws and the shuffle's first in one chunk
    with mock.patch.object(rng, "_DRAW_CELLS", cells):
        _assert_replays(5, 0, 4, 3, [(("integers", 3), 1), (("subset", (64, 40)), 0),
                                     (("random", None), 0)])


def test_a_rejected_subset_draw_redraws_its_row_column_by_column():
    # trial 2018 of seed 3 is one where Lemire's method rejects a 32-bit
    # draw of subset(10_000, 400): read off the trial's own raw stream
    n, k = 10_000, 400
    words = trial_rng(3, 2018).bit_generator.random_raw(2 * k)
    halves = iter(np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel().tolist())
    rejected = 0
    for top in [*range(n - k, n), *range(k - 1, 0, -1)]:
        while (next(halves) * (top + 1)) % (1 << 32) < (1 << 32) % (top + 1):
            rejected += 1
    assert rejected
    draws = TrialDraws(3, 2018, 1)
    with mock.patch.object(TrialDraws, "_bounded", autospec=True,
                           side_effect=TrialDraws._bounded) as column:
        mask = draws.subset(n, k)
    assert column.call_count == 2 * k - 1  # the row's redraw: a call per top
    g = trial_rng(3, 2018)
    assert np.flatnonzero(mask[0]).tolist() == sorted(g.choice(n, k, replace=False).tolist())
    assert draws.random().tolist() == [g.random()]


@pytest.mark.parametrize("count, width", [(5, 0), (5, -3), (-2, 4)])
def test_blocks_refuse_a_width_below_one_or_a_negative_count(count, width):
    with pytest.raises(ValueError, match="need width >= 1 and count >= 0"):
        list(TrialDraws.blocks(1, count, width))


@pytest.mark.parametrize("width", [1, 3, 32])
def test_rows_that_run_out_are_fetched_again(width):
    # 600 bounded draws at 2^31 + 1 consume about 2 * 600 32-bit halves
    with mock.patch.object(rng, "_ROW_WORDS", width):
        draws = TrialDraws(11, 0, 3)
    got = [draws.integers(_WIDE).tolist() for _ in range(600)]
    gens = [trial_rng(11, t) for t in range(3)]
    assert got == [[int(g.integers(0, _WIDE)) for g in gens] for _ in range(600)]
    assert draws._fetched.max() <= draws._words.shape[1]
    assert (draws._pos <= draws._fetched).all()


def test_bits_read_a_kept_high_half_and_refetch_rows_that_run_out():
    # rows 0 and 2 keep the high half of their first word, then random()
    # reads each row's next word: a kept half is not its row's last word's
    with mock.patch.object(rng, "_ROW_WORDS", 2):
        draws = TrialDraws(8, 0, 3)
    gens = [trial_rng(8, t) for t in range(3)]
    assert draws.integers(3, np.array([0, 2])).tolist() == [
        int(gens[t].integers(0, 3)) for t in (0, 2)]
    assert draws.random().tolist() == [g.random() for g in gens]
    assert draws._has_high.tolist() == [True, False, True]
    got = draws.bits(24)
    assert got.tolist() == [g.integers(0, 2, size=24).tolist() for g in gens]
    assert got.dtype == np.int64
    # the 23 halves from word 2 on keep word 13's high half; the 24 from word
    # 1 on end at word 12; both end past the 2 words fetched
    assert draws._pos.tolist() == [14, 13, 14] and draws._fetched.min() >= 14
    assert draws._has_high.tolist() == [True, False, True]
    assert draws.random().tolist() == [g.random() for g in gens]


def test_bound_one_and_empty_rows_draw_nothing():
    draws = TrialDraws(5, 0, 2)
    assert draws.integers(1).tolist() == [0, 0]
    assert draws.random(np.array([], dtype=np.intp)).tolist() == []
    assert draws._pos.tolist() == [0, 0]
    assert draws.random().tolist() == [trial_rng(5, t).random() for t in range(2)]


@pytest.mark.parametrize("call, message", [
    (lambda d: d.integers(0), r"need 1 <= bound <= 2\^32, got 0"),
    (lambda d: d.integers((1 << 32) + 1), r"need 1 <= bound <= 2\^32, got 4294967297"),
    (lambda d: d.subset(3, 4), "need 0 <= k <= n = 3, got k = 4"),
    (lambda d: d.subset(3, -1), "need 0 <= k <= n = 3, got k = -1"),
])
def test_draws_outside_the_replica_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(TrialDraws(1, 0, 2))


@pytest.mark.parametrize("seed", ["3", None, 1.5, True, np.float64(3.0)])
def test_derive_seed_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(TypeError, match="seed must be an int, got"):
        derive_seed(seed, 0)


def test_derive_seed_takes_numpy_integers_as_ints():
    assert derive_seed(np.int64(3), 1) == derive_seed(3, 1)
    assert 0 <= derive_seed(-(1 << 70), 2) < 1 << 63
