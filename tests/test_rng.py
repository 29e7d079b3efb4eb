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
    n, k = arg
    return g.choice(n, size=k, replace=False).tolist()


def _replica_draw(draws: TrialDraws, op: tuple, rows: np.ndarray) -> list:
    kind, arg = op
    if kind == "random":
        return draws.random(rows).tolist()
    if kind == "integers":
        return draws.integers(arg, rows).tolist()
    return draws.choice(*arg, rows).tolist()


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
    st.tuples(st.just("choice"),
              st.integers(0, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))),
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
         ops=[(("integers", 1), 0), (("choice", (16, 16)), 0), (("integers", 1), 2),
              (("choice", (9, 0)), 0), (("choice", (9, 1)), 3), (("random", None), 0)])
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
def test_choice_takes_numpys_branch(n, k):
    # the replica draws numpy's Floyd branch and refuses its tail shuffle, so
    # no caller gets picks that differ from the Generator's
    if n > 10_000 and k > n // 50:
        with pytest.raises(ValueError, match=f"k = {k} of n = {n} is a tail shuffle"):
            TrialDraws(2**70, 3, 2).choice(n, k)
        return
    ops = [(("random", None), 0), (("choice", (n, k)), 0), (("integers", _WIDE), 1),
           (("random", None), 0)]
    _assert_replays(2**70, 3, 2, 4, ops)


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


def test_bound_one_and_empty_rows_draw_nothing():
    draws = TrialDraws(5, 0, 2)
    assert draws.integers(1).tolist() == [0, 0]
    assert draws.random(np.array([], dtype=np.intp)).tolist() == []
    assert draws._pos.tolist() == [0, 0]
    assert draws.random().tolist() == [trial_rng(5, t).random() for t in range(2)]


@pytest.mark.parametrize("call, message", [
    (lambda d: d.integers(0), r"need 1 <= bound <= 2\^32, got 0"),
    (lambda d: d.integers((1 << 32) + 1), r"need 1 <= bound <= 2\^32, got 4294967297"),
    (lambda d: d.choice(3, 4), "need 0 <= k <= n = 3, got k = 4"),
    (lambda d: d.choice(3, -1), "need 0 <= k <= n = 3, got k = -1"),
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
