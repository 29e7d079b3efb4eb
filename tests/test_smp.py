import copy
import itertools
import re
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from smplab.codes import cyclic_mask_code
from smplab.config import DEFAULT, with_overrides
from smplab import protocols, rng, smp
from smplab.errors import EnumerationCapError
from smplab.protocols import (
    equality_code,
    equality_function,
    equality_public,
    matching_classical,
    matching_qc,
    matching_value,
    random_promise_instance,
    toy_quantum_equality,
)
from smplab.qcore import MeasurementOperator, PureState
from smplab.rng import TrialDraws, derive_seed, trial_rng
from smplab.smp import (
    ArrayStrategy,
    CoinSpace,
    Cost,
    FunctionTable,
    OperatorReferee,
    Referee,
    RelationTable,
    SmpProtocol,
    SuccessReport,
    TableReferee,
    _sample_output_once,
    acceptance_table,
    coin_terms,
    empirical_success,
    exact_acceptance,
    protocol_cost,
    subset_coin,
    validate_distribution,
    wilson_interval,
    worst_case_error,
)
from smplab.transforms import compile_qc_to_cc, derandomize_alice


def uniform_int_coin(size: int) -> CoinSpace:
    """Uniform coin over range(size)."""
    return CoinSpace(
        sampler=lambda rng: int(rng.integers(0, size)),
        size=size,
        outcomes=lambda: ((v, 1.0 / size) for v in range(size)),
    )


def constant_accept_protocol() -> SmpProtocol:
    return SmpProtocol(
        name="always-1",
        alice_strategy=lambda x, c: {0: 1.0},
        bob_strategy=lambda y, c: {0: 1.0},
        referee=TableReferee(fn=lambda a, b: 1.0),
        alice_cost=Cost(bits=1),
        bob_cost=Cost(bits=1),
        alice_inputs=(0, 1),
        bob_inputs=(0, 1),
    )


class TestExactAcceptance:
    def test_constant_accept(self):
        p = constant_accept_protocol()
        for x in (0, 1):
            for y in (0, 1):
                assert exact_acceptance(p, x, y) == 1.0

    def test_equality_public_agreeing(self):
        p = equality_public(2, 1)
        assert exact_acceptance(p, 3, 3) == 1.0

    def test_equality_public_disagreeing_matches_hand_enumeration(self):
        # oracle: enumerate the 4 masks r on 2 bits by hand for x=1, y=2:
        # parities <x,r> vs <y,r> agree only for r=0 and r=3.
        agreements = 0
        for r in range(4):
            ax = bin(1 & r).count("1") & 1
            by = bin(2 & r).count("1") & 1
            agreements += ax == by
        assert agreements / 4 == 0.5
        p = equality_public(2, 1)
        assert exact_acceptance(p, 1, 2) == 0.5

    def test_enumeration_cap_reported(self):
        p = equality_code(4, reps=6)
        with pytest.raises(EnumerationCapError):
            exact_acceptance(p, 1, 2)

    def test_always_within_unit_interval(self):
        p = equality_public(3, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.integers(0, 8, size=2)
            assert 0.0 <= exact_acceptance(p, int(x), int(y)) <= 1.0


def reference_exact_acceptance(p: SmpProtocol, x, y, tol=DEFAULT) -> float:
    """The one-pair enumeration loop ``acceptance_table`` replaced, kept as an oracle."""
    if p.coin is not None:
        if p.coin.size > tol.enum_cap:
            raise EnumerationCapError("coin space exceeds term budget")
        coin_terms = p.coin.outcomes()
    else:
        coin_terms = [(None, 1.0)]

    total = 0.0
    terms = 0
    for coin, cp in coin_terms:
        a_payload = p.alice_strategy(x, coin)
        b_dist = p.bob_strategy(y, coin)
        validate_distribution(b_dist, p.bob_cost.bits, tol)
        if not p.quantum:
            validate_distribution(a_payload, p.alice_cost.bits, tol)
            terms += len(a_payload) * len(b_dist)
            if terms > tol.enum_cap:
                raise EnumerationCapError("term count exceeds budget")
            for a, pa in a_payload.items():
                for b, pb in b_dist.items():
                    total += cp * pa * pb * p.referee.accept_probability(a, b, coin)
        else:
            terms += len(b_dist)
            if terms > tol.enum_cap:
                raise EnumerationCapError("term count exceeds budget")
            for b, pb in b_dist.items():
                total += cp * pb * p.referee.accept_probability(a_payload, b, coin)
    return min(1.0, max(0.0, total))


class _CoinReferee(Referee):
    def __init__(self, fn):
        self.fn = fn

    def accept_probability(self, a, b, coin=None):
        return self.fn(a, b, coin)


def ragged_protocol() -> SmpProtocol:
    """Supports of different sizes per input and coin, non-dyadic weights."""
    alice = {
        0: {0: 1.0},
        1: {1: 0.3, 0: 0.7},
        2: {0: 0.2, 1: 0.3, 2: 0.1, 3: 0.4},
    }
    bob = {0: {1: 1.0}, 1: {0: 0.7, 1: 0.1, 3: 0.2}}

    def alice_strategy(x, coin):
        return {1: 1.0} if (x, coin) == (1, 2) else alice[x]

    def bob_strategy(y, coin):
        return {0: 0.6, 1: 0.4} if (y, coin) == (0, 1) else bob[y]

    return SmpProtocol(
        name="ragged",
        alice_strategy=alice_strategy,
        bob_strategy=bob_strategy,
        referee=_CoinReferee(lambda a, b, coin: ((a + 2 * b + coin) % 5) / 4),
        alice_cost=Cost(bits=2),
        bob_cost=Cost(bits=2),
        coin=uniform_int_coin(3),
        alice_inputs=(0, 1, 2),
        bob_inputs=(0, 1),
    )


def _one_coin_matching():
    p = matching_qc(4, subset_size=4, copies=2, edges_sent=2)
    subset = (0, 1, 2, 3)
    fixed = replace(p, coin=CoinSpace(
        sampler=lambda rng: subset, size=1, outcomes=lambda: [(subset, 1.0)]
    ))
    xs = ((1, 0, 0, 1), (0, 0, 0, 0), (1, 1, 0, 1))
    ys = ((((0, 1), (2, 3)), (1, 1)), (((0, 2), (1, 3)), (0, 1)), (((0, 3), (1, 2)), (1, 0)))
    return replace(fixed, alice_inputs=xs, bob_inputs=ys)


_BIT_IDENTITY_CASES = {
    "equality_public(3,2)": lambda: equality_public(3, 2),
    "equality_code(3,reps=2)": lambda: equality_code(3, reps=2),
    "derandomized": lambda: derandomize_alice(equality_code(2), s=12, seed=3)[0],
    "toy_quantum_equality(2)": lambda: toy_quantum_equality(2),
    "compiled toy_quantum_equality(2)": lambda: compile_qc_to_cc(
        toy_quantum_equality(2), delta=0.1).protocol,
    "one-coin matching_qc(4)": _one_coin_matching,
    "ragged supports": ragged_protocol,
}


class TestAcceptanceTable:
    @pytest.mark.parametrize("case", list(_BIT_IDENTITY_CASES))
    def test_bit_identical_to_scalar_loop(self, case):
        p = _BIT_IDENTITY_CASES[case]()
        xs, ys = p.alice_inputs, p.bob_inputs
        table = acceptance_table(p, xs, ys)
        assert table.shape == (len(xs), len(ys))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                want = reference_exact_acceptance(p, x, y)
                assert table[i, j] == want
                assert exact_acceptance(p, x, y) == want

    @pytest.mark.parametrize("case", [
        "ragged supports", "toy_quantum_equality(2)", "equality_public(3,2)",
        "equality_code(3,reps=2)",
    ])
    def test_inputs_in_given_order_with_repeats(self, case):
        p = _BIT_IDENTITY_CASES[case]()
        xs, ys = (2, 0, 2), (1, 1, 0)
        table = acceptance_table(p, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert table[i, j] == reference_exact_acceptance(p, x, y)

    def test_one_pair_over_cap_raises(self):
        # term counts summed over the 3 coins: (2, 1) has 12 + 12 + 12 = 36,
        # every other pair at most 16
        p = ragged_protocol()
        tol = with_overrides(DEFAULT, enum_cap=20)
        acceptance_table(p, (0, 1, 2), (0,), tol)
        acceptance_table(p, (0, 1), (0, 1), tol)
        exact_acceptance(p, 2, 0, tol)
        with pytest.raises(EnumerationCapError, match=r"\(2, 1\)"):
            acceptance_table(p, (0, 1, 2), (0, 1), tol)
        with pytest.raises(EnumerationCapError):
            exact_acceptance(p, 2, 1, tol)

    @pytest.mark.parametrize("value, message", [
        (1.5, "outside"), (-0.5, "outside"), (float("nan"), "non-finite"),
    ])
    def test_out_of_range_acceptance_raises(self, value, message):
        p = replace(constant_accept_protocol(), referee=TableReferee(fn=lambda a, b: value))
        with pytest.raises(ValueError, match=message):
            acceptance_table(p, (0, 1), (0, 1))
        with pytest.raises(ValueError, match=message):
            exact_acceptance(p, 0, 0)

    def test_in_tolerance_acceptance_is_clamped(self):
        p = constant_accept_protocol()
        above = replace(p, referee=TableReferee(fn=lambda a, b: 1.0 + 1e-13))
        below = replace(p, referee=TableReferee(fn=lambda a, b: -1e-13))
        assert exact_acceptance(above, 0, 0) == 1.0
        assert exact_acceptance(below, 0, 0) == 0.0

    def test_strategies_run_once_per_input_and_coin(self):
        p = equality_public(2, 2)
        calls = {"alice": 0, "bob": 0}

        def counted(side, strategy):
            def run(v, coin):
                calls[side] += 1
                return strategy(v, coin)
            return run

        counted_p = replace(
            p,
            alice_strategy=counted("alice", p.alice_strategy),
            bob_strategy=counted("bob", p.bob_strategy),
        )
        acceptance_table(counted_p, range(4), range(4))
        assert calls == {"alice": 4 * 16, "bob": 4 * 16}

    def test_the_callable_path_asks_the_referee_once_per_distinct_pair_of_a_coin(self):
        # equality_public's inputs share messages at every coin: at coin
        # (0, 0) all four send 0, so that coin makes one referee call
        p = _callables(equality_public(2, 2))
        strategy_calls, referee_calls = {}, {}

        def counted(side, strategy):
            def run(v, coin):
                key = (side, coin, v)
                strategy_calls[key] = strategy_calls.get(key, 0) + 1
                return strategy(v, coin)
            return run

        def accept(a, b, coin):
            referee_calls[coin, a, b] = referee_calls.get((coin, a, b), 0) + 1
            return p.referee.accept_probability(a, b, coin)

        counted_p = replace(
            p,
            alice_strategy=counted("alice", p.alice_strategy),
            bob_strategy=counted("bob", p.bob_strategy),
            referee=_CoinReferee(accept),
        )
        table = acceptance_table(counted_p, range(4), range(4))
        assert table.tobytes() == acceptance_table(p, range(4), range(4)).tobytes()
        coins = [coin for coin, _ in p.coin.outcomes()]
        assert strategy_calls == {
            (side, coin, v): 1 for side in ("alice", "bob") for coin in coins for v in range(4)}
        want = {}
        for coin in coins:
            alice = {a for x in range(4) for a in p.alice_strategy(x, coin)}
            bob = {b for y in range(4) for b in p.bob_strategy(y, coin)}
            want.update({(coin, a, b): 1 for a in alice for b in bob})
        assert referee_calls == want
        assert len(want) < 16 * 16

    def test_a_non_finite_answer_is_refused_at_its_own_coin(self):
        # the referee's answer at coin 0 is NaN: no strategy runs at coin 1
        runs = []

        def strategy(v, coin):
            runs.append(coin)
            return {0: 1.0}

        p = SmpProtocol(
            name="nan-at-coin-0",
            alice_strategy=strategy,
            bob_strategy=strategy,
            referee=_CoinReferee(lambda a, b, coin: float("nan") if coin == 0 else 1.0),
            alice_cost=Cost(bits=1),
            bob_cost=Cost(bits=1),
            coin=uniform_int_coin(3),
        )
        with pytest.raises(ValueError, match="^referee returned a non-finite acceptance "
                           "probability$"):
            acceptance_table(p, (0, 1), (0,))
        assert runs == [0, 0, 0]


class TestCoinTerms:
    def test_private_coin_is_one_term(self):
        assert coin_terms(constant_accept_protocol()) == [(None, 1.0)]

    def test_a_coin_of_cap_size_is_summed_and_one_more_is_refused(self):
        p = matching_qc(16)
        inst = random_promise_instance(16, np.random.default_rng(3), value=1)
        first = next(iter(coin_terms(p, with_overrides(DEFAULT, enum_cap=11440))))
        assert first == (tuple(range(7)), 1.0 / 11440)
        with pytest.raises(EnumerationCapError,
                           match="coin space of size 11440 exceeds term budget 11439"):
            exact_acceptance(p, inst.x, inst.bob_input, with_overrides(DEFAULT, enum_cap=11439))

    def test_the_configured_cap_alone_decides(self):
        # 2^21 masks: refused under the default cap, enumerable under a larger one
        p = equality_public(3, 7)
        assert p.coin.size == 1 << 21
        with pytest.raises(EnumerationCapError, match="size 2097152 exceeds term budget 1048576"):
            coin_terms(p)
        first = next(iter(coin_terms(p, with_overrides(DEFAULT, enum_cap=1 << 21))))
        assert first == ((0,) * 7, 2.0**-21)

    def test_a_size_too_long_to_print_is_named_by_its_bits(self):
        # 2^15000 has 4,516 decimal digits, past int-to-str's default limit
        with pytest.raises(EnumerationCapError, match=r"size 2\^15000 or more exceeds"):
            coin_terms(equality_public(5, 3000))

    def test_a_coin_past_the_bit_limit_is_refused_without_its_size(self):
        # 5 * 10^8 coin bits: the refusal builds no int of that many bits
        assert 15_000 < protocols._MAX_COIN_BITS
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match="n\\*k = 500000000 bits exceeds"):
                equality_public(5, 10**8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert equality_public(1, protocols._MAX_COIN_BITS).coin.size.bit_length() == (
            protocols._MAX_COIN_BITS + 1)
        with pytest.raises(EnumerationCapError):
            equality_public(1, protocols._MAX_COIN_BITS + 1)

    def test_subset_coin_outcomes_are_the_sorted_subsets(self):
        coin = subset_coin(5, 2)
        assert coin.size == 10
        assert list(coin.outcomes()) == [(c, 0.1) for c in itertools.combinations(range(5), 2)]

    def test_coin_space_declares_its_law(self):
        with pytest.raises(TypeError):
            CoinSpace(sampler=lambda rng: 0)
        assert not hasattr(CoinSpace, "enumerate")

    def test_empty_inputs_give_an_empty_table(self):
        p = equality_public(2, 1)
        assert acceptance_table(p, [], range(3)).shape == (0, 3)
        assert acceptance_table(p, range(2), []).shape == (2, 0)

    def test_an_over_cap_coin_is_refused_before_the_empty_return(self):
        with pytest.raises(EnumerationCapError, match="size 2097152"):
            acceptance_table(equality_public(3, 7), [], [0])


def _callables(p: SmpProtocol) -> SmpProtocol:
    """``p`` with its strategies as plain callables, so it tabulates on the callable path."""
    return replace(p, alice_strategy=p.alice_strategy.fn, bob_strategy=p.bob_strategy.fn)


def _declared_laws(strategy, inputs: list, coins: list) -> list[list]:
    """``strategy``'s declared laws as (message, probability) lists, [coin][input]."""
    ids, probs = strategy.arrays(inputs, coins)
    assert ids.shape == probs.shape == (len(coins), strategy.slots, len(inputs))
    ids, probs = ids.transpose(0, 2, 1).tolist(), probs.transpose(0, 2, 1).tolist()
    return [[list(zip(i, p)) for i, p in zip(ci, cp)] for ci, cp in zip(ids, probs)]


def _one_law_protocol(ids, probs) -> SmpProtocol:
    """Private coin, one Alice input, 2-bit messages; Alice declares one law as given."""
    law = dict(zip(ids, probs))
    alice = ArrayStrategy(
        fn=lambda x, c: law,
        slots=len(ids),
        arrays=lambda xs, coins: (np.array(ids)[None, :, None], np.array(probs)[None, :, None]),
    )
    bob = ArrayStrategy(
        fn=lambda y, c: {0: 1.0},
        slots=1,
        arrays=lambda ys, coins: (np.zeros((1, 1, len(ys)), dtype=np.int64),
                                  np.ones((1, 1, len(ys)))),
    )
    return SmpProtocol(
        name="one-law",
        alice_strategy=alice,
        bob_strategy=bob,
        referee=TableReferee(fn=lambda a, b: (a == b) * 1.0, vectorized=True),
        alice_cost=Cost(bits=2),
        bob_cost=Cost(bits=2),
    )


class TestDeclaredArrays:
    """equality_public and equality_code tabulate from arrays; their callables are the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_public_arrays_are_the_callables_laws(self, n, k):
        p = equality_public(n, k)
        inputs = list(range(2**n))
        coins = [coin for coin, _ in p.coin.outcomes()]
        for side in (p.alice_strategy, p.bob_strategy):
            declared = _declared_laws(side, inputs, coins)
            for coin, row in zip(coins, declared):
                assert row == [list(side(v, coin).items()) for v in inputs]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("reps", [1, 2])
    def test_code_arrays_are_the_callables_laws(self, n, reps):
        p = equality_code(n, reps=reps)
        inputs = list(range(2**n))
        for side in (p.alice_strategy, p.bob_strategy):
            (declared,) = _declared_laws(side, inputs, [None])
            assert declared == [list(side(v, None).items()) for v in inputs]

    @pytest.mark.parametrize("reps", [1, 2])
    def test_code_arrays_follow_a_grid_of_odd_width(self, reps):
        # a 2 x 3 grid: column indices take 2 bits and do not fill them
        p = equality_code(3, cyclic_mask_code(3, 6), reps=reps)
        inputs = list(range(8))
        for side in (p.alice_strategy, p.bob_strategy):
            (declared,) = _declared_laws(side, inputs, [None])
            assert declared == [list(side(v, None).items()) for v in inputs]
        table = acceptance_table(p, inputs, inputs)
        assert table.tolist() == [
            [reference_exact_acceptance(p, x, y) for y in inputs] for x in inputs
        ]

    def test_a_code_too_wide_for_int64_ids_stays_on_callables(self):
        # 11 repetitions of 6-bit columns: 66-bit messages
        p = equality_code(4, reps=11)
        assert not hasattr(p.alice_strategy, "arrays")
        assert not hasattr(p.bob_strategy, "arrays")

    @pytest.mark.parametrize("n, reps", [(1, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_code_referee_on_arrays_is_its_scalar_answer(self, n, reps):
        p = equality_code(n, reps=reps)
        inputs = list(range(2**n))
        a = np.unique(p.alice_strategy.arrays(inputs, [None])[0])
        b = np.unique(p.bob_strategy.arrays(inputs, [None])[0])
        got = p.referee.fn(a[:, None], b[None, :])
        assert got.tolist() == [[p.referee.fn(x, y) for y in b.tolist()] for x in a.tolist()]

    @pytest.mark.parametrize("make", [
        lambda: equality_public(1, 3),
        lambda: equality_public(2, 3),
        lambda: equality_public(3, 2),
        lambda: equality_public(4, 1),
        lambda: equality_code(2, reps=2),
        lambda: equality_code(3, reps=2),
        lambda: equality_code(4),
    ], ids=["pub(1,3)", "pub(2,3)", "pub(3,2)", "pub(4,1)", "code(2,2)", "code(3,2)", "code(4,1)"])
    def test_declared_table_is_the_scalar_loop(self, make):
        p = make()
        xs, ys = p.alice_inputs, p.bob_inputs
        table = acceptance_table(p, xs, ys)
        assert table.tolist() == [[reference_exact_acceptance(p, x, y) for y in ys] for x in xs]
        assert table.tobytes() == acceptance_table(_callables(p), xs, ys).tobytes()

    def test_derandomized_eq_code_carries_no_stale_law(self):
        p = equality_code(3)
        compiled, _ = derandomize_alice(p, s=24, seed=2026)
        assert not hasattr(compiled.alice_strategy, "arrays")
        xs, ys = compiled.alice_inputs, compiled.bob_inputs
        table = acceptance_table(compiled, xs, ys)
        assert table.tolist() == [
            [reference_exact_acceptance(compiled, x, y) for y in ys] for x in xs
        ]

    def test_no_strategy_or_referee_call_per_coin_and_input(self):
        p = equality_public(3, 2)
        calls = {"strategy": 0, "referee": 0}

        def strategy(v, coin):
            calls["strategy"] += 1
            return p.alice_strategy(v, coin)

        def referee(a, b):
            calls["referee"] += 1
            return p.referee.fn(a, b)

        counted = replace(
            p,
            alice_strategy=replace(p.alice_strategy, fn=strategy),
            bob_strategy=replace(p.bob_strategy, fn=strategy),
            referee=replace(p.referee, fn=referee),
        )
        table = acceptance_table(counted, range(8), range(8))
        # 64 coins x 64 pairs = 4,096 terms: one block, one referee call
        assert calls == {"strategy": 0, "referee": 1}
        assert table.tobytes() == acceptance_table(_callables(p), range(8), range(8)).tobytes()

    @pytest.mark.parametrize("ids, probs, message", [
        ([0, 1], [1.5, -0.5], r"probability -0\.5 of 1 is not >= 0"),
        ([0, 1], [0.5, float("nan")], "probability nan of 1 is not >= 0"),
        ([0, 1], [0.5, float("inf")], "distribution sums to inf, not 1"),
        ([-1, 1], [0.5, 0.5], r"message -1 is not an int in \[0, 2\^2\)"),
        ([0, 4], [0.5, 0.5], r"message 4 is not an int in \[0, 2\^2\)"),
        ([0, 3], [0.5, 0.5 + 2e-12], "distribution sums to 1.000000000002, not 1"),
    ], ids=["negative", "nan", "inf", "id-below-0", "id-at-2^bits", "sum-off"])
    def test_a_malformed_declaration_raises_the_callable_paths_error(self, ids, probs, message):
        p = _one_law_protocol(ids, probs)
        with pytest.raises(ValueError, match=message) as declared:
            acceptance_table(p, (0,), (0,))
        with pytest.raises(ValueError) as called:
            acceptance_table(_callables(p), (0,), (0,))
        assert str(declared.value) == str(called.value)

    def test_a_sum_within_tolerance_passes(self):
        p = _one_law_protocol([0, 3], [0.5, 0.5 + 0.5e-12])
        assert acceptance_table(p, (0,), (0,)).tolist() == [[0.5]]

    def test_a_declaration_of_the_wrong_shape_raises(self):
        p = _one_law_protocol([0, 1], [0.5, 0.5])
        short = replace(p, alice_strategy=replace(p.alice_strategy, slots=3))
        with pytest.raises(ValueError, match=r"expected \(1, 3, 1\)"):
            acceptance_table(short, (0,), (0,))
        with pytest.raises(ValueError, match="at least one slot"):
            replace(p.alice_strategy, slots=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64, np.int32])
    def test_declared_ids_must_be_int64(self, dtype):
        p = _one_law_protocol([0, 1], [0.5, 0.5])
        arrays = p.alice_strategy.arrays

        def cast(xs, coins):
            ids, probs = arrays(xs, coins)
            return ids.astype(dtype), probs

        p = replace(p, alice_strategy=replace(p.alice_strategy, arrays=cast))
        with pytest.raises(ValueError, match=f"must be int64, got {np.dtype(dtype)}"):
            acceptance_table(p, (0,), (0,))

    def test_the_term_cap_raises_the_callable_paths_error_before_any_array(self):
        # eq-code(3, reps=2): 16 Alice messages times 4 Bob messages per pair
        p = equality_code(3, reps=2)
        tol = with_overrides(DEFAULT, enum_cap=63)
        with pytest.raises(EnumerationCapError) as declared:
            acceptance_table(p, (5, 2), (1, 6), tol)
        with pytest.raises(EnumerationCapError) as called:
            acceptance_table(_callables(p), (5, 2), (1, 6), tol)
        assert str(declared.value) == str(called.value) == (
            "term count exceeds budget 63 at (5, 1)")
        acceptance_table(p, (5, 2), (1, 6), with_overrides(DEFAULT, enum_cap=64))

        def unbuilt(values, coins):
            raise AssertionError("built an array past the cap")

        p = equality_code(4, reps=6)
        p = replace(p, alice_strategy=replace(p.alice_strategy, arrays=unbuilt))
        with pytest.raises(EnumerationCapError, match="exceeds budget 1048576 at \\(1, 2\\)"):
            acceptance_table(p, (1,), (2,))

    def test_eq_public_memory_stays_in_blocks(self):
        p = equality_public(4, 3)
        tracemalloc.start()
        try:
            acceptance_table(p, range(16), range(16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def _with_coin(p: SmpProtocol, outcomes: list, size: int) -> SmpProtocol:
    return replace(p, coin=CoinSpace(sampler=p.coin.sampler, size=size, outcomes=lambda: outcomes))


def _masks(p: SmpProtocol) -> list:
    return [coin for coin, _ in p.coin.outcomes()]


class TestCoinLaw:
    """Both paths of ``acceptance_table`` check the coin's law as they read it."""

    def test_weights_that_sum_to_a_half_are_refused(self):
        p = equality_public(2, 1)
        half = _with_coin(p, [(m, 0.125) for m in _masks(p)], size=4)
        for q in (half, _callables(half)):
            with pytest.raises(ValueError, match="coin weights sum to 0.5, not 1"):
                exact_acceptance(q, 1, 1)

    @pytest.mark.parametrize("weight", [-0.25, float("nan")])
    def test_a_negative_or_nan_weight_is_refused(self, weight):
        p = equality_public(2, 1)
        masks = _masks(p)
        bad = _with_coin(p, [(masks[0], weight)] + [(m, 0.25) for m in masks[1:]], size=4)
        for q in (bad, _callables(bad)):
            with pytest.raises(ValueError, match=f"coin weight {weight} of \\(0,\\) is not >= 0"):
                acceptance_table(q, range(4), range(4))

    def test_more_outcomes_than_the_size_cannot_pass_the_cap(self):
        # the declared path counts coin.size x 1 x 1 = 1 term per pair up
        # front, and the callable path 1 term per pair at each coin it reads;
        # the coin's 4 outcomes would make it 4, past the cap of 3
        p = equality_public(2, 1)
        wide = _with_coin(p, [(m, 0.25) for m in _masks(p)], size=1)
        tol = with_overrides(DEFAULT, enum_cap=3)
        for q in (wide, _callables(wide)):
            with pytest.raises(ValueError, match="coin yields more outcomes than its size 1"):
                acceptance_table(q, range(4), range(4), tol)

    def test_fewer_outcomes_than_the_size_are_refused(self):
        p = equality_public(2, 1)
        short = _with_coin(p, [(m, 1 / 3) for m in _masks(p)[:3]], size=4)
        with pytest.raises(ValueError, match="coin yields 3 outcomes, not its size 4"):
            acceptance_table(short, range(4), range(4))

    def test_the_largest_subset_coin_sums_to_one_within_tolerance(self):
        # 12,870 outcomes of 1/12,870, summed in order, miss 1 by 3e-13
        p = replace(constant_accept_protocol(), coin=subset_coin(16, 8))
        assert acceptance_table(p, (0,), (0, 1)).tolist() == [
            [reference_exact_acceptance(p, 0, y) for y in (0, 1)]]


@pytest.mark.parametrize("n, k", [(3, 5), (3, -1), (-1, 0)])
def test_subset_coin_refuses_a_size_outside_0_to_n(n, k):
    with pytest.raises(ValueError, match=f"need 0 <= k <= n = {n}, got k = {k}"):
        subset_coin(n, k)


def test_subset_coin_takes_the_empty_and_the_full_subset():
    assert list(subset_coin(3, 0).outcomes()) == [((), 1.0)]
    assert list(subset_coin(3, 3).outcomes()) == [((0, 1, 2), 1.0)]


def test_the_cap_names_the_first_pair_over_it_at_the_first_coin_that_passes():
    # Bob's input 1 sends 4 messages at coin 0 and input 0 at coin 1: after
    # coin 0 the counts are (1, 4), so (0, 1) passes the cap of 3 first
    wide = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
    p = SmpProtocol(
        name="cap-race",
        alice_strategy=lambda x, coin: {0: 1.0},
        bob_strategy=lambda y, coin: wide if (y == 1) == (coin == 0) else {0: 1.0},
        referee=TableReferee(fn=lambda a, b: 1.0),
        alice_cost=Cost(bits=1),
        bob_cost=Cost(bits=2),
        coin=uniform_int_coin(2),
    )
    with pytest.raises(EnumerationCapError) as err:
        acceptance_table(p, (0,), (0, 1), with_overrides(DEFAULT, enum_cap=3))
    assert str(err.value) == "term count exceeds budget 3 at (0, 1)"


@pytest.mark.parametrize("bits", [32, 40, 70])
def test_declared_slots_whose_product_passes_int64_are_refused_before_any_array(bits):
    p = equality_code(3, reps=2)

    def unbuilt(values, coins):
        raise AssertionError("built an array past the cap")

    wide = replace(
        p,
        alice_strategy=replace(p.alice_strategy, slots=1 << bits, arrays=unbuilt),
        bob_strategy=replace(p.bob_strategy, slots=1 << bits, arrays=unbuilt),
    )
    with pytest.raises(EnumerationCapError, match=r"exceeds budget 1048576 at \(5, 1\)"):
        acceptance_table(wide, (5, 2), (1, 6))


# _BLOCK_TERMS sizes only the declared path's blocks; the callable path adds
# one coin at a time whatever it is, and its two cases keep checking that
_BLOCK_CASES = {
    **_BIT_IDENTITY_CASES,
    "callable equality_public(3,2)": lambda: _callables(equality_public(3, 2)),
    "callable equality_code(3,reps=2)": lambda: _callables(equality_code(3, reps=2)),
}


@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_every_block_size_gives_the_scalar_loop(case, monkeypatch):
    p = _BLOCK_CASES[case]()
    xs, ys = p.alice_inputs, p.bob_inputs
    want = [[reference_exact_acceptance(p, x, y) for y in ys] for x in xs]
    for terms in (1, 3, 7, 64):
        monkeypatch.setattr(smp, "_BLOCK_TERMS", terms)
        assert acceptance_table(p, xs, ys).tolist() == want, terms


def sampled_acceptance(p: SmpProtocol, x, y, trials: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo acceptance of one pair and its 95% Wilson half-width."""
    report = empirical_success(p, lambda x, y: 1, [(x, y)], trials, seed)
    return report.rate, (report.wilson_high - report.wilson_low) / 2


class TestSampledAcceptance:
    def test_constant_accept_estimate(self):
        p = constant_accept_protocol()
        est, half = sampled_acceptance(p, 0, 0, trials=200, seed=5)
        assert est == 1.0
        # Wilson interval at all successes: upper end is exactly 1, the lower
        # end sits z^2/ (n + z^2) below it; the half-width is tiny but not 0.
        assert half <= 1.96**2 / 200

    def test_matches_exact_for_equality(self):
        p = equality_public(4, 1)
        est, half = sampled_acceptance(p, 3, 9, trials=10000, seed=11)
        assert abs(est - 0.5) <= 0.02
        assert abs(est - 0.5) <= 4 * half

    def test_reproducible_for_fixed_seed(self):
        p = equality_public(4, 1)
        a = sampled_acceptance(p, 3, 9, trials=500, seed=7)
        b = sampled_acceptance(p, 3, 9, trials=500, seed=7)
        assert a == b

    def test_matching_consistent_across_seeds(self):
        inst = random_promise_instance(16, np.random.default_rng(3), value=1)
        p = matching_qc(16)
        e1, h1 = sampled_acceptance(p, inst.x, inst.bob_input, trials=400, seed=1)
        e2, h2 = sampled_acceptance(p, inst.x, inst.bob_input, trials=400, seed=2)
        assert abs(e1 - e2) <= 4 * (h1 + h2)

    def test_exact_and_sampled_agree_within_interval(self):
        p = equality_public(3, 2)
        exact = exact_acceptance(p, 1, 5)
        est, half = sampled_acceptance(p, 1, 5, trials=4000, seed=13)
        assert abs(est - exact) <= 4 * half

    def test_exact_and_sampled_agree_for_quantum_matching(self):
        # a small subset makes the coin space enumerable, so the quantum
        # protocol admits exact evaluation end to end
        p = matching_qc(8, subset_size=4, copies=2, edges_sent=2)
        inst = random_promise_instance(8, np.random.default_rng(17), value=1)
        exact = exact_acceptance(p, inst.x, inst.bob_input)
        est, half = sampled_acceptance(p, inst.x, inst.bob_input, trials=3000, seed=23)
        assert abs(est - exact) <= 4 * half

    def test_exact_and_sampled_agree_for_matching_at_16(self):
        # the default subset of 7 gives C(16, 7) = 11,440 coins, well under
        # the default enum_cap, so the coin is summed over like any other
        p = matching_qc(16)
        assert p.coin.size == 11440
        inst = random_promise_instance(16, np.random.default_rng(3), value=1)
        exact = exact_acceptance(p, inst.x, inst.bob_input)
        est, half = sampled_acceptance(p, inst.x, inst.bob_input, trials=4000, seed=16)
        assert abs(est - exact) <= 4 * half

    @pytest.mark.parametrize("pairs, trials, message", [
        ([(0, 0)], 0, "need trials_per_pair >= 1"),
        ([(0, 0)], -3, "need trials_per_pair >= 1"),
        ([], 5, "need at least one pair"),
    ])
    def test_empirical_success_rejects_non_positive_counts(self, pairs, trials, message):
        p = constant_accept_protocol()
        with pytest.raises(ValueError, match=message):
            empirical_success(p, lambda x, y: 1, pairs, trials_per_pair=trials, seed=1)


class TestEveryClassicalLawIsValidated:
    """``SmpProtocol.quantum`` alone tells a payload from a law, on both paths."""

    def test_a_bare_int_from_a_classical_alice_is_refused(self):
        p = replace(constant_accept_protocol(), alice_strategy=lambda x, c: 7)
        with pytest.raises(ValueError, match="must be a mapping, got int"):
            acceptance_table(p, (0, 1), (0, 1))
        with pytest.raises(ValueError, match="must be a mapping, got int"):
            empirical_success(p, lambda x, y: 1, [(0, 0)], trials_per_pair=3, seed=1)

    @pytest.mark.parametrize("law, message", [
        ({"0": 1.0}, "is not an int"),
        ({7: 1.0}, r"not an int in \[0, 2\^1\)"),
        ({0: 0.5}, "sums to 0.5"),
    ])
    @pytest.mark.parametrize("side", ["alice_strategy", "bob_strategy"])
    def test_the_sampled_path_refuses_a_malformed_law(self, side, law, message):
        p = replace(constant_accept_protocol(), **{side: lambda v, c: law})
        with pytest.raises(ValueError, match=message):
            empirical_success(p, lambda x, y: 1, [(0, 0)], trials_per_pair=3, seed=1)
        with pytest.raises(ValueError, match=message):
            acceptance_table(p, (0,), (0,))

    def test_the_sampled_path_checks_laws_against_the_callers_tolerance(self):
        p = replace(constant_accept_protocol(), bob_strategy=lambda y, c: {0: 0.9995})
        with pytest.raises(ValueError, match="sums"):
            empirical_success(p, lambda x, y: 1, [(0, 0)], trials_per_pair=3, seed=1)
        loose = with_overrides(DEFAULT, distribution=1e-3)
        report = empirical_success(p, lambda x, y: 1, [(0, 0)], 3, seed=1, tol=loose)
        assert report.rate == 1.0

    def test_a_quantum_payload_reaches_the_referee_unchanged(self):
        seen = []

        class _AmplitudeReferee(Referee):
            def accept_probability(self, a, b, coin=None):
                seen.append(a)
                amp = a.amplitudes if isinstance(a, PureState) else a
                return float(abs(amp[b]) ** 2)

        # sparse amplitudes by basis index are a mapping, yet a quantum payload
        for payload in ({0: 0.6, 1: 0.8}, PureState(np.array([0.6, 0.8]))):
            seen.clear()
            p = SmpProtocol(
                name="one-qubit",
                alice_strategy=lambda x, c: payload,
                bob_strategy=lambda y, c: {y: 1.0},
                referee=_AmplitudeReferee(),
                alice_cost=Cost(qubits=1),
                bob_cost=Cost(bits=1),
            )
            assert acceptance_table(p, (0,), (0, 1))[0].tolist() == pytest.approx([0.36, 0.64])
            empirical_success(p, lambda x, y: 1, [(0, 1)], trials_per_pair=5, seed=2)
            assert len(seen) == 7 and all(a is payload for a in seen)


class TestWorstCaseError:
    def test_omniscient_fixture_reaches_zero(self):
        f = equality_function(1)
        protos = {}
        for (x, y), val in f.values.items():
            protos[(x, y)] = val
        p = SmpProtocol(
            name="lookup",
            alice_strategy=lambda x, c: {x: 1.0},
            bob_strategy=lambda y, c: {y: 1.0},
            referee=TableReferee(fn=lambda a, b: float(a == b)),
            alice_cost=Cost(bits=1),
            bob_cost=Cost(bits=1),
        )
        assert worst_case_error(p, f) == 0.0

    def test_equality_public_worst_case_quarter(self):
        assert worst_case_error(equality_public(4, 2), equality_function(4)) == 0.25

    def test_equality_code_bounded_error(self):
        # small enough to enumerate exactly with the generic evaluator
        err = worst_case_error(equality_code(2, reps=3), equality_function(2))
        assert err <= 1 / 3


class TestProtocolCost:
    def test_equality_public_one_bit_each(self):
        assert protocol_cost(equality_public(8, 1)) == (1, 1, 2)

    def test_equality_code_grid_accounting(self):
        p = equality_code(4)  # Hadamard: 16 bits as a 4x4 grid
        alice, bob, total = protocol_cost(p)
        assert alice == 4 + 2  # column + its index
        assert bob == 4 + 2
        assert total == alice + bob

    def test_quantum_cost_in_qubits(self):
        p = matching_qc(16, subset_size=8, copies=3, edges_sent=2)
        alice, _, _ = protocol_cost(p)
        assert alice == 3 * 4


class TestPublicCoinConditioning:
    def test_conditioning_matches_joint_enumeration(self):
        p = equality_public(2, 1)
        for x, y in [(0, 0), (1, 2), (3, 1)]:
            joint = exact_acceptance(p, x, y)
            conditioned = 0.0
            for coin_value, prob in p.coin.outcomes():
                one = CoinSpace(
                    sampler=lambda rng, v=coin_value: v, size=1,
                    outcomes=lambda v=coin_value: [(v, 1.0)],
                )
                conditioned += prob * exact_acceptance(replace(p, coin=one), x, y)
            assert abs(joint - conditioned) <= 1e-12


class TestTables:
    def test_function_table_promise(self):
        f = FunctionTable((0, 1), (0, 1), {(0, 0): 1, (1, 1): 0})
        assert not f.is_total
        assert f(0, 0) == 1
        with pytest.raises(ValueError, match="promise"):
            f(0, 1)

    def test_relation_table_requires_nonempty_valid_sets(self):
        with pytest.raises(ValueError, match="empty valid set"):
            RelationTable({(0, 0): frozenset()}, {(0, 0): 1})

    @pytest.mark.parametrize("weight", [0.5, True, Fraction(1, 2), np.int64(1), -1])
    def test_relation_table_refuses_a_weight_that_is_not_an_int_at_least_0(self, weight):
        # mu holds integer weights: no float, bool, Fraction or numpy integer,
        # however equal to one, and nothing negative
        valid = {(0, 0): frozenset({0}), (0, 1): frozenset({1})}
        with pytest.raises(ValueError, match=re.escape(
            f"weight {weight!r} of mu at (0, 1) is not an int >= 0"
        )):
            RelationTable(valid, {(0, 0): 1, (0, 1): weight})

    @pytest.mark.parametrize("mu", [{(0, 0): 0, (0, 1): 0}, {}])
    def test_relation_table_refuses_weights_that_are_all_zero(self, mu):
        valid = {(0, 0): frozenset({0}), (0, 1): frozenset({1})}
        with pytest.raises(ValueError, match=re.escape(
            f"mu has no positive weight among its pairs {list(mu)}"
        )):
            RelationTable(valid, mu)

    def test_relation_table_keeps_weights_and_their_total(self):
        valid = {(0, 0): frozenset({0}), (0, 1): frozenset({1}), (1, 0): frozenset()}
        table = RelationTable(valid, {(0, 0): 3, (0, 1): 1, (1, 0): 0})
        assert table.mu == {(0, 0): 3, (0, 1): 1, (1, 0): 0}
        assert table.total == 4
        assert table.support == [(0, 0), (0, 1)]

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="sums"):
            validate_distribution({0: 0.4, 1: 0.4}, 1)
        with pytest.raises(ValueError, match=r"not an int in \[0, 2\^1\)"):
            validate_distribution({2: 1.0}, 1)
        validate_distribution({0: 0.5, 3: 0.5}, 2)
        validate_distribution({0: 1.0}, 0)

    @pytest.mark.parametrize("msg, length", [
        ("0", 1), ("", 0), (True, 1), (np.int64(1), 1), (-1, 1), (4, 2), (1, 0),
    ])
    def test_distribution_validation_refuses_what_is_not_an_int_message(self, msg, length):
        # a message of a length-bit side is an int in [0, 2^length): not a
        # string, a bool or a numpy integer, however equal to one
        with pytest.raises(ValueError, match=re.escape(f"message {msg!r} is not an int")):
            validate_distribution({msg: 1.0}, length)

    @pytest.mark.parametrize("law", [7, None, [(0, 1.0)], "0", PureState(np.array([1.0, 0.0]))])
    def test_distribution_validation_refuses_what_is_not_a_mapping(self, law):
        with pytest.raises(ValueError, match="must be a mapping"):
            validate_distribution(law, 1)

    @pytest.mark.parametrize("dist", [
        {0: -0.5, 1: 1.5},
        {0: float("nan")},
        {0: float("nan"), 1: 1.0},
    ])
    def test_distribution_validation_refuses_negative_and_nan(self, dist):
        with pytest.raises(ValueError, match="not >= 0"):
            validate_distribution(dist, 1)

    @pytest.mark.parametrize("mu", [
        {(0, 0): 3, (0, 1): -1, (1, 0): 0, (1, 1): 0},
        {(0, 0): float("nan"), (0, 1): float("nan"), (1, 0): float("nan"), (1, 1): float("nan")},
        {(0, 0): Fraction(3, 2), (0, 1): Fraction(-1, 2), (1, 0): 0, (1, 1): 0},
    ])
    def test_relation_table_refuses_negative_and_nan_weights(self, mu):
        valid = {pair: frozenset({0}) for pair in mu}
        with pytest.raises(ValueError, match=r"at \(0, [01]\) is not an int >= 0"):
            RelationTable(valid, mu)


def test_wilson_interval_monotone_in_trials():
    _, lo1, hi1 = wilson_interval(70, 100)
    _, lo2, hi2 = wilson_interval(700, 1000)
    assert hi2 - lo2 < hi1 - lo1


def test_trial_rng_is_order_independent():
    a = [trial_rng(9, t).random() for t in (0, 1, 2)]
    b = [trial_rng(9, t).random() for t in (2, 1, 0)]
    assert a == b[::-1]


def test_subset_coin_samples_sorted_python_ints():
    coin = subset_coin(64, 16)
    for t in range(20):
        got = coin.sampler(trial_rng(5, t))
        drawn = trial_rng(5, t).choice(64, size=16, replace=False)
        assert got == tuple(sorted(int(i) for i in drawn))
        assert all(type(i) is int for i in got)


def test_uniform_int_coin_enumerates_exactly():
    coin = uniform_int_coin(8)
    pairs = list(coin.outcomes())
    assert len(pairs) == 8
    assert abs(sum(p for _, p in pairs) - 1.0) <= 1e-12


def _per_trial_reference(p, f, pairs, trials_per_pair, seed) -> SuccessReport:
    """``empirical_success`` with a fresh ``trial_rng`` per trial: the stream it keeps."""
    successes = abstained = 0
    per_pair = []
    for i, (x, y) in enumerate(pairs):
        pair_seed = derive_seed(seed, i)
        hits = 0
        for t in range(trials_per_pair):
            info: dict = {}
            out = _sample_output_once(p, x, y, trial_rng(pair_seed, t), info=info)
            hits += 1 if out == f(x, y) else 0
            abstained += info.get("abstained", 0)
        successes += hits
        per_pair.append(hits / trials_per_pair)
    total = len(pairs) * trials_per_pair
    rate, lo, hi = wilson_interval(successes, total)
    return SuccessReport(successes, total, rate, lo, hi, tuple(per_pair), abstained)


@pytest.mark.parametrize("make, n", [
    (lambda: matching_qc(16), 16),
    (lambda: matching_qc(16, subset_size=10, copies=3, edges_sent=4), 16),
    (lambda: matching_qc(32), 32),
    (lambda: matching_qc(32, subset_size=9, copies=2, edges_sent=2), 32),
    (lambda: matching_classical(16), 16),
    (lambda: matching_classical(16, subset_size=5), 16),
    (lambda: matching_classical(32), 32),
    (lambda: matching_classical(32, subset_size=14), 32),
])
def test_empirical_success_equals_per_trial_generators_on_matching(make, n):
    g = trial_rng(12, n)
    fixture = [random_promise_instance(n, g) for _ in range(3)]
    values = {(inst.x, inst.bob_input): matching_value(inst) for inst in fixture}
    pairs = list(values)
    f = lambda x, y: values[(x, y)]  # noqa: E731
    got = empirical_success(make(), f, pairs, trials_per_pair=60, seed=31)
    assert got == _per_trial_reference(make(), f, pairs, 60, seed=31)


_BATCHED = [
    (make, n)
    for n in (8, 16, 32, 64, 128)
    for make in (
        lambda n: matching_qc(n),
        lambda n: matching_classical(n),
        lambda n: matching_qc(n, subset_size=2),
        lambda n: matching_classical(n, subset_size=2),
        lambda n: matching_classical(n, subset_size=n),  # Floyd's first top is 0
        lambda n: matching_classical(n, subset_size=n - 1),
        lambda n: matching_qc(n, copies=4, edges_sent=1),  # copies > edges_sent
        lambda n: matching_qc(n, subset_size=n // 2, copies=5, edges_sent=2),
    )
]


@pytest.mark.parametrize("seed", [7, -4, 2**70])
@pytest.mark.parametrize("make, n", _BATCHED)
def test_batch_equals_per_trial_outputs_and_abstentions(make, n, seed):
    p = make(n)
    g = trial_rng(seed, n)
    for inst in [random_promise_instance(n, g) for _ in range(2)]:
        x, y = inst.x, inst.bob_input
        width, run = p.batch(p, x, y)
        assert width == n
        outs, abstains = run(TrialDraws(seed, 3, 40))
        want_outs, want_abstains = [], []
        for t in range(3, 43):
            info: dict = {}
            want_outs.append(_sample_output_once(p, x, y, trial_rng(seed, t), info=info))
            want_abstains.append(info.get("abstained", 0) == 1)
        assert outs.tolist() == want_outs
        assert abstains.tolist() == want_abstains


@pytest.mark.parametrize("seed", [7, -4, 2**70])
@pytest.mark.parametrize("make", [matching_qc, matching_classical])
def test_empirical_success_in_blocks_equals_per_trial_generators(make, seed):
    # 2 * _TRIAL_BLOCK + 5 trials: two full blocks and a short one
    trials = 2 * rng._TRIAL_BLOCK + 5
    g = trial_rng(seed, 0)
    fixture = [random_promise_instance(16, g) for _ in range(2)]
    values = {(inst.x, inst.bob_input): matching_value(inst) for inst in fixture}
    f = lambda x, y: values[(x, y)]  # noqa: E731
    got = empirical_success(make(16), f, list(values), trials_per_pair=trials, seed=seed)
    assert got == _per_trial_reference(make(16), f, list(values), trials, seed=seed)


def _off_domain_pairs(n: int):
    inst = random_promise_instance(n, trial_rng(3, 0))
    x, (matching, w) = inst.x, inst.bob_input
    flipped = (matching[0][::-1],) + matching[1:]  # still ints in range(n), so batched
    return {
        "x-list": (list(x), inst.bob_input),
        "x-bool": (tuple(bool(b) for b in x), inst.bob_input),
        "w-list": (x, (matching, list(w))),
        "short-w": (x, (matching, w[:-1])),
        "edge-list": (x, (tuple(list(e) for e in matching), w)),
        "vertex-n": (x, (((0, n),) + matching[1:], w)),
        "flipped-edge": (x, (flipped, w)),
    }


@pytest.mark.parametrize("name", list(_off_domain_pairs(16)))
@pytest.mark.parametrize("make", [matching_qc, matching_classical])
def test_batch_leaves_other_pairs_to_the_per_trial_path(make, name):
    x, y = _off_domain_pairs(16)[name]
    p = make(16)
    assert (p.batch(p, x, y) is None) == (name != "flipped-edge")
    f = lambda x, y: 1  # noqa: E731
    try:
        want = _per_trial_reference(p, f, [(x, y)], 30, seed=5)
    except Exception as e:  # the per-trial path's own error, raised the same way
        with pytest.raises(type(e)):
            empirical_success(p, f, [(x, y)], trials_per_pair=30, seed=5)
    else:
        assert empirical_success(p, f, [(x, y)], trials_per_pair=30, seed=5) == want


def _fixed_coin(coin: CoinSpace) -> CoinSpace:
    """One subset of ``coin``'s, drawn once and then always sampled."""
    subset = coin.sampler(trial_rng(0, 0))
    return CoinSpace(sampler=lambda rng: subset, size=1, outcomes=lambda: [(subset, 1.0)])


_REPLACED_PARTS = {
    "coin": lambda p: replace(p, coin=_fixed_coin(p.coin)),
    "alice": lambda p: replace(p, alice_strategy=lambda x, c: p.alice_strategy(x, c)),
    "bob": lambda p: replace(p, bob_strategy=lambda y, c: p.bob_strategy(y, c)),
    "referee": lambda p: replace(p, referee=copy.copy(p.referee)),
    "bob_cost": lambda p: replace(p, bob_cost=Cost(bits=p.bob_cost.bits)),
}


@pytest.mark.parametrize("part", list(_REPLACED_PARTS))
@pytest.mark.parametrize("make", [matching_qc, matching_classical])
def test_a_replaced_part_runs_per_trial(make, part):
    p = make(16)
    q = _REPLACED_PARTS[part](p)
    inst = random_promise_instance(16, trial_rng(9, 0))
    pair = (inst.x, inst.bob_input)
    assert p.batch(p, *pair) is not None
    assert q.batch is p.batch and q.batch(q, *pair) is None
    f = lambda x, y: matching_value(inst)  # noqa: E731
    got = empirical_success(q, f, [pair], trials_per_pair=50, seed=4)
    assert got == _per_trial_reference(q, f, [pair], 50, seed=4)
    # a name or input list, which no trial reads, keeps the batch
    r = replace(p, name="renamed", alice_inputs=(inst.x,))
    assert r.batch(r, *pair) is not None


def test_the_one_coin_matching_runs_per_trial():
    p = _one_coin_matching()
    x, y = p.alice_inputs[0], p.bob_inputs[0]
    assert p.batch(p, x, y) is None
    f = lambda x, y: 1  # noqa: E731
    got = empirical_success(p, f, [(x, y)], trials_per_pair=40, seed=2)
    assert got == _per_trial_reference(p, f, [(x, y)], 40, seed=2)


class _CountedDraws(TrialDraws):
    counts: list = []

    def __init__(self, seed, start, count):
        super().__init__(seed, start, count)
        self.counts.append(count)


@pytest.mark.parametrize("n, block", [(16, 512), (64, 512), (1024, 256), (4096, 64)])
def test_blocks_shrink_as_the_arrays_widen(monkeypatch, n, block):
    monkeypatch.setattr(smp, "TrialDraws", _CountedDraws)
    monkeypatch.setattr(_CountedDraws, "counts", [])
    inst = random_promise_instance(n, trial_rng(5, n))
    pair = (inst.x, inst.bob_input)
    f = lambda x, y: matching_value(inst)  # noqa: E731
    trials = block + 7
    got = empirical_success(matching_classical(n), f, [pair], trials_per_pair=trials, seed=6)
    assert _CountedDraws.counts == [block, 7]
    assert got == _per_trial_reference(matching_classical(n), f, [pair], trials, seed=6)


@pytest.mark.parametrize("make, subset_size, bound", [
    (matching_qc, None, 4 << 20),
    (matching_classical, None, 4 << 20),
    # a subset of every index, or of half of them: about 2 * subset_size
    # draws per trial, decoded in chunks of columns
    (matching_classical, protocols._BATCH_MAX_N, 8 << 20),
    (matching_classical, protocols._BATCH_MAX_N // 2, 8 << 20),
])
def test_batch_memory_is_bounded_at_the_widest_batched_n(make, subset_size, bound):
    # 512 trials of n = 4096 in 64-trial blocks: a few MB, where one
    # 512-trial block of that width held over 10 MB; one n wider, every pair
    # runs per trial
    n = protocols._BATCH_MAX_N
    inst = random_promise_instance(n, trial_rng(8, n))
    pair = (inst.x, inst.bob_input)
    p = make(n, subset_size=subset_size)
    tracemalloc.start()
    empirical_success(p, lambda x, y: 1, [pair], trials_per_pair=512, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < bound, peak
    wider = random_promise_instance(2 * n, trial_rng(8, 2 * n))
    q = make(2 * n)
    assert q.batch(q, wider.x, wider.bob_input) is None


@pytest.mark.parametrize("kwargs, error", [
    ({"trials_per_pair": True}, "trials_per_pair must be an int, got bool"),
    ({"trials_per_pair": 2.0}, "trials_per_pair must be an int, got float"),
    ({"seed": "3"}, "seed must be an int, got str"),
    ({"seed": None}, "seed must be an int, got NoneType"),
    ({"seed": 1.5}, "seed must be an int, got float"),
])
def test_empirical_success_refuses_untyped_counts_and_seeds(kwargs, error):
    args = {"trials_per_pair": 2, "seed": 3, **kwargs}
    with pytest.raises(TypeError, match=error):
        empirical_success(equality_public(2, 1), lambda x, y: 1, [(0, 0)], **args)


def test_empirical_success_equals_per_trial_generators_on_sampled_messages():
    # private coin; Alice's strategy is a distribution sampled by rng.choice
    p = equality_code(2, reps=2)
    assert isinstance(p.alice_strategy(1, None), Mapping)
    f = equality_function(2)
    pairs = [(0, 0), (1, 2), (3, 3), (2, 1)]
    got = empirical_success(p, f, pairs, trials_per_pair=50, seed=-4)
    assert got == _per_trial_reference(p, f, pairs, 50, seed=-4)


class _XorDistributionReferee(Referee):
    """Defines only ``output_distribution``: outputs 1 w.p. 1/4 + (a xor b)/2."""

    def output_distribution(self, a, b, coin=None):
        p1 = 0.25 + 0.5 * (a ^ b)
        return {0: 1.0 - p1, 1: p1}


def _one_bit_protocol(referee) -> SmpProtocol:
    alice = {0: {0: 1.0}, 1: {1: 1.0}, 2: {0: 0.5, 1: 0.5}}
    return SmpProtocol(
        name="one-bit",
        alice_strategy=lambda x, c: alice[x],
        bob_strategy=lambda y, c: {y: 1.0},
        referee=referee,
        alice_cost=Cost(bits=1),
        bob_cost=Cost(bits=1),
    )


class TestRefereeInterface:
    def test_distribution_only_referee_tabulates_its_output_1_mass(self):
        p = _one_bit_protocol(_XorDistributionReferee())
        # oracle: (a, b) agree -> 1/4, differ -> 3/4; input 2 is a fair mix
        want = [[0.25, 0.75], [0.75, 0.25], [0.5, 0.5]]
        assert acceptance_table(p, [0, 1, 2], [0, 1]).tolist() == want

    def test_distribution_only_referee_samples_like_its_acceptance(self):
        p = _one_bit_protocol(_XorDistributionReferee())
        same = _one_bit_protocol(TableReferee(fn=lambda a, b: 0.25 + 0.5 * (a ^ b)))
        pairs = [(0, 1), (1, 1), (2, 0)]
        got = empirical_success(p, lambda x, y: 1, pairs, trials_per_pair=2000, seed=3)
        # the default draws accept exactly as the table referee's do
        assert got == empirical_success(same, lambda x, y: 1, pairs, 2000, seed=3)
        for rate, want in zip(got.per_pair_rates, (0.75, 0.25, 0.5)):
            est, lo, hi = wilson_interval(round(rate * 2000), 2000)
            assert abs(est - want) <= 2 * (hi - lo)

    def test_protocol_rejects_a_non_referee(self):
        with pytest.raises(TypeError, match="referee must be a Referee, got object"):
            _one_bit_protocol(object())

    def test_operator_referee_measures_a_pure_state_as_its_density(self):
        referee = OperatorReferee([MeasurementOperator(np.diag([1.0, 0.0]).astype(complex))])
        psi = PureState(np.array([0.6, 0.8]))
        assert referee.accept_probability(psi, 0) == pytest.approx(0.36, abs=1e-12)
        assert referee.accept_probability(psi, 0) == referee.accept_probability(
            psi.density(), 0)

    def test_operator_referee_refuses_a_classical_message(self):
        referee = OperatorReferee([MeasurementOperator(np.eye(2, dtype=complex))])
        with pytest.raises(TypeError, match="needs a density matrix message"):
            referee.accept_probability(0, 0)

    def test_quantum_is_not_a_field(self):
        assert "quantum" not in {f.name for f in fields(SmpProtocol)}
        assert not _one_bit_protocol(_XorDistributionReferee()).quantum
        assert replace(constant_accept_protocol(), alice_cost=Cost(qubits=1)).quantum
