from dataclasses import replace

import numpy as np
import pytest

from smplab.errors import EnumerationCapError
from smplab.protocols import (
    equality_code,
    equality_function,
    equality_public,
    matching_qc,
    random_promise_instance,
)
from smplab.rng import trial_rng
from smplab.smp import (
    CoinSpace,
    Cost,
    FunctionTable,
    RelationTable,
    SmpProtocol,
    TableReferee,
    exact_acceptance,
    protocol_cost,
    sampled_acceptance,
    uniform_int_coin,
    validate_distribution,
    wilson_interval,
    worst_case_error,
)


def constant_accept_protocol() -> SmpProtocol:
    return SmpProtocol(
        name="always-1",
        alice_strategy=lambda x, c: {"0": 1.0},
        bob_strategy=lambda y, c: {"0": 1.0},
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


class TestWorstCaseError:
    def test_omniscient_fixture_reaches_zero(self):
        f = equality_function(1)
        protos = {}
        for (x, y), val in f.values.items():
            protos[(x, y)] = val
        p = SmpProtocol(
            name="lookup",
            alice_strategy=lambda x, c: {format(x, "01b"): 1.0},
            bob_strategy=lambda y, c: {format(y, "01b"): 1.0},
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
            for coin_value, prob in p.coin.enumerate():
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
            RelationTable({(0, 0): frozenset()}, {(0, 0): 1.0})

    def test_relation_table_mu_must_normalize(self):
        with pytest.raises(ValueError, match="sums"):
            RelationTable({(0, 0): frozenset({1})}, {(0, 0): 0.25})

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="sums"):
            validate_distribution({"0": 0.4, "1": 0.4}, 1)
        with pytest.raises(ValueError, match="bitstring"):
            validate_distribution({"2": 1.0}, 1)


def test_wilson_interval_monotone_in_trials():
    _, lo1, hi1 = wilson_interval(70, 100)
    _, lo2, hi2 = wilson_interval(700, 1000)
    assert hi2 - lo2 < hi1 - lo1


def test_trial_rng_is_order_independent():
    a = [trial_rng(9, t).random() for t in (0, 1, 2)]
    b = [trial_rng(9, t).random() for t in (2, 1, 0)]
    assert a == b[::-1]


def test_uniform_int_coin_enumerates_exactly():
    coin = uniform_int_coin(8)
    pairs = list(coin.enumerate())
    assert len(pairs) == 8
    assert abs(sum(p for _, p in pairs) - 1.0) <= 1e-12
