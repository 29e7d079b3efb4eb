import math

import numpy as np
import pytest

from smplab.errors import DimensionCapError, ReplayMismatchError, VanishingProjectionError
from smplab.protocols import (
    equality_code,
    hidden_matching_verification,
    toy_quantum_equality,
)
from smplab.qcore import (
    DensityMatrix,
    MeasurementOperator,
    acceptance_probability,
    average_observable,
    random_density,
    random_measurement_operator,
)
from smplab.rng import trial_rng
from smplab.smp import Cost, SmpProtocol, TableReferee, exact_acceptance, uniform_int_coin
from smplab.transforms import (
    LearnRecord,
    bad_count_bound,
    check_learn_inputs,
    compile_qc_to_cc,
    default_copies,
    derandomize_alice,
    learn_state_message,
    reconstruct_estimates,
)

DIAG = np.diag


def proj(bits) -> MeasurementOperator:
    return MeasurementOperator(DIAG(np.array(bits, dtype=float)).astype(complex))


class TestBadCountBound:
    def test_value_at_k4(self):
        # oracle: direct evaluation of ceil(5 / log2(1/0.975)) + 1
        eta = 1 - 0.1 / 4
        expect = math.ceil(5 / math.log2(1 / eta)) + 1
        assert expect == 138
        assert bad_count_bound(4, 0.1) == 138

    def test_value_near_half(self):
        # oracle: eta -> 0.875, ceil(2 / log2(8/7)) + 1
        delta = 0.5 - 1e-9
        expect = math.ceil(2 / math.log2(1 / (1 - delta / 4))) + 1
        assert expect == 12
        assert bad_count_bound(1, delta) == 12

    def test_monotone_in_k_and_delta(self):
        for k in range(1, 8):
            assert bad_count_bound(k + 1, 0.1) >= bad_count_bound(k, 0.1)
        for d1, d2 in [(0.05, 0.1), (0.1, 0.2), (0.2, 0.4)]:
            assert bad_count_bound(5, d1) >= bad_count_bound(5, d2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bad_count_bound(0, 0.1)
        with pytest.raises(ValueError):
            bad_count_bound(3, 0.5)


class TestLearnStateMessage:
    def test_identity_family_needs_no_corrections(self):
        rho = random_density(2, np.random.default_rng(0))
        ops = [MeasurementOperator.identity(2)] * 4
        rec, diag = learn_state_message(rho, ops, delta=0.1, r=2)
        assert rec.entries == ()
        assert diag.bad_count == 0

    def test_zero_family_needs_no_corrections(self):
        rho = random_density(2, np.random.default_rng(1))
        ops = [MeasurementOperator(np.zeros((2, 2), dtype=complex))] * 2
        rec, _ = learn_state_message(rho, ops, delta=0.1, r=2)
        assert rec.entries == ()

    def test_basis_state_fixture(self):
        # rho = |0><0| against (|0><0|, |1><1|), delta 0.1, two copies: the first
        # index reads 1/2 on the mixed hypothesis and gets corrected to 1.0;
        # the projection onto the all-accept space then predicts the second
        # index exactly, so it is skipped.
        rho = DensityMatrix.pure([1, 0])
        ops = [proj([1, 0]), proj([0, 1])]
        rec, diag = learn_state_message(rho, ops, delta=0.1, r=2)
        assert diag.estimates_before[0] == pytest.approx(0.5, abs=1e-12)
        assert rec.entries == ((0, 1.0),)
        est = reconstruct_estimates(rec, ops)
        assert np.allclose(est, [1.0, 0.0], atol=1e-12)
        assert max(abs(est - np.array([1.0, 0.0]))) <= 0.1

    def test_truncation_grid(self):
        rho = DensityMatrix(DIAG([0.73, 0.27]).astype(complex))
        ops = [proj([1, 0]), proj([1, 0])]
        rec, _ = learn_state_message(rho, ops, delta=0.16, r=8)
        for _, p_tilde in rec.entries:
            steps = p_tilde / (0.16 / 8)
            assert abs(steps - round(steps)) <= 1e-9

    def test_entries_strictly_increasing_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LearnRecord(q=1, c=2, r=2, delta=0.1, entries=((1, 0.5), (1, 0.25)))

    def test_degenerate_projection_raises_with_step(self):
        # truncated value 0.3 sits mid-gap of the two-copy success-fraction
        # spectrum {0, 1/2, 1}, so the band is empty
        rho = DensityMatrix(DIAG([0.3, 0.7]).astype(complex))
        ops = [proj([1, 0]), proj([1, 0])]
        with pytest.raises(VanishingProjectionError) as err:
            learn_state_message(rho, ops, delta=0.1, r=2)
        assert err.value.step == 0

    def test_band_edge_flagging(self):
        # corrected value 0.05 puts the lower band edge exactly on eigenvalue 0
        rho = DensityMatrix(DIAG([0.95, 0.05]).astype(complex))
        ops = [proj([0, 1]), proj([0, 1])]
        rec, diag = learn_state_message(rho, ops, delta=0.1, r=2)
        assert rec.entries[0] == (0, 0.05)
        assert 0 in diag.flagged_steps

    def test_default_copies_policy(self):
        assert default_copies(1, 0.1) == 8
        assert default_copies(2, 0.1) == 4
        assert default_copies(3, 0.1) == 2
        assert default_copies(1, 0.45) >= 2

    @pytest.mark.parametrize("delta", [0.0, -0.1, 0.5])
    def test_default_copies_rejects_delta_outside_range(self, delta):
        with pytest.raises(ValueError, match=r"need delta in \(0, 1/2\)"):
            default_copies(1, delta)


class TestReconstruct:
    def test_empty_record_identity_family(self):
        ops = [MeasurementOperator.identity(2)] * 4
        rec = LearnRecord(q=1, c=2, r=2, delta=0.1, entries=())
        assert np.allclose(reconstruct_estimates(rec, ops), 1.0)

    def test_roundtrip_three_copies_random_instances(self):
        # three copies leave eigenvalue gaps wider than the band, so some random
        # instances are degenerate by construction; on every instance where the
        # message exists the round trip must stay within delta, and degenerate
        # ones must fail loudly rather than return a bad estimate.
        completed, degenerate = 0, 0
        for i in range(50):
            g = trial_rng(321, i)
            q = int(g.integers(1, 3))
            c = int(g.integers(2, 4))
            rho = random_density(2**q, g)
            ops = [random_measurement_operator(2**q, g) for _ in range(2**c)]
            try:
                rec, _ = learn_state_message(rho, ops, 0.1, r=3)
            except VanishingProjectionError:
                degenerate += 1
                continue
            est = reconstruct_estimates(rec, ops)
            true = np.array([acceptance_probability(e, rho) for e in ops])
            assert np.max(np.abs(est - true)) <= 0.1
            completed += 1
        assert completed >= 30
        assert completed + degenerate == 50

    def test_markov_direction_on_corrections(self):
        eta = 1 - 0.1 / 4
        for i in range(20):
            g = trial_rng(654, i)
            rho = random_density(4, g)
            ops = [random_measurement_operator(4, g) for _ in range(4)]
            try:
                _, diag = learn_state_message(rho, ops, 0.1, r=4)
            except VanishingProjectionError:
                continue
            for trace in diag.projection_traces:
                assert trace <= eta + 1e-6

    def test_mismatched_family_detected(self):
        rho = DensityMatrix.pure([1, 0])
        ops = [proj([1, 0]), proj([0, 1])]
        rec, _ = learn_state_message(rho, ops, delta=0.1, r=2)
        wrong = [MeasurementOperator.identity(2), MeasurementOperator.identity(2)]
        with pytest.raises(ReplayMismatchError):
            reconstruct_estimates(rec, wrong)

    def test_record_field_consistency_checked(self):
        rec = LearnRecord(q=2, c=1, r=2, delta=0.1, entries=())
        with pytest.raises(ValueError, match="dimension"):
            reconstruct_estimates(rec, [proj([1, 0]), proj([0, 1])])


class TestRecordEncoding:
    def test_bit_length_formula(self):
        rec = LearnRecord(q=1, c=3, r=2, delta=0.1,
                          entries=((1, 0.5), (4, 1.0), (6, 0.0)))
        per_entry = 3 + math.ceil(math.log2(8 / 0.1)) + 3
        assert rec.encoded_bit_length == 3 * per_entry
        assert len(rec.to_bits()) == rec.encoded_bit_length

    def test_bits_roundtrip_dyadic_grid(self):
        # delta 0.25 puts the estimate grid on multiples of 1/32, exact in floats
        rec = LearnRecord(q=2, c=2, r=3, delta=0.25, entries=((0, 0.25), (3, 0.96875)))
        back = LearnRecord.from_bits(rec.to_bits(), q=2, c=2, r=3, delta=0.25)
        assert back == rec

    def test_bits_roundtrip_learned_record(self):
        rho = DensityMatrix(DIAG([0.85, 0.15]).astype(complex))
        ops = [proj([1, 0]), proj([0, 1])]
        rec, _ = learn_state_message(rho, ops, delta=0.1, r=8)
        back = LearnRecord.from_bits(rec.to_bits(), q=1, c=1, r=8, delta=0.1)
        assert back == rec

    def test_bytes_roundtrip(self):
        rec = LearnRecord(q=1, c=1, r=2, delta=0.1, entries=((0, 1.0),))
        assert LearnRecord.from_bytes(rec.to_bytes()) == rec

    @pytest.mark.parametrize("cut", [3, 10, 27, 28, 30, 45, -1])
    def test_truncated_bytes_raise_value_error(self, cut):
        data = LearnRecord(q=1, c=2, r=2, delta=0.1, entries=((0, 1.0), (3, 0.25))).to_bytes()
        assert len(data) == 28 + 2 * 12
        with pytest.raises(ValueError):
            LearnRecord.from_bytes(data[:cut])

    def test_trailing_bytes_raise_value_error(self):
        data = LearnRecord(q=1, c=1, r=2, delta=0.1, entries=((0, 1.0),)).to_bytes()
        with pytest.raises(ValueError, match="needs 40 bytes, got 41"):
            LearnRecord.from_bytes(data + b"\x00")

    def test_text_dump_mentions_every_entry(self):
        rec = LearnRecord(q=1, c=2, r=2, delta=0.1, entries=((1, 0.5), (2, 0.25)))
        dump = rec.text_dump()
        assert "01 0.5" in dump and "10 0.25" in dump


class TestDerandomizeAlice:
    def test_deterministic_alice_unchanged(self):
        p = SmpProtocol(
            name="already-deterministic",
            alice_strategy=lambda x, c: {format(x, "02b"): 1.0},
            bob_strategy=lambda y, c: {format(y, "01b"): 1.0},
            referee=TableReferee(fn=lambda a, b: float(a[0] == b)),
            alice_cost=Cost(bits=2),
            bob_cost=Cost(bits=1),
            alice_inputs=(0, 1, 2, 3),
            bob_inputs=(0, 1),
        )
        compiled, table = derandomize_alice(p, s=4)
        assert table.max_deviation == 0.0
        for x in p.alice_inputs:
            assert len(set(table.messages[x])) == 1
        for x in p.alice_inputs:
            for y in p.bob_inputs:
                assert exact_acceptance(compiled, x, y) == exact_acceptance(p, x, y)

    def test_equality_code_derandomization(self):
        p = equality_code(2, reps=1)
        compiled, table = derandomize_alice(p, s=12, seed=3)
        # independent verification of the multiset property for every x, b
        c_b = p.bob_cost.bits
        for x in p.alice_inputs:
            dist = p.alice_strategy(x, None)
            for v in range(2**c_b):
                b = format(v, f"0{c_b}b")
                target = sum(
                    pa * p.referee.accept_probability(a, b) for a, pa in dist.items()
                )
                got = sum(
                    p.referee.accept_probability(a, b) for a in table.messages[x]
                ) / table.multiplicity
                assert abs(got - target) <= 0.1
                assert (table.targets[x][b], table.empirical[x][b]) == (target, got)
        worst = max(
            abs(exact_acceptance(compiled, x, y) - exact_acceptance(p, x, y))
            for x in range(4)
            for y in range(4)
        )
        assert worst <= 0.1

    def test_cost_accounting(self):
        p = equality_code(2, reps=1)
        compiled, table = derandomize_alice(p, s=12, seed=3)
        c_a, c_b = p.alice_cost.bits, p.bob_cost.bits
        assert table.multiplicity == 12 * c_b
        assert compiled.alice_cost.bits == 12 * c_b * c_a
        (msg,) = compiled.alice_strategy(0, None)
        assert len(msg) == compiled.alice_cost.bits

    def test_failure_names_largest_deviation(self):
        # hand computation: Alice sends a fair bit and s * c_B = 1 copy is
        # drawn.  Bob message 0 is always accepted (target 1, deviation 0);
        # Bob message 1 is accepted iff Alice's bit is 1 (target 1/2, empirical
        # 0 or 1), so its deviation is 1/2 on every draw and no multiset passes
        p = SmpProtocol(
            name="fair-bit",
            alice_strategy=lambda x, c: {"0": 0.5, "1": 0.5},
            bob_strategy=lambda y, c: {"1": 1.0},
            referee=TableReferee(fn=lambda a, b: 1.0 if b == "0" else float(a == "1")),
            alice_cost=Cost(bits=1),
            bob_cost=Cost(bits=1),
            alice_inputs=(0,),
            bob_inputs=(0,),
        )
        with pytest.raises(ValueError, match=r"largest deviation 0\.5000 at Bob message 1\)"):
            derandomize_alice(p, s=1, max_attempts=3)

    def test_rejects_public_coin_and_quantum(self):
        from smplab.protocols import equality_public, toy_quantum_equality

        with pytest.raises(ValueError, match="private-coin"):
            derandomize_alice(equality_public(2, 1), s=2)
        with pytest.raises(ValueError, match="classical"):
            derandomize_alice(toy_quantum_equality(1), s=2)


class TestCompileQcToCc:
    def test_toy_q1_error_increase_within_delta(self):
        p = toy_quantum_equality(1)
        result = compile_qc_to_cc(p, delta=0.1, r=3)
        worst = max(
            abs(exact_acceptance(result.protocol, x, y) - exact_acceptance(p, x, y))
            for x in range(4)
            for y in range(4)
        )
        assert worst <= 0.1 + 1e-9

    def test_toy_q1_record_structure(self):
        # hand walk: the mixed hypothesis predicts 1/2 everywhere, so the first
        # index whose true probability is 0 or 1 gets corrected; the projected
        # hypothesis then predicts every later index exactly.  That index is 0
        # for |0> and |1> (true 1 and 0 under E_00) and 1 for |+> and |->.
        result = compile_qc_to_cc(toy_quantum_equality(1), delta=0.1, r=3)
        assert result.records[0].entries == ((0, 1.0),)
        assert result.records[1].entries == ((1, 1.0),)
        assert result.records[2].entries == ((0, 0.0),)
        assert result.records[3].entries == ((1, 0.0),)

    def test_toy_q2_stays_exact_within_delta(self):
        p = toy_quantum_equality(2)
        result = compile_qc_to_cc(p, delta=0.1)
        err = max(
            abs(exact_acceptance(result.protocol, x, y) - float(x == y))
            for x in range(4)
            for y in range(4)
        )
        assert err <= 0.1 + 1e-9

    def test_verification_fixture_error_increase(self):
        p = hidden_matching_verification(4)
        result = compile_qc_to_cc(p, delta=0.1)
        worst = 0.0
        for x in p.alice_inputs:
            for y in p.bob_inputs:
                worst = max(
                    worst,
                    abs(
                        exact_acceptance(result.protocol, x, y)
                        - exact_acceptance(p, x, y)
                    ),
                )
        assert worst <= 0.1 + 1e-9

    def test_message_length_matches_record_encoding(self):
        p = toy_quantum_equality(1)
        result = compile_qc_to_cc(p, delta=0.1, r=3)
        lengths = []
        for x in range(4):
            (msg,) = result.protocol.alice_strategy(x, None)
            assert len(msg) == result.records[x].encoded_bit_length
            lengths.append(len(msg))
        assert result.protocol.alice_cost.bits == max(lengths)

    def test_public_coin_compiled_per_coin_value(self):
        # coin flips which basis encodes the input; compiling fixes each coin
        # value separately and the referee still sees only (message, b)
        states = toy_quantum_equality(1).alice_strategy
        base = toy_quantum_equality(1)

        def alice(x, coin):
            return base.alice_strategy(x ^ coin, None)

        p = SmpProtocol(
            name="coin-flipped-toy",
            alice_strategy=alice,
            bob_strategy=lambda y, coin: {format(y ^ coin, "02b"): 1.0},
            referee=base.referee,
            alice_cost=base.alice_cost,
            bob_cost=base.bob_cost,
            coin=uniform_int_coin(2),
            alice_inputs=(0, 1, 2, 3),
            bob_inputs=(0, 1, 2, 3),
        )
        result = compile_qc_to_cc(p, delta=0.1, r=3)
        assert set(result.records) == {(x, c) for x in range(4) for c in range(2)}
        worst = max(
            abs(exact_acceptance(result.protocol, x, y) - exact_acceptance(p, x, y))
            for x in range(4)
            for y in range(4)
        )
        assert worst <= 0.1 + 1e-9

    def test_rejects_non_canonical_protocols(self):
        with pytest.raises(ValueError, match="canonical"):
            compile_qc_to_cc(equality_code(2), delta=0.1)


class TestSharedObservables:
    """One spectral build per family serves the sender and the receiver bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_records_diagnostics_and_estimates_identical(self, seed):
        g = np.random.default_rng(seed)
        q = 1 + seed % 2
        rho = random_density(2**q, g)
        ops = [random_measurement_operator(2**q, g) for _ in range(8)]
        r = 8 // q
        shared = [average_observable(e, r) for e in ops]
        fresh = learn_state_message(rho, ops, 0.1, r)
        reused = learn_state_message(rho, ops, 0.1, r, observables=shared)
        assert reused == fresh
        record = fresh[0]
        assert np.array_equal(
            reconstruct_estimates(record, ops, observables=shared),
            reconstruct_estimates(record, ops),
        )

    def test_some_instance_corrects(self):
        # the comparison above must cover correction steps, not only skips
        g = np.random.default_rng(0)
        rho = random_density(2, g)
        ops = [random_measurement_operator(2, g) for _ in range(8)]
        record, _ = learn_state_message(rho, ops, 0.1, 8)
        assert record.entries


class TestCheckLearnInputs:
    def test_returns_resolved_shape(self):
        ops = [proj([1, 0]), proj([0, 1])]
        assert check_learn_inputs(DensityMatrix.pure([1, 0]), ops, 0.1) == (
            1, 1, default_copies(1, 0.1),
        )

    @pytest.mark.parametrize("delta, r, ops, match", [
        (0.7, 13, [proj([1, 0]), proj([0, 1])], "delta"),
        (0.1, 13, [proj([1, 0])] * 3, "power-of-two"),
        (0.1, 13, [proj([1, 0]), proj([1, 0, 0, 0])], "mixed dimensions"),
        (0.1, 13, [proj([1, 0, 0, 0])] * 2, "state dimension"),
    ])
    def test_first_fault_wins_as_in_the_learner(self, delta, r, ops, match):
        # r = 13 would also exceed the dimension cap; the earlier fault is reported
        rho = DensityMatrix.pure([1, 0])
        for fn in (check_learn_inputs, learn_state_message):
            with pytest.raises(ValueError, match=match) as err:
                fn(rho, ops, delta, r)
            assert not isinstance(err.value, DimensionCapError)

    def test_cap(self):
        ops = [proj([1, 0]), proj([0, 1])]
        with pytest.raises(DimensionCapError, match="r\\*q = 13"):
            check_learn_inputs(DensityMatrix.pure([1, 0]), ops, 0.1, 13)
