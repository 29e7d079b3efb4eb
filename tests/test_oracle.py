from fractions import Fraction

import numpy as np
import pytest

from smplab.codes import LinearCode, cyclic_mask_code
from smplab.errors import CapExceededError
from smplab.oracle import (
    DeterministicSmpProtocol,
    booleanize,
    decode_booleanized,
    det_complexity_function,
    det_complexity_relation,
    exhaustive_function_search,
    extract_function,
    search_relation_protocol,
    union_bound_check,
)
from smplab.protocols import equality_function, xor_matching
from smplab.rng import trial_rng
from smplab.smp import FunctionTable, RelationTable


def uniform_mu(pairs):
    w = Fraction(1, len(pairs))
    return {pair: w for pair in pairs}


def equality_relation_1bit() -> RelationTable:
    pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
    return RelationTable(
        valid={(x, y): frozenset([int(x == y)]) for x, y in pairs},
        mu=uniform_mu(pairs),
    )


class TestDetComplexityFunction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equality_total_cost_2n(self, n):
        c_a, c_b = det_complexity_function(equality_function(n))
        assert (c_a, c_b) == (n, n)

    def test_constant_function_is_free(self):
        f = FunctionTable((0, 1), (0, 1), {(x, y): 1 for x in (0, 1) for y in (0, 1)})
        assert det_complexity_function(f) == (0, 0)

    def test_first_bit_projection(self):
        xs = (0, 1, 2, 3)
        ys = (0, 1)
        f = FunctionTable(xs, ys, {(x, y): x & 1 for x in xs for y in ys})
        assert det_complexity_function(f) == (1, 0)

    def test_partial_function_rejected(self):
        f = FunctionTable((0, 1), (0, 1), {(0, 0): 1})
        with pytest.raises(ValueError, match="relation"):
            det_complexity_function(f)

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_exhaustive_search(self, n):
        f = equality_function(n)
        c_a, c_b = det_complexity_function(f)
        assert exhaustive_function_search(f) == c_a + c_b

    def test_agrees_with_search_on_random_tables(self):
        for i in range(8):
            g = trial_rng(88, i)
            xs, ys = (0, 1, 2), (0, 1, 2)
            f = FunctionTable(
                xs, ys, {(x, y): int(g.integers(0, 2)) for x in xs for y in ys}
            )
            c_a, c_b = det_complexity_function(f)
            assert exhaustive_function_search(f) == c_a + c_b

    def test_zero_error_alice_map_must_separate_rows(self):
        # any deterministic protocol whose Alice merges two inputs with
        # different rows errs somewhere; enumeration over tiny protocols
        f = equality_function(1)
        found = search_relation_protocol(
            RelationTable(
                valid={pair: frozenset([f(*pair)]) for pair in f.domain},
                mu=uniform_mu(f.domain),
            )
        )
        assert found is not None
        _, proto = found
        assert len(set(proto.alice_map.values())) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equality_zero_error_needs_injective_alice(self, n):
        # enumerate every way Alice could merge inputs: with Bob fully
        # separating (the easiest case for the referee), no merged Alice map
        # admits a referee that is right on all pairs.  Coarser Bob maps only
        # shrink the per-cell option sets, so this covers all protocols.
        from smplab.oracle import _feasible_referee, _partitions_into

        xs = list(range(2**n))
        ys = list(range(2**n))
        f = equality_function(n)
        valid = {pair: frozenset([f(*pair)]) for pair in f.domain}
        support = list(f.domain)
        bob_injective = list(range(len(ys)))
        for a_assign in _partitions_into(xs, len(xs)):
            injective = len(set(a_assign)) == len(xs)
            feasible = (
                _feasible_referee(xs, ys, a_assign, bob_injective, valid, support)
                is not None
            )
            assert feasible == injective


class TestDetComplexityRelation:
    def test_everything_valid_costs_nothing(self):
        pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
        r = RelationTable(
            valid={p: frozenset([0, 1]) for p in pairs}, mu=uniform_mu(pairs)
        )
        assert det_complexity_relation(r) == 0

    def test_equality_as_relation_costs_two(self):
        assert det_complexity_relation(equality_relation_1bit()) == 2

    def test_hidden_matching_slice_matches_hand_protocol(self):
        # four strings whose edge parities collide enough that no single-bit
        # Alice message works, so identity maps (2 + 2 bits) are optimal
        n = 4
        xs = (0b0000, 0b0011, 0b0101, 0b1111)
        ks = (1, 2, 3)
        valid = {}
        for x in xs:
            for k in ks:
                valid[(x, k)] = frozenset(
                    (i, j, ((x >> i) & 1) ^ ((x >> j) & 1))
                    for i, j in xor_matching(n, k)
                )
        relation = RelationTable(valid, uniform_mu(list(valid)))
        found = search_relation_protocol(relation)
        assert found is not None
        cost, proto = found
        assert cost == 4
        for (x, k) in valid:
            assert proto.output(x, k) in valid[(x, k)]

    def test_cap_exceeded_reported(self):
        pairs = [(x, y) for x in range(7) for y in range(6)]
        r = RelationTable(
            valid={p: frozenset([0]) for p in pairs}, mu=uniform_mu(pairs)
        )
        with pytest.raises(CapExceededError):
            det_complexity_relation(r)


class TestExtractFunction:
    def test_valid_protocol_has_zero_error(self):
        relation = equality_relation_1bit()
        _, proto = search_relation_protocol(relation)
        f, err = extract_function(proto, relation)
        assert err == 0
        assert f.is_total

    def test_constant_output_error_mass(self):
        pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
        valid = {p: frozenset([0]) for p in pairs}
        valid[(1, 1)] = frozenset([1])  # constant 0 is invalid here only
        relation = RelationTable(valid, uniform_mu(pairs))
        proto = DeterministicSmpProtocol(
            alice_map={0: "", 1: ""}, bob_map={0: "", 1: ""},
            referee_map={("", ""): 0},
        )
        f, err = extract_function(proto, relation)
        assert err == Fraction(1, 4)
        assert all(f(x, y) == 0 for x, y in pairs)

    def test_extracted_function_cost_bounded_by_protocol_cost(self):
        relation = equality_relation_1bit()
        cost, proto = search_relation_protocol(relation)
        f, _ = extract_function(proto, relation)
        c_a, c_b = det_complexity_function(f)
        assert c_a + c_b <= cost


class TestUnionBound:
    def test_exact_protocol_zero_everywhere(self):
        relation = equality_relation_1bit()
        _, proto = search_relation_protocol(relation)
        f, _ = extract_function(proto, relation)
        report = union_bound_check(proto, f, relation)
        assert report.relation_error == 0
        assert report.disagreement_with_f == 0
        assert report.f_invalid_mass == 0
        assert report.holds

    def test_constructed_errors_add_up(self):
        # p_a disagrees with f on one of four cells and f is invalid on another
        pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
        valid = {p: frozenset([0]) for p in pairs}
        valid[(1, 1)] = frozenset([1])
        relation = RelationTable(valid, uniform_mu(pairs))
        f = FunctionTable((0, 1), (0, 1), {p: 0 for p in pairs})  # invalid at (1,1)
        proto = DeterministicSmpProtocol(
            alice_map={0: "0", 1: "1"}, bob_map={0: "0", 1: "1"},
            referee_map={(a, b): int(a == "1" and b == "1") for a in "01" for b in "01"},
        )
        report = union_bound_check(proto, f, relation)
        assert report.disagreement_with_f == Fraction(1, 4)
        assert report.f_invalid_mass == Fraction(1, 4)
        assert report.relation_error == 0
        assert report.holds

    def test_never_violated_on_random_instances(self):
        for i in range(100):
            g = trial_rng(4096, i)
            xs, ys = (0, 1, 2), (0, 1)
            pairs = [(x, y) for x in xs for y in ys]
            valid = {
                p: frozenset(
                    int(z) for z in np.flatnonzero(g.integers(0, 2, size=4))
                ) or frozenset([0])
                for p in pairs
            }
            relation = RelationTable(valid, uniform_mu(pairs))
            f = FunctionTable(
                xs, ys, {p: int(g.integers(0, 4)) for p in pairs}
            )
            proto = DeterministicSmpProtocol(
                alice_map={x: format(x, "02b") for x in xs},
                bob_map={y: format(y, "01b") for y in ys},
                referee_map={
                    (format(x, "02b"), format(y, "01b")): int(g.integers(0, 4))
                    for x in xs
                    for y in ys
                },
            )
            assert union_bound_check(proto, f, relation).holds


class TestBooleanize:
    def test_repetition_gives_identical_copies(self):
        f = equality_function(1)
        repetition = LinearCode(np.ones((10, 1), dtype=np.uint8), 2, 5)
        tables = booleanize(f, repetition, min_relative_distance=0.5)
        assert len(tables) == 10
        for t in tables:
            assert t.values == f.values

    def test_two_bit_outputs_decode_exactly(self):
        xs, ys = (0, 1, 2), (0, 1, 2)
        g_rng = trial_rng(11, 0)
        f = FunctionTable(
            xs, ys, {(x, y): int(g_rng.integers(0, 4)) for x in xs for y in ys}
        )
        code = cyclic_mask_code(2, 20)
        tables = booleanize(f, code)
        assert len(tables) == 20
        for x in xs:
            for y in ys:
                assert decode_booleanized(tables, code, x, y) == f(x, y)

    def test_decoding_tolerates_minority_corruption(self):
        from smplab.codes import min_distance_bruteforce

        f = equality_function(1)
        code = cyclic_mask_code(1, 10)
        tables = booleanize(f, code)
        budget = (min_distance_bruteforce(code) - 1) // 2
        corrupted = list(tables)
        for j in range(budget):
            t = corrupted[j]
            flipped = dict(t.values)
            flipped[(0, 0)] ^= 1
            corrupted[j] = FunctionTable(t.alice_inputs, t.bob_inputs, flipped)
        assert decode_booleanized(corrupted, code, 0, 0) == f(0, 0)

    def test_distance_verification_enforced(self):
        f = equality_function(1)
        with pytest.raises(ValueError, match="distance"):
            booleanize(f, cyclic_mask_code(1, 10), min_relative_distance=1.1)

    def test_outputs_must_fit_declared_width(self):
        f = FunctionTable((0,), (0,), {(0, 0): 7})
        with pytest.raises(ValueError, match="fit"):
            booleanize(f, cyclic_mask_code(2, 20))

