from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smplab.cli as cli
import smplab.oracle as oracle
import smplab.rng as rng
from smplab.cli import _chain_valid_sets
from smplab.codes import LinearCode, cyclic_mask_code
from smplab.config import DEFAULT, with_overrides
from smplab.errors import CapExceededError
from smplab.oracle import (
    DeterministicSmpProtocol,
    booleanize,
    decode_booleanized,
    det_complexity_function,
    exhaustive_function_search,
    extract_function,
    search_relation_protocol,
    union_bound_check,
)
from smplab.protocols import equality_function, xor_matching
from smplab.rng import TrialDraws, trial_rng
from smplab.smp import FunctionTable, RelationTable


# -- the frozenset search, kept as the oracle for the bitmask search ---------


def partitions_into(items: list, max_blocks: int) -> Iterator[list[int]]:
    """Assignments item -> block index in canonical (first-appearance) order."""
    n = len(items)

    def rec(i: int, used: int, assignment: list[int]):
        if i == n:
            yield list(assignment)
            return
        for block in range(min(used + 1, max_blocks)):
            assignment.append(block)
            yield from rec(i + 1, max(used, block + 1), assignment)
            assignment.pop()

    yield from rec(0, 0, [])


def feasible_referee(xs, ys, a_assign, b_assign, valid: Mapping, support):
    """Pick one valid output per message cell, or None when a cell is empty."""
    cells: dict = {}
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: i for i, y in enumerate(ys)}
    for x, y in support:
        cell = (a_assign[xi[x]], b_assign[yi[y]])
        options = valid[(x, y)]
        cells[cell] = options if cell not in cells else cells[cell] & options
        if not cells[cell]:
            return None
    return {cell: sorted(options, key=repr)[0] for cell, options in cells.items()}


def reference_walk(nx: int, ny: int, max_bits: int) -> Iterator[tuple]:
    """(total, Alice assignment, Bob assignment) for every total, every split
    of it and every assignment within each side's share, repeats included."""
    for total in range(max_bits + 1):
        for c_a in range(total + 1):
            for a_assign in partitions_into(range(nx), 2**c_a):
                for b_assign in partitions_into(range(ny), 2 ** (total - c_a)):
                    yield total, tuple(a_assign), tuple(b_assign)


def reference_search(relation: RelationTable, max_bits: int = DEFAULT.relation_bits_cap):
    xs = sorted({x for x, _ in relation.valid}, key=repr)
    ys = sorted({y for _, y in relation.valid}, key=repr)
    for total, a_assign, b_assign in reference_walk(len(xs), len(ys), max_bits):
        referee = feasible_referee(xs, ys, a_assign, b_assign, relation.valid, relation.support)
        if referee is not None:
            return total, DeterministicSmpProtocol(
                alice_map=dict(zip(xs, a_assign)),
                bob_map=dict(zip(ys, b_assign)),
                referee_map=referee,
            )
    return None


# outputs 9 and 10 sort as "10" < "9" by repr, against numeric order
OUTPUTS = (0, 1, 2, 9, 10)


@st.composite
def relations(draw):
    """Random relations on |X| <= 6, |Y| <= 4 with integer weights, some zero.

    Alice's side reaches 5 and 6 items, whose injective maps need 3 bits.
    """
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 4))
    assert nx * ny <= DEFAULT.relation_xy_cap
    pairs = [(x, y) for x in range(nx) for y in range(ny)]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    if not any(weights):
        weights[draw(st.integers(0, len(pairs) - 1))] = 1
    valid = {
        pair: frozenset(draw(st.sets(st.sampled_from(OUTPUTS), min_size=1 if w else 0)))
        for pair, w in zip(pairs, weights)
    }
    return RelationTable(valid, dict(zip(pairs, weights)))


def uniform_mu(pairs):
    return dict.fromkeys(pairs, 1)


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
        xs = list(range(2**n))
        ys = list(range(2**n))
        f = equality_function(n)
        valid = {pair: frozenset([f(*pair)]) for pair in f.domain}
        support = list(f.domain)
        bob_injective = list(range(len(ys)))
        for a_assign in partitions_into(xs, len(xs)):
            injective = len(set(a_assign)) == len(xs)
            feasible = (
                feasible_referee(xs, ys, a_assign, bob_injective, valid, support)
                is not None
            )
            assert feasible == injective


class TestDetComplexityRelation:
    def test_everything_valid_costs_nothing(self):
        pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
        r = RelationTable(
            valid={p: frozenset([0, 1]) for p in pairs}, mu=uniform_mu(pairs)
        )
        assert search_relation_protocol(r)[0] == 0

    def test_equality_as_relation_costs_two(self):
        assert search_relation_protocol(equality_relation_1bit())[0] == 2

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

    @settings(max_examples=100, deadline=None)
    @given(relation=relations(), cap=st.integers(1, DEFAULT.relation_bits_cap))
    def test_bitmask_search_equals_frozenset_search(self, relation, cap):
        tol = with_overrides(DEFAULT, relation_bits_cap=cap)
        assert search_relation_protocol(relation, tol) == reference_search(relation, cap)

    def test_repr_order_picks_ten_before_nine(self):
        pairs = [(0, 0), (0, 1)]
        r = RelationTable({p: frozenset([9, 10]) for p in pairs}, uniform_mu(pairs))
        cost, proto = search_relation_protocol(r)
        assert cost == 0
        assert proto.referee_map == {(0, 0): 10}

    def test_large_shape_is_searched_lazily_and_not_kept(self, monkeypatch):
        # |X| = 9 is past the lattice's item limit: its assignments are
        # enumerated on the fly, while the 1-item Bob side is kept
        monkeypatch.setattr(oracle, "_lattice", {})
        pairs = [(x, 0) for x in range(oracle._LATTICE_MAX_ITEMS + 1)]
        r = RelationTable({(x, y): frozenset([x % 2]) for x, y in pairs}, uniform_mu(pairs))
        found = search_relation_protocol(r)
        assert found == reference_search(r)
        assert found[0] == 1
        assert set(oracle._lattice) == {(1, 0)}

    def test_small_shapes_share_one_lattice(self, monkeypatch):
        monkeypatch.setattr(oracle, "_lattice", {})
        search_relation_protocol(equality_relation_1bit())
        kept = dict(oracle._lattice)
        assert kept and all(n == 2 for n, _ in kept)
        search_relation_protocol(equality_relation_1bit())
        assert all(oracle._lattice[key] is kept[key] for key in kept)

    def test_equals_the_reference_on_the_suites_relations(self):
        pairs = [(x, y) for x in (0, 1, 2) for y in (0, 1)]
        for valid in islice(_chain_valid_sets(2026, 3000), 300):
            r = RelationTable(valid, uniform_mu(pairs))
            assert search_relation_protocol(r) == reference_search(r)

    def test_cap_exceeded_reported(self):
        pairs = [(x, y) for x in range(7) for y in range(6)]
        r = RelationTable(
            valid={p: frozenset([0]) for p in pairs}, mu=uniform_mu(pairs)
        )
        with pytest.raises(CapExceededError):
            search_relation_protocol(r)


# pair sets whose pair objects every search below shares, so that a search
# after the first on a set reuses its set-up: str and int inputs, 2 and 10
# ("10" sorts before "2" by repr), several shapes, and two couples of sets
# whose pairs are equal ((1, 0) == (True, 0)): the inputs of the first
# couple sort differently by repr, those of the second alike
SHARED_PAIR_SETS = [
    [(x, y) for x in (2, 10) for y in ("a", 1)],
    [(x, y) for x in (0, 1, 2) for y in (0, 1)],
    [(x, 0) for x in ("b", 3, 10, 2)],
    [(x, y) for x in (1, 2) for y in (0, 5, 10)],
    [(1, 0), (2, 0), (1, 9), (2, 9)],
    [(True, 0), (2, 0), (True, 9), (2, 9)],
    [("z", 0), (1, 0), ("z", 9), (1, 9)],
    [("z", 0), (True, 0), ("z", 9), (True, 9)],
]


class TestSetupReuse:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_an_interleaved_stream_equals_the_reference(self, data):
        # each relation takes a shared pair set in a drawn order and its own
        # valid sets, weights and bits cap; a set-up keyed on less than its
        # pair objects and cap hands a later search the wrong inputs or plan
        stream = data.draw(st.lists(
            st.tuples(st.integers(0, len(SHARED_PAIR_SETS) - 1), st.integers(1, 6)),
            min_size=2, max_size=12))
        for k, cap in stream:
            pairs = data.draw(st.permutations(SHARED_PAIR_SETS[k]))
            weights = data.draw(st.lists(st.integers(0, 2), min_size=len(pairs),
                                         max_size=len(pairs)).filter(any))
            valid = {p: data.draw(st.frozensets(st.sampled_from((0, 1, 9, 10, "z")), min_size=1))
                     for p in pairs}
            r = RelationTable(valid, dict(zip(pairs, weights)))
            found = search_relation_protocol(r, with_overrides(DEFAULT, relation_bits_cap=cap))
            expected = reference_search(r, cap)
            # repr tells 1 from True and shows each map's order
            assert found == expected and repr(found) == repr(expected)

    def test_equal_pairs_that_print_differently_do_not_share_a_set_up(self):
        # Alice must separate 1 or True from the other input, 2, which 1
        # precedes by repr and True follows, or "z", which both follow
        alices = ({1: 0, 2: 1}, {2: 0, True: 1}, {"z": 0, 1: 1}, {"z": 0, True: 1})
        for pairs, alice in zip(SHARED_PAIR_SETS[4:], alices):
            r = RelationTable({(x, y): frozenset([int(x in (2, "z"))]) for x, y in pairs},
                              uniform_mu(pairs))
            found = search_relation_protocol(r)
            assert found == reference_search(r)
            assert repr(found[1].alice_map) == repr(alice)

    def test_the_suites_relations_build_one_set_up(self):
        oracle._setup.cache_clear()
        for valid in islice(_chain_valid_sets(2026, 3000), 300):
            search_relation_protocol(RelationTable(valid, uniform_mu(cli._CHAIN_PAIRS)))
        info = oracle._setup.cache_info()
        assert (info.misses, info.hits) == (1, 299)

    def test_a_large_pair_sets_plan_is_not_held(self):
        pairs = tuple((x, 0) for x in range(oracle._LATTICE_MAX_ITEMS))
        xs, ys, at, plan = oracle._setup(tuple(map(id, pairs)), pairs, 36, 6)
        assert plan == () and at[pairs[-1]] == (len(pairs) - 1, 0)
        pairs = pairs[1:]
        assert len(oracle._setup(tuple(map(id, pairs)), pairs, 36, 6)[3]) == 877


class TestChainErrors:
    """The errors the chain raises on malformed inputs, pinned."""

    pairs = [(x, y) for x in (0, 1) for y in ("a", "b")]

    def relation(self) -> RelationTable:
        return RelationTable({p: frozenset([0]) for p in self.pairs}, uniform_mu(self.pairs))

    def test_union_bound_names_a_support_pair_outside_fs_domain(self):
        proto = DeterministicSmpProtocol({0: 0, 1: 0}, {"a": 0, "b": 0}, {(0, 0): 0})
        f = FunctionTable((0, 1), ("a", "b"), {(0, "a"): 0, (0, "b"): 0, (1, "a"): 0})
        with pytest.raises(ValueError, match=r"^\(1, 'b'\) outside the promise domain$"):
            union_bound_check(proto, f, self.relation())

    def test_union_bound_raises_key_error_for_a_cell_p_a_leaves_undefined(self):
        proto = DeterministicSmpProtocol({0: 0, 1: 1}, {"a": 0, "b": 0}, {(0, 0): 0})
        f = FunctionTable((0, 1), ("a", "b"), dict.fromkeys(self.pairs, 0))
        with pytest.raises(KeyError) as info:
            union_bound_check(proto, f, self.relation())
        assert info.value.args == ((1, 0),)

    def test_extract_function_raises_key_error_naming_an_undefined_support_pair(self):
        proto = DeterministicSmpProtocol({0: 0, 1: 1}, {"a": 0, "b": 0}, {(0, 0): 0})
        with pytest.raises(KeyError) as info:
            extract_function(proto, self.relation())
        assert info.value.args == ((1, "a"),)


# (|X|, |Y|, bits cap) of plans: the suite's shape, a cap below the top cost,
# 3-bit Alice maps and a side past the lattice's item limit
PLAN_SHAPES = [(3, 2, 6), (1, 1, 0), (4, 3, 3), (6, 4, 6), (5, 1, 2), (2, 7, 6), (9, 1, 6)]


class TestPlan:
    @staticmethod
    def cost(assign: tuple) -> int:
        return (len(set(assign)) - 1).bit_length()

    @pytest.mark.parametrize("nx, ny, cap", PLAN_SHAPES)
    def test_each_pair_once_at_its_exact_cost(self, nx, ny, cap):
        plan = list(oracle._plan(nx, ny, cap))
        assert len({(a, b) for _, a, b in plan}) == len(plan)
        assert all(total == self.cost(a) + self.cost(b) <= cap for total, a, b in plan)

    @pytest.mark.parametrize("nx, ny, cap", PLAN_SHAPES)
    def test_plan_is_the_reference_walks_first_occurrences(self, nx, ny, cap):
        first = {}
        for total, a, b in reference_walk(nx, ny, cap):
            first.setdefault((a, b), total)
        assert [(total, a, b) for (a, b), total in first.items()] == list(
            oracle._plan(nx, ny, cap))

    def test_suite_shape_holds_ten_candidates_where_the_walk_held_182(self):
        assert len(list(oracle._plan(3, 2, 6))) == 10
        assert len(list(reference_walk(3, 2, 6))) == 182


@pytest.mark.parametrize("xs, ys", [(range(1025), (0,)), ((0,), range(1025))],
                         ids=["alice", "bob"])
def test_function_complexity_caps_its_input_sets(xs, ys):
    f = FunctionTable(tuple(xs), tuple(ys), {(x, y): 0 for x in xs for y in ys})
    with pytest.raises(CapExceededError, match=r"^input sets capped at 2\*\*10$"):
        det_complexity_function(f)


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
            alice_map={0: 0, 1: 0}, bob_map={0: 0, 1: 0},
            referee_map={(0, 0): 0},
        )
        f, err = extract_function(proto, relation)
        assert err == Fraction(1, 4)
        assert all(f(x, y) == 0 for x, y in pairs)

    def test_cells_of_weight_zero_leave_the_function_partial(self):
        # both parties must separate, and the cell of (1, 1) holds only that
        # weight-zero pair, so the search leaves it off the referee
        pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
        valid = {(x, y): frozenset([x ^ y]) for x, y in pairs}
        mu = dict.fromkeys(pairs, 1)
        mu[(1, 1)] = 0
        relation = RelationTable(valid, mu)
        cost, proto = search_relation_protocol(relation)
        assert cost == 2 and (1, 1) not in proto.referee_map
        f, err = extract_function(proto, relation)
        assert err == 0
        assert sorted(f.domain) == [(0, 0), (0, 1), (1, 0)]
        assert union_bound_check(proto, f, relation).holds

    def test_weight_zero_pair_outside_the_valid_table(self):
        relation = RelationTable({(0, 0): frozenset([0])}, {(0, 0): 1, (1, 0): 0})
        _, proto = search_relation_protocol(relation)
        f, err = extract_function(proto, relation)
        assert err == 0 and f.domain == [(0, 0)]

    def test_extracted_function_cost_bounded_by_protocol_cost(self):
        relation = equality_relation_1bit()
        cost, proto = search_relation_protocol(relation)
        f, _ = extract_function(proto, relation)
        c_a, c_b = det_complexity_function(f)
        assert c_a + c_b <= cost


@pytest.mark.parametrize("valid, sums", [
    ({(0, 0): {0}, (0, 1): {1}, (1, 0): {0}, (1, 1): {1}},
     (Fraction(3, 5), Fraction(1, 5), Fraction(9, 10), Fraction(7, 10))),
    ({(x, y): {0, 1} for x in (0, 1) for y in (0, 1)}, (0, 0, Fraction(9, 10), 0)),
], ids=["invalid-mass", "no-invalid-mass"])
def test_integer_mu_sums_are_fractions_of_the_total(valid, sums):
    # weights 1..4 over a total of 10; an empty sum is the Fraction 0 too
    pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
    relation = RelationTable(
        {p: frozenset(v) for p, v in valid.items()}, dict(zip(pairs, (1, 2, 3, 4)))
    )
    constant = DeterministicSmpProtocol({0: 0, 1: 0}, {0: 0, 1: 0}, {(0, 0): 0})
    _, err = extract_function(constant, relation)
    p_a = DeterministicSmpProtocol(
        {0: 0, 1: 1}, {0: 0, 1: 1}, {(a, b): a & b for a in (0, 1) for b in (0, 1)}
    )
    xor = FunctionTable((0, 1), (0, 1), {(x, y): x ^ y for x, y in pairs})
    report = union_bound_check(p_a, xor, relation)
    got = (err, report.relation_error, report.disagreement_with_f, report.f_invalid_mass)
    assert got == sums
    assert all(type(v) is Fraction for v in got)


def test_empty_input_sets_cost_nothing():
    assert det_complexity_function(FunctionTable((), (0, 1), {})) == (0, 0)


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
            alice_map={0: 0, 1: 1}, bob_map={0: 0, 1: 1},
            referee_map={(a, b): int(a == 1 and b == 1) for a in (0, 1) for b in (0, 1)},
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
                alice_map={x: x for x in xs},
                bob_map={y: y for y in ys},
                referee_map={(x, y): int(g.integers(0, 4)) for x in xs for y in ys},
            )
            assert union_bound_check(proto, f, relation).holds


    @settings(max_examples=60, deadline=None)
    @given(relation=relations(), data=st.data())
    def test_chain_holds_on_random_shapes(self, relation, data):
        # the cheapest valid protocol's function is valid wherever mu is
        # positive, and the union bound holds for any deterministic p_a
        found = search_relation_protocol(relation)
        assert found is not None
        _, proto = found
        f, err = extract_function(proto, relation)
        assert err == 0
        xs, ys = f.alice_inputs, f.bob_inputs
        c_a, c_b = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        alice = {x: data.draw(st.integers(0, 2**c_a - 1)) for x in xs}
        bob = {y: data.draw(st.integers(0, 2**c_b - 1)) for y in ys}
        p_a = DeterministicSmpProtocol(
            alice_map=alice, bob_map=bob,
            referee_map={
                (a, b): data.draw(st.sampled_from(OUTPUTS))
                for a in set(alice.values()) for b in set(bob.values())
            },
        )
        report = union_bound_check(p_a, f, relation)
        assert report.f_invalid_mass == err
        assert report.holds


def random_protocol(data, xs, ys) -> DeterministicSmpProtocol:
    """A drawn deterministic protocol, not a search output, whose referee
    answers every message pair, so the function it computes is total."""
    c_a, c_b = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    return DeterministicSmpProtocol(
        alice_map={x: data.draw(st.integers(0, 2**c_a - 1)) for x in xs},
        bob_map={y: data.draw(st.integers(0, 2**c_b - 1)) for y in ys},
        referee_map={
            (a, b): data.draw(st.sampled_from(OUTPUTS))
            for a in range(2**c_a) for b in range(2**c_b)
        },
    )


def test_union_bound_terms_are_exact_sums_on_random_protocols():
    # neither protocol comes from the search, so every term can be above 0;
    # each must equal the Fraction sum of mu over the pairs it counts
    all_positive = []

    @settings(max_examples=200, deadline=None, database=None)
    @given(relation=relations(), data=st.data())
    def check(relation, data):
        xs = sorted({x for x, _ in relation.valid})
        ys = sorted({y for _, y in relation.valid})
        p_f, p_a = random_protocol(data, xs, ys), random_protocol(data, xs, ys)
        f, err = extract_function(p_f, relation)
        report = union_bound_check(p_a, f, relation)

        def mass(counted) -> Fraction:
            return sum((Fraction(w) for (x, y), w in relation.mu.items() if counted(x, y)),
                       Fraction(0)) / sum(relation.mu.values())

        def invalid(out, x, y) -> bool:
            return out not in relation.valid[(x, y)]

        expected = (
            mass(lambda x, y: invalid(p_a.output(x, y), x, y)),
            mass(lambda x, y: p_a.output(x, y) != p_f.output(x, y)),
            mass(lambda x, y: invalid(p_f.output(x, y), x, y)),
        )
        got = (report.relation_error, report.disagreement_with_f, report.f_invalid_mass)
        assert got == expected
        assert err == expected[2]
        assert all(type(v) is Fraction for v in (err, *got))
        assert report.holds
        all_positive.append(all(v > 0 for v in got))

    check()
    assert any(all_positive)


class TestChainDraws:
    @staticmethod
    def per_pair_draws(seed: int, i: int) -> dict:
        # the oracle suite's draws before they became one call per relation
        g = trial_rng(seed, i)
        pairs = [(x, y) for x in (0, 1, 2) for y in (0, 1)]
        return {
            p: frozenset(int(z) for z in np.flatnonzero(g.integers(0, 2, size=4)))
            or frozenset([0])
            for p in pairs
        }

    @staticmethod
    def per_relation_draws(seed: int, i: int) -> dict:
        # one integers(0, 2, size=(6, 4)) call per relation on its own generator
        rows = trial_rng(seed, i).integers(0, 2, size=(6, 4))
        pairs = [(x, y) for x in (0, 1, 2) for y in (0, 1)]
        return {
            p: frozenset(int(z) for z in np.flatnonzero(row)) or frozenset([0])
            for p, row in zip(pairs, rows)
        }

    @pytest.mark.parametrize("seed", [2026, 7])
    @pytest.mark.parametrize("count", [511, 512, 513, 1100])
    def test_blocks_equal_per_relation_generators(self, seed, count):
        drawn = list(_chain_valid_sets(seed, count))
        assert drawn == [self.per_relation_draws(seed, i) for i in range(count)]

    def test_no_block_exceeds_the_trial_block(self, monkeypatch):
        counts = []

        class CountedDraws(TrialDraws):
            def __init__(self, seed, start, count):
                super().__init__(seed, start, count)
                counts.append(count)

        monkeypatch.setattr(cli, "TrialDraws", CountedDraws)
        assert len(list(_chain_valid_sets(2026, 3000))) == 3000
        assert sum(counts) == 3000 and max(counts) <= rng._TRIAL_BLOCK

    def test_one_call_equals_per_pair_calls_on_the_suites_relations(self):
        drawn = list(_chain_valid_sets(2026, 3000))
        assert drawn == [self.per_pair_draws(2026, i) for i in range(3000)]

    @pytest.mark.parametrize("seed", [0, 7, -1, -(2**70) + 3, 2**64, 2**64 + 2026, 2**100 - 1])
    def test_one_call_equals_per_pair_calls_at_any_seed(self, seed):
        drawn = list(_chain_valid_sets(seed, 50))
        assert drawn == [self.per_pair_draws(seed, i) for i in range(50)]


class TestBooleanize:
    def test_repetition_gives_identical_copies(self):
        f = equality_function(1)
        repetition = LinearCode(np.ones((10, 1), dtype=np.uint8), 2, 5)
        tables = booleanize(f, repetition)
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
        # one message bit in the first of five codeword bits: relative distance 1/5
        f = equality_function(1)
        sparse = LinearCode(np.array([[1], [0], [0], [0], [0]]), 1, 5)
        with pytest.raises(ValueError, match=r"code distance 1/5 below required 0\.25"):
            booleanize(f, sparse)

    def test_outputs_must_fit_declared_width(self):
        f = FunctionTable((0,), (0,), {(0, 0): 7})
        with pytest.raises(ValueError, match="fit"):
            booleanize(f, cyclic_mask_code(2, 20))

