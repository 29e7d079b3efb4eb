import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smplab.codes import cyclic_mask_code, encode, hadamard_code
from smplab.errors import PromiseViolationError
from smplab.protocols import (
    MatchingInstance,
    equality_code,
    equality_code_acceptance,
    equality_function,
    equality_public,
    hidden_matching_relation,
    hidden_matching_verification,
    matching_classical,
    matching_qc,
    matching_times_x,
    matching_value,
    random_matching,
    random_promise_instance,
    toy_quantum_equality,
    xor_matching,
    _decode_edges,
    _encode_edges,
)
from smplab import protocols
from smplab.qcore import PureState, acceptance_probability
from smplab.rng import trial_rng
from smplab.smp import (
    ArrayStrategy,
    CoinSpace,
    TableReferee,
    exact_acceptance,
    pack,
    worst_case_error,
)
from smplab.transforms import compile_qc_to_cc


class TestEqualityPublic:
    def test_equal_inputs_always_accepted(self):
        p = equality_public(3, 2)
        for x in range(8):
            assert exact_acceptance(p, x, x) == 1.0

    @pytest.mark.parametrize("k,expected", [(1, 0.5), (2, 0.25), (3, 0.125)])
    def test_unequal_inputs_accepted_at_two_to_minus_k(self, k, expected):
        p = equality_public(2, k)
        assert exact_acceptance(p, 1, 2) == expected

    def test_acceptance_depends_only_on_xor(self):
        p = equality_public(3, 1)
        for x in range(8):
            for y in range(8):
                assert exact_acceptance(p, x, y) == exact_acceptance(p, x ^ y, 0)


class TestEqualityCode:
    def test_equal_inputs_accepted(self):
        p = equality_code(3)
        assert exact_acceptance(p, 5, 5) == 1.0
        assert equality_code_acceptance(hadamard_code(3), 5, 5) == 1.0

    def test_single_rep_acceptance_equals_cell_agreement_rate(self):
        # oracle: enumerate every (row, column) pair of the grid directly
        code = hadamard_code(3)
        p = equality_code(3)
        for x, y in [(1, 2), (3, 7), (0, 5)]:
            gx = encode(code, x).reshape(code.grid_rows, code.grid_cols)
            gy = encode(code, y).reshape(code.grid_rows, code.grid_cols)
            agree = sum(
                gx[i, j] == gy[i, j]
                for i in range(code.grid_rows)
                for j in range(code.grid_cols)
            )
            oracle = agree / code.m
            assert exact_acceptance(p, x, y) == pytest.approx(oracle, abs=1e-12)
            assert equality_code_acceptance(code, x, y) == pytest.approx(oracle, abs=1e-12)

    def test_hadamard_unequal_single_rep_is_half(self):
        code = hadamard_code(4)
        # brute-force the code distance first: every nonzero codeword has weight m/2
        assert min(int(encode(code, x).sum()) for x in range(1, 16)) == code.m // 2
        for x, y in [(0, 1), (3, 12), (9, 6)]:
            assert equality_code_acceptance(code, x, y) == 0.5

    def test_closed_form_matches_enumeration_for_two_reps(self):
        code = hadamard_code(2)
        p = equality_code(2, reps=2)
        for x in range(4):
            for y in range(4):
                assert exact_acceptance(p, x, y) == pytest.approx(
                    equality_code_acceptance(code, x, y, reps=2), abs=1e-12
                )

    def test_six_reps_worst_case_error_below_third(self):
        code = hadamard_code(4)
        worst = max(
            abs(float(x == y) - equality_code_acceptance(code, x, y, reps=6))
            for x in range(16)
            for y in range(16)
        )
        assert worst <= 1 / 3
        assert worst == pytest.approx(2.0**-6, abs=1e-15)


class TestMatchingValue:
    def test_exact_parities_give_one(self):
        inst = random_promise_instance(12, np.random.default_rng(0), value=1)
        exact = MatchingInstance(12, inst.x, inst.matching, matching_times_x(inst))
        assert matching_value(exact) == 1

    def test_complement_gives_zero(self):
        inst = random_promise_instance(12, np.random.default_rng(1), value=1)
        flipped = tuple(1 - b for b in matching_times_x(inst))
        assert matching_value(MatchingInstance(12, inst.x, inst.matching, flipped)) == 0

    def test_two_flips_at_n12_is_still_one(self):
        rng = np.random.default_rng(2)
        inst = random_promise_instance(12, rng, value=1)
        parities = list(matching_times_x(inst))
        parities[0] ^= 1
        parities[3] ^= 1
        assert matching_value(MatchingInstance(12, inst.x, inst.matching, tuple(parities))) == 1

    def test_promise_violation_raises(self):
        inst = random_promise_instance(12, np.random.default_rng(3), value=1)
        parities = list(matching_times_x(inst))
        for t in range(3):  # distance 3 sits strictly between 12/6 and 12/3
            parities[t] ^= 1
        with pytest.raises(PromiseViolationError):
            matching_value(MatchingInstance(12, inst.x, inst.matching, tuple(parities)))

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            inst = random_promise_instance(12, rng)
            perm = [int(v) for v in rng.permutation(12)]
            x2 = tuple(inst.x[perm.index(i)] for i in range(12))
            pairs = [tuple(sorted((perm[i], perm[j]))) for i, j in inst.matching]
            order = sorted(range(len(pairs)), key=lambda t: pairs[t])
            inst2 = MatchingInstance(
                12,
                x2,
                tuple(pairs[t] for t in order),
                tuple(inst.w[t] for t in order),
            )
            assert matching_value(inst2) == matching_value(inst)


class TestMatchingProtocols:
    def test_edge_projection_probability(self):
        # single copy, one available edge: the edge outcome carries 2/|S|
        p = matching_qc(8, subset_size=4, copies=1, edges_sent=1)
        inst = random_promise_instance(8, np.random.default_rng(5), value=1)
        i, j = inst.matching[0]
        others = [v for v in range(8) if v not in (i, j)]
        subset = tuple(sorted((i, j, others[0], others[1])))
        payload = p.alice_strategy(inst.x, subset)
        (b_msg,) = p.bob_strategy(inst.bob_input, subset).keys()
        outcomes = p.referee._edge_outcomes(payload, [(i, j, 0)])
        assert outcomes[0][1] == pytest.approx(2 / 4)

    def test_recovered_parity_is_certain(self):
        p = matching_qc(8, subset_size=4, copies=1, edges_sent=1)
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = random_promise_instance(8, rng)
            i, j = inst.matching[0]
            others = [v for v in range(8) if v not in (i, j)]
            subset = tuple(sorted((i, j, others[0], others[1])))
            psi = p.alice_strategy(inst.x, subset)
            ((_, _, p_even),) = p.referee._edge_outcomes(psi, [(i, j, 0)])
            want = inst.x[i] ^ inst.x[j]
            assert p_even == pytest.approx(1.0 if want == 0 else 0.0, abs=1e-9)

    def test_exact_conditional_acceptance_small_instance(self):
        # with S covering everything, every edge is available and the referee's
        # output distribution is exactly enumerable
        p = matching_qc(4, subset_size=4, copies=2, edges_sent=2)
        inst = MatchingInstance(4, (1, 0, 0, 1), ((0, 1), (2, 3)), (1, 1))
        subset = (0, 1, 2, 3)
        fixed = replace(p, coin=CoinSpace(
            sampler=lambda rng: subset, size=1, outcomes=lambda: [(subset, 1.0)]
        ))
        acc = exact_acceptance(fixed, inst.x, inst.bob_input)
        dist = p.referee.output_distribution(
            p.alice_strategy(inst.x, (0, 1, 2, 3)),
            next(iter(p.bob_strategy(inst.bob_input, (0, 1, 2, 3)))),
            (0, 1, 2, 3),
        )
        assert acc == pytest.approx(dist.get(1, 0.0), abs=1e-12)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_expected_edges_in_random_subset(self):
        # oracle: count over simulated subsets; mean should be near |S|^2/(2n)
        n, s = 32, 12
        rng = np.random.default_rng(7)
        matching = random_matching(n, rng)
        counts = []
        for _ in range(4000):
            subset = set(rng.choice(n, size=s, replace=False))
            counts.append(sum(1 for i, j in matching if i in subset and j in subset))
        mean = np.mean(counts)
        assert mean == pytest.approx(s * s / (2 * n), rel=0.15)

    def test_classical_edge_comparison_is_errorless(self):
        p = matching_classical(8, subset_size=4)
        inst = random_promise_instance(8, np.random.default_rng(8), value=1)
        i, j = inst.matching[0]
        others = [v for v in range(8) if v not in (i, j)]
        subset = tuple(sorted((i, j, others[0], others[1])))
        (a_msg,) = p.alice_strategy(inst.x, subset).keys()
        (b_msg,) = p.bob_strategy(inst.bob_input, subset).keys()
        dist = p.referee.output_distribution(a_msg, b_msg, subset)
        want = int(inst.w[0] == (inst.x[i] ^ inst.x[j]))
        assert dist == {want: 1.0}

    def test_classical_referee_abstains_with_a_fair_coin(self):
        # the subset {0, 2} holds no edge of {0,1}, {2,3}: Bob sends none
        p = matching_classical(4, subset_size=2)
        inst = MatchingInstance(4, (1, 0, 0, 1), ((0, 1), (2, 3)), (1, 1))
        subset = (0, 2)
        (a_msg,) = p.alice_strategy(inst.x, subset).keys()
        (b_msg,) = p.bob_strategy(inst.bob_input, subset).keys()
        assert p.referee.output_distribution(a_msg, b_msg, subset) == {0: 0.5, 1: 0.5}
        # oracle: 2 of the C(4, 2) = 6 subsets are an edge, whose parity
        # agrees with w; the other 4 abstain
        assert exact_acceptance(p, inst.x, inst.bob_input) == pytest.approx(
            2 / 6 + 4 / 6 * 0.5, abs=1e-12)


def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b") if width else ""


def _count_bits(slots: int) -> int:
    return slots.bit_length()  # enough for every count 0 .. slots


def _string_encode_edges(edges, slots, log_n):
    """Bob's edge message built character by character: the codec's oracle,
    compared through :func:`_as_int`."""
    msg = _bits(len(edges), _count_bits(slots))
    for i, j, wbit in edges:
        msg += _bits(i, log_n) + _bits(j, log_n) + str(wbit)
    return msg + "0" * ((slots - len(edges)) * (2 * log_n + 1))


def _as_int(msg: str) -> int:
    """A bit string, most significant first, as an int; the empty string is 0."""
    return int(msg, 2) if msg else 0


def _string_decode_edges(msg, slots, log_n):
    count_bits = _count_bits(slots)
    count = int(msg[:count_bits], 2) if count_bits else 0
    out = []
    pos = count_bits
    for _ in range(count):
        i = int(msg[pos : pos + log_n], 2)
        j = int(msg[pos + log_n : pos + 2 * log_n], 2)
        out.append((i, j, int(msg[pos + 2 * log_n])))
        pos += 2 * log_n + 1
    return out


@st.composite
def _edge_messages(draw):
    log_n = draw(st.integers(1, 7))
    slots = draw(st.integers(0, 6))
    vertex = st.integers(0, (1 << log_n) - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 1)), max_size=slots))
    return edges, slots, log_n


def _string_code_accept(a: str, b: str, col_idx_bits: int, row_idx_bits: int, reps: int):
    """The code-grid referee on bit strings, sliced per repetition: the oracle."""
    a_rep, b_rep = len(a) // reps, len(b) // reps
    for t in range(reps):
        a_seg, b_seg = a[t * a_rep : (t + 1) * a_rep], b[t * b_rep : (t + 1) * b_rep]
        j = _as_int(a_seg[:col_idx_bits])
        i = _as_int(b_seg[:row_idx_bits])
        if a_seg[col_idx_bits + i] != b_seg[row_idx_bits + j]:
            return 0.0
    return 1.0


class TestEqualityMessages:
    """The equality protocols' int messages equal their per-character builds."""

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (4, 3)])
    def test_public_parities_first_mask_most_significant(self, n, k):
        p = equality_public(n, k)
        g = trial_rng(5, n)
        for _ in range(16):
            masks = p.coin.sampler(g)
            x = int(g.integers(0, 2**n))
            want = "".join(str(bin(x & m).count("1") % 2) for m in masks)
            assert p.alice_strategy(x, masks) == {_as_int(want): 1.0}

    @pytest.mark.parametrize("n, reps", [(2, 1), (3, 2), (4, 1)])
    def test_code_lines_and_referee_equal_string_builds(self, n, reps):
        code = hadamard_code(n)
        p = equality_code(n, code, reps)
        rows, cols = code.grid_rows, code.grid_cols
        col_bits, row_bits = max(1, (cols - 1).bit_length()), max(1, (rows - 1).bit_length())
        strings = {}
        for x in range(2**n):
            g = encode(code, x).reshape(rows, cols)
            a_lines = [_bits(j, col_bits) + "".join(map(str, g[:, j])) for j in range(cols)]
            b_lines = [_bits(i, row_bits) + "".join(map(str, g[i, :])) for i in range(rows)]
            a_msgs = ["".join(c) for c in itertools.product(a_lines, repeat=reps)]
            b_msgs = ["".join(c) for c in itertools.product(b_lines, repeat=reps)]
            # same messages, same weights, in the same order
            assert list(p.alice_strategy(x, None).items()) == [
                (_as_int(m), (1.0 / cols) ** reps) for m in a_msgs]
            assert list(p.bob_strategy(x, None).items()) == [
                (_as_int(m), (1.0 / rows) ** reps) for m in b_msgs]
            strings[x] = a_msgs, b_msgs
        for x, y in itertools.product(strings, repeat=2):
            for a in strings[x][0]:
                for b in strings[y][1]:
                    want = _string_code_accept(a, b, col_bits, row_bits, reps)
                    assert p.referee.accept_probability(_as_int(a), _as_int(b)) == want


def _twin_equality_code_sides(code, reps):
    """Alice's and Bob's laws and declared arrays, each party written out on
    its own: the oracle for the one grid-line side that builds both."""
    rows, cols = code.grid_rows, code.grid_cols
    a_rep_bits = (max(1, (cols - 1).bit_length()) if cols > 1 else 0) + rows
    b_rep_bits = (max(1, (rows - 1).bit_length()) if rows > 1 else 0) + cols

    def repeated(lines, width):
        p = (1.0 / len(lines)) ** reps
        return {pack(choice, width): p for choice in itertools.product(lines, repeat=reps)}

    def alice_dist(x, _coin):
        g = encode(code, x).reshape(rows, cols).tolist()
        columns = [j << rows | pack((r[j] for r in g), 1) for j in range(cols)]
        return repeated(columns, a_rep_bits)

    def bob_dist(y, _coin):
        g = encode(code, y).reshape(rows, cols).tolist()
        return repeated([i << cols | pack(g[i], 1) for i in range(rows)], b_rep_bits)

    def repeated_arrays(lines, width):
        ids = lines
        for _ in range(reps - 1):
            ids = (ids[:, :, None] << width | lines[:, None, :]).reshape(len(lines), -1)
        p = (1.0 / lines.shape[1]) ** reps
        return ids.T[None], np.full((1, ids.shape[1], len(lines)), p)

    def grids(values):
        g = np.array([encode(code, v) for v in values], dtype=np.int64)
        return g.reshape(len(values), rows, cols)

    def alice_arrays(xs, _coins):
        bits = (grids(xs) << np.arange(rows - 1, -1, -1)[:, None]).sum(axis=1)
        return repeated_arrays(np.arange(cols) << rows | bits, a_rep_bits)

    def bob_arrays(ys, _coins):
        bits = (grids(ys) << np.arange(cols - 1, -1, -1)).sum(axis=2)
        return repeated_arrays(np.arange(rows) << cols | bits, b_rep_bits)

    return (alice_dist, alice_arrays), (bob_dist, bob_arrays)


class TestEqualityCodeSides:
    @pytest.mark.parametrize("code, reps", [
        *((hadamard_code(n), reps) for n in range(1, 6) for reps in (1, 2, 3)),
        *((cyclic_mask_code(3, 6), reps) for reps in (1, 2)),
    ])
    def test_laws_and_arrays_equal_the_per_party_builds(self, code, reps):
        p = equality_code(code.n, code, reps)
        inputs = list(range(2**code.n))
        sides = _twin_equality_code_sides(code, reps)
        for strategy, (law, arrays) in zip((p.alice_strategy, p.bob_strategy), sides):
            assert isinstance(strategy, ArrayStrategy)
            for v in inputs:
                # same messages, same weights, in the same order
                assert list(strategy(v, None).items()) == list(law(v, None).items())
            for got, want in zip(strategy.arrays(inputs, [None]), arrays(inputs, [None])):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, reps", [(4, 11), (3, 13)], ids=["both-wide", "bob-wide"])
    def test_parties_stay_callables_past_int64(self, n, reps):
        # at (3, 13) Alice's 13 * 4 bits fit an int64 and Bob's 13 * 5 do not
        p = equality_code(n, reps=reps)
        for strategy in (p.alice_strategy, p.bob_strategy):
            assert callable(strategy) and not isinstance(strategy, ArrayStrategy)


class TestMatchingBounds:
    def test_default_edges_sent_fits_the_subset(self):
        # n=4: ceil(4^(1/3)) = 2 edges, but a 3-vertex subset holds only one
        p = matching_qc(4)
        assert p.bob_cost.bits == _count_bits(1) + 1 * 5
        assert matching_qc(4, subset_size=4).bob_cost.bits == _count_bits(2) + 2 * 5

    @pytest.mark.parametrize("n, sent", [(8, 2), (16, 3), (64, 4), (1024, 11)])
    def test_default_edges_sent_unclamped_from_n_8(self, n, sent):
        # oracle: ceil(n^(1/3)) by hand; each default subset holds that many edges
        log_n = n.bit_length() - 1
        assert matching_qc(n).bob_cost.bits == _count_bits(sent) + sent * (2 * log_n + 1)

    def test_largest_edges_sent_accepted(self):
        p = matching_qc(16, subset_size=9, edges_sent=4)
        assert p.bob_cost.bits == _count_bits(4) + 4 * 9


class TestMatchingMessages:
    """The matching protocols' messages equal those of their per-character builds."""

    def test_count_bits_oracle_matches_protocol_costs(self):
        for slots in range(1, 8):
            p = matching_classical(16, subset_size=2 * slots + 1)
            assert p.bob_cost.bits == _count_bits(slots) + slots * 9

    @settings(max_examples=300, deadline=None)
    @given(_edge_messages())
    @example(([], 0, 3))
    @example(([], 1, 3))
    @example(([(5, 2, 1)], 1, 3))
    @example(([(0, 63, 1), (63, 0, 0), (7, 7, 1)], 3, 6))
    @example(([], 4, 1))
    def test_codec_equals_string_oracle_and_round_trips(self, case):
        edges, slots, log_n = case
        msg = _encode_edges(edges, slots, log_n)
        string = _string_encode_edges(edges, slots, log_n)
        assert type(msg) is int and msg == _as_int(string)
        assert msg.bit_length() <= len(string) == _count_bits(slots) + slots * (2 * log_n + 1)
        assert _decode_edges(msg, slots, log_n) == _string_decode_edges(string, slots, log_n)
        assert _decode_edges(msg, slots, log_n) == edges

    @pytest.mark.parametrize("n, size, copies, sent", [(8, 4, 2, 2), (16, 7, 3, 2), (64, 16, 4, 4)])
    def test_strategies_equal_per_index_builds(self, n, size, copies, sent):
        qc = matching_qc(n, subset_size=size, copies=copies, edges_sent=sent)
        classical = matching_classical(n, subset_size=size)
        g = trial_rng(8, n)
        instances = [random_promise_instance(n, g) for _ in range(3)]
        for t in range(12):
            inst = instances[t % 3]  # alternate inputs through the one-input caches
            subset = qc.coin.sampler(g)
            amp = np.zeros(n, dtype=np.complex128)
            for i in subset:
                amp[i] = -1.0 / np.sqrt(size) if inst.x[i] else 1.0 / np.sqrt(size)
            # one state, of which Alice pays for ``copies`` copies
            payload = qc.alice_strategy(list(inst.x), subset)
            assert type(payload) is PureState
            assert qc.alice_cost.qubits == copies * (n.bit_length() - 1)
            assert payload.amplitudes.tobytes() == PureState(amp).amplitudes.tobytes()
            assert classical.alice_strategy(inst.x, subset) == {
                _as_int("".join(str(inst.x[i]) for i in subset)): 1.0
            }
            inside = [(i, j, inst.w[k]) for k, (i, j) in enumerate(inst.matching)
                      if i in subset and j in subset]
            for p, slots in ((qc, min(sent, size // 2)), (classical, size // 2)):
                want = _string_encode_edges(inside[:slots], slots, n.bit_length() - 1)
                assert p.bob_strategy(inst.bob_input, subset) == {_as_int(want): 1.0}

    def test_referee_excludes_the_first_copys_edge_for_the_second(self, monkeypatch):
        # x = 0 puts mass 1/2 on each of the edges (0, 1) and (2, 3), both of
        # even parity; w = (1, 0), so edge (0, 1) disagrees and (2, 3) agrees.
        # A second copy measures only the edge the first left unused, so no
        # run of agreements repeats one edge's bit.  The output law alone
        # cannot show this: at two copies, a re-measured edge adds a second
        # bit of its own, and the majority of two such bits has one bit's law
        p = matching_qc(4, subset_size=4, copies=2, edges_sent=2)
        inst = MatchingInstance(4, (0, 0, 0, 0), ((0, 1), (2, 3)), (1, 0))
        subset = (0, 1, 2, 3)
        (b_msg,) = p.bob_strategy(inst.bob_input, subset)
        psi = p.alice_strategy(inst.x, subset)
        assert type(psi) is PureState  # one state, measured ``copies`` times
        seen = []
        majority = protocols._majority_output

        def recording(agreements, rng):
            seen.append(tuple(agreements))
            return majority(agreements, rng)

        monkeypatch.setattr(protocols, "_majority_output", recording)
        dist = p.referee.output_distribution(psi, b_msg)
        assert sorted(seen) == [(0,), (0, 1), (1,), (1, 0)]
        assert dist == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-15)
        seen.clear()
        for t in range(200):
            p.referee.sample_output(psi, b_msg, trial_rng(2, t))
        assert set(seen) == {(0,), (0, 1), (1,), (1, 0)}


class TestHiddenMatching:
    def test_every_output_is_valid_exhaustively(self):
        protocol, relation = hidden_matching_relation(4)
        for x in range(16):
            for k in (1, 2, 3):
                payload = protocol.alice_strategy(x, None)
                (b,) = protocol.bob_strategy(k, None).keys()
                dist = protocol.referee.output_distribution(payload, b)
                valid_mass = sum(
                    w for out, w in dist.items() if out in relation.valid[(x, k)]
                )
                assert valid_mass == pytest.approx(1.0, abs=1e-9)

    def test_post_projection_parity_amplitudes(self):
        protocol, _ = hidden_matching_relation(4)
        x = 0b0110
        psi = protocol.alice_strategy(x, None)
        amp = psi.amplitudes
        for i, j in xor_matching(4, 1):
            want = ((x >> i) & 1) ^ ((x >> j) & 1)
            plus = abs(amp[i] + amp[j]) ** 2 / 2
            minus = abs(amp[i] - amp[j]) ** 2 / 2
            if want == 0:
                assert minus <= 1e-18
            else:
                assert plus <= 1e-18

    def test_edge_marginal_is_uniform(self):
        protocol, relation = hidden_matching_relation(8)
        payload = protocol.alice_strategy(37, None)
        (b,) = protocol.bob_strategy(5, None).keys()
        dist = protocol.referee.output_distribution(payload, b)
        per_edge: dict[tuple[int, int], float] = {}
        for out, w in dist.items():
            per_edge[(out.i, out.j)] = per_edge.get((out.i, out.j), 0.0) + w
        assert len(per_edge) == 4
        for w in per_edge.values():
            assert w == pytest.approx(2 / 8, abs=1e-12)

    def test_sampled_outputs_satisfy_relation_at_n8(self):
        protocol, _ = hidden_matching_relation(8)
        rng_seed = 21
        x, k = 173, 6
        matching = set(xor_matching(8, k))
        payload = protocol.alice_strategy(x, None)
        (b,) = protocol.bob_strategy(k, None).keys()
        for t in range(10_000):
            out = protocol.referee.sample_output(payload, b, trial_rng(rng_seed, t))
            assert (out.i, out.j) in matching
            assert out.parity == ((x >> out.i) & 1) ^ ((x >> out.j) & 1)

    def test_xor_matchings_are_perfect_and_distinct(self):
        seen = set()
        for k in range(1, 8):
            m = xor_matching(8, k)
            flat = sorted(v for e in m for v in e)
            assert flat == list(range(8))
            seen.add(m)
        assert len(seen) == 7


_CONSTRUCTORS = {
    "equality_public": lambda: equality_public(3, 2),
    "equality_code": lambda: equality_code(3, reps=2),
    "matching_qc": lambda: matching_qc(16),
    "matching_classical": lambda: matching_classical(16),
    "hidden_matching_relation": lambda: hidden_matching_relation(4)[0],
    "toy_quantum_equality(1)": lambda: toy_quantum_equality(1),
    "toy_quantum_equality(2)": lambda: toy_quantum_equality(2),
    "hidden_matching_verification": lambda: hidden_matching_verification(4),
}
_QUANTUM = {"matching_qc", "hidden_matching_relation", "toy_quantum_equality(1)",
            "toy_quantum_equality(2)", "hidden_matching_verification"}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_quantum_means_alice_sends_qubits(name):
    p = _CONSTRUCTORS[name]()
    assert p.quantum == (p.alice_cost.qubits > 0)
    assert p.quantum == (name in _QUANTUM)


def test_compile_needs_an_operator_referee():
    p = replace(toy_quantum_equality(1), referee=TableReferee(fn=lambda a, b: 1.0))
    assert p.quantum
    with pytest.raises(ValueError, match="needs a canonical quantum protocol"):
        compile_qc_to_cc(p, delta=0.1, r=3)


class TestToyFixtures:
    def test_toy_equality_q1_acceptance_structure(self):
        p = toy_quantum_equality(1)
        for x in range(4):
            for y in range(4):
                acc = exact_acceptance(p, x, y)
                if x == y:
                    assert acc == pytest.approx(1.0, abs=1e-12)
                elif (x + y) % 2 == 0:  # |0> vs |1>, |+> vs |->
                    assert acc == pytest.approx(0.0, abs=1e-12)
                else:
                    assert acc == pytest.approx(0.5, abs=1e-12)

    def test_toy_equality_q2_is_exact(self):
        p = toy_quantum_equality(2)
        f = equality_function(2)
        assert worst_case_error(p, f) <= 1e-12

    def test_canonical_referee_matches_direct_trace(self):
        p = toy_quantum_equality(1)
        rho = p.alice_strategy(1, None)
        e = p.referee.operators[2]
        assert exact_acceptance(p, 1, 2) == pytest.approx(
            acceptance_probability(e, rho), abs=1e-12
        )


@pytest.mark.parametrize("call, message", [
    (lambda: hidden_matching_relation(6), "6 is not a power of two"),
    (lambda: equality_public(0, 1), "need n >= 1 and k >= 1"),
    (lambda: equality_public(2, 0), "need n >= 1 and k >= 1"),
    (lambda: equality_code(2, hadamard_code(3)), "code encodes 3-bit messages, expected 2"),
    (lambda: equality_code(2, reps=0), "need reps >= 1"),
    (lambda: MatchingInstance(3, (0, 0, 0), ((0, 1),), (0,)),
     "need an even n and a length-n string"),
    (lambda: MatchingInstance(4, (0, 0, 0), ((0, 1), (2, 3)), (0, 0)),
     "need an even n and a length-n string"),
    (lambda: MatchingInstance(4, (0, 0, 0, 0), ((0, 1), (0, 2)), (0, 0)),
     "matching does not partition the vertex set"),
    (lambda: MatchingInstance(4, (0, 0, 0, 0), ((0, 1), (2, 3)), (0,)),
     "w must have one bit per edge"),
    (lambda: MatchingInstance(6, (2, 3, 0, 5, 1, 1), ((0, 1), (2, 3), (4, 5)), (7, 0, 2)),
     "x[0] is 2, not a bit 0 or 1"),
    (lambda: MatchingInstance(4, (0, 1, 0, 1), ((0, 1), (2, 3)), (1, 7)),
     "w[1] is 7, not a bit 0 or 1"),
    (lambda: MatchingInstance(4, (0, 1, True, 1), ((0, 1), (2, 3)), (1, 1)),
     "x[2] is True, not a bit 0 or 1"),
    (lambda: MatchingInstance(4, (0, 1, 0, 1), ((0, 1), (2, 3)), (1.0, 1)),
     "w[0] is 1.0, not a bit 0 or 1"),
    (lambda: MatchingInstance(4, (0, 1, 0, 1), ((0, 1.7), (2, 3)), (1, 1)),
     "matching[0] is (0, 1.7), not a pair of ints"),
    (lambda: MatchingInstance(4, (0, 1, 0, 1), ((0, 1), (2.0, 3)), (1, 1)),
     "matching[1] is (2.0, 3), not a pair of ints"),
    (lambda: random_promise_instance(12, np.random.default_rng(0), value=5),
     "value must be None, 0 or 1, got 5"),
    (lambda: random_promise_instance(12, np.random.default_rng(0), value=True),
     "value must be None, 0 or 1, got True"),
    (lambda: random_promise_instance(12, np.random.default_rng(0), value=1.0),
     "value must be None, 0 or 1, got 1.0"),
    (lambda: xor_matching(4, 4), "matching index 4 outside 1..3"),
    (lambda: xor_matching(4, 0), "matching index 0 outside 1..3"),
    (lambda: xor_matching(6, 2), "6 is not a power of two"),
    (lambda: hidden_matching_relation(2), "need n >= 4"),
    (lambda: toy_quantum_equality(3), "toy fixtures cover q in {1, 2}"),
], ids=["not-power-of-two", "public-n", "public-k", "code-width", "code-reps",
        "odd-n", "short-x", "not-a-partition", "short-w", "x-not-a-bit", "w-not-a-bit",
        "bool-bit", "float-bit", "float-endpoint", "integral-float-endpoint",
        "value-5", "value-bool", "value-float", "xor-index-high",
        "xor-index-low", "xor-not-power-of-two", "hidden-matching-n", "toy-q"])
def test_guards_raise_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_matching_instance_stores_numpy_integers_as_ints():
    inst = MatchingInstance(4, np.array([0, 1, 1, 0]), np.array([[1, 0], [2, 3]]),
                            np.array([1, 1]))
    assert inst == MatchingInstance(4, (0, 1, 1, 0), ((0, 1), (2, 3)), (1, 1))
    assert all(type(v) is int for v in inst.x + inst.w + sum(inst.matching, ()))
