import dataclasses
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import smplab.transforms as transforms
from smplab import cli, protocols
from smplab.config import DEFAULT, with_overrides
from smplab.errors import (
    DimensionCapError,
    EnumerationCapError,
    ReplayMismatchError,
    VanishingProjectionError,
)
from smplab.protocols import (
    equality_code,
    hidden_matching_verification,
    toy_quantum_equality,
)
from smplab.qcore import (
    DensityMatrix,
    MeasurementOperator,
    Observable,
    PureState,
    acceptance_probability,
    average_observable,
    band_edge_margin,
    band_projector,
    maximally_mixed,
    project_renormalize,
    random_density,
    random_measurement_operator,
)
from smplab.rng import derive_seed, trial_rng
from smplab.smp import (
    CoinSpace,
    Cost,
    OperatorReferee,
    SmpProtocol,
    TableReferee,
    acceptance_table,
    bitstring,
    exact_acceptance,
    pack,
    sample_from_distribution,
)
from smplab.transforms import (
    LearnDiagnostics,
    LearnRecord,
    bad_count_bound,
    compile_qc_to_cc,
    default_copies,
    derandomize_alice,
    learn_round_trip,
    learn_state_message,
    paper_copies,
    reconstruct_estimates,
)
from unchecked import unchecked_operator

DIAG = np.diag


def identity(dim: int) -> MeasurementOperator:
    return unchecked_operator(np.eye(dim))


def proj(bits) -> MeasurementOperator:
    return MeasurementOperator(DIAG(np.array(bits, dtype=float)).astype(complex))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts every dense kernel call the learning walk makes, by kernel name."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Observable, "expectation", counted("expectation", Observable.expectation))
    for name in ("band_projector", "project_renormalize"):
        monkeypatch.setattr(transforms, name, counted(name, getattr(transforms, name)))
    return calls


@pytest.fixture
def replay_calls(kernel_calls, monkeypatch):
    """The kernel calls of each receiver walk, one Counter per ``_replay_record`` call."""
    replays = []
    replay = transforms._replay_record

    def counted(*args):
        before = Counter(kernel_calls)
        try:
            return replay(*args)
        finally:
            replays.append(kernel_calls - before)

    monkeypatch.setattr(transforms, "_replay_record", counted)
    return replays


@pytest.fixture
def sender_calls(kernel_calls, monkeypatch):
    """The kernel call counts as each sender walk (``_learn_states``) returns."""
    snapshots = []
    learn = transforms._learn_states

    def counted(*args):
        try:
            return learn(*args)
        finally:
            snapshots.append(Counter(kernel_calls))

    monkeypatch.setattr(transforms, "_learn_states", counted)
    return snapshots


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
        ops = [identity(2)] * 4
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
        rho = PureState([1, 0]).density()
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

    def test_empty_band_is_named_with_the_nearest_eigenvalue(self):
        # the band [0.25, 0.35] around 0.3 selects none of {0, 1/2, 1}
        rho = DensityMatrix(DIAG([0.3, 0.7]).astype(complex))
        ops = [proj([1, 0]), proj([1, 0])]
        with pytest.raises(VanishingProjectionError, match="holds no eigenvalue") as err:
            learn_state_message(rho, ops, delta=0.1, r=2)
        assert err.value.band == pytest.approx((0.25, 0.35), abs=1e-15)
        assert err.value.nearest == pytest.approx(0.5, abs=1e-15)

    def test_vanishing_projection_below_the_papers_r_carries_a_note(self):
        # the paper's r at q = 1 and delta 0.1 is ceil(8 ln 2 / 0.01) = 555
        rho = DensityMatrix(DIAG([0.3, 0.7]).astype(complex))
        ops = [proj([1, 0]), proj([1, 0])]
        for learn in (learn_state_message, learn_round_trip):
            with pytest.raises(VanishingProjectionError) as err:
                learn(rho, ops, delta=0.1, r=2)
            assert err.value.__notes__ == ["r = 2 is below the paper's r = 555"]

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
        with pytest.raises(ValueError, match=r"need delta in \(0, 1/2\)"):
            paper_copies(1, delta)

    def test_paper_copies_is_the_unclamped_count(self):
        # oracle: ceil(8 ln(max(q, 2)) / delta^2) evaluated by hand
        assert paper_copies(1, 0.1) == paper_copies(2, 0.1) == 555
        assert paper_copies(4, 0.1) == 1110
        assert paper_copies(2, 0.45) == 28
        assert paper_copies(1, 1e-310) == math.inf
        # default_copies keeps its values: the float count, capped by the budget
        for q in (1, 2, 3, 6, 12):
            for delta in (1e-310, 1e-160, 1e-3, 0.1, 0.3, 0.45, 0.4999):
                want = 8.0 * math.log(max(q, 2)) / delta**2 if delta**2 > 0.0 else math.inf
                budget = max(2, DEFAULT.learn_qubit_budget // q)
                expect = budget if want > budget else max(2, math.ceil(want))
                assert default_copies(q, delta) == expect


class TestReconstruct:
    def test_empty_record_identity_family(self):
        ops = [identity(2)] * 4
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
        rho = PureState([1, 0]).density()
        ops = [proj([1, 0]), proj([0, 1])]
        rec, _ = learn_state_message(rho, ops, delta=0.1, r=2)
        wrong = [identity(2), identity(2)]
        with pytest.raises(ReplayMismatchError):
            reconstruct_estimates(rec, wrong)

    def test_first_failure_in_index_order_wins(self):
        # index 0 records 0.5, which the mixed hypothesis already predicts;
        # a walk past that check vanishes at index 1, whose band [0.85, 0.95]
        # holds no eigenvalue of the two-copy observable of |1><1|
        rec = LearnRecord(q=1, c=1, r=2, delta=0.1, entries=((0, 0.5), (1, 0.9)))
        ops = [proj([1, 0]), proj([0, 1])]
        corrected = dict(rec.entries)
        observables = [average_observable(e, 2) for e in ops]
        (log,), errors = transforms._grouped_walk(
            2, 1, observables, lambda _, b, __: corrected.get(b), 0.1, DEFAULT)
        assert [step[0] for step in log] == [0.5, 0.5]
        assert isinstance(errors[0], VanishingProjectionError) and errors[0].step == 1
        with pytest.raises(ReplayMismatchError,
                           match="recorded index 0 replays as already-predicted"):
            reconstruct_estimates(rec, ops)

    def test_a_nonempty_band_whose_trace_vanishes_is_a_degenerate_instance(self):
        # at r = 1 the band around 1.0 of |1><1| holds eigenvalue 1, but after
        # the projection onto |0> at index 0 it has trace 0
        ops = [proj([1, 0]), proj([0, 1])]
        observables = [average_observable(e, 1) for e in ops]
        (log,), errors = transforms._grouped_walk(
            1, 1, observables, lambda *_: 1.0, 0.1, DEFAULT)
        assert [step[2] for step in log] == [0.5, 0.0]
        assert isinstance(errors[0], VanishingProjectionError)
        assert str(errors[0]) == (
            "projection at step 1 has trace 0.000e+00; degenerate instance, cannot renormalize")
        rec = LearnRecord(q=1, c=1, r=1, delta=0.1, entries=((0, 1.0), (1, 1.0)))
        with pytest.raises(ReplayMismatchError,
                           match="^projection at recorded index 1 vanishes on replay$"):
            reconstruct_estimates(rec, ops)

    def test_the_replay_walks_own_error_is_raised_once_the_record_checks_out(
        self, monkeypatch
    ):
        # the record's one correction replays as a genuine one, so the receiver
        # accepts it, and the walk's own failure at that step is what is raised
        g = trial_rng(2026, 1)
        rho = random_density(2, g)
        ops = [random_measurement_operator(2, g) for _ in range(4)]
        rec, _ = learn_state_message(rho, ops, 0.1, 3)
        ((b, value),) = rec.entries
        assert b == 3 and value == pytest.approx(0.4125, abs=1e-12)
        failure = ValueError("cannot renormalize")

        def fail(*_):
            raise failure

        monkeypatch.setattr(transforms, "project_renormalize", fail)
        with pytest.raises(ValueError) as err:
            reconstruct_estimates(rec, ops)
        assert err.value is failure

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
        assert rec.to_int().bit_length() <= rec.encoded_bit_length

    @pytest.mark.parametrize("delta", [0.1, 0.125, 0.15, 0.2, 0.3, 0.45])
    def test_estimate_width_kept_at_the_report_deltas(self, delta):
        rec = LearnRecord(q=1, c=1, r=2, delta=delta, entries=((0, 0.5),))
        assert rec.encoded_bit_length == 1 + math.ceil(math.log2(8.0 / delta)) + 3

    @pytest.mark.parametrize("delta", [1e-310, 5e-324, 2.0**-1022, 1e-300])
    def test_tiny_delta_has_a_width(self, delta):
        # 8/delta overflows a float at the subnormal ones; the width is
        # still the least w with 2**(w - 3) >= 8/delta
        rec = LearnRecord(q=1, c=1, r=2, delta=delta, entries=((0, 0.0), (1, 1.0)))
        w = rec.encoded_bit_length // 2 - 1
        assert 2 ** (w - 4) < Fraction(8) / Fraction(delta) <= 2 ** (w - 3)
        assert LearnRecord.from_int(rec.to_int(), 2, 1, 1, 2, delta) == rec
        assert LearnRecord(q=1, c=1, r=2, delta=delta, entries=()).encoded_bit_length == 0
        # the helpers a record's delta reaches compute their value or raise
        # a ValueError naming delta; none divides by zero or overflows
        assert default_copies(1, delta) == DEFAULT.learn_qubit_budget
        with pytest.raises(ValueError, match=f"delta {delta!r} is too small"):
            bad_count_bound(2, delta)
        try:
            learned, _ = learn_state_message(
                PureState([1, 0]).density(), [proj([1, 0]), proj([0, 1])], delta, r=2
            )
        except ValueError as err:
            assert f"delta {delta!r} is too small" in str(err)
        else:
            # the grid fits a float: index 0 is corrected to its last point
            assert learned.entries == ((0, _last_grid_point(delta)),)

    def test_bits_roundtrip_dyadic_grid(self):
        # delta 0.25 puts the estimate grid on multiples of 1/32, exact in floats
        # and 8-bit grid positions: per entry the index, then the position,
        # the first entry most significant
        rec = LearnRecord(q=2, c=2, r=3, delta=0.25, entries=((0, 0.25), (3, 0.96875)))
        assert rec.to_int() == (0 << 8 | 8) << 10 | (3 << 8 | 31)
        back = LearnRecord.from_int(rec.to_int(), 2, q=2, c=2, r=3, delta=0.25)
        assert back == rec

    def test_bits_roundtrip_learned_record(self):
        rho = DensityMatrix(DIAG([0.85, 0.15]).astype(complex))
        ops = [proj([1, 0]), proj([0, 1])]
        rec, _ = learn_state_message(rho, ops, delta=0.1, r=8)
        back = LearnRecord.from_int(rec.to_int(), len(rec.entries), q=1, c=1, r=8, delta=0.1)
        assert back == rec

    @pytest.mark.parametrize("cut", [3, 10, 27, 28, 30, 45, -1])
    def test_truncated_bits_raise_value_error(self, cut):
        # the receiver is told the entries that the first ``cut`` of the 48
        # bits hold whole, fewer than the message holds
        rec = LearnRecord(q=1, c=2, r=2, delta=0.1,
                          entries=((0, 1.0), (1, 0.5), (2, 0.0125), (3, 0.25)))
        assert rec.encoded_bit_length == 4 * 12
        value = rec.to_int()
        assert value.bit_length() == 48 - 5  # index 0, then position 80 in 10 bits
        with pytest.raises(ValueError, match="not a message of [0-3] entries of 12 bits"):
            LearnRecord.from_int(value, cut % 48 // 12, q=1, c=2, r=2, delta=0.1)

    def test_trailing_bits_raise_value_error(self):
        value = LearnRecord(q=1, c=1, r=2, delta=0.1, entries=((1, 1.0),)).to_int()
        with pytest.raises(ValueError, match="not a message of 1 entries of 11 bits"):
            LearnRecord.from_int(value << 1, 1, q=1, c=1, r=2, delta=0.1)
        for value, entries in ((-1, 1), (0, -1)):
            with pytest.raises(ValueError, match="not a message of"):
                LearnRecord.from_int(value, entries, q=1, c=1, r=2, delta=0.1)

    def test_zero_bit_family_bits_roundtrip(self):
        # a one-operator family has c = 0: each entry is its estimate alone
        rec = LearnRecord(q=1, c=0, r=2, delta=0.125, entries=((0, 0.25),))
        assert rec.to_int() == 16 and rec.encoded_bit_length == 9
        assert LearnRecord.from_int(rec.to_int(), 1, q=1, c=0, r=2, delta=0.125) == rec

    @pytest.mark.parametrize("fields, match", [
        (dict(c=1, entries=((3, 0.5),)), "index 3 does not fit in 1 bits"),
        (dict(c=1, entries=((-1, 0.5),)), "index -1 does not fit"),
        (dict(c=0, entries=((1, 0.5),)), "index 1 does not fit in 0 bits"),
        (dict(entries=((0, -0.125),)), "outside \\[0, 1\\]"),
        (dict(entries=((0, 1.0625),)), "outside \\[0, 1\\]"),
        (dict(entries=((0, math.nan),)), "outside \\[0, 1\\]"),
        (dict(delta=0.0), "need delta in"),
        (dict(delta=0.5), "need delta in"),
        (dict(r=0), "need r >= 1"),
    ])
    def test_rejects_entries_the_encodings_cannot_hold(self, fields, match):
        with pytest.raises(ValueError, match=match):
            LearnRecord(**{**dict(q=1, c=2, r=2, delta=0.125, entries=()), **fields})

    def test_from_int_rejects_delta_zero(self):
        with pytest.raises(ValueError, match="need delta in"):
            LearnRecord.from_int(0, 0, q=1, c=1, r=2, delta=0.0)


def _last_grid_point(delta: float) -> float:
    """The largest k * (delta/8) at most 1 in floats, by search from above."""
    step = delta / 8.0
    k = math.ceil(Fraction(8) / Fraction(delta)) + 1
    while k * step > 1.0:
        k -= 1
    return k * step


class TestTruncate:
    @pytest.mark.parametrize("delta", [0.1, 0.125, 0.15, 0.2, 0.3, 0.45, 0.49, 1e-3, 1e-17])
    def test_top_is_the_last_grid_point_at_most_one(self, delta):
        top = transforms._truncate(1.0, delta)
        assert top == _last_grid_point(delta)
        assert transforms._truncate(0.9999, delta) <= top <= 1.0
        if delta >= 1e-3:
            # the record holds it, and its bits decode to it
            rec = LearnRecord(q=1, c=1, r=2, delta=delta, entries=((0, top),))
            assert LearnRecord.from_int(rec.to_int(), 1, 1, 1, 2, delta) == rec

    def test_report_deltas_keep_one(self):
        # at the reports' deltas the top grid point is 1.0 in floats, as the
        # old clamp gave, so no report byte moves; at 0.3 it is below 1
        for delta in (0.1, 0.125, 0.2):
            assert transforms._truncate(1.0, delta) == 1.0
        assert transforms._truncate(1.0, 0.3) == 26 * 0.0375

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), delta=st.floats(1e-6, 0.5, exclude_max=True))
    def test_on_the_grid_and_within_half_a_step(self, p, delta):
        step = delta / 8.0
        got = transforms._truncate(p, delta)
        assert 0.0 <= got <= 1.0
        k = round(Fraction(got) / Fraction(step))
        assert got == k * step
        assert abs(got - p) <= step / 2 + 1e-12 or got == _last_grid_point(delta)


@st.composite
def _grid_records(draw):
    """Records with estimates on their delta/8 grid; c = 0 included."""
    c = draw(st.integers(0, 4))
    delta = draw(st.floats(1e-3, 0.5, exclude_max=True))
    step = delta / 8.0
    indices = sorted(draw(st.sets(st.integers(0, 2**c - 1))))
    grid = st.integers(0, int(1.0 / step)).map(lambda k: k * step).filter(lambda p: p <= 1.0)
    estimates = draw(st.lists(grid, min_size=len(indices), max_size=len(indices)))
    return LearnRecord(q=draw(st.integers(1, 3)), c=c, r=draw(st.integers(1, 12)),
                       delta=delta, entries=tuple(zip(indices, estimates)))


class TestRecordProperties:
    @settings(max_examples=200, deadline=None)
    @given(rec=_grid_records())
    def test_bits_roundtrip(self, rec):
        value = rec.to_int()
        assert value.bit_length() <= rec.encoded_bit_length
        assert LearnRecord.from_int(value, len(rec.entries), rec.q, rec.c, rec.r, rec.delta) == rec

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.integers(0, 3),
        b=st.integers(-2, 9),
        p=st.one_of(st.floats(-0.5, 1.5), st.just(math.nan)),
        delta=st.one_of(
            st.floats(0.0, 0.5, exclude_min=True),
            st.sampled_from([0.0, -0.1, 0.7, math.nan, 5e-324, 1e-310]),
        ),
        r=st.integers(-1, 3),
    )
    def test_constructs_exactly_what_the_encodings_hold(self, c, b, p, delta, r):
        holds = 0 <= b < 2**c and 0.0 <= p <= 1.0 and 0.0 < delta < 0.5 and r >= 1
        try:
            rec = LearnRecord(q=1, c=c, r=r, delta=delta, entries=((b, p),))
        except ValueError:
            assert not holds
            return
        assert holds
        assert rec.to_int().bit_length() <= rec.encoded_bit_length


class TestDerandomizeAlice:
    def test_deterministic_alice_unchanged(self):
        p = SmpProtocol(
            name="already-deterministic",
            alice_strategy=lambda x, c: {x: 1.0},
            bob_strategy=lambda y, c: {y: 1.0},
            referee=TableReferee(fn=lambda a, b: float(a >> 1 == b)),
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
            for b in range(2**c_b):
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
        # the multiset packed as one int, its first draw most significant
        (msg,) = compiled.alice_strategy(0, None)
        assert msg == int("".join(bitstring(a, c_a) for a in table.messages[0]), 2)
        assert msg.bit_length() <= compiled.alice_cost.bits

    def test_failure_names_largest_deviation(self):
        # hand computation: Alice sends a fair bit and s * c_B = 1 copy is
        # drawn.  Bob message 0 is always accepted (target 1, deviation 0);
        # Bob message 1 is accepted iff Alice's bit is 1 (target 1/2, empirical
        # 0 or 1), so its deviation is 1/2 on every draw and no multiset passes
        p = SmpProtocol(
            name="fair-bit",
            alice_strategy=lambda x, c: {0: 0.5, 1: 0.5},
            bob_strategy=lambda y, c: {1: 1.0},
            referee=TableReferee(fn=lambda a, b: float(b != 1 or a == 1)),
            alice_cost=Cost(bits=1),
            bob_cost=Cost(bits=1),
            alice_inputs=(0,),
            bob_inputs=(0,),
        )
        with pytest.raises(ValueError, match=r"within 1000 attempts for input 0 "
                           r"\(largest deviation 0\.5000 at Bob message 1\)"):
            derandomize_alice(p, s=1)
        # with 3-bit Bob messages, 3 draws average to a multiple of 1/3, at
        # least 1/6 from 1/2 at Bob message 1, and the failure names it as bits
        with pytest.raises(ValueError, match=r"at Bob message 001\); increase s"):
            derandomize_alice(dataclasses.replace(p, bob_cost=Cost(bits=3)), s=1)

    def test_refuses_candidates_past_the_term_budget(self):
        # each candidate costs s * c_B * 2^c_B terms: 12 * 6 * 64 =
        # 4,608 at n = 2 with two repetitions, over a budget of 1,000, so the
        # refusal comes before Alice's strategy is called at all
        p = equality_code(2, reps=2)
        calls = []

        def alice(x, coin):
            calls.append(x)
            return p.alice_strategy(x, coin)

        tol = with_overrides(DEFAULT, enum_cap=1000)
        with pytest.raises(EnumerationCapError, match=r"12 \* 6 \* 2\^6 terms"):
            derandomize_alice(dataclasses.replace(p, alice_strategy=alice), s=12, tol=tol)
        assert calls == []
        # the budget holds exactly s * c_B * 2^c_B terms
        derandomize_alice(equality_code(2), s=12, tol=with_overrides(DEFAULT, enum_cap=288))
        with pytest.raises(EnumerationCapError):
            derandomize_alice(equality_code(2), s=12, tol=with_overrides(DEFAULT, enum_cap=287))

    def test_refuses_a_zero_bit_bob_before_any_strategy_call(self):
        # s * c_B = 3 * 0 draws: an empty multiset, whose average response
        # would divide by zero
        calls = []

        def alice(x, coin):
            calls.append(x)
            return {0: 0.5, 1: 0.5}

        p = SmpProtocol(
            name="fair-bit",
            alice_strategy=alice,
            bob_strategy=lambda y, c: {0: 1.0},
            referee=TableReferee(fn=lambda a, b: float(a)),
            alice_cost=Cost(bits=1),
            bob_cost=Cost(bits=0),
            alice_inputs=(0,),
            bob_inputs=(0,),
        )
        with pytest.raises(ValueError, match="Bob's message has 0 bits"):
            derandomize_alice(p, s=3)
        assert calls == []

    def test_asks_the_referee_once_per_support_message_and_bob_message(self):
        # eq-code(3) at s = 24: 8 inputs of 4 support messages each, and 32
        # Bob messages; every candidate check and the compiled table read
        # those rows, so tabulating the compiled protocol asks it nothing
        p = equality_code(3)
        calls = []
        fn = p.referee.fn
        counted = dataclasses.replace(
            p, referee=TableReferee(fn=lambda a, b: calls.append((a, b)) or fn(a, b)))
        compiled, _ = derandomize_alice(counted, s=24, seed=2026)
        assert len(calls) == 8 * 4 * 32 == 1024
        calls.clear()
        acceptance_table(compiled, p.alice_inputs, p.bob_inputs)
        assert calls == []

    def test_referee_decodes_a_multiset_alice_never_sends(self):
        # input 0's draws in reverse: the same responses summed in that order
        p = equality_code(2)
        compiled, table = derandomize_alice(p, s=12, seed=3)
        draws = table.messages[0][::-1]
        msg = pack(draws, p.alice_cost.bits)
        assert all(msg not in compiled.alice_strategy(x, None) for x in p.alice_inputs)
        for b in range(2**p.bob_cost.bits):
            want = sum(p.referee.accept_probability(a, b) for a in draws) / len(draws)
            assert compiled.referee.accept_probability(msg, b) == want

    @pytest.mark.parametrize("msg", [-1, 1 << 5000, "0"], ids=["negative", "over-long", "str"])
    def test_referee_refuses_a_message_outside_its_bits(self, msg):
        # 12 * 3 draws of 3 bits make 108-bit messages; a shift and mask
        # alone would read -1 as all ones and 2^5000 as zeros
        compiled, _ = derandomize_alice(equality_code(2), s=12, seed=3)
        assert compiled.alice_cost.bits == 108
        with pytest.raises(ValueError, match=r"is not an int in \[0, 2\^108\)"):
            compiled.referee.accept_probability(msg, 0)

    def test_rejects_public_coin_and_quantum(self):
        from smplab.protocols import equality_public, toy_quantum_equality

        with pytest.raises(ValueError, match="private-coin"):
            derandomize_alice(equality_public(2, 1), s=2)
        with pytest.raises(ValueError, match="classical"):
            derandomize_alice(toy_quantum_equality(1), s=2)


@st.composite
def _randomized_alices(draw):
    """Private-coin protocols whose Alice has at most 3 input bits and
    distributions over at most 4 messages of at most 2 bits, with a random
    Bob and a random acceptance table."""
    c_a, c_b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    a_msgs = list(range(2**c_a))
    b_msgs = list(range(2**c_b))

    def dists(msgs, count):
        out = []
        for _ in range(count):
            support = draw(st.lists(st.sampled_from(msgs), min_size=1, unique=True))
            weights = draw(st.lists(st.integers(1, 9), min_size=len(support),
                                    max_size=len(support)))
            out.append({m: w / sum(weights) for m, w in zip(support, weights)})
        return out

    alice = dists(a_msgs, 2 ** draw(st.integers(0, 3)))
    bob = dists(b_msgs, 2 ** draw(st.integers(0, 2)))
    accept = {(a, b): draw(st.floats(0.0, 1.0)) for a in a_msgs for b in b_msgs}
    return SmpProtocol(
        name="random-randomized-alice",
        alice_strategy=lambda x, coin: alice[x],
        bob_strategy=lambda y, coin: bob[y],
        referee=TableReferee(fn=lambda a, b: accept[a, b]),
        alice_cost=Cost(bits=c_a),
        bob_cost=Cost(bits=c_b),
        alice_inputs=tuple(range(len(alice))),
        bob_inputs=tuple(range(len(bob))),
    )


class TestDerandomizeProperties:
    @settings(max_examples=60, deadline=None)
    @given(p=_randomized_alices(), seed=st.integers(0, 2**32))
    def test_deviation_and_acceptance_move_within_a_tenth(self, p, seed):
        compiled, table = derandomize_alice(p, s=30, seed=seed)
        assert table.max_deviation <= 0.1
        xs, ys = p.alice_inputs, p.bob_inputs
        after = acceptance_table(compiled, xs, ys)
        assert np.abs(after - acceptance_table(p, xs, ys)).max() <= 0.1 + cli._DERANDOMIZE_SLACK
        # the compiled referee realizes the verified multiset's responses
        for x in xs:
            for y in ys:
                want = sum(pb * table.empirical[x][b] for b, pb in p.bob_strategy(y, None).items())
                assert after[x, y] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1, max_size=39)
        .filter(lambda w: sum(w) > 0),
        m=st.integers(1, 200),
        seed=st.integers(-(1 << 70), 1 << 70),
    )
    def test_one_sized_draw_equals_sequential_draws(self, weights, m, seed):
        dist = {3 * i + 1: w for i, w in enumerate(weights)}
        sized, sequential, oracle = trial_rng(seed, 0), trial_rng(seed, 0), trial_rng(seed, 0)
        got = sample_from_distribution(dist, sized, m)
        assert got == tuple(sample_from_distribution(dist, sequential) for _ in range(m))
        # each draw is numpy's own choice over the normalized weights, which
        # a one-message law skips
        keys, probs = list(dist), np.array(weights)
        if len(keys) > 1:
            want = [keys[oracle.choice(len(keys), p=probs / probs.sum())] for _ in range(m)]
            assert got == tuple(want)
        # all generators stand at the same place in the stream afterwards
        after = sized.random()
        assert sequential.random() == after == oracle.random()

    @pytest.mark.parametrize("p, s, seed", [
        (equality_code(2), 12, 3),
        (equality_code(3), 24, 2026),
        (equality_code(3), 24, 7),
    ])
    def test_candidates_are_the_sequential_draws(self, p, s, seed):
        # the multiset each input keeps, redrawn one message at a time
        _, table = derandomize_alice(p, s=s, seed=seed)
        m = s * p.bob_cost.bits
        for xi, x in enumerate(p.alice_inputs):
            dist = p.alice_strategy(x, None)
            attempts = (
                tuple(sample_from_distribution(dist, g) for _ in range(m))
                for g in (trial_rng(derive_seed(seed, xi), a) for a in range(1000))
            )
            assert table.messages[x] in attempts

    def test_one_message_law_draws_nothing(self):
        g = trial_rng(4, 0)
        assert sample_from_distribution({6: 1.0}, g, 5) == (6,) * 5
        assert g.random() == trial_rng(4, 0).random()

    @pytest.mark.parametrize("seed", ["3", None, 1.5, True])
    def test_refuses_a_seed_that_is_not_an_int(self, seed):
        with pytest.raises(TypeError, match="seed must be an int"):
            derandomize_alice(equality_code(2), s=12, seed=seed)

    def test_a_declared_batch_declines_the_derandomized_protocol(self):
        def runner(x, y):
            raise AssertionError("the old batch ran for the new Alice")

        p = protocols._declare_batch(equality_code(2), 4, runner)
        q = derandomize_alice(p, s=12, seed=3)[0]
        assert q.batch(q, p.alice_inputs[0], p.bob_inputs[0]) is None


def _padded(record: LearnRecord, max_bits: int) -> int:
    """A record's bits padded with ones to ``max_bits``, as an int; the
    compiled Alice's message, built character by character."""
    bits = bitstring(record.to_int(), record.encoded_bit_length)
    return int(bits + "1" * (max_bits - len(bits)) or "0", 2)


def _compiled_message(record: LearnRecord, compiled: SmpProtocol) -> int:
    """The message ``compiled``'s Alice sends for ``record``."""
    return _padded(record, compiled.alice_cost.bits)


def _coin_flipped_toy() -> SmpProtocol:
    base = toy_quantum_equality(1)
    return SmpProtocol(
        name="coin-flipped-toy",
        alice_strategy=lambda x, coin: base.alice_strategy(x ^ coin, None),
        bob_strategy=lambda y, coin: {y ^ coin: 1.0},
        referee=base.referee,
        alice_cost=base.alice_cost,
        bob_cost=base.bob_cost,
        coin=CoinSpace(sampler=lambda rng: int(rng.integers(0, 2)), size=2,
                       outcomes=lambda: [(0, 0.5), (1, 0.5)]),
        alice_inputs=(0, 1, 2, 3),
        bob_inputs=(0, 1, 2, 3),
    )


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
            assert msg == _compiled_message(result.records[x], result.protocol)
            lengths.append(result.records[x].encoded_bit_length)
        assert result.protocol.alice_cost.bits == max(lengths)

    def test_an_empty_record_and_a_zero_record_send_different_messages(self):
        # |1><1| against |0><0| first: the mixed hypothesis predicts 1/2, the
        # truth is 0, so it records ((0, 0.0),), all zero bits; I/2 is
        # predicted everywhere and records ().  Padded with ones they differ;
        # padded with zeros, or not at all, both would be the int 0
        zero, half = proj([1, 0]), MeasurementOperator(np.eye(2, dtype=complex) / 2)
        p = _canonical([PureState([0, 1]).density(), maximally_mixed(1)], [0, 1], [zero, half])
        result = compile_qc_to_cc(p, delta=0.1)
        assert result.records[0].entries == ((0, 0.0),)
        assert (result.records[0].to_int(), result.records[0].encoded_bit_length) == (0, 11)
        assert result.records[1].entries == ()
        (sent_0,), (sent_1,) = (result.protocol.alice_strategy(x, None) for x in (0, 1))
        assert (sent_0, sent_1) == (0, 2**11 - 1)
        want = [[0.0, 0.5], [0.5, 0.5]]
        assert acceptance_table(p, (0, 1), (0, 1)).tolist() == want
        assert acceptance_table(result.protocol, (0, 1), (0, 1)).tolist() == want

    @pytest.mark.parametrize("msg", [5, 1, -1, True, "0", 0.0])
    def test_referee_refuses_a_message_not_below_two_to_the_max_bits(self, msg):
        # one state I/2 against two operators I/2: every index is predicted,
        # the one record is () and max_bits is 0, so 0 is the only message
        half = MeasurementOperator(np.eye(2, dtype=complex) / 2)
        compiled = compile_qc_to_cc(_canonical([maximally_mixed(1)], [0], [half, half]),
                                    delta=0.1, r=2).protocol
        assert compiled.alice_cost.bits == 0
        assert compiled.referee.accept_probability(0, 1) == 0.5
        with pytest.raises(ValueError, match=r"is not an int in \[0, 2\^0\)"):
            compiled.referee.accept_probability(msg, 0)

    def test_public_coin_compiled_per_coin_value(self):
        # coin flips which basis encodes the input; compiling fixes each coin
        # value separately and the referee still sees only (message, b)
        p = _coin_flipped_toy()
        result = compile_qc_to_cc(p, delta=0.1, r=3)
        assert set(result.records) == {(x, c) for x in range(4) for c in range(2)}
        worst = max(
            abs(exact_acceptance(result.protocol, x, y) - exact_acceptance(p, x, y))
            for x in range(4)
            for y in range(4)
        )
        assert worst <= 0.1 + 1e-9

    def test_an_over_cap_coin_is_refused_before_any_walk(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("average_observable called")

        monkeypatch.setattr(transforms, "average_observable", no_build)
        with pytest.raises(EnumerationCapError, match="coin space of size 2 exceeds term budget 1"):
            compile_qc_to_cc(_coin_flipped_toy(), delta=0.1, r=3,
                             tol=dataclasses.replace(DEFAULT, enum_cap=1))

    def test_a_coin_whose_weights_miss_one_is_refused_before_any_strategy_call(
        self, monkeypatch
    ):
        def no_build(*args):
            raise AssertionError("average_observable called")

        monkeypatch.setattr(transforms, "average_observable", no_build)
        p, calls = _coin_flipped_toy(), []
        alice = p.alice_strategy
        half = dataclasses.replace(
            p,
            alice_strategy=lambda x, coin: calls.append(x) or alice(x, coin),
            coin=dataclasses.replace(p.coin, outcomes=lambda: [(0, 0.25), (1, 0.25)]),
        )
        with pytest.raises(ValueError, match="coin weights sum to 0.5, not 1"):
            compile_qc_to_cc(half, delta=0.1, r=2)
        assert calls == []

    def test_compile_below_the_papers_r_carries_a_note(self):
        # hm-verify at r = 3: the band [0.45, 0.55] holds no multiple of 1/3
        with pytest.raises(VanishingProjectionError) as err:
            compile_qc_to_cc(hidden_matching_verification(4), delta=0.1, r=3)
        assert err.value.__notes__ == ["r = 3 is below the paper's r = 555"]

    def test_one_operator_family_sends_zero_bob_bits(self):
        # c = 0: every record entry is an estimate with no index bits
        states = [PureState([1, 0]).density(), PureState([0, 1]).density()]
        p = SmpProtocol(
            name="one-operator",
            alice_strategy=lambda x, _c: states[x],
            bob_strategy=lambda _y, _c: {0: 1.0},
            referee=OperatorReferee([proj([1, 0])]),
            alice_cost=Cost(qubits=1),
            bob_cost=Cost(bits=0),
            alice_inputs=(0, 1),
            bob_inputs=(0,),
        )
        result = compile_qc_to_cc(p, delta=0.1, r=2)
        assert [result.records[x].entries for x in (0, 1)] == [((0, 1.0),), ((0, 0.0),)]
        worst = max(
            abs(exact_acceptance(result.protocol, x, 0) - exact_acceptance(p, x, 0))
            for x in (0, 1)
        )
        assert worst <= 0.1

    def test_forged_message_raises_its_error_on_every_read(self):
        # a replay that fails is not stored: each read walks the forged record
        # again and raises an error of its own, with the same text
        p = toy_quantum_equality(1)
        compiled = compile_qc_to_cc(p, delta=0.1, r=3).protocol
        other = [MeasurementOperator(DIAG([0.8, 0.2]).astype(complex))] * 4
        foreign, _ = learn_state_message(PureState([1, 0]).density(), other, 0.1, r=3)
        msg = _compiled_message(foreign, compiled)
        errors = []
        for _ in range(2):
            with pytest.raises(ReplayMismatchError, match="vanishes on replay") as err:
                compiled.referee.accept_probability(msg, 0)
            errors.append(err.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])

    def test_rejects_non_canonical_protocols(self):
        with pytest.raises(ValueError, match="canonical"):
            compile_qc_to_cc(equality_code(2), delta=0.1)

    @pytest.mark.parametrize("count, bits", [(4, 3), (4, 1), (2, 2)])
    def test_operator_family_must_hold_one_operator_per_bob_message(self, count, bits):
        # operators[b] measures Bob's message b, so a family is whole when it
        # holds one operator per message
        p = toy_quantum_equality(1)
        p = dataclasses.replace(
            p, referee=OperatorReferee(p.referee.operators[:count]), bob_cost=Cost(bits=bits)
        )
        with pytest.raises(ValueError) as err:
            compile_qc_to_cc(p, delta=0.1, r=2)
        assert str(err.value) == f"referee family holds {count} operators, not 2^{bits}"

    @pytest.mark.parametrize("changes, match", [
        ({"alice_inputs": None}, "explicit Alice input set"),
        ({"alice_inputs": ()}, "no \\(input, coin\\) pair to compile"),
        ({"coin": CoinSpace(sampler=lambda g: 0, size=0, outcomes=tuple)},
         "coin weights sum to 0.0, not 1"),
    ], ids=["no-inputs", "empty-inputs", "empty-coin"])
    def test_rejects_a_protocol_with_no_state_to_compile(self, changes, match):
        # the records' shape comes from checking Alice's states, so a
        # protocol with no (input, coin) pair has nothing to compile
        p = dataclasses.replace(toy_quantum_equality(1), **changes)
        with pytest.raises(ValueError, match=match):
            compile_qc_to_cc(p, delta=0.1, r=2)


def _compiled_referees():
    """(protocol, its compiled protocol, a message the compiled Alice sends) of
    both transforms: the learning compiler on toy-q1 at r = 3 (c_B = 2) and
    derandomized eq-code at n = 2 (c_B = 3)."""
    quantum, classical = toy_quantum_equality(1), equality_code(2)
    learned = compile_qc_to_cc(quantum, 0.1, r=3).protocol
    derandomized, _ = derandomize_alice(classical, s=12, seed=3)
    return [(p, q, next(iter(q.alice_strategy(q.alice_inputs[0], None))))
            for p, q in ((quantum, learned), (classical, derandomized))]


class TestCompiledReferees:
    """Both compiled protocols come from one builder and refuse alike."""

    def test_bob_message_outside_its_bits_is_refused(self):
        # the learning compiler's referee used to index its estimates with
        # Bob's message unchecked (-1 read index 3's, 4 raised IndexError)
        # and the derandomized one raised KeyError
        referees = _compiled_referees()
        assert [q.bob_cost.bits for _, q, _ in referees] == [2, 3]
        for _, q, sent in referees:
            c_b = q.bob_cost.bits
            for b in (-1, 2**c_b, "0"):
                with pytest.raises(ValueError) as err:
                    q.referee.accept_probability(sent, b)
                assert str(err.value) == f"message {b!r} is not an int in [0, 2^{c_b})"
            assert 0.0 <= q.referee.accept_probability(sent, 2**c_b - 1) <= 1.0

    def test_over_long_alice_message_is_named_by_its_bit_length(self):
        # formatting 2^20000 in decimal passes Python's int-to-str limit
        for _, q, _ in _compiled_referees():
            with pytest.raises(ValueError) as err:
                q.referee.accept_probability(1 << 20000, 0)
            bits = q.alice_cost.bits
            assert str(err.value) == f"message of 20001 bits is not an int in [0, 2^{bits})"

    def test_only_the_name_alice_and_the_referee_are_replaced(self):
        replaced = {"name", "alice_strategy", "alice_cost", "referee"}
        for p, q, _ in _compiled_referees():
            kept = [f.name for f in dataclasses.fields(p) if f.name not in replaced]
            assert [getattr(q, k) for k in kept] == [getattr(p, k) for k in kept]
            assert q.name.startswith(p.name + "+")


class TestSharedObservables:
    """``learn_round_trip`` shares one spectral build between the sender and
    the receiver, whose checks read the sender's numbers, bit for bit."""

    @staticmethod
    def _instance(seed):
        g = np.random.default_rng(seed)
        q = 1 + seed % 2
        rho = random_density(2**q, g)
        ops = [random_measurement_operator(2**q, g) for _ in range(8)]
        return rho, ops, 8 // q

    @pytest.mark.parametrize("seed", range(4))
    def test_records_diagnostics_and_estimates_identical(self, seed):
        rho, ops, r = self._instance(seed)
        record, diags, estimates = learn_round_trip(rho, ops, 0.1, r)
        assert (record, diags) == learn_state_message(rho, ops, 0.1, r)
        assert estimates.tobytes() == reconstruct_estimates(record, ops).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_replay_through_the_senders_family_recomputes_nothing(
        self, seed, kernel_calls, replay_calls, sender_calls
    ):
        # one sender walk, then neither a receiver walk nor a kernel call
        rho, ops, r = self._instance(seed)
        learn_round_trip(rho, ops, 0.1, r)
        assert replay_calls == []
        assert sender_calls == [kernel_calls]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(1, 2),
        c=st.integers(1, 3),
        r=st.integers(1, 3),
        delta=st.sampled_from([0.1, 0.3]),
    )
    def test_round_trip_is_sender_then_receiver(
        self, kernel_calls, replay_calls, sender_calls, seed, q, c, r, delta
    ):
        # an honest record always replays, so the composition raises only the
        # sender's error, and the round trip raises the same one
        g = np.random.default_rng(seed)
        rho = random_density(2**q, g)
        ops = [random_measurement_operator(2**q, g) for _ in range(2**c)]
        try:
            record, diags = learn_state_message(rho, ops, delta, r)
        except VanishingProjectionError as err:
            with pytest.raises(VanishingProjectionError) as got:
                learn_round_trip(rho, ops, delta, r)
            assert (got.value.step, got.value.trace) == (err.step, err.trace)
            return
        estimates = reconstruct_estimates(record, ops)
        replay_calls.clear()
        sender_calls.clear()
        got = learn_round_trip(rho, ops, delta, r)
        assert got[:2] == (record, diags)
        assert got[2].tobytes() == estimates.tobytes()
        assert replay_calls == []
        assert sender_calls == [kernel_calls]

    def test_receiver_checks_guard_sent_records(self, monkeypatch):
        # with a negative slack every recorded correction lies inside the
        # receiver's mismatch bound, so a sent record fails its own checks:
        # fed the sender's numbers, those checks still run on it
        monkeypatch.setattr(transforms, "_REPLAY_SLACK", -1.0)
        with pytest.raises(ReplayMismatchError, match="already-predicted"):
            compile_qc_to_cc(toy_quantum_equality(1), 0.1, r=3)
        with pytest.raises(ReplayMismatchError, match="already-predicted"):
            learn_round_trip(PureState([1, 0]).density(), [proj([1, 0]), proj([0, 1])], 0.1, 2)

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
        assert transforms._check_learn_inputs(
            [PureState([1, 0]).density()], ops, 0.1, None, DEFAULT
        ) == (1, 1, default_copies(1, 0.1))

    @pytest.mark.parametrize("delta, r, ops, match", [
        (0.7, 13, [proj([1, 0]), proj([0, 1])], "delta"),
        (0.1, 13, [proj([1, 0])] * 3, "power-of-two"),
        (0.1, 13, [proj([1, 0]), proj([1, 0, 0, 0])], "mixed dimensions"),
        (0.1, 13, [proj([1, 0, 0, 0])] * 2, "state dimension"),
    ])
    def test_first_fault_wins_as_in_the_learner(self, delta, r, ops, match):
        # r = 13 would also exceed the dimension cap; the earlier fault is reported
        rho = PureState([1, 0]).density()
        for fn, state in ((transforms._check_learn_inputs, [rho]),
                          (learn_state_message, rho), (learn_round_trip, rho)):
            with pytest.raises(ValueError, match=match) as err:
                fn(state, ops, delta, r, DEFAULT)
            assert not isinstance(err.value, DimensionCapError)

    def test_cap(self):
        ops = [proj([1, 0]), proj([0, 1])]
        with pytest.raises(DimensionCapError, match="r\\*q = 13"):
            transforms._check_learn_inputs([PureState([1, 0]).density()], ops, 0.1, 13, DEFAULT)


# The per-state loops the compiler ran before it grouped states by decision
# prefix, kept as the oracle for the grouped walks: one walk per (x, coin) on
# the sender's side, one replay per record on the receiver's.


def _per_state_learn(rho, operators, observables, delta, r, tol=DEFAULT):
    c, q, r = transforms._check_learn_inputs([rho], operators, delta, r, tol)
    hypothesis = maximally_mixed(r * q, tol)
    entries, traces, margins, flagged, estimates, trues = [], [], [], [], [], []
    for b, (e, f) in enumerate(zip(operators, observables)):
        p_true = acceptance_probability(e, rho, tol)
        estimate = f.expectation(hypothesis)
        estimates.append(estimate)
        trues.append(p_true)
        if abs(estimate - p_true) <= delta:
            continue
        step = delta / 8.0
        p_tilde = min(1.0, max(0.0, round(p_true / step) * step))
        band = band_projector(f, p_tilde, delta / 2.0, tol)
        margin = band_edge_margin(f, p_tilde, delta / 2.0)
        trace = float(np.sum(band * hypothesis.entries.T).real)
        lo, hi = p_tilde - delta / 2.0, p_tilde + delta / 2.0
        if trace <= tol.zero_projection and not any(
            lo - tol.band_pad <= v <= hi + tol.band_pad for v in f.eigenvalues
        ):
            nearest = min(f.eigenvalues, key=lambda v: abs(v - p_tilde))
            raise VanishingProjectionError(b, trace, (lo, hi), nearest)
        if trace <= tol.zero_projection:
            raise VanishingProjectionError(step=b, trace=trace)
        hypothesis = project_renormalize(hypothesis, band, tol)
        entries.append((b, p_tilde))
        traces.append(trace)
        margins.append(margin)
        if margin < tol.band_edge_flag:
            flagged.append(b)
    record = LearnRecord(q=q, c=c, r=r, delta=delta, entries=tuple(entries))
    diags = LearnDiagnostics(
        bad_count=len(entries),
        projection_traces=tuple(traces),
        band_edge_margins=tuple(margins),
        flagged_steps=tuple(flagged),
        estimates_before=tuple(estimates),
        true_probabilities=tuple(trues),
    )
    return record, diags


def _per_record_replay(record, observables, tol=DEFAULT):
    delta = record.delta
    corrected = dict(record.entries)
    hypothesis = maximally_mixed(record.r * record.q, tol)
    out = np.empty(len(observables))
    for b, f in enumerate(observables):
        estimate = f.expectation(hypothesis)
        if b not in corrected:
            out[b] = min(1.0, max(0.0, estimate))
            continue
        p_tilde = corrected[b]
        if abs(estimate - p_tilde) <= delta - delta / 8.0 - 1e-9:
            raise ReplayMismatchError(
                f"recorded index {b} replays as already-predicted; "
                "record does not match this operator family"
            )
        band = band_projector(f, p_tilde, delta / 2.0, tol)
        if float(np.sum(band * hypothesis.entries.T).real) <= tol.zero_projection:
            raise ReplayMismatchError(f"projection at recorded index {b} vanishes on replay")
        hypothesis = project_renormalize(hypothesis, band, tol)
        out[b] = p_tilde
    return out


def _per_state_compile(p, delta, r):
    """Records, diagnostics, replayed estimates and compiled protocol, one state at a time."""
    operators = p.referee.operators
    q = operators[0].num_qubits
    r = default_copies(q, delta) if r is None else r
    observables = [average_observable(e, r) for e in operators]
    coins = [None] if p.coin is None else [v for v, _ in p.coin.outcomes()]
    records, diagnostics = {}, {}
    for x in p.alice_inputs:
        for coin in coins:
            key = x if p.coin is None else (x, coin)
            records[key], diagnostics[key] = _per_state_learn(
                p.alice_strategy(x, coin), operators, observables, delta, r
            )
    max_bits = max(rec.encoded_bit_length for rec in records.values())
    messages = {key: _padded(rec, max_bits) for key, rec in records.items()}
    c = len(operators).bit_length() - 1
    replayed = {
        _padded(rec, max_bits): _per_record_replay(
            LearnRecord.from_int(rec.to_int(), len(rec.entries), q, c, r, delta), observables)
        for rec in records.values()
    }
    protocol = SmpProtocol(
        name="per-state",
        alice_strategy=lambda x, coin: {messages[x if p.coin is None else (x, coin)]: 1.0},
        bob_strategy=p.bob_strategy,
        referee=TableReferee(fn=lambda a, b: float(replayed[a][b])),
        alice_cost=Cost(bits=max_bits),
        bob_cost=p.bob_cost,
        coin=p.coin,
        alice_inputs=p.alice_inputs,
        bob_inputs=p.bob_inputs,
    )
    return records, diagnostics, replayed, protocol


def _assert_matches_per_state(p, delta, r):
    """Compile ``p`` and check it against the per-state loops; None when both raise."""
    try:
        records, diagnostics, replayed, reference = _per_state_compile(p, delta, r)
    except (ValueError, VanishingProjectionError) as err:
        with pytest.raises(type(err)) as got:
            compile_qc_to_cc(p, delta, r)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        assert getattr(got.value, "step", None) == getattr(err, "step", None)
        assert getattr(got.value, "trace", None) == getattr(err, "trace", None)
        return None
    result = compile_qc_to_cc(p, delta, r)
    assert result.records == records
    assert result.diagnostics == diagnostics
    c = p.bob_cost.bits
    for msg, estimates in replayed.items():
        got = [result.protocol.referee.accept_probability(msg, b) for b in range(2**c)]
        assert got == estimates.tolist()
    xs, ys = p.alice_inputs, p.bob_inputs
    assert np.array_equal(
        acceptance_table(result.protocol, xs, ys), acceptance_table(reference, xs, ys)
    )
    return result


def _canonical(states, picks, operators) -> SmpProtocol:
    """Alice sends ``states[picks[x]]``; Bob names the operator."""
    c = len(operators).bit_length() - 1
    return SmpProtocol(
        name="canonical",
        alice_strategy=lambda x, _c: states[picks[x]],
        bob_strategy=lambda y, _c: {y: 1.0},
        referee=OperatorReferee(operators),
        alice_cost=Cost(qubits=operators[0].num_qubits),
        bob_cost=Cost(bits=c),
        alice_inputs=tuple(range(len(picks))),
        bob_inputs=tuple(range(len(operators))),
    )


def _plus(weight: float) -> DensityMatrix:
    """weight |+><+| + (1 - weight) |-><-|."""
    return DensityMatrix(np.array([[0.5, weight - 0.5], [weight - 0.5, 0.5]], dtype=complex))


class TestGroupedWalk:
    """One walk per family on each side, equal bit for bit to the per-state loops."""

    @pytest.mark.parametrize("make, r, completes", [
        pytest.param(lambda: toy_quantum_equality(1), 3, True, id="toy-q1-r3"),
        pytest.param(lambda: toy_quantum_equality(1), 8, True, id="toy-q1-r8"),
        pytest.param(lambda: toy_quantum_equality(2), None, True, id="toy-q2"),
        pytest.param(lambda: hidden_matching_verification(4), 2, True, id="hm-verify-r2"),
        # input 0's first correction vanishes at step 0
        pytest.param(lambda: hidden_matching_verification(4), 3, False, id="hm-verify-r3"),
        pytest.param(_coin_flipped_toy, 3, True, id="public-coin"),
    ])
    def test_fixtures_equal_per_state_loop(self, make, r, completes):
        assert (_assert_matches_per_state(make(), 0.1, r) is not None) == completes

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(1, 2),
        c=st.integers(1, 3),
        picks=st.lists(st.integers(0, 2), min_size=2, max_size=7),
    )
    def test_random_families_with_repeated_states(self, seed, q, c, picks):
        # three states over up to seven inputs: equal states share every
        # decision, distinct ones split where their decisions first differ
        g = np.random.default_rng(seed)
        states = [random_density(2**q, g) for _ in range(3)]
        operators = [random_measurement_operator(2**q, g) for _ in range(2**c)]
        r = int(g.integers(2, 6 // q + 1))
        delta = 0.1
        p = _canonical(states, picks, operators)
        result = _assert_matches_per_state(p, delta, r)
        if result is None:
            return
        # the paper's claims on every protocol that compiles: the error grows
        # by at most delta, each state corrects at most bad_count_bound times,
        # and every projection keeps at most eta of the hypothesis
        xs, ys = p.alice_inputs, p.bob_inputs
        increase = np.abs(acceptance_table(result.protocol, xs, ys) - acceptance_table(p, xs, ys))
        assert increase.max() <= delta + cli._COMPILE_SLACK
        eta = 1.0 - delta / 4.0
        for diag in result.diagnostics.values():
            assert diag.bad_count <= bad_count_bound(r * q, delta)
            assert max(diag.projection_traces, default=0.0) <= eta

    def test_hm_verify_one_call_per_distinct_prefix_on_each_side(
        self, kernel_calls, replay_calls, sender_calls
    ):
        # the sender walks each distinct prefix once; the receiver's checks
        # read the sender's numbers for every record Alice sends, so reading
        # the compiled referee makes no receiver walk and no kernel call
        p = hidden_matching_verification(4)
        result = compile_qc_to_cc(p, delta=0.1)
        acceptance_table(result.protocol, p.alice_inputs, p.bob_inputs)

        distinct = {rec.entries for rec in result.records.values()}
        steps = 2 ** next(iter(result.records.values())).c
        corrections = len({ent[:t] for ent in distinct for t in range(1, len(ent) + 1)})
        groups = sum(
            len({tuple(e for e in ent if e[0] < b) for ent in distinct}) for b in range(steps)
        )
        bands = len({e for ent in distinct for e in ent})
        assert sender_calls == [Counter(
            expectation=groups, project_renormalize=corrections, band_projector=bands
        )]
        assert kernel_calls == sender_calls[0]
        assert replay_calls == []
        assert (groups, corrections, bands) == (101, 48, 18)
        # a receiver walk grouped as the sender's would double these to 96
        # projections and 202 expectations; one walk per state and per
        # record, 192 and 384
        assert (2 * corrections, 2 * groups) == (96, 202)
        # what the referee reads is each record's own walk, bit for bit
        assert _assert_matches_per_state(p, 0.1, None) is not None

    def test_hm_verify_builds_each_dense_observable_once_and_drops_it(self, monkeypatch):
        # F_b is built at step b of the sender's walk and dropped before its
        # corrections; the receiver reads the sender's numbers and walks none
        builds = Counter()
        build = Observable.matrix.func

        def counted(f):
            builds[id(f)] += 1
            return build(f)

        matrix = cached_property(counted)
        matrix.__set_name__(Observable, "matrix")
        monkeypatch.setattr(Observable, "matrix", matrix)
        walk, families = transforms._grouped_walk, []

        def walked(qubits, count, observables, *args):
            families.append(observables)
            return walk(qubits, count, observables, *args)

        monkeypatch.setattr(transforms, "_grouped_walk", walked)
        p = hidden_matching_verification(4)
        result = compile_qc_to_cc(p, delta=0.1)
        acceptance_table(result.protocol, p.alice_inputs, p.bob_inputs)
        (family,) = families
        assert len(family) == 16
        assert all("matrix" not in vars(f) for f in family)
        assert [builds[id(f)] for f in family] == [1] * len(family)
        assert sum(builds.values()) == len(family)

    def test_records_alice_never_sends_replay_as_alone(self, kernel_calls):
        # toy-q2 on four copies sends ((0, 0.0), (1, 1.0)) among its records:
        # one unsent record shares its first correction and then diverges,
        # and a foreign one vanishes at its first; each read through the
        # compiled referee equals the record's own walk
        p = toy_quantum_equality(2)
        result = compile_qc_to_cc(p, delta=0.1, r=4)
        assert ((0, 0.0), (1, 1.0)) in {rec.entries for rec in result.records.values()}
        observables = [average_observable(e, 4) for e in p.referee.operators]
        diverging = LearnRecord(q=2, c=2, r=4, delta=0.1, entries=((0, 0.0), (1, 0.5)))
        other = [MeasurementOperator(DIAG([0.8, 0.2, 0.2, 0.2]).astype(complex))] * 4
        foreign, _ = learn_state_message(PureState([1, 0, 0, 0]).density(), other, 0.1, r=4)
        assert foreign.entries == ((0, 0.8),)
        referee = result.protocol.referee
        for record in (diverging, foreign):
            kernel_calls.clear()
            try:
                want = _per_record_replay(record, observables).tolist()
            except ReplayMismatchError as err:
                want = err

            def read():
                msg = _compiled_message(record, result.protocol)
                return [referee.accept_probability(msg, b) for b in range(4)]

            if isinstance(want, Exception):
                with pytest.raises(type(want)) as got:
                    read()
                assert str(got.value) == str(want)
            else:
                assert read() == want
            # no more projections than the record's own walk makes
            assert kernel_calls["project_renormalize"] <= len(record.entries)

    def test_earliest_input_error_wins(self):
        # input 0 skips |+><+| and the identity, then its truncated 0.3 on
        # |0><0| falls in the gap of the two-copy spectrum {0, 1/2, 1} at
        # step 2; input 1 falls in the same gap at step 0, so the grouped
        # walk meets input 1's failure first but must report input 0's
        zero = MeasurementOperator(DIAG([1.0, 0.0]).astype(complex))
        operators = [MeasurementOperator(_plus(1.0).entries), identity(2),
                     zero, identity(2)]
        states = [DensityMatrix(DIAG([0.3, 0.7]).astype(complex)), _plus(0.3)]
        with pytest.raises(VanishingProjectionError) as alone:
            learn_state_message(states[1], operators, 0.1, r=2)
        assert alone.value.step == 0
        p = _canonical(states, [0, 1], operators)
        with pytest.raises(VanishingProjectionError) as err:
            compile_qc_to_cc(p, 0.1, r=2)
        assert (err.value.step, err.value.trace) == (2, 0.0)
        assert _assert_matches_per_state(p, 0.1, 2) is None

    @pytest.mark.parametrize("bad, match", [
        (PureState([1, 0, 0, 0]).density(), "state dimension 4 != operator dimension 2"),
        (PureState(np.array([1, 0], dtype=complex)), "density matrices, got PureState"),
    ], ids=["wrong-size", "pure-state"])
    @pytest.mark.parametrize("at", range(3))
    def test_invalid_state_is_refused_before_any_walk(self, monkeypatch, bad, match, at):
        # the first state fails its own walk (a vanishing projection at step
        # 0), yet an invalid state at any input wins, before any spectral build
        operators = [proj([1, 0]), proj([0, 1])]
        vanishing = DensityMatrix(DIAG([0.3, 0.7]).astype(complex))
        states = [vanishing, PureState([1, 0]).density(), PureState([0, 1]).density()]
        states[at] = bad
        builds = []

        def counted(*args):
            builds.append(args)
            return average_observable(*args)

        monkeypatch.setattr(transforms, "average_observable", counted)
        with pytest.raises(ValueError, match=match):
            compile_qc_to_cc(_canonical(states, [0, 1, 2], operators), 0.1, r=2)
        assert builds == []

    def test_foreign_record_raises_after_warm_replay(self):
        p = toy_quantum_equality(1)
        result = compile_qc_to_cc(p, delta=0.1, r=3)
        referee = result.protocol.referee
        for x in p.alice_inputs:
            (msg,) = result.protocol.alice_strategy(x, None)
            referee.accept_probability(msg, 0)
        # against E = diag(0.8, 0.2) the state |0> records 0.8 at index 0,
        # which toy-q1's |0><0| family cannot reach on three copies
        other = [MeasurementOperator(DIAG([0.8, 0.2]).astype(complex))] * 4
        foreign, _ = learn_state_message(PureState([1, 0]).density(), other, 0.1, r=3)
        assert foreign.entries == ((0, 0.8),)
        with pytest.raises(ReplayMismatchError, match="vanishes on replay"):
            referee.accept_probability(_compiled_message(foreign, result.protocol), 0)

    def test_correction_on_the_mismatch_bound_replays(self):
        # delta 1/8 keeps the arithmetic exact: the mixed hypothesis predicts
        # 1/2, and 1/2 + (delta - delta/8) sits exactly on the mismatch
        # bound, so only the replay's slack keeps this recorded correction;
        # past the slack, just inside the bound, the record is refused
        ops = [proj([1, 0]), proj([0, 1])]
        rec = LearnRecord(q=1, c=1, r=8, delta=0.125, entries=((0, 0.5 + 7 / 64),))
        assert reconstruct_estimates(rec, ops)[0] == 0.609375
        inside = LearnRecord(q=1, c=1, r=8, delta=0.125, entries=((0, 0.609375 - 2e-9),))
        with pytest.raises(ReplayMismatchError, match="already-predicted"):
            reconstruct_estimates(inside, ops)

    def test_honest_record_replays_when_8_over_delta_is_not_an_integer(self):
        # delta 0.3: the state accepts surely, and the top of the delta/8 grid
        # truncates 1.0 to 0.975, so the correction of the mixed prediction
        # 0.695 disagrees with its record by 0.28, above 7 delta / 8 = 0.2625
        # (the sender's guarantee) but below delta - delta/16 = 0.28125
        ops = [MeasurementOperator(DIAG([1.0, 0.39]).astype(complex))] * 2
        rho = PureState([1, 0]).density()
        record, diags, estimates = learn_round_trip(rho, ops, 0.3, 2)
        assert record.entries == ((0, 0.975),)
        assert diags.estimates_before[0] == pytest.approx(0.695, abs=1e-12)
        assert estimates.tobytes() == reconstruct_estimates(record, ops).tobytes()
        assert np.max(np.abs(estimates - 1.0)) == pytest.approx(0.025, abs=1e-12)
        assert (_per_record_replay(record, [average_observable(e, 2) for e in ops])
                .tobytes() == estimates.tobytes())


@pytest.mark.parametrize("call, message", [
    (lambda: reconstruct_estimates(LearnRecord(q=1, c=2, r=2, delta=0.1, entries=()),
                                   [proj([1, 0]), proj([0, 1])]),
     "record indexes 2-bit family, got 1-bit"),
    (lambda: derandomize_alice(equality_code(2), s=0), "need s >= 1"),
    (lambda: derandomize_alice(dataclasses.replace(equality_code(2), alice_inputs=None), s=1),
     "needs an explicit Alice input set"),
    (lambda: learn_state_message(PureState(np.array([1, 0], dtype=complex)),
                                 [proj([1, 0]), proj([0, 1])], 0.1, 2),
     "the learner walks density matrices, got PureState"),
], ids=["record-width", "no-copies", "no-alice-inputs", "pure-state"])
def test_guards_raise_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestLearnRoundTrip:
    def test_one_spectral_build_per_operator(self, monkeypatch):
        calls = []

        def counted(e, r, tol=DEFAULT):
            calls.append(r)
            return average_observable(e, r, tol)

        monkeypatch.setattr(transforms, "average_observable", counted)
        g = np.random.default_rng(2)
        rho = random_density(2, g)
        ops = [random_measurement_operator(2, g) for _ in range(8)]
        record, diag, estimates = learn_round_trip(rho, ops, 0.1, 6, DEFAULT)
        assert calls == [6] * len(ops)
        assert float(np.max(np.abs(estimates - np.array(diag.true_probabilities)))) <= 0.1

    def test_walk_holds_one_dense_observable_at_a_time(self):
        # K = 8: eight one-qubit operators on r = 8 copies, d = 256.  Index 0
        # is corrected (the mixed hypothesis predicts 1/2, the state accepts
        # surely) and the rest are skipped.  A walk that kept each F cached
        # would hold eight d x d matrices by its last step; this one holds at
        # most the hypothesis, one F or band, and the correction's checks.
        g = np.random.default_rng(8)
        ops = [MeasurementOperator(np.diag([1.0, 0.0]).astype(complex))]
        ops += [random_measurement_operator(2, g) for _ in range(7)]
        tracemalloc.start()
        try:
            record, *_ = learn_round_trip(PureState([1, 0]).density(), ops, 0.1, 8, DEFAULT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.entries == ((0, 1.0),)
        d = 2**8
        assert peak <= 6 * d * d * 16

    def test_no_stale_hypothesis_outlives_its_step(self, monkeypatch):
        # the same K = 8 walk: when each dense F is built, the walk holds the
        # hypotheses of its groups and nothing more.  One hypothesis is d x d,
        # so a step that kept the one its correction replaced would enter the
        # next F build holding two (the peak above misses that: the
        # correction's own checks peak higher)
        held = []
        build = Observable.matrix.func

        def traced(f):
            held.append(tracemalloc.get_traced_memory()[0])
            return build(f)

        matrix = cached_property(traced)
        matrix.__set_name__(Observable, "matrix")
        monkeypatch.setattr(Observable, "matrix", matrix)
        g = np.random.default_rng(8)
        ops = [MeasurementOperator(np.diag([1.0, 0.0]).astype(complex))]
        ops += [random_measurement_operator(2, g) for _ in range(7)]
        tracemalloc.start()
        try:
            record, *_ = learn_round_trip(PureState([1, 0]).density(), ops, 0.1, 8, DEFAULT)
        finally:
            tracemalloc.stop()
        assert record.entries == ((0, 1.0),)
        d = 2**8
        assert len(held) == len(ops)
        assert max(held) <= 1.5 * d * d * 16

    def test_invalid_delta_reported_before_the_cap(self):
        rho = PureState([1, 0]).density()
        ops = [
            MeasurementOperator(np.diag([1.0, 0.0]).astype(complex)),
            MeasurementOperator(np.diag([0.0, 1.0]).astype(complex)),
        ]
        with pytest.raises(ValueError, match="need delta"):
            learn_round_trip(rho, ops, 0.7, 13, DEFAULT)
