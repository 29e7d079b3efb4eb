"""Message replacement transforms.

Three ways to shrink what Alice must send:

* ``derandomize_alice``: replace a randomized classical message by a verified
  deterministic multiset of messages whose empirical referee response is
  within 1/10 of the true expectation for every possible Bob message.  The
  multiset is sent as one int, its first draw most significant.  The referee
  is asked once per (input, support message, Bob message); the candidate
  checks and the new referee read those rows.
* ``learn_state_message``: replace a quantum state by a short deterministic
  record.  The sender walks Bob's measurement operators in index order while
  maintaining a hypothesis state (starting maximally mixed).  Indices whose
  averaged observable already predicts the true acceptance within ``delta``
  are skipped; for the rest the sender records the truncated acceptance and
  projects the hypothesis onto the matching eigenvalue band.  The walk logs
  each step's estimate and each correction's band trace, and the receiver
  is one check of a record against such a log: the sender's, for a record
  it made, or the log of a replay walk correcting at the record's indices.
* ``compile_qc_to_cc``: apply the state-learning message inside a protocol,
  turning a quantum-classical protocol into a classical one whose worst-case
  error is at most ``delta`` worse.  A deterministic message is in particular
  a valid randomized message, so this also realizes the randomized
  replacement.  Alice sends the record as one int, padded to the longest
  record with all-ones entries, which no real entry is.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    DimensionCapError,
    EnumerationCapError,
    ReplayMismatchError,
    VanishingProjectionError,
)
from .qcore import (
    DensityMatrix,
    MeasurementOperator,
    Observable,
    acceptance_probability,
    average_observable,
    band_edge_margin,
    band_projector,
    maximally_mixed,
    project_renormalize,
)
from .smp import (
    Cost,
    OperatorReferee,
    SmpProtocol,
    TableReferee,
    bitstring,
    check_message,
    coin_terms,
    pack,
    sample_from_distribution,
    validate_distribution,
)
from .rng import derive_seed, trial_rng

__all__ = [
    "LearnRecord",
    "LearnDiagnostics",
    "DeterministicMessageTable",
    "CompileResult",
    "paper_copies",
    "default_copies",
    "learn_state_message",
    "reconstruct_estimates",
    "learn_round_trip",
    "bad_count_bound",
    "derandomize_alice",
    "compile_qc_to_cc",
]


def _tilde_bits(delta: float) -> int:
    """Bits reserved per truncated estimate: ceil(log2(8/delta)) + 3.

    For delta = m * 2**e with 1/2 <= m < 1 that ceiling is exactly 4 - e,
    taken from the exponent because 8/delta overflows for a subnormal delta.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("need delta in (0, 1/2)")
    return 4 - math.frexp(delta)[1] + 3


def _truncate(p: float, delta: float) -> float:
    """Nearest multiple of delta/8 in [0, 1]; the recorded estimate.

    Above the last grid point at most 1 it is that point, found in exact
    arithmetic: 8/delta is rarely an integer, and in floats its floor is
    fragile.  Raises ValueError when delta is too small for the grid to fit
    in a float.
    """
    step = delta / 8.0
    if step == 0.0 or 1.0 / step == math.inf:
        raise ValueError(f"delta {delta!r} is too small for a float grid of delta/8")
    k = round(p / step)
    if k * step > 1.0:
        k = math.floor(1 / Fraction(step))  # k * step <= 1 exactly
    return max(0.0, k * step)


@dataclass(frozen=True)
class LearnRecord:
    """Deterministic stand-in for a quantum state against a fixed operator family.

    ``entries`` lists, in increasing index order, the operator indices the
    sender had to correct, each with the truncated acceptance probability
    (a multiple of delta/8).  Construction rejects what the encodings cannot
    hold: an index outside c bits, an estimate outside [0, 1], delta outside
    (0, 1/2) or r below 1.
    """

    q: int
    c: int
    r: int
    delta: float
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((int(b), float(p)) for b, p in self.entries)
        )
        _tilde_bits(self.delta)  # rejects delta outside (0, 1/2)
        if self.r < 1:
            raise ValueError("need r >= 1")
        for b, p in self.entries:
            if b < 0 or b.bit_length() > self.c:
                raise ValueError(f"index {b} does not fit in {self.c} bits")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"estimate {p!r} is outside [0, 1]")
        for (b1, _), (b2, _) in zip(self.entries, self.entries[1:]):
            if b1 >= b2:
                raise ValueError("entries must be strictly increasing in index")

    @property
    def encoded_bit_length(self) -> int:
        return len(self.entries) * (self.c + _tilde_bits(self.delta))

    def to_int(self) -> int:
        """The message itself: per entry, the index then the estimate's grid
        position, the first entry most significant.

        Grid positions are taken in exact arithmetic, since p / (delta/8)
        overflows a float for a subnormal delta.
        """
        step = Fraction(self.delta) / 8
        tb = _tilde_bits(self.delta)
        fields = (b << tb | round(Fraction(p) / step) for b, p in self.entries)
        return pack(fields, self.c + tb)

    @classmethod
    def from_int(cls, value: int, entries: int, q: int, c: int, r: int, delta: float):
        """The record of ``entries`` entries that :meth:`to_int` sends as ``value``."""
        tb = _tilde_bits(delta)
        width = c + tb
        if entries < 0 or value < 0 or value.bit_length() > entries * width:
            raise ValueError(f"not a message of {entries} entries of {width} bits")
        step = Fraction(delta) / 8
        index_mask, grid_mask = (1 << c) - 1, (1 << tb) - 1
        out = []
        for shift in range((entries - 1) * width, -1, -width):
            field = value >> shift
            out.append((field >> tb & index_mask, float((field & grid_mask) * step)))
        return cls(q=q, c=c, r=r, delta=delta, entries=tuple(out))


@dataclass(frozen=True)
class LearnDiagnostics:
    """Per-run evidence for the procedure's bounds.

    ``projection_traces[t]`` is Tr(M_b rho_b) at the t-th correction, taken
    before the update; ``band_edge_margins[t]`` is the closest distance of any
    observable eigenvalue to that correction's band edges, and indices where
    it falls below the flag threshold appear in ``flagged_steps``.
    """

    bad_count: int
    projection_traces: tuple[float, ...]
    band_edge_margins: tuple[float, ...]
    flagged_steps: tuple[int, ...]
    estimates_before: tuple[float, ...]
    true_probabilities: tuple[float, ...]


def paper_copies(q: int, delta: float) -> int | float:
    """The paper's copy count Θ(log q / δ²) with the code's constant, unclamped:
    ceil(8 ln(max(q, 2)) / δ²), or ``math.inf`` when that overflows a float."""
    if not 0.0 < delta < 0.5:
        raise ValueError("need delta in (0, 1/2)")
    want = 8.0 * math.log(max(q, 2)) / delta**2 if delta**2 > 0.0 else math.inf
    return math.ceil(want) if want < math.inf else want


def default_copies(q: int, delta: float, tol: Tolerances = DEFAULT) -> int:
    """Default copy count: :func:`paper_copies`, capped by the qubit budget."""
    budget = max(2, tol.learn_qubit_budget // q)
    return max(2, min(budget, paper_copies(q, delta)))


def bad_count_bound(K: int, delta: float) -> int:
    """Upper bound on the number of corrections for K total qubits.

    ceil((K+1) / log2(1/eta)) + 1 with eta = 1 - delta/4; base-2 logarithm
    because the contradiction pits a 2^-(K+1) success floor against eta^t.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    if not 0.0 < delta < 0.5:
        raise ValueError("need delta in (0, 1/2)")
    eta = 1.0 - delta / 4.0
    if eta == 1.0:
        raise ValueError(f"delta {delta!r} is too small: 1 - delta/4 rounds to 1")
    return math.ceil((K + 1) / math.log2(1.0 / eta)) + 1


def _validated_family(operators: Sequence[MeasurementOperator]) -> tuple[int, int]:
    count = len(operators)
    c = (count - 1).bit_length()
    if count < 1 or 2**c != count:
        raise ValueError(f"operator family must have a power-of-two size, got {count}")
    dims = {e.dim for e in operators}
    if len(dims) != 1:
        raise ValueError("operator family of mixed dimensions")
    return c, dims.pop()


def _check_learn_inputs(
    states: Sequence[DensityMatrix],
    operators: Sequence[MeasurementOperator],
    delta: float,
    r: int | None,
    tol: Tolerances,
) -> tuple[int, int, int]:
    """``(c, q, r)``: the family's index bits, the states' qubits and the copy
    count with its default filled in; raises, before any spectral work, on
    inputs the learner cannot walk, the first faulty state in order first."""
    if not 0.0 < delta < 0.5:
        raise ValueError("need delta in (0, 1/2)")
    c, dim = _validated_family(operators)
    q = dim.bit_length() - 1
    for rho in states:
        if not isinstance(rho, DensityMatrix):
            raise ValueError(f"the learner walks density matrices, got {type(rho).__name__}")
        if rho.dim != dim:
            raise ValueError(f"state dimension {rho.dim} != operator dimension {dim}")
    if r is None:
        r = default_copies(q, delta, tol)
    if r < 1:
        raise ValueError("need r >= 1")
    if 2 ** (r * q) > tol.dim_cap:
        raise DimensionCapError(f"r*q = {r * q} qubits exceeds the dimension cap")
    return c, q, r


_REPLAY_SLACK = 1e-9  # so that a correction exactly on the replay's bound replays


def _grouped_walk(
    qubits: int,
    count: int,
    observables: Sequence[Observable],
    decide: Callable[[int, int, float], float | None],
    delta: float,
    tol: Tolerances,
) -> tuple[list[list[tuple]], dict[int, Exception]]:
    """Walk ``count`` members against one family, grouped by correction prefix.

    Every member starts from the maximally mixed state on ``qubits``.
    Members that have made the same corrections so far share one group: each
    group costs one expectation per step and splits by its members'
    decisions, each distinct (group, truncated value) correction costing one
    band trace and projection, and the groups correcting to one value at a
    step sharing one band projector.  A step takes every group's expectation
    first, then drops the observable's cached dense matrix (nothing after
    the step reads it), and only then runs its corrections.  Every number is
    the one each member's own walk would compute, bit for bit.

    ``decide(i, b, estimate)`` returns None when member ``i`` skips index
    ``b`` and the truncated value when it corrects there, or raises the
    ValueError that ends its walk.  Returns each member's step log, per step
    ``(estimate, p_tilde, trace)`` (``None, None`` on a skip) with the band
    trace taken before the projection, and each failed member's error; a
    correction is logged before its trace is checked, and a trace at most
    ``tol.zero_projection`` raises :class:`VanishingProjectionError`, which
    names the band and F's nearest eigenvalue when the band holds none.  Groups
    never depend on which members they hold, so the others walk on alone.
    """
    logs: list[list[tuple]] = [[] for _ in range(count)]
    errors: dict[int, Exception] = {}
    # the groups of the current step, (hypothesis, members), each dropped
    # once split into the next
    groups = deque([(maximally_mixed(qubits, tol), list(range(count)))])
    for b, f in enumerate(observables):
        bands: dict[float, np.ndarray] = {}  # held while step b runs
        # the expectations of step b, all taken before its corrections so
        # that the dense F_b lives for this step only
        estimates = [f.expectation(hypothesis) for hypothesis, _ in groups]
        vars(f).pop("matrix", None)  # the cached F; the dataclass is frozen
        for estimate in estimates:
            hypothesis, members = groups.popleft()
            stay: list[int] = []
            moves: dict[float, list[int]] = {}
            for i in members:
                try:
                    p_tilde = decide(i, b, estimate)
                except ValueError as err:
                    errors[i] = err
                    continue
                if p_tilde is None:
                    logs[i].append((estimate, None, None))
                    stay.append(i)
                else:
                    moves.setdefault(p_tilde, []).append(i)
            if stay:
                groups.append((hypothesis, stay))
            for p_tilde, movers in moves.items():
                try:
                    if p_tilde not in bands:
                        bands[p_tilde] = band_projector(f, p_tilde, delta / 2.0, tol)
                    trace = float(np.sum(bands[p_tilde] * hypothesis.entries.T).real)
                    for i in movers:
                        logs[i].append((estimate, p_tilde, trace))
                    if trace <= tol.zero_projection:
                        if bands[p_tilde].any():
                            raise VanishingProjectionError(step=b, trace=trace)
                        nearest = min(f.eigenvalues, key=lambda v: abs(v - p_tilde))
                        band = (p_tilde - delta / 2.0, p_tilde + delta / 2.0)
                        raise VanishingProjectionError(b, trace, band, nearest)
                    projected = project_renormalize(hypothesis, bands[p_tilde], tol)
                except (ValueError, VanishingProjectionError) as err:
                    errors.update(dict.fromkeys(movers, err))
                    continue
                groups.append((projected, movers))
        # a hypothesis no group holds must not outlive its step into the
        # next step's dense F
        hypothesis = projected = None
    return logs, errors


def _learn_states(
    states: Sequence[DensityMatrix],
    operators: Sequence[MeasurementOperator],
    observables: Sequence[Observable],
    delta: float,
    shape: tuple[int, int, int],
    tol: Tolerances,
) -> list[tuple[LearnRecord, LearnDiagnostics]]:
    """The learning walk of every state in ``states`` against one family.

    ``shape`` is ``(c, q, r)`` as :func:`_check_learn_inputs` returns it.
    Every state makes its own ``acceptance_probability`` calls along
    :func:`_grouped_walk`, and its record and diagnostics are read from its
    step log.  Raises the error of the first state, in the order given,
    whose own walk fails; a vanishing projection at an r below the paper's
    (:func:`paper_copies`) carries a note naming both.
    """
    c, q, r = shape
    trues: list[list[float]] = [[] for _ in states]

    def decide(i: int, b: int, estimate: float) -> float | None:
        p_true = acceptance_probability(operators[b], states[i], tol)
        trues[i].append(p_true)
        return None if abs(estimate - p_true) <= delta else _truncate(p_true, delta)

    logs, errors = _grouped_walk(r * q, len(states), observables, decide, delta, tol)
    if errors:
        err = errors[min(errors)]
        if isinstance(err, VanishingProjectionError) and r < paper_copies(q, delta):
            err.add_note(f"r = {r} is below the paper's r = {paper_copies(q, delta)}")
        raise err
    learned = []
    for log, true in zip(logs, trues):
        fixes = [(b, p) for b, (_, p, _) in enumerate(log) if p is not None]
        margins = [band_edge_margin(observables[b], p, delta / 2.0) for b, p in fixes]
        diags = LearnDiagnostics(
            bad_count=len(fixes),
            projection_traces=tuple(trace for _, p, trace in log if p is not None),
            band_edge_margins=tuple(margins),
            flagged_steps=tuple(b for (b, _), m in zip(fixes, margins) if m < tol.band_edge_flag),
            estimates_before=tuple(estimate for estimate, _, _ in log),
            true_probabilities=tuple(true),
        )
        learned.append((LearnRecord(q=q, c=c, r=r, delta=delta, entries=fixes), diags))
    return learned


def _receive(rec: LearnRecord, estimates: Sequence[float], traces, tol: Tolerances) -> np.ndarray:
    """The receiver's estimates for ``rec``, one per index of ``estimates``.

    ``estimates[b]`` is the expectation before step b of a walk correcting at
    ``rec``'s indices and ``traces`` those corrections' band traces, in order.
    Raises :class:`ReplayMismatchError` at the first index, in order, whose
    recorded correction the walk would have predicted or whose projection
    vanishes: both mean the record belongs to a different family.
    """
    delta = rec.delta
    # the sender corrects an estimate more than delta from the truth and
    # records a value within delta/8 of the truth, so a genuine correction
    # disagrees by more than delta - delta/8 with its recorded value
    predicted = delta - delta / 8.0 - _REPLAY_SLACK
    corrected, traces = dict(rec.entries), iter(traces)
    out = np.empty(len(estimates))
    for b, estimate in enumerate(estimates):
        if b not in corrected:
            out[b] = min(1.0, max(0.0, estimate))
            continue
        if abs(estimate - corrected[b]) <= predicted:
            raise ReplayMismatchError(
                f"recorded index {b} replays as already-predicted; "
                "record does not match this operator family"
            )
        if next(traces) <= tol.zero_projection:
            raise ReplayMismatchError(f"projection at recorded index {b} vanishes on replay")
        out[b] = corrected[b]
    return out


def _replay_record(
    rec: LearnRecord, observables: Sequence[Observable], tol: Tolerances
) -> np.ndarray:
    """The receiver's estimates for ``rec`` from its own walk, which corrects at
    every recorded index and raises its own error only if its log passes."""
    corrected = dict(rec.entries)
    (log,), errors = _grouped_walk(
        rec.r * rec.q, 1, observables, lambda _, b, __: corrected.get(b), rec.delta, tol
    )
    out = _receive(rec, [step[0] for step in log], [t for _, p, t in log if p is not None], tol)
    if errors:
        raise errors[0]
    return out


def learn_state_message(
    rho: DensityMatrix,
    operators: Sequence[MeasurementOperator],
    delta: float,
    r: int | None = None,
    tol: Tolerances = DEFAULT,
) -> tuple[LearnRecord, LearnDiagnostics]:
    """Build the deterministic record that lets a receiver estimate every Tr(E_b rho).

    Walks ``operators`` in index order keeping a hypothesis state on r copies
    (initially maximally mixed).  A step is skipped when the averaged
    observable's expectation on the hypothesis is within ``delta`` of the true
    acceptance probability; otherwise the truncated acceptance is recorded and
    the hypothesis is projected onto the band of eigenvalues within delta/2 of
    it and renormalized.
    """
    shape = _check_learn_inputs([rho], operators, delta, r, tol)
    observables = [average_observable(e, shape[2], tol) for e in operators]
    (learned,) = _learn_states([rho], operators, observables, delta, shape, tol)
    return learned


def reconstruct_estimates(
    record: LearnRecord,
    operators: Sequence[MeasurementOperator],
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Receiver side: replay the hypothesis walk and output one estimate per index.

    Corrected indices report their recorded truncated value; the rest report
    the averaged observable's expectation on the replayed hypothesis.  Raises
    :class:`ReplayMismatchError` when a recorded index would not have needed a
    correction against this operator family, or when a projection vanishes:
    both mean the record belongs to a different family.
    """
    c, dim = _validated_family(operators)
    if c != record.c:
        raise ValueError(f"record indexes {record.c}-bit family, got {c}-bit")
    if dim != 2**record.q:
        raise ValueError("operator dimension does not match the record")
    observables = [average_observable(e, record.r, tol) for e in operators]
    return _replay_record(record, observables, tol)


def learn_round_trip(
    rho: DensityMatrix,
    operators: Sequence[MeasurementOperator],
    delta: float,
    r: int | None = None,
    tol: Tolerances = DEFAULT,
) -> tuple[LearnRecord, LearnDiagnostics, np.ndarray]:
    """:func:`learn_state_message` then :func:`reconstruct_estimates`, bit for
    bit; the receiver's checks read the sender's numbers, with no kernel call."""
    record, diags = learn_state_message(rho, operators, delta, r, tol)
    return record, diags, _receive(record, diags.estimates_before, diags.projection_traces, tol)


@dataclass(frozen=True)
class DeterministicMessageTable:
    """Verified deterministic multisets replacing a randomized Alice.

    For every Alice input the table holds ``multiplicity`` messages whose
    empirical referee response is within 1/10 of the randomized expectation
    for every possible Bob message; verification is part of construction.
    ``targets[x][b]`` and ``empirical[x][b]`` are the expectation and the
    multiset's average response that the verification compared.
    """

    multiplicity: int
    messages: Mapping[object, tuple[int, ...]]
    max_deviation: float
    targets: Mapping[object, Mapping[int, float]]
    empirical: Mapping[object, Mapping[int, float]]

    def __post_init__(self):
        for name in ("messages", "targets", "empirical"):
            object.__setattr__(self, name, dict(getattr(self, name)))


def _deterministic_alice(p: SmpProtocol, suffix: str, messages: Mapping, bits: int,
                         rows: dict, decode: Callable) -> SmpProtocol:
    """``p`` with only its name, Alice's strategy and cost, and the referee replaced.

    Alice sends ``messages[x]``, or ``messages[(x, coin)]`` under a public
    coin, as an int of ``bits`` bits.  The referee checks Alice's message
    against ``bits``, then Bob's against c_B (:func:`check_message`), and
    answers ``rows[a][b]``.  A message with no row is ``decode``d on its
    first read and its row kept; a decode that raises keeps nothing.
    """
    bob_bits = p.bob_cost.bits

    def accept(a: int, b: int) -> float:
        check_message(a, bits)
        check_message(b, bob_bits)
        if a not in rows:
            rows[a] = decode(a)
        return float(rows[a][b])

    return replace(
        p,
        name=f"{p.name}+{suffix}",
        alice_strategy=lambda x, coin: {messages[x if p.coin is None else (x, coin)]: 1.0},
        referee=TableReferee(fn=accept),
        alice_cost=Cost(bits=bits),
    )


# candidate multisets drawn per Alice input before derandomize_alice gives up
_MAX_ATTEMPTS = 1000


def derandomize_alice(
    p: SmpProtocol,
    s: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> tuple[SmpProtocol, DeterministicMessageTable]:
    """Replace a randomized classical Alice with a verified deterministic one.

    Draws ``s * c_B`` messages from Alice's distribution, with one
    ``rng.random(s * c_B)`` per candidate (:func:`sample_from_distribution`
    with ``size``), and accepts the multiset only after checking, for every
    one of the 2^c_B Bob messages, that the average referee response is
    within 1/10 of the exact expectation; failed candidates are redrawn, up
    to ``_MAX_ATTEMPTS`` per input (existence is a concentration argument,
    the check makes it unconditional).  Every number is read from one referee
    row per (input, support message).  The new referee accepts with the
    average response over the multiset, so each input pair's acceptance
    moves by at most 1/10: a multiset Alice sends is answered from its
    verified ``empirical`` row, any other int below 2^(s * c_B * c_A) is
    decoded and its row kept (:func:`_deterministic_alice`).  Raises
    :class:`EnumerationCapError`, before any strategy call, when a
    candidate's s * c_B * 2^c_B terms exceed ``tol.enum_cap``, and
    ValueError, also before any strategy call, when Bob's message has 0
    bits, since the multiset would then be empty.
    """
    if p.coin is not None:
        raise ValueError("only private-coin protocols can be derandomized this way")
    if p.quantum:
        raise ValueError("Alice must be classical; compile quantum messages first")
    if s < 1:
        raise ValueError("need s >= 1")
    if p.alice_inputs is None:
        raise ValueError("needs an explicit Alice input set")

    c_a, c_b = p.alice_cost.bits, p.bob_cost.bits
    if c_b == 0:
        raise ValueError("Bob's message has 0 bits, so the multiset of s * c_B messages is empty")
    multiplicity = s * c_b
    if multiplicity << c_b > tol.enum_cap:
        raise EnumerationCapError(
            f"a candidate's {s} * {c_b} * 2^{c_b} terms exceed term budget {tol.enum_cap}"
        )
    all_b = range(2**c_b)
    accept = p.referee.accept_probability

    def average(draws: Sequence[int], rows: Mapping[int, list[float]]) -> dict[int, float]:
        """Per Bob message, the referee's mean response to ``draws``, summed in draw order."""
        return {b: sum(rows[a][b] for a in draws) / multiplicity for b in all_b}

    table: dict[object, tuple[int, ...]] = {}
    all_targets: dict[object, dict[int, float]] = {}
    all_empirical: dict[object, dict[int, float]] = {}
    worst_dev = 0.0
    for xi, x in enumerate(p.alice_inputs):
        dist = p.alice_strategy(x, None)
        validate_distribution(dist, c_a, tol)
        rows = {a: [accept(a, b, None) for b in all_b] for a in dist}
        targets = {b: sum(pa * rows[a][b] for a, pa in dist.items()) for b in all_b}
        for attempt in range(_MAX_ATTEMPTS):
            rng = trial_rng(derive_seed(seed, xi), attempt)
            candidate = sample_from_distribution(dist, rng, multiplicity)
            empirical = average(candidate, rows)
            devs = {b: abs(empirical[b] - targets[b]) for b in all_b}
            dev = max(devs.values())
            if dev <= 0.1:
                worst_dev = max(worst_dev, dev)
                break
        else:
            bad_b = max(devs, key=devs.get)
            raise ValueError(
                f"no verified multiset within {_MAX_ATTEMPTS} attempts for input {x!r} "
                f"(largest deviation {devs[bad_b]:.4f} at Bob message "
                f"{bitstring(bad_b, c_b)}); increase s"
            )
        table[x] = candidate
        all_targets[x] = targets
        all_empirical[x] = empirical

    message_table = DeterministicMessageTable(
        multiplicity=multiplicity,
        messages=table,
        max_deviation=worst_dev,
        targets=all_targets,
        empirical=all_empirical,
    )

    packed = {x: pack(msgs, c_a) for x, msgs in table.items()}
    mask = (1 << c_a) - 1

    def decode(big: int) -> dict[int, float]:
        draws = [big >> c_a * i & mask for i in reversed(range(multiplicity))]  # in draw order
        return average(draws, {a: [accept(a, b, None) for b in all_b] for a in set(draws)})

    responses = {packed[x]: all_empirical[x] for x in table}  # per message, its row
    compiled = _deterministic_alice(
        p, "deterministic-alice", packed, multiplicity * c_a, responses, decode
    )
    return compiled, message_table


@dataclass(frozen=True)
class CompileResult:
    protocol: SmpProtocol
    records: Mapping[object, LearnRecord]
    diagnostics: Mapping[object, LearnDiagnostics]

    def __post_init__(self):
        object.__setattr__(self, "records", dict(self.records))
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))


def compile_qc_to_cc(
    p: SmpProtocol,
    delta: float,
    r: int | None = None,
    tol: Tolerances = DEFAULT,
) -> CompileResult:
    """Replace Alice's quantum message with its deterministic learning record.

    The input protocol must be in canonical form: Alice sends a density
    matrix, Bob a classical message, and the referee holds one measurement
    operator per Bob message.  The compiled Alice deterministically sends the
    record for her state as one int (:meth:`LearnRecord.to_int`), shifted
    left past all-ones entries up to the longest record; the referee
    (:func:`_deterministic_alice`) accepts with the estimate for Bob's actual
    message, reconstructed from a message Alice never sends by stripping its
    all-ones entries by masks, so the worst-case error grows by at most
    ``delta``.  Public-coin protocols are compiled one coin value at a time.
    Every (input, coin) state is checked before the first spectral build.
    """
    if not p.quantum or not isinstance(p.referee, OperatorReferee):
        raise ValueError("needs a canonical quantum protocol with an operator family")
    if p.alice_inputs is None:
        raise ValueError("needs an explicit Alice input set")
    operators, bob_bits = p.referee.operators, p.bob_cost.bits
    if len(operators) != 1 << bob_bits:
        raise ValueError(f"referee family holds {len(operators)} operators, not 2^{bob_bits}")

    pairs = list(itertools.product(p.alice_inputs, [v for v, _ in coin_terms(p, tol)]))
    if not pairs:
        raise ValueError("no (input, coin) pair to compile")
    keys = [x if p.coin is None else (x, coin) for x, coin in pairs]
    states = [p.alice_strategy(x, coin) for x, coin in pairs]
    shape = c, q, r = _check_learn_inputs(states, operators, delta, r, tol)
    # one spectral build per operator, for the sender and every replay
    observables = [average_observable(e, r, tol) for e in operators]
    learned = _learn_states(states, operators, observables, delta, shape, tol)

    records = {key: record for key, (record, _) in zip(keys, learned)}
    diagnostics = {key: diag for key, (_, diag) in zip(keys, learned)}
    # padded with all-ones entries, which no real one is (its grid position is
    # at most 8/delta < 2^tilde_bits - 1); unpadded, () and ((0, 0.0),) are both 0
    width = c + _tilde_bits(delta)
    slots = max((len(record.entries) for record in records.values()), default=0)
    max_bits, ones = slots * width, (1 << width) - 1
    messages = {}
    for key, record in records.items():
        pad = (slots - len(record.entries)) * width
        messages[key] = record.to_int() << pad | (1 << pad) - 1

    # the estimates of each message Alice sends, from the sender's own numbers;
    # any other message is decoded into its own walk when first read
    replays = {messages[key]: _receive(rec, diag.estimates_before, diag.projection_traces, tol)
               for key, (rec, diag) in zip(keys, learned)}

    def decode(msg: int) -> np.ndarray:
        value, count = msg, slots
        while count and value & ones == ones:
            value, count = value >> width, count - 1
        rec = LearnRecord.from_int(value, count, q=q, c=c, r=r, delta=delta)
        return _replay_record(rec, observables, tol)

    compiled = _deterministic_alice(p, "classical-alice", messages, max_bits, replays, decode)
    return CompileResult(protocol=compiled, records=records, diagnostics=diagnostics)
