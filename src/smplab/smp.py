"""Simultaneous message passing protocols and their evaluation.

A protocol fixes, for every Alice input, a quantum state when it is quantum
(Alice's ``Cost`` has qubits) and a distribution over classical messages
otherwise, and for every Bob input a distribution over classical messages; a
referee turns the two messages into an output.  A
classical message of a side whose ``Cost`` is c bits is a plain ``int`` in
[0, 2^c), its first bit the most significant; bit strings are only a report
format (:func:`bitstring`).  Public randomness, when present, is an explicit
coin space visible to all three parties.  Evaluation is either exact (full
enumeration of coin and message supports, within a term budget) or Monte
Carlo with per-trial keyed generators.

Exact evaluation is one driver, :func:`acceptance_table`: a loop over the
coin's law, fed by one of two producers.  A classical strategy may declare
its laws as arrays (:class:`ArrayStrategy`), and a :class:`TableReferee` may
take arrays of message ids (``vectorized``).  When both strategies and the
referee do (in this package ``equality_public`` and ``equality_code``), the
declared producer reads the arrays a block of coins at a time, validating
each array once, and calls no strategy or referee per (coin, input);
otherwise the callable producer runs the strategies once per (coin, input)
and the referee once per distinct message pair of a coin.  The loop alone
counts the term cap, sizes the blocks and sums the terms.
The callables stay the sampled path, the quantum path and the oracle the
arrays are tested against.

Monte Carlo, :func:`empirical_success`, runs a protocol's declared
``batch`` when it has one: a block of trials at a time as arrays, replayed
from the per-trial streams by :class:`~smplab.rng.TrialDraws`, so every draw
and every output is the per-trial path's.  Every other protocol, and every
pair its batch declines, runs one trial at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import EnumerationCapError
from .qcore import (
    DensityMatrix,
    MeasurementOperator,
    PureState,
    acceptance_probability,
)
from .rng import TrialDraws, derive_seed, trial_rng

__all__ = [
    "ArrayStrategy",
    "CoinSpace",
    "Cost",
    "SmpProtocol",
    "Referee",
    "TableReferee",
    "OperatorReferee",
    "FunctionTable",
    "RelationTable",
    "acceptance_table",
    "exact_acceptance",
    "worst_case_error",
    "protocol_cost",
    "empirical_success",
    "SuccessReport",
    "wilson_interval",
    "subset_coin",
    "coin_terms",
    "validate_distribution",
    "check_message",
    "sample_from_distribution",
    "bitstring",
    "pack",
]

Distribution = Mapping[int, float]
QuantumPayload = DensityMatrix | PureState


def bitstring(value: int, width: int) -> str:
    """``value`` as ``width`` binary characters, most significant first."""
    if width == 0:
        return ""
    return format(value, f"0{width}b")


def pack(fields: Iterable[int], width: int) -> int:
    """``fields`` as one message of ``width`` bits per field, the first most significant."""
    msg = 0
    for v in fields:
        msg = msg << width | v
    return msg


def validate_distribution(dist: Distribution, length: int, tol: Tolerances = DEFAULT) -> None:
    """Refuse a law that is not a mapping, a message not an int in [0, 2^length), bad weights."""
    if type(dist) is not dict and not isinstance(dist, Mapping):  # spares a dict the slow ABC test
        raise ValueError(f"a classical message law must be a mapping, got {type(dist).__name__}")
    _validate_items(dist.items(), length, tol)


def _validate_items(items: Iterable[tuple[int, float]], length: int, tol: Tolerances) -> None:
    """:func:`validate_distribution`'s checks of a law's (message, probability) pairs."""
    total = 0.0
    for msg, p in items:
        if type(msg) is not int or msg < 0 or msg.bit_length() > length:
            check_message(msg, length)
        if not p >= 0.0:  # refuses NaN too
            raise ValueError(f"probability {p} of {msg!r} is not >= 0")
        total += p
    if abs(total - 1.0) > tol.distribution:
        raise ValueError(f"distribution sums to {total}, not 1")


_SHOWN_BITS = 10_000  # a longer int, past int-to-str's limit, is named by its bit length


def check_message(msg, bits: int) -> None:
    """Raise the one ValueError for a message that is not a Python int below 2^bits."""
    if type(msg) is not int or msg < 0 or msg.bit_length() > bits:
        big = type(msg) is int and msg.bit_length() > _SHOWN_BITS
        shown = f"of {msg.bit_length()} bits" if big else repr(msg)
        raise ValueError(f"message {shown} is not an int in [0, 2^{bits})")


def sample_from_distribution(dist: Distribution, rng: np.random.Generator, size: int | None = None):
    """One message of ``dist``, or with ``size`` a tuple of ``size`` messages.

    Each draw is one ``rng.random()`` looked up in the cdf ``rng.choice(p=...)``
    builds (a cumsum divided by its last entry), so it is that ``choice``'s
    draw, and ``size`` messages are the same as ``size`` calls in turn.  A
    one-message law draws nothing.
    """
    keys = list(dist)
    if len(keys) == 1:
        return keys[0] if size is None else (keys[0],) * size
    probs = np.fromiter(dist.values(), dtype=float)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(size), side="right")
    return keys[idx] if size is None else tuple(keys[i] for i in idx.tolist())


@dataclass(frozen=True)
class CoinSpace:
    """Public randomness: a sampler and its law, ``size`` outcomes with weights.

    Whether the law is summed over is :func:`coin_terms`' decision alone.
    """

    sampler: Callable[[np.random.Generator], object]
    size: int
    outcomes: Callable[[], Iterable[tuple[object, float]]]


def subset_coin(n: int, k: int) -> CoinSpace:
    """Uniform random size-k subset of range(n), as a sorted tuple."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n = {n}, got k = {k}")
    count = math.comb(n, k)

    def sampler(rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))

    def outcomes() -> Iterator[tuple[tuple[int, ...], float]]:
        p = 1.0 / count
        for combo in itertools.combinations(range(n), k):
            yield combo, p

    return CoinSpace(sampler=sampler, size=count, outcomes=outcomes)


def coin_terms(p: SmpProtocol, tol: Tolerances = DEFAULT) -> Iterable[tuple[object, float]]:
    """The (coin, weight) terms an exact evaluation of ``p`` sums over.

    A private-coin protocol has the one term (None, 1.0).  Raises
    :class:`EnumerationCapError` when the coin has more than ``tol.enum_cap``
    outcomes; this is the one place that decides whether a coin is enumerated.
    A public coin's law is checked as it is read: ValueError at an outcome
    past ``coin.size`` or a weight below 0 or NaN, and at its end at fewer
    outcomes or weights whose sum in order misses 1 by more than ``tol.distribution``.
    """
    if p.coin is None:
        return [(None, 1.0)]
    size = p.coin.size
    if size > tol.enum_cap:
        shown = size if size.bit_length() <= _SHOWN_BITS else f"2^{size.bit_length() - 1} or more"
        raise EnumerationCapError(f"coin space of size {shown} exceeds term budget {tol.enum_cap}")
    return _checked_law(p.coin.outcomes(), size, tol)


def _checked_law(outcomes: Iterable, size: int, tol: Tolerances) -> Iterator[tuple[object, float]]:
    """``outcomes``, each checked before it is yielded, as :func:`coin_terms` says."""
    seen, weight = 0, 0.0
    for coin, cp in outcomes:
        seen += 1
        if seen > size:
            raise ValueError(f"coin yields more outcomes than its size {size}")
        if not cp >= 0.0:  # refuses NaN too
            raise ValueError(f"coin weight {cp} of {coin!r} is not >= 0")
        weight += cp
        yield coin, cp
    if seen != size:
        raise ValueError(f"coin yields {seen} outcomes, not its size {size}")
    if abs(weight - 1.0) > tol.distribution:
        raise ValueError(f"coin weights sum to {weight}, not 1")


@dataclass(frozen=True)
class Cost:
    bits: int = 0
    qubits: int = 0

    @property
    def total(self) -> int:
        return self.bits + self.qubits


class Referee:
    """Turns Alice's message (or quantum payload) and Bob's message into an output.

    A decision referee overrides ``accept_probability``; a relational one
    overrides ``output_distribution(a, b, coin)`` (a mapping from outputs to
    probabilities) and accepts on output 1.  ``sample_output`` draws one
    output; by default it accepts with the acceptance probability.
    """

    def accept_probability(self, a, b: int, coin=None) -> float:
        return float(self.output_distribution(a, b, coin).get(1, 0.0))

    def sample_output(self, a, b: int, rng: np.random.Generator, coin=None, info=None):
        return 1 if rng.random() < self.accept_probability(a, b, coin) else 0


@dataclass(frozen=True)
class TableReferee(Referee):
    """Classical referee: acceptance probability per message pair.

    ``vectorized`` declares that ``fn`` also maps broadcast int64 arrays of
    message ids to the array of its answers, elementwise.
    """

    fn: Callable[[int, int], float]
    vectorized: bool = False

    def accept_probability(self, a: int, b: int, coin=None) -> float:
        return self.fn(a, b)


@dataclass(frozen=True)
class ArrayStrategy:
    """A classical strategy that also declares its laws as arrays.

    Calling it runs ``fn(v, coin)``, the strategy itself.
    ``arrays(inputs, coins)`` gives the laws ``fn(v, coin)`` of every ``v``
    in ``inputs`` and ``coin`` in ``coins`` (a list of coin values; ``[None]``
    for a private coin) as (int64 message ids, probabilities), each of shape
    [coin, slot, input]: slot s holds the s-th message of the law, in its
    insertion order.  Every law has ``slots`` >= 1 messages.
    """

    fn: Callable[[object, object], Distribution]
    slots: int
    arrays: Callable[[list, list], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError(f"a declared law needs at least one slot, got {self.slots}")

    def __call__(self, v, coin) -> Distribution:
        return self.fn(v, coin)


@dataclass(frozen=True)
class OperatorReferee(Referee):
    """Canonical quantum referee: ``operators[b]`` measures Bob's message ``b``."""

    operators: Sequence[MeasurementOperator]

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))

    def accept_probability(self, state: QuantumPayload, b: int, coin=None) -> float:
        if isinstance(state, PureState):
            state = state.density()
        if not isinstance(state, DensityMatrix):
            raise TypeError("operator referee needs a density matrix message")
        return acceptance_probability(self.operators[b], state)


@dataclass(frozen=True)
class SmpProtocol:
    """One simultaneous message passing protocol.

    ``alice_strategy(x, coin)`` returns a quantum payload when the protocol
    is :attr:`quantum` (Alice's message costs qubits) and a message
    distribution otherwise, which both evaluation paths validate;
    ``bob_strategy(y, coin)`` returns a message distribution; the
    :class:`Referee` maps the two messages to an output.  ``coin`` is None in
    private-coin protocols.

    ``batch(q, x, y)``, when declared, gives ``(width, run)`` for the pair's
    trials under protocol ``q``, the one being run, or None to leave the pair
    to the per-trial path.  ``run`` takes the :class:`~smplab.rng.TrialDraws`
    of a block of trials and returns their outputs (ints) and whether each
    abstained, as arrays: each trial's output and abstention are exactly
    what one per-trial evaluation gives on that trial's generator, so a
    batch declines every pair on which that evaluation could raise, and
    every ``q`` whose coin, strategies, referee or costs are not the ones it
    reproduces (a ``dataclasses.replace`` keeps the field).  ``width`` is
    the size of one trial's arrays, which sets the block size.
    """

    name: str
    alice_strategy: Callable[[object, object], Distribution | QuantumPayload]
    bob_strategy: Callable[[object, object], Distribution]
    referee: Referee
    alice_cost: Cost
    bob_cost: Cost
    coin: CoinSpace | None = None
    alice_inputs: tuple | None = None
    bob_inputs: tuple | None = None
    batch: Callable[[SmpProtocol, object, object], tuple[int, Callable] | None] | None = None

    def __post_init__(self):
        if not isinstance(self.referee, Referee):
            raise TypeError(f"referee must be a Referee, got {type(self.referee).__name__}")

    @property
    def quantum(self) -> bool:
        return self.alice_cost.qubits > 0


@dataclass(frozen=True)
class FunctionTable:
    """Finite, possibly partial, function on pairs of inputs.

    ``values`` maps exactly the promise domain; querying outside it raises.
    """

    alice_inputs: tuple
    bob_inputs: tuple
    values: Mapping[tuple, object]

    def __post_init__(self):
        object.__setattr__(self, "alice_inputs", tuple(self.alice_inputs))
        object.__setattr__(self, "bob_inputs", tuple(self.bob_inputs))
        object.__setattr__(self, "values", dict(self.values))

    @property
    def domain(self) -> list[tuple]:
        return list(self.values)

    @property
    def is_total(self) -> bool:
        return len(self.values) == len(self.alice_inputs) * len(self.bob_inputs)

    def __call__(self, x, y):
        try:
            return self.values[(x, y)]
        except KeyError:
            raise ValueError(f"({x!r}, {y!r}) outside the promise domain") from None


@dataclass(frozen=True)
class RelationTable:
    """Nonempty valid-output sets per input pair, plus an input distribution.

    ``mu`` holds integer weights: each an ``int`` >= 0 (not a bool), at least
    one positive, and mu(pair) = ``mu[pair] / total``.
    """

    valid: Mapping[tuple, frozenset]
    mu: Mapping[tuple, int]
    total: int = field(init=False)

    def __post_init__(self):
        valid = {k: frozenset(v) for k, v in self.valid.items()}
        mu = dict(self.mu)
        for pair, weight in mu.items():
            if type(weight) is not int or weight < 0:
                raise ValueError(f"weight {weight!r} of mu at {pair} is not an int >= 0")
            if weight and not valid.get(pair):
                raise ValueError(f"empty valid set on the support of mu at {pair}")
        total = sum(mu.values())
        if not total:
            raise ValueError(f"mu has no positive weight among its pairs {list(mu)}")
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "total", total)

    @property
    def support(self) -> list[tuple]:
        return [pair for pair, w in self.mu.items() if w]


# About this many entries (message ids, probabilities and referee answers)
# make one block of ``acceptance_table``, and this many terms one numpy step
# of it (at least one (coin, Alice message) row), so its memory does not grow
# with pairs times coins.
_BLOCK_TERMS = 1 << 14


def _accumulate(total: np.ndarray, cp: np.ndarray, pa: np.ndarray, pb: np.ndarray,
                accept: Callable) -> np.ndarray:
    """``total`` (1 x pairs) plus the terms ``((cp * pa) * pb) * acc`` of a run of coins.

    ``cp`` holds the coins' weights and ``pa``, ``pb`` are [coin, slot, input];
    ``accept(rows, rc)`` gives the referee's answers of the (coin, Alice slot)
    rows ``rows``, whose coins are ``rc``, as [row, Bob slot, x, y].  The terms
    are added in the order coin, Alice slot, Bob slot, about ``_BLOCK_TERMS``
    at a time by ``np.add.accumulate`` from the running sum, so every entry is
    the scalar loop's sum over the same terms.  A padded slot has probability
    0, so while every answer is finite its term is a zero, which leaves the
    sum unchanged.
    """
    n, ma, nx = pa.shape
    mb, ny = pb.shape[1:]
    cpa = (cp[:, None, None] * pa).reshape(n * ma, nx)
    row_coin = np.repeat(np.arange(n), ma)
    step = max(1, _BLOCK_TERMS // (mb * nx * ny))
    for r in range(0, n * ma, step):
        rows = slice(r, r + step)
        rc = row_coin[rows]
        block = cpa[rows, None, :, None] * pb[rc][:, :, None, :]
        acc = accept(rows, rc)
        if not np.isfinite(acc).all():
            raise ValueError("referee returned a non-finite acceptance probability")
        block *= acc
        seq = block.reshape(-1, nx * ny)
        seq[0] += total[0]
        np.add.accumulate(seq, axis=0, out=seq)
        total = seq[-1:].copy()
    return total


def _called_laws(strategy, inputs: list, coin, bits: int, quantum: bool, tol: Tolerances):
    """One side's distinct messages at ``coin``, and its laws there: per input
    the support size, the ids (indices into the distinct messages) and the
    probabilities.

    Each law is validated; a quantum side sends one payload per input, so its
    ids are the input positions, each with probability 1.0.
    """
    if quantum:
        msgs = [strategy(v, coin) for v in inputs]
        return msgs, ([1] * len(msgs), list(range(len(msgs))), [1.0] * len(msgs))
    seen: dict = {}
    sizes, ids, probs = [], [], []
    for v in inputs:
        dist = strategy(v, coin)
        validate_distribution(dist, bits, tol)
        for msg, pr in dist.items():
            ids.append(seen.setdefault(msg, len(seen)))
            probs.append(pr)
        sizes.append(len(dist))
    return list(seen), (sizes, ids, probs)


def _padded(laws: Sequence[tuple[list, list, list]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-coin laws of ``k`` inputs, each (sizes, ids, probs) flat in input order,
    as [coin, slot, input] id and probability arrays.

    Slots past an input's support get probability 0 and message id 0.
    """
    sizes, ids, probs = (list(itertools.chain.from_iterable(part)) for part in zip(*laws))
    sizes = np.array(sizes)
    width = int(sizes.max())
    idx = np.zeros((len(sizes), width), dtype=np.int64)
    prob = np.zeros((len(sizes), width))
    row = np.repeat(np.arange(len(sizes)), sizes)
    col = np.arange(len(ids)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx[row, col] = ids
    prob[row, col] = probs
    return (idx.reshape(-1, k, width).transpose(0, 2, 1),
            prob.reshape(-1, k, width).transpose(0, 2, 1))


class _Called:
    """:func:`acceptance_table`'s producer for callable strategies, fed one coin at a time.

    ``add`` runs each strategy once per input at the coin, validates each law,
    hands the support sizes to ``tally``, then calls the referee once per
    distinct (Alice message, Bob message) pair of the coin and drops the
    messages; it returns the entries the pending coins hold.  ``block`` hands
    over the pending coins' arrays, their ids local to each coin, and answers
    by lookup in the coins' tables of referee answers.
    """

    def __init__(self, p: SmpProtocol, xs: list, ys: list, tol: Tolerances, tally: Callable):
        self.p, self.xs, self.ys, self.tol, self.tally = p, xs, ys, tol, tally
        self.pending: list = []  # per coin: both sides' laws, message counts and answers
        self.held = 0

    def add(self, coin) -> int:
        p = self.p
        a_msgs, alice = _called_laws(p.alice_strategy, self.xs, coin, p.alice_cost.bits,
                                     p.quantum, self.tol)
        b_msgs, bob = _called_laws(p.bob_strategy, self.ys, coin, p.bob_cost.bits,
                                   False, self.tol)
        self.tally(alice[0], bob[0])
        accept = p.referee.accept_probability
        answers = [accept(a, b, coin) for a in a_msgs for b in b_msgs]
        self.pending.append((alice, bob, len(a_msgs), len(b_msgs), answers))
        self.held += len(answers) + len(alice[1]) + len(bob[1])
        return self.held

    def block(self) -> tuple[np.ndarray, np.ndarray, Callable]:
        alice, bob, na, nb, answers = zip(*self.pending)
        self.pending, self.held = [], 0
        ia, pa = _padded(alice, len(self.xs))
        ib, pb = _padded(bob, len(self.ys))
        table = np.array(list(itertools.chain.from_iterable(answers)), dtype=float)
        # per (coin, Alice slot) row and x, the start of the Alice message's
        # row in its coin's row-major table; a padded slot reads message 0's
        na, nb = np.array(na), np.array(nb)
        offset = np.cumsum(na * nb) - na * nb
        start = (offset[:, None, None] + ia * nb[:, None, None]).reshape(-1, len(self.xs))
        return pa, pb, lambda rows, rc: table[start[rows, None, :, None] + ib[rc][:, :, None, :]]


def _declared_block(
    strategy: ArrayStrategy, inputs: list, coins: list, bits: int, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """``strategy``'s declared (ids, probs) at ``coins``, each [coin, slot, input].

    Every law is checked as :func:`validate_distribution` checks it, in
    numpy; the first one that fails, in (coin, input) order, raises that
    function's error.
    """
    ids, probs = (np.asarray(a) for a in strategy.arrays(inputs, coins))
    shape = (len(coins), strategy.slots, len(inputs))
    if ids.shape != shape or probs.shape != shape:
        raise ValueError(f"declared arrays of shapes {ids.shape} and {probs.shape}, "
                         f"expected {shape}")
    if ids.dtype != np.int64:
        raise ValueError(f"declared message ids must be int64, got {ids.dtype}")
    # one row per (coin, input) law, its messages in slot order
    law_ids = ids.transpose(0, 2, 1).reshape(-1, strategy.slots)
    law_probs = probs.transpose(0, 2, 1).reshape(-1, strategy.slots)
    bad = law_ids < 0
    if bits < 63:  # past that every int64 id is below 2^bits
        bad |= law_ids >= 1 << bits
    bad |= ~(law_probs >= 0.0)  # refuses NaN too
    # summed slot by slot, as validate_distribution adds
    sums = np.add.accumulate(law_probs, axis=1)[:, -1]
    for r in np.flatnonzero(bad.any(axis=1) | (np.abs(sums - 1.0) > tol.distribution)):
        _validate_items(zip(law_ids[r].tolist(), law_probs[r].tolist()), bits, tol)
    return ids, probs


class _Declared:
    """:func:`acceptance_table`'s producer for declared arrays, read a block of coins at a time.

    Every declared law has its strategy's slots, so every pair's term count,
    coins times Alice's slots times Bob's, goes to ``tally`` before any
    array is built.  ``add`` only queues the coin; ``block`` reads and
    validates the queued coins' arrays, and answers by the referee's
    vectorized ``fn`` on the id arrays.
    """

    def __init__(self, p: SmpProtocol, xs: list, ys: list, tol: Tolerances, tally: Callable):
        self.p, self.xs, self.ys, self.tol = p, xs, ys, tol
        alice, bob = p.alice_strategy, p.bob_strategy
        size = 1 if p.coin is None else p.coin.size
        tally([size * alice.slots] * len(xs), [bob.slots] * len(ys))
        self.per_coin = alice.slots * len(xs) + bob.slots * len(ys)
        self.coins: list = []

    def add(self, coin) -> int:
        self.coins.append(coin)
        return len(self.coins) * self.per_coin

    def block(self) -> tuple[np.ndarray, np.ndarray, Callable]:
        p, coins, self.coins = self.p, self.coins, []
        ia, pa = _declared_block(p.alice_strategy, self.xs, coins, p.alice_cost.bits, self.tol)
        ib, pb = _declared_block(p.bob_strategy, self.ys, coins, p.bob_cost.bits, self.tol)
        ia, fn = ia.reshape(-1, len(self.xs)), p.referee.fn
        return pa, pb, lambda rows, rc: fn(ia[rows, None, :, None], ib[rc][:, :, None, :])


def acceptance_table(
    p: SmpProtocol, xs: Iterable, ys: Iterable, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """Exact acceptance probability of every pair in ``xs`` x ``ys``.

    One loop walks the coin's law, checked as :func:`coin_terms` reads it,
    and feeds each coin to a producer: :class:`_Declared` when
    both strategies are :class:`ArrayStrategy` and the referee a vectorized
    :class:`TableReferee`, :class:`_Called` otherwise.  A producer reports
    its laws' support sizes before the referee answers them, so the loop
    counts each pair's terms and refuses, at the first coin that passes the
    cap, the first such pair in row-major order.  The loop takes coins until
    the producer holds about ``_BLOCK_TERMS`` entries, then adds the block's
    terms: entry (i, j) sums the terms of (xs[i], ys[j]) in the order coin,
    Alice message, Bob message, each term ``((cp * pa) * pb) * acc`` with
    ``pa = 1.0`` for a quantum payload, so it is bit for bit the plain loop
    over those terms.  Memory is bounded by a fixed block of terms, not by
    pairs times coins.

    Raises :class:`EnumerationCapError` when :func:`coin_terms` refuses the
    coin or some pair's term count would exceed ``tol.enum_cap``, and ValueError
    when the coin's law or a message law is malformed or an entry lies outside
    [0, 1] by more than ``tol.distribution``; entries within that slack are
    clamped to [0, 1].
    """
    xs, ys = list(xs), list(ys)
    terms = coin_terms(p, tol)
    if not xs or not ys:
        return np.zeros((len(xs), len(ys)))
    cap = tol.enum_cap
    count = np.zeros((len(xs), len(ys)), dtype=np.int64)  # each pair's terms so far

    def tally(la: list, lb: list) -> None:
        """Count laws of support sizes ``la`` (per x) and ``lb`` (per y) for every pair."""
        # every law holds a message, so a size past the cap passes it at every
        # pair it is in; clipped there, no product wraps in int64
        count[:] += np.outer([min(v, cap + 1) for v in la], [min(v, cap + 1) for v in lb])
        if count.max() > cap:
            i, j = np.argwhere(count > cap)[0]
            raise EnumerationCapError(f"term count exceeds budget {cap} at ({xs[i]!r}, {ys[j]!r})")

    # read as attributes, which a wrapper that copies the strategy's (as
    # functools.wraps does) still carries
    declared = (
        not p.quantum
        and hasattr(p.alice_strategy, "arrays")
        and hasattr(p.bob_strategy, "arrays")
        and getattr(p.referee, "vectorized", False)
    )
    source = (_Declared if declared else _Called)(p, xs, ys, tol, tally)
    total = np.zeros((1, len(xs) * len(ys)))
    cps: list = []
    for coin, cp in terms:
        cps.append(cp)
        if source.add(coin) >= _BLOCK_TERMS:
            total = _accumulate(total, np.array(cps), *source.block())
            cps = []
    if cps:
        total = _accumulate(total, np.array(cps), *source.block())

    total = total.reshape(len(xs), len(ys))
    slack = tol.distribution
    outside = np.argwhere(~((total >= -slack) & (total <= 1.0 + slack)))
    if len(outside):
        i, j = outside[0]
        raise ValueError(
            f"acceptance {float(total[i, j])!r} at ({xs[i]!r}, {ys[j]!r}) lies outside "
            f"[0, 1] by more than {slack}"
        )
    return np.minimum(1.0, np.maximum(0.0, total))


def exact_acceptance(p: SmpProtocol, x, y, tol: Tolerances = DEFAULT) -> float:
    """Exact acceptance probability of one pair: a one-entry :func:`acceptance_table`."""
    return float(acceptance_table(p, (x,), (y,), tol)[0, 0])


def _sample_output_once(p: SmpProtocol, x, y, rng, tol: Tolerances = DEFAULT, info=None):
    """One trial: the coin, then Alice's message (drawn from her law unless
    she sends a quantum payload) and Bob's, each law validated before its draw."""
    coin = p.coin.sampler(rng) if p.coin is not None else None
    a = p.alice_strategy(x, coin)
    if not p.quantum:
        validate_distribution(a, p.alice_cost.bits, tol)
        a = sample_from_distribution(a, rng)
    b = p.bob_strategy(y, coin)
    validate_distribution(b, p.bob_cost.bits, tol)
    return p.referee.sample_output(a, sample_from_distribution(b, rng), rng, coin, info=info)


def wilson_interval(successes: int, trials: int) -> tuple[float, float, float]:
    """(point estimate, lower, upper) 95% Wilson score interval."""
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return phat, max(0.0, center - half), min(1.0, center + half)


def worst_case_error(p: SmpProtocol, f: FunctionTable, tol: Tolerances = DEFAULT) -> float:
    """Largest |f(x,y) - acceptance| over the promise domain, exactly.

    One table covers the domain's distinct Alice and Bob inputs; only domain
    pairs enter the maximum.
    """
    domain = f.domain
    xs = list(dict.fromkeys(x for x, _ in domain))
    ys = list(dict.fromkeys(y for _, y in domain))
    table = acceptance_table(p, xs, ys, tol).tolist()
    row = {x: i for i, x in enumerate(xs)}
    col = {y: j for j, y in enumerate(ys)}
    worst = 0.0
    for x, y in domain:
        worst = max(worst, abs(float(f(x, y)) - table[row[x]][col[y]]))
    return worst


def protocol_cost(p: SmpProtocol) -> tuple[int, int, int]:
    """(alice, bob, total) message lengths; quantum messages count qubits."""
    a = p.alice_cost.total
    b = p.bob_cost.total
    return a, b, a + b


@dataclass(frozen=True)
class SuccessReport:
    successes: int
    trials: int
    rate: float
    wilson_low: float
    wilson_high: float
    per_pair_rates: tuple[float, ...]
    abstentions: int


def empirical_success(
    p: SmpProtocol,
    f: FunctionTable | Callable[[object, object], int],
    pairs: Iterable[tuple],
    trials_per_pair: int,
    seed: int,
    tol: Tolerances = DEFAULT,
) -> SuccessReport:
    """Fraction of trials whose referee output equals the target value.

    Each pair gets its own derived seed; each trial its own keyed generator.
    Every classical law is validated against ``tol``, as in :func:`acceptance_table`.
    A pair the protocol's ``batch`` takes runs through it a block of trials
    at a time, with the same draws and outputs.  Raises TypeError for a
    ``trials_per_pair`` or ``seed`` that is not an int.
    """
    pair_list = list(pairs)
    if isinstance(trials_per_pair, bool) or not isinstance(trials_per_pair, (int, np.integer)):
        raise TypeError(f"trials_per_pair must be an int, got {type(trials_per_pair).__name__}")
    if trials_per_pair < 1:
        raise ValueError(f"need trials_per_pair >= 1, got {trials_per_pair}")
    if not pair_list:
        raise ValueError("need at least one pair")
    successes = 0
    abstained = 0
    per_pair = []
    for i, (x, y) in enumerate(pair_list):
        want = f(x, y)
        pair_seed = derive_seed(seed, i)
        declared = None if p.batch is None else p.batch(p, x, y)
        hits = 0
        if declared is None:
            for t in range(trials_per_pair):
                info: dict = {}
                out = _sample_output_once(p, x, y, trial_rng(pair_seed, t), tol, info=info)
                hits += 1 if out == want else 0
                abstained += info.get("abstained", 0)
        else:
            width, run = declared
            for draws in TrialDraws.blocks(pair_seed, trials_per_pair, width):
                outs, abstains = run(draws)
                hits += outs.tolist().count(want)
                abstained += int(np.count_nonzero(abstains))
        successes += hits
        per_pair.append(hits / trials_per_pair)
    total = len(pair_list) * trials_per_pair
    rate, lo, hi = wilson_interval(successes, total)
    return SuccessReport(successes, total, rate, lo, hi, tuple(per_pair), abstained)
