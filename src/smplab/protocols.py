"""Concrete simultaneous message passing protocols.

Equality with a shared random string (public coin) and with random
code-matrix rows/columns (private coin); a promise problem where Bob holds a
perfect matching and a noisy version of the edge parities of Alice's string;
and the relational problem where any single edge parity is an acceptable
answer.  Every classical message is an int below 2^bits, its fields packed
first field most significant, which a referee reads back by shifts and masks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .codes import LinearCode, encode, hadamard_code
from .errors import EnumerationCapError, PromiseViolationError
from .qcore import MeasurementOperator, PureState
from .smp import (
    ArrayStrategy,
    CoinSpace,
    Cost,
    FunctionTable,
    OperatorReferee,
    Referee,
    RelationTable,
    SmpProtocol,
    TableReferee,
    pack,
    subset_coin,
)

__all__ = [
    "equality_public",
    "equality_code",
    "equality_code_acceptance",
    "equality_function",
    "MatchingInstance",
    "matching_times_x",
    "matching_value",
    "random_matching",
    "random_promise_instance",
    "matching_qc",
    "matching_classical",
    "HiddenMatchingOutput",
    "xor_matching",
    "hidden_matching_relation",
    "toy_quantum_equality",
    "hidden_matching_verification",
]


def _parity(v: int) -> int:
    return v.bit_count() & 1


def _parities(v: np.ndarray) -> np.ndarray:
    """:func:`_parity` of every entry of ``v``, nonnegative int64s."""
    for shift in (1, 2, 4, 8, 16, 32):  # afterwards bit 0 is the parity of all 64 bits
        v = v ^ v >> shift
    return v & 1


def _log2_exact(n: int) -> int:
    k = n.bit_length() - 1
    if n <= 0 or (1 << k) != n:
        raise ValueError(f"{n} is not a power of two")
    return k


def _index_bits(count: int) -> int:
    return (count - 1).bit_length()


# ---------------------------------------------------------------------------
# Equality

# the widest n whose inputs both equality protocols list; past it they are None
MAX_INPUT_BITS = 10

# the most coin bits n * k that equality_public accepts; past it, the coin's
# size alone would be an int of that many bits
_MAX_COIN_BITS = 1 << 20


def equality_public(n: int, k: int = 1) -> SmpProtocol:
    """Public-coin equality: both parties send k inner-product bits.

    The shared coin is a tuple of k random n-bit masks; the referee accepts
    iff all k parity pairs agree.  Raises :class:`EnumerationCapError` when
    the coin has more than ``_MAX_COIN_BITS`` bits.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n * k > _MAX_COIN_BITS:
        raise EnumerationCapError(f"coin of n*k = {n * k} bits exceeds {_MAX_COIN_BITS} bits")

    mask_max = 1 << n
    size = 1 << (n * k)

    def sampler(rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(int(rng.integers(0, mask_max)) for _ in range(k))

    def outcomes():
        # outcome v holds mask t in bits n*t .. n*t + n - 1 of v, so the
        # first mask varies fastest
        p = 1.0 / size
        for masks in itertools.product(range(mask_max), repeat=k):
            yield masks[::-1], p

    coin = CoinSpace(sampler=sampler, size=size, outcomes=outcomes)

    def send(value: int, masks: tuple[int, ...]) -> dict[int, float]:
        msg = 0
        for m in masks:
            msg = msg << 1 | _parity(value & m)
        return {msg: 1.0}

    def send_arrays(values: list, coins: list) -> tuple[np.ndarray, np.ndarray]:
        masks = np.array(coins, dtype=np.int64).reshape(len(coins), k, 1)
        x = np.array(values, dtype=np.int64)
        msg = np.zeros((len(coins), len(values)), dtype=np.int64)
        for t in range(k):  # send's packing, the first mask most significant
            msg = msg << 1 | _parities(masks[:, t] & x)
        return msg[:, None, :], np.ones(msg.shape)[:, None, :]

    strategy = ArrayStrategy(fn=send, slots=1, arrays=send_arrays)
    inputs = tuple(range(2**n)) if n <= MAX_INPUT_BITS else None
    return SmpProtocol(
        name=f"eq-public(n={n},k={k})",
        alice_strategy=strategy,
        bob_strategy=strategy,
        referee=TableReferee(fn=lambda a, b: (a == b) * 1.0, vectorized=True),
        alice_cost=Cost(bits=k),
        bob_cost=Cost(bits=k),
        coin=coin,
        alice_inputs=inputs,
        bob_inputs=inputs,
    )


def equality_code(n: int, code: LinearCode | None = None, reps: int = 1) -> SmpProtocol:
    """Private-coin equality via a linear code's grid view.

    Per repetition Alice sends a uniformly random column of her codeword's
    grid with its index, Bob a uniformly random row of his; the referee
    accepts iff row and column agree at every intersection.
    """
    if code is None:
        code = hadamard_code(n)
    if code.n != n:
        raise ValueError(f"code encodes {code.n}-bit messages, expected {n}")
    if reps < 1:
        raise ValueError("need reps >= 1")

    rows, cols = code.grid_rows, code.grid_cols

    def side(transpose: bool) -> tuple[ArrayStrategy, int]:
        """A party and its bits per repetition, in which it sends a uniformly random
        column of its grid (Bob's is Alice's transposed): its index, then its bits."""
        height, width = (cols, rows) if transpose else (rows, cols)
        bits = _index_bits(width) + height
        p = (1.0 / width) ** reps

        def law(v, _coin) -> dict[int, float]:
            g = encode(code, v).reshape(rows, cols)
            columns = (g if transpose else g.T).tolist()
            lines = [j << height | pack(c, 1) for j, c in enumerate(columns)]
            return {pack(choice, bits): p for choice in itertools.product(lines, repeat=reps)}

        def arrays(values: list, _coins: list) -> tuple[np.ndarray, np.ndarray]:
            """``law`` of every value at once, [1, slot, value]."""
            g = np.array([encode(code, v) for v in values], dtype=np.int64).reshape(-1, rows, cols)
            columns = g if transpose else g.transpose(0, 2, 1)
            shifts = np.arange(height - 1, -1, -1)
            lines = np.arange(width) << height | (columns << shifts).sum(axis=2)
            ids = lines
            for _ in range(reps - 1):  # product's order: the first pick most significant
                ids = (ids[:, :, None] << bits | lines[:, None, :]).reshape(len(values), -1)
            return ids.T[None], np.full((1, ids.shape[1], len(values)), p)

        return ArrayStrategy(fn=law, slots=width**reps, arrays=arrays), bits

    (alice, a_rep_bits), (bob, b_rep_bits) = side(False), side(True)
    if reps * max(a_rep_bits, b_rep_bits) >= 63:  # the ids would overflow an int64
        alice, bob = alice.fn, bob.fn
    a_mask, b_mask = (1 << a_rep_bits) - 1, (1 << b_rep_bits) - 1

    def accept(a, b):
        """1.0 or 0.0 for two messages, elementwise for two id arrays."""
        miss = 0
        for _ in range(reps):
            a_seg, b_seg = a & a_mask, b & b_mask
            j, i = a_seg >> rows, b_seg >> cols
            # Alice's bit at row i against Bob's at column j
            miss |= a_seg >> (rows - 1 - i) ^ b_seg >> (cols - 1 - j)
            a, b = a >> a_rep_bits, b >> b_rep_bits
        return 1.0 - (miss & 1)

    inputs = tuple(range(2**n)) if n <= MAX_INPUT_BITS else None
    return SmpProtocol(
        name=f"eq-code(n={n},reps={reps})",
        alice_strategy=alice,
        bob_strategy=bob,
        referee=TableReferee(fn=accept, vectorized=True),
        alice_cost=Cost(bits=reps * a_rep_bits),
        bob_cost=Cost(bits=reps * b_rep_bits),
        alice_inputs=inputs,
        bob_inputs=inputs,
    )


def equality_code_acceptance(code: LinearCode, x: int, y: int, reps: int = 1) -> float:
    """Exact acceptance of the code-grid protocol, via repetition independence.

    One repetition agrees with probability 1 - d(C(x), C(y))/m (uniform cell);
    repetitions are independent, so the all-agree probability is its power.
    """
    d = int((encode(code, x) ^ encode(code, y)).sum())
    return (1.0 - d / code.m) ** reps


def equality_function(n: int) -> FunctionTable:
    xs = tuple(range(2**n))
    return FunctionTable(xs, xs, {(x, y): int(x == y) for x in xs for y in xs})


# ---------------------------------------------------------------------------
# Matching promise problem


@dataclass(frozen=True)
class MatchingInstance:
    """Alice's bitstring plus Bob's perfect matching and edge-indexed string."""

    n: int
    x: tuple[int, ...]
    matching: tuple[tuple[int, int], ...]
    w: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(b) & 1 for b in self.x))
        edges = tuple(tuple(sorted((int(i), int(j)))) for i, j in self.matching)
        object.__setattr__(self, "matching", edges)
        object.__setattr__(self, "w", tuple(int(b) & 1 for b in self.w))
        if self.n % 2 != 0 or len(self.x) != self.n:
            raise ValueError("need an even n and a length-n string")
        touched = [v for e in edges for v in e]
        if sorted(touched) != list(range(self.n)):
            raise ValueError("matching does not partition the vertex set")
        if len(self.w) != self.n // 2:
            raise ValueError("w must have one bit per edge")

    @property
    def bob_input(self) -> tuple:
        return (self.matching, self.w)


def matching_times_x(inst: MatchingInstance) -> tuple[int, ...]:
    """Edge parities of Alice's string, in the matching's edge order."""
    return tuple(inst.x[i] ^ inst.x[j] for i, j in inst.matching)


def matching_value(inst: MatchingInstance) -> int:
    """1 when w is within n/6 of the edge parities, 0 when at least n/3 away."""
    d = sum(a != b for a, b in zip(inst.w, matching_times_x(inst)))
    if 6 * d <= inst.n:
        return 1
    if 3 * d >= inst.n:
        return 0
    raise PromiseViolationError(
        f"distance {d} is strictly between {inst.n}/6 and {inst.n}/3"
    )


def random_matching(n: int, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    perm = [int(v) for v in rng.permutation(n)]
    edges = [tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(n // 2)]
    return tuple(sorted(edges))


def random_promise_instance(
    n: int, rng: np.random.Generator, value: int | None = None
) -> MatchingInstance:
    """Instance satisfying the promise, with the target value drawn if not given."""
    if value is None:
        value = int(rng.integers(0, 2))
    x = tuple(int(b) for b in rng.integers(0, 2, size=n))
    matching = random_matching(n, rng)
    if value == 1:
        d = int(rng.integers(0, n // 6 + 1))
    else:
        d = int(rng.integers(-(-n // 3), n // 2 + 1))
    parities = [x[i] ^ x[j] for i, j in matching]
    for pos in rng.choice(n // 2, size=d, replace=False):
        parities[pos] ^= 1
    return MatchingInstance(n=n, x=x, matching=matching, w=tuple(parities))


def _encode_edges(edges: list[tuple[int, int, int]], slots: int, log_n: int) -> int:
    """The edge count, then each edge as (i, j, w-bit), zero-padded to ``slots`` edges."""
    v = len(edges)
    for i, j, wbit in edges:
        v = (((v << log_n | i) << log_n | j) << 1) | wbit
    return v << (slots - len(edges)) * (2 * log_n + 1)


def _decode_edges(v: int, slots: int, log_n: int) -> list[tuple[int, int, int]]:
    """Inverse of :func:`_encode_edges`."""
    width = 2 * log_n + 1
    count = v >> (slots * width)
    low, edge = (1 << log_n) - 1, (1 << width) - 1
    out = []
    for shift in range((slots - 1) * width, (slots - 1 - count) * width, -width):
        e = (v >> shift) & edge
        out.append((e >> (log_n + 1), (e >> 1) & low, e & 1))
    return out


def _available_edges(
    matching: tuple[tuple[int, int], ...],
    w: tuple[int, ...],
    subset: tuple[int, ...],
    limit: int,
) -> list[tuple[int, int, int]]:
    """The first ``limit`` edges of the matching inside ``subset``, with their w-bits."""
    inside = set(subset)
    edges = ((i, j, w[t]) for t, (i, j) in enumerate(matching) if i in inside and j in inside)
    return list(itertools.islice(edges, limit))


def _matching_bob(log_n: int, slots: int):
    """Bob in both matching protocols, and his cost: the first ``slots`` edges
    of his matching inside the coin's subset, with their w-bits."""

    def bob(by: tuple, subset: tuple[int, ...]) -> dict[int, float]:
        matching, w = by
        edges = _available_edges(matching, w, subset, slots)
        return {_encode_edges(edges, slots, log_n): 1.0}

    return bob, Cost(bits=_index_bits(slots + 1) + slots * (2 * log_n + 1))


def _bit_tuple(v) -> bool:
    return type(v) is tuple and all(type(b) is int and 0 <= b <= 1 for b in v)


# a matching batch takes pairs up to this n; past it a block's trials, fewer
# than 64 under smp's cell bound, run slower than one at a time (at n = 16,384
# both matching protocols did)
_BATCH_MAX_N = 4096


def _matching_arrays(n: int, x, y):
    """Alice's bits and Bob's edge endpoints and w-bits as int arrays: (x, i, j, w).

    Only for a pair a :class:`MatchingInstance` gives at n <= ``_BATCH_MAX_N``:
    x a tuple of n bits, y a tuple (matching, w) of a tuple of int pairs in
    range(n) and one bit per edge, every entry an int.  Any other pair gets
    None, and the per-trial path alone decides what it does.
    """
    if n > _BATCH_MAX_N:
        return None
    if not (_bit_tuple(x) and len(x) == n and type(y) is tuple and len(y) == 2):
        return None
    matching, w = y
    if not (_bit_tuple(w) and type(matching) is tuple and len(matching) == len(w)):
        return None
    for e in matching:
        if not (type(e) is tuple and len(e) == 2
                and all(type(v) is int and 0 <= v < n for v in e)):
            return None
    ends = np.array(matching, dtype=np.intp).reshape(-1, 2)
    return np.array(x, dtype=np.int64), ends[:, 0], ends[:, 1], np.array(w, dtype=np.int64)


def _subset_mask(draws, n: int, k: int) -> np.ndarray:
    """The [trial, n] membership mask of each trial's ``subset_coin(n, k)``
    subset, drawn as its sampler draws it."""
    mask = np.zeros((draws.count, n), dtype=bool)
    mask[draws.rows[:, None], draws.choice(n, k)] = True
    return mask


def _sampled_parts(p: SmpProtocol) -> tuple:
    """What one trial of ``p`` reads: its coin, strategies, referee and costs."""
    return p.coin, p.alice_strategy, p.bob_strategy, p.referee, p.alice_cost, p.bob_cost


def _declare_batch(p: SmpProtocol, n: int, runner) -> SmpProtocol:
    """``p`` with ``runner(x, y)``, a pair's block runner over n-wide arrays
    or None, as its batch.  The batch takes a pair only for a protocol whose
    sampled parts are ``p``'s own, so one made by replacing any of them runs
    per trial."""
    parts = _sampled_parts(p)

    def batch(q: SmpProtocol, x, y):
        if not all(a is b for a, b in zip(_sampled_parts(q), parts)):
            return None
        run = runner(x, y)
        return None if run is None else (n, run)

    return replace(p, batch=batch)


def _sent_slots(mask: np.ndarray, i: np.ndarray, j: np.ndarray, slots: int):
    """Bob's message per trial of a [trial, n] subset mask, as arrays: the
    matching position of the edge in each of its ``slots`` slots, and which
    slots hold one.  His edges are the first ``slots`` edges inside the
    subset, so an edge's slot is its rank among the inside edges, a cumsum."""
    inside = mask[:, i] & mask[:, j]
    rank = np.cumsum(inside, axis=1, dtype=np.int32)
    trial, edge = np.nonzero(inside & (rank <= slots))
    slot = rank[trial, edge] - 1
    position = np.zeros((len(mask), slots), dtype=np.intp)
    held = np.zeros((len(mask), slots), dtype=bool)
    position[trial, slot] = edge
    held[trial, slot] = True
    return position, held


def _majority_outputs(agree: np.ndarray, total: np.ndarray, draws):
    """:func:`_majority_output` per trial of ``total`` recovered bits, ``agree``
    of them agreeing, each tie drawing its fair coin; and which trials abstained."""
    out = (2 * agree > total).astype(np.int64)
    tie = np.flatnonzero(2 * agree == total)
    out[tie] = draws.integers(2, tie)
    return out, total == 0


def _check_subset_size(n: int, subset_size: int) -> None:
    if not 1 <= subset_size <= n:
        raise ValueError(f"need 1 <= subset_size <= n = {n}, got {subset_size}")
    if subset_size < 2:
        raise ValueError(f"need subset_size >= 2 so that an edge fits, got {subset_size}")


def _majority_output(agreements: list[int], rng: np.random.Generator | None):
    """1 when most recovered bits agree, 0 when most disagree; fair coin on ties."""
    if agreements:
        agree = sum(agreements)
        disagree = len(agreements) - agree
        if agree > disagree:
            return 1
        if disagree > agree:
            return 0
    if rng is None:
        return None
    return int(rng.integers(0, 2))


# paths of the matching referee's exact walk at or below this weight are pruned
_NEGLIGIBLE_WEIGHT = 1e-15


def _edge_measurement(amp: np.ndarray, i: int, j: int) -> tuple[float, float, float]:
    """Edge (i, j)'s projector mass, then the unnormalized weights of the + and -
    outcomes on the two amplitudes that survive it (even and odd parity)."""
    ai, aj = amp[i], amp[j]
    plus, minus = float(abs(ai + aj) ** 2) / 2.0, float(abs(ai - aj) ** 2) / 2.0
    return float(abs(ai) ** 2 + abs(aj) ** 2), plus, minus


class _MatchingQcReferee(Referee):
    """Measures ``copies`` copies of Alice's state with the projectors of still-unused edges.

    Per copy, the projective measurement has one two-dimensional outcome per
    unused edge (success probability |psi_i|^2 + |psi_j|^2) plus a residual
    outcome; a success is followed by the +/- basis measurement on the
    surviving two amplitudes, which recovers the edge parity.
    """

    def __init__(self, n: int, slots: int, copies: int):
        self.slots, self.copies = slots, copies
        self.log_n = _log2_exact(n)

    def _edge_outcomes(self, psi: PureState, edges: list[tuple[int, int, int]]):
        """(edge position, success probability, even-parity probability) per edge with mass."""
        amp = psi.amplitudes
        out = []
        for idx, (i, j, _w) in enumerate(edges):
            p, plus, minus = _edge_measurement(amp, i, j)
            if p <= 0.0:
                continue
            out.append((idx, p, plus / (plus + minus)))
        return out

    def output_distribution(self, psi: PureState, b: int, coin=None) -> dict:
        edges = _decode_edges(b, self.slots, self.log_n)
        outcomes = self._edge_outcomes(psi, edges)
        dist: dict[int, float] = {}

        def walk(copy: int, used: frozenset[int], agreements: tuple[int, ...], weight: float):
            if weight <= _NEGLIGIBLE_WEIGHT:
                return
            if copy == self.copies:
                out = _majority_output(list(agreements), rng=None)
                if out is None:
                    dist[0] = dist.get(0, 0.0) + weight / 2
                    dist[1] = dist.get(1, 0.0) + weight / 2
                else:
                    dist[out] = dist.get(out, 0.0) + weight
                return
            unused = [e for e in outcomes if e[0] not in used]
            residual = 1.0 - sum(p for _, p, _ in unused)
            for idx, p, p_even in unused:
                wbit = edges[idx][2]
                if p_even > 0.0:
                    walk(copy + 1, used | {idx},
                         agreements + (int(wbit == 0),), weight * p * p_even)
                if p_even < 1.0:
                    walk(copy + 1, used | {idx},
                         agreements + (int(wbit == 1),), weight * p * (1.0 - p_even))
            walk(copy + 1, used, agreements, weight * residual)

        walk(0, frozenset(), (), 1.0)
        return dist

    def sample_output(self, psi: PureState, b: int, rng, coin=None, info=None) -> int:
        edges = _decode_edges(b, self.slots, self.log_n)
        outcomes = self._edge_outcomes(psi, edges)
        used: set[int] = set()
        agreements: list[int] = []
        for _ in range(self.copies):
            options = [e for e in outcomes if e[0] not in used]
            if not options:
                continue
            u = rng.random()
            acc = 0.0
            for idx, p, p_even in options:
                acc += p
                if u < acc:
                    parity = 0 if rng.random() < p_even else 1
                    agreements.append(int(parity == edges[idx][2]))
                    used.add(idx)
                    break
        if info is not None and not agreements:
            info["abstained"] = info.get("abstained", 0) + 1
        return _majority_output(agreements, rng)


def matching_qc(
    n: int,
    subset_size: int | None = None,
    copies: int | None = None,
    edges_sent: int | None = None,
) -> SmpProtocol:
    """Quantum-classical protocol for the matching promise problem.

    The public coin picks a subset S; Alice's strategy returns the sign
    superposition of her bits on S, one ``PureState``, and she pays for
    ``copies`` copies of it; Bob sends the edges of his matching
    that fall inside S (up to ``edges_sent``) with their w-bits; the referee
    recovers edge parities from the copies and takes a majority vote of the
    agreement bits.  On an empty intersection the referee answers with a fair
    coin.
    """
    log_n = _log2_exact(n)
    if subset_size is None:
        subset_size = math.ceil(n ** (2 / 3))
    if copies is None:
        copies = math.ceil(n ** (1 / 3))
    _check_subset_size(n, subset_size)
    if edges_sent is None:
        edges_sent = min(math.ceil(n ** (1 / 3)), subset_size // 2)
    for name, count in (("copies", copies), ("edges_sent", edges_sent)):
        if count < 1:
            raise ValueError(f"need {name} >= 1, got {count}")
    if edges_sent > subset_size // 2:
        raise ValueError(
            f"need edges_sent <= subset_size // 2 = {subset_size // 2}, got {edges_sent}"
        )

    coin = subset_coin(n, subset_size)
    inv_sqrt = 1.0 / math.sqrt(subset_size)

    @functools.lru_cache(maxsize=1)
    def signs(x: tuple) -> np.ndarray:
        """Alice's signed amplitude on every index; only the last input is kept."""
        return np.where(np.array(x, dtype=bool), -inv_sqrt, inv_sqrt).astype(np.complex128)

    def alice(x: tuple[int, ...], subset: tuple[int, ...]) -> PureState:
        amp = np.zeros(n, dtype=np.complex128)
        idx = np.fromiter(subset, dtype=np.intp, count=len(subset))
        amp[idx] = signs(tuple(x))[idx]
        return PureState(amp)

    # with 1/sqrt(s) a power of two every square and partial sum of the
    # amplitudes is exact, so every subset's state has the same norm
    one_norm = math.frexp(inv_sqrt)[0] == 0.5

    def runner(x, y):
        arrays = _matching_arrays(n, x, y)
        if arrays is None:
            return None
        bits, i, j, w = arrays
        same = bits[i] == bits[j]
        outcomes: dict = {}

        def edge_outcomes(subset: tuple[int, ...]) -> tuple[float, float, float]:
            """The referee's (mass, even-parity probability with equal signs,
            with opposite signs) of an edge inside ``subset``, read off
            Alice's state there by ``_edge_measurement``: every amplitude on
            the subset is the same value up to sign."""
            a = alice(x, subset).amplitudes[subset[0]]
            key = abs(float(a.real))
            if key not in outcomes:
                mass, plus, minus = _edge_measurement(np.array([a, a]), 0, 1)
                _, plus_x, minus_x = _edge_measurement(np.array([a, -a]), 0, 1)
                outcomes[key] = (mass, plus / (plus + minus), plus_x / (plus_x + minus_x))
            return outcomes[key]

        def run(draws):
            mask = _subset_mask(draws, n, subset_size)
            position, held = _sent_slots(mask, i, j, edges_sent)
            if one_norm:
                states = [edge_outcomes(tuple(np.flatnonzero(mask[0]).tolist()))] * draws.count
            else:
                states = [edge_outcomes(tuple(np.flatnonzero(m).tolist())) for m in mask]
            mass, even_same, even_opposite = np.array(states).T
            p_even = np.where(same[position], even_same[:, None], even_opposite[:, None])
            wbit = w[position]
            used = ~held
            agree = np.zeros(draws.count, dtype=np.int64)
            total = np.zeros(draws.count, dtype=np.int64)
            for _ in range(copies):
                rows = np.flatnonzero(~used.all(axis=1))
                if not len(rows):
                    break
                u = draws.random(rows)
                open_ = ~used[rows]
                # the referee's acc += p over the unused edges, in slot order
                acc = np.cumsum(np.where(open_, mass[rows, None], 0.0), axis=1)
                hit = open_ & (u[:, None] < acc)
                got = hit.any(axis=1)
                rows, slot = rows[got], hit.argmax(axis=1)[got]
                parity = np.where(draws.random(rows) < p_even[rows, slot], 0, 1)
                agree[rows] += parity == wbit[rows, slot]
                total[rows] += 1
                used[rows, slot] = True
            return _majority_outputs(agree, total, draws)

        return run

    bob, bob_cost = _matching_bob(log_n, edges_sent)
    return _declare_batch(SmpProtocol(
        name=f"matching-qc(n={n})",
        alice_strategy=alice,
        bob_strategy=bob,
        referee=_MatchingQcReferee(n, edges_sent, copies),
        alice_cost=Cost(qubits=copies * log_n),
        bob_cost=bob_cost,
        coin=coin,
    ), n, runner)


class _MatchingClassicalReferee(Referee):
    """Compares edge parities read off Alice's restricted bits with the w-bits."""

    def __init__(self, n: int, slots: int):
        self.slots = slots
        self.log_n = _log2_exact(n)

    def _agreements(self, a: int, b: int, subset: tuple[int, ...]) -> list[int]:
        last = len(subset) - 1  # the shift of Alice's bit on subset[0]
        agreements = []
        for i, j, wbit in _decode_edges(b, self.slots, self.log_n):
            parity = (a >> (last - subset.index(i)) ^ a >> (last - subset.index(j))) & 1
            agreements.append(int(parity == wbit))
        return agreements

    def output_distribution(self, a: int, b: int, coin=None) -> dict:
        out = _majority_output(self._agreements(a, b, coin), rng=None)
        if out is None:
            return {0: 0.5, 1: 0.5}
        return {out: 1.0}

    def sample_output(self, a: int, b: int, rng, coin=None, info=None) -> int:
        agreements = self._agreements(a, b, coin)
        if info is not None and not agreements:
            info["abstained"] = info.get("abstained", 0) + 1
        return _majority_output(agreements, rng)


def matching_classical(n: int, subset_size: int | None = None) -> SmpProtocol:
    """Classical analogue: Alice sends her bits on the random subset directly."""
    log_n = _log2_exact(n)
    if subset_size is None:
        subset_size = 2 * math.ceil(math.sqrt(n))
    _check_subset_size(n, subset_size)
    coin = subset_coin(n, subset_size)
    slots = subset_size // 2

    def alice(x: tuple[int, ...], subset: tuple[int, ...]) -> dict[int, float]:
        return {pack((x[i] for i in subset), 1): 1.0}

    def runner(x, y):
        arrays = _matching_arrays(n, x, y)
        if arrays is None:
            return None
        bits, i, j, w = arrays
        agrees = (bits[i] ^ bits[j]) == w

        def run(draws):
            position, held = _sent_slots(_subset_mask(draws, n, subset_size), i, j, slots)
            agree = np.count_nonzero(held & agrees[position], axis=1)
            return _majority_outputs(agree, np.count_nonzero(held, axis=1), draws)

        return run

    bob, bob_cost = _matching_bob(log_n, slots)
    return _declare_batch(SmpProtocol(
        name=f"matching-classical(n={n})",
        alice_strategy=alice,
        bob_strategy=bob,
        referee=_MatchingClassicalReferee(n, slots),
        alice_cost=Cost(bits=subset_size),
        bob_cost=bob_cost,
        coin=coin,
    ), n, runner)


# ---------------------------------------------------------------------------
# Hidden matching relation


@dataclass(frozen=True)
class HiddenMatchingOutput:
    """One edge of Bob's matching with the parity of Alice's bits on it."""

    i: int
    j: int
    parity: int


def xor_matching(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Perfect matching pairing each i with i XOR k; k = 1 .. n-1, n a power of two."""
    _log2_exact(n)
    if not 1 <= k < n:
        raise ValueError(f"matching index {k} outside 1..{n - 1}")
    return tuple(sorted((i, i ^ k) for i in range(n) if i < (i ^ k)))


def _sign_superposition(x: int, n: int) -> PureState:
    amp = np.array(
        [(-1.0 if (x >> i) & 1 else 1.0) for i in range(n)], dtype=np.complex128
    )
    return PureState(amp / math.sqrt(n))


# an edge's mass, or a parity branch's share of it, at or below this is
# numerical residue and left out of the hidden-matching output distribution
_EDGE_RESIDUE = 1e-12


class _HiddenMatchingReferee(Referee):
    """Projects onto the two-dimensional edge spaces of the named matching.

    The surviving two amplitudes determine the edge parity with certainty for
    sign-superposition messages; numerical residue in the wrong parity branch
    is kept in the distribution rather than hidden once its share of the edge
    exceeds ``_EDGE_RESIDUE`` (1e-12).
    """

    def __init__(self, n: int):
        self.n = n

    def _branches(self, psi: PureState, k: int):
        amp = psi.amplitudes
        for i, j in xor_matching(self.n, k):
            p_edge, plus, minus = _edge_measurement(amp, i, j)
            if p_edge <= _EDGE_RESIDUE:
                continue
            for parity, weight in ((0, plus), (1, minus)):
                if weight / (plus + minus) > _EDGE_RESIDUE:
                    yield HiddenMatchingOutput(i, j, parity), p_edge * weight / (plus + minus)

    def output_distribution(self, psi: PureState, b: int, coin=None) -> dict:
        return {out: w for out, w in self._branches(psi, b)}

    def sample_output(self, psi: PureState, b: int, rng, coin=None, info=None):
        outs, weights = zip(*self._branches(psi, b))
        idx = rng.choice(len(outs), p=np.array(weights) / sum(weights))
        return outs[idx]


def hidden_matching_relation(n: int) -> tuple[SmpProtocol, RelationTable]:
    """Relational protocol: output any (i, j, x_i xor x_j) with (i, j) in Bob's matching.

    Alice sends one sign superposition (log n qubits); Bob names his matching
    (log n bits); the referee's edge measurement yields a uniformly random
    edge whose parity it then extracts with certainty.  The relation weighs
    every input pair 1.  Above n = 8 both input sets and the relation are None.
    """
    log_n = _log2_exact(n)
    if n < 4:
        raise ValueError("need n >= 4")
    xs, ks = (tuple(range(2**n)), tuple(range(1, n))) if n <= 8 else (None, None)

    protocol = SmpProtocol(
        name=f"hidden-matching(n={n})",
        alice_strategy=lambda x, _c: _sign_superposition(x, n),
        bob_strategy=lambda k, _c: {k: 1.0},
        referee=_HiddenMatchingReferee(n),
        alice_cost=Cost(qubits=log_n),
        bob_cost=Cost(bits=log_n),
        alice_inputs=xs,
        bob_inputs=ks,
    )

    relation = None
    if xs is not None:
        valid = {}
        for x in xs:
            for k in ks:
                valid[(x, k)] = frozenset(
                    HiddenMatchingOutput(i, j, ((x >> i) & 1) ^ ((x >> j) & 1))
                    for i, j in xor_matching(n, k)
                )
        relation = RelationTable(valid, dict.fromkeys(valid, 1))
    return protocol, relation


# ---------------------------------------------------------------------------
# Canonical-form toy fixtures for the protocol compilers


def _toy_states(q: int) -> list[PureState]:
    if q == 1:
        s = 1 / math.sqrt(2)
        vectors = [(1, 0), (s, s), (0, 1), (s, -s)]
        return [PureState(np.array(v, dtype=np.complex128)) for v in vectors]
    if q == 2:
        return [PureState(np.eye(4, dtype=np.complex128)[i]) for i in range(4)]
    raise ValueError("toy fixtures cover q in {1, 2}")


def toy_quantum_equality(q: int = 1) -> SmpProtocol:
    """Equality-flavored quantum-classical protocol in canonical form.

    Four Alice inputs map to four pure states on q qubits; Bob sends his
    input as two bits; the referee measures with the projector onto Bob's
    own state.  For q=2 the states are orthogonal and the protocol is exact;
    for q=1 they overlap and unequal inputs may be accepted with probability
    one half.
    """
    states = _toy_states(q)
    densities = [s.density() for s in states]
    return SmpProtocol(
        name=f"toy-quantum-eq(q={q})",
        alice_strategy=lambda x, _c: densities[x],
        bob_strategy=lambda y, _c: {y: 1.0},
        referee=OperatorReferee([MeasurementOperator(d.entries) for d in densities]),
        alice_cost=Cost(qubits=q),
        bob_cost=Cost(bits=2),
        alice_inputs=(0, 1, 2, 3),
        bob_inputs=(0, 1, 2, 3),
    )


def hidden_matching_verification(n: int = 4) -> SmpProtocol:
    """Boolean restatement of the hidden matching relation, in canonical form.

    Bob holds (matching index, edge position, claimed parity); the function
    is whether the claim equals the true edge parity of Alice's string.  The
    referee projects onto the one state that certifies the claim, so the
    acceptance probability is 2/n on a true claim and 0 on a false one.
    """
    log_n = _log2_exact(n)
    ys = [
        (k, t, beta)
        for k in range(1, n)
        for t in range(n // 2)
        for beta in (0, 1)
    ]
    bob_bits = _index_bits(len(ys))
    operators = []
    for k, t, beta in ys:
        i, j = xor_matching(n, k)[t]
        amp = np.zeros(n, dtype=np.complex128)
        amp[i] = 1 / math.sqrt(2)
        amp[j] = (1 if beta == 0 else -1) / math.sqrt(2)
        operators.append(MeasurementOperator(PureState(amp).density().entries))
    operators += [
        MeasurementOperator(np.zeros((n, n), dtype=np.complex128))
        for _ in range(len(ys), 2**bob_bits)
    ]
    y_index = {y: idx for idx, y in enumerate(ys)}

    return SmpProtocol(
        name=f"hm-verify(n={n})",
        alice_strategy=lambda x, _c: _sign_superposition(x, n).density(),
        bob_strategy=lambda y, _c: {y_index[y]: 1.0},
        referee=OperatorReferee(operators),
        alice_cost=Cost(qubits=log_n),
        bob_cost=Cost(bits=bob_bits),
        alice_inputs=tuple(range(2**n)),
        bob_inputs=tuple(ys),
    )
