"""Brute-force ground truth for deterministic protocols at toy scale.

Exact deterministic complexity of tiny functions (distinct rows/columns of
the communication matrix, cross-checked by exhaustive protocol search),
exhaustive search for cheapest deterministic protocols solving relations
under a distribution, and the constructive chain that turns a relational
separation into a functional one: extract the function a deterministic
protocol computes, bound its distributional error by a union bound, and
split multi-bit outputs into Boolean functions through an error-correcting
code.

Search caps are explicit and errors loud; there are no heuristic fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .codes import LinearCode, encode, min_distance_bruteforce
from .config import DEFAULT, Tolerances
from .errors import CapExceededError
from .smp import FunctionTable, RelationTable

__all__ = [
    "DeterministicSmpProtocol",
    "det_complexity_function",
    "search_relation_protocol",
    "exhaustive_function_search",
    "extract_function",
    "union_bound_check",
    "UnionBoundReport",
    "booleanize",
    "decode_booleanized",
]


@dataclass(frozen=True)
class DeterministicSmpProtocol:
    """Fixed message maps for both parties (int messages) plus a referee lookup table."""

    alice_map: Mapping[object, int]
    bob_map: Mapping[object, int]
    referee_map: Mapping[tuple[int, int], object]

    def __post_init__(self):
        object.__setattr__(self, "alice_map", dict(self.alice_map))
        object.__setattr__(self, "bob_map", dict(self.bob_map))
        object.__setattr__(self, "referee_map", dict(self.referee_map))

    def output(self, x, y):
        return self.referee_map[(self.alice_map[x], self.bob_map[y])]


def det_complexity_function(
    f: FunctionTable, tol: Tolerances = DEFAULT
) -> tuple[int, int]:
    """Minimal per-party message lengths of a zero-error deterministic protocol.

    Alice must separate inputs with distinct matrix rows (a shared message
    would force the referee to err against some column), and that many
    messages also suffice; likewise for columns.  Only total functions: a
    partial function must go through the relational search with singleton
    valid sets on its domain.
    """
    if not f.is_total:
        raise ValueError(
            "partial function: use search_relation_protocol with singleton valid sets"
        )
    if len(f.alice_inputs) > 1024 or len(f.bob_inputs) > 1024:
        raise CapExceededError("input sets capped at 2**10")
    rows = {tuple(f(x, y) for y in f.bob_inputs) for x in f.alice_inputs}
    cols = {tuple(f(x, y) for x in f.alice_inputs) for y in f.bob_inputs}
    return tuple((len(s) - 1).bit_length() if s else 0 for s in (rows, cols))


# The canonical assignments of up to this many items are kept across
# searches, one tuple per (items, cost): Bell(8) = 4,140 of them in all.
# Larger shapes (up to relation_xy_cap items) are enumerated lazily and never
# held as a list.
_LATTICE_MAX_ITEMS = 8
_lattice: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _assignments(n: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    """Maps item -> block index in canonical (first-appearance) order."""

    def rec(i: int, used: int, assignment: list[int]):
        if i == n:
            yield tuple(assignment)
            return
        for block in range(min(used + 1, max_blocks)):
            assignment.append(block)
            yield from rec(i + 1, max(used, block + 1), assignment)
            assignment.pop()

    return rec(0, 0, [])


def _partitions(n: int, cost: int) -> Iterable[tuple[int, ...]]:
    """The assignments of ``_assignments(n, 2**cost)`` that cost exactly
    ``cost`` bits, in its order; built once per (n, cost) when n is small,
    else enumerated lazily.

    An assignment into k blocks costs ``(k - 1).bit_length()`` bits, and its
    largest block index is k - 1.
    """
    found = _lattice.get((n, cost))
    if found is None:
        found = (a for a in _assignments(n, 2**cost) if max(a).bit_length() == cost)
        if n <= _LATTICE_MAX_ITEMS:
            found = _lattice[(n, cost)] = tuple(found)
    return found


def _plan(nx: int, ny: int, cap: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Each (total, Alice assignment, Bob assignment) of at most ``cap`` total
    bits once, at its exact cost, by total and then Alice's cost.

    This is the order in which a walk over every total, every split of it
    and every assignment within each side's share first meets each pair, so
    the first pair that works is the one that walk finds first.
    """
    top_a, top_b = (nx - 1).bit_length(), (ny - 1).bit_length()
    for total in range(min(cap, top_a + top_b) + 1):
        for c_a in range(max(0, total - top_b), min(total, top_a) + 1):
            for a_assign in _partitions(nx, c_a):
                for b_assign in _partitions(ny, total - c_a):
                    yield total, a_assign, b_assign


@lru_cache(maxsize=32)
def _setup(ids: tuple, pairs: tuple, xy_cap: int, bits_cap: int):
    """A pair set's inputs in ``repr`` order, each pair's (row, column) and its
    plan (held up to ``_LATTICE_MAX_ITEMS`` inputs, 877 candidates, else ()).
    Keyed by the pairs' ids, which the cache keeps alive, so 1 and True differ."""
    xs = tuple(sorted({x for x, _ in pairs}, key=repr))
    ys = tuple(sorted({y for _, y in pairs}, key=repr))
    nx, ny = len(xs), len(ys)
    if nx * ny > xy_cap:
        raise CapExceededError(f"|X|*|Y| capped at {xy_cap}")
    xi, yi = {x: i for i, x in enumerate(xs)}, {y: j for j, y in enumerate(ys)}
    at = {(x, y): (xi[x], yi[y]) for x, y in pairs}
    return xs, ys, at, tuple(_plan(nx, ny, bits_cap)) if nx + ny <= _LATTICE_MAX_ITEMS else ()


def search_relation_protocol(
    relation: RelationTable, tol: Tolerances = DEFAULT
) -> tuple[int, DeterministicSmpProtocol] | None:
    """Cheapest deterministic protocol answering validly on the support of mu.

    Walks the exact-cost plan of :func:`_plan`: each pair of Alice's and
    Bob's message-map partitions is tried once, at its own total cost
    ``(blocks_a - 1).bit_length() + (blocks_b - 1).bit_length()``, cheapest
    total first and, within a total, cheapest Alice first, so the first pair
    that works is the cheapest protocol.  The referee is then forced
    (any cell intersecting the support must pick from the intersection of its
    valid sets, and takes the least output by ``repr``).  Valid sets are
    bitmasks over the outputs in ``repr`` order, so that pick is the lowest
    set bit of the AND of the cell's masks.  Returns None when nothing within
    ``tol.relation_bits_cap`` total bits works.
    """
    cap, valid, support = tol.relation_bits_cap, relation.valid, relation.support
    pairs_in = tuple(valid)
    xs, ys, at, plan = _setup(tuple(map(id, pairs_in)), pairs_in, tol.relation_xy_cap, cap)
    outputs = sorted({z for pair in support for z in valid[pair]}, key=repr)
    bit = {z: 1 << k for k, z in enumerate(outputs)}
    pairs = []
    for pair in support:
        mask = 0
        for z in valid[pair]:
            mask |= bit[z]
        pairs.append((*at[pair], mask))

    for total, a_assign, b_assign in plan or _plan(len(xs), len(ys), cap):
        cells: dict[tuple[int, int], int] = {}
        for i, j, mask in pairs:
            cell = (a_assign[i], b_assign[j])
            mask &= cells.get(cell, mask)
            if not mask:
                break
            cells[cell] = mask
        else:
            return total, DeterministicSmpProtocol(
                alice_map=dict(zip(xs, a_assign)),
                bob_map=dict(zip(ys, b_assign)),
                referee_map={cell: outputs[(m & -m).bit_length() - 1] for cell, m in cells.items()},
            )
    return None


def exhaustive_function_search(
    f: FunctionTable, tol: Tolerances = DEFAULT
) -> int | None:
    """Zero-error deterministic cost of a function by exhaustive protocol search.

    Independent cross-check for :func:`det_complexity_function`: the function
    becomes a relation with singleton valid sets and uniform weight on its
    domain.  None when the cost exceeds ``tol.relation_bits_cap``.
    """
    relation = RelationTable(
        valid={pair: frozenset([f(*pair)]) for pair in f.domain},
        mu=dict.fromkeys(f.domain, 1),
    )
    found = search_relation_protocol(relation, tol)
    return None if found is None else found[0]


def extract_function(
    p: DeterministicSmpProtocol, relation: RelationTable
) -> tuple[FunctionTable, Fraction]:
    """The function a deterministic protocol computes, and its invalidity mass.

    A deterministic protocol computes some function with error zero by
    definition; the returned mass is the mu-probability, an exact ``Fraction``,
    that this function's value is not a valid relation output.  The function
    is partial where the referee leaves a message pair undefined, as the
    search does for cells holding only pairs of weight zero.
    """
    referee, valid = p.referee_map, relation.valid
    values = {
        (x, y): referee[(a, b)]
        for x, a in p.alice_map.items()
        for y, b in p.bob_map.items()
        if (a, b) in referee
    }
    f = FunctionTable(tuple(p.alice_map), tuple(p.bob_map), values)
    err = sum(w for pair, w in relation.mu.items() if w and values[pair] not in valid[pair])
    return f, Fraction(err, relation.total)


@dataclass(frozen=True)
class UnionBoundReport:
    """Exact distributional errors entering the union-bound inequality."""

    relation_error: Fraction
    disagreement_with_f: Fraction
    f_invalid_mass: Fraction

    @property
    def holds(self) -> bool:
        return self.relation_error <= self.disagreement_with_f + self.f_invalid_mass


def union_bound_check(
    p_a: DeterministicSmpProtocol,
    f: FunctionTable,
    relation: RelationTable,
) -> UnionBoundReport:
    """Verify err(p_a solves the relation) <= err(p_a != f) + err(f invalid).

    All three quantities are exact expectations under mu, summed as integer
    weights over ``relation.total``; the inequality is a pointwise union
    bound, so a False report indicates a broken input table.
    """
    alice, bob, referee, values = p_a.alice_map, p_a.bob_map, p_a.referee_map, f.values
    rel_err = dis_err = f_err = 0
    for (x, y), w in relation.mu.items():
        if not w:
            continue
        out = referee[(alice[x], bob[y])]
        # f(x, y) raises FunctionTable's error for a pair outside its domain
        f_xy = values[(x, y)] if (x, y) in values else f(x, y)
        ok = relation.valid[(x, y)]
        if out not in ok:
            rel_err += w
        if out != f_xy:
            dis_err += w
        if f_xy not in ok:
            f_err += w
    return UnionBoundReport(*(Fraction(w, relation.total) for w in (rel_err, dis_err, f_err)))


# the least relative distance booleanize accepts: a constant, so that the
# function survives nearest-codeword decoding of a constant fraction of
# corrupted Boolean tables
_MIN_RELATIVE_DISTANCE = 0.25


def booleanize(f: FunctionTable, g: LinearCode) -> list[FunctionTable]:
    """Boolean functions carrying the bits of g(f(x, y)).

    ``g`` must encode f's k-bit outputs and have brute-force-verified relative
    distance at least ``_MIN_RELATIVE_DISTANCE``, so that the original function
    survives nearest-codeword decoding even if a minority of the Boolean
    tables is corrupted.
    """
    k = g.n
    for v in set(f.values.values()):
        if not isinstance(v, (int, np.integer)) or not 0 <= v < 2**k:
            raise ValueError(f"output {v!r} does not fit in {k} bits")
    dist = min_distance_bruteforce(g)
    if dist / g.m < _MIN_RELATIVE_DISTANCE:
        raise ValueError(
            f"code distance {dist}/{g.m} below required {_MIN_RELATIVE_DISTANCE}"
        )
    tables = []
    for j in range(g.m):
        tables.append(
            FunctionTable(
                f.alice_inputs,
                f.bob_inputs,
                {pair: int(encode(g, f(*pair))[j]) for pair in f.domain},
            )
        )
    return tables


def decode_booleanized(
    tables: list[FunctionTable], g: LinearCode, x, y
) -> int:
    """Nearest-codeword decoding of the Boolean tables' bits at one input pair."""
    received = np.array([t(x, y) for t in tables], dtype=np.uint8)
    best, best_dist = 0, g.m + 1
    for msg in range(2**g.n):
        d = int((encode(g, msg) ^ received).sum())
        if d < best_dist:
            best, best_dist = msg, d
    return best
