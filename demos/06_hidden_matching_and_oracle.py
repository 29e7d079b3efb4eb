#!/usr/bin/env python3
"""A relational problem where one quantum message is exponentially cheaper,
and the brute-force chain showing relations behave differently from functions.

Hidden matching: Alice holds an n-bit string, Bob one of n-1 perfect
matchings; any edge of Bob's matching with the parity of Alice's bits on it
is a valid answer.  One sign superposition (log n qubits) plus Bob's matching
index solves it with success probability exactly 1.

The oracle side then runs the classical transfer argument on toy relations:
extract the function a cheap deterministic protocol computes, verify the
union-bound inequality exactly, and split multi-bit outputs into Boolean
functions through a code.
"""

import numpy as np

from smplab.codes import cyclic_mask_code
from smplab.oracle import (
    booleanize,
    decode_booleanized,
    det_complexity_function,
    extract_function,
    search_relation_protocol,
    union_bound_check,
)
from smplab.protocols import hidden_matching_relation
from smplab.rng import trial_rng
from smplab.smp import RelationTable, protocol_cost

n = 8
protocol, relation = hidden_matching_relation(n)
a, b, _ = protocol_cost(protocol)
print(f"hidden matching at n={n}: Alice {a} qubits, Bob {b} bits")

x, k = 0b10110100, 5
payload = protocol.alice_strategy(x, None)
(msg,) = protocol.bob_strategy(k, None)
dist = protocol.referee.output_distribution(payload, msg)
print(f"referee output distribution for x={x:08b}, matching {k}:")
for out, w in sorted(dist.items(), key=lambda kv: (kv[0].i, kv[0].j)):
    print(f"  edge ({out.i}, {out.j}) parity {out.parity}: probability {w:.4f}")
valid_mass = sum(w for out, w in dist.items() if out in relation.valid[(x, k)])
print(f"valid output mass: {valid_mass:.12f} (exactly 1)")

print()
print("=== relation -> function transfer on a toy relation ===")
g = trial_rng(99, 0)
xs, ys = (0, 1, 2), (0, 1)
pairs = [(xx, yy) for xx in xs for yy in ys]
valid = {
    p: frozenset(int(z) for z in np.flatnonzero(g.integers(0, 2, size=4)))
    or frozenset([0])
    for p in pairs
}
toy = RelationTable(valid, dict.fromkeys(pairs, 1))
cost, proto = search_relation_protocol(toy)
print(f"cheapest deterministic protocol solving the relation: {cost} bits")

f, invalid_mass = extract_function(proto, toy)
c_a, c_b = det_complexity_function(f)
print(f"extracted function: complexity {c_a}+{c_b} <= {cost}, "
      f"invalid mass {invalid_mass}")

report = union_bound_check(proto, f, toy)
print(f"union bound: {report.relation_error} <= "
      f"{report.disagreement_with_f} + {report.f_invalid_mass} "
      f"({'holds' if report.holds else 'VIOLATED'})")

code = cyclic_mask_code(2, 20)
tables = booleanize(f, code)
ok = all(decode_booleanized(tables, code, xx, yy) == f(xx, yy) for xx, yy in pairs)
print(f"Boolean decomposition into {len(tables)} tables decodes every cell: {ok}")
