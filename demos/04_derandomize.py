#!/usr/bin/env python3
"""Trading Alice's private randomness for a verified deterministic message.

Alice's randomized message is replayed s * c_B times and the whole multiset
is sent at once.  For every possible Bob message the referee's average
response over the multiset must land within 1/10 of the true expectation;
candidates are redrawn until the check passes, so the output is correct
unconditionally, not just with high probability.
"""

from smplab.protocols import equality_code
from smplab.smp import bitstring, exact_acceptance, protocol_cost
from smplab.transforms import derandomize_alice

p = equality_code(2, reps=1)
compiled, table = derandomize_alice(p, s=12, seed=3)

c_a, c_b = p.alice_cost.bits, p.bob_cost.bits
print(f"original Alice: {c_a} random bits; Bob: {c_b} bits")
print(f"multiset size s*c_B = {table.multiplicity}, "
      f"deterministic Alice cost {compiled.alice_cost.bits} bits")
print(f"verified deviation over all Bob messages: {table.max_deviation:.6f} <= 0.1")

print("\nmultiset for x=1 (column index + column bits per entry):")
print(" ", " ".join(bitstring(m, c_a) for m in table.messages[1][:12]), "...")

print("\nacceptance before -> after:")
worst = 0.0
for x in range(4):
    cells = []
    for y in range(4):
        before = exact_acceptance(p, x, y)
        after = exact_acceptance(compiled, x, y)
        worst = max(worst, abs(after - before))
        cells.append(f"{before:.3f}->{after:.3f}")
    print(f"  x={x}: " + "  ".join(cells))
print(f"\nworst acceptance change {worst:.6f} <= 1/10")
