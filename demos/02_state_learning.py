#!/usr/bin/env python3
"""Replacing a quantum state by a short deterministic record.

The sender knows a q-qubit state and the receiver holds 2^c measurement
operators.  Walking the operators in order against a maximally mixed
hypothesis on r copies, the sender records only the indices where the
hypothesis is off by more than delta, together with a truncated probability;
each correction projects the hypothesis onto the matching eigenvalue band of
the success-fraction observable.  The receiver replays the walk and gets
every acceptance probability within delta.
"""

import numpy as np

from smplab.qcore import (
    acceptance_probability,
    random_density,
    random_measurement_operator,
)
from smplab.rng import trial_rng
from smplab.smp import bitstring
from smplab.transforms import (
    bad_count_bound,
    default_copies,
    learn_state_message,
    reconstruct_estimates,
)

delta = 0.1
q, c = 2, 3
rng = trial_rng(33, 0)
rho = random_density(2**q, rng)
operators = [random_measurement_operator(2**q, rng) for _ in range(2**c)]
r = default_copies(q, delta)
print(f"q={q} qubits, 2^{c} operators, delta={delta}, r={r} copies "
      f"({r * q} total qubits, dimension {2 ** (r * q)})")

record, diag = learn_state_message(rho, operators, delta, r)
print(f"\ncorrections recorded: {diag.bad_count} "
      f"(bound for this size: {bad_count_bound(r * q, delta)})")
for (b, p_tilde), trace in zip(record.entries, diag.projection_traces):
    print(f"  index {b}: truncated estimate {p_tilde:.4f}, "
          f"projection trace {trace:.4f} (<= {1 - delta / 4})")
print(f"message length: {record.encoded_bit_length} bits")
print(f"message bits:   {bitstring(record.to_int(), record.encoded_bit_length)}")

estimates = reconstruct_estimates(record, operators)
true = np.array([acceptance_probability(e, rho) for e in operators])
print("\nindex  true      reconstructed  |gap|")
for b in range(2**c):
    print(f"{b:5d}  {true[b]:.6f}  {estimates[b]:.6f}      {abs(true[b] - estimates[b]):.6f}")
print(f"\nmax gap {np.max(np.abs(true - estimates)):.6f} <= delta = {delta}")
