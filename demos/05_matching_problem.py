#!/usr/bin/env python3
"""The matching promise problem at n=64: quantum vs classical messages.

Bob holds a perfect matching and a string w promised to be either close to or
far from the edge parities of Alice's string.  A shared coin picks a subset S
of about n^(2/3) indices; Alice sends a few copies of the sign superposition
of her bits on S (about n^(1/3) * log n qubits), Bob the matching edges that
fall inside S.  The referee recovers edge parities by projecting each copy
onto a still-unused edge and majority-votes the agreement bits.  The
classical baseline sends Alice's bits on a subset of about sqrt(n) indices
instead.
"""

from smplab.protocols import (
    matching_classical,
    matching_qc,
    matching_value,
    random_promise_instance,
)
from smplab.rng import trial_rng
from smplab.smp import empirical_success, protocol_cost

n = 64
seed = 2026
gen = trial_rng(seed, 0)
instances = [random_promise_instance(n, gen) for _ in range(20)]
pairs = [(inst.x, inst.bob_input) for inst in instances]
values = {(inst.x, inst.bob_input): matching_value(inst) for inst in instances}

for label, protocol in (
    ("quantum-classical", matching_qc(n)),
    ("classical       ", matching_classical(n, subset_size=16)),
):
    a, b, total = protocol_cost(protocol)
    report = empirical_success(
        protocol, lambda x, y: values[(x, y)], pairs, trials_per_pair=500, seed=seed
    )
    unit = "qubits" if protocol.quantum else "bits"
    print(
        f"{label}: Alice {a} {unit}, Bob {b} bits | "
        f"success {report.rate:.4f} (95% CI [{report.wilson_low:.4f}, "
        f"{report.wilson_high:.4f}]), {report.abstentions} abstentions "
        f"of {report.trials} trials"
    )

print()
print("per-instance success rates (quantum-classical):")
report = empirical_success(
    matching_qc(n), lambda x, y: values[(x, y)], pairs, trials_per_pair=500, seed=seed
)
for i, rate in enumerate(report.per_pair_rates):
    inst = instances[i]
    print(f"  instance {i:2d} (value {matching_value(inst)}): {rate:.3f}")
