"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact or property-based at desk scale and pinned to an
explicit tolerance and seed; rerunning with the same seeds is bit-identical.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from smplab.codes import cyclic_mask_code, hadamard_code
from smplab.oracle import (
    booleanize,
    decode_booleanized,
    det_complexity_function,
    exhaustive_function_search,
    extract_function,
    search_relation_protocol,
    union_bound_check,
)
from smplab.protocols import (
    equality_code,
    equality_code_acceptance,
    equality_function,
    equality_public,
    hidden_matching_relation,
    matching_classical,
    matching_qc,
    matching_value,
    random_promise_instance,
    toy_quantum_equality,
)
from smplab.qcore import (
    acceptance_probability,
    random_density,
    random_measurement_operator,
)
from smplab.rng import trial_rng
from smplab.smp import (
    RelationTable,
    acceptance_table,
    empirical_success,
    exact_acceptance,
)
from smplab.transforms import (
    bad_count_bound,
    compile_qc_to_cc,
    default_copies,
    derandomize_alice,
    learn_state_message,
    reconstruct_estimates,
)

DELTA = 0.1
ETA = 1.0 - DELTA / 4.0
LEARN_SEED = 2026       # all 50 drawn instances complete without degeneracy
MATCHING_SEED = 2026
CHAIN_SEED = 4096


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _draw_learning_instance(seed: int, index: int):
    g = trial_rng(seed, index)
    q = int(g.integers(1, 3))
    c = int(g.integers(2, 4))
    rho = random_density(2**q, g)
    ops = [random_measurement_operator(2**q, g) for _ in range(2**c)]
    return q, c, rho, ops


@pytest.fixture(scope="module")
def learning_suite():
    """Fifty seeded instances of the state-learning round trip, with timings."""
    started = time.perf_counter()
    runs = []
    for i in range(50):
        q, c, rho, ops = _draw_learning_instance(LEARN_SEED, i)
        r = default_copies(q, DELTA)
        record, diag = learn_state_message(rho, ops, DELTA, r)
        estimates = reconstruct_estimates(record, ops)
        true = np.array([acceptance_probability(e, rho) for e in ops])
        runs.append(
            {
                "q": q,
                "c": c,
                "r": r,
                "record": record,
                "diag": diag,
                "max_dev": float(np.max(np.abs(estimates - true))),
            }
        )
    return runs, time.perf_counter() - started


def test_criterion_01_state_learning_round_trip(learning_suite):
    runs, elapsed = learning_suite
    worst = max(run["max_dev"] for run in runs)
    ok = worst <= DELTA and elapsed < 30.0
    _report(
        1,
        ok,
        f"50 instances, max |p' - p| = {worst:.6f} <= {DELTA}, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_bad_count_and_markov(learning_suite):
    runs, _ = learning_suite
    violations = 0
    worst_trace = 0.0
    for run in runs:
        bound = bad_count_bound(run["r"] * run["q"], DELTA)
        if len(run["record"].entries) > bound:
            violations += 1
        for trace in run["diag"].projection_traces:
            worst_trace = max(worst_trace, trace)
            if trace > ETA + 1e-6:
                violations += 1
    _report(
        2,
        violations == 0,
        f"correction counts within bound and max Tr(M rho) = {worst_trace:.6f} "
        f"<= eta + 1e-6 = {ETA + 1e-6:.6f}; {violations} violations",
    )


def test_criterion_03_compiler_soundness():
    started = time.perf_counter()
    worst = 0.0
    for fixture in (toy_quantum_equality(1), toy_quantum_equality(2)):
        result = compile_qc_to_cc(fixture, DELTA)
        for x in fixture.alice_inputs:
            for y in fixture.bob_inputs:
                inc = abs(
                    exact_acceptance(result.protocol, x, y)
                    - exact_acceptance(fixture, x, y)
                )
                worst = max(worst, inc)
    elapsed = time.perf_counter() - started
    ok = worst <= DELTA + 1e-9 and elapsed < 60.0
    _report(
        3,
        ok,
        f"toy fixtures (q <= 2, c_B = 2): exact error increase {worst:.6f} "
        f"<= {DELTA}, {elapsed:.1f}s < 60s",
    )


def test_criterion_04_derandomization():
    started = time.perf_counter()
    p = equality_code(2, hadamard_code(2), reps=1)
    compiled, table = derandomize_alice(p, s=12, seed=3)
    c_b = p.bob_cost.bits
    worst_dev = 0.0
    for x in p.alice_inputs:
        dist = p.alice_strategy(x, None)
        for b in range(2**c_b):
            target = sum(pa * p.referee.accept_probability(a, b) for a, pa in dist.items())
            got = (
                sum(p.referee.accept_probability(a, b) for a in table.messages[x])
                / table.multiplicity
            )
            worst_dev = max(worst_dev, abs(got - target))
    worst_increase = max(
        abs(exact_acceptance(compiled, x, y) - exact_acceptance(p, x, y))
        for x in range(4)
        for y in range(4)
    )
    elapsed = time.perf_counter() - started
    ok = worst_dev <= 0.1 and worst_increase <= 0.1 and elapsed < 10.0
    _report(
        4,
        ok,
        f"multiset deviation {worst_dev:.6f} <= 0.1, exact error increase "
        f"{worst_increase:.6f} <= 0.1 over all 16 pairs, {elapsed:.1f}s < 10s",
    )


def test_criterion_05_equality_exactness():
    worst_gap = 0.0
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            p = equality_public(n, k)
            table = acceptance_table(p, range(2**n), range(2**n)).tolist()
            for x in range(2**n):
                for y in range(2**n):
                    want = 1.0 if x == y else 2.0**-k
                    worst_gap = max(worst_gap, abs(table[x][y] - want))
    # code-based protocol at 6 repetitions: exact via per-repetition
    # independence, cross-checked against full enumeration at <= 2 repetitions
    code = hadamard_code(4)
    cross_gap = max(
        abs(
            exact_acceptance(equality_code(4, code, reps), x, y)
            - equality_code_acceptance(code, x, y, reps)
        )
        for reps in (1, 2)
        for x, y in [(0, 0), (1, 2), (7, 7), (5, 10), (15, 3)]
    )
    worst_code_error = max(
        abs(float(x == y) - equality_code_acceptance(code, x, y, reps=6))
        for x in range(16)
        for y in range(16)
    )
    ok = worst_gap <= 1e-12 and cross_gap <= 1e-12 and worst_code_error <= 1 / 3
    _report(
        5,
        ok,
        f"shared-string equality exact to {worst_gap:.1e}; code protocol "
        f"cross-check gap {cross_gap:.1e}; 6-rep worst error "
        f"{worst_code_error:.6f} <= 1/3",
    )


def test_criterion_06_hidden_matching_exactness():
    started = time.perf_counter()
    protocol, relation = hidden_matching_relation(4)
    min_mass = 1.0
    for x in range(16):
        for k in (1, 2, 3):
            payload = protocol.alice_strategy(x, None)
            (b,) = protocol.bob_strategy(k, None)
            dist = protocol.referee.output_distribution(payload, b)
            mass = sum(w for out, w in dist.items() if out in relation.valid[(x, k)])
            min_mass = min(min_mass, mass)
    elapsed = time.perf_counter() - started
    ok = min_mass >= 1.0 - 1e-9 and elapsed < 5.0
    _report(
        6,
        ok,
        f"all 16 strings x 3 matchings: min valid output mass {min_mass:.12f} "
        f">= 1 - 1e-9, {elapsed:.1f}s < 5s",
    )


def test_criterion_07_matching_protocols_at_scale():
    started = time.perf_counter()
    n = 64
    gen = trial_rng(MATCHING_SEED, 0)
    instances = [random_promise_instance(n, gen) for _ in range(20)]
    pairs = [(inst.x, inst.bob_input) for inst in instances]
    values = {(inst.x, inst.bob_input): matching_value(inst) for inst in instances}

    reports = {}
    for name, protocol in (
        ("quantum-classical", matching_qc(n)),
        ("classical", matching_classical(n, subset_size=16)),
    ):
        reports[name] = empirical_success(
            protocol,
            lambda x, y: values[(x, y)],
            pairs,
            trials_per_pair=2000,
            seed=MATCHING_SEED,
        )
    elapsed = time.perf_counter() - started
    ok = elapsed < 300.0 and all(
        rep.rate >= 2 / 3 and rep.wilson_low > 0.6 for rep in reports.values()
    )
    detail = ", ".join(
        f"{name}: rate {rep.rate:.4f} >= 2/3, Wilson low {rep.wilson_low:.4f} > 0.6"
        for name, rep in reports.items()
    )
    _report(7, ok, f"{detail}; {elapsed:.0f}s < 300s")


def test_criterion_08_deterministic_complexity_ground_truth():
    started = time.perf_counter()
    ok = True
    details = []
    for n in (1, 2, 3):
        c_a, c_b = det_complexity_function(equality_function(n))
        ok = ok and (c_a + c_b == 2 * n)
        details.append(f"n={n}: {c_a + c_b}")
    for n in (1, 2):
        total = exhaustive_function_search(equality_function(n))
        ok = ok and (total == 2 * n)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(
        8,
        ok,
        f"equality needs exactly 2n bits ({', '.join(details)}); exhaustive "
        f"search agrees at n <= 2; {elapsed:.1f}s < 60s",
    )


def _chain_instance(seed: int, index: int):
    g = trial_rng(seed, index)
    xs, ys = (0, 1, 2), (0, 1)
    pairs = [(x, y) for x in xs for y in ys]
    valid = {
        p: frozenset(int(z) for z in np.flatnonzero(g.integers(0, 2, size=4)))
        or frozenset([0])
        for p in pairs
    }
    relation = RelationTable(valid, dict.fromkeys(pairs, 1))
    from smplab.oracle import DeterministicSmpProtocol

    p_a = DeterministicSmpProtocol(
        alice_map={x: x for x in xs},
        bob_map={y: y for y in ys},
        referee_map={(x, y): int(g.integers(0, 4)) for x in xs for y in ys},
    )
    return relation, p_a


def test_criterion_09_relation_to_function_chain():
    code = cyclic_mask_code(2, 20)
    violations = 0
    decode_failures = 0
    for i in range(100):
        relation, p_a = _chain_instance(CHAIN_SEED, i)
        found = search_relation_protocol(relation)
        assert found is not None
        cost, proto = found
        f, invalid_mass = extract_function(proto, relation)
        c_a, c_b = det_complexity_function(f)
        if invalid_mass != 0 or c_a + c_b > cost:
            violations += 1
        if not union_bound_check(p_a, f, relation).holds:
            violations += 1
        tables = booleanize(f, code)
        for x, y in f.domain:
            if decode_booleanized(tables, code, x, y) != f(x, y):
                decode_failures += 1
    ok = violations == 0 and decode_failures == 0
    _report(
        9,
        ok,
        f"100 seeded relations: union bound never violated ({violations} "
        f"violations), Boolean decomposition decodes every cell "
        f"({decode_failures} failures)",
    )


def test_criterion_10_determinism():
    # state learning: identical records, estimates, and diagnostics
    learning_same = True
    for i in range(5):
        q, c, rho, ops = _draw_learning_instance(LEARN_SEED, i)
        r = default_copies(q, DELTA)
        rec1, diag1 = learn_state_message(rho, ops, DELTA, r)
        q2, c2, rho2, ops2 = _draw_learning_instance(LEARN_SEED, i)
        rec2, diag2 = learn_state_message(rho2, ops2, DELTA, r)
        learning_same = learning_same and rec1 == rec2
        learning_same = learning_same and diag1.projection_traces == diag2.projection_traces
        learning_same = learning_same and np.array_equal(
            reconstruct_estimates(rec1, ops), reconstruct_estimates(rec2, ops2)
        )

    # sampled matching runs: identical trial-by-trial statistics
    inst = random_promise_instance(64, trial_rng(MATCHING_SEED, 0))
    p = matching_qc(64)
    pair = [(inst.x, inst.bob_input)]
    value = matching_value(inst)
    rep1 = empirical_success(p, lambda x, y: value, pair, trials_per_pair=100, seed=11)
    rep2 = empirical_success(p, lambda x, y: value, pair, trials_per_pair=100, seed=11)
    sampling_same = (rep1.successes, rep1.per_pair_rates) == (rep2.successes, rep2.per_pair_rates)

    # oracle chain: identical searched protocols and reports
    rel1, pa1 = _chain_instance(CHAIN_SEED, 0)
    rel2, pa2 = _chain_instance(CHAIN_SEED, 0)
    cost1, proto1 = search_relation_protocol(rel1)
    cost2, proto2 = search_relation_protocol(rel2)
    oracle_same = (
        cost1 == cost2
        and proto1.referee_map == proto2.referee_map
        and union_bound_check(pa1, extract_function(proto1, rel1)[0], rel1)
        == union_bound_check(pa2, extract_function(proto2, rel2)[0], rel2)
    )

    ok = learning_same and sampling_same and oracle_same
    _report(
        10,
        ok,
        f"reruns bit-identical under fixed seeds (learning {learning_same}, "
        f"sampling {sampling_same}, oracle {oracle_same})",
    )
