"""Config-driven experiment runner.

Builds protocol fixtures, runs exact or sampled evaluations and the message
replacement transforms, sweeps parameters, and writes machine-readable
reports: a CSV of per-input or per-trial rows, a flat key=value summary
restating every hard assertion it verified with its margin, and an echo of
the fully resolved configuration.  Identical configuration and seed produce
bit-identical output files; wall time goes to stdout only.

Exit codes: 0 success, 2 configuration error (including an undeclared
--param key, a --seed or --trials the experiment does not read, a
learn-state param its mode does not read, and a non-positive count), 3
assertion failure or a typed error raised by a broken claim, 4 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import DEFAULT, Tolerances, with_overrides
from .errors import (
    CapExceededError,
    PromiseViolationError,
    ReplayMismatchError,
    VanishingProjectionError,
)
from .oracle import (
    det_complexity_function,
    exhaustive_function_search,
    extract_function,
    search_relation_protocol,
    union_bound_check,
)
from .protocols import (
    MAX_INPUT_BITS,
    equality_code,
    equality_code_acceptance,
    equality_function,
    equality_public,
    hidden_matching_relation,
    hidden_matching_verification,
    matching_classical,
    matching_qc,
    matching_value,
    random_promise_instance,
    toy_quantum_equality,
)
from .codes import hadamard_code
from .qcore import (
    DensityMatrix,
    MeasurementOperator,
    PureState,
    random_density,
    random_measurement_operator,
)
from .rng import TrialDraws, derive_seed, trial_rng
from .smp import (
    RelationTable,
    acceptance_table,
    bitstring,
    empirical_success,
    protocol_cost,
    validate_distribution,
)
from .transforms import (
    bad_count_bound,
    compile_qc_to_cc,
    default_copies,
    derandomize_alice,
    learn_round_trip,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3
EXIT_CAP = 4

# round-off each bound check of a report absorbs; changing one changes the
# report's margin bytes
_CROSS_CHECK_SLACK = 1e-12  # closed form against enumeration
_MASS_SLACK = 1e-9  # valid output mass against 1
_MARKOV_SLACK = 1e-6  # projection trace against eta
_COMPILE_SLACK = 1e-9  # compiled error increase against delta
_DERANDOMIZE_SLACK = 1e-12  # derandomized error increase against 1/10


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    trials: int | None = None
    out: Path = Path("out")
    tolerance: dict = field(default_factory=dict)

    def resolved_tolerances(self) -> Tolerances:
        try:
            return with_overrides(DEFAULT, **self.tolerance)
        except TypeError as ex:
            raise ConfigError(f"unknown tolerance override: {ex}") from None
        except ValueError as ex:
            raise ConfigError(str(ex)) from None


@dataclass
class ExperimentResult:
    columns: list[str]
    rows: list[list]
    summary: dict
    assertions: list[tuple[str, bool, float]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)


def _at_most(name: str, value, bound) -> tuple[str, bool, float]:
    """The claim ``value <= bound``, with its margin ``bound - value``."""
    return name, value <= bound, bound - value


def _run_eq_public(prm: dict, tol: Tolerances) -> ExperimentResult:
    n = prm["n"]
    if n > 5:
        raise CapExceededError("eq-public exhaustive report capped at n <= 5")
    p = equality_public(n, prm["k"])
    f = equality_function(n)
    # equality's inputs are their own positions in the table
    table = acceptance_table(p, f.alice_inputs, f.bob_inputs, tol).tolist()
    rows = []
    worst = 0.0
    for x, y in f.domain:
        acc = table[x][y]
        err = abs(f(x, y) - acc)
        worst = max(worst, err)
        rows.append([x, y, f(x, y), repr(acc), repr(err)])
    a, b, total = protocol_cost(p)
    summary = {
        "worst_case_error": repr(worst),
        "alice_bits": a,
        "bob_bits": b,
        "total_cost": total,
    }
    return ExperimentResult(["x", "y", "f", "acceptance", "error"], rows, summary, [])


def _run_eq_code(prm: dict, tol: Tolerances) -> ExperimentResult:
    n, reps = prm["n"], prm["reps"]
    if n > 5:
        raise CapExceededError("eq-code exhaustive report capped at n <= 5")
    code = hadamard_code(n)
    p = equality_code(n, code, reps)
    f = equality_function(n)
    enumerable = (code.grid_cols**reps) * (code.grid_rows**reps) <= tol.enum_cap
    if enumerable:
        table = acceptance_table(p, f.alice_inputs, f.bob_inputs, tol).tolist()
    rows = []
    worst = 0.0
    cross_gap = 0.0
    for x, y in f.domain:
        closed = equality_code_acceptance(code, x, y, reps)
        worst = max(worst, abs(f(x, y) - closed))
        enum_cell = ""
        if enumerable:
            enum_acc = table[x][y]
            cross_gap = max(cross_gap, abs(enum_acc - closed))
            enum_cell = repr(enum_acc)
        rows.append([x, y, f(x, y), repr(closed), enum_cell])
    a, b, total = protocol_cost(p)
    summary = {
        "worst_case_error": repr(worst),
        "enumerable": enumerable,
        "cross_check_max_gap": repr(cross_gap) if enumerable else "",
        "alice_bits": a,
        "bob_bits": b,
        "total_cost": total,
    }
    assertions = []
    if enumerable:
        assertions.append(
            _at_most("closed_form_matches_enumeration", cross_gap, _CROSS_CHECK_SLACK)
        )
    return ExperimentResult(
        ["x", "y", "f", "acceptance_closed_form", "acceptance_enumerated"],
        rows, summary, assertions,
    )


def _run_matching(prm: dict, tol: Tolerances, quantum: bool) -> ExperimentResult:
    n, trials, seed = prm["n"], prm["trials"], prm["seed"]
    if quantum:
        p = matching_qc(n, prm["subset_size"], prm["copies"], prm["edges_sent"])
    else:
        p = matching_classical(n, prm["subset_size"])
    gen = trial_rng(seed, 0)
    fixture = [random_promise_instance(n, gen) for _ in range(prm["instances"])]
    pairs = [(inst.x, inst.bob_input) for inst in fixture]
    values = {(inst.x, inst.bob_input): matching_value(inst) for inst in fixture}
    report = empirical_success(
        p, lambda x, y: values[(x, y)], pairs, trials_per_pair=trials, seed=seed, tol=tol
    )
    rows = [
        [i, matching_value(inst), trials, repr(rate)]
        for i, (inst, rate) in enumerate(zip(fixture, report.per_pair_rates))
    ]
    a, b, total = protocol_cost(p)
    summary = {
        "successes": report.successes,
        "trials_total": report.trials,
        "success_rate": repr(report.rate),
        "wilson_low": repr(report.wilson_low),
        "wilson_high": repr(report.wilson_high),
        "abstentions": report.abstentions,
        "alice_cost": a,
        "bob_cost": b,
        "total_cost": total,
    }
    return ExperimentResult(
        ["instance", "value", "trials", "success_rate"], rows, summary, []
    )


def _run_hidden_matching(prm: dict, tol: Tolerances) -> ExperimentResult:
    protocol, relation = hidden_matching_relation(prm["n"])
    if relation is None:
        raise CapExceededError("hidden-matching exhaustive report capped at n <= 8")
    laws = {}
    for k in protocol.bob_inputs:
        laws[k] = protocol.bob_strategy(k, None)
        validate_distribution(laws[k], protocol.bob_cost.bits, tol)
    rows = []
    min_mass = 1.0
    for x in protocol.alice_inputs:
        payload = protocol.alice_strategy(x, None)
        for k, law in laws.items():
            mass = 0.0
            for b, pb in law.items():
                dist = protocol.referee.output_distribution(payload, b)
                mass += pb * sum(w for out, w in dist.items() if out in relation.valid[(x, k)])
            min_mass = min(min_mass, mass)
            rows.append([x, k, repr(mass)])
    a, b, total = protocol_cost(protocol)
    summary = {
        "min_valid_mass": repr(min_mass),
        "alice_cost": a,
        "bob_cost": b,
        "total_cost": total,
    }
    assertions = [_at_most("success_probability_one", 1.0 - _MASS_SLACK, min_mass)]
    return ExperimentResult(["x", "k", "valid_mass"], rows, summary, assertions)


def _load_matrix_file(path: str) -> np.ndarray:
    from .serialize import load_matrix, matrix_from_text

    if not path:
        raise ConfigError("empty matrix file path")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"matrix file not found: {path}")
    try:
        return load_matrix(p) if p.suffix == ".qmat" else matrix_from_text(p.read_text())
    except OSError as ex:
        raise ConfigError(f"cannot read matrix file: {ex}") from None


def _learn_round_trip(rho, ops, delta: float, r: int | None, tol: Tolerances):
    """Learn ``rho`` against ``ops``, replay the record and measure the claims.

    Returns the record, its diagnostics, the replayed acceptance per
    operator, its largest deviation from the true one, the correction-count
    bound and the largest projection trace (the Markov step).
    """
    record, diag, estimates = learn_round_trip(rho, ops, delta, r, tol)
    dev = float(np.max(np.abs(estimates - np.array(diag.true_probabilities))))
    bound = bad_count_bound(record.r * record.q, delta)
    markov = max(diag.projection_traces, default=0.0)
    return record, diag, estimates, dev, bound, markov


def _run_learn_state(prm: dict, tol: Tolerances) -> ExperimentResult:
    mode, delta = prm["mode"], prm["delta"]
    reads = {"file": ("rho", "operators"), "random": ("instances",)}.get(mode, ())
    for key in ("rho", "operators", "instances"):
        if prm[key] is not None and key not in reads:
            raise ConfigError(f"learn-state mode={mode} does not read --param {key}")
    eta = 1.0 - delta / 4.0
    if mode in ("fixture", "file"):
        if mode == "fixture":
            rho = PureState([1, 0]).density()
            ops = [MeasurementOperator(np.diag(d).astype(complex)) for d in np.eye(2)]
            r = 2 if prm["r"] is None else prm["r"]
        else:
            for key in ("rho", "operators"):
                if prm[key] is None:
                    raise ConfigError(f"learn-state mode=file requires --param {key}=...")
            rho = DensityMatrix(_load_matrix_file(prm["rho"]), tol=tol)
            ops = [
                MeasurementOperator(_load_matrix_file(p), tol=tol)
                for p in prm["operators"].split(",")
            ]
            r = prm["r"]
        record, diag, estimates, max_dev, bound, markov_max = _learn_round_trip(
            rho, ops, delta, r, tol
        )
        corrected = dict(record.entries)
        rows = [
            [b, repr(diag.true_probabilities[b]), repr(float(estimates[b])),
             "bad" if b in corrected else "good"]
            for b in range(len(ops))
        ]
        summary = {
            "T": diag.bad_count,
            "bound": bound,
            "max_deviation": repr(max_dev),
            "markov_max_trace": repr(markov_max),
            "encoded_bits": record.encoded_bit_length,
            "flagged_band_edges": len(diag.flagged_steps),
        }
        assertions = [
            _at_most("roundtrip_within_delta", max_dev, delta),
            _at_most("corrections_within_bound", diag.bad_count, bound),
            _at_most("markov_direction", markov_max, eta + _MARKOV_SLACK),
        ]
        return ExperimentResult(
            ["b", "p_true", "p_reconstructed", "status"], rows, summary, assertions
        )

    seed, instances = prm["seed"], 50 if prm["instances"] is None else prm["instances"]
    rows = []
    assertions = []
    worst_dev = 0.0
    worst_markov = 0.0
    degenerate = 0
    for i in range(instances):
        g = trial_rng(seed, i)
        q = int(g.integers(1, 3))
        c = int(g.integers(2, 4))
        rho = random_density(2**q, g)
        ops = [random_measurement_operator(2**q, g) for _ in range(2**c)]
        r = default_copies(q, delta, tol) if prm["r"] is None else prm["r"]
        try:
            _, diag, _, dev, bound, markov = _learn_round_trip(rho, ops, delta, r, tol)
        except VanishingProjectionError:
            degenerate += 1
            rows.append([i, q, c, r, "", "", "", "degenerate"])
            continue
        worst_dev = max(worst_dev, dev)
        worst_markov = max(worst_markov, markov)
        claim = _at_most(f"instance_{i}_corrections_within_bound", diag.bad_count, bound)
        rows.append([i, q, c, r, diag.bad_count, bound, repr(dev),
                     "ok" if claim[1] else "over-bound"])
        assertions.append(claim)
    summary = {
        "instances": instances,
        "degenerate_instances": degenerate,
        "max_deviation": repr(worst_dev),
        "markov_max_trace": repr(worst_markov),
    }
    assertions.insert(0, _at_most("roundtrip_within_delta", worst_dev, delta))
    assertions.insert(1, _at_most("markov_direction", worst_markov, eta + _MARKOV_SLACK))
    return ExperimentResult(
        ["instance", "q", "c", "r", "T", "bound", "max_deviation", "status"],
        rows, summary, assertions,
    )


_COMPILE_FIXTURES = {
    "toy-q1": lambda: toy_quantum_equality(1),
    "toy-q2": lambda: toy_quantum_equality(2),
    "hm-verify": lambda: hidden_matching_verification(4),
}


def _before_after(p, compiled, tol: Tolerances) -> Iterator[tuple]:
    """(x, y, before, after, |after - before|) for every input pair of ``p``,
    with the exact acceptance of ``p`` and of ``compiled``."""
    xs, ys = p.alice_inputs, p.bob_inputs
    before = acceptance_table(p, xs, ys, tol).tolist()
    after = acceptance_table(compiled, xs, ys, tol).tolist()
    for x, row_before, row_after in zip(xs, before, after):
        for y, b, a in zip(ys, row_before, row_after):
            yield x, y, b, a, abs(a - b)


def _run_compile(prm: dict, tol: Tolerances) -> ExperimentResult:
    name, delta = prm["fixture"], prm["delta"]
    p = _COMPILE_FIXTURES[name]()
    result = compile_qc_to_cc(p, delta, prm["r"], tol)
    pairs = list(_before_after(p, result.protocol, tol))
    rows = [list(map(repr, pair)) for pair in pairs]
    worst = max((inc for *_, inc in pairs), default=0.0)
    record_bits = {k: rec.encoded_bit_length for k, rec in result.records.items()}
    summary = {
        "fixture": name,
        "delta": delta,
        "error_increase": repr(worst),
        "alice_qubits_before": p.alice_cost.qubits,
        "alice_bits_after": result.protocol.alice_cost.bits,
        "max_record_bits": max(record_bits.values(), default=0),
        "total_corrections": sum(len(rec.entries) for rec in result.records.values()),
    }
    assertions = [_at_most("error_increase_within_delta", worst, delta + _COMPILE_SLACK)]
    return ExperimentResult(
        ["x", "y", "acceptance_before", "acceptance_after", "increase"],
        rows, summary, assertions,
    )


def _run_derandomize(prm: dict, tol: Tolerances) -> ExperimentResult:
    s = prm["s"]
    if prm["n"] > MAX_INPUT_BITS:  # eq-code lists no inputs; refused before its 2^n-row code
        raise CapExceededError(f"derandomize report capped at n <= {MAX_INPUT_BITS}")
    p = equality_code(prm["n"], reps=prm["reps"])
    compiled, table = derandomize_alice(p, s=s, seed=prm["seed"], tol=tol)
    rows = []
    for x in p.alice_inputs:
        for b, target in table.targets[x].items():
            got = table.empirical[x][b]
            rows.append([x, bitstring(b, p.bob_cost.bits), repr(target), repr(got),
                         repr(abs(got - target))])
    max_dev = table.max_deviation
    worst_increase = max(inc for *_, inc in _before_after(p, compiled, tol))
    summary = {
        "s": s,
        "multiset_size": table.multiplicity,
        "max_deviation": repr(max_dev),
        "error_increase": repr(worst_increase),
        "alice_bits_before": p.alice_cost.bits,
        "alice_bits_after": compiled.alice_cost.bits,
    }
    assertions = [
        _at_most("deviation_within_tenth", max_dev, 0.1),
        _at_most("error_increase_within_tenth", worst_increase, 0.1 + _DERANDOMIZE_SLACK),
    ]
    return ExperimentResult(
        ["x", "b", "target", "empirical", "deviation"], rows, summary, assertions
    )


_CHAIN_PAIRS = [(x, y) for x in (0, 1, 2) for y in (0, 1)]


def _chain_valid_sets(seed: int, count: int) -> Iterator[dict[tuple, frozenset]]:
    """Valid-output sets of the oracle suite's random 3 x 2 relations.

    Relation i is keyed ``(seed, i)``.  Pair p gets the outputs z < 4 whose
    bit is set in row p of one 6 x 4 draw of bits ({0} for an all-zero row),
    the bits that ``trial_rng(seed, i).integers(0, 2, size=(6, 4))`` draws.
    The relations are drawn in :meth:`~smplab.rng.TrialDraws.blocks`, each
    block's bits in one :meth:`~smplab.rng.TrialDraws.bits` read.
    """
    # the valid set of a pair whose 4 bits, bit z for output z, read v
    sets = [frozenset(z for z in range(4) if v >> z & 1) or frozenset([0]) for v in range(16)]
    weights = 1 << np.arange(4)
    width = len(_CHAIN_PAIRS) * 4
    for draws in TrialDraws.blocks(seed, count, width):
        for row in (draws.bits(width).reshape(-1, len(_CHAIN_PAIRS), 4) @ weights).tolist():
            yield dict(zip(_CHAIN_PAIRS, map(sets.__getitem__, row)))


def _run_oracle_suite(prm: dict, tol: Tolerances) -> ExperimentResult:
    seed, chain_instances = prm["seed"], prm["instances"]
    if tol.relation_bits_cap < 4:  # below it, a search here comes back empty
        raise CapExceededError(f"oracle-suite needs relation_bits_cap >= 4 (the n = 2 "
                               f"Equality search), got {tol.relation_bits_cap}")
    rows = []
    assertions = []

    for n in (1, 2, 3):
        c_a, c_b = det_complexity_function(equality_function(n), tol)
        ok = c_a + c_b == 2 * n
        rows.append(["equality_det_complexity", n, c_a + c_b, 2 * n, "ok" if ok else "FAIL"])
        assertions.append((f"equality_n{n}_total_2n", ok, 0.0))
    for n in (1, 2):
        total = exhaustive_function_search(equality_function(n), tol=tol)
        ok = total == 2 * n
        rows.append(["equality_search_cross_check", n, total, 2 * n, "ok" if ok else "FAIL"])
        assertions.append((f"equality_n{n}_search_agrees", ok, 0.0))

    violations = 0
    mu = dict.fromkeys(_CHAIN_PAIRS, 1)
    for valid in _chain_valid_sets(seed, chain_instances):
        relation = RelationTable(valid, mu)
        _, proto = search_relation_protocol(relation, tol=tol)
        f, err = extract_function(proto, relation)
        report = union_bound_check(proto, f, relation)
        if not report.holds or err != report.f_invalid_mass:
            violations += 1
    rows.append(["union_bound_chain", chain_instances, violations, 0,
                 "ok" if violations == 0 else "FAIL"])
    assertions.append(("union_bound_never_violated", violations == 0, float(-violations)))

    summary = {
        "checks": len(rows),
        "chain_instances": chain_instances,
        "chain_violations": violations,
    }
    return ExperimentResult(
        ["check", "parameter", "value", "expected", "status"], rows, summary, assertions
    )


def _int(v) -> int:
    """``v`` as an int; a float must be integral (2.0 is 2, 2.7 is an error),
    and a bool is an error."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _opt_int(v) -> int | None:
    return None if v in (None, "") else _int(v)


def _pos_int(v) -> int:
    """``v`` as an int of at least 1."""
    n = _int(v)
    if n < 1:
        raise ValueError(f"{v!r} is not a positive integer")
    return n


def _choice(*options: str):
    """A cast that accepts only one of ``options``."""

    def cast(v) -> str:
        if v not in options:
            raise ValueError(f"{v!r} is not one of {', '.join(options)}")
        return v

    return cast


_REQUIRED = object()
_SEED = {"seed": _REQUIRED}
_SEED_TRIALS = {"seed": _REQUIRED, "trials": 2000}

# experiment -> (runner, {param: (cast, default)}, {flag: default}), where the
# flags are the --seed/--trials the runner reads (or a map from the resolved
# params to them); the runner finds them among its params
_TABLE = {
    "eq-public": (_run_eq_public, {"n": (_int, _REQUIRED), "k": (_int, 1)}, {}),
    "eq-code": (_run_eq_code, {"n": (_int, _REQUIRED), "reps": (_int, 1)}, {}),
    "matching-qc": (partial(_run_matching, quantum=True), {
        "n": (_int, 64), "instances": (_pos_int, 20), "subset_size": (_opt_int, None),
        "copies": (_opt_int, None), "edges_sent": (_opt_int, None),
    }, _SEED_TRIALS),
    "matching-classical": (partial(_run_matching, quantum=False), {
        "n": (_int, 64), "instances": (_pos_int, 20), "subset_size": (_opt_int, None),
    }, _SEED_TRIALS),
    "hidden-matching": (_run_hidden_matching, {"n": (_int, 4)}, {}),
    "compile": (_run_compile, {
        "fixture": (_choice(*_COMPILE_FIXTURES), "toy-q1"), "delta": (float, 0.1),
        "r": (_opt_int, None),
    }, {}),
    "learn-state": (_run_learn_state, {
        "mode": (_choice("fixture", "file", "random"), "fixture"), "delta": (float, 0.1),
        "r": (_opt_int, None), "rho": (str, None), "operators": (str, None),
        "instances": (_pos_int, None),  # mode=random runs 50 when it is unset
    }, lambda prm: _SEED if prm["mode"] == "random" else {}),
    "derandomize": (_run_derandomize, {
        "n": (_int, 2), "reps": (_int, 1), "s": (_int, 12),
    }, _SEED),
    "oracle-suite": (_run_oracle_suite, {"instances": (_pos_int, 100)}, _SEED),
}
EXPERIMENTS = tuple(_TABLE)


def _resolve(cfg: ExperimentConfig):
    """The experiment's runner and its params, with the flags it reads filled in.

    Params are cast and defaulted.  An unknown or missing param, a missing
    ``--seed`` and a ``--seed`` or ``--trials`` the runner does not read are
    configuration errors, so that ``_config.json`` never echoes a setting
    that had no effect.
    """
    if cfg.experiment not in _TABLE:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}")
    run, schema, flags = _TABLE[cfg.experiment]
    unknown = sorted(set(cfg.params) - set(schema))
    if unknown:
        raise ConfigError(
            f"experiment {cfg.experiment!r} has no param {', '.join(unknown)}; "
            f"it accepts {', '.join(schema)}"
        )
    prm = {}
    for key, (cast, default) in schema.items():
        if key not in cfg.params:
            if default is _REQUIRED:
                raise ConfigError(f"experiment {cfg.experiment!r} requires --param {key}=...")
            prm[key] = default
            continue
        try:
            prm[key] = cast(cfg.params[key])
        except (TypeError, ValueError) as ex:
            raise ConfigError(f"--param {key}: {ex}") from None
    if callable(flags):
        flags = flags(prm)
    for name in ("seed", "trials"):
        if getattr(cfg, name) is not None and name not in flags:
            raise ConfigError(f"experiment {cfg.experiment!r} does not read --{name}")
    for name, default in flags.items():
        prm[name] = default if getattr(cfg, name) is None else getattr(cfg, name)
        if prm[name] is _REQUIRED:
            raise ConfigError(f"experiment {cfg.experiment!r} samples and needs --{name}")
    return run, prm


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment and write its report files under ``cfg.out``."""
    run, prm = _resolve(cfg)
    result = run(prm, cfg.resolved_tolerances())
    _write_reports(cfg, result)
    return result


def _write_reports(cfg: ExperimentConfig, result: ExperimentResult) -> None:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = cfg.experiment

    with open(out / f"{stem}_rows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        writer.writerows(result.rows)

    lines = [f"experiment={cfg.experiment}"]
    for key, value in result.summary.items():
        lines.append(f"{key}={value}")
    for name, ok, margin in result.assertions:
        lines.append(f"assert_{name}={'pass' if ok else 'FAIL'}")
        lines.append(f"margin_{name}={margin!r}")
    (out / f"{stem}_summary.txt").write_text("\n".join(lines) + "\n")

    resolved = {**asdict(cfg), "out": str(cfg.out)}
    (out / f"{stem}_config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def sweep(cfg: ExperimentConfig, parameter: str, values: list) -> Path:
    """Run the experiment once per value; one CSV row per run.

    Run ``i`` gets the seed derived from ``cfg.seed`` and ``i``, and
    ``cfg.trials``; like a single run, it refuses a flag it does not read.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    columns = ["run_index", parameter, "seed", "ok"]
    seen_summary_keys: list[str] = []
    for i, value in enumerate(values):
        sub = ExperimentConfig(
            experiment=cfg.experiment,
            params={**cfg.params, parameter: value},
            seed=None if cfg.seed is None else derive_seed(cfg.seed, i),
            trials=cfg.trials,
            out=out / f"run{i:03d}",
            tolerance=dict(cfg.tolerance),
        )
        result = run_experiment(sub)
        for key in result.summary:
            if key not in seen_summary_keys:
                seen_summary_keys.append(key)
        rows.append((i, value, sub.seed, result))
    path = out / f"{cfg.experiment}_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns + seen_summary_keys)
        for i, value, seed, result in rows:
            writer.writerow(
                [i, value, seed, result.ok]
                + [result.summary.get(k, "") for k in seen_summary_keys]
            )
    return path


def _parse_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_kv(pairs: list[str], flag: str) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"{flag} expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        out[key.strip()] = _parse_value(raw.strip())
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smplab",
        description="Exact and Monte-Carlo experiments on simultaneous message passing protocols.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, help="JSON file mirroring the flags")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tolerance", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--sweep-param", metavar="KEY")
    parser.add_argument("--sweep-values", metavar="V1,V2,...")
    return parser


# what each config-file key must be, and the JSON types that are; a null
# seed or trials is unset, as the report's _config.json writes it
_CONFIG_TYPES = {
    "experiment": ("a string", str, type(None)),
    "params": ("a JSON object", dict),
    "tolerance": ("a JSON object", dict),
    "seed": ("an integer", int, type(None)),
    "trials": ("an integer", int, type(None)),
    "out": ("a string", str),
}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config is not None:
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as ex:
            raise ConfigError(f"cannot read config file: {ex}") from None
        if not isinstance(base, dict):
            raise ConfigError(f"config file must hold a JSON object, not {type(base).__name__}")
    for key, (what, *types) in _CONFIG_TYPES.items():
        value = base.get(key)
        if key in base and (isinstance(value, bool) or not isinstance(value, tuple(types))):
            raise ConfigError(f"config file key {key!r} must be {what}, got {value!r}")
    experiment = args.experiment or base.get("experiment")
    if not experiment:
        raise ConfigError("an experiment is required (flag --experiment or config file)")
    params = dict(base.get("params", {}))
    params.update(_parse_kv(args.param, "--param"))
    tolerance = dict(base.get("tolerance", {}))
    tolerance.update(_parse_kv(args.tolerance, "--tolerance"))
    seed = args.seed if args.seed is not None else base.get("seed")
    trials = args.trials if args.trials is not None else base.get("trials")
    out = args.out if args.out is not None else Path(base.get("out", "out"))
    return ExperimentConfig(
        experiment=experiment,
        params=params,
        seed=seed,
        trials=trials,
        out=Path(out),
        tolerance=tolerance,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _config_from_args(args)
        if args.sweep_param:
            if not args.sweep_values:
                raise ConfigError("--sweep-param needs --sweep-values")
            values = [_parse_value(v) for v in args.sweep_values.split(",")]
            path = sweep(cfg, args.sweep_param, values)
            print(f"sweep written to {path}")
            print(f"wall_time_s={time.perf_counter() - started:.3f}")
            return EXIT_OK
        result = run_experiment(cfg)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as ex:
        print(f"cap exceeded: {ex}", file=sys.stderr)
        return EXIT_CAP
    except (VanishingProjectionError, ReplayMismatchError, PromiseViolationError) as ex:
        # the run's own data broke a checked claim
        notes = getattr(ex, "__notes__", ())
        print(f"check failed: {type(ex).__name__}: {ex}", *notes, sep="; ", file=sys.stderr)
        return EXIT_ASSERTION
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CONFIG

    for key, value in result.summary.items():
        print(f"{key}={value}")
    for name, ok, margin in result.assertions:
        print(f"assert_{name}={'pass' if ok else 'FAIL'} (margin {margin!r})")
    print(f"wall_time_s={time.perf_counter() - started:.3f}")
    return EXIT_OK if result.ok else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
