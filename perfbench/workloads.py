"""The benchmark's workloads: which CLI experiments each one runs, and its inputs.

Each workload is a list of experiment invocations.  An invocation is a label
(unique within the workload) and the argv that ``smplab.cli.main`` receives,
exactly as a CLI user would type it.  Every experiment writes its reports to
a fixed relative directory, so the ``_config.json`` echo (which records the
output path) hashes the same in every checkout and in traced and untraced
runs.

Why these three workloads: each open ROADMAP optimisation has one workload
that exercises its mechanism and one that bypasses it.

* ``exact-enum``: exhaustive enumeration.  ``smp.exact_acceptance``, the
  ``protocols`` strategy closures and the referees do most of the work;
  ``codes`` and ``oracle`` each get a measurable slice; ``qcore`` is idle.
  Exercises the tabulated protocol core.
* ``learn-compile``: the state-learning walk and the compiler.  The dense
  ``qcore`` kernels dominate; skip and correction steps both occur, and
  record building sits beside replay.  Exercises the factored learning walk.
* ``sampled-mc``: seeded Monte Carlo on the matching problem.  Per-trial
  Python overhead spread over ``smp``, ``rng``, ``protocols`` and a small
  ``qcore.PureState``; nothing is enumerated and nothing is a dense kernel.
  Exercises per-trial vectorisation.
"""

from __future__ import annotations

from pathlib import Path

OUT = Path("perfbench") / "out"
REPORTS = OUT / "reports"
INPUTS = OUT / "inputs"

DELTA = 0.1
FILE_R = 10
FILE_OPERATORS = 8


def _argv(experiment: str, *params: str, seed: int | None = None,
          trials: int | None = None) -> list[str]:
    argv = ["--experiment", experiment]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    for p in params:
        argv += ["--param", p]
    return argv


def _file_inputs() -> tuple[Path, list[Path]]:
    return INPUTS / "rho.qmat", [INPUTS / f"e{b}.qmat" for b in range(FILE_OPERATORS)]


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv without --out) for each experiment of ``workload``, in run order.

    Every seeded experiment receives the benchmark seed itself, so the pinned
    seed reproduces the figures quoted in the README and ROADMAP.
    """
    if workload == "exact-enum":
        runs = [
            ("eq-public", _argv("eq-public", "n=4", "k=3")),
            ("eq-code", _argv("eq-code", "n=4", "reps=2")),
            ("derandomize", _argv("derandomize", "n=3", "s=24", seed=seed)),
            ("oracle-suite", _argv("oracle-suite", "instances=3000", seed=seed)),
        ]
    elif workload == "learn-compile":
        rho, ops = _file_inputs()
        runs = [
            ("learn-random", _argv("learn-state", "mode=random", "instances=50", seed=seed)),
            ("compile", _argv("compile", "fixture=hm-verify")),
            ("learn-file", _argv(
                "learn-state", "mode=file", f"r={FILE_R}", f"rho={rho.as_posix()}",
                "operators=" + ",".join(p.as_posix() for p in ops),
            )),
        ]
    elif workload == "sampled-mc":
        runs = [
            (label, _argv(label, "n=64", "instances=20", seed=seed, trials=2000))
            for label in ("matching-qc", "matching-classical")
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [(label, argv + ["--out", (REPORTS / label).as_posix()]) for label, argv in runs]


WORKLOADS = ("exact-enum", "learn-compile", "sampled-mc")

# Experiments whose reports do not depend on the seed: their pinned digests
# are checked at every seed, not only at the pinned one.
SEEDLESS = frozenset({"eq-public", "eq-code", "compile"})


def experiment_of(argv: list[str]) -> str:
    return argv[argv.index("--experiment") + 1]


def prepare_inputs(workload: str, seed: int) -> None:
    """Write the seeded input files a workload reads; part of its set-up time."""
    if workload != "learn-compile":
        return
    import numpy as np

    from smplab.serialize import save_matrix

    rho, ops = _one_correction_family(np.random.default_rng([seed & (1 << 64) - 1, 0x51AB]))
    INPUTS.mkdir(parents=True, exist_ok=True)
    rho_path, op_paths = _file_inputs()
    save_matrix(rho_path, rho)
    for path, e in zip(op_paths, ops):
        save_matrix(path, e)


def _random_density(g):
    m = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    a = m @ m.conj().T
    return a / a.trace().real


def _random_operator(g):
    import numpy as np

    q, _ = np.linalg.qr(g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)))
    w = g.uniform(0.0, 1.0, size=2)
    return (q * w) @ q.conj().T


def _one_correction_family(g, margin: float = 0.01, max_draws: int = 100_000):
    """A random 1-qubit state and operator family whose K=10 walk corrects once.

    With random draws the walk makes 0 to 3 corrections, and at dimension 1024
    each one costs about as much as the rest of the experiment, so the
    workload's cost would depend on the seed.  Draws are therefore repeated
    until the walk provably corrects exactly at index 0 and skips every later
    index, each decision clear of its threshold by ``margin``.

    After the index-0 correction the hypothesis is uniform over the
    Hamming-weight classes k of E_0's eigenbasis whose mean eigenvalue
    (k*w1 + (r-k)*w0)/r lies in the band, so every register's marginal is
    diag(1-f, f) in that basis with f = sum C(r-1,k-1) / sum C(r,k) over the
    band; the later estimates are Tr(E_b sigma) against Tr(E_b rho).
    """
    import math

    import numpy as np

    r, step = FILE_R, DELTA / 8.0
    for _ in range(max_draws):
        rho = _random_density(g)
        ops = [_random_operator(g) for _ in range(FILE_OPERATORS)]
        w, v = np.linalg.eigh(ops[0])
        p0 = float(np.trace(ops[0] @ rho).real)
        if abs(p0 - w.mean()) <= DELTA + margin:
            continue
        p_tilde = min(1.0, max(0.0, round(p0 / step) * step))
        means = [(k * w[1] + (r - k) * w[0]) / r for k in range(r + 1)]
        lo, hi = p_tilde - DELTA / 2.0, p_tilde + DELTA / 2.0
        if min(min(abs(m - lo), abs(m - hi)) for m in means) <= 1e-3:
            continue
        band = [k for k, m in enumerate(means) if lo <= m <= hi]
        if not band:
            continue
        f = sum(math.comb(r - 1, k - 1) for k in band if k) / sum(math.comb(r, k) for k in band)
        sigma = v @ np.diag([1.0 - f, f]) @ v.conj().T
        if all(
            abs(np.trace(e @ sigma).real - np.trace(e @ rho).real) <= DELTA - margin
            for e in ops[1:]
        ):
            return rho, ops
    raise RuntimeError("no one-correction operator family found")
