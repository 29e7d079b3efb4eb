"""smplab benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-enum --seed 2026 --seconds 40 --trace 0

One client runs the workload's experiments in turn through
``smplab.cli.main``, each workload iteration in a fresh process with BLAS
pinned to one thread, and starts the next iteration only after the previous
one ends, while another iteration still fits in ``--seconds``.  Every
iteration's reports are checked (see README.md); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics (medians over iterations), with
times rescaled to the reference speed of ``speed.py``; the medians of the
times as measured are printed beside them.
``--trace 1`` alternates untraced and traced iterations (at least one
untraced and two traced) and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  ``--record-digests`` re-records the pinned
report digests of every workload at the pinned seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PINNED_SEED = 2026
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 3  # set-up-only processes before each untraced iteration
RUN_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def host_environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [(_read(index / f) or "").strip() for f in ("level", "type", "size")]
        caches.append("L{} {} {}".format(*fields))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
    }


class Runner:
    """Starts workload processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.out = ROOT / workloads.OUT
        self.out.mkdir(parents=True, exist_ok=True)
        self.log = self.out / "child.log"

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        """Run one workload process; its result, or None when it produced none."""
        result = self.out / "child-result.json"
        result.unlink(missing_ok=True)
        trace_path = self.out / "trace.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--result", str(result)]
        if trace:
            trace_path.unlink(missing_ok=True)
            cmd += ["--trace", str(trace_path)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, **BLAS_ENV)
        ref_before = speed.reference_s()
        with open(self.log, "a") as log:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=log)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                print("workload process exceeded the run limit", file=sys.stderr)
                return None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0 or not result.exists():
            print(f"workload process exited with {rc}; see {self.log}", file=sys.stderr)
            return None
        data = json.loads(result.read_text())
        ref = (ref_before + data["setup_ref_s"]) / 2.0
        data["setup_s"] = speed.rescale(data["setup_raw_s"], ref)
        if trace:
            data["trace"] = json.loads(trace_path.read_text())
        return data


def check(workload: str, seed: int, iterations: list[dict | None], labels: list[str]):
    """Count failed invocations over all iterations; list why each failed.

    Beyond the per-report checks done in the workload process, every
    iteration's digests must equal the first iteration's (traced or not),
    and equal the pinned digests at the pinned seed, or at any seed for the
    experiments that take no seed.
    """
    pinned = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
    first: dict[str, dict] = {}
    failed, reasons = 0, []
    for i, it in enumerate(iterations):
        if it is None:
            failed += len(labels)
            reasons.append(f"iteration {i}: no result")
            continue
        for e in it["experiments"]:
            why = list(e["failures"])
            ref = first.setdefault(e["label"], e["digests"])
            if e["digests"] != ref:
                why.append("reports differ from the first iteration")
            if seed == PINNED_SEED or e["label"] in workloads.SEEDLESS:
                if e["digests"] != pinned.get(e["label"]):
                    why.append("reports differ from the pinned digests")
            if why:
                failed += 1
                reasons.append(f"iteration {i} {e['label']}: " + "; ".join(why))
    return failed, reasons


def closed_forms(workload: str, trace: dict) -> list[tuple[str, bool]]:
    """Counts fixed by the experiments' definitions at the time the benchmark was written.

    Reported, not gated: an optimisation that removes calls changes them.
    """
    counts = tracer.experiment_counts(trace)
    out = []
    if workload == "exact-enum":
        eq = counts.get("eq-public", {})
        calls = eq.get("protocols.strategy", 0)
        out += [
            ("eq-public terms == 1048576", eq.get("terms") == 1 << 20),
            ("eq-public strategy calls == 2097152", calls == 1 << 21),
            ("eq-public unique ratio == 0.0625",
             bool(calls) and eq.get("strategy_distinct", 0) / calls == 0.0625),
        ]
    if workload == "sampled-mc":
        for label in ("matching-qc", "matching-classical"):
            n = counts.get(label, {}).get("rng.trial_rng")
            out.append((f"{label} trial_rng calls == 40001", n == 40001))
    return out


def abstain_ratio(iterations: list[dict]) -> float:
    abstained = trials = 0
    for e in iterations[0]["experiments"]:
        abstained += int(e["summary"].get("abstentions", 0))
        trials += int(e["summary"].get("trials_total", 0))
    return abstained / trials if trials else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    runner = Runner(workload, seed, started + RUN_LIMIT_S)
    labels = [label for label, _ in workloads.invocations(workload, seed)]
    env = {**host_environment(), "loadavg_start": os.getloadavg()}

    plain: list[dict | None] = []
    traced: list[dict | None] = []
    probes: list[dict] = []
    for kind in _schedule(trace):
        began = time.monotonic()
        for _ in range(0 if trace else SETUP_PROBES):
            probe = runner.spawn(setup_only=True)
            if probe is not None:
                probes.append(probe)
        it = runner.spawn(trace=kind)
        (traced if kind else plain).append(it)
        now = time.monotonic()
        # stop when another iteration as long as this one would overrun --seconds
        if it is None or len(traced) >= 2 * trace and now - started + (now - began) > seconds:
            break
    env["loadavg_end"] = os.getloadavg()

    iterations = plain + traced
    failed, reasons = check(workload, seed, iterations, labels)
    attempted = len(labels) * len(iterations)
    done_plain = [it for it in plain if it is not None]
    done_traced = [it for it in traced if it is not None]
    if done_plain:
        env.update(done_plain[0]["env"])
    selfcheck: list[tuple[str, bool]] = []
    units = {}
    measured = {}
    if not trace:
        setups = probes + done_plain
        metrics = {
            "wall_s": median(it["wall_s"] for it in done_plain) if done_plain else 0.0,
            "setup_s": median(it["setup_s"] for it in setups) if setups else 0.0,
            "peak_rss_mb": median(it["peak_rss_mb"] for it in done_plain) if done_plain else 0.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        if done_plain:
            measured = {"wall_raw_s": median(it["wall_raw_s"] for it in done_plain),
                        "setup_raw_s": median(it["setup_raw_s"] for it in setups)}
    else:
        layers = [tracer.layer_metrics(it["trace"], labels_all()) for it in done_traced]
        counts = [tracer.exact_counts(m) for m in layers]
        selfcheck.append(("exact counts repeat across traced runs",
                          len(counts) >= 2 and all(c == counts[0] for c in counts)))
        if done_traced:
            selfcheck += closed_forms(workload, done_traced[0]["trace"])
        metrics = tracer.median_metrics(layers) if layers else {}
        metrics["protocols.abstain_ratio"] = abstain_ratio(done_plain) if done_plain else 0.0
        metrics["trace.overhead_ratio"] = (
            median(it["wall_raw_s"] for it in done_traced)
            / median(it["wall_raw_s"] for it in done_plain)
            if done_traced and done_plain else 0.0
        )
        units = {k: unit_of(k) for k in metrics}
    correct = failed == 0 and (not trace or selfcheck[0][1])
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "iterations": {"plain": len(plain), "traced": len(traced)},
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": reasons,
        "selfcheck": selfcheck, "env": env, "measured": measured,
        "samples": {
            "probe_setup_s": [(p["setup_s"], p["setup_raw_s"]) for p in probes],
            "plain": [_sample(it) for it in plain],
            "traced": [_sample(it) for it in traced],
        },
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _schedule(trace: bool):
    """Iteration kinds in run order: traced (True) or not (False)."""
    if trace:
        yield from (False, True, True)
    while True:
        if trace:
            yield False
        yield trace


def _sample(it: dict | None) -> dict | None:
    keys = ("setup_s", "setup_raw_s", "wall_s", "wall_raw_s", "peak_rss_mb")
    return it and {k: it[k] for k in keys if k in it}


def labels_all() -> list[str]:
    return [label for w in workloads.WORKLOADS for label, _ in workloads.invocations(w, 0)]


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("us_per") or ".us_per" in name:
        return "us"
    if ".ms_per" in name:
        return "ms"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def record_digests() -> int:
    digests = {}
    for w in workloads.WORKLOADS:
        runner = Runner(w, PINNED_SEED, time.monotonic() + RUN_LIMIT_S)
        it = runner.spawn()
        if it is None or any(e["failures"] for e in it["experiments"]):
            print(f"{w}: failed, digests not recorded", file=sys.stderr)
            return 1
        digests[w] = {e["label"]: e["digests"] for e in it["experiments"]}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smplab" / "cli.py").is_file():
        print(f"no smplab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = ROOT / workloads.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=2) + "\n")

    print(f"workload={res['workload']} seed={res['seed']} trace={res['trace']} "
          f"iterations={res['iterations']} blas_threads={res['env'].get('blas_threads')}")
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.10g} {m['unit']}")
    for name, value in res["measured"].items():
        print(f"{name} = {value:.10g} s (as measured, not rescaled)")
    print(f"fail_ratio = {res['failed']}/{res['attempted']} = {res['fail_ratio']:.6g} ratio")
    for reason in res["failures"]:
        print(f"FAILED {reason}")
    for name, ok in res["selfcheck"]:
        print(f"selfcheck {name}: {'pass' if ok else 'FAIL'}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
