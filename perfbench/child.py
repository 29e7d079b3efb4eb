"""One workload process: set up, run each experiment through ``smplab.cli.main``, verify.

Run by ``perfbench/run.py`` with the checkout root as working directory::

    python3 perfbench/child.py --workload W --seed S --spawned-at T --result R.json
        [--trace TRACE.json] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the end of set-up, and is
reported with the duration of the reference kernel timed right after it
(see ``speed.py``).  An untraced process runs the speed probe from the first
experiment call to the last verified report and reports that wall time both
as measured and rescaled; a traced one runs no probe and reports it as
measured.  The result file also holds peak RSS, the environment and, per
experiment, its exit code, report digests and any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_SUFFIXES = ("_rows.csv", "_summary.txt", "_config.json")
SUMMARY_KEYS = ("worst_case_error", "abstentions", "trials_total")


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
    }


def verify(label: str, stem: str, out: Path, rc: int) -> tuple[dict, list[str], dict]:
    """Digests, seed-independent failures and selected summary values of one report."""
    failures = [] if rc == 0 else [f"exit code {rc}"]
    digests, summary = {}, {}
    for suffix in REPORT_SUFFIXES:
        path = out / f"{stem}{suffix}"
        if not path.exists():
            failures.append(f"missing {path.name}")
            continue
        data = path.read_bytes()
        digests[suffix] = hashlib.sha256(data).hexdigest()
        if suffix == "_summary.txt":
            for line in data.decode().splitlines():
                key, _, value = line.partition("=")
                if key.startswith("assert_") and value != "pass":
                    failures.append(f"{key}={value}")
                if key in SUMMARY_KEYS:
                    summary[key] = value
    if label == "eq-public" and summary.get("worst_case_error") != repr(2.0**-3):
        failures.append(f"worst_case_error={summary.get('worst_case_error')} != 0.125")
    return digests, failures, summary


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import smplab.cli
    import speed
    import workloads

    if Path(smplab.cli.__file__).resolve().parent != ROOT / "src" / "smplab":
        print(f"smplab imported from {smplab.cli.__file__}, not this checkout", file=sys.stderr)
        return 2
    runs = workloads.invocations(args.workload, args.seed)
    workloads.prepare_inputs(args.workload, args.seed)

    result = {"setup_raw_s": time.monotonic() - args.spawned_at,
              "setup_ref_s": speed.reference_s()}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = probe = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probe = speed.Probe()
        probe.start()
    first_call = time.perf_counter()

    experiments = []
    for label, argv in runs:
        out = Path(argv[argv.index("--out") + 1])
        shutil.rmtree(out, ignore_errors=True)
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.experiment = label
            span = tracer.span("experiment", label=label)
        t0 = time.perf_counter()
        with span:
            try:
                rc = smplab.cli.main(argv)
            except SystemExit as ex:
                rc = ex.code if isinstance(ex.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = 1
        seconds = time.perf_counter() - t0
        digests, failures, summary = verify(label, workloads.experiment_of(argv), out, rc)
        experiments.append({"label": label, "rc": rc, "seconds": seconds,
                            "digests": digests, "failures": failures, "summary": summary})
    last_report = time.perf_counter()
    if probe is None:
        result["wall_raw_s"] = last_report - first_call
    else:
        probe.stop()
        result["wall_raw_s"], result["wall_s"] = probe.measure(first_call, last_report)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["experiments"] = experiments
    result["env"] = environment()
    if tracer is not None:
        tracer.dump(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
