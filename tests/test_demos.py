"""Every narrative demo runs to completion and prints what it printed before.

No demo prints a time, so a demo's stdout is a pure function of the code: a
change that keeps every report byte keeps these digests.  A change that means
to alter a demo's output records the new digest here and says so.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout
STDOUT_SHA256 = {
    "01_equality_protocols": "ae85829719d4e5a65fcca37b9797c57b77877aa9fbe307981c1f933e4b7bf508",
    "02_state_learning": "0cc72e680045c9c5a85627fc5989bef2b51c6481974fdc7d324258334a7d4e73",
    "03_quantum_to_classical": "42223a75a0f5998435459c5838b72063b0aff45fecd6bc6463212b2e6a419390",
    "04_derandomize": "2161653cc992f06113a3fa268ffeed559282fc5cbe78c01843bee635abfbe6d8",
    "05_matching_problem": "0f71f30b45caed106a84f10809ce80894460506e62997b7639da3003d8bf5c2f",
    "06_hidden_matching_and_oracle":
        "1efaf20c4ee64ae63060ba04115e1effa3eb7f90d34084fe28cb693757e9dcae",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "05_matching_problem":
        # twenty distinct instances, not one instance scored twenty times
        assert "(value 0)" in proc.stdout and "(value 1)" in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]


def test_all_demos_found():
    assert len(DEMOS) == 6
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]
