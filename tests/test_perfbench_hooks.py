"""The benchmark tracer still finds what it wraps.

``perfbench/tracer.py`` rebinds smplab's functions by name from outside the
package, and a name it no longer finds is skipped silently, so a refactor can
leave ``--trace 1`` metrics at 0 without any error.  This runs the tracer's
own ``install`` in a fresh process (it rebinds the process's smplab for good)
and checks every name it spans or tags.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import importlib, inspect, json, sys
from functools import cached_property
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from smplab.qcore import Observable
before = isinstance(vars(Observable)["matrix"], cached_property)
import tracer
tracer.Tracer().install()
out = {"matrix_cached_before": before,
       "matrix_cached_after": isinstance(vars(Observable)["matrix"], cached_property)}
for name in sorted(set(tracer.SPANS) | set(tracer.TAGS)):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"smplab.{module}"), attr, None)
    out[name] = inspect.isfunction(fn) and getattr(fn, "_perfbench", False)
print(json.dumps(out))
"""


def test_tracer_hooks_resolve():
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    # Observable.matrix stays a cached_property: the tracer re-wraps its
    # ``func``, and the walk drops the cached F by popping the instance slot
    assert found.pop("matrix_cached_before") and found.pop("matrix_cached_after")
    assert found, "the tracer spans and tags no name"
    # every spanned or tagged name is a smplab function the tracer wrapped
    assert [name for name, wrapped in found.items() if not wrapped] == []
