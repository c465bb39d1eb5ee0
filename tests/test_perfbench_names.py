"""The benchmark in perfbench/ wraps cloneleak functions by name, so a
renamed or deleted function would otherwise fail only traced benchmark runs.

perfbench/run.py inserts its own directory into sys.path when imported, so
it is imported in a child interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = r"""
import importlib, importlib.util, json, sys

spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
names = [(mod, fname) for mod, fnames in run.spans.TRACED_FUNCTIONS.items()
         for fname in fnames]
names += [tuple(pair) for pair in run.spans.BY_VALUE_IMPORTS]
names += [tuple(span.split(".", 1)) for required in run.COVERAGE.values()
          for span in required if not span.startswith("verify.")]
from cloneleak import verify
print(json.dumps({
    "names": [f"{mod}.{fname}" for mod, fname in names],
    "missing": [f"{mod}.{fname}" for mod, fname in names
                if not hasattr(importlib.import_module(f"cloneleak.{mod}"),
                               fname)],
    "checks": [c.__name__.removeprefix("check_") for c in verify.ALL_CHECKS],
    "check_names": list(run.workloads.CHECK_NAMES),
}))
"""


def test_perfbench_traced_names_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD,
         os.path.join(ROOT, "perfbench", "run.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert "pauli.pauli_sum_to_dense" in found["names"]
    assert "leakage.probe_patterns" in found["names"]
    assert found["missing"] == []
    assert found["checks"] == found["check_names"]
