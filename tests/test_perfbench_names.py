"""The benchmark in perfbench/ wraps cloneleak functions by name, so a
renamed or deleted function, or one a workload no longer calls, would
otherwise fail only traced benchmark runs.

perfbench/run.py inserts its own directory into sys.path when imported, so
it is imported in a child interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Loads perfbench/run.py, whose path is the child's first argument, as `run`.
_LOAD_RUN = r"""
import importlib, importlib.util, json, sys

spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
"""

_CHILD = _LOAD_RUN + r"""
names = [(mod, fname) for mod, fnames in run.spans.TRACED_FUNCTIONS.items()
         for fname in fnames]
names += [tuple(pair) for pair in run.spans.BY_VALUE_IMPORTS]
names += [("leakage", "SeparationGapError")]  # Tracer.install reads it
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


# One traced pass of a workload, as perfbench's traced run makes it.
_TRACED_PASS = _LOAD_RUN + r"""
workload, path = sys.argv[2:4]
result = run.run_worker(workload, 0, "pass", True, path)
spans = run.spans.read_spans(path)
print(json.dumps({
    "failed": result["failed"], "failures": result["failures"],
    "missing": run.spans.missing_layers(spans, run.COVERAGE[workload]),
    "encode_calls": run.spans.pass_metrics(spans)["oracle.encode.calls"],
}))
"""

# Encoder calls of one pass. verify --n 4: per n, the span's rows and the
# grid it is certified on, from which the six poles are read, and three
# fixed-y slices (one at n = 1, two at n = 3); the sign resolution's
# encodes are made at set-up.
ENCODE_CALLS = {"verify": 11, "table": 0}


def _child(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code,
         os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_perfbench_traced_names_resolve():
    found = _child(_CHILD)
    assert "pauli.pauli_sum_to_dense" in found["names"]
    assert "leakage.probe_patterns" in found["names"]
    assert found["missing"] == []
    assert found["checks"] == found["check_names"]
    assert "leakage.SeparationGapError" in found["names"]


@pytest.mark.parametrize("workload", ["verify", "table"])
def test_perfbench_traced_pass_covers_its_layers(tmp_path, workload):
    # A function that stops being called where the tracer looks for it
    # fails the traced benchmark run's coverage check; catch it here.
    found = _child(_TRACED_PASS, workload, str(tmp_path / "spans.jsonl"))
    assert found["failed"] == 0, found["failures"]
    assert found["missing"] == []
    assert found["encode_calls"] == ENCODE_CALLS[workload]
