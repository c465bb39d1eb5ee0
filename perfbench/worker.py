"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <setup|pass> <traced 0|1> <spans path|->

Set-up (importing cloneleak and the first, cached sign resolution) is timed
from the first line of this file. In `pass` mode the worker then makes the
workload's CLI calls one after another through `cloneleak.cli.main`,
capturing their output, and checks every output once the pass is over.
It prints one JSON object on its last line.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class _Sink:
    """Stand-in for stdout/stderr that keeps what the program writes."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


def _blas() -> dict:
    """BLAS library and the thread count it runs with, as found."""
    import ctypes
    import glob

    import numpy as np
    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import platform

    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS") if k in os.environ}}


def main() -> int:
    workload, seed, mode, traced, spans_path = sys.argv[1:6]
    traced = traced == "1"
    sys.path.insert(0, SRC)
    import cloneleak
    if not os.path.abspath(cloneleak.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported cloneleak from {cloneleak.__file__}, "
                           f"not from {SRC}")
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(cloneleak)
    from cloneleak import leakage
    leakage.resolve_sign_rule()
    setup_s = time.perf_counter() - _T0
    import json
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "environment": environment()}))
        return 0

    import resource

    import workloads
    from cloneleak import cli
    calls = workloads.calls(workload, int(seed))
    outputs = []
    latencies = []
    real_out, real_err = sys.stdout, sys.stderr
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for request, call in enumerate(calls):
        out, err = _Sink(), _Sink()
        attrs = {"cell": call.cell}
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            if tracer:
                tracer.request = request
                code = tracer.call("cli.main", cli.main, list(call.argv),
                                   attrs=attrs)
            else:
                code = cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported as a failed call
            code = f"raised {exc!r}"
        finally:
            latencies.append(time.perf_counter() - start)
            sys.stdout, sys.stderr = real_out, real_err
        data = out.getvalue()
        attrs["out_bytes"] = len(data)
        outputs.append((code, data))
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.request = None
        tracer.write(spans_path)

    failures = []
    for call, (code, data) in zip(calls, outputs):
        fails = workloads.check(call, code, data)
        if fails:
            failures.append({"argv": list(call.argv), "failures": fails})
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": [x * 1000 for x in latencies],
        "cells": [call.cell for call in calls],
        "attempted": len(calls), "failed": len(failures),
        "failures": failures[:5],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
