"""Span tracer for the benchmark's traced passes.

The tracer wraps cloneleak's public functions from outside the package: it
replaces every module attribute that refers to one of them, so callers that
look a name up through its home module (`leakage.reduced_state`) and callers
that imported it by value (`from .subsets import enumerate_classifications`
in `verify` and `cli`) both reach the wrapper. Spans are kept in memory and
written out as JSON lines when the pass ends; `pass_metrics` turns them
into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from workloads import CHECK_NAMES

# Public functions timed in traced passes, by home module.
TRACED_FUNCTIONS = {
    "leakage": ("pairwise_max_trace_distance", "trace_distance",
                "probe_patterns", "informativeness_probe",
                "fixed_y_slice_probe", "reduced_state", "resolve_sign_rule"),
    "oracle": ("build_encoded_state", "reduced_density"),
    "subsets": ("enumerate_classifications", "classify"),
    "branch": ("analytic_reduced_state", "interference_table", "table_sum",
               "phase_ratio_table", "phase_ratio_parts",
               "leak_sum_closed_form"),
    "pauli": ("pauli_sum_to_dense", "dense_to_pauli_sum", "expectation"),
}

# Names other modules import by value; each must be wrapped where it is used.
BY_VALUE_IMPORTS = (
    ("verify", "enumerate_classifications"),
    ("cli", "enumerate_classifications"),
    ("leakage", "pauli_sum_to_dense"),
    ("verify", "pauli_sum_to_dense"),
    ("cli", "pauli_sum_to_dense"),
    ("cli", "dense_to_pauli_sum"),
    ("leakage", "expectation"),
)

_MODULES = ("pauli", "oracle", "branch", "subsets", "leakage", "verify", "cli")


def _distance_attrs(args, kwargs):
    rhos = args[0] if args else kwargs["rhos"]
    k = len(rhos)
    return {"eigs": k * (k - 1) // 2, "dim": int(rhos[0].shape[0])}


def _trace_distance_attrs(args, kwargs):
    return {"eigs": 1, "dim": int(args[0].shape[0])}


def _encode_attrs(args, kwargs):
    import numpy as np
    n = args[0]
    psi = args[1] if len(args) > 1 else kwargs["psi"]
    return {"bytes": 16 * 2 ** (2 * n + 1),
            "key": f"{n}:{np.asarray(psi, dtype=complex).tobytes().hex()}"}


def _reduced_density_attrs(args, kwargs):
    keep = args[1] if len(args) > 1 else kwargs["keep"]
    return {"keep_dim": 2 ** len(keep)}


# Computed (not measured) counts taken from a call's arguments or result.
_BEFORE = {
    "leakage.pairwise_max_trace_distance": _distance_attrs,
    "leakage.trace_distance": _trace_distance_attrs,
    "oracle.build_encoded_state": _encode_attrs,
    "oracle.reduced_density": _reduced_density_attrs,
}
_AFTER = {
    "subsets.enumerate_classifications": lambda result: {"patterns": len(result)},
}


class Tracer:
    """Records (id, parent, name, start, end, request, attrs) spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._last_gap_error = None

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, self.request, attrs))

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Run fn inside a span; `attrs` may be filled in by the caller later."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, start, attrs)

    def wrap(self, name: str, fn, gap_error=None):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if (gap_error is not None and isinstance(exc, gap_error)
                        and exc is not self._last_gap_error):
                    self._last_gap_error = exc
                    attrs = {**(attrs or {}), "gap_error": 1}
                self._close(sid, parent, name, start, attrs)
                raise
            if after:
                attrs = {**(attrs or {}), **after(result)}
            self._close(sid, parent, name, start, attrs)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self, package) -> None:
        """Wrap the traced functions everywhere cloneleak looks them up."""
        import importlib
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in _MODULES}
        gap_error = modules["leakage"].SeparationGapError
        wrappers = {}
        for home, names in TRACED_FUNCTIONS.items():
            for fname in names:
                orig = getattr(modules[home], fname)
                wrappers[id(orig)] = self.wrap(f"{home}.{fname}", orig,
                                               gap_error)
        verify = modules["verify"]
        for check in verify.ALL_CHECKS:
            name = "verify." + check.__name__.removeprefix("check_")
            wrappers[id(check)] = self.wrap(name, check, gap_error)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        # run_checks iterates this tuple, which holds the functions by value.
        verify.ALL_CHECKS = tuple(wrappers[id(c)] for c in verify.ALL_CHECKS)
        for mod, fname in BY_VALUE_IMPORTS:
            if not getattr(getattr(modules[mod], fname),
                           "__perfbench_traced__", False):
                raise RuntimeError(f"{mod}.{fname} was not wrapped")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request, attrs in self.spans:
                record = {"id": sid, "parent": parent, "name": name,
                          "start": start, "end": end, "request": request}
                if attrs:
                    record.update(attrs)
                fh.write(json.dumps(record) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover, by span id."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_seconds(spans: list[dict], requests=None) -> dict[str, float]:
    """Self time per module (cli, leakage, oracle, ...) over the given requests."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if requests is None or s["request"] in requests:
            out[_layer(s["name"])] = out.get(_layer(s["name"]), 0.0) + own[s["id"]]
    return out


# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = (
    [("leakage.distance.calls", "count", "lower"),
     ("leakage.distance.s", "s", "lower"),
     ("leakage.distance.eigs", "count", "lower"),
     ("leakage.distance.max_dim", "count", "lower"),
     ("leakage.distance.ops", "count", "lower"),
     ("leakage.probe.s", "s", "lower"),
     ("leakage.reduced_state.calls", "count", "lower"),
     ("leakage.reduced_state.s", "s", "lower"),
     ("leakage.sign.s", "s", "lower"),
     ("leakage.gap_errors", "count", "lower"),
     ("oracle.encode.calls", "count", "lower"),
     ("oracle.encode.s", "s", "lower"),
     ("oracle.encode.bytes", "B", "lower"),
     ("oracle.encode.distinct_ratio", "ratio", "higher"),
     ("oracle.trace.calls", "count", "lower"),
     ("oracle.trace.s", "s", "lower"),
     ("oracle.trace.max_keep_dim", "count", "lower"),
     ("subsets.enumerate.s", "s", "lower"),
     ("subsets.enumerate.patterns", "count", "lower"),
     ("subsets.classify.calls", "count", "lower"),
     ("subsets.classify.s", "s", "lower"),
     ("cli.main.calls", "count", "lower"),
     ("cli.self_s", "s", "lower"),
     ("cli.out_bytes", "B", "lower"),
     ("branch.analytic.calls", "count", "lower"),
     ("branch.analytic.s", "s", "lower"),
     ("branch.tables.calls", "count", "lower"),
     ("pauli.dense.calls", "count", "lower"),
     ("pauli.dense.s", "s", "lower"),
     ("pauli.expectation.s", "s", "lower")]
    + [(f"verify.{c}.s", "s", "lower") for c in CHECK_NAMES]
    + [("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

# Function spans summed into each per-layer metric.
_GROUPS = {
    "leakage.distance": ("leakage.pairwise_max_trace_distance",
                         "leakage.trace_distance"),
    "leakage.probe": ("leakage.probe_patterns", "leakage.informativeness_probe",
                      "leakage.fixed_y_slice_probe"),
    "leakage.reduced_state": ("leakage.reduced_state",),
    "oracle.encode": ("oracle.build_encoded_state",),
    "oracle.trace": ("oracle.reduced_density",),
    "subsets.enumerate": ("subsets.enumerate_classifications",),
    "subsets.classify": ("subsets.classify",),
    "cli.main": ("cli.main",),
    "branch.analytic": ("branch.analytic_reduced_state",),
    "branch.tables": ("branch.interference_table",),
    "branch": tuple(f"branch.{f}" for f in TRACED_FUNCTIONS["branch"]),
    "pauli.dense": ("pauli.pauli_sum_to_dense", "pauli.dense_to_pauli_sum"),
    "pauli.expectation": ("pauli.expectation",),
}


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Only spans inside a request (one CLI call) count, except for
    `leakage.sign.s`, which also covers the first sign resolution that
    set-up pays. `.s` metrics are self times, except `leakage.sign.s` and
    `verify.<check>.s`, which cover the whole call, so that the eight checks
    split the verify pass between them.
    """
    own = self_times(spans)
    sign_s = sum(s["end"] - s["start"] for s in spans
                 if s["name"] == "leakage.resolve_sign_rule")
    spans = [s for s in spans if s["request"] is not None]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own[s["id"]]
        total_s[s["name"]] = total_s.get(s["name"], 0.0) + s["end"] - s["start"]

    def n_calls(group):
        return sum(calls.get(f, 0) for f in _GROUPS[group])

    def secs(group):
        return sum(self_s.get(f, 0.0) for f in _GROUPS[group])

    def attr(name, key):
        return [s[key] for s in spans if s["name"] == name and key in s]

    distance = [s for s in spans if s["name"] in _GROUPS["leakage.distance"]]
    encode_keys = attr("oracle.build_encoded_state", "key")
    m = {
        "leakage.distance.calls": n_calls("leakage.distance"),
        "leakage.distance.s": secs("leakage.distance"),
        "leakage.distance.eigs": sum(s["eigs"] for s in distance),
        "leakage.distance.max_dim": max((s["dim"] for s in distance), default=0),
        "leakage.distance.ops": sum(s["eigs"] * s["dim"] ** 3 for s in distance),
        "leakage.probe.s": secs("leakage.probe"),
        "leakage.reduced_state.calls": n_calls("leakage.reduced_state"),
        "leakage.reduced_state.s": secs("leakage.reduced_state"),
        "leakage.sign.s": sign_s,
        "leakage.gap_errors": sum(s.get("gap_error", 0) for s in spans
                                  if s["name"].startswith("leakage.")),
        "oracle.encode.calls": len(encode_keys),
        "oracle.encode.s": secs("oracle.encode"),
        "oracle.encode.bytes": sum(attr("oracle.build_encoded_state", "bytes")),
        "oracle.encode.distinct_ratio": (len(set(encode_keys)) / len(encode_keys)
                                         if encode_keys else 0.0),
        "oracle.trace.calls": n_calls("oracle.trace"),
        "oracle.trace.s": secs("oracle.trace"),
        "oracle.trace.max_keep_dim": max(attr("oracle.reduced_density",
                                              "keep_dim"), default=0),
        "subsets.enumerate.s": secs("subsets.enumerate"),
        "subsets.enumerate.patterns": sum(attr(
            "subsets.enumerate_classifications", "patterns")),
        "subsets.classify.calls": n_calls("subsets.classify"),
        "subsets.classify.s": secs("subsets.classify"),
        "cli.main.calls": n_calls("cli.main"),
        "cli.self_s": secs("cli.main"),
        "cli.out_bytes": sum(attr("cli.main", "out_bytes")),
        "branch.analytic.calls": n_calls("branch.analytic"),
        "branch.analytic.s": secs("branch"),
        "branch.tables.calls": n_calls("branch.tables"),
        "pauli.dense.calls": n_calls("pauli.dense"),
        "pauli.dense.s": secs("pauli.dense"),
        "pauli.expectation.s": secs("pauli.expectation"),
    }
    for c in CHECK_NAMES:
        m[f"verify.{c}.s"] = total_s.get(f"verify.{c}", 0.0)
    return m


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes of one run."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def missing_layers(spans: list[dict], required) -> list[str]:
    """Required span names that recorded no call inside a request."""
    seen = {s["name"] for s in spans if s["request"] is not None}
    return [name for name in required if name not in seen]
