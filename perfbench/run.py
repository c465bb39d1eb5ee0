"""cloneleak benchmark.

    python3 perfbench/run.py --workload verify|table|probe --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`; nothing is installed). Each pass runs in its own fresh worker
interpreter (see worker.py), one after another, so a pass's peak RSS is its
own and each worker also gives one set-up time sample. Passes are started
until the next one would end after `--seconds` (at least two for
`verify`, enough for 1000 calls for `probe`, one otherwise). Every call's
output is checked.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics from the traced ones,
with the tracing overhead (median traced minus median untraced pass wall
time). The last line of stdout is the result object; the line before it is
the environment the result was measured in. A fuller record (per-pass
values, layer shares) goes to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_WORKERS = 7
WORKER_TIMEOUT_S = 150
# No pass starts after this many seconds, whatever the budget.
RUN_CAP_S = 120
MIN_PROBE_CALLS = 1000
# call_tail_ms is the latency at the highest percentile with >= 10 calls
# beyond it: p99 on probe, whose runs make at least MIN_PROBE_CALLS calls.
# Runs of verify (1 call a pass) and table (2 calls a pass) make at most a
# few dozen calls, too few for a tail percentile (p90 would need 100); there
# it is the median latency of the slowest call type, which a single slow call
# does not move. In those runs
# call_p50_ms is the median over call types of each type's median latency:
# the plain median of table's calls would be the mean of its slowest n=7 call
# and its fastest n=8 call, two extremes that swing from run to run.
TAIL_PERCENTILE = 99

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("call_p50_ms", "ms"),
              ("call_tail_ms", "ms"))

# Spans each workload must record at least once in a traced pass.
COVERAGE = {
    "verify": ["leakage.pairwise_max_trace_distance", "leakage.probe_patterns",
               "leakage.fixed_y_slice_probe", "leakage.reduced_state",
               "oracle.build_encoded_state", "oracle.reduced_density",
               "subsets.enumerate_classifications", "subsets.classify",
               "cli.main", "branch.analytic_reduced_state",
               "branch.interference_table", "pauli.pauli_sum_to_dense",
               "pauli.expectation"]
              + [f"verify.{c}" for c in workloads.CHECK_NAMES],
    "table": ["subsets.enumerate_classifications", "subsets.classify",
              "cli.main"],
    "probe": ["leakage.pairwise_max_trace_distance", "leakage.reduced_state",
              "oracle.build_encoded_state", "oracle.reduced_density",
              "subsets.classify", "cli.main", "branch.analytic_reduced_state",
              "branch.interference_table", "pauli.pauli_sum_to_dense",
              "pauli.dense_to_pauli_sum", "pauli.expectation"],
}


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, traced: bool,
               spans_path: str = "-") -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), mode, "1" if traced else "0", spans_path]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s: {cmd}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {cmd}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - start
    return result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def min_passes(workload: str, seed: int) -> int:
    if workload == "probe":
        return math.ceil(MIN_PROBE_CALLS / len(workloads.calls(workload, seed)))
    # A verify pass is one long call; the median of two is much steadier.
    return 2 if workload == "verify" else 1


def run_passes(workload: str, seed: int, seconds: float, kinds) -> list[dict]:
    """Passes of the given kinds in rotation until the budget is spent.

    Untimed (traced) runs need one pass of each kind, timed runs enough
    passes for their latency percentiles."""
    needed = len(kinds) if len(kinds) > 1 else min_passes(workload, seed)
    passes = []
    start = time.perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        path = "-"
        if traced:
            path = os.path.join(OUT_DIR, f"spans-{workload}-{len(passes)}.jsonl")
        result = run_worker(workload, seed, "pass", traced, path)
        result.update(traced=traced, spans_path=path)
        passes.append(result)
        elapsed = time.perf_counter() - start
        if len(passes) >= needed and (elapsed + result["process_s"] > seconds
                                      or elapsed > RUN_CAP_S):
            return passes


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def has_tail_percentile(n_calls: int) -> bool:
    return n_calls * (100 - TAIL_PERCENTILE) / 100 >= 10


def latencies_by_cell(passes: list[dict]) -> dict[str, list[float]]:
    by_cell: dict[str, list[float]] = {}
    for p in passes:
        for cell, x in zip(p["cells"], p["latencies_ms"]):
            by_cell.setdefault(cell, []).append(x)
    return by_cell


def call_p50_ms(untraced: list[dict]) -> float:
    latencies = [x for p in untraced for x in p["latencies_ms"]]
    if has_tail_percentile(len(latencies)):
        return statistics.median(latencies)
    return statistics.median(statistics.median(xs)
                             for xs in latencies_by_cell(untraced).values())


def call_tail_ms(untraced: list[dict]) -> float:
    latencies = [x for p in untraced for x in p["latencies_ms"]]
    if has_tail_percentile(len(latencies)):
        return percentile(latencies, TAIL_PERCENTILE)
    return max(statistics.median(xs)
               for xs in latencies_by_cell(untraced).values())


def end_to_end(untraced: list[dict], setup: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "call_p50_ms": call_p50_ms(untraced),
        "call_tail_ms": call_tail_ms(untraced),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def layer_shares(traced: list[dict]) -> dict:
    """Self time per module as a share of the traced pass wall time, from the
    last traced pass; for probe also over its oracle sweeps of <= 5 qubits."""
    last = traced[-1]
    all_spans = spans.read_spans(last["spans_path"])
    in_pass = [s for s in all_spans if s["request"] is not None]
    shares = {"all": {k: v / last["wall_s"]
                      for k, v in spans.layer_self_seconds(in_pass).items()}}
    small_sweeps = {i for i, cell in enumerate(last["cells"])
                    if cell.startswith("sweep-oracle/")
                    and int(cell.split("/")[1]) <= 5}
    if small_sweeps:
        seconds = spans.layer_self_seconds(in_pass, small_sweeps)
        total = sum(last["latencies_ms"][i] for i in small_sweeps) / 1000
        shares["sweep_oracle_le5"] = {k: v / total for k, v in seconds.items()}
    return shares


def per_layer(workload: str, untraced: list[dict], traced: list[dict]):
    per_pass = []
    missing = set()
    for p in traced:
        span_list = spans.read_spans(p["spans_path"])
        per_pass.append(spans.pass_metrics(span_list))
        missing.update(spans.missing_layers(span_list, COVERAGE[workload]))
    values = spans.combine_passes(per_pass)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(
        p["wall_s"] for p in untraced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in spans.PER_LAYER}
    return metrics, sorted(missing)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cloneleak", "__init__.py")):
        print(f"error: no cloneleak sources under {ROOT}/src; run from a "
              "source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setup_runs = [run_worker(args.workload, args.seed, "setup", False)
                      for _ in range(SETUP_ONLY_WORKERS)]
        kinds = (False, True) if args.trace else (False,)
        passes = run_passes(args.workload, args.seed, args.seconds, kinds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
    correct = failed == 0
    shares = None
    if args.trace:
        metrics, missing = per_layer(args.workload, untraced, traced)
        shares = layer_shares(traced)
        if missing:
            correct = False
            print(f"coverage: no call recorded in {missing}", file=sys.stderr)
        for group, by_layer in shares.items():
            print(f"layer self-time shares ({group}): " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(by_layer.items(),
                                                   key=lambda kv: -kv[1])),
                  file=sys.stderr)
    else:
        setup = ([r["setup_s"] for r in setup_runs]
                 + [p["setup_s"] for p in untraced])
        metrics = end_to_end(untraced, setup)

    many_calls = has_tail_percentile(sum(p["attempted"] for p in untraced))
    environment = dict(setup_runs[0]["environment"], git_commit=git_commit(),
                       workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace,
                       passes=len(untraced), traced_passes=len(traced),
                       calls=attempted,
                       calls_per_pass=len(workloads.calls(args.workload,
                                                          args.seed)),
                       call_p50=("median" if many_calls
                                 else "median of the call types' medians"),
                       call_tail=(f"p{TAIL_PERCENTILE}" if many_calls
                                  else "median of the slowest call type"))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"environment": environment, "result": result,
              "layer_shares": shares,
              "cell_p50_ms": {c: statistics.median(xs) for c, xs in
                              sorted(latencies_by_cell(untraced).items())},
              "setup_s": [r["setup_s"] for r in setup_runs],
              "passes": [{k: v for k, v in p.items() if k != "latencies_ms"}
                         for p in passes]}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
