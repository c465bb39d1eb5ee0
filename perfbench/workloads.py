"""The three benchmark workloads: the CLI calls one pass makes, and the
checks every call's output must pass.

Each expected value comes from a closed form stated in the README (verdict
counts, the parity rule, the leak sign) or from bytes the seed commit
emitted, never from the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass

WORKLOADS = ("verify", "table", "probe")

# `verify --n 4` battery.
VERIFY_N = 4
CHECK_NAMES = ("bell_trace_identities", "phase_table_decomposition",
               "interference_sums", "sign_resolution", "engine_agreement",
               "missing_pair_uninformative", "parity_classification",
               "singleton_mixedness")

# SHA-256 of the table outputs at the seed commit (README: identical
# configuration and seed produce byte-identical output).
TABLE_DIGESTS = {
    ("8", "csv"): "ea85cefd7af9c6b6bf8d6de078087f57de78076d5ed9406541d4acc56d745af4",
    ("7", "json"): "9fc7ae61cbadefcfd225c9b4eae4731e4c02ffa9a41cf69763434c6e8d95f0b1",
}

# The probe stream: clone count, and calls per (verb, subset size) cell.
# Sorted by latency the calls form three groups: classify (~3 ms, 26%),
# reduce (~5 ms, 55%) and sweep (20-200 ms, 19%). The median call then sits
# mid-way through the reduce group, and p99 inside the 6-qubit sweeps, so
# neither percentile falls on the edge between two call types.
PROBE_N = 5
PROBE_CELLS = (
    [("classify", k, 8) for k in range(1, 7)]
    + [("reduce-oracle", k, 14) for k in range(1, 7)]
    + [("reduce-both", PROBE_N, 16)]
    + [("sweep-oracle", k, 4) for k in range(1, 6)]
    + [("sweep-oracle", 6, 6)]
    + [("sweep-analytic", PROBE_N, 8)]
)
_ALIGNED_ONLY = ("reduce-both", "sweep-analytic")

UNINFORMATIVE_MAX = 1e-10
INFORMATIVE_MIN = 1e-3
AGREEMENT_MAX = 1e-10


@dataclass(frozen=True)
class Call:
    """One `cloneleak` CLI call of a pass."""

    argv: tuple[str, ...]
    cell: str
    labels: tuple[str, ...] = ()


def calls(workload: str, seed: int) -> list[Call]:
    if workload == "verify":
        return [Call(("verify", "--n", str(VERIFY_N), "--seed", str(seed)),
                     "verify")]
    if workload == "table":
        return [Call(("table", "--n", n, "--format", fmt, "--seed", "0"),
                     f"table-{fmt}/{n}") for n, fmt in TABLE_DIGESTS]
    if workload == "probe":
        return probe_calls(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _random_subset(rng: random.Random, size: int, aligned: bool) -> tuple[str, ...]:
    if aligned:
        return tuple(f"{rng.choice('SN')}{i}" for i in range(1, PROBE_N + 1))
    pool = [f"{kind}{i}" for i in range(1, PROBE_N + 1) for kind in "SN"]
    chosen = set(rng.sample(pool, size))
    return tuple(label for label in pool if label in chosen)


def _random_psi(rng: random.Random) -> str:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = sum(x * x for x in v) ** 0.5
        if norm > 1e-3:
            return ",".join(repr(x / norm) for x in v)


def probe_calls(seed: int) -> list[Call]:
    """Seeded stream of single-subset calls at n = 5, in shuffled order.

    Every seed gives the same number of calls per (verb, size) cell; the
    seed picks the subsets, the `--psi` vectors and the order.
    """
    rng = random.Random(seed)
    out = []
    for verb, size, count in PROBE_CELLS:
        for _ in range(count):
            labels = _random_subset(rng, size, verb in _ALIGNED_ONLY)
            argv = [verb.split("-")[0], "--n", str(PROBE_N),
                    "--subset", ",".join(labels)]
            if verb.startswith("reduce"):
                # One token, since the vector may start with a minus sign.
                argv.append(f"--psi={_random_psi(rng)}")
            if "-" in verb:
                argv += ["--engine", verb.split("-")[1]]
            out.append(Call(tuple(argv), f"{verb}/{size}", labels))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def leak_sign(n: int) -> int:
    """s = (-1)**((n-1)/2) for odd n."""
    return -1 if ((n - 1) // 2) % 2 else 1


def expected_verdict(n: int, labels) -> tuple[str, str]:
    """(verdict, rule) from the per-pair counts, as the README states them."""
    signals = {int(lab[1:]) for lab in labels if lab[0] == "S"}
    noises = {int(lab[1:]) for lab in labels if lab[0] == "N"}
    both = len(signals & noises)
    missing = n - len(signals | noises)
    if both and not missing:
        return "AUTHORIZED", "AUTH1"
    if missing:
        return "COMPLETELY_UNINFORMATIVE", "PROP1_MISSING_PAIR"
    if n % 2 == 0:
        return "COMPLETELY_UNINFORMATIVE", "PARITY_EVEN_N"
    if len(signals) % 2 == 0:
        return "COMPLETELY_UNINFORMATIVE", "PARITY_EVEN_P"
    return "PARTIALLY_INFORMATIVE", "PARITY_ODD_ODD"


def verdict_counts(n: int) -> dict[str, int]:
    authorized = 3 ** n - 2 ** n
    partial = 2 ** (n - 1) if n % 2 else 0
    return {"AUTHORIZED": authorized,
            "COMPLETELY_UNINFORMATIVE": 4 ** n - 1 - authorized - partial,
            "PARTIALLY_INFORMATIVE": partial}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failures, empty when the output holds
# ---------------------------------------------------------------------------

def check(call: Call, code, out: bytes) -> list[str]:
    """Failures of one call: its exit code, then its output."""
    if code != 0:
        return [f"exit code {code!r}"]
    verb = call.cell.split("/")[0]
    try:
        if verb == "verify":
            return _check_verify(json.loads(out))
        if verb.startswith("table"):
            return _check_table(call, out)
        record = json.loads(out)
        if verb == "classify":
            return _check_classify(call, record)
        if verb.startswith("reduce"):
            return _check_reduce(call, record)
        return _check_sweep(call, record)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_verify(record) -> list[str]:
    fails = []
    rows = {row["check"]: row for row in record["rows"]}
    if tuple(rows) != CHECK_NAMES:
        fails.append(f"checks {list(rows)} != {list(CHECK_NAMES)}")
    fails += [f"{name} failed: {row['detail']}" for name, row in rows.items()
              if row["passed"] is not True]
    if record["summary"]["passed"] is not True:
        fails.append("summary does not pass")
    if record["summary"]["sign"]["rule"] != "alternating":
        fails.append(f"sign rule {record['summary']['sign']['rule']!r}")
    ns = range(1, VERIFY_N + 1)
    counts = {"missing_pair_uninformative":
              sum(4 ** n - 3 ** n - 1 for n in ns),   # 216 at n <= 4
              "parity_classification": sum(4 ** n - 1 for n in ns)}  # 336
    for name, count in counts.items():
        detail = rows.get(name, {}).get("detail", "")
        if not detail.startswith(f"{count} patterns"):
            fails.append(f"{name}: expected {count} patterns, got {detail!r}")
    return fails


def _check_table(call: Call, out: bytes) -> list[str]:
    n, fmt = call.argv[2], call.argv[4]
    fails = []
    digest = hashlib.sha256(out).hexdigest()
    if digest != TABLE_DIGESTS[(n, fmt)]:
        fails.append(f"sha256 {digest} differs from the seed commit's output")
    want = verdict_counts(int(n))
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out.decode("utf-8"))))
    else:
        record = json.loads(out)
        rows = record["rows"]
        if record["summary"]["verdict_counts"] != want:
            fails.append(f"summary counts {record['summary']['verdict_counts']}"
                         f" != {want}")
    got = {v: 0 for v in want}
    for row in rows:
        got[row["verdict"]] = got.get(row["verdict"], 0) + 1
    if got != want:
        fails.append(f"row verdict counts {got} != {want}")
    return fails


def _check_classify(call: Call, record) -> list[str]:
    verdict, rule = expected_verdict(PROBE_N, call.labels)
    summary = record["summary"]
    fails = []
    if (summary["verdict"], summary["rule"]) != (verdict, rule):
        fails.append(f"{summary['verdict']}/{summary['rule']} != {verdict}/{rule}")
    if verdict == "PARTIALLY_INFORMATIVE":
        if summary.get("sign") != leak_sign(PROBE_N):
            fails.append(f"leak sign {summary.get('sign')!r} != "
                         f"{leak_sign(PROBE_N)}")
        if summary.get("observable") != "Y" * PROBE_N:
            fails.append(f"observable {summary.get('observable')!r}")
    return fails


def _check_reduce(call: Call, record) -> list[str]:
    verdict, _ = expected_verdict(PROBE_N, call.labels)
    k = len(call.labels)
    y = record["summary"]["psi"][1]
    engines = ("oracle", "analytic") if call.argv[-1] == "both" else ("oracle",)
    fails = []
    for engine in engines:
        terms = {row["term"]: row["coefficient"] for row in record["rows"]
                 if row["engine"] == engine}
        if abs(terms.get("I" * k, 0.0) - 2.0 ** -k) > AGREEMENT_MAX:
            fails.append(f"{engine}: identity coefficient {terms.get('I' * k)!r}"
                         f" != 2**-{k}")
        if verdict == "PARTIALLY_INFORMATIVE":
            want = leak_sign(PROBE_N) * y * 2.0 ** -k
            if abs(terms.get("Y" * k, 0.0) - want) > AGREEMENT_MAX:
                fails.append(f"{engine}: Y coefficient {terms.get('Y' * k)!r}"
                             f" != s*y/2**{k} = {want!r}")
    if len(engines) == 2:
        err = record["summary"]["engine_max_entry_error"]
        if not err <= AGREEMENT_MAX:
            fails.append(f"engine_max_entry_error {err!r} > {AGREEMENT_MAX}")
    return fails


def _check_sweep(call: Call, record) -> list[str]:
    verdict, _ = expected_verdict(PROBE_N, call.labels)
    distance = record["summary"]["max_pairwise_distance"]
    fails = []
    if len(record["rows"]) != 26:
        fails.append(f"{len(record['rows'])} grid rows, expected 26")
    if verdict == "COMPLETELY_UNINFORMATIVE":
        if not distance < UNINFORMATIVE_MAX:
            fails.append(f"uninformative subset moved by {distance!r}")
    elif not distance > INFORMATIVE_MIN:
        fails.append(f"{verdict} subset moved only by {distance!r}")
    if verdict == "PARTIALLY_INFORMATIVE":
        s = leak_sign(PROBE_N)
        worst = max(abs(row["y_leak_estimate"] - s * row["y"])
                    for row in record["rows"])
        if not worst <= AGREEMENT_MAX:
            fails.append(f"y_leak_estimate off s*y by {worst!r}")
    return fails
