"""Tests of the benchmark's own code: the probe generator, the output
checks (with tampered outputs as negative controls) and the tracer.

    python3 -m pytest perfbench
"""

import collections
import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cloneleak import cli  # noqa: E402


def _cell_counts(calls):
    return collections.Counter(call.cell for call in calls)


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def test_same_seed_same_probe_calls():
    assert workloads.probe_calls(11) == workloads.probe_calls(11)


def test_seeds_share_cell_counts_but_not_subsets():
    first, second = workloads.probe_calls(0), workloads.probe_calls(1)
    expected = {f"{verb}/{size}": count
                for verb, size, count in workloads.PROBE_CELLS}
    assert _cell_counts(first) == expected == _cell_counts(second)
    assert [c.argv for c in first] != [c.argv for c in second]


@pytest.mark.parametrize("seed", range(20))
def test_probe_stays_at_n5_and_at_most_six_qubits(seed):
    for call in workloads.probe_calls(seed):
        argv = call.argv
        assert argv[argv.index("--n") + 1] == "5"
        labels = argv[argv.index("--subset") + 1].split(",")
        assert labels == list(call.labels)
        assert 1 <= len(labels) <= 6
        assert len(set(labels)) == len(labels)
        assert all(lab[0] in "SN" and 1 <= int(lab[1:]) <= 5 for lab in labels)
        if call.cell.split("/")[0] in ("reduce-both", "sweep-analytic"):
            assert sorted(int(lab[1:]) for lab in labels) == [1, 2, 3, 4, 5]


def test_expected_verdicts_follow_the_count_rule():
    assert workloads.expected_verdict(5, ["S1", "N1", "S2", "N3", "S4", "N5"]) \
        == ("AUTHORIZED", "AUTH1")
    assert workloads.expected_verdict(5, ["S1", "N1"])[1] == "PROP1_MISSING_PAIR"
    assert workloads.expected_verdict(5, ["S1", "S2", "N3", "N4", "N5"])[1] \
        == "PARITY_EVEN_P"
    assert workloads.expected_verdict(5, ["S1", "S2", "S3", "N4", "N5"]) \
        == ("PARTIALLY_INFORMATIVE", "PARITY_ODD_ODD")
    assert workloads.expected_verdict(4, ["S1", "N2", "N3", "N4"])[1] \
        == "PARITY_EVEN_N"
    assert [workloads.leak_sign(n) for n in (1, 3, 5, 7)] == [1, -1, 1, -1]
    assert sum(workloads.verdict_counts(7).values()) == 4 ** 7 - 1


LEAKING = ("S1", "S2", "S3", "N4", "N5")


def _call(verb, labels, *extra):
    argv = (verb.split("-")[0], "--n", "5", "--subset", ",".join(labels), *extra)
    if "-" in verb:
        argv += ("--engine", verb.split("-")[1])
    return workloads.Call(argv, f"{verb}/{len(labels)}", tuple(labels))


def _tamper_json(out: bytes, edit) -> bytes:
    record = json.loads(out)
    edit(record)
    return json.dumps(record).encode("utf-8")


def test_flipped_leak_sign_is_rejected():
    call = _call("classify", LEAKING)
    code, out = _invoke(call.argv)
    assert workloads.check(call, code, out) == []

    def flip(record):
        record["summary"]["sign"] = -record["summary"]["sign"]
    assert workloads.check(call, code, _tamper_json(out, flip))


def test_flipped_sweep_estimate_is_rejected():
    call = _call("sweep-analytic", LEAKING)
    code, out = _invoke(call.argv)
    assert workloads.check(call, code, out) == []

    def flip(record):
        for row in record["rows"]:
            row["y_leak_estimate"] = -row["y_leak_estimate"]
    assert workloads.check(call, code, _tamper_json(out, flip))

    def flatten(record):
        record["summary"]["max_pairwise_distance"] = 1e-12
    assert workloads.check(call, code, _tamper_json(out, flatten))


def test_engine_disagreement_and_wrong_leak_term_are_rejected():
    call = _call("reduce-both", LEAKING, "--psi=0.6,0.48,0.64")
    code, out = _invoke(call.argv)
    assert workloads.check(call, code, out) == []

    def disagree(record):
        record["summary"]["engine_max_entry_error"] = 1e-6
    assert workloads.check(call, code, _tamper_json(out, disagree))

    def flip(record):
        for row in record["rows"]:
            if row["term"] == "YYYYY":
                row["coefficient"] = -row["coefficient"]
    assert workloads.check(call, code, _tamper_json(out, flip))


def test_changed_table_byte_is_rejected():
    call = workloads.calls("table", 0)[1]
    assert call.argv[2:5] == ("7", "--format", "json")
    code, out = _invoke(call.argv)
    assert workloads.check(call, code, out) == []
    # One byte inside a verdict name: still valid JSON with the same counts,
    # so only the byte-identity check can catch it.
    at = out.index(b'"rule": "AUTH1"') + len(b'"rule": "')
    tampered = out[:at] + b"a" + out[at + 1:]
    assert len(tampered) == len(out)
    fails = workloads.check(call, code, tampered)
    assert len(fails) == 1 and "sha256" in fails[0]


def test_failed_verify_is_rejected():
    call = workloads.calls("verify", 0)[0]
    assert workloads.check(call, 1, b"{}") == ["exit code 1"]
    rows = [{"check": name, "passed": True, "detail": ""}
            for name in workloads.CHECK_NAMES]
    rows[5]["detail"] = "216 patterns, max distance 0"
    rows[6]["detail"] = "336 patterns agree across n<=4"
    record = {"rows": rows,
              "summary": {"passed": True, "sign": {"rule": "alternating"}}}
    assert workloads.check(call, 0, json.dumps(record).encode()) == []
    record["summary"]["sign"]["rule"] = "constant_plus"
    assert workloads.check(call, 0, json.dumps(record).encode())


def test_negative_control_raises_the_error_rate():
    calls = [c for c in workloads.probe_calls(3)
             if c.cell.startswith("classify")][:12]
    results = [_invoke(c.argv) for c in calls]
    assert sum(bool(workloads.check(c, *r)) for c, r in zip(calls, results)) == 0
    flipped = [(code, out.replace(b'"verdict": "', b'"verdict": "X'))
               for code, out in results]
    failed = sum(bool(workloads.check(c, *r)) for c, r in zip(calls, flipped))
    assert failed / len(calls) > 0


def test_self_times_subtract_direct_children():
    span_list = [
        {"id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0,
         "request": 0},
        {"id": 1, "parent": 0, "name": "leakage.reduced_state", "start": 1.0,
         "end": 5.0, "request": 0},
        {"id": 2, "parent": 1, "name": "oracle.build_encoded_state",
         "start": 2.0, "end": 4.0, "request": 0},
    ]
    assert spans.self_times(span_list) == {0: 6.0, 1: 2.0, 2: 2.0}
    assert spans.layer_self_seconds(span_list) == {"cli": 6.0, "leakage": 2.0,
                                                   "oracle": 2.0}


def test_coverage_ignores_set_up_spans():
    span_list = [
        {"id": 0, "parent": None, "name": "leakage.reduced_state", "start": 0.0,
         "end": 1.0, "request": None},
        {"id": 1, "parent": None, "name": "cli.main", "start": 1.0, "end": 2.0,
         "request": 0},
    ]
    assert spans.missing_layers(span_list, ["cli.main", "leakage.reduced_state"]) \
        == ["leakage.reduced_state"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 99) == 990
    assert run.percentile(values, 100) == 1000
    assert run.percentile([5.0], 99) == 5.0


def test_short_run_p50_is_the_median_of_call_type_medians():
    # A table-like run: the plain median of these six calls would be
    # (1300 + 4000) / 2, the slowest short call and the fastest long one.
    passes = [{"cells": ["long", "short"], "latencies_ms": [long, short]}
              for long, short in ((4000, 1000), (4400, 1100), (4600, 1300))]
    assert run.call_p50_ms(passes) == (4400 + 1100) / 2
    assert run.call_tail_ms(passes) == 4400


def test_traced_pass_wraps_by_value_imports(tmp_path):
    """A traced table pass at n = 3 reaches the wrappers that verify/cli
    imported by value, and its computed counts come out exact."""
    path = str(tmp_path / "spans.jsonl")
    script = (
        "import sys, json\n"
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
        "import cloneleak, spans\n"
        "from cloneleak import cli\n"
        "t = spans.Tracer(); t.install(cloneleak)\n"
        "cloneleak.leakage.resolve_sign_rule()\n"
        "t.request = 0\n"
        "t.call('cli.main', cli.main, ['table', '--n', '3'])\n"
        "t.request = 1\n"
        "t.call('cli.main', cli.main, ['reduce', '--n', '3', '--subset',\n"
        "       'S1,S2,S3', '--psi', '0,1,0', '--engine', 'both'])\n"
        f"t.write({path!r})\n"
        f"print(json.dumps(spans.pass_metrics(spans.read_spans({path!r}))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.splitlines()[-1])
    assert m["subsets.enumerate.patterns"] == 63
    assert m["subsets.classify.calls"] == 63
    assert m["cli.main.calls"] == 2
    assert m["oracle.encode.calls"] == 1
    assert m["oracle.encode.bytes"] == 16 * 2 ** 7
    assert m["oracle.trace.max_keep_dim"] == 8
    assert m["branch.analytic.calls"] == 1
    assert m["branch.tables.calls"] == 3
    assert m["pauli.dense.calls"] == 2
    assert m["leakage.reduced_state.calls"] == 1
    assert m["leakage.sign.s"] > 0
