import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cloneleak import cli, leakage, oracle, verify
from cloneleak.cli import SubsetSpecError, main, parse_bloch, parse_subset
from cloneleak.subsets import (PairTag, RegisterSubset, Verdict, classify,
                               enumerate_classifications, first_pattern,
                               row_fields)

B, S, N, E = PairTag.BOTH, PairTag.SIGNAL, PairTag.NOISE, PairTag.NONE
BRUTE_FORCE = ("engine_agreement", "missing_pair_uninformative",
               "parity_classification", "singleton_mixedness")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, list(csv.DictReader(io.StringIO(out)))


def test_parse_subset_examples():
    assert parse_subset("S1,N2,N3", 3).membership == (S, N, N)
    assert parse_subset("S1,N1", 2).membership == (B, E)
    assert parse_subset("n2, s1", 2).membership == (S, N)  # case/space tolerant


def test_parse_subset_distinct_diagnostics():
    with pytest.raises(SubsetSpecError, match="index out of range"):
        parse_subset("S4", 3)
    with pytest.raises(SubsetSpecError, match="duplicate label"):
        parse_subset("S1,S1", 3)
    with pytest.raises(SubsetSpecError, match="unknown token"):
        parse_subset("S1,Q2", 3)
    with pytest.raises(SubsetSpecError, match="at least one label"):
        parse_subset("  ,", 3)


def test_parse_bloch():
    np.testing.assert_allclose(parse_bloch("0,0.6,0.8"), [0, 0.6, 0.8])
    near = parse_bloch("0,0.6000001,0.8")
    assert np.linalg.norm(near) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="norm"):
        parse_bloch("0.5,0.5,0.5")
    with pytest.raises(ValueError, match="three"):
        parse_bloch("1,0")
    with pytest.raises(ValueError, match="numeric"):
        parse_bloch("a,b,c")


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_reduce_rejects_non_finite_bloch(capsys, component):
    code = main(["reduce", "--n", "1", "--subset", "S1",
                 f"--psi={component},0,0", "--engine", "analytic"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_json_output_refuses_nan(capsys):
    args = cli.build_parser().parse_args(["table", "--n", "1"])
    with pytest.raises(ValueError):
        cli._emit(args, [{"y": float("nan")}], {}, ["y"])
    assert capsys.readouterr().out == ""


def test_json_output_refuses_nan_before_opening_out(tmp_path):
    # The NaN is in the second row, so the first block fails, not the first
    # row that _emit renders on its own.
    out = tmp_path / "t.json"
    args = cli.build_parser().parse_args(["table", "--n", "1",
                                          "--out", str(out)])
    with pytest.raises(ValueError):
        cli._emit(args, [{"y": 0.5}, {"y": float("nan")}], {}, ["y"])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "2", "--subset", "S1", "--grid", "1"],
    ["classify", "--n", "2", "--subset", "S1", "--oracle-cap", "3"],
    ["reduce", "--n", "1", "--subset", "S1", "--psi", "0,1,0", "--grid", "6"],
    ["table", "--n", "2", "--grid", "3", "--oracle-cap", "0"],
    ["table", "--n", "2", "--oracle-cap", "0"],
    ["verify", "--tamper-analytic-sign"],
])
def test_flags_only_on_verbs_that_use_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_structural_verbs_never_encode(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a structural verb built an encoded state")

    monkeypatch.setattr(oracle, "build_encoded_state", refuse)
    leakage.resolve_sign_rule.cache_clear()
    code, record = run_json(capsys, ["classify", "--n", "3",
                                     "--subset", "S1,S2,S3"])
    assert code == 0
    assert record["summary"]["sign"] == -1
    code, record = run_json(capsys, ["table", "--n", "3"])
    assert code == 0
    assert record["summary"]["verdict_counts"]["PARTIALLY_INFORMATIVE"] == 4


def test_classify_partially_informative(capsys):
    code, record = run_json(capsys, ["classify", "--n", "3",
                                     "--subset", "S1,S2,S3"])
    assert code == 0
    assert record["summary"]["verdict"] == "PARTIALLY_INFORMATIVE"
    assert record["summary"]["observable"] == "YYY"
    assert record["summary"]["sign"] == -1
    assert record["rows"][0]["rule"] == "PARITY_ODD_ODD"


def test_classify_uninformative(capsys):
    code, record = run_json(capsys, ["classify", "--n", "2",
                                     "--subset", "S1,S2"])
    assert code == 0
    assert record["summary"]["verdict"] == "COMPLETELY_UNINFORMATIVE"
    assert "observable" not in record["summary"]


def test_classify_authorized(capsys):
    code, record = run_json(capsys, ["classify", "--n", "4",
                                     "--subset", "S1,N1,S2,S3,N4"])
    assert code == 0
    assert record["summary"]["verdict"] == "AUTHORIZED"
    assert record["summary"]["rule"] == "AUTH1"


def test_reduce_both_engines_single_clone(capsys):
    code, record = run_json(capsys, ["reduce", "--n", "1", "--subset", "S1",
                                     "--psi", "0,0.6,0.8", "--engine", "both"])
    assert code == 0
    coeffs = {(r["engine"], r["term"]): r["coefficient"]
              for r in record["rows"]}
    assert coeffs[("analytic", "I")] == pytest.approx(0.5)
    assert coeffs[("analytic", "Y")] == pytest.approx(0.3)
    assert coeffs[("oracle", "I")] == pytest.approx(0.5)
    assert coeffs[("oracle", "Y")] == pytest.approx(0.3)
    assert record["summary"]["engine_max_entry_error"] < 1e-10


def test_reduce_flat_cases(capsys):
    code, record = run_json(capsys, ["reduce", "--n", "3",
                                     "--subset", "S1,S2,N3",
                                     "--psi", "0,1,0", "--engine", "both"])
    assert code == 0
    for row in record["rows"]:
        assert row["term"] == "III"
        assert row["coefficient"] == pytest.approx(0.125)
    code, record = run_json(capsys, ["reduce", "--n", "2",
                                     "--subset", "S1,N2",
                                     "--psi", "0.6,0,0.8", "--engine", "both"])
    assert code == 0
    for row in record["rows"]:
        assert row["term"] == "II"
        assert row["coefficient"] == pytest.approx(0.25)


def test_reduce_dense_flag(capsys):
    code, record = run_json(capsys, ["reduce", "--n", "1", "--subset", "N1",
                                     "--psi", "0,1,0", "--engine", "oracle",
                                     "--dense"])
    assert code == 0
    dense = np.array([[complex(re, im) for re, im in row]
                      for row in record["summary"]["dense"]["oracle"]])
    np.testing.assert_allclose(dense, np.eye(2) / 2, atol=1e-12)


def test_reduce_analytic_requires_aligned(capsys):
    code = main(["reduce", "--n", "2", "--subset", "S1,N1",
                 "--psi", "0,1,0", "--engine", "analytic"])
    assert code == 2
    assert "aligned" in capsys.readouterr().err


@pytest.mark.parametrize("argv,labels,reason", [
    (["reduce", "--n", "2", "--subset", "S1,N1", "--psi", "0,1,0",
      "--engine", "analytic"], "S1,N1", "MISSING_PAIR"),
    (["reduce", "--n", "2", "--subset", "S1,N1,S2", "--psi", "0,1,0",
      "--engine", "analytic"], "S1,N1,S2", "OVERSIZED"),
    (["sweep", "--n", "3", "--subset", "S1,N3", "--engine", "analytic"],
     "S1,N3", "MISSING_PAIR"),
], ids=["missing-pair", "oversized", "sweep-missing-pair"])
def test_analytic_refusal_bytes(capsys, argv, labels, reason):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: analytic engine needs an aligned subset "
                            f"(one qubit per pair); '{labels}' is {reason}\n")


def test_table_n1(capsys):
    code, rows = run_csv(capsys, ["table", "--n", "1", "--format", "csv"])
    assert code == 0
    verdicts = {r["pattern"]: r["verdict"] for r in rows}
    assert verdicts == {
        "S1,N1": "AUTHORIZED",
        "S1": "PARTIALLY_INFORMATIVE",
        "N1": "COMPLETELY_UNINFORMATIVE",
    }


def test_table_n2_has_no_leaky_rows(capsys):
    code, record = run_json(capsys, ["table", "--n", "2"])
    assert code == 0
    counts = record["summary"]["verdict_counts"]
    assert counts["PARTIALLY_INFORMATIVE"] == 0
    assert counts["AUTHORIZED"] == 5
    assert record["summary"]["patterns"] == 15


def test_table_n3_leaky_count(capsys):
    code, record = run_json(capsys, ["table", "--n", "3"])
    assert code == 0
    assert record["summary"]["verdict_counts"]["PARTIALLY_INFORMATIVE"] == 4


def test_table_rows_reparse_to_same_subset(capsys):
    code, rows = run_csv(capsys, ["table", "--n", "3", "--format", "csv"])
    assert code == 0
    seen = set()
    for row in rows:
        sub = parse_subset(row["pattern"], 3)
        assert sub.labels() == row["pattern"]
        assert sub.size == int(row["size"])
        assert sub.signal_count == int(row["p"])
        assert sub.noise_count == int(row["q"])
        seen.add(sub.membership)
    assert len(seen) == len(rows) == 63


def test_table_guard_exit(capsys):
    assert main(["table", "--n", "11"]) == 2
    assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_guard_writes_nothing(capsys, tmp_path, fmt):
    assert main(["table", "--n", "11", "--format", fmt]) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "table.out"
    assert main(["table", "--n", "11", "--format", fmt,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_sweep_slope_is_resolved_sign(capsys):
    code, record = run_json(capsys, ["sweep", "--n", "3",
                                     "--subset", "S1,N2,N3"])
    assert code == 0
    assert abs(record["summary"]["slope"]) == pytest.approx(1.0, abs=1e-10)
    assert record["summary"]["slope"] == pytest.approx(-1.0, abs=1e-10)
    assert record["summary"]["intercept"] == pytest.approx(0.0, abs=1e-10)
    for row in record["rows"]:
        assert row["y_leak_estimate"] == pytest.approx(-row["y"], abs=1e-10)
    assert record["summary"]["max_pairwise_distance"] == pytest.approx(1.0)


def test_sweep_flat_cases(capsys):
    for argv in (["sweep", "--n", "2", "--subset", "S1,S2"],
                 ["sweep", "--n", "1", "--subset", "N1"]):
        code, record = run_json(capsys, argv)
        assert code == 0
        assert all(abs(r["y_leak_estimate"]) < 1e-10 for r in record["rows"])
        assert record["summary"]["max_pairwise_distance"] < 1e-10


def test_sweep_analytic_engine_matches(capsys):
    code, record = run_json(capsys, ["sweep", "--n", "3",
                                     "--subset", "S1,S2,S3",
                                     "--engine", "analytic"])
    assert code == 0
    for row in record["rows"]:
        assert row["y_leak_estimate"] == pytest.approx(-row["y"], abs=1e-10)


def test_sweep_engine_subset_mismatch_exit(capsys):
    assert main(["sweep", "--n", "2", "--subset", "S1,N1",
                 "--engine", "analytic"]) == 2


def test_exit_codes_for_parse_errors(capsys):
    assert main(["classify", "--n", "3", "--subset", "S4"]) == 2
    assert main(["classify", "--n", "3", "--subset", "S1,S1"]) == 2
    assert main(["classify", "--n", "3", "--subset", "Q1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["table", "--n", "-1"],
    ["table", "--n", "0"],
    ["classify", "--n", "0", "--subset", "S1"],
    ["sweep", "--n", "0", "--subset", "S1"],
    ["reduce", "--n", "0", "--subset", "S1", "--psi", "0,1,0"],
])
def test_n_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--n: must be >= 1, got {argv[2]}" in captured.err


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
def test_unwritable_out_is_a_usage_error(tmp_path, target):
    out = tmp_path if target == "directory" else tmp_path / "absent" / "t.json"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "cloneleak.cli", "table",
                           "--n", "1", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: ")
    assert str(out) in proc.stderr


def test_verify_small_config(capsys):
    code = main(["verify", "--n", "2"])
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert code == 0
    assert record["summary"]["passed"] is True
    assert len(record["rows"]) == 8
    assert all(r["passed"] for r in record["rows"])
    sign = record["summary"]["sign"]
    assert sign["rule"] == "alternating"
    assert sign["observed"] == {"1": 1, "3": -1}
    assert "[PASS] sign_resolution" in captured.err


@pytest.mark.parametrize("verb", [
    ["verify", "--n", "3"],
    ["sweep", "--n", "1", "--subset", "S1"],
    ["reduce", "--n", "1", "--subset", "S1", "--psi", "0,1,0"],
])
def test_oracle_cap_below_one_is_a_usage_error(capsys, monkeypatch, verb):
    def refuse(*args, **kwargs):
        raise AssertionError("ran work despite an invalid --oracle-cap")

    monkeypatch.setattr(verify, "run_checks", refuse)
    monkeypatch.setattr(oracle, "build_encoded_state", refuse)
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--oracle-cap", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--oracle-cap: must be >= 1, got 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--grid", "5"],
    ["verify", "--grid", str(cli.GRID_MAX + 1)],
    ["sweep", "--n", "3", "--subset", "S1,N2,N3", "--grid", "5"],
    ["sweep", "--n", "3", "--subset", "S1,N2,N3", "--grid", "20000"],
])
def test_grid_out_of_bounds_is_a_usage_error(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built a grid despite an invalid --grid")

    monkeypatch.setattr(leakage, "bloch_grid", refuse)
    monkeypatch.setattr(verify, "run_checks", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bound = ">= 6" if argv[-1] == "5" else f"<= {cli.GRID_MAX}"
    assert f"--grid: must be {bound}, got {argv[-1]}" in captured.err


@pytest.mark.parametrize("verb", [
    ["reduce", "--n", "20", "--subset", "S1", "--psi", "0,1,0"],
    ["sweep", "--n", "20", "--subset", "S1"],
    ["verify", "--n", "20"],
])
def test_oracle_cap_above_the_bound_is_a_usage_error(capsys, monkeypatch,
                                                     verb):
    def refuse(*args, **kwargs):
        raise AssertionError("encoded a state despite an invalid --oracle-cap")

    monkeypatch.setattr(oracle, "build_encoded_state", refuse)
    monkeypatch.setattr(verify, "run_checks", refuse)
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--oracle-cap", "20"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"--oracle-cap: must be <= {oracle.ORACLE_CAP_MAX}, got 20"
            in captured.err)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", str(oracle.ORACLE_CAP_MAX + 1),
     "--oracle-cap", str(oracle.ORACLE_CAP_MAX + 1)],
    ["verify", "--n", "10", "--oracle-cap", str(oracle.ORACLE_CAP_MAX + 1)],
])
def test_verify_refuses_keep_sets_above_the_dense_cap(capsys, monkeypatch,
                                                      argv):
    # The all-BOTH pattern of n = min(--n, --oracle-cap) keeps 2n qubits.
    # The pole probes form no dense state, so verify's bound is the
    # oracle's own, ORACLE_CAP_MAX, rather than the dense cap: one past it
    # is refused while the arguments are parsed, before anything is run.
    def refuse(*args, **kwargs):
        raise AssertionError("ran work above the verify bound")

    monkeypatch.setattr(verify, "run_checks", refuse)
    monkeypatch.setattr(oracle, "build_encoded_state", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"--oracle-cap: must be <= {oracle.ORACLE_CAP_MAX}, got "
            f"{oracle.ORACLE_CAP_MAX + 1}" in captured.err)


@pytest.mark.parametrize("argv, top", [
    (["verify", "--n", "7"], 5),
    (["verify", "--n", "6", "--oracle-cap", "6"], 6),
    (["verify", "--n", "3", "--oracle-cap", "9"], 3),
    (["verify", "--n", "7", "--oracle-cap", "7"], 7),
    (["verify", "--n", str(oracle.ORACLE_CAP_MAX), "--oracle-cap", "8"], 8),
    (["verify", "--n", str(oracle.ORACLE_CAP_MAX + 1), "--oracle-cap",
      str(oracle.ORACLE_CAP_MAX)], oracle.ORACLE_CAP_MAX),
])
def test_verify_accepts_keep_sets_within_the_dense_cap(capsys, monkeypatch,
                                                       argv, top):
    configs = []
    monkeypatch.setattr(verify, "run_checks",
                        lambda config: configs.append(config) or [])
    assert main(argv) == 0
    assert [min(c.n_max, c.oracle_cap) for c in configs] == [top]


def test_an_internal_fault_exits_3_without_a_traceback(capsys, monkeypatch):
    # A fault of the program, not of its input (here an AssertionError, as
    # pauli.expectation raises on an imaginary residue), is reported on
    # stderr with its own exit code; nothing reaches stdout.
    def faulty(config, shared=None):
        raise AssertionError("expectation has imaginary residue 0.5")

    monkeypatch.setattr(verify, "ALL_CHECKS",
                        verify.ALL_CHECKS[:-1] + (faulty,))
    assert main(["verify", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal error: AssertionError: "
                            "expectation has imaginary residue 0.5\n")


def _refuse_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran work despite a size refusal")

    monkeypatch.setattr(oracle, "build_encoded_state", refuse)
    monkeypatch.setattr(leakage, "bloch_grid", refuse)
    monkeypatch.setattr(verify, "run_checks", refuse)


@pytest.mark.parametrize("argv", [
    ["reduce", "--n", "6", "--subset", "S1", "--psi", "0,0,1"],
    ["reduce", "--n", "6", "--subset", "S1", "--psi", "0,0,1",
     "--engine", "both"],
    ["sweep", "--n", "6", "--subset", "S1,N2"],
], ids=["reduce-oracle", "reduce-both", "sweep"])
def test_oracle_cap_is_refused_before_encoding(capsys, monkeypatch, argv):
    _refuse_work(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: n=6 exceeds the oracle cap 5 (13 qubits); "
                            "raise the cap explicitly to proceed\n")


@pytest.mark.parametrize("argv", [
    ["reduce", "--n", "6", "--subset", "S1,N2,S3,N4,S5,N6", "--psi", "0,0,1"],
    ["sweep", "--n", "6", "--subset", "S1,N2,S3,N4,S5,N6", "--grid", "6"],
], ids=["reduce", "sweep"])
def test_analytic_engine_runs_above_the_oracle_cap(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the analytic engine encoded a state")

    monkeypatch.setattr(oracle, "build_encoded_state", refuse)
    code, record = run_json(capsys, argv + ["--engine", "analytic"])
    assert code == 0
    assert record["n"] == 6 and record["rows"]


SUBSET_8 = "S1,N1,S2,N2,S3,N3,S4,N4"


@pytest.mark.parametrize("argv, qubits, grid, gib", [
    (["--n", "5", "--subset", "S1,S2,S3,S4,S5,N1,N2,N3,N4,N5"], 10, 1000,
     18.6),
    (["--n", "4", "--subset", SUBSET_8], 8, 833, 1.0),
    (["--n", "10", "--subset", "S1,N2,S3,N4,S5,N6,S7,N8,S9,N10",
      "--engine", "analytic"], 10, 26, 3.4),
])
def test_sweep_over_the_memory_budget_is_refused(capsys, monkeypatch, argv,
                                                 qubits, grid, gib):
    # 16 * 4**qubits bytes per state, for the grid and one pair batch.
    _refuse_work(monkeypatch)
    assert main(["sweep", "--grid", str(grid)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: sweep would hold {gib:.1f} GiB of "
                            f"{qubits}-qubit states, above the budget of "
                            f"1 GiB; lower --grid\n")


class _Reached(Exception):
    """Raised where a run is stopped; main reports it as an internal error."""


@pytest.mark.parametrize("argv", [
    ["--n", "4", "--subset", SUBSET_8, "--grid", "832"],
    ["--n", "5", "--subset", "S1,S2,S3,N1,N2,N3", "--grid", "1000"],
    ["--n", "9", "--subset", "S1,N2,S3,N4,S5,N6,S7,N8,S9",
     "--engine", "analytic"],
])
def test_sweep_within_the_memory_budget_builds_its_grid(capsys, monkeypatch,
                                                        argv):
    def reached(*args, **kwargs):
        raise _Reached("grid")

    monkeypatch.setattr(leakage, "bloch_grid", reached)
    assert main(["sweep"] + argv) == 3
    assert capsys.readouterr().err == "error: internal error: _Reached: grid\n"


@pytest.mark.parametrize("argv, message", [
    (["--n", "5", "--subset", "S1,S2,S3,S4,S5,N1,N2,N3,N4,N5",
      "--engine", "analytic", "--grid", "1000"],
     "analytic engine needs an aligned subset"),
    (["--n", "7", "--oracle-cap", "7",
      "--subset", "S1,S2,S3,S4,S5,S6,S7,N1,N2,N3,N4,N5,N6,N7"],
     "keeping 14 qubits exceeds the dense cap 12"),
], ids=["analytic-unaligned", "oracle-above-dense-cap"])
def test_sweep_budget_leaves_library_refusals_alone(capsys, argv, message):
    # Neither run forms a state of its subset's size, so the budget, which
    # counts dense states, does not apply: the library refuses the unaligned
    # subset, and the keep set above the dense cap is refused before the
    # budget is reached.
    assert main(["sweep"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


SUBSET_14 = ",".join([f"S{i}" for i in range(1, 8)]
                     + [f"N{i}" for i in range(1, 8)])


@pytest.mark.parametrize("argv", [
    ["reduce", "--psi", "0,1,0"],
    ["reduce", "--psi", "0,1,0", "--engine", "both"],
    ["sweep"],
], ids=["reduce-oracle", "reduce-both", "sweep"])
def test_keep_sets_above_the_dense_cap_are_refused_before_encoding(
        capsys, monkeypatch, argv):
    # The refusal depends only on the subset's size: nothing is encoded.
    _refuse_work(monkeypatch)
    assert main(argv + ["--n", "7", "--oracle-cap", "7",
                        "--subset", SUBSET_14]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: keeping 14 qubits exceeds the dense cap 12\n"


@pytest.mark.parametrize("verb", [
    ["reduce", "--psi", "0,0,1"],
    ["sweep"],
], ids=lambda v: v[0])
def test_analytic_engine_refuses_huge_aligned_subsets_as_at_n13(capsys, verb):
    # 2**-n as a float: 1.0 / 2**n overflowed from n = 1024 and ended in a
    # traceback; every n above the dense cap gets the same usage error.
    for n in (13, 1100):
        subset = ",".join(f"S{i}" for i in range(1, n + 1))
        assert main(verb + ["--n", str(n), "--subset", subset,
                            "--engine", "analytic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: PauliSum on {n} qubits exceeds "
                                f"dense cap 12\n")


@pytest.mark.parametrize("verb", [
    ["classify", "--n", "1", "--subset", "S1"],
    ["reduce", "--n", "1", "--subset", "S1", "--psi", "0,1,0"],
    ["table", "--n", "1"],
    ["sweep", "--n", "1", "--subset", "S1"],
    ["verify", "--n", "1"],
], ids=lambda v: v[0])
@pytest.mark.parametrize("sign", ["", "-"], ids=["above", "below"])
def test_seed_beyond_64_bits_is_a_usage_error(capsys, monkeypatch, verb, sign):
    _refuse_work(monkeypatch)
    seed = sign + "1" + "0" * 400
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bound = (f">= {-cli.SEED_MAX - 1}" if sign
             else f"<= {cli.SEED_MAX}")
    assert f"--seed: must be {bound}, got {seed}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("seed", [str(-cli.SEED_MAX - 1), str(cli.SEED_MAX)])
def test_seed_at_the_64_bit_bounds_sweeps(capsys, seed):
    code, record = run_json(capsys, ["sweep", "--n", "1", "--subset", "S1",
                                     "--grid", "8", "--seed", seed])
    assert code == 0
    assert record["seed"] == int(seed) and len(record["rows"]) == 8


def test_verify_reports_an_unresolved_sign_as_null(capsys, monkeypatch):
    # With the matching convention gone, resolve_sign_rule raises on every
    # call (lru_cache keeps no exception); the run still ends in JSON.
    monkeypatch.setattr(leakage, "CANDIDATE_SIGN_RULES",
                        (leakage.SignRule("constant_plus"),))
    leakage.resolve_sign_rule.cache_clear()
    try:
        code = main(["verify", "--n", "2"])
    finally:
        leakage.resolve_sign_rule.cache_clear()
    captured = capsys.readouterr()
    assert code == 1
    record = json.loads(captured.out)
    assert record["summary"] == {"passed": False, "sign": None}
    failed = {r["check"]: r["detail"] for r in record["rows"]
              if not r["passed"]}
    assert list(failed) == ["sign_resolution"]
    assert "match no candidate rule" in failed["sign_resolution"]
    assert "Traceback" not in captured.err


def test_verify_tampered_sign_fails(capsys, tampered_analytic_sign):
    code, record = run_json(capsys, ["verify", "--n", "2"])
    assert code == 1
    failed = [r["check"] for r in record["rows"] if not r["passed"]]
    assert failed == ["engine_agreement"]


def test_n1_note_on_stderr(capsys):
    main(["classify", "--n", "1", "--subset", "S1"])
    assert "n=1" in capsys.readouterr().err


def test_determinism_table_and_sweep(tmp_path):
    pairs = [
        ["table", "--n", "3", "--format", "csv"],
        ["table", "--n", "2", "--format", "json"],
        ["sweep", "--n", "2", "--subset", "S1,N2", "--format", "csv",
         "--seed", "3"],
        ["sweep", "--n", "3", "--subset", "S1,N2,N3", "--format", "json"],
    ]
    for idx, argv in enumerate(pairs):
        out_a = tmp_path / f"a{idx}"
        out_b = tmp_path / f"b{idx}"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes().endswith(b"\n")


def test_outputs_are_newline_terminated(capsys):
    main(["table", "--n", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert out.endswith("\n") and not out.endswith("\n\n")


def _stdout_sha256(capsys, argv) -> str:
    code = main(argv)
    assert code == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


# SHA-256 of `table --n K --format F` as first emitted, before the subset
# counts were stored at build time (n = 9: as emitted before the text of each
# row class was rendered once; n = 10, the enumeration guard: as emitted
# before each head count class was rendered once); the output must not change.
TABLE_DIGESTS = {
    (1, "csv"): "6ae46948374a8c6c912bdebf0032a8ea56c3d5ec1b1e28d492ff3bcf05b0143d",
    (1, "json"): "0c862c937dcf2cf6cc6a92dbbf61054bedef92e6ed7f2ccf68a5c94d88afa4fc",
    (2, "csv"): "cc5cf07488e8873334f9cafef26b51a1c1cf8e59e5d86e2981ce28cdb3271539",
    (2, "json"): "7a2e15968806ee4e7983d73e462e48094e7aff1533ccd1c91975a5edf097bd08",
    (3, "csv"): "7c3a9f9dcf32bfbbe4ac377e5cc7cbed6c4796a7b1d8a7695ef1c753b37b7f61",
    (3, "json"): "8d08a61772239d70ffc9974e56359c5c824488e0f53b6552a306f1471b3e2543",
    (4, "csv"): "2c1e21cfd28b602e5826732837b24513846641b6080d70760add7f7ad35006b5",
    (4, "json"): "f0488aa43dbe1d357ede340f28e8235c3eab14c7820ed8b7a1121c97fd1be0df",
    (5, "csv"): "bd9b2b5319541cc1cfb68608c9139dbdb644a68e267ba270b9927f5fff48db9f",
    (5, "json"): "bbc0c3e900af2167e5b477ef05dc67c226eef8bb49bc4953eec9fa1b7e4ffabe",
    (6, "csv"): "141bfd118aaa693047a6200d77b0cdb78872e2a5f9eb23919b019e786a1f1aca",
    (6, "json"): "f0d53f6c5bafadc757f3a9a457aa1bc50c6da2bc46e9e8fb36262f3e1e4192d6",
    (7, "csv"): "c31b5c09d0de1b1857809a83e9c248c66a34c8772673b67d65765f36a6c33b1a",
    (7, "json"): "9fc7ae61cbadefcfd225c9b4eae4731e4c02ffa9a41cf69763434c6e8d95f0b1",
    (8, "csv"): "ea85cefd7af9c6b6bf8d6de078087f57de78076d5ed9406541d4acc56d745af4",
    (8, "json"): "2d4d4cd9fe4246afd0efea4586e0b7fb91fa697db825c9c110dd8833842c0d31",
    (9, "csv"): "ea2b6716da770f35a4e3ebaee80242323f6eb0a597a4cbfbe8574f6b3a86bc24",
    (9, "json"): "e84b6fd9abc910bcb934d0560de78cb54e2e3d05727a04c74fe7e7b94f37acf2",
    (10, "csv"): "f25a3f3971723e6605b22b01b76d05b2fcf4bca7fcd497e55981e1e2db111263",
    (10, "json"): "7cd5964d58a9d737de42e3facce89460c9dbabe5773892e062dfe2a4da0ffe65",
}


@pytest.mark.parametrize("n,fmt", sorted(TABLE_DIGESTS))
def test_table_bytes_unchanged(capsys, n, fmt):
    argv = ["table", "--n", str(n), "--format", fmt]
    assert _stdout_sha256(capsys, argv) == TABLE_DIGESTS[(n, fmt)]


def test_table_streams_in_bounded_memory(tmp_path):
    # The rows are made as they are written; at n = 6 the JSON is 0.9 MB,
    # at n = 8 15 MB, from 4 096 heads that are never held at once.
    for n in (6, 8):
        out = tmp_path / f"table{n}.json"
        tracemalloc.start()
        try:
            assert main(["table", "--n", str(n), "--format", "json",
                         "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hashlib.sha256(out.read_bytes()).hexdigest() \
            == TABLE_DIGESTS[(n, "json")]
        assert peak < 2 * 2 ** 20, n


class _CountingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("n,fmt", [(7, "json"), (8, "csv")])
def test_table_writes_in_large_blocks(monkeypatch, n, fmt):
    fake = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", fake)
    assert main(["table", "--n", str(n), "--format", fmt]) == 0
    output = "".join(fake.writes)
    assert hashlib.sha256(output.encode("utf-8")).hexdigest() \
        == TABLE_DIGESTS[(n, fmt)]
    assert len(fake.writes) <= len(output) // 65536 + 2
    assert all(cli.EMIT_BLOCK <= len(w) <= 2 * cli.EMIT_BLOCK
               for w in fake.writes[:-1])


def _pieces(sizes):
    return ["".join(chr(97 + (i + j) % 26) for j in range(size))
            for i, size in enumerate(sizes)]


@pytest.mark.parametrize("sizes", [
    [0, 21_000, 0, 22_000, 23_000, 0, 20_000, 25_000, 21_845, 21_845,
     21_846, 30_000, 0, 0],
    [cli.EMIT_BLOCK, 1, cli.EMIT_BLOCK - 1, 1, 0],
    [5, 0, 7],
    [0, 0],
    [],
])
def test_blocks_flush_once_they_hold_emit_block(sizes):
    pieces = _pieces(sizes)
    blocks = list(cli._blocks(iter(pieces)))
    assert "".join(blocks) == "".join(pieces)
    assert all(blocks)
    # Each block ends where a nonempty piece ends; that piece filled it.
    last_piece, end = {}, 0
    for piece in pieces:
        end += len(piece)
        if piece:
            last_piece[end] = len(piece)
    end = 0
    for block in blocks[:-1]:
        end += len(block)
        assert cli.EMIT_BLOCK <= len(block) < cli.EMIT_BLOCK + last_piece[end]
    if blocks:
        assert end + len(blocks[-1]) in last_piece


def test_blocks_read_no_piece_past_the_first_block():
    def pieces():
        yield from _pieces([cli.EMIT_BLOCK // 2] * 2)
        raise AssertionError("a piece past the first block was read")

    assert len(next(cli._blocks(pieces()))) == cli.EMIT_BLOCK


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_renders_each_row_class_once(capsys, monkeypatch, fmt):
    # n = 8 has 164 count classes (#BOTH, #SIGNAL, #NOISE, #NONE) among its
    # 65 535 patterns. Classes with the same size, p, q and verdict share
    # their row fields, and each distinct row text is rendered once.
    classes = [RegisterSubset(8, tags) for tags in
               itertools.combinations_with_replacement(PairTag, 8)]
    fields = {row_fields(s, classify(s)) for s in classes if s.size}
    assert len(classes) - 1 == 164 and len(fields) == 108
    made, structural_row = [], cli._structural_row

    def counting(pattern, fields):
        made.append(fields)
        return structural_row(pattern, fields)

    monkeypatch.setattr(cli, "_structural_row", counting)
    assert _stdout_sha256(capsys, ["table", "--n", "8", "--format", fmt]) \
        == TABLE_DIGESTS[(8, fmt)]
    assert len(made) == len(set(made)) and set(made) == fields


def test_json_rows_from_the_shape_match_the_encoder():
    # Every row-fields tuple of n <= 8 under its first pattern's label, then
    # values the encoder escapes, and values equal to earlier ones (1, 1.0
    # and True) whose texts differ.
    render = cli._json_flat_rows(cli.TABLE_COLUMNS)
    rows = []
    for n in range(1, 9):
        for counts in enumerate_classifications(n).classes():
            subset = first_pattern(n, counts)
            rows.append(cli._structural_row(
                subset.labels(), row_fields(subset, classify(subset))))
    rows += [rows[0] | {"pattern": 'S1"\\\n\t\x00\u00e9\u2028@', "rule": "/"},
             rows[0] | {"size": 1.0, "p": True, "max_distance": 1e-300},
             rows[0] | {"size": True, "q": 0.0, "y_signal": False}]
    for row in rows:
        assert render(row) == cli._json_row(row)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cell", ["@", "x@y", '"@"'])
def test_table_refuses_a_cell_holding_the_label_marker(capsys, monkeypatch,
                                                       fmt, cell):
    # A cell that holds the marker would take a prefix's label in its place;
    # in JSON the marker's text '"@"' is also the row shape's hole.
    structural_row = cli._structural_row
    monkeypatch.setattr(cli, "_structural_row", lambda pattern, fields: (
        structural_row(pattern, fields) | {"rule": cell}))
    assert main(["table", "--n", "3", "--format", fmt]) == 3
    assert capsys.readouterr().err == (
        "error: internal error: RuntimeError: a row does not hold the label "
        "marker '@' exactly once\n")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_matches_the_stdlib_writers(capsys, n):
    # Eager rows from iterating the view, written by json.dumps and
    # csv.writer as a whole: no recorded digest involved.
    table = enumerate_classifications(n)
    rows = [dict(zip(cli.TABLE_COLUMNS, (subset.labels(),)
                     + row_fields(subset, cls) + (None, None)))
            for subset, cls in table]
    counts = dict.fromkeys((v.value for v in Verdict), 0)
    for row in rows:
        counts[row["verdict"]] += 1
    record = {"n": n, "engine": "oracle", "seed": 0, "rows": rows,
              "summary": {"patterns": len(rows), "verdict_counts": counts},
              "tolerances": asdict(leakage.TOLERANCES)}
    assert main(["table", "--n", str(n), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(record, indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(cli.TABLE_COLUMNS)
    writer.writerows(row.values() for row in rows)
    assert main(["table", "--n", str(n), "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected.getvalue()


# CSV with bool, float and None cells, as first emitted when every cell went
# through str/repr by hand. The float cells come from numpy's linear algebra;
# these digests were recorded with numpy 2.4 and OpenBLAS on x86-64. The
# verify digest was re-recorded when the missing-pair distance became the
# pole bound max sum_j D_j (2.073e-16; the grid maximum was 3.331e-16), and
# again when the pattern checks began probing one pattern per pair orbit and
# their details began counting the orbits ("6 patterns (3 orbits probed)",
# "18 patterns (12 orbits probed)"; the distance is unchanged at n <= 2).
# It was re-recorded once more when wide factors (d_keep <= 2 k) began taking
# their trace distance from the Gram difference P P^dagger - M M^dagger
# instead of a QR: the missing-pair round-off went from 2.073e-16 to
# 2.465e-32, and no other byte changed. It was re-recorded again when the
# pattern checks began deciding count classes by containment and their
# details began counting the classes probed and decided ("6 patterns
# (3 classes: 1 probed, 2 by containment)", "18 patterns (12 classes:
# 10 probed, 2 by containment)"); the distance is unchanged. The
# `verify --n 4` digest, the benchmark's own size, was recorded before the
# engine-agreement check began forming the calculus from its affine form.
# Both verify digests were re-recorded when the grid checks began reading
# their states from the Gram blocks of the encoder's two-state span: the
# round-off of the engine-agreement maximum went from 2.222e-16 to
# 1.666e-16, and the singleton maximum from 3.331e-16 to 2.776e-16
# (n <= 2) and from 6.661e-16 to 3.886e-16 (n <= 4); no other byte changed.
# Both were re-recorded again when the grid checks became exact identities
# on the span's integer rows: their details now count the exact cases
# ("exact on 14 aligned shapes across n<=4", "exact on 21 single qubits
# across n=2..4") instead of printing round-off maxima; no other byte
# changed. Both were re-recorded again when the pole probes began deciding
# each distance by exact identities: the missing-pair maximum is exactly
# 0.000e+00 (2.465e-32 at n <= 2, 1.888e-16 at n <= 4), and at n = 3 the
# parity check probes the three smallest authorized classes, which an
# informative probe no longer decides ("65 classes: 30 probed, 35 by
# containment", 27 and 38 before); no other byte changed. Both were
# re-recorded again when the missing-pair check began comparing each class's
# pole pattern with (0, 0, 0): its detail reads "... by containment) agree
# across n=2..4" instead of "... by containment), max distance 0.000e+00
# (threshold 1e-10) across n<=4"; no other byte changed.
CSV_DIGESTS = {
    ("verify", "--n", "2"):
        "dd5105a258405f09840e583c28d8ffabddee8b7edd9c9cd8457d1cdabcbfc4a7",
    ("verify", "--n", "4"):
        "d85cf447c2883205246d8eea411a1fec01c6e23dbf71419c784ba59beefe61cf",
    ("sweep", "--n", "3", "--subset", "S1,N2,N3"):
        "a7937bc06659e04131d48a1b4eaa1924334978184f3400ad8a08cc89b5101cca",
    ("reduce", "--n", "3", "--subset", "S1,N2,S3", "--psi", "0,0.6,0.8",
     "--engine", "both"):
        "c58c450fbff19f5155fd6ea9b9c909f06bb9015a6e065bb743947f3188006c7f",
}


# Each case is named by its verb; the benchmark's own size is verify-n4.
@pytest.mark.parametrize("argv", sorted(CSV_DIGESTS),
                         ids=lambda a: ("verify-n4" if a == ("verify", "--n", "4")
                                        else a[0]))
def test_csv_cells_unchanged(capsys, argv):
    digest = _stdout_sha256(capsys, list(argv) + ["--format", "csv"])
    assert digest == CSV_DIGESTS[argv]


def test_csv_writes_booleans_as_json_does(capsys):
    code, rows = run_csv(capsys, ["verify", "--n", "1", "--format", "csv"])
    assert code == 1
    assert {r["check"]: r["passed"] for r in rows}["singleton_mixedness"] \
        == "false"
    assert {r["passed"] for r in rows} == {"true", "false"}


@pytest.mark.parametrize("verb", [
    ["classify", "--subset", "S1"],
    ["reduce", "--subset", "S1", "--psi", "0,1,0"],
    ["sweep", "--subset", "S1"],
    ["table"],
])
@pytest.mark.parametrize("n", [cli.N_MAX + 1, 10 ** 9])
def test_n_above_the_bound_is_refused_before_parsing(capsys, monkeypatch,
                                                     verb, n):
    def refuse(*args, **kwargs):
        raise AssertionError("built a subset despite an invalid --n")

    monkeypatch.setattr(RegisterSubset, "__post_init__", refuse)
    monkeypatch.setattr(cli, "parse_subset", refuse)
    with pytest.raises(SystemExit) as exc:
        main(verb[:1] + ["--n", str(n)] + verb[1:])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--n: must be <= {cli.N_MAX}, got {n}" in captured.err


def test_classify_at_the_n_bound(capsys):
    code, record = run_json(capsys, ["classify", "--n", str(cli.N_MAX),
                                     "--subset", "S1"])
    assert code == 0
    assert record["summary"]["rule"] == "PROP1_MISSING_PAIR"


def test_verify_json_carries_n_range(capsys):
    code, record = run_json(capsys, ["verify", "--n", "4",
                                     "--oracle-cap", "2"])
    assert code == 0
    ranges = {r["check"]: r.get("n_range") for r in record["rows"]}
    assert ranges == {
        "bell_trace_identities": None, "phase_table_decomposition": None,
        "interference_sums": None, "sign_resolution": None,
        "engine_agreement": [1, 2], "missing_pair_uninformative": [2, 2],
        "parity_classification": [1, 2], "singleton_mixedness": [2, 2]}
    assert all(set(r) == {"check", "passed", "detail"}
               for r in record["rows"] if r["check"] not in BRUTE_FORCE)
    code, rows = run_csv(capsys, ["verify", "--n", "4", "--oracle-cap", "2",
                                  "--format", "csv"])
    assert [set(r) for r in rows] == [{"check", "passed", "detail"}] * 8


def test_verify_json_empty_n_range(capsys):
    code, record = run_json(capsys, ["verify", "--n", "0"])
    assert code == 1
    ranges = {r["check"]: r["n_range"] for r in record["rows"]
              if r["check"] in BRUTE_FORCE}
    assert ranges == {"engine_agreement": [1, 0],
                      "missing_pair_uninformative": [2, 0],
                      "parity_classification": [1, 0],
                      "singleton_mixedness": [2, 0]}
