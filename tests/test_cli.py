import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cloneleak import cli, leakage, oracle, verify
from cloneleak.cli import SubsetSpecError, main, parse_bloch, parse_subset
from cloneleak.subsets import PairTag, RegisterSubset

B, S, N, E = PairTag.BOTH, PairTag.SIGNAL, PairTag.NOISE, PairTag.NONE


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
