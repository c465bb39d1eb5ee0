"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time

import numpy as np
import pytest

from cloneleak import (analytic_reduced_state, bloch_grid, build_encoded_state,
                       pauli_sum_to_dense, state_from_bloch, trace_distance)
from cloneleak.branch import interference_table, leak_sum_closed_form, table_sum
from cloneleak.cli import main
from cloneleak.leakage import (ENGINE_ORACLE, aligned_subset,
                               fixed_y_slice_probe, keep_positions,
                               reduced_state, resolve_sign_rule,
                               y_leak_estimate)
from cloneleak.oracle import noise_position, reduced_density, signal_position
from cloneleak.verify import (VerifyConfig, check_missing_pair_uninformative,
                              check_parity_classification,
                              check_sign_resolution, check_singleton_mixedness)

from conftest import I2, Y, kron_chain

GRID = bloch_grid(26, 0)


def _ok(num, name, detail=""):
    print(f"ACCEPTANCE {num} ({name}): PASS {detail}".rstrip())


def test_criterion_1_single_pair_golden_cases():
    tol = 1e-12
    start = time.perf_counter()
    worst = 0.0
    for b in GRID:
        y = b[1]
        state = build_encoded_state(1, state_from_bloch(b))
        expected_s = (I2 + y * Y) / 2
        expected_n = I2 / 2
        rho_s = reduced_density(state, [signal_position(1)])
        rho_n = reduced_density(state, [noise_position(1)])
        worst = max(worst, np.abs(rho_s - expected_s).max(),
                    np.abs(rho_n - expected_n).max())
        ana_s = pauli_sum_to_dense(analytic_reduced_state(1, 1, b))
        ana_n = pauli_sum_to_dense(analytic_reduced_state(1, 0, b))
        worst = max(worst, np.abs(ana_s - expected_s).max(),
                    np.abs(ana_n - expected_n).max())
    elapsed = time.perf_counter() - start
    assert worst < tol
    assert elapsed < 1.0
    _ok(1, "n=1 golden cases",
        f"max entry error {worst:.2e} over 26 states, {elapsed:.2f}s")


def test_criterion_2_two_pair_cancellation():
    tol = 1e-12
    start = time.perf_counter()
    flat = np.eye(4) / 4
    worst = 0.0
    for b in GRID:
        state = build_encoded_state(2, state_from_bloch(b))
        for p in (0, 1, 2):
            keep = keep_positions(aligned_subset(2, p))
            worst = max(worst, trace_distance(reduced_density(state, keep), flat))
            ana = pauli_sum_to_dense(analytic_reduced_state(2, p, b))
            worst = max(worst, trace_distance(ana, flat))
    elapsed = time.perf_counter() - start
    assert worst < tol
    assert elapsed < 1.0
    _ok(2, "n=2 cancellation",
        f"max trace distance {worst:.2e} over p=0,1,2 x 26 states, {elapsed:.2f}s")


def test_criterion_3_three_pair_cases_and_sign():
    tol_exact = 1e-12
    tol_engines = 1e-10
    resolution = resolve_sign_rule()
    s = resolution.rule.sign_for(3)
    assert s in (-1, 1)
    yyy = kron_chain(Y, Y, Y)
    worst_exact = 0.0
    worst_engines = 0.0
    for b in GRID:
        y = b[1]
        state = build_encoded_state(3, state_from_bloch(b))
        cases = {
            2: np.eye(8) / 8,                 # S1,S2,N3
            1: (np.eye(8) + s * y * yyy) / 8,  # S1,N2,N3
            3: (np.eye(8) + s * y * yyy) / 8,  # S1,S2,S3
        }
        for p, expected in cases.items():
            keep = keep_positions(aligned_subset(3, p))
            rho = reduced_density(state, keep)
            worst_exact = max(worst_exact, np.abs(rho - expected).max())
            ana = pauli_sum_to_dense(analytic_reduced_state(3, p, b))
            worst_engines = max(worst_engines, np.abs(rho - ana).max())
    assert worst_exact < tol_exact
    assert worst_engines < tol_engines
    report = check_sign_resolution(VerifyConfig())
    assert report.passed
    assert "alternating" in report.detail  # which convention the sign matches
    assert "n=3: -1" in report.detail
    _ok(3, "n=3 cases",
        f"global sign s={s:+d}; verify report: {report.detail!r}; "
        f"max error {worst_exact:.2e}, engine gap {worst_engines:.2e}")


def test_criterion_4_interference_sum_identities():
    start = time.perf_counter()
    for n in range(1, 13):
        for p in range(0, n + 1):
            assert table_sum(interference_table(n, p, 1)) == 0
            assert table_sum(interference_table(n, p, 3)) == 0
            t2 = table_sum(interference_table(n, p, 2))
            assert abs(t2) == abs(leak_sum_closed_form(n, p))
            assert t2 == leak_sum_closed_form(n, p)  # sign matches as well
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(4, "interference sum identities", f"exact for n<=12, {elapsed:.2f}s")


def test_criterion_5_missing_pair_exhaustive():
    start = time.perf_counter()
    result = check_missing_pair_uninformative(VerifyConfig(n_max=4))
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 120.0
    _ok(5, "missing-pair uninformativeness", f"{result.detail}, {elapsed:.1f}s")


def test_criterion_6_classifier_vs_probes_exhaustive():
    result = check_parity_classification(VerifyConfig(n_max=4))
    assert result.passed, result.detail
    _ok(6, "classifier vs probes", result.detail)


def test_criterion_7_leakage_readout_linearity():
    tol = 1e-10
    resolution = resolve_sign_rule()
    ys = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for n, p in ((1, 1), (3, 1), (3, 3)):
        s = resolution.rule.sign_for(n)
        subset = aligned_subset(n, p)
        estimates = []
        for y in ys:
            b = [np.sqrt(max(0.0, 1 - y * y)), y, 0.0]
            rho = reduced_state(subset, b, ENGINE_ORACLE)
            est = y_leak_estimate(rho, n)
            assert abs(est - s * y) < tol
            estimates.append(est)
        slope = (estimates[-1] - estimates[0]) / 2.0
        intercept = estimates[2]
        assert abs(abs(slope) - 1.0) < tol
        assert abs(intercept) < tol
        assert fixed_y_slice_probe(subset, 0.5, 8) < tol
    _ok(7, "leakage readout",
        "linear in y with unit slope, zero intercept, flat fixed-y slices")


def test_criterion_8_singletons_maximally_mixed():
    result = check_singleton_mixedness(VerifyConfig(n_max=4))
    assert result.passed, result.detail
    _ok(8, "singleton mixedness", result.detail)


def test_criterion_9_byte_identical_outputs(tmp_path):
    jobs = [
        ["table", "--n", "3", "--format", "csv"],
        ["table", "--n", "3", "--format", "json"],
        ["sweep", "--n", "3", "--subset", "S1,N2,N3", "--format", "csv"],
        ["sweep", "--n", "3", "--subset", "S1,N2,N3", "--format", "json"],
    ]
    for idx, argv in enumerate(jobs):
        first = tmp_path / f"first{idx}"
        second = tmp_path / f"second{idx}"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    _ok(9, "deterministic output", f"{len(jobs)} command pairs byte-identical")
