import pytest

from cloneleak import branch, subsets
from cloneleak.leakage import aligned_subset, fixed_y_slice_probe
from cloneleak.verify import (VerifyConfig, check_bell_trace_identities,
                              check_engine_agreement,
                              check_interference_sums,
                              check_parity_classification,
                              check_phase_table_decomposition,
                              check_sign_resolution, run_checks)


def test_engine_agreement_up_to_four_pairs():
    result = check_engine_agreement(VerifyConfig(n_max=4))
    assert result.passed, result.detail


def test_engine_agreement_detects_tampered_sign():
    result = check_engine_agreement(VerifyConfig(n_max=1,
                                                 tamper_analytic_sign=True))
    assert not result.passed
    assert "n=1, p=1" in result.detail


def test_parity_classification_detects_flipped_classifier_sign(monkeypatch):
    # The classifier's sign comes from the closed form; flipping it there
    # must contradict the brute-force pole signal.
    monkeypatch.setattr(subsets, "leak_sum_closed_form",
                        lambda n, p: -branch.leak_sum_closed_form(n, p))
    result = check_parity_classification(VerifyConfig(n_max=1))
    assert not result.passed
    assert "n=1 S1: pole signal +1.000e+00 != predicted -1" in result.detail


def test_fixed_y_independence_all_aligned_shapes():
    # Unauthorized aligned subsets depend on the input only through y.
    for n in range(1, 5):
        for p in range(0, n + 1):
            assert fixed_y_slice_probe(n, aligned_subset(n, p), 0.5, 6) < 1e-10


def test_fast_checks_pass():
    config = VerifyConfig()
    for check in (check_bell_trace_identities, check_phase_table_decomposition,
                  check_interference_sums, check_sign_resolution):
        result = check(config)
        assert result.passed, f"{result.name}: {result.detail}"


def test_full_battery_small_config_all_named_checks():
    results = run_checks(VerifyConfig(n_max=2))
    names = [r.name for r in results]
    assert names == ["bell_trace_identities", "phase_table_decomposition",
                     "interference_sums", "sign_resolution",
                     "engine_agreement", "missing_pair_uninformative",
                     "parity_classification", "singleton_mixedness"]
    assert all(r.passed for r in results)
