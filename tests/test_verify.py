import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneleak import branch, cli, leakage, oracle, subsets, verify
from cloneleak.leakage import aligned_subset, bloch_grid, fixed_y_slice_probe
from cloneleak.pauli import COEFF_PRUNE, bloch_from_state, pauli_sum_to_dense
from cloneleak.subsets import PairTag, RegisterSubset, enumerate_classifications
from cloneleak.verify import (VerifyConfig, check_bell_trace_identities,
                              check_engine_agreement,
                              check_interference_sums,
                              check_missing_pair_uninformative,
                              check_parity_classification,
                              check_phase_table_decomposition,
                              check_sign_resolution,
                              check_singleton_mixedness, class_contains,
                              run_checks)

BRUTE_FORCE_CHECKS = ("engine_agreement", "missing_pair_uninformative",
                      "parity_classification", "singleton_mixedness")


def test_engine_agreement_up_to_four_pairs():
    result = check_engine_agreement(VerifyConfig(n_max=4))
    assert result.passed, result.detail


def test_engine_agreement_detects_tampered_sign(tampered_analytic_sign):
    result = check_engine_agreement(VerifyConfig(n_max=1))
    assert not result.passed
    assert "n=1, p=1" in result.detail


def test_parity_classification_detects_flipped_classifier_sign(monkeypatch):
    # The classifier's sign comes from the closed form; flipping it there
    # must contradict the brute-force pole signal. classify keeps one verdict
    # per count class, so that cache is emptied around the flip.
    monkeypatch.setattr(subsets, "leak_sum_closed_form",
                        lambda n, p: -branch.leak_sum_closed_form(n, p))
    subsets._classify_counts.cache_clear()
    try:
        result = check_parity_classification(VerifyConfig(n_max=1))
    finally:
        subsets._classify_counts.cache_clear()
    assert not result.passed
    assert "n=1 S1: pole signal +1.000e+00 != predicted -1" in result.detail


def test_parity_classification_fails_on_a_negated_pole_signal(monkeypatch):
    # Negative control: pauli.expectation, under the name the probe calls,
    # reports every value negated, so each pole signal contradicts its sign.
    exact = leakage.expectation
    monkeypatch.setattr(leakage, "expectation",
                        lambda *args, **kwargs: -exact(*args, **kwargs))
    result = check_parity_classification(VerifyConfig(n_max=3))
    assert not result.passed
    assert "n=1 S1: pole signal -1.000e+00 != predicted +1" in result.detail


def test_fixed_y_independence_all_aligned_shapes():
    # Unauthorized aligned subsets depend on the input only through y.
    for n in range(1, 5):
        for p in range(0, n + 1):
            assert fixed_y_slice_probe(aligned_subset(n, p), 0.5, 6) < 1e-10


def test_fast_checks_pass():
    config = VerifyConfig()
    for check in (check_bell_trace_identities, check_phase_table_decomposition,
                  check_interference_sums, check_sign_resolution):
        result = check(config)
        assert result.passed, f"{result.name}: {result.detail}"


def _flip_table_entry(monkeypatch, at_n, at_j, entry):
    # Negative control: every table of component at_j at n = at_n comes
    # back with one entry's sign flipped.
    table = branch.interference_table

    def flipped(n, p, j):
        out = table(n, p, j)
        if (n, j) == (at_n, at_j):
            out[(..., *entry)] *= -1
        return out

    monkeypatch.setattr(branch, "interference_table", flipped)


@pytest.mark.parametrize("at_n, at_j, entry, detail", [
    (3, 1, (0, 1), "x/z sum nonzero at n=3, p=0: -2j, 0j"),
    (5, 3, (0, 3), "x/z sum nonzero at n=5, p=0: 0j, -2j"),
    (2, 2, (0, 2), "y sum -2j != closed form at n=2, p=0"),
])
def test_interference_sums_fail_on_a_flipped_entry(monkeypatch, at_n, at_j,
                                                    entry, detail):
    _flip_table_entry(monkeypatch, at_n, at_j, entry)
    result = check_interference_sums(VerifyConfig())
    assert not result.passed
    assert result.detail == detail


def test_sign_resolution_fails_on_a_flipped_entry(monkeypatch):
    _flip_table_entry(monkeypatch, 3, 2, (0, 2))
    result = check_sign_resolution(VerifyConfig())
    assert not result.passed
    assert result.detail.startswith(
        "analytic sum (-2+0j) at n=3, p=1 contradicts the resolved rule; "
        "measured n=1: +1, n=3: -1; ")
    assert "complex128" not in result.detail


def test_full_battery_small_config_all_named_checks():
    results = run_checks(VerifyConfig(n_max=2))
    names = [r.name for r in results]
    assert names == ["bell_trace_identities", "phase_table_decomposition",
                     "interference_sums", "sign_resolution",
                     "engine_agreement", "missing_pair_uninformative",
                     "parity_classification", "singleton_mixedness"]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("config", [VerifyConfig(n_max=3, oracle_cap=0),
                                    VerifyConfig(n_max=0)])
def test_empty_brute_force_range_fails(config):
    results = {r.name: r for r in run_checks(config)}
    for name in BRUTE_FORCE_CHECKS:
        assert not results[name].passed, results[name].detail
        assert results[name].detail.startswith("no n to check")
    assert all(r.passed for name, r in results.items()
               if name not in BRUTE_FORCE_CHECKS)


def test_details_state_the_n_range_covered():
    # n_max above the cap: the checks cover n <= cap and say so.
    config = VerifyConfig(n_max=7, oracle_cap=2)
    assert check_engine_agreement(config).detail.endswith(" across n<=2")
    assert (check_missing_pair_uninformative(config).detail
            == "6 patterns (3 classes: 1 probed, 2 by containment) agree "
               "across n=2..2")
    assert (check_parity_classification(config).detail
            == "18 patterns (12 classes: 10 probed, 2 by containment) "
               "agree across n<=2")
    assert check_singleton_mixedness(config).detail.endswith(" across n=2..2")


def test_missing_pair_check_at_n1_fails_with_empty_range():
    # The one pair of n = 1 is never missing: no pattern to check there.
    result = check_missing_pair_uninformative(VerifyConfig(n_max=1))
    assert not result.passed
    assert result.detail == "no n to check in n=2..1: n_max=1, oracle cap 5"
    assert result.n_range == (2, 1)


def test_singleton_check_at_n1_fails_with_empty_range():
    # The claim starts at n=2, so n_max=1 leaves it nothing to check.
    result = check_singleton_mixedness(VerifyConfig(n_max=1))
    assert not result.passed
    assert result.detail == "no n to check in n=2..1: n_max=1, oracle cap 5"


def test_pattern_probes_encode_the_span_once_per_n(monkeypatch):
    # Each pattern check encodes the span once per n, its rows enc(|0>),
    # enc(|1>) and the grid it is certified on, and reads the six poles
    # from it, although the parity check probes in two stages at even n,
    # where no aligned class leaks and the smallest authorized classes take
    # a stage of their own. Its fixed-y slice of each partially informative
    # class (S1 at n = 1; S1,N2,N3 and S1,S2,S3 at n = 3) encodes its 8
    # points in one call.
    encoded, calls = [], []
    build = oracle.build_encoded_state

    def counting(n, psi, *args, **kwargs):
        calls.append(np.ndim(psi))
        encoded.extend((n, bloch_from_state(row))
                       for row in np.reshape(psi, (-1, 2)))
        return build(n, psi, *args, **kwargs)

    monkeypatch.setattr(oracle, "build_encoded_state", counting)
    angles = np.pi * np.arange(8) / 4
    ring = np.column_stack([np.sqrt(0.75) * np.cos(angles), np.full(8, 0.5),
                            np.sqrt(0.75) * np.sin(angles)])
    span = np.concatenate([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                           bloch_grid(26, 0)])
    for check, stages, slices in (
            (check_missing_pair_uninformative, [2, 3], {}),
            (check_parity_classification, [1, 2, 3, 4], {1: 1, 3: 2})):
        encoded.clear()
        calls.clear()
        assert check(VerifyConfig(n_max=max(stages))).passed
        assert set(calls) == {2}  # every call encodes a stack
        assert [n for n, _ in encoded] == [
            n for n in stages for _ in range(28 + 8 * slices.get(n, 0))]
        np.testing.assert_allclose(
            [b for _, b in encoded],
            np.concatenate([np.concatenate([span] + [ring] * slices.get(n, 0))
                            for n in stages]),
            atol=1e-12)


@pytest.mark.parametrize("check", [check_engine_agreement,
                                   check_singleton_mixedness])
def test_grid_checks_encode_each_grid_in_one_call(monkeypatch, check):
    # Per n, one encoder call gives the span's rows enc(|0>), enc(|1>) and
    # one stacked call covers the whole grid, the span's certificate.
    calls = []
    build = oracle.build_encoded_state

    def counting(n, psi):
        calls.append((n, np.shape(psi)))
        return build(n, psi)

    monkeypatch.setattr(oracle, "build_encoded_state", counting)
    result = check(VerifyConfig(n_max=4, grid_size=10))
    assert result.passed, result.detail
    first = result.n_range[0]
    assert calls == [(n, shape) for n in range(first, 5)
                     for shape in ((2, 2), (10, 2))]


def test_pattern_checks_probe_one_subset_per_pair_orbit(monkeypatch):
    # Each pattern keeps a distinct qubit set, so the distinct keep sets
    # reduced at each n are the subsets probed: one per probed count class,
    # the others being decided by containment. The parity check's fixed-y
    # slices reduce the keep sets of subsets it probed. A stacked call (the
    # span's two integer rows) counts once, with n read from the length of
    # one state. At n = 3 the smallest authorized classes (1, s, 2 - s, 0)
    # are probed: each holds a leaking aligned class, which bounds its
    # pattern below by (0, 1, 0) only.
    reduced = []
    factor = oracle.reduced_factor

    def recording(state, keep):
        size = np.shape(state)[-1]
        reduced.append(((size.bit_length() - 2) // 2, tuple(keep)))
        return factor(state, keep)

    monkeypatch.setattr(oracle, "reduced_factor", recording)
    for check, probed in ((check_parity_classification,
                           {1: 3, 2: 7, 3: 9, 4: 11}),
                          (check_missing_pair_uninformative,
                           {2: 1, 3: 1, 4: 1})):
        reduced.clear()
        result = check(VerifyConfig(n_max=4))
        assert result.passed, result.detail
        assert Counter(n for n, _ in set(reduced)) == probed
        assert f": {sum(probed.values())} probed, " in result.detail
    # The missing-pair check probes only the largest missing-pair class.
    assert set(reduced) == {
        (n, tuple(range(1, 2 * n - 1))) for n in (2, 3, 4)}


@pytest.mark.parametrize("check", [check_missing_pair_uninformative,
                                   check_parity_classification])
def test_pattern_checks_fail_without_pair_symmetry(asymmetric_pair_encoding,
                                                   check):
    result = check(VerifyConfig(n_max=3))
    assert not result.passed
    assert result.detail.startswith("pair symmetry not certified: n=2: ")
    assert "transposition of pairs 1 and 2" in result.detail
    assert result.n_range[1] == 1


def test_pair_symmetry_certificate_refuses_asymmetric_encoders(
        asymmetric_pair_encoding):
    # n = 1 has no pair to swap with; from n = 2 on every swap is checked.
    subs = [sub for sub, _ in enumerate_classifications(1)]
    assert len(leakage.probe_patterns(1, subs)) == 3
    for n in (2, 3):
        subs = [sub for sub, _ in enumerate_classifications(n)]
        with pytest.raises(leakage.PairSymmetryError,
                           match=f"n={n}: .* pairs 1 and 2"):
            leakage.probe_patterns(n, subs)


def test_engine_agreement_sums_each_table_once_per_aligned_shape(
        monkeypatch):
    # The 14 aligned shapes (n, p) at n <= 4 take one stacked interference
    # table per (n, j), over p = 0..n: 12 calls.
    tables = []
    table = branch.interference_table

    def counting(n, p, j):
        tables.append((n, tuple(np.atleast_1d(p).tolist()), j))
        return table(n, p, j)

    monkeypatch.setattr(branch, "interference_table", counting)
    branch._component_coefficients.cache_clear()
    try:
        assert check_engine_agreement(VerifyConfig(n_max=4)).passed
    finally:
        branch._component_coefficients.cache_clear()
    assert sorted(tables) == [(n, tuple(range(n + 1)), j)
                              for n in range(1, 5) for j in (1, 2, 3)]


@pytest.mark.parametrize("size", [6, 7, 26, 27, 1000])
def test_affine_engine_states_equal_the_per_point_calculus(size):
    # The engine-agreement identities read the calculus at b = 0, e_x, e_y,
    # e_z only, as D0 and the slopes Dj - D0 (D_b = 2^n times its state).
    # Extended affinely, they give the calculus formed at each grid point,
    # entry for entry, so the identities cover every point.
    for seed in (0, 3):
        grid = bloch_grid(size, seed)
        for n in range(1, 7):
            for p in range(n + 1):
                d0, *at_axes = [2.0 ** n * pauli_sum_to_dense(
                    branch.analytic_reduced_state(n, p, b))
                    for b in verify._AFFINE_BASIS]
                slopes = np.stack(at_axes) - d0
                for b in grid:
                    affine = d0 + np.tensordot(b, slopes, axes=1)
                    per_point = 2.0 ** n * pauli_sum_to_dense(
                        branch.analytic_reduced_state(n, p, b))
                    assert np.array_equal(affine, per_point), (size, seed,
                                                               n, p, b)


def test_bloch_grid_y_never_reaches_the_pauli_prune_threshold():
    # A Y coefficient y * 2^-n of the calculus is never dropped as below
    # COEFF_PRUNE, which the per-point calculus's affine form relies on:
    # every y of every grid verify accepts is 0 or far above
    # COEFF_PRUNE * 2^n, up to the largest n verify accepts.
    floor = COEFF_PRUNE * 2 ** oracle.ORACLE_CAP_MAX
    for size in range(6, cli.GRID_MAX + 1):
        for seed in (0, 3):
            y = np.abs(bloch_grid(size, seed)[:, 1])
            assert ((y == 0) | (y > floor)).all(), (size, seed)


def test_engine_agreement_forms_the_calculus_at_four_points_per_shape(
        monkeypatch):
    # 14 aligned shapes (n, p) at n <= 4, each formed at b = 0, e_x, e_y,
    # e_z and made dense once per point: 56 calls, not one per grid point.
    calls, dense = [], []
    exact = branch.analytic_reduced_state

    def recording(n, p, bloch):
        calls.append((n, p, tuple(bloch)))
        return exact(n, p, bloch)

    monkeypatch.setattr(branch, "analytic_reduced_state", recording)
    monkeypatch.setattr(verify, "pauli_sum_to_dense",
                        lambda ps: dense.append(ps) or pauli_sum_to_dense(ps))
    assert check_engine_agreement(VerifyConfig(n_max=4)).passed
    basis = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert calls == [(n, p, b) for n in range(1, 5) for p in range(n + 1)
                     for b in basis]
    assert len(dense) == len(calls) == 56


def test_grid_checks_convert_each_grid_point_once(monkeypatch):
    # One Bloch-to-amplitude conversion per grid point and check, however
    # many n the check covers.
    converted = []
    convert = verify.state_from_bloch
    monkeypatch.setattr(verify, "state_from_bloch",
                        lambda b: converted.append(b) or convert(b))
    for check in (check_engine_agreement, check_singleton_mixedness):
        converted.clear()
        assert check(VerifyConfig(n_max=4, grid_size=10)).passed
        assert np.array_equal(converted, bloch_grid(10, 0))


def test_parity_classification_fails_on_states_that_are_not_affine(
        off_pole_encoding):
    result = check_parity_classification(VerifyConfig(n_max=2))
    assert not result.passed
    assert result.detail.startswith("linearity not certified: n=1: ")
    assert "span of enc(|0>) and enc(|1>)" in result.detail
    assert result.n_range == (1, 0)


def test_results_carry_the_covered_n_range():
    results = {r.name: r for r in run_checks(VerifyConfig(n_max=4,
                                                          oracle_cap=2))}
    assert {name: r.n_range for name, r in results.items()} == {
        "bell_trace_identities": None, "phase_table_decomposition": None,
        "interference_sums": None, "sign_resolution": None,
        "engine_agreement": (1, 2), "missing_pair_uninformative": (2, 2),
        "parity_classification": (1, 2), "singleton_mixedness": (2, 2)}
    # Every verdict is a plain bool, which the CSV writer prints as true/false.
    assert all(type(r.passed) is bool for r in results.values())


@pytest.mark.parametrize("config", [VerifyConfig(n_max=3, oracle_cap=0),
                                    VerifyConfig(n_max=0)])
def test_empty_range_is_last_below_first(config):
    results = {r.name: r for r in run_checks(config)}
    top = min(config.n_max, config.oracle_cap)
    for name in BRUTE_FORCE_CHECKS:
        first = 2 if name in ("missing_pair_uninformative",
                              "singleton_mixedness") else 1
        assert results[name].n_range == (first, top)


def test_gap_error_range_stops_before_the_failing_n(monkeypatch):
    probe = leakage.probe_patterns

    def gap_at_two(n, subsets, *args, **kwargs):
        if n == 2:
            raise leakage.SeparationGapError("distance in the gap")
        return probe(n, subsets, *args, **kwargs)

    monkeypatch.setattr(leakage, "probe_patterns", gap_at_two)
    for check, first in ((check_missing_pair_uninformative, 2),
                         (check_parity_classification, 1)):
        result = check(VerifyConfig(n_max=3))
        assert not result.passed
        assert result.detail.startswith("pole distance neither 0 nor 1")
        assert result.n_range == (first, 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_class_containment_matches_qubit_set_inclusion(n):
    # Outer holds a member of inner exactly when some pattern of inner keeps
    # a subset of the qubits of one pattern of outer: the outer class is
    # closed under pair permutations, so its first pattern stands for all.
    members = {}  # count class -> the qubit sets of its patterns
    for tags in itertools.product(PairTag, repeat=n):
        if set(tags) != {PairTag.NONE}:
            subset = RegisterSubset(n, tags)
            members.setdefault(subset.counts, []).append(
                frozenset(leakage.keep_positions(subset)))
    assert len(members) == (n + 1) * (n + 2) * (n + 3) // 6 - 1
    for outer, (outer_qubits, *_) in members.items():
        for inner, inner_sets in members.items():
            explicit = any(qubits <= outer_qubits for qubits in inner_sets)
            assert class_contains(outer, inner) == explicit, (outer, inner)


@pytest.mark.parametrize("check", [check_engine_agreement,
                                   check_singleton_mixedness])
@pytest.mark.parametrize("tampered", [False, True])
def test_grid_checks_are_identical_in_chunks(request, monkeypatch, check,
                                             tampered):
    # One point per chunk of the linearity certificate gives the same
    # result, byte for byte, including the first failure named when a check
    # fails: per n, the span's rows and then one encoder call per grid
    # point.
    if tampered:
        request.getfixturevalue("tampered_analytic_sign")
    config = VerifyConfig(n_max=3, grid_size=10)
    whole = check(config)
    calls = []
    build = oracle.build_encoded_state
    monkeypatch.setattr(oracle, "build_encoded_state",
                        lambda n, psi: calls.append(n) or build(n, psi))
    monkeypatch.setattr(leakage, "GRID_CHUNK_BYTES", 1)
    assert check(config) == whole
    assert calls == [n for n in range(whole.n_range[0], 4) for _ in range(11)]
    assert whole.passed is not (tampered and check is check_engine_agreement)


def test_engine_agreement_forms_the_calculus_once_per_shape(monkeypatch):
    # Four calculus states per aligned shape (n, p), 4 * (2 + 3 + 4 + 5) = 56
    # at n <= 4, however many chunks the grid takes.
    config = VerifyConfig(n_max=4)
    whole = check_engine_agreement(config)
    calls = []
    exact = branch.analytic_reduced_state
    monkeypatch.setattr(branch, "analytic_reduced_state",
                        lambda n, p, b: calls.append((n, p)) or exact(n, p, b))
    # Five encoded points of n = 4 (2^9 amplitudes each) per chunk: six
    # chunks, after the span's rows.
    monkeypatch.setattr(leakage, "GRID_CHUNK_BYTES", 5 * 16 * 2 ** 9)
    encodes = []
    build = oracle.build_encoded_state
    monkeypatch.setattr(oracle, "build_encoded_state",
                        lambda n, psi: encodes.append(n) or build(n, psi))
    assert check_engine_agreement(config) == whole
    assert encodes.count(4) == 7
    assert len(calls) == 56
    assert Counter(calls) == {(n, p): 4 for n in range(1, 5)
                              for p in range(n + 1)}


@pytest.mark.parametrize("check", [check_missing_pair_uninformative,
                                   check_parity_classification])
def test_pattern_checks_catch_a_pair_symmetric_leak(symmetric_leaking_encoding,
                                                    check):
    # The encoder passes the pair-symmetry and linearity certificates, but
    # its rows scaled by 2 / h^n are no Gaussian integers: each check
    # refuses its span at the first n it covers, before any probe.
    result = check(VerifyConfig(n_max=2))
    first = result.n_range[0]
    moved, parts = {1: ("1.716e-01", 3), 2: ("8.882e-16", 4)}[first]
    assert not result.passed
    assert (result.detail, result.n_range) == (
        _OFF_INTEGERS.format(first, moved, parts), (first, first - 1))


@pytest.mark.parametrize("check", [check_missing_pair_uninformative,
                                   check_parity_classification])
def test_pattern_checks_catch_a_gaussian_pair_symmetric_leak(
        gaussian_leaking_encoding, check):
    # The encoder passes every certificate of the span, so only the probes
    # can catch it: the one probe of (n-1, 0, 0, 1) leaks at n = 2, and
    # every class reads (0, 0, 1).
    result = check(VerifyConfig(n_max=2))
    assert not result.passed
    if check is check_missing_pair_uninformative:
        # A leaking probe decides nothing below it: the others are probed,
        # and each of the six patterns disagrees once.
        assert result.detail == "6 disagreement(s): " + "; ".join(
            f"n=2 {labels}: missing a pair (0, 0, 0) but probes give "
            f"(0, 0, 1)" for labels in ("S1,N1", "S1", "N1", "S2,N2", "S2"))
    else:
        assert ("n=1 N1: classified COMPLETELY_UNINFORMATIVE (0, 0, 0) "
                "but probes give (0, 0, 1)" in result.detail)


@pytest.mark.parametrize("check, detail, n_range", [
    (check_missing_pair_uninformative, "n=2, S1,N1: the x poles", (2, 1)),
    (check_parity_classification, "n=1, S1,N1: the x poles", (1, 0)),
])
def test_pattern_checks_fail_on_poles_neither_equal_nor_orthogonal(
        bumped_one_encoding, check, detail, n_range):
    # Linear, pair-symmetric and Gaussian, so only the identities catch it;
    # here, the pole probes' own: the first probe of each check reads a
    # pair of poles whose states are neither equal nor orthogonal.
    result = check(VerifyConfig(n_max=3))
    assert not result.passed
    assert (result.detail, result.n_range) == (
        f"pole distance neither 0 nor 1: {detail} are neither equal nor "
        f"orthogonal", n_range)


def test_parity_classification_fails_on_a_class_reached_both_ways(
        monkeypatch):
    # The full register reported as uninformative lies around every class,
    # including the lone clone S1, whose own probe leaks at n = 1: their
    # bounds contradict each other.
    probe = leakage.probe_patterns

    def hiding_full_register(n, subsets, reports=None):
        reports = probe(n, subsets, reports)
        full = reports.get((n, 0, 0, 0))
        if full is not None:
            full.axis_distances = (0.0, 0.0, 0.0)
        return reports

    monkeypatch.setattr(leakage, "probe_patterns", hiding_full_register)
    result = check_parity_classification(VerifyConfig(n_max=1))
    assert not result.passed
    assert result.detail == (
        "2 disagreement(s): n=1 S1,N1: no probe decides it (pattern at least "
        "(0, 1, 0), at most (0, 0, 0)); n=1 S1: no probe decides it (pattern "
        "at least (0, 1, 0), at most (0, 0, 0))")


def test_parity_classification_fails_on_an_authorized_class_reading_y_only(
        monkeypatch):
    # A smallest authorized class whose probe reads only the y axis leaks,
    # so "informative" would pass it; its pattern is not AUTHORIZED's.
    probe = leakage.probe_patterns

    def y_only(n, subsets, reports=None):
        reports = probe(n, subsets, reports)
        smallest = reports.get((1, 0, 1, 0)) if n == 2 else None
        if smallest is not None:
            smallest.axis_distances = (0.0, 1.0, 0.0)
        return reports

    monkeypatch.setattr(leakage, "probe_patterns", y_only)
    result = check_parity_classification(VerifyConfig(n_max=3))
    assert not result.passed
    assert result.detail == (
        "2 disagreement(s): n=2 S1,N1,N2: classified AUTHORIZED (1, 1, 1) but "
        "probes give (0, 1, 0); n=2 N1,S2,N2: classified AUTHORIZED "
        "(1, 1, 1) but probes give (0, 1, 0)")


def test_parity_classification_fails_on_an_undecided_class(monkeypatch):
    # Probing the full register alone decides no class below it.
    monkeypatch.setattr(
        verify, "_probe_by_containment",
        lambda n, classes, stages, shared: leakage.probe_patterns(
            n, [subsets.first_pattern(n, (n, 0, 0, 0))]))
    result = check_parity_classification(VerifyConfig(n_max=2))
    assert not result.passed
    assert "n=1 N1: no probe decides it" in result.detail


@pytest.mark.parametrize("check, detail", [
    (check_parity_classification, "336 patterns (65 classes: 30 probed, 35 "
                                  "by containment) agree across n<=4"),
    (check_missing_pair_uninformative, "216 patterns (31 classes: 3 probed, "
                                       "28 by containment) agree across "
                                       "n=2..4"),
], ids=["parity_classification", "missing_pair_uninformative"])
def test_passing_parity_check_forms_no_pattern(monkeypatch, check, detail):
    # Classes are compared with their sizes; patterns are formed only to
    # name the disagreements of a failure.
    def no_patterns(self):
        raise AssertionError("patterns formed")

    monkeypatch.setattr(subsets.ClassificationTable, "__iter__", no_patterns)
    assert check(VerifyConfig(n_max=4)).detail == detail


def test_missing_pair_check_never_classifies(monkeypatch):
    # Its expected pattern, (0, 0, 0), is the claim's, never a verdict's.
    def refuse(*args, **kwargs):
        raise AssertionError("classify was called")

    monkeypatch.setattr(verify, "classify", refuse)
    monkeypatch.setattr(subsets, "classify", refuse)
    assert check_missing_pair_uninformative(VerifyConfig(n_max=4)).passed


@pytest.mark.parametrize("n", range(1, 7))
def test_an_aligned_class_is_held_below_all_ones_by_itself_alone(n):
    # So a partially informative class, which is aligned, is decided only
    # by its own probe: the parity check reads its leak from that report.
    classes = enumerate_classifications(n).classes()
    patterns = {c: verify._PATTERNS[subsets.classify(
        subsets.first_pattern(n, c)).verdict] for c in classes}
    for p in range(n + 1):
        aligned = (0, p, n - p, 0)
        assert [c for c in classes if patterns[c] != (1, 1, 1)
                and class_contains(c, aligned)] == [aligned]


@pytest.mark.parametrize("n_max, count", [(1, 5), (2, 20), (3, 91)])
def test_parity_disagreements_are_counted_per_pattern(
        gaussian_leaking_encoding, n_max, count):
    # The counts a walk over every pattern gives: each pattern counts each
    # of its class's disagreements, and the first five are named in order.
    # Every pattern reads (0, 0, 1), and each partially informative one
    # (1 at n = 1, 4 at n = 3) also fails its fixed-y slice and its sign.
    detail = check_parity_classification(VerifyConfig(n_max=n_max)).detail
    assert detail.startswith(
        f"{count} disagreement(s): n=1 S1,N1: classified AUTHORIZED "
        f"(1, 1, 1) but probes give (0, 0, 1); n=1 S1: classified "
        f"PARTIALLY_INFORMATIVE (0, 1, 0) but probes give (0, 0, 1); n=1 S1: "
        f"leak depends on more than y (fixed-y distance 1.083e-01); n=1 S1: "
        f"pole signal +0.000e+00 != predicted +1; n=1 N1: classified "
        f"COMPLETELY_UNINFORMATIVE (0, 0, 0) but probes give (0, 0, 1)")
    assert detail.count("; ") == min(count, 5) - 1


_AMPLITUDES = st.floats(-1, 1, allow_nan=False)


@st.composite
def _inputs(draw):
    """A stack of 1-5 normalized input amplitude pairs."""
    rows = draw(st.lists(st.tuples(*[_AMPLITUDES] * 4).filter(
        lambda row: sum(x * x for x in row) > 0.25), min_size=1, max_size=5))
    psi = np.array([[complex(a, b), complex(c, d)] for a, b, c, d in rows])
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


@pytest.mark.parametrize("n", range(1, 6))
@settings(max_examples=10, deadline=None)
@given(psi=_inputs())
def test_span_states_equal_the_per_point_partial_trace(n, psi):
    # sum_ac psi_a conj(psi_c) Gamma_ac / 2^(n+2), from the Gram blocks of
    # the span's integer rows, is the partial trace of each encoded state,
    # on every aligned keep set and every single qubit. The span's inputs
    # begin with the six poles; constructing it certifies that it holds
    # them all.
    inputs = np.concatenate([leakage._POLE_INPUTS, psi])
    integers = leakage.PoleReports(n, inputs).integers
    encoded = oracle.build_encoded_state(n, inputs)
    keeps = [leakage.keep_positions(RegisterSubset(n, tags)) for tags in
             itertools.product((PairTag.SIGNAL, PairTag.NOISE), repeat=n)]
    keeps += [[q] for q in range(2 * n + 1)]
    for keep in keeps:
        g00, g01, g11 = leakage.gram_blocks(integers, keep)
        blocks = np.array([[g00, g01], [g01.conj().T, g11]])
        weights = inputs[:, :, None] * inputs[:, None, :].conj()
        states = np.einsum("iac,acxy->ixy", weights, blocks) / 2 ** (n + 2)
        assert np.abs(states - oracle.reduced_density(encoded, keep)).max() \
            <= 1e-15, keep


@pytest.mark.parametrize("check, first", [(check_engine_agreement, 1),
                                          (check_singleton_mixedness, 2)])
def test_grid_checks_fail_on_an_encoder_that_is_not_linear(
        nonlinear_encoding, check, first):
    # The span would give the states of the true encoder; its certificate
    # is what fails, at the first n checked.
    result = check(VerifyConfig(n_max=3))
    assert not result.passed
    residual = {1: "8.978e-01", 2: "6.348e-01"}[first]
    assert result.detail == (
        f"linearity not certified: n={first}: the states of the 26 inputs "
        f"differ from the span of enc(|0>) and enc(|1>) by {residual} "
        f"(tolerance 1e-10)")
    assert result.n_range == (first, first - 1)


_OFF_SPAN = ("linearity not certified: n={}: the states of the 26 inputs "
             "differ from the span of enc(|0>) and enc(|1>) by ")
_ASYMMETRIC = ("pair symmetry not certified: n=2: enc(|0>) changes under "
               "the transposition of pairs 1 and 2")


@pytest.mark.parametrize("fixture, check, detail, n_range", [
    ("off_pole_encoding", check_engine_agreement, _OFF_SPAN.format(1), (1, 0)),
    ("off_pole_encoding", check_singleton_mixedness, _OFF_SPAN.format(2),
     (2, 1)),
    ("asymmetric_pair_encoding", check_engine_agreement, _ASYMMETRIC, (1, 1)),
    ("asymmetric_pair_encoding", check_singleton_mixedness, _ASYMMETRIC,
     (2, 1)),
])
def test_grid_checks_read_no_span_that_fails_a_certificate(
        request, fixture, check, detail, n_range):
    # The grid checks read the same certified span as the pole probes, so
    # an encoder that fails either certificate fails them too: off the
    # pole at the first n checked, without pair symmetry at n = 2.
    request.getfixturevalue(fixture)
    result = check(VerifyConfig(n_max=3))
    assert not result.passed
    assert result.detail.startswith(detail)
    assert result.n_range == n_range


_OFF_INTEGERS = ("integer rows not certified: n={0}: enc(|0>) and enc(|1>) "
                 "scaled by 2/h^{0} lie {1} from Gaussian integers with parts "
                 "up to {2} (tolerance 1e-10, parts up to 1)")


@pytest.mark.parametrize("fixture, n_max, details", [
    ("tampered_analytic_sign", 3, {
        "engine_agreement": (
            "exact on 6 of 9 aligned shapes across n<=3; first failure at "
            "n=1, p=1: i (Gamma10 - Gamma01) == 8 (Dy - D0)", (1, 3))}),
    # Its rows scaled by 2 / h^n are 2^(1 + n/2) on two entries: no
    # integer at odd n, and a part of 4 at n = 2.
    ("symmetric_leaking_encoding", 3, {
        "engine_agreement": (_OFF_INTEGERS.format(1, "1.716e-01", 3), (1, 0)),
        "singleton_mixedness": (_OFF_INTEGERS.format(2, "8.882e-16", 4),
                                (2, 1))}),
    ("scaled_encoding", 3, {
        "engine_agreement": (_OFF_INTEGERS.format(1, "1.000e-09", 1), (1, 0)),
        "singleton_mixedness": (_OFF_INTEGERS.format(2, "1.000e-09", 1),
                                (2, 1))}),
    ("bumped_one_encoding", 3, {
        "engine_agreement": (
            "exact on 0 of 9 aligned shapes across n<=3; first failure at "
            "n=1, p=0: Gamma00 + Gamma11 == 8 D0", (1, 3)),
        "singleton_mixedness": (
            "exact on 0 of 12 single qubits across n=2..3; first failure at "
            "n=2, A: Gamma00 + Gamma11 == 8 D0", (2, 3))}),
])
def test_grid_checks_fail_on_linear_controls_as_before(request, fixture,
                                                       n_max, details):
    # Controls whose encoder is linear and pair-symmetric pass both
    # certificates of the span and fail on its integer rows or on the
    # identities, naming the first failure.
    request.getfixturevalue(fixture)
    for check in (check_engine_agreement, check_singleton_mixedness):
        result = check(VerifyConfig(n_max=n_max))
        if result.name in details:
            assert not result.passed
            assert (result.detail, result.n_range) == details[result.name]
        else:
            assert result.passed, result.detail


def test_every_brute_force_check_reads_the_integer_rows(request):
    # The span keeps only its integer rows, so all four brute-force checks
    # refuse the scaled rows, 1e-9 off the Gaussian integers, at the first
    # n each covers.
    leakage.resolve_sign_rule()  # cached: resolved before the scaling
    request.getfixturevalue("scaled_encoding")
    results = {r.name: r for r in run_checks(VerifyConfig(n_max=3))}
    assert [name for name, r in results.items() if not r.passed] == list(
        BRUTE_FORCE_CHECKS)
    for name in BRUTE_FORCE_CHECKS:
        first = results[name].n_range[0]
        assert (results[name].detail, results[name].n_range) == (
            _OFF_INTEGERS.format(first, "1.000e-09", 1), (first, first - 1))


def test_integer_rows_are_the_encoding_basis():
    # Rounded from the certified rows, never read from the basis itself.
    for n in range(1, 7):
        assert np.array_equal(leakage.PoleReports(n).integers,
                              oracle.encoding_basis(n))


def test_a_certified_span_leaves_no_basis_cached():
    # The span holds the basis's integer rows; a cached basis beside them
    # would hold them twice for the rest of the battery.
    shared = verify._Shared(VerifyConfig())
    for n in range(1, 4):
        shared.span(n)
        assert oracle.encoding_basis.cache_info().currsize == 0


def test_gram_blocks_sum_exactly_in_complex64():
    # A Gram entry sums at most 2^(2n) products with parts in {-2, ..., 2},
    # and an identity adds two blocks: below 2^24, where every complex64
    # sum of integers is exact, for every n the oracle takes.
    assert 2 * 2 * 2 ** (2 * oracle.ORACLE_CAP_MAX) <= 2 ** 24


def test_pole_distances_sum_exactly_in_float64():
    # A pole factor's parts lie in {-2, ..., 2}: its squared norm is at
    # most 8 per entry of the 2^(2n+1). The largest partial sum of
    # `_pole_distance`, W J W's, is at most the square of two such norms:
    # below 2^53, where every float64 sum of integers is exact, for every n
    # the oracle takes.
    norm2 = 8 * 2 ** (2 * oracle.ORACLE_CAP_MAX + 1)
    assert (2 * norm2) ** 2 < 2 ** 53


@pytest.mark.parametrize("n", range(1, 6))
def test_every_count_class_reads_its_verdicts_pattern_exactly(monkeypatch,
                                                              n):
    # Probed on its own, with no spectrum and no factorization, each count
    # class reads exactly its verdict's pole pattern, with ==, and a
    # leaking class's signal is exactly its sign.
    def refuse(*args, **kwargs):
        raise AssertionError("a pole probe took a spectrum or a QR")

    classes = enumerate_classifications(n).classes()
    span = leakage.PoleReports(n)
    for name in ("eigvalsh", "eigh", "eigvals", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    reports = leakage.probe_patterns(
        n, [subsets.first_pattern(n, c) for c in classes], span)
    for counts in classes:
        cls = subsets.classify(subsets.first_pattern(n, counts))
        report = reports[counts]
        assert report.axis_distances == verify._PATTERNS[cls.verdict], counts
        assert {type(d) for d in report.axis_distances} == {float}
        if cls.leak is not None:
            assert report.y_signal == cls.leak.sign, counts


@pytest.mark.parametrize("grid_size", [6, 10, 26])
@pytest.mark.parametrize("seed", [0, 3])
def test_battery_results_equal_each_check_run_alone(grid_size, seed):
    config = VerifyConfig(n_max=3, grid_size=grid_size, seed=seed)
    results = run_checks(config)
    assert len(results) == len(verify.ALL_CHECKS)
    for result, check in zip(results, verify.ALL_CHECKS):
        assert result == check(config)


def test_battery_encodes_each_state_set_once_per_n(monkeypatch):
    # Per n, the battery encodes the span's rows and the grid once each,
    # and reads the six poles from the span; each fixed-y slice is one more
    # call of 8 points.
    leakage.resolve_sign_rule()  # cached: its own encodes come first
    calls = []
    build = oracle.build_encoded_state
    monkeypatch.setattr(oracle, "build_encoded_state",
                        lambda n, psi: calls.append((n, len(psi)))
                        or build(n, psi))
    assert all(r.passed for r in run_checks(VerifyConfig(n_max=4)))
    expected = Counter({(n, size): 1 for n in range(1, 5)
                        for size in (2, 26)})
    expected.update({(1, 8): 1, (3, 8): 2})
    assert Counter(calls) == expected
    assert len(calls) == 11


def test_a_battery_holds_two_encoded_states_per_n(monkeypatch):
    # What the battery shares, per n, is the span's two rows and the pole
    # reports; no stack of pole states outlives a probe.
    made = []

    class Recording(verify._Shared):
        def __init__(self, config):
            super().__init__(config)
            made.append(self)

    monkeypatch.setattr(verify, "_Shared", Recording)
    assert all(r.passed for r in run_checks(VerifyConfig(n_max=4)))
    [shared] = made
    assert set(vars(shared)) == {"config", "grid", "reports"}
    assert sorted(shared.reports) == [1, 2, 3, 4]
    for n, reports in shared.reports.items():
        arrays = {name: value.shape for name, value in vars(reports).items()
                  if isinstance(value, np.ndarray)}
        assert arrays == {"integers": (2, 2 ** (2 * n + 1)),
                          "inputs": (26, 2)}
        assert reports.inputs is shared.grid[1]
        assert all(isinstance(report, leakage.LeakageReport)
                   for report in reports.values())


def test_a_battery_keeps_nothing_for_the_next(request):
    # Nothing survives run_checks: a second battery reads the encoder as
    # it is when that battery runs.
    config = VerifyConfig(n_max=2)
    assert all(r.passed for r in run_checks(config))
    request.getfixturevalue("symmetric_leaking_encoding")
    results = run_checks(config)
    assert [r.name for r in results if not r.passed] == list(
        BRUTE_FORCE_CHECKS)
    assert results == [check(config) for check in verify.ALL_CHECKS]


def test_a_probe_that_raises_is_not_kept(monkeypatch):
    # The missing-pair check's probe at n = 2 raises; the parity check
    # probes n = 2 again and fails there too.
    probe = leakage.probe_patterns
    probed = []

    def gap_at_two(n, subsets, reports=None):
        probed.append(n)
        if n == 2:
            raise leakage.SeparationGapError("distance in the gap")
        return probe(n, subsets, reports)

    monkeypatch.setattr(leakage, "probe_patterns", gap_at_two)
    results = {r.name: r for r in run_checks(VerifyConfig(n_max=3))}
    assert probed == [2, 1, 2]
    for name, n_range in (("missing_pair_uninformative", (2, 1)),
                          ("parity_classification", (1, 1))):
        assert results[name].detail.startswith(
            "pole distance neither 0 nor 1")
        assert results[name].n_range == n_range


@pytest.mark.parametrize("fixture, encodes", [
    # Off the pole, n = 1 and n = 2 fail the linearity certificate after
    # encoding the rows and the grid.
    ("off_pole_encoding", {(1, 2): 1, (1, 26): 1, (2, 2): 1, (2, 26): 1}),
    # Without pair symmetry n = 2 fails on its rows; n = 1 is certified and
    # its parity probes run one fixed-y slice.
    ("asymmetric_pair_encoding", {(1, 2): 1, (1, 26): 1, (1, 8): 1,
                                  (2, 2): 1}),
])
def test_a_refused_span_is_encoded_once_per_battery(request, monkeypatch,
                                                    fixture, encodes):
    # Each later check of a refused n gets the same refusal without
    # encoding it again, and reports what it reports when run alone.
    leakage.resolve_sign_rule()  # cached: its own encodes come first
    request.getfixturevalue(fixture)
    calls = []
    build = oracle.build_encoded_state
    monkeypatch.setattr(oracle, "build_encoded_state",
                        lambda n, psi: calls.append((n, len(psi)))
                        or build(n, psi))
    config = VerifyConfig(n_max=3)
    results = run_checks(config)
    assert Counter(calls) == Counter(encodes)
    assert [r.name for r in results if not r.passed] == list(
        BRUTE_FORCE_CHECKS)
    assert results == [check(config) for check in verify.ALL_CHECKS]


def test_brute_force_probes_never_call_the_branch_calculus(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the branch calculus was called")

    for name in ("analytic_reduced_state", "interference_table",
                 "table_sum", "phase_ratio_table", "phase_ratio_parts"):
        monkeypatch.setattr(branch, name, refuse)
    config = VerifyConfig(n_max=4)
    shared = verify._Shared(config)
    for check in (check_singleton_mixedness,
                  check_missing_pair_uninformative,
                  check_parity_classification):
        assert check(config, shared).passed
