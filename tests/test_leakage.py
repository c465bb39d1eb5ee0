import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloneleak import cli, leakage, oracle
from cloneleak.leakage import (ENGINE_ANALYTIC, ENGINE_ORACLE, TOLERANCES,
                               SeparationGapError, SignRule,
                               bloch_grid, fixed_y_slice_probe,
                               informativeness_probe, keep_positions,
                               pairwise_max_trace_distance,
                               probe_patterns, reduced_state,
                               resolve_sign_rule, trace_distance,
                               y_leak_estimate)
from cloneleak.oracle import (build_encoded_state, reduced_density,
                              reduced_factor)
from cloneleak.pauli import state_from_bloch
from cloneleak.subsets import PairTag, RegisterSubset, enumerate_classifications

from conftest import I2, Y

B, S, N, E = PairTag.BOTH, PairTag.SIGNAL, PairTag.NOISE, PairTag.NONE


def subset(*tags):
    return RegisterSubset(len(tags), tags)


def encode_points(n, points):
    """Encoded states of the Bloch points as rows, from one encoder call."""
    return build_encoded_state(n, np.stack([state_from_bloch(b)
                                            for b in points]))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_trace_distance_examples():
    assert trace_distance(I2 / 2, I2 / 2) == 0.0
    assert trace_distance((I2 + Y) / 2, (I2 - Y) / 2) == pytest.approx(1.0)
    assert trace_distance((I2 + 0.6 * Y) / 2, I2 / 2) == pytest.approx(0.3)


def test_trace_distance_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        trace_distance(I2, np.eye(4))


def test_trace_distance_metric_axioms(rng):
    for _ in range(25):
        a, b, c = (random_density(rng, 4) for _ in range(3))
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, a) < 1e-12
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
        assert -1e-12 <= dab <= 1.0 + 1e-12


def test_pairwise_max_matches_direct_loop(rng):
    # 13 states make 78 pairs, more than one batch of PAIR_CHUNK = 64.
    count = 13
    rhos = [random_density(rng, 4) for _ in range(count)]
    max_d, per_point = pairwise_max_trace_distance(rhos)
    direct = np.zeros(count)
    for i in range(count):
        for j in range(count):
            if i != j:
                direct[i] = max(direct[i], trace_distance(rhos[i], rhos[j]))
    np.testing.assert_allclose(per_point, direct, atol=1e-12)
    assert max_d == pytest.approx(direct.max())


def gaussian_factor(rng, d_keep, d_rest):
    """An integer factor with parts in {-2, ..., 2}, as a pole factor's."""
    return (rng.integers(-2, 3, size=(d_keep, d_rest))
            + 1j * rng.integers(-2, 3, size=(d_keep, d_rest)))


def exact_distance(monkeypatch, plus, minus):
    """leakage._pole_distance with every spectrum and factorization of
    np.linalg refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pole distance took a spectrum or a QR")

    with monkeypatch.context() as patched:
        for name in ("eigvalsh", "eigh", "eigvals", "qr", "svd"):
            patched.setattr(np.linalg, name, refuse)
        return leakage._pole_distance(plus, minus, "test")


def dense_distance(plus, minus):
    """Trace distance of the normalized dense states of two factors."""
    return trace_distance(*[m @ m.conj().T / np.vdot(m, m).real
                            for m in (plus, minus)])


@pytest.mark.parametrize("d_keep, d_rest", [
    (16, 2), (32, 4), (64, 1), (32, 15), (8, 4),  # d_keep > d_rest: tall
    (8, 8), (4, 16),                              # d_keep <= d_rest: wide
])
def test_factored_distance_matches_dense_random(rng, monkeypatch, d_keep,
                                                d_rest):
    # The exact pole distance of integer factors against the spectrum of
    # their dense states: equal states (Q = P V, V a permutation with
    # powers of i, so Q Q^dagger = P P^dagger although Q != P), states on
    # disjoint rows, and independent factors, which are refused.
    plus = gaussian_factor(rng, d_keep, d_rest)
    unitary = np.zeros((d_rest, d_rest), dtype=complex)
    unitary[rng.permutation(d_rest), np.arange(d_rest)] = np.array(
        [1, 1j, -1, -1j])[rng.integers(0, 4, d_rest)]
    top = (np.arange(d_keep) < d_keep // 2)[:, None]
    other = gaussian_factor(rng, d_keep, d_rest)
    for p, q, want in ((plus, plus @ unitary, 0.0),
                       (plus * top, other * ~top, 1.0)):
        assert exact_distance(monkeypatch, p, q) == want
        assert exact_distance(monkeypatch, q, p) == want
        assert abs(dense_distance(p, q) - want) <= 1e-12
    assert 1e-3 < dense_distance(plus, other) < 1 - 1e-3
    with pytest.raises(SeparationGapError,
                       match="^test are neither equal nor orthogonal$"):
        exact_distance(monkeypatch, plus, other)


def assert_poles_match_dense(n, subsets):
    # Each pattern's three pole distances, read exactly from its count
    # class's probe, against the spectra of its own dense pole states.
    poles = encode_points(n, leakage._POLES)
    reports = probe_patterns(n, subsets)
    for sub in subsets:
        rhos = reduced_density(poles, keep_positions(sub))
        dense = [trace_distance(rhos[2 * j], rhos[2 * j + 1])
                 for j in range(3)]
        np.testing.assert_allclose(reports[sub.counts].axis_distances, dense,
                                   rtol=0, atol=1e-12, err_msg=sub.labels())


def test_factored_distance_matches_dense_every_pattern_small_n():
    for n in range(1, 4):
        assert_poles_match_dense(n, [sub for sub, _ in
                                     enumerate_classifications(n)])


def test_factored_distance_matches_dense_large_subsets_n4():
    # 6-, 7- and 8-qubit subsets of the 9-qubit n = 4 state.
    subsets = [sub for sub, _ in enumerate_classifications(4) if sub.size >= 6]
    assert {sub.size for sub in subsets} == {6, 7, 8}
    assert_poles_match_dense(4, subsets)


def test_bloch_grid_contents():
    grid = bloch_grid(26, 0)
    assert grid.shape == (26, 3)
    np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0,
                               atol=1e-12)
    for pole in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                 [0, 0, 1], [0, 0, -1]):
        assert np.min(np.linalg.norm(grid - np.array(pole), axis=1)) < 1e-12


@given(size=st.integers(6, cli.GRID_MAX),
       seed=st.integers(-cli.SEED_MAX - 1, cli.SEED_MAX))
def test_bloch_grid_begins_with_the_poles_bit_for_bit(size, seed):
    # verify certifies the span on the grid's inputs; that covers the pole
    # probes' inputs only because every grid begins with the exact poles.
    assert bloch_grid(size, seed)[:6].tobytes() == leakage._POLES.tobytes()


def test_bloch_grid_determinism():
    a = bloch_grid(26, 0)
    b = bloch_grid(26, 0)
    np.testing.assert_array_equal(a, b)
    c = bloch_grid(26, 7)
    assert np.abs(a[6:] - c[6:]).max() > 1e-3  # seed rotates the covering


def test_bloch_grid_minimum_size():
    assert bloch_grid(6, 0).shape == (6, 3)
    with pytest.raises(ValueError):
        bloch_grid(5, 0)


def test_keep_positions():
    assert keep_positions(subset(B, S, N)) == [1, 2, 3, 6]
    assert keep_positions(subset(E, N)) == [4]


def test_probe_uninformative_cases():
    for tags in [(S, N), (N,)]:
        rep = informativeness_probe(subset(*tags))
        assert not any(rep.axis_distances)
        assert sum(rep.axis_distances) < 1e-10
        assert abs(rep.y_signal) < 1e-10


def test_probe_leaky_case_has_unit_distance():
    rep = informativeness_probe(subset(S, N, N))
    assert any(rep.axis_distances)
    # Poles y=+-1 differ by (2/8) YYY, giving trace distance |y1-y2|/2 = 1;
    # the x and z poles give the same state.
    assert rep.axis_distances == pytest.approx((0.0, 1.0, 0.0), abs=1e-9)
    assert sum(rep.axis_distances) == pytest.approx(1.0, abs=1e-9)
    assert rep.y_signal == pytest.approx(-1.0, abs=1e-10)


def test_pole_verdicts_match_dense_grid_reference():
    # The pole verdict against the max trace distance over every pair of grid
    # points, from dense states. Above 4 qubits a dense spectrum costs up to
    # 256^3, so those patterns use the poles and two spiral points.
    grids = {size: bloch_grid(size, 0) for size in (26, 8)}
    for n in range(1, 5):
        encoded = {size: encode_points(n, g) for size, g in grids.items()}
        subs = [sub for sub, _ in enumerate_classifications(n)]
        reports = probe_patterns(n, subs)
        for sub in subs:
            report = reports[sub.counts]
            size = 26 if sub.size <= 4 else 8
            keep = keep_positions(sub)
            rhos = [reduced_density(s, keep) for s in encoded[size]]
            max_d, _ = pairwise_max_trace_distance(rhos)
            # Uninformative exactly when every grid point gives one state;
            # an informative pattern's states are far apart.
            uninformative = not any(report.axis_distances)
            assert uninformative == (max_d < TOLERANCES.uninformative), \
                (n, sub.labels(), report.axis_distances, max_d)
            assert uninformative or max_d > TOLERANCES.informative
            # The pole bound holds on the grid, and the poles are on it.
            assert max(report.axis_distances) - 1e-12 <= max_d
            assert max_d <= sum(report.axis_distances) + 1e-12


def test_probe_rejects_states_that_are_not_affine(off_pole_encoding):
    with pytest.raises(leakage.NotLinearError, match="span of enc"):
        probe_patterns(1, [sub for sub, _ in enumerate_classifications(1)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pole_reports_refuse_states_that_are_not_affine_at_construction(
        off_pole_encoding, n):
    # The linearity certificate is on the six poles of all 2n+1 qubits,
    # before any probe.
    with pytest.raises(leakage.NotLinearError,
                       match=rf"^n={n}: the states of the 6 inputs differ "
                             rf"from the span of enc\(\|0>\) and "
                             rf"enc\(\|1>\) by .* \(tolerance 1e-10\)$"):
        leakage.PoleReports(n)


def test_pole_reports_refuse_inputs_that_do_not_begin_with_the_poles():
    inputs = leakage._POLE_INPUTS
    with pytest.raises(ValueError, match="begin with the six poles"):
        leakage.PoleReports(2, inputs[::-1])
    with pytest.raises(ValueError, match="begin with the six poles"):
        leakage.PoleReports(2, inputs[:5])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pole_reports_certify_affinity_once(monkeypatch, n):
    # The certificate, linearity on the poles and with it affinity, runs
    # once at construction: the rows and the poles are encoded, and no
    # pole distance is taken. Probing then encodes nothing and takes three
    # pole distances, one per axis, per probed class.
    calls, encoded = [], []
    exact = leakage._pole_distance
    monkeypatch.setattr(leakage, "_pole_distance",
                        lambda *args: calls.append(args) or exact(*args))
    build = oracle.build_encoded_state
    monkeypatch.setattr(oracle, "build_encoded_state",
                        lambda n, psi: encoded.append(np.shape(psi))
                        or build(n, psi))
    reports = leakage.PoleReports(n)
    assert calls == []
    assert encoded == [(2, 2), (6, 2)]
    assert probe_patterns(
        n, (sub for sub, _ in enumerate_classifications(n)), reports) is reports
    assert len(reports) == (n + 1) * (n + 2) * (n + 3) // 6 - 1
    assert len(calls) == 3 * len(reports)
    assert len(encoded) == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_pole_factors_from_the_span_equal_the_encoded_poles(monkeypatch, n):
    # The probes make one partial trace of the span's two integer rows per
    # count class. Weighted per pole (`_AXIS_WEIGHTS`) and scaled by the
    # pole's h^n / 2, or h^n / (2 sqrt 2) on the x and y poles, those
    # factors are the encoded poles' factors, on every count class.
    factors = []
    factor = oracle.reduced_factor

    def recording(state, keep):
        factors.append((state, keep, factor(state, keep)))
        return factors[-1][2]

    monkeypatch.setattr(oracle, "reduced_factor", recording)
    reports = probe_patterns(n, [s for s, _ in enumerate_classifications(n)])
    assert len(factors) == len(reports)
    integers = leakage.PoleReports(n).integers
    encoded = build_encoded_state(n, leakage._POLE_INPUTS)
    scales = np.sqrt(0.5) ** n / 2 * np.array([np.sqrt(0.5)] * 4 + [1, 1])
    weights = leakage._AXIS_WEIGHTS.reshape(6, 2)
    for (state, keep, got), report in zip(factors, reports.values()):
        assert keep == keep_positions(report.subset)
        assert np.array_equal(state, integers)
        poles = np.tensordot(weights, got, axes=1) * scales[:, None, None]
        assert np.abs(poles - factor(encoded, keep)).max() <= 1e-15, \
            report.subset


def test_probe_analytic_rejects_nonaligned():
    with pytest.raises(ValueError, match="aligned"):
        reduced_state(subset(B, E), [0, 1, 0], ENGINE_ANALYTIC)


@pytest.mark.parametrize("engine", [ENGINE_ANALYTIC, ENGINE_ORACLE])
def test_reduced_state_rejects_nan_bloch(engine):
    # The leaking Y term must not be silently dropped as a NaN coefficient.
    with pytest.raises(ValueError, match="non-finite"):
        reduced_state(subset(S), [float("nan"), 0.0, 0.0], engine)


def test_probe_rejects_unknown_engine():
    with pytest.raises(ValueError, match="engine"):
        reduced_state(subset(S), [0, 1, 0], "qft")


@pytest.mark.parametrize("engine", [ENGINE_ANALYTIC, ENGINE_ORACLE])
def test_reduced_state_of_a_stack_is_the_stack_of_states(monkeypatch,
                                                         engine):
    # A (k, 3) stack of Bloch points gives each point's state; the oracle
    # engine encodes the stack in one call and traces it in one more.
    points = bloch_grid(10, 3)
    sub = subset(S, N, S)
    per_point = np.stack([reduced_state(sub, b, engine) for b in points])
    calls = []
    for name in ("build_encoded_state", "reduced_density"):
        monkeypatch.setattr(oracle, name,
                            lambda *args, name=name, fn=getattr(oracle, name):
                            calls.append(name) or fn(*args))
    stacked = reduced_state(sub, points, engine)
    assert stacked.shape == (10, 8, 8)
    assert np.abs(stacked - per_point).max() <= 1e-15
    assert calls == ([] if engine == ENGINE_ANALYTIC
                     else ["build_encoded_state", "reduced_density"])


def test_probe_patterns_shares_states():
    subs = [subset(S, N), subset(N, N), subset(B, B)]
    reports = probe_patterns(2, subs)
    assert [any(reports[sub.counts].axis_distances) for sub in subs] == [
        False, False, True]


def test_pole_reports_probe_more_subsets_from_the_same_poles(monkeypatch):
    # Probing in two steps encodes nothing more after the span and reports
    # what one call on all the subsets reports, in the same order.
    subs = [s for s, _ in enumerate_classifications(3)]
    whole = probe_patterns(3, subs)
    encoded = []
    build = oracle.build_encoded_state
    monkeypatch.setattr(oracle, "build_encoded_state",
                        lambda n, psi: encoded.append(n) or build(n, psi))
    reports = probe_patterns(3, subs[:10])
    assert probe_patterns(3, subs[10:], reports) is reports
    assert encoded == [3, 3]  # the span's rows and its six poles
    assert list(reports) == list(whole)
    for counts, report in whole.items():
        assert reports[counts].subset == report.subset
        assert reports[counts].axis_distances == report.axis_distances
        assert reports[counts].y_signal == report.y_signal


def test_probe_y_signal_matches_the_dense_pole_state():
    # The probe reads <Y...Y> from the +y pole's factor; the dense reference
    # forms the pole's reduced state, on every count class with n <= 4.
    for n in range(1, 5):
        y_pole = encode_points(n, [[0.0, 1.0, 0.0]])[0]
        subsets = [s for s, _ in enumerate_classifications(n)]
        for report in probe_patterns(n, subsets).values():
            sub = report.subset
            rho = reduced_density(y_pole, keep_positions(sub))
            assert abs(report.y_signal
                       - y_leak_estimate(rho, sub.size)) < 1e-12, sub


def test_probe_keeps_fourteen_qubits_without_a_dense_state():
    # The all-BOTH pattern of n = 7 keeps 14 qubits: its dense state would
    # be 2**28 complex entries (4 GiB), above the dense cap.
    whole = subset(*[B] * 7)
    tracemalloc.start()
    try:
        report = probe_patterns(7, [whole])[whole.counts]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.subset.size == 14
    assert any(report.axis_distances)
    assert peak < 64 * 2 ** 20


def test_y_leak_estimate_examples():
    assert y_leak_estimate((I2 + Y) / 2, 1) == pytest.approx(1.0)
    assert y_leak_estimate(np.eye(8) / 8, 3) == 0.0
    resolution = resolve_sign_rule()
    rho = reduced_state(subset(S, S, S), [0.0, 0.5, np.sqrt(0.75)],
                        ENGINE_ORACLE)
    expected = resolution.rule.sign_for(3) * 0.5
    assert y_leak_estimate(rho, 3) == pytest.approx(expected, abs=1e-10)


def test_y_leak_estimate_dim_mismatch():
    with pytest.raises(ValueError):
        y_leak_estimate(I2 / 2, 2)


def test_fixed_y_slices_are_flat():
    assert fixed_y_slice_probe(subset(S, N, N), 0.5, 8) < 1e-10
    assert fixed_y_slice_probe(subset(S), 0.0, 8) < 1e-10
    assert fixed_y_slice_probe(subset(S, S), 0.9, 8) < 1e-10


def test_fixed_y_slice_validation():
    with pytest.raises(ValueError):
        fixed_y_slice_probe(subset(S), 1.5, 4)
    with pytest.raises(ValueError):
        fixed_y_slice_probe(subset(S), 0.5, 1)


def test_fixed_y_slice_varies_for_authorized():
    # Full pair: the reduced state genuinely depends on x and z.
    assert fixed_y_slice_probe(subset(B), 0.3, 8) > 1e-3


def test_verdict_gap_guard(monkeypatch):
    # Two poles whose states are neither equal nor orthogonal are refused,
    # from a wide pair of factors and from a tall one; equal and orthogonal
    # states read exactly 0 and 1.
    zero, one = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    for wide in (True, False):
        def pair(a):  # 2 x 2 or 4 x 1
            return np.hstack([a, a]) if wide else np.kron(a, [[1], [0]])

        p = pair(zero)
        assert exact_distance(monkeypatch, p, 1j * p) == 0.0
        assert exact_distance(monkeypatch, p, pair(one)) == 1.0
        with pytest.raises(SeparationGapError, match="neither equal nor"):
            exact_distance(monkeypatch, p, pair(zero + one))
    # A report carries the three axes as read; it is uninformative exactly
    # when all three read 0.
    whole = subset(S, N, N)
    for axes in ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
        read = iter(axes)
        monkeypatch.setattr(leakage, "_pole_distance",
                            lambda *args, read=read: next(read))
        report = probe_patterns(3, [whole])[whole.counts]
        assert report.axis_distances == axes


def test_sign_resolution():
    res = resolve_sign_rule()
    assert res.observed == ((1, 1), (3, -1))
    assert res.rule.kind == "alternating"
    assert [res.rule.sign_for(n) for n in (1, 3, 5, 7)] == [1, -1, 1, -1]
    with pytest.raises(ValueError):
        res.rule.sign_for(2)


def test_sign_rule_candidates_disagree_at_n3():
    constant = SignRule("constant_plus")
    alternating = SignRule("alternating")
    assert constant.sign_for(1) == alternating.sign_for(1) == 1
    assert constant.sign_for(3) == 1
    assert alternating.sign_for(3) == -1
