import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneleak import branch
from cloneleak.pauli import (COEFF_PRUNE, PAULI_LABELS, SIGMA, PauliSum,
                             bloch_from_state,
                             dense_to_pauli_sum, expectation, pauli_mul,
                             pauli_sum_to_dense, state_from_bloch,
                             string_phases)

from conftest import I2, X, Y, Z, kron_chain


def test_pauli_mul_examples():
    assert pauli_mul(1, 2) == (1j, 3)
    assert pauli_mul(0, 2) == (1, 2)
    assert pauli_mul(3, 3) == (1, 0)


def test_pauli_mul_matches_dense_products():
    for a in range(4):
        for b in range(4):
            phase, c = pauli_mul(a, b)
            np.testing.assert_array_equal(SIGMA[a] @ SIGMA[b], phase * SIGMA[c])


def test_pauli_mul_anticommutes_on_distinct_nonidentity():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            pab, cab = pauli_mul(a, b)
            pba, cba = pauli_mul(b, a)
            assert cab == cba
            assert pab == -pba


def test_pauli_mul_associative_including_phases():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                p1, ab = pauli_mul(a, b)
                p2, left = pauli_mul(ab, c)
                q1, bc = pauli_mul(b, c)
                q2, right = pauli_mul(a, bc)
                assert left == right
                assert p1 * p2 == q1 * q2


def test_pauli_mul_rejects_bad_index():
    with pytest.raises(ValueError):
        pauli_mul(4, 0)


def test_bloch_from_state_examples():
    np.testing.assert_allclose(bloch_from_state(np.array([1, 0])), [0, 0, 1],
                               atol=1e-15)
    plus = np.array([1, 1]) / np.sqrt(2)
    np.testing.assert_allclose(bloch_from_state(plus), [1, 0, 0], atol=1e-15)
    plus_i = np.array([1, 1j]) / np.sqrt(2)
    np.testing.assert_allclose(bloch_from_state(plus_i), [0, 1, 0], atol=1e-15)


def test_bloch_from_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        bloch_from_state(np.array([1.0, 1.0]))


def test_state_from_bloch_examples():
    np.testing.assert_allclose(state_from_bloch([0, 0, -1]), [0, 1], atol=1e-15)
    np.testing.assert_allclose(state_from_bloch([0, 1, 0]),
                               np.array([1, 1j]) / np.sqrt(2), atol=1e-15)
    # 0.6/0.8 point: amplitudes (cos t/2, sin t/2) with t = atan2(0.6, 0.8)
    theta = np.arctan2(0.6, 0.8)
    got = state_from_bloch([0.6, 0, 0.8])
    np.testing.assert_allclose(got, [np.cos(theta / 2), np.sin(theta / 2)],
                               atol=1e-12)
    np.testing.assert_allclose(bloch_from_state(got), [0.6, 0, 0.8], atol=1e-12)


def test_state_from_bloch_rejects_mixed():
    with pytest.raises(ValueError, match="norm"):
        state_from_bloch([0.5, 0.0, 0.0])


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_state_from_bloch_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        state_from_bloch([bad, 0.0, 0.0])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_bloch_from_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        bloch_from_state(np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        bloch_from_state(np.array([1.0, complex(0.0, bad)]))


def test_state_from_bloch_canonical_phase():
    s = state_from_bloch(np.array([-0.3, 0.4, np.sqrt(1 - 0.25)]))
    assert s[0].imag == 0 and s[0].real >= 0


@settings(max_examples=60, deadline=None)
@given(st.floats(0, np.pi), st.floats(-np.pi, np.pi))
def test_bloch_round_trip(theta, phi):
    b = np.array([np.sin(theta) * np.cos(phi),
                  np.sin(theta) * np.sin(phi),
                  np.cos(theta)])
    np.testing.assert_allclose(bloch_from_state(state_from_bloch(b)), b,
                               atol=1e-10)


def test_pauli_sum_identity_half():
    dense = pauli_sum_to_dense(PauliSum(1, {"I": 0.5}))
    np.testing.assert_array_equal(dense, I2 / 2)


def test_pauli_sum_half_i_plus_y():
    dense = pauli_sum_to_dense(PauliSum(1, {"I": 0.5, "Y": 0.5}))
    np.testing.assert_allclose(dense, (I2 + Y) / 2, atol=1e-15)


def test_pauli_sum_three_qubit():
    ps = PauliSum(3, {"III": 0.125, "YYY": 0.125})
    dense = pauli_sum_to_dense(ps)
    expected = (kron_chain(I2, I2, I2) + kron_chain(Y, Y, Y)) / 8
    np.testing.assert_allclose(dense, expected, atol=1e-15)
    assert abs(np.trace(dense) - 1.0) < 1e-15


def test_pauli_sum_prunes_tiny_coefficients():
    ps = PauliSum(2, {"XY": 1e-15, "ZZ": 0.25})
    assert ps.terms == {"ZZ": 0.25}
    assert ps.coefficient("XY") == 0.0


def test_pauli_sum_validation():
    with pytest.raises(ValueError):
        PauliSum(2, {"X": 1.0})
    with pytest.raises(ValueError):
        PauliSum(1, {"Q": 1.0})
    with pytest.raises(ValueError):
        PauliSum(0)


def test_pauli_sum_to_dense_cap():
    with pytest.raises(ValueError, match="cap"):
        pauli_sum_to_dense(PauliSum(13, {"I" * 13: 1.0}))


def _kron_sum(ps):
    """Reference dense sum: one np.kron chain of 2x2 factors per term."""
    out = np.zeros((2 ** ps.qubit_count,) * 2, dtype=complex)
    for letters, coeff in ps.terms.items():
        out += coeff * kron_chain(*(SIGMA[PAULI_LABELS.index(ch)]
                                    for ch in letters))
    return out


def test_pauli_sum_to_dense_equals_the_kron_sum(rng):
    for k in (1, 2, 3):
        for letters in map("".join, itertools.product(PAULI_LABELS, repeat=k)):
            ps = PauliSum(k, {letters: -0.375})
            assert np.array_equal(pauli_sum_to_dense(ps), _kron_sum(ps)), ps
    for k in range(1, 7):
        for _ in range(6):
            letters = ["".join(rng.choice(list("IXYZ"), size=k))
                       for _ in range(8)] + ["X" * k, "Z" * k]
            ps = PauliSum(k, {s: rng.normal() for s in letters})
            assert np.array_equal(pauli_sum_to_dense(ps), _kron_sum(ps)), ps


def test_pauli_sum_dense_is_hermitian(rng):
    for _ in range(10):
        letters = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(4)]
        ps = PauliSum(3, {s: rng.normal() for s in letters})
        dense = pauli_sum_to_dense(ps)
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)


def test_dense_round_trip(rng):
    terms = {"XZY": 0.3, "IIY": -0.75, "ZZZ": 0.125, "III": 1.0}
    ps = PauliSum(3, terms)
    back = dense_to_pauli_sum(pauli_sum_to_dense(ps))
    assert back.qubit_count == 3
    for letters, coeff in terms.items():
        assert back.coefficient(letters) == pytest.approx(coeff, abs=1e-12)
    assert set(back.terms) == set(terms)


def test_dense_to_pauli_sum_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        dense_to_pauli_sum(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expectation_examples():
    np.testing.assert_allclose(expectation(I2 / 2, "Y"), 0.0, atol=1e-15)
    np.testing.assert_allclose(expectation((I2 + 0.6 * Y) / 2, "Y"), 0.6,
                               atol=1e-15)
    # Tr(YYY . YYY) = 8, so the all-Y coefficient is read off exactly.
    rho = (kron_chain(I2, I2, I2) - 0.7 * kron_chain(Y, Y, Y)) / 8
    np.testing.assert_allclose(expectation(rho, "YYY"), -0.7, atol=1e-15)
    # The same state through a square factor M, rho = M M^dagger.
    w, v = np.linalg.eigh(rho)
    np.testing.assert_allclose(expectation(v * np.sqrt(w), "YYY",
                                           factored=True), -0.7, atol=1e-15)


def test_expectation_equals_trace_for_identity(rng):
    for _ in range(5):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        np.testing.assert_allclose(expectation(rho, "III"),
                                   np.trace(rho).real, atol=1e-12)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        expectation(I2 / 2, "YY")


@pytest.mark.parametrize("k", range(1, 6))
def test_factored_expectation_matches_dense(rng, k):
    # One column, a square factor (its shape must not make it a density
    # matrix) and a wide one, over mixed strings and the all-Y string.
    for m in (1, 2 ** k, 2 ** k + 3):
        for trial in range(4):
            factor = (rng.normal(size=(2 ** k, m))
                      + 1j * rng.normal(size=(2 ** k, m)))
            factor /= np.linalg.norm(factor)
            rho = factor @ factor.conj().T
            letters = ("Y" * k if trial == 0
                       else "".join(rng.choice(list("IXYZ"), size=k)))
            want = expectation(rho, letters)
            got = expectation(factor, letters, factored=True)
            assert abs(got - want) < 1e-12, (m, letters)


def test_factored_expectation_errors():
    with pytest.raises(ValueError, match="2-D factor"):
        expectation(np.ones(4), "YY", factored=True)
    with pytest.raises(ValueError, match="power of two"):
        expectation(np.ones((3, 2)), "YY", factored=True)
    with pytest.raises(ValueError, match="qubits"):
        expectation(np.ones((4, 1)), "Y", factored=True)
    # Without the keyword a factor is never taken for a density matrix.
    with pytest.raises(ValueError, match="square matrix"):
        expectation(np.ones((4, 1)), "YY")


def _tensordot_expectation(rho, letters):
    """The contraction `expectation` used before it gathered: tensordot over
    the row and column axes of one qubit at a time."""
    k = len(letters)
    t = np.asarray(rho, dtype=complex).reshape([2] * (2 * k))
    for ch in letters:
        sig = SIGMA[PAULI_LABELS.index(ch)]
        t = np.tensordot(sig, t, axes=([0, 1], [k, 0]))
        k -= 1
    return complex(t).real


@pytest.mark.parametrize("k", range(1, 9))
def test_expectation_is_bit_identical_to_the_tensordot_contraction(rng, k):
    for trial in range(12):
        vecs = rng.normal(size=(2 ** k, 2)) + 1j * rng.normal(size=(2 ** k, 2))
        rho = vecs @ vecs.conj().T
        rho /= np.trace(rho).real
        if trial % 2:  # quarter-integer entries: exact zeros and ties
            rho = np.round(rho * 4) / 4
        letters = ("Y" * k if trial % 3 == 0
                   else "".join(rng.choice(list("IXYZ"), size=k)))
        got = expectation(rho, letters)
        assert got.hex() == _tensordot_expectation(rho, letters).hex(), letters


def test_cached_tables_are_read_only():
    cached = [string_phases("XYZ"), *branch.phase_ratio_parts(5)]
    for table in cached:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 7
    # Products of cached tables are fresh, writable arrays.
    table = branch.interference_table(3, 1, 2)
    table[0, 0] = 7
    assert branch.interference_table(3, 1, 2)[0, 0] != 7
