import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloneleak.leakage import _POLES, bloch_grid
from cloneleak.oracle import (ORACLE_CAP_DEFAULT, ORACLE_CAP_MAX, bell_branch,
                              branch_phases, build_encoded_state,
                              encoding_basis, noise_position,
                              reduced_density, reduced_factor,
                              signal_position)
from cloneleak.pauli import _NORM_ATOL, SIGMA, bloch_from_state, state_from_bloch

from conftest import I2, Y, kron_chain


def test_branch_phases_small_n():
    assert branch_phases(1) == (1, 1j, 1, 1j)
    assert branch_phases(2) == (1, 1j, 1j, 1j)
    assert branch_phases(3) == (1, 1j, -1, 1j)


def test_branch_phases_unit_modulus():
    for n in range(1, 13):
        assert all(abs(a) == 1 for a in branch_phases(n))


def test_branch_phases_rejects_nonpositive():
    with pytest.raises(ValueError):
        branch_phases(0)


def test_bell_branch_values():
    rt2 = np.sqrt(2)
    np.testing.assert_allclose(bell_branch(0), np.array([1, 0, 0, 1]) / rt2)
    np.testing.assert_allclose(bell_branch(1), np.array([0, 1, 1, 0]) / rt2)
    np.testing.assert_allclose(bell_branch(3), np.array([1, 0, 0, -1]) / rt2)


def test_bell_branch_is_built_once_and_read_only():
    for mu in range(4):
        branch = bell_branch(mu)
        assert branch is bell_branch(mu)
        assert not branch.flags.writeable
        assert np.array_equal(
            branch, np.kron(SIGMA[mu], SIGMA[0]) @ np.array([1, 0, 0, 1])
            / np.sqrt(2.0))


def test_bell_branches_orthonormal():
    gram = np.array([[np.vdot(bell_branch(m), bell_branch(n))
                      for n in range(4)] for m in range(4)])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_encoded_state_norm_random_inputs(rng):
    for n in range(1, 6):
        for _ in range(50):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            state = build_encoded_state(n, v)
            assert abs(np.vdot(state, state).real - 1.0) < 1e-12


def test_build_rejects_bad_inputs():
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        build_encoded_state(0, psi)
    with pytest.raises(ValueError, match="cap"):
        build_encoded_state(ORACLE_CAP_MAX + 1, psi)
    with pytest.raises(ValueError, match="not normalized"):
        build_encoded_state(2, np.array([1.0, 1.0]))


def test_source_qubit_maximally_mixed(grid):
    for n in (1, 2, 3):
        for b in grid[:6]:
            state = build_encoded_state(n, state_from_bloch(b))
            np.testing.assert_allclose(reduced_density(state, [0]), I2 / 2,
                                       atol=1e-12)


def test_single_clone_maximally_mixed():
    state = build_encoded_state(2, state_from_bloch([0.6, 0.0, 0.8]))
    np.testing.assert_allclose(reduced_density(state, [signal_position(1)]),
                               I2 / 2, atol=1e-12)


def test_n1_golden_reductions():
    state = build_encoded_state(1, state_from_bloch([0.0, 0.6, 0.8]))
    rho_s = reduced_density(state, [signal_position(1)])
    np.testing.assert_allclose(rho_s, (I2 + 0.6 * Y) / 2, atol=1e-12)
    rho_n = reduced_density(state, [noise_position(1)])
    np.testing.assert_allclose(rho_n, I2 / 2, atol=1e-12)


def test_n1_clone_mixed_for_real_amplitudes():
    # y = 0 input: even the leaky singleton looks maximally mixed
    state = build_encoded_state(1, np.array([1.0, 0.0]))
    np.testing.assert_allclose(reduced_density(state, [signal_position(1)]),
                               I2 / 2, atol=1e-12)


def test_n2_aligned_pairs_quarter_identity():
    state = build_encoded_state(2, state_from_bloch([0.36, 0.48, 0.8]))
    for keep in ([signal_position(1), signal_position(2)],
                 [signal_position(1), noise_position(2)],
                 [noise_position(1), noise_position(2)]):
        np.testing.assert_allclose(reduced_density(state, keep), np.eye(4) / 4,
                                   atol=1e-12)


def test_n3_golden_reductions_fix_the_sign():
    # Reference values frozen from this brute-force path: the surviving
    # three-qubit term is -y * YYY, not +y * YYY.
    y = 0.7
    x = np.sqrt(1 - y * y)
    state = build_encoded_state(3, state_from_bloch([x, y, 0.0]))
    yyy = kron_chain(Y, Y, Y)
    keep_snn = [signal_position(1), noise_position(2), noise_position(3)]
    np.testing.assert_allclose(reduced_density(state, keep_snn),
                               (np.eye(8) - y * yyy) / 8, atol=1e-12)
    keep_ssn = [signal_position(1), signal_position(2), noise_position(3)]
    np.testing.assert_allclose(reduced_density(state, keep_ssn), np.eye(8) / 8,
                               atol=1e-12)
    keep_sss = [signal_position(1), signal_position(2), signal_position(3)]
    np.testing.assert_allclose(reduced_density(state, keep_sss),
                               (np.eye(8) - y * yyy) / 8, atol=1e-12)


def test_bell_trace_identities():
    from cloneleak.pauli import SIGMA
    for mu in range(4):
        for nu in range(4):
            op = np.outer(bell_branch(mu), bell_branch(nu).conj())
            t = op.reshape(2, 2, 2, 2)
            np.testing.assert_allclose(t.trace(axis1=1, axis2=3),
                                       SIGMA[mu] @ SIGMA[nu] / 2, atol=1e-12)
            np.testing.assert_allclose(t.trace(axis1=0, axis2=2),
                                       (SIGMA[nu] @ SIGMA[mu]).T / 2, atol=1e-12)


def test_reduction_consistency():
    # Tracing to K then to K' inside K equals tracing straight to K'.
    state = build_encoded_state(3, state_from_bloch([0.0, 0.28, 0.96]))
    keep = [signal_position(1), noise_position(2), noise_position(3)]
    rho_k = reduced_density(state, keep)
    # Reduce the 3-qubit rho_k onto its first factor (= S1).
    direct = reduced_density(state, [signal_position(1)])
    via = rho_k.reshape(2, 4, 2, 4).trace(axis1=1, axis2=3)
    np.testing.assert_allclose(via, direct, atol=1e-12)


def test_missing_pair_subsets_are_state_independent():
    keep = [signal_position(1), noise_position(1)]  # misses pair 2 entirely
    states = [build_encoded_state(2, state_from_bloch(b))
              for b in ([0, 1, 0], [1, 0, 0], [0, 0, 1], [0.6, 0, -0.8])]
    rhos = [reduced_density(s, keep) for s in states]
    for other in rhos[1:]:
        assert np.abs(other - rhos[0]).max() < 1e-12
    # One kept pair is the uniform mixture of the four Bell states: I/4.
    np.testing.assert_allclose(rhos[0], np.eye(4) / 4, atol=1e-12)


def test_missing_pair_subset_not_always_maximally_mixed():
    # Two kept pairs with one pair missing: state-independent, but the
    # mixture of doubled Bell states is rank 4 in a 16-dim space.
    keep = [signal_position(1), noise_position(1),
            signal_position(2), noise_position(2)]
    states = [build_encoded_state(3, state_from_bloch(b))
              for b in ([0, 1, 0], [1, 0, 0], [0.6, 0, -0.8])]
    rhos = [reduced_density(s, keep) for s in states]
    for other in rhos[1:]:
        assert np.abs(other - rhos[0]).max() < 1e-12
    assert np.abs(rhos[0] - np.eye(16) / 16).max() > 0.1
    eigs = np.linalg.eigvalsh(rhos[0])
    np.testing.assert_allclose(sorted(eigs)[-4:], [0.25] * 4, atol=1e-12)
    np.testing.assert_allclose(sorted(eigs)[:-4], 0.0, atol=1e-12)


def test_reduced_density_errors():
    state = build_encoded_state(1, np.array([1.0, 0.0]))
    thirteen_qubits = np.zeros(2 ** 13, dtype=complex)
    thirteen_qubits[0] = 1.0
    # reduced_density validates through its factor helper.
    for reduce in (reduced_density, reduced_factor):
        with pytest.raises(ValueError, match="nonempty"):
            reduce(state, [])
        with pytest.raises(ValueError, match="duplicate"):
            reduce(state, [1, 1])
        with pytest.raises(ValueError, match="out of range"):
            reduce(state, [3])
    # Only the dense matrix is capped: the factor is the state's own
    # amplitudes, so reduced_factor keeps any number of qubits.
    with pytest.raises(ValueError, match="dense cap"):
        reduced_density(thirteen_qubits, list(range(13)))
    factor = reduced_factor(thirteen_qubits, list(range(13)))
    assert factor.shape == (2 ** 13, 1)
    assert np.array_equal(factor[:, 0], thirteen_qubits)


def test_reduced_factor_keeps_a_complex_dtype():
    # complex64 is permuted as complex64, with the same values as the
    # complex128 factor; real input is converted to complex128.
    state = build_encoded_state(3, np.stack([state_from_bloch(b)
                                             for b in bloch_grid(8, 0)]))
    keep = [1, 4, 5]
    wide = reduced_factor(state, keep)
    narrow = reduced_factor(state.astype(np.complex64), keep)
    assert (wide.dtype, narrow.dtype) == (np.complex128, np.complex64)
    assert np.array_equal(narrow, wide.astype(np.complex64))
    real = reduced_factor(state.real, keep)
    assert real.dtype == np.complex128
    assert np.array_equal(real, wide.real)


def test_layout_positions():
    assert signal_position(1) == 1 and noise_position(1) == 2
    assert signal_position(3) == 5 and noise_position(3) == 6
    assert ORACLE_CAP_DEFAULT == 5


def _inputs(n_points):
    """Grid inputs, plus inputs whose Bloch components are quarter-integers
    (exact zeros and ties among the amplitudes)."""
    quarter = np.round(bloch_grid(24, 3) * 4) / 4
    quarter = quarter[np.abs(np.linalg.norm(quarter, axis=1) - 1) < 1e-12]
    points = np.vstack([bloch_grid(n_points, 0), quarter])
    return np.stack([state_from_bloch(b) for b in points])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_encoding_and_reduction_equal_the_per_state_loop(n):
    psis = _inputs(12)
    stacked = build_encoded_state(n, psis)
    loop = [build_encoded_state(n, psi) for psi in psis]
    assert stacked.shape == (len(psis), 2 ** (2 * n + 1))
    assert np.array_equal(stacked, np.stack(loop))
    # Single qubits, a reversed pair, every other qubit from the last one
    # down, and the first six register qubits (at most 64 x 64 states).
    nq = 2 * n + 1
    keeps = [[0], [nq - 1], [2, 1], list(range(nq - 1, -1, -2))[:6],
             list(range(1, min(nq, 7)))]
    for keep in keeps:
        want = [reduced_density(s, keep) for s in loop]
        assert np.array_equal(reduced_density(stacked, keep), np.stack(want))
        want = [reduced_factor(s, keep) for s in loop]
        assert np.array_equal(reduced_factor(stacked, keep), np.stack(want))


def test_stacked_encoding_keeps_leading_axes_and_validates_every_row():
    psis = _inputs(6)[:6].reshape(2, 3, 2)
    states = build_encoded_state(2, psis)
    assert states.shape == (2, 3, 32)
    assert np.array_equal(states[1, 2], build_encoded_state(2, psis[1, 2]))
    assert reduced_density(states, [1, 3]).shape == (2, 3, 4, 4)
    bad = psis.copy()
    bad[1, 0] = [1.0, 1.0]
    with pytest.raises(ValueError, match="not normalized"):
        build_encoded_state(2, bad)
    with pytest.raises(ValueError, match="2-amplitude"):
        build_encoded_state(2, np.ones((4, 3)) / np.sqrt(3))


def _refusal(call, *args) -> str:
    with pytest.raises(ValueError) as exc:
        call(*args)
    return str(exc.value)


def test_stacked_encoding_refuses_each_bad_input_as_the_row_check_does():
    # The stack is tested in one pass; what it flags goes to
    # bloch_from_state, so the message is that of the first bad row.
    psis = _inputs(6)[:6]
    nan_row, long_row = psis.copy(), psis.copy()
    nan_row[2] = [np.nan, 0.0]
    long_row[1] *= 1 + 1e-12  # |amp|^2 about 1 + 2e-12
    long_row[4] = [np.nan, 0.0]
    cases = [(np.array(1.0), np.array(1.0)),
             (np.ones((4, 3)) / np.sqrt(3), np.ones(3) / np.sqrt(3)),
             (nan_row, nan_row[2]),
             (long_row, long_row[1])]
    for psi, first_bad in cases:
        message = _refusal(bloch_from_state, first_bad)
        assert _refusal(build_encoded_state, 2, psi) == message
    assert message.startswith("state is not normalized: |amp|^2 = ")


def test_stacked_encoding_accepts_rows_within_the_row_tolerance():
    # A norm off by less than _NORM_ATOL, though more than the stack test
    # allows, is still accepted, as bloch_from_state accepts it.
    psis = _inputs(6)[:6]
    psis[3] *= np.sqrt(1 + 0.9 * _NORM_ATOL)
    bloch_from_state(psis[3])
    states = build_encoded_state(2, psis)
    assert np.array_equal(states[3], build_encoded_state(2, psis[3]))


def _branch_sum(n, psi):
    """The encoder by its definition: the four branches built pair by pair
    with Kronecker (outer) products, each over its phase, summed and
    halved."""
    psi = np.asarray(psi, dtype=complex)
    phases = branch_phases(n)
    total = np.zeros(psi.shape[:-1] + (2 ** (2 * n + 1),), dtype=complex)
    for mu in range(4):
        vec = psi @ SIGMA[mu].T
        for _ in range(n):
            vec = (vec[..., None] * bell_branch(mu)).reshape(
                psi.shape[:-1] + (-1,))
        total += vec / phases[mu]
    return total / 2.0


def _assert_same_bits(got, want):
    # array_equal takes -0.0 for +0.0, so the sign bits are compared too.
    assert got.shape == want.shape
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)),
                          np.signbit(want.view(float)))


# Exact zeros of either sign, and subnormal amplitudes, which round
# differently if the basis is halved before the product rather than after,
# or halved by a product with 0.5 rather than by a division.
_EDGE_INPUTS = np.array([
    [1, 0], [0, 1], [-1, 0], [0, -1j], [-0.0, 1], [1, -0.0],
    [complex(-0.0, -0.0), complex(0.0, 1.0)],
    [complex(0.6, -0.0), complex(-0.0, -0.8)],
    [1, 3e-310], [complex(5e-324, 1), 0], [complex(1e-309, -3e-310), 1],
    [5e-324j, 1j]],
    dtype=complex)

_AMPLITUDES = st.floats(-1, 1, allow_nan=False)


@st.composite
def _stacks(draw):
    rows = draw(st.lists(st.tuples(*[_AMPLITUDES] * 4).filter(
        lambda row: sum(x * x for x in row) > 0.25), min_size=1, max_size=5))
    psi = np.array([[complex(a, b), complex(c, d)] for a, b, c, d in rows])
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_encoding_is_bit_identical_to_the_branch_sum(n):
    poles = np.stack([state_from_bloch(b) for b in _POLES])
    for psi in (poles, _EDGE_INPUTS, _EDGE_INPUTS[4], poles.reshape(3, 2, 2)):
        _assert_same_bits(build_encoded_state(n, psi), _branch_sum(n, psi))


@pytest.mark.parametrize("n", range(1, 8))
@settings(max_examples=15, deadline=None)
@given(psi=_stacks())
def test_basis_encoding_is_bit_identical_on_drawn_stacks(n, psi):
    _assert_same_bits(build_encoded_state(n, psi), _branch_sum(n, psi))


def test_encoding_basis_is_read_only_gaussian_and_cached_for_two_n():
    assert encoding_basis.cache_info().maxsize == 2
    for n in range(1, 6):
        basis = encoding_basis(n)
        assert basis is encoding_basis(n)
        assert not basis.flags.writeable
        assert basis.shape == (2, 2 ** (2 * n + 1))
        assert set(np.unique(basis)) <= {0, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}
        # Each amplitude reads one input amplitude only.
        assert ((basis != 0).sum(axis=0) <= 1).all()
        assert encoding_basis.cache_info().currsize <= 2
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1
