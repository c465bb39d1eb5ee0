import numpy as np
import pytest

from cloneleak import PauliSum, bloch_grid, branch, oracle, state_from_bloch

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(*mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


@pytest.fixture(scope="session")
def grid():
    return bloch_grid(26, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def tampered_analytic_sign(monkeypatch):
    """Negative control: the branch calculus reports the all-Y term of every
    reduced state with the wrong sign, so engine agreement must fail."""
    exact = branch.analytic_reduced_state

    def tampered(n, p, bloch):
        ps = exact(n, p, bloch)
        terms = dict(ps.terms)
        letters = "Y" * ps.qubit_count
        if letters in terms:
            terms[letters] = -terms[letters]
        return PauliSum(ps.qubit_count, terms)

    monkeypatch.setattr(branch, "analytic_reduced_state", tampered)


@pytest.fixture
def off_pole_encoding(monkeypatch):
    """Negative control: the +x pole is encoded as another input, so the
    pole states are no longer in the span of enc(|0>) and enc(|1>) at the
    Bloch vectors they stand for, and the linearity certificate must fail."""
    encode = oracle.build_encoded_state
    plus_x = state_from_bloch([1.0, 0.0, 0.0])

    def perturbed(n, psi):
        psi = np.array(psi, dtype=complex)
        psi[(psi == plus_x).all(axis=-1)] = state_from_bloch([0.6, 0.8, 0.0])
        return encode(n, psi)

    monkeypatch.setattr(oracle, "build_encoded_state", perturbed)


@pytest.fixture
def asymmetric_pair_encoding(monkeypatch):
    """Negative control: pair 1 holds the Bell pair |01> + |10> (an X on its
    noise qubit N1) while every other pair holds |00> + |11>, so the encoder
    no longer treats every pair alike and the pair-symmetry certificate must
    fail for n >= 2. (Swapping S1 and N1 would not do: that flips the sign
    of the Y branch whichever pair it is applied to.)"""
    encode = oracle.build_encoded_state

    def flipped(n, psi):
        states = encode(n, psi)
        qubits = states.reshape(states.shape[:-1] + (2,) * (2 * n + 1))
        return np.flip(qubits, axis=states.ndim - 1
                       + oracle.noise_position(1)).reshape(states.shape)

    monkeypatch.setattr(oracle, "build_encoded_state", flipped)


@pytest.fixture
def symmetric_leaking_encoding(monkeypatch):
    """Negative control: psi0|0...0> + psi1|1...1> over all 2n+1 qubits. It
    is linear in psi and unchanged by every pair swap, so the pair-symmetry
    certificate passes and the pole states are affine; yet every qubit on
    its own reveals z, so S1 leaks, and so does every subset that misses a
    pair."""

    def ghz(n, psi):
        psi = np.asarray(psi, dtype=complex)
        state = np.zeros(psi.shape[:-1] + (2 ** (2 * n + 1),), dtype=complex)
        state[..., 0] = psi[..., 0]
        state[..., -1] = psi[..., 1]
        return state

    monkeypatch.setattr(oracle, "build_encoded_state", ghz)


@pytest.fixture
def nonlinear_encoding(monkeypatch):
    """Negative control: each input amplitude is squared, and the pair
    renormalized, before the true encoder runs. Every state is still an
    encoded state, unchanged by every pair swap, and |0> and |1> encode as
    before; but the encoder is not linear in psi, so the grid's states are
    not in the span of enc(|0>) and enc(|1>), and reading them from it
    would hide the change."""
    encode = oracle.build_encoded_state

    def squared(n, psi):
        psi = np.asarray(psi, dtype=complex) ** 2
        return encode(n, psi / np.linalg.norm(psi, axis=-1, keepdims=True))

    monkeypatch.setattr(oracle, "build_encoded_state", squared)


@pytest.fixture
def scaled_encoding(monkeypatch):
    """Negative control: every encoded state scaled by 1 + 1e-9. The encoder
    stays linear and pair-symmetric, so both certificates of the span pass;
    but its rows scaled by 2 / h^n lie 1e-9 off the Gaussian integers, so
    the grid checks must refuse to read them."""
    encode = oracle.build_encoded_state
    monkeypatch.setattr(oracle, "build_encoded_state",
                        lambda n, psi: encode(n, psi) * (1 + 1e-9))


@pytest.fixture
def bumped_one_encoding(monkeypatch):
    """Negative control: enc(|1>) gains h^n / 2 on |0...0>, whose amplitude
    is 0 in the true enc(|1>). The encoder stays linear (psi_1 times a
    fixed vector is added), pair-symmetric (|0...0> is unchanged by every
    pair swap), and its rows scaled by 2 / h^n stay Gaussian integers with
    parts in {-1, 0, 1}: only the identities can catch it."""
    encode = oracle.build_encoded_state

    def bumped(n, psi):
        psi = np.asarray(psi, dtype=complex)
        states = encode(n, psi)
        states[..., 0] += psi[..., 1] * np.sqrt(0.5) ** n / 2
        return states

    monkeypatch.setattr(oracle, "build_encoded_state", bumped)


@pytest.fixture
def gaussian_leaking_encoding(monkeypatch):
    """Negative control: symmetric_leaking_encoding with every amplitude
    times h^n / 2, so that its rows scaled by 2 / h^n are 0 or 1. It is
    linear, pair-symmetric and Gaussian, so it passes every certificate of
    the span (nothing reads its norm), and only the pole probes can catch
    it: every count class reads (0, 0, 1), no verdict's pattern."""

    def ghz(n, psi):
        psi = np.asarray(psi, dtype=complex)
        state = np.zeros(psi.shape[:-1] + (2 ** (2 * n + 1),), dtype=complex)
        state[..., 0] = psi[..., 0] * np.sqrt(0.5) ** n / 2
        state[..., -1] = psi[..., 1] * np.sqrt(0.5) ** n / 2
        return state

    monkeypatch.setattr(oracle, "build_encoded_state", ghz)
