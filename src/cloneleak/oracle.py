"""Brute-force engine: build the full encoded pure state and reduce it by
explicit partial trace.

Qubit layout (fixed for the whole package): position 0 is the source qubit A
and is the most significant tensor factor; pair i (1-based) occupies
positions 2i-1 (signal S_i) and 2i (noise N_i), so a register of n pairs
plus the source spans 2n+1 qubits.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .pauli import (_NORM_ATOL, DENSE_QUBIT_CAP, SIGMA, bloch_from_state,
                    read_only_cache)

# Largest clone count the dense simulator accepts by default (11 qubits) and
# at all: a state of 2**(2n+1) amplitudes is 32 MiB at n = 10, 32 TiB at 20.
ORACLE_CAP_DEFAULT = 5
ORACLE_CAP_MAX = 10

# A norm test tighter than bloch_from_state's, so that a different order of
# the same four squares cannot turn a refusal into an acceptance.
_STACK_NORM_ATOL = _NORM_ATOL / 4

_H = 1 / np.sqrt(2.0)

_I_POWERS = (1, 1j, -1, -1j)


def i_power(k: int) -> complex:
    """i**k computed exactly by exponent mod 4."""
    return _I_POWERS[k % 4]


def branch_phases(n: int) -> tuple[complex, complex, complex, complex]:
    """Unit phases (one per Pauli branch) of the n-clone encoder.

    The branch indexed by Y carries the only n-dependence: its phase is
    -i**(n+1), which cycles through 1, i, -1, -i as n increases.
    """
    if n < 1:
        raise ValueError(f"clone count must be >= 1, got {n}")
    return (1, 1j, -i_power(n + 1), 1j)


@read_only_cache
def bell_branch(mu: int) -> np.ndarray:
    """Two-qubit state (sigma_mu (x) I) applied to the Bell pair
    (|00>+|11>)/sqrt(2), built once per mu and returned read-only."""
    if not 0 <= mu <= 3:
        raise ValueError(f"branch index must be in 0..3, got {mu}")
    return np.kron(SIGMA[mu], SIGMA[0]) @ [_H, 0, 0, _H]


def signal_position(i: int) -> int:
    """Qubit position of S_i (pair index i is 1-based)."""
    return 2 * i - 1


def noise_position(i: int) -> int:
    """Qubit position of N_i (pair index i is 1-based)."""
    return 2 * i


@functools.lru_cache(maxsize=2)  # 64 MiB at n = 10
def encoding_basis(n: int) -> np.ndarray:
    """Read-only (2, 2**(2n+1)) basis G of Gaussian integers (0 or +-1 +-i)
    with enc(psi) = (psi h^n) @ G / 2: row c is sum_mu sigma_mu[:, c] (x)
    u_mu^(x)n / phase_mu, where u_mu = sqrt(2) bell_branch(mu)."""
    basis = np.zeros((2, 2) + (4,) * n, dtype=complex)
    for mu, phase in enumerate(branch_phases(n)):
        unit = bell_branch(mu) / _H  # exactly 0, +-1 or +-i
        head = functools.reduce(np.multiply.outer, [unit] * (n - 1),
                                SIGMA[mu].T / phase)
        for k in np.flatnonzero(unit):  # the last pair's factor, in place
            basis[..., k] += head * unit[k]
    basis.flags.writeable = False
    return basis.reshape(2, -1)


def build_encoded_state(n: int, psi: np.ndarray) -> np.ndarray:
    """Encode one qubit into n clone/noise pairs; returns 2**(2n+1) amplitudes.

    The output is the equal-weight coherent sum of four branches: branch mu
    applies sigma_mu to the input qubit and to the signal half of every Bell
    pair, weighted by the inverse branch phase. A stack of inputs, shape
    (..., 2), gives a stack of outputs (..., 2**(2n+1)) in one call.

    Each pair factor is h = 1/sqrt(2) times a unit and each amplitude sums
    at most two branch terms of one input amplitude, so (psi h^n) @
    `encoding_basis` / 2 rounds every bit as the branch sum does (tested).
    """
    if n < 1:
        raise ValueError(f"clone count must be >= 1, got {n}")
    if n > ORACLE_CAP_MAX:
        raise ValueError(f"n={n} exceeds the oracle cap {ORACLE_CAP_MAX} "
                         f"({2 * n + 1} qubits)")
    psi = np.asarray(psi, dtype=complex)
    rows = psi.reshape((-1,) + psi.shape[-1:])
    if psi.shape[-1:] == (2,):
        # One pass over the stack: a NaN or inf norm fails the test too.
        # Only the rows it flags go to bloch_from_state, whose own test at
        # _NORM_ATOL decides; what passes here passes there.
        norm2 = (rows.real ** 2 + rows.imag ** 2).sum(axis=-1)
        rows = rows[~(np.abs(norm2 - 1.0) <= _STACK_NORM_ATOL)]
    for row in rows:
        bloch_from_state(row)  # validates shape and normalization
    # psi h^n, one multiplication by h at a time, as the pair factors are.
    scaled = functools.reduce(np.multiply, [_H] * n, psi.reshape(-1, 2))
    total = scaled @ encoding_basis(n)
    # Divided as the branch sum is: * 0.5 can turn an underflow's -0.0 to +0.0.
    total /= 2.0
    return total.reshape(psi.shape[:-1] + total.shape[-1:])


def reduced_factor(state: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Amplitudes as a (2**len(keep), 2**rest) matrix M with M M^dagger the
    reduced density of the kept qubit positions.

    Permutes the kept axes to the front and flattens, so no density matrix
    is formed. The kept factors appear in the order listed. A stack of
    states (..., 2**nq) gives a stack of factors in one call. Complex input
    keeps its dtype; any other is converted to complex128.
    """
    state = np.atleast_1d(np.asarray(state))
    if not np.iscomplexobj(state):
        state = state.astype(complex)
    nq = int(state.shape[-1]).bit_length() - 1
    if 2 ** nq != state.shape[-1]:
        raise ValueError(f"amplitude count {state.shape[-1]} is not a power "
                         f"of two")
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit positions in keep set {keep}")
    if any(q < 0 or q >= nq for q in keep):
        raise ValueError(f"keep positions {keep} out of range for {nq} qubits")
    rest = [q for q in range(nq) if q not in keep]
    lead = state.shape[:-1]
    axes = list(range(len(lead))) + [len(lead) + q for q in keep + rest]
    tensor = state.reshape(lead + (2,) * nq).transpose(axes)
    return tensor.reshape(lead + (2 ** len(keep), 2 ** len(rest)))


def reduced_density(state: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Partial trace of |state><state| keeping the given qubit positions.

    Contracts the complement of `reduced_factor`'s matrix, for one state or
    a stack, so the full density matrix is never materialized.
    DENSE_QUBIT_CAP bounds the kept qubit count, checked before any work.
    """
    if len(keep) > DENSE_QUBIT_CAP:
        raise ValueError(f"keeping {len(keep)} qubits exceeds the dense cap "
                         f"{DENSE_QUBIT_CAP}")
    mat = reduced_factor(state, keep)
    del state  # a caller's temporary is freed before the product
    return mat @ mat.conj().swapaxes(-1, -2)
