"""Single-qubit Pauli algebra, Bloch-vector conversions, and multi-qubit
Pauli-string operators in sparse and dense form.

Conventions used throughout the package:

* Pauli indices are integers 0..3 for I, X, Y, Z; strings over "IXYZ"
  address multi-qubit operators, one letter per qubit.
* Pure qubit states are complex arrays of shape (2,) with a canonical
  global phase: the |0> amplitude is real and nonnegative (if it is zero,
  the |1> amplitude is real and positive).
* Density matrices are dense complex square arrays.
"""

from __future__ import annotations

import functools
import math

import numpy as np

PAULI_LABELS = "IXYZ"

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Coefficients smaller than this are dropped from sparse operators so that
# equal operators have equal term dictionaries.
COEFF_PRUNE = 1e-14

# Dense realizations above this qubit count are refused (memory guard).
DENSE_QUBIT_CAP = 12

_NORM_ATOL = 1e-12
_BLOCH_NORM_ATOL = 1e-9

# Cyclic products: sigma_a sigma_b = +i sigma_c for these (a, b).
_CYCLIC = {(1, 2), (2, 3), (3, 1)}


def read_only_cache(func):
    """`functools.lru_cache` whose arrays (or tuples of them) are read-only."""
    @functools.wraps(func)
    def frozen(*args):
        out = func(*args)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.flags.writeable = False
        return out
    return functools.lru_cache(maxsize=1024)(frozen)


def pauli_mul(a: int, b: int) -> tuple[complex, int]:
    """Multiply two single-qubit Paulis: sigma_a sigma_b = phase * sigma_c.

    Returns (phase, c) with phase in {1, -1, i, -i} and c in 0..3.
    """
    if not (0 <= a <= 3 and 0 <= b <= 3):
        raise ValueError(f"Pauli indices must be in 0..3, got ({a}, {b})")
    if a == 0:
        return 1, b
    if b == 0:
        return 1, a
    if a == b:
        return 1, 0
    c = 6 - a - b
    phase = 1j if (a, b) in _CYCLIC else -1j
    return phase, c


def bloch_from_state(state: np.ndarray) -> np.ndarray:
    """Bloch vector (<X>, <Y>, <Z>) of a normalized pure qubit state."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (2,):
        raise ValueError(f"expected a 2-amplitude state, got shape {state.shape}")
    if not np.isfinite(state).all():
        raise ValueError(f"non-finite amplitude in {state}")
    norm2 = float(np.vdot(state, state).real)
    if abs(norm2 - 1.0) > _NORM_ATOL:
        raise ValueError(f"state is not normalized: |amp|^2 = {norm2!r}")
    a0, a1 = state
    cross = np.conj(a0) * a1
    x = 2.0 * cross.real
    y = 2.0 * cross.imag
    z = float((abs(a0) ** 2 - abs(a1) ** 2).real)
    return np.array([x, y, z])


def state_from_bloch(bloch: np.ndarray) -> np.ndarray:
    """Pure qubit state with the given unit Bloch vector, canonical phase.

    Rejects vectors whose norm differs from 1 by more than _BLOCH_NORM_ATOL
    (those describe mixed states, which have no state-vector form).
    """
    b = np.asarray(bloch, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"expected a Bloch triple, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"non-finite Bloch component in {b}")
    norm = float(np.linalg.norm(b))
    if abs(norm - 1.0) > _BLOCH_NORM_ATOL:
        raise ValueError(f"Bloch vector has norm {norm!r}; only pure (unit) vectors "
                         "correspond to state vectors")
    x, y, z = b / norm
    # Half-angle amplitudes taken from whichever of (1 +- z)/2 is larger and
    # the transverse radius otherwise, so components as small as the
    # round-off of z survive the round trip.
    r = math.hypot(x, y)
    c2 = (1.0 + z) / 2.0
    s2 = (1.0 - z) / 2.0
    if c2 >= s2:
        amp0 = math.sqrt(c2)
        amp1_mag = r / (2.0 * amp0)
    else:
        amp1_mag = math.sqrt(s2)
        amp0 = r / (2.0 * amp1_mag)
    phase = complex(x / r, y / r) if r > 0.0 else 1.0
    return np.array([amp0, phase * amp1_mag], dtype=complex)


class PauliSum:
    """Sparse Hermitian operator: real coefficients on Pauli strings.

    Terms with |coefficient| < COEFF_PRUNE are dropped on construction, so
    two PauliSums are equal iff their pruned term maps are equal.
    """

    __slots__ = ("qubit_count", "terms")

    def __init__(self, qubit_count: int, terms: dict[str, float] | None = None):
        if qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        self.qubit_count = int(qubit_count)
        pruned: dict[str, float] = {}
        for letters, coeff in (terms or {}).items():
            if len(letters) != qubit_count:
                raise ValueError(f"term {letters!r} has length {len(letters)}, "
                                 f"expected {qubit_count}")
            if any(ch not in PAULI_LABELS for ch in letters):
                raise ValueError(f"invalid Pauli letter in {letters!r}")
            coeff = float(coeff)
            if abs(coeff) >= COEFF_PRUNE:
                pruned[letters] = coeff
        self.terms = pruned

    def coefficient(self, letters: str) -> float:
        return self.terms.get(letters, 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.qubit_count == other.qubit_count and self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{s}" for s, c in sorted(self.terms.items()))
        return f"PauliSum({self.qubit_count}, {body or '0'})"


def flip_mask(letters: str) -> int:
    """Bits of a Pauli string's X and Y qubits, first letter highest: column
    c of the string's matrix is nonzero in row c ^ flip_mask only."""
    k = len(letters)
    return sum(1 << (k - 1 - j) for j, ch in enumerate(letters) if ch in "XY")


@read_only_cache
def string_phases(letters: str) -> np.ndarray:
    """The one nonzero entry of each column of a Pauli string's matrix: at
    column c, the left-to-right product of each qubit's sigma[b ^ f, b] over
    c's bits b (f = 1 for X and Y), as a Kronecker chain would form it."""
    factors = []
    for ch in letters:
        sig, f = SIGMA[PAULI_LABELS.index(ch)], int(ch in "XY")
        factors.append(np.array([sig[f, 0], sig[1 - f, 1]]))
    return functools.reduce(np.multiply.outer, factors).ravel()


def pauli_sum_to_dense(ps: PauliSum) -> np.ndarray:
    """Dense matrix of a sparse Pauli sum, scattered column by column: each
    term adds coeff * string_phases to the entries (c ^ flip_mask, c)."""
    if ps.qubit_count > DENSE_QUBIT_CAP:
        raise ValueError(f"PauliSum on {ps.qubit_count} qubits exceeds dense "
                         f"cap {DENSE_QUBIT_CAP}")
    dim = 2 ** ps.qubit_count
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for letters, coeff in ps.terms.items():
        out[cols ^ flip_mask(letters), cols] += coeff * string_phases(letters)
    return out


def dense_to_pauli_sum(rho: np.ndarray) -> PauliSum:
    """Expand a Hermitian matrix in the Pauli-string basis.

    Contracts one qubit at a time, so the cost is O(k 4^k) rather than
    the naive O(16^k) of evaluating every string separately.
    """
    rho = np.asarray(rho, dtype=complex)
    k = _qubit_count_of(rho)
    basis = np.stack(SIGMA)  # (4, 2, 2), indexed [s, row, col]
    t = rho.reshape([2] * (2 * k))
    for _ in range(k):
        # Coefficient of sigma_s on the first remaining qubit:
        # contract rho's (row, col) axes of that qubit with sigma_s[col, row].
        t = np.tensordot(basis, t, axes=([2, 1], [0, k]))
        # tensordot put the new s-axis first; the remaining qubit axes follow.
        t = np.moveaxis(t, 0, -1)
        k -= 1
    coeffs = t / rho.shape[0]  # shape (4,)*k_original, Tr normalization
    n = coeffs.ndim
    terms = {}
    for idx in np.argwhere(np.abs(coeffs) >= COEFF_PRUNE):
        c = coeffs[tuple(idx)]
        if abs(c.imag) > 1e-10:
            raise ValueError("matrix is not Hermitian: complex Pauli coefficient "
                             f"{c!r} at {tuple(idx)}")
        terms["".join(PAULI_LABELS[i] for i in idx)] = float(c.real)
    return PauliSum(n, terms)


def expectation(rho: np.ndarray, letters: str, *,
                factored: bool = False) -> float:
    """Tr(rho * P) for a Pauli string P, asserted real.

    Column b of sigma is nonzero in row b ^ f only (f = 1 for X and Y), so
    P meets just t[r] = rho[r, r ^ flip]: 2**k entries, contracted qubit by
    qubit. No dense matrix for P is built.

    With factored=True, `rho` is a factor M of shape (2**k, m) with
    rho = M M^dagger (any m, square included), and t[r] is gathered as
    sum_j M[r, j] conj(M[r ^ flip, j]) in O(2**k m), so
    Tr(M^dagger P M) is read without forming rho (Nielsen & Chuang, ch. 2).
    """
    rho = np.asarray(rho, dtype=complex)
    k = _qubit_count_of(rho, square=not factored)
    if len(letters) != k:
        raise ValueError(f"operator acts on {len(letters)} qubits but the state "
                         f"has {k}")
    rows = np.arange(2 ** k)
    cols = rows ^ flip_mask(letters)
    if factored:
        t = (rho * rho[cols].conj()).sum(axis=1)
    else:
        t = rho[rows, cols]
    t = t.reshape([2] * k)
    for ch in letters:
        sig, f = SIGMA[PAULI_LABELS.index(ch)], int(ch in "XY")
        # Tr over the first remaining qubit: sum_b sig[b ^ f, b] t[b, ..]
        t = sig[f, 0] * t[0] + sig[1 - f, 1] * t[1]
    val = complex(t)
    if abs(val.imag) > 1e-10:
        raise AssertionError(f"expectation has imaginary residue {val.imag!r}")
    return val.real


def _qubit_count_of(mat: np.ndarray, square: bool = True) -> int:
    """Qubits of a square matrix, or of a factor's rows if not `square`."""
    if mat.ndim != 2 or (square and mat.shape[0] != mat.shape[1]):
        kind = "a square matrix" if square else "a 2-D factor"
        raise ValueError(f"expected {kind}, got shape {mat.shape}")
    k = int(mat.shape[0]).bit_length() - 1
    if 2 ** k != mat.shape[0]:
        raise ValueError(f"dimension {mat.shape[0]} is not a power of two")
    return k
