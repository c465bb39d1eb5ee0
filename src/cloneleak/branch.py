"""Constant-size interference calculus for aligned register subsets.

The reduced state of an aligned subset (one qubit from every pair, p signals
and q = n-p noises) is determined by 4x4 tables indexed by the branch pair
(mu, nu): the encoder's phase ratios, the overlap left by tracing the source
qubit, and the single-qubit factor left on each kept signal or noise qubit.
Pointwise-multiplying the tables and summing the 16 entries gives the
coefficient of each Bloch component in the reduced state, so the whole
computation stays exact and independent of the register dimension.

Every table entry lies in {0, +-1, +-i}. Each table is one exponent of i
mod 4 per branch pair, set once from `pauli_mul` (the phase ratios from
`branch_phases(n)`), read on the pairs that feed one component. A pointwise
product of tables adds their exponents, and p equal factors multiply one
exponent by p, so sums like 1 + (-1) cancel exactly rather than to rounding
error.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .oracle import branch_phases, i_power
from .pauli import PAULI_LABELS, PauliSum, pauli_mul, read_only_cache


# i**k at index k; an entry of every branch-pair table is one of these or 0.
_UNITS = np.array([i_power(k) for k in range(4)])
_EXPONENT = {i_power(k): k for k in range(4)}

# Per branch pair (mu, nu), from sigma_mu sigma_nu = i**e sigma_c: the
# component c it feeds (0 on the diagonal) and the exponent of each factor
# table, read on component j by `_lookup`:
# - the signal's is e: tracing a noise partner out leaves sigma_mu sigma_nu
#   / 2 on the kept signal qubit;
# - the overlap's is that of (nu, mu): tracing the source qubit out leaves
#   the scalar <psi| sigma_nu sigma_mu |psi>, whose b_j factor it gives;
# - the noise's is the overlap's with Y's sign flipped: tracing a signal
#   partner out leaves (sigma_nu sigma_mu)^T / 2, and transposition flips
#   the sign of the Y component only.
_PRODUCTS = [[pauli_mul(mu, nu) for nu in range(4)] for mu in range(4)]
_COMPONENT = np.array([[c for _, c in row] for row in _PRODUCTS])
_SIGNAL = np.array([[_EXPONENT[phase] for phase, _ in row] for row in _PRODUCTS])
_OVERLAP = _SIGNAL.T
_NOISE = np.array([[_EXPONENT[phase] + 2 * (c == 2) for phase, c in row]
                   for row in zip(*_PRODUCTS)])


def _lookup(exponent: np.ndarray, j: int) -> np.ndarray:
    """i**exponent on the branch pairs that feed component j, 0 elsewhere."""
    if j not in (1, 2, 3):
        raise ValueError(f"component index must be 1, 2, or 3, got {j}")
    return np.where(_COMPONENT == j, _UNITS[exponent % 4], 0)


@read_only_cache
def _ratio_exponents(n: int) -> np.ndarray:
    """Exponents of alpha_mu^-1 alpha_nu, the encoder's phase ratios."""
    e = np.array([_EXPONENT[a] for a in branch_phases(n)])
    return e[None, :] - e[:, None]


def phase_ratio_table(n: int) -> np.ndarray:
    """4x4 table of encoder phase ratios: entry (mu, nu) = alpha_mu^-1 alpha_nu."""
    return _UNITS[_ratio_exponents(n) % 4]


@read_only_cache
def phase_ratio_parts(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split phase_ratio_table(n) - I4 into the three per-component supports.

    Part j keeps only the entries at branch pairs that feed component j,
    so phase_ratio_table(n) == I4 + parts[0] + parts[1] + parts[2] exactly.
    """
    ratio = _ratio_exponents(n)
    return _lookup(ratio, 1), _lookup(ratio, 2), _lookup(ratio, 3)


def interference_table(n: int, p, j: int) -> np.ndarray:
    """Entrywise product of all four factor tables for component j: the
    phase ratios, the overlap, p signal and n-p noise factors.

    Summing this table over the 16 branch pairs gives (4x) the coefficient
    of b_j * sigma_j^(x)n in the reduced state of an aligned subset with p
    signal and n-p noise qubits. The product is one power of i per pair,
    its exponents added mod 4. An int array p gives one table per entry,
    shape p.shape + (4, 4).
    """
    p = np.asarray(p)
    if ((p < 0) | (p > n)).any():
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")
    p = p[..., None, None]
    return _lookup(_ratio_exponents(n) + _OVERLAP + p * _SIGNAL
                   + (n - p) * _NOISE, j)


def table_sum(table: np.ndarray):
    """Sum of all 16 entries of a 4x4 branch-pair table: a complex, or an
    array of them for a stack of tables (shape (..., 4, 4))."""
    table = np.asarray(table)
    if table.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 table, got shape {table.shape}")
    sums = table.sum(axis=(-2, -1))
    return complex(sums) if sums.ndim == 0 else sums


def leak_sum_closed_form(n: int, p: int) -> int:
    """Closed form of the Y-component interference sum.

    Zero unless both n and p are odd; then 4 * (-1)**((n-1)/2). The X and Z
    sums vanish identically for every (n, p).
    """
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")
    if n % 2 == 0 or p % 2 == 0:
        return 0
    return 4 * (-1) ** (((n - 1) // 2) % 2)


def analytic_reduced_state(n: int, p: int, bloch) -> PauliSum:
    """Reduced state of the aligned subset with p signals and n-p noises.

    Returns (1/2^n) (I^(x)n + sum_j c_j b_j sigma_j^(x)n) with each c_j
    computed from its interference table; only the Y component can survive.
    The result is laid out signal-first (S_1..S_p, N_{p+1}..N_n), though the
    operator is symmetric under qubit permutation.
    """
    if n < 1:
        raise ValueError(f"clone count must be >= 1, got {n}")
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")
    b = np.asarray(bloch, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"expected a Bloch triple, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"non-finite Bloch component in {b}")
    if float(np.linalg.norm(b)) > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(b)!r} exceeds 1")
    scale = math.ldexp(1.0, -n)  # 1.0 / 2 ** n overflows from n = 1024
    terms = {"I" * n: scale}
    for j, c in enumerate(_component_coefficients(n)[p], start=1):
        coeff = c * float(b[j - 1]) * scale
        if coeff != 0.0:
            terms[PAULI_LABELS[j] * n] = coeff
    return PauliSum(n, terms)


@functools.lru_cache(maxsize=64)
def _component_coefficients(n: int) -> tuple[tuple[float, float, float], ...]:
    """Per p = 0..n, c_j = (interference sum of component j) / 4 for
    j = 1, 2, 3: the three sums an aligned (n, p) state needs, from one
    stacked interference table per j."""
    columns = []
    for j in (1, 2, 3):
        sums = table_sum(interference_table(n, np.arange(n + 1), j))
        if sums.imag.any():
            raise AssertionError(f"interference sum for component {j} is not "
                                 f"real: {complex(sums[sums.imag != 0][0])!r}")
        columns.append((sums.real / 4.0).tolist())
    return tuple(zip(*columns))
