"""Constant-size interference calculus for aligned register subsets.

The reduced state of an aligned subset (one qubit from every pair, p signals
and q = n-p noises) is determined by 4x4 tables indexed by the branch pair
(mu, nu): the encoder's phase ratios, the overlap left by tracing the source
qubit, and the single-qubit factor left on each kept signal or noise qubit.
Pointwise-multiplying the tables and summing the 16 entries gives the
coefficient of each Bloch component in the reduced state, so the whole
computation stays exact and independent of the register dimension.

Every table entry lies in {0, +-1, +-i}; powers of i are taken by exponent
mod 4, so sums like 1 + (-1) cancel exactly rather than to rounding error.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .oracle import branch_phases
from .pauli import PAULI_LABELS, PauliSum, pauli_mul, read_only_cache


def _component_of(mu: int, nu: int) -> int:
    """Which Pauli component (1..3) the off-diagonal branch pair feeds."""
    _, c = pauli_mul(mu, nu)
    return c


def phase_ratio_table(n: int) -> np.ndarray:
    """4x4 table of encoder phase ratios: entry (mu, nu) = alpha_mu^-1 alpha_nu."""
    a = branch_phases(n)
    inv = [1.0 / v for v in a]
    return np.array([[inv[mu] * a[nu] for nu in range(4)] for mu in range(4)],
                    dtype=complex)


@read_only_cache
def phase_ratio_parts(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split phase_ratio_table(n) - I4 into the three per-component supports.

    Part j keeps only the entries at branch pairs that feed component j,
    so phase_ratio_table(n) == I4 + parts[0] + parts[1] + parts[2] exactly.
    """
    full = phase_ratio_table(n)
    parts = [np.zeros((4, 4), dtype=complex) for _ in range(3)]
    for mu in range(4):
        for nu in range(4):
            if mu != nu:
                j = _component_of(mu, nu)
                parts[j - 1][mu, nu] = full[mu, nu]
    return parts[0], parts[1], parts[2]


def _component_table(j: int, entry) -> np.ndarray:
    if j not in (1, 2, 3):
        raise ValueError(f"component index must be 1, 2, or 3, got {j}")
    out = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            if mu != nu and _component_of(mu, nu) == j:
                out[mu, nu] = entry(mu, nu)
    return out


@read_only_cache
def bloch_overlap_table(j: int) -> np.ndarray:
    """Coefficient of Bloch component j in the source-qubit overlap.

    Tracing the source qubit leaves the scalar <psi| sigma_nu sigma_mu |psi>;
    entry (mu, nu) is the factor multiplying b_j there.
    """
    return _component_table(j, lambda mu, nu: pauli_mul(nu, mu)[0])


@read_only_cache
def signal_factor_table(j: int) -> np.ndarray:
    """Phase left on a kept signal qubit when its noise partner is traced out.

    The kept factor is sigma_mu sigma_nu / 2; entry (mu, nu) is the phase
    multiplying sigma_j.
    """
    return _component_table(j, lambda mu, nu: pauli_mul(mu, nu)[0])


@read_only_cache
def noise_factor_table(j: int) -> np.ndarray:
    """Phase left on a kept noise qubit when its signal partner is traced out.

    The kept factor is (sigma_nu sigma_mu)^T / 2; transposition flips the
    sign of the Y component only.
    """
    def entry(mu, nu):
        phase, c = pauli_mul(nu, mu)
        return -phase if c == 2 else phase

    return _component_table(j, entry)


def pointwise_power(base: np.ndarray, k: int) -> np.ndarray:
    """Entrywise k-th power of a table, restricted to its support.

    k = 0 yields ones on the support of `base` (the neutral element of the
    entrywise product there), which keeps all-signal and all-noise subsets
    well defined.
    """
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    out = (base != 0).astype(complex)
    for _ in range(k):
        out = out * base
    return out


@read_only_cache
def signal_factor_power(j: int, p: int) -> np.ndarray:
    return pointwise_power(signal_factor_table(j), p)


@read_only_cache
def noise_factor_power(j: int, q: int) -> np.ndarray:
    return pointwise_power(noise_factor_table(j), q)


def interference_table(n: int, p: int, j: int) -> np.ndarray:
    """Entrywise product of all four factor tables for component j.

    Summing this table over the 16 branch pairs gives (4x) the coefficient
    of b_j * sigma_j^(x)n in the reduced state of an aligned subset with p
    signal and n-p noise qubits.
    """
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")
    q = n - p
    return (phase_ratio_parts(n)[j - 1]
            * bloch_overlap_table(j)
            * signal_factor_power(j, p)
            * noise_factor_power(j, q))


def table_sum(table: np.ndarray) -> complex:
    """Sum of all 16 entries of a 4x4 branch-pair table."""
    table = np.asarray(table)
    if table.shape != (4, 4):
        raise ValueError(f"expected a 4x4 table, got shape {table.shape}")
    return complex(table.sum())


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
    for j, c in enumerate(_component_coefficients(n, p), start=1):
        coeff = c * float(b[j - 1]) * scale
        if coeff != 0.0:
            terms[PAULI_LABELS[j] * n] = coeff
    return PauliSum(n, terms)


@functools.lru_cache(maxsize=256)
def _component_coefficients(n: int, p: int) -> tuple[float, float, float]:
    """c_j = (interference sum of component j) / 4 for j = 1, 2, 3: the
    three sums an aligned (n, p) state needs, computed once per (n, p)."""
    coeffs = []
    for j in (1, 2, 3):
        t = table_sum(interference_table(n, p, j))
        if t.imag != 0.0:
            raise AssertionError(f"interference sum for component {j} is not "
                                 f"real: {t!r}")
        coeffs.append(t.real / 4.0)
    return tuple(coeffs)
