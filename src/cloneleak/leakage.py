"""Quantitative leakage measurement: Bloch-sphere probe grids, trace
distance, informativeness probes, and the empirical resolution of the
leakage sign for odd clone counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import branch, oracle
from .pauli import PauliSum, expectation, pauli_sum_to_dense, state_from_bloch
from .subsets import PairTag, RegisterSubset

ENGINE_ORACLE = "oracle"
ENGINE_ANALYTIC = "analytic"

_GOLDEN = (1 + math.sqrt(5.0)) / 2


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds; every probe and check reads `TOLERANCES`."""

    uninformative: float = 1e-10   # below this a subset counts as state-independent
    informative: float = 1e-3      # above this a subset visibly depends on the input
    engine_agreement: float = 1e-10
    golden: float = 1e-12          # exact worked cases


TOLERANCES = Tolerances()


class SeparationGapError(RuntimeError):
    """The poles of an axis reduce to states neither equal nor orthogonal
    (`_pole_distance`). The calculus predicts distances of exactly 0 or 1,
    so refusing to classify is safer than guessing."""


class PairSymmetryError(RuntimeError):
    """An encoded state changed when two clone/noise pairs were swapped.

    Patterns are probed once per pair-permutation orbit only because the
    encoder treats every pair alike; a state that is not invariant leaves
    orbit-mates with different reduced states, so the probe refuses.
    """


class NotLinearError(RuntimeError):
    """Encoded states are not in the span of enc(|0>) and enc(|1>).

    The probes and the grid checks read every state from that span, which
    would hide an encoder that is not linear; so they refuse.
    """


class NotGaussianError(RuntimeError):
    """The encoder's rows, scaled by 2 / h^n, are not Gaussian integers with
    parts in {-1, 0, 1}, which the grid checks (`gram_blocks`) and the pole
    probes (`_pole_distance`) sum exactly."""


# +e_j then -e_j, for j = x, y, z.
_POLES = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])
_Y_POLE = _POLES[2]
_POLE_INPUTS = np.stack([state_from_bloch(b) for b in _POLES])


def bloch_grid(size: int = 26, seed: int = 0) -> np.ndarray:
    """(size, 3) array of unit Bloch vectors: the six axis poles, so y = +-1
    is always probed, plus a golden-spiral covering of the sphere.

    The spiral is a low-discrepancy lattice; the seed only rotates it about
    the y axis, so the same (size, seed) always yields the same points.
    """
    if size < 6:
        raise ValueError(f"grid size must be >= 6 (the poles), got {size}")
    extra = size - 6
    pts = [_POLES]
    if extra:
        i = np.arange(extra)
        # Spiral about the y axis so the poles of the lattice do not
        # duplicate the +-y grid poles.
        y = 1.0 - 2.0 * (i + 0.5) / extra
        r = np.sqrt(1.0 - y * y)
        phi = 2.0 * math.pi * (i / _GOLDEN + seed / _GOLDEN ** 2)
        pts.append(np.column_stack([r * np.cos(phi), y, r * np.sin(phi)]))
    points = np.vstack(pts)
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return points


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of r1 - r2."""
    r1 = np.asarray(r1)
    r2 = np.asarray(r2)
    if r1.shape != r2.shape:
        raise ValueError(f"dimension mismatch: {r1.shape} vs {r2.shape}")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(r1 - r2)).sum())


# Pairs per stacked eigenvalue call: bounds the memory of one batch.
PAIR_CHUNK = 64


def pairwise_max_trace_distance(rhos) -> tuple[float, np.ndarray]:
    """Max trace distance over all pairs, plus each state's max to any other.

    Eigenvalues are computed on stacked difference matrices in chunks to
    bound memory.
    """
    arr = np.stack([np.asarray(r) for r in rhos])
    per_point = np.zeros(arr.shape[0])
    ii, jj = np.triu_indices(arr.shape[0], 1)
    for start in range(0, ii.size, PAIR_CHUNK):
        i = ii[start:start + PAIR_CHUNK]
        j = jj[start:start + PAIR_CHUNK]
        dists = 0.5 * np.abs(np.linalg.eigvalsh(arr[i] - arr[j])).sum(axis=-1)
        np.maximum.at(per_point, i, dists)
        np.maximum.at(per_point, j, dists)
    return float(per_point.max(initial=0.0)), per_point


def keep_positions(subset: RegisterSubset) -> list[int]:
    """Qubit positions of a register subset in the simulator layout."""
    pos = []
    for i, tag in enumerate(subset.membership, start=1):
        if tag in (PairTag.BOTH, PairTag.SIGNAL):
            pos.append(oracle.signal_position(i))
        if tag in (PairTag.BOTH, PairTag.NOISE):
            pos.append(oracle.noise_position(i))
    return pos


def analytic_state(subset: RegisterSubset, bloch) -> PauliSum:
    """Exact Pauli form of an aligned subset's reduced state (branch calculus)."""
    if subset.missing_pairs or subset.both_count:
        reason = "MISSING_PAIR" if subset.missing_pairs else "OVERSIZED"
        raise ValueError(f"analytic engine needs an aligned subset (one qubit "
                         f"per pair); {subset.labels() or '(empty)'!r} is "
                         f"{reason}")
    return branch.analytic_reduced_state(subset.n, subset.signal_count, bloch)


def reduced_state(subset: RegisterSubset, bloch, engine: str) -> np.ndarray:
    """Dense reduced state of a subset via the requested engine.

    A stack of Bloch points, shape (k, 3), gives a stack of k states; the
    oracle engine forms it from one encoder call and one partial trace.
    """
    stacked = np.ndim(bloch) == 2
    if engine == ENGINE_ORACLE:  # the state lives only until it is factored
        psi = (np.stack([state_from_bloch(b) for b in bloch]) if stacked
               else state_from_bloch(bloch))
        return oracle.reduced_density(oracle.build_encoded_state(
            subset.n, psi), keep_positions(subset))
    if engine == ENGINE_ANALYTIC:
        if stacked:
            return np.stack([pauli_sum_to_dense(analytic_state(subset, b))
                             for b in bloch])
        return pauli_sum_to_dense(analytic_state(subset, bloch))
    raise ValueError(f"unknown engine {engine!r}")


def y_leak_estimate(rho: np.ndarray, k: int) -> float:
    """Expectation of the all-Y observable on a k-qubit state."""
    return expectation(rho, "Y" * k)


@dataclass
class LeakageReport:
    subset: RegisterSubset
    # Trace distance, 0.0 or 1.0, between the states at the poles +-e_j;
    # the subset is uninformative exactly when all three are 0.
    axis_distances: tuple[float, float, float]
    y_signal: float


def certify_pair_symmetry(n: int, rows) -> None:
    """Raise `PairSymmetryError` unless both rows enc(|0>), enc(|1>) are
    exactly invariant under every transposition of adjacent clone/noise
    pairs.

    These transpositions generate every permutation of the pairs, and a
    permutation is linear, so the certificate covers every state in the
    span of the rows (Harrow, arXiv:1308.6595).
    """
    nq = 2 * n + 1
    for i in range(1, n):
        axes = list(range(nq))
        for pos in (oracle.signal_position, oracle.noise_position):
            a, b = pos(i), pos(i + 1)
            axes[a], axes[b] = b, a
        for label, state in enumerate(rows):
            swapped = state.reshape([2] * nq).transpose(axes).reshape(-1)
            if not np.array_equal(swapped, state):
                raise PairSymmetryError(
                    f"n={n}: enc(|{label}>) changes under the transposition "
                    f"of pairs {i} and {i + 1}")


# Bytes of input states the span encodes at once (512 of n = 5; 8 of n = 8).
GRID_CHUNK_BYTES = 16 * 2 ** 20


def probe_patterns(n: int, subsets, reports: PoleReports | None = None
                   ) -> PoleReports:
    """Brute-force informativeness probes of many subsets from the six poles.

    A reduced state is linear in the input |psi><psi| (Nielsen & Chuang,
    ch. 8), so rho(b) = R0 + sum_j b_j R_j over the Bloch vector b, with
    R_j = (rho(+e_j) - rho(-e_j)) / 2. Any two inputs are then at most
    sum_j ||R_j||_1 apart, and the poles on axis j are exactly
    D_j = ||R_j||_1 apart: the sum bounds the distance on the whole sphere
    and the largest D_j is attained. Each probed subset reads the poles'
    factors from the integer rows of `reports` (a new `PoleReports(n)` if
    None), and each D_j is exactly 0 or 1 (`_pole_distance`).

    Subsets with the same `RegisterSubset.counts` have reduced states equal
    up to a permutation of their qubits (the span's pair symmetry), a
    unitary, which changes neither a trace distance nor <Y...Y>. So only
    the first subset of each count class is probed: the reports are keyed
    by `counts`, in order of first appearance, and each report's `subset`
    is its class's first subset. Passing the `reports` of an earlier call
    adds the reports of more subsets of the same n to it.
    """
    reports = PoleReports(n) if reports is None else reports
    for subset in subsets:
        if subset.counts not in reports:
            reports[subset.counts] = _probe_pattern(subset, reports.integers)
    return reports


class PoleReports(dict):
    """The encoder's two-state span at n, certified on its inputs, and the
    pole reports of subsets of n pairs keyed by count class
    (`probe_patterns`).

    The encoder is linear, enc(psi) = psi_0 E_0 + psi_1 E_1 with the rows
    E = enc(I2), so the pole probes and the grid checks read every state
    from the rows. That holds only for a linear encoder, so the rows are
    certified once, here: invariant under every pair permutation
    (`certify_pair_symmetry`), and equal to the encoder on the inputs,
    encoded in chunks of GRID_CHUNK_BYTES, to `TOLERANCES.engine_agreement`,
    or `NotLinearError`. The inputs begin with the six poles, as
    `bloch_grid`'s states do, so the certificate covers every probe. Only
    the rows as Gaussian integers G = round(E 2 / h^n) are kept
    (`integers`, the form of `oracle.encoding_basis`): the rounding must
    move no part by more than that tolerance, and every part must lie in
    {-1, 0, 1}, or `NotGaussianError`.
    """

    def __init__(self, n: int, inputs: np.ndarray | None = None):
        super().__init__()
        self.inputs = _POLE_INPUTS if inputs is None else inputs
        if not np.array_equal(self.inputs[:6], _POLE_INPUTS):
            raise ValueError("the span's inputs must begin with the six poles")
        self.n = n
        # Looked up at call time, so that a replaced encoder is the one read.
        rows = oracle.build_encoded_state(n, np.eye(2, dtype=complex))
        certify_pair_symmetry(n, rows)
        residual = 0.0
        step = max(1, GRID_CHUNK_BYTES // (16 * 2 ** (2 * n + 1)))
        for start in range(0, len(self.inputs), step):
            chunk = self.inputs[start:start + step]
            states = oracle.build_encoded_state(n, chunk)
            states -= chunk @ rows
            residual = max(residual, float(np.abs(states).max()))
        tol = TOLERANCES.engine_agreement
        if not residual <= tol:
            raise NotLinearError(
                f"n={n}: the states of the {len(self.inputs)} inputs differ "
                f"from the span of enc(|0>) and enc(|1>) by {residual:.3e} "
                f"(tolerance {tol:g})")
        scaled = np.ascontiguousarray(rows * (2.0 * math.sqrt(2.0) ** n),
                                      complex).view(float)
        del rows
        parts = np.rint(scaled)
        scaled -= parts
        moved = float(np.abs(scaled, out=scaled).max())
        largest = max(parts.max(), -parts.min())
        if not (moved <= tol and largest <= 1):
            raise NotGaussianError(
                f"n={n}: enc(|0>) and enc(|1>) scaled by 2/h^{n} lie "
                f"{moved:.3e} from Gaussian integers with parts up to "
                f"{largest:g} (tolerance {tol:g}, parts up to 1)")
        self.integers = parts.view(complex)


def gram_blocks(integers: np.ndarray, keep: list[int]):
    """Gamma_ac = M_a M_c^dagger for (a, c) = (0, 0), (0, 1), (1, 1), with
    M_a the reduced factor of the integer rows' G_a on the keep set K
    (Gamma10 is Gamma01^dagger). The reduced state of enc(psi) on K is
    sum_ac psi_a conj(psi_c) Gamma_ac / 2^(n+2). The rows are permuted and
    multiplied in complex64, exactly: an entry sums at most 2^(2n)
    products with parts in {-2, ..., 2}, below 2^24 for every n up to
    ORACLE_CAP_MAX (tested)."""
    top, bottom = np.split(oracle.reduced_factor(
        integers.reshape(-1).astype(np.complex64),
        [0] + [q + 1 for q in keep]), 2)
    return (top @ top.conj().T, top @ bottom.conj().T,
            bottom @ bottom.conj().T)


# Per axis x, y, z, its poles' inputs (1, +-1), (1, +-i), (1, 0), (0, 1) as
# weights of the integer rows, without the scales, which matter to neither
# equality nor orthogonality.
_AXIS_WEIGHTS = np.array([[[1, 1], [1, -1]], [[1, 1j], [1, -1j]],
                          [[1, 0], [0, 1]]])


def _pole_distance(plus: np.ndarray, minus: np.ndarray, context: str
                   ) -> float:
    """Trace distance between the normalized states P P^dagger and
    Q Q^dagger of integer factors P = `plus`, Q = `minus` (d_keep x r):
    exactly 0.0 if they are equal and 1.0 if their supports are orthogonal
    (Nielsen & Chuang, ch. 9), else `SeparationGapError`. A wide pair
    (d_keep <= r) is equal if P P^dagger == Q Q^dagger and orthogonal if
    sum (P P^dagger) o conj(Q Q^dagger) = ||P^dagger Q||_F^2 == 0. A tall
    one is orthogonal if P^dagger Q == 0 and equal if W J W, which is
    A^dagger (P P^dagger - Q Q^dagger) A, == 0, with A = [P | Q],
    W = A^dagger A and J = diag(I, -I).

    Parts of P and Q lie in {-2, ..., 2}, so ||P||_F^2, ||Q||_F^2 <=
    8 * 2^(2n+1). A partial sum of a Gram entry or of P^dagger Q is at most
    that in modulus, of the trace its square, of W J W
    (||P||_F^2 + ||Q||_F^2)^2 = 2^50 at n = 10: below 2^53, so float64 sums
    them exactly in any order for every n up to ORACLE_CAP_MAX (tested).
    """
    d_keep, r = plus.shape
    if d_keep <= r:
        pp, qq = plus @ plus.conj().T, minus @ minus.conj().T
        if np.array_equal(pp, qq):
            return 0.0
        if not np.vdot(qq, pp):
            return 1.0
    elif not (plus.conj().T @ minus).any():
        return 1.0
    else:
        both = np.concatenate([plus, minus], axis=1)
        w = both.conj().T @ both
        if np.array_equal(w[:, :r] @ w[:r], w[:, r:] @ w[r:]):
            return 0.0
    raise SeparationGapError(f"{context} are neither equal nor orthogonal")


def _probe_pattern(subset: RegisterSubset, integers) -> LeakageReport:
    """Pole report of one subset from the span's integer rows
    (`probe_patterns`), whose reduced factors the poles weight."""
    factors = oracle.reduced_factor(integers, keep_positions(subset))
    flat = factors.reshape(2, -1)
    where = f"n={subset.n}, {subset.labels() or '(empty)'}: the"
    axes = tuple(_pole_distance(*(weights @ flat).reshape(factors.shape),
                                f"{where} {axis} poles")
                 for axis, weights in zip("xyz", _AXIS_WEIGHTS))
    # <Y...Y> at the +y pole, an exact integer read from its factor (no
    # dense state), over the factor's squared norm, an exact integer too.
    plus_y = factors[0] + 1j * factors[1]
    return LeakageReport(
        subset=subset,
        axis_distances=axes,
        y_signal=(expectation(plus_y, "Y" * subset.size, factored=True)
                  / np.vdot(plus_y, plus_y).real),
    )


def informativeness_probe(subset: RegisterSubset) -> LeakageReport:
    """Brute-force probe of one subset for dependence on the stored state."""
    return probe_patterns(subset.n, [subset])[subset.counts]


def fixed_y_slice_probe(subset: RegisterSubset, y: float, k: int) -> float:
    """Max pairwise distance among k states sharing y but differing in x, z.

    Unauthorized subsets depend on the input only through y, so this should
    be numerically zero for them at any y. The k states come from one
    stacked `reduced_state` call.
    """
    if not -1.0 <= y <= 1.0:
        raise ValueError(f"y must lie in [-1, 1], got {y}")
    if k < 2:
        raise ValueError(f"need at least 2 slice points, got {k}")
    r = math.sqrt(max(0.0, 1.0 - y * y))
    angles = 2.0 * math.pi * np.arange(k) / k
    blochs = np.column_stack([r * np.cos(angles),
                              np.full(k, y),
                              r * np.sin(angles)])
    max_d, _ = pairwise_max_trace_distance(
        reduced_state(subset, blochs, ENGINE_ORACLE))
    return max_d


# ---------------------------------------------------------------------------
# Sign resolution for the odd-(n, p) leakage term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignRule:
    """Candidate convention for the sign of the surviving y-term at odd n."""

    kind: str  # "constant_plus" or "alternating"

    def sign_for(self, n: int) -> int:
        if n % 2 == 0:
            raise ValueError(f"no leakage sign for even n={n}")
        if self.kind == "constant_plus":
            return 1
        if self.kind == "alternating":
            return -1 if ((n - 1) // 2) % 2 else 1
        raise ValueError(f"unknown sign rule {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "constant_plus":
            return "constant +1 for every odd n"
        return "(-1)**((n-1)/2), alternating with the odd n"


CANDIDATE_SIGN_RULES = (SignRule("constant_plus"), SignRule("alternating"))


@dataclass(frozen=True)
class SignResolution:
    rule: SignRule
    observed: tuple[tuple[int, int], ...]  # ((n, sign), ...)


def aligned_subset(n: int, p: int) -> RegisterSubset:
    tags = (PairTag.SIGNAL,) * p + (PairTag.NOISE,) * (n - p)
    return RegisterSubset(n, tags)


@lru_cache(maxsize=None)
def resolve_sign_rule() -> SignResolution:
    """Measure the leakage sign on the brute-force engine and match a rule.

    The all-Y expectation of the all-signal aligned subset at the +y pole
    equals the sign exactly; n = 1 and n = 3 together discriminate the two
    candidate conventions.
    """
    observed = []
    for n in (1, 3):
        rho = reduced_state(aligned_subset(n, n), _Y_POLE, ENGINE_ORACLE)
        est = y_leak_estimate(rho, n)
        sign = round(est)
        if sign not in (-1, 1) or abs(est - sign) > 1e-10:
            raise RuntimeError(f"leakage sign at n={n} is not a clean unit: {est!r}")
        observed.append((n, int(sign)))
    observed = tuple(observed)
    for rule in CANDIDATE_SIGN_RULES:
        if all(rule.sign_for(n) == s for n, s in observed):
            return SignResolution(rule=rule, observed=observed)
    raise RuntimeError(f"measured signs {observed} match no candidate rule")
