"""Quantitative leakage measurement: Bloch-sphere probe grids, trace
distance, informativeness probes, and the empirical resolution of the
leakage sign for odd clone counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import branch, oracle
from .pauli import PauliSum, expectation, pauli_sum_to_dense, state_from_bloch
from .subsets import AlignedShape, PairTag, RegisterSubset, canonical_shape

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
    """A probe distance fell between the two thresholds.

    The calculus predicts distances that are either numerically zero or of
    order |y1 - y2|, so a value in the gap means something is wrong with
    the configuration or the implementation; refusing to classify is safer
    than guessing.
    """


class ProbeVerdict(str, Enum):
    UNINFORMATIVE = "UNINFORMATIVE"
    INFORMATIVE = "INFORMATIVE"


_POLES = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])


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
_CHUNK = 64


def _pairwise_max(count: int, spectra) -> tuple[float, np.ndarray]:
    """Max trace distance over all pairs of `count` states, plus each state's
    max to any other; `spectra(i, j)` gives the eigenvalues of each
    difference rho_i - rho_j for index arrays of at most _CHUNK pairs."""
    per_point = np.zeros(count)
    ii, jj = np.triu_indices(count, 1)
    for start in range(0, ii.size, _CHUNK):
        i = ii[start:start + _CHUNK]
        j = jj[start:start + _CHUNK]
        dists = 0.5 * np.abs(spectra(i, j)).sum(axis=-1)
        np.maximum.at(per_point, i, dists)
        np.maximum.at(per_point, j, dists)
    return float(per_point.max(initial=0.0)), per_point


def pairwise_max_trace_distance(rhos) -> tuple[float, np.ndarray]:
    """Max trace distance over all pairs, plus each state's max to any other.

    Eigenvalues are computed on stacked difference matrices in chunks to
    bound memory.
    """
    arr = np.stack([np.asarray(r) for r in rhos])
    return _pairwise_max(arr.shape[0],
                         lambda i, j: np.linalg.eigvalsh(arr[i] - arr[j]))


def pairwise_max_trace_distance_factored(factors) -> tuple[float, np.ndarray]:
    """`pairwise_max_trace_distance` of the states M M^dagger, given the M.

    Each M is d_keep x d_rest (`oracle.reduced_factor`). A difference
    M_i M_i^dagger - M_j M_j^dagger is A J A^dagger with A = [M_i | M_j] and
    J = diag(I, -I). Writing A = Q R with Q an isometry, its nonzero
    eigenvalues are those of R J R^dagger = Rp Rp^dagger - Rm Rm^dagger,
    which is 2 d_rest square: trace distance is unchanged by an isometry
    (Nielsen & Chuang, ch. 9). When 2 d_rest >= d_keep that is no smaller
    than the states themselves, and the dense states are compared instead.
    """
    arr = np.stack([np.asarray(m, dtype=complex) for m in factors])
    count, d_keep, d_rest = arr.shape
    if 2 * d_rest >= d_keep:
        return pairwise_max_trace_distance([m @ m.conj().T for m in arr])

    def spectra(i, j):
        r = np.linalg.qr(np.concatenate([arr[i], arr[j]], axis=2), mode="r")
        rp, rm = r[..., :d_rest], r[..., d_rest:]
        return np.linalg.eigvalsh(rp @ rp.conj().swapaxes(1, 2)
                                  - rm @ rm.conj().swapaxes(1, 2))

    return _pairwise_max(count, spectra)


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
    shape = canonical_shape(subset)
    if not isinstance(shape, AlignedShape):
        raise ValueError(f"analytic engine needs an aligned subset (one qubit "
                         f"per pair); {subset.labels() or '(empty)'!r} is "
                         f"{shape.value}")
    return branch.analytic_reduced_state(shape.n, shape.p, bloch)


def reduced_state(subset: RegisterSubset, bloch, engine: str,
                  oracle_cap: int = oracle.ORACLE_CAP_DEFAULT) -> np.ndarray:
    """Dense reduced state of a subset via the requested engine."""
    if engine == ENGINE_ORACLE:
        state = oracle.build_encoded_state(subset.n, state_from_bloch(bloch),
                                           cap=oracle_cap)
        return oracle.reduced_density(state, keep_positions(subset))
    if engine == ENGINE_ANALYTIC:
        return pauli_sum_to_dense(analytic_state(subset, bloch))
    raise ValueError(f"unknown engine {engine!r}")


def encode_points(n: int, points,
                  oracle_cap: int = oracle.ORACLE_CAP_DEFAULT) -> list[np.ndarray]:
    """Brute-force encoded state for each Bloch point, for sharing across subsets."""
    return [oracle.build_encoded_state(n, state_from_bloch(b), cap=oracle_cap)
            for b in points]


def probe_states(subset: RegisterSubset, points, engine: str,
                 oracle_cap: int = oracle.ORACLE_CAP_DEFAULT,
                 encoded_states=None) -> list[np.ndarray]:
    """Dense reduced states of one subset at each Bloch point.

    `encoded_states` (brute-force encodings of the same points, from
    `encode_points`) are reduced in place of encoding each point again.
    """
    if encoded_states is None:
        return [reduced_state(subset, b, engine, oracle_cap) for b in points]
    keep = keep_positions(subset)
    return [oracle.reduced_density(s, keep) for s in encoded_states]


def y_leak_estimate(rho: np.ndarray, k: int) -> float:
    """Expectation of the all-Y observable on a k-qubit state."""
    rho = np.asarray(rho)
    if rho.shape != (2 ** k, 2 ** k):
        raise ValueError(f"state of shape {rho.shape} does not cover {k} qubits")
    return expectation(rho, "Y" * k)


@dataclass
class LeakageReport:
    subset: RegisterSubset
    max_pairwise_distance: float
    y_signal: float
    verdict: ProbeVerdict


_Y_POLE = np.array([0.0, 1.0, 0.0])


def _verdict(max_distance: float, context: str) -> ProbeVerdict:
    if max_distance < TOLERANCES.uninformative:
        return ProbeVerdict.UNINFORMATIVE
    if max_distance > TOLERANCES.informative:
        return ProbeVerdict.INFORMATIVE
    raise SeparationGapError(
        f"{context}: max pairwise distance {max_distance!r} lies between the "
        f"uninformative threshold {TOLERANCES.uninformative} and the "
        f"informative threshold {TOLERANCES.informative}; distances are "
        f"expected to be one or the other")


def probe_patterns(n: int, subsets, grid: np.ndarray,
                   oracle_cap: int = oracle.ORACLE_CAP_DEFAULT) -> list[LeakageReport]:
    """Brute-force informativeness probes for many subsets sharing one grid.

    The encoded states are built once per grid point and reused across
    subsets, and distances are taken from the reduced states' factors
    (`pairwise_max_trace_distance_factored`).
    """
    pole_index = int(np.argmin(np.linalg.norm(grid - _Y_POLE, axis=1)))
    if np.linalg.norm(grid[pole_index] - _Y_POLE) > 1e-12:
        raise ValueError("grid does not contain the +y pole")
    encoded_states = encode_points(n, grid, oracle_cap)
    reports = []
    for subset in subsets:
        keep = keep_positions(subset)
        factors = [oracle.reduced_factor(s, keep) for s in encoded_states]
        max_d, _ = pairwise_max_trace_distance_factored(factors)
        pole = factors[pole_index]
        reports.append(LeakageReport(
            subset=subset,
            max_pairwise_distance=max_d,
            y_signal=y_leak_estimate(pole @ pole.conj().T, subset.size),
            verdict=_verdict(max_d, subset.labels() or "(empty)"),
        ))
    return reports


def informativeness_probe(subset: RegisterSubset, grid: np.ndarray,
                          oracle_cap: int = oracle.ORACLE_CAP_DEFAULT) -> LeakageReport:
    """Brute-force probe of one subset for dependence on the stored state."""
    return probe_patterns(subset.n, [subset], grid, oracle_cap)[0]


def fixed_y_slice_probe(subset: RegisterSubset, y: float, k: int,
                        oracle_cap: int = oracle.ORACLE_CAP_DEFAULT) -> float:
    """Max pairwise distance among k states sharing y but differing in x, z.

    Unauthorized subsets depend on the input only through y, so this should
    be numerically zero for them at any y.
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
        probe_states(subset, blochs, ENGINE_ORACLE, oracle_cap))
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
