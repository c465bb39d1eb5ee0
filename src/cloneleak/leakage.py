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
    """A probe distance fell between the two thresholds.

    The calculus predicts distances that are either numerically zero or of
    order |y1 - y2|, so a value in the gap means something is wrong with
    the configuration or the implementation; refusing to classify is safer
    than guessing.
    """


class PairSymmetryError(RuntimeError):
    """An encoded pole state changed when two clone/noise pairs were swapped.

    Patterns are probed once per pair-permutation orbit only because the
    encoder treats every pair alike; a state that is not invariant leaves
    orbit-mates with different reduced states, so the probe refuses.
    """


class ProbeVerdict(str, Enum):
    UNINFORMATIVE = "UNINFORMATIVE"
    INFORMATIVE = "INFORMATIVE"


# +e_j then -e_j, for j = x, y, z.
_POLES = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])
_Y_POLE = _POLES[2]


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


def factored_trace_distance(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Trace distance between P P^dagger and M M^dagger, given P and M.

    `plus` and `minus` are stacks (..., d_keep, k) of factors with the same
    shape. The difference is A J A^dagger with A = [P | M] and
    J = diag(I, -I). Writing A = Q R with Q an isometry, its nonzero
    eigenvalues are those of R J R^dagger = Rp Rp^dagger - Rm Rm^dagger, and
    trace distance is unchanged by an isometry (Nielsen & Chuang, ch. 9).
    The QR runs only for tall factors (d_keep > 2 k); a wide factor's
    d_keep-square difference is formed directly, cheaper and no larger.
    """
    k = plus.shape[-1]
    if plus.shape[-2] > 2 * k:
        r = np.linalg.qr(np.concatenate([plus, minus], axis=-1), mode="r")
        plus, minus = r[..., :k], r[..., k:]
    diff = (plus @ plus.conj().swapaxes(-1, -2)
            - minus @ minus.conj().swapaxes(-1, -2))
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


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


def encode_points(n: int, points) -> np.ndarray:
    """Encoded states of the Bloch points as rows, from one encoder call."""
    return oracle.build_encoded_state(
        n, np.stack([state_from_bloch(b) for b in points]))


def y_leak_estimate(rho: np.ndarray, k: int) -> float:
    """Expectation of the all-Y observable on a k-qubit state."""
    return expectation(rho, "Y" * k)


@dataclass
class LeakageReport:
    subset: RegisterSubset
    # Trace distance between the reduced states at the poles +-e_j, j = x, y, z.
    axis_distances: tuple[float, float, float]
    y_signal: float
    verdict: ProbeVerdict

    @property
    def distance_bound(self) -> float:
        """Upper bound on the distance between any two inputs' reduced states."""
        return sum(self.axis_distances)


def _verdict(axis_distances, context: str) -> ProbeVerdict:
    bound = sum(axis_distances)
    if bound < TOLERANCES.uninformative:
        return ProbeVerdict.UNINFORMATIVE
    if max(axis_distances) > TOLERANCES.informative:
        return ProbeVerdict.INFORMATIVE
    raise SeparationGapError(
        f"{context}: pole distances {tuple(axis_distances)!r} sum to {bound!r}, "
        f"not below the uninformative threshold {TOLERANCES.uninformative}, "
        f"and none exceeds the informative threshold "
        f"{TOLERANCES.informative}; distances are expected to be one or the "
        f"other")


def certify_pair_symmetry(n: int, encoded_poles) -> None:
    """Raise `PairSymmetryError` unless every state is exactly invariant
    under every transposition of adjacent clone/noise pairs.

    These transpositions generate every permutation of the pairs. Run on
    the six poles, whose +-z states encode |0> and |1>, the certificate
    covers the linear encoder for every input.
    """
    nq = 2 * n + 1
    for i in range(1, n):
        axes = list(range(nq))
        for pos in (oracle.signal_position, oracle.noise_position):
            a, b = pos(i), pos(i + 1)
            axes[a], axes[b] = b, a
        for pole, state in zip(_POLES, encoded_poles):
            swapped = state.reshape([2] * nq).transpose(axes).reshape(-1)
            if not np.array_equal(swapped, state):
                raise PairSymmetryError(
                    f"n={n}: the encoded pole {pole.astype(int).tolist()} "
                    f"changes under the transposition of pairs {i} and "
                    f"{i + 1}")


def probe_patterns(n: int, subsets) -> PoleReports:
    """Brute-force informativeness probes of many subsets from the six poles.

    A reduced state is linear in the input |psi><psi| (Nielsen & Chuang,
    ch. 8), so rho(b) = R0 + sum_j b_j R_j over the Bloch vector b, with
    R_j = (rho(+e_j) - rho(-e_j)) / 2. Any two inputs are then at most
    sum_j ||R_j||_1 apart, and the poles on axis j are exactly
    D_j = ||R_j||_1 apart: the sum bounds the distance on the whole sphere
    and the largest D_j is attained. The poles are encoded once and each
    subset's distances come from its reduced factors, one
    `factored_trace_distance` call per probed subset.

    The encoded poles of all 2n+1 qubits are first certified invariant
    under every pair permutation (`certify_pair_symmetry`) and affine in
    b: the axes' estimates (rho(+e_j) + rho(-e_j)) / 2 of R0 that differ
    by the uninformative threshold or more raise `SeparationGapError`.
    Partial trace contracts the trace norm (Nielsen & Chuang, Thm 9.2), so
    no subset's estimates differ by more. Subsets with the same
    `RegisterSubset.counts` then have reduced states equal up to a
    permutation of their qubits, a unitary, which changes neither a trace
    distance nor <Y...Y>. So only the first subset of each count class is
    probed: the reports are keyed by `counts`, in order of first
    appearance, and each report's `subset` is its class's first subset.
    `PoleReports.probe` adds the reports of more subsets of the same n from
    the same encoded poles.
    """
    return PoleReports(n).probe(subsets)


class PoleReports(dict):
    """Pole reports of subsets of n pairs keyed by count class, from the six
    poles encoded and certified once (`probe_patterns`)."""

    def __init__(self, n: int):
        super().__init__()
        self._encoded_poles = encode_points(n, _POLES)
        certify_pair_symmetry(n, self._encoded_poles)
        # [|+e_j> | |-e_j>] factors rho(+e_j) + rho(-e_j), twice R0.
        pole_sums = np.reshape(self._encoded_poles, (3, 2, -1)).swapaxes(1, 2)
        gap = 0.5 * float(factored_trace_distance(
            pole_sums[1:], pole_sums[[0, 0]]).max())
        if not gap < TOLERANCES.uninformative:
            raise SeparationGapError(
                f"n={n}: the axes' estimates of the input-independent part "
                f"of the {2 * n + 1}-qubit pole states differ by {gap!r}, "
                f"not below the uninformative threshold {TOLERANCES.uninformative}"
                f"; the pole states are not affine in the Bloch vector")

    def probe(self, subsets) -> PoleReports:
        """Add a report for each subset whose count class has none yet."""
        for subset in subsets:
            if subset.counts not in self:
                self[subset.counts] = _probe_pattern(subset,
                                                     self._encoded_poles)
        return self


def _probe_pattern(subset: RegisterSubset, encoded_poles) -> LeakageReport:
    """Pole report of one subset from the six encoded poles (`probe_patterns`)."""
    factors = oracle.reduced_factor(encoded_poles, keep_positions(subset))
    plus, minus = factors[0::2], factors[1::2]
    axes = tuple(float(d) for d in factored_trace_distance(plus, minus))
    return LeakageReport(
        subset=subset,
        axis_distances=axes,
        # <Y...Y> at the +y pole, read from its factor: no dense state.
        y_signal=expectation(plus[1], "Y" * subset.size, factored=True),
        verdict=_verdict(axes, subset.labels() or "(empty)"),
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
