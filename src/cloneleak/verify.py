"""Cross-checks between the two engines and the structural classifier.

Each check returns a CheckResult; `run_checks` executes the whole battery
and never stops early, so a report always covers every check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import ne

import numpy as np

from . import branch, leakage, oracle
from .pauli import SIGMA, pauli_sum_to_dense, state_from_bloch
from .subsets import (Verdict, classify, enumerate_classifications,
                      first_pattern)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    # [first, last] n a brute-force check covered (last < first: none);
    # None for the other checks.
    n_range: tuple[int, int] | None = None


@dataclass
class VerifyConfig:
    n_max: int = 4
    oracle_cap: int = oracle.ORACLE_CAP_DEFAULT
    grid_size: int = 26
    seed: int = 0


# Largest n of the exact branch-table checks.
EXACT_N_MAX = 12


def _top_n(config: VerifyConfig) -> int:
    """Largest n the brute-force checks cover."""
    return min(config.n_max, config.oracle_cap)


def _nothing_to_check(name: str, config: VerifyConfig,
                      first: int = 1) -> CheckResult:
    """A brute-force check whose range n=first..top is empty fails."""
    return CheckResult(name, False,
                       f"no n to check in n={first}..{_top_n(config)}: "
                       f"n_max={config.n_max}, oracle cap {config.oracle_cap}",
                       (first, _top_n(config)))


# Certificate and probe refusals that fail a brute-force check rather
# than the whole battery, by what each refuses.
_PROBE_FAILURES = {leakage.PairSymmetryError: "pair symmetry not certified",
                   leakage.NotLinearError: "linearity not certified",
                   leakage.NotGaussianError: "integer rows not certified",
                   leakage.SeparationGapError: "pole distance neither 0 nor 1"}


def _probe_failure(name: str, exc: Exception,
                   n_range: tuple[int, int]) -> CheckResult:
    return CheckResult(name, False, f"{_PROBE_FAILURES[type(exc)]}: {exc}",
                       n_range)


def check_bell_trace_identities(config: VerifyConfig,
                                shared=None) -> CheckResult:
    """Tracing one qubit of |phi_mu><phi_nu| leaves the predicted 2x2 factor."""
    tol = leakage.TOLERANCES.golden
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            op = np.outer(oracle.bell_branch(mu), oracle.bell_branch(nu).conj())
            t = op.reshape(2, 2, 2, 2)
            keep_signal = t.trace(axis1=1, axis2=3)
            keep_noise = t.trace(axis1=0, axis2=2)
            worst = max(
                worst,
                float(np.abs(keep_signal - 0.5 * SIGMA[mu] @ SIGMA[nu]).max()),
                float(np.abs(keep_noise - 0.5 * (SIGMA[nu] @ SIGMA[mu]).T).max()),
            )
    return CheckResult("bell_trace_identities", worst <= tol,
                       f"max deviation {worst:.3e} over 16 branch pairs "
                       f"(tolerance {tol:g})")


def check_phase_table_decomposition(config: VerifyConfig,
                                    shared=None) -> CheckResult:
    """phase_ratio_table(n) == I4 + sum of its three parts, exactly."""
    for n in range(1, EXACT_N_MAX + 1):
        full = branch.phase_ratio_table(n)
        rebuilt = np.eye(4, dtype=complex) + sum(branch.phase_ratio_parts(n))
        if not np.array_equal(full, rebuilt):
            return CheckResult("phase_table_decomposition", False,
                               f"mismatch at n={n}")
    return CheckResult("phase_table_decomposition", True,
                       f"exact for n=1..{EXACT_N_MAX}")


def check_interference_sums(config: VerifyConfig,
                            shared=None) -> CheckResult:
    """X and Z sums vanish; the Y sum equals its closed form, exactly."""
    for n in range(1, EXACT_N_MAX + 1):
        t1, t2, t3 = (branch.table_sum(
            branch.interference_table(n, np.arange(n + 1), j)) for j in (1, 2, 3))
        for p in range(0, n + 1):
            if t1[p] != 0 or t3[p] != 0:
                return CheckResult("interference_sums", False,
                                   f"x/z sum nonzero at n={n}, p={p}: "
                                   f"{complex(t1[p])!r}, {complex(t3[p])!r}")
            if t2[p] != branch.leak_sum_closed_form(n, p):
                return CheckResult("interference_sums", False,
                                   f"y sum {complex(t2[p])!r} != closed form "
                                   f"at n={n}, p={p}")
    return CheckResult("interference_sums", True,
                       f"exact for all n=1..{EXACT_N_MAX}, 0 <= p <= n")


def check_sign_resolution(config: VerifyConfig,
                          shared=None) -> CheckResult:
    """Resolve the odd-n leak sign on the brute-force engine and report
    which closed-form convention it matches."""
    try:
        res = leakage.resolve_sign_rule()
    except RuntimeError as exc:
        return CheckResult("sign_resolution", False, str(exc))
    observed = ", ".join(f"n={n}: {s:+d}" for n, s in res.observed)
    rejected = [r for r in leakage.CANDIDATE_SIGN_RULES if r != res.rule]
    detail = (f"measured {observed}; matches the {res.rule.kind} convention "
              f"[sign(n) = {res.rule.describe()}]; rejected: "
              + ", ".join(f"{r.kind} [{r.describe()}]" for r in rejected))
    # The engine's own sign must follow the resolved rule wherever the
    # closed form predicts leakage.
    for n in range(1, EXACT_N_MAX + 1, 2):
        odd = np.arange(1, n + 1, 2)
        sums = branch.table_sum(branch.interference_table(n, odd, 2))
        for p, t2 in zip(odd.tolist(), sums):
            if t2 != 4 * res.rule.sign_for(n):
                return CheckResult("sign_resolution", False,
                                   f"analytic sum {complex(t2)!r} at n={n}, "
                                   f"p={p} contradicts the resolved rule; "
                                   f"{detail}")
    return CheckResult("sign_resolution", True, detail)


class _Shared:
    """What the brute-force checks of one `run_checks` call share: per n,
    the encoder's span certified on the grid (`leakage.PoleReports`),
    whose integer rows give the grid checks' Gram blocks and the pattern
    checks' pole factors, and to whose reports the pattern checks add their
    probes. A check called on its own builds its own; each check keeps its
    own reports, so its detail counts the classes it probed itself."""

    def __init__(self, config: VerifyConfig):
        self.config = config
        # Per n, the certified span or the refusal of its certificate.
        self.reports: dict[int, leakage.PoleReports | Exception] = {}

    @functools.cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The Bloch grid and its input amplitudes, converted once."""
        grid = leakage.bloch_grid(self.config.grid_size, self.config.seed)
        return grid, np.stack([state_from_bloch(b) for b in grid])

    def span(self, n: int) -> leakage.PoleReports:
        """The span at n. A certificate that fails raises, and its refusal
        is kept and raised again to every later check of that n."""
        if n not in self.reports:
            try:
                self.reports[n] = leakage.PoleReports(n, self.grid[1])
            except tuple(_PROBE_FAILURES) as exc:
                self.reports[n] = exc
            # The span holds the basis's rows: keep no copy (64 MiB at n=10).
            oracle.encoding_basis.cache_clear()
        if isinstance(self.reports[n], Exception):
            raise self.reports[n]
        return self.reports[n]

    def probe(self, n: int, subsets: list) -> dict:
        """Pole reports of the subsets keyed by count class, each class
        probed once per n."""
        reports = leakage.probe_patterns(n, subsets, self.span(n))
        return {s.counts: reports[s.counts] for s in subsets}


# On a keep set, sum_ac sigma_j[a, c] Gamma_ac for sigma_j = I, X, Y, Z is
# 2^(n+3) times the oracle's state at b = 0 and its slopes in b_x, b_y, b_z
# (`leakage.gram_blocks`); each must be 8 times that part of D_b, 2^n times
# the expected state at b, which the calculus gives at these four b.
_AFFINE_BASIS = np.vstack([np.zeros(3), np.eye(3)])
_IDENTITIES = ("Gamma00 + Gamma11 == 8 D0", "Gamma01 + Gamma10 == 8 (Dx - D0)",
               "i (Gamma10 - Gamma01) == 8 (Dy - D0)",
               "Gamma00 - Gamma11 == 8 (Dz - D0)")


def _first_failure(integers: np.ndarray, keep: list[int], parts) -> str:
    """The first of `_IDENTITIES` that fails on the keep set against the
    expected parts D0, Dx - D0, Dy - D0, Dz - D0, or ""."""
    g00, g01, g11 = leakage.gram_blocks(integers, keep)
    g10 = g01.conj().T
    sides = (g00 + g11, g01 + g10, 1j * (g10 - g01), g00 - g11)
    return next((name for name, side, part in zip(_IDENTITIES, sides, parts)
                 if not np.array_equal(side, 8 * part)), "")


def _across(first: int, top: int) -> str:
    """The n range first..top of a brute-force check's detail."""
    return f"n<={top}" if first == 1 else f"n={first}..{top}"


def _exact_on_span(name: str, config: VerifyConfig, shared: _Shared | None,
                   first: int, what: str, cases) -> CheckResult:
    """A grid check: per n from `first` on, `cases(n)` yields (case, keep
    set, expected parts), each compared by `_first_failure` on the span's
    integer rows (`leakage.PoleReports.integers`). The detail counts
    the exact cases and names the first failure."""
    top = _top_n(config)
    if top < first:
        return _nothing_to_check(name, config, first)
    shared = shared or _Shared(config)
    exact, total, failure = 0, 0, ""
    for n in range(first, top + 1):
        try:
            integers = shared.span(n).integers
        except tuple(_PROBE_FAILURES) as exc:
            return _probe_failure(name, exc, (first, n - 1))
        for case, keep, parts in cases(n):
            failed = _first_failure(integers, keep, parts)
            total += 1
            exact += not failed
            if failed and not failure:
                failure = f"n={n}, {case}: {failed}"
    across = _across(first, top)
    detail = (f"exact on {exact} of {total} {what} across {across}; first "
              f"failure at {failure}" if failure
              else f"exact on {total} {what} across {across}")
    return CheckResult(name, not failure, detail, (first, top))


def check_engine_agreement(config: VerifyConfig,
                           shared: _Shared | None = None) -> CheckResult:
    """Brute-force and analytic reduced states agree on aligned subsets, as
    Gaussian-integer identities.

    The oracle's state on a keep set is affine in the Bloch vector b
    (`leakage.gram_blocks`), and so is the calculus's:
    (D0 + sum_j b_j (Dj - D0)) / 2^n, with D_b 2^n times
    `analytic_reduced_state` at b, Gaussian integers. So the two agree at
    every b exactly when the four `_IDENTITIES` hold, compared with `==`.
    """
    return _exact_on_span(
        "engine_agreement", config, shared, 1, "aligned shapes",
        lambda n: ((f"p={p}", leakage.keep_positions(leakage.aligned_subset(
            n, p)), _calculus_parts(n, p)) for p in range(n + 1)))


def _calculus_parts(n: int, p: int):
    """D0, then Dj - D0 for j = x, y, z, each formed when it is compared."""
    scaled = (2.0 ** n * pauli_sum_to_dense(
        branch.analytic_reduced_state(n, p, b)) for b in _AFFINE_BASIS)
    d0 = next(scaled)
    yield d0
    for d in scaled:
        yield d - d0


def class_contains(outer: tuple, inner: tuple) -> bool:
    """Whether count class `outer` holds a superset of a member of `inner`.

    Classes are (#BOTH, #SIGNAL, #NOISE, #NONE) over the same n pairs
    (`RegisterSubset.counts`). A pair permutation maps inner's full pairs
    onto outer's, and its signal (noise) pairs onto outer's signal (noise)
    pairs; those that do not fit need outer's spare full pairs. Inner's
    empty pairs take whatever pairs are left.
    """
    both, signal, noise, _ = outer
    in_both, in_signal, in_noise, _ = inner
    return (both >= in_both
            and max(0, in_signal - signal) + max(0, in_noise - noise)
            <= both - in_both)


# The pole pattern (D_x, D_y, D_z) of each verdict.
_PATTERNS = {Verdict.AUTHORIZED: (1, 1, 1),
             Verdict.PARTIALLY_INFORMATIVE: (0, 1, 0),
             Verdict.COMPLETELY_UNINFORMATIVE: (0, 0, 0)}


def _bounds(counts: tuple, reports: dict) -> tuple:
    """(lower, upper) bounds on the pole pattern of class `counts`, decided
    when equal: per axis, the largest D_j of a probed class it holds and
    the smallest of one that holds it. Trace distance only shrinks under
    partial trace (Nielsen & Chuang, Thm 9.2), so D_j(S) <= D_j(T) on
    every axis whenever S lies inside T. A report of (0, 0, 0) raises no
    lower bound and one of (1, 1, 1) lowers no upper bound, so their
    containment is not tested."""
    held = [(0, 0, 0)] + [r.axis_distances for key, r in reports.items()
                          if any(r.axis_distances)
                          and class_contains(counts, key)]
    holding = [(1, 1, 1)] + [r.axis_distances for key, r in reports.items()
                             if not all(r.axis_distances)
                             and class_contains(key, counts)]
    return (tuple(int(max(axis)) for axis in zip(*held)),
            tuple(int(min(axis)) for axis in zip(*holding)))


def _probe_by_containment(n: int, classes: list, stages,
                          shared: _Shared) -> dict:
    """Pole reports of enough count classes to decide every class.

    Each stage probes those of its classes that no earlier report decides
    (`_bounds`); a last stage probes every class still undecided. The
    order of the stages only saves probes: what is left undecided is
    probed. Probes go through `shared`, which reads the poles from the
    span of each n (`leakage.probe_patterns`) and probes each class
    once; the reports returned, keyed by count class, are those of the
    classes this call probed, in the order it probed them.
    """
    reports: dict[tuple, leakage.LeakageReport] = {}
    for stage in [*stages, classes]:
        todo = [first_pattern(n, c) for c in stage if c in classes
                and c not in reports and ne(*_bounds(c, reports))]
        if todo:
            reports.update(shared.probe(n, todo))
    return reports


def _pattern_texts(claim: str, pattern: tuple, lower: tuple,
                   upper: tuple) -> list[str]:
    """Why a class whose pole pattern lies between `lower` and `upper`
    (`_bounds`) disagrees with `claim`, which gives it `pattern`."""
    if lower != upper:
        return [f"no probe decides it (pattern at least {lower}, at most "
                f"{upper})"]
    return ([] if lower == pattern
            else [f"{claim} {pattern} but probes give {lower}"])


def _pattern_check(name: str, config: VerifyConfig, shared: _Shared | None,
                   first: int, stages, expected) -> CheckResult:
    """A pattern check: per n from `first` on, `expected(n, sizes)` maps
    each compared count class to the function that gives its disagreement
    texts from its pole bounds (`_bounds`) and the reports. The classes are
    probed by containment in `stages(n)` (`_probe_by_containment`). The
    patterns of a count class share its decision and pole report, so each
    class is compared once and counts for its patterns
    (`ClassificationTable.classes`). Only the patterns of disagreeing
    classes are formed, to name the first five disagreements in
    enumeration order."""
    top = _top_n(config)
    if top < first:
        return _nothing_to_check(name, config, first)
    shared = shared or _Shared(config)
    found = []  # (n, its table, {count class: disagreement texts})
    count = total = classes = probed = 0
    for n in range(first, top + 1):
        table = enumerate_classifications(n)
        sizes = table.classes()
        compared = expected(n, sizes)
        try:
            reports = _probe_by_containment(n, list(compared), stages(n),
                                            shared)
        except tuple(_PROBE_FAILURES) as exc:
            return _probe_failure(name, exc, (first, n - 1))
        classes += len(compared)
        probed += len(reports)
        texts = {c: texts_of(*_bounds(c, reports), reports)
                 for c, texts_of in compared.items()}
        count += sum(len(t) * sizes[c] for c, t in texts.items())
        total += sum(sizes[c] for c in compared)
        found.append((n, table, texts))
    detail = (f"{total} patterns ({classes} classes: {probed} probed, "
              f"{classes - probed} by containment) agree across "
              f"{_across(first, top)}")
    if count:
        shown = itertools.islice(
            ((n, subset, text) for n, table, texts in found
             if any(texts.values()) for subset, _ in table
             for text in texts.get(subset.counts, ())), 5)
        detail = f"{count} disagreement(s): " + "; ".join(
            f"n={n} {subset.labels()}: {text}" for n, subset, text in shown)
    return CheckResult(name, not count, detail, (first, top))


def check_missing_pair_uninformative(config: VerifyConfig,
                                     shared: _Shared | None = None
                                     ) -> CheckResult:
    """Every subset missing a full pair is independent of the input state:
    its pole pattern is (0, 0, 0), as the claim, not `classify`, says.

    Every missing-pair class lies inside the largest one, (n-1, 0, 0, 1),
    so that one probe decides them all when it is uninformative; if it is
    not, every other class is probed. Its range starts at n = 2: the one
    pair of n = 1 is never missing.
    """
    return _pattern_check(
        "missing_pair_uninformative", config, shared, 2,
        lambda n: [[(n - 1, 0, 0, 1)]],
        lambda n, sizes: dict.fromkeys(
            (c for c in sizes if c[3]),
            lambda lower, upper, reports: _pattern_texts(
                "missing a pair", (0, 0, 0), lower, upper)))


def check_parity_classification(config: VerifyConfig,
                                shared: _Shared | None = None) -> CheckResult:
    """Structural verdicts and leak signs match brute-force probes on every
    pattern.

    Per n, the pole probes go to the full register, then to the aligned
    classes, the largest missing-pair class and the smallest authorized
    classes (1, s, n-1-s, 0); containment decides the rest
    (`_probe_by_containment`). Each class's pole pattern must be decided
    and equal its verdict's (`_PATTERNS`). A decided partially informative
    class's leak sign is read from its own probe and must equal the
    predicted sign exactly, and the fixed-y slice runs once per such class.
    """
    return _pattern_check(
        "parity_classification", config, shared, 1,
        lambda n: [[(n, 0, 0, 0)] + [(0, p, n - p, 0) for p in range(n + 1)]
                   + [(n - 1, 0, 0, 1)],
                   [(1, s, n - 1 - s, 0) for s in range(n)]],
        lambda n, sizes: {c: functools.partial(
            _parity_texts, c, classify(first_pattern(n, c))) for c in sizes})


def _parity_texts(counts: tuple, cls, lower: tuple, upper: tuple,
                  reports: dict) -> list[str]:
    """What each pattern of a count class disagrees on, in order. The only
    class whose pattern lies below (1, 1, 1) and holds an aligned class is
    that class itself, so a partially informative class is decided only by
    its own probe: its report exists whenever its leak is read."""
    texts = _pattern_texts(f"classified {cls.verdict.value}",
                           _PATTERNS[cls.verdict], lower, upper)
    if cls.verdict is Verdict.PARTIALLY_INFORMATIVE and lower == upper:
        report = reports[counts]
        slice_d = leakage.fixed_y_slice_probe(report.subset, 0.5, 8)
        if slice_d >= leakage.TOLERANCES.uninformative:
            texts.append(f"leak depends on more than y "
                         f"(fixed-y distance {slice_d:.3e})")
        if report.y_signal != cls.leak.sign:
            texts.append(f"pole signal {report.y_signal:+.3e} != predicted "
                         f"{cls.leak.sign:+d}")
    return texts


def check_singleton_mixedness(config: VerifyConfig,
                              shared: _Shared | None = None) -> CheckResult:
    """Each single register qubit and the source qubit reduce to I/2 for
    every input, for n >= 2 (the lone clone of n = 1 leaks): the
    `_IDENTITIES` with D_b = 2^n I/2 for every b, that is Gamma00 ==
    Gamma11 == 2^(n+1) I and Gamma01 == Gamma10 == 0."""
    def cases(n: int) -> list:
        parts = [2.0 ** (n - 1) * np.eye(2)] + [np.zeros((2, 2))] * 3
        return [("A", [0], parts)] + [
            (f"{kind}{i}", [at(i)], parts) for kind, at in
            (("S", oracle.signal_position), ("N", oracle.noise_position))
            for i in range(1, n + 1)]
    return _exact_on_span("singleton_mixedness", config, shared, 2,
                          "single qubits", cases)


# Each check takes the config and, as `run_checks` passes it, the battery's
# `_Shared`; the brute-force checks build their own when called alone.
ALL_CHECKS = (
    check_bell_trace_identities,
    check_phase_table_decomposition,
    check_interference_sums,
    check_sign_resolution,
    check_engine_agreement,
    check_missing_pair_uninformative,
    check_parity_classification,
    check_singleton_mixedness,
)


def run_checks(config: VerifyConfig | None = None) -> list[CheckResult]:
    """The results of `ALL_CHECKS`, in that order. The brute-force checks
    share one `_Shared`, which lives only as long as this call."""
    config = config or VerifyConfig()
    shared = _Shared(config)
    return [check(config, shared) for check in ALL_CHECKS]
