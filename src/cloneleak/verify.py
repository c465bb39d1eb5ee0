"""Cross-checks between the two engines and the structural classifier.

Each check returns a CheckResult; `run_checks` executes the whole battery
and never stops early, so a report always covers every check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import branch, leakage, oracle
from .pauli import SIGMA, pauli_sum_to_dense
from .subsets import Verdict, enumerate_classifications


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


# Probe refusals that fail a pattern check rather than the whole battery.
_PROBE_FAILURES = (leakage.SeparationGapError, leakage.PairSymmetryError)


def _probe_failure(name: str, exc: Exception,
                   n_range: tuple[int, int]) -> CheckResult:
    prefix = ("pair symmetry not certified"
              if isinstance(exc, leakage.PairSymmetryError)
              else "threshold gap not empty")
    return CheckResult(name, False, f"{prefix}: {exc}", n_range)


def check_bell_trace_identities(config: VerifyConfig) -> CheckResult:
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


def check_phase_table_decomposition(config: VerifyConfig) -> CheckResult:
    """phase_ratio_table(n) == I4 + sum of its three parts, exactly."""
    for n in range(1, EXACT_N_MAX + 1):
        full = branch.phase_ratio_table(n)
        rebuilt = np.eye(4, dtype=complex) + sum(branch.phase_ratio_parts(n))
        if not np.array_equal(full, rebuilt):
            return CheckResult("phase_table_decomposition", False,
                               f"mismatch at n={n}")
    return CheckResult("phase_table_decomposition", True,
                       f"exact for n=1..{EXACT_N_MAX}")


def check_interference_sums(config: VerifyConfig) -> CheckResult:
    """X and Z sums vanish; the Y sum equals its closed form, exactly."""
    for n in range(1, EXACT_N_MAX + 1):
        for p in range(0, n + 1):
            t1 = branch.table_sum(branch.interference_table(n, p, 1))
            t3 = branch.table_sum(branch.interference_table(n, p, 3))
            if t1 != 0 or t3 != 0:
                return CheckResult("interference_sums", False,
                                   f"x/z sum nonzero at n={n}, p={p}: "
                                   f"{t1!r}, {t3!r}")
            t2 = branch.table_sum(branch.interference_table(n, p, 2))
            if t2 != branch.leak_sum_closed_form(n, p):
                return CheckResult("interference_sums", False,
                                   f"y sum {t2!r} != closed form at n={n}, p={p}")
    return CheckResult("interference_sums", True,
                       f"exact for all n=1..{EXACT_N_MAX}, 0 <= p <= n")


def check_sign_resolution(config: VerifyConfig) -> CheckResult:
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
        for p in range(1, n + 1, 2):
            t2 = branch.table_sum(branch.interference_table(n, p, 2))
            if t2 != 4 * res.rule.sign_for(n):
                return CheckResult("sign_resolution", False,
                                   f"analytic sum {t2!r} at n={n}, p={p} "
                                   f"contradicts the resolved rule; {detail}")
    return CheckResult("sign_resolution", True, detail)


def check_engine_agreement(config: VerifyConfig) -> CheckResult:
    """Brute-force and analytic reduced states agree on aligned subsets."""
    if _top_n(config) < 1:
        return _nothing_to_check("engine_agreement", config)
    tol = leakage.TOLERANCES.engine_agreement
    grid = leakage.bloch_grid(config.grid_size, config.seed)
    worst = 0.0
    worst_case = ""
    for n in range(1, _top_n(config) + 1):
        states = leakage.encode_points(n, grid)
        for p in range(0, n + 1):
            keep = leakage.keep_positions(leakage.aligned_subset(n, p))
            errs = np.abs(oracle.reduced_density(states, keep) - [
                pauli_sum_to_dense(branch.analytic_reduced_state(n, p, b))
                for b in grid]).max(axis=(1, 2))
            i = int(errs.argmax())  # the first point at the largest error
            if errs[i] > worst:
                worst = float(errs[i])
                worst_case = f"n={n}, p={p}, bloch={grid[i].round(6)}"
    passed = worst <= tol
    return CheckResult("engine_agreement", passed,
                       f"max entry error {worst:.3e} (tolerance {tol:g}) "
                       f"across n<={_top_n(config)}"
                       + ("" if passed else f" at {worst_case}"),
                       (1, _top_n(config)))


def check_missing_pair_uninformative(config: VerifyConfig) -> CheckResult:
    """Every subset missing a full pair is independent of the input state.

    The distance reported is the pole probe's bound sum_j D_j, which holds
    for every pair of inputs on the Bloch sphere; pair-permutation orbits
    (`RegisterSubset.counts`) share one report, so the maximum is over one
    probe per orbit. Its range starts at n = 2: the one pair of n = 1 is
    never missing.
    """
    if _top_n(config) < 2:
        return _nothing_to_check("missing_pair_uninformative", config, first=2)
    tol = leakage.TOLERANCES.uninformative
    worst = 0.0
    worst_case = ""
    count = orbits = 0
    for n in range(2, _top_n(config) + 1):
        subsets = [s for s, _ in enumerate_classifications(n)
                   if s.missing_pairs]
        try:
            reports = leakage.probe_patterns(n, subsets)
        except _PROBE_FAILURES as exc:
            return _probe_failure("missing_pair_uninformative", exc, (2, n - 1))
        count += len(subsets)
        orbits += len(reports)
        for report in reports.values():
            if report.distance_bound > worst:
                worst = report.distance_bound
                worst_case = f"n={n}, {report.subset.labels()}"
    passed = worst < tol
    return CheckResult("missing_pair_uninformative", passed,
                       f"{count} patterns ({orbits} orbits probed), "
                       f"max distance {worst:.3e} "
                       f"(threshold {tol:g}) across n<={_top_n(config)}"
                       + ("" if passed else f" at {worst_case}"),
                       (2, _top_n(config)))


def check_parity_classification(config: VerifyConfig) -> CheckResult:
    """Structural verdicts and leak signs match brute-force probes on every
    pattern.

    Each pattern is compared with its pair orbit's report, looked up by
    `RegisterSubset.counts`, and the fixed-y slice runs once per partially
    informative orbit (`probe_patterns`)."""
    if _top_n(config) < 1:
        return _nothing_to_check("parity_classification", config)
    tol = leakage.TOLERANCES
    disagreements = []
    total = orbits = 0
    for n in range(1, _top_n(config) + 1):
        entries = list(enumerate_classifications(n))
        subsets = [s for s, _ in entries]
        try:
            reports = leakage.probe_patterns(n, subsets)
        except _PROBE_FAILURES as exc:
            return _probe_failure("parity_classification", exc, (1, n - 1))
        orbits += len(reports)
        slice_distances = {}  # pair orbit -> fixed-y distance
        for subset, cls in entries:
            report = reports[subset.counts]
            total += 1
            label = f"n={n} {subset.labels()}"
            if cls.verdict is Verdict.COMPLETELY_UNINFORMATIVE:
                if report.verdict is not leakage.ProbeVerdict.UNINFORMATIVE:
                    disagreements.append(f"{label}: classified uninformative but "
                                         f"distance bound {report.distance_bound:.3e}")
            else:
                if report.verdict is not leakage.ProbeVerdict.INFORMATIVE:
                    disagreements.append(f"{label}: classified {cls.verdict.value} "
                                         f"but no probe response")
            if cls.verdict is Verdict.PARTIALLY_INFORMATIVE:
                if subset.counts not in slice_distances:
                    slice_distances[subset.counts] = (
                        leakage.fixed_y_slice_probe(subset, 0.5, 8))
                slice_d = slice_distances[subset.counts]
                if slice_d >= tol.uninformative:
                    disagreements.append(f"{label}: leak depends on more than y "
                                         f"(fixed-y distance {slice_d:.3e})")
                expected = cls.leak.sign
                if abs(report.y_signal - expected) > tol.engine_agreement:
                    disagreements.append(f"{label}: pole signal "
                                         f"{report.y_signal:+.3e} != predicted "
                                         f"{expected:+d}")
    passed = not disagreements
    detail = (f"{total} patterns ({orbits} orbits probed) agree across "
              f"n<={_top_n(config)}")
    if disagreements:
        detail = f"{len(disagreements)} disagreement(s): " + "; ".join(
            disagreements[:5])
    return CheckResult("parity_classification", passed, detail,
                       (1, _top_n(config)))


def check_singleton_mixedness(config: VerifyConfig) -> CheckResult:
    """Each single register qubit and the source qubit reduce to I/2, for
    n >= 2 (the lone clone of n = 1 leaks)."""
    if _top_n(config) < 2:
        return _nothing_to_check("singleton_mixedness", config, first=2)
    tol = leakage.TOLERANCES.golden
    grid = leakage.bloch_grid(config.grid_size, config.seed)
    half_identity = np.eye(2) / 2
    worst = 0.0
    worst_case = ""
    for n in range(2, _top_n(config) + 1):
        positions = [("A", 0)]
        positions += [(f"S{i}", oracle.signal_position(i)) for i in range(1, n + 1)]
        positions += [(f"N{i}", oracle.noise_position(i)) for i in range(1, n + 1)]
        states = leakage.encode_points(n, grid)
        errs = np.stack([np.abs(oracle.reduced_density(states, [pos])
                                - half_identity).max(axis=(1, 2))
                         for _, pos in positions], axis=1)  # [point, position]
        i = int(errs.argmax())  # the first worst, point by point
        if errs.flat[i] > worst:
            worst = float(errs.flat[i])
            worst_case = f"n={n}, {positions[i % len(positions)][0]}"
    passed = worst <= tol
    return CheckResult("singleton_mixedness", passed,
                       f"max deviation from I/2: {worst:.3e} (tolerance {tol:g}) "
                       f"across n=2..{_top_n(config)}"
                       + ("" if passed else f" at {worst_case}"),
                       (2, _top_n(config)))


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
    config = config or VerifyConfig()
    return [check(config) for check in ALL_CHECKS]
