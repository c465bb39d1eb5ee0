"""Classification and measurement of what subsets of an encrypted-clone
storage register reveal about the stored qubit.

Two independent computation paths are provided: a brute-force simulator
(`oracle`) that builds the full encoded state and traces it down, and a
constant-size interference calculus (`branch`) that never touches an
exponential object. The `verify` battery cross-checks them.
"""

from .branch import (analytic_reduced_state, interference_table,
                     leak_sum_closed_form, phase_ratio_parts,
                     phase_ratio_table, table_sum)
from .leakage import (LeakageReport, SeparationGapError, Tolerances,
                      bloch_grid, fixed_y_slice_probe, informativeness_probe,
                      resolve_sign_rule, trace_distance, y_leak_estimate)
from .oracle import (ORACLE_CAP_DEFAULT, bell_branch, branch_phases,
                     build_encoded_state, reduced_density)
from .pauli import (PauliSum, bloch_from_state, dense_to_pauli_sum,
                    expectation, pauli_mul, pauli_sum_to_dense,
                    state_from_bloch)
from .subsets import (Classification, PairTag, RegisterSubset, Rule, Verdict,
                      classify, enumerate_classifications)

__all__ = [
    "Classification", "LeakageReport", "ORACLE_CAP_DEFAULT", "PairTag",
    "PauliSum", "RegisterSubset", "Rule", "SeparationGapError", "Tolerances",
    "Verdict", "analytic_reduced_state", "bell_branch", "bloch_from_state",
    "bloch_grid", "branch_phases", "build_encoded_state", "classify",
    "dense_to_pauli_sum", "enumerate_classifications", "expectation",
    "fixed_y_slice_probe", "informativeness_probe", "interference_table",
    "leak_sum_closed_form", "pauli_mul", "pauli_sum_to_dense",
    "phase_ratio_parts", "phase_ratio_table", "reduced_density",
    "resolve_sign_rule", "state_from_bloch", "table_sum", "trace_distance",
    "y_leak_estimate",
]

__version__ = "0.1.0"
