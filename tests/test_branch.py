import numpy as np
import pytest

from cloneleak import branch
from cloneleak.branch import (analytic_reduced_state, interference_table,
                              leak_sum_closed_form, phase_ratio_parts,
                              phase_ratio_table, table_sum)
from cloneleak.oracle import i_power
from cloneleak.pauli import PauliSum


def bloch_overlap_table(j):
    return branch._lookup(branch._OVERLAP, j)


def signal_factor_table(j):
    return branch._lookup(branch._SIGNAL, j)


def noise_factor_table(j):
    return branch._lookup(branch._NOISE, j)


def _table(entries):
    out = np.zeros((4, 4), dtype=complex)
    for (r, c), v in entries.items():
        out[r, c] = v
    return out


def test_phase_ratio_rows():
    np.testing.assert_array_equal(phase_ratio_table(2)[0], [1, 1j, 1j, 1j])
    assert phase_ratio_table(3)[0, 2] == -1
    for n in range(1, 13):
        assert phase_ratio_table(n)[0, 2] == -i_power(n + 1)
        assert np.all(phase_ratio_table(n).diagonal() == 1)


def test_phase_ratio_decomposition_exact():
    for n in range(1, 13):
        parts = phase_ratio_parts(n)
        rebuilt = np.eye(4, dtype=complex) + parts[0] + parts[1] + parts[2]
        np.testing.assert_array_equal(phase_ratio_table(n), rebuilt)


def test_phase_ratio_part_supports_are_disjoint():
    for n in (1, 2, 3, 7):
        supports = [p != 0 for p in phase_ratio_parts(n)]
        assert not np.any(supports[0] & supports[1])
        assert not np.any(supports[1] & supports[2])
        assert all(s.sum() == 4 for s in supports)


def test_bloch_overlap_tables():
    np.testing.assert_array_equal(
        bloch_overlap_table(1),
        _table({(0, 1): 1, (1, 0): 1, (2, 3): -1j, (3, 2): 1j}))
    np.testing.assert_array_equal(
        bloch_overlap_table(2),
        _table({(0, 2): 1, (2, 0): 1, (1, 3): 1j, (3, 1): -1j}))
    np.testing.assert_array_equal(
        bloch_overlap_table(3),
        _table({(0, 3): 1, (3, 0): 1, (1, 2): -1j, (2, 1): 1j}))
    assert bloch_overlap_table(1)[2, 2] == 0
    with pytest.raises(ValueError):
        bloch_overlap_table(0)


def test_signal_factor_tables():
    np.testing.assert_array_equal(
        signal_factor_table(1),
        _table({(0, 1): 1, (1, 0): 1, (2, 3): 1j, (3, 2): -1j}))
    np.testing.assert_array_equal(
        signal_factor_table(2),
        _table({(0, 2): 1, (2, 0): 1, (1, 3): -1j, (3, 1): 1j}))
    np.testing.assert_array_equal(
        signal_factor_table(3),
        _table({(0, 3): 1, (3, 0): 1, (1, 2): 1j, (2, 1): -1j}))


def test_noise_factor_tables():
    # Transposition flips only the Y component, hence the -1 entries.
    np.testing.assert_array_equal(
        noise_factor_table(1),
        _table({(0, 1): 1, (1, 0): 1, (2, 3): -1j, (3, 2): 1j}))
    np.testing.assert_array_equal(
        noise_factor_table(2),
        _table({(0, 2): -1, (2, 0): -1, (1, 3): -1j, (3, 1): 1j}))
    np.testing.assert_array_equal(
        noise_factor_table(3),
        _table({(0, 3): 1, (3, 0): 1, (1, 2): -1j, (2, 1): 1j}))


def _product(*tables):
    out = np.ones((4, 4), dtype=complex)
    for table in tables:
        out = out * table
    return out


def test_interference_table_is_the_entrywise_product_of_its_factors():
    # The phase ratios and the overlap times p signal and n-p noise
    # factors, multiplied out one table at a time.
    for n in range(1, 7):
        for j in (1, 2, 3):
            base = phase_ratio_parts(n)[j - 1] * bloch_overlap_table(j)
            for p in range(n + 1):
                m = _product(base, *[signal_factor_table(j)] * p,
                             *[noise_factor_table(j)] * (n - p))
                np.testing.assert_array_equal(interference_table(n, p, j), m)


def test_interference_table_powers_examples():
    # One signal factor -i, two noise factors (-1)**2 and two signal
    # factors i**2, each times the entry's phase ratio and overlap.
    for (n, p, j, (r, c)), signal, noise in [((2, 1, 2, (1, 3)), -1j, -1j),
                                             ((2, 0, 2, (0, 2)), 1, -1),
                                             ((2, 2, 3, (1, 2)), 1j, -1j)]:
        assert signal_factor_table(j)[r, c] == signal
        assert noise_factor_table(j)[r, c] == noise
        assert interference_table(n, p, j)[r, c] == (
            phase_ratio_table(n)[r, c] * bloch_overlap_table(j)[r, c]
            * signal ** p * noise ** (n - p))


def test_interference_stack_equals_the_scalar_tables():
    for n in range(1, 13):
        for j in (1, 2, 3):
            stack = interference_table(n, np.arange(n + 1), j)
            assert stack.shape == (n + 1, 4, 4)
            for p in range(n + 1):
                np.testing.assert_array_equal(stack[p],
                                              interference_table(n, p, j))
    grid = np.array([[0, 3], [5, 1]])
    stack = interference_table(5, grid, 2)
    assert stack.shape == (2, 2, 4, 4)
    np.testing.assert_array_equal(stack[1, 0], interference_table(5, 5, 2))


def test_every_table_entry_is_zero_or_a_power_of_i():
    units = {0, 1, 1j, -1, -1j}
    tables = [phase_ratio_table(n) for n in range(1, 13)]
    tables += [t for n in range(1, 13) for t in phase_ratio_parts(n)]
    tables += [f(j) for j in (1, 2, 3) for f in (
        bloch_overlap_table, signal_factor_table, noise_factor_table)]
    tables += [interference_table(n, np.arange(n + 1), j)
               for n in range(1, 13) for j in (1, 2, 3)]
    for table in tables:
        assert set(table.ravel().tolist()) <= units


def test_table_sum_of_a_stack_is_the_per_table_sums():
    for n in (1, 4, 7, 12):
        for j in (1, 2, 3):
            stack = interference_table(n, np.arange(n + 1), j)
            sums = table_sum(stack)
            assert sums.shape == (n + 1,)
            assert sums.tolist() == [table_sum(t) for t in stack]
    assert type(table_sum(interference_table(3, 1, 2))) is complex


def test_interference_table_rejects_p_outside_0_to_n_and_bad_j():
    for p in (-1, 5, [0, 5], [-1, 0], [[1, 2], [3, 7]]):
        with pytest.raises(ValueError, match="need 0 <= p <= n"):
            interference_table(4, np.array(p), 1)
    with pytest.raises(ValueError, match="component index"):
        interference_table(4, 0, 4)


def test_sums_far_above_the_exact_range_match_the_closed_form():
    for n in (10_000, 9_999):
        p = np.array([0, 1, 4_999, n])
        assert table_sum(interference_table(n, p, 1)).tolist() == [0] * 4
        assert table_sum(interference_table(n, p, 3)).tolist() == [0] * 4
        assert table_sum(interference_table(n, p, 2)).tolist() == [
            leak_sum_closed_form(n, int(k)) for k in p]
    assert leak_sum_closed_form(9_999, 4_999) == -4


def test_table_sum_examples():
    assert table_sum(interference_table(1, 1, 2)) == 4
    assert table_sum(interference_table(2, 1, 2)) == 0
    assert table_sum(interference_table(3, 1, 2)) == -4


def test_x_and_z_sums_vanish_exactly():
    for n in range(1, 13):
        for p in range(0, n + 1):
            assert table_sum(interference_table(n, p, 1)) == 0
            assert table_sum(interference_table(n, p, 3)) == 0


def test_y_sum_matches_closed_form_exactly():
    for n in range(1, 13):
        for p in range(0, n + 1):
            assert (table_sum(interference_table(n, p, 2))
                    == leak_sum_closed_form(n, p))


def test_closed_form_examples():
    assert leak_sum_closed_form(1, 1) == 4
    assert leak_sum_closed_form(4, 2) == 0
    assert leak_sum_closed_form(3, 1) == -4
    assert leak_sum_closed_form(5, 3) == 4
    with pytest.raises(ValueError):
        leak_sum_closed_form(2, 3)


def test_table_sum_shape_guard():
    for shape in ((3, 3), (2, 3, 3), (4, 4, 3), (4,)):
        with pytest.raises(ValueError):
            table_sum(np.zeros(shape))


def test_analytic_single_clone():
    ps = analytic_reduced_state(1, 1, [0.0, 0.6, 0.8])
    assert ps == PauliSum(1, {"I": 0.5, "Y": 0.3})


def test_analytic_even_signal_count_is_flat():
    ps = analytic_reduced_state(3, 2, [0.1, 0.9, np.sqrt(1 - 0.01 - 0.81)])
    assert ps == PauliSum(3, {"III": 0.125})


def test_analytic_all_signals_n3_sign():
    # Frozen against the brute-force engine: the surviving term is -y YYY.
    ps = analytic_reduced_state(3, 3, [0.0, 1.0, 0.0])
    assert ps == PauliSum(3, {"III": 0.125, "YYY": -0.125})


def test_analytic_depends_only_on_y():
    y = 0.44
    blochs = [[np.sqrt(1 - y * y), y, 0.0],
              [0.0, y, np.sqrt(1 - y * y)],
              [-np.sqrt((1 - y * y) / 2), y, np.sqrt((1 - y * y) / 2)]]
    results = [analytic_reduced_state(3, 1, b) for b in blochs]
    assert results[0] == results[1] == results[2]


def test_analytic_validation():
    with pytest.raises(ValueError):
        analytic_reduced_state(0, 0, [0, 0, 1])
    with pytest.raises(ValueError):
        analytic_reduced_state(2, 3, [0, 0, 1])
    with pytest.raises(ValueError):
        analytic_reduced_state(2, 1, [2.0, 0, 0])


def test_interference_table_n1_matches_hand_expansion():
    # For a single kept signal qubit the y table is the entrywise product of
    # the n=1 phase ratios, the overlap table, and one signal factor.
    m = (phase_ratio_parts(1)[1] * bloch_overlap_table(2)
         * signal_factor_table(2))
    np.testing.assert_array_equal(interference_table(1, 1, 2), m)
    assert table_sum(m) == 4


def test_component_coefficients_equal_the_scalar_sums():
    # One stacked table per (n, j) gives, for every p, the same floats as
    # the sum of the scalar table (p) divided by 4, sign of zero included.
    for n in range(1, 200):
        for p in range(n + 1):
            scalar = tuple(table_sum(interference_table(n, p, j)).real / 4.0
                           for j in (1, 2, 3))
            assert repr(branch._component_coefficients(n)[p]) == repr(scalar)


def test_component_coefficients_refuse_a_sum_that_is_not_real(monkeypatch):
    table = branch.interference_table

    def tilted(n, p, j):
        out = table(n, p, j)
        if j == 2:
            out[..., 0, 0] = 1j
        return out

    monkeypatch.setattr(branch, "interference_table", tilted)
    branch._component_coefficients.cache_clear()
    try:
        with pytest.raises(AssertionError,
                           match=r"component 2 is not real: 1j"):
            analytic_reduced_state(3, 1, [0.0, 1.0, 0.0])
    finally:
        branch._component_coefficients.cache_clear()
