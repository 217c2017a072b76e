"""Tests for sparsity statistics and evaluation metrics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import (
    block_occupation,
    crossover_point,
    energy_error_per_atom,
    linear_fit,
    parallel_efficiency,
    submatrix_block_occupation,
    submatrix_element_occupation,
)


class TestSparsity:
    def test_block_occupation(self):
        pattern = sp.csr_matrix(np.eye(4, dtype=bool))
        assert block_occupation(pattern) == pytest.approx(0.25)

    def test_submatrix_block_occupation(self):
        pattern = sp.csr_matrix(
            np.array(
                [
                    [1, 1, 0, 0],
                    [1, 1, 1, 0],
                    [0, 1, 1, 1],
                    [0, 0, 1, 1],
                ],
                dtype=bool,
            )
        )
        # submatrix over blocks {0,1,2}: all but the two corner blocks present
        occupation = submatrix_block_occupation(pattern, [0, 1, 2])
        assert occupation == pytest.approx(7 / 9)

    def test_submatrix_element_occupation_uniform_blocks(self):
        pattern = sp.csr_matrix(np.eye(3, dtype=bool))
        occupation = submatrix_element_occupation(pattern, [0, 1, 2], [2, 2, 2])
        # only diagonal blocks occupied: 3*4 elements of 36
        assert occupation == pytest.approx(1 / 3)

    def test_submatrix_element_occupation_mixed_blocks(self):
        pattern = sp.csr_matrix(np.ones((2, 2), dtype=bool))
        occupation = submatrix_element_occupation(pattern, [0, 1], [1, 3])
        assert occupation == pytest.approx(1.0)

    def test_empty_submatrix(self):
        pattern = sp.csr_matrix((3, 3), dtype=bool)
        assert submatrix_block_occupation(pattern, []) == 0.0
        assert submatrix_element_occupation(pattern, [], [1, 1, 1]) == 0.0


class TestMetrics:
    def test_energy_error_units(self):
        assert energy_error_per_atom(-10.0, -10.001, 100) == pytest.approx(0.01)
        assert energy_error_per_atom(-10.0, -10.001, 100, unit="eV") == pytest.approx(
            1e-5
        )

    def test_energy_error_invalid(self):
        with pytest.raises(ValueError):
            energy_error_per_atom(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            energy_error_per_atom(1.0, 1.0, 10, unit="hartree")

    def test_strong_scaling_efficiency(self):
        times = [10.0, 5.5, 3.0]
        cores = [80, 160, 320]
        efficiency = parallel_efficiency(times, cores, mode="strong")
        assert efficiency[0] == pytest.approx(1.0)
        assert efficiency[1] == pytest.approx(10.0 * 80 / (5.5 * 160))
        assert np.all(efficiency <= 1.01)

    def test_weak_scaling_efficiency(self):
        times = [10.0, 12.0, 15.0]
        cores = [40, 80, 160]
        efficiency = parallel_efficiency(times, cores, mode="weak")
        assert efficiency[0] == 1.0
        assert efficiency[-1] == pytest.approx(10.0 / 15.0)

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            parallel_efficiency([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            parallel_efficiency([1.0, -1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            parallel_efficiency([1.0, 1.0], [1.0, 2.0], mode="sideways")

    def test_linear_fit_recovers_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = 2.5 * x + 1.0
        slope, intercept, r_squared = linear_fit(x, y)
        assert slope == pytest.approx(2.5)
        assert intercept == pytest.approx(1.0)
        assert r_squared == pytest.approx(1.0)

    def test_linear_fit_noisy(self, rng):
        x = np.linspace(0, 10, 50)
        y = 3.0 * x + rng.normal(scale=0.1, size=50)
        slope, _, r_squared = linear_fit(x, y)
        assert slope == pytest.approx(3.0, abs=0.1)
        assert r_squared > 0.99

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0])

    def test_crossover_point_found(self):
        x = np.array([1e-8, 1e-6, 1e-4, 1e-2])
        slow = np.array([4.0, 3.0, 2.0, 1.0])
        fast = np.array([8.0, 4.0, 1.0, 0.1])
        crossing = crossover_point(x, fast, slow)
        assert 1e-6 < crossing < 1e-4

    def test_crossover_point_absent(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.isnan(crossover_point(x, [1, 1, 1], [2, 2, 2]))

    def test_crossover_validation(self):
        with pytest.raises(ValueError):
            crossover_point([1.0, 2.0], [1.0], [1.0, 2.0])
