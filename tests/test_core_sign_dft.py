"""Tests for the submatrix-method density-matrix solver
(``SubmatrixContext.density``: grand-canonical, canonical, finite
temperature, alternative per-submatrix solvers)."""

import numpy as np
import pytest

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import reference_density_matrix
from repro.core.combination import group_columns_greedy_chunks


def density(
    matrices, solver="eigen", grouping=None, mu=None, n_electrons=None, **config
):
    """One density through a fresh session configured by ``**config``."""
    with SubmatrixContext(EngineConfig(**config)) as context:
        return context.density(
            matrices.K,
            matrices.S,
            matrices.blocks,
            mu=mu,
            n_electrons=n_electrons,
            solver=solver,
            grouping=grouping,
        )


class TestGrandCanonical:
    def test_matches_reference_energy(self, water32_matrices, water32_reference, gap_mu, water32):
        result = density(water32_matrices, mu=gap_mu, eps_filter=1e-7)
        error_mev_per_atom = (
            abs(result.band_energy - water32_reference.band_energy)
            / water32.n_atoms
            * 1000.0
        )
        assert error_mev_per_atom < 1.0

    def test_electron_count_matches(self, water32_matrices, gap_mu):
        result = density(water32_matrices, mu=gap_mu, eps_filter=1e-7)
        assert result.n_electrons == pytest.approx(8 * 32, abs=1e-3)

    def test_looser_filter_larger_error(self, water64_matrices, gap_mu, water64):
        reference = reference_density_matrix(
            water64_matrices.K, water64_matrices.S, mu=gap_mu
        )
        errors = []
        for eps in (1e-2, 1e-6):
            result = density(water64_matrices, mu=gap_mu, eps_filter=eps)
            errors.append(abs(result.band_energy - reference.band_energy))
        assert errors[0] > errors[1]

    def test_looser_filter_smaller_submatrices(self, water64_matrices, gap_mu):
        dims = []
        for eps in (1e-2, 1e-7):
            result = density(water64_matrices, mu=gap_mu, eps_filter=eps)
            dims.append(result.max_submatrix_dimension)
        assert dims[0] < dims[1]

    def test_density_pattern_matches_filtered_ks(self, water32_matrices, gap_mu):
        from repro.chem import orthogonalized_ks

        eps = 1e-5
        result = density(water32_matrices, mu=gap_mu, eps_filter=eps)
        k_ortho, _ = orthogonalized_ks(water32_matrices.K, water32_matrices.S, eps)
        # the density matrix retains the sparsity pattern of the input
        density_pattern = result.density_ortho.toarray() != 0
        ks_pattern = k_ortho.toarray() != 0
        assert np.array_equal(density_pattern & ~ks_pattern, np.zeros_like(ks_pattern))

    def test_requires_exactly_one_ensemble_choice(self, water32_matrices, gap_mu):
        with pytest.raises(ValueError):
            density(water32_matrices)
        with pytest.raises(ValueError):
            density(water32_matrices, mu=gap_mu, n_electrons=256)

    def test_grouping_reduces_submatrix_count(self, water32_matrices, gap_mu):
        grouping = group_columns_greedy_chunks(32, 8)
        result = density(water32_matrices, mu=gap_mu, eps_filter=1e-5, grouping=grouping)
        assert result.n_submatrices == 4

    def test_grouped_result_close_to_ungrouped(self, water32_matrices, gap_mu, water32):
        ungrouped = density(water32_matrices, mu=gap_mu, eps_filter=1e-6)
        grouped = density(
            water32_matrices,
            mu=gap_mu,
            eps_filter=1e-6,
            grouping=group_columns_greedy_chunks(32, 4),
        )
        difference = abs(ungrouped.band_energy - grouped.band_energy) / water32.n_atoms
        assert difference * 1000 < 1.0  # meV/atom

    def test_invalid_parameters(self, water32_matrices, gap_mu):
        with pytest.raises(ValueError):
            EngineConfig(eps_filter=-1.0)
        with pytest.raises(ValueError):
            EngineConfig(temperature=-1.0)
        with pytest.raises(ValueError):
            density(water32_matrices, mu=gap_mu, solver="magic")


class TestCanonical:
    def test_finds_mu_in_gap(self, water32_matrices, water32_reference):
        result = density(water32_matrices, n_electrons=8 * 32, eps_filter=1e-6)
        energies = water32_reference.orbital_energies
        homo = energies[4 * 32 - 1]
        lumo = energies[4 * 32]
        assert homo < result.mu < lumo
        assert result.n_electrons == pytest.approx(8 * 32, abs=1e-2)
        assert result.mu_iterations >= 1

    def test_canonical_matches_grand_canonical_energy(
        self, water32_matrices, gap_mu, water32
    ):
        grand = density(water32_matrices, mu=gap_mu, eps_filter=1e-6)
        canonical = density(water32_matrices, n_electrons=8 * 32, eps_filter=1e-6)
        difference = abs(grand.band_energy - canonical.band_energy) / water32.n_atoms
        assert difference * 1000 < 0.1

    def test_fractional_electron_count_adjusts_mu(self, water32_matrices, gap_mu):
        """Removing electrons moves μ down into the occupied band."""
        neutral = density(water32_matrices, n_electrons=8 * 32, eps_filter=1e-6)
        cation = density(water32_matrices, n_electrons=8 * 32 - 16, eps_filter=1e-6)
        assert cation.mu < neutral.mu
        assert cation.n_electrons == pytest.approx(8 * 32 - 16, abs=0.5)

    @pytest.mark.parametrize("eps_filter", [1e-3, 1e-2])
    def test_zero_temperature_bisection_stops_on_exhausted_bracket(
        self, water64_matrices, gap_mu, eps_filter
    ):
        """At T = 0 the electron count is a step function of μ, so once the
        filter error exceeds ``mu_tolerance`` no μ converges: the search must
        stop when its bracket is exhausted, on the better end — never worse
        than a grand-canonical call at the gap centre, judged by the dense
        oracle."""
        pair = water64_matrices
        n_electrons = 8.0 * 64
        canonical = density(pair, n_electrons=n_electrons, eps_filter=eps_filter)
        grand = density(pair, mu=gap_mu, eps_filter=eps_filter)
        oracle = reference_density_matrix(pair.K, pair.S, mu=gap_mu)
        assert oracle.n_electrons == pytest.approx(n_electrons, abs=1e-9)

        assert canonical.mu_iterations < 80
        assert abs(canonical.n_electrons - n_electrons) <= abs(
            grand.n_electrons - n_electrons
        )
        canonical_error = np.max(np.abs(canonical.density_ao - oracle.density_ao))
        grand_error = np.max(np.abs(grand.density_ao - oracle.density_ao))
        assert canonical_error <= grand_error * (1.0 + 1e-9)

    def test_canonical_requires_eigen_solver(self, water32_matrices):
        with pytest.raises(ValueError):
            density(water32_matrices, n_electrons=256, solver="newton_schulz")


class TestFiniteTemperature:
    def test_occupations_smooth_at_high_temperature(self, water32_matrices, gap_mu):
        cold = density(water32_matrices, mu=gap_mu, eps_filter=1e-6, temperature=0.0)
        hot = density(water32_matrices, mu=gap_mu, eps_filter=1e-6, temperature=40000.0)
        # at zero temperature the count is the integer number of electrons;
        # at very high temperature fractional occupations redistribute weight
        # between the occupied and virtual bands, so count and energy change
        assert cold.n_electrons == pytest.approx(8 * 32, abs=1e-6)
        assert abs(hot.n_electrons - cold.n_electrons) > 0.1
        assert hot.band_energy != pytest.approx(cold.band_energy, abs=1e-6)

    def test_finite_temperature_matches_reference(self, water32_matrices, gap_mu, water32):
        temperature = 20000.0
        reference = reference_density_matrix(
            water32_matrices.K, water32_matrices.S, mu=gap_mu, temperature=temperature
        )
        result = density(
            water32_matrices, mu=gap_mu, eps_filter=1e-8, temperature=temperature
        )
        error = abs(result.band_energy - reference.band_energy) / water32.n_atoms * 1000
        assert error < 1.0


class TestAlternativeSolvers:
    @pytest.mark.parametrize("solver_name", ["newton_schulz"])
    def test_iterative_solvers_match_eigen(self, water32_matrices, gap_mu, solver_name, water32):
        eigen = density(water32_matrices, mu=gap_mu, eps_filter=1e-6, solver="eigen")
        iterative = density(
            water32_matrices, mu=gap_mu, eps_filter=1e-6, solver=solver_name
        )
        difference = abs(eigen.band_energy - iterative.band_energy) / water32.n_atoms
        assert difference * 1000 < 0.5
        # T = 0: the eigen route's occupations are the same step function
        assert np.abs(eigen.density_ao - iterative.density_ao).max() < 1e-8

    def test_thread_backend_matches_serial(self, water32_matrices, gap_mu):
        serial = density(water32_matrices, mu=gap_mu, eps_filter=1e-5)
        threaded = density(
            water32_matrices, mu=gap_mu, eps_filter=1e-5, backend="thread", max_workers=2
        )
        assert serial.band_energy == pytest.approx(threaded.band_energy, abs=1e-9)

    def test_bucket_padded_iterative_solver_matches_unpadded(
        self, water32_matrices, gap_mu
    ):
        """Padded stacks (pad eigenvalue pinned at 1 after the μ-shift) are
        exact for the sign iteration up to solver tolerance."""
        unpadded = density(
            water32_matrices, mu=gap_mu, eps_filter=1e-6, solver="newton_schulz"
        )
        padded = density(
            water32_matrices,
            mu=gap_mu,
            eps_filter=1e-6,
            solver="newton_schulz",
            bucket_pad="auto",
        )
        assert padded.band_energy == pytest.approx(unpadded.band_energy, abs=1e-7)
        assert padded.n_electrons == pytest.approx(unpadded.n_electrons, abs=1e-7)
