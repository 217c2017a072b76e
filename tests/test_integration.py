"""Integration tests crossing subsystem boundaries.

These tests exercise the full pipeline the paper describes — water system →
model matrices → orthogonalization/filtering → submatrix sign evaluation →
density matrix / energy — and compare the linear-scaling methods against each
other and against the cubic-scaling dense reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chem import (
    HamiltonianModel,
    build_block_pattern,
    build_matrices,
    orthogonalized_ks,
    reference_density_matrix,
    water_box,
)
from repro.chem.basis import DZVP, SZV
from repro.chem.density import band_structure_energy, density_from_sign
from repro.api import EngineConfig, SubmatrixContext
from repro.core import (
    newton_schulz_cost,
    submatrix_method_cost,
    single_column_groups,
)
from repro.core.submatrix import submatrix_dimension
from repro.dbcsr import CooBlockList
from repro.parallel import MachineModel
from repro.signfn import sign_newton_schulz_sparse, sign_via_eigendecomposition


class TestSubmatrixVsNewtonSchulz:
    """The two linear-scaling routes must agree with each other (Figs. 6/7)."""

    def test_energies_agree(self, water32_matrices, gap_mu, water32):
        eps = 1e-6
        k_ortho, s_inv_sqrt = orthogonalized_ks(
            water32_matrices.K, water32_matrices.S, eps
        )
        n = k_ortho.shape[0]
        shifted = (k_ortho - gap_mu * sp.identity(n, format="csr")).tocsr()

        # Newton-Schulz on the sparse matrix (CP2K default route)
        ns_sign = sign_newton_schulz_sparse(shifted, eps_filter=eps).sign
        ns_density = density_from_sign(ns_sign, s_inv_sqrt)
        ns_energy = band_structure_energy(ns_density, water32_matrices.K.toarray())

        # submatrix method route
        solver = SubmatrixContext(EngineConfig(eps_filter=eps))
        sm = solver.density(
            water32_matrices.K, water32_matrices.S, water32_matrices.blocks, mu=gap_mu
        )
        per_atom_mev = abs(ns_energy - sm.band_energy) / water32.n_atoms * 1000
        assert per_atom_mev < 1.0

    def test_both_agree_with_dense_reference(
        self, water32_matrices, water32_reference, gap_mu, water32
    ):
        eps = 1e-7
        solver = SubmatrixContext(EngineConfig(eps_filter=eps))
        sm = solver.density(
            water32_matrices.K, water32_matrices.S, water32_matrices.blocks, mu=gap_mu
        )
        error = abs(sm.band_energy - water32_reference.band_energy)
        assert error / water32.n_atoms * 1000 < 0.5


class TestElementVsBlockGranularity:
    def test_block_level_close_to_element_level(self, water32_matrices, gap_mu):
        eps = 1e-6
        k_ortho, _ = orthogonalized_ks(water32_matrices.K, water32_matrices.S, eps)
        n = k_ortho.shape[0]
        shifted = (k_ortho - gap_mu * sp.identity(n, format="csr")).tocsr()
        context = SubmatrixContext()
        element_result = context.apply(shifted, sign_via_eigendecomposition)

        from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_csr

        blocked = block_matrix_from_csr(
            shifted, water32_matrices.blocks.block_sizes
        )
        block_result = context.apply(blocked, sign_via_eigendecomposition)
        a = element_result.result.toarray()
        b = block_matrix_to_csr(block_result.result).toarray()
        # block-level submatrices are supersets of element-level ones, so both
        # must be close to each other on the shared pattern
        shared = (a != 0) & (b != 0)
        assert np.max(np.abs((a - b)[shared])) < 0.05


class TestLargerBasisSet:
    def test_dzvp_submatrices_are_larger(self, water64):
        """Fig. 4: larger basis sets lead to larger submatrices."""
        szv_pattern, szv_blocks = build_block_pattern(
            water64, HamiltonianModel(basis=SZV), eps_filter=1e-5
        )
        dzvp_pattern, dzvp_blocks = build_block_pattern(
            water64, HamiltonianModel(basis=DZVP), eps_filter=1e-5
        )
        szv_dim = submatrix_dimension(szv_pattern, szv_blocks.block_sizes, 10)
        dzvp_dim = submatrix_dimension(dzvp_pattern, dzvp_blocks.block_sizes, 10)
        assert dzvp_dim > szv_dim

    def test_dzvp_density_matrix_works(self, water32, gap_mu):
        pair = build_matrices(water32, model=HamiltonianModel(basis=DZVP))
        reference = reference_density_matrix(pair.K, pair.S, mu=gap_mu)
        solver = SubmatrixContext(EngineConfig(eps_filter=1e-6))
        result = solver.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
        error = abs(result.band_energy - reference.band_energy)
        assert error / water32.n_atoms * 1000 < 1.0
        assert result.n_electrons == pytest.approx(reference.n_electrons, abs=0.1)


class TestPatternPipeline:
    """Pattern-level pipeline used for the large-system cost analyses."""

    def test_pattern_cost_pipeline_runs(self, water64):
        pattern, blocks = build_block_pattern(water64, eps_filter=1e-5)
        machine = MachineModel()
        submatrix = submatrix_method_cost(
            pattern, blocks.block_sizes, n_ranks=8, machine=machine
        )
        newton = newton_schulz_cost(
            pattern, blocks.block_sizes, n_ranks=8, machine=machine
        )
        assert submatrix.simulated.total > 0
        assert newton.simulated.total > 0

    def test_submatrix_dimension_saturates_with_slab_length(self):
        """Fig. 4: beyond the interaction range the submatrix dimension is
        independent of the system size (linear-scaling regime)."""
        dims = []
        for nx in (2, 3, 4):
            system = water_box((nx, 1, 1))
            pattern, blocks = build_block_pattern(system, eps_filter=1e-5)
            coo = CooBlockList.from_pattern(pattern)
            # probe a column in the middle of the slab
            middle = system.n_molecules // 2
            dims.append(
                submatrix_dimension(coo, blocks.block_sizes, middle)
            )
        assert dims[2] <= dims[1] * 1.2
        # while the total matrix dimension keeps growing
        assert 4 * 32 * 6 > 2 * 32 * 6

    def test_filter_threshold_controls_pattern_density(self, water64):
        loose, _ = build_block_pattern(water64, eps_filter=1e-3)
        tight, _ = build_block_pattern(water64, eps_filter=1e-8)
        assert tight.nnz > loose.nnz

    def test_cost_model_crossover_in_eps(self, water64):
        """Fig. 6 shape: for loose filters the submatrix method is cheaper,
        for very tight filters Newton-Schulz eventually wins."""
        machine = MachineModel()
        ratios = []
        for eps in (1e-2, 1e-8):
            pattern, blocks = build_block_pattern(water64, eps_filter=eps)
            sm = submatrix_method_cost(pattern, blocks.block_sizes, 8, machine)
            ns = newton_schulz_cost(pattern, blocks.block_sizes, 8, machine)
            ratios.append(sm.simulated.total / ns.simulated.total)
        assert ratios[0] < ratios[1]


class TestEndToEndCanonicalMD:
    def test_repeated_canonical_solves_are_stable(self, water32_matrices):
        """Simulate the usage pattern of an MD loop: repeated canonical
        density builds with slightly different electron counts."""
        solver = SubmatrixContext(EngineConfig(eps_filter=1e-5))
        previous_mu = None
        for n_electrons in (256, 254, 256):
            result = solver.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                n_electrons=n_electrons,
            )
            assert result.n_electrons == pytest.approx(n_electrons, abs=0.5)
            if previous_mu is not None and n_electrons == 256:
                assert result.mu == pytest.approx(previous_mu, abs=1e-6)
            if n_electrons == 256:
                previous_mu = result.mu
