"""Tests for the model Hamiltonian / overlap builder."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import HamiltonianModel, build_block_pattern, build_matrices, water_box
from repro.chem.basis import DZVP, SZV
from repro.chem.hamiltonian import _element_pairs, block_structure, cutoff_radius


@given(
    st.lists(st.sampled_from(["H", "O", "C", "Na", "N", "He"]), min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_element_pairs_are_the_sorted_set_of_symbol_pairs(symbols, pairs):
    """``np.unique`` over element codes lists the distinct (symbol, symbol)
    pairs in the order ``sorted(set(...))`` of the tuples gives."""
    symbols = np.array(symbols)
    pairs = [(a % symbols.size, b % symbols.size) for a, b in pairs]
    i_atoms = np.array([a for a, _ in pairs], dtype=int)
    j_atoms = np.array([b for _, b in pairs], dtype=int)
    want = sorted({(symbols[a], symbols[b]) for a, b in zip(i_atoms, j_atoms)})
    assert _element_pairs(symbols, i_atoms, j_atoms) == want


class TestBlockStructure:
    def test_szv_water_blocks(self, water32):
        blocks = block_structure(water32, SZV)
        assert blocks.n_blocks == 32
        assert np.all(blocks.block_sizes == 6)
        assert blocks.n_basis == 192
        assert blocks.block_starts[0] == 0
        assert blocks.block_starts[-1] == 192

    def test_dzvp_water_blocks(self, water32):
        blocks = block_structure(water32, DZVP)
        assert np.all(blocks.block_sizes == 23)
        assert blocks.n_basis == 32 * 23

    def test_atom_offsets_monotone_within_molecule(self, water32):
        blocks = block_structure(water32, SZV)
        first_molecule = water32.atoms_in_molecule(0)
        offsets = blocks.atom_offsets[first_molecule]
        assert offsets[0] == 0  # oxygen first (4 functions)
        assert offsets[1] == 4
        assert offsets[2] == 5


class TestCutoffRadius:
    def test_monotone_in_eps(self):
        model = HamiltonianModel()
        assert cutoff_radius(model, 1e-7) > cutoff_radius(model, 1e-4)

    def test_zero_for_large_eps(self):
        model = HamiltonianModel()
        assert cutoff_radius(model, 10.0) == 0.0

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            cutoff_radius(HamiltonianModel(), 0.0)

    def test_dzvp_longer_ranged(self):
        szv = HamiltonianModel(basis=SZV)
        dzvp = HamiltonianModel(basis=DZVP)
        assert cutoff_radius(dzvp, 1e-5) > cutoff_radius(szv, 1e-5)


class TestBuildMatrices:
    def test_shapes_and_symmetry(self, water32_matrices):
        K, S = water32_matrices.K, water32_matrices.S
        assert K.shape == (192, 192)
        assert S.shape == (192, 192)
        assert np.max(np.abs((K - K.T).toarray())) < 1e-12
        assert np.max(np.abs((S - S.T).toarray())) < 1e-12

    def test_overlap_positive_definite(self, water32_matrices):
        eigenvalues = np.linalg.eigvalsh(water32_matrices.S.toarray())
        assert eigenvalues.min() > 0.1

    def test_overlap_diagonal_is_one(self, water32_matrices):
        assert np.allclose(water32_matrices.S.diagonal(), 1.0)

    def test_homo_lumo_gap_exists(self, water32_matrices, szv_model):
        """The model spectrum has a robust gap around the gap-centre μ."""
        from repro.chem import loewdin_inverse_sqrt

        s_inv_sqrt = loewdin_inverse_sqrt(water32_matrices.S)
        k_ortho = s_inv_sqrt @ water32_matrices.K.toarray() @ s_inv_sqrt
        eigenvalues = np.linalg.eigvalsh(k_ortho)
        mu = szv_model.homo_lumo_gap_center()
        below = eigenvalues[eigenvalues < mu]
        above = eigenvalues[eigenvalues > mu]
        # 4 occupied orbitals per molecule
        assert len(below) == 4 * 32
        assert above.min() - below.max() > 5.0

    def test_matrix_elements_decay_with_distance(self, water32, water32_matrices):
        """Couplings between far-apart molecules are weaker than close ones."""
        centers = water32.molecule_centers()
        blocks = water32_matrices.blocks
        K = water32_matrices.K.toarray()

        def block_norm(i, j):
            r0, r1 = blocks.block_starts[i], blocks.block_starts[i + 1]
            c0, c1 = blocks.block_starts[j], blocks.block_starts[j + 1]
            return np.max(np.abs(K[r0:r1, c0:c1]))

        from repro.chem.atoms import minimum_image_displacement

        deltas = minimum_image_displacement(centers - centers[0], water32.cell)
        distances = np.linalg.norm(deltas, axis=1)
        nearest = int(np.argsort(distances)[1])
        farthest = int(np.argmax(distances))
        assert block_norm(0, nearest) > block_norm(0, farthest)

    def test_deterministic(self, water32, szv_model):
        a = build_matrices(water32, model=szv_model)
        b = build_matrices(water32, model=szv_model)
        assert (a.K != b.K).nnz == 0
        assert (a.S != b.S).nnz == 0

    def test_eps_pair_controls_range(self, water32):
        sparse_pair = build_matrices(water32, eps_pair=1e-2)
        dense_pair = build_matrices(water32, eps_pair=1e-8)
        assert sparse_pair.K.nnz < dense_pair.K.nnz

    def test_conflicting_model_and_basis_rejected(self, water32, szv_model):
        with pytest.raises(ValueError):
            build_matrices(water32, model=szv_model, basis=DZVP)

    def test_dzvp_dimensions(self, water32):
        pair = build_matrices(water32, basis=DZVP)
        assert pair.n_basis == 32 * 23


class TestBlockPattern:
    def test_pattern_shape_and_diagonal(self, water32):
        pattern, blocks = build_block_pattern(water32, eps_filter=1e-5)
        assert pattern.shape == (32, 32)
        assert blocks.n_blocks == 32
        assert np.all(pattern.diagonal())

    def test_pattern_symmetric(self, water32):
        pattern, _ = build_block_pattern(water32, eps_filter=1e-5)
        assert (pattern != pattern.T).nnz == 0

    def test_smaller_eps_gives_denser_pattern(self, water64):
        loose, _ = build_block_pattern(water64, eps_filter=1e-3)
        tight, _ = build_block_pattern(water64, eps_filter=1e-7)
        assert tight.nnz >= loose.nnz

    def test_pattern_tracks_true_sparsity(self, water32, water32_matrices):
        """Every block with significant orthogonalized-KS weight is covered."""
        from repro.chem import orthogonalized_ks

        eps = 1e-5
        k_ortho, _ = orthogonalized_ks(
            water32_matrices.K, water32_matrices.S, eps_filter=eps
        )
        pattern, blocks = build_block_pattern(water32, eps_filter=eps)
        dense = np.abs(k_ortho.toarray())
        starts = blocks.block_starts
        missing = 0
        for i in range(blocks.n_blocks):
            for j in range(blocks.n_blocks):
                block_max = dense[
                    starts[i] : starts[i + 1], starts[j] : starts[j + 1]
                ].max()
                if block_max >= 10 * eps and not pattern[i, j]:
                    missing += 1
        assert missing == 0
