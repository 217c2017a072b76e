"""Tests for principal-submatrix extraction and scatter-back: the block-level
helpers of ``repro.core.submatrix`` and the per-submatrix kernels of the
serial reference (``submatrix_reference``) the engine is tested against."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.submatrix import (
    extract_block_submatrix,
    submatrix_block_rows,
    submatrix_dimension,
)
from repro.dbcsr import BlockSparseMatrix, CooBlockList
from repro.dbcsr.convert import block_matrix_from_dense, block_matrix_to_dense

from conftest import make_decay_matrix
from submatrix_reference import (
    blocks_of,
    extract_submatrix,
    matrix_for_pattern,
    random_pattern,
    reference_extract_block_submatrix,
    scatter_block_submatrix_result,
    scatter_submatrix_result,
)


@pytest.fixture()
def sparse_decay_matrix():
    """Sparse symmetric matrix with decaying off-diagonals (40x40)."""
    dense = make_decay_matrix(40, bandwidth=4.0)
    dense[np.abs(dense) < 1e-3] = 0.0
    return sp.csr_matrix(dense)


@pytest.fixture()
def banded_block_matrix(rng):
    """Block matrix with 8 blocks of size 3, bandwidth one block."""
    blocks = {
        (i, j): rng.normal(size=(3, 3))
        for i in range(8)
        for j in range(8)
        if abs(i - j) <= 1
    }
    matrix = BlockSparseMatrix([3] * 8, blocks=blocks)
    # symmetrize
    dense = block_matrix_to_dense(matrix)
    dense = (dense + dense.T) / 2
    return block_matrix_from_dense(dense, [3] * 8)


class TestElementLevelExtraction:
    def test_single_column(self, sparse_decay_matrix):
        submatrix = extract_submatrix(sparse_decay_matrix, 5)
        column_rows = sparse_decay_matrix.tocsc()[:, 5].nonzero()[0]
        assert np.array_equal(submatrix.indices, np.unique(np.append(column_rows, 5)))
        assert submatrix.data.shape == (submatrix.dimension, submatrix.dimension)

    def test_generating_column_always_included(self):
        """Column with zero diagonal still appears in its own submatrix."""
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        submatrix = extract_submatrix(matrix, 0)
        assert 0 in submatrix.indices

    def test_submatrix_is_principal_submatrix(self, sparse_decay_matrix):
        submatrix = extract_submatrix(sparse_decay_matrix, 7)
        dense = sparse_decay_matrix.toarray()
        expected = dense[np.ix_(submatrix.indices, submatrix.indices)]
        assert np.allclose(submatrix.data, expected)

    def test_multiple_columns_union(self, sparse_decay_matrix):
        single_a = extract_submatrix(sparse_decay_matrix, 3)
        single_b = extract_submatrix(sparse_decay_matrix, 20)
        combined = extract_submatrix(sparse_decay_matrix, [3, 20])
        union = np.union1d(single_a.indices, single_b.indices)
        assert np.array_equal(combined.indices, union)
        assert combined.dimension >= max(single_a.dimension, single_b.dimension)

    def test_local_columns_point_to_generators(self, sparse_decay_matrix):
        submatrix = extract_submatrix(sparse_decay_matrix, [3, 20])
        assert np.array_equal(submatrix.indices[submatrix.local_columns], [3, 20])

    def test_out_of_range_column(self, sparse_decay_matrix):
        with pytest.raises(IndexError):
            extract_submatrix(sparse_decay_matrix, 100)

    def test_empty_columns_rejected(self, sparse_decay_matrix):
        with pytest.raises(ValueError):
            extract_submatrix(sparse_decay_matrix, [])

    def test_dense_column_gives_full_matrix(self):
        dense = np.ones((6, 6))
        submatrix = extract_submatrix(sp.csr_matrix(dense), 2)
        assert submatrix.dimension == 6


class TestElementLevelScatter:
    def test_scatter_preserves_pattern_and_values(self, sparse_decay_matrix):
        csc = sparse_decay_matrix.tocsc()
        submatrix = extract_submatrix(csc, 11)
        f_sub = submatrix.data @ submatrix.data  # any function
        accumulator = {}
        scatter_submatrix_result(accumulator, f_sub, submatrix, csc)
        column = accumulator[11]
        expected_rows = set(csc[:, 11].nonzero()[0].tolist())
        assert set(column.keys()) == expected_rows
        # values come from the correct local column
        local_col = submatrix.local_columns[0]
        for row, value in column.items():
            local_row = int(np.searchsorted(submatrix.indices, row))
            assert value == pytest.approx(f_sub[local_row, local_col])


class TestBlockLevelHelpers:
    def test_submatrix_block_rows_from_pattern(self, banded_block_matrix):
        coo = CooBlockList.from_block_matrix(banded_block_matrix)
        rows = submatrix_block_rows(coo, 0)
        assert np.array_equal(rows, [0, 1])
        rows = submatrix_block_rows(coo, 4)
        assert np.array_equal(rows, [3, 4, 5])

    def test_submatrix_block_rows_accepts_pattern_matrix(self, banded_block_matrix):
        coo = CooBlockList.from_block_matrix(banded_block_matrix)
        pattern = coo.to_pattern()
        assert np.array_equal(
            submatrix_block_rows(pattern, 4), submatrix_block_rows(coo, 4)
        )

    def test_submatrix_dimension(self, banded_block_matrix):
        coo = CooBlockList.from_block_matrix(banded_block_matrix)
        assert submatrix_dimension(coo, [3] * 8, 0) == 6
        assert submatrix_dimension(coo, [3] * 8, 4) == 9
        assert submatrix_dimension(coo, [3] * 8, [0, 4]) == 15

    def test_dimension_with_heterogeneous_blocks(self):
        pattern = sp.csr_matrix(np.eye(3, dtype=bool))
        assert submatrix_dimension(pattern, [2, 5, 7], 1) == 5


class TestBlockLevelExtraction:
    def test_dense_content_matches(self, banded_block_matrix):
        coo = CooBlockList.from_block_matrix(banded_block_matrix)
        submatrix = extract_block_submatrix(banded_block_matrix, 3, coo)
        dense = block_matrix_to_dense(banded_block_matrix)
        retained_elements = np.concatenate(
            [np.arange(b * 3, b * 3 + 3) for b in submatrix.indices]
        )
        expected = dense[np.ix_(retained_elements, retained_elements)]
        assert np.allclose(submatrix.data, expected)

    def test_requires_square_block_structure(self, rng):
        matrix = BlockSparseMatrix([2, 3], [3, 2])
        with pytest.raises(ValueError):
            extract_block_submatrix(matrix, 0)

    def test_coo_built_on_demand(self, banded_block_matrix):
        a = extract_block_submatrix(banded_block_matrix, 2)
        coo = CooBlockList.from_block_matrix(banded_block_matrix)
        b = extract_block_submatrix(banded_block_matrix, 2, coo)
        assert np.allclose(a.data, b.data)

    def test_block_sizes_recorded(self, banded_block_matrix):
        submatrix = extract_block_submatrix(banded_block_matrix, 0)
        assert np.array_equal(submatrix.block_sizes, [3, 3])
        assert submatrix.dimension == 6


class TestExtractionIsThePerBlockAssembly:
    """``extract_block_submatrix`` (a one-group plan: ``pack`` then
    ``extract_stack``) gives bitwise the submatrix the serial reference
    assembles block by block."""

    @staticmethod
    def assert_same_submatrix(ours, want):
        assert ours.data.dtype == want.data.dtype == np.float64
        assert ours.data.tobytes() == want.data.tobytes()
        for name in ("generating_columns", "indices", "local_columns", "block_sizes"):
            assert np.array_equal(getattr(ours, name), getattr(want, name)), name

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_on_ragged_patterns(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, 10)
        coo = random_pattern(10, 0.3, rng)
        matrix = matrix_for_pattern(coo, sizes, rng)
        for columns in ([0], [3, 7], [9, 2, 5], list(range(10))):
            self.assert_same_submatrix(
                extract_block_submatrix(matrix, columns, coo),
                reference_extract_block_submatrix(matrix, columns, coo),
            )
        self.assert_same_submatrix(
            extract_block_submatrix(matrix, 4),
            reference_extract_block_submatrix(matrix, 4),
        )

    def test_unstored_pattern_blocks_extract_as_zeros(self, rng):
        sizes = [2, 3, 2, 1, 3, 2]
        coo = random_pattern(6, 0.5, rng)
        blocks = blocks_of(matrix_for_pattern(coo, sizes, rng))
        for key in list(blocks)[1::3]:
            del blocks[key]
        matrix = BlockSparseMatrix(sizes, blocks=blocks)
        for columns in ([1], [0, 5], list(range(6))):
            self.assert_same_submatrix(
                extract_block_submatrix(matrix, columns, coo),
                reference_extract_block_submatrix(matrix, columns, coo),
            )

    def test_stored_block_outside_the_pattern_is_refused(self, banded_block_matrix):
        index = banded_block_matrix.block_index()
        inside = index.rows != index.cols + 1
        coo = CooBlockList(index.rows[inside], index.cols[inside], 8, 8)
        with pytest.raises(ValueError, match="not in the planned pattern"):
            extract_block_submatrix(banded_block_matrix, 3, coo)

    def test_is_the_principal_submatrix_of_the_dense_matrix(self, banded_block_matrix):
        dense = block_matrix_to_dense(banded_block_matrix)
        submatrix = extract_block_submatrix(banded_block_matrix, [2, 6])
        assert submatrix.indices.tolist() == [1, 2, 3, 5, 6, 7]
        elements = (3 * submatrix.indices[:, None] + np.arange(3)).ravel()
        assert np.array_equal(submatrix.data, dense[np.ix_(elements, elements)])
        assert submatrix.local_columns.tolist() == [1, 4]

    def test_storage_order_does_not_change_the_submatrix(self, banded_block_matrix):
        blocks = blocks_of(banded_block_matrix)
        reversed_order = BlockSparseMatrix(
            [3] * 8, blocks={key: blocks[key] for key in reversed(list(blocks))}
        )
        for columns in ([0], [4, 1], list(range(8))):
            self.assert_same_submatrix(
                extract_block_submatrix(reversed_order, columns),
                extract_block_submatrix(banded_block_matrix, columns),
            )

    def test_non_square_block_structure_refused(self):
        matrix = BlockSparseMatrix([2, 3], [3, 2])
        with pytest.raises(ValueError, match="square block structure"):
            extract_block_submatrix(matrix, 0)


class TestBlockLevelScatter:
    def test_scatter_writes_only_generating_column_blocks(self, banded_block_matrix):
        coo = CooBlockList.from_block_matrix(banded_block_matrix)
        submatrix = extract_block_submatrix(banded_block_matrix, 3, coo)
        f_sub = np.eye(submatrix.dimension)
        result = {}
        scatter_block_submatrix_result(result, f_sub, submatrix, coo)
        assert set(result) == {(2, 3), (3, 3), (4, 3)}

    def test_identity_function_reproduces_input_column(self, banded_block_matrix):
        """Applying f = identity through the submatrix machinery returns A."""
        coo = CooBlockList.from_block_matrix(banded_block_matrix)
        result = {}
        for column in range(8):
            submatrix = extract_block_submatrix(banded_block_matrix, column, coo)
            scatter_block_submatrix_result(result, submatrix.data, submatrix, coo)
        assert np.allclose(
            block_matrix_to_dense(BlockSparseMatrix([3] * 8, blocks=result)),
            block_matrix_to_dense(banded_block_matrix),
        )

    def test_scatter_requires_block_submatrix(self, sparse_decay_matrix):
        submatrix = extract_submatrix(sparse_decay_matrix, 0)
        coo = CooBlockList.from_block_matrix(BlockSparseMatrix([3] * 8))
        with pytest.raises(ValueError):
            scatter_block_submatrix_result({}, submatrix.data, submatrix, coo)
