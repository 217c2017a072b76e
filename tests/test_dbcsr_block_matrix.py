"""Tests for the block-compressed sparse matrix storage."""

import numpy as np
import pytest

from repro.dbcsr import BlockSparseMatrix
from repro.dbcsr.convert import block_matrix_to_dense

from submatrix_reference import assert_same_blocks, blocks_of


@pytest.fixture()
def small_blocks(rng):
    """Four blocks of a 3x3-block matrix with mixed block sizes."""
    return {
        (0, 0): rng.random((2, 2)),
        (1, 1): rng.random((3, 3)),
        (0, 1): rng.random((2, 3)),
        (2, 2): rng.random((1, 1)),
    }


class TestConstruction:
    def test_shape(self):
        matrix = BlockSparseMatrix([2, 3], [4, 1])
        assert matrix.shape == (5, 5)
        assert matrix.n_block_rows == 2
        assert matrix.n_block_cols == 2

    def test_square_by_default(self):
        matrix = BlockSparseMatrix([2, 3])
        assert np.array_equal(matrix.row_block_sizes, matrix.col_block_sizes)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BlockSparseMatrix([2, 0])

    def test_blocks_are_packed_in_the_mappings_order(self, small_blocks):
        matrix = BlockSparseMatrix([2, 3, 1], blocks=small_blocks)
        rows, cols, offsets, values = matrix.block_index()
        assert list(zip(rows.tolist(), cols.tolist())) == list(small_blocks)
        assert offsets.tolist() == [0, 4, 13, 19, 20]
        assert values.tobytes() == np.concatenate(
            [block.ravel() for block in small_blocks.values()]
        ).tobytes()
        dense = block_matrix_to_dense(matrix)
        assert np.array_equal(dense[0:2, 2:5], small_blocks[0, 1])
        assert not dense[2:5, 0:2].any()

    def test_blocks_are_copied(self, small_blocks):
        matrix = BlockSparseMatrix([2, 3, 1], blocks=small_blocks)
        small_blocks[0, 0][0, 0] = 999.0
        assert blocks_of(matrix)[0, 0][0, 0] != 999.0
        assert not np.shares_memory(matrix.block_index().values, small_blocks[0, 0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"block \(0, 0\) must have shape \(2, 2\)"):
            BlockSparseMatrix([2, 3], blocks={(0, 0): np.zeros((3, 3))})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"block \(5, 0\) is outside"):
            BlockSparseMatrix([2, 3], blocks={(5, 0): np.zeros((2, 2))})

    def test_empty(self):
        matrix = BlockSparseMatrix([2, 3])
        assert matrix.nnz_blocks == matrix.nnz_elements == 0
        assert matrix.block_index().values.shape == (0,)
        assert not block_matrix_to_dense(matrix).any()

    def test_invalid_column_block_size(self):
        with pytest.raises(ValueError, match="block sizes must be positive"):
            BlockSparseMatrix([2, 3], [4, -1])

    def test_starts_are_prefix_sums_of_the_sizes(self):
        matrix = BlockSparseMatrix([2, 3, 1], [4, 1])
        assert matrix.row_starts.tolist() == [0, 2, 5, 6]
        assert matrix.col_starts.tolist() == [0, 4, 5]

    def test_rectangular_blocks_land_in_their_region(self, rng):
        blocks = {(1, 0): rng.random((3, 4)), (0, 1): rng.random((2, 1))}
        matrix = BlockSparseMatrix([2, 3], [4, 1], blocks=blocks)
        dense = block_matrix_to_dense(matrix)
        assert dense.shape == (5, 5)
        assert np.array_equal(dense[2:5, 0:4], blocks[1, 0])
        assert np.array_equal(dense[0:2, 4:5], blocks[0, 1])
        assert not dense[0:2, 0:4].any() and not dense[2:5, 4:5].any()

    def test_nested_lists_and_integers_are_stored_as_float64(self):
        matrix = BlockSparseMatrix(
            [1, 2], [2], blocks={(1, 0): [[1, 2], [3, 4]], (0, 0): np.array([[5, 6]])}
        )
        rows, cols, offsets, values = matrix.block_index()
        assert values.dtype == np.float64
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert offsets.tolist() == [0, 4, 6]
        assert rows.tolist() == [1, 0] and cols.tolist() == [0, 0]

    def test_negative_column_in_the_mapping_rejected(self):
        with pytest.raises(ValueError, match=r"block \(0, -1\) is outside the 2x2"):
            BlockSparseMatrix([2, 2], blocks={(0, -1): np.zeros((2, 2))})

    def test_shape_checked_against_the_column_sizes(self):
        wrong = {(0, 1): np.zeros((2, 4))}
        with pytest.raises(ValueError, match=r"block \(0, 1\) must have shape \(2, 1\)"):
            BlockSparseMatrix([2, 3], [4, 1], blocks=wrong)


class TestFromIndexChecksCoordinates:
    """``from_index`` refuses a coordinate outside the block grid or given
    twice, naming the first bad one; the ``blocks=`` constructor goes
    through the same check."""

    def test_negative_row(self):
        with pytest.raises(ValueError, match=r"block \(-1, 0\) is outside the 2x2"):
            BlockSparseMatrix.from_index([2, 2], [2, 2], [-1], [0], np.ones(4))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError, match=r"block \(1, 3\) is outside the 2x3"):
            BlockSparseMatrix.from_index(
                [2, 2], [2, 2, 2], [0, 1], [1, 3], np.ones(8)
            )

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match=r"block \(0, 0\) is stored twice"):
            BlockSparseMatrix.from_index(
                [2, 2], [2, 2], [0, 1, 0], [0, 1, 0], np.ones(12)
            )

    def test_first_repeat_in_storage_order_is_named(self):
        rows, cols = [1, 0, 1, 0], [1, 1, 1, 1]
        with pytest.raises(ValueError, match=r"block \(1, 1\) is stored twice"):
            BlockSparseMatrix.from_index([2, 2], None, rows, cols, np.ones(16))

    def test_buffer_length_checked(self):
        with pytest.raises(ValueError, match="float64 vector of 8 elements"):
            BlockSparseMatrix.from_index([2, 2], None, [0, 1], [0, 1], np.ones(4))

    def test_valid_index_is_the_storage(self):
        values = np.arange(8.0)
        matrix = BlockSparseMatrix.from_index([2, 2], None, [1, 0], [0, 1], values)
        assert matrix.block_index().values is values
        assert matrix.nnz_blocks == 2
        assert list(blocks_of(matrix)) == [(1, 0), (0, 1)]

    def test_row_past_the_last_block_row(self):
        with pytest.raises(ValueError, match=r"block \(2, 0\) is outside the 2x2"):
            BlockSparseMatrix.from_index([2, 2], None, [2], [0], np.ones(4))

    def test_negative_column(self):
        with pytest.raises(ValueError, match=r"block \(0, -1\) is outside the 2x2"):
            BlockSparseMatrix.from_index([2, 2], None, [0], [-1], np.ones(4))

    def test_first_outside_in_storage_order_is_named(self):
        with pytest.raises(ValueError, match=r"block \(3, 0\) is outside"):
            BlockSparseMatrix.from_index(
                [2, 2], None, [0, 3, -1], [0, 0, 0], np.ones(12)
            )

    def test_rows_and_columns_of_different_lengths(self):
        with pytest.raises(ValueError, match="vectors of one length"):
            BlockSparseMatrix.from_index([2, 2], None, [0, 1], [0], np.ones(8))

    def test_two_dimensional_coordinates_rejected(self):
        with pytest.raises(ValueError, match="vectors of one length"):
            BlockSparseMatrix.from_index([2, 2], None, [[0]], [[0]], np.ones(4))

    def test_non_float64_buffer_rejected(self):
        with pytest.raises(ValueError, match="float64 vector of 4 elements"):
            BlockSparseMatrix.from_index(
                [2, 2], None, [0], [0], np.ones(4, dtype=np.float32)
            )

    def test_given_offsets_are_the_index(self):
        offsets = np.array([0, 2, 6], dtype=np.int64)
        values = np.arange(6.0)
        matrix = BlockSparseMatrix.from_index(
            [1, 2], [2], [0, 1], [0, 0], values, offsets
        )
        assert matrix.block_index().offsets is offsets
        assert np.array_equal(block_matrix_to_dense(matrix), values.reshape(3, 2))

    def test_empty_index(self):
        matrix = BlockSparseMatrix.from_index([2, 2], None, [], [], np.zeros(0))
        assert matrix.nnz_blocks == matrix.nnz_elements == 0
        assert matrix.block_occupation() == 0.0
        assert not block_matrix_to_dense(matrix).any()

    def test_the_blocks_mapping_and_the_index_give_the_same_storage(self, small_blocks):
        packed = BlockSparseMatrix([2, 3, 1], blocks=small_blocks)
        rows, cols = np.array(list(small_blocks)).T
        values = np.concatenate([block.ravel() for block in small_blocks.values()])
        indexed = BlockSparseMatrix.from_index([2, 3, 1], None, rows, cols, values)
        assert_same_blocks(packed, indexed)


class TestOccupation:
    def test_counts(self, small_blocks):
        matrix = BlockSparseMatrix([2, 3, 1], blocks=small_blocks)
        assert matrix.nnz_blocks == 4
        assert matrix.nnz_elements == 4 + 9 + 6 + 1
        assert matrix.block_occupation() == pytest.approx(4 / 9)

    def test_empty_matrix_occupies_nothing(self):
        assert BlockSparseMatrix([2, 3, 1]).block_occupation() == 0.0

    def test_full_block_grid_occupies_everything(self, rng):
        sizes = [2, 1]
        blocks = {
            (i, j): rng.random((sizes[i], sizes[j])) for i in range(2) for j in range(2)
        }
        matrix = BlockSparseMatrix(sizes, blocks=blocks)
        assert matrix.block_occupation() == 1.0
        assert matrix.nnz_elements == sum(sizes) ** 2

    def test_rectangular_counts(self, rng):
        blocks = {(1, 0): rng.random((3, 4)), (0, 2): rng.random((2, 1))}
        matrix = BlockSparseMatrix([2, 3], [4, 1, 1], blocks=blocks)
        assert matrix.nnz_blocks == 2
        assert matrix.nnz_elements == 12 + 2
        assert matrix.block_occupation() == pytest.approx(2 / 6)
