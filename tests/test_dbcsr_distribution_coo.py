"""Tests for the 2D block distribution and the global COO block list."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dbcsr import BlockDistribution, BlockSparseMatrix, CooBlockList, ProcessGrid2D


@pytest.fixture()
def pattern_matrix(rng):
    """A 6x6-block banded matrix with 2x2 blocks."""
    matrix = BlockSparseMatrix([2] * 6)
    for i in range(6):
        for j in range(6):
            if abs(i - j) <= 1:
                matrix.put_block(i, j, rng.random((2, 2)))
    return matrix


class TestBlockDistribution:
    def test_round_robin_default(self):
        grid = ProcessGrid2D(4, (2, 2))
        distribution = BlockDistribution(6, 6, grid)
        assert distribution.owner_of(0, 0) == 0
        assert distribution.owner_of(0, 1) == 1
        assert distribution.owner_of(1, 0) == 2
        assert distribution.owner_of(1, 1) == 3
        assert distribution.owner_of(2, 2) == 0  # wraps around

    def test_owners_of_blocks_matches_owner_of(self):
        grid = ProcessGrid2D(6, (3, 2))
        distribution = BlockDistribution(5, 7, grid)
        rows, cols = np.divmod(np.arange(5 * 7), 7)
        owners = distribution.owners_of_blocks(rows, cols)
        for i, j, owner in zip(rows.tolist(), cols.tolist(), owners.tolist()):
            assert owner == distribution.owner_of(i, j)

    def test_explicit_distribution(self):
        grid = ProcessGrid2D(4, (2, 2))
        distribution = BlockDistribution(
            4, 4, grid, row_distribution=[0, 0, 1, 1], col_distribution=[0, 1, 0, 1]
        )
        assert distribution.owner_of(0, 0) == 0
        assert distribution.owner_of(3, 2) == 2

    def test_invalid_distribution_rejected(self):
        grid = ProcessGrid2D(4, (2, 2))
        with pytest.raises(ValueError):
            BlockDistribution(4, 4, grid, row_distribution=[0, 0, 5, 1])
        with pytest.raises(ValueError):
            BlockDistribution(4, 4, grid, row_distribution=[0, 0, 1])


class TestCooBlockList:
    def test_sorted_by_column_then_row(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        keys = list(zip(coo.cols.tolist(), coo.rows.tolist()))
        assert keys == sorted(keys)

    def test_block_ids_are_positions(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        for block_id in range(len(coo)):
            bi, bj = coo.block_at(block_id)
            assert coo.block_id(bi, bj) == block_id

    def test_contains(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        assert coo.contains(0, 0)
        assert not coo.contains(0, 5)

    def test_missing_block_raises(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        with pytest.raises(KeyError):
            coo.block_id(0, 5)
        with pytest.raises(IndexError):
            coo.block_at(len(coo))

    def test_blocks_in_column(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        assert coo.blocks_in_column(0) == [0, 1]
        assert coo.blocks_in_column(2) == [1, 2, 3]

    def test_blocks_in_columns_union(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        assert coo.blocks_in_columns([0, 2]) == [0, 1, 2, 3]

    def test_column_counts(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        counts = coo.column_counts()
        assert counts[0] == 2
        assert counts[2] == 3
        assert counts.sum() == len(coo)

    def test_from_pattern_matches_from_matrix(self, pattern_matrix):
        from repro.dbcsr.convert import block_matrix_to_dense

        del block_matrix_to_dense
        pattern = sp.csr_matrix(
            np.array(
                [
                    [1 if pattern_matrix.has_block(i, j) else 0 for j in range(6)]
                    for i in range(6)
                ]
            )
        )
        from_pattern = CooBlockList.from_pattern(pattern)
        from_matrix = CooBlockList.from_block_matrix(pattern_matrix)
        assert np.array_equal(from_pattern.rows, from_matrix.rows)
        assert np.array_equal(from_pattern.cols, from_matrix.cols)

    def test_to_pattern_round_trip(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        pattern = coo.to_pattern()
        again = CooBlockList.from_pattern(pattern)
        assert np.array_equal(coo.rows, again.rows)
        assert np.array_equal(coo.cols, again.cols)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CooBlockList([0, 7], [0, 0], n_block_rows=4, n_block_cols=4)
