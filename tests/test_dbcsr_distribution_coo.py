"""Tests for the 2D block distribution, the global COO block list and the
index-range helpers built beside it."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dbcsr import BlockDistribution, BlockSparseMatrix, CooBlockList, ProcessGrid2D
from repro.dbcsr.coo import block_run, concat_ranges


@pytest.fixture()
def pattern_matrix(rng):
    """A 6x6-block banded matrix with 2x2 blocks."""
    blocks = {
        (i, j): rng.random((2, 2))
        for i in range(6)
        for j in range(6)
        if abs(i - j) <= 1
    }
    return BlockSparseMatrix([2] * 6, blocks=blocks)


class TestBlockDistribution:
    def test_round_robin_default(self):
        grid = ProcessGrid2D(4, (2, 2))
        distribution = BlockDistribution(6, 6, grid)
        owners = distribution.owners_of_blocks([0, 0, 1, 1, 2], [0, 1, 0, 1, 2])
        assert owners.tolist() == [0, 1, 2, 3, 0]  # (2, 2) wraps around

    def test_owners_are_round_robin_in_row_major_grid_order(self):
        grid = ProcessGrid2D(6, (3, 2))
        distribution = BlockDistribution(5, 7, grid)
        rows, cols = np.divmod(np.arange(5 * 7), 7)
        owners = distribution.owners_of_blocks(rows, cols)
        assert owners.tolist() == ((rows % 3) * 2 + cols % 2).tolist()

    def test_explicit_distribution(self):
        grid = ProcessGrid2D(4, (2, 2))
        distribution = BlockDistribution(
            4, 4, grid, row_distribution=[0, 0, 1, 1], col_distribution=[0, 1, 0, 1]
        )
        assert distribution.owners_of_blocks([0, 3], [0, 2]).tolist() == [0, 2]

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

    def test_entries_in_columns_are_id_ranges(self, pattern_matrix):
        """A block's ID is its position; a column's entries are one range."""
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        ids, rows, cols = coo.entries_in_columns([2, 0])
        assert ids.tolist() == [5, 6, 7, 0, 1]
        assert rows.tolist() == [1, 2, 3, 0, 1]
        assert cols.tolist() == [2, 2, 2, 0, 0]
        starts, stops = coo.column_ranges([0, 2])
        assert starts.tolist() == [0, 5] and stops.tolist() == [2, 8]

    def test_blocks_in_columns_union(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        assert coo.blocks_in_columns([0, 2]) == [0, 1, 2, 3]

    def test_from_pattern_matches_from_matrix(self, pattern_matrix):
        index = pattern_matrix.block_index()
        pattern = sp.csr_matrix(
            (np.ones(index.rows.size), (index.rows, index.cols)), shape=(6, 6)
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

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="block column index out of range"):
            CooBlockList([0, 1], [0, -1], n_block_rows=4, n_block_cols=4)

    def test_repeated_coordinate_rejected(self):
        """A block ID is a position in the list: a coordinate given twice
        would be planned as two blocks, so it is refused, named."""
        with pytest.raises(ValueError, match=r"block \(0, 0\) is given more than once"):
            CooBlockList([1, 0, 2, 0], [1, 0, 2, 0], n_block_rows=3, n_block_cols=3)

    def test_from_pattern_counts_a_repeated_coordinate_once(self):
        pattern = sp.coo_matrix(
            (np.ones(3, dtype=bool), ([0, 0, 1], [0, 0, 1])), shape=(2, 2)
        )
        coo = CooBlockList.from_pattern(pattern)
        assert (coo.rows.tolist(), coo.cols.tolist()) == ([0, 1], [0, 1])
        assert pattern.nnz == 3  # the caller's pattern is left as it was

    def test_rows_and_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            CooBlockList([0, 1], [0], n_block_rows=2, n_block_cols=2)

    def test_empty_list(self):
        coo = CooBlockList([], [], n_block_rows=3, n_block_cols=3)
        assert len(coo) == 0
        assert coo.blocks_in_columns([0, 2]) == []
        ids, rows, cols = coo.entries_in_columns([1])
        assert ids.size == rows.size == cols.size == 0
        assert coo.to_pattern().shape == (3, 3) and coo.to_pattern().nnz == 0

    def test_an_empty_column_is_an_empty_range(self):
        coo = CooBlockList([0, 2, 1], [0, 2, 0], n_block_rows=3, n_block_cols=3)
        starts, stops = coo.column_ranges([0, 1, 2])
        assert starts.tolist() == [0, 2, 2]
        assert stops.tolist() == [2, 2, 3]
        assert coo.entries_in_columns([1])[0].size == 0

    def test_fingerprint_is_the_pattern(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        shuffled = np.random.default_rng(3).permutation(len(coo))
        same = CooBlockList(coo.rows[shuffled], coo.cols[shuffled], 6, 6)
        assert same.fingerprint() == coo.fingerprint()
        fewer = CooBlockList(coo.rows[1:], coo.cols[1:], 6, 6)
        assert fewer.fingerprint() != coo.fingerprint()

    def test_fingerprint_includes_the_grid(self, pattern_matrix):
        coo = CooBlockList.from_block_matrix(pattern_matrix)
        wider = CooBlockList(coo.rows, coo.cols, 6, 7)
        assert wider.fingerprint() != coo.fingerprint()


class TestIndexRanges:
    """``concat_ranges`` and ``block_run``, the index arithmetic the plan
    layer and the converters build on."""

    def test_concat_ranges_is_the_concatenated_aranges(self):
        starts, counts = [3, 0, 10, 7], [2, 0, 3, 1]
        want = np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])
        got = concat_ranges(starts, np.array(counts))
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_concat_ranges_with_one_shared_start(self):
        assert concat_ranges(5, [1, 2, 0, 3]).tolist() == [5, 5, 6, 5, 6, 7]

    def test_concat_ranges_of_no_ranges(self):
        got = concat_ranges([], [])
        assert got.dtype == np.int64 and got.size == 0

    def test_block_run_is_the_gcd_of_the_sizes(self):
        assert block_run([6, 4, 2]) == 2
        assert block_run([23, 23]) == 23
        assert block_run([6, 9]) == 3
        assert block_run([5, 7]) == 1

    def test_block_run_of_no_blocks_is_one(self):
        assert block_run([]) == 1
