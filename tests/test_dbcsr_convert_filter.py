"""Tests for block-matrix conversions and the COO block list."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.plan import BlockSubmatrixPlan
from repro.dbcsr import (
    BlockSparseMatrix,
    CooBlockList,
    block_matrix_from_csr,
    block_matrix_from_dense,
    block_matrix_to_csr,
    block_matrix_to_dense,
)
from submatrix_reference import (
    assert_same_blocks,
    blocks_of,
    get_block,
    reference_block_matrix_from_csr,
    reference_block_matrix_to_csr,
    reference_coo_block_list,
)


@pytest.fixture()
def banded_dense(rng):
    """A 12x12 banded matrix cut into 4 blocks of size 3."""
    dense = np.zeros((12, 12))
    for i in range(12):
        for j in range(12):
            if abs(i - j) <= 4:
                dense[i, j] = rng.normal()
    return dense


class TestRoundTrips:
    def test_dense_round_trip(self, banded_dense):
        blocked = block_matrix_from_dense(banded_dense, [3, 3, 3, 3])
        assert np.allclose(block_matrix_to_dense(blocked), banded_dense)

    def test_csr_round_trip(self, banded_dense):
        csr = sp.csr_matrix(banded_dense)
        blocked = block_matrix_from_csr(csr, [3, 3, 3, 3])
        back = block_matrix_to_csr(blocked)
        assert np.allclose(back.toarray(), banded_dense)

    def test_blocked_structure_of_banded_matrix(self, banded_dense):
        blocked = block_matrix_from_dense(banded_dense, [3, 3, 3, 3])
        # corner blocks (0,3) and (3,0) are outside the bandwidth
        stored = blocks_of(blocked)
        assert (0, 3) not in stored and (3, 0) not in stored
        assert (0, 1) in stored

    def test_shape_mismatch_rejected(self, banded_dense):
        with pytest.raises(ValueError):
            block_matrix_from_dense(banded_dense, [3, 3, 3])
        with pytest.raises(ValueError):
            block_matrix_from_csr(sp.csr_matrix(banded_dense), [3, 3])

    def test_rectangular_blocks(self, rng):
        dense = rng.random((5, 7))
        blocked = block_matrix_from_dense(dense, [2, 3], [4, 3])
        assert np.allclose(block_matrix_to_dense(blocked), dense)

    def test_empty_matrix(self):
        empty = sp.csr_matrix((6, 6))
        blocked = block_matrix_from_csr(empty, [3, 3])
        assert blocked.nnz_blocks == 0
        assert block_matrix_to_csr(blocked).nnz == 0

    def test_threshold_drops_small_blocks(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = 1.0
        dense[2, 2] = 1e-8
        blocked = block_matrix_from_dense(dense, [2, 2], threshold=1e-6)
        assert list(blocks_of(blocked)) == [(0, 0)]


# --------------------------------------------------------------------------- #
# vectorised block I/O == the per-block loops, bitwise
# --------------------------------------------------------------------------- #
block_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=6)
#: below, at and above the thresholds drawn; explicit and negative zeros; a
#: triple whose sum depends on the order it is taken in
entry_values = st.sampled_from(
    [0.0, -0.0, 1e-3, -0.4, 0.5, 0.75, -1.0, 1.5, 1e16, 1.0, -1e16]
) | st.floats(-3.0, 3.0, allow_nan=False, width=64)


@st.composite
def stored_entries(draw):
    """Block sizes, a sparse matrix holding unsorted stored entries with
    duplicates and explicit zeros in a drawn format, and a threshold."""
    row_sizes = draw(block_sizes)
    col_sizes = draw(st.none() | block_sizes)
    shape = (sum(row_sizes), sum(col_sizes if col_sizes is not None else row_sizes))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1), entry_values
            ),
            max_size=40,
        )
    )
    rows = np.array([entry[0] for entry in entries], dtype=np.int32)
    cols = np.array([entry[1] for entry in entries], dtype=np.int32)
    data = np.array([entry[2] for entry in entries], dtype=np.float64)
    storage = draw(st.sampled_from(["coo", "csr", "csc", "canonical"]))
    if storage == "coo":
        matrix = sp.coo_matrix((data, (rows, cols)), shape=shape)
    elif storage == "canonical":
        matrix = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    else:
        # raw compressed storage: duplicates and column order as drawn
        major, minor = (rows, cols) if storage == "csr" else (cols, rows)
        n_major = shape[0] if storage == "csr" else shape[1]
        order = np.argsort(major, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(major, minlength=n_major))))
        container = sp.csr_matrix if storage == "csr" else sp.csc_matrix
        matrix = container((data[order], minor[order], indptr), shape=shape)
    threshold = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return row_sizes, col_sizes, matrix, threshold


def assert_bitwise_csr(ours: sp.csr_matrix, reference: sp.csr_matrix):
    assert ours.shape == reference.shape
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(ours, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def unique_isin_block_matrix_from_csr(matrix, row_sizes, col_sizes, threshold):
    """``block_matrix_from_csr`` as it found blocks before: the occupied
    block ids by ``np.unique``, an entry's membership by ``np.isin``."""
    result = BlockSparseMatrix(row_sizes, col_sizes)
    n_block_cols = result.n_block_cols
    block_of_row = np.repeat(np.arange(result.n_block_rows), result.row_block_sizes)
    block_of_col = np.repeat(np.arange(n_block_cols), result.col_block_sizes)

    def block_ids(entries):
        return block_of_row[entries.row] * n_block_cols + block_of_col[entries.col]

    stored = matrix.tocoo()
    stored_ids = block_ids(stored)
    if threshold > 0.0:
        stored_ids = stored_ids[np.abs(stored.data) > threshold]
    occupied = np.unique(stored_ids)
    if occupied.size == 0:
        return result
    entries = matrix.tocsr().tocoo()
    ids = block_ids(entries)
    kept = np.isin(ids, occupied)
    slot = np.searchsorted(occupied, ids[kept])
    block_row, block_col = np.divmod(occupied, n_block_cols)
    heights = result.row_block_sizes[block_row]
    widths = result.col_block_sizes[block_col]
    offsets = np.concatenate(([0], np.cumsum(heights * widths)))
    positions = (
        offsets[slot]
        + (entries.row[kept] - result.row_starts[block_row][slot]) * widths[slot]
        + (entries.col[kept] - result.col_starts[block_col][slot])
    )
    buffer = np.bincount(positions, weights=entries.data[kept], minlength=offsets[-1])
    return BlockSparseMatrix.from_index(
        result.row_block_sizes, result.col_block_sizes, block_row, block_col,
        buffer, offsets,
    )


class TestVectorisedBlockIO:
    @pytest.mark.slow
    @given(stored_entries())
    @settings(max_examples=300, deadline=None)
    def test_from_csr_and_to_csr_match_the_per_block_loops(self, case):
        row_sizes, col_sizes, matrix, threshold = case
        ours = block_matrix_from_csr(matrix, row_sizes, col_sizes, threshold)
        reference = reference_block_matrix_from_csr(
            matrix, row_sizes, col_sizes, threshold
        )
        assert_same_blocks(ours, reference)

        coo = CooBlockList.from_block_matrix(ours)
        reference_coo = reference_coo_block_list(reference)
        assert coo.rows.tobytes() == reference_coo.rows.tobytes()
        assert coo.cols.tobytes() == reference_coo.cols.tobytes()
        assert coo.fingerprint() == reference_coo.fingerprint()

        back = block_matrix_to_csr(ours)
        assert_bitwise_csr(back, reference_block_matrix_to_csr(reference))
        # round trip: A itself on the kept blocks, nothing elsewhere
        kept = np.zeros(matrix.shape, dtype=bool)
        for bi, bj in blocks_of(ours):
            kept[
                ours.row_starts[bi] : ours.row_starts[bi + 1],
                ours.col_starts[bj] : ours.col_starts[bj + 1],
            ] = True
        assert np.array_equal(back.toarray(), np.where(kept, matrix.toarray(), 0.0))

        if col_sizes is None:  # the submatrix plans are for square structures
            groups = [[column] for column in range(len(row_sizes))]
            plan = BlockSubmatrixPlan(coo, row_sizes, groups)
            assert plan.pack(ours).tobytes() == plan.pack(reference).tobytes()

    @given(stored_entries())
    @settings(max_examples=60, deadline=None)
    @example(([2, 3], None, sp.csr_matrix((5, 5)), 0.0))
    @example(([2, 3], [1, 4], sp.csr_matrix((5, 5)), 0.5))
    @example(([2, 2, 2], None, sp.random(6, 6, density=0.4, random_state=7, format="csr"), 0.5))
    def test_from_csr_matches_the_unique_isin_construction(self, case):
        """Occupied blocks by a sort and a neighbour mask, membership by
        ``searchsorted``: the index, offsets and value bits of the
        ``np.unique``/``np.isin`` construction they replaced."""
        row_sizes, col_sizes, matrix, threshold = case
        assert_same_blocks(
            block_matrix_from_csr(matrix, row_sizes, col_sizes, threshold),
            unique_isin_block_matrix_from_csr(matrix, row_sizes, col_sizes, threshold),
        )

    def test_duplicates_sum_in_storage_order(self):
        # (1e16 + 1) - 1e16 == 0 but 1e16 - 1e16 + 1 == 1
        raw = sp.csr_matrix(
            (np.array([1e16, 1.0, -1e16]), np.array([0, 0, 0]), np.array([0, 3, 3])),
            shape=(2, 2),
        )
        ours = block_matrix_from_csr(raw, [2])
        assert_same_blocks(ours, reference_block_matrix_from_csr(raw, [2]))
        assert get_block(ours, 0, 0)[0, 0] == 0.0

    def test_created_blocks_fill_one_buffer_in_row_major_block_order(self):
        dense = np.arange(36.0).reshape(6, 6)
        blocked = block_matrix_from_csr(sp.csr_matrix(dense), [1, 2, 3], [3, 3])
        rows, cols, offsets, values = blocked.block_index()
        keys = list(zip(rows.tolist(), cols.tolist()))
        assert keys == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        regions = [
            dense[blocked.row_starts[bi] : blocked.row_starts[bi + 1], 3 * bj : 3 * bj + 3]
            for bi, bj in keys
        ]
        assert values.tobytes() == np.concatenate([r.ravel() for r in regions]).tobytes()
        assert np.array_equal(block_matrix_to_dense(blocked), dense)

    def test_to_csr_is_canonical_whatever_the_storage_order(self, rng):
        sizes = [2, 1, 3]
        keys = [(2, 0), (0, 2), (1, 1), (0, 0), (2, 2)]
        blocks = {(bi, bj): rng.random((sizes[bi], sizes[bj])) for bi, bj in keys}
        matrix = BlockSparseMatrix(sizes, blocks=blocks)
        csr = block_matrix_to_csr(matrix)
        assert csr.has_canonical_format
        assert csr.nnz == matrix.nnz_elements
        assert np.array_equal(csr.toarray(), block_matrix_to_dense(matrix))

    def test_stored_zero_blocks_stay_stored(self):
        matrix = BlockSparseMatrix([2, 1], blocks={(1, 0): np.zeros((1, 2))})
        csr = block_matrix_to_csr(matrix)
        assert csr.nnz == 2 and not csr.data.any()
        assert csr.indices.tolist() == [0, 1]
        assert csr.indptr.tolist() == [0, 0, 0, 2]
