"""Tests for block-matrix conversions and the COO block list."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
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
        assert not blocked.has_block(0, 3)
        assert not blocked.has_block(3, 0)
        assert blocked.has_block(0, 1)

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
        assert blocked.has_block(0, 0)
        assert not blocked.has_block(1, 1)


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


def assert_bitwise_blocks(ours: BlockSparseMatrix, reference: BlockSparseMatrix):
    # same blocks, same dictionary order (matmul/add accumulate in it)
    assert list(ours.raw_blocks()) == list(reference.raw_blocks())
    assert ours.block_keys() == reference.block_keys()
    for key, block in reference.raw_blocks().items():
        mine = ours.raw_blocks()[key]
        assert mine.dtype == block.dtype and mine.shape == block.shape
        assert mine.tobytes() == block.tobytes(), key


def assert_bitwise_csr(ours: sp.csr_matrix, reference: sp.csr_matrix):
    assert ours.shape == reference.shape
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(ours, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


class TestVectorisedBlockIO:
    @given(stored_entries())
    @settings(max_examples=300, deadline=None)
    def test_from_csr_and_to_csr_match_the_per_block_loops(self, case):
        row_sizes, col_sizes, matrix, threshold = case
        ours = block_matrix_from_csr(matrix, row_sizes, col_sizes, threshold)
        reference = reference_block_matrix_from_csr(
            matrix, row_sizes, col_sizes, threshold
        )
        assert_bitwise_blocks(ours, reference)

        coo = CooBlockList.from_block_matrix(ours)
        reference_coo = reference_coo_block_list(reference)
        assert coo.rows.tobytes() == reference_coo.rows.tobytes()
        assert coo.cols.tobytes() == reference_coo.cols.tobytes()
        assert coo.fingerprint() == reference_coo.fingerprint()
        for block_id, (bi, bj) in enumerate(zip(coo.rows, coo.cols)):
            assert coo.block_id(bi, bj) == reference_coo.block_id(bi, bj) == block_id
        assert not coo.contains(len(row_sizes), 0)

        back = block_matrix_to_csr(ours)
        assert_bitwise_csr(back, reference_block_matrix_to_csr(reference))
        # round trip: A itself on the kept blocks, nothing elsewhere
        kept = np.zeros(matrix.shape, dtype=bool)
        for bi, bj in ours.block_keys():
            kept[
                ours.row_starts[bi] : ours.row_starts[bi + 1],
                ours.col_starts[bj] : ours.col_starts[bj + 1],
            ] = True
        assert np.array_equal(back.toarray(), np.where(kept, matrix.toarray(), 0.0))

        if col_sizes is None:  # the submatrix plans are for square structures
            groups = [[column] for column in range(len(row_sizes))]
            plan = BlockSubmatrixPlan(coo, row_sizes, groups)
            assert plan.pack(ours).tobytes() == plan.pack(reference).tobytes()

    def test_duplicates_sum_in_storage_order(self):
        # (1e16 + 1) - 1e16 == 0 but 1e16 - 1e16 + 1 == 1
        raw = sp.csr_matrix(
            (np.array([1e16, 1.0, -1e16]), np.array([0, 0, 0]), np.array([0, 3, 3])),
            shape=(2, 2),
        )
        ours = block_matrix_from_csr(raw, [2])
        assert_bitwise_blocks(ours, reference_block_matrix_from_csr(raw, [2]))
        assert ours.get_block(0, 0)[0, 0] == 0.0

    def test_created_blocks_share_one_buffer(self):
        dense = np.arange(36.0).reshape(6, 6)
        blocked = block_matrix_from_csr(sp.csr_matrix(dense), [1, 2, 3], [3, 3])
        blocks = list(blocked.raw_blocks().values())
        assert len({id(block.base) for block in blocks}) == 1
        assert np.array_equal(block_matrix_to_dense(blocked), dense)

    def test_ids_are_built_on_first_query(self):
        coo = CooBlockList([1, 0, 1], [0, 0, 1], 2, 2)
        assert coo._id_of is None
        assert coo.contains(1, 1) and not coo.contains(0, 1)
        assert coo.block_id(1, 0) == 1
        with pytest.raises(KeyError):
            coo.block_id(0, 1)
