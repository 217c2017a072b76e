"""Block matrices are one value buffer plus a block index.

A :class:`~repro.dbcsr.BlockSparseMatrix` holds its blocks as one row-major
value buffer with block rows, block columns and offsets
(:class:`~repro.dbcsr.block_matrix.BlockIndex`), whether a bulk constructor
(``block_matrix_from_dense``/``_from_csr``, ``plan.finalize``, the screened
K̃) built it or a mapping of blocks was packed.  Every bulk reader —
``plan.pack``, the CSR and dense conversions, the COO list, the panel
analyses — must give it exactly the bits of its per-block reference,
whatever order the blocks are stored in.
"""

from __future__ import annotations

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
from repro.dbcsr.product import column_runs, stored_fill

from submatrix_reference import (
    assert_same_blocks,
    blocks_of,
    coo_order,
    get_block,
    reference_block_matrix_from_dense,
    reference_block_matrix_to_csr,
    reference_coo_block_list,
)

#: values that a layout must carry bit for bit
SPECIAL = [0.0, -0.0, np.nan, 1.0, -2.5, 1e-300, np.inf]


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


@st.composite
def block_cases(draw):
    """``(row sizes, col sizes or None, stored keys in a drawn order, values)``.

    Ragged block sizes (runs of 1, 2 or 3), a random pattern — possibly
    empty — and block values drawn from normals and :data:`SPECIAL`.
    """
    unit = draw(st.sampled_from([1, 2, 3]))

    def sizes():
        count = draw(st.integers(1, 5))
        multiples = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
        return [unit * m for m in multiples]

    row_sizes = sizes()
    col_sizes = None if draw(st.booleans()) else sizes()
    columns = row_sizes if col_sizes is None else col_sizes
    keys = [(bi, bj) for bi in range(len(row_sizes)) for bj in range(len(columns))]
    stored = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    blocks = {}
    for bi, bj in stored:
        block = rng.normal(size=(row_sizes[bi], columns[bj]))
        specials = rng.random(block.shape) < draw(st.sampled_from([0.0, 0.3]))
        block[specials] = rng.choice(SPECIAL, size=int(specials.sum()))
        blocks[bi, bj] = block
    return row_sizes, col_sizes, blocks


def buffer_built(row_sizes, col_sizes, blocks):
    keys = list(blocks)
    values = np.concatenate([blocks[key].reshape(-1) for key in keys] + [np.zeros(0)])
    rows = np.array([bi for bi, _ in keys], dtype=int)
    cols = np.array([bj for _, bj in keys], dtype=int)
    return BlockSparseMatrix.from_index(row_sizes, col_sizes, rows, cols, values)


def assert_same_csr(ours, theirs):
    assert ours.shape == theirs.shape
    for name in ("data", "indices", "indptr"):
        mine, reference = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == reference.dtype, name
        assert _bits(mine) == _bits(reference), name


def assert_readers_agree(matrix, blocks):
    """Every bulk reader gives ``matrix`` the bits its per-block reference
    gives the stored ``blocks``, and the bits it gives the same blocks
    stored in COO order."""
    reordered = BlockSparseMatrix(
        matrix.row_block_sizes, matrix.col_block_sizes, coo_order(blocks)
    )
    assert matrix.nnz_blocks == len(blocks)
    assert matrix.nnz_elements == sum(block.size for block in blocks.values())
    assert stored_fill(matrix) == stored_fill(reordered)
    dense = np.zeros(matrix.shape)
    rows, cols = matrix.row_starts, matrix.col_starts
    for (bi, bj), block in blocks.items():
        dense[rows[bi] : rows[bi + 1], cols[bj] : cols[bj + 1]] = block
    assert _bits(block_matrix_to_dense(matrix)) == _bits(dense)
    assert_same_csr(block_matrix_to_csr(matrix), reference_block_matrix_to_csr(matrix))
    assert_same_csr(block_matrix_to_csr(matrix), block_matrix_to_csr(reordered))
    coo, want = CooBlockList.from_block_matrix(matrix), reference_coo_block_list(matrix)
    assert coo.fingerprint() == want.fingerprint()
    for (start, stop, begins, ends), expected in zip(
        column_runs(matrix), column_runs(reordered)
    ):
        assert (start, stop) == expected[:2]
        assert np.array_equal(begins, expected[2]) and np.array_equal(ends, expected[3])
    if np.array_equal(matrix.row_block_sizes, matrix.col_block_sizes) and len(want):
        plan = BlockSubmatrixPlan(
            want, matrix.row_block_sizes, [[c] for c in range(matrix.n_block_cols)]
        )
        packed = [block.reshape(-1) for block in coo_order(blocks).values()]
        assert _bits(plan.pack(matrix)) == _bits(np.concatenate(packed))


@pytest.mark.slow
@given(block_cases())
@settings(max_examples=150, deadline=None)
def test_packed_blocks_read_like_their_per_block_reference(case):
    """A mapping of blocks is packed once, in its order, exactly as the bulk
    constructors lay out a buffer; its blocks read back as views of it."""
    row_sizes, col_sizes, blocks = case
    matrix = BlockSparseMatrix(row_sizes, col_sizes, blocks)
    assert_same_blocks(matrix, buffer_built(*case))
    values = matrix.block_index().values
    stored = blocks_of(matrix)
    assert list(stored) == list(blocks)
    for key, block in blocks.items():
        assert np.shares_memory(stored[key], values)
        assert _bits(stored[key]) == _bits(block)
    assert_readers_agree(matrix, blocks)


@pytest.mark.slow
@given(block_cases(), st.sampled_from([0.0, 0.5]))
@settings(max_examples=150, deadline=None)
def test_dense_and_csr_converters_give_the_per_block_bits(case, threshold):
    """``block_matrix_from_dense`` against its per-block loop, and the CSR
    route of the same dense matrix: same blocks, same order, same bits
    (−0.0 stored as +0.0, a NaN counted as non-zero)."""
    row_sizes, col_sizes, blocks = case
    dense = block_matrix_to_dense(BlockSparseMatrix(*case))
    ours = block_matrix_from_dense(dense, row_sizes, col_sizes, threshold)
    reference = reference_block_matrix_from_dense(dense, row_sizes, col_sizes, threshold)
    assert_same_blocks(ours, reference)
    assert_readers_agree(ours, blocks_of(reference))
    if not np.isnan(dense).any():
        via_csr = block_matrix_from_csr(
            sp.csr_matrix(dense), row_sizes, col_sizes, threshold
        )
        assert_same_blocks(via_csr, ours)


def test_empty_matrices():
    for rows, cols in (([2, 3], None), ([1], [4, 2])):
        empty = BlockSparseMatrix.from_index(rows, cols, [], [], np.zeros(0))
        assert_same_blocks(empty, BlockSparseMatrix(rows, cols))
        assert_readers_agree(empty, {})
        assert blocks_of(empty) == {}
        cut = block_matrix_from_dense(np.zeros(empty.shape), rows, cols)
        assert cut.nnz_blocks == 0
        assert_readers_agree(cut, {})
        assert block_matrix_to_csr(cut).nnz == 0


def _water_like(seed=0):
    """Four blocks of 2 and 4, every block stored, from a dense matrix."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(12, 12))
    return block_matrix_from_dense(dense, [2, 4, 2, 4])


def _pattern_plan(matrix):
    coo = CooBlockList.from_block_matrix(matrix)
    return BlockSubmatrixPlan(coo, matrix.row_block_sizes, [[c] for c in range(4)])


def test_in_place_write_into_a_block_view_is_seen():
    matrix = _water_like(3)
    get_block(matrix, 1, 1)[...] = 9.0  # a view into the value buffer
    assert matrix.block_index().values.tolist().count(9.0) == 16
    assert block_matrix_to_dense(matrix)[2:6, 2:6].tolist() == [[9.0] * 4] * 4


def test_stray_block_message_is_unchanged():
    """A stored block outside the plan's pattern: the first one in (row,
    column) order is named, with the count, in the words the per-block pack
    used."""
    blocks = blocks_of(_water_like())
    for key in ((0, 3), (3, 0), (2, 1)):
        del blocks[key]
    plan = _pattern_plan(BlockSparseMatrix([2, 4, 2, 4], blocks=blocks))
    blocks[3, 0] = np.ones((4, 2))
    blocks[2, 1] = np.ones((2, 4))
    matrix = BlockSparseMatrix([2, 4, 2, 4], blocks=blocks)
    message = (
        "matrix pattern does not match the plan: stored block (2, 1) is not in "
        "the planned pattern (2 of 15 stored blocks are outside it) — the plan "
        "was built for a different sparsity pattern"
    )
    with pytest.raises(ValueError) as raised:
        plan.pack(matrix)
    assert str(raised.value) == message
    buffered = block_matrix_from_dense(block_matrix_to_dense(matrix), [2, 4, 2, 4])
    with pytest.raises(ValueError) as raised:
        plan.pack(buffered)
    assert str(raised.value) == message
