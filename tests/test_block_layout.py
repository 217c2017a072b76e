"""Buffer-backed block matrices: one value buffer plus a block index.

A :class:`~repro.dbcsr.BlockSparseMatrix` from a bulk constructor
(``block_matrix_from_dense``/``_from_csr``, ``plan.finalize``, the screened
K̃) holds its blocks as one row-major value buffer with block rows, block
columns and offsets (:class:`~repro.dbcsr.block_matrix.BlockIndex`), and
builds its block dictionary only when a caller asks for blocks.  Every bulk
reader — ``plan.pack``, the CSR and dense conversions, the COO list, the
panel analyses — must give a buffer-backed matrix exactly the bits of the
same matrix built block by block, and must see every later edit.
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


def dict_built(row_sizes, col_sizes, blocks):
    matrix = BlockSparseMatrix(row_sizes, col_sizes)
    for (bi, bj), block in blocks.items():
        matrix.put_block(bi, bj, block)
    return matrix


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


def assert_readers_agree(matrix, reference):
    """Every bulk reader gives ``matrix`` the bits of the dict-built
    ``reference`` with the same blocks."""
    assert matrix.nnz_blocks == reference.nnz_blocks
    assert matrix.nnz_elements == reference.nnz_elements
    assert stored_fill(matrix) == stored_fill(reference)
    assert _bits(block_matrix_to_dense(matrix)) == _bits(block_matrix_to_dense(reference))
    assert_same_csr(block_matrix_to_csr(matrix), reference_block_matrix_to_csr(reference))
    coo, want = CooBlockList.from_block_matrix(matrix), reference_coo_block_list(reference)
    assert coo.fingerprint() == want.fingerprint()
    for (start, stop, begins, ends), expected in zip(
        column_runs(matrix), column_runs(reference)
    ):
        assert (start, stop) == expected[:2]
        assert np.array_equal(begins, expected[2]) and np.array_equal(ends, expected[3])
    if np.array_equal(matrix.row_block_sizes, matrix.col_block_sizes) and len(want):
        plan = BlockSubmatrixPlan(
            want, matrix.row_block_sizes, [[c] for c in range(matrix.n_block_cols)]
        )
        assert _bits(plan.pack(matrix)) == _bits(plan.pack(reference))


@pytest.mark.slow
@given(block_cases())
@settings(max_examples=150, deadline=None)
def test_buffer_backed_matrix_reads_like_the_dict_built_one(case):
    row_sizes, col_sizes, blocks = case
    reference = dict_built(*case)
    matrix = buffer_built(*case)
    assert_readers_agree(matrix, reference)
    assert_readers_agree(matrix.copy(), reference)
    # reading blocks builds the dictionary — views into the buffer, which
    # stays the index — and handing it out keeps its storage order
    values = matrix.block_index().values
    for bi, bj, block in matrix.iter_blocks():
        assert np.shares_memory(block, values)
    assert matrix.block_index().values is values
    assert list(matrix.raw_blocks()) == list(blocks)
    for key, block in blocks.items():
        assert _bits(matrix.get_block(*key)) == _bits(block)
    assert_readers_agree(matrix, reference)


@pytest.mark.slow
@given(block_cases(), st.sampled_from([0.0, 0.5]))
@settings(max_examples=150, deadline=None)
def test_dense_and_csr_converters_give_the_dict_built_bits(case, threshold):
    """``block_matrix_from_dense`` against its per-block loop, and the CSR
    route of the same dense matrix: same blocks, same order, same bits
    (−0.0 stored as +0.0, a NaN counted as non-zero)."""
    row_sizes, col_sizes, blocks = case
    dense = block_matrix_to_dense(dict_built(*case))
    ours = block_matrix_from_dense(dense, row_sizes, col_sizes, threshold)
    reference = reference_block_matrix_from_dense(dense, row_sizes, col_sizes, threshold)
    assert list(ours.raw_blocks()) == list(reference.raw_blocks())
    for key, block in reference.raw_blocks().items():
        assert _bits(ours.raw_blocks()[key]) == _bits(block), key
    assert_readers_agree(ours, reference)
    if not np.isnan(dense).any():
        via_csr = block_matrix_from_csr(
            sp.csr_matrix(dense), row_sizes, col_sizes, threshold
        )
        assert list(via_csr.raw_blocks()) == list(ours.raw_blocks())
        assert_readers_agree(via_csr, reference)


def test_empty_matrices():
    for rows, cols in (([2, 3], None), ([1], [4, 2])):
        empty = BlockSparseMatrix.from_index(rows, cols, [], [], np.zeros(0))
        reference = BlockSparseMatrix(rows, cols)
        assert_readers_agree(empty, reference)
        assert empty.raw_blocks() == {}
        cut = block_matrix_from_dense(np.zeros(reference.shape), rows, cols)
        assert cut.nnz_blocks == 0
        assert_readers_agree(cut, reference)
        assert block_matrix_to_csr(cut).nnz == 0


def _water_like(seed=0):
    """Four blocks of 2 and 4, every block stored, from a dense matrix."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(12, 12))
    return block_matrix_from_dense(dense, [2, 4, 2, 4])


def _pattern_plan(matrix):
    coo = CooBlockList.from_block_matrix(matrix)
    return BlockSubmatrixPlan(coo, matrix.row_block_sizes, [[c] for c in range(4)])


class TestEditsAreSeen:
    """A mutation drops the index: pack, CSR and COO read the edit."""

    def test_put_block(self):
        matrix = _water_like()
        plan = _pattern_plan(matrix)
        matrix.put_block(1, 2, np.full((4, 2), 7.0))
        reference = dict_built([2, 4, 2, 4], None, dict(matrix.raw_blocks()))
        assert_readers_agree(matrix, reference)
        assert plan.pack(matrix).tolist().count(7.0) == 8

    def test_remove_block(self):
        matrix = _water_like(1)
        plan = _pattern_plan(matrix)
        matrix.remove_block(0, 3)
        assert not CooBlockList.from_block_matrix(matrix).contains(0, 3)
        assert block_matrix_to_csr(matrix).nnz == 144 - 8
        # the removed block packs as zeros of the (unchanged) pattern
        start = plan.value_offsets[plan.coo_keys.tolist().index(3 * 4 + 0)]
        assert not plan.pack(matrix)[start : start + 8].any()

    def test_edits_through_raw_blocks(self):
        matrix = _water_like(2)
        plan = _pattern_plan(matrix)
        blocks = matrix.raw_blocks()
        blocks[2, 2] = np.full((2, 2), -3.0)  # replaced
        blocks[0, 0][...] = 5.0  # written in place
        del blocks[3, 1]  # deleted
        reference = dict_built([2, 4, 2, 4], None, dict(blocks))
        assert_readers_agree(matrix, reference)
        packed = plan.pack(matrix)
        assert packed.tolist().count(-3.0) == 4 and packed.tolist().count(5.0) == 4

    def test_in_place_write_into_a_buffer_backed_block(self):
        matrix = _water_like(3)
        matrix.get_block(1, 1)[...] = 9.0  # a view into the value buffer
        assert matrix.block_index().values.tolist().count(9.0) == 16
        assert block_matrix_to_dense(matrix)[2:6, 2:6].tolist() == [[9.0] * 4] * 4


def test_stray_block_message_is_unchanged():
    """A stored block outside the plan's pattern: the first one in (row,
    column) order is named, with the count, in the words the per-block pack
    used."""
    matrix = _water_like()
    matrix.remove_block(0, 3)
    matrix.remove_block(3, 0)
    matrix.remove_block(2, 1)
    plan = _pattern_plan(matrix)
    matrix.put_block(3, 0, np.ones((4, 2)))
    matrix.put_block(2, 1, np.ones((2, 4)))
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
