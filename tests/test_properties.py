"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import parallel_efficiency
from repro.chem.density import fermi_occupation
from repro.core.load_balance import assign_consecutive_chunks
from repro.work import submatrix_flop_costs
from repro.core.submatrix import submatrix_block_rows
from repro.dbcsr import BlockSparseMatrix, CooBlockList
from repro.dbcsr.convert import (
    block_matrix_from_csr,
    block_matrix_from_dense,
    block_matrix_to_csr,
    block_matrix_to_dense,
)
from repro.parallel.topology import balanced_dims
from repro.signfn import (
    pade_polynomial_coefficients,
    sign_via_eigendecomposition,
    spectral_scale_estimate,
)

from submatrix_reference import assert_same_blocks, blocks_of, coo_order, extract_submatrix

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
block_sizes_strategy = st.lists(st.integers(1, 5), min_size=1, max_size=6)

small_symmetric = arrays(
    np.float64,
    st.integers(2, 12).map(lambda n: (n, n)),
    elements=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
).map(lambda a: (a + a.T) / 2).map(
    # entries ~1e-162 make LAPACK's eigvalsh itself inexact (0.7559 returned
    # for a 0.75 eigenvalue), and it is the oracle of the tests below
    lambda a: np.where(np.abs(a) < 1e-150, 0.0, a)
)


@st.composite
def block_matrix_and_dense(draw):
    """A random block-sparse matrix and its dense equivalent."""
    sizes = draw(block_sizes_strategy)
    n = sum(sizes)
    dense = draw(
        arrays(
            np.float64,
            (n, n),
            elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        )
    )
    # knock out some blocks to create sparsity
    n_blocks = len(sizes)
    keep = draw(
        arrays(np.bool_, (n_blocks, n_blocks), elements=st.booleans())
    )
    starts = np.concatenate(([0], np.cumsum(sizes)))
    for i in range(n_blocks):
        for j in range(n_blocks):
            if not keep[i, j]:
                dense[starts[i] : starts[i + 1], starts[j] : starts[j + 1]] = 0.0
    return sizes, dense


# --------------------------------------------------------------------------- #
# block matrix round trips
# --------------------------------------------------------------------------- #
@given(block_matrix_and_dense())
@settings(max_examples=40, deadline=None)
def test_block_matrix_dense_round_trip(data):
    sizes, dense = data
    blocked = block_matrix_from_dense(dense, sizes)
    assert np.allclose(block_matrix_to_dense(blocked), dense)


@given(block_matrix_and_dense())
@settings(max_examples=30, deadline=None)
def test_coo_block_list_consistent(data):
    sizes, dense = data
    blocked = block_matrix_from_dense(dense, sizes)
    coo = CooBlockList.from_block_matrix(blocked)
    # the stored blocks, sorted by (column, row): a block's ID is its position
    keys = list(coo_order(blocks_of(blocked)))
    assert list(zip(coo.rows.tolist(), coo.cols.tolist())) == keys
    n = len(sizes)
    ids = np.searchsorted(coo.cols * n + coo.rows, [bj * n + bi for bi, bj in keys])
    assert ids.tolist() == list(range(len(keys)))


@given(block_matrix_and_dense(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_block_storage_order_does_not_change_the_matrix(data, random):
    sizes, dense = data
    blocked = block_matrix_from_dense(dense, sizes)
    blocks = list(blocks_of(blocked).items())
    random.shuffle(blocks)
    shuffled = BlockSparseMatrix(sizes, blocks=dict(blocks))
    assert shuffled.nnz_blocks == blocked.nnz_blocks
    want = block_matrix_to_dense(blocked)
    assert block_matrix_to_dense(shuffled).tobytes() == want.tobytes()
    ours, theirs = block_matrix_to_csr(shuffled), block_matrix_to_csr(blocked)
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert ours.data.tobytes() == theirs.data.tobytes()


@given(block_matrix_and_dense())
@settings(max_examples=30, deadline=None)
def test_csr_and_dense_routes_agree(data):
    sizes, dense = data
    from_dense = block_matrix_from_dense(dense, sizes)
    from_csr = block_matrix_from_csr(sp.csr_matrix(dense), sizes)
    assert_same_blocks(from_dense, from_csr)
    assert np.array_equal(block_matrix_to_csr(from_dense).toarray(), dense)


@given(block_matrix_and_dense(), st.data())
@settings(max_examples=30, deadline=None)
def test_an_index_naming_a_block_twice_is_refused(data, data_draw):
    sizes, dense = data
    index = block_matrix_from_dense(dense, sizes).block_index()
    n = len(sizes)
    row = data_draw.draw(st.integers(0, n - 1))
    col = data_draw.draw(st.integers(0, n - 1))
    rows = np.append(index.rows, [row, row])
    cols = np.append(index.cols, [col, col])
    sizes_array = np.asarray(sizes)
    values = np.zeros(int((sizes_array[rows] * sizes_array[cols]).sum()))
    with pytest.raises(ValueError, match="is stored twice"):
        BlockSparseMatrix.from_index(sizes, None, rows, cols, values)


@given(block_sizes_strategy, st.data())
@settings(max_examples=30, deadline=None)
def test_an_index_outside_the_grid_is_refused(sizes, data_draw):
    n = len(sizes)
    outside = data_draw.draw(st.one_of(st.integers(-5, -1), st.integers(n, n + 5)))
    inside = data_draw.draw(st.integers(0, n - 1))
    row, col = data_draw.draw(st.sampled_from([(outside, inside), (inside, outside)]))
    with pytest.raises(ValueError, match=rf"block \({row}, {col}\) is outside"):
        BlockSparseMatrix.from_index(sizes, None, [row], [col], np.zeros(0))


# --------------------------------------------------------------------------- #
# submatrix invariants
# --------------------------------------------------------------------------- #
@given(block_matrix_and_dense(), st.data())
@settings(max_examples=30, deadline=None)
def test_submatrix_block_rows_include_generators(data, data_draw):
    sizes, dense = data
    # make sure the diagonal blocks exist so every column is non-empty
    starts = np.concatenate(([0], np.cumsum(sizes)))
    for i in range(len(sizes)):
        s = slice(starts[i], starts[i + 1])
        if not np.any(dense[s, s]):
            dense[s, s] = np.eye(sizes[i])
    blocked = block_matrix_from_dense(dense, sizes)
    coo = CooBlockList.from_block_matrix(blocked)
    column = data_draw.draw(st.integers(0, len(sizes) - 1))
    rows = submatrix_block_rows(coo, column)
    assert column in rows
    assert np.all(np.diff(rows) > 0)  # sorted, unique


@given(small_symmetric, st.data())
@settings(max_examples=40, deadline=None)
def test_element_submatrix_is_principal_submatrix(matrix, data_draw):
    np.fill_diagonal(matrix, np.where(np.abs(np.diag(matrix)) < 0.5, 1.0, np.diag(matrix)))
    sparse = sp.csr_matrix(matrix)
    column = data_draw.draw(st.integers(0, matrix.shape[0] - 1))
    submatrix = extract_submatrix(sparse, column)
    expected = matrix[np.ix_(submatrix.indices, submatrix.indices)]
    assert np.allclose(submatrix.data, expected)
    assert column in submatrix.indices


# --------------------------------------------------------------------------- #
# sign function invariants
# --------------------------------------------------------------------------- #
@given(small_symmetric)
@settings(max_examples=40, deadline=None)
def test_eigensign_is_involutory_and_symmetric(matrix):
    # shift eigenvalues away from zero to make the sign well-conditioned
    shifted = matrix + np.sign(np.trace(matrix) + 0.1) * 6.0 * np.eye(matrix.shape[0])
    sign = sign_via_eigendecomposition(shifted)
    n = matrix.shape[0]
    assert np.allclose(sign @ sign, np.eye(n), atol=1e-8)
    assert np.allclose(sign, sign.T, atol=1e-10)


@given(small_symmetric)
@settings(max_examples=40, deadline=None)
def test_spectral_scale_bounds_all_eigenvalues(matrix):
    bound = spectral_scale_estimate(matrix)
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert bound + 1e-12 >= np.max(np.abs(eigenvalues))


@given(st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_pade_coefficients_sum_to_one(order):
    """At X = I the iteration must be stationary: the polynomial equals 1."""
    coefficients = pade_polynomial_coefficients(order)
    assert np.isclose(coefficients.sum(), 1.0)


@given(
    arrays(np.float64, st.integers(1, 30), elements=st.floats(-20, 20, allow_nan=False)),
    st.floats(-5, 5, allow_nan=False),
    st.floats(0, 5000),
)
@settings(max_examples=50, deadline=None)
def test_fermi_occupation_bounded_and_monotone(energies, mu, temperature):
    occupations = fermi_occupation(energies, mu, temperature)
    assert np.all(occupations >= 0.0)
    assert np.all(occupations <= 1.0)
    order = np.argsort(energies)
    sorted_occupations = occupations[order]
    assert np.all(np.diff(sorted_occupations) <= 1e-12)


# --------------------------------------------------------------------------- #
# load balancing and topology invariants
# --------------------------------------------------------------------------- #
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=60),
    st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_consecutive_chunks_partition(dimensions, n_ranks):
    costs = submatrix_flop_costs(dimensions)
    chunks = assign_consecutive_chunks(costs, n_ranks)
    assert len(chunks) == n_ranks
    assert chunks[0][0] == 0
    assert chunks[-1][1] == len(dimensions)
    covered = 0
    for start, stop in chunks:
        assert stop >= start
        covered += stop - start
    assert covered == len(dimensions)
    # as long as there are enough items, nobody is idle
    if len(dimensions) >= n_ranks:
        assert all(stop > start for start, stop in chunks)


@given(st.integers(1, 256))
@settings(max_examples=60, deadline=None)
def test_balanced_dims_factorization(n_ranks):
    rows, cols = balanced_dims(n_ranks)
    assert rows * cols == n_ranks
    assert rows >= cols >= 1


@given(
    st.lists(st.floats(0.1, 100.0, allow_nan=False), min_size=2, max_size=10),
    st.lists(st.floats(1.0, 1000.0, allow_nan=False), min_size=2, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_parallel_efficiency_first_point_is_one(times, resources):
    n = min(len(times), len(resources))
    strong = parallel_efficiency(times[:n], resources[:n], mode="strong")
    weak = parallel_efficiency(times[:n], resources[:n], mode="weak")
    assert np.isclose(strong[0], 1.0)
    assert np.isclose(weak[0], 1.0)
