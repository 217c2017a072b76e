"""The reference the engine is tested against: a serial loop over
per-submatrix kernels.

One ``extract_*`` call, one dense function evaluation and one ``scatter_*``
call per column group, rebuilding all index bookkeeping every time — no
plan, no stacks, no cache.  The engine's results must equal these bitwise
wherever the per-submatrix arithmetic is the same.  The element-level
kernels (``extract_submatrix``, ``scatter_submatrix_result``) and the
block-level ones (``reference_extract_block_submatrix``,
``scatter_block_submatrix_result``) live here, since only tests call them;
:func:`repro.core.submatrix.extract_block_submatrix`, which the benches
use, is a one-group plan and is held to the per-block one bitwise.  So does
the item-by-item greedy of the paper's load balancing
(``assign_consecutive_chunks_reference``), the oracle of the vectorised
:func:`repro.core.load_balance.assign_consecutive_chunks`.

The block I/O of :mod:`repro.dbcsr` has its reference here too: the
per-block loops (one SciPy slice, one ``meshgrid`` per block) the vectorised
conversions replaced and must reproduce bitwise.  A block matrix is one
value buffer plus its index; the block-level readers the references use
(``blocks_of``, ``get_block``) and the bitwise comparison of two matrices
(``assert_same_blocks``) read that index.  So has the plan layer: the
per-block index loop of ``BlockSubmatrixPlan`` and the ``searchsorted``
derivation of a rank shard, which the array expansions in
:mod:`repro.core.plan` / :mod:`repro.core.shard` replaced.

The seeded random inputs those comparisons run on (``random_pattern``,
``matrix_for_pattern``, ``poly``, the ragged 12/6 blocks and the stack caps)
live here as well.

The collect mode has its per-entry route here (:func:`reference_collect`):
one ``eigh``, one generating-column panel (:func:`spectral_panel`) and one
PDOS projection per submatrix, in group order — what the engine ran before
it kept one spectral record per stack, and what its per-stack route must
reproduce bitwise.

Two sign iterations are references here too: the per-matrix dense
Newton–Schulz iteration (:func:`sign_newton_schulz`), whose iteration counts
and values the engine's batched kernel must reproduce, and its CSR-storage
filtered form (:func:`sign_newton_schulz_sparse`), which
:func:`repro.signfn.sign_newton_schulz_filtered_dense` must match in
iterations, values and flop count.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.chem import orthogonalized_ks
from repro.chem.density import (
    band_structure_energy,
    electron_count,
    fermi_occupation,
)
from repro.core.load_balance import _validated_costs
from repro.core.submatrix import Submatrix
from repro.dbcsr import BlockSparseMatrix, CooBlockList
from repro.signfn import NewtonSchulzResult
from repro.signfn.newton_schulz import _QUADRATIC_REGIME
from repro.signfn.utils import check_finite, spectral_scale_estimate


def blocks_of(matrix):
    """The stored blocks as ``{(bi, bj): block}`` in storage order, each a
    view into the matrix's value buffer."""
    rows, cols, offsets, values = matrix.block_index()
    bounds = offsets.tolist()
    return {
        (bi, bj): values[start:stop].reshape(matrix.row_block_sizes[bi], -1)
        for bi, bj, start, stop in zip(
            rows.tolist(), cols.tolist(), bounds[:-1], bounds[1:]
        )
    }


def get_block(matrix, bi, bj):
    """Block ``(bi, bj)`` (a view into the value buffer), ``None`` if unstored."""
    return blocks_of(matrix).get((bi, bj))


def coo_order(blocks):
    """``blocks`` (a dict keyed by block coordinates) sorted by (column,
    row): the deterministic COO order of the paper (Sec. IV-A1)."""
    return {key: blocks[key] for key in sorted(blocks, key=lambda key: key[::-1])}


def assert_same_blocks(ours, theirs):
    """Bitwise equal block matrices: block sizes, then the index — block
    rows, columns and offsets in storage order — and the value buffer's bits."""
    assert np.array_equal(ours.row_block_sizes, theirs.row_block_sizes)
    assert np.array_equal(ours.col_block_sizes, theirs.col_block_sizes)
    mine, reference = ours.block_index(), theirs.block_index()
    for name in ("rows", "cols", "offsets"):
        assert np.array_equal(getattr(mine, name), getattr(reference, name)), name
    assert mine.values.dtype == reference.values.dtype == np.float64
    assert mine.values.tobytes() == reference.values.tobytes()


def random_pattern(n_blocks, density, rng):
    """Random symmetric block pattern with a full diagonal."""
    mask = rng.random((n_blocks, n_blocks)) < density
    mask |= mask.T
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return CooBlockList(rows, cols, n_blocks, n_blocks)


def matrix_for_pattern(coo, sizes, rng):
    """Symmetric block matrix with random values on the pattern."""
    blocks = {}
    for bi, bj in zip(coo.rows, coo.cols):
        bi, bj = int(bi), int(bj)
        if (bi, bj) in blocks:
            continue
        if (bj, bi) in blocks:
            block = blocks[(bj, bi)].T.copy()
        else:
            block = rng.standard_normal((int(sizes[bi]), int(sizes[bj])))
            if bi == bj:
                block = 0.5 * (block + block.T)
        blocks[(bi, bj)] = block
    return BlockSparseMatrix(sizes, sizes, blocks)


def poly(a):
    """A deterministic dense matrix function for bitwise comparisons."""
    symmetric = 0.5 * (a + a.T)
    return symmetric @ symmetric + np.eye(a.shape[0])


def reference_block_matrix_from_csr(
    matrix, row_block_sizes, col_block_sizes=None, threshold=0.0
):
    """CSR -> block storage, one SciPy slice per occupied block."""
    result = BlockSparseMatrix(row_block_sizes, col_block_sizes)
    coo = matrix.tocoo()
    if threshold > 0.0:
        keep = np.abs(coo.data) > threshold
        coo = sp.coo_matrix(
            (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
        )
    if coo.nnz == 0:
        return result
    block_row = np.searchsorted(result.row_starts, coo.row, side="right") - 1
    block_col = np.searchsorted(result.col_starts, coo.col, side="right") - 1
    csr = matrix.tocsr()
    blocks = {}
    for bi, bj in sorted(set(zip(block_row.tolist(), block_col.tolist()))):
        r0, r1 = result.row_starts[bi], result.row_starts[bi + 1]
        c0, c1 = result.col_starts[bj], result.col_starts[bj + 1]
        blocks[bi, bj] = csr[r0:r1, c0:c1].toarray()
    return BlockSparseMatrix(row_block_sizes, col_block_sizes, blocks)


def reference_block_matrix_from_dense(
    matrix, row_block_sizes, col_block_sizes=None, threshold=0.0
):
    """Dense -> block storage, one test and one copy per block, row-major
    block order; a kept block stores its region, −0.0 as +0.0."""
    result = BlockSparseMatrix(row_block_sizes, col_block_sizes)
    rows, cols = result.row_starts, result.col_starts
    blocks = {}
    for bi in range(result.n_block_rows):
        for bj in range(result.n_block_cols):
            region = matrix[rows[bi] : rows[bi + 1], cols[bj] : cols[bj + 1]]
            counted = np.abs(region) > threshold if threshold > 0.0 else region != 0.0
            if counted.any():
                blocks[bi, bj] = region + 0.0
    return BlockSparseMatrix(row_block_sizes, col_block_sizes, blocks)


def reference_block_matrix_to_csr(matrix):
    """Block storage -> CSR, one ``meshgrid`` per stored block (COO order)."""
    rows_idx, cols_idx, values = [], [], []
    for (bi, bj), block in coo_order(blocks_of(matrix)).items():
        local_r, local_c = np.meshgrid(
            np.arange(block.shape[0]), np.arange(block.shape[1]), indexing="ij"
        )
        rows_idx.append((matrix.row_starts[bi] + local_r).ravel())
        cols_idx.append((matrix.col_starts[bj] + local_c).ravel())
        values.append(block.ravel())
    if not values:
        return sp.csr_matrix(matrix.shape)
    return sp.coo_matrix(
        (np.concatenate(values), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
        shape=matrix.shape,
    ).tocsr()


def reference_coo_block_list(matrix):
    """The COO block list of a block matrix from its sorted key tuples."""
    keys = list(coo_order(blocks_of(matrix)))
    return CooBlockList(
        [bi for bi, _ in keys],
        [bj for _, bj in keys],
        matrix.n_block_rows,
        matrix.n_block_cols,
    )


def reference_plan_group(coo, block_sizes, group):
    """Index arrays of one block-column group, one Python pass per block.

    Returns the fields of a block-level ``GroupPlan`` (minus its segment
    record) as a namespace; ``gather_*``/``panel_src``/``scatter_dst`` are
    built from one ``arange`` per block, the way the plan layer did before it
    expanded them from the block-level record.  Positions count runs of ``gcd(block_sizes)``
    values: a block's packed range and each of its dense rows are whole runs.
    """
    block_sizes = np.asarray(block_sizes, dtype=int)
    run = functools.reduce(math.gcd, block_sizes.tolist(), 0) or 1
    value_offsets = np.concatenate(
        ([0], np.cumsum(block_sizes[coo.rows] * block_sizes[coo.cols], dtype=np.int64))
    )
    columns = np.asarray(group, dtype=int)
    by_column = {}
    for block_id, (row, col) in enumerate(zip(coo.rows.tolist(), coo.cols.tolist())):
        by_column.setdefault(col, []).append((block_id, row))
    rows_union = [row for c in columns.tolist() for _, row in by_column.get(c, [])]
    retained = np.unique(np.concatenate([np.asarray(rows_union, dtype=int), columns]))
    sizes = block_sizes[retained]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    dim = int(offsets[-1])
    local_of = {int(block): local for local, block in enumerate(retained)}
    # the panel: the generating columns side by side, in grouping order
    panel_rows = [
        np.arange(offsets[local_of[c]], offsets[local_of[c] + 1], dtype=np.int64)
        for c in columns.tolist()
    ]
    panel_column = dict(zip(columns.tolist(), np.cumsum([0] + [r.size for r in panel_rows])))
    panel_width = sum(rows.size for rows in panel_rows)
    gather_src, gather_dst, panel_src, scatter_dst = [], [], [], []
    for col in retained.tolist():
        for block_id, row in by_column.get(col, []):
            if row not in local_of:
                continue
            li, lj = local_of[row], local_of[col]
            src = np.arange(
                value_offsets[block_id] // run,
                value_offsets[block_id + 1] // run,
                dtype=np.int64,
            )
            dst = (
                (offsets[li] + np.arange(int(sizes[li]), dtype=np.int64))[:, None]
                * (dim // run)
                + offsets[lj] // run
                + np.arange(int(sizes[lj]) // run, dtype=np.int64)[None, :]
            ).reshape(-1)
            gather_src.append(src)
            gather_dst.append(dst)
            if col in columns:
                panel_src.append(
                    (
                        (offsets[li] + np.arange(int(sizes[li]), dtype=np.int64))[:, None]
                        * (panel_width // run)
                        + panel_column[col] // run
                        + np.arange(int(sizes[lj]) // run, dtype=np.int64)[None, :]
                    ).reshape(-1)
                )
                scatter_dst.append(src)

    def concat(pieces):
        return np.concatenate(pieces + [np.empty(0, dtype=np.int64)])

    return SimpleNamespace(
        generating_columns=columns,
        indices=retained,
        local_columns=np.searchsorted(retained, columns),
        dimension=dim,
        gather_src=concat(gather_src),
        gather_dst=concat(gather_dst),
        panel_src=concat(panel_src),
        scatter_dst=concat(scatter_dst),
        panel_rows=concat(panel_rows),
        block_sizes=sizes,
        offsets=offsets,
    )


def reference_shard_arrays(plan, owned):
    """One rank's shard arrays, recovered from the gathered positions.

    Returns ``(required_segments, local_to_global, rank-local gather_src per
    owned group)`` by ``searchsorted`` over every gather position — what
    ``ShardedPlan`` did before the groups carried their segment record.  All
    in runs of ``plan.run`` values, the unit of ``gather_src``.
    """
    offsets = np.asarray(plan.segment_offsets(), dtype=np.int64) // plan.run
    sources = [plan.groups[g].gather_src for g in owned]

    def segments_of(positions):
        return np.searchsorted(offsets, positions, side="right") - 1

    required = np.unique(segments_of(np.concatenate(sources + [np.empty(0, np.int64)])))
    starts = offsets[required]
    lengths = offsets[required + 1] - starts
    local_offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    local_to_global = np.concatenate(
        [np.arange(s, s + n, dtype=np.int64) for s, n in zip(starts, lengths)]
        + [np.empty(0, dtype=np.int64)]
    )
    local_sources = []
    for source in sources:
        segment = segments_of(source)
        local_sources.append(
            local_offsets[np.searchsorted(required, segment)] + source - offsets[segment]
        )
    return required, local_to_global, local_sources


# --------------------------------------------------------------------------- #
# per-submatrix kernels and the item-by-item load-balancing greedy
# --------------------------------------------------------------------------- #
def extract_submatrix(
    matrix: sp.spmatrix, columns: Union[int, Sequence[int]]
) -> Submatrix:
    """Assemble the principal submatrix for one or several matrix columns.

    Parameters
    ----------
    matrix:
        Sparse symmetric matrix (any SciPy format; converted to CSC).
    columns:
        Generating column index or indices.

    Returns
    -------
    Submatrix
        With ``data`` filled as a dense array.
    """
    columns = np.atleast_1d(np.asarray(columns, dtype=int))
    csc = matrix.tocsc()
    if columns.size == 0:
        raise ValueError("at least one generating column is required")
    if columns.min() < 0 or columns.max() >= csc.shape[1]:
        raise IndexError("generating column out of range")
    row_sets = [csc.indices[csc.indptr[c] : csc.indptr[c + 1]] for c in columns]
    indices = np.unique(np.concatenate(row_sets + [columns]))
    # ensure the generating columns themselves are present even if their
    # diagonal entry is (numerically) zero
    local_columns = np.searchsorted(indices, columns)
    # two-step slicing (column slice, then row slice) is much faster than the
    # equivalent csc[np.ix_(indices, indices)] fancy indexing; the C-ordered
    # copy keeps the memory layout identical to the planned engine's buffers
    # so both paths feed BLAS bitwise-identical inputs
    data = np.ascontiguousarray(csc[:, indices][indices, :].toarray())
    return Submatrix(
        generating_columns=columns,
        indices=indices,
        local_columns=local_columns,
        data=data,
    )


def scatter_submatrix_result(
    result: Dict[int, Dict[int, float]],
    f_submatrix: np.ndarray,
    submatrix: Submatrix,
    input_csc: sp.csc_matrix,
) -> None:
    """Copy the relevant columns of f(a_C) into a result accumulator.

    Parameters
    ----------
    result:
        Nested dict ``result[column][row] = value`` collecting the columns of
        the approximate result matrix.
    f_submatrix:
        Dense f(a_C).
    submatrix:
        The submatrix bookkeeping produced by :func:`extract_submatrix`.
    input_csc:
        The original matrix in CSC format; its per-column sparsity pattern
        defines which rows of the result column are kept (the result retains
        the input sparsity pattern).
    """
    for column, local_column in zip(
        submatrix.generating_columns, submatrix.local_columns
    ):
        rows = input_csc.indices[
            input_csc.indptr[column] : input_csc.indptr[column + 1]
        ]
        local_rows = np.searchsorted(submatrix.indices, rows)
        values = f_submatrix[local_rows, local_column]
        column_store = result.setdefault(int(column), {})
        for row, value in zip(rows, values):
            column_store[int(row)] = float(value)


def reference_extract_block_submatrix(matrix, block_columns, coo=None):
    """The dense submatrix of ``block_columns``, assembled block by block:
    one lookup per retained block pair."""
    if not np.array_equal(matrix.row_block_sizes, matrix.col_block_sizes):
        raise ValueError("the submatrix method requires a square block structure")
    block_columns = np.atleast_1d(np.asarray(block_columns, dtype=int))
    if coo is None:
        coo = CooBlockList.from_block_matrix(matrix)
    retained = np.unique(
        np.concatenate([coo.blocks_in_columns(block_columns), block_columns])
    ).astype(int)
    sizes = matrix.row_block_sizes[retained]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    data = np.zeros((offsets[-1], offsets[-1]))
    blocks = blocks_of(matrix)
    for local_i, bi in enumerate(retained.tolist()):
        for local_j, bj in enumerate(retained.tolist()):
            block = blocks.get((bi, bj))
            if block is not None:
                data[
                    offsets[local_i] : offsets[local_i + 1],
                    offsets[local_j] : offsets[local_j + 1],
                ] = block
    return Submatrix(
        generating_columns=block_columns,
        indices=retained,
        local_columns=np.searchsorted(retained, block_columns),
        data=data,
        block_sizes=sizes,
    )


def scatter_block_submatrix_result(
    result: Dict[Tuple[int, int], np.ndarray],
    f_submatrix: np.ndarray,
    submatrix: Submatrix,
    coo: CooBlockList,
) -> None:
    """Copy the generating block columns of f(a_C) into the block dict
    ``result``.

    Only blocks that were non-zero in the input pattern are written (the
    approximate result retains the sparsity pattern of the input, step 3 of
    the method).
    """
    if submatrix.block_sizes is None:
        raise ValueError("scatter_block_submatrix_result requires a block submatrix")
    offsets = np.concatenate(([0], np.cumsum(submatrix.block_sizes)))
    retained = submatrix.indices
    for column, local_column in zip(
        submatrix.generating_columns, submatrix.local_columns
    ):
        column_rows = coo.entries_in_columns([int(column)])[1]
        c0, c1 = offsets[local_column], offsets[local_column + 1]
        # one vectorized lookup per generating column instead of one
        # searchsorted call per block row
        local_rows = np.searchsorted(retained, column_rows)
        for bi, local_row in zip(column_rows, local_rows):
            r0, r1 = offsets[local_row], offsets[local_row + 1]
            result[int(bi), int(column)] = f_submatrix[r0:r1, c0:c1]


def assign_consecutive_chunks_reference(
    costs: Sequence[float], n_ranks: int
) -> List[Tuple[int, int]]:
    """Item-by-item greedy reference of :func:`assign_consecutive_chunks`.

    Kept as executable documentation of the paper's algorithm and as the
    oracle for the equivalence property tests.
    """
    costs = _validated_costs(costs, n_ranks)
    n = costs.size
    assignments: List[Tuple[int, int]] = []
    total = float(costs.sum())
    target = total / n_ranks if n_ranks else total
    start = 0
    for rank in range(n_ranks):
        remaining_ranks = n_ranks - rank
        remaining_items = n - start
        if remaining_items <= 0:
            assignments.append((start, start))
            continue
        if remaining_items <= remaining_ranks:
            # exactly one item per remaining rank
            assignments.append((start, start + 1))
            start += 1
            continue
        load = 0.0
        stop = start
        # keep appending while below the target, but leave at least one
        # submatrix for every remaining rank
        while stop < n - (remaining_ranks - 1):
            load += costs[stop]
            stop += 1
            if load >= target and rank < n_ranks - 1:
                break
        if rank == n_ranks - 1:
            stop = n
        assignments.append((start, stop))
        start = stop
    return assignments


def reference_apply_elementwise(matrix, function, column_groups=None):
    """f(A) on a SciPy matrix, one submatrix per column group.

    Returns ``(result_csr, submatrix_dimensions)``.
    """
    csc = matrix.tocsc()
    n = csc.shape[1]
    if column_groups is None:
        column_groups = [[c] for c in range(n)]
    accumulator: dict = {}
    dimensions = []
    for group in column_groups:
        submatrix = extract_submatrix(csc, group)
        evaluated = np.asarray(function(submatrix.data), dtype=float)
        dimensions.append(submatrix.dimension)
        scatter_submatrix_result(accumulator, evaluated, submatrix, csc)
    rows, cols, values = [], [], []
    for column, column_store in accumulator.items():
        for row, value in column_store.items():
            rows.append(row)
            cols.append(column)
            values.append(value)
    result = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    return result, dimensions


def reference_apply_blockwise(matrix, function, column_groups=None, coo=None):
    """f(A) on a block-sparse matrix, one submatrix per block-column group.

    Returns ``(result_block_matrix, submatrix_dimensions)``; the result's
    blocks are stored in COO order, as the engine's are.
    """
    if coo is None:
        coo = CooBlockList.from_block_matrix(matrix)
    if column_groups is None:
        column_groups = [[c] for c in range(matrix.n_block_cols)]
    blocks = {}
    dimensions = []
    for group in column_groups:
        submatrix = reference_extract_block_submatrix(matrix, group, coo)
        evaluated = np.asarray(function(submatrix.data), dtype=float)
        dimensions.append(submatrix.dimension)
        scatter_block_submatrix_result(blocks, evaluated, submatrix, coo)
    result = BlockSparseMatrix(
        matrix.row_block_sizes, matrix.col_block_sizes, coo_order(blocks)
    )
    return result, dimensions


def reference_density(
    K,
    S,
    blocks,
    mu,
    eps_filter,
    temperature=0.0,
    spin_degeneracy=2.0,
    sign_function=None,
):
    """Grand-canonical density matrix (Eq. 16/17), one submatrix per block column.

    ``sign_function=None`` uses one ``eigh`` per submatrix and the Fermi /
    extended-signum occupations; otherwise the occupation matrix is
    ``1/2 (I − sign_function(a − μI))``.
    """
    k_ortho, s_inv_sqrt = orthogonalized_ks(K, S, eps_filter=eps_filter)
    block_k = reference_block_matrix_from_csr(k_ortho, blocks.block_sizes)

    def occupation(dense):
        if sign_function is not None:
            identity = np.eye(dense.shape[0])
            return 0.5 * (identity - sign_function(dense - mu * identity))
        eigenvalues, eigenvectors = np.linalg.eigh(dense)
        occupations = fermi_occupation(eigenvalues, mu, temperature)
        return (eigenvectors * occupations) @ eigenvectors.T

    occupation_block, dimensions = reference_apply_blockwise(block_k, occupation)
    density_ortho = reference_block_matrix_to_csr(occupation_block)
    density_ao = s_inv_sqrt @ density_ortho.toarray() @ s_inv_sqrt
    k_dense = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    return SimpleNamespace(
        density_ao=density_ao,
        density_ortho=density_ortho,
        mu=mu,
        n_electrons=electron_count(density_ortho, spin_degeneracy),
        band_energy=band_structure_energy(density_ao, k_dense, spin_degeneracy),
        submatrix_dimensions=dimensions,
    )


#: How close an engine density must come to :func:`reference_density`.  The
#: engine forms only the generating columns of Q f(Λ) Qᵀ (a d × w panel);
#: the reference forms the full d × d product and slices it — the same
#: numbers through another GEMM blocking, equal to a few ulp of an O(1)
#: entry, not bitwise.  ``test_plan_builder.py`` pins the
#: panel-vs-sliced-product distance this rests on
#: (``test_panel_product_stays_within_1e14_of_the_sliced_full_product``).
REFERENCE_DENSITY_ATOL = 1e-14

#: How close a Newton–Schulz submatrix result of the engine comes to the
#: generating columns of the full-matrix kernel
#: (``sign_newton_schulz_batched``).  The engine takes the last step on the
#: generating columns only, ``X[:, g] + ½(X[:, g] − S·X[:, g])`` (a d × w
#: GEMM); the full kernel takes it on all columns (d × d) and symmetrises.
PANEL_LAST_STEP_ATOL = 1e-13


def assert_matches_reference_density(
    result, reference, density_ao_atol=REFERENCE_DENSITY_ATOL
):
    """``result`` is the density of :func:`reference_density`, to rounding
    (``density_ao_atol`` for the AO-basis density, whose back-transform the
    engine may take over a truncated root)."""
    assert result.mu == reference.mu
    assert (
        np.max(np.abs(result.density_ao - reference.density_ao)) <= density_ao_atol
    )
    ortho_distance = abs(result.density_ortho - reference.density_ortho)
    assert ortho_distance.nnz == 0 or ortho_distance.max() <= REFERENCE_DENSITY_ATOL
    # E = g·Σ D_ij K_ij over O(1)-sized entries: a relative statement
    assert math.isclose(
        result.band_energy, reference.band_energy, rel_tol=1e-12, abs_tol=0.0
    )


# --------------------------------------------------------------------------- #
# the per-entry collect route
# --------------------------------------------------------------------------- #
def spectral_panel(eigenvectors, values, generating_slice):
    """The generating columns of ``Q·diag(values)·Qᵀ`` as a ``(d, w)`` panel,
    one GEMM for one submatrix (``generating_slice`` is the contiguous
    ``Q[generating rows]``): the per-member reference of
    :func:`repro.core.batch.spectral_panels`, each of whose slices is this
    product on operands laid out alike."""
    return (eigenvectors * values) @ generating_slice.T


#: The input of the ragged stacks: water-32's 192 basis functions cut into
#: blocks of 12 and 6 (pairs of molecules and single ones), filter 0, so
#: every submatrix is the whole 192-wide matrix and every stack mixes
#: generating widths 12 and 6.
RAGGED_BLOCK_SIZES = [12, 6, 6] * 8

#: Stack caps (``MAX_BATCH_ELEMENTS``) of the stack-composition tests: one
#: matrix per stack, three (mixed widths in each ragged stack), the default
#: cap, and every member of a bucket in one stack.
STACK_CAPS = {"one": 1, "three": 3 * 192**2, "default": None, "all": 1 << 24}


def ragged_blocks(blocks):
    """``blocks`` (water-32) re-cut into :data:`RAGGED_BLOCK_SIZES`."""
    from repro.chem.hamiltonian import BlockStructure

    sizes = np.array(RAGGED_BLOCK_SIZES)
    assert sizes.sum() == blocks.n_basis
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return BlockStructure(sizes, starts, blocks.atom_offsets, blocks.n_basis)


#: The fields :func:`spectral_arrays` reads from each observable's result.
SPECTRAL_FIELDS = {
    "density": (
        "density_ao", "density_ortho", "mu", "mu_iterations", "n_electrons",
        "band_energy",
    ),
    "energy_weighted_density": (
        "energy_weighted_ao", "energy_weighted_ortho", "band_energy", "mu",
    ),
    "pdos": (
        "energies", "dos", "projections", "eigenvalues", "weights", "mu",
        "n_electrons",
    ),
}


def spectral_arrays(result):
    """Every compared value of a collect-mode result — an observable bundle,
    a bare density result or :func:`reference_collect`'s dict — as
    ``{"observable.field": array}``; a CSR matrix gives its three arrays."""
    if isinstance(result, dict):
        results = result
    else:
        results = getattr(result, "results", None) or {"density": result}
    arrays = {}
    for name, observable in results.items():
        for field in SPECTRAL_FIELDS[name]:
            value = getattr(observable, field)
            if sp.issparse(value):
                for part in ("data", "indices", "indptr"):
                    arrays[f"{name}.{field}.{part}"] = getattr(value, part)
            else:
                arrays[f"{name}.{field}"] = np.asarray(value)
    return arrays


def assert_same_spectral_bits(ours, theirs):
    """:func:`spectral_arrays` of both equal: names, dtypes, shapes, bits."""
    ours, theirs = spectral_arrays(ours), spectral_arrays(theirs)
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        a, b = ours[name], theirs[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def reference_collect(
    config, K, S, blocks, observables, mu=None, n_electrons=None,
    mu_tolerance=1e-9,
):
    """The collect mode one submatrix at a time, one submatrix per block
    column and default PDOS parameters.

    Per plan group, in group order: one ``eigh``, the entry's generating
    slice ``Q[rows]`` and weights Σ Q[rows]²; the bisection on the entries'
    eigenvalues and weights concatenated in group order; per entry one
    :func:`spectral_panel` and all of them written with one ``write_panels``;
    the PDOS projections one group at a time.  Returns ``{observable:
    result}`` with the fields :func:`spectral_arrays` reads.
    """
    from repro.api.observables import (
        _back_transform,
        _bisect_mu,
        assemble_result,
        prepare_step,
    )
    from repro.chem.density import SPIN_DEGENERACY
    from repro.core.plan import BlockSubmatrixPlan

    prepared = prepare_step(K, S, blocks, config.eps_filter)
    plan = BlockSubmatrixPlan(
        prepared.coo, blocks.block_sizes, [[c] for c in range(len(blocks.block_sizes))]
    )
    packed = plan.pack(prepared.block_k)
    entries = []
    for index, group in enumerate(plan.groups):
        values, vectors = np.linalg.eigh(plan.extract_stack(packed, [index]))
        generating = vectors[0][group.panel_rows]
        entries.append((values[0], vectors[0], generating, np.sum(generating**2, axis=0)))
    eigenvalues = np.concatenate([entry[0] for entry in entries])
    weights = np.concatenate([entry[3] for entry in entries])
    iterations = 0
    if n_electrons is not None:
        mu, iterations = _bisect_mu(config, eigenvalues, weights, n_electrons, mu_tolerance)

    def occupation(values):
        return fermi_occupation(values, mu, config.temperature)

    def scatter(function):
        panels = [
            spectral_panel(q, function(values), generating).reshape(-1)
            for values, q, generating, _ in entries
        ]
        sizes = [panel.size for panel in panels]
        out = plan.new_output()
        plan.write_panels(
            out, range(plan.n_groups), np.concatenate(panels), np.cumsum(sizes) - sizes
        )
        return plan.finalize(out)

    results = {}
    if "density" in observables:
        results["density"] = assemble_result(
            config, K, prepared.s_inv_sqrt, scatter(occupation), prepared.coo, mu,
            iterations, list(plan.dimensions), wall_time=0.0,
            outer_runs=prepared.outer_runs,
        )
    if "energy_weighted_density" in observables:
        ortho, ao = _back_transform(
            prepared.s_inv_sqrt,
            scatter(lambda values: values * occupation(values)),
            prepared.outer_runs,
        )
        results["energy_weighted_density"] = SimpleNamespace(
            energy_weighted_ao=ao,
            energy_weighted_ortho=ortho,
            band_energy=float(electron_count(ortho)),
            mu=mu,
        )
    if "pdos" in observables:
        broadening, n_points = 0.1, 400
        energies = np.linspace(
            float(eigenvalues.min()) - 5.0 * broadening,
            float(eigenvalues.max()) + 5.0 * broadening,
            n_points,
        )
        norm = SPIN_DEGENERACY / (broadening * np.sqrt(2.0 * np.pi))
        projections = np.zeros((plan.n_groups, n_points))
        for index, (values, _, _, entry_weights) in enumerate(entries):
            delta = (energies[None, :] - values[:, None]) / broadening
            projections[index] = norm * np.sum(
                entry_weights[:, None] * np.exp(-0.5 * delta * delta), axis=0
            )
        results["pdos"] = SimpleNamespace(
            energies=energies,
            dos=projections.sum(axis=0),
            projections=projections,
            eigenvalues=eigenvalues,
            weights=weights,
            mu=mu,
            n_electrons=SPIN_DEGENERACY * float(np.dot(weights, occupation(eigenvalues))),
        )
    return results


def sign_newton_schulz(matrix, convergence_threshold=1e-10, max_iterations=100):
    """Dense 2nd-order Newton–Schulz iteration for sign(A), one general matrix:
    the reference of :func:`repro.signfn.sign_newton_schulz_batched` (equal
    iteration counts and convergence, values within 1e-12).

    The step is ``X + ½·(X − X³)``, the first one rescaled by
    ``1/sqrt(||X²||₁)``; the iteration stops, converged, once the next step
    would move the iterate by less than ``convergence_threshold`` in
    ||·||_F / sqrt(n) (quadratic regime only), and on a non-finite residual
    (NaN/Inf input, overflow), not converged.
    """
    x = np.array(matrix.toarray() if sp.issparse(matrix) else matrix, dtype=float)
    n = x.shape[0]
    if x.shape[0] != x.shape[1]:
        raise ValueError("sign function requires a square matrix")
    scale = spectral_scale_estimate(x)
    x /= scale
    residual_history = []
    flops = 0.0
    converged = False
    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iterations + 1):
        x_squared = x @ x
        quadratic = residual < _QUADRATIC_REGIME and bool(
            np.linalg.norm(x_squared - np.eye(n)) < _QUADRATIC_REGIME
        )
        if iterations == 1:
            # ρ(X)² ≤ ‖X²‖₁: the first step's tight scale comes with X²
            norm = float(np.abs(x_squared).sum(axis=0).max()) or 1.0
            x /= np.sqrt(norm)
            x_squared /= norm
        step = x - x @ x_squared
        flops += 2.0 * (2.0 * n**3)
        residual = 0.5 * float(np.linalg.norm(step)) / np.sqrt(n)
        residual_history.append(residual)
        step *= 0.5
        x += step
        # the next step would move X by ≤ 1.5·√n·r² (quadratic regime only)
        converged = quadratic and 1.5 * np.sqrt(n) * residual**2 < convergence_threshold
        # a non-finite residual never recovers: stop, not converged
        if converged or not np.isfinite(residual):
            break
    return NewtonSchulzResult(
        sign=x,
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        flops=flops,
        nnz_history=[],
    )


def sign_newton_schulz_sparse(
    matrix, eps_filter=1e-7, convergence_threshold=None, max_iterations=100
):
    """CP2K's filtered Newton–Schulz iteration in ``scipy.sparse`` storage:
    the reference of :func:`repro.signfn.sign_newton_schulz_filtered_dense`.

    Elements below ``eps_filter`` are dropped after every multiplication and
    the convergence threshold on ||X_{k+1} − X_k||_F / sqrt(n) defaults to
    ``eps_filter`` (Sec. V-A).  ``flops`` counts the operations of the sparse
    products on the retained non-zeros.  NaN/Inf input is a
    :class:`ValueError`; a non-finite residual (overflow) ends the iteration,
    not converged.
    """
    if not sp.issparse(matrix):
        raise TypeError("sign_newton_schulz_sparse expects a scipy.sparse matrix")
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("sign function requires a square matrix")
    if convergence_threshold is None:
        convergence_threshold = eps_filter
    n = matrix.shape[0]
    x = matrix.tocsr().astype(float)
    check_finite(x.data)
    scale = spectral_scale_estimate(x)
    x = x / scale
    identity = sp.identity(n, format="csr")
    residual_history = []
    nnz_history = []
    flops = 0.0
    converged = False
    iterations = 0

    def _filter(m):
        if eps_filter > 0.0:
            m = m.copy()
            m.data[np.abs(m.data) < eps_filter] = 0.0
            m.eliminate_zeros()
        return m

    for iterations in range(1, max_iterations + 1):
        # a sparse product A*B costs 2 * sum_k nnz(A_{:,k}) * nnz(B_{k,:})
        col_counts = np.diff(x.tocsc().indptr)
        row_counts = np.diff(x.indptr)
        flops += 2.0 * float(np.dot(col_counts, row_counts))
        x_squared = _filter((x @ x).tocsr())
        inner = 3.0 * identity - x_squared
        flops += 2.0 * float(np.dot(col_counts, np.diff(inner.indptr)))
        update = _filter((0.5 * (x @ inner)).tocsr())
        residual = float(sp.linalg.norm(update - x)) / np.sqrt(n)
        residual_history.append(residual)
        nnz_history.append(int(update.nnz))
        x = update
        converged = residual < convergence_threshold
        if converged or not np.isfinite(residual):
            break
    return NewtonSchulzResult(
        sign=x,
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        flops=flops,
        nnz_history=nnz_history,
    )
