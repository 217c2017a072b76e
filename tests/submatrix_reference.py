"""The reference the engine is tested against: a serial loop over the
per-submatrix kernels of :mod:`repro.core.submatrix`.

One ``extract_*`` call, one dense function evaluation and one ``scatter_*``
call per column group, rebuilding all index bookkeeping every time — no
plan, no stacks, no cache.  The engine's results must equal these bitwise
wherever the per-submatrix arithmetic is the same.

The block I/O of :mod:`repro.dbcsr` has its reference here too: the
per-block loops (one SciPy slice, one ``meshgrid`` per block) the vectorised
conversions replaced and must reproduce bitwise.  So has the plan layer: the
per-block index loop of ``BlockSubmatrixPlan`` and the ``searchsorted``
derivation of a rank shard, which the array expansions in
:mod:`repro.core.plan` / :mod:`repro.core.shard` replaced.

The seeded random inputs those comparisons run on (``random_pattern``,
``matrix_for_pattern``, ``poly``) live here as well.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from repro.chem import orthogonalized_ks
from repro.chem.density import (
    band_structure_energy,
    electron_count,
    fermi_occupation,
)
from repro.core.submatrix import (
    extract_block_submatrix,
    extract_submatrix,
    scatter_block_submatrix_result,
    scatter_submatrix_result,
)
from repro.dbcsr import BlockSparseMatrix, CooBlockList


def random_pattern(n_blocks, density, rng):
    """Random symmetric block pattern with a full diagonal."""
    mask = rng.random((n_blocks, n_blocks)) < density
    mask |= mask.T
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return CooBlockList(rows, cols, n_blocks, n_blocks)


def matrix_for_pattern(coo, sizes, rng):
    """Symmetric block matrix with random values on the pattern."""
    matrix = BlockSparseMatrix(sizes, sizes)
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
        matrix.put_block(bi, bj, block)
        blocks[(bi, bj)] = block
    return matrix


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
    for bi, bj in sorted(set(zip(block_row.tolist(), block_col.tolist()))):
        r0, r1 = result.row_starts[bi], result.row_starts[bi + 1]
        c0, c1 = result.col_starts[bj], result.col_starts[bj + 1]
        result.put_block(bi, bj, csr[r0:r1, c0:c1].toarray())
    return result


def reference_block_matrix_to_csr(matrix):
    """Block storage -> CSR, one ``meshgrid`` per stored block."""
    rows_idx, cols_idx, values = [], [], []
    for bi, bj, block in matrix.iter_blocks():
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
    keys = matrix.block_keys()
    return CooBlockList(
        [bi for bi, _ in keys],
        [bj for _, bj in keys],
        matrix.n_block_rows,
        matrix.n_block_cols,
    )


def reference_plan_group(coo, block_sizes, group):
    """Index arrays of one block-column group, one Python pass per block.

    Returns the fields of a block-level ``GroupPlan`` (minus its segment
    record) as a namespace; ``gather_*``/``scatter_*`` are built from one
    ``arange`` per block, the way the plan layer did before it expanded them
    from the block-level record.  Positions count runs of ``gcd(block_sizes)``
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
    gather_src, gather_dst, scatter_src, scatter_dst = [], [], [], []
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
                scatter_src.append(dst)
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
        scatter_src=concat(scatter_src),
        scatter_dst=concat(scatter_dst),
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

    Returns ``(result_block_matrix, submatrix_dimensions)``.
    """
    if coo is None:
        coo = CooBlockList.from_block_matrix(matrix)
    if column_groups is None:
        column_groups = [[c] for c in range(matrix.n_block_cols)]
    result = BlockSparseMatrix(matrix.row_block_sizes, matrix.col_block_sizes)
    dimensions = []
    for group in column_groups:
        submatrix = extract_block_submatrix(matrix, group, coo)
        evaluated = np.asarray(function(submatrix.data), dtype=float)
        dimensions.append(submatrix.dimension)
        scatter_block_submatrix_result(result, evaluated, submatrix, coo)
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


def assert_matches_reference_density(result, reference):
    """``result`` is the density of :func:`reference_density`, to rounding."""
    assert result.mu == reference.mu
    assert (
        np.max(np.abs(result.density_ao - reference.density_ao))
        <= REFERENCE_DENSITY_ATOL
    )
    ortho_distance = abs(result.density_ortho - reference.density_ortho)
    assert ortho_distance.nnz == 0 or ortho_distance.max() <= REFERENCE_DENSITY_ATOL
    # E = g·Σ D_ij K_ij over O(1)-sized entries: a relative statement
    assert math.isclose(
        result.band_energy, reference.band_energy, rel_tol=1e-12, abs_tol=0.0
    )
