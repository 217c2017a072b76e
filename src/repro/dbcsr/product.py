"""Exact sparse × dense products in fixed row panels.

The Löwdin envelope of a request multiplies a sparse matrix by the dense
S^{-1/2} from both sides (Eq. 16): K̃ = X·K·X before the engine and
D_ao = X·D̃·X after it.  CP2K keeps both operands block-sparse (DBCSR);
multiplied as dense matrices they cost two n³ GEMMs each, most of them on
stored zeros.  :func:`triple_product` forms ``X̂·(A·X)`` instead, both as
a :func:`panel_product` over the column runs of the left factor per panel of
:data:`PANEL_ROWS` rows.

* ``A``'s runs are the columns it stores (:func:`column_runs`): the skipped
  terms are exact zeros and the values move at rounding level.
* X̂'s runs are the columns where X is above its rounding floor τ =
  n·:data:`ROOT_FLOOR`·max|X| (:func:`floor_runs`), where a dense ``eigh``
  root holds no digits.  Dropping the rest moves row i by at most
  Σ_k |X_ik − X̂_ik| · max|A·X|, the a-priori bound the tests hold it to.

A product whose panels do not pay is the dense GEMM, bitwise as before:

* an operand whose stored fill (:func:`stored_fill`) is at least
  :data:`DENSE_FILL` takes it without any analysis;
* otherwise the panels are taken only when their work — Σ panel height ×
  run width, at the operand's storage granularity (whole blocks of a
  :class:`~repro.dbcsr.block_matrix.BlockSparseMatrix`, stored columns of a
  SciPy matrix, elements of X) — is below :data:`PANEL_WORK` of the dense
  GEMM's n²; X's runs that do not pay are ``[]``, as for every water root.

K̃ is then filtered at ε, which on a short-decay input keeps a few per cent
of its blocks; :func:`screened_product` forms only those.  With N_A[I, J] =
‖A_IJ‖_F (:func:`block_norms`), B = N_X·N_A·N_X ≥ max|T_IJ| for T = X̂·A·X,
and rounding adds at most 2n·2⁻⁵³ of B, so a block of K̃ = ½(T + Tᵀ) can
survive the filter only when B_IJ or B_JI, times 1 + n·:data:`SCREEN_ROUNDING`,
reaches ε.  Each panel of X̂·(A·X) forms the columns of these candidates in
the block rows it meets, run by run as the dense route does, so the kept
values are the dense route's; the dense route runs when those panels would
form at least :data:`PANEL_WORK` of K̃'s n².

Thin panels run below the dense GEMM's flop rate, which is where the
break-even sits near one half.  The panel height, the floor, the margin and
both fractions are constants of the method, not knobs.

Given a request's session mapper (``map_parallel`` on the session's pool),
a rows × cols product runs in b = ⌊rows·cols /
:data:`~repro.parallel.executor.MAX_BATCH_ELEMENTS`⌋ row bands, the pool's
unit of work: runs of whole panels as even as they go, the last one keeping
the row remainder.  A band is one task — its panels, or on the dense route
both GEMMs of its rows, ``X[a:b] @ A`` and then that ``@ X``, into arrays the
caller allocates — and b = 1 is the same code, called once inline over every
panel.  The screen's left product runs its panels in the same bands, and the
dense route's symmetrisation and filter (:func:`symmetrize_filter`) its rows,
both n × n like ``K·X``.  Cutting a single-threaded GEMM's rows at a multiple
of 48 leaves each element's accumulation order unchanged, so bands are bitwise
the inline route;
a multi-threaded BLAS call splits its rows by its own shape, so bands are
taken only while the environment pins BLAS to one thread per call
(:func:`~repro.parallel.executor.blas_threads`, the reading the pool's default
size trusts too; a variable the loaded BLAS does not read, or one set after it
loaded, is taken at its word).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.coo import concat_ranges
from repro.parallel.executor import MAX_BATCH_ELEMENTS, blas_threads

__all__ = [
    "DENSE_FILL",
    "PANEL_ROWS",
    "PANEL_WORK",
    "ROOT_FLOOR",
    "SCREEN_ROUNDING",
    "block_norms",
    "column_runs",
    "floor_runs",
    "panel_product",
    "screened_product",
    "stored_fill",
    "symmetrize_filter",
    "triple_product",
]

#: Rows per panel of :func:`panel_product`: of 16–128, the fastest height
#: for K on the 768-basis short-decay ledger input (K 17 %, D̃ 1 % stored).
PANEL_ROWS = 48
#: Stored fill at and above which :func:`triple_product` stays dense.
DENSE_FILL = 0.5
#: Panel work, as a fraction of the dense GEMM's, below which panels are taken.
PANEL_WORK = 0.5
#: The unit roundoff: root elements below n·ROOT_FLOOR·max|X| are noise.
ROOT_FLOOR = 2.0**-53
#: The screen's rounding margin per basis function: a block is formed when
#: (1 + n·SCREEN_ROUNDING)·B ≥ ε, B its block-norm bound.
SCREEN_ROUNDING = 2 * ROOT_FLOOR

SparseOperand = Union[np.ndarray, sp.spmatrix, BlockSparseMatrix]
#: Per panel: first row, stop row, run start columns, run stop columns.
PanelRuns = List[Tuple[int, int, np.ndarray, np.ndarray]]


def stored_fill(matrix: SparseOperand) -> float:
    """Fraction of the elements ``matrix`` stores: 1 for a dense array,
    ``nnz / size`` for a SciPy matrix (explicit zeros and duplicates count),
    the area of the stored blocks over the size for a block matrix."""
    rows, cols = matrix.shape
    size = rows * cols
    if not size:
        return 0.0
    if isinstance(matrix, BlockSparseMatrix):
        return matrix.nnz_elements / size
    if sp.issparse(matrix):
        return matrix.nnz / size
    return 1.0


def column_runs(matrix: Union[sp.spmatrix, BlockSparseMatrix]) -> PanelRuns:
    """The contiguous column runs ``matrix`` stores in each row panel.

    Panels are :data:`PANEL_ROWS` consecutive rows (the last one shorter).
    A block matrix is read at block granularity — a run is a range of block
    columns with a stored block in some block row that meets the panel — and
    a SciPy matrix at its stored columns.  Both are exact: every column
    outside the runs is zero in that panel.
    """
    rows, cols = matrix.shape
    if isinstance(matrix, BlockSparseMatrix):
        index = matrix.block_index()
        first = matrix.row_starts[index.rows] // PANEL_ROWS
        count = (matrix.row_starts[index.rows + 1] - 1) // PANEL_ROWS - first + 1
        # a block row may meet several consecutive panels
        panel_of_entry = concat_ranges(first, count)
        column_of_entry = np.repeat(index.cols, count)
        column_starts = matrix.col_starts
    else:
        csr = matrix.tocsr()
        panel_of_entry = np.repeat(np.arange(rows) // PANEL_ROWS, np.diff(csr.indptr))
        column_of_entry = csr.indices
        column_starts = np.arange(cols + 1)
    occupied = np.zeros((-(-rows // PANEL_ROWS), len(column_starts) + 1), dtype=bool)
    occupied[panel_of_entry, column_of_entry + 1] = True
    return _runs(occupied, column_starts, rows, min_gap=0)


def floor_runs(outer: np.ndarray) -> PanelRuns:
    """Per panel, the columns where ``outer`` keeps an element at or above
    n·:data:`ROOT_FLOOR`·max|outer|, gaps narrower than a panel closed;
    ``[]`` when they would do at least :data:`PANEL_WORK` of the dense work."""
    rows, cols = outer.shape
    magnitude = np.abs(outer)
    kept = magnitude >= cols * ROOT_FLOOR * magnitude.max()
    occupied = np.zeros((-(-rows // PANEL_ROWS), cols + 2), dtype=bool)
    occupied[:, 1:-1] = np.logical_or.reduceat(kept, np.arange(0, rows, PANEL_ROWS))
    runs = _runs(occupied, np.arange(cols + 1), rows, min_gap=PANEL_ROWS)
    return runs if _panel_work(runs) < PANEL_WORK * rows * cols else []


def _runs(occupied, column_starts, rows: int, min_gap: int) -> PanelRuns:
    """Runs of a zero-padded panel × column mask, gaps below ``min_gap`` closed."""
    # a run starts where a row of the padded mask rises and stops where it falls
    panel, edge = np.nonzero(occupied[:, 1:] != occupied[:, :-1])
    panel, starts, stops = panel[0::2], edge[0::2], edge[1::2]
    opens, closes = np.ones((2, panel.size), dtype=bool)
    opens[1:] = closes[:-1] = (panel[1:] != panel[:-1]) | (
        column_starts[starts[1:]] - column_starts[stops[:-1]] >= min_gap
    )
    panel = panel[opens]
    starts, stops = column_starts[starts[opens]], column_starts[stops[closes]]
    bounds = np.searchsorted(panel, np.arange(len(occupied) + 1))
    return [
        (
            p * PANEL_ROWS,
            min((p + 1) * PANEL_ROWS, rows),
            starts[bounds[p] : bounds[p + 1]],
            stops[bounds[p] : bounds[p + 1]],
        )
        for p in range(len(occupied))
    ]


def _panel_work(runs: PanelRuns) -> int:
    """Σ panel height × run width: the multiply-adds per column of the right
    factor that the panels spend."""
    return sum(
        (stop - start) * int((ends - begins).sum())
        for start, stop, begins, ends in runs
    )


def _in_bands(task, rows: int, cols: int, mapper) -> None:
    """``task(panels)`` over the row bands of a ``rows × cols`` product (see
    the module docstring): one task per band on ``mapper``, or one inline call
    over every panel where the product takes a single band."""
    panels = -(-rows // PANEL_ROWS)
    count = min(panels, rows * cols // MAX_BATCH_ELEMENTS)
    if mapper is None or count < 2 or blas_threads() != 1:
        task(slice(0, panels))
        return
    cuts = [panels * band // count for band in range(count + 1)]
    mapper(task, [slice(first, stop) for first, stop in zip(cuts, cuts[1:])])


def panel_product(
    matrix: Union[sp.spmatrix, BlockSparseMatrix],
    dense: np.ndarray,
    right: np.ndarray,
    runs: Optional[PanelRuns] = None,
    mapper=None,
) -> np.ndarray:
    """``matrix @ right`` exactly, panel by panel over the stored column runs.

    ``dense`` is ``matrix`` as a dense array: ``matrix`` says which columns
    a panel stores (:func:`column_runs`, computed here unless given as
    ``runs``), ``dense`` holds the values the panels are sliced from.
    Within a panel the run products are summed in column order; a panel
    without runs is zero.  ``mapper(function, bands)`` runs each row band's
    panels as one task (inline without one).
    """
    if runs is None:
        runs = column_runs(matrix)
    out = np.empty((dense.shape[0], right.shape[1]))

    def fill(band: slice) -> None:
        for start, stop, begins, ends in runs[band]:
            _panel_into(out[start:stop], dense[start:stop], right, begins, ends)

    _in_bands(fill, *out.shape, mapper)
    return out


def _panel_into(panel, left, right, begins, ends, columns=slice(None)) -> None:
    """``panel`` = Σ over the runs of ``left[:, run] @ right[run, columns]``,
    summed in column order; zero without runs."""
    if not begins.size:
        panel.fill(0.0)
        return
    pairs = zip(begins.tolist(), ends.tolist())
    first, last = next(pairs)
    np.matmul(left[:, first:last], right[first:last, columns], out=panel)
    for first, last in pairs:
        panel += left[:, first:last] @ right[first:last, columns]


def triple_product(
    outer: np.ndarray, matrix: SparseOperand, dense: np.ndarray, outer_runs=None,
    mapper=None,
) -> np.ndarray:
    """``outer · matrix · outer`` for a dense ``outer`` (S^{-1/2}).

    ``dense`` is ``matrix`` as a dense array (a dense ``matrix`` is its own);
    ``outer_runs`` is :func:`floor_runs` of ``outer``, computed here unless
    given.  ``outer · (matrix · outer)`` with the inner product in panels
    when ``matrix`` is sparse enough, otherwise ``(outer @ dense) @ outer``;
    the left product in panels over ``outer_runs`` unless they are ``[]``
    (see the module docstring for the rules and the bound).  With a
    ``mapper``, each product runs in row bands on it, bitwise as inline.
    """
    if outer_runs is None:
        outer_runs = floor_runs(outer)
    right = dense
    if stored_fill(matrix) < DENSE_FILL:
        runs = column_runs(matrix)
        if _panel_work(runs) < PANEL_WORK * dense.size:
            right = panel_product(matrix, dense, outer, runs, mapper)
    left = np.empty((outer.shape[0], right.shape[1]))
    # a dense operand keeps the order (X·A)·X
    out = np.empty_like(left) if right is dense else left

    def band_rows(band: slice) -> None:
        rows = slice(band.start * PANEL_ROWS, band.stop * PANEL_ROWS)
        if outer_runs:
            for start, stop, begins, ends in outer_runs[band]:
                _panel_into(left[start:stop], outer[start:stop], right, begins, ends)
        else:
            np.matmul(outer[rows], right, out=left[rows])
        if right is dense:
            np.matmul(left[rows], outer, out=out[rows])

    _in_bands(band_rows, *left.shape, mapper)
    return out


def symmetrize_filter(matrix: np.ndarray, eps: float, mapper=None) -> np.ndarray:
    """``(T + Tᵀ)·0.5`` of a square ``T``, its elements below ``eps`` in
    magnitude set to zero, into a fresh array: the dense route's K̃ before its
    block cut.  Panel by panel (``Tᵀ``'s rows copied in, ``T``'s added: an
    exact, commutative sum), in row bands on ``mapper`` if given — bitwise
    the inline route."""
    out = np.empty_like(matrix)

    def band_rows(band: slice) -> None:
        for start in range(band.start * PANEL_ROWS, band.stop * PANEL_ROWS, PANEL_ROWS):
            rows = slice(start, start + PANEL_ROWS)
            part = out[rows]
            part[...] = matrix[:, rows].T
            part += matrix[rows]
            part *= 0.5
            if eps > 0.0:
                np.copyto(part, 0.0, where=np.abs(part) < eps)

    _in_bands(band_rows, *out.shape, mapper)
    return out


def block_norms(matrix: Union[np.ndarray, sp.spmatrix], block_sizes) -> np.ndarray:
    """N[I, J] = ‖A_IJ‖_F of a square ``matrix`` cut into ``block_sizes`` both
    ways: a dense array summed per block, a SciPy matrix over its stored
    entries (duplicates summed first)."""
    sizes = np.asarray(block_sizes, dtype=np.intp)
    if not sp.issparse(matrix):
        cuts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        squares = np.add.reduceat(np.square(matrix), cuts, axis=1)
        return np.sqrt(np.add.reduceat(squares, cuts, axis=0))
    csr = matrix.tocsr(copy=True)
    csr.sum_duplicates()
    blocks = np.repeat(np.arange(sizes.size), sizes)
    ids = np.repeat(blocks, np.diff(csr.indptr)) * sizes.size + blocks[csr.indices]
    squares = np.bincount(ids, weights=np.square(csr.data), minlength=sizes.size**2)
    return np.sqrt(squares).reshape(sizes.size, sizes.size)


def screened_product(
    outer, matrix, dense, outer_runs: PanelRuns, outer_norms, block_sizes, eps: float,
    mapper=None,
) -> Optional[BlockSparseMatrix]:
    """½(T + Tᵀ), T = X̂·(A·X), filtered at ``eps`` and cut into blocks as
    ``block_matrix_from_dense`` cuts the dense route's, forming only the
    blocks the filter can keep (see the module docstring); ``None`` when that
    would not pay.  ``outer_runs`` (not ``[]``) and ``outer_norms`` are X's
    floor runs and block norms, ``dense`` is the SciPy ``matrix`` densified;
    ``A·X`` runs in row bands on ``mapper``, if given.
    """
    result, runs = BlockSparseMatrix(block_sizes), column_runs(matrix)
    if result.shape != dense.shape or _panel_work(runs) >= PANEL_WORK * dense.size:
        return None
    n = dense.shape[0]
    starts, sizes = result.row_starts, result.row_block_sizes
    bound = outer_norms @ block_norms(matrix, sizes) @ outer_norms
    candidate = bound * (1.0 + n * SCREEN_ROUNDING) >= eps
    candidate |= candidate.T
    # per panel, the columns of the candidate blocks of the block rows it meets
    block_of_row = np.repeat(np.arange(sizes.size), sizes)
    columns = []
    for start, stop, *_ in outer_runs:
        kept = candidate[block_of_row[start] : block_of_row[stop - 1] + 1].any(axis=0)
        columns.append(concat_ranges(starts[:-1][kept], sizes[kept]))
    panel_cols = np.array([cols.size for cols in columns])
    panel_rows = np.array([stop - start for start, stop, *_ in outer_runs])
    if panel_rows @ panel_cols >= PANEL_WORK * dense.size:
        return None
    right = panel_product(matrix, dense, outer, runs, mapper)
    offsets = np.concatenate(([0], np.cumsum(panel_rows * panel_cols)))
    formed = np.empty(offsets[-1])  # the panels' T[rows, columns], one by one

    def fill(band: slice) -> None:
        for (start, stop, begins, ends), cols, offset in zip(
            outer_runs[band], columns[band], offsets[band]
        ):
            panel = formed[offset : offset + (stop - start) * cols.size]
            _panel_into(panel.reshape(stop - start, -1), outer[start:stop], right,
                        begins, ends, cols)

    _in_bands(fill, n, n, mapper)
    # T[i, j] = formed[base[i] + slot[panel of i, j]]
    panel_of = np.arange(n) // PANEL_ROWS
    slot = np.zeros((len(columns), n), dtype=np.intp)
    for p, cols in enumerate(columns):
        slot[p, cols] = np.arange(cols.size)
    base = offsets[panel_of] + (np.arange(n) % PANEL_ROWS) * panel_cols[panel_of]
    block_row, block_col = np.nonzero(candidate)  # row-major block order
    heights, widths = sizes[block_row], sizes[block_col]
    shape_ids = heights * (int(widths.max(initial=0)) + 1) + widths
    kept = np.zeros(block_row.size, dtype=bool)
    by_shape = []
    for shape_id in np.unique(shape_ids).tolist():
        members = np.flatnonzero(shape_ids == shape_id)
        rows = starts[block_row[members], None, None] + np.arange(heights[members[0]])[:, None]
        cols = starts[block_col[members], None, None] + np.arange(widths[members[0]])
        values = formed[base[rows] + slot[panel_of[rows], cols]]
        values += formed[base[cols] + slot[panel_of[cols], rows]]
        values *= 0.5
        values[np.abs(values) < eps] = 0.0
        values += 0.0  # -0.0 → +0.0
        kept[members] = values.reshape(members.size, -1).any(axis=1)
        by_shape.append((members, values))
    # the kept blocks, row-major, in one buffer
    block_size = heights * widths
    at = np.zeros(block_row.size, dtype=np.int64)
    at[kept] = np.cumsum(block_size[kept]) - block_size[kept]
    buffer = np.empty(int(block_size[kept].sum()))
    for members, values in by_shape:
        keep = kept[members]
        buffer[concat_ranges(at[members[keep]], block_size[members[keep]])] = values[
            keep
        ].reshape(-1)
    return BlockSparseMatrix.from_index(
        sizes, sizes, block_row[kept], block_col[kept], buffer
    )
