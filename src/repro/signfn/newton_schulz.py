"""2nd-order Newton–Schulz sign iteration (Eq. 11 of the paper).

    X_0 = A / ||A||,     X_{k+1} = 1/2 · X_k (3 I − X_k²)

The iteration converges quadratically to sign(A) for matrices without purely
imaginary eigenvalues.  CP2K uses it (on DBCSR sparse matrices, with element
filtering after every multiplication) as the default algorithm for
grand-canonical linear-scaling DFT; it is the baseline the submatrix method
is compared against in the paper's Figs. 6, 7 and 10.

The two dense routines evaluate the step as ``X + ½·(X − X³)``: the step
itself is the convergence residual and no ``3I − X²`` intermediate exists.

* :func:`sign_newton_schulz` — dense, one general matrix; the reference the
  batched kernel is tested against (equal iteration counts, values within
  1e-12);
* :func:`sign_newton_schulz_batched` — the submatrix engine's kernel on a
  ``(k, n, n)`` stack of *symmetric* matrices.  One call allocates three
  stack-sized buffers — its working copy ``X`` and two work buffers — and
  nothing per iteration: ``S = X·Xᵀ`` (``matmul(..., out=)``, which numpy
  dispatches to ``syrk``: half the flops of a general product), ``Z = S·X``
  (``out=``), ``Z ← X − Z`` in place, the residual from one ``einsum`` over
  ``Z``, ``X += ½Z`` in place.  For symmetric ``X`` this is the iteration
  above; in floating point it is the Newton–Schulz iteration for the
  orthogonal polar factor, ``½(3I − XXᵀ)X``, which damps the antisymmetric
  rounding error between the two sign subspaces and leaves the rest
  untouched.  The order of the second product matters: ``X·(X·Xᵀ)``
  *doubles* that error every iteration (3e-13 after 10 iterations, overflow
  near 60 — a matrix with a 1e-3 relative gap never converges), ``(X·Xᵀ)·X``
  holds it at rounding level through hundreds.  The converged stack is
  symmetrised once, so the result is exactly symmetric;
* :func:`sign_newton_schulz_sparse` — operates on ``scipy.sparse`` matrices
  and filters elements below ``eps_filter`` after every iteration, which
  mirrors the CP2K behaviour where the filtering threshold also serves as
  the convergence criterion (Sec. V-A).  It records the number of
  floating-point operations actually performed on the retained non-zeros so
  that the distributed cost model can reuse the measurement.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.signfn.utils import as_dense, involutority_error, spectral_scale_estimate

__all__ = [
    "NewtonSchulzResult",
    "BatchedNewtonSchulzResult",
    "sign_newton_schulz",
    "sign_newton_schulz_batched",
    "sign_newton_schulz_sparse",
    "sign_newton_schulz_filtered_dense",
]


#: Largest ``|X − Xᵀ|`` of a prescaled matrix the batched (polar-form) kernel
#: accepts as symmetric; the eigendecomposition kernel's tolerance.
_SYMMETRY_TOLERANCE = 1e-8


@dataclasses.dataclass
class NewtonSchulzResult:
    """Result of a Newton–Schulz sign iteration.

    Attributes
    ----------
    sign:
        The converged (or last) iterate.
    iterations:
        Number of iterations performed.
    converged:
        Whether the convergence criterion was met.
    residual_history:
        Frobenius norm of the update ||X_{k+1} − X_k||_F per iteration.
    involutority_history:
        ||X_k² − I||_F per iteration (only filled when requested).
    flops:
        Floating-point operations spent in matrix multiplications.
    nnz_history:
        Number of stored non-zeros per iteration (sparse variant only).
    """

    sign: Union[np.ndarray, sp.csr_matrix]
    iterations: int
    converged: bool
    residual_history: List[float]
    involutority_history: List[float]
    flops: float
    nnz_history: List[int]


def sign_newton_schulz(
    matrix: Union[np.ndarray, sp.spmatrix],
    convergence_threshold: float = 1e-10,
    max_iterations: int = 100,
    track_involutority: bool = False,
) -> NewtonSchulzResult:
    """Dense 2nd-order Newton–Schulz iteration for sign(A).

    Parameters
    ----------
    matrix:
        Square matrix without eigenvalues on the imaginary axis.
    convergence_threshold:
        The iteration stops when ||X_{k+1} − X_k||_F / sqrt(n) falls below
        this threshold.
    max_iterations:
        Hard iteration cap.  A non-finite residual (NaN/Inf input, overflow)
        also ends the iteration, as not converged.
    track_involutority:
        Record ||X² − I||_F each iteration (used by the precision study).
    """
    x = as_dense(matrix).copy()
    n = x.shape[0]
    if x.shape[0] != x.shape[1]:
        raise ValueError("sign function requires a square matrix")
    scale = spectral_scale_estimate(x)
    x /= scale
    residual_history: List[float] = []
    involutority_history: List[float] = []
    flops = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        step = x - x @ (x @ x)
        flops += 2.0 * (2.0 * n**3)
        residual = 0.5 * float(np.linalg.norm(step)) / np.sqrt(n)
        residual_history.append(residual)
        step *= 0.5
        x += step
        if track_involutority:
            involutority_history.append(involutority_error(x))
        converged = residual < convergence_threshold
        # a non-finite residual never recovers: stop, not converged
        if converged or not np.isfinite(residual):
            break
    return NewtonSchulzResult(
        sign=x,
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        involutority_history=involutority_history,
        flops=flops,
        nnz_history=[],
    )


@dataclasses.dataclass
class BatchedNewtonSchulzResult:
    """Result of a batched Newton–Schulz sign iteration.

    Attributes
    ----------
    sign:
        ``(k, n, n)`` stack of converged (or last) iterates.
    iterations:
        Per-matrix iteration counts, shape ``(k,)``.
    converged:
        Per-matrix convergence flags, shape ``(k,)``.
    """

    sign: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def sign_newton_schulz_batched(
    stack: np.ndarray,
    convergence_threshold: float = 1e-10,
    max_iterations: int = 100,
    shift: float = 0.0,
) -> BatchedNewtonSchulzResult:
    """sign(A − shift·I) for a ``(k, n, n)`` stack of symmetric matrices.

    Batched counterpart of :func:`sign_newton_schulz` for the bucketed batch
    evaluator.  Each matrix is prescaled by its own spectral-radius bound,
    iterated with stacked products (one BLAS call per matrix and product)
    and frozen as soon as its own residual ``||X_{k+1} − X_k||_F / sqrt(n)``
    drops below the threshold — or turns non-finite, which freezes it as
    *not* converged — so ``iterations``/``converged`` equal the unbatched
    routine's and every matrix's values are bitwise independent of what else
    is in the stack (a matrix solved alone reproduces its in-stack result).

    ``stack`` is never written to.  The call allocates its working copy
    (whose diagonal takes the ``shift``) and two work buffers of the stack's
    size, and nothing per iteration (see the module docstring for the update
    form); frozen matrices stay in the working copy while the active ones
    are compacted — one fancy-index copy, one write-back — only in an
    iteration where some matrix actually froze.  The result is symmetrised
    once, so ``sign`` is exactly symmetric.  The ``(X·Xᵀ)·X`` form converges
    to the orthogonal polar factor, which is the sign only for symmetric
    input: a stack asymmetric beyond 1e-8 (relative to the prescale) raises
    ``ValueError``, like the eigendecomposition kernel.
    """
    x = np.array(stack, dtype=float)
    if x.ndim != 3 or x.shape[-1] != x.shape[-2]:
        raise ValueError("expected a (k, n, n) stack of square matrices")
    count, n, _ = x.shape
    diagonal = np.arange(n)
    x[:, diagonal, diagonal] -= shift
    x_squared, step = np.empty_like(x), np.empty_like(x)
    np.abs(x, out=step)
    one_norm = step.sum(axis=1).max(axis=1)
    inf_norm = step.sum(axis=2).max(axis=1)
    scale = np.sqrt(one_norm * inf_norm)
    scale[scale == 0.0] = 1.0
    x /= scale[:, None, None]
    np.subtract(x, x.transpose(0, 2, 1), out=step)
    asymmetry = float(np.abs(step, out=step).max()) if x.size else 0.0
    if asymmetry > _SYMMETRY_TOLERANCE:
        raise ValueError(
            f"stack is not symmetric (max asymmetry {asymmetry:.3e} of the "
            f"prescaled matrices exceeds {_SYMMETRY_TOLERANCE:.0e})"
        )
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    xa = x  # the active iterates: x itself until the first freeze
    residual_factor = 0.5 / np.sqrt(n)
    for _ in range(max_iterations):
        if active.size == 0:
            break
        s, z = x_squared[: active.size], step[: active.size]
        np.matmul(xa, xa.transpose(0, 2, 1), out=s)
        np.matmul(s, xa, out=z)
        np.subtract(xa, z, out=z)
        flat = z.reshape(active.size, -1)
        residual = residual_factor * np.sqrt(np.einsum("ij,ij->i", flat, flat))
        z *= 0.5
        xa += z
        iterations[active] += 1
        done = residual < convergence_threshold
        frozen = done | ~np.isfinite(residual)
        if frozen.any():
            converged[active[done]] = True
            if xa is not x:
                x[active[frozen]] = xa[frozen]
            active, xa = active[~frozen], xa[~frozen]
    if xa is not x:
        x[active] = xa
    np.add(x, x.transpose(0, 2, 1), out=step)
    step *= 0.5
    return BatchedNewtonSchulzResult(
        sign=step, iterations=iterations, converged=converged
    )


def sign_newton_schulz_sparse(
    matrix: sp.spmatrix,
    eps_filter: float = 1e-7,
    convergence_threshold: Optional[float] = None,
    max_iterations: int = 100,
) -> NewtonSchulzResult:
    """Sparse (filtered) 2nd-order Newton–Schulz iteration for sign(A).

    This is the CP2K-style baseline: the iterate stays in sparse storage and
    elements below ``eps_filter`` are dropped after every multiplication.
    The convergence criterion defaults to the filtering threshold, as in
    CP2K (Sec. V-A: "For the Newton-Schulz iteration scheme, eps_filter also
    determines the convergence criterion").

    Parameters
    ----------
    matrix:
        Sparse symmetric matrix (CSR recommended).
    eps_filter:
        Truncation threshold applied after every multiplication.
    convergence_threshold:
        Convergence threshold on ||X_{k+1} − X_k||_F / sqrt(n); defaults to
        ``eps_filter``.
    max_iterations:
        Hard iteration cap.
    """
    if not sp.issparse(matrix):
        raise TypeError("sign_newton_schulz_sparse expects a scipy.sparse matrix")
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("sign function requires a square matrix")
    if convergence_threshold is None:
        convergence_threshold = eps_filter
    n = matrix.shape[0]
    x = matrix.tocsr().astype(float)
    scale = spectral_scale_estimate(x)
    x = x / scale
    identity = sp.identity(n, format="csr")
    residual_history: List[float] = []
    nnz_history: List[int] = []
    flops = 0.0
    converged = False
    iterations = 0

    def _filter(m: sp.csr_matrix) -> sp.csr_matrix:
        if eps_filter > 0.0:
            m = m.copy()
            m.data[np.abs(m.data) < eps_filter] = 0.0
            m.eliminate_zeros()
        return m

    for iterations in range(1, max_iterations + 1):
        # FLOP accounting: a sparse product A*B costs 2 * sum_k nnz(A_{:,k}) * nnz(B_{k,:})
        x_csc = x.tocsc()
        col_counts = np.diff(x_csc.indptr)
        row_counts = np.diff(x.indptr)
        flops += 2.0 * float(np.dot(col_counts, row_counts))
        x_squared = _filter((x @ x).tocsr())
        inner = 3.0 * identity - x_squared
        col_counts_inner = np.diff(inner.tocsc().indptr)
        flops += 2.0 * float(np.dot(np.diff(x.tocsc().indptr), np.diff(inner.indptr)))
        update = _filter((0.5 * (x @ inner)).tocsr())
        residual = float(sp.linalg.norm(update - x)) / np.sqrt(n)
        residual_history.append(residual)
        nnz_history.append(int(update.nnz))
        x = update
        if residual < convergence_threshold:
            converged = True
            break
    return NewtonSchulzResult(
        sign=x,
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        involutority_history=[],
        flops=flops,
        nnz_history=nnz_history,
    )


def sign_newton_schulz_filtered_dense(
    matrix: Union[np.ndarray, sp.spmatrix],
    eps_filter: float = 1e-7,
    convergence_threshold: Optional[float] = None,
    max_iterations: int = 100,
) -> NewtonSchulzResult:
    """Filtered Newton–Schulz iteration executed with dense BLAS kernels.

    Numerically this performs exactly the same computation as
    :func:`sign_newton_schulz_sparse` — the iterate is truncated at
    ``eps_filter`` after every iteration, and the convergence criterion
    defaults to the filter threshold — but the matrix products are evaluated
    as dense GEMMs.  For the scaled-down benchmark systems of this
    reproduction the filtered iterates are not sparse enough for
    ``scipy.sparse`` products to win over BLAS, so the accuracy benchmarks
    (Figs. 1, 6, 7) use this variant for the Newton–Schulz baseline; the
    FLOP accounting still reports the *sparse* operation count (operations on
    retained non-zeros), which is the quantity the distributed cost model
    needs.

    Returns a :class:`NewtonSchulzResult` whose ``sign`` is a CSR matrix, so
    the function is a drop-in replacement for the sparse variant.
    """
    if convergence_threshold is None:
        convergence_threshold = eps_filter
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("sign function requires a square matrix")
    n = dense.shape[0]
    scale = spectral_scale_estimate(dense)
    x = dense / scale
    identity = np.eye(n)
    residual_history: List[float] = []
    nnz_history: List[int] = []
    flops = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        col_nnz = np.count_nonzero(x, axis=0).astype(float)
        row_nnz = np.count_nonzero(x, axis=1).astype(float)
        flops += 2.0 * float(np.dot(col_nnz, row_nnz))
        x_squared = x @ x
        if eps_filter > 0.0:
            x_squared = np.where(np.abs(x_squared) >= eps_filter, x_squared, 0.0)
        inner = 3.0 * identity - x_squared
        flops += 2.0 * float(
            np.dot(np.count_nonzero(x, axis=0), np.count_nonzero(inner, axis=1))
        )
        update = 0.5 * (x @ inner)
        if eps_filter > 0.0:
            update = np.where(np.abs(update) >= eps_filter, update, 0.0)
        residual = float(np.linalg.norm(update - x)) / np.sqrt(n)
        residual_history.append(residual)
        nnz_history.append(int(np.count_nonzero(update)))
        x = update
        if residual < convergence_threshold:
            converged = True
            break
    return NewtonSchulzResult(
        sign=sp.csr_matrix(x),
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        involutority_history=[],
        flops=flops,
        nnz_history=nnz_history,
    )
