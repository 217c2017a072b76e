"""2nd-order Newton–Schulz sign iteration (Eq. 11 of the paper).

    X_0 = A / ||A||,     X_{k+1} = 1/2 · X_k (3 I − X_k²)

The iteration converges quadratically to sign(A) for matrices without purely
imaginary eigenvalues.  CP2K uses it (on DBCSR sparse matrices, with element
filtering after every multiplication) as the default algorithm for
grand-canonical linear-scaling DFT; it is the baseline the submatrix method
is compared against in the paper's Figs. 6, 7 and 10.

* :func:`sign_newton_schulz_batched` — the submatrix engine's kernel on a
  ``(k, n, n)`` stack of *symmetric* matrices.  One call allocates three
  stack-sized buffers — its working copy ``X`` and two work buffers — and
  nothing stack-sized per iteration: ``S = X·Xᵀ`` (``matmul(..., out=)``,
  which numpy dispatches to ``syrk``: half the flops of a general product),
  ``Z = S·X`` (``out=``), ``Z ← X − Z`` in place, the residual from one
  ``einsum`` over ``Z``, ``X += ½Z`` in place.  Near convergence a matrix's
  residual is first bounded from ``S`` alone; once the bound meets the stop,
  the matrix leaves before the ``S·X`` product and the caller takes its last
  step on the columns it needs (:class:`BatchedNewtonSchulzResult`).  For
  symmetric ``X`` this is the iteration above; in floating point it is the
  Newton–Schulz iteration for the orthogonal polar factor, ``½(3I − XXᵀ)X``,
  which damps the antisymmetric rounding error between the two sign
  subspaces and leaves the rest untouched.  The order of the second product
  matters: ``X·(X·Xᵀ)`` *doubles* that error every iteration (3e-13 after 10
  iterations, overflow near 60 — a matrix with a 1e-3 relative gap never
  converges), ``(X·Xᵀ)·X`` holds it at rounding level through hundreds.  The
  full result is symmetrised once, so it is exactly symmetric.  It
  evaluates the step as ``X + ½·(X − X³)``: the step itself is the
  convergence residual and no ``3I − X²`` intermediate exists.  It rescales
  ``X`` by ``1/sqrt(||X·Xᵀ||₁)`` in the first step (free with ``X·Xᵀ``;
  ρ(X)² ≤ ||X·Xᵀ||₁), and ``converged`` means the *next* step would move the
  iterate by less than the threshold: in the quadratic regime the step after
  one of size r is at most about 1.5·sqrt(n)·r², one confirming step fewer
  than stopping on ``r < threshold``;
* :func:`sign_newton_schulz_filtered_dense` — CP2K's filtered iteration,
  the baseline of Figs. 1, 6 and 7: elements below ``eps_filter`` are
  dropped after every multiplication and the filtering threshold also serves
  as the convergence criterion (Sec. V-A).  It records the number of
  floating-point operations on the retained non-zeros, the count a sparse
  product would perform, so that the distributed cost model can reuse the
  measurement.

The per-matrix dense iteration and the CSR form of the filtered one are test
references (``tests/submatrix_reference.py``): the batched kernel is held to
the first's iteration counts and values, the filtered one to the second's
iterations, values and flop count.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.signfn.utils import SYMMETRY_TOLERANCE, check_finite, spectral_scale_estimate

__all__ = [
    "NewtonSchulzResult",
    "BatchedNewtonSchulzResult",
    "sign_newton_schulz_batched",
    "sign_newton_schulz_filtered_dense",
]


#: The quadratic regime: previous residual and ``||I − X²||_F`` below this (an
#: eigenvalue near 0 still grows linearly, by a step that predicts nothing).
_QUADRATIC_REGIME = 1e-2


@dataclasses.dataclass
class NewtonSchulzResult:
    """Result of a filtered Newton–Schulz sign iteration.

    Attributes
    ----------
    sign:
        The converged (or last) iterate.
    iterations:
        Number of iterations performed.
    converged:
        Whether the convergence criterion was met.
    residual_history:
        ||X_{k+1} − X_k||_F / sqrt(n) per iteration.
    flops:
        Floating-point operations spent in matrix multiplications.
    nnz_history:
        Number of stored non-zeros per iteration.
    """

    sign: Union[np.ndarray, sp.csr_matrix]
    iterations: int
    converged: bool
    residual_history: List[float]
    flops: float
    nnz_history: List[int]


@dataclasses.dataclass
class BatchedNewtonSchulzResult:
    """Result of a batched Newton–Schulz sign iteration, every matrix held
    before its last step ``X + ½(X − S·X)``.

    ``s``/``x`` are the ``(k, n, n)`` stacks of ``S = X·Xᵀ`` and ``X`` in slot
    order — matrix ``i`` at ``slots[i]``, with ``S = I`` once its iterate is
    final; ``iterations`` (the last step included) and ``converged`` are per
    matrix.  Calling the result with ``(i, columns)`` takes matrix ``i``'s
    last step on those columns only, :meth:`panels` takes it for a stack's
    members at once — the panels :func:`~repro.core.batch.map_stacks`
    delivers — and :attr:`sign` on all columns.
    """

    s: np.ndarray
    x: np.ndarray
    slots: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def __call__(self, member: int, columns=slice(None)) -> np.ndarray:
        """The one final step, on ``columns`` only (``2·d²·w`` flops, not
        ``2·d³``); bitwise ``X[:, columns]`` when ``S = I``."""
        slot = self.slots[member]
        panel = self.x[slot][:, columns]
        step = self.s[slot] @ panel
        np.subtract(panel, step, out=step)
        step *= 0.5
        step += panel
        return step

    def panels(self, parts) -> None:
        """The panel former of :func:`~repro.core.batch.map_stacks`: for each
        ``(members, columns, out)`` of ``parts``, ``out[i]`` becomes matrix
        ``members[i]``'s last step on its ``columns[i]`` (a ``(k, w)``
        array) — one batched product per part whose slices are
        :meth:`__call__`'s GEMMs on operands laid out alike, so bitwise its
        panels."""
        rows = np.arange(self.x.shape[-1])
        for members, columns, out in parts:
            slots = self.slots[members]
            # column-major slices, as ``x[slot][:, columns]`` lays them out
            panel = self.x[slots[:, None, None], rows, columns[:, :, None]]
            panel = panel.transpose(0, 2, 1)
            np.matmul(self.s[slots], panel, out=out)
            np.subtract(panel, out, out=out)
            out *= 0.5
            out += panel

    @functools.cached_property
    def sign(self) -> np.ndarray:
        """The ``(k, n, n)`` signs: the last step on all columns, symmetrised."""
        sign = np.empty_like(self.x)
        for member, matrix in enumerate(sign):
            matrix[...] = self(member)
            matrix += matrix.T
            matrix *= 0.5
        return sign

    def finish(self, members, signs: np.ndarray) -> None:
        """Make ``signs`` the result of ``members``: ``X ← signs``, ``S ← I``."""
        self.x[self.slots[members]] = signs
        self.s[self.slots[members]] = np.eye(self.s.shape[-1])


def _retire(leaving: np.ndarray, buffers) -> int:
    """Swap the flagged active slots behind the kept ones; the kept count."""
    kept = leaving.size - int(np.count_nonzero(leaving))
    behind = kept + np.flatnonzero(~leaving[kept:])
    for a, b in zip(np.flatnonzero(leaving[:kept]), behind):
        for buffer in buffers:
            buffer[[a, b]] = buffer[[b, a]]
    return kept


def sign_newton_schulz_batched(
    stack: np.ndarray,
    convergence_threshold: float = 1e-10,
    max_iterations: int = 100,
    shift: float = 0.0,
) -> BatchedNewtonSchulzResult:
    """sign(A − shift·I) for a ``(k, n, n)`` stack of symmetric matrices.

    Each matrix is iterated with stacked products (one BLAS call per matrix
    and product) and frozen on its own stop — or a non-finite residual, which
    freezes it as *not* converged — so ``iterations``/``converged`` equal
    those of the per-matrix reference iteration and every matrix's values
    are bitwise independent of what else is in the stack.
    The result holds every matrix before its last step.

    ``stack`` is never written to.  The call allocates its working copy
    (whose diagonal takes the ``shift``) and two work buffers of the stack's
    size (see the module docstring); a matrix that leaves is swapped behind
    the active ones in place.  The ``(X·Xᵀ)·X`` form converges to the
    orthogonal polar factor, which is the sign only for symmetric input: a
    stack asymmetric beyond 1e-8 (relative to the prescale) raises
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
    if asymmetry > SYMMETRY_TOLERANCE:
        raise ValueError(
            f"stack is not symmetric (max asymmetry {asymmetry:.3e} of the "
            f"prescaled matrices exceeds {SYMMETRY_TOLERANCE:.0e})"
        )
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    # per slot: the member, its last residual, whether its step is quadratic
    order, previous = np.arange(count), np.full(count, np.inf)
    quadratic = np.zeros(count, dtype=bool)
    active, root_n = count, np.sqrt(n)
    for sweep in range(max_iterations):
        if active == 0:
            break
        xa, s = x[:active], x_squared[:active]
        np.matmul(xa, xa.transpose(0, 2, 1), out=s)
        near = previous[:active] < _QUADRATIC_REGIME
        if sweep == 0:
            # ρ(X)² ≤ ‖X·Xᵀ‖₁: the first step's tight scale comes with its syrk
            norm = np.abs(s, out=step[:active]).sum(axis=1).max(axis=1)
            norm[norm == 0.0] = 1.0
            s /= norm[:, None, None]
            xa /= np.sqrt(norm)[:, None, None]
        elif near.any():
            # this step's residual ½‖X(I − S)‖_F/√n ≤ ½·√(1+δ)·δ/√n, δ = ‖I − S‖_F
            flat = s.reshape(active, n * n)
            delta_sq = np.einsum("ij,ij->i", flat, flat) - 2.0 * np.einsum("ijj->i", s)
            delta = np.sqrt(np.maximum(delta_sq + n, 0.0))
            quadratic[:active] = near & (delta < _QUADRATIC_REGIME)
            bound = 0.5 * np.sqrt(1.0 + delta) * delta / root_n
            last = near & (1.5 * root_n * bound**2 < convergence_threshold)
            if last.any():
                iterations[order[:active][last]] += 1
                converged[order[:active][last]] = True
                active = _retire(last, (x, x_squared, order, previous, quadratic))
                xa, s = x[:active], x_squared[:active]
        z = step[:active]
        np.matmul(s, xa, out=z)
        np.subtract(xa, z, out=z)
        flat = z.reshape(active, n * n)
        residual = 0.5 * np.sqrt(np.einsum("ij,ij->i", flat, flat)) / root_n
        z *= 0.5
        xa += z
        iterations[order[:active]] += 1
        previous[:active] = residual
        # the next step would move X by ≤ 1.5·√n·r² (quadratic regime only)
        done = quadratic[:active] & (1.5 * root_n * residual**2 < convergence_threshold)
        frozen = done | ~np.isfinite(residual)
        if frozen.any():
            converged[order[:active][done]] = True
            kept = _retire(frozen, (x, order, previous, quadratic))
            x_squared[kept:active] = np.eye(n)  # final iterates: S = I
            active = kept
    x_squared[:active] = np.eye(n)
    slots = np.argsort(order)
    return BatchedNewtonSchulzResult(x_squared, x, slots, iterations, converged)


def sign_newton_schulz_filtered_dense(
    matrix: Union[np.ndarray, sp.spmatrix],
    eps_filter: float = 1e-7,
    convergence_threshold: Optional[float] = None,
    max_iterations: int = 100,
) -> NewtonSchulzResult:
    """Filtered Newton–Schulz iteration executed with dense BLAS kernels.

    The iterate is truncated at ``eps_filter`` after every multiplication,
    and the convergence criterion on ||X_{k+1} − X_k||_F / sqrt(n) defaults
    to the filter threshold, as in CP2K (Sec. V-A: "For the Newton-Schulz
    iteration scheme, eps_filter also determines the convergence
    criterion").  The products are dense GEMMs: for the scaled-down
    benchmark systems of this reproduction the filtered iterates are not
    sparse enough for ``scipy.sparse`` products to win over BLAS.  The
    accuracy benchmarks (Figs. 1, 6, 7) use it for the Newton–Schulz
    baseline; the FLOP accounting reports the *sparse* operation count
    (operations on retained non-zeros), which is the quantity the
    distributed cost model needs.  A CSR-storage twin in the test reference
    holds it to the same iterations, values and flop count.

    Returns a :class:`NewtonSchulzResult` whose ``sign`` is a CSR matrix.  It
    refuses NaN/Inf input (the filter would map NaN to zero and report a
    spurious convergence) and stops on a non-finite residual, not converged.
    """
    if convergence_threshold is None:
        convergence_threshold = eps_filter
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("sign function requires a square matrix")
    check_finite(dense)
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
        converged = residual < convergence_threshold
        if converged or not np.isfinite(residual):
            break
    return NewtonSchulzResult(
        sign=sp.csr_matrix(x),
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        flops=flops,
        nnz_history=nnz_history,
    )
