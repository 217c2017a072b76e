"""End-to-end submatrix evaluation of a matrix function (legacy facade).

:class:`SubmatrixMethod` is the historical entry point for evaluating an
arbitrary unary matrix function on every (dense) submatrix and scattering
the generating columns back into a sparse result.  Since the session API
refactor it is a thin facade over :class:`repro.api.context.SubmatrixContext`:
the constructor folds its keyword arguments into an
:class:`~repro.api.config.EngineConfig` and every call delegates to a
private context, so results are bitwise identical to
``SubmatrixContext.apply`` and both surfaces share one implementation.

It supports both granularities used in the paper:

* element level — one submatrix per matrix column (or per group of columns),
  operating on ``scipy.sparse`` matrices; this matches the original
  formulation of the submatrix method;
* block level — one submatrix per DBCSR block column (or per group of block
  columns), operating on :class:`BlockSparseMatrix`; this is the granularity
  of the CP2K implementation (Sec. IV-C).

There is one execution engine: the cached vectorized extraction plan of
:mod:`repro.core.plan` plus the bucketed stack evaluator of
:mod:`repro.core.batch` (Sec. III-A: independent submatrices become stacks
of nearly dense local matrices).  The per-submatrix reference
implementation is the ``extract_*``/``scatter_*`` kernels of
:mod:`repro.core.submatrix`, which the tests compare this engine against.

New code should prefer the session API directly — one
:class:`~repro.api.context.SubmatrixContext` amortizes plans and worker
pools across many evaluations and accepts registered kernel names
(``context.apply(matrix, "eigen", mu=0.2)``).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.api.config import EngineConfig
from repro.api.results import SubmatrixMethodResult
from repro.core.plan import PlanCache, SubmatrixPlan
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.coo import CooBlockList

__all__ = ["SubmatrixMethod", "SubmatrixMethodResult"]

#: Legacy type alias; the registry's :class:`repro.signfn.registry.MatrixFunction`
#: is the named-kernel counterpart of this bare-callable contract.
MatrixFunction = Callable[[np.ndarray], np.ndarray]

_UNSET = object()


class SubmatrixMethod:
    """Approximate evaluation of a matrix function via the submatrix method.

    Parameters
    ----------
    function:
        Unary matrix function applied to each dense submatrix, e.g.
        ``lambda a: sign_via_eigendecomposition(a, mu)``, or the name of a
        registered kernel (``"eigen"``, ``"newton_schulz"``, …).
    max_workers:
        Worker count for the parallel evaluation of submatrices.
    backend:
        ``"serial"`` (default, deterministic) or ``"thread"``.
    batch_function:
        Optional batched kernel ``(k, d, d) -> (k, d, d)``; without it each
        stack is evaluated with one ``function`` call per slice
        (extraction/scatter stay vectorized).
    bucket_pad:
        Padding granularity of the stacks (see
        :func:`repro.core.batch.make_buckets`); padding requires ``function``
        to be a genuine matrix function.  ``"auto"`` picks the granularity
        from the plan's measured dimension histogram
        (:func:`repro.core.load_balance.choose_bucket_pad`).
    plan_cache:
        Optional private :class:`~repro.core.plan.PlanCache`; the process-wide
        default cache is used when omitted.
    config:
        An :class:`~repro.api.config.EngineConfig` supplying all of the
        above at once; individual keyword arguments override its fields.
    """

    def __init__(
        self,
        function: Union[MatrixFunction, str],
        max_workers=_UNSET,
        backend=_UNSET,
        batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        bucket_pad=_UNSET,
        plan_cache: Optional[PlanCache] = None,
        config: Optional[EngineConfig] = None,
    ):
        if isinstance(function, str):
            from repro.signfn.registry import get_kernel

            get_kernel(function)  # fail fast (UnknownKernelError) on typos
        elif not callable(function):
            raise TypeError("function must be callable")
        if config is None:
            config = EngineConfig()
        # only explicitly passed kwargs override the config
        overrides = {}
        if backend is not _UNSET:
            overrides["backend"] = backend
        if max_workers is not _UNSET:
            overrides["max_workers"] = max_workers
        if bucket_pad is not _UNSET:
            overrides["bucket_pad"] = bucket_pad
        if overrides:
            config = config.replace(**overrides)
        from repro.api.context import SubmatrixContext
        from repro.core.plan import DEFAULT_PLAN_CACHE

        self.function = function
        self.batch_function = batch_function
        # legacy contract: the process-wide default cache when none is given
        # (a SubmatrixContext built directly owns a private cache instead)
        self.context = SubmatrixContext(
            config,
            plan_cache=DEFAULT_PLAN_CACHE if plan_cache is None else plan_cache,
        )

    # legacy attribute surface, now views into the session config
    @property
    def config(self) -> EngineConfig:
        return self.context.config

    @property
    def max_workers(self) -> Optional[int]:
        return self.config.max_workers

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def bucket_pad(self) -> Optional[Union[int, str]]:
        return self.config.bucket_pad

    @property
    def plan_cache(self) -> PlanCache:
        return self.context.plan_cache

    def close(self) -> None:
        """Shut down the private session's persistent executor (idempotent)."""
        self.context.close()

    def __enter__(self) -> "SubmatrixMethod":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # element level
    # ------------------------------------------------------------------ #
    def apply_elementwise(
        self,
        matrix: sp.spmatrix,
        column_groups: Optional[Sequence[Sequence[int]]] = None,
        plan: Optional[SubmatrixPlan] = None,
    ) -> SubmatrixMethodResult:
        """Apply the matrix function column-by-column on a SciPy matrix.

        Parameters
        ----------
        matrix:
            Sparse symmetric matrix.
        column_groups:
            Groups of columns that share a submatrix; defaults to one
            submatrix per column (the original formulation).
        plan:
            Pre-built :class:`~repro.core.plan.ElementSubmatrixPlan` to reuse
            (skips the cache lookup).
        """
        return self.context.apply_elementwise(
            matrix,
            self.function,
            column_groups=column_groups,
            batch_function=self.batch_function,
            plan=plan,
        )

    # ------------------------------------------------------------------ #
    # block level
    # ------------------------------------------------------------------ #
    def apply_blockwise(
        self,
        matrix: BlockSparseMatrix,
        column_groups: Optional[Sequence[Sequence[int]]] = None,
        coo: Optional[CooBlockList] = None,
        plan: Optional[SubmatrixPlan] = None,
    ) -> SubmatrixMethodResult:
        """Apply the matrix function block-column-wise on a DBCSR-style matrix.

        Parameters
        ----------
        matrix:
            Block-sparse symmetric matrix.
        column_groups:
            Groups of block columns that share a submatrix; defaults to one
            submatrix per block column (the granularity CP2K gets "for free"
            because sparsity is only resolved at block level, Sec. IV-C).
        coo:
            Optional pre-built global COO block list.
        plan:
            Pre-built :class:`~repro.core.plan.BlockSubmatrixPlan` to reuse.
        """
        return self.context.apply_blockwise(
            matrix,
            self.function,
            column_groups=column_groups,
            coo=coo,
            batch_function=self.batch_function,
            plan=plan,
        )
