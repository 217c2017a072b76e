"""Density-matrix construction via the submatrix sign method (legacy facade).

:class:`SubmatrixDFTSolver` is the historical entry point for the paper's
application of the submatrix method — computing the one-particle reduced
density matrix from the Kohn–Sham and overlap matrices (Eq. 16), in the
grand-canonical and canonical ensembles.  Since the session API refactor it
is a thin facade over :meth:`repro.api.context.SubmatrixContext.density`
(implemented in :mod:`repro.api.observables`): the constructor folds its
keyword arguments into an :class:`~repro.api.config.EngineConfig`, results
are bitwise identical to the session path, and with ``n_ranks > 1`` in the
config the eigendecomposition cache + μ-bisection run rank-sharded through
the :class:`~repro.core.runner.DistributedSubmatrixPipeline`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.api.config import EngineConfig
from repro.api.results import DecomposedSubmatrix, SubmatrixDFTResult
from repro.chem.hamiltonian import BlockStructure
from repro.core.combination import ColumnGrouping
from repro.core.plan import PlanCache
from repro.signfn.registry import get_kernel

__all__ = ["SubmatrixDFTSolver", "SubmatrixDFTResult"]

#: Backwards-compatible alias of the relocated eigendecomposition cache entry.
_DecomposedSubmatrix = DecomposedSubmatrix

_UNSET = object()


class SubmatrixDFTSolver:
    """Linear-scaling density-matrix solver based on the submatrix method.

    Parameters
    ----------
    eps_filter:
        Truncation threshold applied to the orthogonalized Kohn–Sham matrix
        (CP2K's ``eps_filter``); controls the sparsity and hence the
        submatrix dimensions, the runtime and the accuracy (Figs. 6/7).
    temperature:
        Electronic temperature in Kelvin; 0 uses the extended signum
        (Eq. 12), > 0 uses Fermi occupations (Sec. IV-F).
    solver:
        Per-submatrix sign kernel, resolved through the kernel registry:
        ``"eigen"`` (dense eigendecomposition, the paper's choice; its
        cached spectra are required for canonical ensembles),
        ``"newton_schulz"`` / ``"pade"`` (iterative, grand-canonical only;
        used by the solver ablation study), or any user-registered
        matrix-function sign kernel.
    grouping:
        Optional :class:`ColumnGrouping` combining block columns into larger
        submatrices (Sec. IV-C); default is one submatrix per block column.
    config:
        The :class:`~repro.api.config.EngineConfig` of the solver's session:
        backend, workers, bucket padding, rank count, balancing.
        ``eps_filter``/``temperature``/``spin_degeneracy`` given as explicit
        keyword arguments override the config's fields.
    spin_degeneracy:
        2 for closed-shell systems.
    bucket_pad:
        Padding granularity of the bucketed stacks used by the *iterative*
        solvers (an integer, ``None`` for exact-dimension buckets or
        ``"auto"`` to pick from the dimension histogram).  The
        eigendecomposition path always uses exact-dimension buckets:
        Algorithm 1 reuses the cached per-submatrix eigendecompositions
        during the μ-bisection, and a padded block-diagonal embedding has a
        different spectrum bookkeeping.
    plan_cache:
        Optional private plan cache; the process-wide default cache is used
        when omitted.
    """

    def __init__(
        self,
        eps_filter=_UNSET,
        temperature=_UNSET,
        solver: str = "eigen",
        grouping: Optional[ColumnGrouping] = None,
        spin_degeneracy=_UNSET,
        bucket_pad=_UNSET,
        plan_cache: Optional[PlanCache] = None,
        config: Optional[EngineConfig] = None,
    ):
        # the single registry-backed solver-string validation (fail fast on
        # typos; solver capabilities are checked at compute time)
        get_kernel(solver)
        if config is None:
            config = EngineConfig()
        # only explicitly passed kwargs override the config; the sentinel
        # keeps config=EngineConfig(eps_filter=..., temperature=...) intact
        overrides = {}
        if eps_filter is not _UNSET:
            overrides["eps_filter"] = float(eps_filter)
        if temperature is not _UNSET:
            overrides["temperature"] = float(temperature)
        if spin_degeneracy is not _UNSET:
            overrides["spin_degeneracy"] = float(spin_degeneracy)
        if bucket_pad is not _UNSET:
            overrides["bucket_pad"] = bucket_pad
        if overrides:
            config = config.replace(**overrides)

        from repro.api.context import SubmatrixContext
        from repro.core.plan import DEFAULT_PLAN_CACHE

        self.solver = solver
        self.grouping = grouping
        # legacy contract: the process-wide default cache when none is given
        self.context = SubmatrixContext(
            config,
            plan_cache=DEFAULT_PLAN_CACHE if plan_cache is None else plan_cache,
        )

    # legacy attribute surface, now views into the session config
    @property
    def config(self) -> EngineConfig:
        return self.context.config

    @property
    def eps_filter(self) -> float:
        return self.config.eps_filter

    @property
    def temperature(self) -> float:
        return self.config.temperature

    @property
    def spin_degeneracy(self) -> float:
        return self.config.spin_degeneracy

    @property
    def bucket_pad(self) -> Optional[Union[int, str]]:
        return self.config.bucket_pad

    @property
    def plan_cache(self) -> PlanCache:
        return self.context.plan_cache

    def close(self) -> None:
        """Shut down the private session's persistent executor (idempotent)."""
        self.context.close()

    def __enter__(self) -> "SubmatrixDFTSolver":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def compute_density(
        self,
        K: Union[np.ndarray, sp.spmatrix],
        S: Union[np.ndarray, sp.spmatrix],
        blocks: BlockStructure,
        mu: Optional[float] = None,
        n_electrons: Optional[float] = None,
        mu_tolerance: float = 1e-9,
        max_mu_iterations: int = 200,
    ) -> SubmatrixDFTResult:
        """Compute the density matrix for a given K, S and ensemble.

        Exactly one of ``mu`` (grand-canonical) and ``n_electrons``
        (canonical) must be provided.  Delegates to
        :meth:`repro.api.context.SubmatrixContext.density`; with
        ``config.n_ranks > 1`` the eigendecomposition cache is rank-sharded
        through the distributed pipeline.
        """
        return self.context.density(
            K,
            S,
            blocks,
            mu=mu,
            n_electrons=n_electrons,
            solver=self.solver,
            grouping=self.grouping,
            mu_tolerance=mu_tolerance,
            max_mu_iterations=max_mu_iterations,
        )
