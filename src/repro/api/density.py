"""Density-matrix construction via the submatrix sign method (Sec. IV-F/G).

This is the paper's application of the submatrix method: computing the
one-particle reduced density matrix from the Kohn–Sham and overlap matrices,

    D = 1/2 · S^{-1/2} (I − sign(S^{-1/2} K S^{-1/2} − μ I)) S^{-1/2}   (Eq. 16)

by evaluating the sign function with one dense eigendecomposition per
submatrix (Eq. 17), with the extension sign(0) = 0 (Eq. 12) and, at finite
temperature, the Fermi function instead of the Heaviside step.

Both ensembles of the paper are supported:

* **grand canonical** — the chemical potential μ is fixed and the electron
  count follows from it;
* **canonical** — the electron count is fixed and μ is adjusted by bisection.
  Because every submatrix is eigendecomposed anyway, the bisection can reuse
  the cached eigendecompositions and only has to re-apply the (shifted)
  signum to the eigenvalues (Algorithm 1 of the paper) — no sign function or
  eigendecomposition is recomputed during the search.

Since the observable-generic refactor, the execution skeleton lives in
:mod:`repro.api.observables` and the density matrix is one registered
:class:`~repro.api.observables.Observable`.  :func:`compute_density` is the
historical entry point — a thin wrapper requesting the ``density``
observable alone, bitwise identical to the pre-refactor implementation on
every path (batched, sharded ranks, trajectory+checkpoint, served).  The
shared helpers (``prepare_step``, ``assemble_result``, the
decomposition/bisection/scatter internals the serving layer's batcher
reuses) are re-exported here so existing imports keep working.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.api.observables import (  # noqa: F401  (re-exports, see docstring)
    PreparedStep,
    _bisect_mu,
    _decompose_naive,
    _decompose_planned,
    _decompose_sharded,
    _iterative_occupations,
    _make_entry,
    _occupation_stack_solver,
    _occupations,
    _scatter_occupations,
    assemble_result,
    compute_observables,
    prepare_step,
)
from repro.api.results import SubmatrixDFTResult
from repro.core.combination import ColumnGrouping

__all__ = ["compute_density", "assemble_result", "prepare_step", "PreparedStep"]


def compute_density(
    context,
    K,
    S,
    blocks,
    mu: Optional[float] = None,
    n_electrons: Optional[float] = None,
    solver: str = "eigen",
    grouping: Optional[ColumnGrouping] = None,
    mu_tolerance: float = 1e-9,
    max_mu_iterations: int = 200,
    ranks: Optional[int] = None,
    distribution=None,
    replan: str = "full",
    mu_bracket: Optional[Tuple[float, float]] = None,
) -> SubmatrixDFTResult:
    """Compute the density matrix for a given K, S and ensemble.

    Exactly one of ``mu`` (grand-canonical) and ``n_electrons`` (canonical)
    must be provided.  ``context`` supplies the engine configuration, plan
    cache and persistent executor; ``ranks`` overrides
    ``context.config.n_ranks`` for the sharded eigendecomposition cache and
    ``distribution`` fixes the block ownership of its transfer plan.

    ``replan`` controls how a sparsity pattern unseen by the session is
    planned: ``"full"`` (default) builds extraction plans and pipelines from
    scratch, ``"patch"``/``"auto"`` incrementally patch the session's most
    recent plan/pipeline of the same configuration (see
    :meth:`SubmatrixContext.block_plan_for`) — results are bitwise identical
    in every mode.  ``mu_bracket`` optionally seeds the canonical ensemble's
    μ-bisection with a warm ``(lo, hi)`` bracket (expanded automatically if
    it does not bracket the electron count); a warm bracket changes the
    bisection's iterate sequence, so the resulting μ is not bitwise
    reproducible against a cold start — both converge the electron count
    to within ``mu_tolerance``, but at T = 0 the μ values may settle at
    different points of a degenerate gap plateau.

    This wrapper requests the ``density`` observable alone through
    :func:`repro.api.observables.compute_observables`; multi-observable
    callers use that entry point (or :meth:`SubmatrixContext.observables`)
    directly and share one decomposition pass across observables.
    """
    bundle = compute_observables(
        context,
        K,
        S,
        blocks,
        observables=("density",),
        mu=mu,
        n_electrons=n_electrons,
        solver=solver,
        grouping=grouping,
        mu_tolerance=mu_tolerance,
        max_mu_iterations=max_mu_iterations,
        ranks=ranks,
        distribution=distribution,
        replan=replan,
        mu_bracket=mu_bracket,
    )
    return bundle.results["density"]
