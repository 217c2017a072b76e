"""SCF/MD trajectory driver: one loop over one session.

The submatrix method's headline use case (Sec. VII of the paper) is the
repeated construction of the density matrix along an SCF or MD trajectory:
the geometry moves a little every step, the matrix *values* change, but the
block-sparsity pattern of the filtered orthogonalized Kohn–Sham matrix is
stable for many consecutive steps.  That is exactly the regime the session
machinery was built for —

* the :class:`~repro.core.plan.PlanCache` keys extraction plans by a
  content hash of the sparsity pattern, so a value-only step reuses the
  cached gather/scatter arrays without replanning;
* the context's pipeline cache keys the per-rank
  :class:`~repro.core.shard.ShardedPlan` and transfer plan by the same
  hash, so rank-sharded steps also reuse their shard layouts and their
  exact-dimension stack layouts (:meth:`~repro.core.shard.RankShard.stack_tasks`);
* the session's persistent executor serves every step from one pool.

:func:`run_trajectory` (exposed as :meth:`SubmatrixContext.trajectory`)
is a plain loop: every ``(K, S)`` step is one
:func:`repro.api.observables.compute_observables` call — the path a
single-shot request takes, with no state carried from the step before — so
every step is bitwise a cold :meth:`SubmatrixContext.density` call on the
same input.  Around that call the loop watches the pattern content hash to
detect sparsity changes and returns the per-step
:class:`~repro.api.results.SubmatrixDFTResult` objects together with a
:class:`TrajectoryStats` record — plans built vs cache hits, pattern
changes, per-step wall times and (for sharded runs) fetch volumes.  When the
pattern *does* drift (an atom pair crossing the filter threshold adds or
removes a few blocks) the step is a content-keyed cache miss: its plan and
pipeline are built once, exactly as a fresh session would build them, and a
later return to an earlier pattern is a hit.

The :meth:`SubmatrixContext.trajectory` docstring covers the two inert
keywords that method accepts and ignores; neither reaches this module.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.api.observables import compute_observables, validate_request
from repro.api.results import SubmatrixDFTResult
from repro.core.combination import ColumnGrouping

__all__ = [
    "TrajectoryStepRecord",
    "TrajectoryStats",
    "TrajectoryResult",
    "run_trajectory",
    "validate_trajectory",
]

#: A geometry step: the Kohn–Sham and overlap matrices of one configuration.
StepPair = Tuple[object, object]

#: Steps may be given as a materialized sequence, any iterable/generator of
#: ``(K, S)`` pairs, or a callback ``step(index) -> (K, S) | None`` (``None``
#: ends the trajectory).
StepsLike = Union[Iterable[StepPair], Callable[[int], Optional[StepPair]]]


@dataclasses.dataclass
class TrajectoryStepRecord:
    """Bookkeeping of one trajectory step.

    Attributes
    ----------
    step:
        Zero-based step index.
    wall_time:
        Wall-clock seconds of the step's density calculation.
    pattern_fingerprint:
        Content hash of the step's filtered block-sparsity pattern (the
        plan-cache key component).
    pattern_changed:
        Whether the pattern differs from the previous step's (the first
        step always counts as changed — there is nothing to reuse yet).
    plans_built / plan_cache_hits:
        Plan-cache misses (plan constructions) and hits incurred by this
        step.
    pipelines_built:
        Sharded pipelines built by this step (0 on reuse).
    mu / n_electrons / mu_iterations:
        Ensemble outcome of the step (see
        :class:`~repro.api.results.SubmatrixDFTResult`).
    kernel_fallbacks:
        Submatrices of the step that an iterative kernel did not converge
        and ``eigen`` evaluated instead (see
        :class:`~repro.api.results.SubmatrixDFTResult`).
    """

    step: int
    wall_time: float
    pattern_fingerprint: str
    pattern_changed: bool
    plans_built: int
    plan_cache_hits: int
    pipelines_built: int
    mu: float
    n_electrons: float
    mu_iterations: int
    kernel_fallbacks: int = 0


@dataclasses.dataclass
class TrajectoryStats:
    """Aggregate statistics of one trajectory run.

    Attributes
    ----------
    n_steps:
        Number of geometry steps driven.
    plans_built / plan_cache_hits:
        Total plan constructions and cache hits across the run; a
        value-only trajectory builds exactly one plan and hits the cache on
        every later step.
    pattern_changes:
        Steps (beyond the first) whose sparsity pattern differed from their
        predecessor — each one invalidates the cross-step reuse once.
    executors_created:
        Worker pools created during the run (at most one: the session's
        persistent executor, and zero when it existed already or the
        configuration is serial).
    pipelines_built:
        Sharded pipelines built during the run (0 when every rank-sharded
        step reused the context's cached pipeline).
    total_wall_time:
        Sum of the per-step wall times.
    steps:
        Per-step :class:`TrajectoryStepRecord` entries.
    kernel_fallbacks:
        Total of the per-step ``eigen`` fallbacks (see
        :class:`~repro.api.results.SubmatrixDFTResult`).

    All ratio properties are well-defined for empty trajectories (they
    return 0.0 instead of dividing by zero).
    """

    n_steps: int
    plans_built: int
    plan_cache_hits: int
    pattern_changes: int
    executors_created: int
    pipelines_built: int
    total_wall_time: float
    steps: List[TrajectoryStepRecord]
    kernel_fallbacks: int = 0

    @property
    def plans_patched(self) -> int:
        """Inert leftover, always 0: nothing patches a plan any more; the
        name stays only because ``benchmarks/e2e`` reads it."""
        return 0


@dataclasses.dataclass
class TrajectoryResult:
    """Per-step density results plus the trajectory's reuse statistics.

    With ``observables=`` requested, the per-step entries are
    :class:`~repro.api.results.ObservableBundle` objects instead of plain
    :class:`~repro.api.results.SubmatrixDFTResult`; the ``mus`` /
    ``band_energies`` accessors read the density fields through the
    bundle's attribute delegation either way.
    """

    results: List[SubmatrixDFTResult]
    stats: TrajectoryStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SubmatrixDFTResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> SubmatrixDFTResult:
        return self.results[index]

    @property
    def mus(self) -> np.ndarray:
        """Chemical potential of every step (float64, even for 0 steps)."""
        return np.asarray([r.mu for r in self.results], dtype=np.float64)

    @property
    def band_energies(self) -> np.ndarray:
        """Band-structure energy of every step (float64, even for 0 steps)."""
        return np.asarray(
            [r.band_energy for r in self.results], dtype=np.float64
        )


def _iterate_steps(
    steps: StepsLike, n_steps: Optional[int]
) -> Iterator[StepPair]:
    """Normalize the two step specifications into one iterator."""
    if callable(steps):
        index = 0
        while n_steps is None or index < n_steps:
            pair = steps(index)
            if pair is None:
                return
            yield pair
            index += 1
        return
    if n_steps is not None:
        for index, pair in enumerate(steps):
            if index >= n_steps:
                return
            yield pair
        return
    yield from steps


def _step_value(value, index: int, label: str) -> Optional[float]:
    """Resolve a fixed-or-per-step ensemble parameter for one step."""
    if value is None:
        return None
    if np.ndim(value) == 0:
        return float(value)
    if index >= len(value):
        raise ValueError(
            f"step {index} has no {label}: the per-step {label} sequence "
            f"holds {len(value)} value(s)"
        )
    return float(value[index])


def validate_trajectory(
    config,
    steps,
    blocks,
    mu=None,
    n_electrons=None,
    solver: str = "eigen",
    observables=None,
    observable_params=None,
    ranks: Optional[int] = None,
    n_steps: Optional[int] = None,
    distribution=None,
    mu_tolerance: float = 1e-9,
    max_mu_iterations: int = 200,
    grouping: Optional[ColumnGrouping] = None,
) -> Tuple[str, ...]:
    """The checks a trajectory passes before its first step runs.

    :func:`run_trajectory` runs them before it touches a step, so a
    malformed trajectory fails before any work.  The whole request is
    checked (:func:`~repro.api.observables.validate_request`, per-step
    sequences included), and a per-step ``mu``/``n_electrons`` sequence must
    cover every step of a ``steps`` sequence (up to ``n_steps``); a
    callback's steps are only known as they come, so there a missing value
    raises at its step, before that step runs.  Returns the canonical
    observable names.
    """
    if steps is None:
        raise ValueError(
            "steps must be a sequence of (K, S) pairs or a callback "
            "step(index) -> (K, S) | None, not None"
        )
    names, _, _ = validate_request(
        config,
        blocks,
        ("density",) if observables is None else observables,
        mu,
        n_electrons,
        solver,
        observable_params,
        ranks,
        distribution,
        mu_tolerance,
        max_mu_iterations,
        grouping=grouping,
    )
    if "density" not in names:
        raise ValueError(
            "trajectory observables must include 'density' (the driver's "
            "per-step statistics read the density fields)"
        )
    if not callable(steps) and hasattr(steps, "__len__"):
        count = len(steps) if n_steps is None else min(len(steps), n_steps)
        for label, value in (("mu", mu), ("n_electrons", n_electrons)):
            if value is not None and np.ndim(value) > 0 and len(value) < count:
                raise ValueError(
                    f"the per-step {label} sequence holds {len(value)} "
                    f"value(s) for a trajectory of {count} steps"
                )
    return names


def run_trajectory(
    context,
    steps: StepsLike,
    blocks,
    mu=None,
    n_electrons=None,
    solver: str = "eigen",
    grouping: Optional[ColumnGrouping] = None,
    mu_tolerance: float = 1e-9,
    max_mu_iterations: int = 200,
    ranks: Optional[int] = None,
    distribution=None,
    n_steps: Optional[int] = None,
    observables=None,
    observable_params=None,
    on_step=None,
) -> TrajectoryResult:
    """Drive a sequence of geometry steps through one session.

    Parameters
    ----------
    context:
        The :class:`~repro.api.context.SubmatrixContext` whose plan cache,
        pipeline cache and persistent executor the steps share.
    steps:
        Geometry steps: an iterable of ``(K, S)`` matrix pairs or a
        callback ``step(index) -> (K, S)`` (return ``None`` to end the
        trajectory early).  ``None`` itself is rejected — an empty
        trajectory must be an empty sequence or a callback returning
        ``None`` at step 0.
    blocks:
        The :class:`~repro.chem.hamiltonian.BlockStructure` shared by all
        steps (MD moves atoms, not basis functions).
    mu / n_electrons:
        Exactly one must be given: a fixed chemical potential
        (grand-canonical) or electron count (canonical) — either a scalar
        applied to every step or a per-step sequence, which must hold a
        value for every step (:func:`validate_trajectory`).
    solver, grouping, mu_tolerance, max_mu_iterations, ranks, distribution:
        Forwarded to every step's density calculation (see
        :meth:`SubmatrixContext.density`); with ``ranks`` the steps run
        rank-sharded and reuse the cached sharded pipeline.
    n_steps:
        Maximum number of steps (required information only when ``steps``
        is an unbounded callback; sequences end on their own).
    observables / observable_params:
        ``observables=None`` (default): every step yields a plain
        :class:`~repro.api.results.SubmatrixDFTResult`.  A non-``None``
        sequence of observable names (which must include ``"density"`` —
        the per-step statistics read the density fields) makes every step
        an :class:`~repro.api.results.ObservableBundle` assembled from one
        shared decomposition pass per step
        (:meth:`SubmatrixContext.observables`); ``observable_params``
        forwards per-observable assembly parameters.
    on_step:
        Optional callback ``on_step(index, result)`` invoked after every
        completed step — the feedback hook of an SCF loop, which mixes the
        step's density into the next step's K.  Exceptions propagate and
        abort the trajectory.  Step ``i+1`` is pulled from ``steps`` only
        after step ``i``'s callback has returned, so a callback may produce
        the next step's input.

    Returns
    -------
    TrajectoryResult
        Per-step results, each bitwise a cold
        :meth:`SubmatrixContext.density` call on the same input, and the
        reuse statistics.
    """
    context._check_open()
    observable_names = validate_trajectory(
        context.config,
        steps,
        blocks,
        mu=mu,
        n_electrons=n_electrons,
        solver=solver,
        observables=observables,
        observable_params=observable_params,
        ranks=ranks,
        n_steps=n_steps,
        distribution=distribution,
        mu_tolerance=mu_tolerance,
        max_mu_iterations=max_mu_iterations,
        grouping=grouping,
    )

    results: List[SubmatrixDFTResult] = []
    records: List[TrajectoryStepRecord] = []
    previous_fingerprint: Optional[str] = None
    pattern_changes = 0
    session_before = context.stats()
    executors_at_start = session_before["executors_created"]
    cache_before = dict(context.plan_cache.stats)
    # the overlap root the session used last: what the walk's first step
    # leaves behind if it arrives with a different overlap content
    overlap_root_key = context._advance_overlap_root(None)

    for index, (K, S) in enumerate(_iterate_steps(steps, n_steps)):
        result = compute_observables(
            context,
            K,
            S,
            blocks,
            observables=observable_names,
            mu=_step_value(mu, index, "mu"),
            n_electrons=_step_value(n_electrons, index, "n_electrons"),
            solver=solver,
            grouping=grouping,
            mu_tolerance=mu_tolerance,
            max_mu_iterations=max_mu_iterations,
            ranks=ranks,
            distribution=distribution,
            observable_params=observable_params,
        )
        if observables is None:
            result = result["density"]
        overlap_root_key = context._advance_overlap_root(overlap_root_key)
        cache_after = dict(context.plan_cache.stats)
        session_after = context.stats()
        fingerprint = result.pattern_fingerprint or ""
        changed = fingerprint != previous_fingerprint
        if changed and previous_fingerprint is not None:
            pattern_changes += 1
        records.append(
            TrajectoryStepRecord(
                step=index,
                wall_time=result.wall_time,
                pattern_fingerprint=fingerprint,
                pattern_changed=changed,
                plans_built=cache_after["misses"] - cache_before["misses"],
                plan_cache_hits=cache_after["hits"] - cache_before["hits"],
                pipelines_built=session_after["pipelines_built"]
                - session_before["pipelines_built"],
                mu=result.mu,
                n_electrons=result.n_electrons,
                mu_iterations=result.mu_iterations,
                kernel_fallbacks=result.kernel_fallbacks,
            )
        )
        results.append(result)
        previous_fingerprint = fingerprint
        cache_before = cache_after
        session_before = session_after
        if on_step is not None:
            on_step(index, result)

    stats = TrajectoryStats(
        n_steps=len(results),
        plans_built=sum(r.plans_built for r in records),
        plan_cache_hits=sum(r.plan_cache_hits for r in records),
        pattern_changes=pattern_changes,
        executors_created=context.stats()["executors_created"] - executors_at_start,
        pipelines_built=sum(r.pipelines_built for r in records),
        total_wall_time=float(sum(r.wall_time for r in records)),
        steps=records,
        kernel_fallbacks=sum(r.kernel_fallbacks for r in records),
    )
    return TrajectoryResult(results=results, stats=stats)
