"""SCF/MD trajectory driver with cross-step plan and session reuse.

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
  hash, so rank-sharded steps also reuse their shard layouts and bucketed
  stack layouts (:meth:`~repro.core.shard.RankShard.stack_tasks`);
* the session's persistent executor serves every step from one pool.

:func:`run_trajectory` (exposed as :meth:`SubmatrixContext.trajectory`)
drives a sequence of ``(K, S)`` geometry steps through
:func:`repro.api.observables.compute_observables` (one call per step, the
same path a single-shot request takes), watches the pattern content hash
to detect sparsity changes between steps, and returns the per-step
:class:`~repro.api.results.SubmatrixDFTResult` objects together with a
:class:`TrajectoryStats` record — plans built vs cache hits, pattern
changes, per-step wall times and (for sharded runs) fetch volumes.  When the
pattern *does* drift (an atom pair crossing the filter threshold adds or
removes a few blocks) the step is a content-keyed cache miss: its plan and
pipeline are built once, exactly as a fresh session would build them, and a
later return to an earlier pattern is a hit.

**Warm-started μ.**  ``warm_start_mu=True`` seeds each canonical step's
μ-bisection bracket from the previous step's μ (SCF-style).  This is the
one opt-in that trades exactness guarantees for speed: the bisection's
iterate sequence changes, so the converged μ (and with it the occupation
matrix) is *not* bitwise identical to a cold-started single-shot call —
both deliver an electron count within ``mu_tolerance`` of the target, but
at T = 0 the two μ values can even sit at different points of a
degenerate gap plateau.  Every other knob preserves the contract that
per-step results are bitwise identical to fresh single-shot
:meth:`SubmatrixContext.density` calls.

**Checkpoint/resume.**  ``checkpoint=`` points the driver at a
:class:`~repro.api.checkpoint.TrajectoryCheckpoint` directory: every
completed step is persisted atomically and a re-run against the same
directory replays the saved steps instead of recomputing them, resuming
the trajectory at the first unsaved step — with results bitwise identical
to an uninterrupted run (the per-step arrays round-trip as float64, and
the warm-start state is restored from the loaded results).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.api.checkpoint import TrajectoryCheckpoint
from repro.api.observables import compute_observables, validate_request
from repro.api.results import SubmatrixDFTResult
from repro.core.combination import ColumnGrouping

__all__ = [
    "TrajectoryStepRecord",
    "TrajectoryStats",
    "TrajectoryResult",
    "run_trajectory",
    "validate_trajectory",
    "WARM_START_HALF_WIDTH",
    "adaptive_half_width",
]

#: Default half-width (in energy units of K) of the warm-started μ-bisection
#: bracket around the previous step's μ.  The bracket self-expands when μ
#: drifts out of it, so this only tunes the best-case iteration savings.
WARM_START_HALF_WIDTH = 0.05

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
    segment_fetch_bytes / block_fetch_bytes:
        Fetch volumes of the sharded initialization exchange (``None`` for
        single-process steps).
    warm_started:
        Whether this step's μ-bisection was seeded from the previous step's
        μ (``warm_start_mu=True`` and a canonical predecessor existed).
    kernel_fallbacks:
        Submatrices of the step that an iterative kernel did not converge
        and ``eigen`` evaluated instead (see
        :class:`~repro.api.results.SubmatrixDFTResult`; carried over
        verbatim for resumed steps).
    resumed:
        Whether the step was loaded from the trajectory checkpoint instead
        of recomputed (``wall_time`` is then the load time).
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
    segment_fetch_bytes: Optional[float]
    block_fetch_bytes: Optional[float]
    warm_started: bool = False
    kernel_fallbacks: int = 0
    resumed: bool = False


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
    steps_resumed:
        Steps loaded from the trajectory checkpoint instead of recomputed.

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
    steps_resumed: int = 0

    @property
    def reuse_rate(self) -> float:
        """Fraction of plan lookups served from the cache."""
        total = self.plans_built + self.plan_cache_hits
        return self.plan_cache_hits / total if total else 0.0

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


def adaptive_half_width(
    mu_history: "List[float]", mu_tolerance: float
) -> float:
    """Warm-start bracket half-width from the trajectory's μ-drift history.

    With at least two previous μ values the expected drift of the next
    step is estimated as the largest recent ``|Δμ|`` (up to the last four
    steps) and the bracket is sized to twice that — wide enough that a
    drift like the recent ones still lands inside, narrow enough that a
    settled trajectory bisects a tiny interval instead of the fixed
    :data:`WARM_START_HALF_WIDTH`.  The first warm step (a single previous
    μ, no drift measured yet) falls back to the fixed width.  The floor
    ``8 · mu_tolerance`` keeps the bracket meaningfully wider than the
    convergence window; the bracket still self-expands if μ escapes it.
    """
    floor = 8.0 * float(mu_tolerance)
    if len(mu_history) < 2:
        return max(WARM_START_HALF_WIDTH, floor)
    drifts = np.abs(np.diff(np.asarray(mu_history[-5:], dtype=float)))
    drift = float(drifts.max())
    if drift <= 0.0:
        return floor
    return max(2.0 * drift, floor)


def _step_value(value, index: int) -> Optional[float]:
    """Resolve a fixed-or-per-step ensemble parameter for one step."""
    if value is None:
        return None
    if np.ndim(value) == 0:
        return float(value)
    return float(value[index])


def _signature_value(value):
    """JSON form of a fixed-or-per-step ensemble parameter (for checkpoints)."""
    if value is None:
        return None
    if np.ndim(value) == 0:
        return float(value)
    return [float(v) for v in value]


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
) -> Tuple[str, ...]:
    """The checks a trajectory passes before its first step runs.

    :func:`run_trajectory` runs them before it touches a step or the
    checkpoint, and :meth:`~repro.serve.server.DensityService.submit_trajectory`
    before admission, so a malformed trajectory fails where it is submitted
    and holds no in-flight slot.  The whole request is checked
    (:func:`~repro.api.observables.validate_request`, per-step sequences
    included); returns the canonical observable names.
    """
    if steps is None:
        raise ValueError(
            "steps must be a sequence of (K, S) pairs or a callback "
            "step(index) -> (K, S) | None, not None"
        )
    names, _ = validate_request(
        config,
        blocks,
        ("density",) if observables is None else observables,
        mu,
        n_electrons,
        solver,
        observable_params,
        ranks,
    )
    if "density" not in names:
        raise ValueError(
            "trajectory observables must include 'density' (the driver's "
            "warm-start and statistics state reads the density fields)"
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
    warm_start_mu: bool = False,
    checkpoint=None,
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
        applied to every step or a per-step sequence.
    solver, grouping, mu_tolerance, max_mu_iterations, ranks, distribution:
        Forwarded to every step's density calculation (see
        :meth:`SubmatrixContext.density`); with ``ranks`` the steps run
        rank-sharded and reuse the cached sharded pipeline.
    n_steps:
        Maximum number of steps (required information only when ``steps``
        is an unbounded callback; sequences end on their own).
    warm_start_mu:
        Seed each canonical step's μ-bisection bracket from the previous
        step's μ.  The half-width adapts to the trajectory's μ-drift
        history (:func:`adaptive_half_width`: twice the largest recent
        ``|Δμ|``, floored at ``8 · mu_tolerance``); the first warm step,
        with no drift measured yet, uses the fixed
        :data:`WARM_START_HALF_WIDTH`, and any bracket self-expands when
        the seed does not bracket the electron count.
        **Bitwise contract:**
        this *breaks* the bitwise identity of μ (and hence of the
        occupation matrices) with cold-started single-shot calls — both
        starts converge to an electron count within ``mu_tolerance`` of
        the target, but the μ iterate sequences differ, and at T = 0 the
        two can settle at different points of a degenerate gap plateau.
        Leave ``False`` (default) whenever exact reproducibility across
        call styles matters.
    checkpoint:
        Optional checkpoint directory (a path or a
        :class:`~repro.api.checkpoint.TrajectoryCheckpoint`).  Every
        completed step is persisted there atomically, and a later call
        pointed at the same directory *loads* the saved steps instead of
        recomputing them — a trajectory killed at step k resumes at
        step k.  **Bitwise contract:** resumed runs are bitwise identical
        to uninterrupted ones — results round-trip as float64 arrays, and
        the previous step's μ and pattern fingerprint are restored from
        the loaded result, so the first recomputed step (including a
        warm-started μ-bisection) sees exactly the state it would have
        seen in one uninterrupted run.  Resuming with different trajectory
        parameters raises
        :class:`~repro.api.checkpoint.CheckpointError`.
    observables / observable_params:
        ``observables=None`` (default) keeps the historical behavior:
        every step yields a plain
        :class:`~repro.api.results.SubmatrixDFTResult`.  A non-``None``
        sequence of observable names (which must include ``"density"`` —
        the driver's warm-start/statistics state reads the density fields)
        makes every step an
        :class:`~repro.api.results.ObservableBundle` assembled from one
        shared decomposition pass per step
        (:meth:`SubmatrixContext.observables`); ``observable_params``
        forwards per-observable assembly parameters.  Checkpoints persist
        and replay the full bundle, and the checkpoint signature records
        the observable set — a density-only checkpoint written before this
        option existed still resumes a density-only trajectory.
    on_step:
        Optional callback ``on_step(index, result)`` invoked after every
        completed step, resumed steps included — the feedback hook of the
        SCF driver (:func:`repro.api.scf.run_scf`).  Exceptions propagate
        and abort the trajectory.  Step ``i+1`` is pulled from ``steps``
        only after step ``i``'s callback has returned, so a callback may
        produce the next step's input.

    Returns
    -------
    TrajectoryResult
        Per-step results (bitwise identical to fresh single-shot
        :meth:`SubmatrixContext.density` calls unless ``warm_start_mu``
        is enabled) and the reuse statistics.
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
    )

    ckpt: Optional[TrajectoryCheckpoint] = None
    if checkpoint is not None:
        ckpt = (
            checkpoint
            if isinstance(checkpoint, TrajectoryCheckpoint)
            else TrajectoryCheckpoint(checkpoint)
        )
        signature = {
            "solver": solver,
            "mu": _signature_value(mu),
            "n_electrons": _signature_value(n_electrons),
            "ranks": None if ranks is None else int(ranks),
            "warm_start_mu": bool(warm_start_mu),
            "mu_tolerance": float(mu_tolerance),
            "max_mu_iterations": int(max_mu_iterations),
        }
        if observables is not None:
            # only non-default requests extend the signature, so density-only
            # checkpoint directories written before multi-observable
            # trajectories existed keep resuming unchanged
            signature["observables"] = sorted(observable_names)
        ckpt.ensure_signature(signature)

    results: List[SubmatrixDFTResult] = []
    records: List[TrajectoryStepRecord] = []
    previous_fingerprint: Optional[str] = None
    previous_mu: Optional[float] = None
    mu_history: List[float] = []
    pattern_changes = 0
    session_before = context.stats()
    executors_at_start = session_before["executors_created"]
    cache_before = dict(context.plan_cache.stats)
    # the overlap root the session used last: what the walk's first step
    # leaves behind if it arrives with a different overlap content
    overlap_root_key = context._advance_overlap_root(None)

    for index, (K, S) in enumerate(_iterate_steps(steps, n_steps)):
        step_n_electrons = _step_value(n_electrons, index)
        warm = (
            warm_start_mu
            and step_n_electrons is not None
            and previous_mu is not None
        )
        resumed = ckpt is not None and ckpt.has_step(index)
        if resumed:
            # replay a checkpointed step: the loaded result is
            # bit-exact, so restoring previous_mu/previous_fingerprint
            # from it hands the next computed step exactly the state of
            # an uninterrupted run — warm-started brackets included
            load_start = time.perf_counter()
            result = ckpt.load_step(index)
            step_wall = time.perf_counter() - load_start
            warm = False
        else:
            bracket_half_width = adaptive_half_width(
                mu_history, mu_tolerance
            )
            bracket = (
                (
                    previous_mu - bracket_half_width,
                    previous_mu + bracket_half_width,
                )
                if warm
                else None
            )
            result = compute_observables(
                context,
                K,
                S,
                blocks,
                observables=observable_names,
                mu=_step_value(mu, index),
                n_electrons=step_n_electrons,
                solver=solver,
                grouping=grouping,
                mu_tolerance=mu_tolerance,
                max_mu_iterations=max_mu_iterations,
                ranks=ranks,
                distribution=distribution,
                mu_bracket=bracket,
                observable_params=observable_params,
            )
            if observables is None:
                result = result["density"]
            step_wall = result.wall_time
            overlap_root_key = context._advance_overlap_root(overlap_root_key)
            if ckpt is not None:
                ckpt.save_step(index, result)
        cache_after = dict(context.plan_cache.stats)
        session_after = context.stats()
        fingerprint = result.pattern_fingerprint or ""
        changed = fingerprint != previous_fingerprint
        if changed and previous_fingerprint is not None:
            pattern_changes += 1
        records.append(
            TrajectoryStepRecord(
                step=index,
                wall_time=step_wall,
                pattern_fingerprint=fingerprint,
                pattern_changed=changed,
                plans_built=cache_after["misses"] - cache_before["misses"],
                plan_cache_hits=cache_after["hits"] - cache_before["hits"],
                pipelines_built=session_after["pipelines_built"]
                - session_before["pipelines_built"],
                mu=result.mu,
                n_electrons=result.n_electrons,
                mu_iterations=result.mu_iterations,
                segment_fetch_bytes=result.segment_fetch_bytes,
                block_fetch_bytes=result.block_fetch_bytes,
                warm_started=bool(warm),
                kernel_fallbacks=result.kernel_fallbacks,
                resumed=resumed,
            )
        )
        results.append(result)
        previous_fingerprint = fingerprint
        previous_mu = float(result.mu)
        mu_history.append(previous_mu)
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
        steps_resumed=sum(1 for r in records if r.resumed),
    )
    return TrajectoryResult(results=results, stats=stats)
