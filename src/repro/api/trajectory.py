"""SCF/MD trajectory driver: one loop over one session.

The submatrix method's headline use case (Sec. VII of the paper) is the
repeated construction of the density matrix along an SCF or MD trajectory:
the geometry moves a little every step, the matrix *values* change, but the
block-sparsity pattern of the filtered orthogonalized Kohn–Sham matrix is
stable for many consecutive steps.  The session's caches are keyed by
content — the :class:`~repro.core.plan.PlanCache` and the sharded pipelines
by the pattern's hash, the overlap roots by S — so a value-only step reuses
its plan and a changed pattern builds one, exactly as a fresh session would.

:func:`run_trajectory` (exposed as :meth:`SubmatrixContext.trajectory`) is
that loop: one :func:`~repro.api.observables.validate_request` before the
first step, then one :func:`~repro.api.observables.compute_observables` call
per ``(K, S)`` step, so every step is bitwise a cold
:meth:`SubmatrixContext.density` call on the same input.  Besides the loop
it counts the plan-cache traffic of its steps.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.api.observables import compute_observables, validate_request
from repro.api.results import SubmatrixDFTResult

__all__ = ["TrajectoryStats", "TrajectoryResult", "run_trajectory"]

#: A geometry step: the Kohn–Sham and overlap matrices of one configuration.
StepPair = Tuple[object, object]

#: Steps may be given as any iterable of ``(K, S)`` pairs or a callback
#: ``step(index) -> (K, S) | None`` (``None`` ends the trajectory).
StepsLike = Union[Iterable[StepPair], Callable[[int], Optional[StepPair]]]


@dataclasses.dataclass
class TrajectoryStats:
    """Plan-cache traffic of one trajectory run.

    Attributes
    ----------
    n_steps:
        Number of geometry steps driven.
    plans_built / plan_cache_hits:
        Plan-cache misses (plan constructions) and hits of the steps' own
        calls; a value-only trajectory builds at most one plan and hits the
        cache on every later step.
    pattern_changes:
        Steps whose ``pattern_fingerprint`` differs from their predecessor's.
    """

    n_steps: int
    plans_built: int
    plan_cache_hits: int
    pattern_changes: int

    @property
    def plans_patched(self) -> int:
        """Inert leftover, always 0: nothing patches a plan any more; the
        name stays only because ``benchmarks/e2e`` reads it."""
        return 0


@dataclasses.dataclass
class TrajectoryResult:
    """Per-step density results plus the trajectory's plan-cache traffic."""

    results: List[SubmatrixDFTResult]
    stats: TrajectoryStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SubmatrixDFTResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> SubmatrixDFTResult:
        return self.results[index]


def _iterate_steps(steps: StepsLike) -> Iterator[StepPair]:
    if not callable(steps):
        yield from steps
        return
    for index in itertools.count():
        pair = steps(index)
        if pair is None:
            return
        yield pair


def run_trajectory(
    context, steps: StepsLike, blocks, on_step=None, **request
) -> TrajectoryResult:
    """Drive a sequence of geometry steps through one session.

    Parameters
    ----------
    context:
        The :class:`~repro.api.context.SubmatrixContext` whose caches and
        executor the steps share.
    steps:
        An iterable of ``(K, S)`` pairs or a callback
        ``step(index) -> (K, S) | None`` (``None`` ends the trajectory).
        ``None`` itself is a :class:`ValueError`.
    blocks:
        The :class:`~repro.chem.hamiltonian.BlockStructure` of every step.
    on_step:
        Optional ``on_step(index, result)``, called after every step and
        before the next one is pulled, so an SCF callback may produce the
        next step's input.  Its exceptions abort the trajectory.
    **request:
        The density request every step makes, checked once before the first
        step by :func:`~repro.api.observables.validate_request`.  A step is a
        density: ``observables=`` and ``observable_params=`` are a
        :class:`TypeError`.
    """
    for keyword in ("observables", "observable_params"):
        if keyword in request:
            raise TypeError(
                f"trajectory() got an unexpected keyword argument {keyword!r}: "
                "every step is a density request"
            )
    if steps is None:
        raise ValueError(
            "steps must be a sequence of (K, S) pairs or a callback "
            "step(index) -> (K, S) | None, not None"
        )
    checked = validate_request(context.config, blocks, **request)
    results: List[SubmatrixDFTResult] = []
    hits = misses = 0
    for index, (K, S) in enumerate(_iterate_steps(steps)):
        before = context.plan_cache.stats
        result = compute_observables(context, K, S, blocks, checked)["density"]
        after = context.plan_cache.stats
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
        results.append(result)
        if on_step is not None:
            on_step(index, result)
    fingerprints = [result.pattern_fingerprint for result in results]
    stats = TrajectoryStats(
        n_steps=len(results),
        plans_built=misses,
        plan_cache_hits=hits,
        pattern_changes=sum(a != b for a, b in zip(fingerprints, fingerprints[1:])),
    )
    return TrajectoryResult(results=results, stats=stats)
