"""Bucketed batch evaluation of planned submatrices.

One Python call into NumPy/LAPACK per submatrix leaves most of the wall time
in interpreter overhead once the submatrices are small (the common case in
the linear-scaling regime, where dimensions saturate around a few hundred —
Fig. 4 of the paper).  This module groups the submatrices of a
:class:`~repro.core.plan.SubmatrixPlan` into *buckets* of equal dense
dimension, stacks every bucket into one contiguous 3-D array of shape
``(k, d, d)``, and evaluates the matrix function with a single batched call
per stack (``numpy.linalg.eigh`` and the ``@`` operator broadcast over the
leading axis, dispatching one C-level loop instead of ``k`` Python calls).

Every submatrix is solved at its own dimension, as in the paper: a stack
holds only submatrices of exactly its dimension, never a padded embedding.

Around the solve, a stack task costs a few interpreter steps per stack, not
per member.  Its stack is one gather of the members'
concatenated run indices, and its generating-column panels are formed with
one batched product per generating width into one buffer and written with
one scatter (:meth:`~repro.core.plan.SubmatrixPlan.scatter_panels`).  Per
member Python matters most where it looks cheapest: on ``gc_sparse128``
(128 submatrices of dimension 6–18 in 3 stack tasks) the stacks took 11–16 ms
on the two-worker pool against 6.5 ms inline, because the workers queued on
the GIL for their per-member steps; one pass per stack takes them to ~5.6 ms
on the pool.  The collect mode keeps each stack's spectra and, once μ is
known, runs the same panel former (:func:`spectral_panels`) and the same
``scatter_panels`` per stack, but on the caller thread
(``api/observables._scatter_spectral``): mapped onto the session pool, a
served request's chunks queued behind the other client's stack tasks
(``served_water32`` ``wall_s`` +17 %).

:func:`map_stacks` is the one bucket loop (extract → solve → scatter, whole
matrices or generating-column panels, or collect).  The engine reaches it
through exactly one caller, the rank loop
:func:`repro.core.runner.run_stacks`, which hands it one unit per rank (or
the whole plan); :func:`evaluate_batched` is the standalone single-unit
form for callers that hold a plan and no session.  Either way a kernel's
stacks are solved by the one stack solver,
:class:`~repro.signfn.registry.KernelStackSolver`, and dispatched inline or
on a given executor (:func:`~repro.parallel.executor.map_parallel`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.plan import SubmatrixPlan
from repro.parallel.executor import MAX_BATCH_ELEMENTS, map_parallel, split_chunks
from repro.signfn.registry import BoundKernel, KernelStackSolver, resolve_kernel

__all__ = [
    "Bucket",
    "make_buckets",
    "make_stack_tasks",
    "spectral_panels",
    "map_stacks",
    "evaluate_batched",
]


@dataclasses.dataclass
class Bucket:
    """A set of submatrices evaluated together as one 3-D stack.

    Attributes
    ----------
    dimension:
        Common dense dimension of the stack's submatrices.
    members:
        Indices of the plan groups in this bucket, in plan order.
    """

    dimension: int
    members: List[int]


def make_buckets(dimensions: Sequence[int]) -> List[Bucket]:
    """One bucket per distinct submatrix dimension (``dimensions`` in plan
    order), members in plan order, buckets by ascending dimension."""
    by_dim: Dict[int, List[int]] = {}
    for index, dim in enumerate(dimensions):
        by_dim.setdefault(int(dim), []).append(index)
    return [Bucket(dimension=dim, members=by_dim[dim]) for dim in sorted(by_dim)]


def make_stack_tasks(
    dimensions: Sequence[int], max_batch_elements: Optional[int] = None
) -> List[Bucket]:
    """Buckets split into memory-capped stack tasks.

    Each returned bucket obeys ``k·d² ≤ max_batch_elements`` (default
    :data:`~repro.parallel.executor.MAX_BATCH_ELEMENTS`, the pool's unit of
    work, read from this module at call time; at least one member per
    stack), which bounds the peak size of one 3-D stack and keeps enough
    independent tasks around for the worker pool.
    """
    if max_batch_elements is None:
        max_batch_elements = MAX_BATCH_ELEMENTS
    tasks: List[Bucket] = []
    for bucket in make_buckets(dimensions):
        per_stack = max(1, max_batch_elements // max(1, bucket.dimension**2))
        for chunk in split_chunks(bucket.members, per_stack):
            tasks.append(Bucket(dimension=bucket.dimension, members=chunk))
    return tasks


def _check_stack_shape(evaluated: np.ndarray, expected: tuple) -> None:
    if evaluated.shape != expected:
        raise ValueError(
            f"stack solver returned shape {evaluated.shape}, expected {expected}"
        )


def spectral_panels(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    function: Callable[[np.ndarray], np.ndarray],
):
    """The panel former (see :func:`map_stacks`) of ``Q·g(Λ)·Qᵀ`` for a
    stack's ``eigh`` output, ``g = function`` evaluated per matrix.

    Only the generating columns are formed (Sec. III): per generating width,
    one batched ``(Q·g) @ Q[rows]ᵀ``, ``2·d²·w`` flops per member instead of
    ``2·d³``.  Every spectral product of the engine, streamed or from kept
    spectra, is this former on the same shapes, so the routes are bitwise
    equal (a column slice of the full product differs in the last bits).
    ``Q·g`` is formed in ``eigenvectors``, which the former owns, after the
    generating rows are gathered.
    """
    values = np.array([function(row) for row in eigenvalues])

    def form(parts) -> None:
        slices = [eigenvectors[slots[:, None], rows] for slots, rows, _ in parts]
        np.multiply(eigenvectors, values[:, None, :], out=eigenvectors)
        for (slots, _, into), generating in zip(parts, slices):
            whole = slots.size == len(eigenvectors)
            weighted = eigenvectors if whole else eigenvectors[slots]
            np.matmul(weighted, generating.transpose(0, 2, 1), out=into)

    return form


def map_stacks(
    view: SubmatrixPlan,
    buffer: np.ndarray,
    tasks: Sequence[Bucket],
    solve_stack: Callable[[np.ndarray], Any],
    out: Optional[np.ndarray] = None,
    mapper: Optional[Callable[[Callable, Sequence[Bucket]], list]] = None,
) -> list:
    """The bucket loop of the submatrix method: extract → solve → deliver.

    The one place submatrices become ``(k, d, d)`` stacks and reach a
    solver.  ``(view, buffer)`` is either a whole plan with its packed
    values, ``(plan, plan.pack(matrix))``, or one rank's share of it,
    ``(shard.view, shard.pack_local(packed))`` — a
    :class:`~repro.core.shard.ShardView` *is* a :class:`SubmatrixPlan`, so
    both are treated alike.

    Per task the stack is assembled with one gather
    (:meth:`SubmatrixPlan.extract_stack`) and handed over to ``solve_stack``
    — a fresh buffer nothing else reads, so a solver may work in it.
    Without ``out`` the solver's return values are handed back in task
    order; a callable is first handed the stack's ``(slots, rows)`` per
    generating width (:meth:`SubmatrixPlan.width_parts`) and what it returns
    is handed back (the collect mode's spectral record, whose generating
    weights need the rows).  With ``out`` the result is delivered straight
    into the packed output inside the task (scatter ranges are disjoint
    across tasks and ranks, so tasks may run concurrently) and ``None`` is
    handed back.  The solver then returns either

    * the evaluated ``(k, D, D)`` stack — coerced to the stack's dtype,
      shape-checked and scattered whole (:meth:`SubmatrixPlan.scatter_stack`),
      or
    * a panel former ``form(parts)``: for each ``(slots, rows, into)`` of
      ``parts`` (one per generating width w), it writes into ``into[i]``
      columns ``rows[i]`` of slot ``slots[i]``'s result — **panel
      delivery** (:meth:`SubmatrixPlan.scatter_panels`): only these panels
      are formed, one batched product per width, and written with one
      scatter per stack; the full matrices never exist.  A spectral solver
      forms them with :func:`spectral_panels` (``d²·w`` flops instead of
      ``d³``), Newton–Schulz takes its last step on them
      (:meth:`~repro.signfn.newton_schulz.BatchedNewtonSchulzResult.panels`).

    A task therefore costs a few interpreter steps per stack, not per
    member: on the two-worker pool, per-member panel work queues on the GIL.

    ``mapper(run, tasks)`` dispatches the tasks (default: a plain loop).
    """

    def run(task: Bucket):
        # the stack is the solver's alone: it is not held past the solve
        solved = solve_stack(view.extract_stack(buffer, task.members, task.dimension))
        if out is None:
            if callable(solved):
                return solved(view.width_parts(task.members))
            return solved
        if callable(solved):
            view.scatter_panels(out, task.members, solved, task.dimension)
            return None
        evaluated = np.asarray(solved, dtype=float)
        _check_stack_shape(
            evaluated, (len(task.members), task.dimension, task.dimension)
        )
        view.scatter_stack(out, task.members, evaluated, task.dimension)
        return None

    if mapper is None:
        return [run(task) for task in tasks]
    return mapper(run, tasks)


def evaluate_batched(
    plan: SubmatrixPlan,
    packed: np.ndarray,
    function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    pad_value: float = 1.0,
    max_batch_elements: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    executor=None,
) -> Optional[List[np.ndarray]]:
    """Evaluate f on every planned submatrix via bucketed 3-D stacks.

    Parameters
    ----------
    plan:
        The extraction plan (or a shard's view of it).
    packed:
        Packed input values from ``plan.pack(matrix)``.
    function:
        Per-matrix ``f(a) -> f_a``, applied slice by slice when
        ``batch_function`` is not given (the stack is still assembled once,
        so extraction stays vectorized).
    batch_function:
        Batched kernel mapping a ``(k, d, d)`` stack to the ``(k, d, d)``
        stack of results, e.g.
        :func:`repro.signfn.eigen.sign_via_eigendecomposition_batched`.
        Either is solved through
        :class:`~repro.signfn.registry.KernelStackSolver`.
    pad_value:
        An inert leftover — accepted and ignored, stacks are never padded;
        it stays only because ``benchmarks/e2e`` passes it.
    max_batch_elements:
        Soft cap on ``k·d²`` per stack (default
        :data:`~repro.parallel.executor.MAX_BATCH_ELEMENTS`).
    executor:
        Stacks are independent: with an executor (e.g.
        :func:`~repro.parallel.executor.make_executor`) they are dispatched
        on it, else solved inline.
    out:
        Optional preallocated packed output vector (``plan.new_output()``).
        When given, every evaluated stack is scattered straight into it with
        one vectorized write per stack (zero-copy path) and the function
        returns ``None``; finalize with ``plan.finalize(out)``.

    Returns
    -------
    list or None
        ``f(a_i)`` for every plan group in plan order, or ``None`` when
        ``out`` was given.
    """
    if batch_function is not None:
        kernel = BoundKernel(name="batch_function", batch_function=batch_function)
    elif function is not None:
        kernel = resolve_kernel(function)
    else:
        raise ValueError("provide function or batch_function")
    tasks = make_stack_tasks(plan.dimensions, max_batch_elements=max_batch_elements)
    per_task = map_stacks(
        plan,
        packed,
        tasks,
        KernelStackSolver(kernel),
        out=out,
        mapper=lambda run, items: map_parallel(run, items, executor=executor),
    )
    if out is not None:
        return None
    results: List[Optional[np.ndarray]] = [None] * plan.n_groups
    for task, evaluated in zip(tasks, per_task):
        _check_stack_shape(
            evaluated, (len(task.members), task.dimension, task.dimension)
        )
        for slot, group_index in enumerate(task.members):
            results[group_index] = np.ascontiguousarray(evaluated[slot])
    return results  # type: ignore[return-value]
