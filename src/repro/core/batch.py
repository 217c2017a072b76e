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

Submatrices of unequal dimension can optionally share a bucket by padding to
a common bucket dimension: a submatrix ``a`` of dimension ``d < b`` is
embedded as ``blockdiag(a, pad_value·I)``.  Because block-diagonal structure
is invariant under any (analytic) matrix function, the top-left ``d×d``
corner of ``f(blockdiag(a, c·I))`` equals ``f(a)`` exactly — padding is
only valid for genuine matrix functions, not for arbitrary elementwise
callables, which must use ``pad_to=None``.

:func:`map_stacks` is the one bucket loop (extract → solve → scatter, whole
matrices or generating-column panels, or collect).  The engine reaches it
through exactly one caller, the rank loop
:func:`repro.core.runner.run_stacks`, which hands it one unit per rank (or
the whole plan); :func:`evaluate_batched` is the standalone single-unit
form for callers that hold a plan and no session.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.load_balance import pad_dimensions, resolve_bucket_pad
from repro.core.plan import SubmatrixPlan
from repro.parallel.executor import map_parallel, split_chunks

__all__ = [
    "Bucket",
    "make_buckets",
    "make_stack_tasks",
    "stack_solver",
    "spectral_panel",
    "map_stacks",
    "evaluate_batched",
]

#: Soft cap on the element count of one 3-D stack (k·d² ≤ this); large
#: buckets are split into several stacks to bound peak memory.
MAX_BATCH_ELEMENTS = 1 << 24


@dataclasses.dataclass
class Bucket:
    """A set of submatrices evaluated together as one 3-D stack.

    Attributes
    ----------
    dimension:
        Common (padded) dense dimension of the stack.
    members:
        Indices of the plan groups in this bucket, in plan order.
    """

    dimension: int
    members: List[int]


def make_buckets(
    dimensions: Sequence[int], pad_to: Optional[int] = None
) -> List[Bucket]:
    """Bucket submatrix dimensions for batched evaluation.

    Parameters
    ----------
    dimensions:
        Dense dimension of every submatrix, in plan order.
    pad_to:
        If given, dimensions are rounded up to the next multiple of
        ``pad_to`` and submatrices sharing a rounded dimension share a
        bucket (fewer, larger stacks at the cost of padded flops).  With
        ``None`` only exactly equal dimensions are batched.  Stacks of a
        plan whose ``run`` exceeds 1 need a multiple of it
        (:func:`~repro.core.load_balance.resolve_bucket_pad`).
    """
    by_dim: Dict[int, List[int]] = {}
    for index, key in enumerate(pad_dimensions(dimensions, pad_to)):
        by_dim.setdefault(int(key), []).append(index)
    return [Bucket(dimension=dim, members=by_dim[dim]) for dim in sorted(by_dim)]


def make_stack_tasks(
    dimensions: Sequence[int],
    pad_to: Optional[int] = None,
    max_batch_elements: int = MAX_BATCH_ELEMENTS,
) -> List[Bucket]:
    """Buckets split into memory-capped stack tasks.

    Each returned bucket obeys ``k·d² ≤ max_batch_elements`` (at least one
    member per stack), which bounds the peak size of one 3-D stack and keeps
    enough independent tasks around for the worker pool.
    """
    tasks: List[Bucket] = []
    for bucket in make_buckets(dimensions, pad_to=pad_to):
        per_stack = max(1, max_batch_elements // max(1, bucket.dimension**2))
        for chunk in split_chunks(bucket.members, per_stack):
            tasks.append(Bucket(dimension=bucket.dimension, members=chunk))
    return tasks


def stack_solver(
    function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """The ``(k, d, d) -> (k, d, d)`` solver of a kernel's two callables.

    ``batch_function`` evaluates the whole stack in one call; without it the
    per-matrix ``function`` is applied slice by slice.  Either way the
    result is coerced to the stack's dtype.
    """
    if function is None and batch_function is None:
        raise ValueError("provide function or batch_function")

    def solve(stack: np.ndarray) -> np.ndarray:
        if batch_function is not None:
            return np.asarray(batch_function(stack), dtype=stack.dtype)
        return np.stack(
            [
                np.asarray(function(stack[slot]), dtype=stack.dtype)
                for slot in range(stack.shape[0])
            ]
        )

    return solve


def _check_stack_shape(evaluated: np.ndarray, expected: tuple) -> None:
    if evaluated.shape != expected:
        raise ValueError(
            f"stack solver returned shape {evaluated.shape}, expected {expected}"
        )


def spectral_panel(
    eigenvectors: np.ndarray, values: np.ndarray, generating_slice: np.ndarray
) -> np.ndarray:
    """The generating columns of ``Q·diag(values)·Qᵀ`` as a ``(d, w)`` panel.

    ``generating_slice`` is the contiguous ``Q[generating_rows]`` (``w × d``).
    Only these columns are copied back (Sec. III), so the product costs
    ``2·d²·w`` flops where the full matrix costs ``2·d³``.  Every spectral
    product of the engine — streamed or from cached spectra — is this one
    expression on operands laid out alike, which is what keeps the routes
    bitwise equal (a column slice of the full product differs from it in the
    last bits).
    """
    return (eigenvectors * values) @ generating_slice.T


def map_stacks(
    view: SubmatrixPlan,
    buffer: np.ndarray,
    tasks: Sequence[Bucket],
    solve_stack: Callable[[np.ndarray], Any],
    out: Optional[np.ndarray] = None,
    pad_value: float = 1.0,
    mapper: Optional[Callable[[Callable, Sequence[Bucket]], list]] = None,
) -> list:
    """The bucket loop of the submatrix method: extract → solve → deliver.

    The one place submatrices become ``(k, d, d)`` stacks and reach a
    solver.  ``(view, buffer)`` is either a whole plan with its packed
    values, ``(plan, plan.pack(matrix))``, or one rank's share of it,
    ``(shard.view, shard.pack_local(packed))`` — a
    :class:`~repro.core.shard.ShardView` *is* a :class:`SubmatrixPlan`, so
    both are treated alike.

    Per task the stack is assembled (padded with ``pad_value``) and handed
    over to ``solve_stack`` — a fresh buffer nothing else reads, so a solver
    may work in it.  Without ``out`` the solver's return values are
    handed back in task order as they are — e.g. the ``(eigenvalues,
    eigenvectors)`` pair of ``numpy.linalg.eigh``.  With ``out`` the result
    is delivered straight into the packed output inside the task (scatter
    ranges are disjoint across tasks and ranks, so tasks may run
    concurrently) and ``None`` is handed back.  The solver then returns
    either

    * the evaluated ``(k, D, D)`` stack — coerced to the stack's dtype,
      shape-checked and scattered whole (:meth:`SubmatrixPlan.scatter_stack`,
      the iterative kernels), or
    * the pair ``(values, vectors)`` of shapes ``(k, D)`` and ``(k, D, D)``
      standing for ``vectors·diag(values)·vectorsᵀ`` — **panel delivery**:
      per member only the generating-column panel is formed
      (:func:`spectral_panel`, ``d²·w`` flops instead of ``d³``) and written
      with :meth:`SubmatrixPlan.scatter_columns`; the full matrices never
      exist and the vectors die with the task.

    ``mapper(run, tasks)`` dispatches the tasks (default: a plain loop).
    """

    def run(task: Bucket):
        stack = view.extract_stack(
            buffer, task.members, task.dimension, pad_value=pad_value
        )
        solved = solve_stack(stack)
        if out is None:
            return solved
        if isinstance(solved, tuple):
            values, vectors = solved
            _check_stack_shape(vectors, stack.shape)
            _check_stack_shape(values, stack.shape[:2])
            for slot, group_index in enumerate(task.members):
                group, q = view.groups[group_index], vectors[slot]
                panel = spectral_panel(q, values[slot], q[group.generating_rows()])
                # rows past a padded member's dimension are the padding's
                view.scatter_columns(out, group_index, panel[: group.dimension])
            return None
        evaluated = np.asarray(solved, dtype=stack.dtype)
        _check_stack_shape(evaluated, stack.shape)
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
    pad_to: Optional[int] = None,
    pad_value: float = 1.0,
    max_batch_elements: int = MAX_BATCH_ELEMENTS,
    max_workers: Optional[int] = None,
    backend: str = "serial",
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
        Per-matrix fallback ``f(a) -> f_a``; used when ``batch_function`` is
        not given (the stack is still assembled once, so extraction stays
        vectorized).
    batch_function:
        Batched kernel mapping a ``(k, d, d)`` stack to the ``(k, d, d)``
        stack of results, e.g.
        :func:`repro.signfn.eigen.sign_via_eigendecomposition_batched`.
    pad_to:
        Bucket padding granularity (see :func:`make_buckets`), rounded up to
        a whole number of ``plan.run``; requires a genuine matrix function.
    pad_value:
        Diagonal value of the padding block (must be in f's domain; the
        default 1.0 suits sign/occupation functions).
    max_batch_elements:
        Soft cap on ``k·d²`` per stack.
    max_workers, backend, executor:
        Stacks are independent and dispatched through
        :func:`repro.parallel.executor.map_parallel`; a pre-built
        ``executor`` is reused across calls instead of creating a pool per
        evaluation.
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
    dimensions = plan.dimensions
    tasks = make_stack_tasks(
        dimensions,
        pad_to=resolve_bucket_pad(pad_to, dimensions, plan.run),
        max_batch_elements=max_batch_elements,
    )
    per_task = map_stacks(
        plan,
        packed,
        tasks,
        stack_solver(function, batch_function),
        out=out,
        pad_value=pad_value,
        mapper=lambda run, items: map_parallel(
            run, items, max_workers, backend, executor=executor
        ),
    )
    if out is not None:
        return None
    results: List[Optional[np.ndarray]] = [None] * plan.n_groups
    for task, evaluated in zip(tasks, per_task):
        _check_stack_shape(
            evaluated, (len(task.members), task.dimension, task.dimension)
        )
        for slot, group_index in enumerate(task.members):
            dim = dimensions[group_index]
            results[group_index] = np.ascontiguousarray(evaluated[slot, :dim, :dim])
    return results  # type: ignore[return-value]
