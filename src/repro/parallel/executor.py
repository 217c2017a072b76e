"""Parallel execution helpers.

The submatrix method is embarrassingly parallel: every submatrix can be
solved independently (Sec. III-A of the paper).  Inside CP2K this parallelism
is expressed with MPI ranks and OpenMP threads; here it is expressed through
a thread pool: NumPy/LAPACK release the GIL inside the dense kernels, so
threads give genuine speedups, and the workers scatter straight into the
shared packed output buffer.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "map_parallel",
    "default_worker_count",
    "split_chunks",
    "make_executor",
    "TaskExecutionError",
    "wrap_task_error",
]


class TaskExecutionError(RuntimeError):
    """A ``map_parallel`` task failed; carries the task context.

    Attributes
    ----------
    task_index / n_tasks:
        Zero-based index of the failing item and the total item count.
    original:
        The exception the task raised.

    The concrete class raised is a dynamically created subclass of *both*
    this type and the original exception's type (``TaskValueError``,
    ``TaskKeyError``, …), so existing ``except ValueError`` /
    ``pytest.raises(ValueError)`` call sites keep catching wrapped worker
    errors while callers can still tell which task died.
    """

    task_index: int = -1
    n_tasks: int = 0
    original: Optional[BaseException] = None


_WRAPPED_ERROR_TYPES: Dict[type, type] = {TaskExecutionError: TaskExecutionError}


def _wrapped_error_type(base: type) -> type:
    """Dual-inheritance error type ``(TaskExecutionError, base)``, cached."""
    cached = _WRAPPED_ERROR_TYPES.get(base)
    if cached is not None:
        return cached
    if issubclass(base, TaskExecutionError):
        wrapped = base
    else:
        try:
            wrapped = type(
                "Task" + base.__name__,
                (TaskExecutionError, base),
                {"__module__": __name__, "__qualname__": "Task" + base.__name__},
            )
        except TypeError:  # exotic metaclass/layout — plain wrapper
            wrapped = TaskExecutionError
    _WRAPPED_ERROR_TYPES[base] = wrapped
    return wrapped


def wrap_task_error(
    error: BaseException, index: int, n_tasks: int
) -> TaskExecutionError:
    """Wrap a worker exception with the failing task's index.

    The wrapped error remains an instance of the original type (see
    :class:`TaskExecutionError`); construction falls back to the plain
    wrapper for exception types whose ``__init__`` rejects a single
    message argument.
    """
    message = (
        f"task {index} of {n_tasks} failed with {type(error).__name__}: {error}"
    )
    wrapped_type = _wrapped_error_type(type(error))
    try:
        wrapped = wrapped_type(message)
    except Exception:
        try:
            # the original type's __init__ demands its own arguments; build
            # the instance without it so the dual-inheritance isinstance
            # contract holds
            wrapped = wrapped_type.__new__(wrapped_type)
            BaseException.__init__(wrapped, message)
            wrapped.__dict__.update(getattr(error, "__dict__", {}))
        except Exception:
            wrapped = TaskExecutionError(message)
    wrapped.task_index = int(index)
    wrapped.n_tasks = int(n_tasks)
    wrapped.original = error
    return wrapped


class _TaskFailure:
    """Worker-side capture of one failed task (re-raised by the caller).

    Capturing instead of raising keeps the failing *index* attached —
    ``Executor.map`` loses the item index when an exception propagates
    through its iterator — and lets every other task still run.
    """

    __slots__ = ("index", "error")

    def __init__(self, index: int, error: BaseException):
        self.index = index
        self.error = error


class _GuardedTask:
    """Per-item runner that captures a failure instead of raising it."""

    __slots__ = ("function",)

    def __init__(self, function: Callable):
        self.function = function

    def __call__(self, indexed: Tuple[int, T]):
        index, item = indexed
        try:
            return self.function(item)
        except Exception as error:
            return _TaskFailure(index, error)


_BACKENDS = ("serial", "thread")


def default_worker_count() -> int:
    """Default number of workers: the machine's CPU count (at least 1)."""
    return max(1, os.cpu_count() or 1)


def make_executor(
    backend: str, max_workers: Optional[int] = None
) -> Optional[concurrent.futures.Executor]:
    """Build the executor that ``map_parallel`` would create for ``backend``.

    Returns ``None`` for configurations where ``map_parallel`` runs serially
    (``backend="serial"`` or a single worker), so callers can unconditionally
    pass the result through as ``executor=``.  The caller owns the pool and
    must ``shutdown()`` it (or use it as a context manager).
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if max_workers is None:
        max_workers = default_worker_count()
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    if backend == "serial" or max_workers == 1:
        return None
    return concurrent.futures.ThreadPoolExecutor(max_workers=max_workers)


def split_chunks(items: Sequence[T], max_chunk: int) -> List[List[T]]:
    """Split a sequence into consecutive chunks of at most ``max_chunk`` items.

    Used by the bucketed batch evaluator to bound the memory of one 3-D
    submatrix stack (and to create enough tasks for the pool): a bucket with
    many members is processed as several stacks of at most ``max_chunk``
    matrices each.  Order is preserved; the last chunk may be shorter.
    """
    if max_chunk < 1:
        raise ValueError("max_chunk must be at least 1")
    items = list(items)
    return [items[i : i + max_chunk] for i in range(0, len(items), max_chunk)]


def map_parallel(
    function: Callable[[T], R],
    items: Sequence[T],
    max_workers: Optional[int] = None,
    backend: str = "thread",
    executor: Optional[concurrent.futures.Executor] = None,
) -> List[R]:
    """Apply ``function`` to every item, optionally in parallel.

    Parameters
    ----------
    function:
        Callable applied to each item.
    items:
        Input sequence; results are returned in the same order.
    max_workers:
        Worker count; defaults to the CPU count.  A value of 1 or the
        ``"serial"`` backend short-circuits to a plain loop, which is also
        the fallback that keeps results deterministic in tests.
    backend:
        ``"serial"`` or ``"thread"``.
    executor:
        Optional pre-built :class:`concurrent.futures.Executor`.  When given
        it is used as-is and left running afterwards, so a caller that maps
        many batches (e.g. the distributed pipeline across μ-bisection
        iterations) pays the pool start-up cost once instead of per call.
        ``max_workers`` and ``backend`` are ignored in that case (except
        that single-item inputs still short-circuit to a plain loop).

    Returns
    -------
    list
        Results in input order.

    Raises
    ------
    TaskExecutionError
        When a task raises, its exception is re-raised wrapped with the
        failing task index.  The wrapper subclasses the
        original exception type, so existing ``except``/``pytest.raises``
        sites keep matching; the original is chained as ``__cause__`` and
        kept on ``.original``.  With several failures the lowest task
        index wins: every task still runs, so which error surfaces does not
        depend on how the pool interleaved them.
    """
    items = list(items)
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    runner = _GuardedTask(function)
    indexed = list(enumerate(items))
    if executor is not None:
        if len(items) <= 1:
            raw = [runner(pair) for pair in indexed]
        else:
            raw = list(executor.map(runner, indexed))
    elif max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    else:
        if max_workers is None:
            max_workers = default_worker_count()
        if backend == "serial" or max_workers == 1 or len(items) <= 1:
            raw = [runner(pair) for pair in indexed]
        else:
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=max_workers
            ) as pool:
                raw = list(pool.map(runner, indexed))
    for result in raw:
        if isinstance(result, _TaskFailure):
            raise wrap_task_error(result.error, result.index, len(items)) from (
                result.error
            )
    return raw
