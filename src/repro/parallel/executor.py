"""Parallel execution helpers.

The submatrix method is embarrassingly parallel: every submatrix can be
solved independently (Sec. III-A of the paper).  Inside CP2K this parallelism
is expressed with MPI ranks and OpenMP threads; here it is expressed through
a thread pool: NumPy/LAPACK release the GIL inside the dense kernels, so
threads give genuine speedups, and the workers scatter straight into the
shared packed output buffer.

Work reaches a worker one way: :func:`map_parallel` runs its items on an
executor it is given — a session's one persistent pool, built by
:func:`make_executor` — or inline; it never builds a pool of its own.

The default worker count (:func:`default_worker_count`) is the CPUs this
process may use divided by the BLAS threads per call, as pinned by
``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else ``MKL_NUM_THREADS``.
With none of them set, BLAS already spreads every call over all CPUs, so the
default is one worker and no pool.  Threaded results are bitwise the serial
ones: every kernel works one matrix at a time, so neither the worker that
runs a stack nor the stack's composition changes a value.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "MAX_BATCH_ELEMENTS",
    "map_parallel",
    "blas_threads",
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


#: The unit of work of a session's pool, in float64 elements (2 MiB): a
#: submatrix stack holds k·d² ≤ this (a single larger submatrix is a stack of
#: its own, :func:`repro.core.batch.make_stack_tasks`), and an n×n product of
#: the Löwdin envelope runs in ⌊n²/this⌋ row bands (:mod:`repro.dbcsr.product`).
#: It bounds the memory a worker holds in flight and makes enough tasks for
#: the workers; no result depends on it.
MAX_BATCH_ELEMENTS = 1 << 18

_BACKENDS = ("serial", "thread")

#: Environment variables pinning the BLAS threads of one call, by precedence.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> Optional[int]:
    """BLAS threads per call pinned by the environment (``None``: not pinned).

    The first of :data:`BLAS_THREAD_VARIABLES` holding a positive integer
    wins; an OpenMP list such as ``"4,2"`` counts its outer level.
    """
    for name in BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "").split(",")[0].strip()
        if value.isdecimal() and int(value) > 0:
            return int(value)
    return None


def default_worker_count() -> int:
    """Default number of workers: usable CPUs over BLAS threads (at least 1).

    The usable CPUs are the process's affinity set (``taskset``, a cpuset),
    or the machine's CPU count where the platform has no affinity call.
    Unpinned BLAS already uses every CPU in each call, so the count is 1.
    """
    blas = blas_threads()
    if blas is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // blas)


#: The worker-side token of the pool running the current thread, if any.
_WORKER = threading.local()


def _enter_worker(token: object) -> None:
    _WORKER.token = token


class _SessionPool(concurrent.futures.ThreadPoolExecutor):
    """A thread pool whose workers know they belong to it.

    A task that maps through the pool it already runs on must not queue its
    items behind itself (with every worker doing the same, nothing is left
    to run them): :func:`map_parallel` runs such a map inline.
    """

    def __init__(self, max_workers: int):
        self._token = token = object()
        super().__init__(
            max_workers=max_workers, initializer=_enter_worker, initargs=(token,)
        )

    def owns_current_thread(self) -> bool:
        return getattr(_WORKER, "token", None) is self._token


def make_executor(
    backend: str, max_workers: Optional[int] = None
) -> Optional[concurrent.futures.Executor]:
    """Build the pool :func:`map_parallel` dispatches on for ``backend``.

    Returns ``None`` for serial configurations (``backend="serial"`` or a
    single worker — ``max_workers=None`` is :func:`default_worker_count`,
    one worker while BLAS is unpinned), so callers can unconditionally pass
    the result through as ``executor=``: ``None`` runs the items inline.
    The caller owns the pool and must ``shutdown()`` it (or use it as a
    context manager).
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if max_workers is None:
        max_workers = default_worker_count()
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    if backend == "serial" or max_workers == 1:
        return None
    return _SessionPool(max_workers)


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
    executor: Optional[concurrent.futures.Executor] = None,
) -> List[R]:
    """Apply ``function`` to every item, on ``executor`` or inline.

    Parameters
    ----------
    function:
        Callable applied to each item.
    items:
        Input sequence; results are returned in the same order.
    executor:
        Optional pre-built :class:`concurrent.futures.Executor` (a session's
        pool, or :func:`make_executor`'s); it is used as-is and left running
        afterwards, so a caller that maps many batches pays the pool
        start-up cost once.  Without one — and for a single item, or a map
        called from one of the pool's own workers (queued behind the caller,
        its items could wait for a worker forever) — the items run inline.

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
    runner = _GuardedTask(function)
    indexed = list(enumerate(items))
    if (
        executor is None
        or len(items) <= 1
        or (isinstance(executor, _SessionPool) and executor.owns_current_thread())
    ):
        raw = [runner(pair) for pair in indexed]
    else:
        raw = list(executor.map(runner, indexed))
    for result in raw:
        if isinstance(result, _TaskFailure):
            raise wrap_task_error(result.error, result.index, len(items)) from (
                result.error
            )
    return raw
