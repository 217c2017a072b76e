"""The unified session API: one context owning plans, pools and pipelines.

The submatrix method pays off precisely in repeated-evaluation workloads —
the μ-bisection of the canonical ensemble, SCF/MD trajectories, cost sweeps
over many rank counts.  :class:`SubmatrixContext` is the one entry point of
the engine and the session object that owns the shared resources once:

* a private :class:`~repro.core.plan.PlanCache` (plans survive across every
  call through the session),
* one persistent executor (a thread pool) reused by every parallel map
  instead of a pool per call,
* a cache of configured :class:`~repro.core.runner.DistributedSubmatrixPipeline`
  instances (sharded plans and transfer plans survive across repeated
  sharded runs),
* the overlap roots S^{-1/2} of the Löwdin envelope, one per distinct overlap
  *content* (SCF iterations, fixed-geometry sweeps and hot served tenants
  diagonalise their S once per session, not once per call),

and exposes the workloads of the paper as methods:

* :meth:`SubmatrixContext.apply` — f(A) on a SciPy or block-sparse matrix;
* :meth:`SubmatrixContext.observables` / :meth:`SubmatrixContext.density` —
  the DFT driver (grand-canonical and canonical ensembles), every request
  through :func:`repro.api.observables.compute_observables`;
* :meth:`SubmatrixContext.trajectory` — the same along an SCF/MD trajectory.

All of them execute through the one rank loop
(:func:`repro.core.runner.run_stacks`): single-process by default, or — with
``ranks=`` / ``config.n_ranks > 1`` — sharded over simulated ranks, bitwise
identical.  A sharded run's per-rank work and traffic are read from its
pipeline, :meth:`SubmatrixContext.pipeline`.  An exception in a stack or a
rank task reaches the caller as it happened, wrapped with the failing task's
index (:class:`~repro.parallel.executor.TaskExecutionError`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import threading
import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.api.config import EngineConfig, check_positive_int
from repro.api.results import SubmatrixMethodResult
from repro.chem.orthogonalize import loewdin_inverse_sqrt
from repro.core.combination import ColumnGrouping, single_column_groups
from repro.core.load_balance import resolve_bucket_pad
from repro.core.plan import BlockSubmatrixPlan, PlanCache, block_plan
from repro.core.runner import DistributedSubmatrixPipeline, run_stacks
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_csr
from repro.dbcsr.coo import CooBlockList
from repro.parallel.executor import make_executor, map_parallel
from repro.signfn.registry import KernelStackSolver, resolve_kernel

__all__ = ["SubmatrixContext", "matrix_fingerprint"]

_UNSET = object()

#: Upper bound on the context's pipeline cache.  Pipelines hold their
#: extraction plan, sharded index arrays and transfer plan, so unlike the
#: LRU-bounded PlanCache they must not accumulate without limit across
#: pattern/rank-count sweeps.
MAX_CACHED_PIPELINES = 32

#: Upper bound, in bytes, on the overlap roots a session keeps (one dense
#: n×n float64 S^{-1/2} per distinct overlap content: 4.7 MB at 768 basis
#: functions).  Least recently used roots are dropped first; the root just
#: computed is always kept, even when it alone exceeds the bound.
MAX_OVERLAP_ROOT_BYTES = 32 * 2**20


def matrix_fingerprint(matrix) -> bytes:
    """Content hash of a dense or sparse matrix (shape, dtype, pattern, values).

    The content key of the session's overlap-root cache.  A missed match
    (the same logical matrix in two storage formats) costs a redundant
    evaluation, never correctness; a matrix mutated in place hashes
    differently.
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        shape, arrays = csr.shape, (csr.indptr, csr.indices, csr.data)
    else:
        dense = np.asarray(matrix)
        shape, arrays = dense.shape, (dense,)
    digest = hashlib.sha256(repr(shape).encode())
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(array.dtype.str.encode())
        digest.update(array)
    return digest.digest()


def _distribution_key(distribution) -> Optional[tuple]:
    """Content key of a block distribution (for the pipeline cache).

    Two distributions with the same grid shape and the same block→grid
    mappings assign identical owners, so their pipelines are
    interchangeable; keying by content lets trajectories with an explicit
    ``distribution`` reuse one pipeline across steps.
    """
    if distribution is None:
        return None
    return (
        distribution.n_block_rows,
        distribution.n_block_cols,
        distribution.grid.rows,
        distribution.grid.cols,
        distribution.row_distribution.tobytes(),
        distribution.col_distribution.tobytes(),
    )


def _tracked(method):
    """Run a context method as one tracked in-flight request.

    Applied to the leaf evaluation entry points only (``density`` calls the
    decorated ``observables``, so a request is counted exactly once).
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._request():
            return method(self, *args, **kwargs)

    return wrapper


class SubmatrixContext:
    """Session object of the submatrix engine.

    Parameters
    ----------
    config:
        The session's :class:`EngineConfig`; defaults to ``EngineConfig()``.
    plan_cache:
        Optional externally owned plan cache; by default the context creates
        a private cache of ``config.plan_cache_size`` plans.
    **overrides:
        Convenience field overrides applied to ``config``
        (``SubmatrixContext(backend="thread", max_workers=4)``).

    The session is safe for concurrent use from multiple threads: the plan
    cache, pipeline cache and executor creation are guarded by one
    re-entrant lock, evaluation runs unlocked, and :meth:`close`
    refuses (with a :class:`RuntimeError`) to tear the session down while
    requests are in flight.  The serving layer (:mod:`repro.serve`) builds
    on exactly these guarantees.

    The context is a context manager; leaving the ``with`` block shuts down
    the persistent executor (plans stay cached):

    >>> with SubmatrixContext(EngineConfig(backend="thread")) as ctx:
    ...     ctx.apply(matrix, "eigen", mu=0.2)      # doctest: +SKIP
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        **overrides,
    ):
        if config is None:
            config = EngineConfig()
        if not isinstance(config, EngineConfig):
            raise TypeError("config must be an EngineConfig")
        if overrides:
            config = config.replace(**overrides)
        self.config = config.validate()
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(max_plans=config.plan_cache_size)
        )
        self._executor = None
        self._executors_created = 0
        self._pipelines: "OrderedDict[tuple, DistributedSubmatrixPipeline]" = (
            OrderedDict()
        )
        self._pipelines_built = 0
        # S^{-1/2} per overlap content (read-only arrays, LRU by bytes)
        self._overlap_roots: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._overlap_root_hits = 0
        self._overlap_root_misses = 0
        self._closed = False
        # session bookkeeping lock: guards executor creation, the pipeline
        # and overlap-root maps, the in-flight counter and close().  The
        # evaluation work itself runs unlocked, so concurrent density/apply
        # calls from multiple threads genuinely overlap.
        self._lock = threading.RLock()
        self._in_flight = 0

    # ------------------------------------------------------------------ #
    # shared resources
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this context."""
        return self._closed

    def _check_open(self) -> None:
        """Reject work on a closed session with one clear error.

        Raising here (instead of letting a later call trip over the dead
        executor) gives every entry point — including serial configurations,
        which never touch the executor — the same :class:`RuntimeError`.
        """
        if self._closed:
            raise RuntimeError(
                "this SubmatrixContext has been closed; create a new "
                "context to continue working"
            )

    @property
    def executor(self):
        """The session's persistent executor (``None`` for serial configs).

        Created lazily on first use and reused by every subsequent parallel
        map through this context — one pool per session, not per call.
        """
        with self._lock:
            self._check_open()
            if self._executor is None:
                self._executor = make_executor(
                    self.config.backend, self.config.max_workers
                )
                if self._executor is not None:
                    self._executors_created += 1
                    # deterministic cleanup is close(); the finalizer only
                    # keeps abandoned sessions from pinning pool workers
                    # until exit
                    self._finalizer = weakref.finalize(
                        self, self._executor.shutdown, False
                    )
            return self._executor

    @property
    def in_flight(self) -> int:
        """Number of requests currently executing through this session."""
        with self._lock:
            return self._in_flight

    @contextlib.contextmanager
    def _request(self):
        """Track one in-flight request (rejecting work on a closed session).

        Every public evaluation entry point (``apply``, ``density``,
        ``trajectory``) wraps its body in this guard so
        :meth:`close` can refuse to tear down a session that other threads
        are still using.
        """
        with self._lock:
            self._check_open()
            self._in_flight += 1
        try:
            yield
        finally:
            with self._lock:
                self._in_flight -= 1

    def close(self) -> None:
        """Shut down the persistent executor (idempotent when idle).

        Cached plans and pipelines are kept, the cached overlap roots are
        dropped; any call through the session
        after a ``close()`` raises a :class:`RuntimeError`, so reuse
        requires a new context.  Safe to call any number of times and after
        the ``weakref.finalize`` shutdown path has already run (pool
        shutdown is idempotent and a fired finalizer detaches as a no-op).

        Closing a session while requests are in flight on other threads
        raises a :class:`RuntimeError` and leaves the session open — the
        running requests keep their executor and finish normally; call
        ``close()`` again once they have drained.
        """
        with self._lock:
            if self._in_flight:
                raise RuntimeError(
                    "cannot close this SubmatrixContext: "
                    f"{self._in_flight} request(s) still in flight; wait for "
                    "them to finish and call close() again"
                )
            executor, self._executor = self._executor, None
            self._overlap_roots.clear()
            self._closed = True
        if executor is not None:
            finalizer = getattr(self, "_finalizer", None)
            if finalizer is not None:
                finalizer.detach()
            executor.shutdown()

    def __enter__(self) -> "SubmatrixContext":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """Session statistics: plan-cache hits/misses, pools, pipelines.

        ``pipelines_built`` counts actual constructions (a monotone
        counter, unaffected by cache eviction); ``pipelines_cached`` is the
        current cache size.  ``overlap_roots`` reports the S^{-1/2} cache
        (:meth:`overlap_root`): lookups served from it (``hits``), lookups
        that diagonalised S (``misses``), and what it holds now.
        """
        with self._lock:
            return {
                "plan_cache": dict(self.plan_cache.stats),
                "executors_created": self._executors_created,
                "pipelines_built": self._pipelines_built,
                "pipelines_cached": len(self._pipelines),
                "overlap_roots": {
                    "hits": self._overlap_root_hits,
                    "misses": self._overlap_root_misses,
                    "entries": len(self._overlap_roots),
                    "bytes": self._overlap_root_bytes(),
                },
            }

    def _overlap_root_bytes(self) -> int:
        return sum(root.nbytes for root in self._overlap_roots.values())

    def overlap_root(self, S) -> np.ndarray:
        """S^{-1/2} of the overlap matrix, computed once per overlap *content*.

        The Löwdin root (:func:`~repro.chem.orthogonalize.loewdin_inverse_sqrt`,
        a dense ``eigh`` of S) is a pure function of the bytes of ``S``, so
        the session keeps it keyed by :func:`matrix_fingerprint` — never by
        object identity: an ``S`` mutated in place is a different key.  The
        returned array is shared between every request that hits and is
        therefore read-only.  The cache is an LRU bounded by
        :data:`MAX_OVERLAP_ROOT_BYTES` that always keeps the root just
        computed, whatever its size; a miss costs the hash on top of the
        root.  Two threads missing on the same content both compute the
        (identical) root rather than serialise behind the session lock.
        """
        self._check_open()
        key = matrix_fingerprint(S)
        with self._lock:
            root = self._overlap_roots.get(key)
            if root is not None:
                self._overlap_roots.move_to_end(key)
                self._overlap_root_hits += 1
                return root
            self._overlap_root_misses += 1
        root = loewdin_inverse_sqrt(S)
        root.setflags(write=False)
        with self._lock:
            self._overlap_roots[key] = root
            self._overlap_roots.move_to_end(key)
            # keep at least the root just computed, even when it alone
            # exceeds the bound: dropping it would re-diagonalise S per call
            while (
                len(self._overlap_roots) > 1
                and self._overlap_root_bytes() > MAX_OVERLAP_ROOT_BYTES
            ):
                self._overlap_roots.popitem(last=False)
        return root

    def _advance_overlap_root(self, previous: Optional[bytes]) -> Optional[bytes]:
        """Key of the most recently used root; drops ``previous`` if it is another.

        The trajectory driver calls this after every step with the key the
        step before returned: a walk that arrives at a new overlap content
        does not come back to the one it left, so that root is released
        instead of ageing out of the LRU (seven dead 4.7 MB roots at 768
        basis functions), while a fixed-S loop — SCF, a sweep over μ — keeps
        hitting its one root.  The key is the one :meth:`overlap_root`
        filed the step's root under, so S is not hashed a second time.  With
        other threads using the session the most recent root may be theirs;
        a root released too early costs one ``eigh``, never a result.
        """
        with self._lock:
            latest = next(reversed(self._overlap_roots), None)
            if previous is not None and previous != latest:
                self._overlap_roots.pop(previous, None)
            return latest

    def _map(self, function, items):
        """Map through the session's persistent executor."""
        return map_parallel(
            function,
            items,
            self.config.max_workers,
            self.config.backend,
            executor=self.executor,
        )

    def block_plan_for(
        self,
        coo: CooBlockList,
        block_sizes: Sequence[int],
        column_groups: Sequence[Sequence[int]],
        replan: str = "full",
    ) -> BlockSubmatrixPlan:
        """Block extraction plan for ``coo`` from the session's plan cache.

        A content-keyed :func:`~repro.core.plan.block_plan` lookup: an
        unchanged pattern is a hit, a changed one is a build.  ``replan`` is
        an inert leftover — accepted and ignored, nothing dispatches on it;
        it stays only because ``benchmarks/e2e`` passes it.
        """
        self._check_open()
        return block_plan(coo, block_sizes, column_groups, cache=self.plan_cache)

    def _bucket_pad_for(self, plan: BlockSubmatrixPlan) -> Optional[int]:
        """The session's bucket padding resolved for one plan."""
        return resolve_bucket_pad(self.config.bucket_pad, plan.dimensions, plan.run)

    def _lookup(
        self,
        coo: CooBlockList,
        block_sizes: Sequence[int],
        grouping: ColumnGrouping,
        ranks: Optional[int],
        distribution,
        bucket_pad,
    ) -> Tuple[BlockSubmatrixPlan, Optional[DistributedSubmatrixPipeline]]:
        """``(plan, pipeline)`` of one block-level request.

        Single-process requests look their plan up directly
        (:meth:`block_plan_for`) and get no pipeline — they pay for no
        shard or transfer planning.  With ``ranks`` (or ``config.n_ranks >
        1``) the plan is the cached pipeline's.  An explicitly requested
        rank count takes the sharded route even at ``ranks == 1`` (a single
        shard of everything), so the bitwise-identity guarantee covers the
        sharding machinery itself.
        """
        if ranks is None and self.config.n_ranks == 1:
            return self.block_plan_for(coo, block_sizes, grouping.groups), None
        pipeline = self.pipeline(
            coo,
            block_sizes,
            n_ranks=ranks,
            grouping=grouping,
            distribution=distribution,
            bucket_pad=bucket_pad,
        )
        return pipeline.prepare()[0], pipeline

    # ------------------------------------------------------------------ #
    # f(A)
    # ------------------------------------------------------------------ #
    @_tracked
    def apply(
        self,
        matrix: Union[sp.spmatrix, BlockSparseMatrix],
        function,
        column_groups: Optional[Sequence[Sequence[int]]] = None,
        batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        plan: Optional[BlockSubmatrixPlan] = None,
        coo: Optional[CooBlockList] = None,
        ranks: Optional[int] = None,
        distribution=None,
        **kernel_params,
    ) -> SubmatrixMethodResult:
        """Evaluate a matrix function on ``matrix`` through the session.

        One submatrix per group of block columns (``column_groups``, one
        column per group by default).  A square SciPy sparse matrix is the
        same grid with 1×1 blocks: it goes in through
        :func:`~repro.dbcsr.convert.block_matrix_from_csr`, runs through the
        same plan and rank loop, and comes back as a CSR matrix with the
        input's stored pattern (explicit zeros included, duplicates summed)
        via :func:`~repro.dbcsr.convert.block_matrix_to_csr`; ``plan=`` and
        ``coo=`` then refer to that 1×1 grid.

        ``function`` may be a callable or a kernel name (``"eigen"`` or
        ``"newton_schulz"``); ``**kernel_params`` (e.g. ``mu=0.2``) are
        forwarded to the kernel factory.  With ``ranks`` (or
        ``config.n_ranks > 1``) the submatrices are evaluated rank-sharded
        through the session's cached
        :class:`~repro.core.runner.DistributedSubmatrixPipeline` —
        ``distribution`` fixes the block ownership of its transfer plan —
        bitwise identical to the single-process result.

        The packed vector holds every stored value, so one look at its
        extrema rejects NaN/Inf — an iterative kernel would hand them back
        as a result, ``eigh`` die of them mid-run.  Stacks are solved by the
        kernel's :class:`~repro.signfn.registry.KernelStackSolver`, exactly
        as on the iterative density route.
        """
        ranks = check_positive_int(ranks, "ranks")
        bound = resolve_kernel(function, batch_function=batch_function, **kernel_params)
        start = time.perf_counter()
        scipy_input = sp.issparse(matrix)
        if scipy_input:
            if matrix.shape[0] != matrix.shape[1]:
                raise ValueError("the submatrix method requires a square matrix")
            matrix = block_matrix_from_csr(matrix, [1] * matrix.shape[0])
        elif not isinstance(matrix, BlockSparseMatrix):
            raise TypeError(
                "apply expects a scipy.sparse matrix or a BlockSparseMatrix, "
                f"got {type(matrix).__name__}"
            )
        if coo is None:
            coo = CooBlockList.from_block_matrix(matrix)
        n_block_cols = matrix.n_block_cols
        if column_groups is None:
            grouping = single_column_groups(n_block_cols)
        else:
            grouping = ColumnGrouping([list(group) for group in column_groups])
        grouping.validate(n_block_cols)
        pipeline = None
        if plan is None:
            plan, pipeline = self._lookup(
                coo,
                matrix.row_block_sizes,
                grouping,
                ranks,
                distribution,
                self.config.bucket_pad,
            )
        elif ranks is not None or distribution is not None:
            raise ValueError(
                "a sharded run uses its pipeline's plan; pass either plan= "
                "or ranks=/distribution="
            )
        packed = plan.pack(matrix)
        if packed.size and not np.isfinite(max(packed.max(), -packed.min())):
            raise ValueError("matrix contains non-finite values (NaN or Inf)")
        dimensions = list(plan.dimensions)
        out = plan.new_output()
        solver = KernelStackSolver(bound)
        run_stacks(
            plan,
            packed,
            solver,
            out,
            pipeline=pipeline,
            pad_to=self._bucket_pad_for(plan),
            mapper=self._map,
        )
        result = plan.finalize(out)
        if scipy_input:
            result = block_matrix_to_csr(result)
        return SubmatrixMethodResult(
            result=result,
            submatrix_dimensions=dimensions,
            wall_time=time.perf_counter() - start,
            flop_estimate=float(sum(float(d) ** 3 for d in dimensions)),
            n_ranks=pipeline.n_ranks if pipeline is not None else 1,
            kernel_fallbacks=solver.fallbacks,
        )

    # ------------------------------------------------------------------ #
    # DFT density matrices
    # ------------------------------------------------------------------ #
    def density(self, K, S, blocks, **request):
        """Density matrix from the Kohn–Sham and overlap matrices (Eq. 16).

        The ``density`` observable alone: ``**request`` takes the keyword
        arguments of :meth:`observables` (``mu=`` or ``n_electrons=``,
        ``solver=``, ``ranks=``, …) and the result is the bundle's
        :class:`~repro.api.results.SubmatrixDFTResult`.
        """
        return self.observables(K, S, blocks, ("density",), **request)["density"]

    @_tracked
    def observables(
        self,
        K,
        S,
        blocks,
        observables=("density",),
        mu: Optional[float] = None,
        n_electrons: Optional[float] = None,
        solver: str = "eigen",
        grouping: Optional[ColumnGrouping] = None,
        mu_tolerance: float = 1e-9,
        max_mu_iterations: int = 200,
        ranks: Optional[int] = None,
        distribution=None,
        mu_bracket=None,
        observable_params=None,
    ):
        """Several observables from **one** decomposition pass (Sec. IV-F/G).

        ``observables`` names the observables to assemble
        (:func:`repro.api.observables.available_observables`); all of them
        share a single sharded/batched submatrix decomposition — requesting
        ``("density", "pdos", "energy_weighted_density")`` costs one
        eigendecomposition per stack, exactly like :meth:`density` alone.
        ``observable_params`` optionally maps an observable name to its
        assembly parameters (e.g. ``{"pdos": {"broadening": 0.05}}``).
        Returns an :class:`~repro.api.results.ObservableBundle`.

        Exactly one of ``mu`` (grand-canonical) and ``n_electrons``
        (canonical) must be given.  With ``ranks > 1`` (or
        ``config.n_ranks > 1``) the submatrix stacks are evaluated
        rank-sharded through
        :class:`~repro.core.runner.DistributedSubmatrixPipeline` — bitwise
        identical to the single-process path.  ``mu_bracket`` is the
        warm-start hook of the trajectory driver; see
        :func:`repro.api.observables.compute_observables` for every
        argument.
        """
        self._check_open()
        from repro.api.observables import compute_observables

        return compute_observables(
            self,
            K,
            S,
            blocks,
            observables=observables,
            mu=mu,
            n_electrons=n_electrons,
            solver=solver,
            grouping=grouping,
            mu_tolerance=mu_tolerance,
            max_mu_iterations=max_mu_iterations,
            ranks=ranks,
            distribution=distribution,
            mu_bracket=mu_bracket,
            observable_params=observable_params,
        )

    @_tracked
    def trajectory(
        self,
        steps,
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
        replan: str = "auto",
        warm_start_mu: bool = False,
        checkpoint=None,
        observables=None,
        observable_params=None,
        on_step=None,
    ):
        """Density matrices along an SCF/MD trajectory through this session.

        ``steps`` is a sequence of ``(K, S)`` pairs or a callback
        ``step(index) -> (K, S) | None``; every step's density matrix is
        computed exactly like a single-shot :meth:`density` call, but the
        steps share this session's plan cache, sharded pipelines and
        executor — value-only steps (unchanged sparsity pattern, detected
        via the plan cache's content hash) skip all planning, and a changed
        pattern builds its plans once.  ``replan`` is an inert leftover —
        accepted and ignored; it stays only because ``benchmarks/e2e``
        passes it.  ``warm_start_mu=True`` seeds each canonical step's
        μ-bisection from the previous step's μ (an opt-in that trades the
        bitwise identity of μ for fewer bisection iterations).
        ``checkpoint=`` persists every
        completed step to a directory and resumes an interrupted trajectory
        from its first unsaved step, bitwise identical to an uninterrupted
        run (see :class:`~repro.api.checkpoint.TrajectoryCheckpoint`).
        ``observables=`` requests additional observables per step (each step
        then yields an :class:`~repro.api.results.ObservableBundle` sharing
        one decomposition pass) and ``on_step`` is a per-completed-step callback
        ``on_step(index, result)`` (the SCF driver's feedback hook).
        Returns a :class:`~repro.api.trajectory.TrajectoryResult` with the
        per-step results and a :class:`~repro.api.trajectory.TrajectoryStats`
        reuse record.  See :func:`repro.api.trajectory.run_trajectory`.
        """
        self._check_open()
        from repro.api.trajectory import run_trajectory

        return run_trajectory(
            self,
            steps,
            blocks,
            mu=mu,
            n_electrons=n_electrons,
            solver=solver,
            grouping=grouping,
            mu_tolerance=mu_tolerance,
            max_mu_iterations=max_mu_iterations,
            ranks=ranks,
            distribution=distribution,
            n_steps=n_steps,
            warm_start_mu=warm_start_mu,
            checkpoint=checkpoint,
            observables=observables,
            observable_params=observable_params,
            on_step=on_step,
        )

    # ------------------------------------------------------------------ #
    # sharded pipelines
    # ------------------------------------------------------------------ #
    def pipeline(
        self,
        pattern: Union[sp.spmatrix, CooBlockList],
        block_sizes: Sequence[int],
        n_ranks: Optional[int] = None,
        grouping: Optional[ColumnGrouping] = None,
        distribution=None,
        bucket_pad=_UNSET,
        replan: str = "full",
    ) -> DistributedSubmatrixPipeline:
        """Fetch (or build and cache) a configured sharded pipeline.

        ``bucket_pad`` is taken from the session config unless explicitly
        passed (the density driver passes ``bucket_pad=None`` to force
        exact-dimension buckets for its eigendecomposition cache).

        Pipelines are cached by content — pattern fingerprint plus
        configuration — so a changed pattern builds a new one (plans, shards,
        rank assignment and transfer plan are those of a fresh session).
        ``replan`` is an inert leftover — accepted and ignored; it stays
        only because ``benchmarks/e2e`` passes it.
        """
        self._check_open()
        coo = (
            pattern
            if isinstance(pattern, CooBlockList)
            else CooBlockList.from_pattern(pattern)
        )
        n_ranks = check_positive_int(n_ranks, "n_ranks") or self.config.n_ranks
        pad = self.config.bucket_pad if bucket_pad is _UNSET else bucket_pad
        sizes = np.asarray(list(block_sizes), dtype=int)
        if grouping is None:
            grouping = single_column_groups(coo.n_block_cols)
        key = (
            coo.fingerprint(),
            sizes.tobytes(),
            n_ranks,
            tuple(map(tuple, grouping.groups)),
            self.config.balance,
            pad,
            _distribution_key(distribution),
        )
        with self._lock:
            pipeline = self._pipelines.get(key)
            if pipeline is not None:
                self._pipelines.move_to_end(key)
                return pipeline
            pipeline = DistributedSubmatrixPipeline(
                coo,
                sizes,
                n_ranks,
                grouping=grouping,
                distribution=distribution,
                balance=self.config.balance,
                bucket_pad=pad,
                plan_cache=self.plan_cache,
            )
            self._pipelines_built += 1
            self._pipelines[key] = pipeline
            while len(self._pipelines) > MAX_CACHED_PIPELINES:
                self._pipelines.popitem(last=False)
            return pipeline
