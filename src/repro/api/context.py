"""The unified session API: one context owning plans, pools and pipelines.

The submatrix method pays off precisely in repeated-evaluation workloads —
the μ-bisection of the canonical ensemble, SCF/MD trajectories, cost sweeps
over many rank counts.  :class:`SubmatrixContext` is the one entry point of
the engine and the session object that owns the shared resources once:

* a private :class:`~repro.core.plan.PlanCache` (plans survive across every
  call through the session),
* one persistent executor (a thread pool) reused by every parallel map
  instead of a pool per call — by default a request's stacks run on it
  (:func:`~repro.parallel.executor.default_worker_count` workers), and a
  request made from one of its own workers maps its stacks inline,
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
``ranks=`` — sharded over simulated ranks, bitwise identical.  A sharded
density reports one fetch volume, the deduplicated whole-block bytes of its
initialization exchange (``block_fetch_bytes``); the run's per-rank work and
traffic are read from its pipeline, :meth:`SubmatrixContext.pipeline`.  An
exception in a stack or a rank task reaches the caller as it happened,
wrapped with the failing task's index
(:class:`~repro.parallel.executor.TaskExecutionError`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import threading
import time
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.api.config import EngineConfig, check_positive_int
from repro.api.results import SubmatrixMethodResult
from repro.chem.orthogonalize import loewdin_inverse_sqrt
from repro.core.combination import ColumnGrouping, check_grouping, single_column_groups
from repro.core.plan import BlockSubmatrixPlan, PlanCache, block_plan
from repro.core.runner import DistributedSubmatrixPipeline, run_stacks
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_csr
from repro.dbcsr.coo import CooBlockList
from repro.dbcsr.product import PanelRuns, block_norms, floor_runs
from repro.parallel.executor import make_executor, map_parallel
from repro.signfn.registry import KernelStackSolver, resolve_kernel
from repro.work import submatrix_flop_costs

__all__ = ["SubmatrixContext", "matrix_fingerprint"]

#: Upper bound on the context's pipeline cache.  Pipelines hold their
#: extraction plan, sharded index arrays and transfer plan, so unlike the
#: LRU-bounded PlanCache they must not accumulate without limit across
#: pattern/rank-count sweeps.
MAX_CACHED_PIPELINES = 32

#: Upper bound, in bytes, on the overlap roots a session keeps (one dense
#: n×n float64 S^{-1/2}, with its runs, per overlap content: 4.7 MB at 768
#: basis functions); :meth:`SubmatrixContext.overlap_root` states its use.
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
        The session owns a private plan cache of ``config.plan_cache_size``
        plans (``context.plan_cache``).

    The session is safe for concurrent use from multiple threads: the plan
    cache, pipeline cache and executor creation are guarded by one
    re-entrant lock, evaluation runs unlocked, and :meth:`close`
    refuses (with a :class:`RuntimeError`) to tear the session down while
    requests are in flight.  The serving layer (:mod:`repro.serve`) builds
    on exactly these guarantees.

    The context is a context manager; leaving the ``with`` block shuts down
    the persistent executor (plans stay cached):

    >>> with SubmatrixContext(EngineConfig(max_workers=2)) as ctx:
    ...     ctx.apply(matrix, "eigen", mu=0.2)      # doctest: +SKIP
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        if config is None:
            config = EngineConfig()
        if not isinstance(config, EngineConfig):
            raise TypeError("config must be an EngineConfig")
        self.config = config.validate()
        self.plan_cache = PlanCache(max_plans=config.plan_cache_size)
        self._executor = None
        self._executors_created = 0
        self._pipelines: "OrderedDict[tuple, DistributedSubmatrixPipeline]" = (
            OrderedDict()
        )
        self._pipelines_built = 0
        # per overlap content: (S^{-1/2}, its floor runs, None) under None and
        # (S^{-1/2}, runs, block norms) per block sizes (read-only, LRU by bytes)
        self._overlap_roots: "OrderedDict[bytes, dict]" = OrderedDict()
        self._released_roots: "OrderedDict[bytes, None]" = OrderedDict()
        self._revisited_roots: set = set()  # held roots that came back
        self._overlap_root_hits = 0
        self._overlap_root_misses = 0
        self._overlap_roots_released = 0
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

        A config resolving to one worker is serial: ``backend="serial"``,
        ``max_workers=1``, or the default ``max_workers=None`` while BLAS is
        unpinned (:func:`~repro.parallel.executor.default_worker_count`).

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
            self._released_roots.clear()
            self._revisited_roots.clear()
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
        (:meth:`overlap_root`): lookups served from it (``hits``) or that
        diagonalised S (``misses``), roots ``released``, and what it holds now.
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
                    "released": self._overlap_roots_released,
                    "entries": len(self._overlap_roots),
                    "bytes": self._overlap_root_bytes(),
                },
            }

    def _overlap_root_bytes(self) -> int:
        total = 0
        for entry in self._overlap_roots.values():
            root, runs, _ = entry[None]
            total += root.nbytes + sum(b.nbytes + e.nbytes for *_, b, e in runs)
            total += sum(n.nbytes for *_, n in entry.values() if n is not None)
        return total

    def overlap_root(
        self, S, block_sizes: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, PanelRuns, Optional[np.ndarray]]:
        """S^{-1/2} of the overlap matrix, its floor runs and block norms,
        once per *content*.

        The Löwdin root (:func:`~repro.chem.orthogonalize.loewdin_inverse_sqrt`,
        a dense ``eigh`` of S) and its :func:`~repro.dbcsr.product.floor_runs`
        are a pure function of the bytes of ``S``, so the session keeps them
        keyed by :func:`matrix_fingerprint` — never by object identity: an
        ``S`` mutated in place is a different key.  A root with floor runs
        also keeps its :func:`~repro.dbcsr.product.block_norms` per
        ``block_sizes`` asked for; otherwise the third element is ``None``.
        All of it is shared between the requests that hit, read-only, and
        counted in the cache's bytes.  The cache is an LRU bounded by
        :data:`MAX_OVERLAP_ROOT_BYTES` that always keeps the root just used,
        whatever its size; a miss costs the hash on top of the root.  Filing a
        new root releases the most recently used one unless that is the same
        content or one that has come back, so an MD walk holds one root and an
        SCF loop or a μ sweep keeps hitting its own.  The session remembers the
        fingerprints of as many released roots as the bound would hold; a miss
        on one files its root as revisited, which only the LRU drops.  A
        revisit after a release costs one ``eigh(S)`` and never changes a
        result; the most recently used root may be another thread's.  Two
        threads missing on the same content both compute the (identical) root
        rather than serialise behind the session lock.
        """
        self._check_open()
        key = matrix_fingerprint(S)
        with self._lock:
            entry = self._overlap_roots.get(key)
            hit = entry is not None
            self._overlap_root_hits += hit
            self._overlap_root_misses += not hit
            if hit:
                self._overlap_roots.move_to_end(key)
        if not hit:
            root = loewdin_inverse_sqrt(S)
            root.setflags(write=False)
            entry = {None: (root, floor_runs(root), None)}
        root, runs, _ = entry[None]
        sizes = None
        if runs and block_sizes is not None:
            sizes = np.asarray(block_sizes, dtype=np.int64).tobytes()
        found = entry.get(sizes)
        if hit and found is not None:
            return found
        if found is None:
            norms = block_norms(root, block_sizes)
            norms.setflags(write=False)
            found = (root, runs, norms)
        with self._lock:
            found = entry.setdefault(sizes, found)
            if not hit:
                if key in self._released_roots:  # its content has come back
                    del self._released_roots[key]
                    self._revisited_roots.add(key)
                latest = next(reversed(self._overlap_roots), key)
                if latest != key and latest not in self._revisited_roots:
                    del self._overlap_roots[latest]
                    self._released_roots[latest] = None
                    self._overlap_roots_released += 1
                    remembered = max(1, MAX_OVERLAP_ROOT_BYTES // root.nbytes)
                    while len(self._released_roots) > remembered:
                        self._released_roots.popitem(last=False)
            self._overlap_roots[key] = entry
            self._overlap_roots.move_to_end(key)
            # keep at least the root just used, even when it alone exceeds
            # the bound: dropping it would re-diagonalise S per call
            while (
                len(self._overlap_roots) > 1
                and self._overlap_root_bytes() > MAX_OVERLAP_ROOT_BYTES
            ):
                evicted, _ = self._overlap_roots.popitem(last=False)
                self._revisited_roots.discard(evicted)
        return found

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

    def _engine_pass(
        self,
        matrix: BlockSparseMatrix,
        solve_stack,
        *,
        coo: Optional[CooBlockList] = None,
        grouping: Optional[ColumnGrouping] = None,
        ranks: Optional[int] = None,
        collect: bool = False,
        mapper=None,
    ):
        """The one engine pass of ``apply`` and of every density request.

        Plan lookup → ``plan.pack`` → the rank loop
        (:func:`~repro.core.runner.run_stacks` on the session's pool) →
        ``plan.finalize``.  ``grouping``, already checked by the caller
        (:func:`~repro.core.combination.check_grouping`), defaults to one
        submatrix per block column.  A single-process request
        (``ranks=None``) looks its plan up directly (:meth:`block_plan_for`)
        and pays for no shard or transfer planning; with ``ranks`` the plan
        is the cached :meth:`pipeline`'s — even at ``ranks == 1`` (a single
        shard of everything), so the bitwise-identity guarantee covers the
        sharding machinery itself.  The packed vector holds every stored
        value, so one look at its extrema rejects NaN/Inf — an iterative
        kernel would hand them back as a result, ``eigh`` die of them mid-run.

        Returns ``(plan, pipeline, stacks, result)``: ``stacks`` are the rank
        loop's ``(group_indices, value)`` pairs and ``result`` is the
        finalized block matrix the stacks were delivered into — or, with
        ``collect``, ``None``, the solver's values handed back in ``stacks``.
        """
        grouping = grouping or single_column_groups(matrix.n_block_cols)
        coo = coo if coo is not None else CooBlockList.from_block_matrix(matrix)
        sizes = matrix.row_block_sizes
        pipeline = None
        if ranks is None:
            plan = self.block_plan_for(coo, sizes, grouping.groups)
        else:
            pipeline = self.pipeline(coo, sizes, ranks, grouping=grouping)
            plan = pipeline.prepare()[0]
        packed = plan.pack(matrix)
        if packed.size and not np.isfinite(max(packed.max(), -packed.min())):
            raise ValueError("matrix contains non-finite values (NaN or Inf)")
        out = None if collect else plan.new_output()
        mapper = mapper or functools.partial(map_parallel, executor=self.executor)
        stacks = run_stacks(
            plan, packed, solve_stack, out, pipeline=pipeline, mapper=mapper
        )
        return plan, pipeline, stacks, None if collect else plan.finalize(out)

    # ------------------------------------------------------------------ #
    # f(A)
    # ------------------------------------------------------------------ #
    @_tracked
    def apply(
        self,
        matrix: Union[sp.spmatrix, BlockSparseMatrix],
        function,
        grouping: Optional[ColumnGrouping] = None,
        coo: Optional[CooBlockList] = None,
        ranks: Optional[int] = None,
        **kernel_params,
    ) -> SubmatrixMethodResult:
        """Evaluate a matrix function on ``matrix`` through the session.

        One submatrix per group of block columns: ``grouping`` is a
        :class:`~repro.core.combination.ColumnGrouping`, checked as a density
        request's is (:func:`~repro.core.combination.check_grouping`), one
        column per group by default.  A square SciPy sparse matrix is the
        same grid with 1×1 blocks: it goes in through
        :func:`~repro.dbcsr.convert.block_matrix_from_csr`, runs through the
        same plan and rank loop, and comes back as a CSR matrix with the
        input's stored pattern (explicit zeros included, duplicates summed)
        via :func:`~repro.dbcsr.convert.block_matrix_to_csr`; ``grouping``
        and ``coo=`` then refer to that 1×1 grid.

        ``function`` may be a bare per-matrix callable or a kernel name
        (``"eigen"`` or ``"newton_schulz"``); ``**kernel_params`` (e.g.
        ``mu=0.2``) are forwarded to the kernel factory
        (:func:`~repro.signfn.registry.resolve_kernel`).  With ``ranks`` the
        submatrices are evaluated rank-sharded through the session's cached
        :class:`~repro.core.runner.DistributedSubmatrixPipeline`, bitwise
        identical to the single-process result.  Stacks are solved by the
        kernel's :class:`~repro.signfn.registry.KernelStackSolver`, exactly as
        on the iterative density route, in the session's one engine pass.
        """
        ranks = check_positive_int(ranks, "ranks")
        solver = KernelStackSolver(resolve_kernel(function, **kernel_params))
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
        check_grouping(grouping, matrix.n_block_cols)
        plan, pipeline, _, result = self._engine_pass(
            matrix, solver, coo=coo, grouping=grouping, ranks=ranks
        )
        if scipy_input:
            result = block_matrix_to_csr(result)
        dimensions = list(plan.dimensions)
        return SubmatrixMethodResult(
            result=result,
            submatrix_dimensions=dimensions,
            wall_time=time.perf_counter() - start,
            flop_estimate=float(submatrix_flop_costs(dimensions).sum()),
            n_ranks=pipeline.n_ranks if pipeline is not None else 1,
            kernel_fallbacks=solver.fallbacks,
        )

    # ------------------------------------------------------------------ #
    # DFT density matrices
    # ------------------------------------------------------------------ #
    def density(self, K, S, blocks, **request):
        """Density matrix from the Kohn–Sham and overlap matrices (Eq. 16).

        The ``density`` observable alone: ``**request`` is a request of
        :meth:`observables` without ``observables=`` (``mu=`` or
        ``n_electrons=``, ``solver=``, ``ranks=``, …) and the result is the
        bundle's :class:`~repro.api.results.SubmatrixDFTResult`.
        """
        return self.observables(K, S, blocks, observables=("density",), **request)[
            "density"
        ]

    @_tracked
    def observables(self, K, S, blocks, **request):
        """Several observables from **one** decomposition pass (Sec. IV-F/G).

        ``**request`` is checked by
        :func:`repro.api.observables.validate_request`, which lists every
        keyword: ``observables=`` names the observables to assemble
        (:func:`repro.api.observables.available_observables`, default
        ``("density",)``); all of them share a single sharded/batched
        submatrix decomposition — requesting ``("density", "pdos",
        "energy_weighted_density")`` costs one eigendecomposition per stack,
        exactly like :meth:`density` alone.  ``observable_params`` optionally
        maps an observable name to its assembly parameters (e.g. ``{"pdos":
        {"broadening": 0.05}}``).  Exactly one of ``mu`` (grand-canonical)
        and ``n_electrons`` (canonical) must be given; with ``ranks`` the
        submatrix stacks are evaluated rank-sharded, bitwise identical to the
        single-process path.  Returns an
        :class:`~repro.api.results.ObservableBundle`
        (:func:`repro.api.observables.compute_observables`).
        """
        self._check_open()
        from repro.api.observables import compute_observables, validate_request

        checked = validate_request(self.config, blocks, **request)
        return compute_observables(self, K, S, blocks, checked)

    @_tracked
    def trajectory(
        self,
        steps,
        blocks,
        replan: str = "auto",
        warm_start_mu: bool = False,
        on_step=None,
        **request,
    ):
        """Density matrices along an SCF/MD trajectory through this session.

        ``steps`` is an iterable of ``(K, S)`` pairs or a callback
        ``step(index) -> (K, S) | None``; ``**request`` is a :meth:`density`
        request, checked once, then every step is one density request with
        it — bitwise a cold call on the same input, nothing but the
        session's caches carried over.  ``on_step(index, result)`` is called
        after every step (an SCF loop's feedback hook).  ``replan`` and
        ``warm_start_mu`` are inert leftovers — accepted and ignored; they
        stay only because ``benchmarks/e2e`` passes them.  Returns a
        :class:`~repro.api.trajectory.TrajectoryResult`: the per-step results
        and a :class:`~repro.api.trajectory.TrajectoryStats` of the steps'
        plan-cache traffic.  See :func:`repro.api.trajectory.run_trajectory`.
        """
        self._check_open()
        from repro.api.trajectory import run_trajectory

        return run_trajectory(self, steps, blocks, on_step=on_step, **request)

    # ------------------------------------------------------------------ #
    # sharded pipelines
    # ------------------------------------------------------------------ #
    def pipeline(
        self,
        pattern: Union[sp.spmatrix, CooBlockList],
        block_sizes: Sequence[int],
        n_ranks: Optional[int] = None,
        grouping: Optional[ColumnGrouping] = None,
        bucket_pad=None,
        replan: str = "full",
    ) -> DistributedSubmatrixPipeline:
        """Fetch (or build and cache) the sharded pipeline over ``n_ranks``.

        Pipelines are cached by content — pattern fingerprint plus
        configuration — so a changed pattern builds a new one (plans, shards,
        rank assignment and transfer plan are those of a fresh session).
        ``n_ranks=None`` is one rank; the blocks are owned round-robin over a
        near-square process grid, like DBCSR's default.  ``replan`` and
        ``bucket_pad`` are inert leftovers — accepted, ``replan`` ignored and
        a ``bucket_pad`` other than ``None`` a :class:`ValueError` (stacks
        are never padded); they stay only because ``benchmarks/e2e`` passes
        them.
        """
        self._check_open()
        if bucket_pad is not None:
            raise ValueError(
                f"bucket_pad={bucket_pad!r}: stacks are never padded, pass None"
            )
        coo = (
            pattern
            if isinstance(pattern, CooBlockList)
            else CooBlockList.from_pattern(pattern)
        )
        n_ranks = check_positive_int(n_ranks, "n_ranks") or 1
        sizes = np.asarray(list(block_sizes), dtype=int)
        if grouping is None:
            grouping = single_column_groups(coo.n_block_cols)
        key = (
            coo.fingerprint(),
            sizes.tobytes(),
            n_ranks,
            tuple(map(tuple, grouping.groups)),
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
                plan_cache=self.plan_cache,
            )
            self._pipelines_built += 1
            self._pipelines[key] = pipeline
            while len(self._pipelines) > MAX_CACHED_PIPELINES:
                self._pipelines.popitem(last=False)
            return pipeline
