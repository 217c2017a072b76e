"""Cross-request micro-batching of density calculations.

The submatrix engine's batched evaluator already amortizes LAPACK dispatch
by eigendecomposing whole ``(k, d, d)`` stacks of equal-dimension
submatrices at once — but only *within* one request.  A service receiving
many small, similar requests (same engine configuration, overlapping
submatrix dimension histograms) leaves that batching on the table: each
request's buckets are evaluated in their own pass, and small systems
produce stacks far below the memory cap.

:class:`MicroBatcher` closes that gap.  Requests wait in a queue for at
most ``max_wait`` seconds while compatible peers arrive (same session
context, same eigen-family solver: the :attr:`DensityRequest.batch_key`);
a group is then evaluated by :func:`evaluate_merged_group`:

1. requests carrying bytewise-identical inputs (same ``K``, ``S`` and
   block sizes — the common shape when tenants draw from a shared molecule
   library) are deduplicated: each distinct content is prepared, packed and
   eigendecomposed exactly once per group, and duplicates reattach at the
   μ-dependent stages;
2. every distinct content's pure preparation (orthogonalization, block
   conversion, COO pattern) runs in parallel through the session executor;
3. plan lookups run serially on the batcher thread against the shared
   :class:`~repro.core.plan.PlanCache` — this is where cross-tenant plan
   reuse lands, and serial per-request lookups keep the per-request
   hit/miss attribution exact;
4. the per-content stack tasks are merged *across requests* by dimension
   (respecting :data:`~repro.core.batch.MAX_BATCH_ELEMENTS`) and each
   merged stack is eigendecomposed once;
5. every request's entries go to
   :func:`~repro.api.observables.evaluate_request` — the μ-dependent tail
   (fixed μ or canonical bisection, occupation scatter, assembly of every
   requested observable) a direct call ends in.

Bitwise identity with direct :meth:`SubmatrixContext.observables
<repro.api.context.SubmatrixContext.observables>` calls holds because the
batched ``eigh`` is slice-deterministic — each slice's decomposition is
independent of the stack composition, the same property the rank-sharded
pipeline's identity guarantee already rests on — every μ-dependent step
is the direct path's own code on exactly the per-request entries, and
content deduplication only ever reuses deterministic intermediates
computed from bytewise-equal inputs.  A failing merged
group falls back to independent per-request evaluation, so one poisoned
request cannot take its neighbours down with it.

An optional :class:`DecompositionCache` (short TTL, content-keyed) rides
on the same identity argument: it carries a distinct content's
μ-independent work *across* micro-batch windows, so a hot request arriving
in the next window skips preparation, packing and the eigendecomposition
entirely.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import queue
import threading
import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.context import matrix_fingerprint
from repro.api.observables import (
    Decomposition,
    _make_entry,
    evaluate_request,
    prepare_step,
)
from repro.core.batch import MAX_BATCH_ELEMENTS, Bucket, make_stack_tasks
from repro.core.combination import single_column_groups

__all__ = [
    "DecompositionCache",
    "DensityRequest",
    "MicroBatcher",
    "evaluate_merged_group",
]

_SHUTDOWN = object()

#: Upper bound, in bytes, on the eigendecompositions a
#: :class:`DecompositionCache` keeps (Σdᵢ²·8 B of eigenvectors per entry: 9 MB
#: for a water-32 request, 29 MiB at water-128, where an entry count alone
#: would admit 32 of them).  The rule of the session's overlap-root cache
#: (:data:`repro.api.context.MAX_OVERLAP_ROOT_BYTES`): least recently used
#: entries are dropped first, the entry just stored is always kept.
MAX_DECOMPOSITION_BYTES = 256 * 2**20


@dataclasses.dataclass
class DensityRequest:
    """One queued density request bound to a pooled session context.

    Created by :class:`~repro.serve.server.DensityService`, which has
    validated it (:func:`~repro.api.observables.validate_request`);
    ``future`` resolves to the request's
    :class:`~repro.api.results.ObservableBundle`, or for a density-only
    request to the bundle's plain
    :class:`~repro.api.results.SubmatrixDFTResult`.  ``on_done`` (the
    service's completion hook: metrics, admission release, memory
    enforcement) runs *before* the future is resolved, so a caller that
    blocks on the future observes the request already accounted for.
    """

    tenant: str
    context: object
    K: object
    S: object
    blocks: object
    mu: Optional[float] = None
    n_electrons: Optional[float] = None
    solver: str = "eigen"
    mu_tolerance: float = 1e-9
    max_mu_iterations: int = 200
    mu_bracket: Optional[Tuple[float, float]] = None
    grouping: object = None
    ranks: Optional[int] = None
    distribution: object = None
    observables: Tuple[str, ...] = ("density",)
    observable_params: object = None
    submitted_at: float = 0.0
    future: concurrent.futures.Future = dataclasses.field(
        default_factory=concurrent.futures.Future
    )
    on_done: Optional[Callable] = None
    # filled in during execution
    batched: bool = False
    n_coalesced: int = 1
    shared: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    decomposition_hits: int = 0
    decomposition_misses: int = 0

    @property
    def batch_key(self) -> tuple:
        """Requests merge only within one (context, solver, observable set)
        equivalence class, so groups stay homogeneous in the observables
        they assemble."""
        return (id(self.context), self.solver, tuple(self.observables))

    @property
    def content_key(self) -> tuple:
        """Bytewise input identity: requests with equal keys share all
        μ-independent work (prepare, pack, eigendecomposition) in a group."""
        return (
            matrix_fingerprint(self.K),
            matrix_fingerprint(self.S),
            tuple(int(b) for b in self.blocks.block_sizes),
        )

    def finish(self, bundle) -> None:
        if self.on_done is not None:
            try:
                self.on_done(self, bundle, None)
            except Exception:
                pass
        density_only = tuple(self.observables) == ("density",)
        self.future.set_result(bundle["density"] if density_only else bundle)

    def fail(self, error: BaseException) -> None:
        if self.on_done is not None:
            try:
                self.on_done(self, None, error)
            except Exception:
                pass
        self.future.set_exception(error)


class DecompositionCache:
    """Short-TTL content-keyed cache of μ-independent request work.

    A hot request content — bytewise-identical ``K``, ``S`` and block sizes
    arriving again within ``ttl`` seconds — reuses its preparation,
    extraction plan and cached per-submatrix eigendecompositions *across*
    micro-batch windows, extending the within-group content deduplication
    of :func:`evaluate_merged_group` in time.  Only the μ-dependent stages
    (ensemble handling, occupation scatter, observable assembly) are ever
    recomputed, so cache hits stay bitwise identical to fresh evaluations:
    the cached intermediates are deterministic functions of bytewise-equal
    inputs, exactly like the within-group reuse.

    Entries are bound to the session context that produced them (held by
    weak reference — plans belong to that context's plan cache) and expire
    after ``ttl`` seconds; the LRU holds at most ``max_entries`` of them and
    at most :data:`MAX_DECOMPOSITION_BYTES` of eigenvalues and eigenvectors
    (the newest entry always fits, older ones go down to the bound).  All
    methods are thread-safe, but the cache is only consulted from the single
    micro-batcher thread in practice.
    """

    def __init__(self, ttl: float, max_entries: int = 32):
        if ttl <= 0.0:
            raise ValueError("ttl must be positive (omit the cache to disable)")
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.ttl = float(ttl)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, context) -> Optional[Decomposition]:
        """The cached :class:`~repro.api.observables.Decomposition` for
        ``key``, if fresh and produced by ``context``; counts a hit or miss
        either way."""
        now = time.monotonic()
        with self._lock:
            record = self._entries.get(key)
            if record is not None:
                expires, context_ref, value, _ = record
                if expires >= now and context_ref() is context:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return value
                del self._entries[key]
            self.misses += 1
            return None

    def put(self, key: tuple, context, value: Decomposition) -> None:
        nbytes = sum(
            entry.eigenvalues.nbytes + entry.eigenvectors.nbytes
            for entry in value.decomposed
        )
        with self._lock:
            self._entries[key] = (
                time.monotonic() + self.ttl,
                weakref.ref(context),
                value,
                nbytes,
            )
            self._entries.move_to_end(key)
            # keep at least the entry just stored, even when it alone
            # exceeds the byte bound: dropping it would defeat the cache
            while len(self._entries) > self.max_entries or (
                len(self._entries) > 1 and self._bytes() > MAX_DECOMPOSITION_BYTES
            ):
                self._entries.popitem(last=False)

    def _bytes(self) -> int:
        return sum(record[3] for record in self._entries.values())

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes(),
                "hits": self.hits,
                "misses": self.misses,
            }


def _merge_stack_tasks(
    per_request_buckets: Sequence[List[Bucket]],
    max_batch_elements: int = MAX_BATCH_ELEMENTS,
) -> List[List[Tuple[int, Bucket]]]:
    """Merge per-request stack tasks across requests by dimension.

    Returns groups of ``(request_index, bucket)`` contributions; each group
    shares one dimension and its total member count obeys the element cap,
    so the concatenated stack is no larger than a single request's largest
    allowed stack.  Dimensions are processed in sorted order and requests in
    submission order within a dimension, making the merge deterministic.
    """
    by_dimension: Dict[int, List[Tuple[int, Bucket]]] = {}
    for request_index, buckets in enumerate(per_request_buckets):
        for bucket in buckets:
            by_dimension.setdefault(bucket.dimension, []).append(
                (request_index, bucket)
            )
    merged: List[List[Tuple[int, Bucket]]] = []
    for dimension in sorted(by_dimension):
        capacity = max(1, max_batch_elements // max(1, dimension * dimension))
        current: List[Tuple[int, Bucket]] = []
        count = 0
        for contribution in by_dimension[dimension]:
            members = len(contribution[1].members)
            if count and count + members > capacity:
                merged.append(current)
                current, count = [], 0
            current.append(contribution)
            count += members
        if current:
            merged.append(current)
    return merged


def evaluate_merged_group(
    context,
    requests: Sequence[DensityRequest],
    decomposition_cache: Optional[DecompositionCache] = None,
) -> list:
    """Evaluate a group of compatible requests with merged eigh stacks.

    All requests must share :attr:`DensityRequest.batch_key` (one context,
    one eigen-family solver, one observable set) and be validated
    (:func:`~repro.api.observables.validate_request`).  Returns the
    per-request :class:`~repro.api.results.ObservableBundle` objects in
    order; each is bitwise identical to a direct ``context.observables``
    call with the same arguments.  ``decomposition_cache`` optionally
    serves a distinct content's μ-independent work from a previous
    micro-batch window (see :class:`DecompositionCache`).
    """
    config = context.config
    start = time.perf_counter()

    # 0. deduplicate bytewise-identical inputs: each distinct content is
    #    prepared, packed and decomposed once; duplicates reattach at the
    #    μ-dependent stages.  The reused intermediates are deterministic
    #    functions of bytewise-equal inputs, so identity is preserved.
    owner: List[int] = []
    first_by_key: Dict[tuple, int] = {}
    for index, request in enumerate(requests):
        owner.append(first_by_key.setdefault(request.content_key, index))
        request.shared = owner[index] != index
    representatives = [i for i, o in enumerate(owner) if o == i]

    # 0b. distinct contents already decomposed in a previous window skip
    #     the μ-independent stages entirely
    decompositions: Dict[int, Decomposition] = {}
    if decomposition_cache is not None:
        for i in representatives:
            value = decomposition_cache.get(requests[i].content_key, context)
            if value is not None:
                decompositions[i] = value
                requests[i].decomposition_hits += 1
            else:
                requests[i].decomposition_misses += 1
    fresh = [i for i in representatives if i not in decompositions]

    # 1. pure preparation per distinct uncached content, in parallel
    prepared = dict(
        zip(
            fresh,
            context._map(
                lambda i: prepare_step(
                    requests[i].K,
                    requests[i].S,
                    requests[i].blocks,
                    config.eps_filter,
                    s_inv_sqrt=context.overlap_root(requests[i].S),
                ),
                fresh,
            ),
        )
    )

    # 2. serial per-request plan lookups on the shared cache (exact hit
    #    attribution); packing happens once per distinct content.  Requests
    #    whose content came from the decomposition cache skip the lookup —
    #    their plan was resolved (and attributed) when the entry was built.
    planned: Dict[int, tuple] = {}
    for index, request in enumerate(requests):
        if owner[index] not in prepared:
            continue
        prep = prepared[owner[index]]
        grouping = single_column_groups(prep.block_k.n_block_cols)
        before = context.plan_cache.stats
        plan = context.block_plan_for(
            prep.coo,
            prep.block_k.row_block_sizes,
            list(grouping.groups),
        )
        after = context.plan_cache.stats
        request.cache_hits += after["hits"] - before["hits"]
        request.cache_misses += after["misses"] - before["misses"]
        if owner[index] == index:
            planned[index] = (
                plan,
                plan.pack(prep.block_k),
                make_stack_tasks(plan.dimensions),
            )

    # 3. merge stack tasks across distinct fresh contents and eigendecompose
    #    each merged stack once; eigh is slice-deterministic, so the
    #    per-slice results do not depend on which content's submatrices
    #    share the stack
    merged = _merge_stack_tasks([planned[i][2] for i in fresh])
    stacks = []
    for group in merged:
        parts = [
            planned[fresh[position]][0].extract_stack(
                planned[fresh[position]][1],
                bucket.members,
                bucket.dimension,
            )
            for position, bucket in group
        ]
        stacks.append(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0))
    eigendecompositions = context._map(np.linalg.eigh, stacks)

    # 4. route each slice back to its content's entry table
    entries: Dict[int, List] = {i: [None] * planned[i][0].n_groups for i in fresh}
    for group, (eigenvalues, eigenvectors) in zip(merged, eigendecompositions):
        offset = 0
        for position, bucket in group:
            representative = fresh[position]
            plan = planned[representative][0]
            for slot, group_index in enumerate(bucket.members):
                entries[representative][group_index] = _make_entry(
                    plan,
                    group_index,
                    eigenvalues[offset + slot],
                    eigenvectors[offset + slot],
                )
            offset += len(bucket.members)
    for i in fresh:
        plan, _, buckets = planned[i]
        decompositions[i] = Decomposition(
            prepared[i],
            plan,
            decomposed=entries[i],
            stack_decompositions=len(buckets),
        )
        if decomposition_cache is not None:
            decomposition_cache.put(
                requests[i].content_key, context, decompositions[i]
            )

    # 5. strictly per-request: the tail of a direct call (shared
    #    decompositions are only ever read there)
    return [
        evaluate_request(
            config,
            request.K,
            decompositions[owner[index]],
            tuple(request.observables),
            start,
            mu=request.mu,
            n_electrons=request.n_electrons,
            mu_tolerance=request.mu_tolerance,
            max_mu_iterations=request.max_mu_iterations,
            mu_bracket=request.mu_bracket,
            observable_params=request.observable_params,
        )
        for index, request in enumerate(requests)
    ]


class MicroBatcher:
    """Single consumer thread coalescing compatible requests into groups.

    The first queued request opens a group and waits at most ``max_wait``
    seconds for up to ``max_batch - 1`` compatible peers; incompatible
    requests observed while collecting are deferred (order-preserving) to
    the next group.  ``max_wait`` bounds the latency cost of batching: an
    isolated request is delayed by at most the wait window.
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_wait: float = 0.002,
        decomposition_cache: Optional[DecompositionCache] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.decomposition_cache = decomposition_cache
        self._queue: "queue.Queue" = queue.Queue()
        self._deferred: List[DensityRequest] = []
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="density-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, request: DensityRequest) -> None:
        if self._closed:
            raise RuntimeError("the micro-batcher has been closed")
        self._queue.put(request)

    def close(self) -> None:
        """Drain queued requests, then stop the batcher thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_SHUTDOWN)
        self._thread.join()

    # ------------------------------------------------------------------ #
    def _next_request(self, block: bool) -> object:
        if self._deferred:
            return self._deferred.pop(0)
        try:
            return self._queue.get(block=block)
        except queue.Empty:
            return None

    def _run(self) -> None:
        while True:
            first = self._next_request(block=True)
            if first is None:
                continue
            if first is _SHUTDOWN:
                self._fail_remaining()
                return
            group = [first]
            deadline = time.monotonic() + self.max_wait
            stop = False
            while len(group) < self.max_batch:
                if self._deferred:
                    # deferred requests are by construction incompatible
                    # with the current group's key
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    stop = True
                    break
                if item.batch_key == first.batch_key:
                    group.append(item)
                else:
                    self._deferred.append(item)
            self._execute_group(group)
            if stop:
                self._fail_remaining()
                return

    def _fail_remaining(self) -> None:
        """Fail anything still queued after shutdown (submit/close races)."""
        leftovers = list(self._deferred)
        self._deferred.clear()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                leftovers.append(item)
        for request in leftovers:
            request.fail(RuntimeError("the density service has been closed"))

    def _execute_group(self, group: List[DensityRequest]) -> None:
        context = group[0].context
        try:
            with contextlib.ExitStack() as stack:
                for request in group:
                    stack.enter_context(context._request())
                try:
                    self._execute_merged(context, group)
                except Exception as error:
                    if len(group) == 1:
                        group[0].fail(error)
                        return
                    # fall back to independent evaluation so one poisoned
                    # request cannot fail its neighbours; a single-request
                    # evaluation is the merged path with a group of one,
                    # so the survivors stay bitwise identical
                    for request in group:
                        request.batched = False
                        request.n_coalesced = 1
                        try:
                            (result,) = evaluate_merged_group(context, [request])
                        except Exception as single_error:
                            request.fail(single_error)
                        else:
                            request.finish(result)
        except RuntimeError as error:
            # the context was closed before the group started (_request)
            for request in group:
                if not request.future.done():
                    request.fail(error)

    def _execute_merged(self, context, group: List[DensityRequest]) -> None:
        for request in group:
            request.batched = len(group) > 1
            request.n_coalesced = len(group)
        results = evaluate_merged_group(
            context, group, decomposition_cache=self.decomposition_cache
        )
        for request, result in zip(group, results):
            request.finish(result)
