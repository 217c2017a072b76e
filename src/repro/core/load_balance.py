"""Load balancing of submatrices over ranks (Sec. IV-E).

Submatrix dimensions vary with the local chemistry (a solvated molecule
induces larger submatrices than the surrounding solvent), so assigning the
same *number* of submatrices to every rank does not balance the *work*.  The
paper assigns one consecutive chunk of submatrices to every rank (to maximise
block reuse, Sec. IV-B2) using a greedy algorithm driven by the O(n³) cost
estimate: submatrices are appended to the current rank while its load stays
below FLOP_total / #ranks, and every rank receives at least one submatrix.

On top of the chunked assignment this module provides the *bucket-aware*
strategy used by the sharded pipeline: the padding granularity of the
batched evaluator is chosen from the measured dimension histogram
(:func:`choose_bucket_pad`) and whole equal-dimension stacks — the unit the
batched kernels actually execute — are balanced over workers with a
longest-processing-time heuristic (:func:`assign_balanced_stacks`) instead
of splitting individual submatrices across stack boundaries.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "pad_dimensions",
    "submatrix_flop_costs",
    "assign_consecutive_chunks",
    "assign_consecutive_chunks_reference",
    "assign_balanced_stacks",
    "choose_bucket_pad",
    "resolve_bucket_pad",
    "load_imbalance",
]


def pad_dimensions(dimensions, pad_to: Optional[int]) -> np.ndarray:
    """Round every dimension up to the next multiple of ``pad_to``.

    The single definition of the bucket-rounding rule shared by the batched
    evaluator's bucketing, the pad-choice heuristic and the pipeline's
    padded-cost accounting — so the three can never disagree on which
    bucket a dimension lands in.  ``pad_to=None`` returns the dimensions
    unchanged (exact-dimension buckets).
    """
    dimensions = np.asarray(list(dimensions), dtype=np.int64)
    if pad_to is None:
        return dimensions
    if pad_to < 1:
        raise ValueError("pad_to must be a positive integer")
    return -(-dimensions // pad_to) * pad_to


def submatrix_flop_costs(
    dimensions: Sequence[int], flop_constant: float = 1.0
) -> np.ndarray:
    """Estimated cost c·n³ per submatrix (Eq. 14)."""
    dimensions = np.asarray(list(dimensions), dtype=float)
    if np.any(dimensions < 0):
        raise ValueError("submatrix dimensions must be non-negative")
    if flop_constant <= 0:
        raise ValueError("flop_constant must be positive")
    return flop_constant * dimensions**3


def _validated_costs(costs: Sequence[float], n_ranks: int) -> np.ndarray:
    costs = np.asarray(list(costs), dtype=float)
    if np.any(costs < 0):
        raise ValueError("costs must be non-negative")
    if n_ranks < 1:
        raise ValueError("n_ranks must be positive")
    return costs


def assign_consecutive_chunks(
    costs: Sequence[float], n_ranks: int
) -> List[Tuple[int, int]]:
    """Assign consecutive chunks of submatrices to ranks (greedy, Sec. IV-E).

    Vectorized implementation of the paper's greedy: one cumulative sum of
    the costs is computed up front and every rank's chunk boundary is found
    with a single ``searchsorted`` (the first position where the cumulative
    load reaches FLOP_total / #ranks), instead of walking the cost vector
    item by item.  Equivalent to :func:`assign_consecutive_chunks_reference`
    up to floating-point summation order — property-tested exact on random
    integer-valued cost vectors; with cost magnitudes spread over ~16 orders
    of magnitude the two may pick a boundary one item apart (the global
    cumulative sum absorbs tiny costs that the reference's per-chunk
    accumulator retains), which is immaterial for c·n³ submatrix costs.

    Parameters
    ----------
    costs:
        Estimated cost per submatrix, in submatrix order.
    n_ranks:
        Number of ranks.

    Returns
    -------
    list of (start, stop):
        Half-open index ranges, one per rank, covering all submatrices in
        order.  Every rank receives at least one submatrix as long as there
        are at least as many submatrices as ranks; trailing ranks may receive
        an empty range otherwise.
    """
    costs = _validated_costs(costs, n_ranks)
    n = costs.size
    cumulative = np.concatenate(([0.0], np.cumsum(costs)))
    target = float(cumulative[-1]) / n_ranks
    assignments: List[Tuple[int, int]] = []
    start = 0
    for rank in range(n_ranks):
        remaining_ranks = n_ranks - rank
        remaining_items = n - start
        if remaining_items <= 0:
            assignments.append((start, start))
            continue
        if remaining_items <= remaining_ranks:
            # exactly one item per remaining rank
            assignments.append((start, start + 1))
            start += 1
            continue
        if rank == n_ranks - 1:
            assignments.append((start, n))
            start = n
            continue
        # first stop with cumulative[stop] - cumulative[start] >= target,
        # bounded so every remaining rank still gets at least one item
        limit = n - (remaining_ranks - 1)
        found = int(
            np.searchsorted(cumulative, cumulative[start] + target, side="left")
        )
        stop = max(start + 1, min(found, limit))
        assignments.append((start, stop))
        start = stop
    return assignments


def assign_consecutive_chunks_reference(
    costs: Sequence[float], n_ranks: int
) -> List[Tuple[int, int]]:
    """Item-by-item greedy reference of :func:`assign_consecutive_chunks`.

    Kept as executable documentation of the paper's algorithm and as the
    oracle for the equivalence property tests.
    """
    costs = _validated_costs(costs, n_ranks)
    n = costs.size
    assignments: List[Tuple[int, int]] = []
    total = float(costs.sum())
    target = total / n_ranks if n_ranks else total
    start = 0
    for rank in range(n_ranks):
        remaining_ranks = n_ranks - rank
        remaining_items = n - start
        if remaining_items <= 0:
            assignments.append((start, start))
            continue
        if remaining_items <= remaining_ranks:
            # exactly one item per remaining rank
            assignments.append((start, start + 1))
            start += 1
            continue
        load = 0.0
        stop = start
        # keep appending while below the target, but leave at least one
        # submatrix for every remaining rank
        while stop < n - (remaining_ranks - 1):
            load += costs[stop]
            stop += 1
            if load >= target and rank < n_ranks - 1:
                break
        if rank == n_ranks - 1:
            stop = n
        assignments.append((start, stop))
        start = stop
    return assignments


def assign_balanced_stacks(
    costs: Sequence[float], n_ranks: int
) -> List[List[int]]:
    """Balance whole stacks over ranks (longest-processing-time greedy).

    The batched evaluator executes one 3-D stack of equal-(padded-)dimension
    submatrices per kernel call, so splitting a stack across ranks would
    force both ranks to relaunch a partial kernel.  This assigner therefore
    treats each stack as indivisible: stacks are sorted by decreasing cost
    and each is placed on the currently least-loaded rank — the classic LPT
    heuristic, within 4/3 of the optimal makespan.

    Parameters
    ----------
    costs:
        Cost of each stack (e.g. k·D³ of a (k, D, D) stack).
    n_ranks:
        Number of ranks; ranks may end up with an empty stack list when
        there are fewer stacks than ranks.

    Returns
    -------
    list of list of int:
        Stack indices per rank; each index appears exactly once, and within
        one rank the indices are in ascending (deterministic) order.
    """
    costs = _validated_costs(costs, n_ranks)
    assignment: List[List[int]] = [[] for _ in range(n_ranks)]
    if costs.size == 0:
        return assignment
    # stable order: decreasing cost, ties by ascending index
    order = np.lexsort((np.arange(costs.size), -costs))
    heap = [(0.0, rank) for rank in range(n_ranks)]
    heapq.heapify(heap)
    for index in order:
        load, rank = heapq.heappop(heap)
        assignment[rank].append(int(index))
        heapq.heappush(heap, (load + float(costs[index]), rank))
    for stacks in assignment:
        stacks.sort()
    return assignment


def choose_bucket_pad(
    dimensions: Sequence[int],
    max_overhead: float = 0.15,
    candidates: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Pick the bucket padding granularity from the dimension histogram.

    A fixed ``bucket_pad`` is wrong in both directions: too small and nearly
    every dimension keeps its own bucket (many tiny stacks, Python overhead
    per stack); too large and the padded c·D³ work dwarfs the useful c·d³
    work.  This heuristic measures both on the actual histogram: for every
    candidate granularity it computes the padded-FLOP overhead
    Σ(pad(d))³ / Σd³ − 1 and the resulting bucket count, then returns the
    candidate producing the fewest buckets whose overhead stays below
    ``max_overhead`` (ties broken toward smaller overhead).

    Returns ``None`` when the histogram gives no reason to pad — fewer than
    two distinct dimensions, or no candidate that reduces the bucket count
    within the overhead budget — which callers pass straight through as
    "exact-dimension buckets only".
    """
    dimensions = np.asarray(list(dimensions), dtype=np.int64)
    if dimensions.size == 0 or np.any(dimensions < 0):
        return None
    if max_overhead < 0:
        raise ValueError("max_overhead must be non-negative")
    distinct = np.unique(dimensions)
    if distinct.size < 2:
        return None
    if candidates is None:
        # powers of two up to the largest dimension plus the spread of the
        # central half of the histogram (a natural "histogram width" scale)
        spread = int(np.percentile(dimensions, 75) - np.percentile(dimensions, 25))
        candidates = [2, 4, 8, 16, 32, 64, 128, 256]
        if spread > 1:
            candidates.append(spread)
    exact_flops = float(np.sum(dimensions.astype(float) ** 3))
    best: Optional[Tuple[int, float, int]] = None  # (n_buckets, overhead, pad)
    for pad in sorted({int(p) for p in candidates if int(p) >= 1}):
        padded = pad_dimensions(dimensions, pad)
        n_buckets = int(np.unique(padded).size)
        if n_buckets >= distinct.size:
            continue  # padding must actually merge buckets
        if exact_flops > 0:
            overhead = float(np.sum(padded.astype(float) ** 3)) / exact_flops - 1.0
        else:
            overhead = 0.0
        if overhead > max_overhead:
            continue
        key = (n_buckets, overhead, pad)
        if best is None or key[:2] < best[:2]:
            best = key
    return best[2] if best is not None else None


def resolve_bucket_pad(
    bucket_pad, dimensions: Sequence[int], run: int = 1, max_overhead: float = 0.15
) -> Optional[int]:
    """Resolve a ``bucket_pad`` setting (int, None or ``"auto"``) to a value.

    ``"auto"`` defers to :func:`choose_bucket_pad` on the measured dimension
    histogram; ``None`` passes through.  The value is rounded up to a whole
    number of ``run``s (the plan's ``run``: its index arrays address runs of
    that many values, so a padded stack dimension must stay a multiple of it)
    — more identity padding than asked for, which is as exact as any.
    """
    if bucket_pad == "auto":
        bucket_pad = choose_bucket_pad(dimensions, max_overhead=max_overhead)
    if bucket_pad is None:
        return None
    pad = int(bucket_pad)
    if pad < 1:
        raise ValueError("bucket_pad must be a positive integer, None or 'auto'")
    return -(-pad // run) * run


def load_imbalance(costs: Sequence[float], assignment) -> float:
    """Ratio of the largest to the average per-rank load (1.0 = balanced).

    ``assignment`` may be a list of (start, stop) ranges (consecutive
    chunks) or a list of explicit index lists.
    """
    costs = np.asarray(list(costs), dtype=float)
    loads: List[float] = []
    for entry in assignment:
        if isinstance(entry, tuple) and len(entry) == 2:
            start, stop = entry
            loads.append(float(costs[start:stop].sum()))
        else:
            loads.append(float(costs[list(entry)].sum()) if len(entry) else 0.0)
    loads_array = np.asarray(loads, dtype=float)
    total = float(loads_array.sum())
    if total == 0:
        return 1.0
    mean = total / len(loads_array)
    return float(loads_array.max() / mean)
