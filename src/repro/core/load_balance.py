"""Load balancing of submatrices over ranks (Sec. IV-E).

Submatrix dimensions vary with the local chemistry (a solvated molecule
induces larger submatrices than the surrounding solvent), so assigning the
same *number* of submatrices to every rank does not balance the *work*.  The
paper assigns one consecutive chunk of submatrices to every rank (to maximise
block reuse, Sec. IV-B2) using a greedy algorithm driven by the O(n³) cost
estimate (:func:`repro.work.submatrix_flop_costs`): submatrices are appended
to the current rank while its load stays below FLOP_total / #ranks, and
every rank receives at least one submatrix.

Each rank then solves its chunk at the submatrices' own dimensions: the
batched evaluator stacks only equal-dimension submatrices, so nothing is
padded and the c·n³ estimate is exactly the work a rank executes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.work import imbalance

__all__ = [
    "assign_consecutive_chunks",
    "load_imbalance",
]


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
    the costs, and every rank's chunk boundary from one ``searchsorted``
    (the first position where the cumulative load reaches FLOP_total /
    #ranks).  It equals the item-by-item greedy
    (``assign_consecutive_chunks_reference`` in
    ``tests/submatrix_reference.py``) up to summation order: exactly on
    integer-valued costs such as c·n³, and possibly one item apart when
    costs span ~16 orders of magnitude.

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


def load_imbalance(costs: Sequence[float], assignment) -> float:
    """Ratio of the largest to the average per-rank load (1.0 = balanced).

    ``assignment`` may be a list of (start, stop) ranges (consecutive
    chunks) or a list of explicit index lists.
    """
    costs = np.asarray(list(costs), dtype=float)
    chunks = (
        slice(*entry) if isinstance(entry, tuple) and len(entry) == 2 else list(entry)
        for entry in assignment
    )
    return imbalance([costs[chunk].sum() for chunk in chunks])
