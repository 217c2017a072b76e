"""Grouping of block columns into combined submatrices (Sec. IV-C).

The submatrix method leaves a trade-off: generating one submatrix per block
column minimises the dimension of each submatrix but maximises their number
(and the redundant work between overlapping submatrices); combining several
block columns into one submatrix reduces the total number of submatrices N_S
at the cost of somewhat larger dimensions.  The paper quantifies the benefit
with the estimated speedup (Eq. 15)

    S = Σ_i ñ_i³  /  Σ_i n_i³

where ñ_i are the submatrix dimensions for single block columns and n_i the
dimensions of the combined submatrices, assuming O(n³) cost per submatrix
(Eq. 14, :func:`repro.work.submatrix_flop_costs`; its constant cancels).

Two grouping heuristics are proposed and reproduced here (Fig. 5):

* k-means clustering of the real-space coordinates of the block columns,
* graph partitioning of the block-sparsity pattern (METIS in the paper,
  the greedy partitioner of :mod:`repro.clustering.graph_partition` here),

plus the simple greedy chunking of consecutive block columns that the paper
actually used in its CP2K measurements (Sec. V: "submatrices have instead
been combined based on a simple greedy heuristic that only considers using a
single block column or combining multiples of these basic regions").
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.clustering.graph_partition import partition_graph
from repro.clustering.kmeans import kmeans
from repro.core.submatrix import submatrix_dimension
from repro.dbcsr.coo import CooBlockList
from repro.work import submatrix_flop_costs

__all__ = [
    "ColumnGrouping",
    "check_grouping",
    "single_column_groups",
    "group_columns_kmeans",
    "group_columns_graph",
    "group_columns_greedy_chunks",
    "groups_from_labels",
    "estimated_speedup",
]

PatternLike = Union[sp.spmatrix, CooBlockList]


@dataclasses.dataclass
class ColumnGrouping:
    """A grouping of block columns into submatrices.

    Attributes
    ----------
    groups:
        List of lists of block-column indices; every block column appears in
        exactly one group.
    method:
        Human-readable name of the heuristic that produced the grouping.
    """

    groups: List[List[int]]
    method: str = "custom"

    @property
    def n_submatrices(self) -> int:
        return len(self.groups)

    def validate(self, n_columns: int) -> None:
        """Check that the grouping is a partition of ``range(n_columns)``: an
        empty group, a column out of range, in two groups or in none is a
        :class:`ValueError` naming it."""
        seen = np.zeros(n_columns, dtype=bool)
        for group in self.groups:
            if not group:
                raise ValueError("groups must be non-empty")
            for column in group:
                if not 0 <= column < n_columns:
                    raise ValueError(
                        f"block column {column} out of range for "
                        f"n_columns={n_columns}"
                    )
                if seen[column]:
                    raise ValueError(f"block column {column} in more than one group")
                seen[column] = True
        if not bool(np.all(seen)):
            missing = int(np.flatnonzero(~seen)[0])
            raise ValueError(f"block column {missing} not covered by any group")

    def submatrix_dimensions(
        self, pattern: PatternLike, block_sizes: Sequence[int]
    ) -> List[int]:
        """Dense dimension of every combined submatrix."""
        return [
            submatrix_dimension(pattern, block_sizes, group) for group in self.groups
        ]


def check_grouping(grouping: Optional[ColumnGrouping], n_columns: int) -> None:
    """The one check of a caller's ``grouping=`` (``None``: not given).

    Shared by ``apply`` and every density request: anything but a
    :class:`ColumnGrouping` is a :class:`TypeError`, and one that is not a
    partition of ``range(n_columns)`` fails :meth:`ColumnGrouping.validate`.
    """
    if grouping is None:
        return
    if not isinstance(grouping, ColumnGrouping):
        raise TypeError(
            f"grouping must be a ColumnGrouping, got {type(grouping).__name__}"
        )
    grouping.validate(n_columns)


def single_column_groups(n_columns: int) -> ColumnGrouping:
    """One submatrix per block column (the method's default granularity)."""
    if n_columns < 1:
        raise ValueError("n_columns must be positive")
    return ColumnGrouping([[c] for c in range(n_columns)], method="single")


def groups_from_labels(labels: Sequence[int], method: str = "labels") -> ColumnGrouping:
    """Build a grouping from per-column cluster labels (empty labels dropped)."""
    labels = np.asarray(labels, dtype=int)
    groups: List[List[int]] = []
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label).tolist()
        if members:
            groups.append(members)
    return ColumnGrouping(groups, method=method)


def group_columns_kmeans(
    centers: np.ndarray,
    n_submatrices: int,
    seed: Optional[int] = 0,
) -> ColumnGrouping:
    """Group block columns by k-means clustering of their real-space positions.

    Parameters
    ----------
    centers:
        (n_block_columns, 3) array of the real-space positions associated
        with each block column (the centre of the atoms behind the column,
        Sec. IV-C2).
    n_submatrices:
        Desired number of submatrices (clusters).
    seed:
        Random seed of the k-means initialisation.
    """
    result = kmeans(np.asarray(centers, dtype=float), n_submatrices, seed=seed)
    return groups_from_labels(result.labels, method="kmeans")


def group_columns_graph(
    pattern: sp.spmatrix,
    n_submatrices: int,
) -> ColumnGrouping:
    """Group block columns by partitioning the block-sparsity graph."""
    result = partition_graph(pattern, n_submatrices)
    return groups_from_labels(result.labels, method="graph")


def group_columns_greedy_chunks(
    n_columns: int, columns_per_group: int
) -> ColumnGrouping:
    """Combine consecutive block columns into fixed-size chunks.

    This reproduces the simple heuristic used for the paper's CP2K
    measurements: consecutive block columns (which correspond to consecutive
    32-molecule building blocks of the benchmark systems) are combined in
    multiples of the basic region.
    """
    if columns_per_group < 1:
        raise ValueError("columns_per_group must be positive")
    groups = [
        list(range(start, min(start + columns_per_group, n_columns)))
        for start in range(0, n_columns, columns_per_group)
    ]
    return ColumnGrouping(groups, method="greedy-chunks")


def estimated_speedup(
    pattern: PatternLike,
    block_sizes: Sequence[int],
    grouping: ColumnGrouping,
    single_dimensions: Optional[Sequence[int]] = None,
) -> float:
    """Estimated additional speedup S of a grouping (Eq. 15).

    Parameters
    ----------
    pattern:
        Block-sparsity pattern (or COO list) of the input matrix.
    block_sizes:
        Size of every block column.
    grouping:
        Candidate grouping of block columns into submatrices.
    single_dimensions:
        Optional precomputed submatrix dimensions for single block columns
        (the ñ_i of Eq. 15); computed on the fly if omitted.

    Returns
    -------
    float
        S > 1 means the grouping is expected to be faster than one submatrix
        per block column; S < 1 means it is expected to be slower.
    """
    block_sizes = np.asarray(list(block_sizes), dtype=int)
    if single_dimensions is None:
        single = single_column_groups(block_sizes.size)
        single_dimensions = single.submatrix_dimensions(pattern, block_sizes)
    grouped = grouping.submatrix_dimensions(pattern, block_sizes)
    denominator = float(submatrix_flop_costs(grouped).sum())
    if denominator == 0:
        raise ValueError("grouping produced only empty submatrices")
    return float(submatrix_flop_costs(single_dimensions).sum()) / denominator
