"""Rank-sharding of submatrix extraction plans (Sec. IV-A3 / IV-B).

In the CP2K implementation every MPI rank assembles only the submatrices it
was assigned, from a *local buffer* holding exactly the blocks those
submatrices touch — fetched once per (owner, consumer) pair during
initialization.  The vectorized plan engine of :mod:`repro.core.plan`, by
contrast, is a single-process monolith: one packed value vector covering the
whole pattern, one set of gather/scatter arrays indexing into it.

:class:`ShardedPlan` closes that gap.  It splits one
:class:`~repro.core.plan.SubmatrixPlan` by a group→rank assignment so that
every rank owns

* the :class:`~repro.core.plan.GroupPlan` bookkeeping of its own column
  groups only, with the gather arrays *re-based onto a rank-local packed
  buffer* that concatenates just the value segments (non-zero blocks)
  those groups reference;
* its **required segments** — the global segments (non-zero blocks) the
  rank needs, each packed once into the local buffer.  A segment is a
  whole block, so this is exactly the deduplicated required-block set
  whose remote bytes the transfer planner
  (:func:`repro.core.transfers.plan_transfers`) charges;
* an unchanged *global* scatter side: groups partition the generating
  columns, so the scatter destinations of different ranks are disjoint and
  every rank can write its evaluated columns straight into the shared
  output vector (zero-copy, no merge step), keeping the final
  ``plan.finalize(out)`` bitwise identical to the single-process engine.

The per-rank view (:class:`ShardView`) is itself a
:class:`~repro.core.plan.SubmatrixPlan`, so the bucketed batch evaluator of
:mod:`repro.core.batch` runs on a shard unchanged — that is what lets
:class:`repro.core.runner.DistributedSubmatrixPipeline` execute simulated
ranks *through* the fast engine instead of beside it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.core.batch import Bucket, make_stack_tasks
from repro.core.plan import GroupPlan, SubmatrixPlan
from repro.dbcsr.coo import concat_ranges

__all__ = ["ShardView", "RankShard", "ShardedPlan"]


class ShardView(SubmatrixPlan):
    """The :class:`SubmatrixPlan` interface of one rank's shard.

    Gather indices address the rank-local packed buffer
    (``local_values`` entries); scatter indices still address the *global*
    packed output vector (``n_values`` entries), which is safe because group
    scatter ranges are disjoint across ranks.  Both in runs of the sharded
    plan's ``run`` values.
    """

    def __init__(
        self, groups: List[GroupPlan], n_values: int, local_values: int, run: int
    ):
        self.groups = groups
        self.n_values = int(n_values)
        self.local_values = int(local_values)
        self.run = int(run)

    def pack(self, matrix) -> np.ndarray:
        raise NotImplementedError(
            "a shard has no global pack; use RankShard.pack_local on the "
            "owning plan's packed values"
        )

    def finalize(self, out: np.ndarray):
        raise NotImplementedError(
            "shards scatter into the shared output vector; finalize through "
            "the unsharded plan"
        )


@dataclasses.dataclass
class RankShard:
    """One rank's share of a sharded extraction plan.

    Attributes
    ----------
    rank:
        The simulated rank this shard belongs to.
    group_indices:
        Global plan-group indices owned by this rank (ascending).
    required_segments:
        Sorted unique global segment IDs referenced by the rank's gather
        arrays.  At block level a segment ID is a COO block ID, so this *is*
        the rank's deduplicated required-block set.  The local buffer holds
        these segments whole, concatenated in this order.
    local_to_global:
        Global packed position of every run (``view.run`` values) of the
        local buffer, so one gather of runs fills it (:meth:`pack_local`).
    view:
        The rank's :class:`ShardView` (plan interface over the local buffer).
    """

    rank: int
    group_indices: np.ndarray
    required_segments: np.ndarray
    local_to_global: np.ndarray
    view: ShardView
    # the bucketed stack layout; the shard (and with it this cache) lives as
    # long as its pipeline, so repeated evaluations over an unchanged
    # pattern — μ-bisections, MD trajectories — do not rebuild the buckets
    _stack_tasks: Optional[List[Bucket]] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_groups(self) -> int:
        return int(self.group_indices.size)

    @property
    def dimensions(self) -> List[int]:
        """Dense dimensions of the rank's submatrices (shard order)."""
        return self.view.dimensions

    def pack_local(self, packed: np.ndarray) -> np.ndarray:
        """Rank-local packed buffer: the required segments, concatenated.

        In a real distributed run this is the result of the initialization
        exchange — every remote segment arrives once and lands contiguously
        in the local buffer.  Here it is a single vectorized gather from the
        global packed values.
        """
        runs = packed.reshape(-1, self.view.run)
        return runs.take(self.local_to_global, axis=0).reshape(-1)

    def stack_tasks(self) -> List[Bucket]:
        """Cached bucketed stack layout of this shard's submatrices.

        The buckets index into :attr:`view` (shard-local member order) and
        are memoized, so cross-step reuse of a sharded plan also reuses its
        stack layout.
        """
        if self._stack_tasks is None:
            self._stack_tasks = make_stack_tasks(self.dimensions)
        return self._stack_tasks


class ShardedPlan:
    """A :class:`SubmatrixPlan` split across simulated ranks.

    Parameters
    ----------
    plan:
        The plan to shard; its segments
        (:meth:`~repro.core.plan.SubmatrixPlan.segment_offsets`) are its
        non-zero blocks.
    rank_of_group:
        Owning rank of every plan group (length ``plan.n_groups``).
    n_ranks:
        Total rank count; defaults to ``max(rank_of_group) + 1``.  Ranks
        without any group receive an empty shard.
    """

    def __init__(
        self,
        plan: SubmatrixPlan,
        rank_of_group: Sequence[int],
        n_ranks: Optional[int] = None,
    ):
        rank_of_group = np.asarray(list(rank_of_group), dtype=np.int64)
        if rank_of_group.size != plan.n_groups:
            raise ValueError("rank_of_group must assign a rank to every group")
        if n_ranks is None:
            n_ranks = int(rank_of_group.max()) + 1 if rank_of_group.size else 1
        n_ranks = int(n_ranks)
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        if rank_of_group.size and (
            rank_of_group.min() < 0 or rank_of_group.max() >= n_ranks
        ):
            raise IndexError("rank assignment out of range")
        self.plan = plan
        self.rank_of_group = rank_of_group
        self.n_ranks = n_ranks
        self._offsets = np.asarray(plan.segment_offsets(), dtype=np.int64)
        self.shards: List[RankShard] = [
            self._build_shard(rank) for rank in range(n_ranks)
        ]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_shard(self, rank: int) -> RankShard:
        offsets, run = self._offsets, self.plan.run
        owned = np.flatnonzero(self.rank_of_group == rank)
        owned_groups = [self.plan.groups[g] for g in owned]
        # the rank needs exactly the segments its groups' records name
        needed = np.zeros(offsets.size - 1, dtype=bool)
        for group in owned_groups:
            needed[group.segment_ids] = True
        required = np.flatnonzero(needed)
        starts = offsets[required]
        lengths = offsets[required + 1] - starts
        local_offsets = np.concatenate(
            ([0], np.cumsum(lengths, dtype=np.int64))
        )
        # segments land in the local buffer whole and in ID order, so every
        # run of segment s moves by the same to_local[s]
        to_local = np.zeros(offsets.size - 1, dtype=np.int64)
        to_local[required] = (local_offsets[:-1] - starts) // run
        groups = [
            dataclasses.replace(
                group,
                gather_src=group.gather_src
                + np.repeat(to_local[group.segment_ids], group.segment_counts),
            )
            for group in owned_groups
        ]
        n_local = int(local_offsets[-1])
        view = ShardView(
            groups, n_values=self.plan.n_values, local_values=n_local, run=run
        )
        return RankShard(
            rank=rank,
            group_indices=owned,
            required_segments=required,
            local_to_global=concat_ranges(starts // run, lengths // run),
            view=view,
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n_groups(self) -> int:
        return self.plan.n_groups
