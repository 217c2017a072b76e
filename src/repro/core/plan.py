"""Cached extraction/scatter plans — the vectorized submatrix engine.

The serial reference in ``tests/submatrix_reference.py`` rebuilds all index
bookkeeping (retained rows, dense offsets, block positions) from scratch on
every call and moves data with Python loops.  That is wasteful in exactly the
situations the paper cares about: the μ-bisection of Sec. III-B and MD
trajectories evaluate f(A) many times while the sparsity pattern of A stays
fixed, and even a single evaluation visits every column group with the same
pattern-derived indexing.

A :class:`BlockSubmatrixPlan` precomputes, once per (block pattern, column
grouping):

* the retained block set, dense offsets and local generating-column
  positions of every submatrix, and
* flat gather/scatter index arrays that map between a *packed* value vector
  (the concatenated block values in deterministic COO order) and the dense
  submatrix buffers.

An element-level SciPy matrix is planned as the same grid with 1×1 blocks
(:meth:`repro.api.context.SubmatrixContext.apply` converts it).

The unit of every index array is a **run** of ``plan.run`` contiguous values,
not a value: the paper copies whole DBCSR blocks (Sec. IV-A), and a block row
is contiguous both in the packed vector and in a row of the dense submatrix.
``plan.run`` is the gcd of the block sizes (6 for SZV water molecule blocks,
1 for a grid of 1×1 blocks), so every packed block range, every
dense row offset and every submatrix dimension is a whole number of runs and
``dense.reshape(-1, run)[gather_dst] = packed.reshape(-1, run)[gather_src]``
is exact.  A plan holds each index array once — stacks are assembled from
the per-group arrays, nothing is memoized per bucket — so
:func:`plan_nbytes` is what a used plan occupies.

With the plan in hand, one evaluation of f(A) becomes

1. ``packed = plan.pack(A)``             — one gather of runs from the
   matrix's value buffer (its stored blocks found in the pattern by key);
2. ``stack = plan.extract_stack(packed, members)`` — one vectorized gather
   of runs per *stack* (the members' run indices concatenated) into a
   preallocated ``(k, d, d)`` stack of equal-dimension submatrices (no
   Python block loops, no ``np.ix_`` fancy indexing);
3. ``plan.scatter_panels(out, members, form)`` — the stack's
   generating-column panels, formed into one buffer per stack and written
   into one preallocated output value vector with one scatter (the panel
   positions, ``panel_src``, are fixed at build).  A spectral stack's
   panels come from one former whether they are formed inside the stack
   task (a fixed μ) or on the caller thread from the kept spectra once the
   bisection has fixed μ; ``scatter_stack`` and ``scatter`` slice those
   columns from whole evaluated matrices;
4. ``result = plan.finalize(out)``       — zero-copy: the block-sparse
   result's value buffer *is* ``out``, its index the plan's COO list.

Building a plan is itself index arithmetic over whole block columns, the
way the paper builds its submatrices from the global COO list (Sec. IV-A,
IV-C): each group computes one block-level record — (packed segment, height,
width, dense corner) per retained block — and expands it to run
positions with ``repeat``/``cumsum`` (:func:`repro.dbcsr.coo.concat_ranges`),
so a build costs ``O(groups)`` interpreter steps, not one per block.  The
record's segment half stays on the :class:`GroupPlan`;
:class:`repro.core.shard.ShardedPlan` moves whole segments by it.

Plans are cached in a :class:`PlanCache` keyed by a content hash of the
sparsity pattern and the column grouping, so repeated evaluations on an
unchanged pattern skip the planning phase entirely.

Plans produce results bitwise identical to that serial reference
(property-tested in ``tests/test_submatrix_plan.py``).
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.coo import CooBlockList, block_run, concat_ranges

__all__ = [
    "GroupPlan",
    "SubmatrixPlan",
    "BlockSubmatrixPlan",
    "PlanCache",
    "block_plan",
    "block_run",
    "plan_nbytes",
]

@dataclasses.dataclass
class GroupPlan:
    """Precomputed indexing for one column group's submatrix.

    Attributes
    ----------
    generating_columns, indices, local_columns, block_sizes:
        Same bookkeeping as :class:`~repro.core.submatrix.Submatrix`.
    dimension:
        Dense dimension of the submatrix.
    gather_src / gather_dst:
        Run positions (unit: ``plan.run`` contiguous values) such that
        ``dense.reshape(-1, run)[gather_dst] = packed.reshape(-1, run)[gather_src]``
        assembles the dense submatrix.
    panel_src / scatter_dst:
        Run positions such that ``out.reshape(-1, run)[scatter_dst] =
        panel.reshape(-1, run)[panel_src]`` writes the generating columns
        of the evaluated submatrix, given as their ``(dimension, w)`` panel
        (columns ``panel_rows``), into the packed output vector.
    panel_rows:
        Dense rows (equally: columns) of the generating columns, in the order
        the grouping lists the columns — the column order of the panel.
    segment_ids / segment_counts:
        The record the gather side was expanded from: the packed segments
        (:meth:`SubmatrixPlan.segment_offsets`) the group gathers, in gather
        order, and the number of runs it takes from each — so
        ``np.repeat(segment_ids, segment_counts)`` names the segment of every
        ``gather_src`` position.  ``O(blocks)`` where the four arrays above
        are ``O(elements / run)``; sharding moves whole segments and reads
        this instead of searching positions.  A shard's view
        keeps the *global* IDs here while its ``gather_src`` is rank-local.
    offsets:
        Dense offsets of the retained blocks.
    """

    generating_columns: np.ndarray
    indices: np.ndarray
    local_columns: np.ndarray
    dimension: int
    gather_src: np.ndarray
    gather_dst: np.ndarray
    panel_src: np.ndarray
    scatter_dst: np.ndarray
    panel_rows: np.ndarray
    segment_ids: np.ndarray
    segment_counts: np.ndarray
    block_sizes: np.ndarray
    offsets: np.ndarray


class SubmatrixPlan:
    """Shared per-call interface of a block plan and of a shard's view of it."""

    groups: List[GroupPlan]
    n_values: int

    #: Length of the runs of contiguous values every index array addresses:
    #: the gcd of the block sizes (1 for a grid of 1×1 blocks).
    run: int = 1

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def dimensions(self) -> List[int]:
        """Dense dimension of every planned submatrix."""
        return [group.dimension for group in self.groups]

    def pack(self, matrix) -> np.ndarray:  # pragma: no cover - interface
        """Flatten the values of ``matrix`` into the plan's packed layout."""
        raise NotImplementedError

    def segment_offsets(self) -> np.ndarray:  # pragma: no cover - interface
        """Boundaries of the natural transfer segments of the packed layout.

        Returns an array of length ``n_segments + 1`` such that segment ``s``
        owns the packed value range ``[offsets[s], offsets[s+1])``.  A
        segment is the unit in which values are owned and shipped between
        ranks: one non-zero block.  :class:`repro.core.shard.ShardedPlan`
        builds its rank-local buffers and the block→segment transfer index
        on top of this structure.
        """
        raise NotImplementedError

    def _move_runs(
        self, target: np.ndarray, dst: np.ndarray, source: np.ndarray, src: np.ndarray
    ) -> None:
        """``target[dst] = source[src]`` in runs of ``run`` contiguous values."""
        target.reshape(-1, self.run)[dst] = source.reshape(-1, self.run).take(
            src, axis=0
        )

    @staticmethod
    def _stack_dimension(groups: List[GroupPlan], stack_dim: Optional[int]) -> int:
        """The dimension of a stack of ``groups``: every member's own.

        Stacks are never padded, so a member of another dimension than
        ``stack_dim`` (default: the first member's) is a :class:`ValueError`.
        """
        if stack_dim is None:
            stack_dim = groups[0].dimension
        for group in groups:
            if group.dimension != stack_dim:
                raise ValueError(
                    f"group dimension {group.dimension} differs from stack "
                    f"dimension {stack_dim}: a stack holds submatrices of "
                    "its own dimension only"
                )
        return stack_dim

    def new_output(self) -> np.ndarray:
        """Preallocated packed output vector covering the full pattern."""
        return np.zeros(self.n_values)

    def scatter(
        self, out: np.ndarray, group_index: int, f_submatrix: np.ndarray
    ) -> None:
        """Write the generating columns of f(a_i): :meth:`scatter_stack` of
        a stack of one."""
        f_submatrix = np.asarray(f_submatrix)
        self.scatter_stack(out, [group_index], f_submatrix[None])

    def write_panels(
        self, out: np.ndarray, members: Sequence[int], panels: np.ndarray,
        starts: np.ndarray,
    ) -> None:
        """One scatter of several members' generating-column panels.

        ``panels[starts[i]:]`` holds member ``members[i]``'s ``(d, w)`` panel
        row-major: ``panel[:, p]`` is column ``panel_rows[p]`` of
        f(a_i) — all the method copies back (Sec. III), so a caller that can
        form these columns alone never builds the ``(d, d)`` matrix.  The
        members may have any dimensions.
        """
        groups = [self.groups[index] for index in members]
        src = np.concatenate([group.panel_src for group in groups])
        src += np.repeat(
            np.asarray(starts, dtype=np.int64) // self.run,
            [group.panel_src.size for group in groups],
        )
        dst = np.concatenate([group.scatter_dst for group in groups])
        self._move_runs(out, dst, panels, src)

    def finalize(self, out: np.ndarray):  # pragma: no cover - interface
        """Assemble the sparse result from the packed output vector."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # stacked (bucket-level) gather/scatter
    # ------------------------------------------------------------------ #
    def extract_stack(
        self,
        packed: np.ndarray,
        members: Sequence[int],
        stack_dim: Optional[int] = None,
        pad_value: float = 1.0,
    ) -> np.ndarray:
        """Assemble a ``(k, d, d)`` stack of submatrices with one gather.

        The members' run indices are concatenated, the destinations shifted
        to their slots.  Every member must have dimension ``stack_dim``
        (default: the first member's, see :meth:`_stack_dimension`).
        ``pad_value`` is an inert leftover — accepted and ignored, nothing is
        padded; it stays only because ``benchmarks/e2e`` passes it.
        """
        groups = [self.groups[index] for index in members]
        stack_dim = self._stack_dimension(groups, stack_dim)
        stack = np.zeros((len(groups), stack_dim, stack_dim))
        dst = np.concatenate([group.gather_dst for group in groups])
        slot_runs = stack_dim * stack_dim // self.run
        dst += np.repeat(
            np.arange(len(groups), dtype=np.int64) * slot_runs,
            [group.gather_dst.size for group in groups],
        )
        src = np.concatenate([group.gather_src for group in groups])
        self._move_runs(stack, dst, packed, src)
        return stack

    def width_parts(
        self, members: Sequence[int]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """A stack's slots grouped by generating width ``w``: one ``(slots,
        rows)`` per width, ascending — ``slots`` the stack slots of that
        width in stack order and ``rows`` their ``(k, w)`` generating rows
        (:attr:`GroupPlan.panel_rows`)."""
        rows = [self.groups[index].panel_rows for index in members]
        widths = np.array([member_rows.size for member_rows in rows])
        order = np.argsort(widths, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(widths[order])) + 1).tolist(), order.size]
        parts = []
        for first, stop in zip(cuts, cuts[1:]):
            slots = order[first:stop]
            parts.append((slots, np.array([rows[slot] for slot in slots.tolist()])))
        return parts

    def scatter_panels(
        self,
        out: np.ndarray,
        members: Sequence[int],
        form: Callable[[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]], None],
        stack_dim: Optional[int] = None,
    ) -> None:
        """Form a stack's generating-column panels, then write them with one
        scatter.

        The members (each of dimension ``stack_dim``, as in
        :meth:`extract_stack`) are grouped by generating width
        (:meth:`width_parts`); ``form(parts)`` gets one ``(slots, rows,
        into)`` per width, ``into`` a ``(k, d, w)`` view of the panel buffer,
        and writes into ``into[i]`` columns ``rows[i]`` of slot
        ``slots[i]``'s result.
        """
        groups = [self.groups[index] for index in members]
        stack_dim = self._stack_dimension(groups, stack_dim)
        parts = self.width_parts(members)
        counts = [slots.size for slots, _ in parts]
        sizes = np.repeat([stack_dim * rows.shape[1] for _, rows in parts], counts)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        panels = np.empty(int(starts[-1]))
        cuts = np.cumsum([0, *counts])
        form([
            (slots, rows, panels[starts[a] : starts[b]].reshape(b - a, stack_dim, -1))
            for (slots, rows), a, b in zip(parts, cuts, cuts[1:])
        ])
        order = np.concatenate([slots for slots, _ in parts])
        self.write_panels(out, np.asarray(members)[order], panels, starts[:-1])

    def scatter_stack(
        self,
        out: np.ndarray,
        members: Sequence[int],
        evaluated: np.ndarray,
        stack_dim: Optional[int] = None,
    ) -> None:
        """Scatter a whole evaluated ``(k, D, D)`` stack into the packed output:
        its generating columns sliced into panels, then :meth:`scatter_panels`'
        one scatter.

        Every member must have dimension ``stack_dim`` (default: the
        stack's), as in :meth:`extract_stack`.
        """
        if stack_dim is None:
            stack_dim = int(evaluated.shape[-1])
        dense_rows = np.arange(stack_dim)[:, None]

        def columns(parts) -> None:
            for slots, rows, into in parts:
                into[...] = evaluated[
                    slots[:, None, None], dense_rows, rows[:, None, :]
                ]

        self.scatter_panels(out, members, columns, stack_dim)


class BlockSubmatrixPlan(SubmatrixPlan):
    """Extraction/scatter plan for DBCSR block-column submatrices.

    The packed value layout concatenates the (row-major raveled) values of
    every non-zero block in the deterministic COO order of
    :class:`~repro.dbcsr.coo.CooBlockList`, so a block's unique COO ID also
    addresses its value range.

    Parameters
    ----------
    coo:
        Global block-sparsity pattern.
    block_sizes:
        Sizes of the (square) block rows/columns.
    column_groups:
        Groups of generating block columns, one submatrix per group.
    """

    def __init__(
        self,
        coo: CooBlockList,
        block_sizes: Sequence[int],
        column_groups: Sequence[Sequence[int]],
    ):
        if coo.n_block_rows != coo.n_block_cols:
            raise ValueError("the submatrix method requires a square block structure")
        self.block_sizes = np.asarray(list(block_sizes), dtype=int)
        if self.block_sizes.size != coo.n_block_rows:
            raise ValueError("block_sizes does not match the pattern dimensions")
        self.run = block_run(self.block_sizes)
        self.coo_rows = coo.rows.copy()
        self.coo_cols = coo.cols.copy()
        self.n_block_rows = coo.n_block_rows
        self.n_block_cols = coo.n_block_cols
        counts = self.block_sizes[self.coo_rows] * self.block_sizes[self.coo_cols]
        self.value_offsets = np.concatenate(
            ([0], np.cumsum(counts, dtype=np.int64))
        )
        self.n_values = int(self.value_offsets[-1])
        # column-major block keys: ascending, as the COO list is sorted
        self.coo_keys = self.coo_cols * self.n_block_rows + self.coo_rows
        self.column_groups = [list(map(int, group)) for group in column_groups]
        self.groups = [self._plan_group(coo, group) for group in self.column_groups]

    def _plan_group(self, coo: CooBlockList, group: List[int]) -> GroupPlan:
        columns = np.asarray(group, dtype=int)
        if columns.size == 0:
            raise ValueError("column groups must be non-empty")
        if columns.min() < 0 or columns.max() >= self.n_block_cols:
            raise IndexError("generating block column out of range")
        retained = np.unique(
            np.concatenate([coo.entries_in_columns(columns)[1], columns])
        )
        run = self.run
        sizes = self.block_sizes[retained]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        dim = int(offsets[-1])
        local_columns = np.searchsorted(retained, columns)
        # every pattern entry whose row AND column are retained contributes a
        # block to the dense submatrix
        ids, entry_rows, entry_cols = coo.entries_in_columns(retained)
        local_i = np.minimum(np.searchsorted(retained, entry_rows), retained.size - 1)
        keep = retained[local_i] == entry_rows
        ids, local_i, entry_cols = ids[keep], local_i[keep], entry_cols[keep]
        local_j = np.searchsorted(retained, entry_cols)
        # the block-level record: one (segment, height, width, dense corner)
        # per gathered block, in gather order, widths and positions in runs ...
        heights, widths = sizes[local_i], sizes[local_j] // run
        counts = heights * widths
        stride = dim // run
        corner = offsets[local_i] * stride + offsets[local_j] // run
        # ... expanded to run positions.  A block's values are one packed
        # range; its dense image is one range of ``width`` per block row.
        gather_src = concat_ranges(self.value_offsets[ids] // run, counts)
        row_in_block = concat_ranges(0, heights)
        gather_dst = concat_ranges(
            np.repeat(corner, heights) + row_in_block * stride,
            np.repeat(widths, heights),
        )
        # the scatter writes the blocks of the generating columns from their
        # panel (d, w): the generating dense columns side by side, in
        # grouping order, so a dense column run maps to one panel column run
        generating = np.repeat(np.isin(entry_cols, columns), counts)
        panel_rows = concat_ranges(offsets[local_columns], sizes[local_columns])
        to_panel = np.zeros(stride, dtype=np.int64)
        to_panel[panel_rows[::run] // run] = np.arange(panel_rows.size // run)
        dense_rows, dense_columns = np.divmod(gather_dst[generating], stride)
        return GroupPlan(
            generating_columns=columns,
            indices=retained,
            local_columns=local_columns,
            dimension=dim,
            gather_src=gather_src,
            gather_dst=gather_dst,
            panel_src=dense_rows * (panel_rows.size // run) + to_panel[dense_columns],
            scatter_dst=gather_src[generating],
            panel_rows=panel_rows,
            segment_ids=ids,
            segment_counts=counts,
            block_sizes=sizes,
            offsets=offsets,
        )

    def pack(self, matrix: BlockSparseMatrix) -> np.ndarray:
        """Concatenate all block values of ``matrix`` in plan (COO) order.

        Pattern entries without a stored block pack as zeros, matching the
        reference kernels' treatment of a pattern that is a superset of the
        stored blocks (e.g. a symmetrized or pattern-only COO list).  A
        stored block *outside* the pattern raises :class:`ValueError`: the
        plan belongs to another (stale) pattern and would silently evaluate
        the function of the matrix without that block.

        One pass: the stored blocks are found in the pattern by key and their
        runs moved from the matrix's value buffer
        (:meth:`~repro.dbcsr.block_matrix.BlockSparseMatrix.block_index`)
        with one gather (one scatter when some pattern blocks are unstored).
        """
        if not (
            np.array_equal(matrix.row_block_sizes, self.block_sizes)
            and np.array_equal(matrix.col_block_sizes, self.block_sizes)
        ):
            raise ValueError("matrix block structure does not match the plan")
        rows, cols, offsets, values = matrix.block_index()
        keys = cols * self.n_block_rows + rows
        found = np.searchsorted(self.coo_keys, keys)
        stray = found == self.coo_keys.size
        stray[~stray] = self.coo_keys[found[~stray]] != keys[~stray]
        if stray.any():
            first = np.lexsort((cols[stray], rows[stray]))[0]
            key = (int(rows[stray][first]), int(cols[stray][first]))
            raise ValueError(
                "matrix pattern does not match the plan: stored block "
                f"{key} is not in the planned pattern ({int(stray.sum())} "
                f"of {keys.size} stored blocks are outside it) — the plan "
                "was built for a different sparsity pattern"
            )
        run = self.run
        targets = concat_ranges(
            self.value_offsets[found] // run, np.diff(offsets) // run
        )
        if targets.size * run == self.n_values:  # every pattern block is stored
            source = np.empty_like(targets)
            source[targets] = np.arange(targets.size)
            return values.reshape(-1, run).take(source, axis=0).reshape(-1)
        packed = np.zeros(self.n_values)
        packed.reshape(-1, run)[targets] = values.reshape(-1, run)
        return packed

    def finalize(self, out: np.ndarray) -> BlockSparseMatrix:
        """Block-sparse result backed by ``out`` (zero-copy): its value
        buffer, in the plan's COO order."""
        return BlockSparseMatrix.from_index(
            self.block_sizes, self.block_sizes, self.coo_rows, self.coo_cols, out,
            self.value_offsets,
        )

    def segment_offsets(self) -> np.ndarray:
        """One segment per non-zero block (its raveled values, COO order).

        A segment index therefore *is* a block ID of the underlying
        :class:`~repro.dbcsr.coo.CooBlockList`, which is what lets the
        transfer planner translate shard segment requirements into
        per-(owner, consumer) traffic.
        """
        return np.asarray(self.value_offsets, dtype=np.int64)


# --------------------------------------------------------------------------- #
# plan cache
# --------------------------------------------------------------------------- #
def plan_nbytes(plan: "BlockSubmatrixPlan") -> int:
    """Resident size of a plan's index arrays, in bytes.

    Counts the numpy bookkeeping a plan holds — the per-group
    gather/scatter/index arrays and segment records plus the pattern-level
    arrays (the ledger's ``core.plan.bytes``).  Using a plan allocates
    nothing that outlives the call and holds no lazily created state, so the
    figure is as true after a warm call as before the first.
    """
    total = 0
    for group in plan.groups:
        for array in (
            group.generating_columns,
            group.indices,
            group.local_columns,
            group.gather_src,
            group.gather_dst,
            group.panel_src,
            group.scatter_dst,
            group.panel_rows,
            group.segment_ids,
            group.segment_counts,
            group.block_sizes,
            group.offsets,
        ):
            total += int(np.asarray(array).nbytes)
    for array in (
        plan.block_sizes,
        plan.value_offsets,
        plan.coo_rows,
        plan.coo_cols,
        plan.coo_keys,
    ):
        total += int(np.asarray(array).nbytes)
    return total


class PlanCache:
    """LRU cache of extraction plans keyed by pattern + grouping content.

    Two matrices with bitwise-identical sparsity patterns and the same column
    grouping share one plan, so the μ-bisection, repeated SCF/MD evaluations
    and the per-group loop within one evaluation all reuse the precomputed
    index arrays.

    The cache is bounded by plan count alone: past ``max_plans`` the least
    recently used plan is dropped.

    The cache is **thread-safe**: one re-entrant lock guards lookup, insert,
    eviction and the statistics counters, and the lock is held *across* plan
    construction, so N threads racing on the same pattern build exactly one
    plan (the others block and then hit).  This is what lets one session's
    cache back every client thread (:mod:`repro.serve`, or a caller's own
    pool); the price is that a client with a new pattern holds every other
    client's lookup for the length of one build — tens of milliseconds at the
    ledger's sizes (0.03-0.05 s for water-64/128) now that builds are array
    expansion.
    """

    def __init__(self, max_plans: int = 64):
        if max_plans < 1:
            raise ValueError("max_plans must be at least 1")
        self.max_plans = int(max_plans)
        self._plans: "collections.OrderedDict[tuple, BlockSubmatrixPlan]" = (
            collections.OrderedDict()
        )
        self._lock = threading.RLock()
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop all cached plans and reset every statistics counter.

        After ``clear()`` the cache is indistinguishable from a fresh one:
        no plans, no LRU history, and all ``stats`` counters (hits, misses,
        builds, evictions) back at zero.
        """
        with self._lock:
            self._plans.clear()
            self._reset_counters()

    @property
    def stats(self) -> Dict[str, int]:
        """Counter snapshot.

        ``misses`` counts lookups that had to build (``builds`` is the same
        number of constructions); ``evictions`` counts plans dropped by LRU
        overflow past ``max_plans``.  ``patches`` and ``groups_rebuilt`` are
        inert leftovers, always 0: nothing patches a plan any more, the keys
        stay only because ``benchmarks/e2e`` reads them.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
                "patches": 0,
                "groups_rebuilt": 0,
                "evictions": self.evictions,
                "plans": len(self._plans),
            }

    def _evict_lru(self) -> None:
        self._plans.popitem(last=False)
        self.evictions += 1

    def _lookup(self, key: tuple, builder) -> BlockSubmatrixPlan:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
            plan = builder()
            self.builds += 1
            self._plans[key] = plan
            while len(self._plans) > self.max_plans:
                self._evict_lru()
            return plan

    def block_plan(
        self,
        coo: CooBlockList,
        block_sizes: Sequence[int],
        column_groups: Sequence[Sequence[int]],
    ) -> BlockSubmatrixPlan:
        """Plan for a block pattern (built or fetched from cache)."""
        sizes = np.asarray(list(block_sizes), dtype=int)
        key = (
            "block",
            coo.fingerprint(),
            hashlib.sha1(sizes.astype(np.int64).tobytes()).hexdigest(),
            _groups_key(column_groups),
        )
        return self._lookup(key, lambda: BlockSubmatrixPlan(coo, sizes, column_groups))


def block_plan(
    coo: CooBlockList,
    block_sizes: Sequence[int],
    column_groups: Sequence[Sequence[int]],
    cache: Optional[PlanCache] = None,
) -> BlockSubmatrixPlan:
    """The plan for the pattern ``coo``: fetched from (or built into)
    ``cache``, or built uncached when no cache is given."""
    # explicit None check: an empty PlanCache is falsy (it has __len__)
    if cache is None:
        return BlockSubmatrixPlan(coo, block_sizes, column_groups)
    return cache.block_plan(coo, block_sizes, column_groups)


def _groups_key(column_groups: Sequence[Sequence[int]]) -> tuple:
    # tuple(map(tuple, ...)) runs at C speed; numpy integers hash and compare
    # equal to Python ints, so mixed-origin groups still share cache entries
    return tuple(map(tuple, column_groups))
