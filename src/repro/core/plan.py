"""Cached extraction/scatter plans — the vectorized submatrix engine.

The naive kernels in :mod:`repro.core.submatrix` rebuild all index
bookkeeping (retained rows, dense offsets, block positions) from scratch on
every call and move data with Python loops.  That is wasteful in exactly the
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

1. ``packed = plan.pack(A)``             — one pass over the stored values;
2. ``a_i = plan.extract(packed, i)``     — a single vectorized gather of
   runs per submatrix into a preallocated dense buffer (no Python block
   loops, no ``np.ix_`` fancy indexing);
3. ``plan.scatter(out, i, f(a_i))``      — a single vectorized scatter of
   the generating columns into one preallocated output value vector
   (``plan.scatter_columns(out, i, panel)`` when only those columns of
   f(a_i) were formed);
4. ``result = plan.finalize(out)``       — zero-copy assembly of the sparse
   result (CSR arrays reuse the plan's pattern; block results are views
   into the output buffer).

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

Plans produce results bitwise identical to the naive reference
implementations (property-tested in ``tests/test_submatrix_plan.py``).
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.submatrix import Submatrix
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.coo import CooBlockList, concat_ranges

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
    scatter_src / scatter_dst:
        Run positions such that ``out.reshape(-1, run)[scatter_dst] =
        f_dense.reshape(-1, run)[scatter_src]`` writes the generating columns
        of the evaluated submatrix into the packed output vector.
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
    scatter_src: np.ndarray
    scatter_dst: np.ndarray
    segment_ids: np.ndarray
    segment_counts: np.ndarray
    block_sizes: np.ndarray
    offsets: np.ndarray

    def make_submatrix(self, data: Optional[np.ndarray] = None) -> Submatrix:
        """Bookkeeping-only :class:`Submatrix` view of this group."""
        return Submatrix(
            generating_columns=self.generating_columns,
            indices=self.indices,
            local_columns=self.local_columns,
            data=data,
            block_sizes=self.block_sizes,
        )

    def generating_rows(self) -> np.ndarray:
        """Dense rows (equally: columns) of the generating columns.

        In the order the grouping lists the columns — the column order of a
        panel handed to :meth:`SubmatrixPlan.scatter_columns`.
        """
        columns = self.local_columns
        if columns.size == 1:  # the default grouping: one range, one arange
            start = self.offsets[columns[0]]
            return np.arange(start, start + self.block_sizes[columns[0]])
        return concat_ranges(self.offsets[columns], self.block_sizes[columns])


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

    def _slot_positions(
        self, positions: np.ndarray, dim: int, stack_dim: int
    ) -> np.ndarray:
        """Dense run positions of a ``(dim, dim)`` submatrix inside a stack slot.

        The per-group positions address a ``(dim, dim)`` buffer; in a slot of
        dimension ``stack_dim > dim`` they are re-based to its row stride.
        """
        if dim == stack_dim:
            return positions
        if dim > stack_dim:
            raise ValueError(
                f"group dimension {dim} exceeds stack dimension {stack_dim}"
            )
        if stack_dim % self.run:
            raise ValueError(
                f"stack dimension {stack_dim} is not a multiple of the plan's "
                f"run length {self.run}; pad buckets with "
                "resolve_bucket_pad(pad_to, dimensions, plan.run)"
            )
        rows, cols = np.divmod(positions, dim // self.run)
        return rows * (stack_dim // self.run) + cols

    def extract(
        self, packed: np.ndarray, group_index: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Assemble the dense submatrix of one group with a single gather."""
        group = self.groups[group_index]
        dim = group.dimension
        if out is None:
            out = np.zeros((dim, dim))
        else:
            if out.shape != (dim, dim):
                raise ValueError(f"out must have shape {(dim, dim)}")
            out.fill(0.0)
        self._move_runs(out, group.gather_dst, packed, group.gather_src)
        return out

    def new_output(self) -> np.ndarray:
        """Preallocated packed output vector covering the full pattern."""
        return np.zeros(self.n_values)

    def scatter(
        self, out: np.ndarray, group_index: int, f_submatrix: np.ndarray
    ) -> None:
        """Write the generating columns of f(a_i) with a single scatter."""
        group = self.groups[group_index]
        self._move_runs(out, group.scatter_dst, f_submatrix, group.scatter_src)

    def scatter_columns(
        self, out: np.ndarray, group_index: int, panel: np.ndarray
    ) -> None:
        """Write the generating columns of f(a_i) from their ``(d, w)`` panel.

        ``panel[:, p]`` is column ``group.generating_rows()[p]`` of f(a_i) —
        all the method copies back (Sec. III), so a caller that can form
        these columns alone never builds the ``(d, d)`` matrix.  Writes
        bitwise what :meth:`scatter` writes for a full matrix with these
        columns.  The panel positions are ``scatter_src`` re-based from the
        row stride ``d`` to ``w`` and from dense to panel columns: nothing is
        stored for them.
        """
        group = self.groups[group_index]
        run = self.run
        # dense column run of every panel column run (generating blocks are
        # whole runs: every run-th generating row starts one)
        columns = group.generating_rows()[::run] // run
        stride, width = group.dimension // run, columns.size
        if panel.shape != (group.dimension, width * run):
            raise ValueError(
                f"panel must have shape {(group.dimension, width * run)}, "
                f"got {panel.shape}"
            )
        dense_rows = group.scatter_src // stride
        if group.local_columns.size == 1:
            # one generating column: its runs are adjacent, all shift alike
            shift = columns[0]
        else:
            dense_columns = group.scatter_src - dense_rows * stride
            shift = np.zeros(stride, dtype=np.int64)
            shift[columns] = columns - np.arange(width)
            shift = shift[dense_columns]
        self._move_runs(
            out,
            group.scatter_dst,
            panel,
            group.scatter_src - dense_rows * (stride - width) - shift,
        )

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
        """Assemble a ``(k, D, D)`` stack of submatrices, one gather per slot.

        Members of dimension below ``stack_dim`` are embedded block-diagonally
        with ``pad_value`` on the padding diagonal (exact for matrix
        functions, see :mod:`repro.core.batch`); ``stack_dim`` must then be a
        multiple of :attr:`run`.
        """
        members = list(members)
        if stack_dim is None:
            stack_dim = max(self.groups[index].dimension for index in members)
        stack = np.zeros((len(members), stack_dim, stack_dim))
        for slot, group_index in enumerate(members):
            group = self.groups[group_index]
            dim = group.dimension
            self._move_runs(
                stack[slot],
                self._slot_positions(group.gather_dst, dim, stack_dim),
                packed,
                group.gather_src,
            )
            if dim < stack_dim:
                diagonal = np.arange(dim, stack_dim)
                stack[slot, diagonal, diagonal] = pad_value
        return stack

    def scatter_stack(
        self,
        out: np.ndarray,
        members: Sequence[int],
        evaluated: np.ndarray,
        stack_dim: Optional[int] = None,
    ) -> None:
        """Scatter a whole evaluated stack into the packed output."""
        if stack_dim is None:
            stack_dim = int(evaluated.shape[-1])
        for slot, group_index in enumerate(members):
            group = self.groups[group_index]
            self._move_runs(
                out,
                group.scatter_dst,
                evaluated[slot],
                self._slot_positions(group.scatter_src, group.dimension, stack_dim),
            )


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
        # per-COO-entry (key, start, stop, shape) as Python ints, so pack and
        # finalize run without per-call integer conversions
        bounds = self.value_offsets.tolist()
        self._pack_entries = list(
            zip(
                zip(self.coo_rows.tolist(), self.coo_cols.tolist()),
                bounds[:-1],
                bounds[1:],
                zip(
                    self.block_sizes[self.coo_rows].tolist(),
                    self.block_sizes[self.coo_cols].tolist(),
                ),
            )
        )
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
        # the scatter is the gather transposed, restricted to the blocks of
        # the generating columns: dense region -> the block's packed range
        generating = np.repeat(np.isin(entry_cols, columns), counts)
        return GroupPlan(
            generating_columns=columns,
            indices=retained,
            local_columns=local_columns,
            dimension=dim,
            gather_src=gather_src,
            gather_dst=gather_dst,
            scatter_src=gather_dst[generating],
            scatter_dst=gather_src[generating],
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
        """
        if (
            matrix.n_block_rows != self.n_block_rows
            or matrix.n_block_cols != self.n_block_cols
        ):
            raise ValueError("matrix block structure does not match the plan")
        blocks = matrix.raw_blocks()
        packed = np.zeros(self.n_values)
        matched = 0
        for key, start, stop, _ in self._pack_entries:
            block = blocks.get(key)
            if block is not None:
                packed[start:stop] = block.reshape(-1)
                matched += 1
        if matched != len(blocks):
            planned = {entry[0] for entry in self._pack_entries}
            stray = min(key for key in blocks if key not in planned)
            raise ValueError(
                "matrix pattern does not match the plan: stored block "
                f"{stray} is not in the planned pattern ({len(blocks) - matched} "
                f"of {len(blocks)} stored blocks are outside it) — the plan "
                "was built for a different sparsity pattern"
            )
        return packed

    def finalize(self, out: np.ndarray) -> BlockSparseMatrix:
        """Block-sparse result whose blocks are views into ``out`` (zero-copy)."""
        result = BlockSparseMatrix(self.block_sizes, self.block_sizes)
        blocks = result.raw_blocks()
        for key, start, stop, shape in self._pack_entries:
            blocks[key] = out[start:stop].reshape(shape)
        return result

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
    arrays — and a flat per-entry constant for the Python-level pack map.
    Used by :class:`PlanCache` for memory-budget accounting, at insert: using
    a plan allocates nothing that outlives the call and holds no lazily
    created state, so the figure is as true after a warm call as before the
    first.
    """
    total = 0
    for group in plan.groups:
        for array in (
            group.generating_columns,
            group.indices,
            group.local_columns,
            group.gather_src,
            group.gather_dst,
            group.scatter_src,
            group.scatter_dst,
            group.segment_ids,
            group.segment_counts,
            group.block_sizes,
            group.offsets,
        ):
            total += int(np.asarray(array).nbytes)
    for array in (plan.value_offsets, plan.coo_rows, plan.coo_cols):
        total += int(np.asarray(array).nbytes)
    # per-block Python tuples of the pack map: an entry, its key and shape
    # tuples and its two offsets measure ~220 B
    total += 224 * len(plan._pack_entries)
    return total


class PlanCache:
    """LRU cache of extraction plans keyed by pattern + grouping content.

    Two matrices with bitwise-identical sparsity patterns and the same column
    grouping share one plan, so the μ-bisection, repeated SCF/MD evaluations
    and the per-group loop within one evaluation all reuse the precomputed
    index arrays.

    The cache is **thread-safe**: one re-entrant lock guards lookup, insert,
    eviction and the statistics counters, and the lock is held *across* plan
    construction, so N threads racing on the same pattern build exactly one
    plan (the others block and then hit).  This is what lets a single cache
    back every tenant of the serving layer (:mod:`repro.serve`); the price is
    that a tenant with a new pattern holds every other tenant's lookup for
    the length of one build — tens of milliseconds at the ledger's sizes
    (0.03-0.05 s for water-64/128) now that builds are array expansion.
    """

    def __init__(self, max_plans: int = 64, max_bytes: Optional[int] = None):
        if max_plans < 1:
            raise ValueError("max_plans must be at least 1")
        self.max_plans = int(max_plans)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._plans: "collections.OrderedDict[tuple, BlockSubmatrixPlan]" = (
            collections.OrderedDict()
        )
        self._nbytes: Dict[tuple, int] = {}
        self._total_bytes = 0
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
            self._nbytes.clear()
            self._total_bytes = 0
            self._reset_counters()

    @property
    def total_bytes(self) -> int:
        """Accounted bytes of all resident plans (see :func:`plan_nbytes`)."""
        with self._lock:
            return self._total_bytes

    @property
    def stats(self) -> Dict[str, int]:
        """Counter snapshot.

        ``misses`` counts lookups that had to build (``builds`` is the same
        number of constructions); ``evictions`` counts plans dropped by LRU
        overflow, the byte budget, or :meth:`evict_to`.  Resident bytes are
        exposed separately via :attr:`total_bytes`.  ``patches`` and
        ``groups_rebuilt`` are inert leftovers, always 0: nothing patches a
        plan any more, the keys stay only because ``benchmarks/e2e`` reads
        them.
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
        key, _ = self._plans.popitem(last=False)
        self._total_bytes -= self._nbytes.pop(key, 0)
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
            size = plan_nbytes(plan)
            self._nbytes[key] = size
            self._total_bytes += size
            while len(self._plans) > self.max_plans:
                self._evict_lru()
            if self.max_bytes is not None:
                # keep at least the plan just built, even when it alone
                # exceeds the budget — evicting it would defeat the lookup
                while len(self._plans) > 1 and self._total_bytes > self.max_bytes:
                    self._evict_lru()
            return plan

    def evict_to(self, max_bytes: int) -> int:
        """Evict least-recently-used plans until ``total_bytes <= max_bytes``.

        Returns the number of plans evicted.  The serving layer's admission
        controller calls this under memory pressure; unlike the constructor
        budget it may empty the cache entirely.
        """
        evicted = 0
        with self._lock:
            while self._plans and self._total_bytes > max_bytes:
                self._evict_lru()
                evicted += 1
        return evicted

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


def block_run(block_sizes: Sequence[int]) -> int:
    """Run length of a block grid: the gcd of its block sizes.

    Every block height and width — hence every packed block range, dense row
    offset and submatrix dimension — is a whole number of such runs.
    """
    return int(np.gcd.reduce(np.asarray(block_sizes, dtype=int))) or 1


def _groups_key(column_groups: Sequence[Sequence[int]]) -> tuple:
    # tuple(map(tuple, ...)) runs at C speed; numpy integers hash and compare
    # equal to Python ints, so mixed-origin groups still share cache entries
    return tuple(map(tuple, column_groups))
