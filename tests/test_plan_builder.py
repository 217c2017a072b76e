"""The plan layer's array expansions against the loops they replaced.

``BlockSubmatrixPlan`` expands every group's gather/scatter arrays from one
block-level record, and ``ShardedPlan`` / ``patch`` move whole segments by
that record.  The per-block loop and the ``searchsorted`` derivation survive
in ``submatrix_reference.py``; here hypothesis-generated patterns (ragged and
1x1 blocks, multi-column groups, empty block columns, missing diagonal
blocks, non-symmetric patterns) must reproduce them bitwise — values, dtype
and order.  A last test counts interpreter-level calls on the 64-group
water-64 plan, so a reintroduced per-block loop fails without a stopwatch.
"""

import sys

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.chem import orthogonalized_ks
from repro.core.plan import BlockSubmatrixPlan, ElementSubmatrixPlan
from repro.core.shard import ShardedPlan
from repro.dbcsr import CooBlockList, block_matrix_from_csr

from submatrix_reference import reference_plan_group, reference_shard_arrays

GROUP_ARRAYS = (
    "generating_columns",
    "indices",
    "local_columns",
    "gather_src",
    "gather_dst",
    "scatter_src",
    "scatter_dst",
    "block_sizes",
    "offsets",
)
RECORD_ARRAYS = GROUP_ARRAYS + ("segment_ids", "segment_counts")


def assert_same_array(got, want, what):
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), what


def assert_same_groups(got_groups, want_groups, fields):
    assert len(got_groups) == len(want_groups)
    for index, (got, want) in enumerate(zip(got_groups, want_groups)):
        assert got.dimension == want.dimension
        for name in fields:
            assert_same_array(getattr(got, name), getattr(want, name), f"group {index} {name}")


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
def _mask(draw, n):
    """A block occupancy: any of symmetric / with diagonal / neither."""
    mask = draw(arrays(np.bool_, (n, n), elements=st.booleans()))
    if draw(st.booleans()):
        mask = mask | mask.T
    if draw(st.booleans()):
        mask = mask | np.eye(n, dtype=bool)
    return mask


def _partition(draw, n):
    """Non-empty column groups covering ``range(n)`` (multi-column allowed)."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return [
        [column for column in range(n) if labels[column] == label]
        for label in sorted(set(labels))
    ]


@st.composite
def block_cases(draw, n_patterns=1):
    """``(patterns on one grid, block sizes, column groups, rank of group)``."""
    n = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    patterns = []
    for _ in range(n_patterns):
        rows, cols = np.nonzero(_mask(draw, n))
        patterns.append(CooBlockList(rows, cols, n, n))
    groups = _partition(draw, n)
    ranks = draw(
        st.lists(st.integers(0, 2), min_size=len(groups), max_size=len(groups))
    )
    return patterns, sizes, groups, ranks


@st.composite
def element_cases(draw):
    n = draw(st.integers(1, 9))
    matrix = sp.csc_matrix(_mask(draw, n).astype(float))
    groups = _partition(draw, n)
    ranks = draw(
        st.lists(st.integers(0, 2), min_size=len(groups), max_size=len(groups))
    )
    return matrix, groups, ranks


def assert_segment_record(plan):
    """The record names the segment of every gathered position, in order."""
    offsets = plan.segment_offsets()
    for group in plan.groups:
        assert group.segment_ids.dtype == group.segment_counts.dtype == np.int64
        assert np.all(group.segment_counts > 0)
        assert np.array_equal(
            np.repeat(group.segment_ids, group.segment_counts),
            np.searchsorted(offsets, group.gather_src, side="right") - 1,
        )


def assert_shards_match_reference(plan, ranks, n_ranks=3):
    sharded = ShardedPlan(plan, ranks, n_ranks)
    for shard in sharded.shards:
        required, local_to_global, local_sources = reference_shard_arrays(
            plan, shard.group_indices
        )
        assert_same_array(shard.required_segments, required, "required_segments")
        assert_same_array(shard.local_to_global, local_to_global, "local_to_global")
        for got, want in zip(shard.view.groups, local_sources):
            assert_same_array(got.gather_src, want, "rank-local gather_src")
    return sharded


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #
@given(block_cases())
@settings(max_examples=150, deadline=None)
def test_block_groups_equal_per_block_loop_bitwise(case):
    (coo,), sizes, groups, _ = case
    plan = BlockSubmatrixPlan(coo, sizes, groups)
    assert_same_groups(
        plan.groups,
        [reference_plan_group(coo, sizes, group) for group in groups],
        GROUP_ARRAYS,
    )
    assert_segment_record(plan)


@given(element_cases())
@settings(max_examples=100, deadline=None)
def test_element_plan_fills_the_segment_record(case):
    matrix, groups, ranks = case
    plan = ElementSubmatrixPlan(matrix, groups)
    assert_segment_record(plan)
    assert_shards_match_reference(plan, ranks)


@given(block_cases(n_patterns=2))
@settings(max_examples=150, deadline=None)
def test_patch_and_shards_equal_fresh_builds(case):
    (old, new), sizes, groups, ranks = case
    old_plan = BlockSubmatrixPlan(old, sizes, groups)
    sharded = assert_shards_match_reference(old_plan, ranks)
    # use the old shards first, so the patch has stack caches to carry over
    for shard in sharded.shards:
        if shard.n_groups:
            members = list(range(shard.n_groups))
            shard.view.extract_stack(
                shard.pack_local(np.zeros(old_plan.n_values)), members
            )
    patched = old_plan.patch(new)
    fresh = BlockSubmatrixPlan(new, sizes, groups)
    assert patched.n_values == fresh.n_values
    assert_same_array(patched.value_offsets, fresh.value_offsets, "value_offsets")
    assert_same_groups(patched.groups, fresh.groups, RECORD_ARRAYS)
    patched_sharded = sharded.patch(patched)
    fresh_sharded = assert_shards_match_reference(fresh, ranks)
    for got, want in zip(patched_sharded.shards, fresh_sharded.shards):
        for name in (
            "group_indices",
            "required_segments",
            "segment_starts",
            "segment_lengths",
            "local_offsets",
            "local_to_global",
        ):
            assert_same_array(getattr(got, name), getattr(want, name), name)
        assert_same_groups(got.view.groups, want.view.groups, RECORD_ARRAYS)
        for key, carried in got.view.__dict__.get("_stack_cache", {}).items():
            rebuilt = want.view._stack_plan(*key)
            for name in ("gather_src", "gather_dst", "scatter_src", "scatter_dst", "pad"):
                assert_same_array(getattr(carried, name), getattr(rebuilt, name), name)


# --------------------------------------------------------------------------- #
# the cold path stays at array speed
# --------------------------------------------------------------------------- #
def count_calls(function):
    """Python- and C-level calls made while ``function()`` runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def test_cold_plan_and_shard_build_cost_is_per_group_not_per_block(water64_matrices):
    """The ledger's ``cold_water64`` plan: 64 groups, ~3 k blocks, ~10^5
    (group, block) pairs.  The per-block builder made 6.3 x 10^5 calls here
    (309 k of them ``np.arange``); per-group array expansion makes ~230 per
    group, whatever the blocks per group."""
    pair = water64_matrices
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=1e-3)
    block_k = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes)
    coo = CooBlockList.from_block_matrix(block_k)
    groups = [[column] for column in range(coo.n_block_cols)]
    assert len(groups) == 64 and len(coo) > 2000
    built = {}

    def build():
        built["plan"] = BlockSubmatrixPlan(coo, pair.blocks.block_sizes, groups)
        built["sharded"] = ShardedPlan(built["plan"], np.arange(64) % 2, 2)

    calls = count_calls(build)
    assert calls < 400 * len(groups), f"{calls} calls for {len(groups)} groups"
    pairs = sum(group.segment_ids.size for group in built["plan"].groups)
    assert pairs > 50_000
