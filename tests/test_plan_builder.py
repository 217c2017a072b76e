"""The plan layer's array expansions against the loops they replaced.

``BlockSubmatrixPlan`` expands every group's gather/scatter arrays from one
block-level record, and ``ShardedPlan`` moves whole segments by that
record.  The per-block loop and the ``searchsorted`` derivation survive
in ``submatrix_reference.py``; here hypothesis-generated patterns (ragged and
1x1 blocks, multi-column groups, empty block columns, missing diagonal
blocks, non-symmetric patterns) must reproduce them bitwise — values, dtype
and order.  Every index array counts runs of ``plan.run = gcd(block sizes)``
values, so the block grids are drawn with gcd 1, 2, 3 and 6, and a second
property moves real values through ``pack`` / ``extract*`` / ``scatter*`` /
``finalize`` — full and sharded — against the per-submatrix kernels
of ``repro.core.submatrix``.  A third pins the panel path: the
generating-column panel ``scatter_columns`` takes writes bitwise what
``scatter`` writes for the full matrix (unsorted and non-adjacent generating
columns, the 1×1-block grid of a SciPy matrix, shard views), and the panel *product* of a
spectral solver stays within 1e-14 of the sliced full product — the distance
the re-stated reference-density tests rest on.  Two last tests need no
stopwatch and no benchmark: one counts interpreter-level calls on the 64-group water-64 plan
(a reintroduced per-block loop fails), one bounds the index bytes a used plan
holds per submatrix element (a reintroduced element index or per-bucket memo
fails).
"""

import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.chem import orthogonalized_ks
from repro.core.batch import Bucket, make_stack_tasks, map_stacks, spectral_panel
from repro.core.plan import BlockSubmatrixPlan, plan_nbytes
from repro.core.shard import ShardedPlan
from repro.core.submatrix import extract_block_submatrix
from repro.dbcsr import BlockSparseMatrix, CooBlockList, block_matrix_from_csr
from repro.dbcsr.convert import block_matrix_to_dense

from conftest import reachable_array_bytes
from submatrix_reference import (
    reference_apply_blockwise,
    reference_plan_group,
    reference_shard_arrays,
)

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
def block_cases(draw):
    """``(block pattern, block sizes, column groups, rank of group)``.

    Block sizes are ragged multiples of a unit, so their gcd — the plan's run
    length — is 1 (atom blocks like 4, 1, 1), 2, 3 or 6, or a multiple.
    """
    n = draw(st.integers(1, 7))
    unit = draw(st.sampled_from([1, 1, 2, 3, 6]))
    sizes = [
        unit * m for m in draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ]
    rows, cols = np.nonzero(_mask(draw, n))
    coo = CooBlockList(rows, cols, n, n)
    groups = _partition(draw, n)
    ranks = draw(
        st.lists(st.integers(0, 2), min_size=len(groups), max_size=len(groups))
    )
    return coo, sizes, groups, ranks


@st.composite
def element_cases(draw):
    """``(SciPy matrix, column groups, rank of group)``."""
    n = draw(st.integers(1, 9))
    matrix = sp.csc_matrix(_mask(draw, n).astype(float))
    groups = _partition(draw, n)
    ranks = draw(
        st.lists(st.integers(0, 2), min_size=len(groups), max_size=len(groups))
    )
    return matrix, groups, ranks


def element_plan(matrix, groups):
    """The plan ``SubmatrixContext.apply`` runs a SciPy matrix through: its
    grid of 1×1 blocks."""
    sizes = [1] * matrix.shape[0]
    coo = CooBlockList.from_block_matrix(block_matrix_from_csr(matrix, sizes))
    return BlockSubmatrixPlan(coo, sizes, groups)


def assert_segment_record(plan):
    """The record names the segment of every gathered run, in order."""
    offsets = plan.segment_offsets() // plan.run
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


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #
@given(block_cases())
@settings(max_examples=150, deadline=None)
def test_block_groups_equal_per_block_loop_bitwise(case):
    coo, sizes, groups, ranks = case
    plan = BlockSubmatrixPlan(coo, sizes, groups)
    assert_same_groups(
        plan.groups,
        [reference_plan_group(coo, sizes, group) for group in groups],
        GROUP_ARRAYS,
    )
    assert_segment_record(plan)
    assert_shards_match_reference(plan, ranks)


@given(element_cases())
@settings(max_examples=100, deadline=None)
def test_element_plan_fills_the_segment_record(case):
    matrix, groups, ranks = case
    plan = element_plan(matrix, groups)
    assert plan.run == 1
    assert_segment_record(plan)
    assert_shards_match_reference(plan, ranks)


# --------------------------------------------------------------------------- #
# values through the run-granular arrays == the per-submatrix kernels
# --------------------------------------------------------------------------- #
def _matrix_on(coo, sizes, seed):
    """A block matrix storing a seeded random block at every pattern entry."""
    rng = np.random.default_rng(seed)
    matrix = BlockSparseMatrix(sizes, sizes)
    for row, col in zip(coo.rows.tolist(), coo.cols.tolist()):
        matrix.put_block(row, col, rng.normal(size=(sizes[row], sizes[col])))
    return matrix


def _function(dense):
    """Elementwise, so bitwise equal whatever buffer the submatrix sits in."""
    return dense * dense - 3.0 * dense + 0.5


def assert_plan_moves_values_like_the_kernels(plan, coo, sizes, groups, ranks, seed):
    """Every route through ``plan`` against ``repro.core.submatrix``'s loops."""
    matrix = _matrix_on(coo, sizes, seed)
    packed = plan.pack(matrix)
    want, dimensions = reference_apply_blockwise(matrix, _function, groups, coo)
    want = block_matrix_to_dense(want)
    assert plan.dimensions == dimensions
    assert all(dim % plan.run == 0 for dim in dimensions)
    submatrices = [extract_block_submatrix(matrix, group, coo).data for group in groups]
    # one group at a time
    out = plan.new_output()
    for index, reference in enumerate(submatrices):
        got = plan.extract(packed, index)
        assert np.array_equal(got, reference)
        plan.scatter(out, index, _function(got))
    assert np.array_equal(block_matrix_to_dense(plan.finalize(out)), want)
    # exact-dimension stacks, then one stack padded by a run and a half
    padded_dim = -(-(max(dimensions) + plan.run + 1) // plan.run) * plan.run
    for tasks, pad_value in (
        (make_stack_tasks(dimensions), 1.0),
        ([Bucket(padded_dim, list(range(len(groups))))], 7.0),
    ):
        out = plan.new_output()
        for task in tasks:
            stack = plan.extract_stack(packed, task.members, task.dimension, pad_value)
            for slot, member in enumerate(task.members):
                dim = dimensions[member]
                embedded = np.zeros((task.dimension, task.dimension))
                embedded[:dim, :dim] = submatrices[member]
                embedded[range(dim, task.dimension), range(dim, task.dimension)] = pad_value
                assert np.array_equal(stack[slot], embedded)
            plan.scatter_stack(out, task.members, _function(stack), task.dimension)
        assert np.array_equal(block_matrix_to_dense(plan.finalize(out)), want)
    # both shard views: rank-local gathers, scatters into the shared output
    out = plan.new_output()
    for shard in ShardedPlan(plan, np.minimum(ranks, 1), 2).shards:
        local = shard.pack_local(packed)
        assert local.size == shard.n_local_values == shard.view.local_values
        for slot, member in enumerate(shard.group_indices):
            assert np.array_equal(shard.view.extract(local, slot), submatrices[member])
        members = list(range(shard.n_groups))
        if members:
            stack = shard.view.extract_stack(local, members, padded_dim)
            shard.view.scatter_stack(out, members, _function(stack), padded_dim)
    assert np.array_equal(block_matrix_to_dense(plan.finalize(out)), want)


@given(block_cases(), st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_values_through_full_and_sharded_plans_equal_the_kernels(case, seed):
    coo, sizes, groups, ranks = case
    plan = BlockSubmatrixPlan(coo, sizes, groups)
    assert plan.run == np.gcd.reduce(sizes)
    assert_plan_moves_values_like_the_kernels(plan, coo, sizes, groups, ranks, seed)


# --------------------------------------------------------------------------- #
# the panel path: only the generating columns are formed and scattered
# --------------------------------------------------------------------------- #
def _shuffled(groups, seed):
    """The same grouping with every group's columns in a random order."""
    rng = np.random.default_rng(seed)
    return [[int(c) for c in rng.permutation(group)] for group in groups]


def assert_generating_rows_equal_the_column_loop(group):
    """One ``arange`` per generating column, in the grouping's order."""
    want = np.concatenate(
        [
            np.arange(group.offsets[column], group.offsets[column + 1])
            for column in group.local_columns
        ]
    )
    assert np.array_equal(group.generating_rows(), want)


def assert_panels_scatter_like_full_matrices(plan, ranks, seed):
    """``scatter_columns(full[:, generating rows])`` == ``scatter(full)``,
    through the plan and through every shard view."""
    rng = np.random.default_rng(seed)
    fulls = [rng.normal(size=(dim, dim)) for dim in plan.dimensions]
    want, got = plan.new_output(), plan.new_output()
    for index, (group, full) in enumerate(zip(plan.groups, fulls)):
        assert_generating_rows_equal_the_column_loop(group)
        plan.scatter(want, index, full)
        # a column slice as a GEMM would deliver it: its own contiguous array
        panel = np.ascontiguousarray(full[:, group.generating_rows()])
        plan.scatter_columns(got, index, panel)
        with pytest.raises(ValueError, match="panel must have shape"):
            plan.scatter_columns(got, index, full[:, :0])
    assert np.array_equal(got, want)
    sharded = plan.new_output()
    for shard in ShardedPlan(plan, ranks, 3).shards:
        for slot, member in enumerate(shard.group_indices):
            rows = shard.view.groups[slot].generating_rows()
            shard.view.scatter_columns(
                sharded, slot, np.ascontiguousarray(fulls[member][:, rows])
            )
    assert np.array_equal(sharded, want)


@given(block_cases(), st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_block_panels_scatter_bitwise_what_full_matrices_scatter(case, seed):
    coo, sizes, groups, ranks = case
    plan = BlockSubmatrixPlan(coo, sizes, _shuffled(groups, seed))
    assert_panels_scatter_like_full_matrices(plan, ranks, seed)


@given(element_cases(), st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_element_panels_scatter_bitwise_what_full_matrices_scatter(case, seed):
    matrix, groups, ranks = case
    plan = element_plan(matrix, _shuffled(groups, seed))
    assert plan.run == 1
    assert_panels_scatter_like_full_matrices(plan, ranks, seed)


def _spectral_solver(stack):
    """A bounded spectral function in the form ``(values, vectors)``."""
    eigenvalues, eigenvectors = np.linalg.eigh(stack)
    return 1.0 / (1.0 + eigenvalues * eigenvalues), eigenvectors


def _full_product_solver(stack):
    values, vectors = _spectral_solver(stack)
    return (vectors * values[:, None, :]) @ vectors.transpose(0, 2, 1)


@given(block_cases(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_panel_product_stays_within_1e14_of_the_sliced_full_product(case, seed):
    """Panel delivery of the bucket loop against whole-matrix delivery of
    the same spectral function: exact-dimension stacks and one padded stack.
    Not bitwise — a d × w GEMM blocks differently from the d × d one — but
    within a few ulp of the O(1) entries, the tolerance of
    ``submatrix_reference.REFERENCE_DENSITY_ATOL``."""
    coo, sizes, groups, ranks = case
    plan = BlockSubmatrixPlan(coo, sizes, _shuffled(groups, seed))
    packed = plan.pack(_matrix_on(coo, sizes, seed))
    dimensions = plan.dimensions
    padded_dim = -(-(max(dimensions) + plan.run + 1) // plan.run) * plan.run
    for tasks in (
        make_stack_tasks(dimensions),
        [Bucket(padded_dim, list(range(plan.n_groups)))],
    ):
        panels, fulls = plan.new_output(), plan.new_output()
        map_stacks(plan, packed, tasks, _spectral_solver, out=panels, pad_value=2.0)
        map_stacks(plan, packed, tasks, _full_product_solver, out=fulls, pad_value=2.0)
        assert np.max(np.abs(panels - fulls), initial=0.0) <= 1e-14
    # and the panel function itself, per submatrix
    for index, group in enumerate(plan.groups):
        values, vectors = _spectral_solver(plan.extract(packed, index)[None])
        rows = group.generating_rows()
        panel = spectral_panel(vectors[0], values[0], vectors[0][rows])
        full = (vectors[0] * values[0]) @ vectors[0].T
        assert panel.shape == (group.dimension, rows.size)
        assert np.max(np.abs(panel - full[:, rows]), initial=0.0) <= 1e-14


def test_padded_stack_dimension_must_be_whole_runs():
    coo = CooBlockList([0, 1], [0, 1], 2, 2)
    plan = BlockSubmatrixPlan(coo, [6, 12], [[0], [1]])
    assert plan.run == 6
    packed = np.zeros(plan.n_values)
    assert plan.extract_stack(packed, [0, 1], 18).shape == (2, 18, 18)
    with pytest.raises(ValueError, match="multiple of the plan's run length 6"):
        plan.extract_stack(packed, [0, 1], 16)


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


# --------------------------------------------------------------------------- #
# a used plan holds its indices once, one per run
# --------------------------------------------------------------------------- #
def test_used_plan_costs_four_bytes_per_submatrix_element(water32_matrices):
    """``water_box(1)`` at ``eps_filter=1e-5`` (the ledger's served tenants):
    32 full 192 x 192 submatrices of 6-wide blocks.  Element indices cost
    32 B per submatrix element (two int64 per gathered value, held twice
    once a per-bucket memo filled); run indices held once cost 16/6 B."""
    pair = water32_matrices
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=1e-5)
    block_k = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes)
    coo = CooBlockList.from_block_matrix(block_k)
    plan = BlockSubmatrixPlan(
        coo, pair.blocks.block_sizes, [[c] for c in range(coo.n_block_cols)]
    )
    assert plan.run == 6
    accounted = plan_nbytes(plan)
    # a warm call: every stack extracted and scattered, then finalized
    packed, out = plan.pack(block_k), plan.new_output()
    for task in make_stack_tasks(plan.dimensions):
        stack = plan.extract_stack(packed, task.members, task.dimension)
        plan.scatter_stack(out, task.members, stack, task.dimension)
    plan.finalize(out)
    assert plan_nbytes(plan) == accounted
    elements = sum(dim * dim for dim in plan.dimensions)
    assert accounted <= 4 * elements, f"{accounted / elements:.2f} B per element"
    # what the budget counts is what the plan holds
    assert reachable_array_bytes(plan) <= 1.05 * accounted


# --------------------------------------------------------------------------- #
# a failing property must be able to report itself
# --------------------------------------------------------------------------- #
def test_deprecation_filter_is_scoped_to_this_repository():
    """``pytest.ini`` turns deprecations attributed to our modules into
    errors.  A dependency's own one must not raise: hypothesis imports libcst
    (whose import warns) only while reporting a *failing* example, and an
    error there ends the session with INTERNALERROR instead of the example."""
    message = "old spelling, about to be removed"
    with warnings.catch_warnings(record=True):  # same filters, kept off the summary
        warnings.warn_explicit(
            message, DeprecationWarning, "libcst/x.py", 1, module="libcst.metadata.x"
        )
    for module in ("repro.core.plan", "test_plan_builder", "conftest"):
        with pytest.raises(DeprecationWarning, match=message):
            warnings.warn_explicit(
                message, DeprecationWarning, f"{module}.py", 1, module=module
            )
