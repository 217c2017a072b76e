"""Tests for column grouping, the estimated speedup and load balancing."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    assign_balanced_stacks,
    assign_consecutive_chunks,
    assign_consecutive_chunks_reference,
    choose_bucket_pad,
    estimated_speedup,
    group_columns_graph,
    group_columns_greedy_chunks,
    group_columns_kmeans,
    load_imbalance,
    single_column_groups,
    submatrix_flop_costs,
)
from repro.core.combination import ColumnGrouping, groups_from_labels
from repro.core.load_balance import resolve_bucket_pad


def banded_pattern(n_blocks, bandwidth=2):
    """Banded block-sparsity pattern (dense diagonal band)."""
    rows, cols = [], []
    for i in range(n_blocks):
        for j in range(max(0, i - bandwidth), min(n_blocks, i + bandwidth + 1)):
            rows.append(i)
            cols.append(j)
    data = np.ones(len(rows), dtype=bool)
    return sp.coo_matrix((data, (rows, cols)), shape=(n_blocks, n_blocks)).tocsr()


class TestGroupings:
    def test_single_column_groups(self):
        grouping = single_column_groups(5)
        assert grouping.groups == [[0], [1], [2], [3], [4]]
        grouping.validate(5)

    def test_invalid_single_column_count(self):
        with pytest.raises(ValueError):
            single_column_groups(0)

    def test_validate_catches_duplicates(self):
        grouping = ColumnGrouping([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            grouping.validate(3)

    def test_validate_catches_missing(self):
        grouping = ColumnGrouping([[0], [2]])
        with pytest.raises(ValueError):
            grouping.validate(3)

    def test_validate_catches_out_of_range(self):
        grouping = ColumnGrouping([[0, 5]])
        with pytest.raises(IndexError):
            grouping.validate(3)

    def test_greedy_chunks(self):
        grouping = group_columns_greedy_chunks(10, 3)
        assert grouping.groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        grouping.validate(10)

    def test_greedy_chunks_invalid(self):
        with pytest.raises(ValueError):
            group_columns_greedy_chunks(10, 0)

    def test_groups_from_labels(self):
        grouping = groups_from_labels([1, 0, 1, 0])
        assert grouping.groups == [[1, 3], [0, 2]]

    def test_kmeans_grouping_covers_all_columns(self, rng):
        centers = rng.random((20, 3)) * 10
        grouping = group_columns_kmeans(centers, 4, seed=0)
        grouping.validate(20)
        assert grouping.n_submatrices <= 4

    def test_kmeans_grouping_groups_nearby_columns(self):
        centers = np.zeros((10, 3))
        centers[5:, 0] = 100.0
        grouping = group_columns_kmeans(centers, 2, seed=0)
        grouping.validate(10)
        groups = [sorted(group) for group in grouping.groups]
        assert sorted(groups) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_graph_grouping_covers_all_columns(self):
        pattern = banded_pattern(16)
        grouping = group_columns_graph(pattern, 4)
        grouping.validate(16)


class TestSubmatrixDimensions:
    def test_grouping_dimensions_on_banded_pattern(self):
        pattern = banded_pattern(10, bandwidth=1)
        sizes = [3] * 10
        single = single_column_groups(10)
        dims = single.submatrix_dimensions(pattern, sizes)
        # interior columns retain 3 blocks, edge columns 2
        assert dims[0] == 6 and dims[5] == 9

    def test_combined_dimensions_grow_sublinearly(self):
        pattern = banded_pattern(12, bandwidth=2)
        sizes = [2] * 12
        pair_grouping = group_columns_greedy_chunks(12, 2)
        single = single_column_groups(12)
        dims_single = single.submatrix_dimensions(pattern, sizes)
        dims_pairs = pair_grouping.submatrix_dimensions(pattern, sizes)
        # combining two adjacent columns adds at most one more block row
        assert max(dims_pairs) <= max(dims_single) + 2


class TestEstimatedSpeedup:
    def test_speedup_of_single_grouping_is_one(self):
        pattern = banded_pattern(10)
        sizes = [4] * 10
        assert estimated_speedup(
            pattern, sizes, single_column_groups(10)
        ) == pytest.approx(1.0)

    def test_combining_adjacent_columns_speeds_up_banded_pattern(self):
        """For banded patterns, merging adjacent columns reduces Σ n³."""
        pattern = banded_pattern(32, bandwidth=3)
        sizes = [4] * 32
        grouping = group_columns_greedy_chunks(32, 4)
        speedup = estimated_speedup(pattern, sizes, grouping)
        assert speedup > 1.0

    def test_combining_unrelated_columns_slows_down(self):
        """Merging columns that share no blocks increases the work."""
        pattern = sp.identity(8, dtype=bool, format="csr")
        sizes = [4] * 8
        grouping = ColumnGrouping([[0, 4], [1, 5], [2, 6], [3, 7]])
        assert estimated_speedup(pattern, sizes, grouping) < 1.0

    def test_precomputed_single_dimensions(self):
        pattern = banded_pattern(10)
        sizes = [4] * 10
        single = single_column_groups(10)
        dims = single.submatrix_dimensions(pattern, sizes)
        grouping = group_columns_greedy_chunks(10, 2)
        a = estimated_speedup(pattern, sizes, grouping)
        b = estimated_speedup(pattern, sizes, grouping, single_dimensions=dims)
        assert a == pytest.approx(b)


class TestLoadBalance:
    def test_flop_costs(self):
        costs = submatrix_flop_costs([2, 3], flop_constant=2.0)
        assert np.allclose(costs, [16.0, 54.0])

    def test_flop_costs_invalid(self):
        with pytest.raises(ValueError):
            submatrix_flop_costs([2], flop_constant=0.0)
        with pytest.raises(ValueError):
            submatrix_flop_costs([-1])

    def test_consecutive_chunks_cover_everything(self):
        costs = np.ones(10)
        chunks = assign_consecutive_chunks(costs, 3)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 10
        for (s0, e0), (s1, e1) in zip(chunks, chunks[1:]):
            assert e0 == s1

    def test_every_rank_gets_at_least_one(self):
        costs = [100.0, 1.0, 1.0, 1.0]
        chunks = assign_consecutive_chunks(costs, 4)
        assert all(stop > start for start, stop in chunks)

    def test_balanced_for_uniform_costs(self):
        costs = np.ones(100)
        chunks = assign_consecutive_chunks(costs, 4)
        sizes = [stop - start for start, stop in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_heavy_submatrices_not_lumped_together(self):
        """Expensive submatrices end up in separate chunks (Sec. IV-E)."""
        costs = [1.0, 1.0, 1.0, 1.0, 8.0, 8.0]
        chunks = assign_consecutive_chunks(costs, 3)
        imbalance_greedy = load_imbalance(costs, chunks)
        imbalance_equal_counts = load_imbalance(costs, [(0, 2), (2, 4), (4, 6)])
        assert imbalance_greedy < imbalance_equal_counts

    def test_more_ranks_than_items(self):
        chunks = assign_consecutive_chunks([1.0, 1.0], 4)
        assert chunks[0] == (0, 1)
        assert chunks[1] == (1, 2)
        assert chunks[2] == (2, 2)  # empty
        assert chunks[3] == (2, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            assign_consecutive_chunks([1.0], 0)
        with pytest.raises(ValueError):
            assign_consecutive_chunks([-1.0], 2)

    def test_load_imbalance_with_index_lists(self):
        costs = [1.0, 2.0, 3.0, 6.0]
        assignment = [[0, 3], [1, 2]]
        # loads 7 and 5, mean 6 -> imbalance 7/6
        assert load_imbalance(costs, assignment) == pytest.approx(7.0 / 6.0)

    def test_load_imbalance_perfectly_balanced(self):
        assert load_imbalance([1.0, 1.0], [(0, 1), (1, 2)]) == pytest.approx(1.0)

    def test_load_imbalance_zero_costs(self):
        assert load_imbalance([0.0, 0.0], [(0, 1), (1, 2)]) == 1.0

    def test_greedy_beats_round_robin_on_skewed_costs(self, rng):
        """The paper's point: equal counts != equal work (Sec. IV-E)."""
        dims = np.concatenate([rng.integers(5, 15, 40), rng.integers(60, 80, 8)])
        costs = submatrix_flop_costs(dims)
        greedy = assign_consecutive_chunks(costs, 8)
        equal_counts = [
            (start, min(start + 6, len(costs)))
            for start in range(0, len(costs), 6)
        ]
        assert load_imbalance(costs, greedy) <= load_imbalance(costs, equal_counts)


class TestVectorizedChunksEquivalence:
    """The cumsum+searchsorted assigner must match the greedy reference."""

    @given(
        costs=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=0, max_size=120
        ),
        n_ranks=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_equivalent_on_random_cost_vectors(self, costs, n_ranks):
        costs = np.asarray(costs, dtype=float)
        assert assign_consecutive_chunks(costs, n_ranks) == (
            assign_consecutive_chunks_reference(costs, n_ranks)
        )

    @given(
        costs=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=80,
        ),
        n_ranks=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_valid_partition_on_float_costs(self, costs, n_ranks):
        """On arbitrary floats the result is always a valid ordered cover."""
        costs = np.asarray(costs, dtype=float)
        chunks = assign_consecutive_chunks(costs, n_ranks)
        assert len(chunks) == n_ranks
        assert chunks[0][0] == 0
        assert chunks[-1][1] == costs.size
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert stop == start
        if costs.size >= n_ranks:
            assert all(stop > start for start, stop in chunks)

    def test_zero_costs_behave_like_reference(self):
        costs = np.zeros(9)
        assert assign_consecutive_chunks(costs, 4) == (
            assign_consecutive_chunks_reference(costs, 4)
        )


class TestBalancedStacks:
    def test_every_stack_assigned_exactly_once(self):
        costs = [5.0, 1.0, 3.0, 2.0, 8.0]
        assignment = assign_balanced_stacks(costs, 3)
        flattened = sorted(i for stacks in assignment for i in stacks)
        assert flattened == list(range(5))

    def test_lpt_beats_round_robin_on_skewed_stacks(self):
        costs = [100.0, 1.0, 1.0, 1.0, 1.0, 96.0]
        lpt = assign_balanced_stacks(costs, 2)
        rr = [[0, 2, 4], [1, 3, 5]]  # equal counts, item i on rank i % 2
        assert load_imbalance(costs, lpt) <= load_imbalance(costs, rr)

    def test_fewer_stacks_than_ranks(self):
        assignment = assign_balanced_stacks([2.0], 3)
        assert sorted(map(len, assignment)) == [0, 0, 1]

    def test_deterministic(self):
        costs = [3.0, 3.0, 3.0, 3.0]
        assert assign_balanced_stacks(costs, 2) == assign_balanced_stacks(costs, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            assign_balanced_stacks([1.0], 0)
        with pytest.raises(ValueError):
            assign_balanced_stacks([-1.0], 2)


class TestBucketPadChoice:
    def test_uniform_dimensions_need_no_padding(self):
        assert choose_bucket_pad([32] * 10) is None

    def test_padding_reduces_buckets_within_overhead(self):
        dims = [30, 31, 32, 33, 62, 63, 64, 65] * 4
        pad = choose_bucket_pad(dims, max_overhead=0.5)
        assert pad is not None
        padded = -(-np.asarray(dims) // pad) * pad
        assert np.unique(padded).size < np.unique(dims).size
        overhead = float(np.sum(padded.astype(float) ** 3)) / float(
            np.sum(np.asarray(dims, dtype=float) ** 3)
        ) - 1.0
        assert overhead <= 0.5 + 1e-12

    def test_tight_overhead_budget_disables_padding(self):
        # any merge of 2 and 200 would blow a 0.1% overhead budget
        assert choose_bucket_pad([2, 200], max_overhead=0.0) is None

    def test_resolve_bucket_pad(self):
        assert resolve_bucket_pad(None, [4, 8]) is None
        assert resolve_bucket_pad(16, [4, 8]) == 16
        # a plan indexing runs of 6 values needs stack dimensions in whole runs
        assert resolve_bucket_pad(32, [126, 150], 6) == 36
        assert resolve_bucket_pad(36, [126, 150], 6) == 36
        assert resolve_bucket_pad(None, [126, 150], 6) is None
        dims = [30, 31, 32, 33, 62, 63, 64, 65] * 4
        assert resolve_bucket_pad("auto", dims, max_overhead=0.5) == (
            choose_bucket_pad(dims, max_overhead=0.5)
        )
        with pytest.raises(ValueError):
            resolve_bucket_pad(0, [4, 8])
