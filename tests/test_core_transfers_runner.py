"""Tests for transfer planning, the run cost models and the machine model glue."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    newton_schulz_cost,
    plan_transfers,
    single_column_groups,
    submatrix_method_cost,
)
from repro.core.combination import group_columns_greedy_chunks
from repro.core.runner import estimate_newton_schulz_iterations
from repro.dbcsr import BlockDistribution, CooBlockList, ProcessGrid2D
from repro.parallel import MachineModel


def banded_pattern(n_blocks, bandwidth=2):
    rows, cols = [], []
    for i in range(n_blocks):
        for j in range(max(0, i - bandwidth), min(n_blocks, i + bandwidth + 1)):
            rows.append(i)
            cols.append(j)
    data = np.ones(len(rows), dtype=bool)
    return sp.coo_matrix((data, (rows, cols)), shape=(n_blocks, n_blocks)).tocsr()


@pytest.fixture()
def small_plan_inputs():
    n_blocks = 12
    pattern = banded_pattern(n_blocks, bandwidth=2)
    coo = CooBlockList.from_pattern(pattern)
    block_sizes = [6] * n_blocks
    grid = ProcessGrid2D(4, (2, 2))
    distribution = BlockDistribution(n_blocks, n_blocks, grid)
    grouping = single_column_groups(n_blocks)
    rank_of_group = [i % 4 for i in range(n_blocks)]
    return coo, block_sizes, distribution, grouping, rank_of_group


class TestTransferPlan:
    def test_every_rank_summarised(self, small_plan_inputs):
        coo, sizes, distribution, grouping, ranks = small_plan_inputs
        plan = plan_transfers(coo, sizes, distribution, grouping, ranks)
        assert plan.n_ranks == 4
        assert sum(s.n_submatrices for s in plan.per_rank) == grouping.n_submatrices

    def test_dedup_saves_traffic(self, small_plan_inputs):
        """Blocks shared by overlapping submatrices are fetched only once."""
        coo, sizes, distribution, grouping, ranks = small_plan_inputs
        plan = plan_transfers(coo, sizes, distribution, grouping, ranks)
        assert plan.total_fetch_bytes < plan.total_fetch_bytes_without_dedup
        assert 0.0 < plan.deduplication_savings < 1.0

    def test_single_rank_has_no_remote_fetches(self, small_plan_inputs):
        coo, sizes, _, grouping, _ = small_plan_inputs
        grid = ProcessGrid2D(1, (1, 1))
        distribution = BlockDistribution(coo.n_block_rows, coo.n_block_cols, grid)
        plan = plan_transfers(coo, sizes, distribution, grouping, [0] * grouping.n_submatrices)
        assert plan.total_fetch_bytes == 0.0
        assert plan.total_writeback_bytes == 0.0

    def test_required_blocks_cover_submatrix_pattern(self, small_plan_inputs):
        coo, sizes, distribution, grouping, ranks = small_plan_inputs
        plan = plan_transfers(coo, sizes, distribution, grouping, ranks)
        # rank 0 owns submatrices for columns 0, 4, 8
        from repro.core.submatrix import submatrix_block_rows

        needed = set()
        for column in (0, 4, 8):
            retained = submatrix_block_rows(coo, column)
            for bi in retained:
                for bj in retained:
                    if coo.contains(int(bi), int(bj)):
                        needed.add(coo.block_id(int(bi), int(bj)))
        assert set(plan.per_rank[0].required_blocks.tolist()) == needed

    def test_fetch_matrix_consistent_with_totals(self, small_plan_inputs):
        coo, sizes, distribution, grouping, ranks = small_plan_inputs
        plan = plan_transfers(coo, sizes, distribution, grouping, ranks)
        assert plan.fetch_matrix.sum() == pytest.approx(plan.total_fetch_bytes)
        assert plan.writeback_matrix.sum() == pytest.approx(plan.total_writeback_bytes)

    def test_traffic_log_reflects_plan(self, small_plan_inputs):
        coo, sizes, distribution, grouping, ranks = small_plan_inputs
        plan = plan_transfers(coo, sizes, distribution, grouping, ranks)
        log = plan.to_traffic_log(include_coo_allgather=False)
        assert log.total_bytes_sent() == pytest.approx(
            plan.total_fetch_bytes + plan.total_writeback_bytes
        )
        with_coo = plan.to_traffic_log(include_coo_allgather=True, coo_length=len(coo))
        assert with_coo.total_bytes_sent() > log.total_bytes_sent()

    def test_rank_of_group_length_checked(self, small_plan_inputs):
        coo, sizes, distribution, grouping, _ = small_plan_inputs
        with pytest.raises(ValueError):
            plan_transfers(coo, sizes, distribution, grouping, [0])

    def test_fast_per_rank_planning_close_to_exact(self, small_plan_inputs):
        """The per-rank fast path gives the same (or slightly larger) fetch."""
        coo, sizes, distribution, grouping, ranks = small_plan_inputs
        exact = plan_transfers(coo, sizes, distribution, grouping, ranks)
        fast = plan_transfers(
            coo, sizes, distribution, grouping, ranks, per_group_dedup=False
        )
        assert fast.total_fetch_bytes >= exact.total_fetch_bytes
        assert fast.total_fetch_bytes <= 2.0 * exact.total_fetch_bytes
        assert fast.total_writeback_bytes == pytest.approx(
            exact.total_writeback_bytes
        )
        # the fast path does not report a without-dedup volume
        assert fast.deduplication_savings == pytest.approx(0.0)

    def test_rank_out_of_range(self, small_plan_inputs):
        coo, sizes, distribution, grouping, _ = small_plan_inputs
        with pytest.raises(IndexError):
            plan_transfers(
                coo, sizes, distribution, grouping, [99] * grouping.n_submatrices
            )


class TestSubmatrixMethodCost:
    def test_basic_invariants(self):
        pattern = banded_pattern(32, bandwidth=3)
        machine = MachineModel()
        cost = submatrix_method_cost(pattern, [6] * 32, n_ranks=4, machine=machine)
        assert cost.method == "submatrix"
        assert cost.total_flops > 0
        assert cost.simulated.total > 0
        assert cost.details["n_submatrices"] == 32

    def test_more_ranks_reduce_time(self):
        pattern = banded_pattern(64, bandwidth=3)
        machine = MachineModel()
        slow = submatrix_method_cost(pattern, [6] * 64, n_ranks=2, machine=machine)
        fast = submatrix_method_cost(pattern, [6] * 64, n_ranks=16, machine=machine)
        assert fast.simulated.total < slow.simulated.total

    def test_strong_scaling_efficiency_below_one(self):
        """Strong scaling cannot be super-linear in this model."""
        pattern = banded_pattern(64, bandwidth=3)
        machine = MachineModel()
        base = submatrix_method_cost(pattern, [6] * 64, n_ranks=2, machine=machine)
        scaled = submatrix_method_cost(pattern, [6] * 64, n_ranks=8, machine=machine)
        efficiency = base.simulated.total * 2 / (scaled.simulated.total * 8)
        assert efficiency <= 1.01

    def test_total_flops_match_grouping(self):
        pattern = banded_pattern(16, bandwidth=2)
        sizes = [6] * 16
        machine = MachineModel()
        grouping = single_column_groups(16)
        dims = grouping.submatrix_dimensions(pattern, sizes)
        expected = 9.0 * sum(float(d) ** 3 for d in dims)
        cost = submatrix_method_cost(pattern, sizes, n_ranks=4, machine=machine)
        assert cost.total_flops == pytest.approx(expected)

    def test_grouping_parameter_honoured(self):
        pattern = banded_pattern(16, bandwidth=2)
        machine = MachineModel()
        grouping = group_columns_greedy_chunks(16, 4)
        cost = submatrix_method_cost(
            pattern, [6] * 16, n_ranks=4, machine=machine, grouping=grouping
        )
        assert cost.details["n_submatrices"] == 4

    def test_accepts_coo_input(self):
        pattern = banded_pattern(16, bandwidth=2)
        coo = CooBlockList.from_pattern(pattern)
        machine = MachineModel()
        a = submatrix_method_cost(pattern, [6] * 16, 4, machine)
        b = submatrix_method_cost(coo, [6] * 16, 4, machine)
        assert a.total_flops == pytest.approx(b.total_flops)


class TestNewtonSchulzCost:
    def test_basic_invariants(self):
        pattern = banded_pattern(32, bandwidth=3)
        machine = MachineModel()
        cost = newton_schulz_cost(pattern, [6] * 32, n_ranks=4, machine=machine)
        assert cost.method == "newton_schulz"
        assert cost.total_flops > 0
        assert cost.simulated.total > 0

    def test_flops_scale_with_iterations(self):
        pattern = banded_pattern(32, bandwidth=3)
        machine = MachineModel()
        short = newton_schulz_cost(pattern, [6] * 32, 4, machine, n_iterations=10)
        long = newton_schulz_cost(pattern, [6] * 32, 4, machine, n_iterations=20)
        assert long.total_flops == pytest.approx(2 * short.total_flops)

    def test_communication_grows_with_rank_count(self):
        """Cannon traffic per rank grows with sqrt(P): weak-scaling penalty."""
        pattern = banded_pattern(64, bandwidth=3)
        machine = MachineModel()
        few = newton_schulz_cost(pattern, [6] * 64, 4, machine)
        many = newton_schulz_cost(pattern, [6] * 64, 64, machine)
        bytes_per_rank_few = few.traffic.ranks[0].bytes_sent
        bytes_per_rank_many = many.traffic.ranks[0].bytes_sent
        # per-rank volume shrinks slower than 1/P (it scales as 1/sqrt(P))
        assert bytes_per_rank_many > bytes_per_rank_few / 16

    def test_fill_pattern_increases_cost(self):
        pattern = banded_pattern(32, bandwidth=2)
        machine = MachineModel()
        without = newton_schulz_cost(
            pattern, [6] * 32, 4, machine, fill_pattern=False
        )
        with_fill = newton_schulz_cost(
            pattern, [6] * 32, 4, machine, fill_pattern=True
        )
        assert with_fill.total_flops > without.total_flops

    def test_iteration_estimate_monotone(self):
        assert estimate_newton_schulz_iterations(1e-9) >= estimate_newton_schulz_iterations(1e-5)
        assert estimate_newton_schulz_iterations(1e-2) >= 1
        with pytest.raises(ValueError):
            estimate_newton_schulz_iterations(0.0)

    def test_submatrix_beats_ns_in_weak_scaling_efficiency(self):
        """Qualitative reproduction of Fig. 10's message on the cost model."""
        machine = MachineModel()
        sizes_per_block = 6

        def weak_point(n_blocks, n_ranks):
            pattern = banded_pattern(n_blocks, bandwidth=4)
            sizes = [sizes_per_block] * n_blocks
            sm = submatrix_method_cost(pattern, sizes, n_ranks, machine)
            ns = newton_schulz_cost(pattern, sizes, n_ranks, machine)
            return sm.simulated.total, ns.simulated.total

        sm_small, ns_small = weak_point(64, 4)
        sm_large, ns_large = weak_point(256, 16)
        sm_efficiency = sm_small / sm_large
        ns_efficiency = ns_small / ns_large
        assert sm_efficiency > ns_efficiency
