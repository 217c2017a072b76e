"""Tests for the simulated-parallelism substrate."""

import numpy as np
import pytest

from repro.parallel import (
    CartesianGrid2D,
    MachineModel,
    TaskExecutionError,
    TrafficLog,
    balanced_dims,
    map_parallel,
)
from repro.parallel.stats import RankCounters


class TestTrafficLog:
    def test_record_flops(self):
        log = TrafficLog(2)
        log.record_flops(0, 100.0)
        log.record_flops(1, 50.0, sparse=True)
        assert log.total_flops() == 150.0
        assert log.ranks[0].flops == 100.0
        assert log.ranks[1].sparse_flops == 50.0

    def test_record_message_updates_both_ends(self):
        log = TrafficLog(3)
        log.record_message(0, 2, 1000.0)
        assert log.ranks[0].bytes_sent == 1000.0
        assert log.ranks[2].bytes_received == 1000.0
        assert log.ranks[0].messages_sent == 1
        assert log.ranks[2].messages_received == 1

    def test_self_message_is_free(self):
        log = TrafficLog(2)
        log.record_message(1, 1, 1000.0)
        assert log.total_bytes_sent() == 0.0

    def test_allgather_volume(self):
        log = TrafficLog(4)
        log.record_allgather(10.0)
        # ring allgather: every rank sends (P-1) * nbytes
        assert all(r.bytes_sent == 30.0 for r in log.ranks)

    def test_allgather_single_rank_noop(self):
        log = TrafficLog(1)
        log.record_allgather(10.0)
        assert log.total_bytes_sent() == 0.0

    def test_flop_imbalance(self):
        log = TrafficLog(2)
        log.record_flops(0, 300.0)
        log.record_flops(1, 100.0)
        assert log.flop_imbalance() == pytest.approx(1.5)

    def test_flop_imbalance_empty(self):
        assert TrafficLog(3).flop_imbalance() == 1.0

    def test_merge(self):
        a = TrafficLog(2)
        b = TrafficLog(2)
        a.record_flops(0, 10.0)
        b.record_flops(0, 5.0)
        a.merge(b)
        assert a.ranks[0].flops == 15.0

    def test_merge_rank_mismatch(self):
        with pytest.raises(ValueError):
            TrafficLog(2).merge(TrafficLog(3))

    def test_invalid_rank(self):
        log = TrafficLog(2)
        with pytest.raises(IndexError):
            log.record_flops(5, 1.0)
        with pytest.raises(ValueError):
            log.record_flops(0, -1.0)

    def test_rank_counters_merge(self):
        a = RankCounters(flops=1.0, bytes_sent=2.0, messages_sent=1)
        b = RankCounters(flops=3.0, bytes_received=4.0)
        a.merge(b)
        assert a.flops == 4.0
        assert a.total_bytes == 6.0


class TestTopology:
    def test_balanced_dims(self):
        assert balanced_dims(4) == (2, 2)
        assert balanced_dims(12) == (4, 3)
        assert balanced_dims(7) == (7, 1)
        assert balanced_dims(1) == (1, 1)

    def test_coords_round_trip(self):
        grid = CartesianGrid2D(6, (2, 3))
        for rank in range(6):
            row, col = grid.coords(rank)
            assert grid.rank_at(row, col) == rank

    def test_rank_at_wraps(self):
        grid = CartesianGrid2D(4, (2, 2))
        assert grid.rank_at(2, 0) == grid.rank_at(0, 0)
        assert grid.rank_at(-1, 0) == grid.rank_at(1, 0)

    def test_shift(self):
        grid = CartesianGrid2D(4, (2, 2))
        source, destination = grid.shift(0, dimension=1, displacement=1)
        assert destination == 1
        assert source == 1  # periodic with 2 columns

    def test_shift_invalid_dimension(self):
        with pytest.raises(ValueError):
            CartesianGrid2D(4, (2, 2)).shift(0, 2, 1)

    def test_row_and_col_ranks(self):
        grid = CartesianGrid2D(6, (2, 3))
        assert grid.row_ranks(0) == [0, 1, 2]
        assert grid.col_ranks(1) == [1, 4]

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            CartesianGrid2D(5, (2, 2))


class TestMachineModel:
    def test_compute_time_scales_with_cores(self):
        machine = MachineModel()
        single = machine.compute_time(1e9, cores=1)
        multi = machine.compute_time(1e9, cores=10)
        assert multi == pytest.approx(single / 10)

    def test_sparse_slower_than_dense(self):
        machine = MachineModel()
        assert machine.compute_time(1e9, sparse=True) > machine.compute_time(1e9)

    def test_message_time(self):
        machine = MachineModel(network_bandwidth=1e9, network_latency=1e-6)
        assert machine.message_time(1e9, messages=1) == pytest.approx(1.0 + 1e-6)

    def test_simulate_uses_critical_path(self):
        machine = MachineModel()
        log = TrafficLog(2)
        log.record_flops(0, 1e9)
        log.record_flops(1, 2e9)
        simulated = machine.simulate(log)
        assert simulated.compute == pytest.approx(machine.compute_time(2e9))

    def test_simulate_includes_communication(self):
        machine = MachineModel()
        log = TrafficLog(2)
        log.record_message(0, 1, 1e9)
        simulated = machine.simulate(log)
        assert simulated.communication > 0
        assert simulated.total == simulated.compute + simulated.communication

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MachineModel(dense_flop_rate=-1.0)
        with pytest.raises(ValueError):
            MachineModel(cores_per_node=0)

    def test_nodes_for_ranks(self):
        machine = MachineModel(cores_per_node=40)
        assert machine.nodes_for_ranks(40) == 1
        assert machine.nodes_for_ranks(41) == 2
        assert machine.nodes_for_ranks(16, ranks_per_node=8) == 2


class TestExecutor:
    def test_serial_matches_parallel(self):
        items = list(range(20))
        serial = map_parallel(lambda x: x * x, items, backend="serial")
        threaded = map_parallel(lambda x: x * x, items, backend="thread", max_workers=2)
        assert serial == threaded == [x * x for x in items]

    def test_order_preserved(self):
        items = [3, 1, 2]
        result = map_parallel(lambda x: x + 10, items, backend="thread", max_workers=2)
        assert result == [13, 11, 12]

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            map_parallel(lambda x: x, [1], backend="gpu")

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            map_parallel(lambda x: x, [1], max_workers=0)

    def test_empty_input(self):
        assert map_parallel(lambda x: x, []) == []

    def test_prebuilt_executor_reused_and_left_running(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.parallel.executor import make_executor

        with ThreadPoolExecutor(max_workers=2) as pool:
            first = map_parallel(lambda x: x * 2, [1, 2, 3], executor=pool)
            # the pool must survive the call so repeated evaluations (e.g.
            # μ-bisection iterations) reuse it instead of rebuilding one
            second = map_parallel(lambda x: x + 1, [1, 2, 3], executor=pool)
            assert first == [2, 4, 6]
            assert second == [2, 3, 4]
        helper = make_executor("thread", 2)
        try:
            assert map_parallel(lambda x: -x, [4, 5], executor=helper) == [-4, -5]
        finally:
            helper.shutdown()

    def test_make_executor_serial_configurations_return_none(self):
        from repro.parallel.executor import make_executor

        assert make_executor("serial") is None
        assert make_executor("thread", 1) is None
        with pytest.raises(ValueError):
            make_executor("gpu")


def _explode_on_three(value):
    if value == 3:
        raise ValueError(f"bad value {value}")
    return value * 2


class TestMapParallelWrapping:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_wrapped_error_carries_task_context(self, backend):
        with pytest.raises(TaskExecutionError) as info:
            map_parallel(_explode_on_three, range(6), max_workers=2, backend=backend)
        error = info.value
        assert error.task_index == 3
        assert error.n_tasks == 6
        assert isinstance(error.original, ValueError)
        assert error.__cause__ is error.original
        assert "task 3 of 6" in str(error)

    def test_wrapped_error_still_matches_original_type(self):
        with pytest.raises(ValueError, match="bad value 3"):
            map_parallel(_explode_on_three, range(6), backend="serial")

    def test_lowest_failing_index_wins(self):
        def explode_even(value):
            if value % 2 == 0:
                raise KeyError(value)
            return value

        with pytest.raises(TaskExecutionError) as info:
            map_parallel(explode_even, range(6), backend="serial")
        assert info.value.task_index == 0
        assert isinstance(info.value, KeyError)


class TestRecordMessageMatrix:
    def test_matrix_recorded_as_messages(self):
        from repro.parallel.stats import TrafficLog

        log = TrafficLog(3)
        matrix = np.array([[0.0, 10.0, 0.0], [0.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
        log.record_message_matrix(matrix)
        assert log.ranks[0].bytes_sent == 10.0
        assert log.ranks[1].bytes_received == 10.0
        assert log.ranks[1].bytes_sent == 5.0
        assert log.ranks[2].bytes_received == 5.0
        assert log.ranks[0].messages_sent == 1

    def test_shape_and_sign_validated(self):
        from repro.parallel.stats import TrafficLog

        log = TrafficLog(2)
        with pytest.raises(ValueError):
            log.record_message_matrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            log.record_message_matrix(np.full((2, 2), -1.0))
