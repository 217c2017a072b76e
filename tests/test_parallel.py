"""Tests for the simulated-parallelism substrate."""

import os

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
from repro.parallel.executor import (
    BLAS_THREAD_VARIABLES,
    default_worker_count,
    make_executor,
)


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

    def test_invalid_rank(self):
        log = TrafficLog(2)
        with pytest.raises(IndexError):
            log.record_flops(5, 1.0)
        with pytest.raises(ValueError):
            log.record_flops(0, -1.0)


class TestTopology:
    def test_balanced_dims(self):
        assert balanced_dims(4) == (2, 2)
        assert balanced_dims(12) == (4, 3)
        assert balanced_dims(7) == (7, 1)
        assert balanced_dims(1) == (1, 1)

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
            MachineModel(network_latency=0.0)


class TestExecutor:
    def test_serial_matches_parallel(self):
        items = list(range(20))
        serial = map_parallel(lambda x: x * x, items)
        with make_executor("thread", 2) as pool:
            threaded = map_parallel(lambda x: x * x, items, executor=pool)
        assert serial == threaded == [x * x for x in items]

    def test_order_preserved(self):
        items = [3, 1, 2]
        with make_executor("thread", 2) as pool:
            result = map_parallel(lambda x: x + 10, items, executor=pool)
        assert result == [13, 11, 12]

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            make_executor("thread", 0)

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


@pytest.fixture()
def blas_env(monkeypatch):
    """``monkeypatch`` with every BLAS thread variable unset."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestDefaultWorkerCount:
    """Usable CPUs (the affinity set) over the BLAS threads the environment
    pins; unpinned BLAS already uses every CPU, so one worker."""

    @pytest.mark.parametrize(
        "cpus, blas, expected",
        [
            ({0}, {"OPENBLAS_NUM_THREADS": "1"}, 1),
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, 2),
            ({0, 1}, {}, 1),
            ({0, 1, 2, 3}, {"OMP_NUM_THREADS": "2"}, 2),
            ({0, 1, 2, 3}, {"MKL_NUM_THREADS": "1"}, 4),
            ({0, 1, 2}, {"OMP_NUM_THREADS": "4"}, 1),
            # precedence: OpenBLAS's own variable over OpenMP's
            ({0, 1, 2, 3}, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
            # an OpenMP list counts its outer level
            ({0, 1, 2, 3}, {"OMP_NUM_THREADS": "2,4"}, 2),
            # a value that pins nothing is skipped
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2),
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 2),
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "many"}, 1),
        ],
    )
    def test_usable_cpus_over_blas_threads(self, blas_env, cpus, blas, expected):
        # the host has more CPUs than the process may use: the affinity set wins
        blas_env.setattr(os, "cpu_count", lambda: 64)
        blas_env.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        for name, value in blas.items():
            blas_env.setenv(name, value)
        assert default_worker_count() == expected

    def test_cpu_count_without_an_affinity_call(self, blas_env):
        blas_env.delattr(os, "sched_getaffinity", raising=False)
        blas_env.setattr(os, "cpu_count", lambda: 6)
        blas_env.setenv("OPENBLAS_NUM_THREADS", "2")
        assert default_worker_count() == 3
        blas_env.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1

    def test_unpinned_blas_makes_no_pool(self, blas_env):
        blas_env.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert make_executor("thread") is None
        blas_env.setenv("OPENBLAS_NUM_THREADS", "1")
        pool = make_executor("thread")
        try:
            assert pool is not None and pool._max_workers == 2
        finally:
            pool.shutdown()


def _explode_on_three(value):
    if value == 3:
        raise ValueError(f"bad value {value}")
    return value * 2


class TestMapParallelWrapping:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_wrapped_error_carries_task_context(self, backend):
        pool = make_executor(backend, 2)
        try:
            with pytest.raises(TaskExecutionError) as info:
                map_parallel(_explode_on_three, range(6), executor=pool)
        finally:
            if pool is not None:
                pool.shutdown()
        error = info.value
        assert error.task_index == 3
        assert error.n_tasks == 6
        assert isinstance(error.original, ValueError)
        assert error.__cause__ is error.original
        assert "task 3 of 6" in str(error)

    def test_wrapped_error_still_matches_original_type(self):
        with pytest.raises(ValueError, match="bad value 3"):
            map_parallel(_explode_on_three, range(6))

    def test_lowest_failing_index_wins(self):
        def explode_even(value):
            if value % 2 == 0:
                raise KeyError(value)
            return value

        with pytest.raises(TaskExecutionError) as info:
            map_parallel(explode_even, range(6))
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
