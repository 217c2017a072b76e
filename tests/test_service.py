"""Tests for the serving layer: shared plan cache, dispatch pool, admission.

Covers the contracts:

* :class:`~repro.core.plan.PlanCache` is thread-safe — N threads racing on
  one cache build each pattern exactly once — and byte-accounted, with LRU
  eviction under a byte budget;
* :class:`~repro.api.context.SubmatrixContext` supports concurrent use and
  refuses to close while requests are in flight;
* :class:`~repro.serve.DensityService` runs every request as one session
  call on its dispatch pool and serves results **bitwise identical** to
  direct ``context.density`` calls, across tenants sharing one plan cache —
  also with the cache forced to evict under concurrent load;
* admission control enforces global and per-tenant in-flight ceilings and
  the plan-cache byte budget, and every admitted request ends completed or
  failed with its slot released — a request the closing pool refuses too;
* a poisoned request fails alone — its neighbours still get their exact
  results.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import pathlib
import re
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro import (
    AdmissionPolicy,
    DensityService,
    EngineConfig,
    ServiceOverloadError,
    SubmatrixContext,
)
from repro.api import UnknownKernelError
from repro.chem import build_matrices, water_box
from repro.core.plan import PlanCache, block_plan, plan_nbytes
from repro.dbcsr import CooBlockList
from repro.dbcsr.convert import block_matrix_from_dense
from repro.serve import AdmissionController, ServiceMetrics

from conftest import reachable_array_bytes

N_ELECTRONS = 8.0 * 32

CONFIG = EngineConfig(engine="batched", backend="thread", max_workers=2)


def assert_identical(result, reference):
    """Bitwise comparison of two SubmatrixDFTResult payloads."""
    assert np.array_equal(result.density_ao, reference.density_ao)
    assert np.array_equal(
        result.density_ortho.toarray(), reference.density_ortho.toarray()
    )
    assert result.mu == reference.mu
    assert result.band_energy == reference.band_energy
    assert result.n_electrons == reference.n_electrons
    assert result.pattern_fingerprint == reference.pattern_fingerprint
    assert sorted(result.submatrix_dimensions) == sorted(
        reference.submatrix_dimensions
    )


@contextlib.contextmanager
def pool_held(service):
    """Occupy a one-worker dispatch pool for the ``with`` body: requests
    admitted meanwhile wait in the pool's queue, holding their slots."""
    gate = threading.Event()
    service._dispatch.submit(gate.wait, 60)
    try:
        yield
    finally:
        gate.set()


def banded_block_pattern(n_blocks, block_size, bandwidth, seed):
    """Small random banded block matrix and its COO pattern.

    Off-diagonal blocks are dropped at random (seed-dependent), so distinct
    seeds produce distinct sparsity *patterns* — which is what the plan
    cache keys on — not merely distinct values.
    """
    generator = np.random.default_rng(seed)
    n = n_blocks * block_size
    dense = np.zeros((n, n))
    for i in range(n_blocks):
        for j in range(i, n_blocks):
            if abs(i - j) <= bandwidth and (i == j or generator.random() < 0.6):
                dense[
                    i * block_size : (i + 1) * block_size,
                    j * block_size : (j + 1) * block_size,
                ] = generator.normal(size=(block_size, block_size))
    dense = (dense + dense.T) / 2.0
    matrix = block_matrix_from_dense(dense, [block_size] * n_blocks)
    return matrix, CooBlockList.from_block_matrix(matrix)


@pytest.fixture(scope="module")
def reference_results(water32_matrices, gap_mu):
    """Direct single-context results both ensembles are checked against."""
    with SubmatrixContext(CONFIG) as context:
        grand_canonical = context.density(
            water32_matrices.K,
            water32_matrices.S,
            water32_matrices.blocks,
            mu=gap_mu,
        )
        canonical = context.density(
            water32_matrices.K,
            water32_matrices.S,
            water32_matrices.blocks,
            n_electrons=N_ELECTRONS,
        )
    return grand_canonical, canonical


# --------------------------------------------------------------------------- #
# satellite: PlanCache thread safety and byte accounting
# --------------------------------------------------------------------------- #
class TestPlanCacheConcurrency:
    def test_exactly_one_build_per_pattern_under_contention(self):
        cache = PlanCache(max_plans=64)
        patterns = [
            banded_block_pattern(6, 3, 2, seed)[1] for seed in range(4)
        ]
        sizes = [3] * 6
        groups = [[c] for c in range(6)]
        n_threads = 8
        rounds = 5
        barrier = threading.Barrier(n_threads)
        errors = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(rounds):
                    for coo in patterns:
                        block_plan(coo, sizes, groups, cache=cache)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats
        assert stats["builds"] == len(patterns)
        assert stats["misses"] == len(patterns)
        assert stats["plans"] == len(patterns)
        assert stats["hits"] == n_threads * rounds * len(patterns) - len(patterns)

    def test_identical_plan_object_across_threads(self):
        cache = PlanCache()
        _, coo = banded_block_pattern(5, 2, 1, 11)
        sizes, groups = [2] * 5, [[c] for c in range(5)]
        results = [None] * 4
        barrier = threading.Barrier(4)

        def fetch(slot):
            barrier.wait()
            results[slot] = block_plan(coo, sizes, groups, cache=cache)

        threads = [
            threading.Thread(target=fetch, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(plan is results[0] for plan in results)


class TestPlanCacheMemory:
    def test_total_bytes_tracks_resident_plans(self):
        cache = PlanCache()
        assert cache.total_bytes == 0
        _, coo = banded_block_pattern(6, 3, 2, 0)
        plan = block_plan(coo, [3] * 6, [[c] for c in range(6)], cache=cache)
        assert cache.total_bytes == plan_nbytes(plan) > 0
        _, coo2 = banded_block_pattern(6, 3, 2, 1)
        plan2 = block_plan(coo2, [3] * 6, [[c] for c in range(6)], cache=cache)
        assert cache.total_bytes == plan_nbytes(plan) + plan_nbytes(plan2)

    def test_byte_budget_evicts_lru_but_keeps_newest(self):
        cache = PlanCache(max_plans=64, max_bytes=1)
        for seed in range(3):
            _, coo = banded_block_pattern(6, 3, 2, seed)
            block_plan(coo, [3] * 6, [[c] for c in range(6)], cache=cache)
        # every insertion exceeds the 1-byte budget, so only the plan just
        # built survives each time
        assert len(cache) == 1
        assert cache.stats["evictions"] == 2

    def test_evict_to_empties_cache(self):
        cache = PlanCache()
        for seed in range(3):
            _, coo = banded_block_pattern(6, 3, 2, seed)
            block_plan(coo, [3] * 6, [[c] for c in range(6)], cache=cache)
        assert len(cache) == 3
        evicted = cache.evict_to(0)
        assert evicted == 3
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.stats["evictions"] == 3


# --------------------------------------------------------------------------- #
# satellite: concurrent SubmatrixContext use
# --------------------------------------------------------------------------- #
class TestConcurrentContext:
    def test_parallel_density_calls_are_bitwise_identical(
        self, water32_matrices, gap_mu, reference_results
    ):
        reference, _ = reference_results
        n_threads = 6
        results = [None] * n_threads
        errors = []
        barrier = threading.Barrier(n_threads)
        with SubmatrixContext(CONFIG) as context:

            def work(slot):
                try:
                    barrier.wait()
                    results[slot] = context.density(
                        water32_matrices.K,
                        water32_matrices.S,
                        water32_matrices.blocks,
                        mu=gap_mu,
                    )
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)

            threads = [
                threading.Thread(target=work, args=(slot,))
                for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for result in results:
                assert_identical(result, reference)
            # one shared plan served every thread
            assert context.plan_cache.stats["builds"] == 1

    def test_close_while_request_in_flight_raises(self):
        context = SubmatrixContext(EngineConfig(backend="serial"))
        matrix = sp.csr_matrix(np.diag([2.0, 3.0, 4.0]))
        entered = threading.Event()
        release = threading.Event()

        def blocking_function(submatrix):
            entered.set()
            release.wait(10)
            return np.asarray(submatrix, dtype=float)

        worker = threading.Thread(
            target=lambda: context.apply(matrix, blocking_function)
        )
        worker.start()
        assert entered.wait(10)
        assert context.in_flight == 1
        with pytest.raises(RuntimeError, match="in flight"):
            context.close()
        assert not context.closed  # the session stays open and usable
        release.set()
        worker.join()
        assert context.in_flight == 0
        context.close()  # drained: close now succeeds
        assert context.closed
        with pytest.raises(RuntimeError, match="closed"):
            context.apply(matrix, blocking_function)


# --------------------------------------------------------------------------- #
# tentpole: the density service
# --------------------------------------------------------------------------- #
class TestServiceIdentity:
    def test_served_equals_direct_both_ensembles(
        self, water32_matrices, gap_mu, reference_results
    ):
        ref_gc, ref_canonical = reference_results
        with DensityService(config=CONFIG) as service:
            served_gc = service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                tenant="alice",
                mu=gap_mu,
            )
            served_canonical = service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                tenant="bob",
                n_electrons=N_ELECTRONS,
            )
        assert_identical(served_gc, ref_gc)
        assert_identical(served_canonical, ref_canonical)

    def test_direct_path_iterative_solver_equals_context(self, water32_matrices, gap_mu):
        with SubmatrixContext(CONFIG) as context:
            reference = context.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
            )
        with DensityService(config=CONFIG) as service:
            served = service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
            )
        assert_identical(served, reference)

    def test_concurrent_pool_requests_identical(
        self, water32_matrices, gap_mu, reference_results
    ):
        """Four requests in flight at once on the pool — both ensembles,
        bytewise-identical inputs, two tenants — each bitwise its direct
        call, over one shared plan."""
        ref_gc, ref_canonical = reference_results
        with DensityService(config=CONFIG) as service:
            futures = [
                service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                    tenant=f"tenant-{index // 2}",
                    mu=gap_mu if index % 2 == 0 else None,
                    n_electrons=None if index % 2 == 0 else N_ELECTRONS,
                )
                for index in range(4)
            ]
            results = [future.result(120) for future in futures]
            snapshot = service.stats()
        for index, result in enumerate(results):
            assert_identical(result, ref_gc if index % 2 == 0 else ref_canonical)
        assert snapshot["metrics"]["total"]["completed"] == 4
        # tenants share one plan: one build, hits for every later request
        assert snapshot["plan_cache"]["builds"] == 1
        assert snapshot["plan_cache_hit_rate"] > 0.5
        assert snapshot["admission"]["in_flight"] == 0

    def test_poisoned_request_fails_alone(
        self, water32_matrices, gap_mu, reference_results
    ):
        ref_gc, _ = reference_results
        bad_K = sp.csr_matrix(np.eye(5))  # wrong size for the block structure
        nan_K = sp.lil_matrix(water32_matrices.K)
        nan_K[3, 3] = np.nan
        with DensityService(config=CONFIG) as service:
            good = service.submit(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
            )
            bad = service.submit(
                bad_K, water32_matrices.S, water32_matrices.blocks, mu=gap_mu
            )
            poisoned = service.submit(
                nan_K.tocsr(), water32_matrices.S, water32_matrices.blocks, mu=gap_mu
            )
            result = good.result(120)
            with pytest.raises(Exception):
                bad.result(120)
            with pytest.raises(ValueError, match="K contains non-finite"):
                poisoned.result(120)
            snapshot = service.stats()
        assert_identical(result, ref_gc)
        assert snapshot["metrics"]["total"]["completed"] == 1
        assert snapshot["metrics"]["total"]["failed"] == 2
        assert snapshot["admission"]["in_flight"] == 0


class TestServiceTrajectory:
    def test_trajectory_through_service_equals_direct(
        self, water32_matrices, gap_mu
    ):
        steps = [(water32_matrices.K, water32_matrices.S)] * 2
        with SubmatrixContext(CONFIG) as context:
            reference = context.trajectory(
                steps, water32_matrices.blocks, mu=gap_mu
            )
        with DensityService(config=CONFIG) as service:
            served = service.trajectory(
                steps, water32_matrices.blocks, tenant="md", mu=gap_mu
            )
            snapshot = service.stats()
        assert len(served.results) == len(reference.results)
        for step, ref_step in zip(served.results, reference.results):
            assert_identical(step, ref_step)
        tenant = snapshot["metrics"]["tenants"]["md"]
        assert tenant["completed"] == 1
        assert tenant["bytes_out"] > 0


# --------------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------------- #
class TestAdmissionController:
    def test_counting_and_release(self):
        controller = AdmissionController(
            AdmissionPolicy(max_in_flight=3, max_in_flight_per_tenant=2)
        )
        controller.admit("a")
        controller.admit("a")
        with pytest.raises(ServiceOverloadError, match="tenant at capacity"):
            controller.admit("a")
        controller.admit("b")
        with pytest.raises(ServiceOverloadError, match="service at capacity"):
            controller.admit("c")
        controller.release("a")
        controller.admit("c")  # global slot freed
        snapshot = controller.snapshot()
        assert snapshot["in_flight"] == 3
        assert snapshot["per_tenant"] == {"a": 1, "b": 1, "c": 1}
        assert snapshot["rejections"] == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_in_flight_per_tenant=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_plan_cache_bytes=-1)


class TestServiceAdmission:
    def test_per_tenant_cap_rejects_and_recovers(self, water32_matrices, gap_mu):
        policy = AdmissionPolicy(max_in_flight=8, max_in_flight_per_tenant=2)
        with DensityService(
            config=CONFIG, policy=policy, dispatch_workers=1
        ) as service:
            with pool_held(service):
                first = service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                    tenant="greedy",
                    mu=gap_mu,
                )
                second = service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                    tenant="greedy",
                    mu=gap_mu,
                )
                # both slots of the tenant are occupied while the requests
                # wait in the held pool's queue
                with pytest.raises(
                    ServiceOverloadError, match="tenant at capacity"
                ):
                    service.submit(
                        water32_matrices.K,
                        water32_matrices.S,
                        water32_matrices.blocks,
                        tenant="greedy",
                        mu=gap_mu,
                    )
                # a different tenant is unaffected
                other = service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                    tenant="patient",
                    mu=gap_mu,
                )
            for future in (first, second, other):
                future.result(120)
            snapshot = service.stats()
            # slots free again after completion
            assert snapshot["admission"]["in_flight"] == 0
            assert snapshot["metrics"]["tenants"]["greedy"]["rejected"] == 1
            retry = service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                tenant="greedy",
                mu=gap_mu,
            )
            assert retry is not None

    def test_global_cap(self, water32_matrices, gap_mu):
        policy = AdmissionPolicy(max_in_flight=2, max_in_flight_per_tenant=2)
        with DensityService(
            config=CONFIG, policy=policy, dispatch_workers=1
        ) as service:
            with pool_held(service):
                futures = [
                    service.submit(
                        water32_matrices.K,
                        water32_matrices.S,
                        water32_matrices.blocks,
                        tenant=tenant,
                        mu=gap_mu,
                    )
                    for tenant in ("a", "b")
                ]
                with pytest.raises(
                    ServiceOverloadError, match="service at capacity"
                ):
                    service.submit(
                        water32_matrices.K,
                        water32_matrices.S,
                        water32_matrices.blocks,
                        tenant="c",
                        mu=gap_mu,
                    )
            for future in futures:
                future.result(120)

    def test_plan_cache_byte_budget_enforced_after_requests(
        self, water32_matrices, gap_mu
    ):
        policy = AdmissionPolicy(max_plan_cache_bytes=1)
        with DensityService(config=CONFIG, policy=policy) as service:
            result = service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
            )
            snapshot = service.stats()
        assert result is not None  # the request itself is unaffected
        assert snapshot["plan_cache_bytes"] <= 1
        assert snapshot["admission"]["memory_evictions"] >= 1


    def test_byte_budget_bounds_what_used_plans_hold(self, szv_model, gap_mu):
        """The cache sizes a plan when it is inserted, before its first use.
        Plans used to double once used (a per-bucket memo of every index
        array), so a budget let about twice its bytes stay resident; now a
        used plan holds what was accounted, and after every tenant has been
        served the arrays reachable from the cache fit the budget."""
        tenants = [
            build_matrices(water_box(1, seed=2020 + tenant), model=szv_model)
            for tenant in range(3)
        ]
        # filtered hard enough that every tenant has a pattern of its own
        config = CONFIG.replace(eps_filter=1e-2)
        with DensityService(config=config) as service:
            pair = tenants[0]
            service.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            one_plan = service.stats()["plan_cache_bytes"]
        budget = int(2.5 * one_plan)  # room for two of the three tenants
        policy = AdmissionPolicy(max_plan_cache_bytes=budget)
        with DensityService(config=config, policy=policy) as service:
            for tenant, pair in enumerate(tenants):
                service.density(
                    pair.K, pair.S, pair.blocks, mu=gap_mu, tenant=f"t{tenant}"
                )
                assert service.stats()["plan_cache_bytes"] <= budget
                assert reachable_array_bytes(service.plan_cache) <= budget
            assert len(service.plan_cache) == 2
            assert service.plan_cache.stats["evictions"] == 1


# --------------------------------------------------------------------------- #
# validation, metrics, lifecycle
# --------------------------------------------------------------------------- #
class TestServiceValidation:
    def test_unknown_solver_rejected_at_submit(self, water32_matrices, gap_mu):
        with DensityService(config=CONFIG) as service:
            with pytest.raises(UnknownKernelError):
                service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                    mu=gap_mu,
                    solver="definitely-not-a-kernel",
                )
            # failed validation must not leak admission slots
            assert service.stats()["admission"]["in_flight"] == 0

    def test_ensemble_validation(self, water32_matrices, gap_mu):
        with DensityService(config=CONFIG) as service:
            with pytest.raises(ValueError, match="exactly one"):
                service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                )
            with pytest.raises(ValueError, match="exactly one"):
                service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                    mu=gap_mu,
                    n_electrons=N_ELECTRONS,
                )
            with pytest.raises(ValueError, match="eigendecomposition"):
                service.submit(
                    water32_matrices.K,
                    water32_matrices.S,
                    water32_matrices.blocks,
                    n_electrons=N_ELECTRONS,
                    solver="newton_schulz",
                )
            assert service.stats()["admission"]["in_flight"] == 0

    @pytest.mark.parametrize(
        "malformed, match",
        [
            ({}, "exactly one"),
            ({"mu": 0.0, "steps": None}, "not None"),
            ({"mu": 0.0, "observables": ("density", "dos")}, "dos"),
        ],
        ids=["no_ensemble", "steps_none", "unknown_observable"],
    )
    def test_malformed_trajectory_rejected_at_submit(
        self, water32_matrices, malformed, match
    ):
        """A trajectory is checked where it is submitted, like a density
        request: it used to be admitted, take an in-flight slot, count as
        admitted and failed, and raise only from its future."""
        request = dict(malformed)
        steps = request.pop("steps", [(water32_matrices.K, water32_matrices.S)])
        with DensityService(config=CONFIG) as service:
            with pytest.raises(ValueError, match=match):
                service.submit_trajectory(steps, water32_matrices.blocks, **request)
            snapshot = service.stats()
        assert snapshot["metrics"]["total"]["admitted"] == 0
        assert snapshot["metrics"]["total"]["failed"] == 0
        assert snapshot["admission"]["in_flight"] == 0
        assert snapshot["contexts"] == 0

    @pytest.mark.parametrize("solver", ["eigen", "newton_schulz"])
    @pytest.mark.parametrize(
        "name, index, value",
        [("K", (3, 3), np.nan), ("S", (2, 2), np.inf)],
        ids=["nan_in_K", "inf_in_S"],
    )
    def test_non_finite_input_raises(
        self, water32_matrices, gap_mu, solver, name, index, value
    ):
        matrices = {"K": water32_matrices.K, "S": water32_matrices.S}
        poisoned = sp.lil_matrix(matrices[name])
        poisoned[index] = value
        matrices[name] = poisoned.tocsr()
        config = EngineConfig(engine="batched", eps_filter=1e-4)
        with SubmatrixContext(config) as context:
            with pytest.raises(ValueError, match=f"{name} contains non-finite"):
                context.density(
                    matrices["K"],
                    matrices["S"],
                    water32_matrices.blocks,
                    mu=gap_mu,
                    solver=solver,
                )
            with pytest.raises(ValueError, match=f"{name} contains non-finite"):
                context.density(
                    matrices["K"].toarray(),
                    matrices["S"].toarray(),
                    water32_matrices.blocks,
                    mu=gap_mu,
                    solver=solver,
                )


class TestServiceMetrics:
    def test_counters_and_percentiles(self):
        metrics = ServiceMetrics(latency_window=8)
        for latency in (0.1, 0.2, 0.3, 0.4):
            metrics.record_admitted("t")
            metrics.record_completed("t", latency, bytes_out=100, cache_hits=1)
        metrics.record_admitted("t")
        metrics.record_failed("t", 0.5)
        metrics.record_rejected("t")
        snapshot = metrics.snapshot()
        tenant = snapshot["tenants"]["t"]
        assert tenant["admitted"] == 5
        assert tenant["completed"] == 4
        assert tenant["failed"] == 1
        assert tenant["rejected"] == 1
        assert tenant["bytes_out"] == 400
        assert tenant["cache_hit_rate"] == 1.0
        assert tenant["p50_latency"] == pytest.approx(0.3)
        assert tenant["p99_latency"] <= 0.5
        assert snapshot["total"]["completed"] == 4
        percentiles = metrics.percentiles("t")
        assert percentiles[50.0] == pytest.approx(0.3)

    def test_latency_window_is_bounded(self):
        metrics = ServiceMetrics(latency_window=4)
        for index in range(100):
            metrics.record_completed("t", float(index))
        # only the last 4 latencies survive in the window
        assert metrics.percentiles("t")[50.0] >= 96.0

    def test_empty_snapshot(self):
        metrics = ServiceMetrics()
        snapshot = metrics.snapshot()
        assert snapshot["tenants"] == {}
        assert snapshot["total"]["cache_hit_rate"] == 0.0
        assert metrics.percentiles()[99.0] == 0.0


class TestServiceLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(
        self, water32_matrices, gap_mu
    ):
        service = DensityService(config=CONFIG)
        result = service.density(
            water32_matrices.K,
            water32_matrices.S,
            water32_matrices.blocks,
            mu=gap_mu,
        )
        assert result is not None
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
            )

    @pytest.mark.parametrize("entry_point", ["submit", "submit_trajectory"])
    def test_request_refused_by_the_closing_pool_frees_its_slot(
        self, water32_matrices, gap_mu, entry_point
    ):
        """A submit racing ``close()``: admitted, then refused by the pool
        ``close()`` already shut down.  The slot is released and the request
        counts as failed before the pool's ``RuntimeError`` propagates."""
        pair = water32_matrices
        service = DensityService(config=CONFIG)
        service._dispatch.shutdown()  # the race, made deterministic
        with pytest.raises(RuntimeError, match="shutdown"):
            if entry_point == "submit":
                service.submit(pair.K, pair.S, pair.blocks, mu=gap_mu)
            else:
                service.submit_trajectory(
                    [(pair.K, pair.S)], pair.blocks, mu=gap_mu
                )
        snapshot = service.stats()
        service.close()
        assert snapshot["admission"]["in_flight"] == 0
        total = snapshot["metrics"]["total"]
        assert (total["admitted"], total["completed"], total["failed"]) == (1, 0, 1)

    def test_context_pool_reuses_and_bounds_contexts(
        self, water32_matrices, gap_mu
    ):
        with DensityService(config=CONFIG, max_contexts=1) as service:
            service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
            )
            assert service.stats()["contexts"] == 1
            # a different configuration gets its own context; the pool
            # stays within its bound by closing the idle LRU entry
            service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                config=EngineConfig(backend="serial"),
            )
            snapshot = service.stats()
            assert snapshot["contexts"] == 1
            # both configurations hit the same shared plan cache
            assert snapshot["plan_cache"]["builds"] == 1
            assert snapshot["plan_cache"]["hits"] >= 1


# --------------------------------------------------------------------------- #
# the shared plan cache under concurrent load with eviction forced
# --------------------------------------------------------------------------- #
class TestServiceUnderEviction:
    def test_concurrent_tenants_through_a_one_plan_cache(self, szv_model, gap_mu):
        """Eight client threads, three tenants' patterns, a plan cache that
        holds one plan: plans are evicted and rebuilt while other requests
        run on them, and every result is still bitwise its direct call."""
        tenants = [
            build_matrices(water_box(1, seed=2020 + tenant), model=szv_model)
            for tenant in range(3)
        ]
        # filtered hard enough that every tenant has a pattern of its own
        config = CONFIG.replace(eps_filter=1e-2, plan_cache_size=1)
        kinds = [
            (tenant, ensemble)
            for tenant in range(3)
            for ensemble in ("mu", "n_electrons")
        ]

        def ensemble_of(ensemble):
            return {"mu": gap_mu} if ensemble == "mu" else {"n_electrons": N_ELECTRONS}

        with SubmatrixContext(config) as direct:
            references = {
                (tenant, ensemble): direct.density(
                    tenants[tenant].K,
                    tenants[tenant].S,
                    tenants[tenant].blocks,
                    **ensemble_of(ensemble),
                )
                for tenant, ensemble in kinds
            }
        n_threads, per_thread = 8, 3
        served, errors = [], []
        barrier = threading.Barrier(n_threads)
        with DensityService(config=config) as service:

            def client(index):
                try:
                    barrier.wait()
                    for step in range(per_thread):
                        tenant, ensemble = kinds[(index + 5 * step) % len(kinds)]
                        pair = tenants[tenant]
                        result = service.density(
                            pair.K,
                            pair.S,
                            pair.blocks,
                            tenant=f"t{tenant}",
                            **ensemble_of(ensemble),
                        )
                        served.append(((tenant, ensemble), result))
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(n_threads)
            ]
            # frequent thread switches widen every race on the shared cache
            # and the admission counters
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            snapshot = service.stats()
        assert not errors
        assert len(served) == n_threads * per_thread
        for kind, result in served:
            assert_identical(result, references[kind])
        assert snapshot["plan_cache"]["evictions"] > 0
        assert snapshot["admission"]["in_flight"] == 0
        total = snapshot["metrics"]["total"]
        assert total["completed"] + total["failed"] == total["admitted"]
        assert total["completed"] == n_threads * per_thread


# --------------------------------------------------------------------------- #
# one way to serve: no cross-request layer
# --------------------------------------------------------------------------- #
class TestOneWayToServe:
    INERT = {"batching", "max_batch", "batch_wait"}

    def test_no_cross_request_layer(self):
        """Structure guard: a served request is one session call; nothing
        batches, merges or caches decompositions across requests, and the
        three keywords ``benchmarks/e2e`` still passes are read nowhere."""
        with pytest.raises(ImportError):
            importlib.import_module("repro.serve.batcher")
        removed = re.compile(
            r"\b(MicroBatcher|evaluate_merged_group|DecompositionCache|"
            r"MAX_DECOMPOSITION_BYTES|batch_key|content_key)\b"
        )
        gone = re.compile(r"Batcher|merged|DecompositionCache|coalesc")
        reads = []
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            text = path.read_text()
            assert not removed.search(text), path.name
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert not gone.search(node.name), (path.name, node.name)
                if isinstance(node, ast.Name) and node.id in self.INERT:
                    reads.append((path.name, node.id))
                if isinstance(node, ast.Attribute) and node.attr in self.INERT:
                    reads.append((path.name, node.attr))
        assert reads == []
        parameters = inspect.signature(DensityService).parameters
        assert self.INERT <= set(parameters)
        for retired in ("decomposition_ttl", "decomposition_cache_size"):
            assert retired not in parameters
            with pytest.raises(TypeError, match=retired):
                DensityService(**{retired: 1})

    def test_inert_keywords_change_nothing(
        self, water32_matrices, gap_mu, reference_results
    ):
        ref_gc, _ = reference_results
        pair = water32_matrices
        for keywords in (
            dict(batching=False),
            dict(batching=True, max_batch=1, batch_wait=5.0),
        ):
            with DensityService(config=CONFIG, **keywords) as service:
                served = service.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
                snapshot = service.stats()
            assert_identical(served, ref_gc)
            total = snapshot["metrics"]["total"]
            assert (total["batched"], total["coalesced"], total["shared"]) == (0, 0, 0)
            assert "decomposition_cache" not in snapshot
