"""Concurrent use of one session: its plan cache and its calls.

A trajectory or a served client is a loop of calls on one
:class:`~repro.api.context.SubmatrixContext`, from as many threads as the
caller runs.  Covers the contracts that make that safe:

* :class:`~repro.core.plan.PlanCache` is thread-safe — N threads racing on
  one cache build each pattern exactly once and share one plan object;
* concurrent ``density`` calls on one session are bitwise a direct call,
  also with the plan cache forced to evict under the threads' feet, and a
  used plan holds no more than :func:`~repro.core.plan.plan_nbytes`
  accounts;
* the session refuses to close while a request is in flight.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import EngineConfig, SubmatrixContext
from repro.chem import build_matrices, water_box
from repro.core.plan import PlanCache, block_plan, plan_nbytes
from repro.dbcsr import CooBlockList
from repro.dbcsr.convert import block_matrix_from_dense

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
# PlanCache thread safety
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


# --------------------------------------------------------------------------- #
# concurrent SubmatrixContext use
# --------------------------------------------------------------------------- #
class TestConcurrentContext:
    @pytest.mark.slow
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
        with pytest.raises(RuntimeError, match=r"1 request\(s\) still in flight"):
            context.close()
        _ = context.executor  # the session stays open and usable
        release.set()
        worker.join()
        context.close()  # drained: close now succeeds
        with pytest.raises(RuntimeError, match="closed"):
            context.apply(matrix, blocking_function)


# --------------------------------------------------------------------------- #
# the shared plan cache under concurrent load with eviction forced
# --------------------------------------------------------------------------- #
class TestSessionUnderEviction:
    @pytest.mark.slow
    def test_concurrent_clients_through_a_one_plan_cache(self, szv_model, gap_mu):
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
        with SubmatrixContext(config) as session:

            def client(index):
                try:
                    barrier.wait()
                    for step in range(per_thread):
                        tenant, ensemble = kinds[(index + 5 * step) % len(kinds)]
                        pair = tenants[tenant]
                        result = session.density(
                            pair.K, pair.S, pair.blocks, **ensemble_of(ensemble)
                        )
                        served.append(((tenant, ensemble), result))
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(n_threads)
            ]
            # frequent thread switches widen every race on the shared cache
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
            cache = session.plan_cache.stats
        assert not errors
        assert len(served) == n_threads * per_thread
        for kind, result in served:
            assert_identical(result, references[kind])
        assert cache["evictions"] > 0

    @pytest.mark.slow
    def test_used_plans_hold_no_more_than_accounted(self, szv_model, gap_mu):
        """:func:`plan_nbytes` (the ledger's ``core.plan.bytes``) sizes a plan
        from its index arrays; once every tenant has been served, the arrays
        reachable from the cache still fit the sum over its plans, so no plan
        grows with use."""
        tenants = [
            build_matrices(water_box(1, seed=2020 + tenant), model=szv_model)
            for tenant in range(3)
        ]
        # filtered hard enough that every tenant has a pattern of its own
        config = CONFIG.replace(eps_filter=1e-2)
        with SubmatrixContext(config) as session:
            for pair in tenants:
                session.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            cache = session.plan_cache
            assert len(cache) == 3
            accounted = sum(plan_nbytes(plan) for plan in cache._plans.values())
            assert reachable_array_bytes(cache) <= accounted
