"""Tests for the serving layer: admission control around one session.

Covers the contracts:

* :class:`~repro.serve.DensityService` owns one session and runs every
  request as one call of it on its dispatch pool, serving results **bitwise
  identical** to direct ``context.density`` calls, across tenants sharing
  its plan cache — also with the cache forced to evict under concurrent
  load;
* admission control enforces global and per-tenant in-flight ceilings, and
  every admitted request ends completed or failed with its slot released —
  a request the closing pool refuses too;
* a poisoned request fails alone — its neighbours still get their exact
  results.

The thread safety of the session itself — its plan cache and concurrent
calls — is tested in ``test_session_concurrency.py``.
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
from repro.serve import DISPATCH_WORKERS, AdmissionController

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


def assert_no_slot_held(service):
    """Every admitted request has given its admission slot back."""
    assert service.admission._total == 0
    assert service.admission._per_tenant == {}


@contextlib.contextmanager
def pool_held(service):
    """Occupy every thread of the dispatch pool for the ``with`` body:
    requests admitted meanwhile wait in the pool's queue, holding their
    slots."""
    gate = threading.Event()
    for _ in range(DISPATCH_WORKERS):
        service._dispatch.submit(gate.wait, 60)
    try:
        yield
    finally:
        gate.set()


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
# the density service
# --------------------------------------------------------------------------- #
class TestServiceIdentity:
    @pytest.mark.slow
    def test_served_equals_direct_both_ensembles(
        self, water32_matrices, gap_mu, reference_results
    ):
        ref_gc, ref_canonical = reference_results
        with DensityService(config=CONFIG) as service:
            served_gc = service.submit(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                tenant="alice",
                mu=gap_mu,
            ).result(120)
            served_canonical = service.submit(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                tenant="bob",
                n_electrons=N_ELECTRONS,
            ).result(120)
        assert_identical(served_gc, ref_gc)
        assert_identical(served_canonical, ref_canonical)

    @pytest.mark.slow
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
            served = service.submit(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
            ).result(120)
        assert_identical(served, reference)

    @pytest.mark.slow
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
        assert snapshot["plan_cache"]["hits"] == 3
        assert_no_slot_held(service)

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
            # a wrong shape is refused at submit, before admission
            with pytest.raises(ValueError, match=r"K has shape \(5, 5\)"):
                service.submit(
                    bad_K, water32_matrices.S, water32_matrices.blocks, mu=gap_mu
                )
            poisoned = service.submit(
                nan_K.tocsr(), water32_matrices.S, water32_matrices.blocks, mu=gap_mu
            )
            result = good.result(120)
            with pytest.raises(ValueError, match="K contains non-finite"):
                poisoned.result(120)
            snapshot = service.stats()
        assert_identical(result, ref_gc)
        assert snapshot["metrics"]["total"]["completed"] == 1
        assert snapshot["metrics"]["total"]["failed"] == 1
        assert_no_slot_held(service)


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
        with pytest.raises(ServiceOverloadError, match="service at capacity"):
            controller.admit("d")
        for tenant in ("a", "b", "c"):
            controller.release(tenant)
        for tenant in ("a", "a", "b"):  # every slot is free again
            controller.admit(tenant)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_in_flight_per_tenant=0)


class TestServiceAdmission:
    @pytest.mark.slow
    def test_per_tenant_cap_rejects_and_recovers(self, water32_matrices, gap_mu):
        policy = AdmissionPolicy(max_in_flight=8, max_in_flight_per_tenant=2)
        with DensityService(
            config=CONFIG, policy=policy
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
            assert_no_slot_held(service)
            assert snapshot["metrics"]["total"]["rejected"] == 1
            retry = service.submit(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                tenant="greedy",
                mu=gap_mu,
            ).result(120)
            assert retry is not None

    @pytest.mark.slow
    def test_global_cap(self, water32_matrices, gap_mu):
        policy = AdmissionPolicy(max_in_flight=2, max_in_flight_per_tenant=2)
        with DensityService(
            config=CONFIG, policy=policy
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
            assert_no_slot_held(service)

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
            assert_no_slot_held(service)

    @pytest.mark.parametrize("tenant", [None, 3, ["a"]], ids=["none", "int", "list"])
    def test_tenant_must_be_a_str(self, water32_matrices, gap_mu, tenant):
        """A tenant names an admission bucket: anything but a ``str`` is
        refused before admission and never holds a slot."""
        pair = water32_matrices
        with DensityService(config=CONFIG) as service:
            with pytest.raises(TypeError, match="tenant"):
                service.submit(pair.K, pair.S, pair.blocks, tenant=tenant, mu=gap_mu)
            snapshot = service.stats()
        assert snapshot["metrics"]["total"]["admitted"] == 0
        assert_no_slot_held(service)

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


class TestServiceLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(
        self, water32_matrices, gap_mu
    ):
        service = DensityService(config=CONFIG)
        result = service.submit(
            water32_matrices.K,
            water32_matrices.S,
            water32_matrices.blocks,
            mu=gap_mu,
        ).result(120)
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

    def test_request_refused_by_the_closing_pool_frees_its_slot(
        self, water32_matrices, gap_mu
    ):
        """A submit racing ``close()``: admitted, then refused by the pool
        ``close()`` already shut down.  The slot is released and the request
        counts as failed before the pool's ``RuntimeError`` propagates."""
        pair = water32_matrices
        service = DensityService(config=CONFIG)
        service._dispatch.shutdown()  # the race, made deterministic
        with pytest.raises(RuntimeError, match="shutdown"):
            service.submit(pair.K, pair.S, pair.blocks, mu=gap_mu)
        snapshot = service.stats()
        service.close()
        assert_no_slot_held(service)
        total = snapshot["metrics"]["total"]
        assert (total["admitted"], total["completed"], total["failed"]) == (1, 0, 1)


class TestOneSession:
    @pytest.mark.slow
    def test_mixed_requests_share_one_session(
        self, water32_matrices, gap_mu, reference_results, monkeypatch
    ):
        """Two tenants, both ensembles, density-only and bundle requests:
        the service builds one session, every request is a call of it (one
        overlap root, one plan) and each result is bitwise its direct call;
        ``close()`` closes that session."""
        ref_gc, ref_canonical = reference_results
        created = []
        constructor = SubmatrixContext.__init__

        def counting(context, *args, **kwargs):
            constructor(context, *args, **kwargs)
            created.append(context)

        monkeypatch.setattr(SubmatrixContext, "__init__", counting)
        pair = water32_matrices
        requests = [
            (tenant, ensemble, observables)
            for tenant in ("alice", "bob")
            for ensemble in ({"mu": gap_mu}, {"n_electrons": N_ELECTRONS})
            for observables in (("density",), ("density", "pdos"))
        ]
        with DensityService(config=CONFIG) as service:
            results = [
                service.submit(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    tenant=tenant,
                    observables=observables,
                    **ensemble,
                ).result(120)
                for tenant, ensemble, observables in requests
            ]
            session = service.context.stats()
        assert created == [service.context]
        with pytest.raises(RuntimeError, match="closed"):
            _ = service.context.executor
        assert session["overlap_roots"]["misses"] == 1
        assert session["overlap_roots"]["hits"] == len(requests) - 1
        assert session["plan_cache"]["builds"] == 1
        for (_, ensemble, _), result in zip(requests, results):
            density = result if isinstance(result, type(ref_gc)) else result["density"]
            assert_identical(density, ref_gc if "mu" in ensemble else ref_canonical)

    def test_config_keyword_is_a_type_error(self, water32_matrices, gap_mu):
        """A request runs on the service's session; there is no per-request
        configuration to pick another one."""
        pair = water32_matrices
        with DensityService(config=CONFIG) as service:
            with pytest.raises(TypeError, match="config"):
                service.submit(
                    pair.K, pair.S, pair.blocks, mu=gap_mu, config=CONFIG
                )
            snapshot = service.stats()
        assert snapshot["metrics"]["total"]["admitted"] == 0
        assert_no_slot_held(service)


# --------------------------------------------------------------------------- #
# the shared plan cache under concurrent load with eviction forced
# --------------------------------------------------------------------------- #
class TestServiceUnderEviction:
    @pytest.mark.slow
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
                        result = service.submit(
                            pair.K,
                            pair.S,
                            pair.blocks,
                            tenant=f"t{tenant}",
                            **ensemble_of(ensemble),
                        ).result(120)
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
        assert_no_slot_held(service)
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

    @pytest.mark.slow
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
                served = service.submit(pair.K, pair.S, pair.blocks, mu=gap_mu).result(120)
                snapshot = service.stats()
            assert_identical(served, ref_gc)
            total = snapshot["metrics"]["total"]
            assert (total["batched"], total["coalesced"], total["shared"]) == (0, 0, 0)
            assert "decomposition_cache" not in snapshot
