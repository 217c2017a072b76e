#!/usr/bin/env python
"""Density-as-a-service: two tenants sharing one multi-tenant server.

A single in-process :class:`repro.DensityService` serves density-matrix
requests from two concurrent tenants — an MD driver running canonical
(fixed electron count) solves and a screening workload running
grand-canonical (fixed μ) solves — over a *shared* library of molecular
configurations:

* every request runs as one session call on the service's dispatch thread
  pool, concurrently with the others;
* extraction plans are built once per distinct sparsity pattern and reused
  across tenants through the shared plan cache;
* admission control caps per-tenant in-flight work, and per-tenant metrics
  (latency percentiles, cache traffic) are readable at any time while the
  service keeps serving.

Every served result is bitwise identical to a direct
``SubmatrixContext.density`` call with the same arguments.

Run with:  python examples/service_demo.py
"""

import os

# The service runs requests concurrently.  A multi-threaded BLAS called from
# several threads at once contends instead of adding up (on two cores, eight
# concurrent requests ran ~20x slower with OpenBLAS's default threading), so
# a serving process gives each call one BLAS thread — set before NumPy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import threading  # noqa: E402

from repro import DensityService, EngineConfig  # noqa: E402
from repro.chem import HamiltonianModel, build_matrices, water_box  # noqa: E402

N_PATTERNS = 3
REQUESTS_PER_TENANT = 6
ELECTRONS_PER_MOLECULE = 8


def build_library():
    """Shared molecule library: distinct jittered 32-molecule water boxes."""
    model = HamiltonianModel()
    pairs = [
        build_matrices(water_box(1, seed=2020 + index), model=model)
        for index in range(N_PATTERNS)
    ]
    return pairs, model.homo_lumo_gap_center()


def tenant_load(service, tenant, pairs, ensemble_for):
    """Submit every request up front, then wait — the pool runs them."""
    futures = [
        service.submit(
            pair.K,
            pair.S,
            pair.blocks,
            tenant=tenant,
            **ensemble_for(index),
        )
        for index, pair in enumerate(
            pairs[i % len(pairs)] for i in range(REQUESTS_PER_TENANT)
        )
    ]
    return [future.result(600) for future in futures]


def main() -> None:
    pairs, gap_mu = build_library()
    n_molecules = 32
    print(
        f"shared library: {N_PATTERNS} configurations of {n_molecules} H2O "
        f"({pairs[0].n_basis} basis functions each)\n"
    )

    config = EngineConfig(engine="batched", backend="thread")
    with DensityService(config=config) as service:
        results = {}

        def run(tenant, ensemble_for):
            results[tenant] = tenant_load(service, tenant, pairs, ensemble_for)

        threads = [
            threading.Thread(
                target=run,
                args=(
                    "md-driver",
                    lambda i: {"n_electrons": float(ELECTRONS_PER_MOLECULE * n_molecules)},
                ),
            ),
            threading.Thread(
                target=run, args=("screening", lambda i: {"mu": gap_mu})
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats()

    for tenant, tenant_results in sorted(results.items()):
        mus = ", ".join(f"{r.mu:+.4f}" for r in tenant_results[: len(pairs)])
        print(f"{tenant}: {len(tenant_results)} densities served, mu = [{mus}, ...]")

    metrics = stats["metrics"]
    print("\nper-tenant service metrics:")
    for tenant, state in sorted(metrics["tenants"].items()):
        print(
            f"  {tenant:<10s}  completed = {state['completed']:2d}   "
            f"p50 = {1000 * state['p50_latency']:7.1f} ms   "
            f"p99 = {1000 * state['p99_latency']:7.1f} ms   "
            f"cache hit rate = {state['cache_hit_rate']:.2f}"
        )

    total = metrics["total"]
    cache = stats["plan_cache"]
    print(
        f"\nshared plan cache: {cache['builds']} plans built, {cache['hits']} "
        f"hits for {int(total['completed'])} requests "
        f"(hit rate {stats['plan_cache_hit_rate']:.2f}, "
        f"{stats['plan_cache_bytes'] / 1e6:.1f} MB held)"
    )
    print(
        "\nBoth tenants drew on the same plans; every served result is "
        "bitwise that of a direct single-session call with the same arguments."
    )


if __name__ == "__main__":
    main()
