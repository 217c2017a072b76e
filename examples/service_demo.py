#!/usr/bin/env python
"""Two tenants served from one session through a thread pool.

Serving is caller code: a ``ThreadPoolExecutor`` whose threads call
``ctx.density`` on one shared ``SubmatrixContext``.  Two tenants — an MD
driver running canonical (fixed electron count) solves and a screening
workload running grand-canonical (fixed μ) solves — draw on a shared library
of molecular configurations:

* the session is thread-safe: its plan cache builds each sparsity pattern
  once however many threads race on it, and every later request of any
  tenant is a cache hit;
* every served result is bitwise a direct call with the same arguments on
  another session — checked below for every request.

``repro.DensityService`` wraps the same calls with per-tenant admission
caps (``ServiceOverloadError`` when a tenant has too many requests in
flight).

Run with:  python examples/service_demo.py
"""

import os

# The threads run requests concurrently.  A multi-threaded BLAS called from
# several threads at once contends instead of adding up (on two cores, eight
# concurrent requests ran ~20x slower with OpenBLAS's default threading), so
# a serving process gives each call one BLAS thread — set before NumPy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402

from repro import EngineConfig, SubmatrixContext  # noqa: E402
from repro.chem import HamiltonianModel, build_matrices, water_box  # noqa: E402

N_PATTERNS = 3
REQUESTS_PER_TENANT = 6
N_ELECTRONS = 8.0 * 32


def build_library():
    """Shared molecule library: distinct jittered 32-molecule water boxes."""
    model = HamiltonianModel()
    pairs = [
        build_matrices(water_box(1, seed=2020 + index), model=model)
        for index in range(N_PATTERNS)
    ]
    return pairs, model.homo_lumo_gap_center()


def main() -> None:
    pairs, gap_mu = build_library()
    print(
        f"shared library: {N_PATTERNS} configurations of 32 H2O "
        f"({pairs[0].n_basis} basis functions each)\n"
    )
    tenants = {"md-driver": {"n_electrons": N_ELECTRONS}, "screening": {"mu": gap_mu}}
    requests = [
        (tenant, index % N_PATTERNS)
        for index in range(REQUESTS_PER_TENANT)
        for tenant in tenants
    ]

    with SubmatrixContext(EngineConfig()) as ctx:

        def serve(tenant, pattern):
            pair = pairs[pattern]
            start = time.perf_counter()
            result = ctx.density(pair.K, pair.S, pair.blocks, **tenants[tenant])
            return time.perf_counter() - start, result

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(serve, *request) for request in requests]
            served = [future.result() for future in futures]
        cache = ctx.plan_cache.stats

    for tenant in tenants:
        mine = [outcome for request, outcome in zip(requests, served) if request[0] == tenant]
        latency = 1000 * np.median([seconds for seconds, _ in mine])
        mus = ", ".join(f"{result.mu:+.4f}" for _, result in mine[:N_PATTERNS])
        print(
            f"{tenant:<10s} {len(mine)} densities, median latency "
            f"{latency:6.1f} ms, mu = [{mus}, ...]"
        )
    print(
        f"\nshared plan cache: {cache['builds']} plan(s) built, {cache['hits']} "
        f"hits for {len(requests)} requests"
    )

    with SubmatrixContext(EngineConfig(backend="serial")) as direct:
        identical = all(
            np.array_equal(
                result.density_ao,
                direct.density(
                    pairs[pattern].K, pairs[pattern].S, pairs[pattern].blocks,
                    **tenants[tenant],
                ).density_ao,
            )
            for (tenant, pattern), (_, result) in zip(requests, served)
        )
    print(f"every served result bitwise a direct call: {identical}")
    if not identical:
        raise SystemExit("a served result differs from its direct call")


if __name__ == "__main__":
    main()
