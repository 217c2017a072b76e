#!/usr/bin/env python
"""Tour of the unified session API: config → context → apply/density → sharded.

The submatrix method pays off in repeated-evaluation workloads — μ-bisection
over the chemical potential, SCF/MD trajectories, rank-count sweeps — and the
session API is how those workloads share their expensive state.  This tour
walks through

1. **one config** — an :class:`~repro.api.config.EngineConfig` collecting
   engine, backend, workers, bucket padding, balancing, ranks and filtering
   in one validated object,
2. **two sign kernels** — the paper's ``"eigen"`` and ``"newton_schulz"``,
   resolved by name everywhere from one fixed table (a bare callable works
   too),
3. **one session** — a :class:`~repro.api.context.SubmatrixContext` owning
   the plan cache and the persistent worker pool: repeated ``apply`` calls
   build one plan and one pool,
4. the DFT driver — ``context.density`` in both ensembles, including the
   rank-sharded canonical μ-bisection,
5. a sharded run — ``context.apply(..., ranks=8)`` — and the per-rank
   traffic report of its pipeline, ``context.pipeline(...)``.

Run with:  python examples/api_tour.py
"""

import numpy as np

import repro
from repro.api import EngineConfig, SubmatrixContext, available_kernels, get_kernel
from repro.chem import build_matrices, orthogonalized_ks, water_box
from repro.dbcsr import CooBlockList
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_dense

EPS_FILTER = 1e-5


def main() -> None:
    print(f"repro {repro.__version__} — session API tour\n")

    # ------------------------------------------------------------------ #
    # 1. one config
    # ------------------------------------------------------------------ #
    config = EngineConfig(
        engine="batched",       # plan extraction + bucketed 3-D stacks
        backend="serial",       # deterministic; "thread" for real parallelism
        bucket_pad=None,        # exact-dimension buckets (bitwise-safe)
        balance="chunks",       # the paper's greedy consecutive chunks
        eps_filter=EPS_FILTER,
    )
    print(f"config: {config}\n")

    # ------------------------------------------------------------------ #
    # 2. two sign kernels
    # ------------------------------------------------------------------ #
    print("kernels:")
    for name in available_kernels():
        kernel = get_kernel(name)
        print(f"  {name:<15s} {kernel.description}")
    try:
        get_kernel("eigne")
    except repro.UnknownKernelError as error:
        print(f"  (typos are caught: {error})")
    print()

    # ------------------------------------------------------------------ #
    # 3. one session: plan cache + persistent pool across repeated applies
    # ------------------------------------------------------------------ #
    system = water_box(1)
    pair = build_matrices(system)
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=EPS_FILTER)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes, threshold=0.0)

    context = SubmatrixContext(config)
    for mu in (-0.3, -0.2, -0.1, 0.0):
        result = context.apply(blocked, "eigen", mu=mu)
    stats = context.stats()
    print(
        f"4 sign evaluations on {system.n_molecules} molecules "
        f"({result.n_submatrices} submatrices, max dim {result.max_dimension}):"
    )
    print(
        f"  plan cache: {stats['plan_cache']['misses']} build(s), "
        f"{stats['plan_cache']['hits']} hit(s) — one plan serves every call\n"
    )

    # ------------------------------------------------------------------ #
    # 4. the DFT driver: both ensembles, sharded canonical search
    # ------------------------------------------------------------------ #
    n_electrons = 8.0 * system.n_molecules
    canonical = context.density(
        pair.K, pair.S, pair.blocks, n_electrons=n_electrons
    )
    print(
        f"canonical ensemble: mu = {canonical.mu:+.6f} Ha after "
        f"{canonical.mu_iterations} bisection iteration(s), "
        f"N = {canonical.n_electrons:.6f}"
    )
    sharded = context.density(
        pair.K, pair.S, pair.blocks, n_electrons=n_electrons, ranks=4
    )
    identical = canonical.mu == sharded.mu and np.array_equal(
        canonical.density_ao, sharded.density_ao
    )
    print(
        f"rank-sharded (4 ranks) canonical search: "
        f"{'bitwise identical' if identical else 'MISMATCH'}\n"
    )

    # ------------------------------------------------------------------ #
    # 5. a sharded run with its traffic report
    # ------------------------------------------------------------------ #
    run = context.apply(blocked, "eigen", mu=0.0, ranks=8)
    reference = context.apply(blocked, "eigen", mu=0.0)
    difference = np.max(
        np.abs(
            block_matrix_to_dense(run.result)
            - block_matrix_to_dense(reference.result)
        )
    )
    print(f"sharded run on {run.n_ranks} ranks (bitwise diff {difference:.1e}):")
    # the run's pipeline is cached on the session: this lookup is a hit
    pipeline = context.pipeline(
        CooBlockList.from_block_matrix(blocked), blocked.col_block_sizes, n_ranks=8
    )
    transfers = pipeline.transfer_plan
    _, sharded = pipeline.prepare()
    print("  rank  submatrices  stacks  segment fetch [kB]  write-back [kB]")
    for rank, (summary, shard) in enumerate(zip(transfers.per_rank, sharded.shards)):
        print(
            f"  {rank:>4d} {summary.n_submatrices:>12d} "
            f"{len(shard.stack_tasks()):>7d} "
            f"{summary.segment_fetch_bytes / 1e3:>18.1f} "
            f"{summary.writeback_bytes / 1e3:>16.1f}"
        )
    print(
        f"  total packed-segment fetch "
        f"{transfers.total_segment_fetch_bytes / 1e6:.2f} MB "
        f"(whole blocks would be {transfers.total_fetch_bytes / 1e6:.2f} MB)"
    )


if __name__ == "__main__":
    main()
