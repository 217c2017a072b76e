#!/usr/bin/env python
"""Distributed cost analysis: sharded transfers, strong and weak scaling.

The scaling experiments of the paper (Figs. 8-10) depend on how work and
communication are distributed over MPI ranks.  This example drives the
rank-sharded submatrix pipeline through the unified session API
(:class:`repro.api.context.SubmatrixContext`) to

* plan the deduplicated initialization exchange of a submatrix-method run
  (Sec. IV-B) and compare it, per rank, with whole-block transfers without
  deduplication and with the fast pattern-level estimate,
* execute a sharded run (``context.apply(..., ranks=8)``) on a small
  system and verify that the per-rank evaluation reproduces the
  single-process engine,
* compare simulated strong scaling of the submatrix method (80 -> 320 ranks)
  at fixed system size,
* compare the weak-scaling behaviour of the submatrix method against the
  Newton-Schulz baseline when system size and rank count grow together.

Run with:  python examples/distributed_scaling.py
"""

import numpy as np

from repro.analysis import parallel_efficiency
from repro.api import EngineConfig, SubmatrixContext
from repro.chem import build_block_pattern, orthogonalized_ks, water_box
from repro.chem.hamiltonian import build_matrices
from repro.core import (
    DistributedSubmatrixModel,
    newton_schulz_cost,
    submatrix_method_cost,
)
from repro.core.runner import estimate_newton_schulz_iterations
from repro.dbcsr import CooBlockList
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_dense
from repro.parallel import MachineModel

EPS_FILTER = 1e-5


def transfer_planning() -> None:
    """Per-rank initialization traffic of the submatrix method (Sec. IV-B).

    Three ways to account the initialization exchange:

    * the exact deduplicated volume — every required remote block shipped
      once per (owner, consumer) pair, which is exactly what each rank's
      shard packs into its local buffer;
    * per-submatrix whole-block shipping (no deduplication) — the naive
      model;
    * the fast pattern-level estimate (``exact_transfers=False`` merges each
      rank's columns into one retained set, over-approximating the required
      blocks).
    """
    system = water_box(3)
    pattern, blocks = build_block_pattern(system, eps_filter=EPS_FILTER)
    n_ranks = 80
    context = SubmatrixContext(EngineConfig(engine="batched"))
    pipeline = context.pipeline(pattern, blocks.block_sizes, n_ranks)
    plan = pipeline.transfer_plan
    # the fast pattern-level planning is an argument of the run model alone:
    # it builds no plan and no shard, and is not a session setting
    fast = DistributedSubmatrixModel(
        pattern, blocks.block_sizes, n_ranks, exact_transfers=False
    ).transfer_plan
    print(
        f"transfer planning ({system.n_molecules} molecules, {n_ranks} ranks, "
        "greedy consecutive chunks):"
    )
    exact_total = plan.total_fetch_bytes
    print(f"  exact, deduplicated                 : {exact_total / 1e6:10.1f} MB")
    print(
        f"  whole blocks, per submatrix         : "
        f"{plan.total_fetch_bytes_without_dedup / 1e6:10.1f} MB  "
        f"(dedup saves {plan.deduplication_savings:.1%})"
    )
    print(
        f"  whole blocks, fast pattern estimate : "
        f"{fast.total_fetch_bytes / 1e6:10.1f} MB  "
        f"(over-estimates by {fast.total_fetch_bytes / exact_total - 1.0:.1%})"
    )
    print(
        f"  write-back volume                   : "
        f"{plan.total_writeback_bytes / 1e6:10.1f} MB"
    )
    exact = np.array([s.fetch_bytes for s in plan.per_rank])
    blocks_nodedup = np.array(
        [s.fetch_bytes_without_dedup for s in plan.per_rank]
    )
    print("  per-rank fetch volume (sampled every 16th rank):")
    print("    rank   dedup [MB]   blocks w/o dedup [MB]")
    for rank in range(0, n_ranks, 16):
        print(
            f"    {rank:>4d} {exact[rank] / 1e6:10.1f} "
            f"{blocks_nodedup[rank] / 1e6:19.1f}"
        )
    print(
        f"    max  {exact.max() / 1e6:10.1f} {blocks_nodedup.max() / 1e6:19.1f}\n"
    )


def sharded_execution_check() -> None:
    """A sharded run reproduces the single-process engine bitwise."""
    system = water_box(1)
    pair = build_matrices(system)
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=EPS_FILTER)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes, threshold=0.0)
    mu = 0.0
    coo = CooBlockList.from_block_matrix(blocked)
    context = SubmatrixContext(EngineConfig(engine="batched"))
    result = context.apply(blocked, "eigen", coo=coo, mu=mu, ranks=8)
    single = context.apply(blocked, "eigen", coo=coo, mu=mu)
    difference = np.max(
        np.abs(
            block_matrix_to_dense(result.result)
            - block_matrix_to_dense(single.result)
        )
    )
    print(
        f"sharded execution ({system.n_molecules} molecules on 8 ranks): "
        f"max |sharded - single-process| = {difference:.1e} "
        f"({'bitwise identical' if difference == 0.0 else 'MISMATCH'})"
    )
    pipeline = context.pipeline(coo, blocked.col_block_sizes, n_ranks=8)
    _, sharded = pipeline.prepare()
    print(
        f"  per-rank stacks: {[len(s.stack_tasks()) for s in sharded.shards]}, "
        f"fetch "
        f"{pipeline.transfer_plan.total_fetch_bytes / 1e6:.2f} MB\n"
    )


def strong_scaling(machine: MachineModel) -> None:
    system = water_box(3)
    pattern, blocks = build_block_pattern(system, eps_filter=EPS_FILTER)
    ranks = [80, 160, 240, 320]
    times = [
        submatrix_method_cost(pattern, blocks.block_sizes, r, machine).simulated.total
        for r in ranks
    ]
    efficiency = parallel_efficiency(times, ranks, mode="strong")
    print(f"strong scaling of the submatrix method ({system.n_atoms} atoms):")
    for r, t, e in zip(ranks, times, efficiency):
        print(f"  {r:>4d} cores: {t:8.3f} s   efficiency {e:5.1%}")
    print()


def weak_scaling(machine: MachineModel) -> None:
    scales = [1, 2, 4, 8]
    base_ranks = 40
    iterations = estimate_newton_schulz_iterations(EPS_FILTER)
    submatrix_times, newton_times, cores = [], [], []
    print("weak scaling (slab replicated along one dimension):")
    for scale in scales:
        system = water_box((3 * scale, 1, 1))
        pattern, blocks = build_block_pattern(system, eps_filter=EPS_FILTER)
        ranks = base_ranks * scale
        sm = submatrix_method_cost(pattern, blocks.block_sizes, ranks, machine)
        ns = newton_schulz_cost(
            pattern, blocks.block_sizes, ranks, machine, n_iterations=iterations
        )
        submatrix_times.append(sm.simulated.total)
        newton_times.append(ns.simulated.total)
        cores.append(ranks)
        print(
            f"  {system.n_atoms:>6d} atoms on {ranks:>4d} cores: "
            f"submatrix {sm.simulated.total:7.3f} s   "
            f"newton-schulz {ns.simulated.total:7.3f} s"
        )
    sm_eff = parallel_efficiency(submatrix_times, cores, mode="weak")
    ns_eff = parallel_efficiency(newton_times, cores, mode="weak")
    print(
        f"  weak-scaling efficiency at the largest scale: "
        f"submatrix {sm_eff[-1]:5.1%} vs. newton-schulz {ns_eff[-1]:5.1%}"
    )


def main() -> None:
    machine = MachineModel()
    print(f"machine model: {machine.name}\n")
    transfer_planning()
    sharded_execution_check()
    strong_scaling(machine)
    weak_scaling(machine)


if __name__ == "__main__":
    main()
