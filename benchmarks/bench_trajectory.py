"""Benchmark — cross-step reuse of the trajectory session driver.

Quantifies what ``SubmatrixContext.trajectory`` exists for: along an MD/SCF
trajectory the sparsity pattern of the filtered orthogonalized Kohn–Sham
matrix is stable while the values change every step, so one session should
pay for planning (extraction plan, sharded pipeline, bucketed stack
layouts, worker pool) exactly once and serve every later step from cache.

Measured against the natural baseline: a **fresh context per step** — the
workload of a driver script that constructs a new solver for every
geometry, replanning each time.  Both paths compute bitwise-identical
densities; only the planning work differs.

Writes ``BENCH_trajectory.json`` at the repository root so future PRs can
track the trajectory, plus the usual table under ``benchmarks/results``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np
import pytest

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import HamiltonianModel, build_matrices, water_box

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from common import bench_scale, report  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ROOT_JSON = REPO_ROOT / "BENCH_trajectory.json"

EPS_FILTER = 1e-5
N_ELECTRONS_PER_MOLECULE = 8.0
SHARDED_RANKS = 2


def make_steps(pair, n_steps, scale=1e-4):
    """Value-only geometry steps: perturbed K, fixed S (stable pattern)."""
    return [(pair.K * (1.0 + scale * step), pair.S) for step in range(n_steps)]


def run_trajectory_benchmark():
    system = water_box((2, 1, 1))
    pair = build_matrices(system, model=HamiltonianModel())
    n_steps = max(5, int(round(8 * bench_scale())))
    n_electrons = N_ELECTRONS_PER_MOLECULE * system.n_molecules
    steps = make_steps(pair, n_steps)
    config = EngineConfig(engine="batched", eps_filter=EPS_FILTER)

    # -- session driver: one context, one plan, N steps ------------------- #
    context = SubmatrixContext(config)
    start = time.perf_counter()
    traj = context.trajectory(steps, pair.blocks, n_electrons=n_electrons)
    session_total = time.perf_counter() - start
    stats = traj.stats

    # -- baseline: a fresh context (fresh planning) for every step -------- #
    fresh_results = []
    start = time.perf_counter()
    for K, S in steps:
        fresh_results.append(
            SubmatrixContext(config).density(
                K, S, pair.blocks, n_electrons=n_electrons
            )
        )
    fresh_total = time.perf_counter() - start

    max_diff = max(
        float(np.max(np.abs(traj[i].density_ao - fresh_results[i].density_ao)))
        for i in range(n_steps)
    )

    # -- sharded trajectory: pipeline + shard layouts reused per step ----- #
    sharded_context = SubmatrixContext(config)
    start = time.perf_counter()
    sharded = sharded_context.trajectory(
        steps, pair.blocks, n_electrons=n_electrons, ranks=SHARDED_RANKS
    )
    sharded_total = time.perf_counter() - start

    payload = {
        "benchmark": "trajectory",
        "system": {
            "molecules": int(system.n_molecules),
            "n_steps": n_steps,
            "n_electrons": n_electrons,
        },
        "session": {
            "total_s": session_total,
            "per_step_s": session_total / n_steps,
            "plans_built": stats.plans_built,
            "plan_cache_hits": stats.plan_cache_hits,
            "pattern_changes": stats.pattern_changes,
            "first_step_s": traj[0].wall_time,
            "warm_step_median_s": float(np.median([r.wall_time for r in traj.results[1:]])),
        },
        "fresh_context_per_step": {
            "total_s": fresh_total,
            "per_step_s": fresh_total / n_steps,
        },
        "cross_step_reuse_speedup": fresh_total / session_total
        if session_total > 0
        else float("inf"),
        "bitwise_identical": max_diff == 0.0,
        "sharded": {
            "ranks": SHARDED_RANKS,
            "total_s": sharded_total,
            "per_step_s": sharded_total / n_steps,
            "plans_built": sharded.stats.plans_built,
            "pipelines_built": sharded_context.stats()["pipelines_built"],
            "block_fetch_bytes_per_step": sharded[0].block_fetch_bytes,
        },
    }
    rows = [
        [
            "session trajectory (1 plan, N steps)",
            session_total / n_steps,
            stats.plans_built,
            fresh_total / session_total if session_total else 0.0,
        ],
        ["fresh context per step (replan each)", fresh_total / n_steps, n_steps, 1.0],
        [
            f"sharded trajectory ({SHARDED_RANKS} ranks, 1 pipeline)",
            sharded_total / n_steps,
            sharded.stats.plans_built,
            fresh_total / sharded_total if sharded_total else 0.0,
        ],
    ]
    with open(ROOT_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return rows, payload


def _report(rows, payload):
    system = payload["system"]
    report(
        "trajectory_reuse",
        ["path", "seconds / step", "plans built", "speedup vs fresh"],
        rows,
        f"Trajectory cross-step reuse ({system['molecules']} molecules, "
        f"{system['n_steps']} value-only steps)",
    )


@pytest.mark.benchmark(group="api")
def test_trajectory(benchmark):
    rows, payload = benchmark.pedantic(run_trajectory_benchmark, rounds=1, iterations=1)
    _report(rows, payload)
    assert payload["bitwise_identical"]
    assert payload["session"]["plans_built"] == 1
    assert payload["session"]["pattern_changes"] == 0
    assert payload["sharded"]["pipelines_built"] == 1


if __name__ == "__main__":
    table_rows, result_payload = run_trajectory_benchmark()
    _report(table_rows, result_payload)
    print(f"wrote {ROOT_JSON}")
