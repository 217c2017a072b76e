"""Benchmark — ``SubmatrixContext.trajectory`` against the caller loop it wraps.

Along an MD/SCF trajectory the sparsity pattern of the filtered
orthogonalized Kohn–Sham matrix is stable while the values change every
step, so one session pays for planning (extraction plan, sharded pipeline,
worker pool) once and serves every later step from its caches.  A caller
loop of ``ctx.density`` on one session (the loop of
``examples/md_trajectory.py``) gets the same reuse, so it is the baseline:
the trajectory must give its bits at its cost.

Two step sequences, each through both paths on a session of its own:

* **value-only**: K moves, S is fixed (an SCF loop) — one plan, one overlap
  root S^{-1/2}, hit on every later step;
* **moving-S walk**: K and S move every step (MD) — the session releases the
  overlap root the walk moved away from, so both paths hold one root.

Reports seconds per step and the overlap roots each path holds at the end.
Writes ``BENCH_trajectory.json`` at the repository root, plus the usual
table under ``benchmarks/results``.
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


def make_walk(pair, n_steps, scale=1e-3):
    """Moving-S steps: K and S both perturbed, no overlap content repeated."""
    return [
        (pair.K * (1.0 + 0.1 * scale * step), pair.S * (1.0 + scale * step))
        for step in range(n_steps)
    ]


def timed_trajectory(config, steps, blocks, **request):
    """``ctx.trajectory`` on a fresh session: (results, stats, s, roots held)."""
    with SubmatrixContext(config) as context:
        start = time.perf_counter()
        trajectory = context.trajectory(steps, blocks, **request)
        elapsed = time.perf_counter() - start
        roots = context.stats()["overlap_roots"]["entries"]
    return trajectory.results, trajectory.stats, elapsed, roots


def timed_caller_loop(config, steps, blocks, **request):
    """A loop of ``ctx.density`` on a fresh session: (results, s, roots held)."""
    with SubmatrixContext(config) as context:
        start = time.perf_counter()
        results = [context.density(K, S, blocks, **request) for K, S in steps]
        elapsed = time.perf_counter() - start
        roots = context.stats()["overlap_roots"]["entries"]
    return results, elapsed, roots


def bitwise_equal(results, others) -> bool:
    return len(results) == len(others) and all(
        np.array_equal(a.density_ao, b.density_ao) and a.mu == b.mu
        for a, b in zip(results, others)
    )


def run_trajectory_benchmark():
    system = water_box((2, 1, 1))
    pair = build_matrices(system, model=HamiltonianModel())
    n_steps = max(5, int(round(8 * bench_scale())))
    request = dict(n_electrons=N_ELECTRONS_PER_MOLECULE * system.n_molecules)
    config = EngineConfig(engine="batched", eps_filter=EPS_FILTER)
    steps, walk = make_steps(pair, n_steps), make_walk(pair, n_steps)

    traj, stats, session_total, session_roots = timed_trajectory(
        config, steps, pair.blocks, **request
    )
    loop, loop_total, loop_roots = timed_caller_loop(
        config, steps, pair.blocks, **request
    )
    walk_traj, _, walk_total, walk_roots = timed_trajectory(
        config, walk, pair.blocks, **request
    )
    walk_loop, walk_loop_total, walk_loop_roots = timed_caller_loop(
        config, walk, pair.blocks, **request
    )

    # -- sharded trajectory: pipeline + shard layouts reused per step ----- #
    with SubmatrixContext(config) as sharded_context:
        start = time.perf_counter()
        sharded = sharded_context.trajectory(
            steps, pair.blocks, ranks=SHARDED_RANKS, **request
        )
        sharded_total = time.perf_counter() - start
        pipelines_built = sharded_context.stats()["pipelines_built"]

    payload = {
        "benchmark": "trajectory",
        "system": {
            "molecules": int(system.n_molecules),
            "n_steps": n_steps,
            "n_electrons": request["n_electrons"],
        },
        "session": {
            "total_s": session_total,
            "per_step_s": session_total / n_steps,
            "plans_built": stats.plans_built,
            "plan_cache_hits": stats.plan_cache_hits,
            "pattern_changes": stats.pattern_changes,
            "first_step_s": traj[0].wall_time,
            "warm_step_median_s": float(np.median([r.wall_time for r in traj[1:]])),
            "overlap_roots": session_roots,
        },
        "caller_loop": {
            "total_s": loop_total,
            "per_step_s": loop_total / n_steps,
            "overlap_roots": loop_roots,
        },
        "walk": {
            "trajectory_per_step_s": walk_total / n_steps,
            "caller_loop_per_step_s": walk_loop_total / n_steps,
            "trajectory_overlap_roots": walk_roots,
            "caller_loop_overlap_roots": walk_loop_roots,
        },
        "bitwise_identical": bitwise_equal(traj, loop)
        and bitwise_equal(sharded.results, traj),
        "walk_bitwise_identical": bitwise_equal(walk_traj, walk_loop),
        "same_overlap_roots": (session_roots, walk_roots)
        == (loop_roots, walk_loop_roots),
        "sharded": {
            "ranks": SHARDED_RANKS,
            "total_s": sharded_total,
            "per_step_s": sharded_total / n_steps,
            "plans_built": sharded.stats.plans_built,
            "pipelines_built": pipelines_built,
            "block_fetch_bytes_per_step": sharded[0].block_fetch_bytes,
        },
    }
    rows = [
        ["value-only: ctx.trajectory", session_total / n_steps, session_roots],
        ["value-only: ctx.density loop", loop_total / n_steps, loop_roots],
        ["moving S: ctx.trajectory", walk_total / n_steps, walk_roots],
        ["moving S: ctx.density loop", walk_loop_total / n_steps, walk_loop_roots],
        [
            f"value-only: ctx.trajectory, {SHARDED_RANKS} ranks",
            sharded_total / n_steps,
            "",
        ],
    ]
    with open(ROOT_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return rows, payload


def _report(rows, payload):
    system = payload["system"]
    report(
        "trajectory_reuse",
        ["path", "seconds / step", "overlap roots held"],
        rows,
        f"Trajectory against a caller loop ({system['molecules']} molecules, "
        f"{system['n_steps']} steps per path)",
    )


def _check(payload):
    """The run's claims; the script checks them too, so a smoke run guards them."""
    assert payload["bitwise_identical"]
    assert payload["session"]["plans_built"] == 1
    assert payload["session"]["pattern_changes"] == 0
    assert payload["sharded"]["pipelines_built"] == 1
    assert payload["walk_bitwise_identical"]
    assert payload["same_overlap_roots"]


@pytest.mark.benchmark(group="api")
def test_trajectory(benchmark):
    rows, payload = benchmark.pedantic(run_trajectory_benchmark, rounds=1, iterations=1)
    _report(rows, payload)
    _check(payload)


if __name__ == "__main__":
    table_rows, result_payload = run_trajectory_benchmark()
    _report(table_rows, result_payload)
    print(f"wrote {ROOT_JSON}")
    _check(result_payload)
