"""Benchmark — incremental plan patching vs full replans on drifting patterns.

The incremental replan subsystem exists for the MD/SCF regime where the
block-sparsity pattern of the filtered orthogonalized Kohn–Sham matrix
drifts by a few blocks per step: a full replan rebuilds every extraction
plan, shard layout and transfer plan from scratch, while ``patch()`` diffs
the patterns, rebuilds only the dirty column groups and translates every
untouched index array onto the new packed layout.

Two measurements:

1. **planning trajectory** — a ≥ 8-step sequence of patterns, each differing
   from its predecessor by ≤ 10 % of the blocks; per step we time a full
   ``BlockSubmatrixPlan`` + ``ShardedPlan`` build against an incremental
   ``patch()``, and assert the patched plans are bitwise identical to the
   full ones (index arrays and pack/extract/scatter products);
2. **end-to-end session trajectory** — the same drifting patterns driven
   through ``SubmatrixContext.trajectory(replan="patch")`` vs
   ``replan="full"`` (densities asserted bitwise identical), reporting the
   ``plans_patched`` / ``groups_rebuilt`` accounting, plus a warm-started
   μ-bisection run showing the iteration savings.

Writes ``BENCH_incremental_replan.json`` at the repository root so future
PRs can track the trajectory, plus the usual table under
``benchmarks/results``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import EngineConfig, SubmatrixContext
from repro.chem.hamiltonian import BlockStructure
from repro.core.plan import BlockSubmatrixPlan, PlanCache
from repro.core.shard import ShardedPlan
from repro.dbcsr.coo import CooBlockList

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from common import bench_scale, report  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ROOT_JSON = REPO_ROOT / "BENCH_incremental_replan.json"

SHARDED_RANKS = 4
#: Fractions of blocks changed per trajectory step (acceptance: ≤ 10 %).
#: "light" is the MD regime the subsystem targets (an atom pair crossing the
#: filter threshold); "heavy" stresses the dirty-group amplification of
#: overlapping submatrices (~40 % of the groups rebuilt per step).
DRIFT_FRACTIONS = {"light": 0.005, "medium": 0.02, "heavy": 0.05}
#: Drift levels at which "a patch beats a full replan" is asserted.  Since
#: the full build is array expansion too, a patch wins by what it does not
#: rebuild: measured over five seeds at smoke and full scale, light 2.1-2.5x,
#: medium 1.65-1.9x, heavy 1.25-1.55x — the last is reported, not asserted.
ASSERTED_DRIFTS = ("light", "medium")


# --------------------------------------------------------------------------- #
# drifting-pattern generators
# --------------------------------------------------------------------------- #
def banded_pattern(n_blocks, bandwidth):
    """Symmetric banded block pattern (the paper's water-box shape)."""
    rows, cols = [], []
    for i in range(n_blocks):
        for j in range(max(0, i - bandwidth), min(n_blocks, i + bandwidth + 1)):
            rows.append(i)
            cols.append(j)
    return CooBlockList(rows, cols, n_blocks, n_blocks)


def drift(coo, rng, n_changes):
    """Symmetrically insert/delete ``n_changes`` off-band block pairs."""
    keys = set(zip(coo.rows.tolist(), coo.cols.tolist()))
    n = coo.n_block_rows
    changed = 0
    while changed < n_changes:
        i, j = (int(x) for x in rng.integers(0, n, 2))
        if i == j:
            continue
        if (i, j) in keys:
            if abs(i - j) <= 1:  # keep the tridiagonal backbone intact
                continue
            keys.discard((i, j))
            keys.discard((j, i))
        else:
            keys.add((i, j))
            keys.add((j, i))
        changed += 1
    return CooBlockList(
        [r for r, _ in keys], [c for _, c in keys], n, n
    )


def pattern_trajectory(n_blocks, bandwidth, n_steps, drift_fraction, rng):
    """≥ 8 patterns, each ≤ 10 % of blocks away from its predecessor."""
    patterns = [banded_pattern(n_blocks, bandwidth)]
    per_step = max(1, int(len(patterns[0]) * drift_fraction / 2))
    for _ in range(n_steps - 1):
        patterns.append(drift(patterns[-1], rng, per_step))
    return patterns


def assert_plans_bitwise_equal(patched, full):
    assert patched.n_values == full.n_values
    assert patched.dimensions == full.dimensions
    for got, want in zip(patched.groups, full.groups):
        assert np.array_equal(got.gather_src, want.gather_src)
        assert np.array_equal(got.gather_dst, want.gather_dst)
        assert np.array_equal(got.scatter_src, want.scatter_src)
        assert np.array_equal(got.scatter_dst, want.scatter_dst)


# --------------------------------------------------------------------------- #
# measurement 1: planning cost, patch vs full
# --------------------------------------------------------------------------- #
def bench_planning(n_blocks, bandwidth, n_steps, drift_fraction, rng):
    sizes = rng.integers(5, 9, n_blocks)
    patterns = pattern_trajectory(n_blocks, bandwidth, n_steps, drift_fraction, rng)
    groups = [[i] for i in range(n_blocks)]
    rank_of_group = np.arange(n_blocks) % SHARDED_RANKS

    full_seconds = 0.0
    patch_seconds = 0.0
    groups_rebuilt = 0
    delta_fractions = []
    previous_plan = None
    previous_sharded = None
    for index, pattern in enumerate(patterns):
        start = time.perf_counter()
        full_plan = BlockSubmatrixPlan(pattern, sizes, groups)
        full_sharded = ShardedPlan(full_plan, rank_of_group, SHARDED_RANKS)
        step_full = time.perf_counter() - start
        if index == 0:
            previous_plan, previous_sharded = full_plan, full_sharded
            continue
        full_seconds += step_full
        delta_fractions.append(
            previous_plan.delta_to(pattern).fraction_changed
        )
        start = time.perf_counter()
        patched_plan = previous_plan.patch(pattern)
        patched_sharded = previous_sharded.patch(patched_plan)
        patch_seconds += time.perf_counter() - start
        assert_plans_bitwise_equal(patched_plan, full_plan)
        groups_rebuilt += patched_plan.patch_report.groups_rebuilt
        previous_plan, previous_sharded = patched_plan, patched_sharded
    replans = len(patterns) - 1
    return {
        "n_blocks": int(n_blocks),
        "n_steps": int(n_steps),
        "blocks_per_pattern": int(len(patterns[0])),
        "max_delta_fraction": float(max(delta_fractions)),
        "full_replan_s_per_step": full_seconds / replans,
        "patch_replan_s_per_step": patch_seconds / replans,
        "speedup": full_seconds / patch_seconds if patch_seconds else float("inf"),
        "groups_rebuilt_per_step": groups_rebuilt / replans,
        "groups_total": int(n_blocks),
        "bitwise_identical": True,  # asserted above, per step
    }


# --------------------------------------------------------------------------- #
# measurement 2: end-to-end drifting trajectory through the session API
# --------------------------------------------------------------------------- #
def make_block_structure(n_blocks, block_size):
    sizes = np.full(n_blocks, block_size, dtype=int)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return BlockStructure(
        block_sizes=sizes,
        block_starts=starts,
        atom_offsets=starts[:-1],
        n_basis=int(starts[-1]),
    )


def drifting_steps(blocks, n_steps, rng, coupling=0.35):
    """(K, S=I) geometry steps whose filtered pattern drifts per step."""
    n = blocks.n_basis
    starts = blocks.block_starts
    n_blocks = blocks.n_blocks
    diagonal = np.sort(rng.uniform(-4.0, 4.0, n))
    base = sp.diags(diagonal).tolil()
    for offset in (1, 2):
        for block in range(n_blocks - offset):
            i, j = int(starts[block]), int(starts[block + offset])
            base[i, j] = base[j, i] = coupling / offset
    base = base.tocsr()
    identity = sp.identity(n, format="csr")
    steps = []
    for step in range(n_steps):
        block = step % (n_blocks - 3)
        i, j = int(starts[block]), int(starts[block + 3])
        bump = sp.lil_matrix((n, n))
        bump[i, j] = bump[j, i] = coupling
        steps.append((base + bump.tocsr(), identity))
    return steps


def bench_session_trajectory(n_blocks, n_steps, rng):
    blocks = make_block_structure(n_blocks, 4)
    steps = drifting_steps(blocks, n_steps, rng)
    n_electrons = float(blocks.n_basis)
    config = EngineConfig(engine="batched", eps_filter=1e-3)
    kwargs = dict(
        n_electrons=n_electrons, mu_tolerance=1e-6, ranks=SHARDED_RANKS
    )

    with SubmatrixContext(config) as context:
        start = time.perf_counter()
        patched = context.trajectory(steps, blocks, replan="patch", **kwargs)
        patch_total = time.perf_counter() - start
    with SubmatrixContext(config) as context:
        start = time.perf_counter()
        full = context.trajectory(steps, blocks, replan="full", **kwargs)
        full_total = time.perf_counter() - start

    bitwise = all(
        np.array_equal(patched[i].density_ao, full[i].density_ao)
        and patched[i].mu == full[i].mu
        for i in range(n_steps)
    )
    assert bitwise, "patched trajectory diverged from full replans"
    assert patched.stats.plans_patched > 0

    # warm-started μ-bisection at finite temperature (strictly monotone count)
    warm_config = EngineConfig(
        engine="batched", eps_filter=1e-3, temperature=30000.0
    )
    with SubmatrixContext(warm_config) as context:
        cold = context.trajectory(
            steps, blocks, n_electrons=n_electrons, mu_tolerance=1e-6
        )
    with SubmatrixContext(warm_config) as context:
        warm = context.trajectory(
            steps,
            blocks,
            n_electrons=n_electrons,
            mu_tolerance=1e-6,
            warm_start_mu=True,
        )
    return {
        "n_steps": int(n_steps),
        "ranks": SHARDED_RANKS,
        "patch": {
            "total_s": patch_total,
            "plans_built": patched.stats.plans_built,
            "plans_patched": patched.stats.plans_patched,
            "groups_rebuilt": patched.stats.groups_rebuilt,
            "pipelines_built": patched.stats.pipelines_built,
            "pipelines_patched": patched.stats.pipelines_patched,
            "pattern_changes": patched.stats.pattern_changes,
        },
        "full": {
            "total_s": full_total,
            "plans_built": full.stats.plans_built,
            "pipelines_built": full.stats.pipelines_built,
        },
        "bitwise_identical": bool(bitwise),
        "warm_start_mu": {
            "cold_mu_iterations": int(
                sum(r.mu_iterations for r in cold.stats.steps)
            ),
            "warm_mu_iterations": int(
                sum(r.mu_iterations for r in warm.stats.steps)
            ),
            "max_mu_difference": float(np.max(np.abs(warm.mus - cold.mus))),
        },
    }


def run_incremental_replan_benchmark():
    scale = bench_scale()
    rng = np.random.default_rng(17)
    n_steps = max(8, int(round(10 * scale)))
    n_blocks = max(48, int(round(160 * scale)))
    planning = {
        name: bench_planning(
            n_blocks=n_blocks,
            bandwidth=4,
            n_steps=n_steps,
            drift_fraction=fraction,
            rng=rng,
        )
        for name, fraction in DRIFT_FRACTIONS.items()
    }
    session = bench_session_trajectory(
        n_blocks=max(10, int(round(14 * scale))), n_steps=n_steps, rng=rng
    )
    payload = {
        "benchmark": "incremental_replan",
        "planning_trajectory": planning,
        "session_trajectory": session,
    }
    rows = []
    for name, result in planning.items():
        rows.append(
            [
                f"full replan / step ({name} drift, "
                f"≤{result['max_delta_fraction']:.1%} blocks)",
                result["full_replan_s_per_step"],
                result["groups_total"],
                1.0,
            ]
        )
        rows.append(
            [
                f"patched replan / step ({name} drift)",
                result["patch_replan_s_per_step"],
                result["groups_rebuilt_per_step"],
                result["speedup"],
            ]
        )
    with open(ROOT_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return rows, payload


def _report(rows, payload):
    planning = payload["planning_trajectory"]["light"]
    session = payload["session_trajectory"]
    report(
        "incremental_replan",
        ["path", "seconds / replan", "groups rebuilt", "speedup vs full"],
        rows,
        f"Incremental replanning ({planning['n_blocks']} block columns, "
        f"{planning['n_steps']} steps per drift level)",
    )
    warm = session["warm_start_mu"]
    print(
        f"session trajectory ({session['n_steps']} steps, "
        f"{session['ranks']} ranks): replan='patch' patched "
        f"{session['patch']['plans_patched']} plans "
        f"(rebuilding {session['patch']['groups_rebuilt']} groups) and "
        f"{session['patch']['pipelines_patched']} pipelines; bitwise identical "
        f"to replan='full': {session['bitwise_identical']}"
    )
    print(
        f"warm-started μ-bisection: {warm['warm_mu_iterations']} iterations vs "
        f"{warm['cold_mu_iterations']} cold "
        f"(max |Δμ| {warm['max_mu_difference']:.2e})"
    )


def _check(payload):
    for name, planning in payload["planning_trajectory"].items():
        assert planning["n_steps"] >= 8
        assert planning["max_delta_fraction"] <= 0.10
        assert planning["bitwise_identical"]
        if name in ASSERTED_DRIFTS:
            assert planning["speedup"] > 1.0, (name, planning["speedup"])
    assert payload["session_trajectory"]["bitwise_identical"]


@pytest.mark.benchmark(group="core")
def test_incremental_replan(benchmark):
    rows, payload = benchmark.pedantic(
        run_incremental_replan_benchmark, rounds=1, iterations=1
    )
    _report(rows, payload)
    _check(payload)


if __name__ == "__main__":
    table_rows, result_payload = run_incremental_replan_benchmark()
    _report(table_rows, result_payload)
    _check(result_payload)
    print(f"wrote {ROOT_JSON}")
