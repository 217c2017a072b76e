#!/usr/bin/env python
"""MD trajectory walkthrough: one session, many geometry steps.

The submatrix method's headline workload (Sec. VII of the paper) is the
repeated density-matrix build along an SCF/MD trajectory: every step moves
the atoms a little, so the Kohn–Sham matrix *values* change while the
block-sparsity pattern of the filtered orthogonalized matrix stays fixed
for many consecutive steps.  ``SubmatrixContext.trajectory(...)`` drives
exactly this loop through one session:

* **value-only steps** are detected via the plan cache's pattern content
  hash and reuse the cached extraction plan, the rank-sharded pipeline
  (shard layouts, bucketed stacks, transfer plan) and the persistent
  worker pool — planning happens once, not once per step;
* **pattern changes** (an atom pair drifting across the filter threshold)
  are detected by the same hash and replanned exactly once;
* every step's result is bitwise identical to a fresh single-shot
  ``context.density`` call — the driver removes redundant work, never
  accuracy;
* a ``TrajectoryStats`` record reports plans built vs cache hits, per-step
  wall times and (for sharded runs) the initialization-exchange fetch
  volumes;
* a **drifting pattern** (blocks appearing/disappearing every step) builds
  its plan once per new pattern and returns to a cached one when a pattern
  comes back, and ``warm_start_mu=True`` seeds each canonical step's
  μ-bisection from the previous step's μ;
* long trajectories survive a killed process: ``checkpoint=path`` persists
  every completed step so a killed run resumes at the failed step (bitwise
  identical to the uninterrupted run, including warm-started μ state).

Run with:  python examples/md_trajectory.py
"""

import shutil
import tempfile

import numpy as np
import scipy.sparse as sp

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import HamiltonianModel, build_matrices, water_box
from repro.chem.orthogonalize import orthogonalized_ks
from repro.dbcsr.convert import block_matrix_from_csr
from repro.dbcsr.coo import CooBlockList

EPS_FILTER = 1e-5
N_STEPS = 6


def simulate_md_steps(pair, n_steps, amplitude=2e-4, seed=11):
    """Synthetic MD: per-step symmetric value perturbations of K, fixed S.

    A real MD engine would rebuild K and S from the moved atoms; for the
    walkthrough we perturb the Kohn–Sham values directly, which reproduces
    the essential property — changed values, unchanged sparsity pattern.
    """
    generator = np.random.default_rng(seed)
    steps = []
    for _ in range(n_steps):
        jitter = 1.0 + amplitude * generator.standard_normal()
        steps.append((pair.K * jitter, pair.S))
    return steps


def drifting_pattern_steps(pair, blocks, eps_filter, n_steps, amplitude=1.0, seed=23):
    """Synthetic drift: every step bumps one block pair across the filter.

    An MD trajectory drifts the sparsity pattern when an atom pair crosses
    the filter threshold; here we emulate that by adding one above-threshold
    coupling between a different distant molecule pair each step, so every
    consecutive pattern differs by a few blocks.
    """
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=eps_filter)
    base_pattern = CooBlockList.from_block_matrix(
        block_matrix_from_csr(k_ortho, blocks.block_sizes, threshold=0.0)
    )
    present = set(zip(base_pattern.rows.tolist(), base_pattern.cols.tolist()))
    absent = [
        (i, j)
        for i in range(blocks.n_blocks)
        for j in range(i + 1, blocks.n_blocks)
        if (i, j) not in present
    ]
    generator = np.random.default_rng(seed)
    n = pair.K.shape[0]
    starts = blocks.block_starts
    steps = []
    for _ in range(n_steps):
        bi, bj = absent[int(generator.integers(0, len(absent)))]
        bump = sp.lil_matrix((n, n))
        i, j = int(starts[bi]), int(starts[bj])
        bump[i, j] = bump[j, i] = amplitude
        steps.append((pair.K + bump.tocsr(), pair.S))
    return steps


def main() -> None:
    system = water_box(1)
    pair = build_matrices(system, model=HamiltonianModel())
    n_electrons = 8.0 * system.n_molecules
    steps = simulate_md_steps(pair, N_STEPS)

    # ------------------------------------------------------------------ #
    # 1. the trajectory loop: one plan, one pool, N steps
    # ------------------------------------------------------------------ #
    config = EngineConfig(engine="batched", eps_filter=EPS_FILTER)
    with SubmatrixContext(config) as context:
        trajectory = context.trajectory(steps, pair.blocks, n_electrons=n_electrons)
        stats = trajectory.stats
        print(
            f"{stats.n_steps} canonical steps on {system.n_molecules} molecules: "
            f"{stats.plans_built} plan build(s), {stats.plan_cache_hits} cache "
            f"hit(s), {stats.pattern_changes} pattern change(s)"
        )
        print(
            f"  cold first step {stats.steps[0].wall_time:.3f} s, warm steps "
            f"{np.median([r.wall_time for r in stats.steps[1:]]):.3f} s (median)"
        )
        print(
            "  mu per step:",
            ", ".join(f"{mu:.6f}" for mu in trajectory.mus),
        )

        # every step is bitwise identical to a fresh single-shot call
        k3, s3 = steps[3]
        fresh = SubmatrixContext(config).density(
            k3, s3, pair.blocks, n_electrons=n_electrons
        )
        identical = np.array_equal(trajectory[3].density_ao, fresh.density_ao)
        print(f"  step 3 bitwise identical to a fresh context: {identical}\n")

        # -------------------------------------------------------------- #
        # 2. rank-sharded steps reuse one pipeline (and report traffic)
        # -------------------------------------------------------------- #
        sharded = context.trajectory(
            steps, pair.blocks, n_electrons=n_electrons, ranks=2
        )
        record = sharded.stats.steps[0]
        print(
            f"sharded trajectory (2 ranks): {sharded.stats.pipelines_built} "
            f"pipeline build(s) for {sharded.stats.n_steps} steps, "
            f"{record.segment_fetch_bytes:.0f} B packed segments fetched per "
            f"step ({record.block_fetch_bytes:.0f} B as whole blocks)"
        )
        sharded_identical = all(
            np.array_equal(sharded[i].density_ao, trajectory[i].density_ao)
            for i in range(len(steps))
        )
        print(f"  sharded steps bitwise identical: {sharded_identical}\n")

        # -------------------------------------------------------------- #
        # 3. iterative solvers run sharded too (grand-canonical)
        # -------------------------------------------------------------- #
        gap_mu = HamiltonianModel().homo_lumo_gap_center()
        newton = context.trajectory(
            steps, pair.blocks, mu=gap_mu, solver="newton_schulz", ranks=2
        )
        print(
            f"grand-canonical Newton-Schulz, 2 ranks: {newton.stats.n_steps} "
            f"steps, {newton.stats.plans_built} plan build(s), band energies "
            f"{newton.band_energies.min():.4f} .. {newton.band_energies.max():.4f}"
        )

    # ------------------------------------------------------------------ #
    # 4. a pattern change invalidates the reuse exactly once
    # ------------------------------------------------------------------ #
    # at a looser filter the pattern is genuinely sparse, so a rescaled
    # matrix retains different blocks and the content hash flags the change
    sparse_config = EngineConfig(engine="batched", eps_filter=1e-2)
    changed_steps = steps[:3] + [(pair.K * 3.0, pair.S)] * 2
    with SubmatrixContext(sparse_config) as context:
        invalidated = context.trajectory(
            changed_steps, pair.blocks, n_electrons=n_electrons
        )
        flags = ", ".join(
            f"step {r.step}: {'replan' if r.pattern_changed else 'reuse'}"
            for r in invalidated.stats.steps
        )
        print(
            f"\npattern-change detection at eps_filter=1e-2 "
            f"({invalidated.stats.plans_built} plans, "
            f"{invalidated.stats.pattern_changes} change(s)): {flags}"
        )

    # ------------------------------------------------------------------ #
    # 5. drifting patterns: one build per new pattern + warm-started μ
    # ------------------------------------------------------------------ #
    # every step here changes the pattern by a few blocks: each new pattern
    # is a content-keyed cache miss and one plan build, and walking back over
    # the first two geometries finds their plans still cached
    drifting = drifting_pattern_steps(pair, pair.blocks, 1e-2, N_STEPS)
    revisited = drifting + drifting[:2]
    with SubmatrixContext(sparse_config) as context:
        walked = context.trajectory(revisited, pair.blocks, n_electrons=n_electrons)
    stats = walked.stats
    distinct = len({r.pattern_fingerprint for r in stats.steps})
    print(
        f"\ndrifting pattern: {stats.pattern_changes} pattern change(s) over "
        f"{stats.n_steps} steps, {stats.plans_built} plan build(s) for "
        f"{distinct} distinct patterns"
    )
    print(
        "  return to the first two patterns: "
        + ", ".join(
            f"step {r.step} {'hit' if r.plans_built == 0 else 'build'}"
            for r in stats.steps[-2:]
        )
    )

    # warm-started μ-bisection: opt-in, trades bitwise μ identity for fewer
    # iterations (meaningful at finite temperature, where the electron count
    # is strictly monotone in μ)
    warm_config = EngineConfig(engine="batched", eps_filter=1e-2, temperature=30000.0)
    with SubmatrixContext(warm_config) as context:
        cold = context.trajectory(
            drifting, pair.blocks, n_electrons=n_electrons, mu_tolerance=1e-6
        )
        warm = context.trajectory(
            drifting,
            pair.blocks,
            n_electrons=n_electrons,
            mu_tolerance=1e-6,
            warm_start_mu=True,
        )
    print(
        f"warm_start_mu=True at kT≈2.6 eV: "
        f"{sum(r.mu_iterations for r in warm.stats.steps)} bisection "
        f"iterations vs {sum(r.mu_iterations for r in cold.stats.steps)} "
        f"cold (max |Δμ| {np.max(np.abs(warm.mus - cold.mus)):.2e})"
    )

    # ------------------------------------------------------------------ #
    # 6. checkpoint/resume
    # ------------------------------------------------------------------ #
    # a killed trajectory resumes from its checkpoint: completed steps are
    # loaded (bitwise, including the warm-start μ state), only the failed
    # step onward recomputes
    checkpoint_dir = tempfile.mkdtemp(prefix="md_trajectory_ckpt_")

    class SimulatedCrash(Exception):
        pass

    def crashing_steps(index):
        if index == 4:
            raise SimulatedCrash()  # the MD engine dies mid-trajectory
        return steps[index] if index < len(steps) else None

    try:
        with SubmatrixContext(config) as context:
            try:
                context.trajectory(
                    crashing_steps,
                    pair.blocks,
                    n_electrons=n_electrons,
                    checkpoint=checkpoint_dir,
                )
            except SimulatedCrash:
                pass
        with SubmatrixContext(config) as context:
            resumed = context.trajectory(
                steps,
                pair.blocks,
                n_electrons=n_electrons,
                checkpoint=checkpoint_dir,
            )
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    resumed_identical = all(
        np.array_equal(resumed[i].density_ao, trajectory[i].density_ao)
        for i in range(len(steps))
    )
    print(
        f"\ncheckpoint/resume: killed at step 4, resumed with "
        f"{resumed.stats.steps_resumed} step(s) loaded from disk, "
        f"{resumed.stats.n_steps - resumed.stats.steps_resumed} recomputed; "
        f"bitwise identical to the uninterrupted run: {resumed_identical}"
    )


if __name__ == "__main__":
    main()
