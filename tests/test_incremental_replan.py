"""Tests for the incremental replan subsystem (PR 5).

Covers the acceptance criteria of the incremental-replan tentpole:

* property test: ``BlockSubmatrixPlan.patch`` followed by
  pack/extract/scatter/finalize is **bitwise identical** to a freshly built
  full plan, for random block insertions, deletions and mixed drifts;
* the sharded path: ``ShardedPlan.patch`` / ``DistributedSubmatrixPipeline
  .patch`` produce bitwise-identical execution results for ranks {1, 2, 4};
* the plan cache's delta key: a patched plan is cached under the
  (old hash, block delta) key and never collides with the content-keyed
  full plan of the same pattern;
* trajectory integration: ``replan="patch"`` trajectories are bitwise
  identical to ``replan="full"`` trajectories for ranks {1, 2, 4}, and
  ``warm_start_mu=True`` converges the electron count within tolerance
  while (documentedly) breaking bitwise μ identity;
* the satellite fixes: ``pack`` canonicalization, ``PlanCache.clear()`` /
  LRU eviction order, and zero-step trajectories.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import run_pipeline

from repro.api import EngineConfig, SubmatrixContext
from repro.core.plan import (
    PATCH_DELTA_FRACTION,
    BlockSubmatrixPlan,
    ElementSubmatrixPlan,
    PlanCache,
    block_pattern_delta,
)
from repro.core.runner import DistributedSubmatrixPipeline
from repro.core.shard import ShardedPlan
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.convert import block_matrix_to_csr
from repro.dbcsr.coo import CooBlockList


# --------------------------------------------------------------------------- #
# random pattern helpers
# --------------------------------------------------------------------------- #
def random_pattern(n_blocks, density, rng):
    """Random symmetric block pattern with a full diagonal."""
    mask = rng.random((n_blocks, n_blocks)) < density
    mask |= mask.T
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return CooBlockList(rows, cols, n_blocks, n_blocks)


def drift_pattern(coo, rng, n_changes, insert=True, delete=True):
    """Drift a pattern by a few symmetric block insertions/deletions."""
    keys = set(zip(coo.rows.tolist(), coo.cols.tolist()))
    n = coo.n_block_rows
    for _ in range(n_changes):
        i, j = (int(x) for x in rng.integers(0, n, 2))
        if i == j:
            continue
        if (i, j) in keys:
            if delete and len(keys) > n + 2:
                keys.discard((i, j))
                keys.discard((j, i))
        elif insert:
            keys.add((i, j))
            keys.add((j, i))
    rows = [r for r, _ in keys]
    cols = [c for _, c in keys]
    return CooBlockList(rows, cols, n, n)


def matrix_for_pattern(coo, sizes, rng):
    """Symmetric block matrix with random values on the pattern."""
    matrix = BlockSparseMatrix(sizes, sizes)
    blocks = {}
    for bi, bj in zip(coo.rows, coo.cols):
        bi, bj = int(bi), int(bj)
        if (bi, bj) in blocks:
            continue
        if (bj, bi) in blocks:
            block = blocks[(bj, bi)].T.copy()
        else:
            block = rng.standard_normal((int(sizes[bi]), int(sizes[bj])))
            if bi == bj:
                block = 0.5 * (block + block.T)
        matrix.put_block(bi, bj, block)
        blocks[(bi, bj)] = block
    return matrix


def poly(a):
    """A deterministic dense matrix function for bitwise comparisons."""
    symmetric = 0.5 * (a + a.T)
    return symmetric @ symmetric + np.eye(a.shape[0])


# --------------------------------------------------------------------------- #
# tentpole: plan patching is bitwise identical to a full replan
# --------------------------------------------------------------------------- #
class TestPlanPatch:
    @pytest.mark.parametrize("seed", range(8))
    def test_patch_bitwise_identical_to_full_plan(self, seed):
        """Property: patched index arrays equal a fresh full plan's, and so

        does every pack → extract → scatter → finalize product (random
        insertions, deletions and mixed drifts).
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 18))
        sizes = rng.integers(2, 6, n)
        old_coo = random_pattern(n, 0.2, rng)
        mode = seed % 3
        new_coo = drift_pattern(
            old_coo,
            rng,
            int(rng.integers(1, 4)),
            insert=mode != 1,
            delete=mode != 0,
        )
        groups = [[i] for i in range(n)]
        old_plan = BlockSubmatrixPlan(old_coo, sizes, groups)
        full = BlockSubmatrixPlan(new_coo, sizes, groups)
        patched = old_plan.patch(new_coo)

        assert patched.n_values == full.n_values
        assert patched.dimensions == full.dimensions
        for got, want in zip(patched.groups, full.groups):
            assert np.array_equal(got.gather_src, want.gather_src)
            assert np.array_equal(got.gather_dst, want.gather_dst)
            assert np.array_equal(got.scatter_src, want.scatter_src)
            assert np.array_equal(got.scatter_dst, want.scatter_dst)
            assert np.array_equal(got.indices, want.indices)

        matrix = matrix_for_pattern(new_coo, sizes, rng)
        packed_patched = patched.pack(matrix)
        packed_full = full.pack(matrix)
        assert np.array_equal(packed_patched, packed_full)
        out_patched = patched.new_output()
        out_full = full.new_output()
        for g in range(patched.n_groups):
            a = patched.extract(packed_patched, g)
            b = full.extract(packed_full, g)
            assert np.array_equal(a, b)
            patched.scatter(out_patched, g, poly(a))
            full.scatter(out_full, g, poly(b))
        assert np.array_equal(out_patched, out_full)
        got = block_matrix_to_csr(patched.finalize(out_patched))
        want = block_matrix_to_csr(full.finalize(out_full))
        assert np.array_equal(got.toarray(), want.toarray())

    def test_patch_report_accounting(self):
        rng = np.random.default_rng(7)
        n = 12
        sizes = rng.integers(2, 5, n)
        old_coo = random_pattern(n, 0.2, rng)
        new_coo = drift_pattern(old_coo, rng, 2)
        plan = BlockSubmatrixPlan(old_coo, sizes, [[i] for i in range(n)])
        patched = plan.patch(new_coo)
        report = patched.patch_report
        assert report.source is plan
        assert report.groups_rebuilt + report.groups_reused == n
        delta = plan.delta_to(new_coo)
        assert report.blocks_added == delta.added.size
        assert report.blocks_removed == delta.removed.size
        # only the groups named dirty were rebuilt
        assert report.groups_rebuilt == len(report.dirty_groups)

    def test_identical_pattern_patch_rebuilds_nothing(self):
        rng = np.random.default_rng(1)
        n = 10
        sizes = rng.integers(2, 5, n)
        coo = random_pattern(n, 0.25, rng)
        plan = BlockSubmatrixPlan(coo, sizes, [[i] for i in range(n)])
        same = CooBlockList(coo.rows, coo.cols, n, n)
        patched = plan.patch(same)
        assert patched.patch_report.groups_rebuilt == 0
        assert patched.patch_report.blocks_added == 0
        assert patched.patch_report.blocks_removed == 0

    def test_patch_source_is_weakly_referenced(self):
        """A drifting trajectory must not chain every historical plan alive."""
        import gc

        rng = np.random.default_rng(6)
        n = 10
        sizes = rng.integers(2, 5, n)
        coo = random_pattern(n, 0.25, rng)
        plan = BlockSubmatrixPlan(coo, sizes, [[i] for i in range(n)])
        patched = plan.patch(drift_pattern(coo, rng, 1))
        assert patched.patch_report.source is plan
        del plan
        gc.collect()
        assert patched.patch_report.source is None
        # a collected source only disables shard-layout reuse, with a clear
        # error from the direct entry point
        sharded = ShardedPlan(patched, np.arange(n) % 2, 2)
        with pytest.raises(ValueError, match="patched from"):
            sharded.patch(patched)

    def test_patch_rejects_changed_block_grid(self):
        rng = np.random.default_rng(2)
        coo = random_pattern(8, 0.3, rng)
        plan = BlockSubmatrixPlan(coo, rng.integers(2, 5, 8), [[i] for i in range(8)])
        other = random_pattern(9, 0.3, rng)
        with pytest.raises(ValueError, match="unchanged block grid"):
            plan.patch(other)

    def test_element_plans_do_not_patch(self):
        matrix = sp.random(12, 12, density=0.3, random_state=0, format="csc")
        matrix = matrix + matrix.T + sp.identity(12)
        plan = ElementSubmatrixPlan(matrix, [[c] for c in range(12)])
        with pytest.raises(NotImplementedError, match="block-level"):
            plan.patch(matrix)

    def test_block_pattern_delta(self):
        old = CooBlockList([0, 1, 2], [0, 1, 2], 3, 3)
        new = CooBlockList([0, 2, 0, 2], [0, 0, 2, 2], 3, 3)
        delta = block_pattern_delta(old.rows, old.cols, new)
        assert delta.n_old == 3 and delta.n_new == 4
        # (1,1) removed; (2,0) and (0,2) added
        assert delta.removed.tolist() == [old.block_id(1, 1)]
        assert sorted(delta.added.tolist()) == sorted(
            [new.block_id(2, 0), new.block_id(0, 2)]
        )
        survivors = delta.new_id_of_old[delta.new_id_of_old >= 0]
        assert survivors.tolist() == [new.block_id(0, 0), new.block_id(2, 2)]
        assert 0.0 < delta.fraction_changed <= 1.0


# --------------------------------------------------------------------------- #
# tentpole: sharded patching, ranks {1, 2, 4}
# --------------------------------------------------------------------------- #
class TestShardedPatch:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_pipeline_patch_bitwise_identical(self, ranks):
        rng = np.random.default_rng(100 + ranks)
        n = 16
        sizes = rng.integers(2, 5, n)
        old_coo = random_pattern(n, 0.2, rng)
        new_coo = drift_pattern(old_coo, rng, 3)
        cache = PlanCache()
        pipeline = DistributedSubmatrixPipeline(
            old_coo, sizes, ranks, plan_cache=cache
        )
        # warm the pipeline (builds plan, shards and stack layouts)
        warm = matrix_for_pattern(old_coo, sizes, rng)
        run_pipeline(pipeline, warm, poly)

        patched = pipeline.patch(new_coo)
        fresh = DistributedSubmatrixPipeline(new_coo, sizes, ranks)
        matrix = matrix_for_pattern(new_coo, sizes, rng)
        got = block_matrix_to_csr(run_pipeline(patched, matrix, poly))
        want = block_matrix_to_csr(run_pipeline(fresh, matrix, poly))
        assert np.array_equal(got.toarray(), want.toarray())
        assert cache.stats["patches"] == 1

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_sharded_plan_patch_matches_fresh_shards(self, ranks):
        """Patched shards gather/scatter exactly like freshly built ones."""
        rng = np.random.default_rng(200 + ranks)
        n = 14
        sizes = rng.integers(2, 5, n)
        old_coo = random_pattern(n, 0.2, rng)
        new_coo = drift_pattern(old_coo, rng, 2)
        groups = [[i] for i in range(n)]
        old_plan = BlockSubmatrixPlan(old_coo, sizes, groups)
        rank_of_group = np.arange(n) % ranks
        old_sharded = ShardedPlan(old_plan, rank_of_group, ranks)
        # touch the memoized stack layouts so patching has caches to carry
        for shard in old_sharded.shards:
            shard.stack_tasks()

        new_plan = old_plan.patch(new_coo)
        patched = old_sharded.patch(new_plan)
        fresh = ShardedPlan(new_plan, rank_of_group, ranks)
        matrix = matrix_for_pattern(new_coo, sizes, rng)
        packed = new_plan.pack(matrix)
        out_patched = new_plan.new_output()
        out_fresh = new_plan.new_output()
        for version, out in ((patched, out_patched), (fresh, out_fresh)):
            for shard in version.shards:
                if shard.n_groups == 0:
                    continue
                local = shard.pack_local(packed)
                for bucket in shard.stack_tasks():
                    stack = shard.view.extract_stack(
                        local, bucket.members, bucket.dimension
                    )
                    evaluated = np.stack([poly(s) for s in stack])
                    shard.view.scatter_stack(
                        out, bucket.members, evaluated, bucket.dimension
                    )
        assert np.array_equal(out_patched, out_fresh)
        for got, want in zip(patched.shards, fresh.shards):
            assert np.array_equal(got.required_segments, want.required_segments)
            assert np.array_equal(got.local_to_global, want.local_to_global)
            assert np.array_equal(got.segment_starts, want.segment_starts)

    def test_sharded_patch_requires_matching_source(self):
        rng = np.random.default_rng(3)
        n = 10
        sizes = rng.integers(2, 5, n)
        coo = random_pattern(n, 0.25, rng)
        groups = [[i] for i in range(n)]
        plan_a = BlockSubmatrixPlan(coo, sizes, groups)
        plan_b = BlockSubmatrixPlan(coo, sizes, groups)
        sharded = ShardedPlan(plan_a, np.arange(n) % 2, 2)
        with pytest.raises(ValueError, match="patched from"):
            sharded.patch(plan_b.patch(coo))


# --------------------------------------------------------------------------- #
# tentpole: the plan cache's delta key
# --------------------------------------------------------------------------- #
class TestDeltaKeyedCache:
    def test_patched_plan_does_not_collide_with_full_plan(self):
        rng = np.random.default_rng(11)
        n = 12
        sizes = rng.integers(2, 5, n)
        old_coo = random_pattern(n, 0.25, rng)
        new_coo = drift_pattern(old_coo, rng, 2)
        groups = [[i] for i in range(n)]
        cache = PlanCache()
        old_plan = cache.block_plan(old_coo, sizes, groups)
        patched = cache.patched_block_plan(old_plan, new_coo)
        full = cache.block_plan(new_coo, sizes, groups)
        # three distinct entries: old content key, delta key, new content key
        assert len(cache) == 3
        assert patched is not full
        assert cache.stats["misses"] == 3
        assert cache.stats["builds"] == 3
        assert cache.stats["patches"] == 1
        # the delta key hits for an identical transition
        again = cache.patched_block_plan(old_plan, new_coo)
        assert again is patched
        assert cache.stats["hits"] == 1
        assert cache.stats["patches"] == 1
        # and the full plan's content key still serves the full plan
        assert cache.block_plan(new_coo, sizes, groups) is full

    def test_patched_and_full_plans_agree(self):
        rng = np.random.default_rng(12)
        n = 12
        sizes = rng.integers(2, 5, n)
        old_coo = random_pattern(n, 0.25, rng)
        new_coo = drift_pattern(old_coo, rng, 2)
        groups = [[i] for i in range(n)]
        cache = PlanCache()
        old_plan = cache.block_plan(old_coo, sizes, groups)
        patched = cache.patched_block_plan(old_plan, new_coo)
        full = cache.block_plan(new_coo, sizes, groups)
        matrix = matrix_for_pattern(new_coo, sizes, rng)
        assert np.array_equal(patched.pack(matrix), full.pack(matrix))


# --------------------------------------------------------------------------- #
# session integration: drifting-pattern trajectories
# --------------------------------------------------------------------------- #
def synthetic_block_system(n_blocks, block_size, rng):
    """A synthetic (K, S=I) system whose filtered pattern we control exactly.

    With S = I the orthogonalized Kohn–Sham matrix is K itself (filtered),
    so the trajectory's block pattern is the pattern of K — which lets the
    drift tests insert/delete specific blocks per step.
    """
    import dataclasses as _dc

    from repro.chem.hamiltonian import BlockStructure

    sizes = np.full(n_blocks, block_size, dtype=int)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    blocks = BlockStructure(
        block_sizes=sizes,
        block_starts=starts,
        atom_offsets=starts[:-1],
        n_basis=int(starts[-1]),
    )
    return blocks


def drifting_chem_steps(blocks, rng, n_steps, base_coupling=0.4):
    """(K, S=I) steps whose block pattern drifts by ~2 blocks per step."""
    n = blocks.n_basis
    n_blocks = blocks.n_blocks
    starts = blocks.block_starts
    diag = np.sort(rng.uniform(-4.0, 4.0, n))
    base = sp.diags(diag).tocsr()
    # a static banded coupling plus one drifting off-band block per step
    for offset in (1, 2):
        for b in range(n_blocks - offset):
            i, j = int(starts[b]), int(starts[b + offset])
            base = base + _bump(n, i, j, base_coupling / offset)
    steps = []
    for step in range(n_steps):
        b = step % (n_blocks - 3)
        i, j = int(starts[b]), int(starts[b + 3])
        steps.append((base + _bump(n, i, j, base_coupling), sp.identity(n, format="csr")))
    return steps


def _bump(n, i, j, value):
    bump = sp.lil_matrix((n, n))
    bump[i, j] = bump[j, i] = value
    return bump.tocsr()


class TestTrajectoryReplanModes:
    @pytest.fixture(scope="class")
    def drift_setup(self):
        rng = np.random.default_rng(21)
        blocks = synthetic_block_system(10, 3, rng)
        steps = drifting_chem_steps(blocks, rng, 6)
        return blocks, steps

    @pytest.mark.parametrize("ranks", [None, 1, 2, 4])
    def test_patch_trajectory_bitwise_identical_to_full(self, drift_setup, ranks):
        blocks, steps = drift_setup
        n_electrons = float(blocks.n_basis)  # half filling
        config = EngineConfig(engine="batched", eps_filter=1e-3)
        kwargs = dict(n_electrons=n_electrons, mu_tolerance=1e-6)
        if ranks is not None:
            kwargs["ranks"] = ranks
        with SubmatrixContext(config) as ctx_patch, SubmatrixContext(
            config
        ) as ctx_full:
            patched = ctx_patch.trajectory(steps, blocks, replan="patch", **kwargs)
            full = ctx_full.trajectory(steps, blocks, replan="full", **kwargs)
        assert patched.stats.pattern_changes > 0
        assert patched.stats.plans_patched > 0
        assert patched.stats.groups_rebuilt > 0
        assert full.stats.plans_patched == 0
        for step in range(len(steps)):
            assert np.array_equal(
                patched[step].density_ao, full[step].density_ao
            ), step
            assert patched[step].mu == full[step].mu
            assert patched[step].band_energy == full[step].band_energy
        if ranks is not None:
            assert patched.stats.pipelines_patched > 0
            assert patched.stats.pipelines_built == 1

    def test_auto_mode_patches_small_deltas(self, drift_setup):
        blocks, steps = drift_setup
        config = EngineConfig(engine="batched", eps_filter=1e-3)
        with SubmatrixContext(config) as ctx:
            auto = ctx.trajectory(
                steps,
                blocks,
                n_electrons=float(blocks.n_basis),
                mu_tolerance=1e-6,
                replan="auto",
            )
        # the per-step drift is far below PATCH_DELTA_FRACTION, so auto
        # behaves like patch on every pattern change
        assert auto.stats.plans_patched == auto.stats.pattern_changes > 0

    def test_auto_mode_rebuilds_large_deltas(self):
        rng = np.random.default_rng(33)
        n = 12
        sizes = rng.integers(2, 5, n)
        sparse_coo = random_pattern(n, 0.05, rng)
        dense_coo = random_pattern(n, 0.8, rng)
        delta = BlockSubmatrixPlan(
            sparse_coo, sizes, [[i] for i in range(n)]
        ).delta_to(dense_coo)
        assert delta.fraction_changed > PATCH_DELTA_FRACTION
        ctx = SubmatrixContext(EngineConfig(engine="batched"))
        groups = [[i] for i in range(n)]
        first = ctx.block_plan_for(sparse_coo, sizes, groups, replan="auto")
        second = ctx.block_plan_for(dense_coo, sizes, groups, replan="auto")
        assert second.patch_report is None  # fully rebuilt
        assert ctx.plan_cache.stats["patches"] == 0
        # while a small delta is patched
        drifted = drift_pattern(dense_coo, rng, 1)
        third = ctx.block_plan_for(drifted, sizes, groups, replan="auto")
        assert third.patch_report is not None
        assert ctx.plan_cache.stats["patches"] == 1
        ctx.close()

    def test_value_only_steps_reuse_patched_plan(self, drift_setup):
        """After a patch, later value-only steps must not rebuild fully."""
        blocks, steps = drift_setup
        config = EngineConfig(engine="batched", eps_filter=1e-3)
        # repeat the last geometry so its (patched) plan is reused
        steps = list(steps) + [steps[-1], steps[-1]]
        with SubmatrixContext(config) as ctx:
            traj = ctx.trajectory(
                steps,
                blocks,
                n_electrons=float(blocks.n_basis),
                mu_tolerance=1e-6,
                replan="patch",
            )
        assert not traj.stats.steps[-1].pattern_changed
        assert traj.stats.steps[-1].plans_built == 0
        assert traj.stats.steps[-1].plan_cache_hits >= 1


class TestWarmStartMu:
    def test_warm_start_converges_with_fewer_iterations(self, water32_matrices):
        pair = water32_matrices
        n_electrons = 8.0 * 32
        steps = [(pair.K * (1.0 + 1e-4 * s), pair.S) for s in range(5)]
        # finite temperature: the electron count is strictly monotone in μ,
        # so iteration counts measure genuine bisection work
        config = EngineConfig(
            engine="batched", eps_filter=1e-5, temperature=30000.0
        )
        tolerance = 1e-6
        with SubmatrixContext(config) as ctx:
            cold = ctx.trajectory(
                steps, pair.blocks, n_electrons=n_electrons, mu_tolerance=tolerance
            )
        with SubmatrixContext(config) as ctx:
            warm = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=n_electrons,
                mu_tolerance=tolerance,
                warm_start_mu=True,
            )
        assert not cold.stats.steps[0].warm_started
        assert all(record.warm_started for record in warm.stats.steps[1:])
        # step 0 has no predecessor: identical to the cold start
        assert warm[0].mu == cold[0].mu
        # later steps converge the ensemble within tolerance, faster
        for record in warm.results[1:]:
            assert abs(record.n_electrons - n_electrons) <= tolerance
        cold_iterations = sum(r.mu_iterations for r in cold.stats.steps[1:])
        warm_iterations = sum(r.mu_iterations for r in warm.stats.steps[1:])
        assert warm_iterations < cold_iterations
        # μ agrees physically (not bitwise — that is the documented trade)
        assert np.allclose(warm.mus, cold.mus, atol=1e-4)

    def test_warm_start_defaults_off_and_preserves_bitwise_identity(
        self, water32_matrices
    ):
        pair = water32_matrices
        steps = [(pair.K * (1.0 + 1e-4 * s), pair.S) for s in range(3)]
        config = EngineConfig(engine="batched", eps_filter=1e-5)
        with SubmatrixContext(config) as ctx:
            traj = ctx.trajectory(steps, pair.blocks, n_electrons=8.0 * 32)
        fresh = SubmatrixContext(config).density(
            steps[2][0], steps[2][1], pair.blocks, n_electrons=8.0 * 32
        )
        assert traj[2].mu == fresh.mu
        assert np.array_equal(traj[2].density_ao, fresh.density_ao)


# --------------------------------------------------------------------------- #
# satellite: pack canonicalization
# --------------------------------------------------------------------------- #
class TestPackCanonicalization:
    def make_plan(self):
        matrix = sp.random(10, 10, density=0.3, random_state=4, format="coo")
        matrix = (matrix + matrix.T + sp.identity(10)).tocsr()
        return matrix, ElementSubmatrixPlan(matrix, [[c] for c in range(10)])

    def test_unsorted_indices_pack(self):
        matrix, plan = self.make_plan()
        coo = matrix.tocoo()
        order = np.argsort(-coo.row, kind="stable")  # scramble row order
        shuffled = sp.csc_matrix(
            (coo.data[order], (coo.row[order], coo.col[order])), shape=matrix.shape
        )
        assert np.array_equal(plan.pack(shuffled), plan.pack(matrix))

    def test_duplicate_entries_pack(self):
        matrix, plan = self.make_plan()
        coo = matrix.tocoo()
        # split every value into two duplicate entries summing to it
        rows = np.concatenate([coo.row, coo.row])
        cols = np.concatenate([coo.col, coo.col])
        data = np.concatenate([0.25 * coo.data, 0.75 * coo.data])
        duplicated = sp.coo_matrix((data, (rows, cols)), shape=matrix.shape)
        assert np.allclose(plan.pack(duplicated), plan.pack(matrix))

    def test_pack_does_not_mutate_caller_matrix(self):
        """Canonicalization must copy an aliased CSC, not rewrite it."""
        matrix, plan = self.make_plan()
        csc = matrix.tocsc()
        # duplicate every stored entry at raw CSC level (constructors that
        # go through COO would sum them for us)
        indptr = csc.indptr * 2
        indices = np.repeat(csc.indices, 2)
        data = np.repeat(0.5 * csc.data, 2)
        duplicated = sp.csc_matrix(
            (data, indices, indptr), shape=csc.shape
        )
        nnz_before = duplicated.nnz
        assert nnz_before == 2 * csc.nnz
        data_before = duplicated.data.copy()
        packed = plan.pack(duplicated)
        assert np.allclose(packed, plan.pack(matrix))
        assert duplicated.nnz == nnz_before
        assert np.array_equal(duplicated.data, data_before)

    def test_explicit_zeros_matching_pattern_pack(self):
        matrix = sp.csr_matrix(
            (
                np.array([1.0, 0.0, 2.0]),
                (np.array([0, 1, 2]), np.array([0, 1, 2])),
            ),
            shape=(3, 3),
        )
        plan = ElementSubmatrixPlan(matrix, [[0], [1], [2]])
        packed = plan.pack(matrix.copy())
        assert packed.tolist() == [1.0, 0.0, 2.0]

    def test_nnz_mismatch_message(self):
        matrix, plan = self.make_plan()
        extra = matrix.tolil()
        free = np.argwhere(matrix.toarray() == 0.0)
        i, j = free[0]
        extra[int(i), int(j)] = 5.0
        with pytest.raises(ValueError, match="nnz mismatch"):
            plan.pack(extra.tocsr())

    def test_indices_mismatch_message(self):
        base = sp.identity(4, format="csr") * 2.0
        plan = ElementSubmatrixPlan(base, [[c] for c in range(4)])
        moved = sp.csr_matrix(
            (
                np.array([1.0, 1.0, 1.0, 1.0]),
                (np.array([1, 1, 2, 3]), np.array([0, 1, 2, 3])),
            ),
            shape=(4, 4),
        )
        with pytest.raises(ValueError, match="indptr mismatch|indices mismatch"):
            plan.pack(moved)

    def test_shape_mismatch_message(self):
        matrix, plan = self.make_plan()
        with pytest.raises(ValueError, match="shape"):
            plan.pack(sp.identity(11, format="csr"))


# --------------------------------------------------------------------------- #
# satellite: PlanCache.clear() and LRU eviction order
# --------------------------------------------------------------------------- #
class TestPlanCacheHousekeeping:
    def patterns(self, count, rng):
        return [random_pattern(8, 0.2 + 0.05 * k, rng) for k in range(count)]

    def test_clear_resets_counters_and_order(self):
        rng = np.random.default_rng(8)
        sizes = np.full(8, 3)
        groups = [[i] for i in range(8)]
        cache = PlanCache()
        a, b = self.patterns(2, rng)
        cache.block_plan(a, sizes, groups)
        cache.block_plan(a, sizes, groups)
        plan_a = cache.block_plan(a, sizes, groups)
        cache.patched_block_plan(plan_a, b)
        before = cache.stats
        assert before["hits"] == 2
        assert before["misses"] == before["builds"] == 2
        assert before["patches"] == 1
        assert before["groups_rebuilt"] > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == {
            "hits": 0,
            "misses": 0,
            "builds": 0,
            "patches": 0,
            "groups_rebuilt": 0,
            "evictions": 0,
            "plans": 0,
        }

    def test_eviction_is_least_recently_used_not_built(self):
        rng = np.random.default_rng(9)
        sizes = np.full(8, 3)
        groups = [[i] for i in range(8)]
        cache = PlanCache(max_plans=2)
        a, b, c = self.patterns(3, rng)
        plan_a = cache.block_plan(a, sizes, groups)
        cache.block_plan(b, sizes, groups)
        # touch A: it is now more recently *used* than the younger B
        assert cache.block_plan(a, sizes, groups) is plan_a
        cache.block_plan(c, sizes, groups)  # overflow: must evict B, not A
        assert cache.block_plan(a, sizes, groups) is plan_a  # still cached
        stats = cache.stats
        assert stats["plans"] == 2
        # B was evicted: looking it up again is a miss (a rebuild)
        builds_before = stats["builds"]
        cache.block_plan(b, sizes, groups)
        assert cache.stats["builds"] == builds_before + 1


# --------------------------------------------------------------------------- #
# satellite: zero-step trajectories
# --------------------------------------------------------------------------- #
class TestZeroStepTrajectories:
    def make_context(self):
        return SubmatrixContext(EngineConfig(engine="batched", eps_filter=1e-5))

    def test_empty_sequence(self, water32_matrices):
        with self.make_context() as ctx:
            traj = ctx.trajectory([], water32_matrices.blocks, n_electrons=1.0)
        assert len(traj) == 0
        assert traj.mus.dtype == np.float64
        assert traj.band_energies.dtype == np.float64
        assert traj.mus.shape == (0,)
        stats = traj.stats
        assert stats.n_steps == 0
        assert stats.reuse_rate == 0.0
        assert stats.patch_rate == 0.0
        assert stats.total_wall_time == 0.0

    def test_callback_none_at_step_zero(self, water32_matrices):
        with self.make_context() as ctx:
            traj = ctx.trajectory(
                lambda index: None, water32_matrices.blocks, n_electrons=1.0
            )
        assert traj.stats.n_steps == 0
        assert traj.mus.dtype == np.float64

    def test_steps_none_raises(self, water32_matrices):
        with self.make_context() as ctx:
            with pytest.raises(ValueError, match="not None"):
                ctx.trajectory(None, water32_matrices.blocks, n_electrons=1.0)

    def test_invalid_replan_mode_raises(self, water32_matrices):
        with self.make_context() as ctx:
            with pytest.raises(ValueError, match="replan"):
                ctx.trajectory(
                    [], water32_matrices.blocks, n_electrons=1.0, replan="never"
                )
