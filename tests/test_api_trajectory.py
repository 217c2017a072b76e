"""Tests for the trajectory session driver (`repro.api.trajectory`).

Covers the acceptance criteria of the trajectory tentpole:

* N ≥ 5 value-only geometry steps build exactly **one** plan and **one**
  executor, with every later step served from the plan cache;
* per-step results are bitwise identical to fresh single-shot
  ``context.density`` calls;
* a sparsity-pattern change between steps is detected via the plan cache's
  content hash and triggers exactly one replan — a plan build, exactly what a
  fresh session would build — and a return to an earlier pattern is a hit;
* rank-sharded trajectories reuse the context-cached pipeline across steps
  and report the initialization-exchange fetch volumes;
* ``warm_start_mu=True`` converges the electron count within tolerance while
  (documentedly) breaking bitwise μ identity; zero-step trajectories;
* **regression**: a trajectory killed mid-run and resumed from its
  checkpoint produces bitwise-identical results to an uninterrupted run,
  and an unusable checkpoint raises :class:`~repro.api.CheckpointError`.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import (
    CheckpointError,
    EngineConfig,
    SubmatrixContext,
    TrajectoryCheckpoint,
    TrajectoryResult,
    TrajectoryStats,
)
from repro.api.observables import prepare_step
from repro.api.trajectory import WARM_START_HALF_WIDTH, adaptive_half_width
from repro.chem import reference_density_matrix

EPS = 1e-5
N_ELECTRONS = 8.0 * 32


def value_only_steps(pair, n_steps, scale=1e-4):
    """Geometry steps that perturb values but keep the filtered pattern.

    Scaling K leaves S (and hence the Löwdin transform) untouched, so the
    orthogonalized matrix scales uniformly — no entry crosses the filter
    threshold for these factors on the deterministic water system.
    """
    return [(pair.K * (1.0 + scale * step), pair.S) for step in range(n_steps)]


#: Filter threshold at which the water pattern is genuinely sparse, so a
#: value change can move entries across the threshold (at the tight default
#: the 32-molecule pattern is fully dense and no value change can alter it).
EPS_SPARSE = 1e-2


def pattern_breaking_step(pair):
    """A step whose scaled K pushes filtered-out entries back over ``EPS_SPARSE``."""
    return pair.K * 3.0, pair.S


class TestValueOnlyTrajectory:
    def test_one_plan_one_executor_across_steps(self, water32_matrices):
        """Acceptance: N ≥ 5 value-only steps → 1 plan build, 1 pool."""
        steps = value_only_steps(water32_matrices, 6)
        ctx = SubmatrixContext(
            EngineConfig(
                engine="batched", eps_filter=EPS, backend="thread", max_workers=2
            )
        )
        traj = ctx.trajectory(steps, water32_matrices.blocks, n_electrons=N_ELECTRONS)
        stats = traj.stats
        assert isinstance(traj, TrajectoryResult)
        assert isinstance(stats, TrajectoryStats)
        assert stats.n_steps == 6
        assert stats.plans_built == 1
        assert stats.plan_cache_hits == 5
        assert stats.pattern_changes == 0
        assert stats.executors_created == 1
        assert ctx.stats()["executors_created"] == 1
        assert stats.reuse_rate == pytest.approx(5 / 6)
        assert stats.steps[0].pattern_changed  # nothing to reuse yet
        assert not any(record.pattern_changed for record in stats.steps[1:])
        assert all(
            record.pattern_fingerprint == stats.steps[0].pattern_fingerprint
            for record in stats.steps
        )
        assert stats.total_wall_time == pytest.approx(
            sum(record.wall_time for record in stats.steps)
        )
        ctx.close()

    def test_steps_bitwise_identical_to_fresh_calls(self, water32_matrices):
        """Acceptance: per-step results ≡ fresh single-shot density calls."""
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(steps, water32_matrices.blocks, n_electrons=N_ELECTRONS)
        for step, (K, S) in enumerate(steps):
            fresh = SubmatrixContext(
                EngineConfig(engine="batched", eps_filter=EPS)
            ).density(K, S, water32_matrices.blocks, n_electrons=N_ELECTRONS)
            assert np.array_equal(traj[step].density_ao, fresh.density_ao), step
            assert traj[step].mu == fresh.mu
            assert traj[step].band_energy == fresh.band_energy
        # the μ really moves along the trajectory (the steps are distinct)
        assert len(set(traj.mus.tolist())) > 1

    def test_result_conveniences(self, water32_matrices):
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(steps, water32_matrices.blocks, n_electrons=N_ELECTRONS)
        assert len(traj) == 5
        assert [r.mu for r in traj] == traj.mus.tolist()
        assert traj.band_energies.shape == (5,)
        assert traj[0] is traj.results[0]


class TestPatternChanges:
    def test_pattern_change_detected_and_replanned(self, water32_matrices, gap_mu):
        steps = value_only_steps(water32_matrices, 3)
        steps += [pattern_breaking_step(water32_matrices)] * 2
        ctx = SubmatrixContext(
            EngineConfig(engine="batched", eps_filter=EPS_SPARSE)
        )
        traj = ctx.trajectory(steps, water32_matrices.blocks, mu=gap_mu)
        stats = traj.stats
        assert stats.n_steps == 5
        # the rescaled matrix retains more blocks after filtering: one replan
        assert stats.steps[3].pattern_changed
        assert stats.steps[3].plans_built == 1
        assert stats.plans_built == 2
        assert stats.pattern_changes == 1
        assert not stats.steps[4].pattern_changed  # the new pattern is stable
        assert (
            stats.steps[3].pattern_fingerprint
            != stats.steps[0].pattern_fingerprint
        )

    def test_changed_values_are_not_stale(self, water32_matrices):
        """A cache hit must never replay a previous step's values."""
        steps = value_only_steps(water32_matrices, 2, scale=5e-4)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS
        )
        assert traj.stats.plans_built == 1
        assert traj.stats.plan_cache_hits == 1
        # the scaled spectrum moves both μ and the band energy; a stale
        # plan replaying step 0's packed values would reproduce them
        assert traj[1].mu != traj[0].mu
        assert traj[1].band_energy != traj[0].band_energy


    @pytest.mark.parametrize("ranks", [None, 2])
    def test_drifting_pattern_builds_once_per_pattern_and_returns_to_a_hit(
        self, water32_matrices, ranks
    ):
        """A → A′ → B → B′ → A: a changed pattern is a build, a seen one a hit.

        Every step equals what a fresh session computes for its ``(K, S)`` —
        densities bitwise, and for sharded runs the rank assignment too.
        """
        pair = water32_matrices
        config = EngineConfig(engine="batched", eps_filter=EPS_SPARSE)
        k_b = pattern_breaking_step(pair)[0]
        steps = [
            (pair.K, pair.S),
            (pair.K * (1.0 + 1e-4), pair.S),
            (k_b, pair.S),
            (k_b * (1.0 + 1e-4), pair.S),
            (pair.K, pair.S),
        ]
        request = dict(n_electrons=N_ELECTRONS, ranks=ranks)
        with SubmatrixContext(config) as ctx:
            traj = ctx.trajectory(steps, pair.blocks, **request)
            records = traj.stats.steps
            assert [r.pattern_changed for r in records] == [
                True, False, True, False, True,
            ]
            assert [r.plans_built for r in records] == [1, 0, 1, 0, 0]
            # back on A, found by content: the plan for a single process, the
            # pipeline holding it for a sharded run
            if ranks is None:
                assert records[4].plan_cache_hits == 1
            else:
                assert [r.pipelines_built for r in records] == [1, 0, 1, 0, 0]
            assert traj.stats.plans_built == 2
            assert traj.stats.pattern_changes == 2
            assert ctx.plan_cache.stats["patches"] == 0
            for step, (K, S) in enumerate(steps):
                with SubmatrixContext(config) as fresh:
                    want = fresh.density(K, S, pair.blocks, **request)
                    assert np.array_equal(traj[step].density_ao, want.density_ao)
                    assert traj[step].mu == want.mu
                    if ranks is not None:
                        prepared = prepare_step(K, S, pair.blocks, EPS_SPARSE)
                        lookup = (prepared.coo, prepared.block_k.row_block_sizes)
                        built = ctx.stats()["pipelines_built"]
                        mine = ctx.pipeline(*lookup, n_ranks=ranks, bucket_pad=None)
                        assert ctx.stats()["pipelines_built"] == built
                        theirs = fresh.pipeline(*lookup, n_ranks=ranks, bucket_pad=None)
                        assert np.array_equal(mine.rank_of_group, theirs.rank_of_group)
                exact = reference_density_matrix(K, S, n_electrons=N_ELECTRONS)
                error = np.abs(traj[step].density_ao - exact.density_ao).max()
                assert error < 0.1 * EPS_SPARSE  # measured 4.3e-4 (A), 1.3e-4 (B)


class TestStepSpecifications:
    def test_callback_steps_with_n_steps(self, water32_matrices):
        pair = water32_matrices

        def step(index):
            return pair.K * (1.0 + 1e-4 * index), pair.S

        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(
            step, pair.blocks, n_electrons=N_ELECTRONS, n_steps=5
        )
        assert traj.stats.n_steps == 5
        assert traj.stats.plans_built == 1

    def test_callback_ends_trajectory_with_none(self, water32_matrices):
        pair = water32_matrices

        def step(index):
            if index >= 3:
                return None
            return pair.K * (1.0 + 1e-4 * index), pair.S

        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(step, pair.blocks, n_electrons=N_ELECTRONS)
        assert traj.stats.n_steps == 3

    def test_n_steps_truncates_sequences(self, water32_matrices):
        steps = value_only_steps(water32_matrices, 6)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS, n_steps=2
        )
        assert traj.stats.n_steps == 2

    def test_per_step_mu_sequence(self, water32_matrices, gap_mu):
        steps = value_only_steps(water32_matrices, 3)
        mus = [gap_mu - 0.05, gap_mu, gap_mu + 0.05]
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(steps, water32_matrices.blocks, mu=mus)
        assert traj.mus.tolist() == [float(m) for m in mus]
        assert traj.stats.plans_built == 1

    def test_requires_exactly_one_ensemble(self, water32_matrices):
        pair = water32_matrices
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        with pytest.raises(ValueError):
            ctx.trajectory([(pair.K, pair.S)], pair.blocks)
        with pytest.raises(ValueError):
            ctx.trajectory(
                [(pair.K, pair.S)], pair.blocks, mu=0.0, n_electrons=1.0
            )


    def test_steps_exception_surfaces_after_prior_results(self, water32_matrices):
        """A raising steps callback fails at its own step, never earlier."""
        pair = water32_matrices
        steps = value_only_steps(pair, 4)
        calls = []

        class Killed(Exception):
            pass

        def dying_steps(index):
            calls.append(index)
            if index == 2:
                raise Killed()
            return steps[index] if index < len(steps) else None

        config = EngineConfig(engine="batched", eps_filter=EPS)
        with SubmatrixContext(config) as ctx:
            with pytest.raises(Killed):
                ctx.trajectory(
                    dying_steps, pair.blocks, n_electrons=N_ELECTRONS, ranks=2
                )
        assert calls == [0, 1, 2]


class TestAdaptiveHalfWidth:
    def test_no_history_uses_fixed_width(self):
        assert adaptive_half_width([], 1e-9) == WARM_START_HALF_WIDTH
        assert adaptive_half_width([-0.2], 1e-9) == WARM_START_HALF_WIDTH

    def test_fixed_width_respects_floor(self):
        tolerance = 0.5
        assert adaptive_half_width([-0.2], tolerance) == 8.0 * tolerance

    def test_settled_history_shrinks_to_floor(self):
        assert adaptive_half_width([-0.2, -0.2, -0.2], 1e-6) == 8.0e-6

    def test_drifting_history_doubles_largest_recent_step(self):
        width = adaptive_half_width([-0.30, -0.29, -0.285], 1e-9)
        assert width == pytest.approx(2.0 * 0.01)

    def test_only_recent_drift_counts(self):
        # the big early jump falls outside the 5-value window
        history = [5.0, 0.0, 0.01, 0.011, 0.0112, 0.0113]
        width = adaptive_half_width(history, 1e-9)
        assert width == pytest.approx(2.0 * 0.01)

    def test_floor_dominates_tiny_drift(self):
        assert adaptive_half_width([-0.2, -0.2 + 1e-12], 1e-6) == 8.0e-6


class TestShardedTrajectory:
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_sharded_steps_bitwise_and_pipeline_reuse(
        self, water32_matrices, ranks
    ):
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS, ranks=ranks
        )
        stats = traj.stats
        assert stats.plans_built == 1
        assert stats.pipelines_built == 1  # shard layouts shared by all steps
        assert all(
            record.segment_fetch_bytes is not None for record in stats.steps
        )
        single = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS
        )
        for step in range(len(steps)):
            assert np.array_equal(
                traj[step].density_ao, single[step].density_ao
            ), step
            assert traj[step].mu == single[step].mu

    def test_sharded_iterative_trajectory(self, water32_matrices, gap_mu):
        """Grand-canonical Newton–Schulz steps run sharded with full reuse."""
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        sharded = ctx.trajectory(
            steps, water32_matrices.blocks, mu=gap_mu,
            solver="newton_schulz", ranks=2,
        )
        single = ctx.trajectory(
            steps, water32_matrices.blocks, mu=gap_mu, solver="newton_schulz"
        )
        assert sharded.stats.plans_built == 1
        assert single.stats.plans_built == 0  # pattern already planned above
        for step in range(len(steps)):
            assert np.array_equal(
                sharded[step].density_ao, single[step].density_ao
            ), step

    def test_explicit_distribution_reuses_one_pipeline(self, water32_matrices):
        """An explicit block distribution must not force a replan per step."""
        from repro.dbcsr.distribution import BlockDistribution, ProcessGrid2D
        from repro.parallel.topology import balanced_dims

        n_blocks = 32
        grid = ProcessGrid2D(2, balanced_dims(2))
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(
            steps,
            water32_matrices.blocks,
            n_electrons=N_ELECTRONS,
            ranks=2,
            distribution=BlockDistribution(n_blocks, n_blocks, grid),
        )
        assert traj.stats.pipelines_built == 1
        # equal-content distribution objects share the cached pipeline
        again = ctx.trajectory(
            steps,
            water32_matrices.blocks,
            n_electrons=N_ELECTRONS,
            ranks=2,
            distribution=BlockDistribution(n_blocks, n_blocks, grid),
        )
        assert again.stats.pipelines_built == 0
        default = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS, ranks=2
        )
        for step in range(len(steps)):
            assert np.array_equal(traj[step].density_ao, default[step].density_ao)

    def test_distributed_session_trajectory(self, water32_matrices):
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        sharded_ctx = SubmatrixContext(EngineConfig(eps_filter=EPS, n_ranks=2))
        via_session = sharded_ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS
        )
        direct = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS, ranks=2
        )
        for step in range(len(steps)):
            assert np.array_equal(
                via_session[step].density_ao, direct[step].density_ao
            )
        assert all(r.n_ranks == 2 for r in via_session)


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


class _Killed(Exception):
    pass


class TestCheckpointResume:
    def test_resume_is_bitwise_identical_to_uninterrupted(
        self, water32_matrices, tmp_path
    ):
        """Regression: kill at step 3, resume → identical densities and μ."""
        pair = water32_matrices
        steps = value_only_steps(pair, 5)
        config = EngineConfig(engine="batched", eps_filter=EPS)
        with SubmatrixContext(config) as ctx:
            uninterrupted = ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, warm_start_mu=True
            )

        checkpoint = tmp_path / "ckpt"

        def dying_steps(index):
            if index == 3:
                raise _Killed()
            return steps[index] if index < len(steps) else None

        with SubmatrixContext(config) as ctx:
            with pytest.raises(_Killed):
                ctx.trajectory(
                    dying_steps,
                    pair.blocks,
                    n_electrons=N_ELECTRONS,
                    warm_start_mu=True,
                    checkpoint=checkpoint,
                )
        assert TrajectoryCheckpoint(checkpoint).n_saved_steps == 3

        with SubmatrixContext(config) as ctx:
            resumed = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                warm_start_mu=True,
                checkpoint=checkpoint,
            )
        assert resumed.stats.steps_resumed == 3
        assert [r.resumed for r in resumed.stats.steps] == [
            True, True, True, False, False,
        ]
        assert len(resumed.results) == len(uninterrupted.results)
        for before, after in zip(uninterrupted.results, resumed.results):
            assert np.array_equal(before.density_ao, after.density_ao)
            assert before.mu == after.mu
            assert before.band_energy == after.band_energy

    def test_completed_checkpoint_replays_every_step(
        self, water32_matrices, tmp_path
    ):
        pair = water32_matrices
        steps = value_only_steps(pair, 3)
        config = EngineConfig(engine="batched", eps_filter=EPS)
        with SubmatrixContext(config) as ctx:
            first = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                checkpoint=tmp_path / "done",
            )
        with SubmatrixContext(config) as ctx:
            replay = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                checkpoint=tmp_path / "done",
            )
        assert replay.stats.steps_resumed == 3
        assert replay.stats.plans_built == 0  # nothing recomputed
        for before, after in zip(first.results, replay.results):
            assert np.array_equal(before.density_ao, after.density_ao)
            assert before.pattern_fingerprint == after.pattern_fingerprint
            assert np.array_equal(
                before.density_ortho.toarray(), after.density_ortho.toarray()
            )

    def test_signature_mismatch_raises(self, water32_matrices, tmp_path):
        pair = water32_matrices
        steps = value_only_steps(pair, 2)
        config = EngineConfig(engine="batched", eps_filter=EPS)
        with SubmatrixContext(config) as ctx:
            ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                checkpoint=tmp_path / "sig",
            )
        with SubmatrixContext(config) as ctx:
            with pytest.raises(CheckpointError, match="different parameters"):
                ctx.trajectory(
                    steps,
                    pair.blocks,
                    mu=-0.2,  # different ensemble than the saved trajectory
                    checkpoint=tmp_path / "sig",
                )

    def test_replan_key_of_an_old_manifest_is_ignored(
        self, water32_matrices, tmp_path
    ):
        """Directories written while trajectories took ``replan=`` resume."""
        pair = water32_matrices
        steps = value_only_steps(pair, 2)
        config = EngineConfig(engine="batched", eps_filter=EPS)
        directory = tmp_path / "old"
        with SubmatrixContext(config) as ctx:
            first = ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, checkpoint=directory
            )
        manifest_path = directory / "trajectory.json"
        manifest = json.loads(manifest_path.read_text())
        assert "replan" not in manifest["signature"]

        def rewrite(**changes):
            signature = dict(manifest["signature"], **changes)
            manifest_path.write_text(json.dumps(dict(manifest, signature=signature)))

        rewrite(replan="patch")
        with SubmatrixContext(config) as ctx:
            resumed = ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, checkpoint=directory
            )
        assert resumed.stats.steps_resumed == 2
        for before, after in zip(first.results, resumed.results):
            assert np.array_equal(before.density_ao, after.density_ao)
            assert before.mu == after.mu
        rewrite(replan="patch", solver="newton_schulz")
        with SubmatrixContext(config) as ctx:
            with pytest.raises(CheckpointError, match="different parameters"):
                ctx.trajectory(
                    steps, pair.blocks, n_electrons=N_ELECTRONS, checkpoint=directory
                )

    def test_missing_step_load_raises(self, tmp_path):
        checkpoint = TrajectoryCheckpoint(tmp_path / "empty")
        assert checkpoint.n_saved_steps == 0
        assert not checkpoint.has_step(0)
        with pytest.raises(CheckpointError, match="no saved step"):
            checkpoint.load_step(0)

    def test_manifest_that_is_not_an_object_raises(self, tmp_path):
        directory = tmp_path / "array"
        directory.mkdir()
        (directory / "trajectory.json").write_text(json.dumps([1, 2]))
        with pytest.raises(CheckpointError, match="JSON list, not an object"):
            TrajectoryCheckpoint(directory)

    def test_manifest_of_another_version_raises(self, tmp_path):
        """A manifest of another format version is refused, not resumed."""
        directory = tmp_path / "skewed"
        TrajectoryCheckpoint(directory).ensure_signature({"solver": "eigen"})
        manifest_path = directory / "trajectory.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 1
        TrajectoryCheckpoint(directory)  # its own version resumes
        manifest_path.write_text(json.dumps(dict(manifest, version=7)))
        with pytest.raises(CheckpointError, match="format version 7"):
            TrajectoryCheckpoint(directory)

    def test_truncated_step_file_raises_checkpoint_error(
        self, water32_matrices, tmp_path
    ):
        """A step file cut short is a corrupt checkpoint, not a zip error."""
        pair = water32_matrices
        steps = value_only_steps(pair, 2)
        config = EngineConfig(engine="batched", eps_filter=EPS)
        directory = tmp_path / "cut"
        with SubmatrixContext(config) as ctx:
            ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, checkpoint=directory
            )
        step_file = directory / "step_00001.npz"
        content = step_file.read_bytes()
        step_file.write_bytes(content[: len(content) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint step file"):
            TrajectoryCheckpoint(directory).load_step(1)
        with SubmatrixContext(config) as ctx:
            with pytest.raises(CheckpointError, match="corrupt checkpoint step file"):
                ctx.trajectory(
                    steps, pair.blocks, n_electrons=N_ELECTRONS, checkpoint=directory
                )

    def test_retired_counter_slots_are_ignored_on_load(
        self, water32_matrices, tmp_path
    ):
        """Step files whose counters carry non-zero values in the retired
        slots 2, 3 and 5 (as older code wrote them) still resume."""
        pair = water32_matrices
        steps = value_only_steps(pair, 2)
        config = EngineConfig(engine="batched", eps_filter=EPS)
        directory = tmp_path / "six_slots"
        with SubmatrixContext(config) as ctx:
            first = ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, checkpoint=directory
            )
        step_file = directory / "step_00000.npz"
        with np.load(step_file) as data:
            arrays = {key: data[key] for key in data.files}
        assert arrays["counters"].tolist()[2:] == [0, 0, 0, 0]
        mu_iterations, n_ranks = arrays["counters"][:2]
        arrays["counters"] = np.asarray(
            [mu_iterations, n_ranks, 3, 2, 1, 1], dtype=np.int64
        )
        with open(step_file, "wb") as handle:
            np.savez(handle, **arrays)
        loaded = TrajectoryCheckpoint(directory).load_step(0)
        assert loaded.kernel_fallbacks == 1
        assert loaded.mu_iterations == first[0].mu_iterations
        assert np.array_equal(loaded.density_ao, first[0].density_ao)
        with SubmatrixContext(config) as ctx:
            resumed = ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, checkpoint=directory
            )
        assert resumed.stats.steps_resumed == 2
        assert resumed.stats.kernel_fallbacks == 1
        for before, after in zip(first.results, resumed.results):
            assert np.array_equal(before.density_ao, after.density_ao)
