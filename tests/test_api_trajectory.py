"""Tests for the trajectory session driver (`repro.api.trajectory`).

Covers the contract of the one loop ``ctx.trajectory`` is:

* N ≥ 5 value-only geometry steps build exactly **one** plan and **one**
  executor, with every later step served from the plan cache;
* per-step results are bitwise identical to fresh single-shot
  ``context.density`` calls;
* a sparsity-pattern change between steps shows in the results'
  ``pattern_fingerprint`` and costs exactly one plan build — what a fresh
  session would build — and a return to an earlier pattern is a hit;
* rank-sharded trajectories reuse the context-cached pipeline across steps;
* every step is bitwise a cold ``ctx.density`` call on the same input —
  canonical at T = 0 and at 3000 K, grand-canonical — with the inert
  ``warm_start_mu=True`` passed; zero-step trajectories;
* checkpoint/resume, warm-started μ, the SCF driver, per-step records,
  per-step ensemble sequences and the served per-tenant metrics are gone:
  their modules, names and fields, and the keywords that reached them are a
  ``TypeError``.
"""

import dataclasses
import importlib

import numpy as np
import pytest

import repro
from repro.api import (
    EngineConfig,
    Observable,
    ObservableBundle,
    SubmatrixContext,
    TrajectoryResult,
    TrajectoryStats,
    run_trajectory,
)
from repro.api.observables import prepare_step, validate_request
from repro.api.results import EnergyWeightedDensityResult, PDOSResult
from repro.chem import reference_density_matrix
from repro.core.plan import PlanCache
from repro.serve import AdmissionController, DensityService

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


def per_step_counters(ctx):
    """An ``on_step`` callback and the list it fills: per step, the session's
    plan-cache misses and pipelines built so far."""
    seen = []

    def on_step(index, result):
        stats = ctx.stats()
        seen.append((stats["plan_cache"]["misses"], stats["pipelines_built"]))

    return on_step, seen


def deltas(counts):
    """Per-step increments of a cumulative counter that starts at 0."""
    return np.diff([0, *counts]).tolist()


class TestValueOnlyTrajectory:
    @pytest.mark.slow
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
        assert ctx.stats()["executors_created"] == 1
        assert len({result.pattern_fingerprint for result in traj}) == 1
        ctx.close()

    @pytest.mark.slow
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
        assert len({result.mu for result in traj}) > 1

    @pytest.mark.slow
    def test_result_conveniences(self, water32_matrices):
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(steps, water32_matrices.blocks, n_electrons=N_ELECTRONS)
        assert len(traj) == 5
        assert list(traj) == traj.results
        assert traj[0] is traj.results[0]


class TestPatternChanges:
    @pytest.mark.slow
    def test_pattern_change_detected_and_replanned(self, water32_matrices, gap_mu):
        steps = value_only_steps(water32_matrices, 3)
        steps += [pattern_breaking_step(water32_matrices)] * 2
        ctx = SubmatrixContext(
            EngineConfig(engine="batched", eps_filter=EPS_SPARSE)
        )
        on_step, seen = per_step_counters(ctx)
        traj = ctx.trajectory(steps, water32_matrices.blocks, mu=gap_mu, on_step=on_step)
        stats = traj.stats
        assert stats.n_steps == 5
        # the rescaled matrix retains more blocks after filtering: one replan
        fingerprints = [result.pattern_fingerprint for result in traj]
        assert fingerprints[3] != fingerprints[2]
        assert fingerprints[4] == fingerprints[3]  # the new pattern is stable
        assert deltas([misses for misses, _ in seen]) == [1, 0, 0, 1, 0]
        assert stats.plans_built == 2
        assert stats.pattern_changes == 1

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

    @pytest.mark.slow
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
            on_step, seen = per_step_counters(ctx)
            traj = ctx.trajectory(steps, pair.blocks, on_step=on_step, **request)
            fingerprints = [result.pattern_fingerprint for result in traj]
            assert [a != b for a, b in zip(fingerprints, fingerprints[1:])] == [
                False, True, False, True,
            ]
            assert deltas([misses for misses, _ in seen]) == [1, 0, 1, 0, 0]
            # back on A, found by content: the plan for a single process, the
            # pipeline holding it for a sharded run
            if ranks is None:
                assert traj.stats.plan_cache_hits == 3
            else:
                assert deltas([built for _, built in seen]) == [1, 0, 1, 0, 0]
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
                        mine = ctx.pipeline(*lookup, n_ranks=ranks)
                        assert ctx.stats()["pipelines_built"] == built
                        theirs = fresh.pipeline(*lookup, n_ranks=ranks)
                        assert np.array_equal(mine.rank_of_group, theirs.rank_of_group)
                exact = reference_density_matrix(K, S, n_electrons=N_ELECTRONS)
                error = np.abs(traj[step].density_ao - exact.density_ao).max()
                assert error < 0.1 * EPS_SPARSE  # measured 4.3e-4 (A), 1.3e-4 (B)


class TestStepSpecifications:
    @pytest.mark.slow
    def test_callback_steps(self, water32_matrices):
        pair = water32_matrices

        def step(index):
            if index >= 5:
                return None
            return pair.K * (1.0 + 1e-4 * index), pair.S

        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(step, pair.blocks, n_electrons=N_ELECTRONS)
        assert traj.stats.n_steps == 5
        assert traj.stats.plans_built == 1

    def test_generator_steps(self, water32_matrices):
        steps = value_only_steps(water32_matrices, 2)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(
            (step for step in steps), water32_matrices.blocks, n_electrons=N_ELECTRONS
        )
        assert traj.stats.n_steps == 2

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


class TestShardedTrajectory:
    @pytest.mark.slow
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_sharded_steps_bitwise_and_pipeline_reuse(
        self, water32_matrices, ranks
    ):
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        traj = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS, ranks=ranks
        )
        assert traj.stats.plans_built == 1
        # shard layouts shared by all steps
        assert ctx.stats()["pipelines_built"] == 1
        assert all(result.block_fetch_bytes is not None for result in traj)
        single = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS
        )
        for step in range(len(steps)):
            assert np.array_equal(
                traj[step].density_ao, single[step].density_ao
            ), step
            assert traj[step].mu == single[step].mu

    @pytest.mark.slow
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

    @pytest.mark.slow
    def test_distributed_session_trajectory(self, water32_matrices):
        steps = value_only_steps(water32_matrices, 5)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        sharded_ctx = SubmatrixContext(EngineConfig(eps_filter=EPS))
        via_session = sharded_ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS, ranks=2
        )
        direct = ctx.trajectory(
            steps, water32_matrices.blocks, n_electrons=N_ELECTRONS, ranks=2
        )
        for step in range(len(steps)):
            assert np.array_equal(
                via_session[step].density_ao, direct[step].density_ao
            )
        assert all(r.n_ranks == 2 for r in via_session)


class TestTrajectoryStepIsColdCall:
    """Every step is bitwise a cold ``ctx.density`` call on the same
    ``(K, S)``: nothing but the caches carries over from the step before, so
    μ's bits never depend on the previous step.  ``warm_start_mu=True`` is an
    inert keyword, accepted and ignored.  The default config pools the
    stacks when BLAS is pinned, so CI runs this class pinned as well."""

    ENSEMBLES = {
        # T = 0: the count is a step function and the bisection ends on an
        # exhausted bracket, where any seeded search would land elsewhere
        "canonical_T0": (0.0, "n_electrons"),
        "canonical_3000K": (3000.0, "n_electrons"),
        "grand_canonical": (0.0, "mu"),
    }

    @pytest.mark.slow
    @pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
    def test_every_step_is_a_cold_density_call(
        self, water32_matrices, gap_mu, ensemble
    ):
        pair = water32_matrices
        temperature, label = self.ENSEMBLES[ensemble]
        request = {"n_electrons": N_ELECTRONS, "mu": gap_mu}
        request = {label: request[label]}
        config = EngineConfig(eps_filter=EPS, temperature=temperature)
        steps = value_only_steps(pair, 3, scale=1e-3)
        colds = []
        for K, S in steps:
            with SubmatrixContext(config) as cold:
                colds.append(cold.density(K, S, pair.blocks, **request))
        with SubmatrixContext(config) as ctx:
            direct = ctx.trajectory(
                steps, pair.blocks, warm_start_mu=True, **request
            )
        assert len(direct) == len(steps)
        for result, cold in zip(direct, colds):
            assert result.mu == cold.mu
            assert result.mu_iterations == cold.mu_iterations
            assert np.array_equal(result.density_ao, cold.density_ao)
        if label == "n_electrons":
            # the steps differ, so a warm start would have had a seed to use
            assert len({result.mu for result in direct}) > 1


class TestDeletedTrajectoryLayers:
    """Structure guard: checkpoint/resume, warm-started μ, the SCF driver,
    the per-step records and sequences, and the served per-tenant metrics
    and byte accounting are deleted, and a keyword that reached them is
    refused before any work.  ``warm_start_mu`` survives only as
    ``ctx.trajectory``'s inert keyword."""

    @pytest.mark.parametrize(
        "module",
        ["repro.api.checkpoint", "repro.api.scf", "repro.serve.metrics"],
    )
    def test_module_is_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "name",
        [
            "TrajectoryCheckpoint",
            "CheckpointError",
            "run_scf",
            "SCFResult",
            "adaptive_half_width",
            "WARM_START_HALF_WIDTH",
            "TrajectoryStepRecord",
            "validate_trajectory",
            "ServiceMetrics",
            "LATENCY_WINDOW",
        ],
    )
    def test_name_is_gone(self, name):
        for module in (
            "repro",
            "repro.api",
            "repro.api.context",
            "repro.api.observables",
            "repro.api.trajectory",
            "repro.serve",
        ):
            assert not hasattr(importlib.import_module(module), name), module
        assert name not in repro.__all__

    @pytest.mark.parametrize(
        "record, removed",
        [
            (
                TrajectoryStats,
                {
                    "steps_resumed",
                    "executors_created",
                    "pipelines_built",
                    "total_wall_time",
                    "kernel_fallbacks",
                    "steps",
                },
            ),
            (Observable, {"checkpoint_save", "checkpoint_load"}),
        ],
        ids=["trajectory_stats", "observable"],
    )
    def test_record_field_is_gone(self, record, removed):
        assert not removed & {field.name for field in dataclasses.fields(record)}

    @pytest.mark.parametrize(
        "owner, attribute",
        [
            (TrajectoryResult, "mus"),
            (TrajectoryResult, "band_energies"),
            (ObservableBundle, "payload_nbytes"),
            (PDOSResult, "payload_nbytes"),
            (EnergyWeightedDensityResult, "payload_nbytes"),
            (DensityService, "density"),
            (PlanCache, "total_bytes"),
            (AdmissionController, "snapshot"),
        ],
    )
    def test_attribute_is_gone(self, owner, attribute):
        assert not hasattr(owner, attribute)

    @pytest.mark.parametrize(
        "entry, keyword",
        [
            ("density", "mu_bracket"),
            ("observables", "mu_bracket"),
            ("validate_request", "mu_bracket"),
            ("submit", "mu_bracket"),
            ("run_trajectory", "warm_start_mu"),
            ("trajectory", "checkpoint"),
            ("trajectory", "n_steps"),
            ("trajectory", "observables"),
            ("trajectory", "observable_params"),
        ],
    )
    def test_removed_keyword_is_a_type_error(
        self, water32_matrices, gap_mu, entry, keyword
    ):
        pair = water32_matrices
        request = {"mu": gap_mu, keyword: True}
        steps = [(pair.K, pair.S)]
        config = EngineConfig(engine="batched", eps_filter=EPS)
        with SubmatrixContext(config) as ctx, DensityService(config=config) as service:
            calls = {
                "density": lambda: ctx.density(pair.K, pair.S, pair.blocks, **request),
                "observables": lambda: ctx.observables(
                    pair.K, pair.S, pair.blocks, **request
                ),
                "validate_request": lambda: validate_request(
                    ctx.config, pair.blocks, **request
                ),
                "submit": lambda: service.submit(
                    pair.K, pair.S, pair.blocks, **request
                ),
                "run_trajectory": lambda: run_trajectory(
                    ctx, steps, pair.blocks, **request
                ),
                "trajectory": lambda: ctx.trajectory(steps, pair.blocks, **request),
            }
            with pytest.raises(TypeError, match=keyword):
                calls[entry]()
            assert ctx.plan_cache.stats["misses"] == 0  # nothing ran
            assert service.stats()["metrics"]["total"]["admitted"] == 0

    @pytest.mark.parametrize("keyword", ["latency_window", "dispatch_workers"])
    def test_removed_service_keyword_is_a_type_error(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            DensityService(**{keyword: 1})

    @pytest.mark.parametrize("label", ["mu", "n_electrons"])
    def test_per_step_sequence_is_refused_before_any_step(
        self, water32_matrices, gap_mu, label
    ):
        """An ensemble value is one scalar for every step; a sequence is a
        ``TypeError`` from the up-front check, before step 0 runs."""
        pair = water32_matrices
        value = {"mu": gap_mu, "n_electrons": N_ELECTRONS}[label]
        with SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS)) as ctx:
            with pytest.raises(TypeError, match=f"{label} must be a scalar"):
                ctx.trajectory(
                    value_only_steps(pair, 2), pair.blocks, **{label: [value, value]}
                )
            assert ctx.plan_cache.stats["misses"] == 0

    def test_stats_keys(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with DensityService(EngineConfig(eps_filter=EPS)) as service:
            service.submit(pair.K, pair.S, pair.blocks, mu=gap_mu).result(120)
            stats = service.stats()
        assert set(stats) == {"metrics", "plan_cache"}
        assert set(stats["metrics"]) == {"total"}
        assert set(stats["metrics"]["total"]) == {
            "admitted", "completed", "failed", "rejected",
            "batched", "coalesced", "shared",
        }


class TestZeroStepTrajectories:
    def make_context(self):
        return SubmatrixContext(EngineConfig(engine="batched", eps_filter=1e-5))

    def test_empty_sequence(self, water32_matrices):
        with self.make_context() as ctx:
            traj = ctx.trajectory([], water32_matrices.blocks, n_electrons=1.0)
        assert len(traj) == 0
        stats = traj.stats
        assert stats.n_steps == 0
        assert stats.plans_built == stats.plan_cache_hits == 0
        assert stats.pattern_changes == 0

    def test_callback_none_at_step_zero(self, water32_matrices):
        with self.make_context() as ctx:
            traj = ctx.trajectory(
                lambda index: None, water32_matrices.blocks, n_electrons=1.0
            )
        assert traj.stats.n_steps == 0

    def test_steps_none_raises(self, water32_matrices):
        with self.make_context() as ctx:
            with pytest.raises(ValueError, match="not None"):
                ctx.trajectory(None, water32_matrices.blocks, n_electrons=1.0)
