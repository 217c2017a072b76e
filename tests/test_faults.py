"""Fault injection and resilience tests.

Covers the acceptance criteria of the fault-tolerance tentpole:

* deterministic fault injection: same plan + seed + call sequence → the
  same injected faults, independent of thread interleaving;
* clear :class:`~repro.parallel.comm.CommError` diagnostics (rank id and
  mailbox state) from :class:`~repro.parallel.comm.SimComm`;
* :func:`~repro.parallel.executor.map_parallel` wraps worker exceptions
  with the failing task index while staying catchable
  as the original exception type;
* **property**: densities computed under injected rank crashes and forced
  kernel non-convergence are bitwise identical to fault-free runs, for
  rank counts {1, 2, 4} and several injection seeds;
* graceful degradation to the single-process batched engine stays bitwise
  identical, and kernel fallbacks are recorded rather than raised;
* **regression**: a trajectory killed mid-run and resumed from its
  checkpoint produces bitwise-identical results to an uninterrupted run.
"""

import json

import numpy as np
import pytest

from conftest import run_pipeline
from submatrix_reference import matrix_for_pattern, poly, random_pattern

from repro.api import (
    CheckpointError,
    EngineConfig,
    ResiliencePolicy,
    SubmatrixContext,
    TrajectoryCheckpoint,
)
from repro.core.runner import (
    DistributedSubmatrixPipeline,
    PipelineExecutionError,
    ResilienceReport,
)
from repro.dbcsr.convert import block_matrix_to_csr
from repro.parallel.comm import CommRankError, CommRecvError, SimComm
from repro.parallel.executor import TaskExecutionError, map_parallel
from repro.parallel.faults import (
    DEFAULT_KERNEL_CAP,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    WorkerCrashError,
)

EPS = 1e-5
N_ELECTRONS = 8.0 * 32
MU = -0.2


# --------------------------------------------------------------------------- #
# fault injector determinism
# --------------------------------------------------------------------------- #
class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="")
        with pytest.raises(ValueError):
            FaultSpec(site="rank", times=0)
        with pytest.raises(ValueError):
            FaultSpec(site="rank", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="rank", period=0)

    def test_transient_fault_fires_once(self):
        injector = FaultInjector(FaultPlan.rank_crashes([1], seed=3))
        assert injector.fire("rank", 0) is None
        assert injector.fire("rank", 1) is not None
        assert injector.fire("rank", 1) is None  # retry passes
        assert injector.n_injected == 1
        assert injector.occurrences("rank", 1) == 2

    def test_period_alternates_fail_and_recover(self):
        injector = FaultInjector(
            [FaultSpec(site="rank", key=0, times=None, period=2)]
        )
        outcomes = [injector.fire("rank", 0) is not None for _ in range(6)]
        assert outcomes == [True, False, True, False, True, False]

    def test_after_skips_initial_occurrences(self):
        injector = FaultInjector([FaultSpec(site="worker", key=2, after=2)])
        assert injector.fire("worker", 2) is None
        assert injector.fire("worker", 2) is None
        assert injector.fire("worker", 2) is not None

    def test_decisions_independent_of_cross_key_order(self):
        """Same per-key sequences → same events, whatever the interleaving."""
        plan = FaultPlan(
            specs=(FaultSpec(site="rank", probability=0.5, times=None),),
            seed=11,
        )
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        keys = [0, 1, 2, 3] * 5
        for key in keys:  # interleaved
            first.fire("rank", key)
        for key in sorted(keys):  # grouped by key
            second.fire("rank", key)
        def by_key(injector):
            return sorted(
                (e.site, e.key, e.occurrence) for e in injector.events
            )
        assert by_key(first) == by_key(second)
        assert first.n_injected > 0  # p=0.5 over 20 queries fires some

    def test_probability_zero_and_one(self):
        never = FaultInjector([FaultSpec(site="rank", probability=0.0, times=None)])
        always = FaultInjector([FaultSpec(site="rank", probability=1.0, times=None)])
        assert all(never.fire("rank", k) is None for k in range(10))
        assert all(always.fire("rank", k) is not None for k in range(10))

    def test_kernel_cap_and_reset(self):
        injector = FaultInjector(
            FaultPlan.kernel_stalls("newton_schulz", seed=0, times=1, cap=2)
        )
        assert injector.kernel_cap("newton_schulz") == 2
        assert injector.kernel_cap("newton_schulz") is None  # exhausted
        assert injector.kernel_cap("pade") is None  # different key
        injector.reset()
        assert injector.kernel_cap("newton_schulz") == 2
        bare = FaultInjector(FaultPlan.kernel_stalls("pade", seed=0, times=1))
        assert bare.kernel_cap("pade") == DEFAULT_KERNEL_CAP

    def test_maybe_crash_raises_typed_errors(self):
        injector = FaultInjector(
            [FaultSpec(site="worker", key=3), FaultSpec(site="rank", key=1)]
        )
        with pytest.raises(WorkerCrashError) as info:
            injector.maybe_crash("worker", 3)
        assert info.value.key == 3 and info.value.site == "worker"
        with pytest.raises(Exception) as info:
            injector.maybe_crash("rank", 1)
        assert info.value.occurrence == 0


# --------------------------------------------------------------------------- #
# SimComm diagnostics and fault sites
# --------------------------------------------------------------------------- #
class TestSimCommFaults:
    def test_unknown_rank_error_carries_rank_and_state(self):
        comm = SimComm(2)
        comm.send(0, 1, np.zeros(4), tag="data")
        with pytest.raises(CommRankError) as info:
            comm.send(0, 7, b"x")
        assert info.value.rank == 7
        assert info.value.mailbox_state == {(1, "data"): 1}
        assert "rank 7" in str(info.value)
        assert isinstance(info.value, IndexError)  # legacy compatibility

    def test_recv_empty_mailbox_error_carries_state(self):
        comm = SimComm(3)
        comm.send(0, 2, 1.0, tag="other")
        with pytest.raises(CommRecvError) as info:
            comm.recv(1, tag="missing")
        assert info.value.rank == 1
        assert info.value.mailbox_state == {(2, "other"): 1}
        assert "tag 'missing'" in str(info.value)
        assert "pending mailboxes" in str(info.value)
        assert isinstance(info.value, LookupError)  # legacy compatibility

    def test_recv_source_filter_miss_mentions_source(self):
        comm = SimComm(3)
        comm.send(0, 1, "payload")
        with pytest.raises(CommRecvError, match="from 2"):
            comm.recv(1, source=2)

    def test_crash_rank_blocks_operations_until_restore(self):
        comm = SimComm(2)
        comm.crash_rank(1)
        assert comm.crashed_ranks == frozenset({1})
        with pytest.raises(CommRankError, match="crashed"):
            comm.send(0, 1, 1.0)
        with pytest.raises(CommRankError, match="crashed"):
            comm.recv(1)
        comm.restore_rank(1)
        comm.send(0, 1, 1.0)
        assert comm.recv(1) == (0, 1.0)

    def test_injected_comm_crash_marks_rank(self):
        injector = FaultInjector([FaultSpec(site="comm_crash", key=1)])
        comm = SimComm(2, fault_injector=injector)
        with pytest.raises(CommRankError, match="crashed"):
            comm.send(0, 1, 1.0)
        comm.restore_rank(1)
        comm.send(0, 1, 2.0)  # transient spec exhausted; rank healthy again
        assert comm.recv(1) == (0, 2.0)

    def test_injected_message_loss_accounts_but_never_delivers(self):
        injector = FaultInjector([FaultSpec(site="message", key=(0, 1))])
        comm = SimComm(2, fault_injector=injector)
        comm.send(0, 1, np.zeros(8))
        assert comm.pending_messages(1) == 0  # dropped
        assert comm.log.ranks[0].bytes_sent == 64.0  # still accounted
        comm.send(0, 1, np.zeros(8))  # spec exhausted: delivered
        assert comm.pending_messages(1) == 1


# --------------------------------------------------------------------------- #
# map_parallel task-context wrapping
# --------------------------------------------------------------------------- #
def _explode_on_three(value):
    if value == 3:
        raise ValueError(f"bad value {value}")
    return value * 2


class TestMapParallelWrapping:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_wrapped_error_carries_task_context(self, backend):
        with pytest.raises(TaskExecutionError) as info:
            map_parallel(_explode_on_three, range(6), max_workers=2, backend=backend)
        error = info.value
        assert error.task_index == 3
        assert error.n_tasks == 6
        assert isinstance(error.original, ValueError)
        assert error.__cause__ is error.original
        assert "task 3 of 6" in str(error)

    def test_wrapped_error_still_matches_original_type(self):
        with pytest.raises(ValueError, match="bad value 3"):
            map_parallel(_explode_on_three, range(6), backend="serial")

    def test_lowest_failing_index_wins(self):
        def explode_even(value):
            if value % 2 == 0:
                raise KeyError(value)
            return value

        with pytest.raises(TaskExecutionError) as info:
            map_parallel(explode_even, range(6), backend="serial")
        assert info.value.task_index == 0
        assert isinstance(info.value, KeyError)

    def test_worker_fault_injection_site(self):
        injector = FaultInjector([FaultSpec(site="worker", key=2)])
        with pytest.raises(WorkerCrashError):
            map_parallel(
                lambda x: x, range(4), backend="serial", fault_injector=injector
            )
        # the transient spec is exhausted: the same mapping now succeeds
        assert map_parallel(
            lambda x: x, range(4), backend="serial", fault_injector=injector
        ) == [0, 1, 2, 3]


# --------------------------------------------------------------------------- #
# resilience policy plumbing
# --------------------------------------------------------------------------- #
class TestResiliencePolicy:
    def test_defaults_active_disabled_inactive(self):
        assert ResiliencePolicy().active
        disabled = ResiliencePolicy.disabled()
        assert not disabled.active
        assert disabled.max_rank_retries == 0
        assert disabled.kernel_fallback is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_rank_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(kernel_retry_growth=0.5)
        with pytest.raises(ValueError):
            ResiliencePolicy(stage_timeout=0.0)
        with pytest.raises(ValueError):
            EngineConfig(resilience="nope")

    def test_replace_and_config_embedding(self):
        policy = ResiliencePolicy().replace(max_rank_retries=3)
        assert policy.max_rank_retries == 3
        config = EngineConfig(resilience=policy)
        assert config.resilience.max_rank_retries == 3


# --------------------------------------------------------------------------- #
# bitwise recovery properties (the tentpole acceptance)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def baseline_canonical(water32_matrices):
    """Fault-free canonical density (bitwise-stable for any rank count)."""
    pair = water32_matrices
    with SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS)) as ctx:
        return ctx.density(
            pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS, ranks=2
        )


@pytest.fixture(scope="module")
def baseline_newton_schulz(water32_matrices):
    """Fault-free grand-canonical Newton–Schulz density."""
    pair = water32_matrices
    with SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS)) as ctx:
        return ctx.density(
            pair.K, pair.S, pair.blocks, mu=MU, solver="newton_schulz", ranks=2
        )


def _density_with_policy(pair, policy, ranks, **kwargs):
    config = EngineConfig(engine="batched", eps_filter=EPS, resilience=policy)
    with SubmatrixContext(config) as ctx:
        return ctx.density(pair.K, pair.S, pair.blocks, ranks=ranks, **kwargs)


class TestBitwiseRecovery:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_crash_recovery_is_bitwise(
        self, water32_matrices, baseline_canonical, ranks, seed
    ):
        """Property: crashed rank → retried shard, bitwise-identical density."""
        crashed = [seed % ranks]
        injector = FaultInjector(FaultPlan.rank_crashes(crashed, seed=seed))
        policy = ResiliencePolicy(fault_injector=injector)
        result = _density_with_policy(
            water32_matrices, policy, ranks, n_electrons=N_ELECTRONS
        )
        assert np.array_equal(
            result.density_ao, baseline_canonical.density_ao
        )
        assert result.mu == baseline_canonical.mu
        assert result.retries == 1
        assert not result.degraded
        if ranks > 1:
            assert result.reassigned_stacks > 0

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel_stall_recovery_is_bitwise(
        self, water32_matrices, baseline_newton_schulz, ranks, seed
    ):
        """Property: forced non-convergence → retried solve, bitwise result."""
        injector = FaultInjector(
            FaultPlan.kernel_stalls("newton_schulz", seed=seed)
        )
        policy = ResiliencePolicy(fault_injector=injector)
        result = _density_with_policy(
            water32_matrices, policy, ranks, mu=MU, solver="newton_schulz"
        )
        assert np.array_equal(
            result.density_ao, baseline_newton_schulz.density_ao
        )
        assert result.retries > 0
        assert result.kernel_fallbacks == 0

    def test_repeated_rank_failure_degrades_bitwise(
        self, water32_matrices, baseline_canonical
    ):
        """Every rank failing every attempt → single-process batched engine."""
        injector = FaultInjector(
            FaultPlan.rank_crashes([0, 1, 2, 3], seed=5, times=None)
        )
        policy = ResiliencePolicy(fault_injector=injector)
        result = _density_with_policy(
            water32_matrices, policy, 4, n_electrons=N_ELECTRONS
        )
        assert result.degraded
        assert np.array_equal(
            result.density_ao, baseline_canonical.density_ao
        )

    def test_exhausted_retries_raise_without_degradation(self, water32_matrices):
        injector = FaultInjector(
            FaultPlan.rank_crashes([0, 1], seed=5, times=None)
        )
        policy = ResiliencePolicy(
            fault_injector=injector, degrade_to_batched=False
        )
        with pytest.raises(PipelineExecutionError) as info:
            _density_with_policy(
                water32_matrices, policy, 2, n_electrons=N_ELECTRONS
            )
        assert set(info.value.failures) == {0, 1}
        assert info.value.attempts == 2  # first attempt + one retry round

    def test_kernel_fallback_is_recorded_not_raised(self, water32_matrices):
        """With no retry budget the stalled solves degrade to eigen, recorded."""
        injector = FaultInjector(
            FaultPlan.kernel_stalls("newton_schulz", seed=2)
        )
        policy = ResiliencePolicy(kernel_retries=0, fault_injector=injector)
        result = _density_with_policy(
            water32_matrices, policy, 2, mu=MU, solver="newton_schulz"
        )
        assert result.kernel_fallbacks > 0
        assert result.retries == 0
        # the eigen fallback computes the exact sign; the converged NS
        # iterates agree with it to the iteration tolerance, not bitwise
        with SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS)) as ctx:
            reference = ctx.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=MU,
                solver="newton_schulz",
                ranks=2,
            )
        assert np.allclose(
            result.density_ao, reference.density_ao, atol=1e-8
        )

    def test_persistent_crash_degrades_bitwise(self):
        """The rank loop with every rank down degrades to the unsharded unit."""
        rng = np.random.default_rng(60)
        n = int(rng.integers(8, 18))
        sizes = rng.integers(2, 6, n)
        coo = random_pattern(n, 0.25, rng)
        matrix = matrix_for_pattern(coo, sizes, rng)
        clean = run_pipeline(DistributedSubmatrixPipeline(coo, sizes, 4), matrix, poly)
        injector = FaultInjector(
            FaultPlan.rank_crashes([0, 1, 2, 3], seed=5, times=None)
        )
        report = ResilienceReport()
        result = run_pipeline(
            DistributedSubmatrixPipeline(coo, sizes, 4),
            matrix,
            poly,
            policy=ResiliencePolicy(fault_injector=injector),
            report=report,
        )
        assert report.degraded
        assert report.rank_retries == 4  # one retry round over all four ranks
        assert np.array_equal(
            block_matrix_to_csr(result).toarray(),
            block_matrix_to_csr(clean).toarray(),
        )
        with pytest.raises(PipelineExecutionError):
            run_pipeline(
                DistributedSubmatrixPipeline(coo, sizes, 4),
                matrix,
                poly,
                policy=ResiliencePolicy(
                    fault_injector=injector, degrade_to_batched=False
                ),
            )

    def test_inactive_policy_keeps_legacy_exception_types(self, water32_matrices):
        """ResiliencePolicy.disabled() must not wrap or guard anything."""
        result = _density_with_policy(
            water32_matrices,
            ResiliencePolicy.disabled(),
            2,
            n_electrons=N_ELECTRONS,
        )
        assert result.retries == 0
        assert not result.degraded


# --------------------------------------------------------------------------- #
# checkpoint / resume regression
# --------------------------------------------------------------------------- #
def _value_steps(pair, n_steps, scale=1e-4):
    return [(pair.K * (1.0 + scale * step), pair.S) for step in range(n_steps)]


class _Killed(Exception):
    pass


class TestCheckpointResume:
    def test_resume_is_bitwise_identical_to_uninterrupted(
        self, water32_matrices, tmp_path
    ):
        """Regression: kill at step 3, resume → identical densities and μ."""
        pair = water32_matrices
        steps = _value_steps(pair, 5)
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
        steps = _value_steps(pair, 3)
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
        steps = _value_steps(pair, 2)
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
                    mu=MU,  # different ensemble than the saved trajectory
                    checkpoint=tmp_path / "sig",
                )

    def test_replan_key_of_an_old_manifest_is_ignored(
        self, water32_matrices, tmp_path
    ):
        """Directories written while trajectories took ``replan=`` resume."""
        pair = water32_matrices
        steps = _value_steps(pair, 2)
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

    def test_trajectory_records_injected_recovery(self, water32_matrices):
        """Rank crashes inside a trajectory surface in the aggregate stats."""
        pair = water32_matrices
        steps = _value_steps(pair, 3)
        injector = FaultInjector(
            FaultPlan.rank_crashes([0], seed=9, times=None, period=2)
        )
        config = EngineConfig(
            engine="batched",
            eps_filter=EPS,
            resilience=ResiliencePolicy(fault_injector=injector),
        )
        with SubmatrixContext(config) as ctx:
            trajectory = ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, ranks=2
            )
        with SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS)) as ctx:
            reference = ctx.trajectory(
                steps, pair.blocks, n_electrons=N_ELECTRONS, ranks=2
            )
        assert trajectory.stats.retries > 0
        assert trajectory.stats.steps_resumed == 0
        for faulty, clean in zip(trajectory.results, reference.results):
            assert np.array_equal(faulty.density_ao, clean.density_ao)
