"""Tests for the array-backend seam and the mixed-precision execution policy.

Covers the PR's contracts:

* the :class:`~repro.backend.base.ArrayBackend` registry (``numpy`` default,
  ``emulated`` reduced-precision modes, user registration, instance caching);
* the kernel seams: every batched sign kernel routed through the default
  NumPy backend is **bitwise identical** to its pre-seam spelling;
* ``PrecisionPolicy(mode="fp64")`` (the default) is bitwise identical to the
  pre-refactor engine on the batched engine, sharded ranks {1, 2, 4, 8},
  trajectories with checkpointing, and served requests;
* reduced modes (``fp32``/``fp16``/``auto``) produce densities within the
  documented error model, with the per-result accounting
  (``stacks_reduced`` / ``refinement_passes`` / ``precision_error_bound``)
  populated end to end (result → trajectory → service metrics);
* the seed-era :mod:`repro.accel` behaviours the policy is built on: the
  FP16/FP16' involutority noise-floor plateau vs FP32/FP64 convergence
  (Figs 12–13) and the Table I throughput ordering of the performance model.

This file is part of the strict CI pass (``-W error::DeprecationWarning``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DensityService,
    EngineConfig,
    PrecisionPolicy,
    SubmatrixContext,
)
from repro.accel import (
    PRECISION_MODES,
    RTX_2080_TI,
    mixed_precision_sign_iteration,
    model_sign_algorithm_performance,
)
from repro.api import PRECISION_POLICY_MODES, TrajectoryCheckpoint
from repro.api.results import SubmatrixDFTResult
from repro.backend import (
    NUMPY_BACKEND,
    EmulatedPrecisionBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backend.mixed import (
    PrecisionReport,
    estimate_stack_condition,
    select_stack_mode,
    solve_reduced_sign,
)
from repro.serve import ServiceMetrics
from repro.serve.batcher import DensityRequest
from repro.signfn.eigen import sign_via_eigendecomposition_batched
from repro.signfn.newton_schulz import (
    refine_sign_newton_schulz_batched,
    sign_newton_schulz_batched,
)
from repro.signfn.pade import sign_pade
from repro.signfn.registry import get_kernel

N_ELECTRONS = 8.0 * 32


def spectrum_stack(k=3, n=12, lam_min=0.3, lam_max=2.0, seed=0):
    """A (k, n, n) stack of symmetric matrices with |λ| in [lam_min, lam_max]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, n, n)))
    lam = rng.uniform(lam_min, lam_max, (k, n)) * rng.choice([-1.0, 1.0], (k, n))
    return q * lam[:, None, :] @ np.swapaxes(q, -1, -2)


def assert_identical(result, reference):
    assert np.array_equal(result.density_ao, reference.density_ao)
    assert np.array_equal(
        result.density_ortho.toarray(), reference.density_ortho.toarray()
    )
    assert result.mu == reference.mu
    assert result.band_energy == reference.band_energy
    assert result.n_electrons == reference.n_electrons


# --------------------------------------------------------------------------- #
# backend registry
# --------------------------------------------------------------------------- #
class TestArrayBackendRegistry:
    def test_default_backend_is_numpy(self):
        xp = get_backend()
        assert xp.name == "numpy"
        assert xp is NUMPY_BACKEND or isinstance(xp, type(NUMPY_BACKEND))

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            get_backend("cupy")

    def test_numpy_rejects_reduced_precision(self):
        with pytest.raises(ValueError):
            get_backend("numpy", precision="FP16")

    def test_available_backends(self):
        names = available_backends()
        assert "numpy" in names and "emulated" in names

    def test_emulated_modes(self):
        for name in ("FP16", "FP16'", "FP32"):
            xp = get_backend("emulated", precision=name)
            assert isinstance(xp, EmulatedPrecisionBackend)
            assert xp.precision is PRECISION_MODES[name]
            assert xp.dtype == PRECISION_MODES[name].storage_dtype

    def test_emulated_default_is_fp32(self):
        assert get_backend("emulated").precision is PRECISION_MODES["FP32"]

    def test_emulated_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            get_backend("emulated", precision="FP8")

    def test_instances_cached(self):
        assert get_backend("emulated", precision="FP32") is get_backend(
            "emulated", precision="FP32"
        )

    def test_register_custom_backend(self):
        calls = []

        def factory(precision):
            calls.append(precision)
            return NUMPY_BACKEND

        register_backend("custom-test", factory)
        try:
            assert get_backend("custom-test") is NUMPY_BACKEND
            assert calls == [None]
        finally:
            from repro.backend.base import _INSTANCES, _REGISTRY

            _REGISTRY.pop("custom-test", None)
            _INSTANCES.pop(("custom-test", None), None)

    def test_emulated_eigh_promotes_half(self):
        xp = get_backend("emulated", precision="FP16")
        stack = xp.asarray(spectrum_stack(2, 8))
        eigenvalues, eigenvectors = xp.eigh(stack)
        # LAPACK has no half-precision drivers: the solve runs in float32
        # and the factors come back in storage dtype
        assert eigenvalues.dtype == np.float16
        assert eigenvectors.dtype == np.float16

    def test_to_numpy_returns_float64(self):
        xp = get_backend("emulated", precision="FP16")
        a = xp.asarray(np.ones((2, 2)))
        assert xp.to_numpy(a).dtype == np.float64


# --------------------------------------------------------------------------- #
# kernel seams: default path bitwise identical
# --------------------------------------------------------------------------- #
class TestKernelSeamBitwise:
    def test_newton_schulz_batched(self):
        stack = spectrum_stack(4, 10, seed=1)
        default = sign_newton_schulz_batched(stack)
        seamed = sign_newton_schulz_batched(stack, xp=NUMPY_BACKEND)
        assert np.array_equal(default.sign, seamed.sign)
        assert np.array_equal(default.iterations, seamed.iterations)
        assert np.array_equal(default.converged, seamed.converged)

    def test_pade(self):
        matrix = spectrum_stack(1, 14, seed=2)[0]
        default = sign_pade(matrix)
        seamed = sign_pade(matrix, xp=NUMPY_BACKEND)
        assert np.array_equal(default.sign, seamed.sign)
        assert default.iterations == seamed.iterations

    def test_eigen_batched(self):
        stack = spectrum_stack(3, 9, seed=3)
        default = sign_via_eigendecomposition_batched(stack)
        seamed = sign_via_eigendecomposition_batched(stack, xp=NUMPY_BACKEND)
        assert np.array_equal(default, seamed)

    def test_reduced_solve_on_emulated_backend(self):
        stack = spectrum_stack(3, 12, seed=4)
        xp = get_backend("emulated", precision="FP32")
        result = sign_newton_schulz_batched(
            stack, convergence_threshold=1e-6, xp=xp
        )
        exact = sign_via_eigendecomposition_batched(stack)
        assert result.sign.dtype == np.float32
        assert np.abs(np.asarray(result.sign, dtype=float) - exact).max() < 1e-4

    def test_refinement_recovers_fp64_accuracy(self):
        stack = spectrum_stack(3, 12, seed=5)
        exact = sign_via_eigendecomposition_batched(stack)
        noisy = exact + 1e-4 * spectrum_stack(3, 12, seed=6) / 2.0
        refined = refine_sign_newton_schulz_batched(noisy)
        assert bool(np.all(refined.converged))
        involutority = refined.sign @ refined.sign - np.eye(12)
        assert np.abs(involutority).max() < 1e-9


# --------------------------------------------------------------------------- #
# policy object
# --------------------------------------------------------------------------- #
class TestPrecisionPolicy:
    def test_default_is_inactive_fp64(self):
        policy = PrecisionPolicy()
        assert policy.mode == "fp64"
        assert not policy.active
        assert policy == PrecisionPolicy.disabled()

    def test_modes_validated(self):
        for mode in PRECISION_POLICY_MODES:
            PrecisionPolicy(mode=mode)
        with pytest.raises(ValueError):
            PrecisionPolicy(mode="fp8")

    def test_field_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(error_tolerance=0.0)
        with pytest.raises(ValueError):
            PrecisionPolicy(refinement_threshold=-1e-10)
        with pytest.raises(ValueError):
            PrecisionPolicy(max_refinement_iterations=0)
        with pytest.raises(ValueError):
            PrecisionPolicy(min_dimension=0)
        with pytest.raises(ValueError):
            PrecisionPolicy(gap_floor=0.0)

    def test_replace(self):
        policy = PrecisionPolicy().replace(mode="fp32")
        assert policy.active and policy.mode == "fp32"

    def test_engine_config_validates_nested_policy(self):
        config = EngineConfig(precision=PrecisionPolicy(mode="auto"))
        assert config.precision.mode == "auto"
        with pytest.raises(ValueError):
            EngineConfig(precision="fp32")  # type: ignore[arg-type]


# --------------------------------------------------------------------------- #
# mode selection and the reduced solve
# --------------------------------------------------------------------------- #
class TestMixedHelpers:
    def test_condition_estimate_positive(self):
        stack = spectrum_stack(3, 10, seed=7)
        kappa = estimate_stack_condition(stack, gap_floor=1e-2)
        assert kappa >= 1.0

    def test_condition_estimate_uses_gap_floor(self):
        stack = spectrum_stack(2, 10, seed=8)
        loose = estimate_stack_condition(stack, gap_floor=1e-1)
        tight = estimate_stack_condition(stack, gap_floor=1e-3)
        assert tight >= loose

    def test_min_dimension_gates(self):
        policy = PrecisionPolicy(mode="fp32", min_dimension=64)
        assert select_stack_mode(policy, spectrum_stack(2, 10)) is None

    def test_fixed_modes_map_to_paper_modes(self):
        stack = spectrum_stack(2, 10, seed=9)
        mode, bound = select_stack_mode(PrecisionPolicy(mode="fp32"), stack)
        assert mode is PRECISION_MODES["FP32"] and bound > 0.0
        mode, _ = select_stack_mode(PrecisionPolicy(mode="fp16"), stack)
        assert mode is PRECISION_MODES["FP16'"]

    def test_auto_respects_error_budget(self):
        stack = spectrum_stack(2, 10, seed=10)
        kappa = estimate_stack_condition(stack, gap_floor=1e-2)
        # generous budget: the fastest fitting candidate wins
        generous = PrecisionPolicy(
            mode="auto", error_tolerance=10.0 * PRECISION_MODES["FP16'"].epsilon * kappa
        )
        mode, bound = select_stack_mode(generous, stack)
        assert mode is PRECISION_MODES["FP16'"]
        assert bound <= generous.error_tolerance
        # impossible budget: every candidate is rejected
        impossible = PrecisionPolicy(mode="auto", error_tolerance=1e-15)
        assert select_stack_mode(impossible, stack) is None

    def test_auto_ranks_by_modeled_throughput(self):
        fp16p = model_sign_algorithm_performance(RTX_2080_TI, "FP16'")
        fp32 = model_sign_algorithm_performance(RTX_2080_TI, "FP32")
        assert fp16p.overall_tflops > fp32.overall_tflops

    def test_non_participating_kernel_returns_none(self):
        stack = spectrum_stack(2, 10, seed=11)
        policy = PrecisionPolicy(mode="fp32")
        assert solve_reduced_sign(get_kernel("eigen"), stack, policy) is None

    def test_reduced_solve_matches_exact_sign(self):
        stack = spectrum_stack(3, 12, seed=12)
        policy = PrecisionPolicy(mode="fp32")
        report = PrecisionReport()
        signs = solve_reduced_sign(
            get_kernel("newton_schulz"), stack, policy, report
        )
        assert signs is not None
        exact = sign_via_eigendecomposition_batched(stack)
        assert np.abs(signs - exact).max() < 1e-5
        assert report.stacks_reduced == 1
        assert report.refinement_passes == 1
        assert report.error_bound > 0.0
        assert report.modes == {"FP32": 1}

    def test_kernel_registry_metadata(self):
        assert get_kernel("newton_schulz").supports_reduced_precision
        assert get_kernel("pade").supports_reduced_precision
        assert not get_kernel("eigen").supports_reduced_precision
        assert not get_kernel("occupation").supports_reduced_precision


# --------------------------------------------------------------------------- #
# fp64 policy: bitwise identity on every execution path
# --------------------------------------------------------------------------- #
FP64_CONFIG = EngineConfig(
    engine="batched", precision=PrecisionPolicy(mode="fp64")
)
BASE_CONFIG = EngineConfig(engine="batched")


class TestFp64BitwiseIdentity:
    @pytest.mark.parametrize("solver", ["newton_schulz", "pade"])
    def test_batched_engine(self, water32_matrices, gap_mu, solver):
        with SubmatrixContext(BASE_CONFIG) as base, SubmatrixContext(
            FP64_CONFIG
        ) as fp64:
            reference = base.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver=solver,
            )
            result = fp64.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver=solver,
            )
        assert_identical(result, reference)
        assert result.stacks_reduced == 0
        assert result.refinement_passes == 0
        assert result.precision_error_bound is None

    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_sharded_ranks(self, water32_matrices, gap_mu, ranks):
        with SubmatrixContext(BASE_CONFIG) as base, SubmatrixContext(
            FP64_CONFIG
        ) as fp64:
            reference = base.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
                ranks=ranks,
            )
            result = fp64.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
                ranks=ranks,
            )
        assert_identical(result, reference)

    def test_trajectory_with_checkpoint(self, water32_matrices, gap_mu, tmp_path):
        steps = [
            (water32_matrices.K * (1.0 + 1e-4 * index), water32_matrices.S)
            for index in range(3)
        ]
        kwargs = dict(mu=gap_mu, solver="newton_schulz", replan="auto")
        with SubmatrixContext(BASE_CONFIG) as base:
            reference = base.trajectory(steps, water32_matrices.blocks, **kwargs)
        with SubmatrixContext(FP64_CONFIG) as fp64:
            traj = fp64.trajectory(
                steps,
                water32_matrices.blocks,
                checkpoint=tmp_path / "ckpt",
                **kwargs,
            )
        for result, expected in zip(traj.results, reference.results):
            assert_identical(result, expected)
        assert traj.stats.stacks_reduced == 0
        assert traj.stats.refinement_passes == 0
        assert traj.stats.precision_error_bound is None
        # resumed steps load the saved (zero) counters
        with SubmatrixContext(FP64_CONFIG) as fp64:
            resumed = fp64.trajectory(
                steps,
                water32_matrices.blocks,
                checkpoint=tmp_path / "ckpt",
                **kwargs,
            )
        assert resumed.stats.steps_resumed == len(steps)
        for result, expected in zip(resumed.results, reference.results):
            assert_identical(result, expected)

    def test_served_requests(self, water32_matrices, gap_mu):
        with SubmatrixContext(BASE_CONFIG) as base:
            reference = base.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
            )
        with DensityService(config=FP64_CONFIG) as service:
            served = service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
            )
            snapshot = service.stats()
        assert_identical(served, reference)
        assert snapshot["metrics"]["total"]["stacks_reduced"] == 0
        assert snapshot["metrics"]["total"]["refinement_passes"] == 0


# --------------------------------------------------------------------------- #
# reduced execution end to end
# --------------------------------------------------------------------------- #
class TestReducedExecution:
    @pytest.fixture(scope="class")
    def fp64_reference(self, water32_matrices, gap_mu):
        with SubmatrixContext(BASE_CONFIG) as context:
            return context.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
            )

    def _density(self, water32_matrices, gap_mu, policy, **kwargs):
        with SubmatrixContext(
            BASE_CONFIG.replace(precision=policy)
        ) as context:
            return context.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver=kwargs.pop("solver", "newton_schulz"),
                **kwargs,
            )

    def test_fp32_density_accuracy_and_accounting(
        self, water32_matrices, gap_mu, fp64_reference
    ):
        result = self._density(
            water32_matrices, gap_mu, PrecisionPolicy(mode="fp32")
        )
        assert result.stacks_reduced > 0
        assert result.refinement_passes == result.stacks_reduced
        assert result.precision_error_bound is not None
        assert result.precision_error_bound > 0.0
        error = np.abs(result.density_ao - fp64_reference.density_ao).max()
        assert error < 1e-5

    def test_fp16_density_runs_with_looser_error(
        self, water32_matrices, gap_mu, fp64_reference
    ):
        result = self._density(
            water32_matrices, gap_mu, PrecisionPolicy(mode="fp16")
        )
        assert result.stacks_reduced > 0
        error = np.abs(result.density_ao - fp64_reference.density_ao).max()
        assert error < 1e-2

    def test_fp32_sharded_matches_single_process_reduced(
        self, water32_matrices, gap_mu
    ):
        policy = PrecisionPolicy(mode="fp32")
        single = self._density(water32_matrices, gap_mu, policy)
        sharded = self._density(water32_matrices, gap_mu, policy, ranks=4)
        # the reduced solves prescale and freeze per matrix, so the sharded
        # reduced path is bitwise identical to the single-process one too
        assert np.array_equal(single.density_ao, sharded.density_ao)
        assert sharded.stacks_reduced > 0

    def test_pade_reduced_path(self, water32_matrices, gap_mu, fp64_reference):
        result = self._density(
            water32_matrices, gap_mu, PrecisionPolicy(mode="fp32"), solver="pade"
        )
        assert result.stacks_reduced > 0
        error = np.abs(result.density_ao - fp64_reference.density_ao).max()
        assert error < 1e-5

    def test_auto_with_tight_budget_equals_fp64(
        self, water32_matrices, gap_mu, fp64_reference
    ):
        result = self._density(
            water32_matrices,
            gap_mu,
            PrecisionPolicy(mode="auto", error_tolerance=1e-14),
        )
        assert result.stacks_reduced == 0
        assert np.array_equal(result.density_ao, fp64_reference.density_ao)

    def test_auto_with_loose_budget_engages_and_stays_within_it(
        self, water32_matrices, gap_mu, fp64_reference
    ):
        policy = PrecisionPolicy(mode="auto", error_tolerance=1e-2)
        result = self._density(water32_matrices, gap_mu, policy)
        assert result.stacks_reduced > 0
        assert result.precision_error_bound <= policy.error_tolerance
        error = np.abs(result.density_ao - fp64_reference.density_ao).max()
        assert error <= policy.error_tolerance

    def test_trajectory_accounting_and_checkpoint_roundtrip(
        self, water32_matrices, gap_mu, tmp_path
    ):
        steps = [
            (water32_matrices.K * (1.0 + 1e-4 * index), water32_matrices.S)
            for index in range(2)
        ]
        config = BASE_CONFIG.replace(precision=PrecisionPolicy(mode="fp32"))
        with SubmatrixContext(config) as context:
            traj = context.trajectory(
                steps,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
                checkpoint=tmp_path / "ckpt",
            )
        assert traj.stats.stacks_reduced > 0
        assert traj.stats.refinement_passes > 0
        assert traj.stats.precision_error_bound is not None
        per_step = traj.stats.steps[0]
        assert per_step.stacks_reduced > 0
        # a resumed run reloads the persisted counters verbatim
        with SubmatrixContext(config) as context:
            resumed = context.trajectory(
                steps,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
                checkpoint=tmp_path / "ckpt",
            )
        assert resumed.stats.steps_resumed == len(steps)
        assert resumed.stats.stacks_reduced == traj.stats.stacks_reduced
        assert resumed.stats.precision_error_bound == pytest.approx(
            traj.stats.precision_error_bound
        )


# --------------------------------------------------------------------------- #
# serving layer
# --------------------------------------------------------------------------- #
class TestServingPrecision:
    def test_batch_key_separates_precision_modes(self, water32_matrices):
        fp64 = SubmatrixContext(BASE_CONFIG)
        fp32 = SubmatrixContext(
            BASE_CONFIG.replace(precision=PrecisionPolicy(mode="fp32"))
        )
        try:

            def request(context):
                return DensityRequest(
                    tenant="t",
                    context=context,
                    K=water32_matrices.K,
                    S=water32_matrices.S,
                    blocks=water32_matrices.blocks,
                    mu=0.0,
                )

            assert request(fp64).batch_key != request(fp32).batch_key
            assert request(fp64).batch_key == request(fp64).batch_key
            assert "fp64" in request(fp64).batch_key
            assert "fp32" in request(fp32).batch_key
        finally:
            fp64.close()
            fp32.close()

    def test_metrics_accumulate_precision_counters(self):
        metrics = ServiceMetrics()
        metrics.record_completed(
            "alice", 0.1, stacks_reduced=3, refinement_passes=2
        )
        metrics.record_completed("alice", 0.2)
        snapshot = metrics.snapshot()
        assert snapshot["tenants"]["alice"]["stacks_reduced"] == 3
        assert snapshot["tenants"]["alice"]["refinement_passes"] == 2
        assert snapshot["total"]["stacks_reduced"] == 3
        assert snapshot["total"]["refinement_passes"] == 2

    def test_served_reduced_request_accounts_and_matches_direct(
        self, water32_matrices, gap_mu
    ):
        config = BASE_CONFIG.replace(precision=PrecisionPolicy(mode="fp32"))
        with SubmatrixContext(config) as context:
            direct = context.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                mu=gap_mu,
                solver="newton_schulz",
            )
        with DensityService(config=config) as service:
            served = service.density(
                water32_matrices.K,
                water32_matrices.S,
                water32_matrices.blocks,
                tenant="alice",
                mu=gap_mu,
                solver="newton_schulz",
            )
            snapshot = service.stats()
        # the reduced pipeline is deterministic, so served equals direct
        assert np.array_equal(served.density_ao, direct.density_ao)
        assert served.stacks_reduced == direct.stacks_reduced > 0
        tenant = snapshot["metrics"]["tenants"]["alice"]
        assert tenant["stacks_reduced"] == served.stacks_reduced
        assert tenant["refinement_passes"] == served.refinement_passes


# --------------------------------------------------------------------------- #
# seed-era repro.accel: Figs 12-13 and Table I (satellite)
# --------------------------------------------------------------------------- #
class TestAccelPaperFigures:
    @pytest.fixture(scope="class")
    def submatrix(self):
        return spectrum_stack(1, 24, lam_min=0.4, lam_max=1.6, seed=13)[0]

    def test_involutority_noise_floor_plateau(self, submatrix):
        """Figs 12-13: FP16/FP16' plateau at a noise floor, FP32/FP64
        converge toward machine precision."""
        histories = {
            name: mixed_precision_sign_iteration(
                submatrix, precision=name, n_iterations=14
            ).involutority
            for name in ("FP16", "FP16'", "FP32", "FP64")
        }
        # only FP64 converges toward machine precision
        assert histories["FP64"][-1] < 1e-10
        # the reduced modes stall on noise floors set by their precision:
        # half-storage modes orders of magnitude above the single mode
        assert 1e-4 < histories["FP16"][-1] < 1e-1
        assert 1e-4 < histories["FP16'"][-1] < 1e-1
        assert 1e-8 < histories["FP32"][-1] < 1e-5
        # ... and each tail is flat (a noise floor, not slow convergence)
        for name in ("FP16", "FP16'", "FP32"):
            tail = np.asarray(histories[name][-4:])
            assert tail.max() < 10.0 * tail.min()
        # the floor ordering matches the storage/accumulate precision
        assert histories["FP16"][-1] >= histories["FP16'"][-1]
        assert histories["FP16'"][-1] > histories["FP32"][-1]
        assert histories["FP32"][-1] > histories["FP64"][-1]

    def test_table_i_throughput_ordering(self):
        """Table I: reduced modes saturate below their practical GEMM rate,
        FP64 stays GEMM-bound, and overall throughput orders FP16 > FP16' >
        FP32 > FP64."""
        perf = {
            name: model_sign_algorithm_performance(RTX_2080_TI, name)
            for name in ("FP16", "FP16'", "FP32", "FP64")
        }
        for name in ("FP16", "FP16'"):
            assert perf[name].overall_tflops < 0.85 * perf[name].gemm_tflops
        assert perf["FP64"].overall_tflops > 0.95 * perf["FP64"].gemm_tflops
        ordering = [perf[n].overall_tflops for n in ("FP16", "FP16'", "FP32", "FP64")]
        assert ordering == sorted(ordering, reverse=True)


# --------------------------------------------------------------------------- #
# result dataclass defaults
# --------------------------------------------------------------------------- #
def test_result_precision_defaults():
    result = SubmatrixDFTResult(
        density_ao=np.zeros((2, 2)),
        density_ortho=None,
        mu=0.0,
        n_electrons=0.0,
        band_energy=0.0,
        submatrix_dimensions=[2],
        mu_iterations=0,
        eps_filter=1e-5,
        wall_time=0.0,
    )
    assert result.stacks_reduced == 0
    assert result.refinement_passes == 0
    assert result.precision_error_bound is None
