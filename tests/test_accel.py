"""Tests for the mixed-precision emulation and the device performance model."""

import numpy as np
import pytest

from repro.accel import (
    PRECISION_MODES,
    RTX_2080_TI,
    STRATIX_10,
    convert,
    gemm,
    model_sign_algorithm_performance,
    performance_table,
)
from repro.signfn import sign_pade, sign_via_eigendecomposition

from conftest import make_decay_matrix


def spectrum_stack(k=3, n=12, lam_min=0.3, lam_max=2.0, seed=0):
    """A (k, n, n) stack of symmetric matrices with |λ| in [lam_min, lam_max]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, n, n)))
    lam = rng.uniform(lam_min, lam_max, (k, n)) * rng.choice([-1.0, 1.0], (k, n))
    return q * lam[:, None, :] @ np.swapaxes(q, -1, -2)


class TestPrecisionModes:
    def test_all_paper_modes_present(self):
        assert set(PRECISION_MODES) == {"FP16", "FP16'", "FP32", "FP64"}

    def test_epsilon_ordering(self):
        assert (
            PRECISION_MODES["FP16"].epsilon
            > PRECISION_MODES["FP32"].epsilon
            > PRECISION_MODES["FP64"].epsilon
        )

    def test_convert_dtype(self):
        matrix = np.ones((3, 3))
        assert convert(matrix, PRECISION_MODES["FP16"]).dtype == np.float16
        assert convert(matrix, PRECISION_MODES["FP64"]).dtype == np.float64

    def test_gemm_fp64_exact(self, rng):
        a = rng.normal(size=(20, 20))
        b = rng.normal(size=(20, 20))
        assert np.allclose(gemm(a, b, PRECISION_MODES["FP64"]), a @ b)

    def test_gemm_fp16_loses_precision(self, rng):
        a = rng.normal(size=(50, 50))
        b = rng.normal(size=(50, 50))
        exact = a @ b
        half = gemm(a, b, PRECISION_MODES["FP16"]).astype(np.float64)
        error = np.max(np.abs(half - exact))
        assert 1e-8 < error < 1.0

    def test_gemm_mixed_more_accurate_than_half(self, rng):
        a = rng.normal(size=(80, 80))
        b = rng.normal(size=(80, 80))
        exact = a @ b
        fp16 = gemm(a, b, PRECISION_MODES["FP16"]).astype(np.float64)
        fp16p = gemm(a, b, PRECISION_MODES["FP16'"]).astype(np.float64)
        assert np.linalg.norm(fp16p - exact) <= np.linalg.norm(fp16 - exact) * 1.5

    def test_gemm_output_dtype_is_storage(self, rng):
        a = rng.normal(size=(4, 4))
        assert gemm(a, a, PRECISION_MODES["FP16'"]).dtype == np.float16
        assert gemm(a, a, PRECISION_MODES["FP32"]).dtype == np.float32


def sweep(matrix, precision="FP64", mu=0.0, iterations=14):
    """The precision study's fixed sweep of the 3rd-order iteration (Eq. 19)."""
    return sign_pade(
        matrix,
        mu=mu,
        precision=precision,
        convergence_threshold=0.0,
        max_iterations=iterations,
    )


class TestMixedPrecisionIteration:
    @pytest.fixture(scope="class")
    def submatrix(self):
        """A well-conditioned decay matrix standing in for a 32-water block."""
        matrix = make_decay_matrix(96, bandwidth=8.0, seed=7)
        return matrix

    def test_fp64_converges_to_exact_sign(self, submatrix):
        result = sweep(submatrix)
        exact = sign_via_eigendecomposition(submatrix)
        assert np.max(np.abs(result.sign - exact)) < 1e-8
        assert result.involutority_history[-1] < 1e-8

    @pytest.mark.slow
    def test_fp64_involutority_floor_below_fp32_below_fp16(self, submatrix):
        """Fig. 13: each precision has its own involutority noise floor."""
        floors = {}
        for mode in ("FP16", "FP32", "FP64"):
            floors[mode] = min(sweep(submatrix, mode).involutority_history)
        assert floors["FP64"] < floors["FP32"] < floors["FP16"]

    @pytest.mark.slow
    def test_low_precision_energy_close_to_fp64(self, submatrix):
        """Fig. 12: FP16 energies stay within a few meV/atom-scale offsets."""
        fp64 = sweep(submatrix)
        fp16 = sweep(submatrix, "FP16")
        converged = fp64.energy_history[-1]
        relative = abs(fp16.energy_history[-1] - converged) / abs(converged)
        assert relative < 0.05

    def test_energy_converges_before_involutority(self, submatrix):
        """The paper's observation: the energy minimum is reached early, so it
        is not a reliable convergence criterion."""
        result = sweep(submatrix)
        energies = np.array(result.energy_history)
        energy_errors = np.abs(energies - energies[-1])
        first_energy_converged = int(np.argmax(energy_errors < 1e-6))
        first_involutory = int(np.argmax(np.array(result.involutority_history) < 1e-6))
        assert first_energy_converged <= first_involutory

    def test_unknown_precision_rejected(self, submatrix):
        with pytest.raises(KeyError):
            sign_pade(submatrix, precision="FP8")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sign_pade(np.ones((2, 3)), precision="FP64")

    @pytest.mark.parametrize("mode", ["FP32", "FP64"])
    def test_energy_history_is_band_energy_of_the_input(self, submatrix, mode):
        """Fig. 12's energy: 2·tr(½(I − X)·A) of the unshifted input A."""
        result = sweep(submatrix, mode, mu=0.2, iterations=6)
        density = 0.5 * (np.eye(submatrix.shape[0]) - result.sign)
        energy = 2.0 * np.sum(density * submatrix)
        assert result.energy_history[-1] == pytest.approx(energy, rel=1e-12)

    def test_mu_shift_changes_result(self, submatrix):
        a = sweep(submatrix, mu=0.0, iterations=10)
        b = sweep(submatrix, mu=1.5, iterations=10)
        assert not np.allclose(a.sign, b.sign)

    def test_flops_counted(self, submatrix):
        # the Horner evaluation of the order-3 polynomial uses 4 GEMMs per
        # iteration (X², two Horner steps, final X·poly)
        result = sweep(submatrix, "FP32", iterations=3)
        n = submatrix.shape[0]
        assert result.flops == pytest.approx(3 * 4 * 2 * n**3)


class TestPerformanceModel:
    def test_overall_below_gemm_below_peak(self):
        for row in performance_table(RTX_2080_TI):
            assert row.overall_tflops <= row.gemm_tflops <= row.peak_tflops

    def test_fp16_order_of_magnitude_matches_paper(self):
        """Table I: FP16 end-to-end ≈ 35 TFLOP/s on the RTX 2080 Ti."""
        row = model_sign_algorithm_performance(RTX_2080_TI, "FP16")
        assert 25.0 < row.overall_tflops < 50.0

    def test_fp64_is_gemm_bound(self):
        row = model_sign_algorithm_performance(RTX_2080_TI, "FP64")
        assert row.overall_tflops == pytest.approx(0.5, rel=0.1)
        assert row.gemm_seconds > 10 * row.transfer_seconds

    def test_precision_ordering(self):
        rows = {r.precision: r.overall_tflops for r in performance_table(RTX_2080_TI)}
        assert rows["FP16"] > rows["FP16'"] > rows["FP32"] > rows["FP64"]

    def test_fpga_overall_matches_paper_scale(self):
        """Sec. VI-B: ≈2.7 TFLOP/s GEMM, ≈1.75 TFLOP/s end-to-end."""
        row = model_sign_algorithm_performance(STRATIX_10, "FP32")
        assert 1.0 < row.overall_tflops < 2.7
        assert row.overall_tflops < row.gemm_tflops

    def test_fpga_communication_dominates(self):
        """Per-GEMM offload makes the FPGA communication-limited."""
        row = model_sign_algorithm_performance(STRATIX_10, "FP32")
        assert row.transfer_seconds > 0.3 * row.gemm_seconds

    def test_unsupported_precision_rejected(self):
        with pytest.raises(ValueError):
            model_sign_algorithm_performance(STRATIX_10, "FP16")

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            model_sign_algorithm_performance(RTX_2080_TI, "FP32", matrix_dimension=0)

    def test_energy_efficiency_reported(self):
        row = model_sign_algorithm_performance(RTX_2080_TI, "FP16")
        # paper: ~140 GFLOP/(W s) end-to-end at 250 W
        assert 80.0 < row.gflops_per_watt_second < 250.0

    def test_table_covers_requested_precisions(self):
        rows = performance_table(RTX_2080_TI, precisions=["FP32", "FP64"])
        assert [r.precision for r in rows] == ["FP32", "FP64"]


class TestAccelPaperFigures:
    @pytest.fixture(scope="class")
    def submatrix(self):
        return spectrum_stack(1, 24, lam_min=0.4, lam_max=1.6, seed=13)[0]

    def test_involutority_noise_floor_plateau(self, submatrix):
        """Figs 12-13: FP16/FP16' plateau at a noise floor, FP32/FP64
        converge toward machine precision."""
        histories = {
            name: sweep(submatrix, name).involutority_history
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
