"""Tests for the matrix sign function algorithms and inverse p-th roots."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import EngineConfig, SubmatrixContext
from repro.signfn import (
    get_kernel,
    inverse_pth_root,
    involutority_error,
    pade_polynomial_coefficients,
    sign_newton_schulz_batched,
    sign_newton_schulz_filtered_dense,
    sign_pade,
    sign_via_eigendecomposition,
    sign_via_eigendecomposition_batched,
    spectral_scale_estimate,
)
from repro.signfn.eigen import extended_signum

import submatrix_reference
from submatrix_reference import sign_newton_schulz, sign_newton_schulz_sparse


def make_sign_test_matrix(rng, n=50, gap=0.5):
    """Symmetric matrix with eigenvalues bounded away from zero."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    negative = rng.uniform(-5.0, -gap, size=n // 2)
    positive = rng.uniform(gap, 5.0, size=n - n // 2)
    eigenvalues = np.concatenate([negative, positive])
    matrix = (q * eigenvalues) @ q.T
    exact = (q * np.sign(eigenvalues)) @ q.T
    return matrix, exact


class TestUtils:
    def test_spectral_scale_bounds_radius(self, rng):
        matrix, _ = make_sign_test_matrix(rng)
        bound = spectral_scale_estimate(matrix)
        radius = np.max(np.abs(np.linalg.eigvalsh(matrix)))
        assert bound >= radius

    def test_spectral_scale_sparse_matches_dense(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=30)
        assert spectral_scale_estimate(sp.csr_matrix(matrix)) == pytest.approx(
            spectral_scale_estimate(matrix)
        )

    def test_spectral_scale_zero_matrix(self):
        assert spectral_scale_estimate(np.zeros((4, 4))) == 1.0

    def test_involutority_error_of_exact_sign(self, rng):
        _, exact = make_sign_test_matrix(rng)
        assert involutority_error(exact) < 1e-10

    def test_involutority_error_sparse(self):
        assert involutority_error(sp.identity(5, format="csr")) < 1e-14
        assert involutority_error(2 * sp.identity(5, format="csr")) == pytest.approx(
            3 * np.sqrt(5)
        )


class TestNewtonSchulz:
    """The per-matrix reference iteration the batched kernel is held to."""

    def test_converges_to_exact_sign(self, rng):
        matrix, exact = make_sign_test_matrix(rng)
        result = sign_newton_schulz(matrix)
        assert result.converged
        assert np.max(np.abs(result.sign - exact)) < 1e-8

    def test_quadratic_convergence(self, rng):
        matrix, _ = make_sign_test_matrix(rng)
        result = sign_newton_schulz(matrix, convergence_threshold=1e-14)
        residuals = np.array(result.residual_history)
        # the residual should drop by much more than a constant factor at the end
        assert residuals[-1] < 1e-10
        assert result.iterations < 40

    def test_sign_is_involutory(self, rng):
        matrix, _ = make_sign_test_matrix(rng)
        result = sign_newton_schulz(matrix)
        assert involutority_error(result.sign) < 1e-8

    def test_identity_is_fixed_point(self):
        result = sign_newton_schulz(np.eye(8))
        assert np.allclose(result.sign, np.eye(8))
        assert result.iterations <= 2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sign_newton_schulz(np.ones((2, 3)))

    def test_max_iterations_respected(self, rng):
        matrix, _ = make_sign_test_matrix(rng)
        result = sign_newton_schulz(matrix, max_iterations=2)
        assert result.iterations == 2
        assert not result.converged

    def test_flops_counted(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=20)
        result = sign_newton_schulz(matrix)
        assert result.flops == pytest.approx(result.iterations * 4 * 20**3)

    def test_non_finite_residual_stops_not_converged(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=12)
        matrix[3, 3] = np.nan
        result = sign_newton_schulz(matrix)
        assert result.iterations == 1
        assert not result.converged


def gapped_stack(rng, gaps, n):
    """Symmetric matrices whose smallest |eigenvalue| is ``gaps[i]`` — the
    smaller the gap, the later the member converges."""
    stack = []
    for gap in gaps:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigenvalues = np.concatenate(
            [rng.uniform(-2.0, -gap, size=n // 2), rng.uniform(gap, 2.0, size=n - n // 2)]
        )
        eigenvalues[0], eigenvalues[-1] = -gap, gap
        matrix = (q * eigenvalues) @ q.T
        stack.append(0.5 * (matrix + matrix.T))
    return np.array(stack)


class TestNewtonSchulzBatched:
    """The kernel contract of the submatrix engine's iterative path."""

    # members freeze in the order 1, 3, 0, 4; member 2 never does within 24
    GAPS = (0.1, 1.5, 1e-5, 0.4, 1e-2)
    BUDGET = 24

    def test_iterations_and_convergence_match_single(self, rng):
        stack = gapped_stack(rng, self.GAPS, n=23)
        batched = sign_newton_schulz_batched(stack, max_iterations=self.BUDGET)
        assert len(set(batched.iterations)) == len(self.GAPS)
        assert batched.converged.tolist() == [True, True, False, True, True]
        assert batched.iterations[2] == self.BUDGET
        for index, matrix in enumerate(stack):
            single = sign_newton_schulz(matrix, max_iterations=self.BUDGET)
            assert batched.iterations[index] == single.iterations
            assert batched.converged[index] == single.converged
            assert np.allclose(batched.sign[index], single.sign, rtol=0.0, atol=1e-12)

    def test_values_independent_of_stack_composition(self, rng):
        stack = gapped_stack(rng, self.GAPS, n=23)
        whole = sign_newton_schulz_batched(stack, max_iterations=self.BUDGET)
        order = np.array([3, 0, 4, 2, 1])
        permuted = sign_newton_schulz_batched(stack[order], max_iterations=self.BUDGET)
        assert np.array_equal(permuted.sign, whole.sign[order])
        assert np.array_equal(permuted.iterations, whole.iterations[order])
        for index in range(len(stack)):
            alone = sign_newton_schulz_batched(
                stack[index : index + 1], max_iterations=self.BUDGET
            )
            assert np.array_equal(alone.sign[0], whole.sign[index])
            assert alone.converged[0] == whole.converged[index]

    def test_nearly_singular_member_converges_like_single(self, rng):
        """~50 iterations: an update that lets antisymmetric rounding grow
        (X·(X·Xᵀ) doubles it every step) overflows long before."""
        stack = gapped_stack(rng, (1e-7, 0.5), n=23)
        batched = sign_newton_schulz_batched(stack)
        single = sign_newton_schulz(stack[0])
        assert batched.converged.all() and single.converged
        assert batched.iterations[0] == single.iterations > 40
        eigenvalues, q = np.linalg.eigh(stack[0])
        exact = (q * np.sign(eigenvalues)) @ q.T
        assert np.abs(batched.sign[0] - exact).max() < 1e-8

    def test_argument_not_mutated_and_shift_on_the_copy(self, rng):
        stack = gapped_stack(rng, (0.3, 0.5), n=10)
        before = stack.copy()
        shifted = sign_newton_schulz_batched(stack, shift=0.125)
        assert np.array_equal(stack, before)
        explicit = sign_newton_schulz_batched(stack - 0.125 * np.eye(10))
        assert np.array_equal(shifted.sign, explicit.sign)
        assert np.array_equal(shifted.iterations, explicit.iterations)

    def test_accuracy_and_symmetry_against_eigendecomposition(self, rng):
        stack = gapped_stack(rng, (0.05,) * 6, n=96)
        result = sign_newton_schulz_batched(stack)
        assert result.converged.all()
        eigenvalues, q = np.linalg.eigh(stack)
        exact = (q * np.sign(eigenvalues)[:, None, :]) @ q.transpose(0, 2, 1)
        # the stop leaves at most the next step's move: ||·||_F/√n < 1e-10
        assert np.abs(result.sign - exact).max() <= 1e-9
        assert np.abs(result.sign - result.sign.transpose(0, 2, 1)).max() <= 1e-15

    def test_allocates_three_buffers_and_nothing_per_iteration(self, rng):
        # nobody converges within 12 iterations, so no compaction copy either
        stack = gapped_stack(rng, (1e-6,) * 8, n=96)
        sign_newton_schulz_batched(stack, max_iterations=1)  # warm einsum/matmul

        def peak(max_iterations):
            tracemalloc.start()
            try:
                result = sign_newton_schulz_batched(stack, max_iterations=max_iterations)
                assert not result.converged.any()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(3), peak(12)
        # working copy + two work buffers; one stack-sized temporary in the
        # loop would read 4x, one kept per iteration would grow with the count
        assert many <= 3.5 * stack.nbytes
        assert abs(many - few) < stack[0].nbytes

    def test_non_finite_member_freezes_at_once(self, rng):
        stack = gapped_stack(rng, (0.2, 0.2, 0.2), n=12)
        clean = sign_newton_schulz_batched(stack)
        stack[1, 4, 4] = np.nan
        result = sign_newton_schulz_batched(stack)
        assert result.iterations[1] == 1
        assert result.converged.tolist() == [True, False, True]
        assert np.array_equal(result.sign[[0, 2]], clean.sign[[0, 2]])

    def test_asymmetric_stack_rejected(self, rng):
        stack = gapped_stack(rng, (0.2, 0.2), n=8)
        stack[1, 0, 5] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            sign_newton_schulz_batched(stack)


class TestNewtonSchulzOracle:
    """The batched kernel against independent oracles: the eigendecomposition
    sign, the full-matrix last step, the iteration counts before the
    first-step scale and the quadratic-convergence stop."""

    # seeded gap suite: smallest |eigenvalue| 1 down to 1e-4, n = 40
    SEED, GAPS, N = 2020, (1.0, 0.3, 0.1, 3e-2, 1e-2, 1e-3, 1e-4), 40
    # iterations of the batched kernel that stopped on r < 1e-10 after a
    # spectral-radius prescale alone, on this suite
    PRE_CHANGE_ITERATIONS = (11, 13, 16, 19, 22, 27, 33)

    def suite(self):
        return gapped_stack(np.random.default_rng(self.SEED), self.GAPS, self.N)

    def test_gap_suite_agrees_with_eigen_sign_in_fewer_iterations(self):
        stack = self.suite()
        result = sign_newton_schulz_batched(stack)
        assert result.converged.all()
        eigen = sign_via_eigendecomposition_batched(stack)
        assert np.abs(result.sign - eigen).max() <= 1e-9
        assert (result.iterations < np.array(self.PRE_CHANGE_ITERATIONS)).all()
        for index, matrix in enumerate(stack):
            assert sign_newton_schulz(matrix).iterations == result.iterations[index]

    def test_last_step_is_deferred_for_every_member(self):
        """The residual bound from S fired on each member's last step: only
        its columns are left to form."""
        result = sign_newton_schulz_batched(self.suite())
        assert result.converged.all()
        for slot in result.slots:
            assert not np.array_equal(result.s[slot], np.eye(self.N))

    def test_panel_last_step_equals_the_full_one(self):
        result = sign_newton_schulz_batched(self.suite())
        order = np.random.default_rng(1).permutation(self.N)
        for member, full in enumerate(result.sign):
            columns = order[: 3 + member]
            panel = result(member, columns)
            assert panel.shape == (self.N, columns.size)
            assert np.abs(panel - full[:, columns]).max() <= 1e-13
            assert np.abs(result(member) - full).max() <= 1e-13

    def test_eigen_fallback_member_is_bitwise_the_eigen_sign(self):
        """A member with a zero row and column never converges (its iterate
        keeps them, so ||I − X²||_F ≥ 1): the registry finishes it with
        ``eigen``'s sign (S = I), column for column, and the other members
        keep their own panels."""
        stack = self.suite()[:3]
        stack[1, 11, :] = stack[1, :, 11] = 0.0
        own = sign_newton_schulz_batched(stack[[0, 2]])
        checked = get_kernel("newton_schulz").bind().checked_function
        result, fallbacks = checked(stack)
        assert fallbacks == 1
        assert result.converged.tolist() == [True, False, True]
        eigen = sign_via_eigendecomposition_batched(stack[1:2])[0]
        columns = np.array([5, 0, 17, 39])
        assert np.array_equal(result(1, columns), eigen[:, columns])
        assert np.array_equal(result(1), eigen)
        for member, alone in ((0, 0), (2, 1)):
            assert np.array_equal(result(member, columns), own(alone, columns))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_freezes_unconverged_and_falls_back(self, bad):
        stack = self.suite()[:3]
        stack[2, 4, 4] = bad
        checked = get_kernel("newton_schulz").bind().checked_function
        result, fallbacks = checked(stack)
        assert fallbacks == 1
        assert result.converged.tolist() == [True, True, False]
        assert result.iterations[2] == 1
        clean = sign_newton_schulz_batched(stack[:2])
        for member in range(2):
            assert np.array_equal(result(member), clean(member))

    def test_newton_schulz_route_matches_eigen_on_a_water_box(
        self, water32_matrices, gap_mu
    ):
        pair = water32_matrices
        with SubmatrixContext(EngineConfig(eps_filter=1e-5)) as ctx:
            eigen = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            newton_schulz = ctx.density(
                pair.K, pair.S, pair.blocks, mu=gap_mu, solver="newton_schulz"
            )
        assert newton_schulz.kernel_fallbacks == 0
        assert np.abs(newton_schulz.density_ao - eigen.density_ao).max() <= 1e-8


class TestNewtonSchulzSparse:
    """The filtered baseline (CP2K's Newton–Schulz) and its CSR-storage
    reference."""

    def test_matches_dense_for_tight_filter(self, rng):
        matrix, exact = make_sign_test_matrix(rng, n=40)
        result = sign_newton_schulz_filtered_dense(matrix, eps_filter=1e-12)
        assert result.converged
        assert np.max(np.abs(result.sign.toarray() - exact)) < 1e-6

    def test_filtering_keeps_sparsity(self, water32_matrices, gap_mu):
        from repro.chem import orthogonalized_ks

        k_ortho, _ = orthogonalized_ks(
            water32_matrices.K, water32_matrices.S, eps_filter=1e-6
        )
        n = k_ortho.shape[0]
        shifted = k_ortho - gap_mu * sp.identity(n, format="csr")
        result = sign_newton_schulz_filtered_dense(shifted.tocsr(), eps_filter=1e-6)
        assert result.converged
        assert result.sign.nnz < n * n
        assert len(result.nnz_history) == result.iterations
        reference = sign_newton_schulz_sparse(shifted.tocsr(), eps_filter=1e-6)
        assert result.iterations == reference.iterations
        assert abs(result.sign - reference.sign).max() < 1e-10
        assert result.flops == pytest.approx(reference.flops)

    def test_sparse_and_dense_input_agree(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=30)
        dense = sign_newton_schulz_filtered_dense(matrix, eps_filter=1e-6)
        sparse = sign_newton_schulz_filtered_dense(
            sp.csr_matrix(matrix), eps_filter=1e-6
        )
        assert dense.iterations == sparse.iterations
        assert (dense.sign != sparse.sign).nnz == 0

    def test_looser_filter_fewer_nonzeros(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=40)
        tight = sign_newton_schulz_filtered_dense(matrix, eps_filter=1e-12)
        loose = sign_newton_schulz_filtered_dense(matrix, eps_filter=1e-3)
        assert loose.sign.nnz <= tight.sign.nnz

    def test_flops_positive(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=20)
        result = sign_newton_schulz_filtered_dense(matrix, eps_filter=1e-10)
        assert result.flops > 0

    def test_dense_kernel_variant_matches_sparse(self, rng):
        """The BLAS-kernel variant is numerically equivalent to the sparse one."""
        matrix, _ = make_sign_test_matrix(rng, n=40)
        sparse_result = sign_newton_schulz_sparse(
            sp.csr_matrix(matrix), eps_filter=1e-6
        )
        dense_result = sign_newton_schulz_filtered_dense(matrix, eps_filter=1e-6)
        assert dense_result.iterations == sparse_result.iterations
        assert np.max(
            np.abs(dense_result.sign.toarray() - sparse_result.sign.toarray())
        ) < 1e-10
        assert dense_result.flops == pytest.approx(sparse_result.flops)

    def test_dense_kernel_variant_rejects_non_square(self):
        with pytest.raises(ValueError):
            sign_newton_schulz_filtered_dense(np.ones((3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", ["sparse", "filtered_dense"])
    def test_filtered_variants_refuse_non_finite_input(self, variant, bad):
        """Unchecked, the filter maps NaN to zero and the dense variant
        reports an all-zero sign as converged; the sparse one would run its
        whole budget on NaN."""
        matrix = np.eye(30)
        matrix[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            if variant == "sparse":
                sign_newton_schulz_sparse(sp.csr_matrix(matrix))
            else:
                sign_newton_schulz_filtered_dense(matrix)

    @pytest.mark.parametrize("variant", ["sparse", "filtered_dense"])
    def test_filtered_variants_stop_on_non_finite_residual(
        self, rng, monkeypatch, variant
    ):
        """An overflowing iterate ends the iteration at once, not converged,
        like the dense :func:`sign_newton_schulz`."""
        from repro.signfn import newton_schulz

        # a prescale far below the spectral radius overflows the first X·X
        module = submatrix_reference if variant == "sparse" else newton_schulz
        monkeypatch.setattr(module, "spectral_scale_estimate", lambda m: 1e-200)
        matrix, _ = make_sign_test_matrix(rng, n=12)
        with np.errstate(over="ignore", invalid="ignore"):
            if variant == "sparse":
                result = sign_newton_schulz_sparse(sp.csr_matrix(matrix))
            else:
                result = sign_newton_schulz_filtered_dense(matrix)
        assert result.iterations == 1
        assert not result.converged


class TestPade:
    def test_coefficients_second_order_is_newton_schulz(self):
        assert np.allclose(pade_polynomial_coefficients(2), [1.5, -0.5])

    def test_coefficients_third_order_matches_eq19(self):
        """Eq. 19: X (15 - 10 X^2 + 3 X^4) / 8."""
        assert np.allclose(
            pade_polynomial_coefficients(3), [15.0 / 8.0, -10.0 / 8.0, 3.0 / 8.0]
        )

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            pade_polynomial_coefficients(1)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_converges_for_all_orders(self, rng, order):
        matrix, exact = make_sign_test_matrix(rng, n=40)
        result = sign_pade(matrix, order=order)
        assert result.converged
        assert np.max(np.abs(result.sign - exact)) < 1e-7

    def test_higher_order_needs_fewer_iterations(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=40)
        second = sign_pade(matrix, order=2, convergence_threshold=1e-12)
        third = sign_pade(matrix, order=3, convergence_threshold=1e-12)
        assert third.iterations <= second.iterations

    def test_histories_one_entry_per_iteration(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=20)
        converged = sign_pade(matrix)
        sweep = sign_pade(matrix, convergence_threshold=0.0, max_iterations=9)
        assert converged.converged and not sweep.converged
        assert sweep.iterations == 9
        for result in (converged, sweep):
            assert len(result.involutority_history) == result.iterations
            assert len(result.energy_history) == result.iterations

    def test_involutority_history_is_the_fig13_measure(self, rng):
        """||X² − I||_F of the iterate, unnormalised; the stop divides it by √n."""
        matrix, _ = make_sign_test_matrix(rng, n=30)
        result = sign_pade(matrix, convergence_threshold=0.0, max_iterations=4)
        assert result.involutority_history[-1] == involutority_error(result.sign)
        stopped = sign_pade(matrix, convergence_threshold=1e-10)
        assert stopped.involutority_history[-1] / np.sqrt(30) < 1e-10
        assert stopped.involutority_history[-2] / np.sqrt(30) >= 1e-10

    def test_shift_by_mu(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=30)
        mu = 0.3
        shifted = sign_pade(matrix - mu * np.eye(30))
        assert np.array_equal(sign_pade(matrix, mu=mu).sign, shifted.sign)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused(self, bad):
        """Unchecked, a NaN pair ran all 100 iterations into an all-NaN sign."""
        matrix = np.eye(30)
        matrix[3, 5] = matrix[5, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sign_pade(matrix)

    @pytest.mark.parametrize("precision", ["FP64", "FP32", "FP16"])
    def test_non_finite_involutority_stops_not_converged(self, precision):
        """Purely imaginary eigenvalues ±i are outside every basin: the
        iterate grows as |x|⁵ and overflows within a few iterations."""
        rotation = np.kron(np.eye(4), [[0.0, 1.0], [-1.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            result = sign_pade(rotation, precision=precision)
        assert not result.converged
        assert result.iterations < 10
        assert not np.isfinite(result.involutority_history[-1])
        assert np.isfinite(result.involutority_history[:-1]).all()

    def test_involutority_history_decreases(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=30)
        result = sign_pade(matrix, order=3)
        history = result.involutority_history
        assert history[-1] < history[0]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sign_pade(np.ones((2, 3)))


class TestEigenSign:
    def test_matches_iterative(self, rng):
        matrix, exact = make_sign_test_matrix(rng)
        assert np.allclose(sign_via_eigendecomposition(matrix), exact, atol=1e-10)

    def test_shift_by_mu(self, rng):
        n = 30
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigenvalues = np.linspace(-2.0, 2.0, n)
        matrix = (q * eigenvalues) @ q.T
        mu = 0.7
        shifted_sign = sign_via_eigendecomposition(matrix, mu=mu)
        expected = (q * np.sign(eigenvalues - mu)) @ q.T
        assert np.allclose(shifted_sign, expected, atol=1e-10)

    def test_extended_signum_zero(self):
        values = np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(extended_signum(values), [-1.0, 0.0, 1.0])

    def test_extended_signum_tolerance(self):
        values = np.array([-1e-12, 1e-12, 0.5])
        result = extended_signum(values, zero_tolerance=1e-10)
        assert np.array_equal(result, [0.0, 0.0, 1.0])

    def test_eigenvalue_exactly_at_mu_maps_to_zero(self, rng):
        """Paper Eq. 12: eigenvalues on the 'imaginary axis' give sign 0."""
        matrix = np.diag([1.0, 2.0, 3.0])
        sign = sign_via_eigendecomposition(matrix, mu=2.0, zero_tolerance=1e-12)
        assert np.allclose(np.diag(sign), [-1.0, 0.0, 1.0])

    def test_asymmetric_rejected(self, rng):
        matrix = rng.normal(size=(5, 5))
        with pytest.raises(ValueError, match="not symmetric"):
            sign_via_eigendecomposition(matrix)

    @pytest.mark.parametrize("n", [5, 40, 97, 180])
    def test_single_matrix_is_the_stack_of_one_bitwise(self, rng, n):
        matrix, _ = make_sign_test_matrix(rng, n=n)
        matrix = 0.5 * (matrix + matrix.T)
        stack = np.stack([matrix, matrix[::-1, ::-1].copy()])
        single = sign_via_eigendecomposition(matrix, mu=0.1)
        batched = sign_via_eigendecomposition_batched(stack, mu=0.1)
        assert np.array_equal(single, batched[0])
        from_csr = sign_via_eigendecomposition(sp.csr_matrix(matrix), mu=0.1)
        assert np.array_equal(from_csr, single)


class TestInverseRoots:
    def make_spd(self, rng, n=30):
        a = rng.normal(size=(n, n))
        return a @ a.T + n * np.eye(n)

    def test_inverse_square_root(self, rng):
        matrix = self.make_spd(rng)
        root = inverse_pth_root(matrix, 2)
        assert np.allclose(root @ matrix @ root, np.eye(matrix.shape[0]), atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_inverse_pth_root_property(self, rng, p):
        matrix = self.make_spd(rng, n=20)
        root = inverse_pth_root(matrix, p)
        product = np.linalg.matrix_power(root, p) @ matrix
        assert np.allclose(product, np.eye(20), atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            inverse_pth_root(np.diag([1.0, -1.0]), 2)

    def test_rejects_bad_p(self, rng):
        with pytest.raises(ValueError):
            inverse_pth_root(self.make_spd(rng, 5), 0)

    def test_sign_from_inverse_root_identity(self, rng):
        """sign(A) = A (A^2)^{-1/2} (Eq. 8)."""
        matrix, exact = make_sign_test_matrix(rng, n=25)
        via_root = matrix @ inverse_pth_root(matrix @ matrix, 2)
        assert np.allclose(via_root, exact, atol=1e-8)
