"""Tests for the matrix sign function algorithms and inverse p-th roots."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.signfn import (
    inverse_pth_root,
    inverse_pth_root_newton,
    involutority_error,
    pade_polynomial_coefficients,
    sign_newton_schulz,
    sign_newton_schulz_batched,
    sign_newton_schulz_sparse,
    sign_pade,
    sign_via_eigendecomposition,
    spectral_scale_estimate,
)
from repro.signfn.eigen import (
    extended_signum,
    symmetric_eigendecomposition,
)


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

    def test_track_involutority(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=20)
        result = sign_newton_schulz(matrix, track_involutority=True)
        assert len(result.involutority_history) == result.iterations
        assert result.involutority_history[-1] < result.involutority_history[0]

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
        assert np.abs(result.sign - exact).max() <= 1e-14
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


class TestNewtonSchulzSparse:
    def test_matches_dense_for_tight_filter(self, rng):
        matrix, exact = make_sign_test_matrix(rng, n=40)
        result = sign_newton_schulz_sparse(sp.csr_matrix(matrix), eps_filter=1e-12)
        assert result.converged
        assert np.max(np.abs(result.sign.toarray() - exact)) < 1e-6

    def test_filtering_keeps_sparsity(self, water32_matrices, gap_mu):
        from repro.chem import orthogonalized_ks

        k_ortho, _ = orthogonalized_ks(
            water32_matrices.K, water32_matrices.S, eps_filter=1e-6
        )
        n = k_ortho.shape[0]
        shifted = k_ortho - gap_mu * sp.identity(n, format="csr")
        result = sign_newton_schulz_sparse(shifted.tocsr(), eps_filter=1e-6)
        assert result.converged
        assert result.sign.nnz < n * n
        assert len(result.nnz_history) == result.iterations

    def test_requires_sparse_input(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=10)
        with pytest.raises(TypeError):
            sign_newton_schulz_sparse(matrix)

    def test_looser_filter_fewer_nonzeros(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=40)
        tight = sign_newton_schulz_sparse(sp.csr_matrix(matrix), eps_filter=1e-12)
        loose = sign_newton_schulz_sparse(sp.csr_matrix(matrix), eps_filter=1e-3)
        assert loose.sign.nnz <= tight.sign.nnz

    def test_flops_positive(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=20)
        result = sign_newton_schulz_sparse(sp.csr_matrix(matrix), eps_filter=1e-10)
        assert result.flops > 0

    def test_dense_kernel_variant_matches_sparse(self, rng):
        """The BLAS-kernel variant is numerically equivalent to the sparse one."""
        from repro.signfn import sign_newton_schulz_filtered_dense

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
        from repro.signfn import sign_newton_schulz_filtered_dense

        with pytest.raises(ValueError):
            sign_newton_schulz_filtered_dense(np.ones((3, 4)))


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

    def test_callback_invoked(self, rng):
        matrix, _ = make_sign_test_matrix(rng, n=20)
        seen = []
        sign_pade(matrix, callback=lambda k, x: seen.append(k))
        assert seen == list(range(1, len(seen) + 1))

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
        with pytest.raises(ValueError):
            symmetric_eigendecomposition(matrix)


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

    @pytest.mark.parametrize("p", [2, 3])
    def test_newton_iteration_matches_eigendecomposition(self, rng, p):
        matrix = self.make_spd(rng, n=25)
        direct = inverse_pth_root(matrix, p)
        iterative = inverse_pth_root_newton(matrix, p)
        assert iterative.converged
        assert np.max(np.abs(iterative.root - direct)) < 1e-8

    def test_newton_residual_history_decreases(self, rng):
        matrix = self.make_spd(rng, n=15)
        result = inverse_pth_root_newton(matrix, 2)
        assert result.residual_history[-1] < result.residual_history[0]

    def test_sign_from_inverse_root_identity(self, rng):
        """sign(A) = A (A^2)^{-1/2} (Eq. 8)."""
        matrix, exact = make_sign_test_matrix(rng, n=25)
        via_root = matrix @ inverse_pth_root(matrix @ matrix, 2)
        assert np.allclose(via_root, exact, atol=1e-8)
