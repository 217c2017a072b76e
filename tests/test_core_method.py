"""Tests for the end-to-end submatrix evaluation of matrix functions
(``SubmatrixContext.apply`` on SciPy and on block-sparse matrices)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import EngineConfig, SubmatrixContext
from repro.core.combination import ColumnGrouping
from repro.dbcsr.convert import block_matrix_from_dense, block_matrix_to_dense
from repro.signfn import inverse_pth_root, sign_via_eigendecomposition
from repro.work import EIGENSOLVE_FLOP_CONSTANT

from conftest import make_decay_matrix
from submatrix_reference import blocks_of

SIGN = sign_via_eigendecomposition


@pytest.fixture()
def decay_sparse():
    dense = make_decay_matrix(60, bandwidth=5.0)
    dense[np.abs(dense) < 1e-4] = 0.0
    return sp.csr_matrix(dense)


class TestElementLevel:
    def test_result_has_input_pattern(self, decay_sparse):
        context = SubmatrixContext()
        result = context.apply(decay_sparse, SIGN)
        input_pattern = decay_sparse.toarray() != 0
        output_pattern = result.result.toarray() != 0
        assert np.array_equal(output_pattern, output_pattern & input_pattern)

    def test_accuracy_on_decaying_matrix(self, decay_sparse):
        """For matrices with decay the approximation is accurate on-pattern."""
        context = SubmatrixContext()
        result = context.apply(decay_sparse, SIGN)
        exact = sign_via_eigendecomposition(decay_sparse.toarray())
        pattern = decay_sparse.toarray() != 0
        error = np.max(np.abs((result.result.toarray() - exact)[pattern]))
        assert error < 0.05

    def test_dense_input_is_exact(self, rng):
        """If every column is dense, each submatrix is the full matrix."""
        dense = make_decay_matrix(20, bandwidth=1e6)
        matrix = sp.csr_matrix(dense)
        context = SubmatrixContext()
        result = context.apply(matrix, SIGN)
        exact = sign_via_eigendecomposition(dense)
        assert np.allclose(result.result.toarray(), exact, atol=1e-10)
        assert result.submatrix_dimensions == [20] * 20

    def test_column_groups(self, decay_sparse):
        context = SubmatrixContext()
        groups = [list(range(i, min(i + 10, 60))) for i in range(0, 60, 10)]
        result = context.apply(decay_sparse, SIGN, grouping=ColumnGrouping(groups))
        assert result.n_submatrices == 6

    def test_invalid_groups(self, decay_sparse):
        context = SubmatrixContext()
        for groups, error in (
            ([[0, 1], [1, 2]], ValueError),
            ([[0]], ValueError),
            ([[0, 600]], ValueError),  # names column 600 and n_columns
        ):
            with pytest.raises(error):
                context.apply(decay_sparse, SIGN, grouping=ColumnGrouping(groups))
        # the request's own type check: a bare list is not a grouping
        with pytest.raises(TypeError, match="ColumnGrouping"):
            context.apply(decay_sparse, SIGN, grouping=[[c] for c in range(60)])

    def test_non_square_rejected(self):
        context = SubmatrixContext()
        with pytest.raises(ValueError):
            context.apply(sp.csr_matrix(np.ones((3, 4))), SIGN)

    def test_function_shape_checked(self, decay_sparse):
        with pytest.raises(ValueError):
            SubmatrixContext().apply(decay_sparse, lambda a: a[:2, :2])

    def test_flop_estimate_is_cubic_sum(self, decay_sparse):
        context = SubmatrixContext()
        result = context.apply(decay_sparse, SIGN)
        expected = sum(float(d) ** 3 for d in result.submatrix_dimensions)
        assert result.flop_estimate == EIGENSOLVE_FLOP_CONSTANT * expected

    def test_non_callable_rejected(self, decay_sparse):
        context = SubmatrixContext()
        with pytest.raises(TypeError):
            context.apply(decay_sparse, "not-a-function")
        with pytest.raises(TypeError):
            context.apply(decay_sparse, 3.0)

    def test_thread_backend_matches_serial(self, decay_sparse):
        serial = SubmatrixContext(EngineConfig(backend="serial"))
        a = serial.apply(decay_sparse, SIGN)
        config = EngineConfig(backend="thread", max_workers=2)
        with SubmatrixContext(config) as threaded:
            b = threaded.apply(decay_sparse, SIGN)
        assert np.array_equal(a.result.toarray(), b.result.toarray())


class TestBlockLevel:
    @pytest.fixture()
    def block_decay(self):
        dense = make_decay_matrix(48, bandwidth=6.0)
        dense[np.abs(dense) < 1e-4] = 0.0
        return block_matrix_from_dense(dense, [4] * 12), dense

    def test_block_result_pattern(self, block_decay):
        blocked, _ = block_decay
        context = SubmatrixContext()
        result = context.apply(blocked, SIGN)
        assert set(blocks_of(result.result)) <= set(blocks_of(blocked))

    def test_block_accuracy(self, block_decay):
        blocked, dense = block_decay
        context = SubmatrixContext()
        result = context.apply(blocked, SIGN)
        exact = sign_via_eigendecomposition(dense)
        approx = block_matrix_to_dense(result.result)
        pattern = block_matrix_to_dense(blocked) != 0
        assert np.max(np.abs((approx - exact)[pattern])) < 0.05

    def test_block_groups_reduce_submatrix_count(self, block_decay):
        blocked, _ = block_decay
        context = SubmatrixContext()
        single = context.apply(blocked, SIGN)
        grouped = context.apply(
            blocked,
            SIGN,
            grouping=ColumnGrouping([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]),
        )
        assert single.n_submatrices == 12
        assert grouped.n_submatrices == 3
        assert grouped.max_dimension >= single.max_dimension

    def test_other_matrix_function(self, block_decay):
        """The machinery is generic: inverse square roots work as well."""
        blocked, dense = block_decay
        spd = dense @ dense + 5.0 * np.eye(48)
        spd[np.abs(spd) < 1e-6] = 0.0
        blocked_spd = block_matrix_from_dense(spd, [4] * 12)
        result = SubmatrixContext().apply(
            blocked_spd, lambda a: inverse_pth_root(a, 2)
        )
        exact = inverse_pth_root(spd, 2)
        pattern = block_matrix_to_dense(blocked_spd) != 0
        approx = block_matrix_to_dense(result.result)
        assert np.max(np.abs((approx - exact)[pattern])) < 0.05

    def test_wall_time_recorded(self, block_decay):
        blocked, _ = block_decay
        context = SubmatrixContext()
        result = context.apply(blocked, SIGN)
        assert result.wall_time > 0.0
