"""Tests for the vectorized submatrix engine (plans, caching, batching).

The central claim of :mod:`repro.core.plan` is equivalence: the plan-based
gather/scatter paths must produce *bitwise-identical* results to the naive
reference kernels of :mod:`repro.core.submatrix` (driven by the serial loop
in ``submatrix_reference.py``), across random sparsity patterns, random
column groupings and both input formats (a SciPy matrix runs as a grid of
1×1 blocks through the same plan).  The batched evaluator is additionally
checked with and without bucket padding.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import EngineConfig, SubmatrixContext
from repro.core import (
    BlockSubmatrixPlan,
    PlanCache,
    make_buckets,
)
from repro.core.batch import evaluate_batched
from repro.core.plan import block_plan
from repro.core.submatrix import extract_block_submatrix, extract_submatrix
from repro.dbcsr import CooBlockList
from repro.dbcsr.convert import (
    block_matrix_from_csr,
    block_matrix_from_dense,
    block_matrix_to_dense,
)
from repro.parallel.executor import split_chunks
from repro.signfn import (
    sign_newton_schulz,
    sign_newton_schulz_batched,
    sign_via_eigendecomposition,
    sign_via_eigendecomposition_batched,
)

from conftest import make_decay_matrix
from submatrix_reference import (
    reference_apply_blockwise,
    reference_apply_elementwise,
    random_pattern,
    reference_density,
)


def random_sparse_symmetric(n, density, seed):
    """Random sparse symmetric matrix with a non-trivial pattern."""
    generator = np.random.default_rng(seed)
    dense = generator.normal(size=(n, n))
    dense = (dense + dense.T) / 2.0
    mask = generator.random((n, n)) < density
    mask = mask | mask.T
    dense = np.where(mask, dense, 0.0)
    dense[np.diag_indices(n)] = 3.0 + generator.random(n)
    return sp.csr_matrix(dense)


def random_block_symmetric(n_blocks, block_size, bandwidth, seed):
    """Random banded symmetric block matrix."""
    generator = np.random.default_rng(seed)
    n = n_blocks * block_size
    dense = np.zeros((n, n))
    for i in range(n_blocks):
        for j in range(n_blocks):
            if abs(i - j) <= bandwidth and (i <= j or generator.random() < 0.8):
                block = generator.normal(size=(block_size, block_size))
                dense[
                    i * block_size : (i + 1) * block_size,
                    j * block_size : (j + 1) * block_size,
                ] = block
    dense = (dense + dense.T) / 2.0
    return block_matrix_from_dense(dense, [block_size] * n_blocks)


def scalar_grid(matrix):
    """A SciPy matrix as ``apply`` runs it: a block matrix of 1×1 blocks."""
    return block_matrix_from_csr(matrix, [1] * matrix.shape[0])


def scalar_plan(matrix, groups, cache=None):
    """The plan ``apply`` looks up for a SciPy matrix and column grouping."""
    blocked = scalar_grid(matrix)
    return block_plan(
        CooBlockList.from_block_matrix(blocked),
        blocked.row_block_sizes,
        groups,
        cache=cache,
    )


def random_partition(n, seed):
    """Random partition of range(n) into contiguous-free random groups."""
    generator = np.random.default_rng(seed)
    order = generator.permutation(n)
    groups = []
    position = 0
    while position < n:
        size = int(generator.integers(1, 4))
        groups.append(sorted(int(c) for c in order[position : position + size]))
        position += size
    return groups


class TestElementPlanEquivalence:
    """SciPy inputs: the 1×1-block route against the element-level kernels."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("density", [0.05, 0.2])
    def test_plan_matches_naive_bitwise(self, seed, density):
        matrix = random_sparse_symmetric(50, density, seed)
        context = SubmatrixContext()
        for groups in (None, random_partition(50, seed + 100)):
            naive, dimensions = reference_apply_elementwise(
                matrix, lambda a: a @ a, groups
            )
            planned = context.apply(matrix, lambda a: a @ a, groups)
            assert dimensions == planned.submatrix_dimensions
            assert (naive != planned.result).nnz == 0
            assert np.array_equal(naive.toarray(), planned.result.toarray())

    def test_extraction_matches_reference(self):
        matrix = random_sparse_symmetric(40, 0.1, 7)
        csc = matrix.tocsc()
        groups = random_partition(40, 8)
        plan = scalar_plan(csc, groups)
        assert plan.run == 1
        packed = plan.pack(scalar_grid(csc))
        for index, group in enumerate(groups):
            reference = extract_submatrix(csc, group)
            dense = plan.extract(packed, index)
            assert np.array_equal(reference.data, dense)
            assert np.array_equal(reference.indices, plan.groups[index].indices)
            assert np.array_equal(
                reference.local_columns, plan.groups[index].local_columns
            )

    def test_pack_rejects_different_pattern(self):
        matrix = random_sparse_symmetric(30, 0.1, 1)
        other = random_sparse_symmetric(30, 0.1, 2)
        plan = scalar_plan(matrix, [[c] for c in range(30)])
        with pytest.raises(ValueError, match="not in the planned pattern"):
            SubmatrixContext().apply(other, lambda a: a @ a, plan=plan)

    def test_pack_accepts_same_pattern_new_values(self):
        matrix = random_sparse_symmetric(30, 0.1, 1)
        scaled = matrix * 2.0
        groups = [[c] for c in range(30)]
        plan = scalar_plan(matrix, groups)
        context = SubmatrixContext()
        planned = context.apply(scaled, lambda a: a @ a, groups, plan=plan)
        naive, _ = reference_apply_elementwise(scaled, lambda a: a @ a, groups)
        assert np.array_equal(naive.toarray(), planned.result.toarray())


class TestBlockPlanEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bandwidth", [1, 3])
    def test_plan_matches_naive_bitwise(self, seed, bandwidth):
        matrix = random_block_symmetric(12, 3, bandwidth, seed)
        context = SubmatrixContext()
        for groups in (None, random_partition(12, seed + 50)):
            naive, dimensions = reference_apply_blockwise(
                matrix, lambda a: a @ a + a, groups
            )
            planned = context.apply(matrix, lambda a: a @ a + a, groups)
            assert dimensions == planned.submatrix_dimensions
            dense_naive = block_matrix_to_dense(naive)
            dense_plan = block_matrix_to_dense(planned.result)
            assert np.array_equal(dense_naive, dense_plan)

    def test_heterogeneous_block_sizes(self):
        generator = np.random.default_rng(5)
        sizes = [2, 4, 3, 1, 5, 2]
        n = sum(sizes)
        dense = generator.normal(size=(n, n))
        dense = (dense + dense.T) / 2.0
        matrix = block_matrix_from_dense(dense, sizes)
        context = SubmatrixContext()
        groups = [[0, 2], [1], [3, 4], [5]]
        naive, _ = reference_apply_blockwise(matrix, lambda a: a @ a, groups)
        planned = context.apply(matrix, lambda a: a @ a, groups)
        assert np.array_equal(
            block_matrix_to_dense(naive), block_matrix_to_dense(planned.result)
        )

    def test_extraction_matches_reference(self):
        matrix = random_block_symmetric(10, 3, 2, 9)
        coo = CooBlockList.from_block_matrix(matrix)
        groups = random_partition(10, 11)
        plan = BlockSubmatrixPlan(coo, matrix.row_block_sizes, groups)
        packed = plan.pack(matrix)
        for index, group in enumerate(groups):
            reference = extract_block_submatrix(matrix, group, coo)
            dense = plan.extract(packed, index)
            assert np.array_equal(reference.data, dense)
            assert np.array_equal(reference.indices, plan.groups[index].indices)
            assert np.array_equal(
                reference.block_sizes, plan.groups[index].block_sizes
            )

    def test_pattern_superset_packs_missing_blocks_as_zero(self):
        """A pattern that is a superset of the stored blocks matches naive."""
        matrix = random_block_symmetric(8, 2, 1, 3)
        coo = CooBlockList.from_block_matrix(matrix)
        smaller = matrix.copy()
        bi, bj = matrix.block_keys()[0]
        smaller.remove_block(bi, bj)
        context = SubmatrixContext()
        naive, _ = reference_apply_blockwise(smaller, lambda a: a @ a, coo=coo)
        planned = context.apply(smaller, lambda a: a @ a, coo=coo)
        assert np.array_equal(
            block_matrix_to_dense(naive), block_matrix_to_dense(planned.result)
        )

    def test_pack_rejects_stored_block_outside_the_pattern(self):
        """A stale plan must not drop the blocks it does not know: it used to
        pack them away and return f of the old pattern without complaint."""
        matrix = random_block_symmetric(8, 3, 1, 3)
        plan = BlockSubmatrixPlan(
            CooBlockList.from_block_matrix(matrix),
            matrix.row_block_sizes,
            [[c] for c in range(8)],
        )
        grown = matrix.copy()
        grown.put_block(5, 0, np.ones((3, 3)))
        grown.put_block(0, 5, np.ones((3, 3)))
        with pytest.raises(
            ValueError, match=r"stored block \(0, 5\) is not in the planned pattern"
        ):
            plan.pack(grown)
        assert np.array_equal(plan.pack(matrix), plan.pack(matrix.copy()))

    def test_finalize_blocks_are_views(self):
        """The zero-copy scatter hands out views into one output buffer."""
        matrix = random_block_symmetric(6, 2, 1, 4)
        coo = CooBlockList.from_block_matrix(matrix)
        plan = BlockSubmatrixPlan(
            coo, matrix.row_block_sizes, [[c] for c in range(6)]
        )
        out = plan.new_output()
        result = plan.finalize(out)
        key = result.block_keys()[0]
        block = result.get_block(*key)
        assert block.base is out



def expected_stats(hits, misses, plans, evictions=0):
    """Full PlanCache.stats dict sans bytes (builds tracks misses; ``patches``
    and ``groups_rebuilt`` are the inert keys the e2e harness reads)."""
    return {
        "hits": hits,
        "misses": misses,
        "builds": misses,
        "patches": 0,
        "groups_rebuilt": 0,
        "evictions": evictions,
        "plans": plans,
    }

class TestPlanCache:
    def test_cache_hit_on_unchanged_pattern(self):
        cache = PlanCache()
        matrix = random_sparse_symmetric(30, 0.1, 1)
        groups = [[c] for c in range(30)]
        first = scalar_plan(matrix, groups, cache)
        assert cache.stats == expected_stats(hits=0, misses=1, plans=1)
        second = scalar_plan(matrix * 3.0, groups, cache)
        assert second is first
        assert cache.stats == expected_stats(hits=1, misses=1, plans=1)

    def test_cache_miss_on_new_pattern_or_grouping(self):
        cache = PlanCache()
        matrix = random_sparse_symmetric(30, 0.1, 1)
        other = random_sparse_symmetric(30, 0.1, 2)
        groups = [[c] for c in range(30)]
        scalar_plan(matrix, groups, cache)
        scalar_plan(other, groups, cache)
        assert cache.misses == 2
        scalar_plan(matrix, random_partition(30, 3), cache)
        assert cache.misses == 3

    def test_block_cache_keyed_by_pattern_content(self):
        cache = PlanCache()
        matrix = random_block_symmetric(8, 2, 1, 3)
        coo_a = CooBlockList.from_block_matrix(matrix)
        coo_b = CooBlockList.from_block_matrix(matrix.copy())
        groups = [[c] for c in range(8)]
        plan_a = cache.block_plan(coo_a, matrix.row_block_sizes, groups)
        plan_b = cache.block_plan(coo_b, matrix.row_block_sizes, groups)
        assert plan_b is plan_a
        assert cache.stats["hits"] == 1

    def test_eviction_respects_max_plans(self):
        cache = PlanCache(max_plans=2)
        groups = [[c] for c in range(20)]
        for seed in range(4):
            scalar_plan(random_sparse_symmetric(20, 0.1, seed), groups, cache)
        assert len(cache) == 2

    def test_method_uses_private_cache_even_when_empty(self):
        """Regression: an empty PlanCache is falsy (__len__) but must be used."""
        cache = PlanCache()
        matrix = random_sparse_symmetric(20, 0.1, 12)
        context = SubmatrixContext(plan_cache=cache)
        context.apply(matrix, lambda a: a @ a)
        context.apply(matrix, lambda a: a @ a)
        assert cache.stats == expected_stats(hits=1, misses=1, plans=1)

    def test_value_only_mutation_hits_cache_without_stale_result(self):
        """Trajectory contract: the content hash keys the *pattern*, so an
        in-place value mutation reuses the plan — and because plans store
        only index arrays (``pack`` re-reads the values every call), the
        cached plan must never replay the previous values."""
        cache = PlanCache()
        matrix = random_block_symmetric(6, 2, 2, 5)
        coo = CooBlockList.from_block_matrix(matrix)
        context = SubmatrixContext(plan_cache=cache)
        first = context.apply(matrix, lambda a: a @ a, coo=coo)
        blocks = matrix.raw_blocks()
        key = sorted(blocks)[0]
        blocks[key][...] *= 2.0  # in-place value change, same pattern
        assert CooBlockList.from_block_matrix(matrix).fingerprint() == (
            coo.fingerprint()
        )
        second = context.apply(matrix, lambda a: a @ a, coo=coo)
        assert cache.stats == expected_stats(hits=1, misses=1, plans=1)
        reference, _ = reference_apply_blockwise(matrix, lambda a: a @ a, coo=coo)
        assert np.array_equal(
            block_matrix_to_dense(second.result),
            block_matrix_to_dense(reference),
        )
        assert not np.array_equal(
            block_matrix_to_dense(second.result),
            block_matrix_to_dense(first.result),
        )

    def test_block_pattern_change_misses_cache(self):
        """Adding (or removing) a block changes the content hash: replan."""
        cache = PlanCache()
        matrix = random_block_symmetric(6, 2, 2, 5)
        coo = CooBlockList.from_block_matrix(matrix)
        groups = [[c] for c in range(6)]
        cache.block_plan(coo, matrix.row_block_sizes, groups)
        grown = block_matrix_from_dense(
            block_matrix_to_dense(matrix), matrix.row_block_sizes
        )
        grown.put_block(0, 5, np.ones((2, 2)))
        grown.put_block(5, 0, np.ones((2, 2)))
        coo_grown = CooBlockList.from_block_matrix(grown)
        assert coo_grown.fingerprint() != coo.fingerprint()
        cache.block_plan(coo_grown, grown.row_block_sizes, groups)
        assert cache.stats == expected_stats(hits=0, misses=2, plans=2)
        shrunk_coo = CooBlockList.from_block_matrix(matrix)
        cache.block_plan(shrunk_coo, matrix.row_block_sizes, groups)
        assert cache.stats["hits"] == 1  # back to the original pattern

    def test_no_cache_given_builds_uncached(self):
        """No process-wide cache: without ``cache=`` every call builds anew."""
        matrix = random_block_symmetric(6, 2, 2, 5)
        coo = CooBlockList.from_block_matrix(matrix)
        groups = [[c] for c in range(6)]
        first = block_plan(coo, matrix.row_block_sizes, groups)
        assert block_plan(coo, matrix.row_block_sizes, groups) is not first
        sparse = random_sparse_symmetric(25, 0.1, 6)
        # two sessions never share plans unless handed one cache
        one, two = SubmatrixContext(), SubmatrixContext()
        one.apply(sparse, lambda a: a @ a)
        two.apply(sparse, lambda a: a @ a)
        assert two.plan_cache.stats["hits"] == 0
        assert two.plan_cache.stats["misses"] == 1


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
        cache.block_plan(a, sizes, groups)
        cache.block_plan(b, sizes, groups)
        assert cache.stats == expected_stats(hits=2, misses=2, plans=2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == expected_stats(hits=0, misses=0, plans=0)

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


class TestPackCanonicalization:
    """A SciPy matrix is packed through its 1×1-block conversion: any
    storage of the planned canonical pattern packs, nothing else does."""

    def make_plan(self):
        matrix = sp.random(10, 10, density=0.3, random_state=4, format="coo")
        matrix = (matrix + matrix.T + sp.identity(10)).tocsr()
        return matrix, scalar_plan(matrix, [[c] for c in range(10)])

    def test_unsorted_indices_pack(self):
        matrix, plan = self.make_plan()
        coo = matrix.tocoo()
        order = np.argsort(-coo.row, kind="stable")  # scramble row order
        shuffled = sp.csc_matrix(
            (coo.data[order], (coo.row[order], coo.col[order])), shape=matrix.shape
        )
        assert np.array_equal(
            plan.pack(scalar_grid(shuffled)), plan.pack(scalar_grid(matrix))
        )

    def test_duplicate_entries_pack(self):
        matrix, plan = self.make_plan()
        coo = matrix.tocoo()
        # split every value into two duplicate entries summing to it
        rows = np.concatenate([coo.row, coo.row])
        cols = np.concatenate([coo.col, coo.col])
        data = np.concatenate([0.25 * coo.data, 0.75 * coo.data])
        duplicated = sp.coo_matrix((data, (rows, cols)), shape=matrix.shape)
        assert np.allclose(
            plan.pack(scalar_grid(duplicated)), plan.pack(scalar_grid(matrix))
        )

    def test_pack_does_not_mutate_caller_matrix(self):
        """Canonicalization must not rewrite the caller's CSC."""
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
        packed = plan.pack(scalar_grid(duplicated))
        assert np.allclose(packed, plan.pack(scalar_grid(matrix)))
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
        plan = scalar_plan(matrix, [[0], [1], [2]])
        packed = plan.pack(scalar_grid(matrix.copy()))
        assert packed.tolist() == [1.0, 0.0, 2.0]

    def test_nnz_mismatch_message(self):
        matrix, plan = self.make_plan()
        extra = matrix.tolil()
        free = np.argwhere(matrix.toarray() == 0.0)
        i, j = free[0]
        extra[int(i), int(j)] = 5.0
        with pytest.raises(
            ValueError, match=rf"stored block \({i}, {j}\) is not in the planned"
        ):
            plan.pack(scalar_grid(extra.tocsr()))

    def test_indices_mismatch_message(self):
        base = sp.identity(4, format="csr") * 2.0
        plan = scalar_plan(base, [[c] for c in range(4)])
        moved = sp.csr_matrix(
            (
                np.array([1.0, 1.0, 1.0, 1.0]),
                (np.array([1, 1, 2, 3]), np.array([0, 1, 2, 3])),
            ),
            shape=(4, 4),
        )
        with pytest.raises(ValueError, match=r"stored block \(1, 0\)"):
            plan.pack(scalar_grid(moved))

    def test_shape_mismatch_message(self):
        matrix, plan = self.make_plan()
        with pytest.raises(ValueError, match="block structure"):
            plan.pack(scalar_grid(sp.identity(11, format="csr")))


class TestBuckets:
    def test_exact_bucketing_groups_equal_dims(self):
        buckets = make_buckets([4, 7, 4, 7, 9])
        assert [(b.dimension, b.members) for b in buckets] == [
            (4, [0, 2]),
            (7, [1, 3]),
            (9, [4]),
        ]

    def test_padded_bucketing_rounds_up(self):
        buckets = make_buckets([3, 5, 8, 13], pad_to=8)
        assert [(b.dimension, b.members) for b in buckets] == [
            (8, [0, 1, 2]),
            (16, [3]),
        ]

    def test_split_chunks(self):
        assert split_chunks([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert split_chunks([], 3) == []
        with pytest.raises(ValueError):
            split_chunks([1], 0)


class TestBatchedEvaluation:
    def test_batched_engine_matches_naive(self):
        matrix = random_block_symmetric(12, 3, 2, 1)
        context = SubmatrixContext()
        naive, _ = reference_apply_blockwise(matrix, lambda a: a @ a)
        batched = context.apply(matrix, lambda a: a @ a)
        assert np.array_equal(
            block_matrix_to_dense(naive), block_matrix_to_dense(batched.result)
        )

    def test_padded_batched_sign_matches_unpadded(self):
        """Identity padding is exact for genuine matrix functions."""
        dense = make_decay_matrix(36, bandwidth=3.0)
        dense[np.abs(dense) < 1e-2] = 0.0
        matrix = block_matrix_from_dense(dense, [3] * 12)
        naive, _ = reference_apply_blockwise(matrix, sign_via_eigendecomposition)
        batched = SubmatrixContext(EngineConfig(bucket_pad=8)).apply(
            matrix,
            sign_via_eigendecomposition,
            batch_function=sign_via_eigendecomposition_batched,
        )
        assert np.allclose(
            block_matrix_to_dense(naive),
            block_matrix_to_dense(batched.result),
            atol=1e-11,
        )

    def test_bucket_pad_rounds_up_to_whole_runs(self, water32_matrices, gap_mu):
        """6-wide molecule blocks, ``bucket_pad=32``: the plan indexes runs of
        6 values, which a 160-wide stack row cannot hold, so the pad becomes
        36 — more identity padding, the same exact matrix function, the same
        run-granular code path (no fallback to element indices)."""
        pair = water32_matrices
        results = {}
        for pad in (None, 32, 36):
            config = EngineConfig(eps_filter=1e-2, bucket_pad=pad)
            with SubmatrixContext(config) as context:
                results[pad] = context.density(
                    pair.K, pair.S, pair.blocks, mu=gap_mu, solver="newton_schulz"
                )
        dimensions = results[None].submatrix_dimensions
        assert len(set(dimensions)) > 4 and all(dim % 6 == 0 for dim in dimensions)
        assert {b.dimension for b in make_buckets(dimensions, 36)} == {144, 180}
        # 32 *is* 36 here: the very same stacks, hence bitwise
        assert np.array_equal(results[32].density_ao, results[36].density_ao)
        # and padding is exact up to how BLAS tiles the larger GEMMs
        assert np.allclose(
            results[32].density_ao, results[None].density_ao, rtol=0.0, atol=1e-12
        )
        assert results[32].submatrix_dimensions == dimensions

    def test_small_stack_cap_still_covers_all_groups(self):
        matrix = random_block_symmetric(10, 2, 1, 2)
        coo = CooBlockList.from_block_matrix(matrix)
        groups = [[c] for c in range(10)]
        plan = block_plan(coo, matrix.row_block_sizes, groups, cache=PlanCache())
        packed = plan.pack(matrix)
        results = evaluate_batched(
            plan, packed, function=lambda a: a @ a, max_batch_elements=1
        )
        assert len(results) == plan.n_groups
        for index in range(plan.n_groups):
            reference = plan.extract(packed, index)
            assert np.array_equal(results[index], reference @ reference)


class TestBatchedSignKernels:
    def test_batched_eigen_sign_matches_single(self, rng):
        stack = np.stack(
            [make_decay_matrix(12, seed=seed) for seed in range(5)]
        )
        batched = sign_via_eigendecomposition_batched(stack, mu=0.1)
        for index in range(stack.shape[0]):
            single = sign_via_eigendecomposition(stack[index], mu=0.1)
            assert np.allclose(batched[index], single, atol=1e-12)

    def test_batched_newton_schulz_matches_single(self):
        stack = np.stack(
            [make_decay_matrix(14, seed=seed) for seed in range(6)]
        )
        batched = sign_newton_schulz_batched(stack)
        assert batched.converged.all()
        for index in range(stack.shape[0]):
            single = sign_newton_schulz(stack[index])
            assert single.converged
            assert batched.iterations[index] == single.iterations
            assert np.allclose(batched.sign[index], single.sign, atol=1e-12)

    def test_batched_newton_schulz_rejects_non_stack(self):
        with pytest.raises(ValueError):
            sign_newton_schulz_batched(np.eye(3))


class TestSignDFTPlanEquivalence:
    def test_grand_canonical_plan_matches_naive(self, water32_matrices, gap_mu):
        pair = water32_matrices
        fast = SubmatrixContext(EngineConfig(eps_filter=1e-5))
        result_fast = fast.density(
            pair.K, pair.S, pair.blocks, mu=gap_mu
        )
        result_slow = reference_density(
            pair.K, pair.S, pair.blocks, gap_mu, eps_filter=1e-5
        )
        assert result_fast.n_electrons == pytest.approx(result_slow.n_electrons)
        assert result_fast.band_energy == pytest.approx(result_slow.band_energy)
        assert np.allclose(
            result_fast.density_ao, result_slow.density_ao, atol=1e-10
        )
        assert sorted(result_fast.submatrix_dimensions) == sorted(
            result_slow.submatrix_dimensions
        )

    def test_canonical_bisection_plan_matches_naive(self, water32_matrices):
        pair = water32_matrices
        n_electrons = 8.0 * 32  # 8 valence electrons per water molecule
        fast = SubmatrixContext(EngineConfig(eps_filter=1e-5))
        result_fast = fast.density(
            pair.K, pair.S, pair.blocks, n_electrons=n_electrons
        )
        # the bisected μ, pushed through the reference loop, fills the
        # requested number of electrons with the same density
        result_slow = reference_density(
            pair.K, pair.S, pair.blocks, result_fast.mu, eps_filter=1e-5
        )
        assert result_slow.n_electrons == pytest.approx(n_electrons, abs=1e-6)
        assert result_fast.n_electrons == pytest.approx(n_electrons, abs=1e-6)
        assert np.allclose(
            result_fast.density_ao, result_slow.density_ao, atol=1e-10
        )

    def test_iterative_solver_plan_matches_naive(self, water32_matrices, gap_mu):
        pair = water32_matrices
        fast = SubmatrixContext(EngineConfig(eps_filter=1e-5))
        result_fast = fast.density(
            pair.K, pair.S, pair.blocks, mu=gap_mu, solver="newton_schulz"
        )
        result_slow = reference_density(
            pair.K,
            pair.S,
            pair.blocks,
            gap_mu,
            eps_filter=1e-5,
            sign_function=lambda a: sign_newton_schulz(a).sign,
        )
        assert np.allclose(
            result_fast.density_ao, result_slow.density_ao, atol=1e-8
        )
