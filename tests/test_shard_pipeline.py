"""Tests for plan sharding, packed-segment transfers and the pipeline.

Covers the acceptance criteria of the rank-sharded refactor:

* :class:`~repro.core.shard.ShardedPlan` reproduces the unsharded plan's
  extraction and scatter bitwise from rank-local packed buffers;
* the rank loop (:func:`~repro.core.runner.run_stacks`) over a
  :class:`~repro.core.runner.DistributedSubmatrixPipeline` reproduces the
  single-process engine result bitwise for every rank count
  in {1, 2, 4, 8}, on synthetic systems and on the water benchmark — and
  for 3, 5, 24 and 30 ranks (more ranks than submatrices) on the synthetic
  one — with every rank owning one greedy consecutive chunk of the c·n³
  costs (Sec. IV-E);
* a shard's required segments are exactly the required blocks of
  :func:`~repro.core.transfers.plan_transfers` (hypothesis-drawn ragged
  patterns, combined column groups, 1–8 ranks, explicit distributions), so
  the exact deduplicated whole-block volume is the bytes a shard packs —
  the one fetch volume — with deduplication invariants and conserved
  totals across rank counts.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import EngineConfig, SubmatrixContext
from repro.api.config import EIGENSOLVE_FLOP_CONSTANT
from repro.chem import HamiltonianModel, build_matrices, orthogonalized_ks
from repro.chem.basis import SZV
from repro.core import (
    DistributedSubmatrixPipeline,
    ShardedPlan,
    assign_consecutive_chunks,
    block_plan,
    plan_transfers,
    single_column_groups,
    submatrix_flop_costs,
)
from repro.core.combination import ColumnGrouping, group_columns_greedy_chunks
from repro.dbcsr import BlockDistribution, BlockSparseMatrix, CooBlockList, ProcessGrid2D
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_csr
from repro.parallel import MachineModel
from repro.signfn import (
    sign_newton_schulz_batched,
    sign_via_eigendecomposition,
)
from repro.signfn.registry import KERNELS, get_kernel

from conftest import run_pipeline
from submatrix_reference import (
    REFERENCE_DENSITY_ATOL,
    assert_same_blocks,
    assign_consecutive_chunks_reference,
    reference_apply_blockwise,
    reference_density,
)

RANK_COUNTS = (1, 2, 4, 8)
MU = 0.1
#: sign(A − MU·I) as a kernel spec, and as a bare per-matrix callable
SIGN = dict(function="eigen", mu=MU)
SIGN_PER_MATRIX = lambda a: sign_via_eigendecomposition(a, MU)  # noqa: E731


def banded_block_matrix(n_blocks=24, bandwidth=2, seed=7):
    """Symmetric banded block matrix with mixed block sizes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 6, n_blocks)
    blocks = {}
    for i in range(n_blocks):
        for j in range(i, min(n_blocks, i + bandwidth + 1)):
            block = rng.standard_normal((sizes[i], sizes[j]))
            if i == j:
                blocks[i, j] = 0.5 * (block + block.T)
            else:
                blocks[i, j] = block
                blocks[j, i] = block.T
    return BlockSparseMatrix(sizes, sizes, blocks), sizes


@pytest.fixture(scope="module")
def block_system():
    matrix, sizes = banded_block_matrix()
    coo = CooBlockList.from_block_matrix(matrix)
    return matrix, sizes, coo


@pytest.fixture(scope="module")
def reference_blocks(block_system):
    """Single-process batched-engine result (the bitwise oracle)."""
    matrix, _, coo = block_system
    return SubmatrixContext().apply(matrix, coo=coo, **SIGN).result


class TestShardedPlan:
    def test_shard_extraction_bitwise(self, block_system):
        matrix, sizes, coo = block_system
        plan = block_plan(coo, sizes, [[c] for c in range(coo.n_block_cols)])
        packed = plan.pack(matrix)
        rank_of_group = np.arange(plan.n_groups) % 3
        sharded = ShardedPlan(plan, rank_of_group, 3)
        for shard in sharded.shards:
            local = shard.pack_local(packed)
            assert local.size == shard.view.local_values
            for slot, group in enumerate(shard.group_indices):
                expected = plan.extract_stack(packed, [int(group)])[0]
                assert np.array_equal(
                    expected, shard.view.extract_stack(local, [slot])[0]
                )

    def test_shard_scatter_matches_unsharded(self, block_system):
        matrix, sizes, coo = block_system
        plan = block_plan(coo, sizes, [[c] for c in range(coo.n_block_cols)])
        rng = np.random.default_rng(3)
        rank_of_group = rng.integers(0, 4, plan.n_groups)
        sharded = ShardedPlan(plan, rank_of_group, 4)
        direct, via_shards = plan.new_output(), plan.new_output()
        for group in range(plan.n_groups):
            values = rng.random((plan.groups[group].dimension,) * 2)
            plan.scatter(direct, group, values)
            shard = sharded.shards[int(rank_of_group[group])]
            slot = int(np.searchsorted(shard.group_indices, group))
            shard.view.scatter(via_shards, slot, values)
        assert np.array_equal(direct, via_shards)

    def test_required_segments_sorted_unique_and_cover_gathers(self, block_system):
        matrix, sizes, coo = block_system
        plan = block_plan(coo, sizes, [[c] for c in range(coo.n_block_cols)])
        sharded = ShardedPlan(plan, np.arange(plan.n_groups) % 4, 4)
        offsets = plan.segment_offsets()
        for shard in sharded.shards:
            ids = shard.required_segments
            assert np.array_equal(ids, np.unique(ids))  # sorted, deduplicated
            # the local buffer holds exactly the referenced segments, whole
            lengths = offsets[ids + 1] - offsets[ids]
            local_offsets = np.concatenate(([0], np.cumsum(lengths)))
            assert shard.view.local_values == local_offsets[-1]
            assert shard.local_to_global.size * plan.run == lengths.sum()
            referenced = {
                int(s)
                for group in shard.view.groups
                for s in np.unique(
                    np.searchsorted(
                        local_offsets, group.gather_src * plan.run, side="right"
                    )
                    - 1
                )
            }
            assert referenced <= set(range(ids.size))

    def test_empty_rank_gets_empty_shard(self, block_system):
        matrix, sizes, coo = block_system
        plan = block_plan(coo, sizes, [[c] for c in range(coo.n_block_cols)])
        sharded = ShardedPlan(plan, np.zeros(plan.n_groups, dtype=int), 2)
        empty = sharded.shards[1]
        assert empty.n_groups == 0
        assert empty.view.local_values == 0
        assert empty.required_segments.size == 0

    def test_rank_assignment_validated(self, block_system):
        matrix, sizes, coo = block_system
        plan = block_plan(coo, sizes, [[c] for c in range(coo.n_block_cols)])
        with pytest.raises(ValueError):
            ShardedPlan(plan, [0])
        with pytest.raises(IndexError):
            ShardedPlan(plan, [9] * plan.n_groups, 2)


@st.composite
def sharded_transfer_cases(draw):
    """A ragged block pattern, combined column groups, 1–8 ranks and an
    explicit block distribution over a drawn process grid."""
    n = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    mask = draw(arrays(np.bool_, (n, n), elements=st.booleans()))
    if draw(st.booleans()):
        mask = mask | mask.T | np.eye(n, dtype=bool)
    rows, cols = np.nonzero(mask)
    coo = CooBlockList(rows, cols, n, n)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = [
        [column for column in range(n) if labels[column] == label]
        for label in sorted(set(labels))
    ]
    n_ranks = draw(st.integers(1, 8))
    rank_of_group = draw(
        st.lists(
            st.integers(0, n_ranks - 1), min_size=len(groups), max_size=len(groups)
        )
    )
    grid_rows = draw(
        st.sampled_from([d for d in range(1, n_ranks + 1) if n_ranks % d == 0])
    )
    grid_cols = n_ranks // grid_rows
    distribution = BlockDistribution(
        n,
        n,
        ProcessGrid2D(n_ranks, (grid_rows, grid_cols)),
        row_distribution=draw(
            st.lists(st.integers(0, grid_rows - 1), min_size=n, max_size=n)
        ),
        col_distribution=draw(
            st.lists(st.integers(0, grid_cols - 1), min_size=n, max_size=n)
        ),
    )
    return coo, sizes, groups, rank_of_group, n_ranks, distribution


@pytest.mark.slow
@given(sharded_transfer_cases())
@settings(max_examples=120, deadline=None)
def test_shard_required_segments_are_the_planned_required_blocks(case):
    """The fact that makes one fetch volume enough: every rank's shard packs
    exactly the blocks the exact transfer plan fetches or holds."""
    coo, sizes, groups, rank_of_group, n_ranks, distribution = case
    sharded = ShardedPlan(block_plan(coo, sizes, groups), rank_of_group, n_ranks)
    transfer = plan_transfers(
        coo, sizes, distribution, ColumnGrouping(groups), rank_of_group
    )
    for shard, summary in zip(sharded.shards, transfer.per_rank):
        assert np.array_equal(shard.required_segments, summary.required_blocks)


class TestPackedSegmentTransfers:
    @pytest.fixture()
    def transfer_inputs(self, block_system):
        matrix, sizes, coo = block_system
        grouping = single_column_groups(coo.n_block_cols)
        plan = block_plan(coo, sizes, grouping.groups)
        return coo, sizes, grouping, plan

    def _plans_for(self, coo, sizes, grouping, plan, n_ranks, per_group_dedup=True):
        grid = ProcessGrid2D(n_ranks, (n_ranks, 1))
        distribution = BlockDistribution(coo.n_block_rows, coo.n_block_cols, grid)
        rank_of_group = [g % n_ranks for g in range(grouping.n_submatrices)]
        sharded = ShardedPlan(plan, rank_of_group, n_ranks)
        transfer = plan_transfers(
            coo,
            sizes,
            distribution,
            grouping,
            rank_of_group,
            per_group_dedup=per_group_dedup,
        )
        return sharded, transfer, distribution

    @staticmethod
    def _remote_shard_bytes(coo, sizes, distribution, shard):
        """Bytes of the shard's packed segments that another rank owns."""
        ids = shard.required_segments
        sizes = np.asarray(list(sizes))
        owners = distribution.owners_of_blocks(coo.rows[ids], coo.cols[ids])
        nbytes = sizes[coo.rows[ids]] * sizes[coo.cols[ids]] * 8.0
        return float(nbytes[owners != shard.rank].sum())

    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_fetch_is_the_remote_part_of_the_shard_buffer(
        self, transfer_inputs, n_ranks
    ):
        coo, sizes, grouping, plan = transfer_inputs
        sharded, transfer, distribution = self._plans_for(
            coo, sizes, grouping, plan, n_ranks
        )
        for shard, summary in zip(sharded.shards, transfer.per_rank):
            assert summary.fetch_bytes == self._remote_shard_bytes(
                coo, sizes, distribution, shard
            )
            assert summary.fetch_bytes <= summary.fetch_bytes_without_dedup + 1e-9

    def test_fast_path_overestimates_the_shard_volume(self, transfer_inputs):
        """per_group_dedup=False over-approximates what the shards pack."""
        coo, sizes, grouping, plan = transfer_inputs
        sharded, exact, distribution = self._plans_for(coo, sizes, grouping, plan, 4)
        _, fast, _ = self._plans_for(
            coo, sizes, grouping, plan, 4, per_group_dedup=False
        )
        shard_bytes = sum(
            self._remote_shard_bytes(coo, sizes, distribution, shard)
            for shard in sharded.shards
        )
        assert exact.total_fetch_bytes == pytest.approx(shard_bytes)
        assert fast.total_fetch_bytes > exact.total_fetch_bytes

    def test_dedup_invariants(self, transfer_inputs):
        coo, sizes, grouping, plan = transfer_inputs
        sharded, transfer, distribution = self._plans_for(
            coo, sizes, grouping, plan, 4
        )
        sizes = np.asarray(list(sizes))
        bytes_by_id = sizes[coo.rows] * sizes[coo.cols] * 8.0
        owners = distribution.owners_of_blocks(coo.rows, coo.cols)
        for rank, (shard, summary) in enumerate(
            zip(sharded.shards, transfer.per_rank)
        ):
            # shard-required segments are exactly the plan's required blocks
            assert np.array_equal(shard.required_segments, summary.required_blocks)
            # each remote block is charged exactly once, at its true size
            remote = summary.required_blocks[owners[summary.required_blocks] != rank]
            assert summary.fetch_bytes == pytest.approx(
                float(bytes_by_id[remote].sum())
            )

    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_totals_conserved_across_rank_counts(self, transfer_inputs, n_ranks):
        coo, sizes, grouping, plan = transfer_inputs
        sharded, transfer, _ = self._plans_for(coo, sizes, grouping, plan, n_ranks)
        # every group is owned exactly once
        assert sum(s.n_submatrices for s in transfer.per_rank) == grouping.n_submatrices
        assert sum(s.n_groups for s in sharded.shards) == plan.n_groups
        # the union of required segments covers every segment some group needs
        union = np.unique(
            np.concatenate([shard.required_segments for shard in sharded.shards])
        )
        single_rank = ShardedPlan(plan, np.zeros(plan.n_groups, dtype=int), 1)
        assert np.array_equal(union, single_rank.shards[0].required_segments)
        # matrices agree with the per-rank summaries
        assert transfer.fetch_matrix.sum() == pytest.approx(
            transfer.total_fetch_bytes
        )
        assert transfer.writeback_matrix.sum() == pytest.approx(
            transfer.total_writeback_bytes
        )

    def test_single_rank_has_no_fetch_traffic(self, transfer_inputs):
        coo, sizes, grouping, plan = transfer_inputs
        _, transfer, _ = self._plans_for(coo, sizes, grouping, plan, 1)
        assert transfer.total_fetch_bytes == 0.0

    def test_traffic_log_charges_the_one_fetch_volume(self, transfer_inputs):
        coo, sizes, grouping, plan = transfer_inputs
        _, transfer, _ = self._plans_for(coo, sizes, grouping, plan, 4)
        log = transfer.to_traffic_log()
        assert log.total_bytes_sent() == pytest.approx(
            transfer.total_fetch_bytes + transfer.total_writeback_bytes
        )
        # one volume: no segment index, no choice of granularity
        assert "segment_index" not in inspect.signature(plan_transfers).parameters
        for method in (transfer.to_traffic_log, DistributedSubmatrixPipeline.traffic_log):
            assert "use_segments" not in inspect.signature(method).parameters


class TestDistributedPipeline:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_bitwise_identical_to_batched_engine(
        self, block_system, reference_blocks, n_ranks
    ):
        matrix, sizes, coo = block_system
        pipeline = DistributedSubmatrixPipeline(coo, sizes, n_ranks)
        result = run_pipeline(pipeline, matrix, **SIGN)
        assert_same_blocks(reference_blocks, result)
        transfers = pipeline.transfer_plan
        for shard, summary in zip(pipeline.prepare()[1].shards, transfers.per_rank):
            assert np.array_equal(shard.required_segments, summary.required_blocks)

    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_each_rank_takes_one_greedy_consecutive_chunk(
        self, block_system, n_ranks
    ):
        """Sec. IV-E: rank r owns the r-th chunk of the greedy consecutive
        split of the c·n³ costs (the item-by-item reference agrees), and its
        shard holds exactly those submatrices and that work."""
        matrix, sizes, coo = block_system
        pipeline = DistributedSubmatrixPipeline(coo, sizes, n_ranks)
        costs = submatrix_flop_costs(pipeline.dimensions)
        assert np.array_equal(pipeline.costs, costs)
        chunks = assign_consecutive_chunks(costs, n_ranks)
        assert chunks == assign_consecutive_chunks_reference(costs, n_ranks)
        shards = pipeline.prepare()[1].shards
        for rank, (start, stop) in enumerate(chunks):
            owned = np.arange(start, stop)
            assert stop > start
            assert np.array_equal(np.flatnonzero(pipeline.rank_of_group == rank), owned)
            assert np.array_equal(shards[rank].group_indices, owned)
            assert pipeline.rank_flops[rank] == pytest.approx(costs[start:stop].sum())

    @pytest.mark.parametrize("n_ranks", [3, 5, 24, 30])
    def test_uneven_and_oversubscribed_rank_counts_bitwise(
        self, block_system, reference_blocks, n_ranks
    ):
        """Rank counts that divide nothing, one submatrix per rank, and more
        ranks than submatrices (the trailing ranks get empty shards) all
        reproduce the single-process result bitwise."""
        matrix, sizes, coo = block_system
        pipeline = DistributedSubmatrixPipeline(coo, sizes, n_ranks)
        result = run_pipeline(pipeline, matrix, **SIGN)
        assert_same_blocks(reference_blocks, result)
        shards = pipeline.prepare()[1].shards
        assert sum(shard.n_groups for shard in shards) == coo.n_block_cols
        empty = sum(shard.n_groups == 0 for shard in shards)
        assert empty == max(0, n_ranks - coo.n_block_cols)

    def test_grouped_columns_supported(self, block_system):
        matrix, sizes, coo = block_system
        grouping = group_columns_greedy_chunks(coo.n_block_cols, 3)
        ctx = SubmatrixContext()
        single = ctx.apply(matrix, SIGN_PER_MATRIX, grouping=grouping, coo=coo)
        pipeline = DistributedSubmatrixPipeline(coo, sizes, 4, grouping=grouping)
        result = run_pipeline(pipeline, matrix, SIGN_PER_MATRIX)
        assert_same_blocks(single.result, result)
        via_session = ctx.apply(
            matrix, SIGN_PER_MATRIX, grouping=grouping, coo=coo, ranks=4
        )
        assert_same_blocks(single.result, via_session.result)

    def test_threaded_run_with_reused_executor(self, block_system, reference_blocks):
        from concurrent.futures import ThreadPoolExecutor

        matrix, sizes, coo = block_system
        pipeline = DistributedSubmatrixPipeline(coo, sizes, 4)
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(2):  # the pool survives repeated evaluations
                result = run_pipeline(
                    pipeline,
                    matrix,
                    mapper=lambda run, ranks: list(pool.map(run, ranks)),
                    **SIGN,
                )
                assert_same_blocks(reference_blocks, result)

    def test_process_backend_rejected(self, block_system):
        """Ranks scatter into shared memory; a process pool cannot."""
        with pytest.raises(ValueError):
            SubmatrixContext(EngineConfig(backend="process"))

    def test_traffic_log_matches_assignment_flops(self, block_system):
        matrix, sizes, coo = block_system
        pipeline = DistributedSubmatrixPipeline(coo, sizes, 4)
        log = pipeline.traffic_log()
        dims = np.asarray(pipeline.dimensions, dtype=float)
        assert log.total_flops() == pytest.approx(
            EIGENSOLVE_FLOP_CONSTANT * float(np.sum(dims**3))
        )

    def test_cost_wrapper_consistent_with_pipeline(self, block_system):
        from repro.core import submatrix_method_cost

        matrix, sizes, coo = block_system
        machine = MachineModel()
        cost = submatrix_method_cost(coo, sizes, 4, machine)
        pipeline = DistributedSubmatrixPipeline(coo, sizes, 4)
        assert cost.total_flops == pytest.approx(
            pipeline.cost(machine).total_flops
        )
        assert cost.details["fetch_bytes"] == pipeline.transfer_plan.total_fetch_bytes
        assert not {"segment_fetch_bytes", "segment_savings"} & set(cost.details)


class TestWaterBenchmarkAcceptance:
    """Acceptance criteria on the water system (paper's benchmark family)."""

    @pytest.fixture(scope="class")
    def water_setup(self, water32_matrices):
        k_ortho, _ = orthogonalized_ks(
            water32_matrices.K, water32_matrices.S, eps_filter=1e-5
        )
        blocked = block_matrix_from_csr(
            k_ortho, water32_matrices.blocks.block_sizes, threshold=0.0
        )
        coo = CooBlockList.from_block_matrix(blocked)
        return blocked, water32_matrices.blocks.block_sizes, coo

    @pytest.fixture(scope="class")
    def water_reference(self, water_setup):
        blocked, sizes, coo = water_setup
        return SubmatrixContext().apply(blocked, coo=coo, **SIGN).result

    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_bitwise_and_fetch_volume(
        self, water_setup, water_reference, n_ranks
    ):
        blocked, sizes, coo = water_setup
        pipeline = DistributedSubmatrixPipeline(coo, sizes, n_ranks)
        result = run_pipeline(pipeline, blocked, **SIGN)
        assert_same_blocks(water_reference, result)
        assert len(pipeline.transfer_plan.per_rank) == n_ranks
        shards = pipeline.prepare()[1].shards
        for shard, summary in zip(shards, pipeline.transfer_plan.per_rank):
            assert np.array_equal(shard.required_segments, summary.required_blocks)
            assert summary.fetch_bytes <= summary.fetch_bytes_without_dedup

    @pytest.mark.slow
    @pytest.mark.parametrize("solver", ["eigen", "newton_schulz"])
    def test_one_bucket_loop_behind_every_route(
        self, water32_matrices, water_setup, gap_mu, solver
    ):
        """Single-process ≡ ranks {1, 2, 4}, for densities and f(A) alike —
        all through ``core.runner.run_stacks``."""
        pair = water32_matrices
        config = EngineConfig(engine="batched", eps_filter=1e-5)

        def density(config, **kwargs):
            with SubmatrixContext(config) as ctx:
                return ctx.density(
                    pair.K, pair.S, pair.blocks, mu=gap_mu, solver=solver, **kwargs
                )

        def assert_same_density(result, reference):
            assert np.array_equal(result.density_ao, reference.density_ao)
            assert np.array_equal(
                result.density_ortho.toarray(), reference.density_ortho.toarray()
            )
            assert result.band_energy == reference.band_energy

        single = density(config)
        for ranks in (1, 2, 4):
            assert_same_density(density(config, ranks=ranks), single)

        blocked, sizes, coo = water_setup
        with SubmatrixContext(config) as ctx:
            whole = ctx.apply(blocked, solver, mu=gap_mu).result
            ran = ctx.apply(blocked, solver, mu=gap_mu, ranks=2)
        assert_same_blocks(whole, ran.result)
        built = run_pipeline(
            DistributedSubmatrixPipeline(coo, sizes, 2), blocked, solver, mu=gap_mu
        )
        assert_same_blocks(whole, built)


class TestExecutorParity:
    """One rank loop and one stack solver behind ``apply`` and ``density``."""

    EPS = 1e-4

    @classmethod
    def _evaluate(cls, entry, pair, blocked, mu, kernel, config, ranks=None, ctx=None):
        """``(values, n_ranks, kernel_fallbacks)`` of one call — in ``ctx``
        when given, else in a new context."""
        if ctx is None:
            with SubmatrixContext(config) as ctx:
                return cls._evaluate(
                    entry, pair, blocked, mu, kernel, config, ranks, ctx
                )
        if entry == "apply":
            run = ctx.apply(blocked, kernel, mu=mu, ranks=ranks)
            values = (block_matrix_to_csr(run.result).toarray(),)
        else:
            run = ctx.density(
                pair.K, pair.S, pair.blocks, mu=mu, solver=kernel, ranks=ranks
            )
            values = (run.density_ao, run.density_ortho.toarray(), run.band_energy)
        return values, run.n_ranks, run.kernel_fallbacks

    @pytest.fixture(scope="class")
    def system(self, water32):
        """Short-decay water: submatrix dimensions 6/12/18 (three buckets),
        so every case costs milliseconds.  ``(pair, blocked, mu)``."""
        basis = dataclasses.replace(
            SZV, name="SZV-short-decay", decay_length=0.20, overlap_decay_length=0.16
        )
        model = HamiltonianModel(basis=basis)
        pair = build_matrices(water32, model=model)
        k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=self.EPS)
        blocked = block_matrix_from_csr(
            k_ortho, pair.blocks.block_sizes, threshold=0.0
        )
        return pair, blocked, model.homo_lumo_gap_center()

    @pytest.fixture(scope="class")
    def clean_single_process(self, system):
        """The single-process result of every (entry, kernel) — for
        ``eigen`` checked against the per-submatrix reference loop."""
        pair, blocked, gap_mu = system
        config = EngineConfig(eps_filter=self.EPS)
        results = {
            (entry, kernel): self._evaluate(
                entry, pair, blocked, gap_mu, kernel, config
            )[0]
            for entry in ("apply", "density")
            for kernel in ("eigen", "newton_schulz")
        }
        loop, _ = reference_apply_blockwise(
            blocked, lambda a: sign_via_eigendecomposition(a, gap_mu)
        )
        assert np.array_equal(
            results["apply", "eigen"][0], block_matrix_to_csr(loop).toarray()
        )
        # the engine back-transforms the sparse D̃ in row panels, the reference
        # with two dense GEMMs: the same terms summed in another order
        density = reference_density(pair.K, pair.S, pair.blocks, gap_mu, self.EPS)
        assert (
            np.max(np.abs(results["density", "eigen"][0] - density.density_ao))
            <= REFERENCE_DENSITY_ATOL
        )
        return results

    @pytest.mark.parametrize("context", ["clean", "warm"])
    @pytest.mark.parametrize("ranks", [None, 1, 2, 4])
    @pytest.mark.parametrize("kernel", ["eigen", "newton_schulz"])
    @pytest.mark.parametrize("entry", ["apply", "density"])
    def test_executor_parity(
        self, system, clean_single_process, entry, kernel, ranks, context
    ):
        """``apply`` and ``density`` run the same rank loop: any rank count
        reproduces the single-process result bitwise, in a new context and
        in one that already holds the call's plan and pipeline (a repeated
        call builds neither), and Newton–Schulz converges every submatrix
        (no ``eigen`` fallback)."""
        pair, blocked, gap_mu = system
        config = EngineConfig(eps_filter=self.EPS)

        def built(ctx):
            stats = ctx.stats()
            return stats["plan_cache"]["misses"], stats["pipelines_built"]

        with SubmatrixContext(config) as ctx:
            if context == "warm":
                self._evaluate(entry, pair, blocked, gap_mu, kernel, config, ranks, ctx)
                before = built(ctx)
            values, n_ranks, fallbacks = self._evaluate(
                entry, pair, blocked, gap_mu, kernel, config, ranks, ctx
            )
            if context == "warm":
                assert built(ctx) == before
        for ours, reference in zip(values, clean_single_process[entry, kernel]):
            assert np.array_equal(ours, reference)
        assert n_ranks == (ranks or 1)
        assert fallbacks == 0

    @pytest.mark.parametrize("ranks", [None, 2])
    @pytest.mark.parametrize("entry", ["apply", "density"])
    def test_unconverged_submatrix_is_evaluated_by_eigen(
        self, system, clean_single_process, entry, ranks, monkeypatch
    ):
        """A fake iterative kernel — Newton–Schulz whose convergence-checked
        variant reports the submatrix of block column 0 as not converged and
        hands NaN back for it — through ``apply`` and ``density``, single
        process and two ranks: that submatrix comes from ``eigen`` and is
        counted once, every other one is bitwise the kernel's own output."""
        pair, blocked, gap_mu = system
        plan = block_plan(
            CooBlockList.from_block_matrix(blocked),
            blocked.row_block_sizes,
            single_column_groups(blocked.n_block_cols).groups,
        )
        dimension = plan.dimensions[0]
        # column 0's submatrix as the kernel sees it, shifted by μ
        stalled = plan.extract_stack(plan.pack(blocked), [0], dimension)[0]
        stalled[np.diag_indices(dimension)] -= gap_mu

        def make_checked(mu=0.0):
            def checked(stack):
                result = sign_newton_schulz_batched(
                    stack, max_iterations=100, shift=mu
                )
                shifted = stack - mu * np.eye(stack.shape[-1])
                converged = result.converged.copy()
                for slot in range(stack.shape[0]):
                    if np.array_equal(shifted[slot], stalled):
                        converged[slot] = False
                        result.finish([slot], np.full(stalled.shape, np.nan))
                return result, converged

            return checked

        # in the kernel table for this test only
        name = "test-stalling-newton-schulz"
        monkeypatch.setitem(
            KERNELS,
            name,
            dataclasses.replace(
                get_kernel("newton_schulz"), name=name, make_checked_batched=make_checked
            ),
        )
        config = EngineConfig(eps_filter=self.EPS)
        values, _, fallbacks = self._evaluate(
            entry, pair, blocked, gap_mu, name, config, ranks
        )
        assert fallbacks == 1
        # the packed result of f(A), or the orthogonal-basis density
        index = 0 if entry == "apply" else 1
        ours = values[index]
        kernel_own = clean_single_process[entry, "newton_schulz"][index]
        eigen = clean_single_process[entry, "eigen"][index]
        width = pair.blocks.block_sizes[0]
        assert np.array_equal(ours[:, width:], kernel_own[:, width:])
        if entry == "apply":
            assert np.array_equal(ours[:, :width], eigen[:, :width])
        else:
            # sign from eigh mapped to 1/2(I − sign) here, the eigen solver's
            # Fermi occupations there: the same projector up to rounding
            assert np.allclose(ours[:, :width], eigen[:, :width], rtol=0, atol=1e-12)
