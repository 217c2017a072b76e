"""The sparse Löwdin envelope: S^{-1/2}·K·S^{-1/2} and S^{-1/2}·D̃·S^{-1/2}.

:func:`~repro.dbcsr.product.triple_product` multiplies only the column runs
a sparse operand stores (:func:`~repro.dbcsr.product.panel_product`), and
S^{-1/2} only over its runs above the rounding floor
(:func:`~repro.dbcsr.product.floor_runs`); it falls back to the dense
expression, bitwise, when the operand is full, the root is dense above its
floor, or the panels would not pay.  These tests hold the product to the
dense GEMM's rounding bound on arbitrary block patterns, the truncated root
to its a-priori bound, the fallback to today's bits, the densities to the
reference and the dense oracle, determinism to the bit, and the request
checks that guard the envelope.  The block-norm screen of K̃
(:func:`~repro.dbcsr.product.screened_product`) is held to the dense
route's blocks, its bound, its bitwise fallbacks and its cached norms.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.api.context
import repro.api.observables as observables_module
import repro.chem.orthogonalize as orthogonalize_module
import repro.dbcsr.product as product_module
import repro.dbcsr.convert as convert_module
from repro.api import EngineConfig, SubmatrixContext
from repro.api.observables import assemble_result, prepare_step
from repro.api.results import EnergyWeightedDensityResult, ObservableBundle
from repro.chem import (
    SZV,
    HamiltonianModel,
    build_matrices,
    reference_density_matrix,
    water_box,
)
from repro.chem.orthogonalize import (
    SYMMETRY_ATOL,
    SYMMETRY_RTOL,
    loewdin_inverse_sqrt,
    orthogonalized_ks,
    orthogonalized_ks_blocks,
)
from repro.dbcsr import BlockSparseMatrix
from repro.dbcsr.convert import (
    block_matrix_from_csr,
    block_matrix_from_dense,
    block_matrix_to_csr,
    block_matrix_to_dense,
)
from repro.dbcsr.product import (
    DENSE_FILL,
    PANEL_ROWS,
    PANEL_WORK,
    SCREEN_ROUNDING,
    block_norms,
    column_runs,
    floor_runs,
    panel_product,
    screened_product,
    stored_fill,
    triple_product,
)
from repro.parallel.executor import (
    BLAS_THREAD_VARIABLES,
    MAX_BATCH_ELEMENTS,
    TaskExecutionError,
    blas_threads,
    make_executor,
    map_parallel,
)
from repro.serve import DensityService
from submatrix_reference import (
    REFERENCE_DENSITY_ATOL,
    assert_matches_reference_density,
    reference_density,
)

EPS = np.finfo(float).eps


# --------------------------------------------------------------------------- #
# block patterns
# --------------------------------------------------------------------------- #
@st.composite
def block_patterns(draw):
    """A block matrix of ragged, 1×1 or panel-crossing blocks on a random,
    banded (periodic wrap-around) or full pattern, with empty block rows and
    explicitly stored zero blocks; returns it and a dense right factor."""
    kind = draw(st.sampled_from(["random", "band", "full", "unit", "tall"]))
    if kind == "unit":
        sizes = [1] * draw(st.integers(1, 130))
    elif kind == "tall":  # blocks that meet two or three panels
        sizes = draw(
            st.lists(st.integers(1, 2 * PANEL_ROWS + 5), min_size=1, max_size=4)
        )
    else:
        sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=26))
    n_blocks = len(sizes)
    if kind == "full":
        occupied = np.ones((n_blocks, n_blocks), dtype=bool)
    elif kind == "band":
        width = draw(st.integers(0, 3))
        offset = np.subtract.outer(np.arange(n_blocks), np.arange(n_blocks))
        offset %= n_blocks
        occupied = (offset <= width) | (offset >= n_blocks - width)
    else:
        occupied = draw(arrays(np.bool_, (n_blocks, n_blocks)))
    if kind != "full":
        for empty in draw(st.sets(st.integers(0, n_blocks - 1), max_size=3)):
            occupied[empty] = False
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.3]))
    blocks = {}
    for bi, bj in zip(*np.nonzero(occupied)):
        block = rng.standard_normal((sizes[bi], sizes[bj]))
        if rng.random() < zero_share:
            block[:] = 0.0  # an explicitly stored zero block
        blocks[int(bi), int(bj)] = block
    matrix = BlockSparseMatrix(sizes, blocks=blocks)
    right = rng.standard_normal((sum(sizes), draw(st.integers(1, 40))))
    return matrix, right


def dropped_elements(root, runs):
    """|X − X̂|: the magnitudes of the elements of ``root`` outside ``runs``."""
    dropped = np.abs(root)
    for start, stop, begins, ends in runs:
        for first, last in zip(begins, ends):
            dropped[start:stop, first:last] = 0.0
    return dropped


def truncation_bound(root, runs, right):
    """Σ_k |X_ik − X̂_ik| · max|right|, maxed over rows i: the a-priori bound
    on how far the panels of ``root`` over ``runs`` (X̂) move ``root @ right``
    in exact arithmetic."""
    return dropped_elements(root, runs).sum(axis=1).max() * np.abs(right).max()


def rounding_bound(dense, right):
    """c·ε·‖A‖·‖X‖ with c the inner dimension (Frobenius norms)."""
    return dense.shape[1] * EPS * np.linalg.norm(dense) * np.linalg.norm(right)


class TestPanelProduct:
    @pytest.mark.slow
    @given(block_patterns())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dense_gemm_to_rounding(self, pattern):
        matrix, right = pattern
        dense = block_matrix_to_dense(matrix)
        exact = dense @ right
        bound = rounding_bound(dense, right)
        for operand in (matrix, block_matrix_to_csr(matrix)):
            product = panel_product(operand, dense, right)
            assert product.shape == exact.shape
            assert np.max(np.abs(product - exact), initial=0.0) <= bound

    @pytest.mark.slow
    @given(block_patterns())
    @settings(max_examples=100, deadline=None)
    def test_runs_cover_every_stored_column(self, pattern):
        """Exactness rests on this: outside its runs a panel is zero."""
        matrix, _ = pattern
        dense = block_matrix_to_dense(matrix)
        for operand in (matrix, block_matrix_to_csr(matrix)):
            runs = column_runs(operand)
            assert [start for start, *_ in runs] == list(
                range(0, dense.shape[0], PANEL_ROWS)
            )
            for start, stop, begins, ends in runs:
                assert np.all(begins < ends) and np.all(ends[:-1] < begins[1:])
                outside = np.ones(dense.shape[1], dtype=bool)
                for first, last in zip(begins, ends):
                    outside[first:last] = False
                assert not np.any(dense[start:stop, outside])

    def test_wrap_around_band_is_two_runs_per_panel(self):
        n = 4 * PANEL_ROWS
        band = sp.diags(
            [1.0, 2.0, 3.0, 2.0, 1.0], [-(n - 1), -1, 0, 1, n - 1], shape=(n, n)
        ).tocsr()
        runs = column_runs(band)
        assert [len(begins) for _, _, begins, _ in runs] == [2, 1, 1, 2]
        right = np.random.default_rng(0).standard_normal((n, 7))
        product = panel_product(band, band.toarray(), right)
        assert np.max(np.abs(product - band.toarray() @ right)) <= rounding_bound(
            band.toarray(), right
        )

    def test_empty_operand_is_zero(self):
        matrix = BlockSparseMatrix([5] * 20)
        product = panel_product(matrix, np.zeros((100, 100)), np.ones((100, 3)))
        assert np.array_equal(product, np.zeros((100, 3)))


class TestDenseRule:
    """Full operands, and sparse ones whose panels would not pay, take the
    dense expression the envelope always evaluated, bit for bit."""

    @staticmethod
    def outer(n, seed=1):
        root = np.random.default_rng(seed).standard_normal((n, n))
        return 0.5 * (root + root.T)

    def test_full_fill_is_the_dense_expression(self):
        n = 150
        operand = sp.random(n, n, density=0.7, random_state=2, format="csr")
        assert stored_fill(operand) >= DENSE_FILL
        dense = operand.toarray()
        outer = self.outer(n)
        expected = outer @ dense @ outer
        assert np.array_equal(triple_product(outer, operand, dense), expected)
        assert np.array_equal(triple_product(outer, dense, dense), expected)
        blocked = block_matrix_from_dense(dense, [6] * 25)
        assert np.array_equal(triple_product(outer, blocked, dense), expected)

    def test_panels_that_would_not_pay_are_the_dense_expression(self):
        """Every 48th column per row: 1/48 fill, but every panel meets every
        column, so the panels would do the whole dense work."""
        n = 4 * PANEL_ROWS
        rows, cols = np.nonzero(
            np.subtract.outer(np.arange(n), np.arange(n)) % PANEL_ROWS == 0
        )
        operand = sp.csr_matrix((np.arange(1.0, rows.size + 1), (rows, cols)), (n, n))
        assert stored_fill(operand) < DENSE_FILL
        outer = self.outer(n)
        dense = operand.toarray()
        expected = outer @ dense @ outer
        assert np.array_equal(triple_product(outer, operand, dense), expected)

    def test_sparse_operand_takes_the_panels(self):
        n = 4 * PANEL_ROWS
        operand = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n)).tocsr()
        dense = operand.toarray()
        outer = self.outer(n)
        assert np.array_equal(
            triple_product(outer, operand, dense),
            outer @ panel_product(operand, dense, outer),
        )

    def test_dense_k_orthogonalizes_as_before(self, water32_matrices):
        """A dense K stores everything: K̃ is the old expression's bits."""
        K = water32_matrices.K.toarray()
        root = loewdin_inverse_sqrt(water32_matrices.S)
        before = root @ K @ root
        before = 0.5 * (before + before.T)
        before = np.where(np.abs(before) >= 1e-3, before, 0.0)
        ortho, *_ = orthogonalized_ks_blocks(K, None, None, 1e-3, s_inv_sqrt=root)
        assert np.array_equal(ortho, before)
        csr, _ = orthogonalized_ks(K, None, 1e-3, s_inv_sqrt=root)
        assert np.array_equal(csr.toarray(), before)


# --------------------------------------------------------------------------- #
# ledger-like requests: reference, oracle, determinism
# --------------------------------------------------------------------------- #
def short_decay_model():
    basis = dataclasses.replace(SZV, decay_length=0.20, overlap_decay_length=0.16)
    return HamiltonianModel(basis=basis)


#: The ledger's grand-canonical inputs (seed 0): repeats of the 32-molecule
#: box, model, eps_filter, sign kernel, and the ledger row's oracle ceilings
#: (meV/atom, max|ΔD|, e).
LEDGER_LIKE = {
    "gc_sparse128": (
        (4, 1, 1), short_decay_model, 1e-4, "eigen", (1.0e-6, 4.8e-6, 1.0e-9)
    ),
    "gc_water128": (
        (2, 2, 1), HamiltonianModel, 1e-2, "eigen", (0.17, 8.6e-4, 2.6e-6)
    ),
    "ns_water128": (
        (2, 2, 1), HamiltonianModel, 1e-2, "newton_schulz", (0.17, 8.6e-4, 2.6e-6)
    ),
    "cold_water64": (
        (2, 1, 1), HamiltonianModel, 1e-3, "eigen", (1.5e-3, 8.2e-5, 1.0e-7)
    ),
    "served_water32": (
        (1, 1, 1), HamiltonianModel, 1e-5, "eigen", (1.0e-6, 1.0e-6, 1.0e-8)
    ),
}


@pytest.fixture(scope="module")
def ledger_inputs():
    built = {}
    for name, (nrep, model, eps, _, ceilings) in LEDGER_LIKE.items():
        model = model()
        pair = build_matrices(water_box(nrep, seed=2020), model=model)
        built[name] = (pair, model.homo_lumo_gap_center(), eps, ceilings)
    return built


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LEDGER_LIKE))
def test_ledger_like_density_matches_reference_and_oracle(ledger_inputs, name):
    pair, mu, eps, ceilings = ledger_inputs[name]
    energy_ceiling, density_ceiling, count_ceiling = ceilings
    solver = LEDGER_LIKE[name][3]
    with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
        result = context.density(pair.K, pair.S, pair.blocks, mu=mu, solver=solver)
    if solver == "eigen":
        reference = reference_density(pair.K, pair.S, pair.blocks, mu, eps)
        # the reference back-transforms with the whole root; a root truncated
        # at its rounding floor moves D_ao by up to its a-priori bound (zero
        # for the water roots, which keep everything)
        root = loewdin_inverse_sqrt(pair.S)
        truncation = truncation_bound(
            root, floor_runs(root), reference.density_ortho @ root
        )
        assert_matches_reference_density(
            result, reference, REFERENCE_DENSITY_ATOL + truncation
        )
    oracle = reference_density_matrix(pair.K, pair.S, mu=mu)
    n_atoms = 3 * len(pair.blocks.block_sizes)
    energy_error = abs(result.band_energy - oracle.band_energy) / n_atoms * 1000.0
    assert energy_error <= energy_ceiling
    assert np.max(np.abs(result.density_ao - oracle.density_ao)) <= density_ceiling
    assert abs(result.n_electrons - oracle.n_electrons) <= count_ceiling


def test_gc_sparse_takes_the_panels_for_both_products(ledger_inputs):
    """The input this change is for: K and D̃ are both below the fill rule
    and the panel products differ from the dense GEMMs at rounding level."""
    pair, mu, eps, _ = ledger_inputs["gc_sparse128"]
    assert stored_fill(pair.K) < DENSE_FILL
    prepared = prepare_step(pair.K, pair.S, pair.blocks, eps)
    assert stored_fill(prepared.block_k) < DENSE_FILL
    root = prepared.s_inv_sqrt
    dense_k = pair.K.toarray()
    panel = triple_product(root, pair.K, dense_k)
    gemm = root @ dense_k @ root
    assert np.max(np.abs(panel - gemm)) <= 1e-13 * np.max(np.abs(gemm))


# --------------------------------------------------------------------------- #
# S^{-1/2} cut at its rounding floor
# --------------------------------------------------------------------------- #
def panel_share(runs, n):
    """The runs' panel work as a fraction of the dense GEMM's n²."""
    work = sum(
        (stop - start) * int((ends - begins).sum())
        for start, stop, begins, ends in runs
    )
    return work / (n * n)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["served_water32", "cold_water64", "gc_water128"])
def test_water_roots_give_no_runs(ledger_inputs, name):
    """Dense above the floor: both products stay the parent's expressions."""
    pair, mu, eps, _ = ledger_inputs[name]
    root = loewdin_inverse_sqrt(pair.S)
    assert floor_runs(root) == []
    dense_k = pair.K.toarray()
    assert np.array_equal(
        triple_product(root, pair.K, dense_k), root @ dense_k @ root
    )
    with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
        ortho = context.density(pair.K, pair.S, pair.blocks, mu=mu).density_ortho
    block = block_matrix_from_csr(ortho, pair.blocks.block_sizes)
    dense, inner = ortho.toarray(), column_runs(block)
    if stored_fill(block) < DENSE_FILL and panel_share(inner, len(dense)) < PANEL_WORK:
        expected = root @ panel_product(block, dense, root, inner)
    else:
        expected = root @ dense @ root
    assert np.array_equal(triple_product(root, block, dense), expected)


@given(
    st.integers(1, 5 * PANEL_ROWS),
    st.floats(0.5, 40.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_floor_runs_keep_every_element_above_the_floor(n, decay, seed):
    """On decaying matrices of any size: the runs are sorted, disjoint and
    at least a panel apart, hold every element at or above the floor, and
    are ``[]`` exactly when they would not pay."""
    rng = np.random.default_rng(seed)
    distance = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    outer = rng.standard_normal((n, n)) * np.exp(-distance / decay)
    kept = np.abs(outer) >= n * 2.0**-53 * np.abs(outer).max()
    runs = floor_runs(outer)
    if not runs:
        # the runs never reach past the first and last kept column of a panel
        span = 0
        for start in range(0, n, PANEL_ROWS):
            columns = np.flatnonzero(kept[start : start + PANEL_ROWS].any(axis=0))
            span += min(PANEL_ROWS, n - start) * (columns[-1] - columns[0] + 1)
        assert span >= PANEL_WORK * n * n
        return
    assert panel_share(runs, n) < PANEL_WORK
    assert [start for start, *_ in runs] == list(range(0, n, PANEL_ROWS))
    for start, stop, begins, ends in runs:
        assert np.all(begins < ends)
        assert np.all(begins[1:] - ends[:-1] >= PANEL_ROWS)
        inside = np.zeros(n, dtype=bool)
        for first, last in zip(begins, ends):
            inside[first:last] = True
        assert not np.any(kept[start:stop, ~inside])


def test_gc_sparse_root_takes_the_runs(ledger_inputs):
    pair, *_ = ledger_inputs["gc_sparse128"]
    root = loewdin_inverse_sqrt(pair.S)
    runs = floor_runs(root)
    assert runs and panel_share(runs, root.shape[0]) < PANEL_WORK
    floor = root.shape[0] * 2.0**-53 * np.abs(root).max()
    inside = np.zeros(root.shape, dtype=bool)
    for start, stop, begins, ends in runs:
        for first, last in zip(begins, ends):
            inside[start:stop, first:last] = True
    # the panels keep every element at or above the floor
    assert np.all(np.abs(root[~inside]) < floor)


def test_back_transform_within_the_truncation_bound(ledger_inputs):
    pair, mu, eps, _ = ledger_inputs["gc_sparse128"]
    with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
        result = context.density(pair.K, pair.S, pair.blocks, mu=mu)
    root = loewdin_inverse_sqrt(pair.S)
    ortho = result.density_ortho.toarray()
    bound = truncation_bound(root, floor_runs(root), ortho @ root)
    assert 0.0 < bound < 1e-11
    distance = np.abs(result.density_ao - root @ ortho @ root).max()
    assert distance <= bound + REFERENCE_DENSITY_ATOL


def test_back_transform_symmetric_within_twice_the_bound(ledger_inputs):
    """Only the left factor is truncated, so D_ao = X̂·(D̃·X) is symmetric only
    to the truncation: D_ao − D_aoᵀ = (X̂ − X)·D̃X − X·D̃·(X̂ − X)ᵀ, whose terms
    are bounded by the dropped row and column sums of X times max|D̃X|."""
    pair, mu, eps, _ = ledger_inputs["gc_sparse128"]
    with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
        result = context.density(pair.K, pair.S, pair.blocks, mu=mu)
    root = loewdin_inverse_sqrt(pair.S)
    dropped = dropped_elements(root, floor_runs(root))
    scale = np.abs(result.density_ortho.toarray() @ root).max()
    bound = (dropped.sum(axis=1).max() + dropped.sum(axis=0).max()) * scale
    asymmetry = np.abs(result.density_ao - result.density_ao.T).max()
    assert 0.0 < asymmetry <= bound + REFERENCE_DENSITY_ATOL
    assert bound < 1e-11


def test_cached_runs_are_the_standalone_bits(ledger_inputs):
    """A session hands its cached runs and block norms to both products; the
    staged path (``orthogonalized_ks`` and ``assemble_result`` with the bare
    root) recomputes them from the root and must land on the same bits."""
    pair, mu, eps, _ = ledger_inputs["gc_sparse128"]
    config = EngineConfig(eps_filter=eps)
    with SubmatrixContext(config) as context:
        root, runs, norms = context.overlap_root(pair.S, pair.blocks.block_sizes)
        result = context.density(pair.K, pair.S, pair.blocks, mu=mu)
        stats = context.stats()["overlap_roots"]
        prepared = prepare_step(pair.K, pair.S, pair.blocks, eps, root, runs, norms)
    assert stats["hits"] == 1 and runs
    assert stats["bytes"] == root.nbytes + norms.nbytes + sum(
        begins.nbytes + ends.nbytes for *_, begins, ends in runs
    )
    k_ortho, bare_root = orthogonalized_ks(pair.K, pair.S, eps_filter=eps)
    assert np.array_equal(bare_root, root)
    assert np.array_equal(
        block_matrix_to_dense(prepared.block_k), k_ortho.toarray()
    )
    occupation = block_matrix_from_csr(result.density_ortho, pair.blocks.block_sizes)
    staged = assemble_result(
        config, pair.K, bare_root, occupation, prepared.coo, mu, 0,
        result.submatrix_dimensions, wall_time=0.0,
    )
    assert np.array_equal(staged.density_ao, result.density_ao)
    assert staged.band_energy == result.band_energy
    assert staged.n_electrons == result.n_electrons


def test_ill_conditioned_overlap_stays_within_the_bound(ledger_inputs):
    """A near-duplicate basis function (λ_min ≈ 1e-8, above the 1e-10 guard)
    raises max|S^{-1/2}| to ~5e3 and the floor with it: the request runs, and
    its back-transform stays within the truncation bound of the dense one."""
    pair, mu, eps, _ = ledger_inputs["gc_sparse128"]
    n = pair.S.shape[0]
    basis = np.eye(n)
    basis[:, 101] = basis[:, 100] + np.sqrt(2e-8) * basis[:, 101]
    scale = 1.0 / np.sqrt(np.diag(basis.T @ pair.S @ basis))
    basis *= scale
    S = basis.T @ pair.S @ basis
    K = basis.T @ pair.K @ basis
    S, K = 0.5 * (S + S.T), 0.5 * (K + K.T)
    assert 1e-10 < np.linalg.eigvalsh(S)[0] < 1e-7
    root = loewdin_inverse_sqrt(S)
    runs = floor_runs(root)
    assert runs and np.abs(root).max() > 1e3
    with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
        result = context.density(K, S, pair.blocks, mu=mu)
    ortho = result.density_ortho.toarray()
    dense = root @ ortho @ root
    assert np.all(np.isfinite(result.density_ao))
    distance = np.abs(result.density_ao - dense).max()
    assert distance <= truncation_bound(
        root, runs, ortho @ root
    ) + REFERENCE_DENSITY_ATOL * np.abs(dense).max()


def same_results(ours, theirs):
    """Bitwise the same density (and W, in a bundle), μ, N and E_band."""
    if isinstance(theirs, ObservableBundle):
        for name in ("density", "energy_weighted_density"):
            if name in theirs.observables:
                same_results(ours[name], theirs[name])
        return
    if isinstance(theirs, EnergyWeightedDensityResult):
        assert np.array_equal(ours.energy_weighted_ao, theirs.energy_weighted_ao)
        assert np.array_equal(
            ours.energy_weighted_ortho.toarray(), theirs.energy_weighted_ortho.toarray()
        )
        assert ours.band_energy == theirs.band_energy
        return
    assert np.array_equal(ours.density_ao, theirs.density_ao)
    assert np.array_equal(ours.density_ortho.toarray(), theirs.density_ortho.toarray())
    assert (ours.mu, ours.n_electrons) == (theirs.mu, theirs.n_electrons)
    assert ours.band_energy == theirs.band_energy


@pytest.mark.slow
@pytest.mark.parametrize("name", ["gc_sparse128", "gc_water128", "ns_water128"])
def test_bitwise_across_workers_and_entry_points(ledger_inputs, name):
    """Direct, trajectory and served, on the default, one and two workers:
    the 768-basis rows' Löwdin products run in row bands wherever the pool
    exists and BLAS runs one thread per call, gc_sparse128's as panels, the
    water rows' as dense GEMMs.  Every row sends its density-only fixed-μ
    request (on an eigen row the streamed scatter mode); an eigen row also
    asks for the W bundle, which collects the eigendecompositions."""
    pair, mu, eps, _ = ledger_inputs[name]
    solver = LEDGER_LIKE[name][3]
    requests = [dict(mu=mu, solver=solver)]
    if solver == "eigen":
        requests.append(
            dict(mu=mu, solver=solver, observables=("density", "energy_weighted_density"))
        )
    results = [[] for _ in requests]
    for workers in (None, 1, 2):
        config = EngineConfig(eps_filter=eps, max_workers=workers)
        with SubmatrixContext(config) as context:
            for request, seen in zip(requests, results):
                call = context.observables if "observables" in request else context.density
                seen.append(call(pair.K, pair.S, pair.blocks, **request))
                if "observables" not in request:  # a trajectory step is a density
                    run = context.trajectory([(pair.K, pair.S)], pair.blocks, **request)
                    seen.append(run.results[0])
        with DensityService(config=config) as service:
            for request, seen in zip(requests, results):
                seen.append(
                    service.submit(pair.K, pair.S, pair.blocks, **request).result(120)
                )
    for seen in results:
        for other in seen[1:]:
            same_results(other, seen[0])


@pytest.mark.slow
def test_two_clients_on_one_two_worker_session(ledger_inputs):
    """Two client threads on one two-worker session at 768 basis, directly and
    through the service: their row bands and stack tasks share the one pool,
    both finish, and both are the serial run's bits."""
    pair, mu, eps, _ = ledger_inputs["gc_water128"]
    with SubmatrixContext(EngineConfig(eps_filter=eps, backend="serial")) as context:
        serial = context.density(pair.K, pair.S, pair.blocks, mu=mu)
    config = EngineConfig(eps_filter=eps, backend="thread", max_workers=2)

    def two_clients(call):
        outcomes = [None, None]

        def client(slot: int) -> None:
            try:
                outcomes[slot] = call()
            except BaseException as error:  # surfaced below
                outcomes[slot] = error

        threads = [threading.Thread(target=client, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "a client hung"
        return outcomes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SubmatrixContext(config) as context:
            direct = two_clients(
                lambda: context.density(pair.K, pair.S, pair.blocks, mu=mu)
            )
        with DensityService(config=config) as service:
            served = two_clients(
                lambda: service.submit(pair.K, pair.S, pair.blocks, mu=mu).result(120)
            )
    finally:
        sys.setswitchinterval(interval)
    for result in direct + served:
        assert not isinstance(result, BaseException), result
        same_results(result, serial)


def test_prepare_step_has_no_csr_step(ledger_inputs, monkeypatch):
    """K̃ goes from dense to blocks directly: neither the CSR constructor nor
    the CSR → block conversion runs, and the blocks are those the CSR route
    gives."""
    pair, _, eps, _ = ledger_inputs["gc_sparse128"]
    expected_csr, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=eps)
    expected = block_matrix_from_csr(expected_csr, pair.blocks.block_sizes)

    def forbidden(*args, **kwargs):
        raise AssertionError("prepare_step took a CSR step")

    monkeypatch.setattr(sp, "csr_matrix", forbidden)
    for module in (convert_module, observables_module):
        monkeypatch.setattr(module, "block_matrix_from_csr", forbidden, raising=False)
    prepared = prepare_step(pair.K, pair.S, pair.blocks, eps)
    monkeypatch.undo()
    assert not hasattr(prepared, "k_ortho")
    assert_same_blocks(prepared.block_k, expected)


# --------------------------------------------------------------------------- #
# K̃ formed only where the filter can keep it: the block-norm screen
# --------------------------------------------------------------------------- #
def banded_overlap(n, band, coupling, rng):
    """Unit diagonal plus a random symmetric band whose rows sum to less than
    one: positive definite, with a root that decays below its floor."""
    values = rng.uniform(-1.0, 1.0, (n, n)) * coupling / (2 * band)
    values = np.triu(values, 1) * np.tril(np.ones((n, n)), band)
    return np.eye(n) + values + values.T


def banded_hamiltonian(n, band, rng):
    """A symmetric K storing only its band (CSR, explicit entries)."""
    values = rng.standard_normal((n, n))
    values = np.triu(values) * np.tril(np.ones((n, n)), band)
    return sp.csr_matrix(values + np.triu(values, 1).T)


def ragged_sizes(n, rng):
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 9)), n - sum(sizes)))
    return sizes


@st.composite
def screen_inputs(draw):
    """Banded SPD S, symmetric sparse K, ragged blocks and ε."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4 * PANEL_ROWS, 6 * PANEL_ROWS))
    S = banded_overlap(n, draw(st.integers(1, 3)), draw(st.floats(0.05, 0.5)), rng)
    K = banded_hamiltonian(n, draw(st.integers(0, 10)), rng)
    eps = 10.0 ** draw(st.floats(-6.0, -0.5))
    return K, S, ragged_sizes(n, rng), eps


def block_maxima(dense, sizes):
    cuts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return np.maximum.reduceat(np.maximum.reduceat(np.abs(dense), cuts, 0), cuts, 1)


@pytest.mark.slow
@given(screen_inputs())
@settings(max_examples=40, deadline=None)
def test_screen_gives_the_dense_route_blocks(case):
    """Same blocks as cutting the dense K̃, values within 1e-13·max|K̃|; an
    element may change sides of the filter only within that of ε.  The
    block-norm bound holds for every block of the unfiltered K̃."""
    K, S, sizes, eps = case
    reference, root, runs = orthogonalized_ks_blocks(K, S, None, eps)
    expected = block_matrix_from_dense(reference, sizes)
    unfiltered, *_ = orthogonalized_ks_blocks(K, S, None, 0.0, root, runs)
    outer_norms = block_norms(root, sizes)
    bound = outer_norms @ block_norms(K, sizes) @ outer_norms
    assert np.all(bound >= block_maxima(unfiltered, sizes))
    assert runs, "the banded overlap's root keeps floor runs"
    screened = screened_product(root, K, K.toarray(), runs, outer_norms, sizes, eps)
    if screened is None:  # the work rule: the dense route, tested below
        return
    keys = stored_keys(screened)
    assert keys == sorted(keys)
    tolerance = 1e-13 * np.abs(unfiltered).max()
    got, want = block_matrix_to_dense(screened), block_matrix_to_dense(expected)
    moved = np.abs(got - want) > tolerance
    either = np.where(got != 0.0, np.abs(got), np.abs(want))
    assert np.all(np.abs(either[moved] - eps) <= tolerance)
    differing = set(keys) ^ set(stored_keys(expected))
    starts = np.concatenate(([0], np.cumsum(sizes)))
    for bi, bj in differing:
        region = either[starts[bi] : starts[bi + 1], starts[bj] : starts[bj + 1]]
        assert np.all(np.abs(region[region != 0.0] - eps) <= tolerance)


def test_screen_takes_the_panels_on_the_generated_inputs():
    """The strategy above reaches the screened route, not only its fallback."""
    taken = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 4 * PANEL_ROWS
        S, K = banded_overlap(n, 2, 0.3, rng), banded_hamiltonian(n, 4, rng)
        sizes = ragged_sizes(n, rng)
        root = loewdin_inverse_sqrt(S)
        runs = floor_runs(root)
        screened = screened_product(
            root, K, K.toarray(), runs, block_norms(root, sizes), sizes, 1e-3
        )
        taken += screened is not None
    assert taken == 6


def test_gc_sparse_screen_is_the_dense_route_bitwise(ledger_inputs, monkeypatch):
    """The ledger row the screen is for: a few per cent of K̃'s blocks are
    candidates, the screen is taken, and its blocks are the dense route's."""
    pair, _, eps, _ = ledger_inputs["gc_sparse128"]
    sizes = pair.blocks.block_sizes
    reference, root, runs = orthogonalized_ks_blocks(pair.K, pair.S, None, eps)
    outer_norms = block_norms(root, sizes)
    bound = outer_norms @ block_norms(pair.K, sizes) @ outer_norms
    candidates = bound * (1.0 + len(root) * SCREEN_ROUNDING) >= eps
    assert 0.0 < np.mean(candidates | candidates.T) < 0.05
    taken = []
    monkeypatch.setattr(
        orthogonalize_module, "screened_product",
        lambda *args: taken.append(screened_product(*args)) or taken[-1],
    )
    blocks, *_ = orthogonalized_ks_blocks(pair.K, pair.S, sizes, eps, root, runs)
    assert taken and taken[0] is blocks
    assert_same_blocks(blocks, block_matrix_from_dense(reference, sizes))


class TestScreenFallbacks:
    """Every input the screen does not take is the dense route, bitwise."""

    N = 4 * PANEL_ROWS

    @classmethod
    def inputs(cls):
        rng = np.random.default_rng(11)
        S = banded_overlap(cls.N, 2, 0.3, rng)
        K = banded_hamiltonian(cls.N, 4, rng)
        return K, S, ragged_sizes(cls.N, rng)

    @staticmethod
    def assert_dense_route(K, S, sizes, eps):
        reference, *_ = orthogonalized_ks_blocks(K, S, None, eps)
        blocks, *_ = orthogonalized_ks_blocks(K, S, sizes, eps)
        assert_same_blocks(blocks, block_matrix_from_dense(reference, sizes))

    @staticmethod
    def forbid(monkeypatch, *names):
        def forbidden(*args):
            raise AssertionError("the screen was reached")

        for name in names:
            monkeypatch.setattr(orthogonalize_module, name, forbidden)

    def test_dense_k(self, monkeypatch):
        K, S, sizes = self.inputs()
        self.forbid(monkeypatch, "screened_product", "block_norms")
        self.assert_dense_route(K.toarray(), S, sizes, 1e-3)

    def test_k_at_the_fill_rule(self, monkeypatch):
        K, S, sizes = self.inputs()
        full = sp.csr_matrix(K.toarray() + 1e-30)
        assert stored_fill(full) >= DENSE_FILL
        self.forbid(monkeypatch, "screened_product", "block_norms")
        self.assert_dense_route(full, S, sizes, 1e-3)

    def test_no_filter(self, monkeypatch):
        K, S, sizes = self.inputs()
        self.forbid(monkeypatch, "screened_product", "block_norms")
        self.assert_dense_route(K, S, sizes, 0.0)

    def test_root_without_runs(self, water32_matrices, monkeypatch):
        pair = water32_matrices
        self.forbid(monkeypatch, "screened_product", "block_norms")
        self.assert_dense_route(pair.K, pair.S, pair.blocks.block_sizes, 1e-5)

    def test_work_rule(self, monkeypatch):
        """At a tiny ε every block is a candidate: the screen declines."""
        K, S, sizes = self.inputs()
        declined = []
        monkeypatch.setattr(
            orthogonalize_module, "screened_product",
            lambda *args: declined.append(screened_product(*args)),
        )
        self.assert_dense_route(K, S, sizes, 1e-300)
        assert declined == [None]

    def test_blocks_that_do_not_fit_k(self):
        K, S, sizes = self.inputs()
        with pytest.raises(ValueError, match="does not match block structure"):
            orthogonalized_ks_blocks(K, S, sizes[:-1], 1e-3)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((5, 5, np.nan), "K contains non-finite values"),
            ((5, 7, 0.5), "K must be symmetric: max"),
        ],
    )
    def test_bad_k_still_raises(self, entry, message, monkeypatch):
        K, S, sizes = self.inputs()
        bad = sp.csr_matrix(edited(K.toarray(), entry))
        assert stored_fill(bad) < DENSE_FILL
        self.forbid(monkeypatch, "screened_product", "block_norms")
        with pytest.raises(ValueError, match=message):
            orthogonalized_ks_blocks(bad, S, sizes, 1e-3)


class TestScreenCache:
    """N_X lives in the session's overlap-root entry, per block sizes."""

    def test_norms_count_in_the_bytes_per_block_sizes(self, ledger_inputs):
        pair, mu, eps, _ = ledger_inputs["gc_sparse128"]
        sizes = pair.blocks.block_sizes
        merged = [sum(sizes[i : i + 2]) for i in range(0, len(sizes), 2)]
        with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
            root, runs, norms = context.overlap_root(pair.S, sizes)
            assert context.overlap_root(pair.S, sizes)[2] is norms
            other = context.overlap_root(pair.S, merged)[2]
            stats = context.stats()["overlap_roots"]
        assert np.array_equal(norms, block_norms(root, sizes))
        assert not norms.flags.writeable
        assert other.shape == (len(merged), len(merged))
        runs_bytes = sum(begins.nbytes + ends.nbytes for *_, begins, ends in runs)
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 2, 1)
        assert stats["bytes"] == root.nbytes + runs_bytes + norms.nbytes + other.nbytes

    def test_threads_racing_on_new_block_sizes(self, ledger_inputs):
        """Threads asking for the norms of new block sizes at once: one
        shared entry per sizes, each counted once in the bytes."""
        pair, _, eps, _ = ledger_inputs["gc_sparse128"]
        sizes = list(pair.blocks.block_sizes)
        layouts = [sizes, [12] * (len(sizes) // 2), [24] * (len(sizes) // 4)]
        n_threads, calls_each = 6, 20
        returned, failures = [[] for _ in layouts], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
                root, runs, _ = context.overlap_root(pair.S)

                def worker(thread: int) -> None:
                    try:
                        for call in range(calls_each):
                            which = (thread + call) % len(layouts)
                            entry = context.overlap_root(pair.S, layouts[which])
                            returned[which].append(entry)
                    except BaseException as error:  # surfaced below
                        failures.append(error)

                threads = [
                    threading.Thread(target=worker, args=(thread,))
                    for thread in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = context.stats()["overlap_roots"]
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        runs_bytes = sum(begins.nbytes + ends.nbytes for *_, begins, ends in runs)
        norms_bytes = 0
        for layout, entries in zip(layouts, returned):
            expected = block_norms(root, layout)
            assert all(np.array_equal(norms, expected) for *_, norms in entries)
            norms_bytes += expected.nbytes
        assert stats["misses"] == 1
        assert stats["hits"] == n_threads * calls_each
        assert stats["bytes"] == root.nbytes + runs_bytes + norms_bytes

    def test_water_roots_cache_no_norms(self, water32_matrices, gap_mu, monkeypatch):
        pair = water32_matrices
        monkeypatch.setattr(
            repro.api.context, "block_norms",
            lambda *args: pytest.fail("a water root was analysed"),
        )
        with SubmatrixContext(EngineConfig(eps_filter=1e-5)) as context:
            context.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            root, runs, norms = context.overlap_root(pair.S, pair.blocks.block_sizes)
            stats = context.stats()["overlap_roots"]
        assert runs == [] and norms is None
        assert stats["bytes"] == root.nbytes


# --------------------------------------------------------------------------- #
# the envelope's n×n products in row bands on the session pool
# --------------------------------------------------------------------------- #
#: Bands dispatch only where every BLAS call runs on one thread (the parity
#: step of CI pins it); elsewhere each product stays the inline expression.
PINNED = blas_threads() == 1


class CountingMapper:
    """``map_parallel`` on ``executor``, counting the tasks it is handed."""

    def __init__(self, executor=None):
        self.executor, self.tasks = executor, 0

    def __call__(self, function, items):
        items = list(items)
        self.tasks += len(items)
        return map_parallel(function, items, executor=self.executor)


def band_operands(n):
    """Dense X and A, a block-band A at ~20 % fill (the inner panel route) and
    an overlap root with floor runs (the outer panel route)."""
    rng = np.random.default_rng(n)
    outer, dense = rng.standard_normal((2, n, n))
    sizes = [10] * (n // 10) + [n % 10] * (n % 10 > 0)
    distance = np.abs(np.subtract.outer(np.arange(len(sizes)), np.arange(len(sizes))))
    blocked = BlockSparseMatrix(sizes, blocks={
        (int(bi), int(bj)): rng.standard_normal((sizes[bi], sizes[bj]))
        for bi, bj in zip(*np.nonzero(distance <= len(sizes) // 10))
    })
    root = loewdin_inverse_sqrt(banded_overlap(n, 2, 0.3, rng))
    return outer, dense, blocked, root


def band_cases(n):
    """(name, product of a mapper, its tasks per band): both routes of the
    inner product and of the outer one, and a bare panel product."""
    outer, dense, blocked, root = band_operands(n)
    blocked_dense, runs = block_matrix_to_dense(blocked), floor_runs(root)
    assert 0.1 < stored_fill(blocked) < 0.3 and runs
    return [
        ("dense", lambda mapper: triple_product(outer, dense, dense, [], mapper), 1),
        (
            "inner panels",
            lambda mapper: triple_product(outer, blocked, blocked_dense, [], mapper),
            2,
        ),
        (
            "outer panels",
            lambda mapper: triple_product(root, blocked, blocked_dense, runs, mapper),
            2,
        ),
        (
            "panel product",
            lambda mapper: panel_product(blocked, blocked_dense, outer, None, mapper),
            1,
        ),
    ]


class TestRowBands:
    """A product of ⌊n² / MAX_BATCH_ELEMENTS⌋ ≥ 2 row bands runs one task per
    band on the mapper, bitwise the inline route."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [768, 770, 1000])
    def test_bitwise_the_inline_route(self, n, workers):
        bands = n * n // MAX_BATCH_ELEMENTS
        with make_executor("thread", workers) as pool:
            for name, product, per_band in band_cases(n):
                mapper = CountingMapper(pool)
                assert np.array_equal(product(mapper), product(None)), name
                assert mapper.tasks == (per_band * bands if PINNED else 0), name

    def test_a_single_band_submits_no_task(self):
        mapper = CountingMapper()
        for name, product, _ in band_cases(384):
            assert np.array_equal(product(mapper), product(None)), name
        assert mapper.tasks == 0

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "config", [dict(backend="serial"), dict(max_workers=1)], ids=["serial", "one"]
    )
    def test_a_session_without_a_pool_takes_no_bands(
        self, ledger_inputs, monkeypatch, config
    ):
        """A session that resolves to one worker has no pool: every product of
        its envelope gets no mapper and runs inline."""
        pair, mu, eps, _ = ledger_inputs["gc_water128"]
        mappers = []
        in_bands = product_module._in_bands

        def recording(task, rows, cols, mapper):
            mappers.append(mapper)
            return in_bands(task, rows, cols, mapper)

        monkeypatch.setattr(product_module, "_in_bands", recording)
        with SubmatrixContext(EngineConfig(eps_filter=eps, **config)) as context:
            assert context.executor is None
            context.density(pair.K, pair.S, pair.blocks, mu=mu)
        assert mappers and mappers == [None] * len(mappers)

    def test_unpinned_blas_keeps_the_products_inline(self, monkeypatch):
        """A multi-threaded BLAS call splits its rows its own way: a band
        would change the bits, and BLAS already spreads the call over every
        CPU, so nothing is banded."""
        for variable in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(variable, raising=False)
        mapper = CountingMapper()
        for name, product, _ in band_cases(768):
            assert np.array_equal(product(mapper), product(None)), name
        assert mapper.tasks == 0

    @pytest.mark.parametrize("n", [770, 1000])
    def test_bands_are_even_runs_of_whole_panels(self, n, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        seen = []

        def recording(function, bands):
            seen.append(bands)
            return [function(band) for band in bands]

        outer, dense, *_ = band_operands(n)
        product = triple_product(outer, dense, dense, [], recording)
        [bands] = seen
        heights = [band.stop - band.start for band in bands]
        assert len(bands) == n * n // MAX_BATCH_ELEMENTS
        assert bands[0].start == 0 and bands[-1].stop == -(-n // PANEL_ROWS)
        assert all(a.stop == b.start for a, b in zip(bands, bands[1:]))
        assert max(heights) - min(heights) <= 1
        expected = outer @ dense @ outer
        assert np.abs(product - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_an_error_in_a_band_keeps_its_type(self, monkeypatch):
        """A non-square operand fails in every band's right product: the
        ValueError surfaces as one, wrapped with the failing band."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        rng = np.random.default_rng(5)
        outer, wide = rng.standard_normal((768, 768)), rng.standard_normal((768, 700))
        with make_executor("thread", 2) as pool:
            mapper = CountingMapper(pool)
            with pytest.raises(ValueError) as raised:
                triple_product(outer, wide, wide, [], mapper)
        assert isinstance(raised.value, TaskExecutionError)
        assert mapper.tasks == 2 and raised.value.n_tasks == 2

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["gc_water128", "gc_sparse128"])
    def test_ledger_envelope_bitwise_the_inline_route(self, ledger_inputs, name):
        """K̃ (dense route for water, the screen's K·X for gc_sparse128) and
        D_ao of a ledger input, through a mapper and without one."""
        pair, mu, eps, _ = ledger_inputs[name]
        config = EngineConfig(eps_filter=eps)
        with SubmatrixContext(config) as context:
            result = context.density(pair.K, pair.S, pair.blocks, mu=mu)
        sizes = pair.blocks.block_sizes
        occupation = block_matrix_from_csr(result.density_ortho, sizes)
        with make_executor("thread", 2) as pool:
            mapper = CountingMapper(pool)
            staged = []
            for each in (mapper, None):
                prepared = prepare_step(pair.K, pair.S, pair.blocks, eps, mapper=each)
                staged.append((prepared, assemble_result(
                    config, pair.K, prepared.s_inv_sqrt, occupation, prepared.coo,
                    mu, 0, result.submatrix_dimensions, wall_time=0.0,
                    outer_runs=prepared.outer_runs, mapper=each,
                )))
        (banded, banded_result), (inline, inline_result) = staged
        assert_same_blocks(banded.block_k, inline.block_k)
        same_results(banded_result, inline_result)
        assert (mapper.tasks > 0) == PINNED


# --------------------------------------------------------------------------- #
# block_matrix_from_dense is the CSR route
# --------------------------------------------------------------------------- #
special_values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-9, np.nan, np.inf])


@st.composite
def dense_with_specials(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    n = sum(sizes)
    dense = draw(
        arrays(
            np.float64,
            (n, n),
            elements=st.one_of(special_values, st.floats(-3.0, 3.0)),
        )
    )
    threshold = draw(st.sampled_from([0.0, 1e-12, 0.5, 2.0]))
    return sizes, dense, threshold


def stored_keys(matrix):
    """The stored block coordinates, in storage order."""
    index = matrix.block_index()
    return list(zip(index.rows.tolist(), index.cols.tolist()))


def assert_same_blocks(ours, theirs):
    """The same index (coordinates and offsets in storage order) and values
    equal element by element, NaN to NaN, with the sign of every zero."""
    mine, reference = ours.block_index(), theirs.block_index()
    for name in ("rows", "cols", "offsets"):
        assert np.array_equal(getattr(mine, name), getattr(reference, name)), name
    assert np.array_equal(mine.values, reference.values, equal_nan=True)
    assert np.array_equal(np.signbit(mine.values), np.signbit(reference.values))


class TestBlockMatrixFromDense:
    @pytest.mark.slow
    @given(dense_with_specials())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_csr_route(self, case):
        sizes, dense, threshold = case
        assert_same_blocks(
            block_matrix_from_dense(dense, sizes, threshold=threshold),
            block_matrix_from_csr(sp.csr_matrix(dense), sizes, threshold=threshold),
        )

    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_nan_does_not_drop_the_block(self, threshold):
        dense = np.zeros((12, 12))
        dense[0, 0] = np.nan
        dense[1, 1] = 1.0
        blocked = block_matrix_from_dense(dense, [6, 6], threshold=threshold)
        assert stored_keys(blocked) == [(0, 0)]
        assert blocked.block_index().values.reshape(6, 6)[1, 1] == 1.0

    def test_rectangular_and_empty(self):
        dense = np.zeros((5, 7))
        dense[4, 6] = 3.0
        blocked = block_matrix_from_dense(dense, [2, 3], [4, 3])
        assert stored_keys(blocked) == [(1, 1)]
        assert np.array_equal(block_matrix_to_dense(blocked), dense)
        assert block_matrix_from_dense(np.zeros((5, 7)), [2, 3], [4, 3]).nnz_blocks == 0


# --------------------------------------------------------------------------- #
# request checks of the envelope
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("eps_filter", [math.nan, math.inf, -1e-3])
def test_orthogonalized_ks_rejects_a_bad_eps_filter(water32_matrices, eps_filter):
    with pytest.raises(ValueError, match="eps_filter must be finite and non-negative"):
        orthogonalized_ks(water32_matrices.K, water32_matrices.S, eps_filter)


def symmetry_verdict(matrix, name="K"):
    """The error a request raises for ``matrix`` as its K (``orthogonalized_ks``)
    or as its S on an overlap-root miss (``loewdin_inverse_sqrt``); None if it
    passes."""
    try:
        if name == "K":
            orthogonalized_ks(matrix, None, s_inv_sqrt=np.eye(matrix.shape[0]))
        else:
            loewdin_inverse_sqrt(matrix)
    except ValueError as error:
        return str(error)
    return None


def banded(n=130, seed=3):
    """A symmetric matrix that stores a band of ~7 % of its elements."""
    values = np.random.default_rng(seed).standard_normal((n, n))
    values = np.triu(values, -4) * np.tril(np.ones((n, n)), 4)
    return values + values.T


def edited(dense, *entries):
    out = dense.copy()
    for i, j, value in entries:
        out[i, j] = value
    return out


SCIPY_FORMATS = ("csr", "csc", "coo", "bsr", "lil", "dok", "dia")


class TestSymmetryCheck:
    """Stored entries of a sparse K, row panels of a dense one: the verdict
    and the message are those of max|K − Kᵀ| over the whole matrix."""

    CASES = {
        "symmetric": [],
        "stored_pair": [(5, 7, 0.5)],
        "unstored_mirror": [(0, 120, 1e-3)],
        "last_panel": [(129, 126, 2.0)],
        "below_the_rule": [(60, 61, 1e-11)],
        "nan": [(3, 3, np.nan)],
        "inf": [(40, 2, np.inf)],
        "minus_inf": [(70, 71, -np.inf)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sparse_and_dense_agree_with_the_whole_matrix(self, case):
        # every SciPy format, as K and as S (shifted to stay positive definite)
        for name, shift in (("K", 0.0), ("S", 50.0)):
            dense = edited(banded() + shift * np.eye(130), *self.CASES[case])
            csr = sp.csr_matrix(dense)
            assert stored_fill(csr) < DENSE_FILL
            expected = None
            with np.errstate(invalid="ignore"):
                scale = np.abs(dense).max()
                asymmetry = np.abs(dense - dense.T).max()
            if not np.isfinite(scale):
                expected = f"{name} contains non-finite values (NaN or Inf)"
            elif asymmetry > SYMMETRY_ATOL + SYMMETRY_RTOL * scale:
                expected = f"max|{name} - {name}^T| = {asymmetry:.3e} "
            forms = [csr.asformat(form) for form in SCIPY_FORMATS] + [dense]
            for form in forms:
                verdict = symmetry_verdict(form, name)
                assert (verdict is None) == (expected is None), (form, verdict)
                assert expected is None or expected in verdict

    def test_duplicate_entries_are_summed_first(self):
        csr = sp.csr_matrix(banded())
        halves, indices = np.repeat(0.5 * csr.data, 2), np.repeat(csr.indices, 2)
        split = sp.csr_matrix((halves, indices, 2 * csr.indptr), csr.shape)
        assert not split.has_canonical_format
        assert symmetry_verdict(split) is None
        halves[3] += 1.0  # the second copy of entry (0, 1)
        skewed = sp.csr_matrix((halves, indices, 2 * csr.indptr), csr.shape)
        assert symmetry_verdict(skewed) is not None
        assert symmetry_verdict(skewed) == symmetry_verdict(skewed.toarray())

    def test_overlap_checked_on_its_stored_entries(self):
        S = edited(np.eye(130) + 0.01 * banded(), (4, 9, 0.3))
        for form in (sp.csr_matrix(S), S):
            with pytest.raises(ValueError, match="S must be symmetric: max"):
                loewdin_inverse_sqrt(form)


class TestRequestShapes:
    """A shape mismatch fails before any overlap root, plan or admission."""

    @staticmethod
    def cases(pair):
        K, S = pair.K, pair.S
        return [
            (K, S[:186, :186], "S has shape \\(186, 186\\)"),
            (K[:186, :186], S, "K has shape \\(186, 186\\)"),
            (np.ones(192), S, "K must be a non-empty square 2-D matrix"),
            (K, np.zeros((0, 0)), "S must be a non-empty square 2-D matrix"),
            (K[:, :186], S, "K must be a non-empty square 2-D matrix"),
        ]

    def test_direct(self, water32_matrices, gap_mu):
        with SubmatrixContext() as context:
            for K, S, message in self.cases(water32_matrices):
                with pytest.raises(ValueError, match=message):
                    context.density(K, S, water32_matrices.blocks, mu=gap_mu)
            stats = context.stats()
        assert stats["overlap_roots"]["misses"] == 0
        assert stats["overlap_roots"]["entries"] == 0
        assert context.plan_cache.stats["builds"] == 0

    def test_served(self, water32_matrices, gap_mu):
        with DensityService() as service:
            for K, S, message in self.cases(water32_matrices):
                with pytest.raises(ValueError, match=message):
                    service.submit(K, S, water32_matrices.blocks, mu=gap_mu)
            total = service.stats()["metrics"]["total"]
        assert total["admitted"] == 0
        assert total["failed"] == 0

    def test_trajectory_step(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext() as context:
            with pytest.raises(ValueError, match="S has shape"):
                context.trajectory(
                    [(pair.K, pair.S), (pair.K, pair.S[:186, :186])],
                    pair.blocks,
                    mu=gap_mu,
                )
