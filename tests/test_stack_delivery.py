"""Stack delivery: a stack's panels are formed and written at once.

The bucket loop (:func:`~repro.core.batch.map_stacks`) extracts a stack with
one gather, forms every member's generating-column panel with one batched
product per generating width and writes them with one scatter.  Each slice of
the batched product is the GEMM the per-member route ran on operands laid out
alike, so every route must stay bitwise what one-member-at-a-time delivery
gives — here the per-member panel and :meth:`SubmatrixPlan.write_panels` of
that one member, written out in the test — under any stack cap and with
members of different generating widths in one stack.  The structural guards
below hold the point of the change without a stopwatch: scatters per stack,
not per member; no memory left behind by a warm call.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

import repro.core.batch
from repro.api import EngineConfig, SubmatrixContext
from repro.api.observables import (
    _iterative_occupations,
    _streamed_occupations,
    prepare_step,
)
from repro.chem import SZV, HamiltonianModel, build_matrices, water_box
from repro.chem.density import fermi_occupation
from repro.core.batch import make_stack_tasks, map_stacks
from repro.core.plan import BlockSubmatrixPlan, SubmatrixPlan
from repro.dbcsr.convert import block_matrix_to_csr
from repro.signfn import sign_newton_schulz_batched
from repro.signfn.registry import (
    DEFAULT_SIGN_MAX_ITERATIONS,
    KernelStackSolver,
    get_kernel,
)

from submatrix_reference import (
    STACK_CAPS,
    ragged_blocks,
    reference_apply_blockwise,
    spectral_panel,
)

#: (eps_filter, ragged): water-32 with molecule blocks at mixed dimensions,
#: and the same matrices cut into blocks of 12 and 6 kept whole
#: (:func:`submatrix_reference.ragged_blocks`)
INPUTS = {"water": (1e-3, False), "ragged": (0.0, True)}


@pytest.fixture(scope="module")
def inputs(water32_matrices):
    pair = water32_matrices
    built = {}
    for name, (eps, ragged) in INPUTS.items():
        blocks = ragged_blocks(pair.blocks) if ragged else pair.blocks
        prepared = prepare_step(pair.K, pair.S, blocks, eps)
        plan = BlockSubmatrixPlan(
            prepared.coo,
            blocks.block_sizes,
            [[c] for c in range(len(blocks.block_sizes))],
        )
        built[name] = (pair, blocks, eps, prepared, plan, plan.pack(prepared.block_k))
    widths = {group.panel_rows.size for group in built["ragged"][4].groups}
    assert widths == {6, 12} and len(set(built["ragged"][4].dimensions)) == 1
    return built


def per_member(plan, packed, member_panel):
    """The per-member route: each member's panel, one ``write_panels`` each."""
    out = plan.new_output()
    for index, group in enumerate(plan.groups):
        stack = plan.extract_stack(packed, [index])
        panel = member_panel(stack, group.panel_rows)
        plan.write_panels(out, [index], np.ascontiguousarray(panel), [0])
    return out


def eigen_panel(mu, temperature):
    def panel(stack, rows):
        values, vectors = np.linalg.eigh(stack)
        q = vectors[0]
        return spectral_panel(q, fermi_occupation(values[0], mu, temperature), q[rows])

    return panel


def newton_schulz_panel(mu):
    def panel(stack, rows):
        diagonal = np.arange(stack.shape[-1])
        stack[:, diagonal, diagonal] -= mu
        result = sign_newton_schulz_batched(
            stack, max_iterations=DEFAULT_SIGN_MAX_ITERATIONS
        )
        assert result.converged.all()
        occupation = result(0, rows)
        occupation *= -0.5
        occupation[rows, np.arange(rows.size)] += 0.5
        return occupation

    return panel


def inverse_sqrt(a):
    """A bare per-matrix kernel: (|A| + I)^{-1/2} from one ``eigh``."""
    values, vectors = np.linalg.eigh(a)
    return (vectors / np.sqrt(np.abs(values) + 1.0)) @ vectors.T


def whole_panel(stack, rows):
    return np.ascontiguousarray(inverse_sqrt(stack[0])[:, rows])


def assert_same_bits(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def assert_csr_equal(ours, theirs):
    for name in ("data", "indices", "indptr"):
        assert_same_bits(getattr(ours, name), getattr(theirs, name))


@pytest.mark.slow
@pytest.mark.parametrize("cap", sorted(STACK_CAPS))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_bucket_loop_delivers_the_per_member_bits(inputs, gap_mu, monkeypatch, name, cap):
    """Eigen panels, Newton–Schulz panels and whole matrices through
    ``map_stacks`` against the per-member route."""
    if STACK_CAPS[cap] is not None:
        monkeypatch.setattr(repro.core.batch, "MAX_BATCH_ELEMENTS", STACK_CAPS[cap])
    *_, plan, packed = inputs[name]
    tasks = make_stack_tasks(plan.dimensions)
    if cap == "three" and name == "ragged":
        assert all(len(task.members) == 3 for task in tasks)
    solvers = {
        "eigen": (_streamed_occupations(gap_mu, 0.0), eigen_panel(gap_mu, 0.0)),
        "newton_schulz": (
            _iterative_occupations(
                KernelStackSolver(get_kernel("newton_schulz").bind()), gap_mu
            ),
            newton_schulz_panel(gap_mu),
        ),
        "whole": (lambda stack: [inverse_sqrt(a) for a in stack], whole_panel),
    }
    for route, (solver, member_panel) in solvers.items():
        out = plan.new_output()
        map_stacks(plan, packed, tasks, solver, out=out)
        assert_same_bits(out, per_member(plan, packed, member_panel))


@pytest.mark.slow
@pytest.mark.parametrize("cap", sorted(STACK_CAPS))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_requests_deliver_the_per_member_bits(inputs, gap_mu, monkeypatch, name, cap):
    """The four request routes on the session (its pool, where BLAS is
    pinned): the eigen scatter mode and Newton–Schulz of ``density``, the
    collect-mode bundle, and ``apply`` of a bare callable."""
    if STACK_CAPS[cap] is not None:
        monkeypatch.setattr(repro.core.batch, "MAX_BATCH_ELEMENTS", STACK_CAPS[cap])
    pair, blocks, eps, prepared, plan, packed = inputs[name]
    eigen = per_member(plan, packed, eigen_panel(gap_mu, 0.0))
    eigen = block_matrix_to_csr(plan.finalize(eigen))
    newton_schulz = per_member(plan, packed, newton_schulz_panel(gap_mu))
    newton_schulz = block_matrix_to_csr(plan.finalize(newton_schulz))
    with SubmatrixContext(EngineConfig(eps_filter=eps)) as context:
        streamed = context.density(pair.K, pair.S, blocks, mu=gap_mu)
        assert_csr_equal(streamed.density_ortho, eigen)
        collected = context.observables(
            pair.K, pair.S, blocks, observables=("density", "pdos"), mu=gap_mu
        )["density"]
        assert_csr_equal(collected.density_ortho, eigen)
        assert_same_bits(collected.density_ao, streamed.density_ao)
        iterative = context.density(
            pair.K, pair.S, blocks, mu=gap_mu, solver="newton_schulz"
        )
        assert iterative.kernel_fallbacks == 0
        assert_csr_equal(iterative.density_ortho, newton_schulz)
        applied = context.apply(prepared.block_k, inverse_sqrt)
    reference, _ = reference_apply_blockwise(prepared.block_k, inverse_sqrt)
    assert_csr_equal(
        block_matrix_to_csr(applied.result), block_matrix_to_csr(reference)
    )


# --------------------------------------------------------------------------- #
# structural guards
# --------------------------------------------------------------------------- #
def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_warm_call_scatters_once_per_stack_not_per_member(monkeypatch):
    """The ledger's ``gc_sparse128`` request: 128 submatrices of dimension
    6–18 in 3 stack tasks, one gather and one scatter each."""
    basis = dataclasses.replace(SZV, decay_length=0.20, overlap_decay_length=0.16)
    model = HamiltonianModel(basis=basis)
    pair = build_matrices(water_box((4, 1, 1), seed=2020), model=model)
    mu = model.homo_lumo_gap_center()
    with SubmatrixContext(EngineConfig(eps_filter=1e-4)) as context:
        context.density(pair.K, pair.S, pair.blocks, mu=mu)
        counts = {}
        count_calls(monkeypatch, SubmatrixPlan, "extract_stack", counts)
        count_calls(monkeypatch, SubmatrixPlan, "write_panels", counts)
        context.density(pair.K, pair.S, pair.blocks, mu=mu)
        [plan] = context.plan_cache._plans.values()
    assert plan.n_groups == 128
    tasks = make_stack_tasks(plan.dimensions)
    assert len(tasks) == 3
    assert counts == {"extract_stack": 3, "write_panels": 3}


@pytest.mark.parametrize("solver", ["eigen", "newton_schulz"])
def test_a_warm_scatter_call_leaves_no_memory_behind(water32_matrices, gap_mu, solver):
    """With the cyclic garbage collector off, everything a warm scatter-mode
    call allocated is freed when it returns: no stack's eigenvectors or
    iterates are kept alive by a reference cycle (a panel closure that
    referred to itself held every stack until a GC pass)."""
    pair = water32_matrices
    with SubmatrixContext(EngineConfig(eps_filter=1e-3)) as context:
        for _ in range(2):
            context.density(pair.K, pair.S, pair.blocks, mu=gap_mu, solver=solver)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            result = context.density(pair.K, pair.S, pair.blocks, mu=gap_mu, solver=solver)
            held = result.density_ao.nbytes
            del result
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
    assert peak > held  # the call's arrays were traced ...
    assert current < 64 * 1024  # ... and are gone
